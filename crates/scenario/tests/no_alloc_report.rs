//! Writing a report allocates a fixed handful — counted, not assumed.
//!
//! A finished sweep is written straight into one `String`: the allocator
//! sees that buffer grow, and the few vectors `score_report` folds each
//! run's flows through. Building a `Json` tree first cost one `String`
//! per key and string value and one `Vec` per object and array: 937
//! calls for the same chaos sweep before it was rendered, against 24.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use ab_scenario::{run_sweep_jobs, score_report, SweepSpec};

thread_local! {
    /// Allocator calls made by this thread (tests run one per thread).
    /// `const`-initialised and without a destructor: reading it never
    /// allocates, so the allocator may.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

/// [`System`], counting `alloc`, `alloc_zeroed` and `realloc` per thread.
struct Counting;

fn note() {
    // A thread that is being torn down has no counter left; nothing here
    // measures it.
    let _ = CALLS.try_with(|calls| calls.set(calls.get() + 1));
}

// SAFETY: every operation is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a thread-local integer that
// never touches allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; the caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocator calls this thread makes while `f` runs.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = CALLS.with(Cell::get);
    f();
    CALLS.with(Cell::get) - before
}

/// Allocator calls a `String` makes growing to `len` bytes by short
/// appends: the first allocation (8 bytes), then one per doubling.
fn growth_calls(len: usize) -> u64 {
    let (mut capacity, mut calls) = (0usize, 0);
    while capacity < len {
        capacity = (capacity * 2).max(8);
        calls += 1;
    }
    calls
}

#[test]
fn writing_a_sweep_report_allocates_only_its_buffer_and_the_scores() {
    let sweep = run_sweep_jobs(&SweepSpec::chaos_sweep(42), 1);
    assert!(
        allocations(|| drop(black_box(Vec::<u64>::with_capacity(4)))) > 0,
        "the counting allocator is not installed"
    );
    let scoring = allocations(|| {
        for run in &sweep.runs {
            black_box(score_report(run));
        }
    });
    let mut text = None;
    let writing = allocations(|| text = Some(sweep.to_json()));
    let len = text.expect("written").as_str().len();
    assert_eq!(
        writing,
        scoring + growth_calls(len),
        "{len} bytes written with {writing} allocator calls, {scoring} of them scoring"
    );
    assert_eq!(
        writing, 24,
        "the pinned count for the chaos sweep at seed 42"
    );
}
