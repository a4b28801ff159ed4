//! A counting global allocator with a gate.
//!
//! The benchmark binary installs [`CountingAlloc`]; while the gate is shut
//! (the default, and the state during every timed round) an allocation
//! costs one relaxed load on top of the system allocator. [`count`] opens
//! the gate around a closure and returns how many allocation calls
//! (`alloc`, `alloc_zeroed`, `realloc`) it made.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

// Relaxed throughout: both values are statistics read on the thread that
// wrote them; they publish no other data.
static COUNTING: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);

/// [`System`] plus a gated call counter.
pub struct CountingAlloc;

#[inline]
fn note() {
    if COUNTING.load(Relaxed) {
        CALLS.fetch_add(1, Relaxed);
    }
}

// SAFETY: every operation is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are atomics that never touch
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
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

/// Run `f` with the gate open; returns its result and the allocation calls
/// made meanwhile. Reads 0 calls when [`CountingAlloc`] is not the
/// process's global allocator (library tests), see [`installed`].
pub fn count<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = CALLS.load(Relaxed);
    COUNTING.store(true, Relaxed);
    let out = f();
    COUNTING.store(false, Relaxed);
    (out, CALLS.load(Relaxed) - before)
}

/// Is [`CountingAlloc`] this process's global allocator?
pub fn installed() -> bool {
    count(|| drop(std::hint::black_box(Vec::<u64>::with_capacity(4)))).1 > 0
}
