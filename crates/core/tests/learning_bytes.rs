//! What a learning table holds. A bucket is a 6-byte address and a
//! 10-byte entry (`LearningTable`'s docs), so a table reserved for a
//! station count holds a bucket array of 16-byte slots plus hashbrown's
//! control bytes. Measured here with a heap-tracking allocator, the way
//! `crates/switchlet/tests/decode_bound.rs` measures a decode.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use active_bridge::LearningTable;
use ether::MacAddr;
use netsim::{PortId, SimDuration, SimTime};

thread_local! {
    /// Bytes this thread holds from the allocator. `const`-initialised
    /// and without a destructor: reading it never allocates.
    static LIVE: Cell<usize> = const { Cell::new(0) };
}

/// [`System`], tracking this thread's live heap bytes.
struct Tracking;

fn grow(by: usize) {
    // A thread that is being torn down has no counter left; nothing here
    // measures it.
    let _ = LIVE.try_with(|live| live.set(live.get() + by));
}

fn shrink(by: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get().saturating_sub(by)));
}

// SAFETY: every operation is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a thread-local integer that
// never touches allocator state.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size);
        shrink(layout.size());
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; the caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Tracking = Tracking;

fn live() -> usize {
    LIVE.with(Cell::get)
}

/// `metro_flood`'s bridges each reserve for its 1 040 stations: 2 048
/// buckets of 16 bytes, 2 048 control bytes and 16 trailing ones
/// (51 216 bytes when a bucket was 24). Learning all 1 040 then fits
/// the reservation: what the heap gains is the per-port occupancy
/// counters, not a second bucket array.
#[test]
fn a_table_reserved_for_1040_stations_holds_34832_bytes() {
    let before = live();
    let mut table = LearningTable::new(SimDuration::from_secs(300));
    table.reserve(1_040);
    assert_eq!(live() - before, 34_832);

    let reserved = live();
    for i in 0..1_040 {
        table.learn(MacAddr::local(i), PortId(i as usize % 4), SimTime::ZERO);
    }
    assert_eq!(table.len(), 1_040);
    assert!(
        live() - reserved < 64,
        "learning grew the table: {} B",
        live() - reserved
    );
    drop(table);
    assert_eq!(live(), before);
}
