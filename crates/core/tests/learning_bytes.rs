//! What a learning table holds. A bucket is a 6-byte address and a
//! 10-byte entry (`LearningTable`'s docs), so a table reserved for a
//! station count holds a bucket array of 16-byte slots plus hashbrown's
//! control bytes. A bridge reserves nothing: its table grows with the
//! stations it hears. Measured here with a heap-tracking allocator, the
//! way `crates/switchlet/tests/decode_bound.rs` measures a decode.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use std::net::Ipv4Addr;

use active_bridge::{loader, switchlets, BridgeConfig, BridgeNode, LearningTable};
use ether::MacAddr;
use netsim::{NodeId, PortId, SegmentConfig, SimDuration, SimTime, World};

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

/// A two-port bridge booting the loader and the learning switchlet,
/// configured for `expected_stations`, in a world run past its boot.
fn booted_bridge(expected_stations: usize) -> (World, NodeId) {
    let mut world = World::new(1);
    world.trace_mut().set_enabled(false);
    let cfg = BridgeConfig {
        expected_stations,
        ..BridgeConfig::default()
    };
    let mut bridge = BridgeNode::new(
        "bridge0",
        MacAddr::local(0x1000),
        Ipv4Addr::new(10, 0, 0, 1),
        2,
        cfg,
    );
    bridge.boot_load_native(loader::NAME);
    bridge.boot_load_native(switchlets::learning::NAME);
    let id = world.add_node(bridge);
    for name in ["lan0", "lan1"] {
        let seg = world.add_segment(SegmentConfig::named(name));
        world.attach(id, seg);
    }
    world.run_until(SimTime::from_us(1));
    (world, id)
}

/// Bytes held after building and booting [`booted_bridge`]'s world.
fn booted_bytes(expected_stations: usize) -> (usize, World, NodeId) {
    let before = live();
    let (world, id) = booted_bridge(expected_stations);
    (live() - before, world, id)
}

/// `metro_flood`'s bridges are configured for 1 107 stations and hear
/// 16. A booted bridge holds no learning-table heap whatever its
/// configuration expects, and once it has learned 16 stations it holds
/// 32 buckets of 16 bytes, 48 control bytes and its two ports'
/// occupancy counters (room for four): 576 bytes, where the reservation
/// was 34 832.
#[test]
fn a_bridge_learns_into_a_table_that_grows_with_what_it_hears() {
    // The first boot on a thread also builds what bridges share.
    drop(booted_bridge(0));
    let (unexpecting, _keep, _) = booted_bytes(0);
    let (expecting, mut world, id) = booted_bytes(1_107);
    assert_eq!(
        expecting, unexpecting,
        "expected_stations reserved learning-table heap at boot"
    );
    let table = &mut world.node_mut::<BridgeNode>(id).plane_mut().learn;
    assert!(table.is_empty(), "no frame has arrived");

    let before = live();
    for i in 0..16 {
        table.learn(MacAddr::local(i), PortId(i as usize % 2), SimTime::ZERO);
    }
    assert_eq!(table.len(), 16);
    assert_eq!(live() - before, 576);
}
