//! What building and booting a world costs the allocator, call by call
//! (`crates/core/tests/load_path.rs`'s method). A world is built for every
//! benchmark round and every sweep scenario, so a name copied into a
//! second table, a vector per node where one table would do, or a
//! per-field vector in a node's configuration shows here as a count that
//! grew by the number of nodes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;

use active_bridge::{loader, switchlets, BridgeConfig, BridgeNode};
use ether::MacAddr;
use hostsim::{HostConfig, HostCostModel, HostNode};
use netsim::{SegmentConfig, SimTime, World};

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
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = CALLS.with(Cell::get);
    let result = f();
    (CALLS.with(Cell::get) - before, result)
}

const SEGMENTS: [&str; 4] = ["lan0", "lan1", "lan2", "lan3"];
const HOSTS_PER_SEGMENT: usize = 16;

/// Four segments; `bridge0` joins `lan0` and `lan1`, `bridge1` joins
/// `lan1`, `lan2` and `lan3`, both booting the loader and the learning
/// switchlet; sixteen single-homed hosts on each segment. Names are made
/// by the caller, outside what is counted: they are the nodes' own.
fn build(world: &mut World, bridge_names: Vec<String>, host_names: Vec<String>) {
    world.reserve_topology(bridge_names.len() + host_names.len(), SEGMENTS.len());
    let segs: Vec<_> = SEGMENTS
        .iter()
        .map(|&name| world.add_segment(SegmentConfig::named(name)))
        .collect();
    let joins: [&[usize]; 2] = [&[0, 1], &[1, 2, 3]];
    for (i, (name, ports)) in bridge_names.into_iter().zip(joins).enumerate() {
        let mut bridge = BridgeNode::new(
            name,
            MacAddr::local(0x1000 + i as u32),
            Ipv4Addr::new(10, 0, 0, 1 + i as u8),
            ports.len(),
            BridgeConfig::default(),
        );
        bridge.boot_load_native(loader::NAME);
        bridge.boot_load_native(switchlets::learning::NAME);
        let id = world.add_node(bridge);
        for &seg in ports {
            world.attach(id, segs[seg]);
        }
    }
    for (i, name) in host_names.into_iter().enumerate() {
        let cfg = HostConfig::simple(
            MacAddr::local(i as u32),
            Ipv4Addr::new(10, 1, (i / 250) as u8, (i % 250) as u8 + 1),
            HostCostModel::FREE,
        );
        let id = world.add_node(HostNode::new(name, cfg, Vec::new()));
        world.attach(id, segs[i / HOSTS_PER_SEGMENT]);
    }
}

/// The allocator calls of building the world above into a fresh
/// `World` and of booting it (every node's `on_start`, trace off as in
/// every sweep and benchmark world).
fn build_and_boot() -> (u64, u64) {
    let bridge_names: Vec<String> = (0..2).map(|i| format!("bridge{i}")).collect();
    let host_names: Vec<String> = (0..SEGMENTS.len() * HOSTS_PER_SEGMENT)
        .map(|i| format!("h{i}"))
        .collect();
    let mut world = World::new(1);
    world.trace_mut().set_enabled(false);
    let (built, ()) = allocations(|| build(&mut world, bridge_names, host_names));
    let (booted, ()) = allocations(|| world.run_until(SimTime::from_us(1)));
    assert_eq!(world.num_nodes(), 66);
    (built, booted)
}

/// Building the world costs 166 allocator calls: per host its box and its
/// one port list (128); per bridge its box, its port flags, its two port
/// owner tables and its boot list (10); per segment its name and four
/// growths of its attachment list (20); the six tables
/// `World::reserve_topology` sizes, the listener index's station table and
/// this test's own segment list (8). Booting costs 16: per bridge the two
/// carrier names it decodes, the loader switchlet's box, and the first
/// entries of its switchlet directory, its slot table and its address
/// registrations (12), and the event queue's tables (4). Names live in the
/// nodes and in the switchlets that own them: a copy of each in a second
/// table, a vector per node's ports or a vector per configuration field
/// adds a call per node (the same world cost 372 and 24 when it had all
/// three).
#[test]
fn building_a_world_allocates_per_node_not_per_name_or_field() {
    // The first world on a thread also builds what bridges share (the
    // host-module environment, the carrier images).
    build_and_boot();
    let (built, booted) = build_and_boot();
    assert!(
        allocations(|| drop(std::hint::black_box(Vec::<u64>::with_capacity(4)))).0 > 0,
        "the counting allocator is not installed"
    );
    assert_eq!(
        (built, booted),
        (166, 16),
        "allocator calls building and booting 4 segments, 2 bridges and 64 hosts"
    );
}
