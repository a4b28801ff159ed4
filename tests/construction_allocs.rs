//! What building and booting a world costs the allocator, call by call
//! (`crates/core/tests/load_path.rs`'s method). A world is built for every
//! benchmark round and every sweep scenario, so a name copied into a
//! second table, a vector per node where one table would do, or a
//! per-field vector in a node's configuration shows here as a count that
//! grew by the number of nodes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::any::Any;
use std::cell::Cell;
use std::net::Ipv4Addr;

use active_bridge::{loader, switchlets, BridgeConfig, BridgeNode};
use ether::MacAddr;
use hostsim::{App, BlastApp, HostConfig, HostCostModel, HostNode};
use netsim::{
    CostModel, Ctx, FrameBuf, Node, NodeId, PortId, SegmentConfig, SimDuration, SimTime,
    TimerToken, World,
};

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

/// Building the world costs 102 allocator calls: per host its box (64; a
/// single-homed host keeps its one address pair inline); per bridge its
/// box, its port flags, its two port owner tables and its boot list (10);
/// per segment its name and four growths of its attachment list (20); the
/// six tables `World::reserve_topology` sizes, the listener index's
/// station table and this test's own segment list (8). Booting costs 16:
/// per bridge the two carrier names it decodes, the loader switchlet's
/// box, and the first entries of its switchlet directory, its slot table
/// and its address registrations (12), and the event queue's tables (4:
/// the timer heap and its slab, sized for the bridges' four timers, the
/// completion ring, and the same-instant lane, sized for the 66 start
/// events). Names live in the nodes and in the switchlets that own them:
/// a copy of each in a second table, a vector per node's ports or a
/// vector per configuration field adds a call per node (the same world
/// cost 372 and 24 when it had all three, and 166 and 16 while a host's
/// one port was a one-entry vector).
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
        (102, 16),
        "allocator calls building and booting 4 segments, 2 bridges and 64 hosts"
    );
}

/// `N`, with its [`Node::timers`] passed through `hint`.
struct Hinted<N> {
    node: N,
    hint: fn(usize) -> usize,
}

impl<N: Node> Node for Hinted<N> {
    fn name(&self) -> &str {
        self.node.name()
    }
    fn service_queues(&self) -> usize {
        self.node.service_queues()
    }
    fn timers(&self) -> usize {
        (self.hint)(self.node.timers())
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.node.on_start(ctx);
    }
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: FrameBuf) {
        self.node.on_frame(ctx, port, frame);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        self.node.on_timer(ctx, token);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

const CHAIN_BRIDGES: usize = 4;
const STATIONS_PER_END: u32 = 2;
const BLASTERS: usize = 16;
const FRAMES: u64 = 8;

/// The benchmark's `chain_hot` in small: four learning bridges in a
/// line, two stations on each end LAN, each station running a delayed
/// broadcast hello and sixteen delayed blasters of 8 frames toward its
/// partner at the far end. Built with every node's timer count passed
/// through `hint` and run to the end; returns the allocator calls of the
/// whole build and run and the experimental frames (blasts and hellos)
/// the stations accepted.
fn chain(hint: fn(usize) -> usize) -> (u64, u64) {
    let (calls, world) = allocations(|| {
        let mut world = World::new(1);
        world.trace_mut().set_enabled(false);
        let segs: Vec<_> = (0..=CHAIN_BRIDGES)
            .map(|i| world.add_segment(SegmentConfig::named(format!("lan{i}"))))
            .collect();
        for (i, pair) in segs.windows(2).enumerate() {
            let cfg = BridgeConfig {
                cost: CostModel::FREE,
                ..BridgeConfig::default()
            };
            let mut bridge = BridgeNode::new(
                format!("bridge{i}"),
                MacAddr::local(0x1000 + i as u32),
                Ipv4Addr::new(10, 0, 0, 1 + i as u8),
                2,
                cfg,
            );
            bridge.boot_load_native(loader::NAME);
            bridge.boot_load_native(switchlets::learning::NAME);
            let id = world.add_node(Hinted { node: bridge, hint });
            for &seg in pair {
                world.attach(id, seg);
            }
        }
        let interval = SimDuration::from_ms(1);
        for end in 0..2 {
            for k in 0..STATIONS_PER_END {
                let me = end * STATIONS_PER_END + k;
                let partner = (1 - end) * STATIONS_PER_END + k;
                let hello = BlastApp::new(PortId(0), MacAddr::BROADCAST, 46, 1, interval);
                let mut apps = vec![App::delayed(
                    SimDuration::from_us(10 * u64::from(me)),
                    hello,
                )];
                for j in 0..BLASTERS as u64 {
                    let blast =
                        BlastApp::new(PortId(0), MacAddr::local(partner), 46, FRAMES, interval);
                    let at =
                        SimDuration::from_ms(1) + SimDuration::from_us(50 * j + 5 * u64::from(me));
                    apps.push(App::delayed(at, blast));
                }
                let cfg = HostConfig::simple(
                    MacAddr::local(me),
                    Ipv4Addr::new(10, 1, 0, 1 + me as u8),
                    HostCostModel::FREE,
                );
                let node = HostNode::new(format!("s{me}"), cfg, apps);
                let id = world.add_node(Hinted { node, hint });
                world.attach(id, segs[end as usize * CHAIN_BRIDGES]);
            }
        }
        world.run_until(SimTime::from_ms(20));
        world
    });
    let accepted = (0..world.num_nodes())
        .filter_map(|n| world.try_node::<Hinted<HostNode>>(NodeId(n)))
        .map(|host| host.node.core.exp_frames_rx)
        .sum();
    (calls, accepted)
}

/// A chain's stations keep 68 timers pending from the moment they start
/// (every delayed app's start, then every blaster's pacing tick) and its
/// bridges 4 (the learning sweeps); the nodes say so
/// (`Node::timers`: one per app, one per boot image), so `World::start`
/// sizes the timer heap and slab once and the run never grows them.
/// Reserving ten thousand more slots saves no allocator call; reserving
/// none costs the growths.
#[test]
fn a_chain_s_timer_heap_does_not_grow_after_start() {
    chain(|n| n);
    let (calls, accepted) = chain(|n| n);
    let stations = 2 * u64::from(STATIONS_PER_END);
    assert_eq!(
        accepted,
        stations * BLASTERS as u64 * FRAMES + stations * (stations - 1),
        "every blast frame reached its partner and every hello the other stations"
    );
    let (spare, _) = chain(|n| n + 10_000);
    assert_eq!(calls, spare, "the run grew the timer heap or its slab");
    let (none, _) = chain(|_| 0);
    assert!(
        none > calls,
        "a world told of no timers grows its heap: {none} calls against {calls}"
    );
}
