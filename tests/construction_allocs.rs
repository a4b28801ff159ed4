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

use ab_scenario::paper::{self, Forwarder};
use ab_scenario::{host_ip, run_until_done};
use active_bridge::{loader, switchlets, BridgeConfig, BridgeNode};
use ether::MacAddr;
use hostsim::{App, BlastApp, HostConfig, HostCostModel, HostNode, TtcpRecvApp, TtcpSendApp};
use netsim::{
    CostModel, Ctx, FrameBuf, Node, NodeId, PortId, SegmentConfig, SimDuration, SimTime,
    TimerToken, World,
};
use netstack::tcplite::{ReceiverConfig, SenderConfig};

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

/// A start delay is a field of the app value: delaying an app costs the
/// allocator nothing, where boxing the app it delays cost one call per
/// delayed app (544 of a `chain_hot` round's 2 309).
#[test]
fn delaying_an_app_allocates_nothing() {
    let blast = BlastApp::new(PortId(0), MacAddr::local(1), 46, 8, SimDuration::from_ms(1));
    let (calls, app) = allocations(|| App::delayed(SimDuration::from_ms(1), blast));
    assert_eq!(calls, 0, "allocator calls delaying a blaster");
    assert!(
        matches!(app, App::Blast(_)),
        "a delayed app is its own variant"
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

/// Two hosts on one LAN, their ARP caches seeded: `a` sends 256 KiB to
/// `b` with ttcp in full-sized segments, starting 1 ms in. Returns the
/// world and `a`.
fn ttcp_world() -> (World, NodeId) {
    let mut world = World::new(1);
    world.trace_mut().set_enabled(false);
    let lan = world.add_segment(SegmentConfig::named("lan"));
    let (ip_a, ip_b) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
    let (mac_a, mac_b) = (MacAddr::local(1), MacAddr::local(2));
    let send = TtcpSendApp::new(
        PortId(0),
        ip_b,
        5001,
        5001,
        256 * 1024,
        1460,
        SenderConfig::default(),
    );
    let mut a = HostNode::new(
        "a",
        HostConfig::simple(mac_a, ip_a, HostCostModel::FREE),
        vec![App::delayed(SimDuration::from_ms(1), send)],
    );
    a.core.seed_arp(ip_b, mac_b);
    let mut b = HostNode::new(
        "b",
        HostConfig::simple(mac_b, ip_b, HostCostModel::FREE),
        vec![TtcpRecvApp::new(5001, ReceiverConfig::default())],
    );
    b.core.seed_arp(ip_a, mac_a);
    let a = world.add_node(a);
    world.attach(a, lan);
    let b = world.add_node(b);
    world.attach(b, lan);
    (world, a)
}

fn ttcp_sender(world: &World, a: NodeId) -> &TtcpSendApp {
    match world.node::<HostNode>(a).app(0) {
        App::TtcpSend(send) => send,
        _ => unreachable!("app 0 of `a` is the ttcp transmitter"),
    }
}

/// The allocator calls of a booted [`ttcp_world`] from the sender's
/// start until it has sent 64 data frames (and the receiver has
/// acknowledged and the LAN delivered them), in 100 µs steps.
fn first_64_data_frames() -> u64 {
    let (mut world, a) = ttcp_world();
    // Booted (the event queue's tables are sized at start), the sender not
    // yet started.
    world.run_until(SimTime::from_us(500));
    assert_eq!(ttcp_sender(&world, a).frames_sent, 0);
    let mut calls = 0;
    while ttcp_sender(&world, a).frames_sent < 64 {
        let until = world.now() + SimDuration::from_us(100);
        calls += allocations(|| world.run_until(until)).0;
    }
    calls
}

/// Frame storage belongs to the thread, not the world: once a first
/// world on this thread has run a ttcp transfer, a second world composes
/// its first 64 data frames, and the receiver its ACKs, with no
/// allocator call. The span costs 5 calls, none of them a frame's: the
/// sender's transmit queue grows to hold its 32 KiB window (a buffer of
/// 4 entries, then 8, 16 and 32) and the receiver makes its inter-arrival
/// sketch at the second segment. On a thread whose pool is cold — as
/// every world's was while each world kept a pool of its own — the same
/// span also allocates every frame buffer the pool does not yet hold.
#[test]
fn a_second_world_on_a_warm_thread_composes_its_frames_from_the_pool() {
    let cold = std::thread::spawn(first_64_data_frames)
        .join()
        .expect("the cold thread's transfer");

    let (mut first, a) = ttcp_world();
    first.run_until(SimTime::from_secs(10));
    assert!(
        ttcp_sender(&first, a).is_done(),
        "the first transfer completed"
    );
    drop(first);
    let warm = first_64_data_frames();
    assert_eq!(
        warm, 5,
        "allocator calls of a second world's first 64 data frames: only queue and sketch growth"
    );
    assert!(
        cold > warm,
        "a cold pool allocates frames: {cold} calls against {warm}"
    );
}

/// The bytes of one [`figure_10_transfer`]: 32 writes of 8 192 bytes.
const FIGURE_10_BYTES: u64 = 32 * 8192;

/// Figure 10's bridge path (`paper::build_path`): hosts on the 1997 cost
/// model either side of an active bridge running the learning switchlet,
/// and one ttcp transfer of [`FIGURE_10_BYTES`] in 8 192-byte writes,
/// starting 1 ms in with both ARP caches cold. Returns the allocator
/// calls from the booted world to the transfer's end.
fn figure_10_transfer() -> u64 {
    let send = TtcpSendApp::new(
        PortId(0),
        host_ip(2),
        5001,
        5001,
        FIGURE_10_BYTES,
        8192,
        SenderConfig::default(),
    );
    let recv = TtcpRecvApp::new(5001, ReceiverConfig::default());
    let apps_a = vec![App::delayed(SimDuration::from_ms(1), send)];
    let mut path = paper::build_path(Forwarder::Bridge, 1, apps_a, vec![recv]);
    path.world.run_until(SimTime::from_us(500));
    let (calls, ()) = allocations(|| {
        run_until_done(&mut path.world, SimTime::from_secs(10), |w| {
            ttcp_sender(w, path.host_a).is_done()
        })
    });
    let sender = ttcp_sender(&path.world, path.host_a);
    assert!(sender.is_done(), "the transfer completed");
    calls
}

/// Figure 10's bridge path, as the second transfer on a thread: the
/// 24 datagrams the sender parks behind its first ARP exchange wait in
/// pooled buffers, and the pool holds what the first transfer had out at
/// once. The transfer costs 36 allocator calls:
/// * 13 grow a pooled buffer in place: the first transfer left ACK- and
///   ARP-sized buffers in the pool, and a full-sized frame or a parked
///   segment that takes one grows it (`FrameBufMut::pooled`);
/// * 5 for the parked datagrams' list and its map entry
///   (`HostCore::park_behind_arp`: the list's first block and three
///   growths, and the `arp_waiting` table);
/// * 9 grow the sender's transmit queue (4) and the bridge's input queue
///   (5) (`ServiceQueue::offer`), and 2 the sender's LAN's transmit
///   queue (`Segment::offer`);
/// * 2 insert the hosts' ARP entries, 2 are the sender's first counter,
///   2 the bridge's first learned station and 1 the receiver's
///   inter-arrival sketch.
///
/// The same transfer read 63 while each parked datagram got a vector of
/// its own and the pool kept at most 64 buffers: those 24 vectors, and 16
/// grows in place where these read 13.
#[test]
fn figure_10_s_bridge_path_allocates_what_its_transfer_holds() {
    figure_10_transfer();
    assert_eq!(
        figure_10_transfer(),
        36,
        "allocator calls of a second 8 192-byte-write transfer through a learning bridge"
    );
}
