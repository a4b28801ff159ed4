//! The bridge's steady state allocates nothing — counted, not assumed
//! (`crates/switchlet/tests/no_alloc.rs`'s method, applied to the bridge):
//! the control plane first, then a frame's path through three bridges.
//!
//! Three bridges in a ring run the 802.1D switchlet. Once the tree has
//! converged, every second each bridge takes a tick, the root sends
//! hellos, the others relay them and one of them hears a hello on its
//! blocked port: timers, BPDUs in and BPDUs out. None of that may reach
//! the allocator — no owned name, no action list, no snapshot, no frame
//! buffer that is not a recycled one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::any::Any;
use std::cell::Cell;
use std::net::Ipv4Addr;

use active_bridge::{BridgeConfig, BridgeNode};
use ether::MacAddr;
use netsim::{Ctx, FrameBuf, Node, PortId, SimTime, TimerToken, World};

thread_local! {
    /// Allocator calls made by this thread (tests run one per thread).
    /// `const`-initialised and without a destructor: reading it never
    /// allocates, so the allocator may.
    static CALLS: Cell<u64> = const { Cell::new(0) };
    /// Of those, the ones made inside a bridge's `on_timer` or `on_frame`.
    static IN_BRIDGE: Cell<u64> = const { Cell::new(0) };
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

/// A bridge whose `on_timer` and `on_frame` charge their allocator calls
/// to [`IN_BRIDGE`]; every other `Node` method is the bridge's own.
struct Counted(BridgeNode);

fn charged<R>(f: impl FnOnce() -> R) -> R {
    let before = CALLS.with(Cell::get);
    let result = f();
    IN_BRIDGE.with(|n| n.set(n.get() + CALLS.with(Cell::get) - before));
    result
}

impl Node for Counted {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn service_queues(&self) -> usize {
        self.0.service_queues()
    }
    fn timers(&self) -> usize {
        self.0.timers()
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.0.on_start(ctx);
    }
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: FrameBuf) {
        charged(|| self.0.on_frame(ctx, port, frame));
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        charged(|| self.0.on_timer(ctx, token));
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[test]
fn a_converged_ring_ticks_and_relays_hellos_without_allocating() {
    let mut world = World::new(7);
    world.trace_mut().set_enabled(false);
    let lans: Vec<_> = (0..3)
        .map(|_| world.add_segment(Default::default()))
        .collect();
    let bridges: Vec<_> = (0..3u32)
        .map(|i| {
            let mut node = BridgeNode::new(
                format!("bridge{i}"),
                MacAddr::local(0x1000 + i),
                Ipv4Addr::new(10, 0, 0, i as u8),
                2,
                BridgeConfig::default(),
            );
            for name in [active_bridge::loader::NAME, "bridge_learning", "stp_ieee"] {
                node.boot_load_native(name);
            }
            let id = world.add_node(Counted(node));
            world.attach(id, lans[i as usize]);
            world.attach(id, lans[(i as usize + 1) % 3]);
            id
        })
        .collect();

    // Two forward delays and then some: the tree is up, one port blocks.
    world.run_until(SimTime::from_secs(60));
    let (mut blocked, mut bpdus) = (0, 0);
    for &b in &bridges {
        let plane = world.node::<Counted>(b).0.plane();
        blocked += plane.flags().iter().filter(|f| !f.forward).count();
        bpdus += plane.stats.registered;
        let root = plane.published.get("stp_ieee").expect("published").root_mac;
        assert_eq!(root, MacAddr::local(0x1000), "the lowest id is the root");
    }
    assert_eq!(blocked, 1, "a ring blocks exactly one port");

    // Ten hello intervals of steady state.
    let before = IN_BRIDGE.with(Cell::get);
    world.run_until(SimTime::from_secs(80));
    let counted = IN_BRIDGE.with(Cell::get) - before;
    let heard: u64 = bridges
        .iter()
        .map(|&b| world.node::<Counted>(b).0.plane().stats.registered)
        .sum();
    assert!(
        heard >= bpdus + 30,
        "hellos kept arriving: {bpdus} → {heard}"
    );
    assert!(before > 0, "booting allocated, and was counted");
    assert_eq!(counted, 0, "allocator calls in on_timer/on_frame");
}

/// Booting logs — the loader ready, each switchlet installed, the
/// spanning tree started — and a world whose trace is disabled (every
/// sweep and benchmark world) keeps none of those lines, so it must not
/// format them either: booting a line of bridges with the trace off makes
/// at least one allocator call per line fewer than with it on, the line
/// an enabled trace formats and stores.
#[test]
fn a_disabled_trace_formats_no_boot_log_lines() {
    let boot = |enabled: bool| {
        let mut world = World::new(7);
        world.trace_mut().set_enabled(enabled);
        let before = CALLS.with(Cell::get);
        let lans: Vec<_> = (0..5)
            .map(|_| world.add_segment(Default::default()))
            .collect();
        for i in 0..4u32 {
            let mut node = BridgeNode::new(
                format!("bridge{i}"),
                MacAddr::local(0x1000 + i),
                Ipv4Addr::new(10, 0, 0, i as u8),
                2,
                BridgeConfig::default(),
            );
            for name in [active_bridge::loader::NAME, "bridge_learning", "stp_ieee"] {
                node.boot_load_native(name);
            }
            let id = world.add_node(node);
            world.attach(id, lans[i as usize]);
            world.attach(id, lans[i as usize + 1]);
        }
        world.run_until(SimTime::from_ms(1));
        (CALLS.with(Cell::get) - before, world.trace().appended())
    };
    // The first boot on a thread also builds what bridges share (the
    // host environment, the factory table).
    boot(false);
    let (quiet, lines) = boot(false);
    let (traced, traced_lines) = boot(true);
    assert_eq!(
        lines, traced_lines,
        "a disabled trace still counts its lines"
    );
    assert!(
        lines >= 4 * 6,
        "every bridge logged its boot: {lines} lines"
    );
    assert!(
        traced >= quiet + lines,
        "{lines} lines cost {} allocator calls: the disabled trace formatted them",
        traced - quiet
    );
}

/// Sends its frames round-robin, one every 25 µs (two such talkers fill
/// half a 100 Mb/s segment), and drops what it hears.
struct Talker {
    frames: Vec<FrameBuf>,
    sent: usize,
    heard: usize,
}

impl Node for Talker {
    fn name(&self) -> &str {
        "talker"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.schedule(netsim::SimDuration::from_us(25), TimerToken(0));
    }
    fn on_frame(&mut self, _: &mut Ctx<'_>, _: PortId, _: FrameBuf) {
        self.heard += 1;
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        if !self.frames.is_empty() {
            ctx.send(
                PortId(0),
                self.frames[self.sent % self.frames.len()].clone(),
            );
            self.sent += 1;
        }
        ctx.schedule(netsim::SimDuration::from_us(25), token);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The data path, event queue to segment to bridge and back: a frame's
/// pending transmission, its completion event and its handle are written
/// into storage that is already there. The repo benchmark's
/// `allocs_per_frame` says so per workload; this says it exactly.
#[test]
fn learned_and_flooded_frames_cross_three_bridges_without_allocating() {
    let frame = |dst: MacAddr, src: MacAddr| {
        let mut bytes = [dst.octets(), src.octets()].concat();
        bytes.extend_from_slice(&ether::EtherType::EXPERIMENTAL.0.to_be_bytes());
        bytes.resize(60, 0);
        FrameBuf::from(bytes)
    };
    let (west, east, nobody) = (MacAddr::local(1), MacAddr::local(2), MacAddr::local(3));
    let mut world = World::new(7);
    world.trace_mut().set_enabled(false);
    let lans: Vec<_> = (0..4)
        .map(|_| world.add_segment(Default::default()))
        .collect();
    // West talks to east — a flow every bridge learns both ends of — and
    // to an address nobody owns, which every bridge floods; east answers.
    let talkers = [
        (lans[0], vec![frame(east, west), frame(nobody, west)]),
        (lans[3], vec![frame(west, east)]),
    ]
    .map(|(lan, frames)| {
        let id = world.add_node(Talker {
            frames,
            sent: 0,
            heard: 0,
        });
        world.attach(id, lan);
        id
    });
    let bridges: Vec<_> = (0..3u32)
        .map(|i| {
            let mut node = BridgeNode::new(
                format!("bridge{i}"),
                MacAddr::local(0x1000 + i),
                Ipv4Addr::new(10, 0, 0, i as u8),
                2,
                // Forwarding costs no simulated time: the frames keep
                // coming at wire speed.
                BridgeConfig {
                    cost: netsim::CostModel::FREE,
                    ..BridgeConfig::default()
                },
            );
            for name in [active_bridge::loader::NAME, "bridge_learning"] {
                node.boot_load_native(name);
            }
            let id = world.add_node(node);
            world.attach(id, lans[i as usize]);
            world.attach(id, lans[i as usize + 1]);
            id
        })
        .collect();

    // Warm-up: tables learned, queues grown.
    world.run_until(SimTime::from_ms(5));
    let heard_before = talkers.map(|t| world.node::<Talker>(t).heard);
    let before = CALLS.with(Cell::get);
    world.run_until(SimTime::from_ms(25));
    let calls = CALLS.with(Cell::get) - before;

    let [west_heard, east_heard] =
        [0, 1].map(|i| world.node::<Talker>(talkers[i]).heard - heard_before[i]);
    assert_eq!(west_heard, 800, "every frame of east's arrived");
    assert_eq!(east_heard, 800, "and of both of west's flows");
    for &b in &bridges {
        let stats = &world.node::<BridgeNode>(b).plane().stats;
        assert!(stats.directed > 0 && stats.flooded > 0, "{stats:?}");
    }
    assert_eq!(calls, 0, "allocator calls inside World::run_until");
}
