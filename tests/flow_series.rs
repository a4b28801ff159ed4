//! What a measurement app keeps of the series it measures. A ping's
//! round trips, a ttcp receiver's inter-arrival gaps and an upload's
//! progress gaps are folded into a `Sketch` as each sample arrives, so
//! an app holds the same heap after N samples as after 10 N, and the
//! sketch it holds is the one `Sketch::from_samples` builds over the
//! series watched from outside the app. The heap is measured with a
//! heap-tracking allocator, the way `crates/core/tests/learning_bytes.rs`
//! measures a learning table.

use std::alloc::{GlobalAlloc, Layout, System};
use std::any::Any;
use std::cell::Cell;
use std::net::Ipv4Addr;

use ether::{EtherType, Frame, FrameBuilder, MacAddr};
use hostsim::{
    App, HostConfig, HostCostModel, HostNode, PingApp, TtcpRecvApp, TtcpSendApp, UploadApp,
    TFTP_PORT,
};
use netsim::{
    Ctx, FrameBuf, Node, NodeId, PortId, SegmentConfig, SimDuration, SimTime, Sketch, TimerToken,
    World,
};
use netstack::tcplite::DEFAULT_MSS;
use netstack::{Ipv4Packet, Protocol, ReceiverConfig, SenderConfig, TftpPacket, UdpDatagram};

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

/// Samples the first checkpoint waits for; the second waits for ten
/// times as many.
const N: u64 = 200;

fn ip(i: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, i)
}

fn host(i: u8, apps: Vec<App>) -> HostNode {
    HostNode::new(
        format!("h{i}"),
        HostConfig::simple(
            MacAddr::local(u32::from(i)),
            ip(i),
            HostCostModel::pc_1997(),
        ),
        apps,
    )
}

const SINK: u8 = 9;

/// A TFTP server that acknowledges every request and block and keeps
/// none of them, so an upload can run for as many blocks as a test
/// wants without the server's heap growing. Replies go to the frame's
/// source address: the uploader's ARP entry for the sink is seeded.
struct TftpSink;

impl Node for TftpSink {
    fn name(&self) -> &str {
        "sink"
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: FrameBuf) {
        let Ok(eth) = Frame::parse(&frame) else {
            return;
        };
        if eth.ethertype() != EtherType::IPV4 {
            return;
        }
        let Ok(pkt) = Ipv4Packet::parse(eth.payload()) else {
            return;
        };
        if pkt.protocol() != Protocol::UDP {
            return;
        }
        let Ok(udp) = UdpDatagram::parse(pkt.payload(), pkt.src(), pkt.dst()) else {
            return;
        };
        let block = match TftpPacket::parse(udp.payload()) {
            Some(TftpPacket::Wrq { .. }) => 0,
            Some(TftpPacket::Data { block, .. }) => block,
            _ => return,
        };
        let ack = TftpPacket::Ack { block }.emit();
        let reply = netstack::udp::emit(ip(SINK), TFTP_PORT, pkt.src(), udp.src_port(), &ack);
        let reply =
            netstack::ipv4::emit(ip(SINK), pkt.src(), Protocol::UDP, 0, 64, &reply, 1500).unwrap();
        let mac = MacAddr::local(u32::from(SINK));
        ctx.send(
            port,
            FrameBuilder::new(eth.src(), mac, EtherType::IPV4)
                .payload(&reply)
                .build(),
        );
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The three apps that measure a series, each the first app of host 1.
#[derive(Clone, Copy, Debug)]
enum Flow {
    /// Host 1 pings host 2 once a millisecond.
    Ping,
    /// Host 2 receives a ttcp transfer from host 1 (the receiver is the
    /// one that measures).
    TtcpRecv,
    /// Host 1 uploads an image to a [`TftpSink`].
    Upload,
}

const FLOWS: [Flow; 3] = [Flow::Ping, Flow::TtcpRecv, Flow::Upload];

impl Flow {
    /// A world on one segment in which the flow yields more than
    /// `samples` samples, its measuring host passed through `wrap`.
    /// Returns the world and the measuring node.
    fn build<W: Node>(self, samples: u64, wrap: impl FnOnce(HostNode) -> W) -> (World, NodeId) {
        let mut world = World::new(1);
        world.trace_mut().set_enabled(false);
        let lan = world.add_segment(SegmentConfig::named("lan"));
        let (id, peer) = match self {
            Flow::Ping => {
                let ping = PingApp::new(
                    PortId(0),
                    ip(2),
                    samples as u32 + 1,
                    64,
                    SimDuration::from_ms(1),
                    7,
                );
                (
                    world.add_node(wrap(host(1, vec![ping]))),
                    world.add_node(host(2, vec![])),
                )
            }
            Flow::TtcpRecv => {
                let total = (samples + 2) * DEFAULT_MSS as u64;
                let send = TtcpSendApp::new(
                    PortId(0),
                    ip(2),
                    5001,
                    5001,
                    total,
                    8192,
                    SenderConfig::default(),
                );
                let recv = TtcpRecvApp::new(5001, ReceiverConfig::default());
                (
                    world.add_node(wrap(host(2, vec![recv]))),
                    world.add_node(host(1, vec![send])),
                )
            }
            Flow::Upload => {
                let image = vec![0x5A; (samples as usize + 2) * 512 + 100];
                let upload = UploadApp::new(PortId(0), ip(SINK), 2000, "image", image);
                let mut uploader = host(1, vec![upload]);
                uploader
                    .core
                    .seed_arp(ip(SINK), MacAddr::local(u32::from(SINK)));
                (world.add_node(wrap(uploader)), world.add_node(TftpSink))
            }
        };
        world.attach(id, lan);
        world.attach(peer, lan);
        (world, id)
    }

    /// The measuring app's series, folded.
    fn sketch(self, host: &HostNode) -> Option<&Sketch> {
        match host.app(0) {
            App::Ping(a) => a.rtt_ns(),
            App::TtcpRecv(a) => a.inter_arrival_ns(),
            App::Upload(a) => a.progress_gap_ns(),
            _ => unreachable!("{self:?} measures with a ping, a ttcp receiver or an upload"),
        }
    }

    fn samples(self, host: &HostNode) -> u64 {
        self.sketch(host).map_or(0, Sketch::count)
    }
}

/// How a test reaches the measuring host of node `id`.
type HostOf = fn(&World, NodeId) -> &HostNode;

/// Run `world` a millisecond at a time until the flow on node `id` has
/// taken `n` samples.
fn run_to(world: &mut World, flow: Flow, id: NodeId, host: HostOf, n: u64) {
    while flow.samples(host(world, id)) < n {
        assert!(
            world.now() < SimTime::from_secs(60),
            "{flow:?} stalled at {} samples",
            flow.samples(host(world, id))
        );
        world.run_for(SimDuration::from_ms(1));
    }
}

/// Each measuring app holds the same heap once it has taken 10 N
/// samples as it held at N: what grows with a run is the sketch's
/// counters, not a vector of samples (16 KiB of `u64`s by 2 000).
#[test]
fn a_flow_holds_the_same_heap_after_n_and_10n_samples() {
    for flow in FLOWS {
        let (mut world, id) = flow.build(10 * N, |h| h);
        let host: HostOf = |w, id| w.node::<HostNode>(id);
        run_to(&mut world, flow, id, host, N);
        let at_n = live();
        run_to(&mut world, flow, id, host, 10 * N);
        assert_eq!(
            live(),
            at_n,
            "{flow:?}: heap moved between {N} and {} samples",
            flow.samples(host(&world, id))
        );
    }
}

/// A host that logs, with the time, every change a callback makes to a
/// pair of counters read off it: the series an app measures, watched
/// from outside the app.
struct Watched {
    host: HostNode,
    counters: fn(&HostNode) -> [u64; 2],
    /// `(ns, counters)` after each callback that changed them, plus one
    /// entry after `on_start`.
    log: Vec<(u64, [u64; 2])>,
}

impl Watched {
    fn new(host: HostNode, counters: fn(&HostNode) -> [u64; 2]) -> Watched {
        Watched {
            host,
            counters,
            log: Vec::new(),
        }
    }

    fn note(&mut self, now: SimTime) {
        let c = (self.counters)(&self.host);
        if self.log.last().map(|&(_, last)| last) != Some(c) {
            self.log.push((now.as_ns(), c));
        }
    }

    /// When counter `i` stepped, in order, asserting it never stepped by
    /// more than one in a callback.
    fn steps(&self, i: usize) -> Vec<u64> {
        let mut prev = 0;
        let mut at = Vec::new();
        for &(ns, c) in &self.log {
            assert!(c[i] <= prev + 1, "counter {i} stepped by {}", c[i] - prev);
            if c[i] > prev {
                at.push(ns);
            }
            prev = c[i];
        }
        at
    }
}

impl Node for Watched {
    fn name(&self) -> &str {
        self.host.name()
    }

    fn service_queues(&self) -> usize {
        self.host.service_queues()
    }

    fn timers(&self) -> usize {
        self.host.timers()
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.host.on_start(ctx);
        let c = (self.counters)(&self.host);
        self.log.push((ctx.now().as_ns(), c));
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: FrameBuf) {
        self.host.on_frame(ctx, port, frame);
        self.note(ctx.now());
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        self.host.on_timer(ctx, token);
        self.note(ctx.now());
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn gaps(times: &[u64]) -> Vec<u64> {
    times.windows(2).map(|w| w[1] - w[0]).collect()
}

/// The sketch each app holds equals [`Sketch::from_samples`] over the
/// series watched from outside it, bucket for bucket:
/// - a ping's round trips are the time each reply arrived less the time
///   its request left (no loss, so replies come in order);
/// - a ttcp receiver's gaps are between consecutive segment arrivals;
/// - an upload's gaps are between its start and each acknowledgement
///   that moved it on (the sink acknowledges every block once).
#[test]
fn the_online_sketch_is_the_sketch_of_the_watched_series() {
    for flow in FLOWS {
        let counters: fn(&HostNode) -> [u64; 2] = match flow {
            Flow::Ping => |h| match h.app(0) {
                App::Ping(a) => [u64::from(a.sent), u64::from(a.received)],
                _ => unreachable!(),
            },
            Flow::TtcpRecv => |h| match h.app(0) {
                App::TtcpRecv(a) => [a.segments_received(), 0],
                _ => unreachable!(),
            },
            Flow::Upload => |h| [h.core.frames_rx, 0],
        };
        let (mut world, id) = flow.build(N, |h| Watched::new(h, counters));
        run_to(&mut world, flow, id, |w, id| &w.node::<Watched>(id).host, N);
        let watched = world.node::<Watched>(id);
        let series = match flow {
            Flow::Ping => {
                let (sent, received) = (watched.steps(0), watched.steps(1));
                received.iter().zip(&sent).map(|(r, s)| r - s).collect()
            }
            Flow::TtcpRecv => gaps(&watched.steps(0)),
            Flow::Upload => {
                let start = watched.log[0].0;
                gaps(&[vec![start], watched.steps(0)].concat())
            }
        };
        let online = flow.sketch(&watched.host).expect("samples were taken");
        let offline = Sketch::from_samples(series.iter().copied());
        assert!(online.count() >= N, "{flow:?}: {} samples", online.count());
        assert_eq!(online.count(), series.len() as u64, "{flow:?}");
        assert_eq!(online.buckets(), offline.buckets(), "{flow:?}");
        assert_eq!(online.sum(), offline.sum(), "{flow:?}");
        assert_eq!(online.min(), offline.min(), "{flow:?}");
        assert_eq!(online.max(), offline.max(), "{flow:?}");
        assert_eq!(online, &offline, "{flow:?}");
    }
}
