//! Cross-crate property tests: end-to-end invariants under randomized
//! inputs.

use ab_scenario::paper::{run_ping, run_ttcp, Forwarder};
use ab_scenario::{self as scenario, host_ip, host_mac};
use active_bridge::{BridgeConfig, BridgeNode};
use hostsim::{HostConfig, HostCostModel, HostNode};
use netsim::{
    Ctx, FaultConfig, FrameBuf, Node, PortId, ProbeConfig, ProbeEvent, ProbeRecord, SegmentConfig,
    SimTime, TimerToken, World,
};
use proptest::prelude::*;

/// Sends one prebuilt frame per timer tick, retaining its own handle.
struct SharingSender {
    frame: FrameBuf,
    count: u32,
    sent: u32,
}

impl Node for SharingSender {
    fn name(&self) -> &str {
        "sharing-sender"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.schedule(netsim::SimDuration::from_us(10), TimerToken(0));
    }
    fn on_frame(&mut self, _: &mut Ctx<'_>, _: PortId, _: FrameBuf) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, t: TimerToken) {
        if self.sent < self.count {
            ctx.send(PortId(0), self.frame.clone());
            self.sent += 1;
            ctx.schedule(netsim::SimDuration::from_us(500), t);
        }
    }
    fn as_any(&self) -> &dyn core::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
        self
    }
}

/// Retains every delivered frame buffer.
#[derive(Default)]
struct SharingKeeper {
    got: Vec<FrameBuf>,
}

impl Node for SharingKeeper {
    fn name(&self) -> &str {
        "sharing-keeper"
    }
    fn on_frame(&mut self, _: &mut Ctx<'_>, _: PortId, frame: FrameBuf) {
        self.got.push(frame);
    }
    fn as_any(&self) -> &dyn core::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
        self
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Zero-copy sharing semantics under arbitrary payloads and fault
    /// mixes: the sender-held buffer is never mutated by the simulator;
    /// every listener of one wire frame observes identical bytes (and
    /// shares storage with the capture log entry); a corrupted delivery
    /// differs from the original by exactly one bit and never aliases the
    /// sender's allocation.
    #[test]
    fn frame_sharing_respects_cow_isolation(
        len in 1usize..600,
        fill in any::<u8>(),
        corrupt_one_in in prop::sample::select(vec![0u64, 1, 3]),
        duplicate_one_in in prop::sample::select(vec![0u64, 1, 4]),
        seed in 0u64..500,
        count in 1u32..6,
    ) {
        let original = FrameBuf::from(vec![fill; len]);
        let mut world = World::new(seed);
        world.trace_mut().set_enabled(false);
        let lan = world.add_segment(SegmentConfig {
            fault: FaultConfig { drop_one_in: 0, corrupt_one_in, duplicate_one_in, ..Default::default() },
            capture: true,
            ..Default::default()
        });
        let s = world.add_node(SharingSender { frame: original.clone(), count, sent: 0 });
        world.attach(s, lan);
        let listeners: Vec<_> = (0..2).map(|_| {
            let id = world.add_node(SharingKeeper::default());
            world.attach(id, lan);
            id
        }).collect();
        world.run_until(SimTime::from_ms(50));

        // The sender-held buffer is pristine no matter what the wire did.
        prop_assert!(world.node::<SharingSender>(s).frame == original);
        prop_assert!(original.iter().all(|&b| b == fill));

        let a = &world.node::<SharingKeeper>(listeners[0]).got;
        let b = &world.node::<SharingKeeper>(listeners[1]).got;
        prop_assert_eq!(a.len(), b.len(), "both listeners hear every copy");
        let cap = world.segment(lan).captured();
        for (fa, fb) in a.iter().zip(b.iter()) {
            prop_assert!(fa.shares_storage(fb), "listeners share one buffer");
            let diff: u32 = original.iter().zip(fa.iter()).map(|(x, y)| (x ^ y).count_ones()).sum();
            if corrupt_one_in == 1 {
                prop_assert_eq!(diff, 1, "always-corrupt flips exactly one bit");
                prop_assert!(!fa.shares_storage(&original), "corruption detaches via CoW");
            } else if corrupt_one_in == 0 {
                prop_assert_eq!(diff, 0, "clean wire delivers identical bytes");
                prop_assert!(fa.shares_storage(&original), "clean delivery never copies");
            } else {
                prop_assert!(diff <= 1, "at most one corrupted bit per frame");
            }
            // Every delivered copy aliases some capture entry (capture
            // records the post-fault wire frame).
            prop_assert!(
                cap.iter().any(|c| fa.shares_storage(&c.data)),
                "delivered frames share storage with the capture log"
            );
        }
    }
}

/// Composes one frame per tick in a buffer from the world's pool, each
/// filled with its own sequence number, and keeps no handle to it.
struct PoolComposer {
    lens: Vec<usize>,
    sent: usize,
}

impl Node for PoolComposer {
    fn name(&self) -> &str {
        "pool-composer"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.schedule(netsim::SimDuration::from_us(10), TimerToken(0));
    }
    fn on_frame(&mut self, _: &mut Ctx<'_>, _: PortId, _: FrameBuf) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, t: TimerToken) {
        if let Some(&len) = self.lens.get(self.sent) {
            let mut buf = ctx.take_buf(len);
            buf.resize(len, self.sent as u8);
            ctx.send(PortId(0), buf.freeze());
            self.sent += 1;
            // Longer than a full-sized frame's serialization, so the
            // previous frame has been delivered (and recycled) by then.
            ctx.schedule(netsim::SimDuration::from_us(500), t);
        }
    }
    fn as_any(&self) -> &dyn core::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
        self
    }
}

/// Recycles every delivered handle, after cloning the frames `keep` marks.
struct PoolHolder {
    keep: Vec<bool>,
    held: Vec<(usize, FrameBuf)>,
    /// Storage address of every delivered frame, in arrival order.
    storage: Vec<*const u8>,
}

impl Node for PoolHolder {
    fn name(&self) -> &str {
        "pool-holder"
    }
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, _: PortId, frame: FrameBuf) {
        let seq = self.storage.len();
        self.storage.push(frame.as_ptr());
        if self.keep[seq] {
            self.held.push((seq, frame.clone()));
        }
        ctx.recycle_frame(frame);
    }
    fn as_any(&self) -> &dyn core::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
        self
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A recycled buffer is never visible through a live handle: whoever
    /// holds a clone of a delivered frame (a capture log, a VM table
    /// value) keeps seeing its bytes while every other handle is recycled
    /// and later frames are composed from the pool — and the frames nobody
    /// held really do come back as the storage of later ones.
    #[test]
    fn recycled_buffers_never_show_through_live_handles(
        lens in prop::collection::vec(60usize..1515, 2..24),
        keep_bits in any::<u32>(),
        seed in 0u64..500,
    ) {
        let keep: Vec<bool> = (0..lens.len()).map(|seq| keep_bits >> seq & 1 == 1).collect();
        let mut world = World::new(seed);
        world.trace_mut().set_enabled(false);
        let lan = world.add_segment(SegmentConfig::default());
        let composer = world.add_node(PoolComposer { lens: lens.clone(), sent: 0 });
        world.attach(composer, lan);
        let holder = world.add_node(PoolHolder { keep: keep.clone(), held: Vec::new(), storage: Vec::new() });
        world.attach(holder, lan);
        world.run_until(SimTime::from_ms(50));

        let holder = world.node::<PoolHolder>(holder);
        prop_assert_eq!(holder.storage.len(), lens.len(), "every frame arrived");
        for (seq, frame) in &holder.held {
            prop_assert_eq!(frame.len(), lens[*seq]);
            prop_assert!(frame.iter().all(|&b| b == *seq as u8), "frame {} was overwritten", seq);
            prop_assert!(
                holder.storage[seq + 1..].iter().all(|&later| later != frame.as_ptr()),
                "held frame {}'s storage was handed out again", seq
            );
        }
        for seq in 1..lens.len() {
            if !keep[seq - 1] && lens[seq] <= lens[seq - 1] {
                prop_assert_eq!(
                    holder.storage[seq], holder.storage[seq - 1],
                    "frame {} should reuse the storage frame {} gave back", seq, seq - 1
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every ping of any size (including fragmented ones) gets a reply
    /// through the bridge.
    #[test]
    fn any_size_ping_survives_the_bridge(size in 0usize..4096, seed in 0u64..1000) {
        let s = run_ping(Forwarder::Bridge, size, 3, seed);
        prop_assert_eq!(s.received, 3);
    }

    /// ttcp transfers of any write size complete and deliver every byte.
    #[test]
    fn any_write_size_ttcp_completes(
        write in prop::sample::select(vec![32usize, 100, 512, 700, 1024, 1462, 2048, 8192]),
        total in 20_000u64..200_000,
    ) {
        let s = run_ttcp(Forwarder::Bridge, write, total, 5);
        prop_assert!(s.completed, "write={} total={}", write, total);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For random bridged topologies, the converged spanning tree is
    /// loop-free and spans every reachable segment: treating segments as
    /// vertices and each bridge's forwarding port-pairs as edges, the
    /// active topology has no cycle and connects everything the physical
    /// topology connects.
    #[test]
    fn stp_converges_to_a_spanning_tree(
        n_segs in 2usize..6,
        extra_links in 0usize..4,
        seed in 0u64..10_000,
    ) {
        let mut world = World::new(seed);
        world.trace_mut().set_enabled(false);
        let segs = scenario::lans(&mut world, n_segs);
        // A connected backbone: bridge i joins segment i and i+1 ...
        let mut edges: Vec<(usize, usize)> = (0..n_segs - 1).map(|i| (i, i + 1)).collect();
        // ... plus random extra links (creating loops).
        let mut rng = netsim::Xoshiro::seed_from_u64(seed ^ 0xABCD);
        for _ in 0..extra_links {
            let a = rng.range(n_segs as u64) as usize;
            let b = rng.range(n_segs as u64) as usize;
            if a != b {
                edges.push((a.min(b), a.max(b)));
            }
        }
        let bridges: Vec<_> = edges
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| {
                scenario::bridge(
                    &mut world,
                    i as u32,
                    &[segs[a], segs[b]],
                    BridgeConfig::default(),
                    &["bridge_learning", "stp_ieee"],
                )
            })
            .collect();
        // Converge: max_age + 2 x forward_delay + margin.
        world.run_until(SimTime::from_secs(60));

        // Build the active-forwarding edge list.
        let mut active: Vec<(usize, usize)> = Vec::new();
        for (i, &b) in bridges.iter().enumerate() {
            let plane = world.node::<BridgeNode>(b).plane();
            let fwd0 = plane.port_flags(0).forward;
            let fwd1 = plane.port_flags(1).forward;
            if fwd0 && fwd1 {
                active.push(edges[i]);
            }
        }
        // Union-find over segments.
        let mut parent: Vec<usize> = (0..n_segs).collect();
        fn find(p: &mut Vec<usize>, x: usize) -> usize {
            if p[x] != x {
                let r = find(p, p[x]);
                p[x] = r;
            }
            p[x]
        }
        let mut cycle = false;
        for &(a, b) in &active {
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            if ra == rb {
                cycle = true;
            } else {
                parent[ra] = rb;
            }
        }
        prop_assert!(!cycle, "active topology has a loop: {:?}", active);
        // Connectivity: physical graph is connected by construction, so
        // the active graph must connect all segments too.
        let root = find(&mut parent, 0);
        for s in 1..n_segs {
            prop_assert_eq!(
                find(&mut parent, s),
                root,
                "segment {} disconnected; active: {:?}",
                s,
                active
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The bridge never crashes on arbitrary garbage frames delivered to
    /// its loader address, and never loads anything from them.
    #[test]
    fn loader_survives_garbage(bytes in prop::collection::vec(any::<u8>(), 14..200)) {
        let mut world = World::new(1);
        let segs = scenario::lans(&mut world, 2);
        let bridge = scenario::bridge(
            &mut world,
            0,
            &segs,
            BridgeConfig::default(),
            &["bridge_learning"],
        );
        let host = world.add_node(HostNode::new(
            "fuzzer",
            HostConfig::simple(host_mac(1), host_ip(1), HostCostModel::FREE),
            vec![],
        ));
        world.attach(host, segs[0]);
        world.run_until(SimTime::from_ms(10));
        // Hand-craft a frame to the bridge's station address with random
        // contents after the header.
        let mut frame = Vec::new();
        frame.extend_from_slice(&scenario::bridge_mac(0).octets());
        frame.extend_from_slice(&host_mac(1).octets());
        frame.extend_from_slice(&bytes[..2]);
        frame.extend_from_slice(&bytes[2..]);
        frame.resize(frame.len().max(60), 0);
        if frame.len() > 1514 {
            frame.truncate(1514);
        }
        world.with_ctx::<HostNode, _>(host, |h, ctx| {
            h.core.send_raw(ctx, netsim::PortId(0), FrameBuf::from(frame));
        });
        world.run_until(SimTime::from_ms(50));
        let stats = &world.node::<BridgeNode>(bridge).plane().stats;
        // Only the two boot images (netloader + learning); the garbage
        // loaded nothing.
        prop_assert_eq!(stats.images_loaded, 2, "only the boot images");
    }
}

/// Sends nothing on its own: the test transmits through it.
struct Injector;

impl Node for Injector {
    fn name(&self) -> &str {
        "injector"
    }
    fn on_frame(&mut self, _: &mut Ctx<'_>, _: PortId, _: FrameBuf) {}
    fn as_any(&self) -> &dyn core::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
        self
    }
}

/// A promiscuous listener that leaves a probe mark for every frame it
/// hears, so the recording shows where a called node's own records fall
/// among the world's `Deliver` records.
struct MarkingListener;

impl Node for MarkingListener {
    fn name(&self) -> &str {
        "marking-listener"
    }
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, _: PortId, frame: FrameBuf) {
        ctx.probe(|node| ProbeRecord::Mark {
            node,
            label: "heard",
        });
        ctx.recycle_frame(frame);
    }
    fn as_any(&self) -> &dyn core::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
        self
    }
}

/// What one run of [`filter_world`] leaves behind.
#[derive(Debug, PartialEq)]
struct FilterRun {
    frames_delivered: u64,
    seg_counters: Vec<String>,
    /// Per host: `(frames_rx, exp_frames_rx)`.
    host_rx: Vec<(u64, u64)>,
    records: Vec<ProbeEvent>,
}

/// A shared LAN (two plain stations, the injector, a marking listener, a
/// promiscuous station, a 1997-cost station, one more plain station — the
/// sender in the middle of the attachment order), a point-to-point link
/// (one plain station, then the injector) and a wide LAN of 70 attachments
/// (past one machine word of listeners: 66 plain stations with the
/// injector, a marking listener, a promiscuous and a 1997-cost station
/// among them), recorder armed, driven by `steps` of `[kind, who, via]` —
/// `via` picks the injector's port or, one time in four, has a station of
/// the wide LAN send the frame itself. With `clear_filters` every
/// station's receive filter is withdrawn after start, which is the world
/// as it was before filters existed. Returns the run and how many ports
/// of each segment had declared a filter.
fn filter_world(seed: u64, steps: &[[u8; 3]], clear_filters: bool) -> (FilterRun, [usize; 3]) {
    let mut world = World::new(seed);
    world.probe_mut().arm(ProbeConfig::default());
    let shared = world.add_segment(SegmentConfig::named("shared"));
    let link = world.add_segment(SegmentConfig::named("link"));
    let wide = world.add_segment(SegmentConfig::named("wide"));
    let mut hosts = Vec::new();
    let mut add_host = |world: &mut World, seg, promiscuous, cost| {
        let n = hosts.len() as u32 + 1;
        let mut cfg = HostConfig::simple(host_mac(n), host_ip(n), cost);
        cfg.promiscuous = promiscuous;
        let host = world.add_node(HostNode::new(format!("h{n}"), cfg, vec![]));
        world.attach(host, seg);
        hosts.push(host);
    };
    add_host(&mut world, shared, false, HostCostModel::FREE);
    add_host(&mut world, shared, false, HostCostModel::FREE);
    let injector = world.add_node(Injector);
    world.attach(injector, shared);
    let marker = world.add_node(MarkingListener);
    world.attach(marker, shared);
    add_host(&mut world, shared, true, HostCostModel::FREE);
    add_host(&mut world, shared, false, HostCostModel::pc_1997());
    add_host(&mut world, shared, false, HostCostModel::FREE);
    add_host(&mut world, link, false, HostCostModel::FREE);
    world.attach(injector, link);
    let wide_marker = world.add_node(MarkingListener);
    for slot in 0..70 {
        match slot {
            20 => drop(world.attach(injector, wide)),
            41 => drop(world.attach(wide_marker, wide)),
            66 => add_host(&mut world, wide, true, HostCostModel::FREE),
            67 => add_host(&mut world, wide, false, HostCostModel::pc_1997()),
            _ => add_host(&mut world, wide, false, HostCostModel::FREE),
        }
    }
    world.run_until(SimTime::from_us(1));

    let declared = [shared, link, wide].map(|seg| {
        let attachments = world.segment(seg).attachments();
        attachments.iter().filter(|a| a.rx_filter.is_some()).count()
    });
    if clear_filters {
        for &host in &hosts {
            world.with_ctx::<HostNode, _>(host, |_, ctx| ctx.set_rx_filter(PortId(0), None));
        }
    }

    // The first eight stations are the shared LAN's and the link's.
    let (narrow, on_wide) = hosts.split_at(8);
    let listeners: Vec<_> = hosts.iter().copied().chain([marker, wide_marker]).collect();
    for &[kind, who, via] in steps {
        let who_of = |stations: &[netsim::NodeId]| usize::from(who) % stations.len();
        let owner = match via % 4 {
            0 | 1 => 1 + who_of(narrow),
            _ => 1 + narrow.len() + who_of(on_wide),
        };
        let owner = host_mac(owner as u32).octets();
        let full = |dst: [u8; 6]| {
            let mut frame = dst.to_vec();
            frame.extend_from_slice(&host_mac(99).octets());
            frame.extend_from_slice(&ether::EtherType::EXPERIMENTAL.0.to_be_bytes());
            frame.resize(60, who);
            frame
        };
        let frame = match kind % 8 {
            0 => full(owner),
            1 => full(host_mac(77).octets()),
            2 => full([0xFF; 6]),
            3 => full([0x01, 0x00, 0x5E, 0x00, 0x00, who]),
            4 => owner[..3].to_vec(),
            5 => [&owner[..], &[0xAA; 4]].concat(),
            6 => {
                world.crash_node(listeners[usize::from(who) % listeners.len()]);
                continue;
            }
            _ => {
                world.restart_node(listeners[usize::from(who) % listeners.len()]);
                continue;
            }
        };
        match via % 4 {
            // A station — a filtered one, 66 times in 68 — is the sender.
            3 => {
                let sender = on_wide[usize::from(who / 3) % on_wide.len()];
                world.with_ctx::<HostNode, _>(sender, |h, ctx| {
                    h.core.send_raw(ctx, PortId(0), FrameBuf::from(frame));
                });
            }
            port => world.with_ctx::<Injector, _>(injector, |_, ctx| {
                ctx.send(PortId(usize::from(port)), FrameBuf::from(frame));
            }),
        }
        // Two steps in three land while the previous frame is still on
        // the wire or in the costed station's receive queue.
        world.run_for(netsim::SimDuration::from_us(
            4 + 40 * u64::from(who % 3 == 0),
        ));
    }
    world.run_for(netsim::SimDuration::from_ms(5));

    let run = FilterRun {
        frames_delivered: world.frames_delivered(),
        seg_counters: [shared, link, wide]
            .iter()
            .map(|&seg| format!("{:?}", world.segment(seg).counters()))
            .collect(),
        host_rx: hosts
            .iter()
            .map(|&h| {
                let core = &world.node::<HostNode>(h).core;
                (core.frames_rx, core.exp_frames_rx)
            })
            .collect(),
        records: world.probe().records().copied().collect(),
    };
    (run, declared)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Declared receive filters change nothing a simulation can observe:
    /// the same world with every filter withdrawn counts the same
    /// deliveries on every segment, every station accepts the same
    /// frames, and the flight recorder holds the same records in the same
    /// order — each `Deliver` at its listener's place in attachment order,
    /// around the records the called listeners write themselves.
    #[test]
    fn receive_filters_are_invisible_to_the_simulation(
        steps in prop::collection::vec(any::<[u8; 3]>(), 1..60),
        seed in 0u64..500,
    ) {
        let (filtered, declared) = filter_world(seed, &steps, false);
        let (cleared, _) = filter_world(seed, &steps, true);
        // The zero-cost, non-promiscuous stations, and nobody else.
        prop_assert_eq!(declared, [3, 1, 66]);
        prop_assert!(!filtered.records.is_empty());
        prop_assert_eq!(filtered, cleared);
    }
}

/// Arms a given list of timers with `Ctx::schedule` — every one waits in
/// the timer heap — and logs what fires.
struct HeapOnly {
    /// `(deadline, token)`, in arming order.
    arms: Vec<(SimTime, u64)>,
    fired: Vec<(SimTime, u64)>,
}

impl Node for HeapOnly {
    fn name(&self) -> &str {
        "heap-only"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for &(deadline, token) in &self.arms {
            ctx.schedule(deadline.saturating_since(ctx.now()), TimerToken(token));
        }
    }
    fn on_frame(&mut self, _: &mut Ctx<'_>, _: PortId, _: FrameBuf) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        self.fired.push((ctx.now(), token.0));
    }
    fn as_any(&self) -> &dyn core::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
        self
    }
}

/// Where a timer waits never shows. A ttcp transfer between two costed
/// hosts — directly, through the C repeater, through the bridge — arms
/// service completions (`Ctx::schedule_service`: the completion ring)
/// beside application, sweep and zero-delay timers (`Ctx::schedule`: the
/// heap, the now lane). A reference node then arms the timers that fired,
/// in the order they were armed, through `Ctx::schedule` alone: it must
/// see the same `(time, node, timer)` sequence.
#[test]
fn service_completions_fire_in_the_order_heap_timers_would() {
    use ab_scenario::paper::build_path;
    use hostsim::{TtcpRecvApp, TtcpSendApp};

    let horizon = SimTime::from_ms(100);
    for fwd in [Forwarder::Direct, Forwarder::Repeater, Forwarder::Bridge] {
        let send = TtcpSendApp::new(
            PortId(0),
            host_ip(2),
            5001,
            5001,
            48 * 1024,
            1024,
            Default::default(),
        );
        let recv = TtcpRecvApp::new(5001, Default::default());
        let mut path = build_path(fwd, 3, vec![send], vec![recv]);
        path.world.probe_mut().arm(ProbeConfig::default());
        path.world.run_until(horizon);
        assert_eq!(
            path.world.probe().dropped(),
            0,
            "{fwd:?}: recording truncated"
        );

        let mut armed = std::collections::HashMap::new();
        let mut fired = Vec::new();
        for event in path.world.probe().records() {
            match event.record {
                ProbeRecord::TimerArm { node, id, deadline } => {
                    armed.insert(id, (node, deadline));
                }
                ProbeRecord::TimerFire { node, id } => fired.push((event.at, node, id)),
                _ => {}
            }
        }
        let middle_fired = fired.iter().filter(|f| Some(f.1) == path.middle).count();
        assert!(fired.len() > 200, "{fwd:?}: {} timers fired", fired.len());
        assert_eq!(middle_fired > 40, path.middle.is_some(), "{fwd:?}");

        // Timer ids are drawn in arming order.
        let mut arms: Vec<(SimTime, u64)> =
            fired.iter().map(|&(_, _, id)| (armed[&id].1, id)).collect();
        arms.sort_by_key(|&(_, id)| id);
        let mut reference = World::new(0);
        let heap_only = reference.add_node(HeapOnly {
            arms,
            fired: Vec::new(),
        });
        reference.run_until(horizon);
        let want: Vec<_> = reference
            .node::<HeapOnly>(heap_only)
            .fired
            .iter()
            .map(|&(at, id)| (at, armed[&id].0, id))
            .collect();
        assert_eq!(fired, want, "{fwd:?}");
    }
}
