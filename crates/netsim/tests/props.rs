//! Property tests for the simulator substrate: time arithmetic, RNG
//! determinism, delivery ordering and conservation on segments.

use netsim::FrameBuf;
use netsim::{
    Ctx, FaultConfig, Node, PortId, SegmentConfig, SimDuration, SimTime, TimerToken, World, Xoshiro,
};
use proptest::prelude::*;

/// Sends `n` frames of `size` bytes at fixed intervals from start.
struct Sender {
    n: u32,
    size: usize,
    interval: SimDuration,
    sent: u32,
}

impl Node for Sender {
    fn name(&self) -> &str {
        "sender"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.schedule(SimDuration::from_ns(1), TimerToken(0));
    }
    fn on_frame(&mut self, _: &mut Ctx<'_>, _: PortId, _: FrameBuf) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _: TimerToken) {
        if self.sent < self.n {
            // Tag each frame with its sequence number.
            let mut payload = vec![0u8; self.size.max(4)];
            payload[..4].copy_from_slice(&self.sent.to_be_bytes());
            ctx.send(PortId(0), FrameBuf::from(payload));
            self.sent += 1;
            ctx.schedule(self.interval, TimerToken(0));
        }
    }
    fn as_any(&self) -> &dyn core::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
        self
    }
}

/// Records sequence numbers in arrival order.
#[derive(Default)]
struct Recorder {
    seen: Vec<u32>,
}

impl Node for Recorder {
    fn name(&self) -> &str {
        "recorder"
    }
    fn on_frame(&mut self, _: &mut Ctx<'_>, _: PortId, frame: FrameBuf) {
        self.seen
            .push(u32::from_be_bytes(frame[..4].try_into().unwrap()));
    }
    fn as_any(&self) -> &dyn core::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
        self
    }
}

proptest! {
    /// FIFO: a shared segment never reorders one sender's frames, for
    /// any frame size/interval combination.
    #[test]
    fn segment_preserves_order(
        n in 1u32..60,
        size in 4usize..1500,
        interval_us in 1u64..500,
    ) {
        let mut world = World::new(1);
        let lan = world.add_segment(SegmentConfig::default());
        let s = world.add_node(Sender {
            n,
            size,
            interval: SimDuration::from_us(interval_us),
            sent: 0,
        });
        let r = world.add_node(Recorder::default());
        world.attach(s, lan);
        world.attach(r, lan);
        world.run_until(SimTime::from_secs(2));
        let seen = &world.node::<Recorder>(r).seen;
        prop_assert_eq!(seen.len(), n as usize);
        for (i, &v) in seen.iter().enumerate() {
            prop_assert_eq!(v, i as u32);
        }
    }

    /// Conservation under loss: delivered + dropped = sent, for any drop
    /// rate, and the run is deterministic per seed.
    #[test]
    fn fault_injection_conserves_frames(
        n in 1u32..80,
        drop_one_in in 1u64..10,
        seed in any::<u64>(),
    ) {
        let run = |seed: u64| {
            let mut world = World::new(seed);
            let lan = world.add_segment(SegmentConfig {
                fault: FaultConfig { drop_one_in, ..Default::default() },
                ..Default::default()
            });
            let s = world.add_node(Sender {
                n,
                size: 64,
                interval: SimDuration::from_us(100),
                sent: 0,
            });
            let r = world.add_node(Recorder::default());
            world.attach(s, lan);
            world.attach(r, lan);
            world.run_until(SimTime::from_secs(1));
            let delivered = world.node::<Recorder>(r).seen.len() as u64;
            let dropped = world.segment(lan).counters().fault_drops;
            (delivered, dropped)
        };
        let (delivered, dropped) = run(seed);
        prop_assert_eq!(delivered + dropped, n as u64);
        prop_assert_eq!(run(seed), (delivered, dropped), "deterministic per seed");
    }

    /// SimTime/SimDuration arithmetic is consistent.
    #[test]
    fn time_arithmetic(a in 0u64..u32::MAX as u64, b in 0u64..u32::MAX as u64) {
        let t = SimTime::from_ns(a);
        let d = SimDuration::from_ns(b);
        prop_assert_eq!((t + d) - t, d);
        prop_assert_eq!((t + d).saturating_since(t), d);
        prop_assert_eq!(t.saturating_since(t + d), SimDuration::ZERO);
    }

    /// Serialization time is monotone in size and inversely monotone in
    /// bandwidth.
    #[test]
    fn serialization_monotone(
        len_a in 0usize..10_000,
        len_b in 0usize..10_000,
        bw in 1_000_000u64..1_000_000_000,
    ) {
        let (small, large) = if len_a <= len_b { (len_a, len_b) } else { (len_b, len_a) };
        prop_assert!(
            SimDuration::serialization(small, bw) <= SimDuration::serialization(large, bw)
        );
        prop_assert!(
            SimDuration::serialization(large, bw * 2) <= SimDuration::serialization(large, bw)
        );
    }

    /// The RNG's range() is unbiased enough to hit all buckets and stays
    /// in bounds.
    #[test]
    fn rng_range_bounds(seed in any::<u64>(), bound in 1u64..1000) {
        let mut rng = Xoshiro::seed_from_u64(seed);
        for _ in 0..100 {
            prop_assert!(rng.range(bound) < bound);
        }
    }
}

/// A station for the listener-choice model: counts the frames it is
/// called with and, holding a `refile` address, moves its filter there
/// from inside the first call (which must apply from the next frame on).
#[derive(Default)]
struct Listener {
    calls: u32,
    refile: Option<[u8; 6]>,
}

impl Node for Listener {
    fn name(&self) -> &str {
        "listener"
    }
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, _: FrameBuf) {
        self.calls += 1;
        if let Some(mac) = self.refile.take() {
            ctx.set_rx_filter(port, Some(mac));
        }
    }
    fn as_any(&self) -> &dyn core::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
        self
    }
}

/// The receive-filter rule as `Ctx::set_rx_filter` states it, written
/// from the public filter: a promiscuous port is called for every frame,
/// a station for frames of six bytes or more addressed to it or to
/// broadcast. `Attachment::hears` is this rule on words.
fn hears(filter: Option<[u8; 6]>, frame: &[u8]) -> bool {
    match (filter, frame.first_chunk::<6>()) {
        (None, _) => true,
        (Some(_), None) => false,
        (Some(mac), Some(&dst)) => dst == mac || dst == [0xFF; 6],
    }
}

/// What the listener-choice model draws from: a fresh station address
/// per unique filter, and a pool of four that filters share.
struct Draws {
    rng: Xoshiro,
    unique: u16,
}

impl Draws {
    fn below(&mut self, bound: usize) -> usize {
        self.rng.range(bound as u64) as usize
    }

    /// Promiscuous, a station address of its own, one of the four shared
    /// ones, or broadcast.
    fn filter(&mut self) -> Option<[u8; 6]> {
        match self.below(8) {
            0 | 1 => None,
            2..=4 => {
                self.unique += 1;
                let [hi, lo] = self.unique.to_be_bytes();
                Some([2, 0, 0, 1, hi, lo])
            }
            5 | 6 => Some([2, 0, 0, 2, 0, self.below(4) as u8]),
            _ => Some([0xFF; 6]),
        }
    }

    /// A frame addressed to a station of `filters`, to nobody, to a group,
    /// to broadcast, or too short to carry an address (0–5 bytes, a prefix
    /// of an address).
    fn frame(&mut self, filters: &[Option<[u8; 6]>]) -> Vec<u8> {
        let owned = filters.iter().flatten().copied().collect::<Vec<_>>();
        let dst = match self.below(6) {
            0 | 1 if !owned.is_empty() => owned[self.below(owned.len())],
            0..=2 => [2, 0, 0, 3, 0, self.below(256) as u8],
            3 => [1, 0, 0x5E, 0, 0, self.below(256) as u8],
            4 => [0xFF; 6],
            _ => {
                let mac = owned.first().copied().unwrap_or([0xFF; 6]);
                return mac[..self.below(6)].to_vec();
            }
        };
        let mut frame = dst.to_vec();
        frame.resize(6 + self.below(64), 0x5A);
        frame
    }
}

/// Add a listener to `lan` with `filter` declared.
fn add_listener(world: &mut World, lan: netsim::SegId, filter: Option<[u8; 6]>) -> netsim::NodeId {
    let node = world.add_node(Listener::default());
    world.attach(node, lan);
    refilter(world, node, filter);
    node
}

fn refilter(world: &mut World, node: netsim::NodeId, filter: Option<[u8; 6]>) {
    world.with_ctx::<Listener, _>(node, |_, ctx| ctx.set_rx_filter(PortId(0), filter));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Listener choice against its definition. A LAN of 3–130 stations
    /// (one, two or three words of listener bits) carries frames to
    /// stations, to nobody, to groups, to broadcast and of 0–5 bytes, each
    /// from any slot; between frames filters change, nodes crash and
    /// restart, and some stations move their filter from inside
    /// `on_frame`; while a frame is on the wire filters change and
    /// stations attach, whose slots are past the frame's attachment count.
    /// The nodes called for each frame are exactly the first `n_att`
    /// attachments, less the sender and the crashed, that `hears` the
    /// frame under the filters in force at delivery, and `frames_delivered`
    /// grows by those attachments, called or not. Catches, each planted
    /// alone: a promiscuous bit left set when a station declares its
    /// filter, and listeners chosen from every attachment rather than the
    /// first `n_att` (a station attached mid-frame, addressed as the frame
    /// is, gets called).
    #[test]
    fn listeners_are_those_a_filter_scan_selects(n in 3usize..=130, seed in any::<u64>()) {
        let mut draws = Draws { rng: Xoshiro::seed_from_u64(seed), unique: 0 };
        let mut world = World::new(seed);
        let lan = world.add_segment(SegmentConfig::default());
        let mut nodes: Vec<_> = (0..n).map(|_| {
            let filter = draws.filter();
            add_listener(&mut world, lan, filter)
        }).collect();
        world.run_until(SimTime::from_us(1));
        for _ in 0..16 {
            for _ in 0..draws.below(4) {
                let (node, filter) = (nodes[draws.below(nodes.len())], draws.filter());
                refilter(&mut world, node, filter);
            }
            match draws.below(6) {
                0 => world.crash_node(nodes[draws.below(nodes.len())]),
                1 => world.restart_node(nodes[draws.below(nodes.len())]),
                2 => {
                    let node = nodes[draws.below(nodes.len())];
                    let refile = draws.filter().unwrap_or([0xFF; 6]);
                    world.node_mut::<Listener>(node).refile = Some(refile);
                }
                _ => {}
            }
            let n_att = nodes.len();
            let filters = |world: &World| -> Vec<Option<[u8; 6]>> {
                world.segment(lan).attachments().iter().map(|att| att.rx_filter).collect()
            };
            let frame = draws.frame(&filters(&world));
            let sender = nodes[draws.below(n_att)];
            let calls = |world: &World, nodes: &[_]| -> Vec<u32> {
                nodes.iter().map(|&node| world.node::<Listener>(node).calls).collect()
            };
            let (calls_before, delivered_before) = (calls(&world, &nodes), world.frames_delivered());
            let on_wire = FrameBuf::from(frame.clone());
            world.with_ctx::<Listener, _>(sender, |_, ctx| ctx.send(PortId(0), on_wire));
            world.run_for(SimDuration::from_ns(1));
            if draws.below(3) == 0 {
                for _ in 0..=draws.below(2) {
                    let (node, filter) = (nodes[draws.below(n_att)], draws.filter());
                    refilter(&mut world, node, filter);
                }
            }
            if draws.below(4) == 0 {
                for _ in 0..=draws.below(3) {
                    // Half of them addressed exactly as the frame is.
                    let filter = match frame.first_chunk::<6>() {
                        Some(&dst) if draws.below(2) == 0 => Some(dst),
                        _ => draws.filter(),
                    };
                    nodes.push(add_listener(&mut world, lan, filter));
                }
            }
            let in_force = filters(&world);
            let expected: Vec<usize> = (0..n_att)
                .filter(|&i| nodes[i] != sender && !world.is_crashed(nodes[i]))
                .filter(|&i| hears(in_force[i], &frame))
                .collect();
            let heard = (0..n_att)
                .filter(|&i| nodes[i] != sender && !world.is_crashed(nodes[i]))
                .count() as u64;
            world.run_for(SimDuration::from_ms(1));
            let after = calls(&world, &nodes);
            let called: Vec<usize> = (0..nodes.len())
                .filter(|&i| after[i] != calls_before.get(i).copied().unwrap_or(0))
                .collect();
            prop_assert_eq!(called, expected, "frame {:02x?}", frame);
            prop_assert_eq!(world.frames_delivered() - delivered_before, heard);
        }
    }
}

/// A two-port relay with a life of its own: it forwards every frame it
/// hears out of its other port, tracing and counting each, and on a
/// heartbeat timer sends a frame of its own (re-armed after a restart,
/// since a crash kills pending timers).
struct Relay {
    period: SimDuration,
    beats: u32,
}

impl Node for Relay {
    fn name(&self) -> &str {
        "relay"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.schedule(self.period, TimerToken(0));
    }
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: FrameBuf) {
        ctx.bump("relay.frames", 1);
        ctx.trace(format_args!("relay {} bytes in on {}", frame.len(), port.0));
        ctx.send(PortId(1 - port.0), frame);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _: TimerToken) {
        self.beats += 1;
        let mut payload = vec![0xB7; 60];
        payload[..4].copy_from_slice(&self.beats.to_be_bytes());
        ctx.send(PortId(self.beats as usize % 2), FrameBuf::from(payload));
        ctx.schedule(self.period, TimerToken(0));
    }
    fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
        ctx.schedule(self.period, TimerToken(0));
    }
    fn as_any(&self) -> &dyn core::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
        self
    }
}

/// A random fault config: uniform drops, corruption and duplication, or
/// a Gilbert–Elliott burst model.
fn draw_fault(rng: &mut Xoshiro) -> FaultConfig {
    let mut odds = || [0, 2, 5, 11][rng.range(4) as usize];
    let (drop_one_in, corrupt_one_in, duplicate_one_in) = (odds(), odds(), odds());
    let burst = (drop_one_in == 0).then(|| netsim::BurstConfig {
        enter_one_in: 1 + rng.range(20),
        exit_one_in: 1 + rng.range(5),
        good_drop_one_in: 0,
        good_corrupt_one_in: 0,
        bad_drop_one_in: 2,
        bad_corrupt_one_in: 7,
    });
    FaultConfig {
        drop_one_in,
        corrupt_one_in,
        duplicate_one_in,
        burst,
    }
}

/// A chain of 2–4 segments joined by relays, a sender and a recorder on
/// each segment, and a chaos script of link downs and ups, fault windows
/// and relay crashes and restarts, all drawn from `seed`, with the flight
/// recorder armed.
fn generated_world(seed: u64, horizon: SimTime) -> World {
    let mut rng = Xoshiro::seed_from_u64(seed);
    let mut world = World::new(seed);
    world
        .probe_mut()
        .arm(netsim::ProbeConfig { capacity: 1 << 17 });
    let n_segs = 2 + rng.range(3) as usize;
    let segs: Vec<_> = (0..n_segs)
        .map(|i| {
            world.add_segment(SegmentConfig {
                name: format!("lan{i}").into(),
                bandwidth_bps: [10_000_000, 100_000_000][rng.range(2) as usize],
                queue_cap: 2 + rng.range(30) as usize,
                ..SegmentConfig::default()
            })
        })
        .collect();
    let relays: Vec<_> = segs
        .windows(2)
        .map(|pair| {
            let relay = world.add_node(Relay {
                period: SimDuration::from_us(200 + rng.range(3_000)),
                beats: 0,
            });
            world.attach(relay, pair[0]);
            world.attach(relay, pair[1]);
            relay
        })
        .collect();
    for &seg in &segs {
        let sender = world.add_node(Sender {
            n: 1 + rng.range(200) as u32,
            size: 4 + rng.range(1_500) as usize,
            interval: SimDuration::from_us(20 + rng.range(500)),
            sent: 0,
        });
        let recorder = world.add_node(Recorder::default());
        world.attach(sender, seg);
        world.attach(recorder, seg);
    }
    let mut script = netsim::ChaosScript::transparent();
    for _ in 0..rng.range(8) {
        let at = SimDuration::from_ns(rng.range(horizon.as_ns()));
        let seg = rng.range(n_segs as u64) as usize;
        let relay = rng.range(relays.len() as u64) as usize;
        match rng.range(6) {
            0 => script.link_down(at, seg),
            1 => script.link_up(at, seg),
            2 => script.set_fault(at, seg, draw_fault(&mut rng)),
            3 => script.clear_fault(at, seg),
            4 => script.crash(at, relay),
            _ => script.restart(at, relay),
        };
    }
    script.schedule(&mut world, SimTime::ZERO, &segs, &relays);
    world
}

/// Everything a run leaves observable: the probe stream, the trace, the
/// experiment counters and frame totals (what a scenario's trace digest
/// hashes), and the per-segment statistics.
fn observed(world: &World) -> (Vec<netsim::ProbeEvent>, Vec<String>, String) {
    let probes = world.probe().records().copied().collect();
    let trace = world
        .trace()
        .entries()
        .map(|e| format!("{:?}\t{:?}\t{}", e.at, e.node, e.msg))
        .collect();
    let totals = format!(
        "{:?} {} {} {:?} {:?}",
        world.counters().iter().collect::<Vec<_>>(),
        world.frames_sent(),
        world.frames_delivered(),
        world.stats(),
        world.now()
    );
    (probes, trace, totals)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Where `run_until` stops between calls is unobservable: a
    /// generated world (traffic, relays, and a chaos script of link,
    /// fault and crash steps) run to T in one call records exactly what
    /// the same world records run to T in arbitrary chunks — the same
    /// probe stream, trace, counters and frame totals. Chunk ends fall
    /// anywhere, including on event instants and twice on one instant.
    #[test]
    fn running_in_chunks_is_running_once(seed in any::<u64>()) {
        let horizon = SimTime::from_ms(20);
        let mut once = generated_world(seed, horizon);
        once.run_until(horizon);

        let mut rng = Xoshiro::seed_from_u64(!seed);
        let mut cuts: Vec<SimTime> = (0..rng.range(16))
            .map(|_| match rng.range(3) {
                // A sender's first frame goes out at 1 ns, then on its
                // interval grid: land a cut on a frame instant.
                0 => SimTime::from_ns(1 + 20_000 * rng.range(1_000)),
                _ => SimTime::from_ns(rng.range(horizon.as_ns())),
            })
            .collect();
        if let Some(&cut) = cuts.first() {
            cuts.push(cut);
        }
        cuts.sort();
        let mut chunked = generated_world(seed, horizon);
        for &cut in cuts.iter().filter(|&&cut| cut <= horizon) {
            chunked.run_until(cut);
        }
        chunked.run_until(horizon);

        let (once, chunked) = (observed(&once), observed(&chunked));
        prop_assert!(!once.0.is_empty(), "the world did something");
        prop_assert_eq!(once.0, chunked.0, "probe stream");
        prop_assert_eq!(once.1, chunked.1, "trace");
        prop_assert_eq!(once.2, chunked.2, "counters, totals and segment stats");
    }
}
