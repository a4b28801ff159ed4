//! Flight-recorder integration: arming the probe never changes a run,
//! the exported timeline is byte-stable, and the VM hot-function profile
//! observes a real switchlet data plane end to end.

use ab_scenario::runner::{run_recorded, run_traced, Scenario};
use ab_scenario::topo::TopologyShape;
use ab_scenario::workload::BatteryKind;
use ab_scenario::{bridge_ip, bridge_mac, host_ip, host_mac, run_jobs_local, timeline, SweepSpec};
use active_bridge::{BridgeConfig, BridgeNode};
use hostsim::{HostConfig, HostCostModel, HostNode};
use netsim::{NodeId, PortId, ProbeConfig, ProbeRecord, SegId, SegmentConfig, SimTime, World};

fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario::new(TopologyShape::Star { arms: 3 }, BatteryKind::Pings, 7),
        Scenario::new(TopologyShape::Ring { bridges: 3 }, BatteryKind::Streams, 11),
        Scenario::new(
            TopologyShape::Random {
                segments: 4,
                extra_links: 1,
            },
            BatteryKind::Contention,
            23,
        ),
    ]
}

/// The recorded run is the traced run: same report, same trace digest.
/// This is the scenario-level face of the non-perturbation invariant
/// (the world-level proof against golden digests is in
/// `tests/determinism.rs`).
#[test]
fn recording_does_not_change_report_or_digest() {
    for sc in scenarios() {
        let (plain_report, plain_digest) = run_traced(&sc);
        let (rec_report, rec_digest, world) = run_recorded(&sc, ProbeConfig::default());
        assert_eq!(
            plain_digest, rec_digest,
            "{}: probe-armed digest diverged",
            sc.name
        );
        assert_eq!(
            plain_report.to_json().render_pretty(),
            rec_report.to_json().render_pretty(),
            "{}: probe-armed report diverged",
            sc.name
        );
        assert!(
            !world.probe().is_empty(),
            "{}: armed run recorded nothing",
            sc.name
        );
    }
}

/// The exported timeline is a pure function of the scenario: repeated
/// runs — and runs performed inside the exec pool at any worker count —
/// render byte-identical JSON.
#[test]
fn timeline_json_is_byte_identical_across_runs_and_jobs() {
    let sc = Scenario::new(TopologyShape::Star { arms: 3 }, BatteryKind::Pings, 7);
    let render = |sc: &Scenario| {
        let (report, _digest, world) = run_recorded(sc, ProbeConfig::default());
        timeline::timeline_json(&world, &report).render_pretty()
    };
    let reference = render(&sc);
    assert!(reference.len() > 2, "timeline rendered an empty document");
    for jobs in [1usize, 2, 4] {
        let outputs = run_jobs_local(
            vec![sc.clone(), sc.clone(), sc.clone()],
            jobs,
            || (),
            |_, sc| render(&sc),
        );
        for (i, out) in outputs.iter().enumerate() {
            assert_eq!(
                out.as_bytes(),
                reference.as_bytes(),
                "jobs={jobs} run {i}: timeline bytes diverged"
            );
        }
    }
    // And the document passes its own structural validator.
    let events = timeline::validate_timeline(&reference).expect("exported timeline validates");
    assert!(events > 0, "timeline has no events");
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The shape and battery `ab_scenario trace <shape> <battery>` runs under
/// these labels: the default sweep's shapes and the batteries by label.
fn traced(shape: &str, battery: &str, seed: u64, defended: bool) -> Scenario {
    let shape = SweepSpec::default_sweep(0)
        .shapes
        .into_iter()
        .find(|s| s.label() == shape)
        .expect("a default-sweep shape");
    let battery = BatteryKind::ALL
        .into_iter()
        .find(|b| b.label() == battery)
        .expect("a battery");
    let mut sc = Scenario::new(shape, battery, seed);
    sc.defended = defended;
    sc
}

/// Every record kind through `Ctx::probe`, on a bridge's and a host's
/// track at distinct instants, rendered against another run's report (so
/// its horizon and `otherData`). It carries the branches no pinned run
/// renders — `queue_drop`, `fault_duplicate`, `timer_cancel`,
/// `learn_reject`, a heal, a restart and a burst end whose opening record
/// is missing, and `down`, `burst` and `crashed` spans still open at the
/// horizon, opened out of key order — beside every other arm. `host1`'s
/// first record renders nothing and its second opens a span, so its
/// track is named at the second.
fn every_record_world() -> World {
    use ProbeRecord as R;

    let mut world = World::new(1);
    world.probe_mut().arm(ProbeConfig::default());
    let (lan0, lan1) = (SegId(0), SegId(1));
    world.add_segment(SegmentConfig::named("lan0"));
    world.add_segment(SegmentConfig::named("lan1"));
    let cfg = BridgeConfig::default();
    let bridge = world.add_node(BridgeNode::new(
        "bridge0",
        bridge_mac(0),
        bridge_ip(0),
        1,
        cfg,
    ));
    world.attach(bridge, lan0);
    let host_cfg = HostConfig::simple(host_mac(1), host_ip(1), HostCostModel::FREE);
    let host = world.add_node(HostNode::new("host0", host_cfg, vec![]));
    world.attach(host, lan1);
    let host_cfg = HostConfig::simple(host_mac(2), host_ip(2), HostCostModel::FREE);
    let quiet = world.add_node(HostNode::new("host1", host_cfg, vec![]));
    world.attach(quiet, lan1);
    let (b, h, q, p) = (bridge, host, quiet, PortId(0));

    #[rustfmt::skip]
    let script: [(u64, NodeId, R); 43] = [
        (1, q, R::ExecBegin { node: q }),
        (1, h, R::FrameOffered { seg: lan1, src: (h, p), len: 60, queued: false, depth: 0 }),
        (1, h, R::FrameOffered { seg: lan1, src: (h, p), len: 60, queued: true, depth: 2 }),
        (2, h, R::QueueDrop { seg: lan1, src: (h, p), len: 60 }),
        (3, h, R::WireTx { seg: lan1, src: (h, p), len: 60, ser_ns: 4_880 }),
        (3, b, R::Deliver { seg: lan1, dst: (b, p), len: 60 }),
        (4, h, R::FaultDrop { seg: lan0, len: 64 }),
        (4, h, R::FaultCorrupt { seg: lan0, len: 65 }),
        (4, h, R::FaultDuplicate { seg: lan0, len: 66 }),
        (5, h, R::FaultBurst { seg: lan0, bad: false }),
        (5, h, R::FaultBurst { seg: lan1, bad: true }),
        (5, h, R::FaultBurst { seg: lan1, bad: true }),
        (6, h, R::FaultBurst { seg: lan1, bad: false }),
        (7, h, R::FaultBurst { seg: lan1, bad: true }),
        (7, h, R::FaultBurst { seg: lan0, bad: true }),
        (8, b, R::Decision { node: b, port: p, verdict: "flood" }),
        (8, b, R::ExecBegin { node: b }),
        (8, b, R::ExecEnd { node: b, fuel: 77, host_calls: 2 }),
        (9, h, R::TimerArm { node: h, id: 1, deadline: SimTime::from_ms(10) }),
        (10, h, R::TimerFire { node: h, id: 1 }),
        (10, h, R::TimerCancel { node: h, id: 2 }),
        (10, h, R::Mark { node: h, label: "test.mark" }),
        (11, h, R::LinkUp { seg: lan0 }),
        (11, h, R::LinkDown { seg: lan1 }),
        (11, h, R::LinkDown { seg: lan1 }),
        (12, h, R::LinkUp { seg: lan1 }),
        (13, h, R::LinkDown { seg: lan1 }),
        (13, h, R::LinkDown { seg: lan0 }),
        (13, q, R::NodeCrash { node: q }),
        (14, h, R::NodeRestart { node: h }),
        (14, b, R::NodeCrash { node: b }),
        (15, b, R::NodeRestart { node: b }),
        (16, h, R::NodeCrash { node: h }),
        (16, b, R::NodeCrash { node: b }),
        (16, h, R::NodeCrash { node: h }),
        (17, b, R::Quarantine { node: b }),
        (17, b, R::LearnEvict { node: b, port: p }),
        (17, b, R::LearnReject { node: b, port: p }),
        (18, b, R::PortSuppressed { node: b, port: p }),
        (19, b, R::PortReleased { node: b, port: p }),
        (19, b, R::BpduGuardTrip { node: b, port: p }),
        (20, b, R::Decision { node: b, port: PortId(1), verdict: "filter" }),
        (20, h, R::Mark { node: h, label: "test.done" }),
    ];
    for (ms, node, record) in script {
        world.run_until(SimTime::from_ms(ms));
        if node == bridge {
            world.with_ctx::<BridgeNode, _>(node, |_, ctx| ctx.probe(|_| record));
        } else {
            world.with_ctx::<HostNode, _>(node, |_, ctx| ctx.probe(|_| record));
        }
    }
    world
}

/// Every name the timeline gives an event, but the verdict and mark labels
/// it copies from its records.
const EVENT_NAMES: [&str; 24] = [
    "process_name",
    "thread_name",
    "queued",
    "queue_drop",
    "tx",
    "fault_drop",
    "fault_corrupt",
    "fault_duplicate",
    "burst",
    "burst_end",
    "exec",
    "timer_arm",
    "timer_fire",
    "timer_cancel",
    "down",
    "link_up",
    "crashed",
    "restart",
    "quarantine",
    "learn_evict",
    "learn_reject",
    "port_suppressed",
    "port_released",
    "bpdu_guard_trip",
];

/// Timelines pinned across commits as `(length, FNV-1a)` of what
/// `ab_scenario trace <shape> <battery> --seed 42 [--defended]` prints,
/// and of the hand-built world above rendered against the `line lossy`
/// run's report. The metro run carries every probe record in
/// `(time, seq)` order on a topology whose links run at different speeds,
/// so an event reordering that moves no report counter still shows here;
/// the lossy and adversarial lines are the traces CI renders; the chaos
/// ring has `down` and `crashed` spans, `exec` and `quarantine`; the
/// defended adversarial ring has `learn_evict`. The test above compares a
/// build with itself; this one compares it with stored constants, and
/// names every event kind none of the pins renders.
#[test]
fn armed_metro_timeline_matches_the_stored_digest() {
    type Pin = (&'static str, &'static str, bool, (usize, u64));
    #[rustfmt::skip]
    const PINS: [Pin; 5] = [
        ("metro", "metro", false, (2_680_634, 0x81b0_39c9_b90e_4544)),
        ("line", "lossy", false, (4_031_063, 0xe484_3d6e_8092_3b75)),
        ("line", "adversarial", true, (5_343_134, 0xe42f_83f2_81b6_db51)),
        ("ring", "chaos", false, (7_607_079, 0xc055_a8a4_cf2f_3967)),
        ("ring", "adversarial", true, (7_175_122, 0x2242_bf21_a8ad_59b7)),
    ];
    const EVERY_RECORD: (usize, u64) = (6_495, 0x040e_4d39_4264_3361);

    let mut names = std::collections::BTreeSet::new();
    let mut moved = Vec::new();
    let mut check = |what: &str, text: String, want: (usize, u64)| {
        let doc = ab_scenario::Json::parse(&text).expect("the timeline parses");
        let Some(ab_scenario::Json::Arr(events)) = doc.get("traceEvents") else {
            panic!("{what}: no traceEvents");
        };
        for ev in events {
            if let Some(ab_scenario::Json::Str(name)) = ev.get("name") {
                names.insert(name.clone());
            }
        }
        let got = (text.len(), fnv1a(text.as_bytes()));
        if got != want {
            moved.push(format!(
                "{what} timeline moved: now ({}, {:#x})",
                got.0, got.1
            ));
        }
    };
    let mut lossy = None;
    for (shape, battery, defended, want) in PINS {
        let sc = traced(shape, battery, 42, defended);
        let (report, _digest, world) = run_recorded(&sc, ProbeConfig::default());
        check(
            &sc.name,
            timeline::timeline_json(&world, &report).render_pretty(),
            want,
        );
        if (shape, battery) == ("line", "lossy") {
            lossy = Some(report);
        }
    }
    let report = lossy.expect("the lossy line ran");
    let text = timeline::timeline_json(&every_record_world(), &report).render_pretty();
    check("every-record", text, EVERY_RECORD);
    assert!(moved.is_empty(), "{}", moved.join("\n"));

    let unpinned: Vec<&str> = EVENT_NAMES
        .into_iter()
        .chain(["flood", "filter", "test.mark", "test.done"])
        .filter(|name| !names.contains(*name))
        .collect();
    assert!(unpinned.is_empty(), "no pin renders {unpinned:?}");
}

/// ROADMAP item 12's fourth rule, restricted to a fault-free run: every
/// frame that leaves the wire is delivered once to each attachment of its
/// segment but the sender. On the armed `metro_small` × `Metro` run at
/// seed 42 (the timeline above) — no record dropped, and no fault, crash
/// or link record in it — each `WireTx { seg, src, .. }` is followed,
/// before the segment's next `WireTx`, by exactly `attachments(seg) − 1`
/// `Deliver { seg, .. }` records, one per attachment but `src`, each
/// stamped at or after the `WireTx`. Filtered stations are not called for
/// most of these frames; they are delivered to all the same.
#[test]
fn armed_metro_run_delivers_every_wire_frame_to_each_other_attachment() {
    use netsim::{NodeId, PortId, SegId, SimTime};
    use std::collections::{BTreeSet, HashMap};

    let sc = Scenario::new(TopologyShape::metro_small(), BatteryKind::Metro, 42);
    let (_report, _digest, world) = run_recorded(&sc, ProbeConfig::default());
    let probe = world.probe();
    assert_eq!(probe.dropped(), 0, "an incomplete recording proves nothing");

    /// The frame a segment last put on the wire: when, from whom, and who
    /// it has been delivered to since.
    struct OnWire {
        at: SimTime,
        src: (NodeId, PortId),
        to: BTreeSet<(NodeId, PortId)>,
    }
    let mut open: HashMap<SegId, OnWire> = HashMap::new();
    let mut checked = 0;
    let mut close = |seg: SegId, frame: OnWire| {
        let mut others: BTreeSet<_> = world
            .segment(seg)
            .attachments()
            .iter()
            .map(|a| (a.node, a.port))
            .collect();
        others.remove(&frame.src);
        assert_eq!(
            frame.to, others,
            "{seg}: the frame sent at {} by {:?}",
            frame.at, frame.src
        );
        checked += 1;
    };
    for event in probe.records() {
        match event.record {
            ProbeRecord::WireTx { seg, src, .. } => {
                let frame = OnWire {
                    at: event.at,
                    src,
                    to: BTreeSet::new(),
                };
                if let Some(done) = open.insert(seg, frame) {
                    close(seg, done);
                }
            }
            ProbeRecord::Deliver { seg, dst, .. } => {
                let frame = open.get_mut(&seg).expect("a delivery follows its WireTx");
                assert!(
                    event.at >= frame.at,
                    "{seg}: delivered before it left the wire"
                );
                assert_ne!(dst, frame.src, "{seg}: delivered to its sender");
                assert!(frame.to.insert(dst), "{seg}: delivered twice to {dst:?}");
            }
            ProbeRecord::FaultDrop { .. }
            | ProbeRecord::FaultCorrupt { .. }
            | ProbeRecord::FaultDuplicate { .. }
            | ProbeRecord::FaultBurst { .. }
            | ProbeRecord::NodeCrash { .. }
            | ProbeRecord::NodeRestart { .. }
            | ProbeRecord::LinkDown { .. }
            | ProbeRecord::LinkUp { .. } => panic!("not a fault-free run: {:?}", event.record),
            _ => {}
        }
    }
    for (seg, frame) in open {
        close(seg, frame);
    }
    assert!(checked > 1_000, "only {checked} wire frames");
}

/// Two more of ROADMAP item 12's rules, on the same armed `metro_small` ×
/// `Metro` run at seed 42, whose access and trunk links run at different
/// rates:
/// - each `WireTx`'s `ser_ns` is the serialization time of `len` payload
///   octets plus the per-frame overhead at its segment's configured rate
///   (read from the generated topology, not from the world);
/// - on each segment a transmission starts (`at − ser_ns`) no earlier than
///   the previous one ended (its `at`): one frame on the medium at a time.
#[test]
fn armed_metro_run_serializes_each_frame_at_its_segment_rate_one_at_a_time() {
    use netsim::{SegId, SimDuration, SimTime, WIRE_OVERHEAD};
    use std::collections::HashMap;

    let sc = Scenario::new(TopologyShape::metro_small(), BatteryKind::Metro, 42);
    let (_report, _digest, world) = run_recorded(&sc, ProbeConfig::default());
    let probe = world.probe();
    assert_eq!(probe.dropped(), 0, "an incomplete recording proves nothing");
    let topo = ab_scenario::topo::generate(sc.shape, sc.seed);
    let rate_of: HashMap<&str, u64> = topo
        .segments
        .iter()
        .map(|spec| (&*spec.name, spec.bandwidth_bps))
        .collect();

    let mut last_end: HashMap<SegId, SimTime> = HashMap::new();
    let mut rates = Vec::new();
    let mut checked = 0;
    for event in probe.records() {
        let ProbeRecord::WireTx {
            seg, len, ser_ns, ..
        } = event.record
        else {
            continue;
        };
        let rate = rate_of[world.segment(seg).name()];
        let want = SimDuration::serialization(len as usize + WIRE_OVERHEAD, rate).as_ns();
        assert_eq!(
            ser_ns, want,
            "{seg}: {len} octets at {rate} b/s, sent at {}",
            event.at
        );
        let start = event.at.as_ns() - ser_ns;
        if let Some(prev) = last_end.insert(seg, event.at) {
            assert!(
                start >= prev.as_ns(),
                "{seg}: a frame started at {start} ns, before the one ending at {} ns left",
                prev.as_ns()
            );
        }
        if !rates.contains(&rate) {
            rates.push(rate);
        }
        checked += 1;
    }
    assert!(checked > 1_000, "only {checked} wire frames");
    assert!(rates.len() > 1, "every segment ran at one rate: {rates:?}");
}

/// Two more of ROADMAP item 12's rules, on the same armed `metro_small` ×
/// `Metro` run at seed 42:
/// - timers: every `TimerFire` matches an earlier `TimerArm` of the same
///   id and node and fires exactly at that arm's deadline; no id fires
///   twice, and none fires after its `TimerCancel`;
/// - clock: record stamps never decrease, except that `WireTx` and fault
///   records are stamped at the completion instant, one propagation delay
///   (read from the generated topology) before the event that records
///   them — exactly that lag is allowed, and no more.
#[test]
fn armed_metro_run_fires_each_timer_at_its_deadline_and_never_turns_the_clock_back() {
    use netsim::{NodeId, SimDuration, SimTime};
    use std::collections::{HashMap, HashSet};

    let sc = Scenario::new(TopologyShape::metro_small(), BatteryKind::Metro, 42);
    let (_report, _digest, world) = run_recorded(&sc, ProbeConfig::default());
    let probe = world.probe();
    assert_eq!(probe.dropped(), 0, "an incomplete recording proves nothing");
    let topo = ab_scenario::topo::generate(sc.shape, sc.seed);
    let propagation_of: HashMap<&str, u64> = topo
        .segments
        .iter()
        .map(|spec| (&*spec.name, spec.propagation.as_ns()))
        .collect();

    let mut pending: HashMap<u64, (NodeId, SimTime)> = HashMap::new();
    let mut cancelled: HashSet<u64> = HashSet::new();
    let mut fired: HashSet<u64> = HashSet::new();
    let mut clock = SimTime::ZERO;
    let mut lagged = 0;
    for event in probe.records() {
        let lag_seg = match event.record {
            ProbeRecord::WireTx { seg, .. }
            | ProbeRecord::FaultDrop { seg, .. }
            | ProbeRecord::FaultCorrupt { seg, .. }
            | ProbeRecord::FaultDuplicate { seg, .. }
            | ProbeRecord::FaultBurst { seg, .. } => Some(seg),
            _ => None,
        };
        // The instant of the event that made the record.
        let at = match lag_seg {
            Some(seg) => {
                lagged += 1;
                event.at + SimDuration::from_ns(propagation_of[world.segment(seg).name()])
            }
            None => event.at,
        };
        assert!(
            at >= clock,
            "{:?} stamped {} (event at {}) after the clock reached {}",
            event.record,
            event.at,
            at,
            clock
        );
        clock = at;

        match event.record {
            ProbeRecord::TimerArm { node, id, deadline } => {
                assert!(deadline >= event.at, "timer {id} armed in the past");
                let fresh = !fired.contains(&id) && !cancelled.contains(&id);
                assert!(
                    fresh && pending.insert(id, (node, deadline)).is_none(),
                    "timer id {id} armed twice"
                );
            }
            ProbeRecord::TimerFire { node, id } => {
                assert!(
                    !cancelled.contains(&id),
                    "timer {id} fired after its cancel"
                );
                assert!(!fired.contains(&id), "timer {id} fired twice");
                let (armed_by, deadline) = pending
                    .remove(&id)
                    .unwrap_or_else(|| panic!("timer {id} fired without being armed"));
                assert_eq!(node, armed_by, "timer {id} fired on another node");
                assert_eq!(event.at, deadline, "timer {id} fired off its deadline");
                fired.insert(id);
            }
            ProbeRecord::TimerCancel { id, .. } => {
                // Cancelling a timer that already fired is a no-op.
                cancelled.extend(pending.remove(&id).map(|_| id));
            }
            _ => {}
        }
    }
    assert!(fired.len() > 1_000, "only {} timers fired", fired.len());
    assert!(lagged > 1_000, "only {lagged} completion-stamped records");
}

/// Ring capacity is respected end to end: a tiny ring retains the newest
/// records and reports the evicted count exactly.
#[test]
fn trace_honors_a_tiny_ring_capacity() {
    let sc = Scenario::new(TopologyShape::Star { arms: 3 }, BatteryKind::Pings, 7);
    let (_report, _digest, world) = run_recorded(&sc, ProbeConfig { capacity: 32 });
    let probe = world.probe();
    assert_eq!(probe.len(), 32);
    assert!(probe.dropped() > 0, "the run should overflow 32 records");
    assert_eq!(probe.appended(), probe.dropped() + probe.len() as u64);
    // Survivors are the newest, in order.
    let seqs: Vec<u64> = probe.records().map(|e| e.seq).collect();
    assert_eq!(seqs.last().copied(), Some(probe.appended() - 1));
    assert!(seqs.windows(2).all(|w| w[1] == w[0] + 1));
}

/// The VM hot-function profile and exec records, exercised by a real VM
/// data plane: a bridge booting the `dumb_vm` switchlet image forwards
/// pings, so every frame is a metered VM invocation.
#[test]
fn vm_data_plane_populates_hot_functions_and_exec_records() {
    use ab_scenario::{bridge_ip, bridge_mac, host_ip, host_mac};
    use active_bridge::{BridgeConfig, BridgeNode};
    use hostsim::apps::{App, PingApp};
    use hostsim::{HostConfig, HostCostModel, HostNode};
    use netsim::{PortId, SegmentConfig, SimDuration, SimTime, World};

    let mut world = World::new(3);
    world.probe_mut().arm(ProbeConfig::default());
    let lan0 = world.add_segment(SegmentConfig::named("lan0"));
    let lan1 = world.add_segment(SegmentConfig::named("lan1"));
    let mut node = BridgeNode::new(
        "bridge0",
        bridge_mac(0),
        bridge_ip(0),
        2,
        BridgeConfig::default(),
    );
    node.boot_load_native(active_bridge::loader::NAME);
    node.boot_load(active_bridge::switchlets::dumb_vm::build_image());
    node.enable_vm_profile();
    let b = world.add_node(node);
    world.attach(b, lan0);
    world.attach(b, lan1);
    let host_a = world.add_node(HostNode::new(
        "hostA",
        HostConfig::simple(host_mac(1), host_ip(1), HostCostModel::FREE),
        vec![PingApp::new(
            PortId(0),
            host_ip(2),
            5,
            64,
            SimDuration::from_ms(10),
            1,
        )],
    ));
    world.attach(host_a, lan0);
    let host_b = world.add_node(HostNode::new(
        "hostB",
        HostConfig::simple(host_mac(2), host_ip(2), HostCostModel::FREE),
        vec![],
    ));
    world.attach(host_b, lan1);
    world.run_until(SimTime::from_secs(1));

    let App::Ping(ping) = world.node::<HostNode>(host_a).app(0) else {
        panic!("app 0 is the ping train");
    };
    assert_eq!(ping.received, 5, "pings crossed the VM bridge");

    // The profile saw the forwarding function — named, with inclusive
    // fuel — and the probe holds the matching exec records.
    let hot = world.node::<BridgeNode>(b).hot_functions();
    assert!(!hot.is_empty(), "VM data plane produced no hot functions");
    let total_calls: u64 = hot.iter().map(|(_, _, c)| c.calls).sum();
    let total_fuel: u64 = hot.iter().map(|(_, _, c)| c.fuel).sum();
    assert!(total_calls >= 10, "every frame is at least one VM call");
    assert!(total_fuel > 0, "VM execution burned fuel");

    let execs: Vec<(u64, u64)> = world
        .probe()
        .records()
        .filter_map(|e| match e.record {
            ProbeRecord::ExecEnd {
                fuel, host_calls, ..
            } => Some((fuel, host_calls)),
            _ => None,
        })
        .collect();
    assert!(!execs.is_empty(), "no ExecEnd records for the VM bridge");
    assert!(
        execs.iter().any(|&(fuel, _)| fuel > 0),
        "exec records carry metered fuel"
    );
}
