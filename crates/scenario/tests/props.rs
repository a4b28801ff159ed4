//! Property tests for the scenario substrate: generated topologies obey
//! their shape's size formulas and stay connected; generation and full
//! scenario runs are pure functions of their seeds (byte-identical world
//! traces and JSON reports).

use ab_scenario::runner::{self, Scenario};
use ab_scenario::topo::{self, TopologyShape};
use ab_scenario::workload::{self, BatteryKind};
use active_bridge::BridgeConfig;
use hostsim::{App, BlastApp, HostConfig, HostCostModel, HostNode};
use netsim::{PortId, SimDuration, SimTime, World};
use proptest::prelude::*;

/// Map proptest-drawn indices onto a shape (all seven, sized small).
fn shape(idx: usize, size: usize) -> TopologyShape {
    match idx % 7 {
        0 => TopologyShape::Line { bridges: size },
        1 => TopologyShape::Ring { bridges: size + 1 },
        2 => TopologyShape::Star { arms: size },
        3 => TopologyShape::Tree {
            depth: 1 + size % 2,
            fanout: 2,
        },
        4 => TopologyShape::FullMesh { segments: size + 1 },
        5 => TopologyShape::Metro {
            spines: 1 + size % 2,
            districts: size,
            leaves: 2,
        },
        _ => TopologyShape::Random {
            segments: size + 1,
            extra_links: size % 3,
        },
    }
}

/// The closed-form `(segments, bridges)` a shape must generate.
fn expected_counts(shape: TopologyShape) -> (usize, usize) {
    match shape {
        TopologyShape::Line { bridges } => (bridges + 1, bridges),
        TopologyShape::Ring { bridges } => (bridges, bridges),
        TopologyShape::Star { arms } => (arms + 1, arms),
        TopologyShape::Tree { depth, fanout } => {
            let mut segs = 1;
            let mut level = 1;
            for _ in 0..depth {
                level *= fanout;
                segs += level;
            }
            (segs, segs - 1)
        }
        TopologyShape::FullMesh { segments } => (segments, segments * (segments - 1) / 2),
        TopologyShape::Random {
            segments,
            extra_links,
        } => (segments, segments - 1 + extra_links),
        TopologyShape::Metro {
            spines,
            districts,
            leaves,
        } => {
            // One bridge per non-first spine, one uplink per district,
            // one bridge per non-root leaf: a tree, so segments - 1.
            let segs = spines + districts * leaves;
            (segs, segs - 1)
        }
    }
}

/// Serialize one built-and-run world into comparable bytes: the retained
/// trace plus segment counters.
fn world_trace_bytes(shape: TopologyShape, seed: u64) -> Vec<u8> {
    use ab_scenario::{host_ip, host_mac};
    let topo = topo::generate(shape, seed);
    let mut world = World::new(seed);
    let built = topo::instantiate(
        &mut world,
        &topo,
        &BridgeConfig::default(),
        topo.default_boot(),
    );
    // Blast across the diameter, starting only after loops are pruned.
    let start = if topo.cyclic() {
        SimDuration::from_secs(40)
    } else {
        SimDuration::from_ms(200)
    };
    let (from, to) = topo.far_pair();
    let sink = world.add_node(HostNode::new(
        "sink",
        HostConfig::simple(host_mac(1), host_ip(1), HostCostModel::FREE),
        vec![],
    ));
    world.attach(sink, built.segs[to]);
    let blaster = world.add_node(HostNode::new(
        "blaster",
        HostConfig::simple(host_mac(2), host_ip(2), HostCostModel::FREE),
        vec![App::delayed(
            start,
            BlastApp::new(PortId(0), host_mac(1), 200, 20, SimDuration::from_ms(2)),
        )],
    ));
    world.attach(blaster, built.segs[from]);
    world.run_until(SimTime::ZERO + start + SimDuration::from_secs(2));

    let mut out = Vec::new();
    for e in world.trace().entries() {
        out.extend_from_slice(format!("{:?}\t{:?}\t{}\n", e.at, e.node, e.msg).as_bytes());
    }
    for seg in world.stats().segments {
        out.extend_from_slice(format!("{}\t{:?}\n", seg.name, seg.counters).as_bytes());
    }
    assert!(!out.is_empty(), "run must produce trace entries");
    out
}

// ------------------------------------------------------------------------
// The primitive helpers migrated from `active_bridge::scenario` keep their
// original invariants (these assertions moved here with the code).

#[test]
fn addresses_are_distinct() {
    use ab_scenario::{bridge_ip, bridge_mac, host_ip, host_mac};
    assert_ne!(bridge_mac(1), bridge_mac(2));
    assert_ne!(bridge_mac(1), host_mac(1));
    assert_ne!(bridge_ip(1), host_ip(1));
    assert_ne!(host_ip(1), host_ip(258));
}

/// The compat helpers and the parametric generators wire identically.
#[test]
fn generators_match_compat_helpers() {
    let topo = topo::generate(TopologyShape::Ring { bridges: 4 }, 0);
    for (i, b) in topo.bridges.iter().enumerate() {
        assert_eq!(b.segments, vec![i, (i + 1) % 4]);
    }
    let topo = topo::generate(TopologyShape::Line { bridges: 3 }, 0);
    for (i, b) in topo.bridges.iter().enumerate() {
        assert_eq!(b.segments, vec![i, i + 1]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every generated topology matches its shape's closed-form segment
    /// and bridge counts, is connected, and loops exactly when the edge
    /// count says so.
    #[test]
    fn topology_counts_and_connectivity(
        idx in 0usize..7,
        size in 2usize..5,
        seed in 0u64..100_000,
    ) {
        let shape = shape(idx, size);
        let topo = topo::generate(shape, seed);
        let (segs, bridges) = expected_counts(shape);
        prop_assert_eq!(topo.segments.len(), segs);
        prop_assert_eq!(topo.bridges.len(), bridges);
        prop_assert!(topo.is_connected());
        prop_assert_eq!(topo.cyclic(), bridges >= segs);
        // Every bridge port references a real segment.
        for b in &topo.bridges {
            for &s in &b.segments {
                prop_assert!(s < segs);
            }
        }
    }

    /// Topology and workload generation are pure functions of their
    /// seeds — including the chaos battery's fault script and the lossy
    /// battery's burst schedule.
    #[test]
    fn generation_is_deterministic(
        idx in 0usize..7,
        size in 2usize..5,
        seed in 0u64..100_000,
        battery_idx in 0usize..8,
    ) {
        let shape = shape(idx, size);
        let a = topo::generate(shape, seed);
        let b = topo::generate(shape, seed);
        prop_assert_eq!(&a, &b);
        let battery = BatteryKind::ALL[battery_idx];
        let wa = workload::generate(battery, &a, seed);
        let wb = workload::generate(battery, &b, seed);
        prop_assert_eq!(wa.items, wb.items);
        prop_assert_eq!(wa.chaos, wb.chaos);
    }

    /// The Gilbert–Elliott burst model is a pure function of the RNG
    /// seed: the same seed replays the identical drop/corrupt/transition
    /// sequence for any odds, and the fraction of frames spent in the
    /// bad state tracks the configured steady state within tolerance.
    #[test]
    fn burst_model_replays_and_tracks_its_odds(
        enter in 4u64..24,
        exit in 2u64..12,
        seed in 0u64..100_000,
    ) {
        use netsim::fault::FaultOutcome;
        use netsim::{BurstConfig, FaultConfig, FrameBuf, Xoshiro};

        let cfg = FaultConfig {
            burst: Some(BurstConfig {
                enter_one_in: enter,
                exit_one_in: exit,
                bad_drop_one_in: 2,
                ..Default::default()
            }),
            ..Default::default()
        };
        let run = || {
            let mut rng = Xoshiro::seed_from_u64(seed);
            let mut bad = false;
            let mut record = Vec::with_capacity(4096);
            let mut bad_frames = 0u64;
            for _ in 0..4096 {
                let v = cfg.apply_stateful(FrameBuf::from_static(b"payload"), &mut rng, &mut bad);
                bad_frames += u64::from(bad);
                record.push((
                    matches!(v.outcome, FaultOutcome::Drop),
                    v.corrupted,
                    v.burst_dropped,
                    v.flipped,
                ));
            }
            (record, bad_frames)
        };
        let (a, bad_frames) = run();
        let b = run();
        prop_assert_eq!(&a, &b.0, "same seed must replay the same fault sequence");
        // π_bad = enter⁻¹ / (enter⁻¹ + exit⁻¹) = exit / (enter + exit);
        // allow a generous band around it — 4096 frames of a two-state
        // chain with dwell times this short concentrate well inside it.
        let expected_pm = 1000 * exit / (enter + exit);
        let observed_pm = 1000 * bad_frames / 4096;
        prop_assert!(
            observed_pm + 150 > expected_pm && observed_pm < expected_pm + 150,
            "bad-state occupancy {observed_pm}‰ strayed from the configured {expected_pm}‰"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Same `(shape, seed)` ⇒ the instantiated world replays a
    /// byte-identical trace.
    #[test]
    fn same_seed_identical_world_trace(
        idx in 0usize..7,
        size in 2usize..4,
        seed in 0u64..100_000,
    ) {
        let shape = shape(idx, size);
        prop_assert_eq!(
            world_trace_bytes(shape, seed),
            world_trace_bytes(shape, seed)
        );
    }

    /// A full scenario run is deterministic down to the JSON bytes, and
    /// every invariant holds on every generated triple.
    #[test]
    fn scenario_reports_pass_and_replay(
        idx in 0usize..7,
        size in 2usize..4,
        battery_idx in 0usize..6,
        seed in 0u64..100_000,
    ) {
        let sc = Scenario::new(shape(idx, size), BatteryKind::ALL[battery_idx], seed);
        let a = runner::run(&sc);
        prop_assert!(a.passed(), "{}", a.to_json().render_pretty());
        let b = runner::run(&sc);
        prop_assert_eq!(a.to_json().render(), b.to_json().render());
    }
}
