//! Integration coverage for the chaos battery: recovery invariants hold
//! on both a learning-only line and a spanning-tree ring, recovery
//! telemetry lands in the report, and the whole chaos sweep — faults,
//! crashes, watchdog quarantine and all — replays byte-identically at
//! every worker count.
//!
//! Transparent-script preservation (a chaos-free workload perturbs
//! nothing) is proven separately: every pre-existing battery now carries
//! `ChaosScript::transparent()`, and the golden world digests and
//! byte-pinned reports in the other test files stayed green unchanged.

use ab_scenario::runner::{self, Scenario, Verdict};
use ab_scenario::sweep::{run_sweep_jobs, SweepSpec};
use ab_scenario::topo::{self, TopologyShape};
use ab_scenario::workload::{self, BatteryKind};
use active_bridge::{BridgeConfig, BridgeNode};
use netsim::{ChaosScript, SimDuration, SimTime, World};
use proptest::prelude::*;

/// Find one judged invariant by name, panicking with the report when
/// it is absent.
fn invariant(report: &runner::Report, name: &str) -> Verdict {
    report
        .invariants
        .iter()
        .find(|i| i.name == name)
        .unwrap_or_else(|| panic!("missing invariant {name}:\n{:#?}", report.invariants))
        .verdict
}

/// Run one chaos scenario and check the full recovery contract: the
/// run passes, the three recovery invariants are judged `Pass` (not
/// merely waived), and the recovery telemetry is consistent with the
/// generated script.
fn check_chaos_scenario(shape: TopologyShape, seed: u64) {
    let sc = Scenario::new(shape, BatteryKind::Chaos, seed);
    let report = runner::run(&sc);
    assert!(report.passed(), "{}", report.to_json().render_pretty());

    for name in [
        "reconverges_after_heal",
        "no_permanent_blackhole",
        "quarantine_engages",
    ] {
        assert_eq!(
            invariant(&report, name),
            Verdict::Pass,
            "{name} must be judged (not waived) on a chaos run"
        );
    }

    let recovery = report
        .recovery
        .as_ref()
        .expect("a chaos run must carry recovery telemetry");
    let topo = topo::generate(shape, seed);
    let wl = workload::generate(BatteryKind::Chaos, &topo, seed);
    assert!(wl.chaos.has_downtime());
    assert_eq!(wl.expected_quarantines(), 1);
    assert_eq!(recovery.crashes, wl.chaos.crash_count());
    assert!(recovery.crashes >= 1, "the script crashes a bridge");
    assert!(
        recovery.down_drops > 0,
        "the partition must have eaten traffic"
    );
    assert!(
        recovery.time_to_first_delivery.is_some(),
        "traffic must flow again after the last heal"
    );
    assert_eq!(
        recovery.last_heal,
        report.epoch + wl.chaos.last_heal_at().unwrap()
    );

    // The quarantine count is exact, not merely non-zero: the verdict
    // detail records one engagement for the one scripted trap module.
    let detail = &report
        .invariants
        .iter()
        .find(|i| i.name == "quarantine_engages")
        .unwrap()
        .detail;
    assert!(
        detail.starts_with("1 watchdog quarantines"),
        "exactly one quarantine expected: {detail}"
    );
}

/// Chaos on a cycle-free line (learning bridges, dumb-flood fallback).
#[test]
fn chaos_line_recovers_and_quarantines() {
    check_chaos_scenario(TopologyShape::Line { bridges: 2 }, 42);
}

/// Chaos on a ring (STP boot: crash/restart forces re-election and the
/// reconvergence bound covers max-age plus both forward delays).
#[test]
fn chaos_ring_recovers_and_quarantines() {
    check_chaos_scenario(TopologyShape::Ring { bridges: 3 }, 43);
}

/// The convergence stamp against an observer that polls: a 3-bridge
/// spanning-tree ring with no workload (then the same ring with a bridge
/// crashed and restarted), stepped in 1 ms chunks, every bridge's
/// `forward` flags and published root re-read after each step. The last
/// step that saw a change ends within 1 ms after the stamp
/// `runner::converged_at` reports: the stamp misses no change a poller
/// sees and records none it does not.
#[test]
fn the_convergence_stamp_is_where_polling_last_saw_a_change() {
    for crash in [false, true] {
        let topo = topo::generate(TopologyShape::Ring { bridges: 3 }, 5);
        let mut world = World::new(5);
        let built = topo::instantiate(
            &mut world,
            &topo,
            &BridgeConfig::default(),
            topo.default_boot(),
        );
        let end = SimTime::from_secs(if crash { 90 } else { 40 });
        if crash {
            let mut script = ChaosScript::transparent();
            script.crash_cycle(1, SimDuration::from_secs(35), SimDuration::from_secs(37));
            script.schedule(&mut world, SimTime::ZERO, &built.segs, &built.bridges);
        }
        let look = |world: &World| -> Vec<(Vec<bool>, Option<ether::MacAddr>)> {
            built
                .bridges
                .iter()
                .map(|&b| {
                    let plane = world.node::<BridgeNode>(b).plane();
                    let forward = plane.flags().iter().map(|f| f.forward).collect();
                    (forward, plane.published.get("stp_ieee").map(|s| s.root_mac))
                })
                .collect()
        };
        let mut seen = look(&world);
        let mut last_change = None;
        let mut now = SimTime::ZERO;
        while now < end {
            now += SimDuration::from_ms(1);
            world.run_until(now);
            let next = look(&world);
            if next != seen {
                seen = next;
                last_change = Some(now);
            }
        }
        let last_change = last_change.expect("the tree formed");
        let stamp = runner::converged_at(&world, &built.bridges).expect("stamped");
        assert!(
            stamp <= last_change && last_change.saturating_since(stamp) < SimDuration::from_ms(1),
            "crash {crash}: stamp {stamp:?}, last polled change in the step ending {last_change:?}"
        );
        if crash {
            assert!(
                stamp > SimTime::from_secs(37),
                "the restart re-formed the tree"
            );
        }
    }
}

/// One chaos run is a pure function of its seed: two runs render
/// byte-identical JSON, crashes and quarantine included.
#[test]
fn chaos_scenario_replays_byte_identically() {
    let sc = Scenario::new(TopologyShape::Line { bridges: 2 }, BatteryKind::Chaos, 42);
    let a = runner::run(&sc).to_json().render();
    let b = runner::run(&sc).to_json().render();
    assert_eq!(a, b);
}

/// The committed chaos sweep (the CI robustness gate) is byte-identical
/// across worker counts and double runs, and every scenario passes.
#[test]
fn chaos_sweep_is_byte_identical_across_jobs() {
    let spec = SweepSpec::chaos_sweep(42);
    let reference = run_sweep_jobs(&spec, 1).to_json().render_pretty();
    for jobs in [1, 2, 4] {
        let sweep = run_sweep_jobs(&spec, jobs);
        assert!(sweep.passed(), "chaos sweep must pass at {jobs} jobs");
        assert_eq!(
            sweep.to_json().render_pretty(),
            reference,
            "chaos sweep JSON must not vary with jobs"
        );
    }
    assert!(
        reference.contains("\"recovery\""),
        "chaos reports must carry the recovery section"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Generated chaos scripts are internally consistent on arbitrary
    /// shapes and seeds: every fault heals, the script is scheduled
    /// inside the workload span, and generation replays exactly.
    #[test]
    fn chaos_scripts_heal_and_replay(
        bridges in 2usize..5,
        ring in any::<bool>(),
        seed in 0u64..100_000,
    ) {
        let shape = if ring {
            TopologyShape::Ring { bridges: bridges + 1 }
        } else {
            TopologyShape::Line { bridges }
        };
        let topo = topo::generate(shape, seed);
        let a = workload::generate(BatteryKind::Chaos, &topo, seed);
        let b = workload::generate(BatteryKind::Chaos, &topo, seed);
        prop_assert_eq!(&a.chaos, &b.chaos);
        prop_assert_eq!(a.items.clone(), b.items.clone());
        prop_assert!(!a.chaos.is_transparent());
        prop_assert!(a.chaos.last_heal_at().is_some(), "every fault must heal");
        prop_assert!(a.chaos.last_heal_at().unwrap() <= a.chaos.span());
        prop_assert!(a.chaos.span() <= a.span(), "the workload span covers the script");
        prop_assert!(a.chaos.crash_count() >= 1);
        prop_assert_eq!(a.expected_quarantines(), 1);
    }

    /// A full chaos run replays byte-identically on small cycle-free
    /// shapes (rings use 55s reconvergence margins — too slow for a
    /// proptest — and are pinned by the fixed-seed tests above).
    #[test]
    fn chaos_runs_replay_on_lines(
        bridges in 2usize..4,
        seed in 0u64..1_000,
    ) {
        let sc = Scenario::new(TopologyShape::Line { bridges }, BatteryKind::Chaos, seed);
        let a = runner::run(&sc);
        prop_assert!(a.passed(), "{}", a.to_json().render_pretty());
        let b = runner::run(&sc);
        prop_assert_eq!(a.to_json().render(), b.to_json().render());
    }
}
