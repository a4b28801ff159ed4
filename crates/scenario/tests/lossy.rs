//! Integration coverage for the lossy battery: the four resilience
//! invariants are judged `Pass` (never waived) on both a learning-only
//! line and a spanning-tree ring, the resilience telemetry is consistent
//! with the scripted hostile medium, and the whole lossy sweep — burst
//! losses, mid-transfer bridge crash, poisoned image and all — replays
//! byte-identically at every worker count.
//!
//! Burst-free preservation (a workload without a burst schedule perturbs
//! nothing) is proven separately: every pre-existing battery renders no
//! `resilience` section and no `burst_drops` member, and the golden
//! world digests and byte-pinned reports in the other test files stayed
//! green unchanged.

use ab_scenario::runner::{self, AppOutcome, Scenario, Verdict};
use ab_scenario::sweep::{run_sweep_jobs, SweepSpec};
use ab_scenario::topo::{self, TopologyShape};
use ab_scenario::workload::{self, BatteryKind};
use netsim::{ProbeConfig, ProbeRecord, SimDuration};
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

/// Run one lossy scenario and check the full hostile-media contract:
/// the run passes, the four resilience invariants are judged `Pass`
/// (not merely waived), and the resilience telemetry shows the medium
/// actually bit — burst drops landed, the transport retried, the
/// mid-transfer crash forced at least one fresh session, and the
/// integrity gate refused the poisoned image.
fn check_lossy_scenario(shape: TopologyShape, seed: u64) {
    let sc = Scenario::new(shape, BatteryKind::Lossy, seed);
    let report = runner::run(&sc);
    assert!(report.passed(), "{}", report.to_json().render_pretty());

    for name in [
        "uploads_complete_under_loss",
        "retries_within_budget",
        "corrupted_image_never_activates",
        "no_livelock",
    ] {
        assert_eq!(
            invariant(&report, name),
            Verdict::Pass,
            "{name} must be judged (not waived) on a lossy run"
        );
    }

    let resilience = report
        .resilience
        .as_ref()
        .expect("a lossy run must carry resilience telemetry");
    let topo = topo::generate(shape, seed);
    let wl = workload::generate(BatteryKind::Lossy, &topo, seed);
    assert!(wl.injects_bursts());
    assert!(wl.chaos.has_downtime(), "the script crashes a bridge");
    assert!(
        resilience.burst_drops > 0,
        "the burst model must have eaten traffic"
    );
    assert!(
        resilience.retries > 0,
        "the adaptive transport must have retransmitted"
    );
    assert!(
        resilience.restarts > 0,
        "the crashed session must have restarted with a fresh WRQ"
    );
    assert!(
        resilience.integrity_rejects > 0,
        "the gate must have refused the poisoned image"
    );
    assert!(
        resilience.max_stall.is_some(),
        "uploads under loss stall and recover"
    );

    // The sealed upload survived the crash mid-transfer: its report
    // shows at least one session restart charged against the budget.
    let sealed = report
        .apps
        .iter()
        .find(|a| a.label == "upload_sealed")
        .expect("the lossy battery schedules a sealed upload");
    assert!(sealed.ok);
    let AppOutcome::Upload(u) = &sealed.outcome else {
        panic!("an upload's outcome is an upload: {:?}", sealed.outcome)
    };
    assert!(
        u.restarts >= 1,
        "the bridge crash lands mid-transfer: {:?}",
        sealed.outcome
    );
    assert!(u.budget_used <= u.image.budget());

    // The poisoned image parked as a classified integrity reject.
    let corrupt = report
        .apps
        .iter()
        .find(|a| a.label == "upload_corrupt")
        .expect("the lossy battery schedules a corrupt upload");
    assert!(corrupt.ok, "the gate must hold: {:?}", corrupt.outcome);
}

/// Hostile media on a cycle-free line (learning bridges).
#[test]
fn lossy_line_completes_uploads_and_holds_the_gate() {
    check_lossy_scenario(TopologyShape::Line { bridges: 2 }, 42);
}

/// Hostile media on a ring (STP boot: the crashed bridge forces
/// re-election while the burst model chews on the access segment).
#[test]
fn lossy_ring_completes_uploads_and_holds_the_gate() {
    check_lossy_scenario(TopologyShape::Ring { bridges: 3 }, 43);
}

/// One lossy run is a pure function of its seed: two runs render
/// byte-identical JSON, bursts, retries and rejects included.
/// The burst window is scripted to open at epoch + 500 ms, and it opens
/// then: no burst-model record (a state flip or a drop) falls earlier.
#[test]
fn the_scripted_burst_window_opens_on_time() {
    let sc = Scenario::new(TopologyShape::Line { bridges: 3 }, BatteryKind::Lossy, 42);
    let capacity = 1 << 18;
    let (report, _, world) = runner::run_recorded(&sc, ProbeConfig { capacity });
    assert!(
        world.probe().appended() <= capacity as u64,
        "no record evicted"
    );
    let first = world
        .probe()
        .records()
        .filter(|e| {
            matches!(
                e.record,
                ProbeRecord::FaultDrop { .. } | ProbeRecord::FaultBurst { .. }
            )
        })
        .map(|e| e.at)
        .min()
        .expect("the burst window bites");
    let open = report.epoch + SimDuration::from_ms(500);
    assert!(
        first >= open,
        "first burst record at {first:?}, window opens at {open:?}"
    );
}

#[test]
fn lossy_scenario_replays_byte_identically() {
    let sc = Scenario::new(TopologyShape::Line { bridges: 2 }, BatteryKind::Lossy, 42);
    let a = runner::run(&sc).to_json().render();
    let b = runner::run(&sc).to_json().render();
    assert_eq!(a, b);
}

/// The committed lossy sweep (the CI hostile-media gate) is
/// byte-identical across worker counts and double runs, and every
/// scenario passes.
#[test]
fn lossy_sweep_is_byte_identical_across_jobs() {
    let spec = SweepSpec::lossy_sweep(42);
    let reference = run_sweep_jobs(&spec, 1).to_json().render_pretty();
    for jobs in [1, 2, 4] {
        let sweep = run_sweep_jobs(&spec, jobs);
        assert!(sweep.passed(), "lossy sweep must pass at {jobs} jobs");
        assert_eq!(
            sweep.to_json().render_pretty(),
            reference,
            "lossy sweep JSON must not vary with jobs"
        );
    }
    assert!(
        reference.contains("\"resilience\""),
        "lossy reports must carry the resilience section"
    );
    assert!(
        reference.contains("\"burst_drops\""),
        "segments under burst must render their drop counter"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Generated lossy workloads are internally consistent on arbitrary
    /// shapes and seeds: the burst schedule clears before the span ends,
    /// the crash heals, and generation replays exactly.
    #[test]
    fn lossy_workloads_heal_and_replay(
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
        let a = workload::generate(BatteryKind::Lossy, &topo, seed);
        let b = workload::generate(BatteryKind::Lossy, &topo, seed);
        prop_assert_eq!(a.items.clone(), b.items.clone());
        prop_assert_eq!(&a.chaos, &b.chaos);
        prop_assert!(a.injects_bursts());
        prop_assert!(a.injects_drops());
        prop_assert!(a.chaos.has_downtime());
        prop_assert!(a.chaos.last_heal_at().is_some(), "the crash must heal");
        prop_assert!(a.chaos.span() <= a.span(), "the workload span covers the script");
        prop_assert_eq!(a.expected_quarantines(), 0);
    }

    /// A full lossy run replays byte-identically on small cycle-free
    /// shapes (rings use 40s STP warm-up — too slow for a proptest —
    /// and are pinned by the fixed-seed tests above).
    #[test]
    fn lossy_runs_replay_on_lines(
        bridges in 2usize..4,
        seed in 0u64..1_000,
    ) {
        let sc = Scenario::new(TopologyShape::Line { bridges }, BatteryKind::Lossy, seed);
        let a = runner::run(&sc);
        prop_assert!(a.passed(), "{}", a.to_json().render_pretty());
        let b = runner::run(&sc);
        prop_assert_eq!(a.to_json().render(), b.to_json().render());
    }
}
