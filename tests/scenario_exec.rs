//! The multi-core execution plane acceptance suite: a parallel sweep is
//! byte-identical to the sequential one (reports *and* world trace
//! digests), worker-reused worlds behave exactly like fresh ones, the
//! pool never loses or duplicates a job, and the metro tier actually
//! fields its ≥ 1024 hosts.

use ab_scenario::runner::{self, AppOutcome, Scenario};
use ab_scenario::sweep::{run_sweep_jobs, SweepSpec};
use ab_scenario::topo::TopologyShape;
use ab_scenario::workload::BatteryKind;
use proptest::prelude::*;

/// The committed sweep (all committed shapes × batteries) rendered at 1,
/// 2 and 4 jobs: every report must be byte-identical — parallelism is
/// not allowed to be observable in the output.
#[test]
fn parallel_sweep_reports_are_byte_identical() {
    let spec = SweepSpec::default_sweep(2100);
    let serial = run_sweep_jobs(&spec, 1);
    assert!(serial.passed(), "the committed sweep must pass");
    let serial_bytes = serial.to_json().render();
    for jobs in [2, 4] {
        let parallel = run_sweep_jobs(&spec, jobs);
        assert_eq!(
            serial_bytes,
            parallel.to_json().render(),
            "a {jobs}-job sweep must render the exact bytes of the 1-job sweep"
        );
    }
}

/// Determinism below the report layer: every scenario's full world
/// record (trace entries, counters, frame totals — FNV-1a digested)
/// agrees between a sequential run and a 4-worker pool run.
#[test]
fn trace_digests_match_across_worker_counts() {
    // Every committed shape × battery, thinned to every other scenario
    // (digest runs keep the trace on, so they cost more than report
    // runs).
    let specs: Vec<Scenario> = SweepSpec::default_sweep(7001)
        .scenarios()
        .into_iter()
        .step_by(2)
        .collect();
    let serial: Vec<(String, u64)> = specs
        .iter()
        .map(|sc| {
            let (report, digest) = runner::run_traced(sc);
            (report.to_json().render(), digest)
        })
        .collect();
    let parallel = ab_scenario::run_jobs(specs, 4, |sc| {
        let (report, digest) = runner::run_traced(&sc);
        (report.to_json().render(), digest)
    });
    assert_eq!(
        serial, parallel,
        "pooled runs must replay the exact world record"
    );
}

/// `World::reset` is behaviorally invisible: running scenarios through
/// one progressively dirtier world produces the same bytes as fresh
/// worlds.
#[test]
fn reused_world_reports_match_fresh_worlds() {
    let mut world = netsim::World::new(999);
    for (i, sc) in SweepSpec::default_sweep(4200)
        .scenarios()
        .iter()
        .step_by(3)
        .enumerate()
    {
        let fresh = runner::run(sc);
        let reused = runner::run_in(&mut world, sc);
        assert_eq!(
            fresh.to_json().render(),
            reused.to_json().render(),
            "scenario #{i} ({}) diverged in a reused world",
            sc.name
        );
    }
}

/// The metro tier at full scale: ≥ 1024 crowd hosts all hear traffic,
/// every invariant passes, and the flood blast actually fans out to the
/// whole population.
#[test]
fn metro_large_fields_a_thousand_hosts_and_passes() {
    let sc = Scenario::new(TopologyShape::metro_large(), BatteryKind::Metro, 5);
    let report = runner::run(&sc);
    assert!(report.passed(), "{}", report.to_json().render_pretty());
    let crowd_hosts: u64 = report
        .apps
        .iter()
        .map(|a| match a.outcome {
            AppOutcome::Crowd { hosts, .. } => hosts,
            _ => 0,
        })
        .sum();
    assert!(
        crowd_hosts >= 1024,
        "metro/large must field ≥ 1024 crowd hosts, got {crowd_hosts}"
    );
    // The flood blast's frames reach the whole population: deliveries
    // dwarf wire frames.
    let delivered = report.world.frames_delivered;
    let wire: u64 = report
        .world
        .segments
        .iter()
        .map(|s| s.counters.tx_frames)
        .sum();
    assert!(
        delivered > 10 * wire,
        "high-degree fan-out expected: {delivered} deliveries over {wire} wire frames"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The pool drains arbitrary job sets without loss, duplication or
    /// reordering, at any worker count (including oversubscription).
    #[test]
    fn pool_drains_arbitrary_job_sets(
        jobs in 1usize..9,
        specs in proptest::collection::vec(0u64..1_000_000, 0..60),
    ) {
        let expect: Vec<u64> = specs.iter().map(|x| x.wrapping_mul(2654435761) ^ 0xABCD).collect();
        let out = ab_scenario::run_jobs(specs, jobs, |x| x.wrapping_mul(2654435761) ^ 0xABCD);
        prop_assert_eq!(out, expect);
    }
}
