//! Integration coverage for the adversarial battery and the defense
//! plane: the defended arm keeps its victims alive under a MAC flood, an
//! ARP storm and (on shapes with host-facing edge ports) a rogue-root
//! BPDU injection, while the undefended control arm demonstrably
//! degrades — and the whole A/B sweep replays byte-identically at every
//! worker count.
//!
//! Defense-off preservation (every pre-existing battery perturbs
//! nothing) is proven both here — no non-adversarial report renders a
//! `security` section or any security counter — and by the golden world
//! digests and byte-pinned reports in the other test files staying green
//! unchanged.

use ab_scenario::runner::{self, Scenario, SecurityReport, Verdict, DEFENSE_LEARN_CAP};
use ab_scenario::sweep::{run_sweep_jobs, SweepSpec};
use ab_scenario::topo::TopologyShape;
use ab_scenario::workload::BatteryKind;
use active_bridge::{LearnOutcome, LearningTable};
use ether::MacAddr;
use netsim::{PortId, SimDuration, SimTime};
use proptest::prelude::*;

/// Find one judged invariant by name, panicking with the report when it
/// is absent.
fn invariant(report: &runner::Report, name: &str) -> Verdict {
    report
        .invariants
        .iter()
        .find(|i| i.name == name)
        .unwrap_or_else(|| panic!("missing invariant {name}:\n{:#?}", report.invariants))
        .verdict
}

/// The four defense invariants plus the control-arm one, in report order.
const DEFENSE_INVARIANTS: [&str; 4] = [
    "learn_table_bounded",
    "victim_flows_survive",
    "storm_suppressed_and_released",
    "root_stays_stable",
];

fn run_arm(shape: TopologyShape, seed: u64, defended: bool) -> runner::Report {
    let mut sc = Scenario::new(shape, BatteryKind::Adversarial, seed);
    sc.defended = defended;
    runner::run(&sc)
}

fn security(report: &runner::Report) -> &SecurityReport {
    report
        .security
        .as_ref()
        .expect("adversarial runs carry a security section")
}

/// The defended arm under full attack: every defense invariant judged
/// `Pass` (not waived), the table bounded, the storm suppressed and
/// released symmetrically, and the victims' flows intact.
fn check_defended(shape: TopologyShape, seed: u64, expect_guard_trip: bool) {
    let report = run_arm(shape, seed, true);
    assert!(report.passed(), "{}", report.to_json().render_pretty());
    for name in DEFENSE_INVARIANTS {
        assert_eq!(
            invariant(&report, name),
            Verdict::Pass,
            "{name} must be judged (not waived) on the defended arm"
        );
    }
    assert_eq!(
        invariant(&report, "attack_degrades_undefended"),
        Verdict::Waived,
        "the degradation proof belongs to the control arm"
    );
    let sec = security(&report);
    assert!(sec.defended);
    assert!(sec.max_learn_occupancy <= DEFENSE_LEARN_CAP as u64);
    assert!(sec.storm_suppressions > 0, "the flood must trip policing");
    assert_eq!(sec.storm_suppressions, sec.storm_releases);
    assert!(!sec.rogue_root_seen, "BPDU guard must keep the root honest");
    if expect_guard_trip {
        assert!(sec.bpdu_guard_trips > 0, "the rogue BPDU must trip guard");
    } else {
        assert_eq!(sec.bpdu_guard_trips, 0, "no rogue scheduled on this shape");
    }
    // The attack apps themselves fired their full schedules: a defense
    // that silences the attacker's NIC would prove nothing.
    for label in ["mac_flood", "arp_storm"] {
        let a = report
            .apps
            .iter()
            .find(|a| a.label == label)
            .unwrap_or_else(|| panic!("battery must schedule {label}"));
        assert!(a.ok, "{label} must complete its schedule: {:?}", a.outcome);
    }
}

/// The undefended control arm: the same offense (same seed) visibly
/// bites — the learning table blows past the defended cap — and the
/// defense invariants are waived, not judged.
fn check_control(shape: TopologyShape, seed: u64, expect_rogue_root: bool) {
    let report = run_arm(shape, seed, false);
    assert!(report.passed(), "{}", report.to_json().render_pretty());
    assert_eq!(
        invariant(&report, "attack_degrades_undefended"),
        Verdict::Pass,
        "the control arm must prove the attacks bite"
    );
    for name in DEFENSE_INVARIANTS {
        assert_eq!(
            invariant(&report, name),
            Verdict::Waived,
            "{name} is meaningless with the defenses off"
        );
    }
    let sec = security(&report);
    assert!(!sec.defended);
    assert!(
        sec.max_learn_occupancy > DEFENSE_LEARN_CAP as u64,
        "the flood must overwhelm an unbounded table: {}",
        sec.max_learn_occupancy
    );
    assert_eq!(sec.storm_suppressions, 0, "no policing configured");
    assert_eq!(sec.bpdu_guard_trips, 0, "no guard configured");
    assert_eq!(sec.rogue_root_seen, expect_rogue_root);
}

/// Line: host-facing edge ports exist, so the rogue-root injection runs
/// (and steals the root when undefended).
#[test]
fn adversarial_line_defended_survives() {
    check_defended(TopologyShape::Line { bridges: 2 }, 42, true);
}

#[test]
fn adversarial_line_control_degrades() {
    check_control(TopologyShape::Line { bridges: 2 }, 42, true);
}

/// Ring: every segment touches two bridges, so no rogue BPDU is
/// scheduled — the flood and the storm still trip the policing on both
/// first-hop bridges.
#[test]
fn adversarial_ring_defended_survives() {
    check_defended(TopologyShape::Ring { bridges: 3 }, 43, false);
}

#[test]
fn adversarial_ring_control_degrades() {
    check_control(TopologyShape::Ring { bridges: 3 }, 43, false);
}

/// One adversarial run is a pure function of its `(scenario, defended)`
/// pair: both arms replay byte-identically.
#[test]
fn adversarial_scenario_replays_byte_identically() {
    for defended in [false, true] {
        let mut sc = Scenario::new(
            TopologyShape::Line { bridges: 2 },
            BatteryKind::Adversarial,
            42,
        );
        sc.defended = defended;
        let a = runner::run(&sc).to_json().render();
        let b = runner::run(&sc).to_json().render();
        assert_eq!(a, b, "defended={defended}");
    }
}

/// The committed adversarial sweep (the CI gate) pairs every cell with a
/// defended arm, passes, and is byte-identical across worker counts. The
/// twin follows the battery: no other sweep runs a defended arm, and a
/// mixed sweep twins exactly its adversarial cells.
#[test]
fn adversarial_sweep_is_byte_identical_across_jobs() {
    let spec = SweepSpec::adversarial_sweep(42);
    let scenarios = spec.scenarios();
    assert_eq!(scenarios.len(), 4, "two shapes, each as an A/B pair");
    for pair in scenarios.chunks(2) {
        assert!(!pair[0].defended && pair[1].defended);
        assert_eq!(pair[1].name, format!("{}-defended", pair[0].name));
        assert_eq!(pair[0].seed, pair[1].seed, "both arms replay one offense");
    }
    for other in [
        SweepSpec::default_sweep(42),
        SweepSpec::chaos_sweep(42),
        SweepSpec::lossy_sweep(42),
    ] {
        let scenarios = other.scenarios();
        assert_eq!(scenarios.len(), other.shapes.len() * other.batteries.len());
        assert!(scenarios
            .iter()
            .all(|sc| !sc.defended && !sc.name.ends_with("-defended")));
    }
    let mixed = SweepSpec {
        batteries: vec![BatteryKind::Pings, BatteryKind::Adversarial],
        ..SweepSpec::adversarial_sweep(42)
    };
    let arms: Vec<(BatteryKind, bool)> = mixed
        .scenarios()
        .iter()
        .map(|sc| (sc.battery, sc.defended))
        .collect();
    let cell = [
        (BatteryKind::Pings, false),
        (BatteryKind::Adversarial, false),
        (BatteryKind::Adversarial, true),
    ];
    assert_eq!(arms, [cell, cell].concat());
    let reference = run_sweep_jobs(&spec, 1).to_json().render_pretty();
    for jobs in [2, 4] {
        let sweep = run_sweep_jobs(&spec, jobs);
        assert!(sweep.passed(), "adversarial sweep must pass at {jobs} jobs");
        assert_eq!(
            sweep.to_json().render_pretty(),
            reference,
            "adversarial sweep JSON must not vary with jobs"
        );
    }
    assert!(
        reference.contains("\"security\""),
        "adversarial reports must carry the security section"
    );
    assert!(reference.contains("\"defended\": true"));
}

/// Defense-off preservation: no pre-existing battery renders a
/// `security` section, a security invariant, or any security counter —
/// their reports are byte-for-byte what they were before the defense
/// plane existed (the golden digests in the other suites pin the rest).
#[test]
fn non_adversarial_reports_carry_no_security_artifacts() {
    for (shape, battery, seed) in [
        (
            TopologyShape::Line { bridges: 2 },
            BatteryKind::Pings,
            42u64,
        ),
        (TopologyShape::Line { bridges: 2 }, BatteryKind::Chaos, 42),
        (TopologyShape::Line { bridges: 2 }, BatteryKind::Lossy, 42),
    ] {
        let sc = Scenario::new(shape, battery, seed);
        let report = runner::run(&sc);
        assert!(report.security.is_none());
        let rendered = report.to_json().render_pretty();
        for needle in [
            "\"security\"",
            "\"defended\"",
            "learn_occupancy",
            "learn_evictions",
            "learn_rejects",
            "storm_suppressions",
            "bpdu_guard_trips",
            "learn_table_bounded",
            "attack_degrades_undefended",
        ] {
            assert!(
                !rendered.contains(needle),
                "{battery:?} report must not mention {needle}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The bounded learning table never exceeds its hard capacity or a
    /// per-port quota under arbitrary learn/sweep/flush/lookup
    /// interleavings.
    #[test]
    fn learning_table_respects_its_bounds(
        cap in 1usize..24,
        quota in 1usize..24,
        ops in proptest::collection::vec(0u64..1_000_000, 1..200),
    ) {
        let mut t = LearningTable::new(SimDuration::from_secs(300));
        t.set_bounds(cap, quota);
        let mut now = SimTime::ZERO;
        for op in ops {
            // Each op word decodes to (selector, mac index, port).
            let sel = op % 100;
            let mac = ((op / 100) % 64) as u32;
            let port = (op / 6_400) as usize % 4;
            now += SimDuration::from_ms(7);
            match sel {
                0..=79 => {
                    t.learn(MacAddr::local(mac), PortId(port), now);
                }
                80..=89 => t.sweep(now),
                90..=94 => t.flush(),
                _ => {
                    t.lookup(MacAddr::local(mac), now);
                }
            }
            prop_assert!(t.len() <= cap, "len {} over cap {cap}", t.len());
            for p in 0..4 {
                prop_assert!(
                    t.occupancy_of(PortId(p)) <= quota,
                    "port {p} occupancy {} over quota {quota}",
                    t.occupancy_of(PortId(p))
                );
            }
        }
    }

    /// Victim selection is replay-stable: the same op sequence produces
    /// the same outcome sequence — evicted MACs included — every time.
    #[test]
    fn eviction_outcomes_replay_identically(
        cap in 1usize..16,
        quota in 1usize..16,
        ops in proptest::collection::vec(0u64..1_000_000, 1..150),
    ) {
        let run = || {
            let mut t = LearningTable::new(SimDuration::from_secs(300));
            t.set_bounds(cap, quota);
            let mut now = SimTime::ZERO;
            let mut outcomes: Vec<LearnOutcome> = Vec::new();
            for &op in &ops {
                let mac = (op % 48) as u32;
                let port = (op / 48) as usize % 3;
                now += SimDuration::from_ms(3);
                outcomes.push(t.learn(MacAddr::local(mac), PortId(port), now));
            }
            outcomes
        };
        prop_assert_eq!(run(), run());
    }

    /// A full adversarial run — either arm — replays to the same armed
    /// flight-recorder digest and the same report bytes.
    #[test]
    fn adversarial_traced_digests_replay(
        seed in 0u64..1_000,
        defended in any::<bool>(),
    ) {
        let mut sc = Scenario::new(
            TopologyShape::Line { bridges: 2 },
            BatteryKind::Adversarial,
            seed,
        );
        sc.defended = defended;
        let (a, da) = runner::run_traced(&sc);
        let (b, db) = runner::run_traced(&sc);
        prop_assert_eq!(da, db, "armed-probe digest must replay");
        prop_assert_eq!(a.to_json().render(), b.to_json().render());
        prop_assert!(a.security.is_some());
    }
}
