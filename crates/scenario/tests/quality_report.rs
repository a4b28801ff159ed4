//! Integration coverage for the quality layer: report schema v2, the
//! all-waived scoring regression, and the offline analyzer's byte
//! stability across worker counts.

use ab_scenario::quality;
use ab_scenario::runner::{self, Scenario, Verdict};
use ab_scenario::sweep::{run_sweep_jobs, SweepSpec};
use ab_scenario::topo::TopologyShape;
use ab_scenario::workload::BatteryKind;
use ab_scenario::{Json, JsonText};

/// A sweep small enough for debug-mode tests that still covers a
/// degradation battery (contention) and a plain one (pings).
fn small_sweep(seed: u64) -> SweepSpec {
    SweepSpec {
        shapes: vec![
            TopologyShape::Line { bridges: 2 },
            TopologyShape::Ring { bridges: 3 },
        ],
        batteries: vec![BatteryKind::Pings, BatteryKind::Contention],
        seed,
    }
}

/// Walk a JSON object path, panicking with the path on a miss.
fn get<'j>(mut j: &'j Json, path: &[&str]) -> &'j Json {
    for key in path {
        let Json::Obj(members) = j else {
            panic!("{path:?}: not an object at {key}");
        };
        j = members
            .iter()
            .find_map(|(k, v)| (k == key).then_some(v))
            .unwrap_or_else(|| panic!("{path:?}: missing {key}"));
    }
    j
}

/// Regression for the `unwrap_or(100)` bug: a run whose invariants were
/// all waived must render `score_percent: null`, not a perfect 100, and
/// still count as passing (no judged invariant failed).
#[test]
fn all_waived_report_has_no_score() {
    let sc = Scenario::new(TopologyShape::Line { bridges: 2 }, BatteryKind::Pings, 5);
    let mut report = runner::run(&sc);
    for inv in &mut report.invariants {
        inv.verdict = Verdict::Waived;
    }
    assert!(report.passed(), "waived invariants must not fail the run");
    let json = report.to_json().tree();
    assert_eq!(
        get(&json, &["summary", "score_percent"]),
        &Json::Null,
        "an all-waived run must not look perfect"
    );
    let rendered = json.render();
    assert!(
        rendered.contains("\"score_percent\":null"),
        "null must survive rendering: {rendered}"
    );
}

/// Every scenario report carries a `quality` section whose subscores
/// round-trip through JSON, and the sweep summary aggregates them.
#[test]
fn sweep_json_carries_quality_sections() {
    let sweep = run_sweep_jobs(&small_sweep(900), 1);
    let json = sweep.to_json().tree();
    let Json::Arr(runs) = get(&json, &["runs"]) else {
        panic!("runs must be an array");
    };
    assert_eq!(runs.len(), 4);
    let mut overalls = Vec::new();
    for run in runs {
        let q = get(run, &["quality"]);
        let parsed = quality::QualityScore::from_json(q).expect("quality section parses");
        let written = JsonText::write(|w| parsed.write_json(w));
        assert_eq!(written.as_str(), q.render());
        if let Json::U64(o) = get(q, &["overall"]) {
            overalls.push(*o);
        }
    }
    assert!(!overalls.is_empty(), "scored scenarios must exist");
    let agg = get(&json, &["summary", "quality"]);
    assert_eq!(
        get(agg, &["scenarios_scored"]),
        &Json::U64(overalls.len() as u64)
    );
    assert_eq!(
        get(agg, &["mean"]),
        &Json::U64(overalls.iter().sum::<u64>() / overalls.len() as u64)
    );
    assert_eq!(
        get(agg, &["min"]),
        &Json::U64(*overalls.iter().min().unwrap())
    );
}

/// The contention battery's loaded pings must both survive (strict loss
/// invariants — nothing is scripted) and register a degradation score.
#[test]
fn contention_battery_scores_degradation() {
    let sc = Scenario::new(
        TopologyShape::Ring { bridges: 3 },
        BatteryKind::Contention,
        2109,
    );
    let report = runner::run(&sc);
    assert!(report.passed(), "{}", report.to_json().render_pretty());
    let q = quality::score_report(&report);
    let degr = q.degradation.expect("baseline+loaded pings must pair");
    assert!(degr <= 100);
    assert!(
        q.overall.is_some(),
        "a contention run must produce an overall score"
    );
}

/// The full offline path is byte-stable: render the sweep at 1, 2 and 4
/// workers, parse each document back, and produce scorecards — all
/// byte-identical.
#[test]
fn analyzer_scorecards_are_byte_identical_across_jobs() {
    let spec = small_sweep(3300);
    let reference = run_sweep_jobs(&spec, 1).to_json().render_pretty();
    let mut cards = Vec::new();
    for jobs in [1, 2, 4] {
        let rendered = run_sweep_jobs(&spec, jobs).to_json().render_pretty();
        assert_eq!(rendered, reference, "sweep JSON must not vary with jobs");
        let parsed = Json::parse(&rendered).expect("rendered sweep parses");
        cards.push(quality::sweep_scorecards(&parsed).expect("scorecards render"));
    }
    assert_eq!(cards[0], cards[1]);
    assert_eq!(cards[1], cards[2]);
    assert!(
        cards[0].contains("SCENARIO"),
        "header present:\n{}",
        cards[0]
    );
    let doc = Json::parse(&reference).unwrap();
    let mean = doc
        .get("summary")
        .and_then(|s| s.get("quality")?.get("mean"));
    assert!(
        matches!(mean, Some(Json::U64(_))),
        "the sweep must produce an overall quality score"
    );
}
