//! `compare` verdicts on hand-made inputs.

use ab_benchmark::compare::{compare, judge, Status};
use ab_benchmark::schema::{self, END_TO_END, PER_LAYER};
use ab_scenario::Json;

fn wall() -> &'static schema::Metric {
    schema::metric("wall_s").expect("wall_s is an end-to-end metric")
}

fn rate() -> &'static schema::Metric {
    schema::metric("frames_per_s").expect("frames_per_s is an end-to-end metric")
}

#[test]
fn a_change_inside_the_bound_is_ok() {
    let bound = wall().bound.expect("bounded");
    let row = judge(wall(), (1.0, 1.0 + bound * 0.9), 0.01, (&[], &[]));
    assert_eq!(row.status, Status::Ok);
    // Better is always ok.
    assert_eq!(
        judge(wall(), (1.0, 0.5), 0.01, (&[], &[])).status,
        Status::Ok
    );
    assert_eq!(
        judge(rate(), (100.0, 150.0), 0.01, (&[], &[])).status,
        Status::Ok
    );
}

#[test]
fn a_change_beyond_the_bound_regresses_in_the_metrics_own_direction() {
    let bound = wall().bound.expect("bounded");
    let slower = judge(wall(), (1.0, 1.0 + bound * 1.1), 0.01, (&[], &[]));
    assert_eq!(slower.status, Status::Regressed);
    assert!((slower.worsening - bound * 1.1).abs() < 1e-12);
    // For a higher-is-better metric a fall regresses and a rise does not.
    let bound = rate().bound.expect("bounded");
    assert_eq!(
        judge(
            rate(),
            (100.0, 100.0 * (1.0 - bound * 1.1)),
            0.0,
            (&[], &[])
        )
        .status,
        Status::Regressed
    );
    assert_eq!(
        judge(
            rate(),
            (100.0, 100.0 * (1.0 + bound * 1.1)),
            0.0,
            (&[], &[])
        )
        .status,
        Status::Ok
    );
}

#[test]
fn a_run_that_did_not_resolve_the_metric_is_unresolved() {
    let bound = wall().bound.expect("bounded");
    // Apparently unchanged, but the runs cannot tell.
    let row = judge(wall(), (1.0, 1.0), bound * 2.0, (&[1.0, 1.4], &[1.0, 1.5]));
    assert_eq!(row.status, Status::Unresolved);
    // Apparently regressed, but the runs cannot tell.
    let row = judge(wall(), (1.0, 2.0), bound * 2.0, (&[1.0, 3.0], &[2.0, 2.5]));
    assert_eq!(row.status, Status::Unresolved);
    // Unless every round of the change beats every round of the parent.
    let row = judge(wall(), (1.0, 0.5), bound * 2.0, (&[1.0, 1.4], &[0.5, 0.9]));
    assert_eq!(row.status, Status::Ok);
}

/// A results file with one workload whose every metric reads `value`,
/// except `wall_s`.
fn results(seed: u64, wall_s: f64, digest: &str, exact: f64) -> Json {
    let pass = |list: &[schema::Metric]| {
        let metrics = list
            .iter()
            .map(|m| {
                let value = match m.name {
                    "wall_s" => wall_s,
                    _ if m.exact => exact,
                    _ => 1.0,
                };
                let body = Json::obj(vec![
                    ("value", Json::F64(value)),
                    ("unit", Json::str(m.unit)),
                ]);
                (m.name.to_owned(), body)
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(true)),
            ("metrics", Json::Obj(metrics)),
            ("sim_digest", Json::str(digest)),
            (
                "samples",
                Json::obj(vec![("wall_s", Json::Arr(vec![Json::F64(wall_s)]))]),
            ),
            ("spreads", Json::obj(vec![("wall_s", Json::F64(0.01))])),
        ])
    };
    Json::obj(vec![
        ("seed", Json::U64(seed)),
        ("size", Json::str("full")),
        (
            "workloads",
            Json::Arr(vec![Json::obj(vec![
                ("name", Json::str("chain_hot")),
                ("end_to_end", pass(&END_TO_END)),
                ("per_layer", pass(&PER_LAYER)),
            ])]),
        ),
    ])
}

#[test]
fn identical_files_agree() {
    let a = results(1, 1.0, "abc", 3.0);
    let c = compare(&a, &a).expect("well-formed");
    assert_eq!(c.rows.len(), END_TO_END.len());
    assert!(c
        .rows
        .iter()
        .all(|r| r.status == Status::Ok && r.workload == "chain_hot"));
    assert!(c.differences.is_empty(), "{:?}", c.differences);
    assert!(!c.regressed());
}

#[test]
fn a_slower_file_regresses_and_a_changed_simulation_is_flagged() {
    let a = results(1, 1.0, "abc", 3.0);
    let slow = results(1, 2.0, "abc", 3.0);
    let c = compare(&a, &slow).expect("well-formed");
    assert!(c.regressed());
    let regressed: Vec<_> = c
        .rows
        .iter()
        .filter(|r| r.status == Status::Regressed)
        .collect();
    assert_eq!(regressed.len(), 1);
    assert_eq!(regressed[0].metric, "wall_s");
    assert!(c.differences.is_empty());

    // Same speed, different simulation: not a regression, but said aloud —
    // both passes' digests and every exact metric.
    let changed = results(1, 1.0, "xyz", 4.0);
    let c = compare(&a, &changed).expect("well-formed");
    let exact = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .filter(|m| m.exact)
        .count();
    assert_eq!(c.differences.len(), 2 + exact, "{:?}", c.differences);
    assert!(c.differences.iter().any(|d| d.contains("sim_digest")));
    assert!(c.differences.iter().any(|d| d.contains("allocs_per_frame")));
    // An exact end-to-end metric that moved by a third is also past its bound.
    assert!(c.regressed());
}

#[test]
fn different_seeds_are_not_compared_exactly() {
    let a = results(1, 1.0, "abc", 3.0);
    let b = results(2, 1.0, "xyz", 3.0);
    let c = compare(&a, &b).expect("well-formed");
    assert_eq!(c.differences.len(), 1, "{:?}", c.differences);
    assert!(c.differences[0].contains("seed"));
    assert!(!c.regressed());
}

#[test]
fn malformed_files_are_refused() {
    let a = results(1, 1.0, "abc", 3.0);
    assert!(compare(&a, &Json::obj(vec![])).is_err());
    let missing = Json::obj(vec![("workloads", Json::Arr(vec![]))]);
    assert!(compare(&a, &missing).is_err());
}
