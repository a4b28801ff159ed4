//! The arithmetic every reported number goes through: order statistics,
//! the digest, and span self time.

use ab_benchmark::span::{calibrate, self_ns, Agg, Calibration, Tracer};
use ab_benchmark::stats::{
    half_gap, median, min, percentile, quartiles, samples_beyond, spread, Fnv,
};

#[test]
fn median_and_minimum() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[7.0]), 7.0);
    assert_eq!(min(&[3.0, 1.5, 2.0]), 1.5);
}

#[test]
fn nearest_rank_percentiles() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&v, 50.0), 50.0);
    assert_eq!(percentile(&v, 99.0), 99.0);
    assert_eq!(percentile(&v, 100.0), 100.0);
    assert_eq!(percentile(&[5.0, 1.0], 0.0), 1.0);
    // 1 000 samples leave 10 beyond p99; 430 leave 4 — too few to quote it.
    assert_eq!(samples_beyond(1_000, 99.0), 10);
    assert_eq!(samples_beyond(430, 99.0), 4);
}

/// The values Python's `statistics.quantiles(v, n=4)` gives, which is what
/// the driver computes spreads with.
#[test]
fn quartiles_match_python_statistics() {
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), (2.75, 8.25));
    assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 3.5));
    assert_eq!(quartiles(&[5.0, 1.0, 9.0, 2.0, 8.0, 3.0]), (1.75, 8.25));
    assert_eq!(spread(&ten), (8.25 - 2.75) / 5.5);
    assert_eq!(spread(&[4.0]), 0.0);
}

#[test]
fn half_gap_compares_interleaved_halves() {
    // Even-numbered samples 1, 3, 5 and odd-numbered 2, 4, 6.
    let v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
    assert_eq!(half_gap(&v, min), (1.0f64 - 2.0).abs() / 1.0);
    assert_eq!(half_gap(&v, median), (3.0f64 - 4.0).abs() / 3.5);
    assert_eq!(half_gap(&[9.0], min), 0.0);
}

#[test]
fn fnv_is_the_published_function() {
    // FNV-1a 64 test vectors.
    let mut empty = Fnv::default();
    empty.bytes(b"");
    assert_eq!(empty.finish(), 0xcbf2_9ce4_8422_2325);
    let mut a = Fnv::default();
    a.bytes(b"a");
    assert_eq!(a.finish(), 0xaf63_dc4c_8601_ec8c);
    let (mut x, mut y) = (Fnv::default(), Fnv::default());
    x.u64(1);
    y.u64(2);
    assert_ne!(x.finish(), y.finish());
}

#[test]
fn self_time_subtracts_children_and_bookkeeping() {
    let cal = Calibration {
        inner_ns: 10.0,
        outer_ns: 5.0,
    };
    assert_eq!(cal.span_cost_ns(), 15.0);
    // A parent span of 1 000 ns around four children totalling 600 ns.
    let parent = Agg {
        count: 1,
        total_ns: 1_000,
        child_ns: 600,
        child_spans: 4,
    };
    // 1000 − 600 − 4 × 5 (the children's outside cost) − 1 × 10 (its own).
    assert_eq!(self_ns(&parent, &cal), 370.0);
    // Leaves pay only their own inside cost.
    let leaves = Agg {
        count: 4,
        total_ns: 600,
        child_ns: 0,
        child_spans: 0,
    };
    assert_eq!(self_ns(&leaves, &cal), 560.0);
    // Never negative, however wrong the calibration.
    let tiny = Agg {
        count: 100,
        total_ns: 500,
        child_ns: 0,
        child_spans: 0,
    };
    assert_eq!(self_ns(&tiny, &cal), 0.0);
}

#[test]
fn spans_nest_and_children_are_charged_to_their_parent() {
    let tracer = Tracer::default();
    let outer = tracer.key("netsim", "run_until");
    let inner = tracer.key("hostsim", "on_frame");
    assert_eq!(
        tracer.key("netsim", "run_until"),
        outer,
        "keys are found again"
    );
    {
        let _o = tracer.span(outer);
        for _ in 0..3 {
            let _i = tracer.span(inner);
        }
    }
    let totals = tracer.totals();
    let (o, i) = (totals[0].2, totals[1].2);
    assert_eq!((totals[0].0, totals[0].1), ("netsim", "run_until"));
    assert_eq!((o.count, o.child_spans), (1, 3));
    assert_eq!((i.count, i.child_spans, i.child_ns), (3, 0, 0));
    assert_eq!(
        o.child_ns, i.total_ns,
        "a parent's child time is its children's durations"
    );
    assert!(o.total_ns >= o.child_ns);

    // The trace file has one complete event per span, children pointing at
    // their parent.
    let trace = ab_scenario::Json::parse(&tracer.chrome_trace()).expect("valid JSON");
    let Some(ab_scenario::Json::Arr(events)) = trace.get("traceEvents") else {
        panic!("no traceEvents array");
    };
    assert_eq!(events.len(), 4);
    let parent_of = |e: &ab_scenario::Json| e.get("args").and_then(|a| a.get("parent")).cloned();
    let id_of = |e: &ab_scenario::Json| e.get("args").and_then(|a| a.get("id")).cloned();
    let root = events.last().expect("the outer span closes last");
    assert_eq!(parent_of(root), Some(ab_scenario::Json::U64(0)));
    assert!(events[..3].iter().all(|e| parent_of(e) == id_of(root)));
}

#[test]
fn a_paused_tracer_records_nothing() {
    let tracer = Tracer::default();
    let key = tracer.key("netsim", "run_until");
    tracer.pause();
    drop(tracer.span(key));
    assert_eq!(tracer.totals()[0].2, Agg::default());
    tracer.record_round();
    drop(tracer.span(key));
    assert_eq!(tracer.totals()[0].2.count, 1);
    // A new round starts from zero.
    tracer.record_round();
    assert_eq!(tracer.totals()[0].2, Agg::default());
}

#[test]
fn calibration_finds_a_positive_cost() {
    let cal = calibrate(20_000);
    assert!(
        cal.inner_ns > 0.0 && cal.span_cost_ns() < 100_000.0,
        "{cal:?}"
    );
}

#[test]
fn best_parts_takes_each_part_from_its_fastest_round() {
    use ab_benchmark::stats::best_parts;
    let rounds = vec![
        vec![1.0, 9.0, 3.0],
        vec![2.0, 4.0, 8.0],
        vec![5.0, 6.0, 2.0],
    ];
    assert_eq!(best_parts(&rounds), 1.0 + 4.0 + 2.0);
    // No whole round was that fast.
    assert!(rounds.iter().all(|r| r.iter().sum::<f64>() > 7.0));
    assert_eq!(best_parts(&rounds[..1]), 13.0);
    // Odd rounds (the 2nd) against even rounds (1st and 3rd).
    assert_eq!(half_gap(&rounds, best_parts), (9.0f64 - 14.0).abs() / 7.0);
}
