//! `ab_benchmark compare A.json B.json`: is run set B no worse than run set
//! A? One verdict per end-to-end metric and workload, against the bounds
//! in [`crate::schema`] (which `tests/schema.rs` pins to
//! `BENCHMARK.json`), plus a list of every `sim_digest` or exact-metric
//! difference — a speed-up is only a speed-up if the simulation it speeds
//! up is the same one.
//!
//! * `regressed` — B's value is worse than A's by more than the bound;
//! * `unresolved` — either run's own spread for the metric (how far its
//!   value moves between the odd and the even rounds) is wider than the
//!   bound, so the run did not resolve the metric that finely (unless
//!   every round of B beats every round of A, which is `ok`);
//! * `ok` — otherwise.

use ab_scenario::Json;

use crate::schema::{Better, Metric, END_TO_END, PER_LAYER};

/// The verdict on one metric of one workload.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Status {
    Ok,
    Regressed,
    Unresolved,
}

impl Status {
    pub fn label(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Regressed => "regressed",
            Status::Unresolved => "unresolved",
        }
    }
}

/// One line of the comparison.
#[derive(Clone, Debug)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub base: f64,
    pub new: f64,
    /// Share of `base` by which `new` is worse (negative: better).
    pub worsening: f64,
    /// The wider of the two runs' own spreads for the metric.
    pub spread: f64,
    pub bound: f64,
    pub status: Status,
}

/// The whole comparison.
#[derive(Clone, Debug, Default)]
pub struct Comparison {
    pub rows: Vec<Row>,
    /// Digest and exact-metric differences, one line each.
    pub differences: Vec<String>,
}

impl Comparison {
    /// Did any metric regress?
    pub fn regressed(&self) -> bool {
        self.rows.iter().any(|r| r.status == Status::Regressed)
    }
}

/// The verdict for one metric from its two values, the wider of the runs'
/// own spreads, and the rounds behind the values (empty when the metric
/// has no per-round samples).
pub fn judge(
    metric: &Metric,
    (base, new): (f64, f64),
    spread: f64,
    (base_rounds, new_rounds): (&[f64], &[f64]),
) -> Row {
    let bound = metric.bound.expect("only end-to-end metrics are judged");
    let worsening = metric.better.worsening(base, new);
    let all_better = !base_rounds.is_empty()
        && !new_rounds.is_empty()
        && base_rounds.iter().all(|&b| {
            new_rounds.iter().all(|&n| match metric.better {
                Better::Lower => n < b,
                Better::Higher => n > b,
            })
        });
    let status = if spread > bound && !all_better {
        Status::Unresolved
    } else if worsening > bound {
        Status::Regressed
    } else {
        Status::Ok
    };
    Row {
        workload: String::new(),
        metric: metric.name,
        base,
        new,
        worsening,
        spread,
        bound,
        status,
    }
}

/// The value of `metric` in one pass's section of a results file.
pub fn value_of(pass: &Json, metric: &str) -> Option<f64> {
    pass.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

fn spread_of(pass: &Json, metric: &str) -> f64 {
    pass.get("spreads")
        .and_then(|s| s.get(metric))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

fn rounds_of(pass: &Json, metric: &str) -> Vec<f64> {
    match pass.get("samples").and_then(|s| s.get(metric)) {
        Some(Json::Arr(items)) => items.iter().filter_map(Json::as_f64).collect(),
        _ => Vec::new(),
    }
}

fn workloads(doc: &Json) -> Result<&[Json], String> {
    match doc.get("workloads") {
        Some(Json::Arr(items)) => Ok(items),
        _ => Err("not a result file: no \"workloads\" array".to_owned()),
    }
}

fn name_of(workload: &Json) -> &str {
    match workload.get("name") {
        Some(Json::Str(s)) => s,
        _ => "?",
    }
}

/// Compare two result files (as `ab_benchmark run --out` writes them).
pub fn compare(a: &Json, b: &Json) -> Result<Comparison, String> {
    let mut out = Comparison::default();
    let same_inputs = a.get("seed") == b.get("seed") && a.get("size") == b.get("size");
    if !same_inputs {
        out.differences.push(
            "the runs differ in seed or size: digests and exact metrics are not comparable"
                .to_owned(),
        );
    }
    let b_workloads = workloads(b)?;
    for wa in workloads(a)? {
        let name = name_of(wa);
        let Some(wb) = b_workloads.iter().find(|w| name_of(w) == name) else {
            return Err(format!("workload {name} is missing from the second file"));
        };
        for (pass, list) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let (Some(pa), Some(pb)) = (wa.get(pass), wb.get(pass)) else {
                return Err(format!(
                    "workload {name} has no {pass} section in both files"
                ));
            };
            if same_inputs && pa.get("sim_digest") != pb.get("sim_digest") {
                out.differences
                    .push(format!("{name}: {pass} sim_digest differs"));
            }
            for metric in list {
                let (Some(base), Some(new)) =
                    (value_of(pa, metric.name), value_of(pb, metric.name))
                else {
                    return Err(format!("{name}: {} is missing from a file", metric.name));
                };
                if same_inputs && metric.exact && base != new {
                    out.differences
                        .push(format!("{name}: {} was {base}, is {new}", metric.name));
                }
                if metric.bound.is_some() {
                    let mut row = judge(
                        metric,
                        (base, new),
                        spread_of(pa, metric.name).max(spread_of(pb, metric.name)),
                        (&rounds_of(pa, metric.name), &rounds_of(pb, metric.name)),
                    );
                    row.workload = name.to_owned();
                    out.rows.push(row);
                }
            }
        }
    }
    Ok(out)
}

/// The comparison as a table.
pub fn render(c: &Comparison) -> String {
    use std::fmt::Write as _;
    let mut out = format!(
        "{:<14} {:<18} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict\n",
        "workload", "metric", "A", "B", "worse by", "spread", "bound"
    );
    for r in &c.rows {
        let _ = writeln!(
            out,
            "{:<14} {:<18} {:>14.6} {:>14.6} {:>8.2}% {:>7.2}% {:>6.1}%  {}",
            r.workload,
            r.metric,
            r.base,
            r.new,
            r.worsening * 100.0,
            r.spread * 100.0,
            r.bound * 100.0,
            r.status.label()
        );
    }
    for d in &c.differences {
        let _ = writeln!(out, "differs: {d}");
    }
    let count = |s| c.rows.iter().filter(|r| r.status == s).count();
    let _ = writeln!(
        out,
        "{} ok, {} regressed, {} unresolved, {} differences",
        count(Status::Ok),
        count(Status::Regressed),
        count(Status::Unresolved),
        c.differences.len()
    );
    out
}
