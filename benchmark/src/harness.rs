//! The run protocol for one workload in one process.
//!
//! `--trace 0` ([`end_to_end`]): identical rounds — construct a fresh
//! world (timed as set-up), run the workload's fixed work (timed) — until
//! `--seconds` have passed, then one more round with the allocation
//! counter on. Nothing is traced and the allocator gate is shut while the
//! clock runs.
//!
//! `--trace 1` ([`per_layer`]): the kernel suite, then untraced and traced
//! rounds in alternation, every node of a traced round wrapped. The traced
//! rounds must reproduce the untraced rounds' `sim_digest` — the wrappers
//! are not allowed to perturb the simulation — and their slowdown is
//! reported as `trace.overhead_pct`, which is why no end-to-end number
//! comes from them.
//!
//! **Which time is reported.** Rounds are short (tens of milliseconds),
//! many, and cut into parts of a few milliseconds that are the same in
//! every round; `wall_s` is the sum over the parts of the fastest time each
//! part took in any round ([`best_parts`]), and `frames_per_s` is the
//! round's frames over that. On the reference box host speed wanders by
//! 10–50 % in phases that last from milliseconds to a minute (a shared
//! core), always downwards: over ten 10 s runs the median of 0.5 s rounds
//! spread 15–18 % of its median between runs and their minimum 3–13 %;
//! the minimum of 25 ms rounds 5 % in the same bad minutes. The shorter the
//! piece and the more often it is repeated, the surer one repetition
//! escapes, so the pieces are made short. The fastest, median and 90th
//! percentile whole round are printed beside it, and every round's time is
//! kept in the result file. `setup_s` is the fastest of the rounds'
//! constructions for the same reason: between two runs of one commit a few
//! minutes apart the median construction moved by up to 27 %, the fastest
//! by 8 % on average.

use std::rc::Rc;
use std::time::{Duration, Instant};

use crate::alloc;
use crate::kernels;
use crate::net::layer;
use crate::schema::{END_TO_END, PER_LAYER};
use crate::span::{calibrate, self_ns, Agg, Calibration, Tracer};
use crate::stats::{best_parts, half_gap, median, min, percentile, samples_beyond};
use crate::workloads::{Outcome, Size, Workload};

/// Rounds every pass runs at least, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;
/// Empty spans the span-cost calibration times.
const CALIBRATION_SPANS: u64 = 1_000_000;

/// What a pass measured: the contract's result line plus what else is
/// worth printing.
#[derive(Clone, Debug)]
pub struct Measured {
    /// Outputs were right: every round completed, every round gave the
    /// same `sim_digest`, and (traced pass) tracing did not change it.
    pub correct: bool,
    /// Operations one round attempted.
    pub attempted: u64,
    /// Operations of that round that failed.
    pub failed: u64,
    /// `(name, value)` for every metric of the pass's list, in list order.
    pub metrics: Vec<(&'static str, f64)>,
    /// The rounds' common digest.
    pub sim_digest: u64,
    /// Timed (or traced) rounds run.
    pub rounds: usize,
    /// Every round's sample behind a timed metric, by metric name.
    pub samples: Vec<(&'static str, Vec<f64>)>,
    /// How far the reported value moves when it is taken from the odd
    /// rounds alone and from the even rounds alone, as a share of itself:
    /// the run's own estimate of how well it resolved the metric.
    pub spreads: Vec<(&'static str, f64)>,
    /// Why `correct` is false, and findings such as failing scenarios.
    pub notes: Vec<String>,
}

/// One round: construct (timed as set-up), run (each part timed), read.
fn round(workload: &dyn Workload, tracer: Option<&Rc<Tracer>>) -> (f64, Vec<f64>, Outcome) {
    let t = Instant::now();
    let mut round = workload.prepare(tracer);
    let setup = t.elapsed().as_secs_f64();
    if let Some(tracer) = tracer {
        tracer.record_round();
    }
    let mut parts = Vec::new();
    let mut part_started = Instant::now();
    round.run(&mut || {
        let now = Instant::now();
        parts.push((now - part_started).as_secs_f64());
        part_started = now;
    });
    parts.push(part_started.elapsed().as_secs_f64());
    if let Some(tracer) = tracer {
        tracer.pause();
    }
    (setup, parts, round.outcome())
}

/// Rounds' parts, checked to be the same parts in every round.
#[derive(Default)]
struct Parts(Vec<Vec<f64>>);

impl Parts {
    fn push(&mut self, parts: Vec<f64>, verdict: &mut Verdict) {
        if self
            .0
            .first()
            .is_some_and(|first| first.len() != parts.len())
        {
            verdict.note(format!(
                "round {} ran in {} parts, the first in {}",
                self.0.len() + 1,
                parts.len(),
                self.0[0].len()
            ));
        } else {
            self.0.push(parts);
        }
    }

    /// Whole-round times.
    fn walls(&self) -> Vec<f64> {
        self.0.iter().map(|parts| parts.iter().sum()).collect()
    }
}

/// Folds rounds' outcomes into one verdict: all complete, all one digest.
#[derive(Default)]
struct Verdict {
    first: Option<Outcome>,
    notes: Vec<String>,
}

impl Verdict {
    fn note(&mut self, note: String) {
        if !self.notes.contains(&note) {
            self.notes.push(note);
        }
    }

    fn take(&mut self, what: &str, outcome: Outcome) {
        if let Err(why) = &outcome.complete {
            self.note(format!("{what}: {why}"));
        }
        if outcome.ops_failed > 0 {
            self.note(format!(
                "{what}: {} of {} operations failed",
                outcome.ops_failed, outcome.ops
            ));
        }
        match &self.first {
            None => self.first = Some(outcome),
            Some(first) if first.sim_digest != outcome.sim_digest => self.note(format!(
                "{what}: sim_digest {:016x} differs from the first round's {:016x}",
                outcome.sim_digest, first.sim_digest
            )),
            Some(_) => {}
        }
    }

    fn first(&self) -> &Outcome {
        self.first.as_ref().expect("at least one round ran")
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The untraced pass: every end-to-end metric.
pub fn end_to_end(workload: &dyn Workload, seconds: f64) -> Measured {
    let mut verdict = Verdict::default();
    let (mut setups, mut parts) = (Vec::new(), Parts::default());
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    while setups.len() < MIN_ROUNDS || started.elapsed() < budget {
        let (setup, round_parts, outcome) = round(workload, None);
        setups.push(setup);
        parts.push(round_parts, &mut verdict);
        verdict.take(&format!("round {}", setups.len()), outcome);
    }

    // One more round with the allocation counter on: construction, warm-up
    // and the fixed work, but not the reading of results.
    let (counted, allocs) = alloc::count(|| {
        let mut round = workload.prepare(None);
        round.run(&mut || ());
        round
    });
    verdict.take("counted round", counted.outcome());
    drop(counted);
    if !alloc::installed() {
        verdict.note("the counting allocator is not installed".to_owned());
    }

    let first = verdict.first();
    let frames = first.frames.max(1) as f64;
    let wall = best_parts(&parts.0);
    let values = [
        min(&setups),
        wall,
        frames / wall,
        allocs as f64 / frames,
        peak_rss_mb(),
        first.judged_ok as f64 / first.judged.max(1) as f64,
    ];
    let walls = parts.walls();
    let mut notes = verdict.notes.clone();
    notes.extend(first.notes.iter().cloned());
    notes.push(format!(
        "wall_s is the fastest of {} rounds part by part ({} parts); as a whole the fastest \
         round took {:.6} s, the median {:.6} s, the 90th percentile {:.6} s; the median \
         construction took {:.6} s",
        walls.len(),
        parts.0[0].len(),
        min(&walls),
        median(&walls),
        percentile(&walls, 90.0),
        median(&setups)
    ));
    // frames_per_s is frames ÷ wall_s, so it resolves exactly as well.
    let wall_gap = half_gap(&parts.0, best_parts);
    Measured {
        correct: verdict.notes.is_empty(),
        attempted: first.ops,
        failed: first.ops_failed,
        metrics: END_TO_END.iter().map(|m| m.name).zip(values).collect(),
        sim_digest: first.sim_digest,
        rounds: walls.len(),
        spreads: vec![
            ("setup_s", half_gap(&setups, min)),
            ("wall_s", wall_gap),
            ("frames_per_s", wall_gap),
        ],
        samples: vec![("setup_s", setups), ("wall_s", walls)],
        notes,
    }
}

/// Sum of the totals of `layer`'s entry points.
fn layer_totals(totals: &[(&str, &str, Agg)], layer: &str) -> Agg {
    let mut sum = Agg::default();
    for (_, _, a) in totals.iter().filter(|(l, _, _)| *l == layer) {
        sum.add(a);
    }
    sum
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-workload rows of the per-layer list, from one traced round's
/// span totals and simulated statistics.
fn layer_rows(
    totals: &[(&'static str, &'static str, Agg)],
    cal: &Calibration,
    outcome: &Outcome,
    run_in_ms: &[f64],
    overhead_pct: f64,
) -> Vec<(&'static str, f64)> {
    let netsim = layer_totals(totals, layer::NETSIM);
    let bridge = layer_totals(totals, layer::ACTIVE_BRIDGE);
    let host = layer_totals(totals, layer::HOSTSIM);
    let (netsim_ns, bridge_ns, host_ns) = (
        self_ns(&netsim, cal),
        self_ns(&bridge, cal),
        self_ns(&host, cal),
    );
    let node_ns = netsim_ns + bridge_ns + host_ns;

    // `score_report` spans are extra calls made only to be priced; the
    // sweep's own time is its other three entry points.
    let entry_ns = |entry: &str| {
        totals
            .iter()
            .filter(|(l, e, _)| *l == layer::AB_SCENARIO && *e == entry)
            .map(|(_, _, a)| self_ns(a, cal))
            .sum::<f64>()
    };
    let (run_in, to_json, render) = (entry_ns("run_in"), entry_ns("to_json"), entry_ns("render"));
    let sweep_ns = run_in + to_json + render;

    let c = &outcome.counts;
    let decided = (c.bridge("flooded") + c.bridge("directed") + c.bridge("filtered")) as f64;
    let mut rows = vec![
        (
            "netsim.self_ns_per_frame",
            ratio(netsim_ns, outcome.frames as f64),
        ),
        ("netsim.share", ratio(netsim_ns, node_ns)),
        ("netsim.wire_frames", c.wire_frames as f64),
        (
            "netsim.deliveries_per_wire_frame",
            ratio(c.deliveries as f64, c.wire_frames as f64),
        ),
        ("netsim.queue_drops", c.seg_queue_drops as f64),
        ("netsim.peak_queue", c.peak_queue as f64),
        ("active_bridge.calls", bridge.count as f64),
        (
            "active_bridge.ns_per_call",
            ratio(bridge_ns, bridge.count as f64),
        ),
        ("active_bridge.share", ratio(bridge_ns, node_ns)),
        (
            "active_bridge.cache_hit_ratio",
            ratio(
                c.bridge("cache_hits") as f64,
                (c.bridge("cache_hits") + c.bridge("cache_misses")) as f64,
            ),
        ),
        (
            "active_bridge.flood_ratio",
            ratio(c.bridge("flooded") as f64, decided),
        ),
        ("active_bridge.queue_drops", c.bridge("queue_drops") as f64),
        ("active_bridge.learn_occupancy", c.learn_occupancy as f64),
        (
            "active_bridge.learn_evictions",
            c.bridge("learn_evictions") as f64,
        ),
        (
            "active_bridge.learn_rejects",
            c.bridge("learn_rejects") as f64,
        ),
        (
            "active_bridge.storm_suppressions",
            c.bridge("storm_suppressions") as f64,
        ),
        (
            "active_bridge.bpdu_guard_trips",
            c.bridge("bpdu_guard_trips") as f64,
        ),
        ("active_bridge.policed_drops", outcome.policed_drops as f64),
        (
            "switchlet.instr_per_frame",
            ratio(
                c.bridge("vm_instructions") as f64,
                c.bridge("frames_in") as f64,
            ),
        ),
        ("hostsim.calls", host.count as f64),
        ("hostsim.ns_per_call", ratio(host_ns, host.count as f64)),
        ("hostsim.share", ratio(host_ns, node_ns)),
        ("ab_scenario.run_in_share", ratio(run_in, sweep_ns)),
        ("ab_scenario.to_json_share", ratio(to_json, sweep_ns)),
        ("ab_scenario.render_share", ratio(render, sweep_ns)),
        ("trace.span_cost_ns", cal.span_cost_ns()),
        ("trace.overhead_pct", overhead_pct),
    ];
    if !run_in_ms.is_empty() {
        rows.push(("ab_scenario.run_in_ms_p50", median(run_in_ms)));
        rows.push(("ab_scenario.run_in_ms_p99", percentile(run_in_ms, 99.0)));
    }
    rows.extend(outcome.extra.iter().copied());
    rows
}

/// The traced pass: every per-layer metric. `trace_out` is where the raw
/// spans go as a Chrome trace-event file.
pub fn per_layer(
    workload: &dyn Workload,
    seed: u64,
    seconds: f64,
    size: Size,
    trace_out: Option<&std::path::Path>,
) -> Measured {
    let cal = calibrate(match size {
        Size::Full => CALIBRATION_SPANS,
        Size::Smoke => CALIBRATION_SPANS / 20,
    });
    // The kernel suite gets two thirds of the run's seconds (0.3 s a
    // kernel of the standard 15), the rounds the last third.
    let kernel_rows = kernels::run(seed, seconds * 2.0 / 3.0 / kernels::COUNT as f64);

    // Untraced and traced rounds take turns, so both see the same phases
    // of the host. The tracer records only while a round's fixed work
    // runs (boot and warm-up are set-up), and the layer times come from
    // the fastest traced round, like every other time here.
    let mut verdict = Verdict::default();
    let tracer = Tracer::shared();
    tracer.pause();
    let (mut plain, mut traced) = (Parts::default(), Parts::default());
    let mut fastest = (f64::INFINITY, Vec::new());
    let mut run_in_ms = Vec::new();
    let budget = Duration::from_secs_f64(seconds / 3.0);
    let started = Instant::now();
    while traced.0.len() < MIN_ROUNDS || started.elapsed() < budget {
        let (_, parts, outcome) = round(workload, None);
        plain.push(parts, &mut verdict);
        verdict.take(&format!("untraced round {}", plain.0.len()), outcome);

        let (_, parts, outcome) = round(workload, Some(&tracer));
        let secs: f64 = parts.iter().sum();
        if secs < fastest.0 {
            fastest = (secs, tracer.totals());
        }
        traced.push(parts, &mut verdict);
        run_in_ms.extend(outcome.run_in_ms.iter().copied());
        verdict.take(&format!("traced round {}", traced.0.len()), outcome);
    }
    let overhead_pct = (best_parts(&traced.0) / best_parts(&plain.0) - 1.0) * 100.0;
    if let Some(path) = trace_out {
        if let Err(e) = std::fs::write(path, tracer.chrome_trace()) {
            verdict.note(format!("could not write {}: {e}", path.display()));
        }
    }

    let mut notes = verdict.notes.clone();
    if !run_in_ms.is_empty() {
        notes.push(format!(
            "ab_scenario.run_in_ms percentiles over {} samples ({} beyond p99)",
            run_in_ms.len(),
            samples_beyond(run_in_ms.len(), 99.0)
        ));
    }
    let first = verdict.first();
    let mut rows = layer_rows(&fastest.1, &cal, first, &run_in_ms, overhead_pct);
    rows.extend(kernel_rows);
    for (name, _) in &rows {
        assert!(
            PER_LAYER.iter().any(|m| m.name == *name),
            "{name} is measured but not in the schema"
        );
    }
    // Every name of the list, in list order; a row that does not apply to
    // this workload reads 0.
    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            let value = rows
                .iter()
                .find(|(n, _)| *n == m.name)
                .map_or(0.0, |&(_, v)| v);
            (m.name, value)
        })
        .collect();
    Measured {
        correct: verdict.notes.is_empty(),
        attempted: first.ops,
        failed: first.ops_failed,
        metrics,
        sim_digest: first.sim_digest,
        rounds: traced.0.len(),
        spreads: Vec::new(),
        samples: vec![
            ("untraced_round_s", plain.walls()),
            ("traced_round_s", traced.walls()),
        ],
        notes,
    }
}
