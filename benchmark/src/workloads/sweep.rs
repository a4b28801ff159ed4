//! `sweep_render` — what `ab_scenario render` does, for consecutive seeds:
//! the `default`, `chaos`, `lossy` and `adversarial` sweeps (43 scenarios a
//! seed), each run on one thread, turned into its JSON document and
//! rendered to bytes.
//!
//! Untraced rounds go through `run_sweep_jobs(spec, 1)`. Traced rounds make
//! the same calls one level down (`runner::run_in` per scenario on one
//! reused `World`, which is all the one-job pool does) so that `run_in`,
//! `score_report`, `to_json` and `render` each get a span; the harness
//! checks both paths render the same bytes.

use std::rc::Rc;
use std::time::Instant;

use ab_scenario::runner::{self, Verdict};
use ab_scenario::score_report;
use ab_scenario::sweep::{run_sweep_jobs, SweepReport, SweepSpec};
use netsim::World;

use super::{Outcome, Round, Size, Workload};
use crate::net::{layer, Counts};
use crate::span::{KeyId, Tracer};
use crate::stats::Fnv;

/// The four sweeps `ab_scenario render --sweep` accepts.
fn sweeps(seed: u64) -> [SweepSpec; 4] {
    [
        SweepSpec::default_sweep(seed),
        SweepSpec::chaos_sweep(seed),
        SweepSpec::lossy_sweep(seed),
        SweepSpec::adversarial_sweep(seed),
    ]
}

/// `seeds` consecutive sweep seeds from the benchmark seed.
pub struct SweepRender {
    seed: u64,
    seeds: u64,
}

impl SweepRender {
    pub fn new(seed: u64, size: Size) -> Self {
        SweepRender {
            seed,
            seeds: size.scale(2),
        }
    }
}

struct Keys {
    tracer: Rc<Tracer>,
    run_in: KeyId,
    score_report: KeyId,
    to_json: KeyId,
    render: KeyId,
}

struct SweepRound {
    first_seed: u64,
    seeds: u64,
    /// The first seed's four documents from the cold pass.
    cold: Vec<String>,
    keys: Option<Keys>,
    // Filled by `run`.
    reports: Vec<SweepReport>,
    rendered: Vec<String>,
    /// Host milliseconds per `run_in` (traced rounds only).
    run_in_ms: Vec<f64>,
}

/// One sweep, rendered. With `keys`, through the spanned path, which also
/// times each `run_in` into `run_in_ms`.
fn render_sweep(
    spec: &SweepSpec,
    keys: Option<&Keys>,
    run_in_ms: &mut Vec<f64>,
) -> (SweepReport, String) {
    let Some(k) = keys else {
        let report = run_sweep_jobs(spec, 1);
        let rendered = report.to_json().render();
        return (report, rendered);
    };
    let mut world = World::new(0);
    let mut runs = Vec::new();
    for scenario in spec.scenarios() {
        let started = Instant::now();
        let report = {
            let _span = k.tracer.span(k.run_in);
            runner::run_in(&mut world, &scenario)
        };
        run_in_ms.push(started.elapsed().as_secs_f64() * 1e3);
        {
            // `to_json` scores every report again itself; this extra call
            // exists only to price one `score_report` per scenario.
            let _span = k.tracer.span(k.score_report);
            std::hint::black_box(score_report(&report));
        }
        runs.push(report);
    }
    let report = SweepReport { runs };
    let json = {
        let _span = k.tracer.span(k.to_json);
        report.to_json()
    };
    let rendered = {
        let _span = k.tracer.span(k.render);
        json.render()
    };
    (report, rendered)
}

impl Workload for SweepRender {
    fn prepare(&self, tracer: Option<&Rc<Tracer>>) -> Box<dyn Round> {
        let keys = tracer.map(|t| Keys {
            tracer: Rc::clone(t),
            run_in: t.key(layer::AB_SCENARIO, "run_in"),
            score_report: t.key(layer::AB_SCENARIO, "score_report"),
            to_json: t.key(layer::AB_SCENARIO, "to_json"),
            render: t.key(layer::AB_SCENARIO, "render"),
        });
        // Set-up is what a user pays before the first byte of the first
        // report: spec expansion, a new `World` per sweep, and the cold
        // pass over one seed. Never traced: its documents are the
        // reference the round's first seed must reproduce.
        let cold = sweeps(self.seed)
            .iter()
            .map(|spec| render_sweep(spec, None, &mut Vec::new()).1)
            .collect();
        Box::new(SweepRound {
            first_seed: self.seed,
            seeds: self.seeds,
            cold,
            keys,
            reports: Vec::new(),
            rendered: Vec::new(),
            run_in_ms: Vec::new(),
        })
    }
}

impl Round for SweepRound {
    fn run(&mut self, lap: &mut dyn FnMut()) {
        for seed in self.first_seed..self.first_seed + self.seeds {
            for spec in sweeps(seed) {
                // One part per sweep.
                if !self.rendered.is_empty() {
                    lap();
                }
                let (report, rendered) =
                    render_sweep(&spec, self.keys.as_ref(), &mut self.run_in_ms);
                self.reports.push(report);
                self.rendered.push(rendered);
            }
        }
    }

    fn outcome(&self) -> Outcome {
        let mut digest = Fnv::default();
        let mut bytes = 0;
        for doc in &self.rendered {
            digest.bytes(doc.as_bytes());
            bytes += doc.len();
        }
        let (mut frames, mut scenarios) = (0, 0);
        let (mut passed, mut failed) = (0, 0);
        let mut qualities = Vec::new();
        let mut notes = Vec::new();
        for run in self.reports.iter().flat_map(|r| &r.runs) {
            scenarios += 1;
            frames += run.world.frames_delivered;
            let (p, f, _waived) = run.verdict_counts();
            passed += p;
            failed += f;
            if f > 0 {
                let names: Vec<&str> = run
                    .invariants
                    .iter()
                    .filter(|i| i.verdict == Verdict::Fail)
                    .map(|i| i.name)
                    .collect();
                notes.push(format!(
                    "{} failed {}",
                    run.scenario.name,
                    names.join(" + ")
                ));
            }
            if let Some(q) = score_report(run).overall {
                qualities.push(q as f64);
            }
        }
        let complete = if self.rendered.len() as u64 != 4 * self.seeds {
            Err(format!(
                "{} of {} sweeps rendered",
                self.rendered.len(),
                4 * self.seeds
            ))
        } else if self.rendered[..4] != self.cold[..] {
            Err("the first seed rendered differently from the cold pass".to_owned())
        } else {
            Ok(())
        };
        let extra = vec![
            ("ab_scenario.invariants_judged", (passed + failed) as f64),
            ("ab_scenario.invariants_failed", failed as f64),
            (
                "ab_scenario.report_kb_per_scenario",
                bytes as f64 / 1024.0 / scenarios.max(1) as f64,
            ),
            (
                "ab_scenario.quality_mean",
                qualities.iter().sum::<f64>() / qualities.len().max(1) as f64,
            ),
        ];
        Outcome {
            frames,
            // An operation is one scenario run, judged and rendered; a
            // scenario whose invariants the judge fails has still been
            // simulated and reported correctly, so it is not a failed
            // operation. What the judge said is `ok_share`.
            ops: scenarios,
            ops_failed: 0,
            judged: passed + failed,
            judged_ok: passed,
            complete,
            sim_digest: digest.finish(),
            policed_drops: 0,
            counts: Counts::default(),
            extra,
            run_in_ms: self.run_in_ms.clone(),
            notes,
        }
    }
}
