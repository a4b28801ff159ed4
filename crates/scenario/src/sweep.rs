//! Sweeps: run a battery of scenarios across many shapes and seeds and
//! aggregate the verdicts into one report with a summary score — the
//! `netmeasure2`-style "battery of experiments, machine-readable results,
//! one number at the end".

use netsim::World;

use crate::exec;
use crate::json::{JsonText, Writer};
use crate::quality::score_report;
use crate::runner::{self, Report, Scenario};
use crate::topo::TopologyShape;
use crate::workload::BatteryKind;

/// A sweep: the cartesian product of shapes × batteries, seeded.
#[derive(Clone, Debug)]
pub struct SweepSpec {
    /// Shapes to cover.
    pub shapes: Vec<TopologyShape>,
    /// Batteries to run on each shape.
    pub batteries: Vec<BatteryKind>,
    /// Base seed; run `i` uses `seed + i`.
    pub seed: u64,
}

impl SweepSpec {
    /// The default sweep: seven shapes (line, ring, star, tree, full
    /// mesh, random redundant graph, small metro) × five batteries,
    /// small enough to run in tests and CI — and the committed job set
    /// the parallel execution plane is benchmarked and gated on.
    pub fn default_sweep(seed: u64) -> SweepSpec {
        SweepSpec {
            shapes: vec![
                TopologyShape::Line { bridges: 2 },
                TopologyShape::Ring { bridges: 3 },
                TopologyShape::Star { arms: 3 },
                TopologyShape::Tree {
                    depth: 2,
                    fanout: 2,
                },
                TopologyShape::FullMesh { segments: 3 },
                TopologyShape::Random {
                    segments: 4,
                    extra_links: 1,
                },
                TopologyShape::metro_small(),
            ],
            batteries: vec![
                BatteryKind::Pings,
                BatteryKind::Streams,
                BatteryKind::Uploads,
                BatteryKind::Metro,
                BatteryKind::Contention,
            ],
            seed,
        }
    }

    /// A gate sweep: one learning-only and one spanning-tree shape × a
    /// single plane battery — what CI renders at several worker counts,
    /// byte-compares and holds to that plane's invariants. Kept out of
    /// [`default_sweep`](Self::default_sweep) so the committed
    /// quality-gate job set (and its scores) is unchanged.
    fn gate_sweep(battery: BatteryKind, seed: u64) -> SweepSpec {
        SweepSpec {
            shapes: vec![
                TopologyShape::Line { bridges: 2 },
                TopologyShape::Ring { bridges: 3 },
            ],
            batteries: vec![battery],
            seed,
        }
    }

    /// The chaos sweep: the robustness gate (partition, flap storm,
    /// crash cycles, watchdog quarantine) on the two gate shapes.
    pub fn chaos_sweep(seed: u64) -> SweepSpec {
        Self::gate_sweep(BatteryKind::Chaos, seed)
    }

    /// The lossy sweep: the hostile-media gate, held to the four
    /// resilience invariants, on the same two shapes as the chaos sweep.
    pub fn lossy_sweep(seed: u64) -> SweepSpec {
        Self::gate_sweep(BatteryKind::Lossy, seed)
    }

    /// The adversarial sweep: the same two shapes as the chaos sweep ×
    /// the adversarial battery, each cell run as an A/B pair — an
    /// undefended control arm proving the attacks bite, and a defended
    /// arm (bounded learning, storm policing, BPDU guard) proving the
    /// victims survive them.
    pub fn adversarial_sweep(seed: u64) -> SweepSpec {
        Self::gate_sweep(BatteryKind::Adversarial, seed)
    }

    /// The scenarios this sweep runs, in order. Every
    /// [`BatteryKind::Adversarial`] cell runs **twice** on the same seed:
    /// once as scheduled (the undefended control arm) and once with
    /// `Scenario::defended` set (name suffixed `-defended`).
    pub fn scenarios(&self) -> Vec<Scenario> {
        let mut out = Vec::new();
        for (i, &shape) in self.shapes.iter().enumerate() {
            for (j, &battery) in self.batteries.iter().enumerate() {
                let sc = Scenario::new(
                    shape,
                    battery,
                    self.seed + (i * self.batteries.len() + j) as u64,
                );
                if battery == BatteryKind::Adversarial {
                    // Same seed on purpose: both arms replay the exact
                    // same offense, so any difference is the defenses.
                    let mut defended = sc.clone();
                    defended.defended = true;
                    defended.name = format!("{}-defended", sc.name);
                    out.push(sc);
                    out.push(defended);
                } else {
                    out.push(sc);
                }
            }
        }
        out
    }
}

/// Every scenario's report plus the aggregate verdict.
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// Per-scenario reports, in sweep order.
    pub runs: Vec<Report>,
}

impl SweepReport {
    /// Did every run pass every invariant?
    pub fn passed(&self) -> bool {
        self.runs.iter().all(Report::passed)
    }

    /// `(passed, failed, waived)` invariant counts across all runs.
    pub fn verdict_counts(&self) -> (u64, u64, u64) {
        self.runs.iter().fold((0, 0, 0), |acc, r| {
            let (p, f, w) = r.verdict_counts();
            (acc.0 + p, acc.1 + f, acc.2 + w)
        })
    }

    /// The whole sweep as one JSON document.
    pub fn to_json(&self) -> JsonText {
        JsonText::write(|w| self.write_json(w))
    }

    /// Write the whole sweep as one JSON object: every run, then the
    /// summary. Each run is scored once, for its own `quality` section
    /// and for the summary's.
    pub fn write_json(&self, w: &mut Writer) {
        // Quality aggregation: the floor mean and minimum of every
        // scored scenario's overall quality.
        let (mut scored, mut sum, mut min) = (0u64, 0u64, None::<u64>);
        w.obj(|w| {
            w.key("runs").arr(|w| {
                for run in &self.runs {
                    let quality = score_report(run);
                    if let Some(overall) = quality.overall {
                        scored += 1;
                        sum += overall;
                        min = Some(min.map_or(overall, |m| m.min(overall)));
                    }
                    run.write_scored(w, &quality);
                }
            });
            let (passed, failed, waived) = self.verdict_counts();
            w.key("summary").obj(|w| {
                w.key("scenarios").u64(self.runs.len() as u64);
                w.key("scenarios_passed")
                    .u64(self.runs.iter().filter(|r| r.passed()).count() as u64);
                w.key("invariants_passed").u64(passed);
                w.key("invariants_failed").u64(failed);
                w.key("invariants_waived").u64(waived);
                // `None` — not a perfect 100 — when every judged
                // invariant was waived (see `Report::write_json`).
                w.key("score_percent")
                    .opt_u64((passed * 100).checked_div(passed + failed));
                w.key("pass").bool(self.passed());
                w.key("quality").obj(|w| {
                    w.key("scenarios_scored").u64(scored);
                    w.key("mean").opt_u64(sum.checked_div(scored));
                    w.key("min").opt_u64(min);
                });
            });
        });
    }
}

/// Run the sweep across up to `jobs` worker threads. Each worker owns
/// one reusable [`World`] (reset per scenario, so consecutive runs
/// amortize its allocations) and each scenario is constructed, run and
/// scored entirely inside one worker; the per-scenario reports are
/// merged in sweep order. The report — and its JSON rendering — is
/// **byte-identical** for every `jobs` value.
pub fn run_sweep_jobs(spec: &SweepSpec, jobs: usize) -> SweepReport {
    run_sweep_jobs_profiled(spec, jobs).0
}

/// [`run_sweep_jobs`] plus the pool's self-profile (per-job wall/queue
/// times, per-worker utilization — see [`exec::PoolProfile`]). The
/// profile is wall-clock and renders to stderr only; the sweep report
/// stays byte-identical across `jobs` values.
pub fn run_sweep_jobs_profiled(spec: &SweepSpec, jobs: usize) -> (SweepReport, exec::PoolProfile) {
    let (runs, profile) = exec::run_jobs_local_profiled(
        spec.scenarios(),
        jobs,
        || World::new(0),
        |world, sc| runner::run_in(world, &sc),
    );
    (SweepReport { runs }, profile)
}
