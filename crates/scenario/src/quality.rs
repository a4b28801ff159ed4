//! Experience-quality scoring: fold a scenario's per-flow metric
//! sketches into 0–100 subscores (latency, loss, fairness, degradation)
//! and one overall number — the `netmeasure2`-style verdict the paper's
//! "does the network still *behave well*?" question needs, beyond the
//! boolean invariants.
//!
//! Everything here is integer arithmetic over the deterministic
//! [`Sketch`](crate::sketch::Sketch) statistics, so scores are on the
//! byte-equality path: the same scenario scores identically on every
//! run and every `--jobs` value.
//!
//! A flow that measured nothing is **missing**, never zero-cost: an
//! invalid measurement scores 0 where it proves the experience was bad
//! (a ping with no replies) and is skipped where it proves nothing (a
//! baseline that never ran cannot anchor a degradation ratio).

use crate::json::{Json, Writer};
use crate::runner::{AppOutcome, AppReport, Report};
use crate::sketch::log2_fp;
use crate::workload::Phase;

/// p90 RTT at or below this scores a full 100 on latency.
const LATENCY_GOOD_NS: u64 = 500_000; // 500 us — a few bridged 100 Mb/s hops
/// p90 RTT at or above this scores 0 on latency.
const LATENCY_BAD_NS: u64 = 50_000_000; // 50 ms — interactively hopeless

/// The quality subscores of one scenario. Each is 0–100, `None` when
/// the scenario ran no flow that could measure it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QualityScore {
    /// Ping p90 RTTs, log-mapped between 500 µs (`LATENCY_GOOD_NS`) and
    /// 50 ms (`LATENCY_BAD_NS`); a ping flow with zero replies scores 0.
    pub latency: Option<u64>,
    /// Mean delivered fraction across all flows that expected delivery.
    pub loss: Option<u64>,
    /// Jain fairness index over the flows' delivery ratios (needs ≥ 2
    /// flows).
    pub fairness: Option<u64>,
    /// Baseline-vs-loaded probe comparison: how gracefully the network
    /// degraded under scripted load or faults.
    pub degradation: Option<u64>,
    /// Floor mean of the present subscores.
    pub overall: Option<u64>,
    /// Informational: frames that had to queue behind a busy medium.
    pub contended_frames: u64,
    /// Informational: the deepest transmit queue any segment reached.
    pub peak_queue: u64,
}

/// Map a p90 RTT onto 0–100, logarithmically: every doubling of RTT
/// costs the same number of points, anchored at
/// [`LATENCY_GOOD_NS`] → 100 and [`LATENCY_BAD_NS`] → 0.
fn latency_points(p90_ns: u64) -> u64 {
    let good = log2_fp(LATENCY_GOOD_NS);
    let bad = log2_fp(LATENCY_BAD_NS);
    let x = log2_fp(p90_ns).clamp(good, bad);
    (bad - x) * 100 / (bad - good)
}

/// Floor mean of a score list; `None` when empty.
fn mean(scores: &[u64]) -> Option<u64> {
    if scores.is_empty() {
        None
    } else {
        Some(scores.iter().sum::<u64>() / scores.len() as u64)
    }
}

/// Score a scenario's flows. Exposed separately from [`score_report`]
/// so tests can drive it with hand-built [`AppReport`]s.
pub fn score_apps(apps: &[AppReport]) -> QualityScore {
    // Latency: one score per ping flow. An invalid flow (no replies)
    // has no p90 and scores 0 — missing data is evidence of a bad
    // experience here, not a free pass.
    let latency_scores: Vec<u64> = apps
        .iter()
        .filter(|a| matches!(a.outcome, AppOutcome::Ping { .. }))
        .map(|a| a.metrics.p90_ns().map(latency_points).unwrap_or(0))
        .collect();

    // Loss: mean delivered fraction over every flow that expected
    // delivery (ratios above 1000 — duplicated frames — clamp to full).
    let deliveries: Vec<u64> = apps
        .iter()
        .filter_map(|a| a.metrics.delivery_pm)
        .map(|pm| pm.min(1000))
        .collect();
    let loss_scores: Vec<u64> = deliveries.iter().map(|pm| pm / 10).collect();

    // Fairness: Jain's index (Σx)² / (n·Σx²) over the delivery ratios,
    // scaled to 0–100. Needs at least two flows to mean anything; if
    // every flow delivered nothing the flows are equal and the index
    // is taken at its maximum.
    let fairness = if deliveries.len() < 2 {
        None
    } else {
        let n = deliveries.len() as u64;
        let sum: u64 = deliveries.iter().sum();
        let sumsq: u64 = deliveries.iter().map(|x| x * x).sum();
        Some(if sumsq == 0 {
            100
        } else {
            sum * sum * 100 / (n * sumsq)
        })
    };

    // Degradation: pair each baseline probe with its loaded re-run (in
    // report order) and score the pair by how much slower and lossier
    // the loaded phase was. A loaded probe that measured nothing scores
    // 0 (the network broke under load); a baseline that measured
    // nothing anchors nothing and skips the pair.
    let baselines = apps.iter().filter(|a| a.phase == Phase::Baseline);
    let loadeds = apps.iter().filter(|a| a.phase == Phase::Loaded);
    let mut degradation_scores = Vec::new();
    for (base, load) in baselines.zip(loadeds) {
        let Some(base_p90) = base.metrics.p90_ns() else {
            continue;
        };
        let Some(load_p90) = load.metrics.p90_ns() else {
            degradation_scores.push(0);
            continue;
        };
        let slowdown = (base_p90 * 100 / load_p90.max(1)).min(100);
        let delivered = load.metrics.delivery_pm.unwrap_or(0).min(1000);
        degradation_scores.push(slowdown * delivered / 1000);
    }

    let latency = mean(&latency_scores);
    let loss = mean(&loss_scores);
    let degradation = mean(&degradation_scores);
    let present: Vec<u64> = [latency, loss, fairness, degradation]
        .into_iter()
        .flatten()
        .collect();
    QualityScore {
        latency,
        loss,
        fairness,
        degradation,
        overall: mean(&present),
        contended_frames: 0,
        peak_queue: 0,
    }
}

/// Score a full scenario report: the flow subscores plus the wire-level
/// contention evidence.
pub fn score_report(report: &Report) -> QualityScore {
    let mut q = score_apps(&report.apps);
    q.contended_frames = report
        .world
        .segments
        .iter()
        .map(|s| s.counters.contended)
        .sum();
    q.peak_queue = report
        .world
        .segments
        .iter()
        .map(|s| s.counters.peak_queue)
        .max()
        .unwrap_or(0);
    q
}

impl QualityScore {
    /// Write as the report's `quality` section.
    pub fn write_json(&self, w: &mut Writer) {
        w.obj(|w| {
            w.key("latency").opt_u64(self.latency);
            w.key("loss").opt_u64(self.loss);
            w.key("fairness").opt_u64(self.fairness);
            w.key("degradation").opt_u64(self.degradation);
            w.key("overall").opt_u64(self.overall);
            w.key("contended_frames").u64(self.contended_frames);
            w.key("peak_queue").u64(self.peak_queue);
        });
    }

    /// Rebuild from a report's `quality` section (the offline analyzer
    /// path). Returns `None` on structural mismatch.
    pub fn from_json(json: &Json) -> Option<QualityScore> {
        let score = |key: &str| match json.get(key) {
            Some(Json::U64(v)) => Some(Some(*v)),
            Some(Json::Null) => Some(None),
            _ => None,
        };
        let counter = |key: &str| match json.get(key) {
            Some(Json::U64(v)) => Some(*v),
            _ => None,
        };
        Some(QualityScore {
            latency: score("latency")?,
            loss: score("loss")?,
            fairness: score("fairness")?,
            degradation: score("degradation")?,
            overall: score("overall")?,
            contended_frames: counter("contended_frames")?,
            peak_queue: counter("peak_queue")?,
        })
    }
}

// ------------------------------------------------------------ scorecards

/// One scorecard cell: the number, or `-` for a missing score.
fn cell(v: Option<u64>) -> String {
    match v {
        Some(n) => n.to_string(),
        None => "-".to_owned(),
    }
}

/// Render per-scenario scorecards plus the sweep footer from a sweep
/// JSON document (what `ab_scenario analyze` prints). The footer is the
/// document's own `summary`, read back, not recomputed. Deterministic:
/// plain ASCII, fixed column layout, byte-identical for byte-identical
/// input.
pub fn sweep_scorecards(sweep: &Json) -> Result<String, String> {
    let Some(Json::Arr(runs)) = sweep.get("runs") else {
        return Err("not a sweep document: no `runs` array".to_owned());
    };
    let mut out = String::new();
    out.push_str(&format!(
        "{:<34} {:>4} {:>4} {:>4} {:>4} {:>4} {:>4} {:>4} {:>4} {:>4}\n",
        "SCENARIO", "PASS", "INV%", "LAT", "LOSS", "FAIR", "DEGR", "QUAL", "PKQ", "SEC"
    ));
    for (i, run) in runs.iter().enumerate() {
        let name = match run.get("scenario").and_then(|s| s.get("name")) {
            Some(Json::Str(n)) => n.clone(),
            _ => return Err(format!("run {i}: missing scenario.name")),
        };
        let pass = match run.get("summary").and_then(|s| s.get("pass")) {
            Some(Json::Bool(b)) => *b,
            _ => return Err(format!("run {i}: missing summary.pass")),
        };
        let inv = match run.get("summary").and_then(|s| s.get("score_percent")) {
            Some(Json::U64(v)) => Some(*v),
            Some(Json::Null) => None,
            _ => return Err(format!("run {i}: missing summary.score_percent")),
        };
        let q = run
            .get("quality")
            .and_then(QualityScore::from_json)
            .ok_or_else(|| format!("run {i}: missing or malformed quality section"))?;
        // SEC: how hard the defense plane worked — evictions plus storm
        // suppressions plus BPDU-guard trips from the run's `security`
        // section; `-` on the non-adversarial runs that carry none.
        let sec = run.get("security").map(|s| {
            ["learn_evictions", "storm_suppressions", "bpdu_guard_trips"]
                .iter()
                .map(|key| match s.get(key) {
                    Some(Json::U64(v)) => *v,
                    _ => 0,
                })
                .sum::<u64>()
        });
        out.push_str(&format!(
            "{:<34} {:>4} {:>4} {:>4} {:>4} {:>4} {:>4} {:>4} {:>4} {:>4}\n",
            name,
            if pass { "yes" } else { "NO" },
            cell(inv),
            cell(q.latency),
            cell(q.loss),
            cell(q.fairness),
            cell(q.degradation),
            cell(q.overall),
            // The deepest transmit queue any segment reached — the
            // congestion evidence behind a weak latency/degradation
            // score, surfaced next to it.
            q.peak_queue,
            cell(sec),
        ));
    }
    let summary = sweep.get("summary");
    let quality = summary.and_then(|s| s.get("quality"));
    let field = |section: Option<&Json>, key: &str| match section.and_then(|s| s.get(key)) {
        Some(Json::U64(v)) => Ok(Some(*v)),
        Some(Json::Null) => Ok(None),
        _ => Err(format!("not a sweep document: no summary `{key}`")),
    };
    out.push_str(&format!(
        "sweep: {} scenarios, {} passed | quality mean {} min {}\n",
        cell(field(summary, "scenarios")?),
        cell(field(summary, "scenarios_passed")?),
        cell(field(quality, "mean")?),
        cell(field(quality, "min")?),
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonText;
    use crate::runner::AppMetrics;
    use crate::sketch::Sketch;

    fn ping(phase: Phase, received: u64, sent: u64, rtts: &[u64]) -> AppReport {
        AppReport {
            label: "ping",
            phase,
            from_seg: 0,
            to_seg: 1,
            ok: received == sent,
            outcome: AppOutcome::Ping { sent, received },
            metrics: AppMetrics {
                valid: received > 0,
                delivery_pm: (sent > 0).then(|| received * 1000 / sent),
                sketch: Some(Sketch::from_samples(rtts.iter().copied())),
            },
        }
    }

    fn blast(delivery_pm: u64) -> AppReport {
        AppReport {
            label: "blast",
            phase: Phase::Main,
            from_seg: 0,
            to_seg: 1,
            ok: delivery_pm == 1000,
            outcome: AppOutcome::Blast {
                sent: 1000,
                received: delivery_pm,
            },
            metrics: AppMetrics::delivery(true, Some(delivery_pm)),
        }
    }

    #[test]
    fn latency_anchors_hold() {
        assert_eq!(latency_points(LATENCY_GOOD_NS), 100);
        assert_eq!(latency_points(LATENCY_GOOD_NS / 2), 100, "clamped below");
        assert_eq!(latency_points(LATENCY_BAD_NS), 0);
        assert_eq!(latency_points(LATENCY_BAD_NS * 2), 0, "clamped above");
        // The geometric midpoint (500 us · 10) lands near the middle.
        let mid = latency_points(5_000_000);
        assert!((40..=60).contains(&mid), "midpoint score was {mid}");
    }

    #[test]
    fn zero_received_ping_scores_zero_latency_not_perfect() {
        // The original bug: received == 0 rendered avg_rtt_ns: 0 and
        // would have scored as the fastest possible flow.
        let apps = [ping(Phase::Main, 0, 8, &[])];
        let q = score_apps(&apps);
        assert_eq!(q.latency, Some(0));
        assert_eq!(q.loss, Some(0));
    }

    #[test]
    fn good_pings_score_well() {
        let apps = [ping(Phase::Main, 8, 8, &[200_000, 210_000, 250_000])];
        let q = score_apps(&apps);
        assert_eq!(q.latency, Some(100));
        assert_eq!(q.loss, Some(100));
        assert_eq!(q.fairness, None, "one flow is not a fairness sample");
        assert_eq!(q.degradation, None, "no baseline/loaded pair");
        assert_eq!(q.overall, Some(100));
    }

    #[test]
    fn fairness_rewards_equal_delivery() {
        let equal = score_apps(&[blast(800), blast(800), blast(800)]);
        assert_eq!(equal.fairness, Some(100));
        let skewed = score_apps(&[blast(1000), blast(100), blast(100)]);
        assert!(
            skewed.fairness.unwrap() < 60,
            "skewed delivery must lose fairness points, got {:?}",
            skewed.fairness
        );
        let all_dead = score_apps(&[blast(0), blast(0)]);
        assert_eq!(all_dead.fairness, Some(100), "equal misery is equal");
        assert_eq!(all_dead.loss, Some(0));
    }

    #[test]
    fn degradation_compares_baseline_to_loaded() {
        // Loaded probe twice as slow with full delivery: 50 points.
        let apps = [
            ping(Phase::Baseline, 8, 8, &[1_000_000]),
            ping(Phase::Loaded, 8, 8, &[2_000_000]),
        ];
        let q = score_apps(&apps);
        assert_eq!(q.degradation, Some(50));

        // Loaded probe as fast as the baseline but half the replies.
        let apps = [
            ping(Phase::Baseline, 8, 8, &[1_000_000]),
            ping(Phase::Loaded, 4, 8, &[1_000_000]),
        ];
        assert_eq!(score_apps(&apps).degradation, Some(50));

        // Loaded probe that measured nothing: the network collapsed.
        let apps = [
            ping(Phase::Baseline, 8, 8, &[1_000_000]),
            ping(Phase::Loaded, 0, 8, &[]),
        ];
        assert_eq!(score_apps(&apps).degradation, Some(0));

        // Invalid baseline anchors nothing: the pair is skipped.
        let apps = [
            ping(Phase::Baseline, 0, 8, &[]),
            ping(Phase::Loaded, 8, 8, &[1_000_000]),
        ];
        assert_eq!(score_apps(&apps).degradation, None);
    }

    #[test]
    fn no_flows_means_no_scores() {
        let q = score_apps(&[]);
        assert_eq!(q.latency, None);
        assert_eq!(q.loss, None);
        assert_eq!(q.fairness, None);
        assert_eq!(q.degradation, None);
        assert_eq!(q.overall, None);
    }

    #[test]
    fn quality_json_round_trips() {
        let q = QualityScore {
            latency: Some(87),
            loss: Some(100),
            fairness: None,
            degradation: Some(62),
            overall: Some(83),
            contended_frames: 412,
            peak_queue: 7,
        };
        let text = JsonText::write(|w| q.write_json(w));
        assert_eq!(QualityScore::from_json(&text.tree()), Some(q));
    }

    #[test]
    fn scorecards_render_from_sweep_json() {
        let q = QualityScore {
            latency: Some(90),
            loss: Some(100),
            fairness: Some(100),
            degradation: None,
            overall: Some(96),
            contended_frames: 3,
            peak_queue: 1,
        };
        // Two runs: a plain one, and an adversarial-style one carrying a
        // security section — its SEC cell is the
        // evictions+suppressions+trips sum, while the plain run renders
        // `-`.
        let run = |w: &mut Writer, name: &str, secured: bool| {
            w.obj(|w| {
                w.key("scenario").obj(|w| {
                    w.key("name").str(name);
                });
                w.key("summary").obj(|w| {
                    w.key("pass").bool(true).key("score_percent").u64(100);
                });
                q.write_json(w.key("quality"));
                if secured {
                    w.key("security").obj(|w| {
                        w.key("defended").bool(true);
                        w.key("learn_evictions").u64(12);
                        w.key("storm_suppressions").u64(3);
                        w.key("bpdu_guard_trips").u64(1);
                    });
                }
            });
        };
        let sweep = JsonText::write(|w| {
            w.obj(|w| {
                w.key("runs").arr(|w| {
                    run(w, "line2-pings-s0", false);
                    run(w, "line2-adv-s0", true);
                });
                w.key("summary").obj(|w| {
                    w.key("scenarios").u64(2);
                    w.key("scenarios_passed").u64(2);
                    w.key("quality").obj(|w| {
                        w.key("mean").u64(96);
                        w.key("min").u64(96);
                    });
                });
            });
        })
        .tree();
        let card = sweep_scorecards(&sweep).expect("well-formed sweep");
        assert!(card.contains("line2-pings-s0"));
        assert!(card.contains("yes"));
        assert!(card.ends_with("sweep: 2 scenarios, 2 passed | quality mean 96 min 96\n"));
        let lines: Vec<&str> = card.lines().collect();
        assert!(lines[0].ends_with("SEC"), "header gains SEC: {}", lines[0]);
        assert!(
            lines[1].ends_with(" -"),
            "no security section renders `-`: {}",
            lines[1]
        );
        assert!(
            lines[2].ends_with(" 16"),
            "SEC sums the defense counters: {}",
            lines[2]
        );

        // Malformed documents are errors, not panics: no runs, or runs
        // without the summary the footer reads.
        assert!(sweep_scorecards(&Json::Obj(Vec::new())).is_err());
        let Json::Obj(mut fields) = sweep else {
            unreachable!("a sweep document is an object")
        };
        fields.retain(|(key, _)| key != "summary");
        assert!(sweep_scorecards(&Json::Obj(fields)).is_err());
    }
}
