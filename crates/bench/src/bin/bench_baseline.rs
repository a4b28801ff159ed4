//! `bench_baseline` — measure the frame plane and the multi-core
//! execution plane, and emit a fresh `BENCH_PR5.json`-shaped document.
//!
//! Two instrument sets:
//!
//! 1. **Per-case measurements** (serial, so the counting allocator's
//!    totals attribute exactly): four workloads × two topology sizes —
//!    broadcast, ttcp, pings, and the new ≥ 1024-host `metro` tier.
//! 2. **The scaling sweep**: the committed scenario sweep submitted
//!    through the `ab_scenario::exec` worker pool at 1, 2 and 4 jobs
//!    (clamped by `--jobs`), timing every job and the whole batch, and
//!    verifying the three reports render **byte-identically** — the
//!    determinism contract of the parallel execution plane.
//!
//! ```sh
//! cargo run --release -p ab_bench --bin bench_baseline -- [--smoke] \
//!     [--jobs N] [--out BENCH_PR5.fresh.json] [--assert-alloc-o1] \
//!     [--assert-ttcp-allocs 0.5] [--assert-vs-pr4 0.10] \
//!     [--assert-probe-overhead 0.02] [--assert-scaling 1.8]
//! ```
//!
//! * `--smoke` — CI-sized runs (a few seconds total);
//! * `--jobs N` — worker-thread budget for the scaling sweep (default:
//!   available parallelism; `1` keeps the whole binary single-threaded);
//! * `--out` — output path (default `BENCH_PR5.fresh.json`: the committed
//!   `BENCH_PR5.json` is the recording the baseline sections and the
//!   vs-PR4 / probe-overhead gates are read from at build time, so a
//!   run only replaces it when asked to by name);
//! * `--assert-alloc-o1` — exit nonzero unless allocations per delivered
//!   frame stay O(1) in listener count (large broadcast must not
//!   allocate more per frame than small broadcast, within tolerance);
//! * `--assert-ttcp-allocs N` — exit nonzero if ttcp/large steady-state
//!   allocations per delivered frame exceed `N` (the metro tier is held
//!   to the same budget);
//! * `--assert-vs-pr4 TOL` — exit nonzero if any case's throughput,
//!   *normalized to the broadcast/large anchor of the same run*,
//!   regressed more than `TOL` versus the recorded PR 4 baseline
//!   (anchor normalization cancels machine speed);
//! * `--assert-probe-overhead TOL` — exit nonzero if any case's
//!   ns-per-frame, normalized to the same anchor, grew more than `TOL`
//!   versus the recorded **PR 5** baseline — the last recording taken
//!   before the flight-recorder hooks existed. These runs keep the
//!   probe disarmed, so the gate bounds the *disarmed* per-hook cost
//!   (one predictable branch each) to the noise floor;
//! * `--assert-scaling EFF` — exit nonzero if the 4-job sweep speedup
//!   falls below `EFF` — enforced only when the machine actually has
//!   ≥ 4 hardware threads (reported as `host_parallelism` either way).
//!   The byte-identity of the 1/2/4-job reports is asserted
//!   unconditionally whenever more than one job count runs.
//!
//! Every gate reads the **numeric** fields of the emitted JSON document
//! (`*_num`, `scaling.*`), not the display strings: the artifact is the
//! source of truth, and what CI checks is exactly what it uploads.

use std::time::Instant;

use ab_bench::allocs::{self, CountingAlloc};
use ab_bench::baseline::{self, case_json, run_case, CaseResult, CASES};
use ab_scenario::sweep::SweepSpec;
use ab_scenario::{runner, Json};
use netsim::World;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations-per-frame headroom allowed between the small and large
/// broadcast topologies before the O(1) assertion fails, plus a small
/// absolute floor so a handful of constant allocations never trips the
/// ratio test. The floor sits far below one allocation per delivered
/// frame, so a regression to per-listener copying (≥ 1.0 allocs/frame,
/// as the pre-refactor plane measured) fails the gate outright.
const ALLOC_O1_RATIO: f64 = 1.5;
const ALLOC_O1_FLOOR: f64 = 0.1;

/// The case whose throughput serves as the machine-speed anchor for the
/// normalized PR 4 comparison.
const ANCHOR: &str = "broadcast/large";

/// The seed of the committed sweep the scaling section runs (the same
/// sweep CI renders and diffs via `examples/scenario_sweep.rs`).
const SWEEP_SEED: u64 = 42;

struct Args {
    smoke: bool,
    jobs: usize,
    out: String,
    assert_o1: bool,
    assert_ttcp_allocs: Option<f64>,
    assert_vs_pr4: Option<f64>,
    assert_probe_overhead: Option<f64>,
    assert_scaling: Option<f64>,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        smoke: false,
        jobs: ab_scenario::default_jobs(),
        out: String::from("BENCH_PR5.fresh.json"),
        assert_o1: false,
        assert_ttcp_allocs: None,
        assert_vs_pr4: None,
        assert_probe_overhead: None,
        assert_scaling: None,
    };
    let mut args = std::env::args().skip(1);
    let num = |args: &mut dyn Iterator<Item = String>, flag: &str| -> f64 {
        args.next()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("{flag} needs a number"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => parsed.smoke = true,
            "--jobs" => {
                let v = args.next().expect("--jobs needs a count");
                parsed.jobs = ab_scenario::parse_jobs(&v)
                    .unwrap_or_else(|| panic!("--jobs needs a positive integer or 'auto'"));
            }
            "--assert-alloc-o1" => parsed.assert_o1 = true,
            "--assert-ttcp-allocs" => {
                parsed.assert_ttcp_allocs = Some(num(&mut args, "--assert-ttcp-allocs"))
            }
            "--assert-vs-pr4" => parsed.assert_vs_pr4 = Some(num(&mut args, "--assert-vs-pr4")),
            "--assert-probe-overhead" => {
                parsed.assert_probe_overhead = Some(num(&mut args, "--assert-probe-overhead"))
            }
            "--assert-scaling" => parsed.assert_scaling = Some(num(&mut args, "--assert-scaling")),
            "--out" => parsed.out = args.next().expect("--out needs a path"),
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    parsed
}

/// One timed sweep pass: per-scenario wall times (measured inside the
/// worker that ran the scenario), the whole batch's wall time, and the
/// report bytes for the identity check.
struct SweepPass {
    jobs: usize,
    wall_ns: u64,
    cases: Vec<(String, u64)>,
    report: String,
}

fn run_sweep_pass(spec: &SweepSpec, jobs: usize) -> SweepPass {
    let scenarios = spec.scenarios();
    let started = Instant::now();
    let results = ab_scenario::run_jobs_local(
        scenarios,
        jobs,
        || World::new(0),
        |world, sc| {
            let t = Instant::now();
            let report = runner::run_in(world, &sc);
            (sc.name, t.elapsed().as_nanos() as u64, report)
        },
    );
    let wall_ns = started.elapsed().as_nanos() as u64;
    let mut cases = Vec::with_capacity(results.len());
    let mut runs = Vec::with_capacity(results.len());
    for (name, ns, report) in results {
        cases.push((name, ns));
        runs.push(report);
    }
    let report = ab_scenario::SweepReport { runs }.to_json().render();
    SweepPass {
        jobs,
        wall_ns,
        cases,
        report,
    }
}

/// The job counts the scaling table covers: 1, 2 and 4, clamped to the
/// `--jobs` budget (plus the budget itself when it exceeds 4).
fn scaling_job_counts(budget: usize) -> Vec<usize> {
    let mut counts: Vec<usize> = [1usize, 2, 4, budget]
        .into_iter()
        .filter(|&j| j <= budget.max(1))
        .collect();
    counts.sort_unstable();
    counts.dedup();
    counts
}

fn main() {
    let args = parse_args();
    let counting = allocs::counting_enabled();
    assert!(
        counting,
        "counting allocator must be installed in this binary"
    );
    let host_parallelism = ab_scenario::default_jobs();

    println!(
        "# bench_baseline mode={} alloc_counting={} jobs={} host_parallelism={}",
        if args.smoke { "smoke" } else { "full" },
        counting,
        args.jobs,
        host_parallelism,
    );
    println!(
        "# {:<18} {:>12} {:>12} {:>12} {:>14} {:>12}",
        "case", "delivered", "wall_ms", "kframes/s", "ns/frame", "allocs/frame"
    );

    // ------------------------------------------------ per-case measures
    // Serial on purpose: the counting allocator is global, so only a
    // sequential run attributes each case's allocations exactly. The
    // pool-submitted work is the scaling sweep below.
    let mut results: Vec<CaseResult> = Vec::new();
    for (kind, size) in CASES {
        let c = run_case(kind, size, args.smoke);
        println!(
            "  {:<18} {:>12} {:>12.1} {:>12.1} {:>14.1} {:>12.3}",
            c.name,
            c.frames_delivered,
            c.wall_ns as f64 / 1e6,
            c.frames_per_sec / 1e3,
            c.ns_per_frame,
            c.allocs_per_frame,
        );
        assert!(c.completed, "workload did not complete: {}", c.name);
        results.push(c);
    }

    // Improvement ratios against the PR 4 committed baseline.
    let recorded = baseline::recorded();
    let mut improvements: Vec<(String, Json)> = Vec::new();
    for c in &results {
        if let Some(pr4) = recorded.pr4.case(&c.name) {
            if pr4.frames_per_sec > 0.0 {
                let speedup = c.frames_per_sec / pr4.frames_per_sec;
                println!(
                    "  {:<18} vs PR4 {:.2}x (pr4 {:.1} kframes/s, allocs/frame {:.3} -> {:.3})",
                    c.name,
                    speedup,
                    pr4.frames_per_sec / 1e3,
                    pr4.allocs_per_frame,
                    c.allocs_per_frame,
                );
                improvements.push((
                    c.name.clone(),
                    Json::obj(vec![
                        (
                            "frames_per_sec_ratio",
                            Json::F64((speedup * 100.0).round() / 100.0),
                        ),
                        ("ns_per_frame_before", Json::F64(pr4.ns_per_frame)),
                        (
                            "ns_per_frame_after",
                            Json::F64((c.ns_per_frame * 100.0).round() / 100.0),
                        ),
                        ("allocs_per_frame_before", Json::F64(pr4.allocs_per_frame)),
                        (
                            "allocs_per_frame_after",
                            Json::F64((c.allocs_per_frame * 1000.0).round() / 1000.0),
                        ),
                    ]),
                ));
            }
        }
    }

    // ------------------------------------------------ the scaling sweep
    let spec = SweepSpec::default_sweep(SWEEP_SEED);
    let job_counts = scaling_job_counts(args.jobs);
    let mut passes: Vec<SweepPass> = Vec::new();
    for &jobs in &job_counts {
        let pass = run_sweep_pass(&spec, jobs);
        println!(
            "# sweep jobs={:<2} wall {:>8.1} ms  ({} scenarios)",
            pass.jobs,
            pass.wall_ns as f64 / 1e6,
            pass.cases.len(),
        );
        passes.push(pass);
    }
    let reports_identical = passes.iter().all(|p| p.report == passes[0].report);
    let wall_at =
        |jobs: usize| -> Option<u64> { passes.iter().find(|p| p.jobs == jobs).map(|p| p.wall_ns) };
    let speedup_vs_serial = |jobs: usize| -> Option<f64> {
        match (wall_at(1), wall_at(jobs)) {
            (Some(t1), Some(tj)) if tj > 0 => Some(t1 as f64 / tj as f64),
            _ => None,
        }
    };
    let speedup_2 = speedup_vs_serial(2);
    let speedup_4 = speedup_vs_serial(4);
    println!(
        "# scaling: reports_identical={} speedup 2j={} 4j={}",
        reports_identical,
        speedup_2.map_or("n/a".into(), |s| format!("{s:.2}x")),
        speedup_4.map_or("n/a".into(), |s| format!("{s:.2}x")),
    );

    let scaling_json = Json::obj(vec![
        ("sweep_seed", Json::U64(SWEEP_SEED)),
        (
            "scenarios",
            Json::U64(passes.first().map_or(0, |p| p.cases.len() as u64)),
        ),
        ("host_parallelism", Json::U64(host_parallelism as u64)),
        ("jobs_budget", Json::U64(args.jobs as u64)),
        ("reports_identical", Json::Bool(reports_identical)),
        (
            "runs",
            Json::Arr(
                passes
                    .iter()
                    .map(|p| {
                        Json::obj(vec![
                            ("jobs", Json::U64(p.jobs as u64)),
                            ("wall_ns", Json::U64(p.wall_ns)),
                            (
                                "cases",
                                Json::Arr(
                                    p.cases
                                        .iter()
                                        .map(|(name, ns)| {
                                            Json::obj(vec![
                                                ("name", Json::str(name)),
                                                ("wall_ns", Json::U64(*ns)),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "speedup_2_jobs",
            speedup_2.map_or(Json::Null, |s| Json::F64((s * 100.0).round() / 100.0)),
        ),
        (
            "speedup_4_jobs",
            speedup_4.map_or(Json::Null, |s| Json::F64((s * 100.0).round() / 100.0)),
        ),
    ]);

    // ----------------------------------------------------- the artifact
    let doc = Json::obj(vec![
        ("schema", Json::str("ab-bench-baseline/v2")),
        ("pr", Json::U64(5)),
        ("mode", Json::str(if args.smoke { "smoke" } else { "full" })),
        ("alloc_counting", Json::Bool(counting)),
        ("host_parallelism", Json::U64(host_parallelism as u64)),
        ("cases", Json::Arr(results.iter().map(case_json).collect())),
        ("scaling", scaling_json),
        ("pr5_baseline", baseline_json(&recorded.pr5)),
        ("pr4_baseline", baseline_json(&recorded.pr4)),
        ("pr3_baseline", baseline_json(&recorded.pr3)),
        ("pre_refactor", baseline_json(&recorded.pre_refactor)),
        ("improvement_vs_pr4", Json::Obj(improvements)),
    ]);

    std::fs::write(&args.out, doc.render_pretty() + "\n").expect("write baseline JSON");
    println!("# wrote {}", args.out);

    // ------------------------------------------------------------ gates
    // Every gate below reads the emitted document's numeric fields: the
    // artifact is the source of truth, and what CI asserts is exactly
    // what it uploads.
    let mut failed = false;

    let doc_case = |name: &str| -> Option<&Json> {
        let Some(Json::Arr(cases)) = doc.get("cases") else {
            return None;
        };
        cases.iter().find(|c| {
            c.get("name")
                .map(|n| n == &Json::str(name))
                .unwrap_or(false)
        })
    };
    let case_num = |name: &str, field: &str| -> Option<f64> {
        doc_case(name)
            .and_then(|c| c.get(field))
            .and_then(Json::as_f64)
    };

    if args.assert_o1 {
        match (
            case_num("broadcast/small", "allocs_per_frame_num"),
            case_num("broadcast/large", "allocs_per_frame_num"),
        ) {
            (Some(s), Some(l)) => {
                let ok = l <= (s * ALLOC_O1_RATIO).max(ALLOC_O1_FLOOR);
                println!(
                    "# alloc O(1) in listeners: small {s:.3}/frame, large {l:.3}/frame -> {}",
                    if ok { "OK" } else { "VIOLATED" }
                );
                if !ok {
                    eprintln!(
                        "allocations per delivered frame grew with listener count: \
                         {s:.3} -> {l:.3} (limit {ALLOC_O1_RATIO}x over a floor of {ALLOC_O1_FLOOR})"
                    );
                    failed = true;
                }
            }
            _ => {
                eprintln!("broadcast cases missing numeric fields; cannot assert alloc O(1)");
                failed = true;
            }
        }
    }

    if let Some(max) = args.assert_ttcp_allocs {
        // The metro tier is held to the same steady-state budget as the
        // ttcp path (the PR 5 acceptance bar).
        for name in ["ttcp/large", "metro/large"] {
            match case_num(name, "allocs_per_frame_num") {
                Some(a) if a <= max => {}
                Some(a) => {
                    eprintln!(
                        "{name} steady-state allocations per frame {a:.3} exceed the limit {max}"
                    );
                    failed = true;
                }
                None => {
                    eprintln!("{name} case missing; cannot assert its alloc budget");
                    failed = true;
                }
            }
        }
    }

    if let Some(tol) = args.assert_vs_pr4 {
        match (
            case_num(ANCHOR, "frames_per_sec_num"),
            recorded.pr4.case(ANCHOR),
        ) {
            (Some(anchor_now), Some(anchor_pr4)) => {
                for c in &results {
                    let Some(pr4) = recorded.pr4.case(&c.name) else {
                        continue;
                    };
                    let Some(now) = case_num(&c.name, "frames_per_sec_num") else {
                        continue;
                    };
                    let now_rel = now / anchor_now;
                    let pr4_rel = pr4.frames_per_sec / anchor_pr4.frames_per_sec;
                    let ratio = now_rel / pr4_rel;
                    let ok = ratio >= 1.0 - tol;
                    println!(
                        "# vs PR4 (normalized to {ANCHOR}): {:<18} {:.2}x -> {}",
                        c.name,
                        ratio,
                        if ok { "OK" } else { "REGRESSED" }
                    );
                    if !ok {
                        eprintln!(
                            "throughput regressed >{:.0}% vs the PR4 baseline (normalized): \
                             {} ratio {:.2}",
                            tol * 100.0,
                            c.name,
                            ratio
                        );
                        failed = true;
                    }
                }
            }
            _ => {
                eprintln!("anchor case missing; cannot assert the PR4 comparison");
                failed = true;
            }
        }
    }

    if let Some(tol) = args.assert_probe_overhead {
        // Same anchor normalization as the PR 4 gate, but against the
        // PR 5 recording (the last one with no probe hooks compiled in)
        // and on ns-per-frame: every case's anchor-relative cost per
        // delivered frame must stay within `tol` of what it was before
        // the flight recorder existed. The probe is disarmed throughout
        // these runs, so this bounds the disarmed hook cost.
        match (
            case_num(ANCHOR, "ns_per_frame_num"),
            recorded.pr5.case(ANCHOR),
        ) {
            (Some(anchor_now), Some(anchor_pr5)) if anchor_now > 0.0 => {
                for c in &results {
                    let Some(pr5) = recorded.pr5.case(&c.name) else {
                        continue;
                    };
                    let Some(now) = case_num(&c.name, "ns_per_frame_num") else {
                        continue;
                    };
                    let now_rel = now / anchor_now;
                    let pr5_rel = pr5.ns_per_frame / anchor_pr5.ns_per_frame;
                    let ratio = now_rel / pr5_rel;
                    let ok = ratio <= 1.0 + tol;
                    println!(
                        "# probe overhead (disarmed, vs PR5, normalized to {ANCHOR}): \
                         {:<18} {:.3}x -> {}",
                        c.name,
                        ratio,
                        if ok { "OK" } else { "EXCEEDED" }
                    );
                    if !ok {
                        eprintln!(
                            "disarmed probe overhead exceeds {:.1}%: {} ns/frame ratio {:.3} \
                             vs the PR5 (pre-probe) baseline",
                            tol * 100.0,
                            c.name,
                            ratio
                        );
                        failed = true;
                    }
                }
            }
            _ => {
                eprintln!("anchor case missing; cannot assert the probe-overhead bound");
                failed = true;
            }
        }
    }

    // Byte-identity across job counts is a hard correctness property,
    // asserted whenever more than one pass ran (no flag needed).
    let identical =
        doc.get("scaling").and_then(|s| s.get("reports_identical")) == Some(&Json::Bool(true));
    if job_counts.len() > 1 && !identical {
        eprintln!("parallel sweep reports are NOT byte-identical across job counts");
        failed = true;
    }
    if let Some(eff) = args.assert_scaling {
        let speedup = doc
            .get("scaling")
            .and_then(|s| s.get("speedup_4_jobs"))
            .and_then(Json::as_f64);
        match speedup {
            _ if host_parallelism < 4 => {
                println!(
                    "# scaling gate skipped: host has {host_parallelism} hardware threads (< 4); \
                     speedup measured {}",
                    speedup.map_or("n/a".into(), |s| format!("{s:.2}x"))
                );
            }
            Some(s) if s >= eff => {
                println!("# scaling gate: {s:.2}x >= {eff:.2}x at 4 jobs -> OK");
            }
            Some(s) => {
                eprintln!("sweep speedup at 4 jobs is {s:.2}x, below the {eff:.2}x gate");
                failed = true;
            }
            None => {
                eprintln!(
                    "no 4-job pass ran (jobs budget {}); cannot assert scaling",
                    args.jobs
                );
                failed = true;
            }
        }
    }

    if failed {
        std::process::exit(1);
    }
}

/// Re-emit one recorded baseline as a section of the artifact.
fn baseline_json(b: &baseline::Baseline) -> Json {
    let cases = b
        .cases
        .iter()
        .map(|p| {
            Json::obj(vec![
                ("name", Json::str(&p.name)),
                ("frames_delivered", Json::U64(p.frames_delivered)),
                (
                    "frames_per_sec",
                    Json::str(format!("{:.2}", p.frames_per_sec)),
                ),
                ("frames_per_sec_num", Json::F64(p.frames_per_sec)),
                ("ns_per_frame", Json::str(format!("{:.2}", p.ns_per_frame))),
                ("ns_per_frame_num", Json::F64(p.ns_per_frame)),
                (
                    "allocs_per_frame",
                    Json::str(format!("{:.3}", p.allocs_per_frame)),
                ),
                ("allocs_per_frame_num", Json::F64(p.allocs_per_frame)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("provenance", Json::str(&b.provenance)),
        ("cases", Json::Arr(cases)),
    ])
}
