//! `ab_benchmark` — the repo benchmark's one command.
//!
//! ```text
//! ab_benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke] [--trace-out FILE]
//! ab_benchmark run [--seed N] [--seconds S] [--smoke] [--out FILE] [--trace-dir DIR]
//! ab_benchmark compare A.json B.json
//! ```
//!
//! The first form is what `BENCHMARK.json`'s `command` runs: one workload,
//! one pass, one process (so `peak_rss_mb` is the workload's own), the
//! result as one JSON object on the last line of standard output. `run` is
//! the whole battery: every workload, both passes, each in a child process
//! of this same binary, gathered into one table and one results file.
//! `compare` judges two results files against the regression bounds.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use ab_benchmark::compare;
use ab_benchmark::harness::{self, Measured};
use ab_benchmark::schema::{self, END_TO_END, PER_LAYER};
use ab_benchmark::stats::spread;
use ab_benchmark::workloads::{by_name, Size, WORKLOADS};
use ab_scenario::Json;

#[global_allocator]
static ALLOC: ab_benchmark::alloc::CountingAlloc = ab_benchmark::alloc::CountingAlloc;

const USAGE: &str = "usage:
  ab_benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke] [--trace-out FILE]
  ab_benchmark run [--seed N] [--seconds S] [--smoke] [--out FILE] [--trace-dir DIR]
  ab_benchmark compare A.json B.json";

/// Marks the line of a child's output that carries what the result line
/// has no key for (digest, rounds, per-round samples, notes).
const DETAIL: &str = "detail: ";

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    trace_out: Option<PathBuf>,
    out: Option<PathBuf>,
    trace_dir: Option<PathBuf>,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Args {
            seed: 1,
            ..Args::default()
        };
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => parsed.workload = Some(value()?),
                "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err("--seconds must be in (0, 600]".to_owned());
                    }
                    parsed.seconds = Some(s);
                }
                "--trace" => {
                    parsed.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    }
                }
                "--smoke" => parsed.smoke = true,
                "--trace-out" => parsed.trace_out = Some(value()?.into()),
                "--out" => parsed.out = Some(value()?.into()),
                "--trace-dir" => parsed.trace_dir = Some(value()?.into()),
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(parsed)
    }

    fn size(&self) -> Size {
        if self.smoke {
            Size::Smoke
        } else {
            Size::Full
        }
    }

    /// `--seconds`, or `BENCHMARK.json`'s `run_seconds` (0.3 for `--smoke`).
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.smoke { 0.3 } else { 15.0 })
    }
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    let outcome = match argv.peek().map(String::as_str) {
        Some("run") => Args::parse(argv.skip(1)).and_then(|a| run_all(&a)),
        Some("compare") => {
            let files: Vec<String> = argv.skip(1).collect();
            match files.as_slice() {
                [a, b] => compare_files(Path::new(a), Path::new(b)),
                _ => Err("compare takes two result files".to_owned()),
            }
        }
        Some(_) => Args::parse(argv).and_then(|a| run_one(&a)),
        None => Err("nothing to do".to_owned()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            let names: Vec<&str> = WORKLOADS.iter().map(|&(name, _)| name).collect();
            eprintln!(
                "ab_benchmark: {why}\n{USAGE}\nworkloads: {}",
                names.join(" ")
            );
            ExitCode::from(2)
        }
    }
}

// ------------------------------------------------------------ one workload

fn metrics_json(measured: &Measured) -> Json {
    Json::Obj(
        measured
            .metrics
            .iter()
            .map(|&(name, value)| {
                let unit = schema::metric(name)
                    .expect("measured metrics are in the schema")
                    .unit;
                let body = Json::obj(vec![("value", Json::F64(value)), ("unit", Json::str(unit))]);
                (name.to_owned(), body)
            })
            .collect(),
    )
}

/// The contract's result object: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
fn result_json(measured: &Measured) -> Json {
    Json::obj(vec![
        ("correct", Json::Bool(measured.correct)),
        ("attempted", Json::U64(measured.attempted)),
        ("failed", Json::U64(measured.failed)),
        ("metrics", metrics_json(measured)),
    ])
}

fn detail_json(measured: &Measured) -> Json {
    Json::obj(vec![
        (
            "sim_digest",
            Json::str(format!("{:016x}", measured.sim_digest)),
        ),
        ("rounds", Json::U64(measured.rounds as u64)),
        (
            "samples",
            Json::Obj(
                measured
                    .samples
                    .iter()
                    .map(|(name, values)| {
                        (
                            (*name).to_owned(),
                            Json::Arr(values.iter().map(|&v| Json::F64(v)).collect()),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "spreads",
            Json::Obj(
                measured
                    .spreads
                    .iter()
                    .map(|&(name, share)| (name.to_owned(), Json::F64(share)))
                    .collect(),
            ),
        ),
        (
            "notes",
            Json::Arr(measured.notes.iter().map(Json::str).collect()),
        ),
    ])
}

/// The contract form: one workload, one pass, result on the last line.
fn run_one(args: &Args) -> Result<bool, String> {
    let name = args.workload.as_deref().ok_or("--workload is required")?;
    let workload =
        by_name(name, args.seed, args.size()).ok_or(format!("no workload called {name}"))?;
    let seconds = args.seconds();
    println!(
        "# ab_benchmark workload={name} seed={} seconds={seconds} trace={} size={:?}",
        args.seed,
        args.trace as u8,
        args.size()
    );
    let measured = if args.trace {
        harness::per_layer(
            workload.as_ref(),
            args.seed,
            seconds,
            args.size(),
            args.trace_out.as_deref(),
        )
    } else {
        harness::end_to_end(workload.as_ref(), seconds)
    };
    for &(metric, value) in &measured.metrics {
        let unit = schema::metric(metric)
            .expect("measured metrics are in the schema")
            .unit;
        println!("{metric:<40} {:>18} {unit}", six_digits(value));
    }
    println!(
        "sim_digest {:016x}  rounds {}  ops {}  ops_failed {}",
        measured.sim_digest, measured.rounds, measured.attempted, measured.failed
    );
    for (samples, values) in &measured.samples {
        println!(
            "{samples}: {} samples, quartiles {:.2}% of the median apart",
            values.len(),
            spread(values) * 100.0
        );
    }
    for (metric, share) in &measured.spreads {
        println!(
            "{metric}: odd and even rounds give values {:.2}% apart",
            share * 100.0
        );
    }
    for note in &measured.notes {
        println!("note: {note}");
    }
    println!("{DETAIL}{}", detail_json(&measured).render());
    println!("{}", result_json(&measured).render());
    Ok(measured.correct)
}

// ------------------------------------------------------------- the battery

/// Run one pass of one workload in a child process; its result object with
/// the detail line's members merged in.
fn child(args: &Args, workload: &str, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds().to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    if let (true, Some(dir)) = (trace, &args.trace_dir) {
        cmd.arg("--trace-out")
            .arg(dir.join(format!("{workload}.trace.json")));
    }
    // `output` waits for the child, so none outlives this process.
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start the {workload} child: {e}"))?;
    // A child that printed its result may still have exited non-zero (its
    // outputs were wrong); one that printed none has crashed.
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let parsed = (|| {
        let result = Json::parse(lines.next()?).ok()?;
        let detail = Json::parse(lines.next()?.strip_prefix(DETAIL)?).ok()?;
        match (result, detail) {
            (Json::Obj(mut members), Json::Obj(detail)) => {
                members.extend(detail);
                Some(Json::Obj(members))
            }
            _ => None,
        }
    })();
    parsed.ok_or_else(|| {
        format!(
            "the {workload} child (trace {}) printed no result and exited with {}:\n{}",
            trace as u8,
            output.status,
            String::from_utf8_lossy(&output.stderr)
        )
    })
}

fn value_of(pass: &Json, metric: &str) -> f64 {
    compare::value_of(pass, metric).unwrap_or(f64::NAN)
}

fn notes_of(pass: &Json) -> Vec<String> {
    match pass.get("notes") {
        Some(Json::Arr(items)) => items
            .iter()
            .filter_map(|n| match n {
                Json::Str(s) => Some(s.clone()),
                _ => None,
            })
            .collect(),
        _ => Vec::new(),
    }
}

fn digest_of(pass: &Json) -> &str {
    match pass.get("sim_digest") {
        Some(Json::Str(s)) => s,
        _ => "?",
    }
}

/// `v` to six significant digits, without an exponent.
fn six_digits(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return format!("{v}");
    }
    let before_point = v.abs().log10().floor() as i32 + 1;
    format!("{v:.*}", (6 - before_point).max(0) as usize)
}

/// The whole battery, printed and (with `--out`) written down.
fn run_all(args: &Args) -> Result<bool, String> {
    if let Some(dir) = &args.trace_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    println!(
        "# ab_benchmark run seed={} seconds={} size={:?} nproc={nproc} (single-threaded; one process per pass)",
        args.seed,
        args.seconds(),
        args.size()
    );
    let mut all_correct = true;
    let mut sections = Vec::new();
    for (name, _) in WORKLOADS {
        let end_to_end = child(args, name, false)?;
        let per_layer = child(args, name, true)?;
        for (label, pass) in [("end-to-end", &end_to_end), ("per-layer", &per_layer)] {
            if pass.get("correct") != Some(&Json::Bool(true)) {
                all_correct = false;
                println!("{name}: the {label} pass is NOT correct");
            }
            for note in notes_of(pass) {
                println!("{name}: {note}");
            }
        }
        if digest_of(&end_to_end) != digest_of(&per_layer) {
            all_correct = false;
            println!("{name}: the traced pass's sim_digest differs from the timed pass's");
        }
        println!("{name}: done, sim_digest {}", digest_of(&end_to_end));
        sections.push((name, end_to_end, per_layer));
    }

    let header = |title: &str| {
        println!("\n== {title}");
        print!("{:<44}", "metric [unit]");
        for (name, _, _) in &sections {
            print!(" {name:>14}");
        }
        println!();
    };
    let row = |label: String, values: &[f64]| {
        print!("{label:<44}");
        for &v in values {
            print!(" {:>14}", six_digits(v));
        }
        println!();
    };

    header("end to end (tracing off; README says what each time is)");
    for m in &END_TO_END {
        let values: Vec<f64> = sections
            .iter()
            .map(|(_, e2e, _)| value_of(e2e, m.name))
            .collect();
        row(format!("{} [{}]", m.name, m.unit), &values);
    }
    for key in ["attempted", "failed"] {
        let values: Vec<f64> = sections
            .iter()
            .map(|(_, e2e, _)| e2e.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN))
            .collect();
        row(format!("operations {key} [count]"), &values);
    }

    header("per layer, from the fastest traced round (rows that are 0 everywhere are left out)");
    let kernel_from = PER_LAYER
        .iter()
        .position(|m| m.name == "ether.parse_ns")
        .expect("kernel rows exist");
    for m in &PER_LAYER[..kernel_from] {
        let values: Vec<f64> = sections
            .iter()
            .map(|(_, _, layers)| value_of(layers, m.name))
            .collect();
        if values.iter().any(|&v| v != 0.0) {
            row(format!("{} [{}]", m.name, m.unit), &values);
        }
    }

    println!(
        "\n== kernel suite (median of the seven processes that ran it, and how far apart their quartiles are)"
    );
    for m in &PER_LAYER[kernel_from..] {
        let values: Vec<f64> = sections
            .iter()
            .map(|(_, _, layers)| value_of(layers, m.name))
            .collect();
        println!(
            "{:<44} {:>14}   ±{:.1}%",
            format!("{} [{}]", m.name, m.unit),
            six_digits(ab_benchmark::stats::median(&values)),
            spread(&values) * 100.0
        );
    }

    if let Some(path) = &args.out {
        let doc = Json::obj(vec![
            ("schema", Json::str("ab_benchmark/1")),
            ("seed", Json::U64(args.seed)),
            ("seconds", Json::F64(args.seconds())),
            (
                "size",
                Json::str(format!("{:?}", args.size()).to_lowercase()),
            ),
            ("nproc", Json::U64(nproc)),
            (
                "workloads",
                Json::Arr(
                    sections
                        .into_iter()
                        .map(|(name, end_to_end, per_layer)| {
                            Json::obj(vec![
                                ("name", Json::str(name)),
                                ("end_to_end", end_to_end),
                                ("per_layer", per_layer),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        std::fs::write(path, doc.render_pretty())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("\nwrote {}", path.display());
    }
    println!(
        "\n{}",
        if all_correct {
            "all outputs correct"
        } else {
            "SOME OUTPUTS WERE WRONG"
        }
    );
    Ok(all_correct)
}

// ----------------------------------------------------------------- compare

fn compare_files(a: &Path, b: &Path) -> Result<bool, String> {
    let load = |path: &Path| {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let comparison = compare::compare(&load(a)?, &load(b)?)?;
    print!("{}", compare::render(&comparison));
    Ok(!comparison.regressed())
}
