//! `ab_scenario` — render scenario sweeps and analyze their reports
//! offline, in the spirit of `netmeasure2`'s `showbat`.
//!
//! ```sh
//! ab_scenario render --jobs 4 --seed 42 > sweep.json
//! ab_scenario render --sweep chaos > chaos.json  # robustness battery
//! ab_scenario analyze sweep.json                 # per-scenario scorecards
//! ab_scenario analyze sweep.json --assert-score 60   # CI gate
//! ab_scenario analyze chaos.json --assert-pass   # recovery-invariant gate
//! ab_scenario trace metro pings > trace.json     # flight-recorder timeline
//! ab_scenario validate-trace trace.json          # structural check (CI)
//! ab_scenario diff before.json after.json        # what moved, by name
//! ```
//!
//! `render` runs the default sweep and prints the JSON document (byte-
//! identical for every `--jobs` value; `--profile` prints the exec
//! pool's self-profile to stderr). `analyze` consumes a sweep JSON
//! — a file, or stdin with `-` — and prints one scorecard line per
//! scenario plus the sweep's overall quality score, entirely offline;
//! `--assert-score N` exits non-zero when the overall score is below
//! `N` (or missing), which is what CI gates on.
//!
//! `trace` runs **one** scenario with the flight recorder armed and
//! prints a Chrome trace-event / Perfetto-compatible timeline to stdout
//! (load it via `chrome://tracing` or Perfetto's "legacy trace" path);
//! hot-function and segment-queue summary tables go to stderr. The
//! document is deterministic: same shape/battery/seed → byte-identical
//! JSON. `validate-trace` re-parses an emitted document with the
//! in-repo JSON parser and checks the trace-event contract.
//!
//! `diff` prints one line per leaf added, removed or changed between two
//! sweep reports, as scenario → section → key, and exits 1 if there is one.

use std::io::Read as _;

use ab_scenario::quality;
use ab_scenario::runner::Scenario;
use ab_scenario::sweep::{run_sweep_jobs_profiled, SweepSpec};
use ab_scenario::topo::TopologyShape;
use ab_scenario::workload::BatteryKind;
use ab_scenario::{diff, timeline, Json};

/// A sweep constructor: the base seed in, the spec out.
type SweepCtor = fn(u64) -> SweepSpec;

/// Every sweep `render --sweep` accepts, by name — the one table the
/// resolver, the usage text and the error message all read.
const SWEEPS: [(&str, SweepCtor); 4] = [
    ("default", SweepSpec::default_sweep),
    ("chaos", SweepSpec::chaos_sweep),
    ("lossy", SweepSpec::lossy_sweep),
    ("adversarial", SweepSpec::adversarial_sweep),
];

/// Every shape `trace` accepts, by name: the default sweep's
/// parameterizations under their own labels, plus the large metro tier
/// (which the sweep reserves for benches).
fn shapes() -> Vec<(&'static str, TopologyShape)> {
    let mut shapes: Vec<_> = SweepSpec::default_sweep(0)
        .shapes
        .into_iter()
        .map(|shape| (shape.label(), shape))
        .collect();
    shapes.push(("metro_large", TopologyShape::metro_large()));
    shapes
}

/// Every battery `trace` accepts, by its own report label.
fn batteries() -> Vec<(&'static str, BatteryKind)> {
    BatteryKind::ALL.iter().map(|&b| (b.label(), b)).collect()
}

/// Look `name` up in a `(name, value)` table.
fn lookup<T: Copy>(table: &[(&str, T)], name: &str) -> Option<T> {
    table.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
}

/// A table's names joined by `sep`, for the usage text.
fn names<T>(table: &[(&str, T)], sep: &str) -> String {
    let names: Vec<&str> = table.iter().map(|(n, _)| *n).collect();
    names.join(sep)
}

fn usage() -> ! {
    eprintln!(
        "usage:\n  ab_scenario render [--jobs N] [--seed S] [--sweep {}] [--profile]\n  \
         ab_scenario analyze <sweep.json|-> [--assert-score N] [--assert-pass]\n  \
         ab_scenario trace <shape> <battery> [--seed S] [--capacity N] [--defended]\n  \
         ab_scenario validate-trace <trace.json|->\n  \
         ab_scenario diff <a.json> <b.json>\n\n\
         shapes: {}\n\
         batteries: {}",
        names(&SWEEPS, "|"),
        names(&shapes(), " "),
        names(&batteries(), " ")
    );
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("render") => render(args),
        Some("analyze") => analyze(args),
        Some("trace") => trace(args),
        Some("validate-trace") => validate_trace(args),
        Some("diff") => diff(args),
        _ => usage(),
    }
}

fn render(mut args: impl Iterator<Item = String>) {
    let mut jobs = ab_scenario::default_jobs();
    let mut seed = 42u64;
    let mut profile = false;
    let mut sweep = "default".to_owned();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--jobs" => {
                let v = args.next().unwrap_or_else(|| usage());
                jobs = ab_scenario::parse_jobs(&v).unwrap_or_else(|| usage());
            }
            "--seed" => {
                let v = args.next().unwrap_or_else(|| usage());
                seed = v.parse().unwrap_or_else(|_| usage());
            }
            "--sweep" => sweep = args.next().unwrap_or_else(|| usage()),
            "--profile" => profile = true,
            _ => usage(),
        }
    }
    let spec = lookup(&SWEEPS, &sweep).unwrap_or_else(|| {
        eprintln!(
            "unknown sweep {sweep:?} (expected one of: {})",
            names(&SWEEPS, ", ")
        );
        usage();
    });
    let (report, pool) = run_sweep_jobs_profiled(&spec(seed), jobs);
    if profile {
        eprint!("{}", pool.render());
    }
    print!("{}", report.to_json().render_pretty());
}

fn trace(mut args: impl Iterator<Item = String>) {
    let Some(shape_label) = args.next() else {
        usage()
    };
    let Some(battery_label) = args.next() else {
        usage()
    };
    let Some(shape) = lookup(&shapes(), &shape_label) else {
        eprintln!("unknown shape {shape_label:?}");
        usage();
    };
    let Some(battery) = lookup(&batteries(), &battery_label) else {
        eprintln!("unknown battery {battery_label:?}");
        usage();
    };
    let mut seed = 42u64;
    let mut probe = netsim::ProbeConfig::default();
    let mut defended = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                let v = args.next().unwrap_or_else(|| usage());
                seed = v.parse().unwrap_or_else(|_| usage());
            }
            "--capacity" => {
                let v = args.next().unwrap_or_else(|| usage());
                probe.capacity = v.parse().unwrap_or_else(|_| usage());
            }
            "--defended" => defended = true,
            _ => usage(),
        }
    }
    let mut scenario = Scenario::new(shape, battery, seed);
    scenario.defended = defended;
    let (report, digest, world) = ab_scenario::run_recorded(&scenario, probe);
    eprintln!(
        "{}: digest {digest:#018x}, {} invariants, pass={}",
        scenario.name,
        report.invariants.len(),
        report.passed()
    );
    eprint!("{}", timeline::summary_tables(&world, &report));
    print!(
        "{}",
        timeline::timeline_json(&world, &report).render_pretty()
    );
}

fn validate_trace(mut args: impl Iterator<Item = String>) {
    let Some(path) = args.next() else { usage() };
    let text = read_input(&path);
    match timeline::validate_timeline(&text) {
        Ok(n) => eprintln!("{path}: valid trace-event document, {n} events"),
        Err(e) => {
            eprintln!("{path}: invalid trace document: {e}");
            std::process::exit(1);
        }
    }
}

fn diff(mut args: impl Iterator<Item = String>) {
    let (Some(a), Some(b), None) = (args.next(), args.next(), args.next()) else {
        usage()
    };
    let lines = diff::diff_sweeps(&read_json(&a), &read_json(&b));
    lines.iter().for_each(|line| println!("{line}"));
    std::process::exit(i32::from(!lines.is_empty()));
}

/// [`read_input`], parsed.
fn read_json(path: &str) -> Json {
    Json::parse(&read_input(path)).unwrap_or_else(|e| {
        eprintln!("parsing {path}: {e}");
        std::process::exit(1);
    })
}

fn read_input(path: &str) -> String {
    if path == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .unwrap_or_else(|e| {
                eprintln!("reading stdin: {e}");
                std::process::exit(1);
            });
        buf
    } else {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("reading {path}: {e}");
            std::process::exit(1);
        })
    }
}

fn analyze(mut args: impl Iterator<Item = String>) {
    let Some(path) = args.next() else { usage() };
    let mut assert_score = None;
    let mut assert_pass = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--assert-score" => {
                let v = args.next().unwrap_or_else(|| usage());
                assert_score = Some(v.parse::<u64>().unwrap_or_else(|_| usage()));
            }
            "--assert-pass" => assert_pass = true,
            _ => usage(),
        }
    }
    let sweep = read_json(&path);
    let cards = quality::sweep_scorecards(&sweep).unwrap_or_else(|e| {
        eprintln!("analyzing {path}: {e}");
        std::process::exit(1);
    });
    print!("{cards}");
    if assert_pass {
        match sweep.get("summary").and_then(|s| s.get("pass")) {
            Some(Json::Bool(true)) => eprintln!("every scenario passed its invariants"),
            Some(Json::Bool(false)) => {
                eprintln!("a scenario failed an invariant (see scorecards above)");
                std::process::exit(1);
            }
            _ => {
                eprintln!("not a sweep document: no summary.pass");
                std::process::exit(1);
            }
        }
    }
    if let Some(floor) = assert_score {
        // The sweep's one-number quality verdict: its summary's floor mean
        // of every scored scenario's overall score.
        let mean = sweep
            .get("summary")
            .and_then(|s| s.get("quality")?.get("mean"));
        match mean {
            Some(&Json::U64(overall)) if overall >= floor => {
                eprintln!("quality {overall} >= required {floor}");
            }
            Some(&Json::U64(overall)) => {
                eprintln!("quality {overall} is below the required {floor}");
                std::process::exit(1);
            }
            _ => {
                eprintln!("no scenario produced a quality score; cannot assert {floor}");
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every name table resolves each of its own names to that row, holds
    /// no duplicates, and refuses anything else.
    #[test]
    fn name_tables_resolve_exactly_their_own_names() {
        fn check<T: Copy>(table: &[(&str, T)]) {
            for (i, (name, _)) in table.iter().enumerate() {
                let first = table.iter().position(|(n, _)| n == name);
                assert_eq!(first, Some(i), "duplicate name {name}");
                assert!(lookup(table, name).is_some(), "{name} must resolve");
            }
            for bogus in ["", "Default", "chaos ", "adversary", "all"] {
                assert!(lookup(table, bogus).is_none(), "{bogus:?} must be refused");
            }
        }
        check(&SWEEPS);
        check(&shapes());
        check(&batteries());
    }
}
