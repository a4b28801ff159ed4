//! Run the default scenario sweep — seven parametric topology shapes ×
//! four workload batteries — and print the machine-readable JSON
//! report (per-segment wire counters, per-bridge forwarding counters,
//! app results, invariant verdicts, summary score).
//!
//! ```sh
//! cargo run --example scenario_sweep              # full JSON on stdout
//! cargo run --example scenario_sweep -- --summary # verdict lines only
//! cargo run --example scenario_sweep -- --jobs 4  # 4 worker threads
//! ```
//!
//! `--jobs N` runs the sweep through the `ab_scenario::exec` worker pool
//! (default: available parallelism; `auto`/`0` mean the same, `1` uses
//! no thread machinery at all). The report bytes are identical for
//! every job count — CI renders the sweep at `--jobs 1,2,4`, diffs the
//! three outputs, and uploads one as the workflow artifact.

use ab_scenario::sweep::{run_sweep_jobs, SweepSpec};

fn main() {
    let mut summary_only = false;
    let mut jobs = ab_scenario::default_jobs();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--summary" => summary_only = true,
            "--jobs" => {
                let v = args.next().expect("--jobs needs a count");
                jobs =
                    ab_scenario::parse_jobs(&v).expect("--jobs needs a positive integer or 'auto'");
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    let report = run_sweep_jobs(&SweepSpec::default_sweep(42), jobs);
    if summary_only {
        for r in &report.runs {
            let (p, f, w) = r.verdict_counts();
            eprintln!(
                "{:<26} pass={} ({p} pass / {f} fail / {w} waived)",
                r.scenario.name,
                r.passed()
            );
        }
        println!(
            "{}",
            report
                .to_json()
                .tree()
                .get("summary")
                .unwrap()
                .render_pretty()
        );
    } else {
        print!("{}", report.to_json().render_pretty());
    }
    assert!(
        report.passed(),
        "the default sweep must pass every invariant"
    );
}
