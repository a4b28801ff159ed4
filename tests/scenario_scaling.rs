//! The sweep pool's scaling gate: on a host with at least four hardware
//! threads, the committed default sweep finishes at least 1.8× sooner at
//! 4 jobs than at 1. With fewer threads there is no speedup to measure
//! and the test returns at once.
//!
//! In a file of its own because cargo runs test binaries one at a time:
//! no sibling test competes for the cores being timed, which the five
//! pool tests of `scenario_exec.rs` would. The same numbers, per worker,
//! are what `ab_scenario render --jobs N --profile` prints on stderr.

use std::time::{Duration, Instant};

use ab_scenario::sweep::{run_sweep_jobs, SweepSpec};

#[test]
fn four_jobs_run_the_default_sweep_at_least_1_8x_sooner() {
    let threads = ab_scenario::default_jobs();
    if threads < 4 {
        eprintln!("scaling gate skipped: host has {threads} hardware threads (< 4)");
        return;
    }
    let spec = SweepSpec::default_sweep(42);
    let best_of_5 = |jobs: usize| -> Duration {
        (0..5)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(run_sweep_jobs(&spec, jobs));
                start.elapsed()
            })
            .min()
            .expect("five passes ran")
    };
    let (serial, pooled) = (best_of_5(1), best_of_5(4));
    let speedup = serial.as_secs_f64() / pooled.as_secs_f64();
    assert!(
        speedup >= 1.8,
        "4 jobs ran the default sweep {speedup:.2}x sooner than 1 job \
         ({serial:?} vs {pooled:?}, best of 5 each, {threads} hardware threads); the gate is 1.8x"
    );
}
