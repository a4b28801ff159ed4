//! The paper's headline demonstration (Section 5.4, Table 1): upgrade a
//! running network from the "old" DEC-style spanning tree to the "new"
//! IEEE 802.1D on the fly — then show both automatic fallbacks.
//!
//! ```sh
//! cargo run --example protocol_upgrade
//! ```

use ab_scenario::paper::{run_transition, TransitionMode};

fn show(title: &str, mode: TransitionMode) {
    println!("=== {title} ===");
    let report = run_transition(mode, 42);
    println!("(IEEE BPDU injected at t={:.1}s)", report.injected_at_s);
    for b in &report.bridges {
        println!("{}:", b.name);
        if b.events.is_empty() {
            println!("  (no control switchlet — never upgraded)");
        }
        for (t, what) in &b.events {
            println!("  t={t:>10.4}s  {what}");
        }
        println!(
            "  final: IEEE {}, DEC {}{}",
            if b.ieee_running { "running" } else { "stopped" },
            if b.dec_running { "running" } else { "stopped" },
            match &b.phase {
                Some(p) => format!(", control {p:?}"),
                None => String::new(),
            }
        );
    }
    println!();
}

fn main() {
    show(
        "Upgrade succeeds: tests pass, control terminates",
        TransitionMode::Pass,
    );
    show(
        "New protocol is buggy (inverted election): tests fail, fall back",
        TransitionMode::FailTests,
    );
    show(
        "One bridge never upgrades: late DEC packets force fallback",
        TransitionMode::LateDec,
    );
}
