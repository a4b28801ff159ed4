//! Smoke test: every example binary builds and exits 0, and so does the
//! `ab_scenario` command the README and CI read a moved report with.
//!
//! The examples double as executable documentation; a drifted API breaks
//! them silently unless something actually runs them. The list is
//! discovered from `examples/` so an example added later is covered
//! automatically. One test drives them all sequentially (parallel
//! `cargo run` invocations would only serialize on the target-directory
//! lock anyway).
//!
//! The three that print the paper's Section 7 (Figures 5, 9 and 10, the
//! §7.3 frame rates, Table 1, §7.5) and `quickstart` run in simulated
//! time, so their stdout is the same on every run and build: it is pinned
//! byte for byte.

use std::path::Path;
use std::process::Command;

/// `(stdout length, FNV-1a)` of each pinned example: the three that print
/// the paper's Section 7, and `quickstart`, whose printed `t=` values are
/// the instants its waits for a ping train's end return. A cell changes
/// only when a printed byte does; the failure message prints the new table
/// to paste.
const PINNED_OUTPUT: [(&str, (usize, u64)); 4] = [
    ("paper_figures", (2407, 0xec0882d263075d95)),
    ("protocol_upgrade", (3544, 0x7ab95dda6c15bdb6)),
    ("quickstart", (353, 0x66a4f6225141e17c)),
    ("ring_agility", (516, 0xaf5e269cfa4e7561)),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn all_examples_run_cleanly() {
    let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut examples: Vec<String> = std::fs::read_dir(manifest_dir.join("examples"))
        .expect("examples/ directory exists")
        .filter_map(|entry| {
            let path = entry.expect("readable dir entry").path();
            if path.extension().is_some_and(|e| e == "rs") {
                Some(path.file_stem().unwrap().to_string_lossy().into_owned())
            } else {
                None
            }
        })
        .collect();
    examples.sort();
    assert!(
        examples.len() >= 8,
        "expected the six seed examples plus scenario_sweep and paper_figures, found {examples:?}"
    );
    for required in ["scenario_sweep", "paper_figures"] {
        assert!(
            examples.iter().any(|e| e == required),
            "the {required} example must be covered"
        );
    }

    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let mut pinned = PINNED_OUTPUT;
    for example in &examples {
        let output = Command::new(&cargo)
            .args(["run", "--quiet", "--example", example])
            .current_dir(manifest_dir)
            .output()
            .unwrap_or_else(|e| panic!("failed to spawn cargo for example {example}: {e}"));
        assert!(
            output.status.success(),
            "example {example} exited with {:?}\n--- stdout ---\n{}\n--- stderr ---\n{}",
            output.status.code(),
            String::from_utf8_lossy(&output.stdout),
            String::from_utf8_lossy(&output.stderr),
        );
        if let Some((_, cell)) = pinned.iter_mut().find(|(name, _)| name == example) {
            *cell = (output.stdout.len(), fnv1a(&output.stdout));
        }
    }
    let table: String = pinned
        .iter()
        .map(|(name, (len, h))| format!("    (\"{name}\", ({len}, {h:#018x})),\n"))
        .collect();
    assert_eq!(
        pinned, PINNED_OUTPUT,
        "a pinned example's output changed; new table:\n{table}"
    );
}

/// `ab_scenario render` into a file, then `ab_scenario diff` of that file
/// with itself (exit 0, nothing printed) and with a copy in which one
/// count is edited (exit 1, that one key named).
#[test]
fn ab_scenario_diff_names_what_moved() {
    let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let ab_scenario = |args: &[&str]| {
        Command::new(&cargo)
            .args([
                "run",
                "--quiet",
                "-p",
                "ab_scenario",
                "--bin",
                "ab_scenario",
                "--",
            ])
            .args(args)
            .current_dir(manifest_dir)
            .output()
            .unwrap_or_else(|e| panic!("failed to spawn cargo for ab_scenario {args:?}: {e}"))
    };
    let rendered = ab_scenario(&["render", "--sweep", "chaos", "--jobs", "1"]);
    assert!(rendered.status.success(), "render --sweep chaos failed");
    let text = String::from_utf8(rendered.stdout).expect("a report is UTF-8");
    assert!(text.contains("\"frames_sent\": "), "no frames_sent to edit");
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let (a, b) = (dir.join("diff_smoke_a.json"), dir.join("diff_smoke_b.json"));
    std::fs::write(&a, &text).expect("write the report");
    std::fs::write(
        &b,
        text.replacen("\"frames_sent\": ", "\"frames_sent\": 1", 1),
    )
    .expect("write the edited report");
    let (a, b) = (
        a.to_str().expect("UTF-8 path"),
        b.to_str().expect("UTF-8 path"),
    );

    let same = ab_scenario(&["diff", a, a]);
    assert_eq!(same.status.code(), Some(0));
    assert!(
        same.stdout.is_empty(),
        "a report differs from itself nowhere"
    );

    let moved = ab_scenario(&["diff", a, b]);
    assert_eq!(moved.status.code(), Some(1));
    let lines = String::from_utf8(moved.stdout).expect("diff prints UTF-8");
    assert_eq!(lines.lines().count(), 1, "one key moved:\n{lines}");
    assert!(
        lines.contains(" → world → frames_sent: changed "),
        "the line names scenario → section → key:\n{lines}"
    );
}
