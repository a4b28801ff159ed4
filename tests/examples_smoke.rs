//! Smoke test: every example binary builds and exits 0.
//!
//! The examples double as executable documentation; a drifted API breaks
//! them silently unless something actually runs them. The list is
//! discovered from `examples/` so an example added later is covered
//! automatically. One test drives them all sequentially (parallel
//! `cargo run` invocations would only serialize on the target-directory
//! lock anyway).

use std::path::Path;
use std::process::Command;

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
    }
}
