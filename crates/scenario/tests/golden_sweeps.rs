//! Cross-commit golden: the rendered bytes of all four sweeps, pinned.
//!
//! The other sweep tests compare a run with itself (replay, worker
//! counts); this one compares it with stored constants, so a refactor
//! of the runner, the workload generator or anything a frame crosses
//! cannot change a rendered byte unnoticed. It is also the only golden
//! that covers the chaos, lossy and adversarial planes switched on.
//!
//! A digest changes only when a report byte does. If that is intended,
//! the failure message prints the new table to paste — after `ab_scenario
//! diff` of the old build's report against the new one's has shown that
//! only the keys meant to move did.

use ab_scenario::sweep::{run_sweep_jobs, SweepSpec};

type SweepCtor = fn(u64) -> SweepSpec;

const SWEEPS: [(&str, SweepCtor); 4] = [
    ("default", SweepSpec::default_sweep),
    ("chaos", SweepSpec::chaos_sweep),
    ("lossy", SweepSpec::lossy_sweep),
    ("adversarial", SweepSpec::adversarial_sweep),
];

const SEEDS: [u64; 3] = [1, 2, 42];

/// `(rendered length, FNV-1a)` per sweep (rows, `SWEEPS` order) and
/// seed (columns, `SEEDS` order).
const GOLDEN: [[(usize, u64); 3]; 4] = [
    // default
    [
        (157244, 0x266eb964b43c0c5c),
        (156653, 0xc66855992454447b),
        (157241, 0x66b0d665ae503b51),
    ],
    // chaos
    [
        (9694, 0x9cc75914fcfb1c4e),
        (9674, 0xb05b125796a8e1e9),
        (9689, 0x36777952b13be31d),
    ],
    // lossy
    [
        (10822, 0x493e877a872f7f18),
        (10935, 0x53a59a89b79dfcde),
        (10890, 0x9525a966003a36b2),
    ],
    // adversarial
    [
        (20063, 0xbaf532b279bc8030),
        (20074, 0x40f2517eabef5247),
        (20070, 0xe15cecba3feae77c),
    ],
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn rendered_sweeps_match_the_stored_digests() {
    let mut got = [[(0usize, 0u64); 3]; 4];
    for (row, (_, ctor)) in got.iter_mut().zip(SWEEPS) {
        for (cell, seed) in row.iter_mut().zip(SEEDS) {
            let rendered = run_sweep_jobs(&ctor(seed), 1).to_json().render();
            *cell = (rendered.len(), fnv1a(rendered.as_bytes()));
        }
    }
    let table: String = got
        .iter()
        .zip(SWEEPS)
        .map(|(row, (name, _))| {
            let cells: Vec<String> = row
                .iter()
                .map(|(len, h)| format!("({len}, {h:#018x})"))
                .collect();
            format!("    // {name}\n    [{}],\n", cells.join(", "))
        })
        .collect();
    assert_eq!(
        got, GOLDEN,
        "rendered sweep bytes changed; new table:\n{table}"
    );
}
