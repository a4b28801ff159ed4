//! Cross-commit golden: the rendered bytes of all four sweeps, pinned.
//!
//! The other sweep tests compare a run with itself (replay, worker
//! counts); this one compares it with stored constants, so a refactor
//! of the runner, the workload generator or anything a frame crosses
//! cannot change a rendered byte unnoticed. It is also the only golden
//! that covers the chaos, lossy and adversarial planes switched on.
//!
//! A digest changes only when a report byte does. If that is intended,
//! the failure message prints the new table to paste.

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
        (162342, 0x2b3bc8da8b4219e3),
        (161755, 0x3832b29e518b84a4),
        (162340, 0x47b9e0372f2935fd),
    ],
    // chaos
    [
        (9866, 0xe65690610490569a),
        (9846, 0x24bd7f5fb9b529b7),
        (9859, 0x3a0e97a9912497d9),
    ],
    // lossy
    [
        (10880, 0x0ed815a4e95ea823),
        (11104, 0xd4617618b0053fd4),
        (11045, 0x6dcfc61cd9a8189d),
    ],
    // adversarial
    [
        (20424, 0x77d6ca78ba88c4dd),
        (20435, 0xe4e8967b452fbd6d),
        (20431, 0x9a532c708cb4aa22),
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
