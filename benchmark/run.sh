#!/usr/bin/env bash
# Build the benchmark offline and run the whole battery: every workload,
# untraced and traced, one child process per pass (about four minutes).
#
#   benchmark/run.sh                     # full run, results/latest.json
#   benchmark/run.sh --smoke             # everything at a twentieth, < 15 s
#   benchmark/run.sh --seed 7 --out f.json
#   benchmark/run.sh --trace-dir benchmark/results/traces   # Perfetto files
#
# Compare two result files with
#   cargo run --release --offline --manifest-path benchmark/Cargo.toml -- compare A.json B.json
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
args=("$@")
if [[ " ${args[*]-} " != *" --out "* ]]; then
    args+=(--out "$here/results/latest.json")
fi
cargo build --release --offline --manifest-path "$here/Cargo.toml"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- run "${args[@]}"
