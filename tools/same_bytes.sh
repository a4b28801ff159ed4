#!/bin/sh
# Compare every byte this working tree renders with what git revision
# REV renders.
#
# Usage: tools/same_bytes.sh REV
#
# Builds REV's `ab_scenario` and examples from `git archive REV` in a
# temporary directory (removed on exit), and this tree's in its usual
# target directory. Then, with both builds:
#   - renders the default, chaos, lossy and adversarial sweeps at seeds
#     0-49 (200 documents) and compares each pair with `cmp`;
#   - runs every example under examples/ and compares their stdout;
#   - flight-records the traces crates/scenario/tests/flight_recorder.rs
#     pins and compares each timeline (stdout) and its summary tables
#     (stderr).
# Prints each mismatch and a count. Exits 1 if any pair differs, 0 when
# every byte is the same. A refactor that must not move a report byte,
# or a probe or timeline change, runs this against its parent commit.
set -eu

if [ $# -ne 1 ]; then
    echo "usage: tools/same_bytes.sh REV" >&2
    exit 2
fi
rev=$1
root=$(git rev-parse --show-toplevel)
git -C "$root" rev-parse --verify --quiet "$rev^{commit}" >/dev/null || {
    echo "same_bytes: $rev is not a commit" >&2
    exit 2
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM
mkdir "$tmp/src" "$tmp/base" "$tmp/head"
git -C "$root" archive "$rev" | tar -x -C "$tmp/src"

# build SRC TARGET_DIR: the ab_scenario binary and the root package's
# examples, release profile, offline.
build() {
    (cd "$1" && CARGO_TARGET_DIR=$2 cargo build --release --offline -q -p ab_scenario --bin ab_scenario &&
        CARGO_TARGET_DIR=$2 cargo build --release --offline -q -p active-bridging --examples)
}
echo "same_bytes: building $rev" >&2
build "$tmp/src" "$tmp/target"
head_target=${CARGO_TARGET_DIR:-$root/target}
case $head_target in /*) ;; *) head_target=$root/$head_target ;; esac
echo "same_bytes: building the working tree" >&2
build "$root" "$head_target"

# The pinned traces, one `shape battery [--defended]` a line.
pinned_traces='metro metro
line lossy
line adversarial --defended
ring chaos
ring adversarial --defended'

# render BUILD_TARGET OUT_DIR: every document, example and trace output.
render() {
    for sweep in default chaos lossy adversarial; do
        seed=0
        while [ "$seed" -lt 50 ]; do
            "$1/release/ab_scenario" render --sweep "$sweep" --seed "$seed" --jobs 1 \
                >"$2/$sweep-s$seed.json"
            seed=$((seed + 1))
        done
    done
    for example in "$root"/examples/*.rs; do
        name=$(basename "$example" .rs)
        if [ -x "$1/release/examples/$name" ]; then
            "$1/release/examples/$name" >"$2/example-$name.txt" || echo "exit $?" >>"$2/example-$name.txt"
        fi
    done
    echo "$pinned_traces" | while read -r shape battery flag; do
        out=$2/trace-$shape-$battery
        # $flag is empty or one word, so it is left unquoted.
        "$1/release/ab_scenario" trace "$shape" "$battery" --seed 42 $flag >"$out.json" 2>"$out.txt"
    done
}
echo "same_bytes: rendering" >&2
render "$tmp/target" "$tmp/base"
render "$head_target" "$tmp/head"

docs=0
same_docs=0
examples=0
same_examples=0
traces=0
same_traces=0
for out in "$tmp/head"/*; do
    name=$(basename "$out")
    case $name in
        example-*) examples=$((examples + 1)) ;;
        trace-*) traces=$((traces + 1)) ;;
        *) docs=$((docs + 1)) ;;
    esac
    if [ -f "$tmp/base/$name" ] && cmp -s "$tmp/base/$name" "$out"; then
        case $name in
            example-*) same_examples=$((same_examples + 1)) ;;
            trace-*) same_traces=$((same_traces + 1)) ;;
            *) same_docs=$((same_docs + 1)) ;;
        esac
    else
        echo "differs: $name"
    fi
done
echo "$same_docs of $docs documents, $same_examples of $examples examples and $same_traces of $traces trace outputs identical to $rev"
[ "$same_docs" -eq "$docs" ] && [ "$same_examples" -eq "$examples" ] && [ "$same_traces" -eq "$traces" ]
