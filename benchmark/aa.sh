#!/bin/sh
# A/A check: run the whole benchmark twice on one build and compare the two
# result files. Same code, same seed: `compare` must report no regression
# and every repeatable count bit-equal.
#
#   benchmark/aa.sh [--seed N] [--smoke] [--seconds N] [--workload NAME]
set -eu

here="$(cd "$(dirname "$0")" && pwd)"
seed=42
prev=""
for arg in "$@"; do
    [ "$prev" = "--seed" ] && seed="$arg"
    prev="$arg"
done

cargo build --release --offline --manifest-path "$here/Cargo.toml"
kbench="${CARGO_TARGET_DIR:-$here/target}/release/kbench"
mkdir -p "$here/out"

"$kbench" run "$@" --out "$here/out/aa-$seed-a.json"
"$kbench" run "$@" --out "$here/out/aa-$seed-b.json"
"$kbench" compare "$here/out/aa-$seed-a.json" "$here/out/aa-$seed-b.json"
