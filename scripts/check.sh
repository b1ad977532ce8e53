#!/bin/sh
# Tier-1 verification: build, test, and the krb-lint static-invariant pass.
# Run from anywhere; operates on the workspace this script lives in.
set -eu

cd "$(dirname "$0")/.."

# Every temp file lives in one directory removed on exit: `mktmp` runs
# inside `$(...)`, a subshell, so it could not append to a list of names
# kept in this shell.
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
mktmp() {
    mktemp "$tmpdir/XXXXXX"
}

echo "== cargo check --workspace --all-targets"
# Examples are not built by `cargo build`; this keeps them compiling.
cargo check --workspace --all-targets

echo "== cargo build --release"
cargo build --release

echo "== cargo test --workspace -q"
# --workspace: the root package's integration tests alone skip the member
# crates' own test suites.
cargo test --workspace -q

echo "== cargo test --release -p krb-crypto"
# Every measured number and every deployed binary is --release, where the
# const-generic lane loop of the DES decrypt path is unrolled and
# scheduled differently from the dev profile: run the reference-equality
# tests on that code too.
cargo test --release --offline -q -p krb-crypto

echo "== cargo test --release -p kerberos"
# Timestamp arithmetic panics on overflow in the dev profile and wraps in
# --release, the build every benchmark measures: the replay cache's
# proptests against its reference models, `replay_cache_equals_reference_model`
# (one model per stripe; timestamps 0 and u32::MAX, a clock that runs
# backwards) and `replay_cache_matches_one_set_model_in_window` (one
# model for the whole cache over in-window requests), must hold on both.
cargo test --release --offline -q -p kerberos

echo "== cargo test --release -p krb-kdc"
# The reply is sealed where it lies — offsets, reserved length slots,
# padding counted from the middle of a buffer — and none of that arithmetic
# may lean on a debug assertion; the golden-replies digest, generated at
# the commit before that rewrite, must come out the same in both profiles.
cargo test --release --offline -q -p krb-kdc

echo "== cargo test --release -p krb-netsim -p krb-telemetry"
# The measured request path also runs SimNet's endpoint maps and the
# journal's in-place slot reuse; test them in the profile that is timed.
cargo test --release --offline -q -p krb-netsim -p krb-telemetry

echo "== cargo test --release -p krb-kdb -p krb-kprop"
# Every measured set-up builds its realm through MemStore's bottom-up bulk
# build (node fills, the merge with records already stored) and ships it
# through the dump writer and parser (checked field widths, the hex
# tables); kpropd parses every segment with the same parser. Test them in
# the profile that is timed, where an overflow wraps instead of panicking.
cargo test --release --offline -q -p krb-kdb -p krb-kprop

echo "== krb-lint --json"
# Machine-readable pass: a dirty tree (a live finding or a stale allow
# entry) exits non-zero. The report's fields are asserted by the lint
# crate's tests and tests/lint.rs, which also runs the human-readable pass.
lint_json="$(mktmp)"
if ! cargo run -q -p krb-lint -- --json > "$lint_json"; then
    echo "krb-lint reports a dirty tree:" >&2
    cat "$lint_json" >&2
    exit 1
fi

echo "== krb-stat --smoke --threads 4 (byte-identity)"
# Four workers hammer ONE realm through the lock-free snapshot path; the
# per-shard journal rings must merge back to a byte-identical dump and the
# whole JSON snapshot must be reproducible run-over-run (DESIGN.md §15).
# That every cycle is served is asserted by crates/tools/src/krbstat.rs.
shared_a="$(mktmp)"
shared_b="$(mktmp)"
shared_ja="$(mktmp)"
shared_jb="$(mktmp)"
cargo run -q -p krb-tools --bin krb-stat -- --smoke --threads 4 \
    --out "$shared_a" --journal "$shared_ja"
cargo run -q -p krb-tools --bin krb-stat -- --smoke --threads 4 \
    --out "$shared_b" --journal "$shared_jb"
if ! diff -q "$shared_a" "$shared_b" > /dev/null; then
    echo "shared-realm krb-stat is not deterministic (two JSON snapshots differ)" >&2
    exit 1
fi
if ! diff -q "$shared_ja" "$shared_jb" > /dev/null; then
    echo "shared-realm merged journal is not byte-identical across runs" >&2
    exit 1
fi

echo "== no Mutex<Kdc outside the lint fixtures"
# The global KDC lock is gone; the only allowed occurrences of the old
# pattern are krb-lint's own L8 test fixtures. Anything else is a
# regression reintroducing the serialized service.
if grep -rn --include='*.rs' 'Mutex<Kdc' crates tests src 2>/dev/null \
        | grep -v '^crates/lint/'; then
    echo "found a Mutex<Kdc> outside crates/lint fixtures (see above)" >&2
    exit 1
fi

echo "== krb-trace --smoke"
# Seeded full login + forced failures must reconstruct as deterministic
# traces (byte-identical across two runs); exits non-zero on any drift.
cargo run -q -p krb-tools --bin krb-trace -- --smoke > /dev/null

# The determinism contract: `two_runs_identical <package> <bin> <args...>`
# runs the tool twice, in two processes, and the two stdouts must be
# byte-identical. A tripped oracle or a failed self-check is a non-zero
# exit, which `set -e` catches.
two_runs_identical() {
    out="$(mktmp)"
    again="$(mktmp)"
    pkg="$1"
    bin="$2"
    shift 2
    cargo run -q -p "$pkg" --bin "$bin" -- "$@" > "$out"
    cargo run -q -p "$pkg" --bin "$bin" -- "$@" > "$again"
    if ! diff -q "$out" "$again" > /dev/null; then
        echo "$bin $* is not deterministic (two runs differ)" >&2
        exit 1
    fi
}

echo "== krb-chaos + krb-adversary --smoke (shared-realm KDC soaks)"
# One step, two soaks, both driving the snapshot-swapped shared-realm KDC
# (every handler goes through `&self` / `Arc<Kdc>` since the global lock
# was removed). krb-chaos: every fault profile at CI scale, all four
# oracle families (safety, liveness, conservation, trace completeness)
# green. krb-adversary: honest protocol green under active Dolev-Yao
# attack, each --leak mode tripping exactly the matching oracles (the
# smoke checks every run's verdicts itself and exits non-zero). Both hold
# the determinism contract (the schemas are asserted by CHAOS_JSON_KEYS
# and ADVERSARY_JSON_KEYS). The dup-heavy run is the one whose document
# depended on which endpoint `Router` served first.
two_runs_identical krb-sim krb-chaos --smoke
two_runs_identical krb-sim krb-chaos --seed 5 --ops 120 --profile dup-heavy --json

two_runs_identical krb-adversary krb-adversary --smoke

echo "== krb-repl --smoke (replication gate, byte-identity)"
# Bulk-loads a realm at depth through the kdb pre-splitting batch path,
# then drives journaled incremental propagation rounds against the
# slaves under faults; the conservation oracle (slave dump ≡ master
# dump at every corroborated head ack) and the metrics≡journal oracle
# must hold, and two same-seed runs must be byte-identical. The transfer
# accounting is asserted by crates/sim/src/repl.rs's tests.
two_runs_identical krb-sim krb-repl --smoke

echo "== krb-top --once --json (byte-identity)"
# The introspection dashboard's CI mode queries the live MonService over
# the netsim seam; the JSON snapshot must be byte-identical across two
# same-seed runs (the schema is asserted by TOP_JSON_KEYS in
# crates/tools/src/krbtop.rs).
two_runs_identical krb-tools krb-top --once --json

echo "== krb-kdbench --smoke + BENCH_kdb.json schema"
# The kdb depth bench must run end to end at CI scale and emit the full
# schema, and the committed million-principal snapshot must carry it
# too (wall-clock numbers are host-specific; the structural fields are
# deterministic). Regenerate with: krb-kdbench (release).
kdbench_json="$(mktmp)"
cargo run -q -p krb-tools --bin krb-kdbench -- --smoke --out "$kdbench_json" \
    > /dev/null
for f in "$kdbench_json" BENCH_kdb.json; do
    if [ ! -f "$f" ]; then
        echo "$f not found — generate with: cargo run --release -p krb-tools --bin krb-kdbench" >&2
        exit 1
    fi
    for key in bench principals seed clock bulk elapsed_us per_sec store \
            pages depth records splits dir_doubles lookup_ns cold warm \
            samples p50 p95 p99 max; do
        if ! grep -q "\"$key\"" "$f"; then
            echo "$f is missing \"$key\" — regenerate with krb-kdbench" >&2
            exit 1
        fi
    done
done

echo "== kbench: harness tests + run --smoke"
# The benchmark is a package of its own driving the public API (Kdc,
# PrincipalDb::snapshot_mem, IncrKpropdService, ...). Building, testing
# and smoke-running it here makes an API change that breaks it fail
# tier-1 instead of the benchmark gate later; `run --smoke` exits non-zero
# on any failed correctness check of any workload.
cargo test --offline -q --manifest-path benchmark/Cargo.toml
cargo run --release --offline -q --manifest-path benchmark/Cargo.toml -- run --smoke \
    > /dev/null

echo "== OK"
