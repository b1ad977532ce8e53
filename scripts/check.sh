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
# reference-model proptest (timestamps 0 and u32::MAX, a clock that runs
# backwards) must hold on both.
cargo test --release --offline -q -p kerberos

echo "== cargo test --release -p krb-kdc"
# The reply is sealed where it lies — offsets, reserved length slots,
# padding counted from the middle of a buffer — and none of that arithmetic
# may lean on a debug assertion; the golden-replies digest, generated at
# the commit before that rewrite, must come out the same in both profiles.
cargo test --release --offline -q -p krb-kdc

echo "== krb-lint --json"
# Machine-readable pass: the v2 schema must be present, every rule id
# accounted for, and the tree clean (zero live findings, zero stale allow
# entries). The human-readable pass also runs in tests/lint.rs.
lint_json="$(mktmp)"
# A dirty tree exits non-zero; let the schema checks below report it with
# the JSON in hand instead of dying silently under `set -e`.
cargo run -q -p krb-lint -- --json > "$lint_json" || true
for key in schema files_scanned clean allow_count rules findings allowed \
        stale_allow; do
    if ! grep -q "\"$key\"" "$lint_json"; then
        echo "krb-lint --json output is missing \"$key\"" >&2
        exit 1
    fi
done
if ! grep -q '"schema":"krb-lint/v2"' "$lint_json"; then
    echo "krb-lint --json schema is not krb-lint/v2" >&2
    exit 1
fi
for rule in L1 L2 L3 L4 L5 L6 L8 L9; do
    if ! grep -q "{\"id\":\"$rule\"" "$lint_json"; then
        echo "krb-lint --json is missing the $rule rule counter" >&2
        exit 1
    fi
done
if ! grep -q '"clean":true' "$lint_json"; then
    echo "krb-lint reports a dirty tree:" >&2
    cat "$lint_json" >&2
    exit 1
fi
if grep -q '"files_scanned":0' "$lint_json"; then
    echo "krb-lint scanned zero files — the pass proved nothing" >&2
    exit 1
fi

# A krb-stat smoke snapshot must record that every cycle was served: $2
# (= iters x threads) AS and TGS exchanges, no error reply, no schedule
# built during the counted run. Whole lines of the JSON, not bare keys.
stat_served() {
    for line in "  \"as_ok\": $2," "  \"tgs_ok\": $2," "  \"errors\": 0," \
            "  \"sched_cache\": {\"hits\": $(($2 * 3)), \"misses\": 0},"; do
        if ! grep -qxF "$line" "$1"; then
            echo "krb-stat smoke snapshot lacks the line: $line" >&2
            cat "$1" >&2
            exit 1
        fi
    done
}

echo "== krb-stat --smoke"
# The deterministic KDC load loop must run and serve every cycle (the
# schema is asserted by crates/tools/src/krbstat.rs tests; this guards the
# binary + JSON plumbing end to end).
smoke_json="$(mktmp)"
cargo run -q -p krb-tools --bin krb-stat -- --smoke --out "$smoke_json"
stat_served "$smoke_json" 25

echo "== krb-stat --smoke --threads 4 (byte-identity)"
# Four workers hammer ONE realm through the lock-free snapshot path; the
# per-shard journal rings must merge back to a byte-identical dump and the
# whole JSON snapshot must be reproducible run-over-run (DESIGN.md §15).
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
stat_served "$shared_a" 100
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

# The integer under top-level key $2 of a one-line JSON report ($1).
json_num() {
    sed -n "s/.*\"$2\":\([0-9][0-9]*\)[,}].*/\1/p" "$1"
}

# The determinism contract: `two_runs_identical <package> <bin> <args...>`
# runs the tool twice, in two processes, and the two stdouts must be
# byte-identical. The first run's output is left in "$out". A tripped
# oracle or a failed self-check is a non-zero exit, which `set -e` catches.
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
# attack, each --leak mode tripping exactly the matching oracles. Both
# hold the determinism contract (the schema is asserted by CHAOS_JSON_KEYS
# in crates/sim/src/chaos.rs). The dup-heavy run is the one whose document
# depended on which endpoint `Router` served first.
two_runs_identical krb-sim krb-chaos --smoke
two_runs_identical krb-sim krb-chaos --seed 5 --ops 120 --profile dup-heavy --json

two_runs_identical krb-adversary krb-adversary --smoke
adv_a="$out"
# One run per line. The honest run accepts no forgery and trips nothing;
# every run that hands the attacker a key trips at least one oracle (the
# schema is asserted by ADVERSARY_JSON_KEYS in crates/adversary/src/soak.rs).
adv_runs="$(mktmp)"
adv_honest="$(mktmp)"
sed 's/{"seed":/\
{"seed":/g' "$adv_a" | grep '"leak":' > "$adv_runs"
grep '"leak":"none"' "$adv_runs" > "$adv_honest" || true
if [ "$(grep -c . "$adv_honest")" != 1 ] \
        || ! grep -q '"accepted_forgeries":0,' "$adv_honest" \
        || grep -q '"tripped"' "$adv_honest"; then
    echo "krb-adversary --smoke: no single honest run with 0 accepted forgeries and no oracle tripped" >&2
    exit 1
fi
if ! grep -v '"leak":"none"' "$adv_runs" | grep -q '"tripped"' \
        || grep -v '"leak":"none"' "$adv_runs" | grep -qv '"tripped"'; then
    echo "krb-adversary --smoke: a leaking run tripped no oracle (or none ran)" >&2
    exit 1
fi

echo "== krb-repl --smoke (replication gate, byte-identity)"
# Bulk-loads a realm at depth through the kdb pre-splitting batch path,
# then drives journaled incremental propagation rounds against the
# slaves under faults; the conservation oracle (slave dump ≡ master
# dump at every corroborated head ack) and the metrics≡journal oracle
# must hold, and two same-seed runs must be byte-identical.
two_runs_identical krb-sim krb-repl --smoke
repl_a="$out"
# The master owns the append, so the journal head is the write count, and
# every transfer is counted once by outcome and once by kind (the schema
# is asserted by REPL_JSON_KEYS in crates/sim/src/repl.rs; a tripped oracle
# is a non-zero exit).
repl_writes="$(json_num "$repl_a" admin_writes)"
repl_transfers="$(json_num "$repl_a" transfers)"
if [ "${repl_writes:-0}" -eq 0 ] \
        || [ "$(json_num "$repl_a" final_seq)" != "$repl_writes" ]; then
    echo "krb-repl --smoke: final_seq is not the number of admin writes" >&2
    cat "$repl_a" >&2
    exit 1
fi
if [ "${repl_transfers:-0}" -eq 0 ] \
        || [ $(($(json_num "$repl_a" accepted) + $(json_num "$repl_a" rejected))) \
            -ne "$repl_transfers" ] \
        || [ $(($(json_num "$repl_a" incr) + $(json_num "$repl_a" full))) \
            -ne "$repl_transfers" ]; then
    echo "krb-repl --smoke: transfers != accepted + rejected or != incr + full" >&2
    cat "$repl_a" >&2
    exit 1
fi

echo "== krb-top --once --json (schema + byte-identity)"
# The introspection dashboard's CI mode queries the live MonService over
# the netsim seam; the JSON snapshot must carry the full schema (health,
# latency exemplars, heavy-hitter tables, flight records) and be
# byte-identical across two same-seed runs.
two_runs_identical krb-tools krb-top --once --json
top_a="$out"
for key in tool component health state err_permille replay_permille \
        journal_dropped kdc as_ok tgs_ok errors replay_hits store_swaps \
        stripe_hits latency_us exemplars top as_clients tgs_services \
        error_principals journal events dropped flight captures trace \
        fail_kind truncated chain; do
    if ! grep -q "\"$key\"" "$top_a"; then
        echo "krb-top --once --json output is missing \"$key\"" >&2
        exit 1
    fi
done

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
