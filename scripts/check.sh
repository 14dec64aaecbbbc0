#!/usr/bin/env bash
# Repo-wide quality gate: formatting, lints, tests.
#
# Usage: scripts/check.sh
# Mirrors what CI runs; every step must pass before merging.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (workspace, all targets, -D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo clippy (with the rm-serve fault harness and chaos tests compiled in)"
cargo clippy --workspace --all-targets --features rm-serve/testing -- -D warnings

echo "==> rustdoc (workspace, -D warnings, with and without the rm-serve fault harness)"
# Intra-doc links name types across crates and feature gates; a renamed
# or deleted item must fail here rather than leave a dead link.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --features rm-serve/testing

echo "==> rm-lint (token rules + call-graph reachability, structured allowlist)"
# Replaces the old grep gates: dot products outside rm_sparse::vecops,
# Instant::now() outside the Clock abstraction, unwrap/expect on
# lock()/join(), HashMap/HashSet iteration in model-affecting crates,
# panics in serving library code, manual f32 accumulation — plus the
# workspace call graph (DESIGN.md §19): allocation, panic, and
# determinism-taint reachability from the declared serve roots, failing
# closed on unresolved calls inside the closure. Allowlist:
# scripts/lint_allowlist.toml (mandatory reasons, stale entries fail).
cargo run --release -q -p rm-lint -- \
    --report LINT_report.json --callgraph-report CALLGRAPH_report.json

echo "==> rm-lint report byte-stability (two consecutive runs identical)"
# Both committed reports must be deterministic artifacts: a second run
# into a scratch dir has to reproduce them byte-for-byte, so a diff in
# review always means a code change, never scheduler noise.
cargo run --release -q -p rm-lint -- \
    --report /tmp/rm_lint_stability_L.json \
    --callgraph-report /tmp/rm_lint_stability_C.json
cmp LINT_report.json /tmp/rm_lint_stability_L.json
cmp CALLGRAPH_report.json /tmp/rm_lint_stability_C.json

echo "==> rm-lint --explain (exit codes: 0 known rule, 2 unknown)"
cargo run --release -q -p rm-lint -- --explain panic-reachable-from-serve-path > /dev/null
if cargo run --release -q -p rm-lint -- --explain no-such-rule > /dev/null 2>&1; then
    echo "expected --explain no-such-rule to fail" >&2
    exit 1
fi

echo "==> cargo test (workspace)"
cargo test --workspace -q

echo "==> perfbench self-tests (the benchmark still builds against the serve API)"
# perfbench is its own cargo package (empty [workspace], path deps on the
# crates), so the workspace build never compiles it: without this step a
# serve API change that breaks the benchmark would pass every gate.
# Resolving the package rewrites perfbench/Cargo.lock when the committed
# lock is stale; the benchmark's files must come out of a check as they
# went in, so the lock is saved first and put back afterwards, also when
# the step fails.
PERFBENCH_LOCK=$(mktemp)
cp perfbench/Cargo.lock "$PERFBENCH_LOCK"
trap 'cp "$PERFBENCH_LOCK" perfbench/Cargo.lock; rm -f "$PERFBENCH_LOCK"' EXIT
cargo test --offline -q --manifest-path perfbench/Cargo.toml
cp "$PERFBENCH_LOCK" perfbench/Cargo.lock
rm -f "$PERFBENCH_LOCK"
trap - EXIT

echo "==> chaos suite (rm-serve with fault injection compiled in)"
cargo test -q -p rm-serve --features testing

echo "==> observability: trace + metrics exposition tests"
cargo test -q -p rm-util trace
cargo test -q -p rm-serve --test trace_tests
cargo test -q -p rm-serve --features testing --test trace_tests
cargo test -q -p rm-serve metrics

echo "==> kernel equivalence suite (unrolled vecops vs scalar reference, selector, merge)"
# The lane-unrolled kernels must stay within 1e-5 relative of dot_ref and
# bit-identical across block widths; these proptests are the contract.
# Likewise the differential proptests are the selector and merge
# contracts: TopK must return exactly a full total_cmp sort's first k,
# and merge_into exactly the first proposal of each book, in emission
# order.
cargo test -q -p rm-sparse vecops
cargo test -q -p rm-sparse dense
# The kernels vectorise only in optimised builds, and the bit-identity
# contract has to hold for that lowering too; the Closest Items batch
# tests run its four-user scan on it. The engine skips the secondary
# sources for users an exhaustive primary fills only because the
# primary's scan scores bit-identically to the rank stage, so the
# differential reference check of the engine runs on it as well, over
# every Tiny user.
cargo test --release -q -p rm-sparse
cargo test --release -q -p rm-core closest
cargo test --release -q -p rm-serve --test reference_tests
cargo test -q -p rm-util topk
cargo test -q -p rm-serve merge

echo "==> kernel benches (smoke mode: exercises every kernel, timings noisy)"
cargo run --release -q -p rm-bench --bin kernel-bench -- --smoke --out /tmp/kernel-bench-smoke.json

echo "==> deploy workflow smoke (train --out publishes a registry, explain serves from it; evaluate takes one path)"
# The one route from training to a reader: a Tiny-preset registry trained
# into a temp dir must load into the serving engine and answer user 0.
DEPLOY_DIR=$(mktemp -d)
trap 'rm -rf "$DEPLOY_DIR"' EXIT
cargo run --release -q -p reading-machine -- train --preset tiny --out "$DEPLOY_DIR/artifacts"
cargo run --release -q -p reading-machine -- \
    explain --artifacts "$DEPLOY_DIR/artifacts" --preset tiny --user 0 --k 5 \
    | tee "$DEPLOY_DIR/explain.txt"
if ! grep -q "^top-5 for user 0" "$DEPLOY_DIR/explain.txt"; then
    echo "explain printed no top-5 header for user 0" >&2
    exit 1
fi
# evaluate takes one path: a corpus generated in process and the same
# corpus written by `generate` and read back through --corpus must print
# identical KPI rows, and each stage table must carry a fit row per model.
cargo run --release -q -p reading-machine -- \
    generate --preset tiny --seed 99 --out "$DEPLOY_DIR/corpus"
cargo run --release -q -p reading-machine -- \
    evaluate --preset tiny --seed 99 --k 10 > "$DEPLOY_DIR/eval-generated.txt"
cargo run --release -q -p reading-machine -- \
    evaluate --corpus "$DEPLOY_DIR/corpus" --seed 99 --k 10 > "$DEPLOY_DIR/eval-read.txt"
for f in eval-generated.txt eval-read.txt; do
    grep -E '^(KPIs @|  [A-Z])' "$DEPLOY_DIR/$f" > "$DEPLOY_DIR/$f.kpis" || true
    if [ "$(wc -l < "$DEPLOY_DIR/$f.kpis")" -ne 5 ]; then
        echo "evaluate ($f) printed no header and four KPI rows" >&2
        exit 1
    fi
    for model in "Random Items" "Most Read Items" "Closest Items" "BPR"; do
        if ! grep -q "^fit $model " "$DEPLOY_DIR/$f"; then
            echo "evaluate's stage table ($f) has no fit row for $model" >&2
            exit 1
        fi
    done
done
if ! diff "$DEPLOY_DIR/eval-generated.txt.kpis" "$DEPLOY_DIR/eval-read.txt.kpis"; then
    echo "evaluate gave a generated corpus and the same corpus read back different KPIs" >&2
    exit 1
fi
rm -rf "$DEPLOY_DIR"
trap - EXIT

echo "==> same answers: default-seed Table 1 vs committed experiments/out"
# Paper preset, seed 42: the recomputed table1.csv and table1_precise.csv
# must match the committed files byte-for-byte. A change that moves
# Table 1 regenerates experiments/out and EXPERIMENTS.md in the same commit.
TABLE1_DIR=$(mktemp -d)
trap 'rm -rf "$TABLE1_DIR"' EXIT
cargo run --release -q -p rm-bench --bin repro-table1 -- \
    --preset paper --seed 42 --out "$TABLE1_DIR"
for f in table1.csv table1_precise.csv; do
    if ! cmp "experiments/out/$f" "$TABLE1_DIR/$f"; then
        echo "Table 1 differs from experiments/out/$f; if the change is intended, regenerate with:" >&2
        echo "  cargo run --release -p rm-bench --bin repro-table1 > experiments/out/repro-table1.log" >&2
        exit 1
    fi
done
rm -rf "$TABLE1_DIR"
trap - EXIT

echo "==> overload SLO gate (deterministic loadgen smoke vs committed BENCH_serve.json)"
# A 10x open-loop burst on simulated time: the report must match the
# committed file byte-for-byte and meet its SLO (availability >= 0.999,
# bounded p99) via shedding + brownout, never unbounded queueing.
cargo run --release -q -p reading-machine -- serve-bench --loadgen smoke --gate BENCH_serve.json

echo "==> ANN retrieval gate (deterministic smoke recall vs committed BENCH_ann.json)"
# IVF recall numbers are timing-free and deterministic: the recomputed
# smoke section must match the committed report byte-for-byte, the
# committed 1M-item full run must hold recall@10 >= 0.95 at >= 10x
# speedup, and probing every list must reproduce the exact scan.
cargo run --release -q -p rm-bench --bin ann-bench -- --smoke --gate BENCH_ann.json

echo "==> quantized-artifact gate (deterministic KPI drift vs committed BENCH_quant.json)"
# Table-1 URR/NRR through the quantized scorer are timing-free and
# deterministic: the recomputed smoke section must match the committed
# report byte-for-byte, i8/f16 KPI drift vs f32 must stay within 5e-3,
# and the committed serving-scale full run must hold >= 3.5x memory
# reduction at >= 1.2x matvec throughput.
cargo run --release -q -p rm-bench --bin quant-bench -- --smoke --gate BENCH_quant.json

echo "All checks passed."
