#!/usr/bin/env bash
# Tier-1 gate: release build, full test suite, lint with warnings denied.
# Run from anywhere; the script cd's to the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> hostbench build (separate workspace: catches kernel API breaks the benchmark depends on)"
cargo build --release --offline --manifest-path hostbench/Cargo.toml

echo "==> cargo test -q"
cargo test -q

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> simtrace smoke (coreutil under K23, self-checked trace)"
cargo run --release -q -p bench --bin simtrace -- \
    --interposer k23 --selfcheck \
    --trace-out target/SIMTRACE_smoke.json \
    --summary-out target/SIMTRACE_smoke.txt

echo "==> simfault smoke (fault matrix, byte-determinism check)"
cargo run --release -q -p bench --bin simfault -- --smoke > target/SIMFAULT_smoke_a.txt
cargo run --release -q -p bench --bin simfault -- --smoke > target/SIMFAULT_smoke_b.txt
cmp target/SIMFAULT_smoke_a.txt target/SIMFAULT_smoke_b.txt

echo "==> simstack smoke (composed-stack matrix + propagation, byte-determinism check)"
cargo run --release -q -p bench --bin simstack -- --smoke > target/SIMSTACK_smoke_a.txt
cargo run --release -q -p bench --bin simstack -- --smoke > target/SIMSTACK_smoke_b.txt
cmp target/SIMSTACK_smoke_a.txt target/SIMSTACK_smoke_b.txt

echo "==> simaudit smoke (coverage matrix + JSON export, byte-determinism check)"
cargo run --release -q -p bench --bin simaudit -- --smoke --json target/SIMAUDIT_smoke_a.json > target/SIMAUDIT_smoke_a.txt
cargo run --release -q -p bench --bin simaudit -- --smoke --json target/SIMAUDIT_smoke_b.json > target/SIMAUDIT_smoke_b.txt
cmp target/SIMAUDIT_smoke_a.txt target/SIMAUDIT_smoke_b.txt
cmp target/SIMAUDIT_smoke_a.json target/SIMAUDIT_smoke_b.json

echo "==> simscale smoke (connection-scale matrix, byte-determinism across thread counts)"
cargo run --release -q -p bench --bin simscale -- --smoke --threads 1 --json target/SIMSCALE_smoke_a.json > target/SIMSCALE_smoke_a.txt
cargo run --release -q -p bench --bin simscale -- --smoke --threads 4 --json target/SIMSCALE_smoke_b.json > target/SIMSCALE_smoke_b.txt
cmp target/SIMSCALE_smoke_a.txt target/SIMSCALE_smoke_b.txt
cmp target/SIMSCALE_smoke_a.json target/SIMSCALE_smoke_b.json

echo "==> simprof smoke (profiler determinism across runs and engines)"
cargo run --release -q -p bench --bin simprof -- --smoke

echo "==> simrecord smoke (record on trace, replay on stepwise, bisection, navigation)"
cargo run --release -q -p bench --bin simrecord -- --smoke

echo "==> hostbench connscale (hostbench exits 0 on failed cells: check every cell's outcome)"
cargo run --release --offline --quiet --manifest-path hostbench/Cargo.toml -- \
    --workload connscale --seconds 1 --trace 0 > target/HOSTBENCH_connscale.txt
tail -n 1 target/HOSTBENCH_connscale.txt | grep -q '"correct": true' || {
    echo "hostbench connscale: a cell disagrees with hostbench/outcomes.tsv" >&2
    exit 1
}

echo "==> hostbench instrumented (record, replay-verify and sampling end to end; check every cell's outcome)"
cargo run --release --offline --quiet --manifest-path hostbench/Cargo.toml -- \
    --workload instrumented --seconds 1 --trace 0 > target/HOSTBENCH_instrumented.txt
tail -n 1 target/HOSTBENCH_instrumented.txt | grep -q '"correct": true' || {
    echo "hostbench instrumented: a cell disagrees with hostbench/outcomes.tsv" >&2
    exit 1
}

echo "==> bench gate (simprof vs BENCH_simprof.json, simperf vs BENCH_simperf.json, simaudit vs MATRIX_simaudit.txt, simscale vs BENCH_scale.json)"
scripts/bench_gate.sh

echo "==> ci.sh: all green"
