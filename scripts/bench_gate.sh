#!/usr/bin/env bash
# One bench gate over the four committed baselines. Each binary re-measures,
# renders its fresh run in its baseline's format and hands both to
# bench::report::gate, which lists every row past its bound. Rows:
#
#   simprof  BENCH_simprof.json   run period/scale/engine: exact
#                                 <workload>/<interposer> instructions, samples: band ±10%
#                                 <workload>/<interposer> dropped_events: criterion = 0
#   simperf  BENCH_simperf.json   <guest> iterations, instructions: exact
#                                 <block|trace engine> inst_per_sec: floor 50%
#                                 obs dropped_events: criterion = 0
#                                 determinism identical: criterion = true
#   simaudit MATRIX_simaudit.txt  <mechanism>/<workload> coverage_permille: floor 0%
#   simscale BENCH_scale.json     K23-default c=<max> epoll_over_poll: criterion >= 5
#                                 epoll/K23-default c=<min> throughput_per_gcycle
#                                 (re-measured): floor 20%
#
# Refresh the baselines after an intentional change with:
#   cargo run --release -q -p bench --bin simprof
#   cargo run --release -q -p bench --bin simperf -- --json BENCH_simperf.json
#   cargo run --release -q -p bench --bin simaudit -- --out MATRIX_simaudit.txt
#   cargo run --release -p bench --bin simscale -- --json BENCH_scale.json
set -euo pipefail
cd "$(dirname "$0")/.."
status=0
for pair in simprof:BENCH_simprof.json simperf:BENCH_simperf.json \
            simaudit:MATRIX_simaudit.txt simscale:BENCH_scale.json; do
    cargo run --release -q -p bench --bin "${pair%%:*}" -- --gate "${pair#*:}" || status=1
done
exit "$status"
