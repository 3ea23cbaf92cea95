#!/usr/bin/env bash
# Dispatch-throughput before/after for the indexed scheduler: runs the same
# workloads under the reference matcher and the indexed scheduler and writes
# BENCH_sched.json at the repo root (tasks/sec + makespan wall time per
# config), plus indexed-only rows at 12.5k-100k tasks x 256 workers with
# microseconds per task and growth against the smallest row. Pass --quick
# to skip the 10k-task configs and the scaling rows past 25k.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline -p lfm-bench --bin bench_sched
exec target/release/bench_sched --out BENCH_sched.json "$@"
