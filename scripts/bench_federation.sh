#!/usr/bin/env bash
# End-to-end scheduler throughput vs shard count for the federated master:
# runs the same 100k-task workload under 1/2/4/8 foreman shards and writes
# BENCH_federation.json at the repo root (tasks/sec = tasks / driver wall
# time, per-shard walls and rates, steal and handoff counts, speedup vs 1
# shard as a ratio of driver walls). Pass --quick for a 20k-task smoke
# run over 1,2,4 shards, or --tasks 1000000 for the paper-scale sweep.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline -p lfm-bench --bin bench_federation
exec target/release/bench_federation --out BENCH_federation.json "$@"
