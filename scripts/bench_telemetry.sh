#!/usr/bin/env bash
# Telemetry protocol acceptance bench: binary wire-path encode throughput
# (events/s, reported) and end-to-end fig7-scale overhead with ≥1M events
# per run (<5% bar). Writes BENCH_telemetry.json at the repo root and
# exits nonzero if the overhead bar is missed. Pass --quick for fewer
# repetitions (CI smoke mode).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline -p lfm-bench --bin bench_telemetry
exec target/release/bench_telemetry --out BENCH_telemetry.json "$@"
