#!/usr/bin/env bash
# Live-tailing acceptance bench: a fig7-scale run with a live tailer
# draining the ring buffers concurrently, vs an identical run decoded
# post-hoc (<2% overhead bar at ~1M events), plus stream identity,
# bounded tailer memory (largest single drain in records and bytes,
# against constant bounds that an end-only control drain must exceed),
# and SLO alert latency on a seeded overload.
# Writes BENCH_tail.json at the repo root and exits nonzero if any bar
# is missed. Pass --quick for a smaller workload (CI smoke mode; the
# overhead bar relaxes to 5% because fixed per-poll costs do not
# amortize over a sub-second run).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline -p lfm-bench --bin bench_tail
exec target/release/bench_tail --out BENCH_tail.json "$@"
