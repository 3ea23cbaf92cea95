#!/usr/bin/env bash
# Tier-1 verification gate: release build, full test suite, and lint-clean
# clippy. The workspace vendors all external dependencies under vendor/, so
# everything runs with --offline (no registry, no network).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "==> cargo build --release"
cargo build --release --offline

echo "==> cargo test -q"
cargo test -q --offline

echo "==> scheduler seed-equivalence suite"
cargo test -q --offline -p lfm-integration-tests --test sched_equivalence

echo "==> dispatch scaling (exact indexed pick and label, flat scan counters)"
cargo test -q --offline -p lfm-workqueue --lib -- pick_worker_matches_brute_force_scan \
    choose_label_matches_brute_force_cost dispatch_scan_cost_is_flat
sched_json="$(mktemp)"
cargo run -q --release --offline -p lfm-bench --bin bench_sched -- --quick --out "$sched_json"
rm -f "$sched_json"

echo "==> chaos suite (fault injection + resilience invariants)"
cargo test -q --offline -p lfm-workqueue chaos
cargo test -q --offline -p lfm-integration-tests --test sched_equivalence fault_plan

echo "==> federation suite (1-shard bitwise equivalence + N-shard conservation)"
cargo test -q --offline -p lfm-workqueue federation
cargo test -q --offline -p lfm-integration-tests --test federation_equivalence

echo "==> crash-recovery suite (journal, snapshots, restore equivalence)"
cargo test -q --offline -p lfm-workqueue --lib -- journal recover probe_restore \
    crash quarantine_release
cargo test -q --offline -p lfm-integration-tests --test sched_equivalence master_crash

echo "==> serving suite (streaming equivalence, gateway, sketch accuracy)"
cargo test -q --offline -p lfm-workqueue streaming
cargo test -q --offline -p lfm-simcluster sparse_histogram
cargo test -q --offline -p lfm-serving
cargo test -q --offline -p lfm-integration-tests --test serving_gateway

echo "==> telemetry suite (binary protocol, byte-stable traces, perfetto)"
cargo test -q --offline -p lfm-telemetry
cargo test -q --offline -p lfm-integration-tests --test telemetry_trace
cargo test -q --offline -p lfm-integration-tests --test telemetry_binary
cargo test -q --offline -p lfm-integration-tests --test perfetto_trace
cargo build --release --offline -p lfm-bench --bin bench_telemetry

echo "==> serving-recovery suite (journaled gateway, alert-driven control)"
cargo test -q --offline -p lfm-workqueue --lib -- streaming::tests::crashed \
    streaming::tests::journaled streaming::tests::probe_restore
cargo test -q --offline -p lfm-serving --lib -- crash control conserved
cargo test -q --offline -p lfm-integration-tests --test serving_recovery
cargo build --release --offline -p lfm-bench --bin bench_serving_recovery

echo "==> tail suite (live tailing, SLO burn-rate alerts, stream export)"
cargo test -q --offline -p lfm-telemetry tail
cargo test -q --offline -p lfm-telemetry slo
cargo test -q --offline -p lfm-serving slo
cargo test -q --offline -p lfm-bench
cargo test -q --offline -p lfm-integration-tests --test telemetry_tail
cargo build --release --offline -p lfm-bench --bin bench_tail

echo "==> benchmark crate (outside the workspace: API drift, unchanged lockfile)"
cargo test --release --offline --locked --manifest-path perfbench/Cargo.toml

echo "==> cargo bench --no-run"
cargo bench --no-run --offline

echo "==> cargo doc --no-deps (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace --quiet

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "verify: OK"
