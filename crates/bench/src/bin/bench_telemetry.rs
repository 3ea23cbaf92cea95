//! Numeric acceptance bench for the binary telemetry protocol. Measures:
//!
//! 1. **Encode throughput** — ≥1M mixed events through the binary wire
//!    path (reported as events/s; no bar).
//! 2. **End-to-end overhead** — a fig7-scale drug-screening run with a
//!    live recorder vs a disabled one; the enabled run must stay within
//!    5% wall time while emitting ≥1M events (the workload is scaled up
//!    until it does).
//!
//! Writes `BENCH_telemetry.json` with both measurements. Invoked by
//! `scripts/bench_telemetry.sh`. Flags:
//!
//! * `--out <path>`   output JSON path (default `BENCH_telemetry.json`)
//! * `--quick`        fewer repetitions (smoke mode for CI)

use lfm_bench::emit_mixed;
use lfm_core::prelude::*;
use lfm_core::telemetry::Recorder;
use lfm_core::workloads::drug;
use std::io::Write as _;
use std::time::Instant;

const ENCODE_EVENTS: u64 = 1_200_000;

/// Best-of-N wall time for `f`, which returns the number of events it
/// processed (so the caller can turn time into throughput).
fn best_of<F: FnMut() -> u64>(reps: usize, mut f: F) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut events = 0;
    for _ in 0..reps {
        let t = Instant::now();
        events = f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    (best, events)
}

fn encode_bench(reps: usize) -> f64 {
    let (binary_secs, _) = best_of(reps, || {
        let r = Recorder::enabled();
        emit_mixed(&r, ENCODE_EVENTS);
        // Drop buffers without decoding: this measures pure emission.
        ENCODE_EVENTS
    });
    binary_secs
}

/// Per-shard capacity for the instrumented arms: the simulation is
/// single-threaded, so every record lands in one shard, and a ≥1M-event
/// run must not hit the drop path (that would undercount the work).
const SHARD_CAP: usize = 4_000_000;

/// One fig7-style run; returns (wall seconds, events recorded).
fn run_drug(batches: u64, recorder: &Recorder) -> (f64, u64) {
    let workload = drug::build(batches, 1234);
    let config = drug::master_config(Strategy::Auto(AutoConfig::default()), 1234)
        .with_telemetry(recorder.clone());
    let t = Instant::now();
    let report = run_workload(&config, workload.tasks, 14, drug::worker_spec());
    let wall = t.elapsed().as_secs_f64();
    assert_eq!(report.abandoned_tasks, 0);
    assert_eq!(recorder.dropped(), 0, "shard capacity too small for run");
    let events = recorder.take().len() as u64;
    (wall, events)
}

fn overhead_bench(reps: usize) -> (f64, f64, u64) {
    // Calibrate events/batch on a small run, then jump straight to a
    // workload sized to emit ≥1M events (with ~10% headroom).
    const CAL_BATCHES: u64 = 100;
    let r = Recorder::enabled_with_capacity(SHARD_CAP);
    let (_, cal_events) = run_drug(CAL_BATCHES, &r);
    let mut batches = (1_100_000 * CAL_BATCHES).div_ceil(cal_events);
    let events = loop {
        let r = Recorder::enabled_with_capacity(SHARD_CAP);
        let (_, events) = run_drug(batches, &r);
        if events >= 1_000_000 {
            break events;
        }
        batches = batches * 5 / 4;
    };
    eprintln!("  overhead workload: {batches} batches, {events} events/run");

    let mut disabled_best = f64::INFINITY;
    let mut enabled_best = f64::INFINITY;
    // Interleave so machine drift hits both arms equally.
    for _ in 0..reps {
        let (d, _) = run_drug(batches, &Recorder::disabled());
        disabled_best = disabled_best.min(d);
        let r = Recorder::enabled_with_capacity(SHARD_CAP);
        let (e, _) = run_drug(batches, &r);
        enabled_best = enabled_best.min(e);
    }
    (disabled_best, enabled_best, events)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = String::from("BENCH_telemetry.json");
    let mut quick = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out_path = it.next().expect("--out needs a path").clone(),
            "--quick" => quick = true,
            other => panic!("unknown flag {other:?} (expected --out <path> | --quick)"),
        }
    }
    let reps = if quick { 2 } else { 5 };

    eprintln!("encode throughput ({ENCODE_EVENTS} events, best of {reps}) ...");
    let binary_secs = encode_bench(reps);
    eprintln!(
        "  binary {:.1}M ev/s",
        ENCODE_EVENTS as f64 / binary_secs / 1e6
    );

    eprintln!("end-to-end overhead (fig7-scale, best of {reps}) ...");
    let (disabled_secs, enabled_secs, events) = overhead_bench(reps);
    let overhead_pct = (enabled_secs / disabled_secs - 1.0) * 100.0;
    eprintln!(
        "  disabled {disabled_secs:.3}s  enabled {enabled_secs:.3}s  overhead {overhead_pct:.2}%"
    );

    let json = format!(
        "{{\n  \"bench\": \"telemetry\",\n  \"encode\": {{\n    \"events\": {ENCODE_EVENTS},\n    \
         \"binary_secs\": {binary_secs:.6},\n    \
         \"binary_events_per_sec\": {:.1}\n  }},\n  \"overhead\": {{\n    \"events_per_run\": {events},\n    \
         \"disabled_secs\": {disabled_secs:.6},\n    \"enabled_secs\": {enabled_secs:.6},\n    \
         \"overhead_pct\": {overhead_pct:.3}\n  }}\n}}\n",
        ENCODE_EVENTS as f64 / binary_secs,
    );
    let mut f = std::fs::File::create(&out_path).expect("create output file");
    f.write_all(json.as_bytes()).expect("write output file");
    println!("wrote {out_path}");

    assert!(
        overhead_pct < 5.0,
        "telemetry overhead {overhead_pct:.2}% exceeds the 5% budget"
    );
    println!("telemetry bench: OK ({overhead_pct:.2}% overhead)");
}
