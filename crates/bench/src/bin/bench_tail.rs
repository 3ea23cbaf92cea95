//! Numeric acceptance bench for live telemetry tailing. Measures:
//!
//! 1. **Tail overhead** — a fig7-scale drug-screening run at ≥1M events
//!    with a live tailer draining the ring buffers while the run
//!    executes, vs the same instrumented run decoded post-hoc; live
//!    tailing must add < 2% wall time.
//! 2. **Stream identity** — the live-tailed merged stream must be
//!    record-identical (same multiset, same total order) to the post-hoc
//!    `take()` of an identically-seeded run.
//! 3. **Bounded memory** — the most one drain hands the tailer at once:
//!    the largest batch in records and the wire bytes it took from the
//!    rings. Both must stay under constant bounds independent of run
//!    length; a control tailer that drains only at the end of the run
//!    must fail the same check.
//! 4. **Alert latency** — a seeded serving overload run with SLO burn
//!    rules; the first page must fire during the arrival phase.
//!
//! Writes `BENCH_tail.json`. Invoked by `scripts/bench_tail.sh`. Flags:
//!
//! * `--out <path>`   output JSON path (default `BENCH_tail.json`)
//! * `--quick`        smaller workload + fewer repetitions (CI smoke)

use lfm_core::funcx::container::ActivationTech;
use lfm_core::monitor::sim::SimTaskProfile;
use lfm_core::prelude::*;
use lfm_core::simcluster::node::NodeSpec;
use lfm_core::telemetry::slo::{BurnWindow, Severity, SloConfig};
use lfm_core::telemetry::{Record, Recorder};
use lfm_core::workloads::drug;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Per-shard capacity for the instrumented arms: the simulation is
/// single-threaded, so every record lands in one shard, and the run must
/// not hit the drop path (dropped records would skew both arms).
const SHARD_CAP: usize = 4_000_000;

/// Most records one live drain may return. The tailer sleeps 10 ms
/// between drains; on a 2-core host the largest drains measured were
/// 30k–65k records. The bound leaves 2× headroom over that, while one
/// whole-run drain (≥200k records even under `--quick`) exceeds it.
const MAX_BATCH_RECORDS: usize = 1 << 17;
/// Most wire bytes one live drain may take from the rings: the same
/// batch at 32 bytes per record (the fig7 stream averages ~23).
const MAX_BATCH_BYTES: usize = MAX_BATCH_RECORDS * 32;

/// What the tailer thread saw over one run.
#[derive(Debug, Default, Clone, Copy)]
struct TailStats {
    records: u64,
    dropped: u64,
    polls: u64,
    /// Largest batch one drain returned, in records.
    peak_batch_records: usize,
    /// Wire bytes the largest-in-bytes drain took from the rings.
    peak_batch_bytes: usize,
}

impl TailStats {
    /// The bounded-memory bar: no single drain handed out more than the
    /// constant bounds, whatever the run length.
    fn bounded(&self) -> bool {
        self.peak_batch_records <= MAX_BATCH_RECORDS && self.peak_batch_bytes <= MAX_BATCH_BYTES
    }
}

/// One fig7-style run; returns wall seconds (workload only).
fn run_drug(batches: u64, recorder: &Recorder) -> f64 {
    let workload = drug::build(batches, 1234);
    let config = drug::master_config(Strategy::Auto(AutoConfig::default()), 1234)
        .with_telemetry(recorder.clone());
    let t = Instant::now();
    let report = run_workload(&config, workload.tasks, 14, drug::worker_spec());
    let wall = t.elapsed().as_secs_f64();
    assert_eq!(report.abandoned_tasks, 0);
    wall
}

/// Instrumented run decoded post-hoc: wall time includes the final
/// `take()` (the work the live tailer does concurrently instead).
fn run_posthoc(batches: u64) -> (f64, u64) {
    let r = Recorder::enabled_with_capacity(SHARD_CAP);
    let t = Instant::now();
    run_drug(batches, &r);
    assert_eq!(r.dropped(), 0, "shard capacity too small for run");
    let records = r.take();
    let wall = t.elapsed().as_secs_f64();
    (wall, records.len() as u64)
}

/// Instrumented run with a live tailer draining concurrently. `keep`
/// retains the drained records (for the identity check); the perf arms
/// pass `false` so the tailer only counts and discards. With `live`
/// false the tailer drains only once, after the run (the control arm of
/// the bounded-memory check).
fn run_tailed(batches: u64, keep: bool, live: bool) -> (f64, TailStats, Vec<Record>) {
    let r = Recorder::enabled_with_capacity(SHARD_CAP);
    let stop = Arc::new(AtomicBool::new(false));
    let tail_rec = r.clone();
    let tail_stop = Arc::clone(&stop);
    let handle = std::thread::spawn(move || {
        let mut cursor = tail_rec.cursor();
        let mut stats = TailStats::default();
        let mut kept = Vec::new();
        loop {
            let done = tail_stop.load(Ordering::Acquire);
            if !done && !live {
                std::thread::sleep(std::time::Duration::from_millis(10));
                continue;
            }
            let batch = if done {
                tail_rec.finish_tail(&mut cursor)
            } else {
                tail_rec.drain_since(&mut cursor)
            };
            stats.records += batch.records.len() as u64;
            stats.dropped += batch.dropped_delta;
            stats.polls += 1;
            stats.peak_batch_records = stats.peak_batch_records.max(batch.records.len());
            stats.peak_batch_bytes = stats.peak_batch_bytes.max(batch.bytes);
            if keep {
                kept.extend(batch.records);
            }
            if done {
                return (stats, kept);
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
    });
    let t = Instant::now();
    let wall_run = run_drug(batches, &r);
    stop.store(true, Ordering::Release);
    let (stats, kept) = handle.join().expect("tailer panicked");
    let wall = t.elapsed().as_secs_f64();
    let _ = wall_run;
    (wall, stats, kept)
}

/// Scale the workload until one run emits at least `target` events.
fn calibrate(target: u64) -> (u64, u64) {
    const CAL_BATCHES: u64 = 100;
    let (_, cal_events) = run_posthoc(CAL_BATCHES);
    let mut batches = (target * 11 / 10 * CAL_BATCHES).div_ceil(cal_events);
    loop {
        let (_, events) = run_posthoc(batches);
        if events >= target {
            return (batches, events);
        }
        batches = batches * 5 / 4;
    }
}

/// Seeded serving overload with live SLO tailing; returns the report.
fn alert_run(horizon_secs: f64) -> ServingReport {
    let node = NodeSpec::new(16, 64 * 1024, 100 * 1024);
    let profile = SimTaskProfile::new(0.5, 1.0, 1024, 256);
    let f = ServingFunction::synthetic(
        "classify",
        50 << 20,
        ActivationTech::Docker,
        profile,
        64 << 10,
    );
    let slo = SloConfig::new(0.95)
        .with_bucket_secs(1.0)
        .with_windows(vec![BurnWindow::new(5.0, 15.0, 2.0, Severity::Page)]);
    let cfg = ServingConfig::new(4, node)
        .with_seed(11)
        .with_horizon(horizon_secs)
        .with_tick(0.25)
        .with_admission(AdmissionConfig::new(512))
        .with_slo(slo);
    let tenants = vec![
        TenantConfig::new("flood", 1, ArrivalConfig::poisson(400.0)).with_max_queue_depth(128)
    ];
    ServingGateway::new(cfg, vec![f], tenants).run()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = String::from("BENCH_tail.json");
    let mut quick = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out_path = it.next().expect("--out needs a path").clone(),
            "--quick" => quick = true,
            other => panic!("unknown flag {other:?} (expected --out <path> | --quick)"),
        }
    }
    let reps = if quick { 3 } else { 5 };
    let target_events: u64 = if quick { 200_000 } else { 1_000_000 };
    // The 2% budget is defined at the full 1M-event scale, where the
    // tailer's fixed costs (thread spawn, ~1 poll per 10ms) amortize over
    // a multi-second run. The quick smoke run is ~25x shorter, so those
    // constants loom larger; it only guards against regressions.
    let budget_pct = if quick { 5.0 } else { 2.0 };

    eprintln!("calibrating workload to >= {target_events} events ...");
    let (batches, events) = calibrate(target_events);
    eprintln!("  {batches} batches, {events} events/run");

    eprintln!("live-tail overhead (best of {reps}, interleaved) ...");
    let mut posthoc_best = f64::INFINITY;
    let mut tailed_best = f64::INFINITY;
    let mut mem = TailStats::default();
    for _ in 0..reps {
        let (p, _) = run_posthoc(batches);
        posthoc_best = posthoc_best.min(p);
        let (t, stats, _) = run_tailed(batches, false, true);
        tailed_best = tailed_best.min(t);
        assert_eq!(stats.dropped, 0, "tailed run must not overflow");
        assert_eq!(stats.records, events, "tailer lost records");
        mem.polls = mem.polls.max(stats.polls);
        mem.peak_batch_records = mem.peak_batch_records.max(stats.peak_batch_records);
        mem.peak_batch_bytes = mem.peak_batch_bytes.max(stats.peak_batch_bytes);
    }
    let overhead_pct = (tailed_best / posthoc_best - 1.0) * 100.0;
    eprintln!(
        "  posthoc {posthoc_best:.3}s  tailed {tailed_best:.3}s  overhead {overhead_pct:.2}%"
    );

    eprintln!(
        "  peak drain {} records / {} bytes over {} polls",
        mem.peak_batch_records, mem.peak_batch_bytes, mem.polls
    );

    eprintln!("bounded-memory control (tailer drains only at the end) ...");
    let (_, end_only, _) = run_tailed(batches, false, false);
    assert_eq!(end_only.records, events, "control tailer lost records");
    eprintln!(
        "  one drain of {} records / {} bytes",
        end_only.peak_batch_records, end_only.peak_batch_bytes
    );

    eprintln!("stream identity (live vs post-hoc) ...");
    let (_, _, live) = run_tailed(batches, true, true);
    let r = Recorder::enabled_with_capacity(SHARD_CAP);
    run_drug(batches, &r);
    let posthoc = r.take();
    let identical = live == posthoc;
    eprintln!("  {} live records, identical: {identical}", live.len());

    eprintln!("alert latency (seeded serving overload) ...");
    let horizon = if quick { 10.0 } else { 20.0 };
    let report = alert_run(horizon);
    let fired_at = report.alerts.first().map(|a| a.fired_at_secs);
    eprintln!(
        "  {} alert(s), first fired at {:?} (horizon {horizon}s)",
        report.alerts.len(),
        fired_at
    );

    let json = format!(
        "{{\n  \"bench\": \"tail\",\n  \"overhead\": {{\n    \"events_per_run\": {events},\n    \
         \"posthoc_secs\": {posthoc_best:.6},\n    \"tailed_secs\": {tailed_best:.6},\n    \
         \"overhead_pct\": {overhead_pct:.3},\n    \"budget_pct\": {budget_pct:.1}\n  }},\n  \"identity\": {{\n    \
         \"records\": {},\n    \"identical\": {identical}\n  }},\n  \"memory\": {{\n    \
         \"polls\": {},\n    \"peak_batch_records\": {},\n    \
         \"bound_batch_records\": {MAX_BATCH_RECORDS},\n    \"peak_batch_bytes\": {},\n    \
         \"bound_batch_bytes\": {MAX_BATCH_BYTES},\n    \
         \"end_only_batch_records\": {},\n    \"end_only_batch_bytes\": {}\n  }},\n  \
         \"alert\": {{\n    \"horizon_secs\": {horizon},\n    \
         \"alerts\": {},\n    \"first_fired_at_secs\": {}\n  }}\n}}\n",
        live.len(),
        mem.polls,
        mem.peak_batch_records,
        mem.peak_batch_bytes,
        end_only.peak_batch_records,
        end_only.peak_batch_bytes,
        report.alerts.len(),
        fired_at.map_or("null".to_string(), |t| t.to_string()),
    );
    let mut f = std::fs::File::create(&out_path).expect("create output file");
    f.write_all(json.as_bytes()).expect("write output file");
    println!("wrote {out_path}");

    assert!(
        identical,
        "live-tailed stream diverged from post-hoc decode"
    );
    assert!(
        overhead_pct < budget_pct,
        "live tailing overhead {overhead_pct:.2}% exceeds the {budget_pct}% budget"
    );
    // Bounded memory: no live drain handed out more than the constant
    // bounds, and the check is able to fail — a tailer that waits for
    // the end of the run takes everything in one drain.
    assert!(
        mem.bounded(),
        "a live drain returned {} records / {} bytes, beyond the {MAX_BATCH_RECORDS}-record / \
         {MAX_BATCH_BYTES}-byte bound",
        mem.peak_batch_records,
        mem.peak_batch_bytes
    );
    assert!(
        !end_only.bounded(),
        "the end-only control passed the bounded-memory check, so the check cannot fail"
    );
    assert!(!report.alerts.is_empty(), "overload fired no SLO alert");
    let fired = fired_at.unwrap();
    assert!(
        fired < horizon,
        "alert fired at {fired}s, after the {horizon}s arrival phase"
    );
    println!(
        "tail bench: OK ({overhead_pct:.2}% overhead, {} records identical, alert at {fired:.1}s)",
        live.len()
    );
}
