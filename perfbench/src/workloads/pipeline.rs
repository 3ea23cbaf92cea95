//! `pipeline`: the fig7 drug-screening DAG (`workloads::drug::build`,
//! dataflow-lowered, environments analyzed by `pyenv`) on 14 workers under
//! Auto, with a write-ahead journal (no snapshots) and a few seeded master
//! crashes. Program telemetry is on and drained live by one tailer thread.

use super::dispatch::{is_dispatch, record_master, EventCounts};
use super::{check_master_run, end_to_end, overhead, set_up, Outcome, Reps};
use crate::host::{scale, HostClock};
use crate::spans::{Tracer, REP};
use crate::{repeat_for, timed, RunConfig, Scale};
use lfm_core::telemetry::{MetricsRegistry, Recorder, TailCursor};
use lfm_core::workloads::drug;
use lfm_core::workqueue::allocate::{AutoConfig, Strategy};
use lfm_core::workqueue::faults::{FaultPlan, FaultSpec};
use lfm_core::workqueue::journal::DurabilityConfig;
use lfm_core::workqueue::master::{run_workload, MasterConfig, RunReport};
use lfm_core::workqueue::task::TaskSpec;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const WORKERS: u32 = 14;
/// Master crashes injected per run, at most.
const CRASHES: u32 = 3;
/// How long the tailer sleeps between drains.
const TAIL_PERIOD: Duration = Duration::from_millis(2);

/// Molecule batches (six tasks each).
fn batches(scale: Scale) -> u64 {
    match scale {
        Scale::Full => 2_000,
        Scale::Smoke => 40,
    }
}

fn config(seed: u64, tasks: usize, telemetry: Recorder) -> MasterConfig {
    // Crashing on average every `tasks / 8` processed events makes every
    // crash land inside the run.
    let crashes = FaultSpec::master_crash((tasks as f64 / 8.0).max(1.0), CRASHES).with_seed(seed);
    drug::master_config(Strategy::Auto(AutoConfig::default()), seed)
        .with_durability(DurabilityConfig::journal_only())
        .with_faults(FaultPlan::reliable().with(crashes))
        .with_telemetry(telemetry)
}

/// What the tailer saw of one run's telemetry stream.
#[derive(Debug, Default)]
struct TailStats {
    records: u64,
    dispatches: u64,
    drain_secs: f64,
    drain_calls: u64,
    buffered_peak: usize,
    dropped: u64,
    metrics: MetricsRegistry,
}

impl TailStats {
    fn drain(&mut self, rec: &Recorder, cursor: &mut TailCursor, last: bool) {
        self.buffered_peak = self.buffered_peak.max(rec.buffered_bytes());
        let (batch, secs) = timed(|| {
            if last {
                rec.finish_tail(cursor)
            } else {
                rec.drain_since(cursor)
            }
        });
        self.drain_secs += secs;
        self.drain_calls += 1;
        self.dropped += batch.dropped_delta;
        self.records += batch.records.len() as u64;
        for r in &batch.records {
            self.dispatches += is_dispatch(r) as u64;
            self.metrics.observe_record(r);
        }
    }
}

/// One run with a live tailer: returns the report, the tail and the host
/// seconds of the `run_workload` call.
fn run_tailed(tracer: &Tracer, seed: u64, tasks: &[TaskSpec]) -> (RunReport, TailStats, f64) {
    let rec = Recorder::enabled();
    let master = config(seed, tasks.len(), rec.clone());
    let mut cursor = rec.cursor();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let tailer = s.spawn(|| {
            let mut tail = TailStats::default();
            while !stop.load(Ordering::SeqCst) {
                tail.drain(&rec, &mut cursor, false);
                std::thread::sleep(TAIL_PERIOD);
            }
            tail.drain(&rec, &mut cursor, true);
            tail
        });
        let start = Instant::now();
        let report = tracer.within("workqueue.run", || {
            run_workload(&master, tasks.to_vec(), WORKERS, drug::worker_spec())
        });
        let secs = start.elapsed().as_secs_f64();
        stop.store(true, Ordering::SeqCst);
        let tail = tailer.join().expect("tailer thread panicked");
        (report, tail, secs)
    })
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let tracer = Tracer::new(cfg.trace);
    let mut clock = HostClock::new();
    let (workload, setup_secs) = set_up(&tracer, &mut clock, || {
        drug::build(batches(cfg.scale), cfg.seed)
    });
    let tasks = workload.tasks;
    let n = tasks.len() as u64;
    let mut out = Outcome::default();
    let mut reference = None;
    let untraced_tracer = Tracer::new(false);

    if !cfg.trace {
        let mut reps = Reps::default();
        repeat_for(cfg.budget, 3, || {
            let reference_secs = clock.measure();
            let (report, _, s) = run_tailed(&untraced_tracer, cfg.seed, &tasks);
            check_master_run(&mut out.checks, &report, n, &mut reference);
            reps.push(scale(s, reference_secs), s);
        });
        end_to_end(&mut out, n as f64, &reps, &reps.secs, &setup_secs, &clock);
        out.details
            .push(format!("digest {}", reference.unwrap_or_default()));
        return out;
    }

    let mut untraced = Vec::new();
    let mut last = None;
    repeat_for(cfg.budget, 1, || {
        let (_, secs) = timed(|| {
            let (report, _, _) = run_tailed(&untraced_tracer, cfg.seed, &tasks);
            check_master_run(&mut out.checks, &report, n, &mut reference);
        });
        untraced.push(secs);
        let rep = tracer.span(REP);
        let (report, tail, _) = run_tailed(&tracer, cfg.seed, &tasks);
        tracer.within("check", || {
            check_master_run(&mut out.checks, &report, n, &mut reference)
        });
        drop(rep);
        last = Some((report, tail));
    });
    let shares = tracer.shares();
    shares.record(&mut out.values);
    overhead(&mut out, shares.root_secs(REP), &untraced);
    let (report, tail) = last.expect("at least one traced repetition");
    let reps = shares.root_secs(REP).len() as f64;
    let run_secs = shares.self_ms.get("workqueue.run").copied().unwrap_or(0.0) / 1e3;
    let counts = EventCounts::from_registry(&tail.metrics, tail.dispatches);
    record_master(&mut out.values, &report, &counts, run_secs / reps);
    let v = &mut out.values;
    v.set("telemetry.records", tail.records as f64);
    v.set("telemetry.drain_ms", tail.drain_secs * 1e3);
    v.set("telemetry.drain_calls", tail.drain_calls as f64);
    v.set("telemetry.buffered_bytes.peak", tail.buffered_peak as f64);
    v.set("telemetry.dropped", tail.dropped as f64);
    out.details
        .push(format!("digest {}", reference.unwrap_or_default()));
    out
}
