//! `dispatch`: independent 1-core tasks shaped like
//! `sched_bench::bench_tasks` on 256 × 16-core workers (Auto labels,
//! Indexed scheduler), all submitted at t=0 with pending work far above the
//! 4,096 slots. Journal, faults and telemetry are off, so nearly all host
//! time is the simulation calendar and the work queue's dispatch path.

use super::{check_master_run, end_to_end, overhead, set_up, Outcome, Reps};
use crate::host::{scale, HostClock};
use crate::metrics::Values;
use crate::spans::{Tracer, REP};
use crate::{repeat_for, timed, RunConfig, Scale};
use lfm_bench::sched_bench::{bench_config, bench_tasks};
use lfm_core::simcluster::node::NodeSpec;
use lfm_core::simcluster::rng::SimRng;
use lfm_core::simcluster::time::SimTime;
use lfm_core::telemetry::{MetricsRegistry, Record, Recorder};
use lfm_core::workqueue::master::{run_workload, MasterConfig, RunReport};
use lfm_core::workqueue::sched::SchedImpl;
use lfm_core::workqueue::streaming::StreamingMaster;
use lfm_core::workqueue::task::TaskSpec;

pub const WORKERS: u32 = 256;
/// Simulated seconds per `run_until` slice in the traced run.
const SLICE_SECS: f64 = 2.0;

pub fn node() -> NodeSpec {
    NodeSpec::new(16, 64 * 1024, 128 * 1024)
}

fn task_count(scale: Scale) -> u64 {
    match scale {
        Scale::Full => 12_500,
        Scale::Smoke => 2_000,
    }
}

/// `bench_tasks(n, true)` with each duration scaled by a seeded factor in
/// [0.8, 1.25).
pub fn inputs(n: u64, seed: u64) -> Vec<TaskSpec> {
    let mut rng = SimRng::seeded(seed);
    let mut tasks = bench_tasks(n, true);
    for t in &mut tasks {
        t.profile.duration_secs *= rng.uniform(0.8, 1.25);
    }
    tasks
}

pub fn config(seed: u64) -> MasterConfig {
    bench_config(SchedImpl::Indexed).with_seed(seed)
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let tracer = Tracer::new(cfg.trace);
    let mut clock = HostClock::new();
    let n = task_count(cfg.scale);
    let (tasks, setup_secs) = set_up(&tracer, &mut clock, || inputs(n, cfg.seed));
    let master = config(cfg.seed);
    let mut out = Outcome::default();
    let mut reference = None;

    let batch = |out: &mut Outcome, reference: &mut Option<String>| {
        let (report, secs) = timed(|| run_workload(&master, tasks.clone(), WORKERS, node()));
        check_master_run(&mut out.checks, &report, n, reference);
        secs
    };

    if !cfg.trace {
        let mut reps = Reps::default();
        repeat_for(cfg.budget, 1, || {
            let reference_secs = clock.measure();
            let s = batch(&mut out, &mut reference);
            reps.push(scale(s, reference_secs), s);
        });
        end_to_end(&mut out, n as f64, &reps, &reps.secs, &setup_secs, &clock);
        out.details
            .push(format!("digest {}", reference.unwrap_or_default()));
        return out;
    }

    // Traced: streamed submission at t=0 and fixed run_until slices,
    // alternating with untraced batch runs of the same inputs.
    let mut untraced = Vec::new();
    let mut slices = Quartiles::default();
    let mut pending_peak = 0usize;
    let mut last = None;
    repeat_for(cfg.budget, 1, || {
        untraced.push(timed(|| batch(&mut out, &mut reference)).1);
        let rep = tracer.span(REP);
        let report = streamed(&tracer, &master, &tasks, &mut slices, &mut pending_peak);
        tracer.within("check", || {
            check_master_run(&mut out.checks, &report, n, &mut reference)
        });
        drop(rep);
        last = Some(report);
    });
    let shares = tracer.shares();
    shares.record(&mut out.values);
    overhead(&mut out, shares.root_secs(REP), &untraced);
    let report = last.expect("at least one traced repetition");
    let reps = shares.root_secs(REP).len() as f64;
    let run_until_secs = shares
        .self_ms
        .get("workqueue.run_until")
        .copied()
        .unwrap_or(0.0)
        / 1e3;
    let counts = count_events(&master, &tasks);
    record_master(&mut out.values, &report, &counts, run_until_secs / reps);
    let v = &mut out.values;
    v.set("workqueue.us_per_task.q1", slices.us_per_task(0));
    v.set("workqueue.us_per_task.q4", slices.us_per_task(3));
    v.set(
        "workqueue.cost_growth",
        slices.us_per_task(3) / slices.us_per_task(0),
    );
    v.set("workqueue.pending.peak", pending_peak as f64);
    out.details.push(format!(
        "us_per_task by completion quartile: {:.1} {:.1} {:.1} {:.1}",
        slices.us_per_task(0),
        slices.us_per_task(1),
        slices.us_per_task(2),
        slices.us_per_task(3)
    ));
    out.details
        .push(format!("digest {}", reference.unwrap_or_default()));
    out
}

/// One traced streaming run: submit everything at t=0, then advance in
/// fixed simulated slices until every task is terminal.
fn streamed(
    tracer: &Tracer,
    master: &MasterConfig,
    tasks: &[TaskSpec],
    slices: &mut Quartiles,
    pending_peak: &mut usize,
) -> RunReport {
    let mut m = tracer.within("workqueue.submit", || {
        let mut m =
            StreamingMaster::new(master, WORKERS, node()).expect("an unsharded master streams");
        m.submit(SimTime::ZERO, tasks.to_vec());
        m
    });
    let total = tasks.len();
    let mut horizon = 0.0;
    let mut rep_slices = Vec::new();
    while m.completed() < total && m.next_time().is_some() {
        horizon += SLICE_SECS;
        let before = m.completed();
        let (_, secs) = timed(|| {
            tracer.within("workqueue.run_until", || {
                m.run_until(SimTime::from_secs(horizon))
            })
        });
        *pending_peak = (*pending_peak).max(m.queued());
        rep_slices.push((m.completed() - before, secs));
    }
    slices.add(total, &rep_slices);
    tracer.within("workqueue.finish", || m.finish())
}

/// Host time per completed task, by quartile of completions.
#[derive(Debug, Default)]
struct Quartiles {
    secs: [f64; 4],
    tasks: [u64; 4],
}

impl Quartiles {
    /// Add one run's `(completions, host seconds)` slices. A slice belongs
    /// to the quartile its middle completion falls in.
    fn add(&mut self, total: usize, slices: &[(usize, f64)]) {
        let mut done = 0usize;
        for &(n, secs) in slices {
            let mid = done as f64 + n as f64 / 2.0;
            let q = ((4.0 * mid / total as f64) as usize).min(3);
            self.secs[q] += secs;
            self.tasks[q] += n as u64;
            done += n;
        }
    }

    fn us_per_task(&self, q: usize) -> f64 {
        self.secs[q] * 1e6 / self.tasks[q].max(1) as f64
    }
}

/// Counts the master reports through its telemetry, from one extra
/// untimed run with telemetry on (telemetry on and off runs are
/// bitwise-identical).
pub(super) struct EventCounts {
    /// Sum of the `event.*` counters.
    events: u64,
    /// `dispatch` instants.
    dispatches: u64,
}

impl EventCounts {
    pub(super) fn from_registry(reg: &MetricsRegistry, dispatches: u64) -> Self {
        let events = reg
            .counter_names()
            .filter(|n| n.starts_with("event."))
            .map(|n| reg.counter(n))
            .sum();
        EventCounts { events, dispatches }
    }
}

/// Whether `r` is one of the master's `dispatch` instants.
pub(super) fn is_dispatch(r: &Record) -> bool {
    matches!(r, Record::Instant(i) if i.name == "dispatch")
}

fn count_events(master: &MasterConfig, tasks: &[TaskSpec]) -> EventCounts {
    let rec = Recorder::enabled_with_capacity(1 << 24);
    let cfg = master.clone().with_telemetry(rec.clone());
    run_workload(&cfg, tasks.to_vec(), WORKERS, node());
    assert_eq!(rec.dropped(), 0, "counting recorder too small for the run");
    let records = rec.take();
    let dispatches = records.iter().filter(|r| is_dispatch(r)).count() as u64;
    EventCounts::from_registry(&MetricsRegistry::from_records(&records), dispatches)
}

/// Per-layer counters of a master run: `run_secs` is host time in the
/// master per repetition.
pub(super) fn record_master(
    v: &mut Values,
    report: &RunReport,
    counts: &EventCounts,
    run_secs: f64,
) {
    let tasks = report.task_count.max(1) as f64;
    let lookups = (report.cache_hits + report.cache_misses).max(1) as f64;
    v.set("workqueue.dispatches", counts.dispatches as f64);
    v.set("workqueue.retries", report.retried_tasks as f64);
    v.set(
        "workqueue.cache_hit_ratio",
        report.cache_hits as f64 / lookups,
    );
    v.set("simcluster.events", counts.events as f64);
    v.set("simcluster.events_per_task", counts.events as f64 / tasks);
    v.set(
        "simcluster.ns_per_event",
        run_secs * 1e9 / counts.events.max(1) as f64,
    );
    v.set("journal.bytes", report.journal_bytes as f64);
    v.set("journal.bytes_per_op", report.journal_bytes as f64 / tasks);
    v.set("journal.replayed_events", report.replayed_events as f64);
    v.set("journal.recoveries", report.recoveries as f64);
}
