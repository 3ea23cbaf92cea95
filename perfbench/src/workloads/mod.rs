//! The four workloads. Each builds its inputs from the seed, runs them
//! against `lfm-core`'s public API for the time budget, checks every
//! output, and fills either the end-to-end or the per-layer metrics.

pub mod dispatch;
pub mod lifecycle;
pub mod pipeline;
pub mod serving;

use crate::host::{HostClock, REFERENCE_SECS};
use crate::metrics::{digest, median, peak_rss_mb, tail, Checks, Values};
use crate::spans::Tracer;
use crate::RunConfig;
use lfm_core::workqueue::master::RunReport;
use std::collections::BTreeSet;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: &[&str] = &["dispatch", "pipeline", "serving", "lifecycle"];

/// What one run of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub checks: Checks,
    pub values: Values,
    /// Human-readable lines printed before the result line.
    pub details: Vec<String>,
}

/// Run workload `name`; `None` if there is no such workload.
pub fn run(name: &str, cfg: &RunConfig) -> Option<Outcome> {
    Some(match name {
        "dispatch" => dispatch::run(cfg),
        "pipeline" => pipeline::run(cfg),
        "serving" => serving::run(cfg),
        "lifecycle" => lifecycle::run(cfg),
        _ => return None,
    })
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 21;

/// Build the inputs [`SETUPS`] times, each inside a `setup` span and timed
/// by `clock`; returns the last build and every build's scaled seconds.
pub(crate) fn set_up<T>(
    tracer: &Tracer,
    clock: &mut HostClock,
    mut build: impl FnMut() -> T,
) -> (T, Vec<f64>) {
    let mut secs = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        let (inputs, s) = clock.scaled(|| tracer.within("setup", &mut build));
        secs.push(s);
        last = Some(inputs);
    }
    (last.expect("at least one set-up"), secs)
}

/// What the untraced run records of each repetition.
#[derive(Debug, Default)]
pub(crate) struct Reps {
    /// Seconds, scaled to the reference host speed where the workload is
    /// CPU-bound.
    pub secs: Vec<f64>,
    /// Wall seconds.
    pub wall_secs: Vec<f64>,
    /// Peak resident memory during the repetition, in MB.
    pub peaks_mb: Vec<f64>,
}

impl Reps {
    /// Record a repetition that just ended: its scaled and wall seconds,
    /// and the peak resident memory since the peak was last reset.
    pub fn push(&mut self, secs: f64, wall_secs: f64) {
        self.secs.push(secs);
        self.wall_secs.push(wall_secs);
        self.peaks_mb.push(peak_rss_mb());
    }
}

/// Fill the end-to-end metrics: `ops_per_rep` operations per repetition,
/// the seconds of every timed call, and the scaled set-up seconds. The
/// repetitions' wall seconds and `clock`'s reference times go into the
/// details only.
pub(crate) fn end_to_end(
    out: &mut Outcome,
    ops_per_rep: f64,
    reps: &Reps,
    call_secs: &[f64],
    setup_secs: &[f64],
    clock: &HostClock,
) {
    let ms: Vec<f64> = call_secs.iter().map(|s| s * 1e3).collect();
    let t = tail(&ms);
    let v = &mut out.values;
    v.set("ops_per_s", ops_per_rep / median(&reps.secs));
    v.set("call_ms.p50", median(&ms));
    v.set("call_ms.tail", t.value);
    v.set("peak_rss_mb", median(&reps.peaks_mb));
    v.set("setup_s", median(setup_secs));
    out.details.push(format!(
        "call_ms.tail is p{:.1} of {} calls; {} repetitions; failed_frac {}",
        t.percentile,
        t.samples,
        reps.secs.len(),
        out.checks.failed_frac()
    ));
    let calls: Vec<String> = ms.iter().map(|m| format!("{m:.1}")).collect();
    out.details.push(format!("call_ms: {}", calls.join(" ")));
    let reference_ms: Vec<f64> = clock.reference_secs.iter().map(|s| s * 1e3).collect();
    let listed: Vec<String> = reference_ms.iter().map(|m| format!("{m:.2}")).collect();
    out.details.push(format!(
        "reference_ms (set-ups first): {}",
        listed.join(" ")
    ));
    out.details.push(format!(
        "unscaled: ops_per_s {:.1}, rep_ms.p50 {:.1}; reference kernel ms p50 {:.2} (scaled to {:.0}); peak_rss_mb max {:.2}",
        ops_per_rep / median(&reps.wall_secs),
        median(&reps.wall_secs) * 1e3,
        median(&reference_ms),
        REFERENCE_SECS * 1e3,
        reps.peaks_mb.iter().copied().fold(0.0, f64::max),
    ));
}

/// `trace.overhead_frac`: median traced repetition over median untraced
/// repetition, minus one.
pub(crate) fn overhead(out: &mut Outcome, traced_secs: &[f64], untraced_secs: &[f64]) {
    out.values.set(
        "trace.overhead_frac",
        median(traced_secs) / median(untraced_secs) - 1.0,
    );
}

/// Check a master run of `submitted` tasks: every task reached a terminal
/// state and completed, none was abandoned, the report counts every task,
/// and its `summary_json` digest equals `reference` (set from the first
/// run checked). Tasks that did not complete count as failed.
pub fn check_master_run(
    checks: &mut Checks,
    report: &RunReport,
    submitted: u64,
    reference: &mut Option<String>,
) {
    let completed: BTreeSet<u64> = report
        .results
        .iter()
        .filter(|r| r.outcome.is_success())
        .map(|r| r.task.0)
        .collect();
    let completed = completed.len() as u64;
    checks.attempt(submitted, submitted.saturating_sub(completed));
    checks.expect(report.task_count as u64 == submitted, || {
        format!("task_count {} != submitted {submitted}", report.task_count)
    });
    checks.expect(report.abandoned_tasks == 0, || {
        format!("{} tasks abandoned", report.abandoned_tasks)
    });
    checks.expect(completed == submitted, || {
        format!("{completed} of {submitted} tasks completed")
    });
    check_digest(checks, &report.summary_json(), reference);
}

/// Check that `summary` digests to `reference`, or make it the reference.
pub(crate) fn check_digest(checks: &mut Checks, summary: &str, reference: &mut Option<String>) {
    let d = digest(summary);
    match reference {
        None => *reference = Some(d),
        Some(r) => {
            checks.expect(*r == d, || format!("summary digest {d} != reference {r}"));
        }
    }
}
