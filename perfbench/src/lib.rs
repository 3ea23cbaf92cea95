//! Host-time benchmark of the LFM stack.
//!
//! One command runs one seeded workload against `lfm-core`'s public API,
//! checks its outputs, and prints either the end-to-end metrics (untraced
//! run) or the per-layer metrics (traced run). See `README.md` beside this
//! crate for the workloads, the prediction table and how to read the trace.

pub mod host;
pub mod metrics;
pub mod spans;
pub mod workloads;

use std::time::{Duration, Instant};

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 2021;
/// Seed kept out of tuning: a claimed gain must also hold on it.
pub const HELD_OUT_SEED: u64 = 7919;

/// How large a workload's inputs are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's own size.
    Full,
    /// A few seconds at most: the benchmark's tests.
    Smoke,
}

/// What one invocation of the benchmark was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub seed: u64,
    /// Measuring budget; repetitions stop once it is spent.
    pub budget: Duration,
    /// Per-layer run (benchmark spans on) instead of the end-to-end run.
    pub trace: bool,
    pub scale: Scale,
}

/// Call `rep` until `budget` has elapsed, at least `min_reps` times.
pub fn repeat_for(budget: Duration, min_reps: usize, mut rep: impl FnMut()) {
    let start = Instant::now();
    let mut n = 0;
    while n < min_reps || start.elapsed() < budget {
        rep();
        n += 1;
    }
}

/// Time one call in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}
