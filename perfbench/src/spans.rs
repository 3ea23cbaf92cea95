//! The benchmark's own spans, recorded around its calls into each layer as
//! `lfm_telemetry` wall spans, and their self times.
//!
//! Spans are opened only on the benchmark's main thread and nest by RAII,
//! so the recorder emits them in post-order: a span ends after all of its
//! children. Self time is a span's duration minus its direct children's.
//! Root spans partition the traced wall time: `setup`, one `rep` per
//! traced repetition (its self time is the unattributed remainder), and any
//! extra root a workload opens, such as `lfm.bare`.

use crate::metrics::{Values, PER_LAYER};
use lfm_core::telemetry::{Record, Recorder, WallSpan};
use std::collections::BTreeMap;

/// Name of the root span around one traced repetition.
pub const REP: &str = "rep";

/// Records the benchmark's spans, or nothing when disabled.
#[derive(Clone)]
pub struct Tracer {
    rec: Recorder,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            rec: if enabled {
                Recorder::enabled()
            } else {
                Recorder::disabled()
            },
        }
    }

    /// Open a span; it records itself when dropped.
    pub fn span(&self, name: &str) -> WallSpan {
        self.rec.wall_span(name, "perfbench")
    }

    /// Run `f` inside a span named `name`.
    pub fn within<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let _span = self.span(name);
        f()
    }

    /// Take every span recorded so far and account their self times.
    pub fn shares(&self) -> Shares {
        Shares::from_records(&self.rec.take())
    }
}

/// Self time per span name, and the wall time the root spans cover.
#[derive(Debug, Default, Clone)]
pub struct Shares {
    /// Milliseconds of self time per span name.
    pub self_ms: BTreeMap<String, f64>,
    /// Milliseconds covered by root spans; equals the sum of `self_ms`.
    pub wall_ms: f64,
    /// Duration in seconds of each root span, by name.
    pub roots: BTreeMap<String, Vec<f64>>,
}

impl Shares {
    pub fn from_records(records: &[Record]) -> Self {
        let mut out = Shares::default();
        // child_secs[d]: summed durations of finished spans at depth d whose
        // parent has not finished yet.
        let mut child_secs: Vec<f64> = Vec::new();
        for r in records {
            let Record::Span(s) = r else { continue };
            let d = s.depth as usize;
            if child_secs.len() < d + 2 {
                child_secs.resize(d + 2, 0.0);
            }
            let dur = s.duration_secs();
            let children = std::mem::take(&mut child_secs[d + 1]);
            *out.self_ms.entry(s.name.clone()).or_default() += (dur - children) * 1e3;
            child_secs[d] += dur;
            if d == 0 {
                out.wall_ms += dur * 1e3;
                out.roots.entry(s.name.clone()).or_default().push(dur);
            }
        }
        out
    }

    /// Durations in seconds of the root spans named `name`.
    pub fn root_secs(&self, name: &str) -> &[f64] {
        self.roots.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Write every share into `values`: span `x` becomes `x_ms`, the `rep`
    /// roots' self time becomes `trace.unattributed_ms`.
    pub fn record(&self, values: &mut Values) {
        for (span, ms) in &self.self_ms {
            let metric = if span == REP {
                "trace.unattributed_ms".to_string()
            } else {
                format!("{span}_ms")
            };
            let (name, _) = PER_LAYER
                .iter()
                .find(|(n, _)| *n == metric)
                .unwrap_or_else(|| panic!("span {span} has no per-layer metric {metric}"));
            values.set(name, values.get(name).unwrap_or(0.0) + ms);
        }
        values.set("trace.wall_ms", self.wall_ms);
    }
}
