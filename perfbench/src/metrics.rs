//! Metric names, statistics, output checks and the result line.

use lfm_core::monitor::summary::JsonObject;
use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
///
/// `ops_per_s` is tasks/s for `dispatch` and `pipeline`, offered
/// invocations/s for `serving` and functions/s for `lifecycle`. A "call" is
/// one timed call into the workload's entry point: `run_workload`,
/// `ServingGateway::run` or `Lfm::run`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("call_ms.p50", "ms"),
    ("call_ms.tail", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A
/// workload that bypasses a layer reports 0 for it. The `*_ms` time shares
/// (benchmark span self times) plus `trace.unattributed_ms` add up to
/// `trace.wall_ms`.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Time shares: self time of the benchmark's spans around each layer.
    ("setup_ms", "ms"),
    ("workqueue.run_ms", "ms"),
    ("workqueue.submit_ms", "ms"),
    ("workqueue.run_until_ms", "ms"),
    ("workqueue.finish_ms", "ms"),
    ("serving.new_ms", "ms"),
    ("serving.run_ms", "ms"),
    ("pyenv.analyze_ms", "ms"),
    ("pyenv.resolve_ms", "ms"),
    ("pyenv.pack_ms", "ms"),
    ("pyenv.codec_ms", "ms"),
    ("pyenv.unpack_ms", "ms"),
    ("lfm.run_ms", "ms"),
    ("lfm.bare_ms", "ms"),
    ("check_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
    ("trace.wall_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    // Scheduler dispatch and the simulation calendar.
    ("workqueue.us_per_task.q1", "us"),
    ("workqueue.us_per_task.q4", "us"),
    ("workqueue.cost_growth", "ratio"),
    ("workqueue.pending.peak", "count"),
    ("workqueue.dispatches", "count"),
    ("workqueue.retries", "count"),
    ("workqueue.cache_hit_ratio", "ratio"),
    ("simcluster.events", "count"),
    ("simcluster.events_per_task", "count"),
    ("simcluster.ns_per_event", "ns"),
    // Journal.
    ("journal.bytes", "B"),
    ("journal.bytes_per_op", "B"),
    ("journal.replayed_events", "count"),
    ("journal.recoveries", "count"),
    // Telemetry encode and tail.
    ("telemetry.records", "count"),
    ("telemetry.drain_ms", "ms"),
    ("telemetry.drain_calls", "count"),
    ("telemetry.buffered_bytes.peak", "B"),
    ("telemetry.dropped", "count"),
    // Serving gateway.
    ("serving.offered", "count"),
    ("serving.admitted", "count"),
    ("serving.rejected", "count"),
    ("serving.shed", "count"),
    ("serving.lost", "count"),
    ("serving.completed", "count"),
    ("serving.warm_hit_ratio", "ratio"),
    ("serving.batches", "count"),
    ("serving.control_actions", "count"),
    ("serving.alerts", "count"),
    ("serving.gateway_recoveries", "count"),
    // Environment chain.
    ("pyenv.archive_bytes", "B"),
    ("pyenv.resolve_cache_hit_ratio", "ratio"),
    // The real-process monitor.
    ("lfm.exit_lag_ms", "ms"),
    ("lfm.polls", "count"),
    ("lfm.poll_cpu_ms", "ms"),
];

/// Is `name` a legal metric name: starts with a letter or digit, at most
/// 64 letters, digits, `_`, `.` and `-`?
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Is `unit` a legal unit: at most 16 letters, digits, `_`, `/`, `%`, `.`
/// and `-`?
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Named metric values, keyed by name. Only names from [`END_TO_END`] or
/// [`PER_LAYER`] may be set.
#[derive(Debug, Default, Clone)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The `"metrics"` object for `table`: every name in it, in order, with
    /// its unit; names this run never set read 0.
    pub fn to_json(&self, table: &[(&'static str, &'static str)]) -> String {
        let mut o = JsonObject::new();
        for (name, unit) in table {
            let mut m = JsonObject::new();
            m.field_f64("value", self.get(name).unwrap_or(0.0))
                .field_str("unit", unit);
            o.field_raw(name, &m.finish());
        }
        o.finish()
    }
}

/// Output checks of one run: how much work was attempted, how much of it
/// failed, and a description of every violated check.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
}

impl Checks {
    /// Count `ops` attempted, `failed` of which failed.
    pub fn attempt(&mut self, ops: u64, failed: u64) {
        self.attempted += ops;
        self.failed += failed;
    }

    /// Record a violation unless `ok`. Returns `ok`.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            self.violations.push(what());
        }
        ok
    }

    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.failed == 0 && self.attempted > 0
    }

    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// The last line of a run: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(
    checks: &Checks,
    values: &Values,
    table: &[(&'static str, &'static str)],
) -> String {
    let mut o = JsonObject::new();
    o.field_raw("correct", if checks.correct() { "true" } else { "false" })
        .field_u64("attempted", checks.attempted)
        .field_u64("failed", checks.failed)
        .field_raw("metrics", &values.to_json(table));
    o.finish()
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// A tail timing: the highest percentile with at least ten samples beyond
/// it, but never below p75, so with fewer than 40 samples it is p75 with
/// fewer than ten beyond.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub samples: usize,
}

pub fn tail(v: &[f64]) -> Tail {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: 100.0,
            samples: 0,
        };
    }
    // Rank k (1-based) leaves n - k samples beyond it.
    let k = n.saturating_sub(10).max((3 * n).div_ceil(4));
    Tail {
        value: s[k - 1],
        percentile: 100.0 * k as f64 / n as f64,
        samples: n,
    }
}

/// Peak resident memory of this process (`VmHWM`) since it was last reset
/// (see [`crate::host::reset_peak_rss`]), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// FNV-1a digest of a byte-stable summary, as 16 hex digits.
pub fn digest(summary_json: &str) -> String {
    format!(
        "{:016x}",
        lfm_core::pyenv::pack::fnv1a(summary_json.as_bytes())
    )
}
