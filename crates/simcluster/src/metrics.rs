//! Measurement helpers: streaming statistics and histograms for experiment
//! reporting (means, percentiles, utilization series).

use serde::{Deserialize, Serialize};

/// Streaming summary statistics (Welford's algorithm).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    pub fn new() -> Self {
        Summary {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    pub fn sum(&self) -> f64 {
        self.mean() * self.n as f64
    }
}

/// An exact-quantile sample store. Keeps all samples; fine at the scales the
/// experiments run at (≤ millions of f64s), and exact percentiles matter for
/// the allocator's first-allocation policy.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn record(&mut self, x: f64) {
        assert!(x.is_finite(), "non-finite sample");
        self.values.push(x);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// Quantile `q` in \[0,1\] by nearest-rank (q=1.0 → max).
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        self.ensure_sorted();
        let idx = ((q * self.values.len() as f64).ceil() as usize)
            .saturating_sub(1)
            .min(self.values.len() - 1);
        Some(self.values[idx])
    }

    pub fn max(&mut self) -> Option<f64> {
        self.quantile(1.0)
    }

    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Fraction of samples ≤ x (empirical CDF).
    pub fn cdf(&mut self, x: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let count = self.values.partition_point(|&v| v <= x);
        count as f64 / self.values.len() as f64
    }

    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.values.iter().copied()
    }
}

/// An exact-sample histogram with percentile convenience accessors.
///
/// Keeps every sample (like [`Samples`], which it wraps) so tail
/// percentiles are exact — the paper reports tails, and at experiment
/// scale the memory cost is negligible. Percentiles take `&mut self`
/// because the backing store sorts lazily.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    samples: Samples,
}

impl Histogram {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn record(&mut self, x: f64) {
        self.samples.record(x);
    }

    pub fn count(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    pub fn mean(&self) -> f64 {
        self.samples.mean()
    }

    /// Percentile `p` in [0, 100] by nearest rank; 0.0 for an empty
    /// histogram (convenient for report fields).
    pub fn percentile(&mut self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        self.samples.quantile(p / 100.0).unwrap_or(0.0)
    }

    pub fn p50(&mut self) -> f64 {
        self.percentile(50.0)
    }

    pub fn p95(&mut self) -> f64 {
        self.percentile(95.0)
    }

    pub fn p99(&mut self) -> f64 {
        self.percentile(99.0)
    }

    pub fn p999(&mut self) -> f64 {
        self.percentile(99.9)
    }

    pub fn max(&mut self) -> f64 {
        self.percentile(100.0)
    }

    /// Fold another histogram's samples into this one (shard merges).
    pub fn merge(&mut self, other: &Histogram) {
        for v in other.samples.iter() {
            self.samples.record(v);
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.samples.iter()
    }
}

/// A bounded-memory quantile sketch over log-spaced buckets (the DDSketch
/// construction: relative-error guarantee `alpha` on every quantile).
///
/// [`Histogram`] keeps every sample, which is exact but unbounded — fine
/// for batch experiments, wrong for a serving tier recording millions of
/// invocation latencies. `SparseHistogram` instead maps each positive
/// value to bucket `ceil(ln x / ln gamma)` with `gamma = (1+α)/(1-α)`;
/// a bucket's representative value `2γ^i/(γ+1)` is within a factor
/// `(1±α)` of anything stored there. Memory is bounded by the number of
/// *distinct occupied buckets* — O(log(max/min)/α), independent of sample
/// count (≈ 925 buckets covering nanoseconds→years at α = 1%).
///
/// Zero and sub-`MIN_TRACKABLE` values land in a dedicated zero bucket
/// (exact). Negative and non-finite samples are rejected. Sketches with
/// equal `alpha` merge by bucket-count addition, losing no accuracy.
/// Percentiles use nearest-rank over cumulative bucket counts, matching
/// [`Histogram`]'s convention, and `&self` suffices (no lazy sort).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SparseHistogram {
    alpha: f64,
    /// ln(gamma), cached: bucket index is `ceil(ln x / ln_gamma)`.
    ln_gamma: f64,
    /// Occupied buckets only: index → sample count.
    buckets: std::collections::BTreeMap<i32, u64>,
    /// Values in `[0, MIN_TRACKABLE)` — stored exactly as "zero".
    zero_count: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl SparseHistogram {
    /// Values below this collapse into the zero bucket; keeps bucket
    /// indices small and is far below any simulated latency of interest.
    pub const MIN_TRACKABLE: f64 = 1e-9;

    /// Default relative accuracy: 1% — p99 of 100ms is reported within
    /// ±1ms, at a few hundred buckets of memory.
    pub const DEFAULT_ALPHA: f64 = 0.01;

    pub fn new() -> Self {
        Self::with_accuracy(Self::DEFAULT_ALPHA)
    }

    /// A sketch guaranteeing relative error ≤ `alpha` on every quantile.
    pub fn with_accuracy(alpha: f64) -> Self {
        assert!(
            (1e-6..1.0).contains(&alpha),
            "alpha out of range: {alpha} (want (1e-6, 1))"
        );
        let gamma = (1.0 + alpha) / (1.0 - alpha);
        SparseHistogram {
            alpha,
            ln_gamma: gamma.ln(),
            buckets: std::collections::BTreeMap::new(),
            zero_count: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The configured relative-error bound.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    fn bucket_index(&self, x: f64) -> i32 {
        (x.ln() / self.ln_gamma).ceil() as i32
    }

    /// The representative value for bucket `i`: the midpoint
    /// `2γ^i/(γ+1)`, within `(1±α)` of every value the bucket holds.
    fn bucket_value(&self, i: i32) -> f64 {
        let gamma_i = (self.ln_gamma * i as f64).exp();
        2.0 * gamma_i / ((self.ln_gamma.exp()) + 1.0)
    }

    pub fn record(&mut self, x: f64) {
        assert!(x.is_finite(), "non-finite sample");
        assert!(x >= 0.0, "negative sample: {x}");
        self.count += 1;
        self.sum += x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        if x < Self::MIN_TRACKABLE {
            self.zero_count += 1;
        } else {
            let idx = self.bucket_index(x);
            *self.buckets.entry(idx).or_insert(0) += 1;
        }
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Occupied buckets — the sketch's actual memory footprint.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len() + usize::from(self.zero_count > 0)
    }

    /// Percentile `p` in [0, 100] by nearest rank over bucket counts;
    /// 0.0 for an empty sketch. The true min and max are tracked exactly
    /// and clamp the estimate, so `percentile(0)` / `percentile(100)`
    /// are exact.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0 * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = self.zero_count;
        if rank <= seen {
            return 0.0;
        }
        for (&idx, &n) in &self.buckets {
            seen += n;
            if rank <= seen {
                return self.bucket_value(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    pub fn p50(&self) -> f64 {
        self.percentile(50.0)
    }

    pub fn p95(&self) -> f64 {
        self.percentile(95.0)
    }

    pub fn p99(&self) -> f64 {
        self.percentile(99.0)
    }

    pub fn p999(&self) -> f64 {
        self.percentile(99.9)
    }

    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Fold another sketch into this one (tenant/shard rollups). Bucket
    /// counts add directly, so merging loses no accuracy — but only
    /// sketches built with the same `alpha` share a bucket layout.
    pub fn merge(&mut self, other: &SparseHistogram) {
        assert!(
            (self.alpha - other.alpha).abs() < 1e-12,
            "merging sketches with different accuracy ({} vs {})",
            self.alpha,
            other.alpha
        );
        for (&idx, &n) in &other.buckets {
            *self.buckets.entry(idx).or_insert(0) += n;
        }
        self.zero_count += other.zero_count;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Default for SparseHistogram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_moments() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert!((s.sum() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn empty_summary_is_zeroes() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.min(), 0.0);
    }

    #[test]
    fn quantiles_nearest_rank() {
        let mut s = Samples::new();
        for x in 1..=100 {
            s.record(x as f64);
        }
        assert_eq!(s.quantile(0.5), Some(50.0));
        assert_eq!(s.quantile(0.95), Some(95.0));
        assert_eq!(s.quantile(1.0), Some(100.0));
        assert_eq!(s.quantile(0.0), Some(1.0));
    }

    #[test]
    fn quantile_of_empty_is_none() {
        let mut s = Samples::new();
        assert_eq!(s.quantile(0.5), None);
    }

    #[test]
    fn cdf_matches_quantile() {
        let mut s = Samples::new();
        for x in [1.0, 2.0, 3.0, 4.0] {
            s.record(x);
        }
        assert_eq!(s.cdf(2.0), 0.5);
        assert_eq!(s.cdf(0.5), 0.0);
        assert_eq!(s.cdf(10.0), 1.0);
    }

    #[test]
    fn record_after_quantile_resorts() {
        let mut s = Samples::new();
        s.record(5.0);
        assert_eq!(s.max(), Some(5.0));
        s.record(9.0);
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    #[should_panic(expected = "non-finite sample")]
    fn non_finite_sample_panics() {
        let mut s = Samples::new();
        s.record(f64::NAN);
    }

    #[test]
    fn histogram_percentiles_nearest_rank() {
        let mut h = Histogram::new();
        for x in 1..=100 {
            h.record(x as f64);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.p50(), 50.0);
        assert_eq!(h.p95(), 95.0);
        assert_eq!(h.p99(), 99.0);
        assert_eq!(h.max(), 100.0);
        assert_eq!(h.percentile(0.0), 1.0);
        assert!((h.mean() - 50.5).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_percentile_is_zero() {
        let mut h = Histogram::new();
        assert_eq!(h.p95(), 0.0);
        assert!(h.is_empty());
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn histogram_percentile_range_checked() {
        let mut h = Histogram::new();
        h.record(1.0);
        h.percentile(101.0);
    }

    #[test]
    fn histogram_merge_combines_samples() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for x in 1..=50 {
            a.record(x as f64);
        }
        for x in 51..=100 {
            b.record(x as f64);
        }
        a.merge(&b);
        assert_eq!(a.count(), 100);
        assert_eq!(a.p50(), 50.0);
        assert_eq!(a.p99(), 99.0);
    }

    /// Deterministic pseudo-random latency-shaped values (lognormal-ish
    /// via a splitmix64 stream) — no external RNG in this crate's tests.
    fn synthetic_latencies(n: u64, seed: u64) -> Vec<f64> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        };
        (0..n)
            .map(|_| {
                let u = (next() >> 11) as f64 / (1u64 << 53) as f64;
                // Heavy-ish right tail: 1ms base, up to ~10s.
                0.001 * (u * 9.21).exp()
            })
            .collect()
    }

    #[test]
    fn sparse_histogram_tracks_exact_within_alpha() {
        let values = synthetic_latencies(50_000, 42);
        let mut exact = Histogram::new();
        let mut sketch = SparseHistogram::new();
        for &v in &values {
            exact.record(v);
            sketch.record(v);
        }
        assert_eq!(sketch.count(), 50_000);
        for p in [50.0, 90.0, 95.0, 99.0, 99.9] {
            let e = exact.percentile(p);
            let s = sketch.percentile(p);
            let rel = (s - e).abs() / e;
            assert!(
                rel <= sketch.alpha() * 1.001,
                "p{p}: sketch {s} vs exact {e} (rel err {rel:.5} > alpha {})",
                sketch.alpha()
            );
        }
        assert_eq!(sketch.max(), exact.max());
        assert!((sketch.mean() - exact.mean()).abs() < 1e-12);
    }

    #[test]
    fn sparse_histogram_memory_is_bounded() {
        let mut sketch = SparseHistogram::new();
        for &v in &synthetic_latencies(200_000, 7) {
            sketch.record(v);
        }
        // 1ms..10s spans ln(1e4)/ln(gamma) ≈ 461 buckets at alpha=1%;
        // sample count (200k) must not be the bound.
        assert!(
            sketch.bucket_count() < 600,
            "bucket count {} not bounded",
            sketch.bucket_count()
        );
    }

    #[test]
    fn sparse_histogram_merge_equals_union() {
        let all = synthetic_latencies(20_000, 3);
        let mut merged = SparseHistogram::new();
        let mut a = SparseHistogram::new();
        let mut b = SparseHistogram::new();
        let mut whole = SparseHistogram::new();
        for (i, &v) in all.iter().enumerate() {
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            whole.record(v);
        }
        merged.merge(&a);
        merged.merge(&b);
        // Bucket union is exact; only `sum` may differ by fp addition order.
        assert_eq!(merged.count(), whole.count());
        assert_eq!(merged.bucket_count(), whole.bucket_count());
        assert_eq!(merged.min(), whole.min());
        assert_eq!(merged.max(), whole.max());
        for p in [10.0, 50.0, 90.0, 95.0, 99.0, 99.9, 100.0] {
            assert_eq!(merged.percentile(p), whole.percentile(p), "p{p}");
        }
        assert!((merged.sum() - whole.sum()).abs() / whole.sum() < 1e-12);
    }

    #[test]
    fn sparse_histogram_zero_and_small_values() {
        let mut sketch = SparseHistogram::new();
        for _ in 0..90 {
            sketch.record(0.0);
        }
        for _ in 0..10 {
            sketch.record(1.0);
        }
        assert_eq!(sketch.p50(), 0.0);
        assert_eq!(sketch.percentile(90.0), 0.0);
        let p99 = sketch.p99();
        assert!((p99 - 1.0).abs() <= 0.011, "p99 {p99} should be ~1.0");
        assert_eq!(sketch.min(), 0.0);
        assert_eq!(sketch.max(), 1.0);
    }

    #[test]
    fn empty_sparse_histogram_is_zeroes() {
        let sketch = SparseHistogram::new();
        assert!(sketch.is_empty());
        assert_eq!(sketch.p99(), 0.0);
        assert_eq!(sketch.mean(), 0.0);
        assert_eq!(sketch.min(), 0.0);
        assert_eq!(sketch.max(), 0.0);
        assert_eq!(sketch.bucket_count(), 0);
    }

    #[test]
    #[should_panic(expected = "negative sample")]
    fn sparse_histogram_rejects_negative() {
        SparseHistogram::new().record(-1.0);
    }

    #[test]
    #[should_panic(expected = "different accuracy")]
    fn sparse_histogram_merge_checks_alpha() {
        let mut a = SparseHistogram::with_accuracy(0.01);
        let b = SparseHistogram::with_accuracy(0.02);
        a.merge(&b);
    }
}
