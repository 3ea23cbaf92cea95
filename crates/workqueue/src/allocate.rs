//! Automatic resource labeling (§VI-B2, after Tovar et al. \[21\]).
//!
//! Four strategies, matching the paper's evaluation matrix:
//!
//! * **Oracle** — perfect knowledge: request exactly the task's true peak
//!   (supplied per category by the experiment).
//! * **Guess** — a fixed user-provided estimate for every task.
//! * **Unmanaged** — a whole worker per task, no limits.
//! * **Auto** — no prior knowledge: run the first task(s) of each category
//!   under a whole-worker allocation with monitoring, then choose a
//!   first-allocation label that maximizes expected throughput from the
//!   empirical peak-usage distribution; tasks that exhaust the label retry
//!   once at the full worker size.
//!
//! The Auto label for each resource axis is the candidate value `a`
//! minimizing the expected resource·time cost per completed task:
//!
//! ```text
//! E[cost](a) = P(u ≤ a)·a + (1 − P(u ≤ a))·(a + A_retry)
//! ```
//!
//! i.e. successes occupy `a`, failures occupy `a` then retry at the
//! *retry allocation* `A_retry` — a whole worker, whose per-axis capacity
//! the scheduler supplies. Minimizing this trades retry waste against
//! packing density exactly as \[21\] describes.

use lfm_monitor::report::{ResourceKind, ResourceReport};
use lfm_simcluster::node::Resources;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// Which allocation strategy a run uses.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Strategy {
    /// Request the per-category resources supplied here (perfect knowledge).
    Oracle(BTreeMap<String, Resources>),
    /// Request this fixed vector for every task.
    Guess(Resources),
    /// A whole worker per task.
    Unmanaged,
    /// Monitor, label, retry — the paper's contribution.
    Auto(AutoConfig),
}

impl Strategy {
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Oracle(_) => "Oracle",
            Strategy::Guess(_) => "Guess",
            Strategy::Unmanaged => "Unmanaged",
            Strategy::Auto(_) => "Auto",
        }
    }
}

/// Tuning for the Auto strategy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AutoConfig {
    /// Completed samples required per category before labeling starts.
    pub min_samples: usize,
    /// Safety multiplier applied to the chosen memory/disk label (small
    /// headroom avoids over-fitting to the samples seen so far).
    pub headroom: f64,
    /// Slow-start: while a category has fewer than this many completed
    /// samples, at most `max(4, 2·samples)` of its sized first attempts run
    /// concurrently. Prevents an immature label from killing a whole wave
    /// at once when the usage distribution has a tail.
    pub slow_start_until: usize,
}

impl Default for AutoConfig {
    fn default() -> Self {
        // Label only after a handful of whole-worker measurement runs, and
        // keep real headroom above the observed max: premature labeling
        // from one sample turns the whole first batch into retries.
        AutoConfig {
            min_samples: 2,
            headroom: 1.25,
            slow_start_until: 16,
        }
    }
}

/// What the allocator tells the master to do for one attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AllocationDecision {
    /// Request this vector, enforce it as a limit.
    Sized(Resources),
    /// Take a whole worker, unlimited (measurement run or retry).
    WholeWorker,
}

/// What one observation changed, from the scheduler's point of view. The
/// master's indexed dispatcher parks tasks it cannot place and re-examines
/// them only when an event could change the outcome; this is the allocator's
/// side of that protocol (see `sched.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ObservationEffects {
    /// The category's first-attempt decision changed (an Auto label was
    /// learned or revised) — parked tasks of the category must be re-sized.
    pub label_changed: bool,
    /// The slow-start concurrency cap changed (grew or lifted).
    pub cap_changed: bool,
}

/// An observed peak, ordered by `f64::total_cmp` so it can key a map.
#[derive(Debug, Clone, Copy)]
struct Peak(f64);

impl PartialEq for Peak {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Peak {}

impl PartialOrd for Peak {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Peak {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// One axis's observed peaks as a sorted multiset: value → count, plus the
/// total. Recording is O(log distinct); the label walk visits each distinct
/// value once and never sorts.
#[derive(Debug, Default, Clone)]
struct PeakCounts {
    counts: BTreeMap<Peak, u64>,
    len: u64,
}

impl PeakCounts {
    fn record(&mut self, x: f64) {
        assert!(x.is_finite(), "non-finite sample");
        *self.counts.entry(Peak(x)).or_insert(0) += 1;
        self.len += 1;
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn max(&self) -> Option<f64> {
        self.counts.last_key_value().map(|(p, _)| p.0)
    }

    /// Every sample, ascending (duplicates repeated).
    fn expand(&self) -> Vec<f64> {
        self.counts
            .iter()
            .flat_map(|(p, &n)| std::iter::repeat_n(p.0, n as usize))
            .collect()
    }
}

#[cfg(test)]
thread_local! {
    /// `(label walks, steps they took)`, for the dispatch scaling guard.
    pub(crate) static LABEL_SCAN: std::cell::Cell<(u64, u64)> =
        const { std::cell::Cell::new((0, 0)) };
}

/// Per-category observed peak samples.
#[derive(Debug, Default, Clone)]
struct CategoryStats {
    cores: PeakCounts,
    memory_mb: PeakCounts,
    disk_mb: PeakCounts,
    completed: usize,
    /// Memoized Auto label for a given worker capacity, invalidated on every
    /// new observation. The scheduler consults the label once per dispatch
    /// examination and twice per completion (the change-notification hook,
    /// whose second consultation recomputes it): the memo makes the
    /// examinations between completions free.
    label_memo: Option<(Resources, Option<Resources>)>,
}

/// The allocator: owns strategy state and learns from reports.
/// One category's exported sample stores, in canonical (sorted) order:
/// `(cores, memory_mb, disk_mb, completed)`.
pub(crate) type CategorySnapshot = (Vec<f64>, Vec<f64>, Vec<f64>, usize);

#[derive(Debug)]
pub struct Allocator {
    strategy: Strategy,
    stats: BTreeMap<String, CategoryStats>,
    /// Count of label-exceeded retries, for the <1%-retries claim.
    pub retries: u64,
    /// Total first-attempt dispatches.
    pub first_attempts: u64,
}

impl Allocator {
    pub fn new(strategy: Strategy) -> Self {
        Allocator {
            strategy,
            stats: BTreeMap::new(),
            retries: 0,
            first_attempts: 0,
        }
    }

    pub fn strategy(&self) -> &Strategy {
        &self.strategy
    }

    /// Decide the allocation for an attempt of `category`, on workers of
    /// per-node `capacity` (the retry cost the label optimization weighs).
    ///
    /// `attempt` 0 is the first try; higher attempts (after a resource kill)
    /// always get a whole worker, per the paper's retry policy.
    pub fn decide(
        &mut self,
        category: &str,
        attempt: u32,
        capacity: &Resources,
    ) -> AllocationDecision {
        if attempt == 0 {
            self.first_attempts += 1;
        } else {
            self.retries += 1;
            return AllocationDecision::WholeWorker;
        }
        self.peek_decision(category, capacity)
    }

    /// The first-attempt decision [`decide`](Self::decide) would return,
    /// without bumping the attempt counters. The master's indexed scheduler
    /// snapshots this before and after an observation to detect label
    /// changes (`&mut` because Auto labeling memoizes its result).
    pub fn peek_decision(&mut self, category: &str, capacity: &Resources) -> AllocationDecision {
        match &self.strategy {
            Strategy::Unmanaged => AllocationDecision::WholeWorker,
            Strategy::Guess(r) => AllocationDecision::Sized(*r),
            Strategy::Oracle(map) => map
                .get(category)
                .map(|r| AllocationDecision::Sized(*r))
                .unwrap_or(AllocationDecision::WholeWorker),
            Strategy::Auto(cfg) => {
                let cfg = *cfg;
                match self.auto_label(category, &cfg, capacity) {
                    Some(r) => AllocationDecision::Sized(r),
                    None => AllocationDecision::WholeWorker,
                }
            }
        }
    }

    /// Feed back a finished attempt's measured usage.
    ///
    /// `violated` names the axis a killed attempt exceeded, if any. A kill
    /// observation is *censored*: the task was still growing when the
    /// monitor stopped it, so its peak on that axis is only a lower bound.
    /// Recording it verbatim makes the label creep up one kill at a time;
    /// instead the censored axis is inflated (doubled), the exponential
    /// growth step of the retry policy in \[21\], so labels converge in
    /// O(log) kills rather than O(n).
    pub fn observe(&mut self, category: &str, report: &ResourceReport, completed: bool) {
        self.observe_outcome(category, report, completed, None)
    }

    /// [`observe`](Self::observe) with the violated axis of a killed attempt.
    pub fn observe_outcome(
        &mut self,
        category: &str,
        report: &ResourceReport,
        completed: bool,
        violated: Option<ResourceKind>,
    ) {
        let s = self.stats.entry(category.to_string()).or_default();
        s.label_memo = None;
        match violated {
            None => {
                s.cores.record(report.peak_cores.max(0.01));
                s.memory_mb.record(report.peak_rss_mb.max(1) as f64);
                s.disk_mb.record(report.peak_disk_mb.max(1) as f64);
            }
            // A killed run observed only partial usage: the non-violated
            // axes are truncated lower bounds that would drag the labels
            // down, so only the violated (censored, inflated) axis counts.
            Some(ResourceKind::Cores) => s.cores.record(report.peak_cores.max(0.01) * 2.0),
            Some(ResourceKind::Memory) => {
                s.memory_mb.record(report.peak_rss_mb.max(1) as f64 * 2.0)
            }
            Some(ResourceKind::Disk) => s.disk_mb.record(report.peak_disk_mb.max(1) as f64 * 2.0),
            Some(ResourceKind::WallTime) => {}
        }
        if completed {
            s.completed += 1;
        }
    }

    /// [`observe_outcome`](Self::observe_outcome), reporting whether the
    /// observation changed the category's first-attempt decision or its
    /// slow-start cap. This is the notification hook the indexed scheduler
    /// uses to wake parked tasks of `category` exactly when an allocation
    /// they would be offered has actually changed.
    pub fn observe_outcome_notify(
        &mut self,
        category: &str,
        report: &ResourceReport,
        completed: bool,
        violated: Option<ResourceKind>,
        capacity: &Resources,
    ) -> ObservationEffects {
        let label_before = self.peek_decision(category, capacity);
        let cap_before = self.concurrency_cap(category);
        self.observe_outcome(category, report, completed, violated);
        ObservationEffects {
            label_changed: self.peek_decision(category, capacity) != label_before,
            cap_changed: self.concurrency_cap(category) != cap_before,
        }
    }

    /// Snapshot one category's sample stores for the durability journal.
    /// Values are exported in canonical (ascending) order: the label is a
    /// pure function of the sample *multiset*, so snapshot bytes are
    /// identical wherever the multiset is.
    pub(crate) fn snapshot_category(&self, category: &str) -> Option<CategorySnapshot> {
        let s = self.stats.get(category)?;
        Some((
            s.cores.expand(),
            s.memory_mb.expand(),
            s.disk_mb.expand(),
            s.completed,
        ))
    }

    /// Rebuild one category's stats from a snapshot — the inverse of
    /// [`snapshot_category`](Self::snapshot_category). Only valid on a
    /// category this allocator has never observed (recovery starts from a
    /// fresh allocator).
    pub(crate) fn restore_category(
        &mut self,
        category: &str,
        cores: &[f64],
        memory_mb: &[f64],
        disk_mb: &[f64],
        completed: usize,
    ) {
        let s = self.stats.entry(category.to_string()).or_default();
        assert!(
            s.cores.is_empty() && s.memory_mb.is_empty() && s.disk_mb.is_empty(),
            "restore_category over live stats for {category}"
        );
        for &v in cores {
            s.cores.record(v);
        }
        for &v in memory_mb {
            s.memory_mb.record(v);
        }
        for &v in disk_mb {
            s.disk_mb.record(v);
        }
        s.completed = completed;
    }

    /// Completed-sample count for a category (None until first observation).
    pub fn samples_for(&self, category: &str) -> usize {
        self.stats.get(category).map(|s| s.completed).unwrap_or(0)
    }

    /// Slow-start concurrency cap for sized first attempts of `category`,
    /// or `None` once the category has matured (or for non-Auto strategies).
    pub fn concurrency_cap(&self, category: &str) -> Option<u32> {
        let Strategy::Auto(cfg) = &self.strategy else {
            return None;
        };
        let samples = self.samples_for(category);
        if samples >= cfg.slow_start_until {
            None
        } else {
            Some((2 * samples).max(4) as u32)
        }
    }

    fn auto_label(
        &mut self,
        category: &str,
        cfg: &AutoConfig,
        capacity: &Resources,
    ) -> Option<Resources> {
        let s = self.stats.get_mut(category)?;
        if s.completed < cfg.min_samples {
            return None;
        }
        if let Some((memo_cap, label)) = &s.label_memo {
            if memo_cap == capacity {
                return *label;
            }
        }
        let label = (|| {
            let mem = choose_label(&s.memory_mb, capacity.memory_mb as f64)? * cfg.headroom;
            let disk = choose_label(&s.disk_mb, capacity.disk_mb as f64)? * cfg.headroom;
            let cores = s.cores.max()?.ceil().max(1.0);
            Some(Resources::new(
                cores as u32,
                mem.ceil() as u64,
                disk.ceil() as u64,
            ))
        })();
        s.label_memo = Some((*capacity, label));
        label
    }
}

/// Choose the throughput-maximizing first allocation from observed peaks.
///
/// Candidates are the distinct observed values. Returns the candidate
/// minimizing `P(u≤a)·a + (1−P(u≤a))·(a + retry_cost)`, where `retry_cost`
/// is the per-axis size of the whole-worker retry allocation; ties go to
/// the smallest candidate. One ascending walk: `P(u≤a)` is the running
/// count over the total.
fn choose_label(samples: &PeakCounts, retry_cost: f64) -> Option<f64> {
    let mut best = samples.max()?;
    let mut best_cost = f64::INFINITY;
    let mut below = 0u64;
    #[cfg(test)]
    LABEL_SCAN.with(|c| c.set((c.get().0 + 1, c.get().1)));
    for (&Peak(a), &n) in &samples.counts {
        #[cfg(test)]
        LABEL_SCAN.with(|c| c.set((c.get().0, c.get().1 + 1)));
        below += n;
        let p = below as f64 / samples.len as f64;
        let cost = p * a + (1.0 - p) * (a + retry_cost);
        if cost < best_cost {
            best_cost = cost;
            best = a;
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Worker capacity used by the tests (8 cores / 8 GB / 16 GB).
    const CAP: Resources = Resources::new(8, 8192, 16384);

    fn report(cores: f64, mem: u64, disk: u64) -> ResourceReport {
        ResourceReport {
            peak_cores: cores,
            peak_rss_mb: mem,
            peak_disk_mb: disk,
            cpu_secs: cores * 10.0,
            wall_secs: 10.0,
            ..Default::default()
        }
    }

    #[test]
    fn unmanaged_always_whole_worker() {
        let mut a = Allocator::new(Strategy::Unmanaged);
        assert_eq!(a.decide("x", 0, &CAP), AllocationDecision::WholeWorker);
        a.observe("x", &report(1.0, 100, 100), true);
        assert_eq!(a.decide("x", 0, &CAP), AllocationDecision::WholeWorker);
    }

    #[test]
    fn guess_returns_fixed_vector() {
        let guess = Resources::new(1, 1536, 2048);
        let mut a = Allocator::new(Strategy::Guess(guess));
        assert_eq!(a.decide("x", 0, &CAP), AllocationDecision::Sized(guess));
    }

    #[test]
    fn oracle_uses_category_map() {
        let mut map = BTreeMap::new();
        map.insert("hep".to_string(), Resources::new(1, 110, 1024));
        let mut a = Allocator::new(Strategy::Oracle(map));
        assert_eq!(
            a.decide("hep", 0, &CAP),
            AllocationDecision::Sized(Resources::new(1, 110, 1024))
        );
        // Unknown category degrades to whole worker rather than guessing.
        assert_eq!(
            a.decide("unknown", 0, &CAP),
            AllocationDecision::WholeWorker
        );
    }

    #[test]
    fn auto_first_run_is_whole_worker_then_labeled() {
        let cfg = AutoConfig {
            min_samples: 1,
            headroom: 1.05,
            slow_start_until: 0,
        };
        let mut a = Allocator::new(Strategy::Auto(cfg));
        assert_eq!(a.decide("hep", 0, &CAP), AllocationDecision::WholeWorker);
        a.observe("hep", &report(1.0, 84, 880), true);
        match a.decide("hep", 0, &CAP) {
            AllocationDecision::Sized(r) => {
                assert_eq!(r.cores, 1);
                // 84 MB × 1.05 headroom, ceiled.
                assert!(
                    r.memory_mb >= 84 && r.memory_mb <= 95,
                    "mem {}",
                    r.memory_mb
                );
                assert!(r.disk_mb >= 880 && r.disk_mb <= 930, "disk {}", r.disk_mb);
            }
            other => panic!("expected sized allocation, got {other:?}"),
        }
    }

    #[test]
    fn default_config_waits_for_samples_and_adds_headroom() {
        let mut a = Allocator::new(Strategy::Auto(AutoConfig::default()));
        a.observe("hep", &report(1.0, 84, 880), true);
        assert_eq!(a.decide("hep", 0, &CAP), AllocationDecision::WholeWorker);
        a.observe("hep", &report(1.0, 84, 880), true);
        match a.decide("hep", 0, &CAP) {
            AllocationDecision::Sized(r) => {
                assert!(r.memory_mb >= 105, "headroom applied: {}", r.memory_mb)
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn auto_retry_gets_whole_worker_and_counts() {
        let mut a = Allocator::new(Strategy::Auto(AutoConfig {
            min_samples: 1,
            headroom: 1.05,
            slow_start_until: 0,
        }));
        a.observe("hep", &report(1.0, 84, 880), true);
        assert_eq!(a.decide("hep", 1, &CAP), AllocationDecision::WholeWorker);
        assert_eq!(a.retries, 1);
    }

    #[test]
    fn auto_label_balances_retry_cost() {
        // 9 tasks peak at 100 MB, 1 at 1000 MB: labeling at 100 costs
        // 0.9·100 + 0.1·1100 = 200; labeling at 1000 costs 1000. The small
        // label wins.
        let mut a = Allocator::new(Strategy::Auto(AutoConfig {
            min_samples: 10,
            headroom: 1.0,
            slow_start_until: 0,
        }));
        for _ in 0..9 {
            a.observe("g", &report(1.0, 100, 10), true);
        }
        a.observe("g", &report(1.0, 1000, 10), true);
        match a.decide("g", 0, &CAP) {
            AllocationDecision::Sized(r) => assert_eq!(r.memory_mb, 100),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn auto_label_avoids_overfitting_when_tail_is_common() {
        // Half the tasks need the big size: retrying half of everything is
        // worse than just allocating big. 0.5·100+0.5·1100 = 600 > 1000? No:
        // 600 < 1000 — so with equal split the small label still wins until
        // the tail dominates. With 90% at 1000: 0.1·100+0.9·1100 = 1000 vs
        // 1000 at the big label — tie broken toward the small-cost candidate;
        // make the tail strictly dominant.
        let mut a = Allocator::new(Strategy::Auto(AutoConfig {
            min_samples: 10,
            headroom: 1.0,
            slow_start_until: 0,
        }));
        a.observe("g", &report(1.0, 100, 10), true);
        for _ in 0..19 {
            a.observe("g", &report(1.0, 1000, 10), true);
        }
        // E[cost](100) = 0.05·100 + 0.95·1100 = 1050 > E[cost](1000) = 1000.
        match a.decide("g", 0, &CAP) {
            AllocationDecision::Sized(r) => assert_eq!(r.memory_mb, 1000),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn min_samples_gate() {
        let mut a = Allocator::new(Strategy::Auto(AutoConfig {
            min_samples: 3,
            headroom: 1.0,
            slow_start_until: 0,
        }));
        a.observe("x", &report(1.0, 50, 50), true);
        a.observe("x", &report(1.0, 60, 50), true);
        assert_eq!(a.decide("x", 0, &CAP), AllocationDecision::WholeWorker);
        a.observe("x", &report(1.0, 55, 50), true);
        assert!(matches!(
            a.decide("x", 0, &CAP),
            AllocationDecision::Sized(_)
        ));
    }

    #[test]
    fn categories_are_independent() {
        let mut a = Allocator::new(Strategy::Auto(AutoConfig {
            min_samples: 1,
            headroom: 1.05,
            slow_start_until: 0,
        }));
        a.observe("small", &report(1.0, 50, 50), true);
        assert!(matches!(
            a.decide("small", 0, &CAP),
            AllocationDecision::Sized(_)
        ));
        assert_eq!(a.decide("big", 0, &CAP), AllocationDecision::WholeWorker);
    }

    #[test]
    fn choose_label_single_sample() {
        let mut s = PeakCounts::default();
        s.record(42.0);
        assert_eq!(choose_label(&s, 8192.0), Some(42.0));
    }

    /// The cost formula evaluated straight from a sample list: every
    /// distinct value in ascending order, `P(u≤a)` by counting, the first
    /// strict minimum kept.
    fn brute_label(values: &[f64], retry_cost: f64) -> Option<f64> {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        sorted.dedup();
        let mut best: Option<(f64, f64)> = None;
        for &a in &sorted {
            let p = values.iter().filter(|&&v| v <= a).count() as f64 / values.len() as f64;
            let cost = p * a + (1.0 - p) * (a + retry_cost);
            if best.is_none_or(|(_, bc)| cost < bc) {
                best = Some((a, cost));
            }
        }
        best.map(|(a, _)| a)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The one-walk label equals the brute-force cost minimum over
        /// multisets drawn from a few values (many duplicates, so running
        /// counts matter), and the snapshot expansion is the sorted
        /// multiset. With integer values and a retry cost that is a multiple
        /// of the sample count, costs `a + (1 − p)·retry` often tie, which
        /// pins the first-minimum rule.
        #[test]
        fn choose_label_matches_brute_force_cost(
            picks in proptest::collection::vec(0usize..6, 1..200),
            pool in proptest::collection::vec(1u32..40, 6..7),
            retry in 1u32..20000,
            tie_mul in 0u32..4,
        ) {
            let values: Vec<f64> = picks.iter().map(|&i| pool[i] as f64).collect();
            let retry = match tie_mul {
                0 => retry,
                m => m * values.len() as u32,
            };
            let mut counts = PeakCounts::default();
            for &v in &values {
                counts.record(v);
            }
            proptest::prop_assert_eq!(
                choose_label(&counts, retry as f64),
                brute_label(&values, retry as f64)
            );
            let mut sorted = values.clone();
            sorted.sort_by(f64::total_cmp);
            proptest::prop_assert_eq!(counts.expand(), sorted);
        }
    }
}
