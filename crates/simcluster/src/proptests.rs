//! Crate-level property tests for the simulation substrate.

#![cfg(test)]

use crate::event::EventQueue;
use crate::metrics::Histogram;
use crate::node::{Node, NodeSpec, Resources};
use crate::sharedfs::{SharedFs, SharedFsParams};
use crate::time::SimTime;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Events pop in non-decreasing time order regardless of push order,
    /// and equal times preserve insertion order.
    #[test]
    fn event_queue_total_order(times in prop::collection::vec(0u32..1000, 1..64)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(SimTime::from_secs(t as f64), i);
        }
        let mut last_time = SimTime::ZERO;
        let mut seen_at_time: Vec<usize> = Vec::new();
        while let Some((t, id)) = q.pop() {
            prop_assert!(t >= last_time);
            if t > last_time {
                seen_at_time.clear();
            }
            // FIFO within a timestamp: ids with equal time arrive ascending
            // (they were pushed in index order).
            if let Some(&prev) = seen_at_time.last() {
                if times[prev] == times[id] {
                    prop_assert!(id > prev, "FIFO violated: {prev} then {id}");
                }
            }
            seen_at_time.push(id);
            last_time = t;
        }
        prop_assert_eq!(q.stats().0, times.len() as u64);
    }

    /// Percentiles are bounded by min/max and monotone in p.
    #[test]
    fn quantiles_bounded_and_monotone(xs in prop::collection::vec(-1e6f64..1e6, 1..100)) {
        let mut h = Histogram::new();
        for &x in &xs {
            h.record(x);
        }
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut prev = lo;
        for p in [0.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let v = h.percentile(p);
            prop_assert!(v >= lo && v <= hi, "p{p}={v} outside [{lo},{hi}]");
            prop_assert!(v >= prev, "percentiles not monotone at {p}");
            prev = v;
        }
        prop_assert_eq!(h.max(), hi);
    }

    /// Percentile `p` is the nearest-rank order statistic, checked by
    /// counting: at least `p%` of the samples are at or below it, and
    /// fewer than `max(p% of n, 1)` are strictly below it.
    #[test]
    fn percentile_matches_rank_count(
        xs in prop::collection::vec(-100i32..100, 1..80),
        p_tenths in 0u32..1001,
    ) {
        let p = p_tenths as f64 / 10.0;
        let mut h = Histogram::new();
        for &x in &xs {
            h.record(x as f64);
        }
        let v = h.percentile(p);
        let target = p / 100.0 * xs.len() as f64;
        let at_or_below = xs.iter().filter(|&&x| x as f64 <= v).count() as f64;
        let below = xs.iter().filter(|&&x| (x as f64) < v).count() as f64;
        prop_assert!(at_or_below >= target - 1e-9, "p{p}={v}: {at_or_below} <= v, want >= {target}");
        prop_assert!(below < target.max(1.0), "p{p}={v}: {below} < v, want < {target}");
    }

    /// Node allocation algebra: allocations that fit always succeed, the
    /// in-use sum is exact, and freeing restores the full capacity.
    #[test]
    fn node_allocation_conserves_resources(
        allocs in prop::collection::vec((1u32..4, 1u64..2048, 1u64..2048), 1..20)
    ) {
        let spec = NodeSpec::new(64, 64 * 1024, 64 * 1024);
        let mut node = Node::new(0, spec);
        let mut accepted: Vec<Resources> = Vec::new();
        for (c, m, d) in allocs {
            let r = Resources::new(c, m, d);
            let fits = node.can_fit(&r);
            let ok = node.allocate(r);
            prop_assert_eq!(fits, ok);
            if ok {
                accepted.push(r);
            }
            // Invariant: in-use equals the sum of accepted allocations.
            let sum = accepted
                .iter()
                .fold(Resources::ZERO, |acc, r| acc + *r);
            prop_assert_eq!(node.in_use(), sum);
            // Never oversubscribed.
            prop_assert!(node.in_use().fits_in(&spec.resources));
        }
        for r in accepted.drain(..) {
            node.free(r);
        }
        prop_assert_eq!(node.available(), spec.resources);
        prop_assert_eq!(node.allocation_count(), 0);
    }

    /// copies_in is exact: that many copies fit, one more does not.
    #[test]
    fn copies_in_is_tight(c in 1u32..8, m in 1u64..4096, d in 1u64..4096) {
        let need = Resources::new(c, m, d);
        let cap = Resources::new(32, 32 * 1024, 32 * 1024);
        let n = need.copies_in(&cap);
        let mut node = Node::new(0, NodeSpec { resources: cap, local_disk_bw: 1e9 });
        for i in 0..n {
            prop_assert!(node.allocate(need), "copy {i} of {n} failed");
        }
        prop_assert!(!node.allocate(need), "copies_in under-counted");
    }

    /// Shared-FS costs are monotone in bytes, files, and concurrency.
    #[test]
    fn sharedfs_cost_monotonicity(
        files in 1u64..20_000,
        bytes in 1u64..1 << 32,
        clients in 1usize..10_000,
    ) {
        let params = SharedFsParams::lustre_leadership();
        let base = SharedFs::new(params).import_cost(files, bytes, clients);
        prop_assert!(
            SharedFs::new(params).import_cost(files + 1000, bytes, clients) >= base
        );
        prop_assert!(
            SharedFs::new(params).import_cost(files, bytes * 2, clients) >= base
        );
        prop_assert!(
            SharedFs::new(params).import_cost(files, bytes, clients * 2) >= base - 1e-9
        );
        prop_assert!(base > 0.0);
    }

    /// Summary mean/min/max agree with direct computation.
    #[test]
    fn summary_agrees_with_direct(xs in prop::collection::vec(-1e3f64..1e3, 1..100)) {
        let mut s = crate::metrics::Summary::new();
        for &x in &xs {
            s.record(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        prop_assert!((s.mean() - mean).abs() < 1e-9);
        prop_assert_eq!(s.min(), xs.iter().cloned().fold(f64::INFINITY, f64::min));
        prop_assert_eq!(s.max(), xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max));
        prop_assert_eq!(s.count(), xs.len() as u64);
    }
}
