//! Hierarchical foreman federation: many masters instead of a faster one.
//!
//! The single Work Queue master is an event-loop bottleneck — the indexed
//! scheduler (PR 3) made each event cheap, but every event still funnels
//! through one queue. This module shards the master Work-Queue-foreman
//! style: a root driver partitions the task DAG across `N` sub-masters,
//! each owning its own event loop, journal, fault machinery, scheduler,
//! and worker pool slice. Three mechanisms stitch the shards back into one
//! logical run:
//!
//! * **Partitioning** ([`PartitionPolicy`]) — [`PartitionPolicy::ByComponent`]
//!   (the default) keeps weakly-connected DAG components together (zero
//!   cross-shard dependency edges), balancing components across shards by
//!   total duration. `ByCategory` and `RoundRobin` trade cross-shard edges
//!   for spread.
//! * **Handoff** ([`HandoffConfig`]) — when a producer finishes on one
//!   shard and its dependent is owned by another, a `Release` message rides
//!   a simulated inter-shard link (latency + output bytes over bandwidth)
//!   and lands as a world event on the owner's calendar. Permanent failures
//!   ship `Cancel` the same way; the owner accounts the abandonment and
//!   continues the cascade.
//! * **Work stealing** ([`StealingConfig`]) — after every step, shards with
//!   an empty pending queue steal batches of queued *first attempts* from
//!   the hottest shard (coldest-policy-order tasks first). Migrations are
//!   journaled on the victim (`Stolen`) so a crash cannot resurrect the
//!   task there, and complete on the thief.
//!
//! **Equivalence discipline:** a 1-shard federation runs the exact
//! single-master code path (the ownership filter is vacuous, the outbox
//! stays empty) and produces a bitwise-identical [`RunReport`]. N-shard
//! runs conserve tasks — successes plus abandoned equals submitted, no
//! double completion — under the full fault matrix; per-shard master
//! crashes require journaled durability (a journal-less full restart only
//! re-enqueues *owned* roots and would lose stolen tasks and remote
//! releases, so [`run_federated`] rejects that configuration).
//!
//! The driver itself is deterministic: shards advance strictly in global
//! event-time order (ties to the lowest shard index), so a federated run
//! is a pure function of its inputs, exactly like the single master.

use crate::faults::FaultKind;
use crate::master::{Event, Master, MasterConfig, OutMsg, RunReport};
use crate::task::{TaskId, TaskSpec};
use lfm_monitor::summary::JsonObject;
use lfm_simcluster::node::NodeSpec;
use lfm_simcluster::time::SimTime;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Process-global default shard count, read by [`MasterConfig::new`] so
/// sweep binaries can turn `--shards N` into federated runs without
/// threading a parameter through every call site.
static DEFAULT_SHARDS: AtomicU32 = AtomicU32::new(1);

/// Install the default shard count for subsequently constructed
/// [`MasterConfig`]s (clamped to at least 1). Used by `lfm_bench`'s
/// `--shards N` flag.
pub fn set_default_shards(n: u32) {
    DEFAULT_SHARDS.store(n.max(1), Ordering::Relaxed);
}

pub(crate) fn default_shards() -> u32 {
    DEFAULT_SHARDS.load(Ordering::Relaxed)
}

/// How the task space is split across shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionPolicy {
    /// `task_idx % shards`. Maximizes spread and cross-shard dependency
    /// edges — the handoff stress test.
    RoundRobin,
    /// Tasks of one category stay together (first-appearance order modulo
    /// shards), so each shard's allocator learns its categories from the
    /// full sample stream.
    ByCategory,
    /// Weakly-connected DAG components stay together (zero cross-shard
    /// dependency edges); components are balanced across shards by total
    /// profile duration, heaviest first (default).
    #[default]
    ByComponent,
}

/// The simulated inter-shard link that `Release`/`Cancel` handoffs and
/// stolen tasks ride.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HandoffConfig {
    /// One-way message latency, seconds.
    pub latency_secs: f64,
    /// Link bandwidth for dependency outputs (bytes/second).
    pub bandwidth_bytes_per_sec: f64,
}

impl Default for HandoffConfig {
    fn default() -> Self {
        HandoffConfig {
            latency_secs: 0.05,
            bandwidth_bytes_per_sec: 1.25e9,
        }
    }
}

/// Work-stealing balancer knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StealingConfig {
    /// Most tasks migrated per steal (0 disables stealing).
    pub max_batch: usize,
    /// A victim must have at least this many queued tasks to be robbed.
    pub min_victim: usize,
}

impl Default for StealingConfig {
    fn default() -> Self {
        StealingConfig {
            max_batch: 8,
            min_victim: 2,
        }
    }
}

/// Federation shape: shard count plus the partition, handoff, and stealing
/// policies.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FederationConfig {
    pub shards: u32,
    pub partition: PartitionPolicy,
    pub handoff: HandoffConfig,
    pub stealing: StealingConfig,
}

impl FederationConfig {
    pub fn new(shards: u32) -> Self {
        FederationConfig {
            shards: shards.max(1),
            ..FederationConfig::default()
        }
    }

    pub fn with_partition(mut self, p: PartitionPolicy) -> Self {
        self.partition = p;
        self
    }

    pub fn with_stealing(mut self, s: StealingConfig) -> Self {
        self.stealing = s;
        self
    }

    pub fn with_handoff(mut self, h: HandoffConfig) -> Self {
        self.handoff = h;
        self
    }
}

/// Assign every task an owning shard under `policy`. Deterministic in the
/// task order.
pub fn partition(tasks: &[TaskSpec], shards: u32, policy: PartitionPolicy) -> Vec<u32> {
    assert!(shards > 0, "need at least one shard");
    if shards == 1 {
        return vec![0; tasks.len()];
    }
    match policy {
        PartitionPolicy::RoundRobin => (0..tasks.len()).map(|i| i as u32 % shards).collect(),
        PartitionPolicy::ByCategory => {
            let mut cat_shard: BTreeMap<&str, u32> = BTreeMap::new();
            let mut next = 0u32;
            tasks
                .iter()
                .map(|t| {
                    *cat_shard.entry(&t.category).or_insert_with(|| {
                        let s = next % shards;
                        next += 1;
                        s
                    })
                })
                .collect()
        }
        PartitionPolicy::ByComponent => {
            // Union-find over weakly-connected dependency components.
            let ids: BTreeMap<TaskId, usize> =
                tasks.iter().enumerate().map(|(i, t)| (t.id, i)).collect();
            let mut parent: Vec<usize> = (0..tasks.len()).collect();
            fn find(parent: &mut [usize], mut x: usize) -> usize {
                while parent[x] != x {
                    parent[x] = parent[parent[x]];
                    x = parent[x];
                }
                x
            }
            for (i, t) in tasks.iter().enumerate() {
                for d in &t.deps {
                    if let Some(&j) = ids.get(d) {
                        let (a, b) = (find(&mut parent, i), find(&mut parent, j));
                        if a != b {
                            parent[a.max(b)] = a.min(b);
                        }
                    }
                }
            }
            // Component weight = total profile duration; the greedy bin
            // packer hands the heaviest component to the least-loaded shard.
            let mut weight: BTreeMap<usize, f64> = BTreeMap::new();
            let mut first_idx: BTreeMap<usize, usize> = BTreeMap::new();
            for (i, task) in tasks.iter().enumerate() {
                let root = find(&mut parent, i);
                *weight.entry(root).or_insert(0.0) += task.profile.duration_secs;
                first_idx.entry(root).or_insert(i);
            }
            let mut comps: Vec<(usize, f64)> = weight.into_iter().collect();
            comps.sort_by(|a, b| {
                b.1.partial_cmp(&a.1)
                    .expect("durations are finite")
                    .then(first_idx[&a.0].cmp(&first_idx[&b.0]))
            });
            let mut load = vec![0.0f64; shards as usize];
            let mut comp_shard: BTreeMap<usize, u32> = BTreeMap::new();
            for (root, w) in comps {
                let s = load.iter().enumerate().fold(
                    0usize,
                    |best, (i, &l)| if l < load[best] { i } else { best },
                );
                load[s] += w;
                comp_shard.insert(root, s as u32);
            }
            (0..tasks.len())
                .map(|i| comp_shard[&find(&mut parent, i)])
                .collect()
        }
    }
}

/// The result of a federated run: the merged report plus per-shard
/// attribution and balancer telemetry.
#[derive(Debug, Clone)]
pub struct FederationReport {
    /// The run as a single logical report. For 1 shard this is the shard's
    /// report verbatim (bitwise-identical to the standalone master); for N
    /// shards counters are summed, makespan is the max, and results are
    /// concatenated shard-major.
    pub merged: RunReport,
    /// Each shard's own report. Note `task_count` on these equals the full
    /// workload size — every shard holds the whole task vector and only
    /// enqueues its owned slice.
    pub shard_reports: Vec<RunReport>,
    pub shards: u32,
    /// Steal batches executed.
    pub steals: u64,
    /// Tasks migrated by the balancer.
    pub stolen_tasks: u64,
    /// `Release` + `Cancel` handoff messages delivered across shards.
    pub cross_shard_releases: u64,
    /// Dependency-output bytes that rode the inter-shard link.
    pub handoff_bytes: u64,
    /// Simulation events processed per shard.
    pub shard_events: Vec<u64>,
    /// Tasks that reached a terminal state per shard (stolen tasks count on
    /// the thief).
    pub shard_completed: Vec<u64>,
    /// Host wall-clock seconds spent stepping each shard's event loop.
    pub shard_wall_secs: Vec<f64>,
    /// Host wall-clock seconds of the whole run: the root driver steps the
    /// shards one after another, so this is what a caller waits.
    pub driver_wall_secs: f64,
}

impl FederationReport {
    /// End-to-end scheduler throughput: workload tasks ÷ the driver's wall
    /// time — the bench headline.
    pub fn tasks_per_sec(&self) -> f64 {
        rate(self.merged.task_count as u64, self.driver_wall_secs)
    }

    /// Per shard: terminal tasks ÷ host seconds stepping that shard. A
    /// detail, not a throughput — the shards do not run concurrently, so
    /// these rates do not add up.
    pub fn shard_tasks_per_sec(&self) -> Vec<f64> {
        self.shard_completed
            .iter()
            .zip(&self.shard_wall_secs)
            .map(|(&c, &w)| rate(c, w))
            .collect()
    }

    /// A JSON summary for the federation bench artifact.
    pub fn summary_json(&self) -> String {
        fn list<T: ToString>(xs: &[T]) -> String {
            let items: Vec<String> = xs.iter().map(T::to_string).collect();
            format!("[{}]", items.join(","))
        }
        JsonObject::new()
            .field_u64("shards", self.shards as u64)
            .field_u64("tasks", self.merged.task_count as u64)
            .field_f64("tasks_per_sec", self.tasks_per_sec())
            .field_f64("driver_wall_secs", self.driver_wall_secs)
            .field_f64("makespan_secs", self.merged.makespan_secs)
            .field_u64("steals", self.steals)
            .field_u64("stolen_tasks", self.stolen_tasks)
            .field_u64("cross_shard_releases", self.cross_shard_releases)
            .field_u64("handoff_bytes", self.handoff_bytes)
            .field_raw("shard_completed", &list(&self.shard_completed))
            .field_raw("shard_events", &list(&self.shard_events))
            .field_raw("shard_wall_secs", &list(&self.shard_wall_secs))
            .field_raw("shard_tasks_per_sec", &list(&self.shard_tasks_per_sec()))
            .finish()
    }
}

fn rate(count: u64, secs: f64) -> f64 {
    if secs > 0.0 {
        count as f64 / secs
    } else {
        0.0
    }
}

/// Run `tasks` across a federation of sub-masters. `worker_count` workers
/// are split as evenly as possible across shards (the shard count is
/// clamped so every shard gets at least one worker).
pub fn run_federated(
    config: &MasterConfig,
    fed: &FederationConfig,
    tasks: Vec<TaskSpec>,
    worker_count: u32,
    spec: NodeSpec,
) -> FederationReport {
    assert!(worker_count > 0, "need at least one worker");
    assert!(!tasks.is_empty(), "empty workload");
    let started = Instant::now();
    let shards = fed.shards.clamp(1, worker_count);
    let has_master_crash = config
        .faults
        .specs()
        .iter()
        .any(|s| matches!(s.kind, FaultKind::MasterCrash { .. }));
    assert!(
        shards == 1 || !has_master_crash || config.durability.journal,
        "N-shard federation under master crashes requires journaled durability: \
         a journal-less full restart re-enqueues only owned roots and would lose \
         stolen tasks and remote releases (breaking task conservation)"
    );

    let owner = Arc::new(partition(&tasks, shards, fed.partition));
    let total = tasks.len();
    let n = shards as usize;

    let mut masters: Vec<Master> = (0..shards)
        .map(|s| {
            let mut cfg = config.clone();
            cfg.shards = 1;
            if shards > 1 {
                // Independent per-shard fault/draw streams, derived
                // deterministically from the run seed. A 1-shard federation
                // keeps the seed untouched for bitwise equivalence.
                cfg.seed = crate::faults::mix(config.seed ^ (0x5eed_f0e0 + s as u64));
            }
            let base = worker_count / shards;
            let w = base + u32::from(s < worker_count % shards);
            Master::new_shard(cfg, tasks.clone(), w, spec, s, owner.clone())
        })
        .collect();
    for m in &mut masters {
        m.start();
    }

    let mut wall = vec![0.0f64; n];
    let mut steals = 0u64;
    let mut stolen_tasks = 0u64;
    let mut releases = 0u64;
    let mut handoff_bytes = 0u64;

    loop {
        let done: usize = masters.iter().map(Master::completed_count).sum();
        if done >= total {
            break;
        }
        // Globally minimal next event, ties to the lowest shard index —
        // every pop is monotone in global time, so handoff deliveries can
        // never land in a destination shard's past.
        let mut pick: Option<(usize, SimTime)> = None;
        for (i, m) in masters.iter().enumerate() {
            if let Some(t) = m.next_time() {
                if pick.is_none_or(|(_, bt)| t < bt) {
                    pick = Some((i, t));
                }
            }
        }
        let Some((i, _)) = pick else {
            panic!(
                "federation deadlock: {} of {total} tasks unfinished with no \
                 events pending on any shard",
                total - done
            );
        };
        let t0 = Instant::now();
        masters[i].step();
        wall[i] += t0.elapsed().as_secs_f64();
        let now = masters[i].now();

        // Route this shard's cross-shard effects to their owners.
        for msg in masters[i].drain_outbox() {
            match msg {
                OutMsg::Release {
                    task_idx,
                    at,
                    bytes,
                } => {
                    let dest = owner[task_idx] as usize;
                    let deliver = at
                        + fed.handoff.latency_secs
                        + bytes as f64 / fed.handoff.bandwidth_bytes_per_sec;
                    masters[dest].inject_at(
                        deliver,
                        Event::RemoteRelease {
                            task_idx,
                            success: true,
                        },
                    );
                    releases += 1;
                    handoff_bytes += bytes;
                }
                OutMsg::Cancel { task_idx, at } => {
                    let dest = owner[task_idx] as usize;
                    masters[dest].inject_at(
                        at + fed.handoff.latency_secs,
                        Event::RemoteRelease {
                            task_idx,
                            success: false,
                        },
                    );
                    releases += 1;
                }
            }
        }

        // Work stealing: hungry shards (empty queue, nothing already in
        // flight toward them) rob the hottest victim.
        if shards > 1 && fed.stealing.max_batch > 0 {
            for thief in 0..n {
                if masters[thief].is_down()
                    || masters[thief].queued_len() > 0
                    || masters[thief].inbound_pending() > 0
                {
                    continue;
                }
                let mut victim: Option<(usize, usize)> = None;
                for (v, m) in masters.iter().enumerate() {
                    if v == thief || m.is_down() {
                        continue;
                    }
                    let q = m.queued_len();
                    if q >= fed.stealing.min_victim.max(1) && victim.is_none_or(|(_, bq)| q > bq) {
                        victim = Some((v, q));
                    }
                }
                let Some((v, q)) = victim else { continue };
                let batch = fed.stealing.max_batch.min(q / 2).max(1);
                let moved = masters[v].steal_back(batch);
                if moved.is_empty() {
                    continue;
                }
                steals += 1;
                stolen_tasks += moved.len() as u64;
                let arrive = now + fed.handoff.latency_secs;
                for (task_idx, attempt) in moved {
                    masters[thief].note_inbound();
                    masters[thief].inject_at(arrive, Event::StolenArrive { task_idx, attempt });
                }
            }
        }
    }

    let shard_events: Vec<u64> = masters.iter().map(Master::events_processed).collect();
    let shard_completed: Vec<u64> = masters.iter().map(|m| m.completed_count() as u64).collect();
    let shard_reports: Vec<RunReport> = masters.into_iter().map(Master::finish).collect();

    let merged = if shards == 1 {
        shard_reports[0].clone()
    } else {
        merge_reports(&shard_reports, total)
    };

    FederationReport {
        merged,
        shard_reports,
        shards,
        steals,
        stolen_tasks,
        cross_shard_releases: releases,
        handoff_bytes,
        shard_events,
        shard_completed,
        shard_wall_secs: wall,
        driver_wall_secs: started.elapsed().as_secs_f64(),
    }
}

/// Sum counters, max the makespan, concatenate results shard-major, and
/// recompute the derived overcommit from the summed integrals.
fn merge_reports(reports: &[RunReport], total_tasks: usize) -> RunReport {
    let first = &reports[0];
    let allocated: f64 = reports.iter().map(|r| r.allocated_core_secs).sum();
    let used: f64 = reports.iter().map(|r| r.used_core_secs).sum();
    RunReport {
        strategy: first.strategy.clone(),
        dist_mode: first.dist_mode,
        makespan_secs: reports.iter().map(|r| r.makespan_secs).fold(0.0, f64::max),
        task_count: total_tasks,
        retried_tasks: reports.iter().map(|r| r.retried_tasks).sum(),
        abandoned_tasks: reports.iter().map(|r| r.abandoned_tasks).sum(),
        cache_hits: reports.iter().map(|r| r.cache_hits).sum(),
        cache_misses: reports.iter().map(|r| r.cache_misses).sum(),
        allocated_core_secs: allocated,
        used_core_secs: used,
        overcommit_core_secs: (used - allocated).max(0.0),
        fs_md_ops: reports.iter().map(|r| r.fs_md_ops).sum(),
        net_bytes: reports.iter().map(|r| r.net_bytes).sum(),
        workers_provisioned: reports.iter().map(|r| r.workers_provisioned).sum(),
        workers_lost: reports.iter().map(|r| r.workers_lost).sum(),
        tasks_lost: reports.iter().map(|r| r.tasks_lost).sum(),
        infra_retried_tasks: reports.iter().map(|r| r.infra_retried_tasks).sum(),
        lease_reclaims: reports.iter().map(|r| r.lease_reclaims).sum(),
        stage_in_failures: reports.iter().map(|r| r.stage_in_failures).sum(),
        spurious_kills: reports.iter().map(|r| r.spurious_kills).sum(),
        result_messages_lost: reports.iter().map(|r| r.result_messages_lost).sum(),
        quarantines: reports.iter().map(|r| r.quarantines).sum(),
        lost_core_secs: reports.iter().map(|r| r.lost_core_secs).sum(),
        degraded_to_shared_fs: reports.iter().any(|r| r.degraded_to_shared_fs),
        master_crashes: reports.iter().map(|r| r.master_crashes).sum(),
        recoveries: reports.iter().map(|r| r.recoveries).sum(),
        journal_bytes: reports.iter().map(|r| r.journal_bytes).sum(),
        replayed_events: reports.iter().map(|r| r.replayed_events).sum(),
        results: reports.iter().flat_map(|r| r.results.clone()).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocate::Strategy;
    use crate::files::FileRef;
    use crate::master::run_workload;
    use lfm_monitor::sim::SimTaskProfile;
    use lfm_simcluster::node::{NodeSpec, Resources};

    fn chain_tasks(n: u64, chain_every: u64) -> Vec<TaskSpec> {
        let env = FileRef::environment("fed-env", 200 << 20, 500 << 20, 4000, 700);
        (0..n)
            .map(|i| {
                let mut t = TaskSpec::new(
                    TaskId(i),
                    if i % 3 == 0 { "big" } else { "small" },
                    vec![env.clone(), FileRef::data(format!("fed-in-{i}"), 256 << 10)],
                    20 << 20,
                    SimTaskProfile::new(
                        30.0 + (i % 5) as f64,
                        1.0,
                        if i % 3 == 0 { 2000 } else { 700 },
                        400,
                    ),
                );
                if chain_every > 0 && i % chain_every == chain_every - 1 {
                    t = t.after(vec![TaskId(i - 1)]);
                }
                t
            })
            .collect()
    }

    fn oracle() -> Strategy {
        let mut map = BTreeMap::new();
        map.insert("big".to_string(), Resources::new(1, 2000, 400));
        map.insert("small".to_string(), Resources::new(1, 700, 400));
        Strategy::Oracle(map)
    }

    fn node() -> NodeSpec {
        NodeSpec::new(8, 8192, 16384)
    }

    #[test]
    fn partition_round_robin_and_category_are_deterministic() {
        let tasks = chain_tasks(12, 0);
        let rr = partition(&tasks, 3, PartitionPolicy::RoundRobin);
        assert_eq!(rr, (0..12).map(|i| i % 3).collect::<Vec<u32>>());
        let by_cat = partition(&tasks, 2, PartitionPolicy::ByCategory);
        // "big" first appears at index 0 → shard 0; "small" at 1 → shard 1.
        for (i, t) in tasks.iter().enumerate() {
            let want = if t.category == "big" { 0 } else { 1 };
            assert_eq!(by_cat[i], want);
        }
        assert_eq!(by_cat, partition(&tasks, 2, PartitionPolicy::ByCategory));
    }

    #[test]
    fn by_component_never_splits_a_dependency_edge() {
        let tasks = chain_tasks(40, 4);
        let owner = partition(&tasks, 4, PartitionPolicy::ByComponent);
        let ids: BTreeMap<TaskId, usize> =
            tasks.iter().enumerate().map(|(i, t)| (t.id, i)).collect();
        for (i, t) in tasks.iter().enumerate() {
            for d in &t.deps {
                assert_eq!(owner[i], owner[ids[d]], "dependency edge split");
            }
        }
        // All four shards actually own work.
        for s in 0..4u32 {
            assert!(owner.contains(&s), "shard {s} owns nothing");
        }
    }

    #[test]
    fn one_shard_federation_is_bitwise_identical() {
        let cfg = MasterConfig::new(oracle()).with_seed(13);
        let tasks = chain_tasks(30, 5);
        let single = run_workload(&cfg, tasks.clone(), 4, node());
        let fed = run_federated(&cfg, &FederationConfig::new(1), tasks, 4, node());
        assert_eq!(fed.merged, single);
        assert_eq!(fed.shards, 1);
        assert_eq!(fed.steals, 0);
        assert_eq!(fed.cross_shard_releases, 0);
    }

    #[test]
    fn n_shard_run_conserves_tasks() {
        let cfg = MasterConfig::new(oracle()).with_seed(21);
        let tasks = chain_tasks(60, 5);
        let fed = run_federated(
            &cfg,
            &FederationConfig::new(3).with_partition(PartitionPolicy::RoundRobin),
            tasks,
            6,
            node(),
        );
        let successes = fed
            .merged
            .results
            .iter()
            .filter(|r| r.outcome.is_success())
            .count() as u64;
        assert_eq!(successes + fed.merged.abandoned_tasks, 60);
        assert_eq!(fed.merged.task_count, 60);
        // Round-robin over chained tasks must exercise the handoff path.
        assert!(fed.cross_shard_releases > 0, "no handoff fired");
    }

    #[test]
    fn skewed_partition_triggers_stealing() {
        // Everything owned by shard 0: shard 1 can only get work by
        // stealing it.
        let cfg = MasterConfig::new(oracle()).with_seed(31);
        let tasks = chain_tasks(40, 0);
        let fed = run_federated(
            &cfg,
            &FederationConfig::new(2).with_partition(PartitionPolicy::ByComponent),
            tasks.clone(),
            4,
            node(),
        );
        // Independent tasks: ByComponent balances, so force the skew with
        // a category partition where every task shares one category.
        let skewed: Vec<TaskSpec> = tasks
            .iter()
            .cloned()
            .map(|mut t| {
                t.category = "only".to_string();
                t
            })
            .collect();
        let fed2 = run_federated(
            &cfg,
            &FederationConfig::new(2).with_partition(PartitionPolicy::ByCategory),
            skewed,
            4,
            node(),
        );
        assert!(fed2.stolen_tasks > 0, "balancer never fired");
        let successes = fed2
            .merged
            .results
            .iter()
            .filter(|r| r.outcome.is_success())
            .count() as u64;
        assert_eq!(successes + fed2.merged.abandoned_tasks, 40);
        // Both shards did terminal work.
        assert!(fed2.shard_completed.iter().all(|&c| c > 0));
        drop(fed);
    }

    #[test]
    fn federated_runs_are_deterministic() {
        let cfg = MasterConfig::new(oracle()).with_seed(43);
        let tasks = chain_tasks(48, 4);
        let f = FederationConfig::new(3).with_partition(PartitionPolicy::RoundRobin);
        let a = run_federated(&cfg, &f, tasks.clone(), 6, node());
        let b = run_federated(&cfg, &f, tasks, 6, node());
        assert_eq!(a.merged, b.merged);
        assert_eq!(a.stolen_tasks, b.stolen_tasks);
        assert_eq!(a.cross_shard_releases, b.cross_shard_releases);
        assert_eq!(a.shard_events, b.shard_events);
    }

    #[test]
    fn shards_clamp_to_worker_count() {
        let cfg = MasterConfig::new(oracle()).with_seed(7);
        let fed = run_federated(
            &cfg,
            &FederationConfig::new(16),
            chain_tasks(12, 0),
            3,
            node(),
        );
        assert_eq!(fed.shards, 3);
        let successes = fed
            .merged
            .results
            .iter()
            .filter(|r| r.outcome.is_success())
            .count() as u64;
        assert_eq!(successes + fed.merged.abandoned_tasks, 12);
    }

    #[test]
    #[should_panic(expected = "requires journaled durability")]
    fn n_shard_master_crash_without_journal_is_rejected() {
        use crate::faults::{FaultPlan, FaultSpec};
        let cfg = MasterConfig::new(oracle())
            .with_faults(FaultPlan::reliable().with(FaultSpec::master_crash(20.0, 1)))
            .with_seed(3);
        run_federated(
            &cfg,
            &FederationConfig::new(2),
            chain_tasks(12, 0),
            2,
            node(),
        );
    }

    #[test]
    fn summary_json_is_well_formed_enough() {
        let cfg = MasterConfig::new(oracle()).with_seed(5);
        let fed = run_federated(
            &cfg,
            &FederationConfig::new(2).with_partition(PartitionPolicy::RoundRobin),
            chain_tasks(20, 5),
            4,
            node(),
        );
        let json = fed.summary_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"shards\":2"));
        assert!(json.contains("\"tasks_per_sec\":"));
        assert!(json.contains("\"shard_tasks_per_sec\":["));
        assert!(fed.driver_wall_secs >= fed.shard_wall_secs.iter().sum::<f64>());
    }
}
