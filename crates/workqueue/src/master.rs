//! The Work Queue master: a discrete-event scheduler.
//!
//! Drives a full run: provisions workers through the batch system, matches
//! pending tasks to workers under the active allocation [`Strategy`], stages
//! input files (environment packs, shared data, per-task data) with cache
//! awareness, executes each task under the simulated LFM, retries tasks
//! killed for resource exhaustion at full-worker size, and produces a
//! [`RunReport`] with the makespan/utilization numbers Figures 6–9 plot.

use crate::allocate::{AllocationDecision, Allocator, ObservationEffects, Strategy};
use crate::faults::{backoff_delay, FaultPlan, FaultState, InfraFault, ResilienceConfig};
use crate::files::FileKind;
use crate::journal::{
    CategorySnap, CounterKey, DurabilityConfig, Journal, MasterImage, PlacementSnap, Record,
};
use crate::sched::{policy_rank, IndexedSched, ParkReason, Pending, SchedImpl, Src};
use crate::task::{TaskId, TaskResult, TaskSpec};
use crate::worker::Worker;
use lfm_monitor::limits::ResourceLimits;
use lfm_monitor::report::{MonitorOutcome, ResourceKind};
use lfm_monitor::sim::{SimMonitor, SimTaskProfile};
use lfm_simcluster::batch::{BatchParams, BatchSystem};
use lfm_simcluster::event::EventQueue;
use lfm_simcluster::metrics::Histogram;
use lfm_simcluster::network::{Network, NetworkParams};
use lfm_simcluster::node::{NodeSpec, Resources};
use lfm_simcluster::rng::SimRng;
use lfm_simcluster::sharedfs::{SharedFs, SharedFsParams};
use lfm_simcluster::storage::LocalDisk;
use lfm_simcluster::time::SimTime;
use lfm_telemetry::{Name, Recorder};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::OnceLock;

/// Pre-interned telemetry names for the master's emission sites.
///
/// Interning happens once per process (first use); every emission after
/// that carries a `u32` id instead of hashing a string, which is what
/// keeps full instrumentation within the <5% overhead budget at
/// federation/serving scale (see `lfm_telemetry::intern`).
struct TelKeys {
    // categories
    cat_master: Name,
    cat_worker: Name,
    cat_lfm: Name,
    cat_faults: Name,
    // counters / gauges / observations
    event_worker_up: Name,
    event_worker_down: Name,
    event_task_done: Name,
    event_submit: Name,
    fed_stolen_in: Name,
    journal_snapshot: Name,
    journal_replayed_events: Name,
    master_crash: Name,
    master_recovered: Name,
    master_retry: Name,
    master_abandoned: Name,
    master_task_done: Name,
    master_pending_tasks: Name,
    worker_cache_hit: Name,
    worker_cache_miss: Name,
    worker_transfer_bytes: Name,
    turnaround_s: Name,
    // span / instant names
    queue_wait: Name,
    dispatch: Name,
    task_lost: Name,
    result_lost: Name,
    lease_reclaim: Name,
    quarantine: Name,
    quarantine_release: Name,
    infra_requeue: Name,
    degrade_to_shared_fs: Name,
    spurious_kill: Name,
    retry: Name,
    limit_kill: Name,
    stage_in: Name,
    exec: Name,
    stage_out: Name,
    task: Name,
    // attr keys
    a_category: Name,
    a_cores: Name,
    a_memory_mb: Name,
    a_zombie: Name,
    a_backoff_s: Name,
    a_status: Name,
    a_polls: Name,
    a_peak_rss_mb: Name,
    a_peak_disk_mb: Name,
    a_cpu_s: Name,
    a_monitor_overhead_s: Name,
    a_limit: Name,
}

fn tk() -> &'static TelKeys {
    static KEYS: OnceLock<TelKeys> = OnceLock::new();
    KEYS.get_or_init(|| TelKeys {
        cat_master: Name::intern("master"),
        cat_worker: Name::intern("worker"),
        cat_lfm: Name::intern("lfm"),
        cat_faults: Name::intern("faults"),
        event_worker_up: Name::intern("event.worker_up"),
        event_worker_down: Name::intern("event.worker_down"),
        event_task_done: Name::intern("event.task_done"),
        event_submit: Name::intern("event.submit"),
        fed_stolen_in: Name::intern("fed.stolen_in"),
        journal_snapshot: Name::intern("journal.snapshot"),
        journal_replayed_events: Name::intern("journal.replayed_events"),
        master_crash: Name::intern("master.crash"),
        master_recovered: Name::intern("master.recovered"),
        master_retry: Name::intern("master.retry"),
        master_abandoned: Name::intern("master.abandoned"),
        master_task_done: Name::intern("master.task_done"),
        master_pending_tasks: Name::intern("master.pending_tasks"),
        worker_cache_hit: Name::intern("worker.cache_hit"),
        worker_cache_miss: Name::intern("worker.cache_miss"),
        worker_transfer_bytes: Name::intern("worker.transfer_bytes"),
        turnaround_s: Name::intern("turnaround_s"),
        queue_wait: Name::intern("queue_wait"),
        dispatch: Name::intern("dispatch"),
        task_lost: Name::intern("task_lost"),
        result_lost: Name::intern("result_lost"),
        lease_reclaim: Name::intern("lease_reclaim"),
        quarantine: Name::intern("quarantine"),
        quarantine_release: Name::intern("quarantine_release"),
        infra_requeue: Name::intern("infra_requeue"),
        degrade_to_shared_fs: Name::intern("degrade_to_shared_fs"),
        spurious_kill: Name::intern("spurious_kill"),
        retry: Name::intern("retry"),
        limit_kill: Name::intern("limit_kill"),
        stage_in: Name::intern("stage_in"),
        exec: Name::intern("exec"),
        stage_out: Name::intern("stage_out"),
        task: Name::intern("task"),
        a_category: Name::intern("category"),
        a_cores: Name::intern("cores"),
        a_memory_mb: Name::intern("memory_mb"),
        a_zombie: Name::intern("zombie"),
        a_backoff_s: Name::intern("backoff_s"),
        a_status: Name::intern("status"),
        a_polls: Name::intern("polls"),
        a_peak_rss_mb: Name::intern("peak_rss_mb"),
        a_peak_disk_mb: Name::intern("peak_disk_mb"),
        a_cpu_s: Name::intern("cpu_s"),
        a_monitor_overhead_s: Name::intern("monitor_overhead_s"),
        a_limit: Name::intern("limit"),
    })
}

/// How environments reach workers (§V-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DistMode {
    /// Every task imports straight from the shared filesystem — the
    /// conventional deployment the paper argues against.
    SharedFsDirect,
    /// The packed environment is transferred once per worker, unpacked to
    /// node-local storage, and cached (the LFM approach).
    PackedTransfer,
}

/// Order in which ready tasks are considered for placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedulePolicy {
    /// Submission order.
    Fifo,
    /// Largest memory request first (classic bin-packing heuristic: big
    /// items placed while space is plentiful).
    LargestFirst,
    /// Smallest first (maximizes early task throughput, risks stranding
    /// big tasks).
    SmallestFirst,
}

/// How the worker pool is provisioned (§III "cluster provisioning").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Provisioning {
    /// Submit the whole pool up front.
    Static,
    /// Start with `initial` pilots; whenever ready tasks outnumber free
    /// slots, submit another `batch` pilots up to `max_workers` total.
    Elastic {
        initial: u32,
        max_workers: u32,
        batch: u32,
    },
}

/// How files, environments, and bytes reach workers: distribution mode,
/// batch system, shared filesystem, network fabric, and worker-local I/O
/// interference, grouped under one `Default`-able knob.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StagingConfig {
    pub dist_mode: DistMode,
    pub batch: BatchParams,
    pub fs: SharedFsParams,
    pub net: NetworkParams,
    /// Fractional slowdown per co-resident task (I/O interference on a
    /// worker; HEP's IO-heavy tasks use a non-zero value).
    pub io_interference: f64,
}

impl Default for StagingConfig {
    /// Packed distribution on a responsive campus cluster.
    fn default() -> Self {
        StagingConfig {
            dist_mode: DistMode::PackedTransfer,
            batch: BatchParams::instant(),
            fs: SharedFsParams::campus_nfs(),
            net: NetworkParams::campus_10g(),
            io_interference: 0.0,
        }
    }
}

/// Master configuration. Grouped into three sub-configs — [`StagingConfig`]
/// (how bytes move), [`FaultPlan`] (what breaks), [`ResilienceConfig`] (how
/// the master recovers) — plus the allocation strategy, scheduler, and
/// seed. The flat `with_*` setters forward into the groups, so existing
/// call sites keep compiling.
#[derive(Debug, Clone)]
pub struct MasterConfig {
    pub strategy: Strategy,
    pub monitor: SimMonitor,
    /// Distribution mode, batch system, shared FS, network, I/O model.
    pub staging: StagingConfig,
    /// Injected fault sources (empty = reliable cluster).
    pub faults: FaultPlan,
    /// Leases, backoff, quarantine, degradation, and retry ceilings.
    pub resilience: ResilienceConfig,
    /// Write-ahead journal, snapshot cadence, and crash/recovery costs.
    pub durability: DurabilityConfig,
    pub provisioning: Provisioning,
    pub policy: SchedulePolicy,
    /// Dispatch implementation: the indexed scheduler (default) or the
    /// reference rescan matcher it is placement-for-placement equal to.
    pub sched: SchedImpl,
    /// Shard count for the foreman federation (`federation.rs`). `1` (the
    /// default) runs the classic single master; `> 1` makes
    /// [`run_workload`] route through
    /// [`run_federated`](crate::federation::run_federated) with this many
    /// sub-masters. Initialized from the process-global default installed
    /// by [`set_default_shards`](crate::federation::set_default_shards).
    pub shards: u32,
    pub seed: u64,
    /// Tracing/metrics sink. Defaults to the process-wide recorder (the
    /// no-op recorder unless a runner installed one via `--trace`).
    /// Recording is strictly observational: the simulation's behaviour and
    /// its `RunReport` are identical whether this is live or
    /// [`Recorder::disabled`].
    pub telemetry: Recorder,
}

impl MasterConfig {
    /// A reasonable default: packed distribution on a responsive, reliable
    /// cluster with the default resilience knobs.
    pub fn new(strategy: Strategy) -> Self {
        MasterConfig {
            strategy,
            monitor: SimMonitor::default(),
            staging: StagingConfig::default(),
            faults: FaultPlan::reliable(),
            resilience: ResilienceConfig::default(),
            durability: DurabilityConfig::none(),
            provisioning: Provisioning::Static,
            policy: SchedulePolicy::Fifo,
            sched: SchedImpl::Indexed,
            shards: crate::federation::default_shards(),
            seed: 0x1f2e3d4c,
            telemetry: lfm_telemetry::global(),
        }
    }

    pub fn with_policy(mut self, policy: SchedulePolicy) -> Self {
        self.policy = policy;
        self
    }

    pub fn with_sched(mut self, sched: SchedImpl) -> Self {
        self.sched = sched;
        self
    }

    /// Run this workload across `shards` federated sub-masters (1 = the
    /// classic single master).
    pub fn with_shards(mut self, shards: u32) -> Self {
        self.shards = shards.max(1);
        self
    }

    pub fn with_provisioning(mut self, p: Provisioning) -> Self {
        self.provisioning = p;
        self
    }

    /// Replace the whole staging group.
    pub fn with_staging(mut self, staging: StagingConfig) -> Self {
        self.staging = staging;
        self
    }

    /// Install a fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Replace the resilience knobs.
    pub fn with_resilience(mut self, resilience: ResilienceConfig) -> Self {
        self.resilience = resilience;
        self
    }

    /// Configure the durability layer (journal, snapshots, restart costs).
    pub fn with_durability(mut self, durability: DurabilityConfig) -> Self {
        self.durability = durability;
        self
    }

    pub fn with_dist_mode(mut self, mode: DistMode) -> Self {
        self.staging.dist_mode = mode;
        self
    }

    pub fn with_batch(mut self, batch: BatchParams) -> Self {
        self.staging.batch = batch;
        self
    }

    pub fn with_fs(mut self, fs: SharedFsParams) -> Self {
        self.staging.fs = fs;
        self
    }

    pub fn with_io_interference(mut self, f: f64) -> Self {
        self.staging.io_interference = f;
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn with_monitor(mut self, monitor: SimMonitor) -> Self {
        self.monitor = monitor;
        self
    }

    pub fn with_telemetry(mut self, telemetry: Recorder) -> Self {
        self.telemetry = telemetry;
        self
    }
}

/// The outcome of a whole run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    pub strategy: String,
    pub dist_mode: DistMode,
    /// Workflow completion time, seconds.
    pub makespan_secs: f64,
    pub task_count: usize,
    /// Tasks that exhausted an allocation at least once.
    pub retried_tasks: u64,
    /// Tasks abandoned after `max_attempts`.
    pub abandoned_tasks: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Integral of granted allocations (core-seconds).
    pub allocated_core_secs: f64,
    /// CPU-seconds actually consumed.
    pub used_core_secs: f64,
    /// CPU-seconds consumed *beyond* the granted allocations
    /// (`max(0, used - allocated)`). Non-zero means tasks overcommitted
    /// their grants — an accounting surface the old clamped
    /// `core_efficiency` silently hid.
    pub overcommit_core_secs: f64,
    /// Shared-FS metadata operations issued over the run.
    pub fs_md_ops: u64,
    /// Bytes moved over the master's network.
    pub net_bytes: u64,
    /// Pilots submitted over the run (≥ worker_count under elastic
    /// provisioning or failures).
    pub workers_provisioned: u32,
    /// Workers lost to eviction.
    pub workers_lost: u32,
    /// In-flight task placements lost with their workers (rescheduled).
    pub tasks_lost: u64,
    /// Tasks that consumed at least one infrastructure retry (staging
    /// failure, lost result, lease reclaim, or spurious kill).
    pub infra_retried_tasks: u64,
    /// Placements reclaimed by lease expiry (zombies whose result message
    /// was lost, and stragglers running past their lease).
    pub lease_reclaims: u64,
    /// Stage-in attempts that failed (lost transfers, injected staging
    /// failures, disk-full unpacks).
    pub stage_in_failures: u64,
    /// Executions falsely killed by an injected monitor fault.
    pub spurious_kills: u64,
    /// Completed executions whose result message was lost in transit.
    pub result_messages_lost: u64,
    /// Quarantine entries over the run (a worker re-quarantined counts
    /// again).
    pub quarantines: u32,
    /// Core-seconds held by attempts that produced no result: evictions,
    /// lease reclaims, staging failures, and lost results. The complement
    /// of `allocated_core_secs`, which integrates only attempts that
    /// reported back.
    pub lost_core_secs: f64,
    /// Did packed-environment distribution degrade to the shared
    /// filesystem mid-run?
    pub degraded_to_shared_fs: bool,
    /// Master crashes injected over the run.
    pub master_crashes: u32,
    /// Crashes recovered from the journal (the rest were full restarts).
    pub recoveries: u32,
    /// Total bytes flushed to the write-ahead journal (records plus
    /// compacting snapshots). Zero when journaling is off.
    pub journal_bytes: u64,
    /// Journal records replayed across all recoveries — what snapshot
    /// compaction buys down.
    pub replayed_events: u64,
    /// Every attempt's record.
    pub results: Vec<TaskResult>,
}

impl RunReport {
    /// Fraction of tasks retried *for resource-limit kills* (the paper's
    /// "<1% of tasks were retried"). Infrastructure retries — staging
    /// failures, lost results, lease reclaims, spurious kills — are
    /// deliberately excluded: the task did nothing wrong, so they count in
    /// [`RunReport::infra_retry_fraction`] instead. The two sets are
    /// tracked independently and one task can appear in both.
    pub fn retry_fraction(&self) -> f64 {
        if self.task_count == 0 {
            0.0
        } else {
            self.retried_tasks as f64 / self.task_count as f64
        }
    }

    /// Fraction of tasks that consumed at least one infrastructure retry.
    /// See [`RunReport::retry_fraction`] for the resource-kill counterpart
    /// and the boundary between the two.
    pub fn infra_retry_fraction(&self) -> f64 {
        if self.task_count == 0 {
            0.0
        } else {
            self.infra_retried_tasks as f64 / self.task_count as f64
        }
    }

    /// Allocated-core efficiency. The single definition every report and
    /// bench uses: `used / (allocated + lost)`, where *allocated*
    /// integrates grants of attempts that reported back and *lost*
    /// ([`RunReport::lost_core_secs`]) integrates grants held by attempts
    /// that produced no result (evictions, lease reclaims, staging
    /// failures, lost results) — wasted cores are efficiency losses, not
    /// invisible. Fault-free runs have `lost = 0` and reduce to the
    /// classic `used / allocated`. Deliberately *not* clamped to 1.0 — a
    /// ratio above one means tasks consumed more CPU than their grants
    /// (see [`RunReport::overcommit_core_secs`]), and hiding that behind a
    /// clamp masked the accounting bug surface.
    pub fn core_efficiency(&self) -> f64 {
        let denom = self.allocated_core_secs + self.lost_core_secs;
        if denom <= 0.0 {
            0.0
        } else {
            self.used_core_secs / denom
        }
    }

    /// Serialize the run's headline numbers as a JSON object (the master's
    /// end-of-run log line).
    pub fn summary_json(&self) -> String {
        let mut o = lfm_monitor::summary::JsonObject::new();
        o.field_str("strategy", &self.strategy)
            .field_str(
                "dist_mode",
                match self.dist_mode {
                    DistMode::PackedTransfer => "packed_transfer",
                    DistMode::SharedFsDirect => "shared_fs_direct",
                },
            )
            .field_f64("makespan_s", self.makespan_secs)
            .field_u64("tasks", self.task_count as u64)
            .field_u64("retried_tasks", self.retried_tasks)
            .field_u64("abandoned_tasks", self.abandoned_tasks)
            .field_f64("retry_fraction", self.retry_fraction())
            .field_f64("core_efficiency", self.core_efficiency())
            .field_f64("overcommit_core_secs", self.overcommit_core_secs)
            .field_f64("mean_turnaround_s", self.mean_turnaround_secs())
            .field_f64("p95_turnaround_s", self.turnaround_percentile(95.0))
            .field_f64("p99_turnaround_s", self.turnaround_percentile(99.0))
            .field_u64("cache_hits", self.cache_hits)
            .field_u64("cache_misses", self.cache_misses)
            .field_u64("fs_md_ops", self.fs_md_ops)
            .field_u64("net_bytes", self.net_bytes)
            .field_u64("workers_provisioned", self.workers_provisioned as u64)
            .field_u64("workers_lost", self.workers_lost as u64)
            .field_u64("tasks_lost", self.tasks_lost)
            .field_u64("infra_retried_tasks", self.infra_retried_tasks)
            .field_f64("infra_retry_fraction", self.infra_retry_fraction())
            .field_u64("lease_reclaims", self.lease_reclaims)
            .field_u64("stage_in_failures", self.stage_in_failures)
            .field_u64("spurious_kills", self.spurious_kills)
            .field_u64("result_messages_lost", self.result_messages_lost)
            .field_u64("quarantines", self.quarantines as u64)
            .field_f64("lost_core_secs", self.lost_core_secs)
            .field_u64("degraded_to_shared_fs", self.degraded_to_shared_fs as u64)
            .field_u64("master_crashes", self.master_crashes as u64)
            .field_u64("recoveries", self.recoveries as u64)
            .field_u64("journal_bytes", self.journal_bytes)
            .field_u64("replayed_events", self.replayed_events);
        o.finish()
    }

    /// Sample the run at `dt` resolution: (time, running tasks, allocated
    /// cores). Useful for utilization plots and packing inspection.
    pub fn utilization_timeline(&self, dt: f64) -> Vec<(f64, u32, u32)> {
        assert!(dt > 0.0, "dt must be positive");
        let mut out = Vec::new();
        let mut t = 0.0;
        while t <= self.makespan_secs {
            let mut running = 0u32;
            let mut cores = 0u32;
            for r in &self.results {
                if r.started_at.as_secs() <= t && t < r.finished_at.as_secs() {
                    running += 1;
                    cores += r.allocated.cores;
                }
            }
            out.push((t, running, cores));
            t += dt;
        }
        out
    }

    /// Mean task turnaround (submit → final completion), successful final
    /// attempts only.
    pub fn mean_turnaround_secs(&self) -> f64 {
        let finals: Vec<f64> = self
            .results
            .iter()
            .filter(|r| r.outcome.is_success())
            .map(|r| r.finished_at - r.submitted_at)
            .collect();
        if finals.is_empty() {
            0.0
        } else {
            finals.iter().sum::<f64>() / finals.len() as f64
        }
    }

    /// Distribution of task turnaround (submit → completion) over
    /// successful final attempts — the paper reports tails, not just means.
    pub fn turnaround_histogram(&self) -> Histogram {
        let mut h = Histogram::new();
        for r in self.results.iter().filter(|r| r.outcome.is_success()) {
            h.record(r.finished_at - r.submitted_at);
        }
        h
    }

    /// Turnaround percentile `p` in [0, 100]; 0.0 when nothing succeeded.
    pub fn turnaround_percentile(&self, p: f64) -> f64 {
        let mut h = self.turnaround_histogram();
        h.percentile(p)
    }
}

/// Simulation events.
pub(crate) enum Event {
    WorkerUp {
        id: u32,
    },
    WorkerDown {
        id: u32,
    },
    TaskDone(Box<DoneInfo>),
    /// A placement's lease ran out: reclaim it if still live.
    LeaseExpired {
        placement: u64,
    },
    /// A backed-off infrastructure requeue lands in the pending queue.
    Requeue {
        task_idx: usize,
        attempt: u32,
    },
    /// A quarantined worker rejoins the pool.
    QuarantineRelease {
        id: u32,
    },
    /// A dependency of `task_idx` reached a terminal state on another
    /// shard: `success` decrements the remaining-dependency count,
    /// failure cancels `task_idx` and its downstream (federation handoff).
    RemoteRelease {
        task_idx: usize,
        success: bool,
    },
    /// A ready task migrated from a hot shard lands in this shard's
    /// pending queue (federation work stealing).
    StolenArrive {
        task_idx: usize,
        attempt: u32,
    },
    /// The master comes back up after a crash: process the world events
    /// that arrived while it was down, then resume dispatching.
    Recovered,
    /// A batch of new dependency-free tasks arrives at a *running* master
    /// (streaming submission — see `streaming.rs`). The batch is appended
    /// to the task vector and enqueued like any other ready work.
    Submit(Vec<TaskSpec>),
}

impl Event {
    /// Events the *world* produces (pilots starting/dying, completions in
    /// flight, cross-shard handoffs and stolen-task arrivals). These
    /// survive a master crash in the calendar; everything else is a
    /// master-owned timer that dies with the master's memory and is
    /// re-armed from the recovered image.
    fn is_world(&self) -> bool {
        matches!(
            self,
            Event::WorkerUp { .. }
                | Event::WorkerDown { .. }
                | Event::TaskDone(_)
                | Event::RemoteRelease { .. }
                | Event::StolenArrive { .. }
                | Event::Submit(_)
        )
    }
}

/// A cross-shard effect produced by one shard's event handling, drained by
/// the federation driver after every step and delivered to the owning
/// shard's event queue (see `federation.rs`).
#[derive(Debug)]
pub(crate) enum OutMsg {
    /// A remote dependency of `task_idx` completed successfully at `at`;
    /// `bytes` is the producer's output size riding the handoff path.
    Release {
        task_idx: usize,
        at: SimTime,
        bytes: u64,
    },
    /// A remote dependency of `task_idx` permanently failed at `at`.
    Cancel { task_idx: usize, at: SimTime },
}

/// Federation role state: which shard this master is, the static ownership
/// map over the full task vector, and the outbox of cross-shard effects
/// produced since the federation driver last drained it.
pub(crate) struct FedState {
    pub shard: u32,
    pub owner: std::sync::Arc<Vec<u32>>,
    pub outbox: Vec<OutMsg>,
    /// Stolen-task arrivals injected but not yet handled — the stealing
    /// balancer must not treat a shard as hungry while work is in flight
    /// toward it.
    pub inbound_pending: u32,
}

pub(crate) struct DoneInfo {
    worker: u32,
    /// Unique placement id; stale events for lost placements are dropped.
    placement: u64,
    task_idx: usize,
    attempt: u32,
    allocated: Resources,
    started_at: SimTime,
    stage_in_secs: f64,
    exec_secs: f64,
    outcome: MonitorOutcome,
    /// The attempt failed for infrastructure reasons before/around the
    /// execution; `outcome` is a placeholder when this is a stage-in
    /// fault.
    infra: Option<InfraFault>,
    /// An environment pack was transferred (cache-missed) during this
    /// stage-in — feeds the packed-env degradation counter on failure.
    env_transfer: bool,
}

/// A live placement, for loss recovery and lease reclamation.
#[derive(Debug, Clone, Copy)]
struct PlacementInfo {
    worker: u32,
    task_idx: usize,
    attempt: u32,
    allocated: Resources,
    started_at: SimTime,
    /// The task ran but its result message was lost: worker resources are
    /// already freed, and the placement stays live (so a duplicate
    /// completion can never slip in) until its lease reclaims it.
    zombie: bool,
    /// Absolute lease deadline (seconds), when leases are armed — journaled
    /// so recovery can re-arm the reclamation timer.
    lease_at: Option<f64>,
}

/// The active dispatch implementation's queue state (see `sched.rs`).
enum SchedState {
    /// The original greedy matcher's plain deque.
    Reference(VecDeque<Pending>),
    /// The indexed scheduler.
    Indexed(IndexedSched),
}

#[cfg(test)]
thread_local! {
    /// Placements examined by `evict_worker`, for the linearity regression
    /// test (eviction must scan only the evicted worker's own placements).
    static EVICT_SCANNED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Run a workload to completion under `config`, on `worker_count` workers of
/// `spec`. Panics on deadlock (tasks pending with no worker able to ever fit
/// them would indicate a workload/config bug). When `config.shards > 1` the
/// run routes through the foreman federation and returns the merged report.
pub fn run_workload(
    config: &MasterConfig,
    tasks: Vec<TaskSpec>,
    worker_count: u32,
    spec: NodeSpec,
) -> RunReport {
    assert!(!tasks.is_empty(), "empty workload");
    if config.shards > 1 {
        let fed = crate::federation::FederationConfig::new(config.shards);
        return crate::federation::run_federated(config, &fed, tasks, worker_count, spec).merged;
    }
    Master::new(config.clone(), tasks, worker_count, spec).run()
}

pub(crate) struct Master {
    config: MasterConfig,
    tasks: Vec<TaskSpec>,
    workers: BTreeMap<u32, Worker>,
    sched: SchedState,
    queue: EventQueue<Event>,
    allocator: Allocator,
    fs: SharedFs,
    net: Network,
    disk_model: LocalDisk,
    spec: NodeSpec,
    worker_count: u32,
    in_flight: usize,
    /// Interned category table: `cat_of[task_idx]` indexes `cat_names` and
    /// `running_by_cat`, so the dispatch hot path never clones or hashes a
    /// category string.
    cat_of: Vec<u32>,
    cat_names: Vec<String>,
    running_by_cat: Vec<u32>,
    /// Sum of free cores across live workers, maintained on worker
    /// up/place/finish/evict so elastic scaling never re-sums the pool.
    free_cores: u64,
    batch: BatchSystem,
    /// Compiled fault-injection state (streams + keyed draws).
    faults: FaultState,
    /// The network disturbance draw stream.
    net_rng: SimRng,
    next_placement: u64,
    /// placement id → its live info, for loss recovery and leases.
    live_placements: BTreeMap<u64, PlacementInfo>,
    /// worker → its live placement ids, so eviction is linear in the
    /// evicted worker's own placements.
    placements_by_worker: BTreeMap<u32, BTreeSet<u64>>,
    workers_provisioned: u32,
    workers_lost: u32,
    tasks_lost: u64,
    /// Per-task infrastructure-failure counts, against the infra budget.
    infra_fail_count: Vec<u32>,
    /// Consecutive infra failures per category — the backoff streak,
    /// reset on any success in the category.
    cat_streak: Vec<u32>,
    /// Packed-env distribution degraded to the shared FS for the rest of
    /// the run.
    degraded: bool,
    /// Packed-env staging failures so far (degradation trigger).
    env_failures: u32,
    lease_reclaims: u64,
    stage_in_failures: u64,
    spurious_kills: u64,
    result_msgs_lost: u64,
    quarantines: u32,
    lost_core_secs: f64,
    infra_retried: std::collections::BTreeSet<usize>,
    results: Vec<TaskResult>,
    retried: std::collections::BTreeSet<usize>,
    abandoned: u64,
    completed: usize,
    /// Unsatisfied-dependency counts per task; tasks enter `pending` only at
    /// zero. Dependents listed per task id for O(1) release on completion.
    dep_remaining: Vec<usize>,
    dependents: BTreeMap<TaskId, Vec<usize>>,
    /// The write-ahead journal (`None` when durability is off).
    journal: Option<Journal>,
    /// Suppresses journaling while recovery re-enqueues restored state —
    /// reconstruction is not new history.
    restoring: bool,
    /// Armed backoff timers `((task_idx, attempt), fire_at)` in arm order,
    /// mirrored into snapshots so recovery can re-arm them. Arm order (not
    /// task order) so equal-time timers keep their FIFO tie-break.
    backoffs: Vec<((usize, u32), f64)>,
    /// Quarantined workers and their absolute release times, in entry order.
    quarantine_until: Vec<(u32, f64)>,
    /// Events handled so far — the crash clock `FaultKind::MasterCrash`
    /// points index into. Identical for both scheduler implementations.
    processed_events: u64,
    /// Next unconsumed index into `faults.crash_points()`.
    next_crash: usize,
    /// The master is down: world events buffer in `deferred` until the
    /// `Recovered` event drains them.
    down: bool,
    deferred: Vec<Event>,
    master_crashes: u32,
    recoveries: u32,
    replayed_events: u64,
    /// Task/category counts at construction. Streamed admissions grow
    /// `tasks`/`cat_names` past these, so recovery's fresh-image fallback
    /// must start from the *constructed* sizes and let `Record::Submitted`
    /// replay re-grow the per-task vectors in admission order.
    initial_task_count: usize,
    initial_cat_count: usize,
    /// The `probe_restore_at` test hook already fired.
    probe_done: bool,
    /// Federation role (`None` for the classic standalone master). See
    /// `FedState` and `federation.rs`.
    fed: Option<FedState>,
}

impl Master {
    /// Construct a master. An empty task vector is allowed only for
    /// streaming mode (`streaming.rs`), where tasks arrive via
    /// [`Event::Submit`]; batch entry points assert non-emptiness.
    pub(crate) fn new(
        config: MasterConfig,
        tasks: Vec<TaskSpec>,
        worker_count: u32,
        spec: NodeSpec,
    ) -> Self {
        assert!(worker_count > 0, "need at least one worker");
        let allocator = Allocator::new(config.strategy.clone());
        let fs = SharedFs::new(config.staging.fs);
        let faults = FaultState::new(&config.faults, config.seed);
        let net_rng = SimRng::seeded(faults.net_seed);
        let mut net = Network::new(config.staging.net);
        if let Some(d) = faults.disturbance {
            net.set_disturbance(d);
        }
        // Build the dependency graph. Dependencies on ids not in this batch
        // are a workload bug.
        let ids: BTreeMap<TaskId, usize> =
            tasks.iter().enumerate().map(|(i, t)| (t.id, i)).collect();
        assert_eq!(ids.len(), tasks.len(), "duplicate task ids in workload");
        let mut dep_remaining = vec![0usize; tasks.len()];
        let mut dependents: BTreeMap<TaskId, Vec<usize>> = BTreeMap::new();
        for (i, t) in tasks.iter().enumerate() {
            for d in &t.deps {
                assert!(ids.contains_key(d), "task {} depends on unknown {d}", t.id);
                dep_remaining[i] += 1;
                dependents.entry(*d).or_default().push(i);
            }
        }
        let mut seed_rng = SimRng::seeded(config.seed);
        let batch = BatchSystem::new(config.staging.batch, seed_rng.fork(1));
        // Event volume is predictable from the workload: each task produces
        // a handful of lifecycle events and each worker a provision/poll
        // stream; pre-size the calendar to skip heap regrowth.
        let event_capacity = tasks.len() * 4 + worker_count as usize * 2;
        // Intern categories once so the hot path works with small ids.
        let mut cat_ids: BTreeMap<&str, u32> = BTreeMap::new();
        let mut cat_names: Vec<String> = Vec::new();
        let cat_of: Vec<u32> = tasks
            .iter()
            .map(|t| {
                *cat_ids.entry(&t.category).or_insert_with(|| {
                    cat_names.push(t.category.clone());
                    (cat_names.len() - 1) as u32
                })
            })
            .collect();
        let running_by_cat = vec![0u32; cat_names.len()];
        let cat_streak = vec![0u32; cat_names.len()];
        let sched = match config.sched {
            SchedImpl::Reference => SchedState::Reference(VecDeque::new()),
            SchedImpl::Indexed => SchedState::Indexed(IndexedSched::new(config.policy)),
        };
        let initial_task_count = tasks.len();
        let initial_cat_count = cat_names.len();
        Master {
            dep_remaining,
            dependents,
            cat_of,
            cat_names,
            running_by_cat,
            free_cores: 0,
            batch,
            faults,
            net_rng,
            next_placement: 0,
            live_placements: BTreeMap::new(),
            placements_by_worker: BTreeMap::new(),
            workers_provisioned: 0,
            workers_lost: 0,
            tasks_lost: 0,
            infra_fail_count: vec![0; tasks.len()],
            cat_streak,
            degraded: false,
            env_failures: 0,
            lease_reclaims: 0,
            stage_in_failures: 0,
            spurious_kills: 0,
            result_msgs_lost: 0,
            quarantines: 0,
            lost_core_secs: 0.0,
            infra_retried: std::collections::BTreeSet::new(),
            tasks,
            workers: BTreeMap::new(),
            sched,
            queue: EventQueue::with_capacity(event_capacity),
            allocator,
            fs,
            net,
            disk_model: LocalDisk::nvme(u64::MAX),
            spec,
            worker_count,
            in_flight: 0,
            results: Vec::new(),
            retried: std::collections::BTreeSet::new(),
            abandoned: 0,
            completed: 0,
            journal: config.durability.journal.then(Journal::new),
            restoring: false,
            backoffs: Vec::new(),
            quarantine_until: Vec::new(),
            processed_events: 0,
            next_crash: 0,
            down: false,
            deferred: Vec::new(),
            master_crashes: 0,
            recoveries: 0,
            replayed_events: 0,
            initial_task_count,
            initial_cat_count,
            probe_done: false,
            fed: None,
            config,
        }
    }

    /// Construct a federated sub-master: shard `shard` of the ownership map
    /// `owner` (one entry per task in `tasks`, value = owning shard).
    pub(crate) fn new_shard(
        config: MasterConfig,
        tasks: Vec<TaskSpec>,
        worker_count: u32,
        spec: NodeSpec,
        shard: u32,
        owner: std::sync::Arc<Vec<u32>>,
    ) -> Self {
        debug_assert_eq!(owner.len(), tasks.len());
        let mut m = Master::new(config, tasks, worker_count, spec);
        m.fed = Some(FedState {
            shard,
            owner,
            outbox: Vec::new(),
            inbound_pending: 0,
        });
        m
    }

    /// Is `task_idx` owned by this master? Always true for the standalone
    /// master; federated sub-masters own the tasks the partition assigned
    /// them (stolen tasks run here but stay owned by their home shard).
    fn owned(&self, task_idx: usize) -> bool {
        self.fed
            .as_ref()
            .is_none_or(|f| f.owner[task_idx] == f.shard)
    }

    /// Start the run: journal the header, provision the initial pool, and
    /// enqueue the owned zero-dependency roots.
    pub(crate) fn start(&mut self) {
        // Provision the initial pool.
        let initial = match self.config.provisioning {
            Provisioning::Static => self.worker_count,
            Provisioning::Elastic { initial, .. } => initial.min(self.worker_count).max(1),
        };
        self.jrec(Record::RunStart {
            seed: self.config.seed,
            task_count: self.tasks.len() as u64,
            worker_count: self.worker_count,
        });
        self.submit_pilots(SimTime::ZERO, initial);
        for idx in 0..self.tasks.len() {
            if self.dep_remaining[idx] == 0 && self.owned(idx) {
                self.enqueue_back(Pending {
                    task_idx: idx,
                    attempt: 0,
                    since: SimTime::ZERO,
                });
            }
        }
    }

    /// Process exactly one calendar event (the standalone run loop body).
    /// Panics on deadlock if the calendar is empty with work unfinished —
    /// the federation driver checks `next_time()` first and supplies its
    /// own cross-shard deadlock diagnosis.
    pub(crate) fn step(&mut self) {
        let Some((now, event)) = self.queue.pop() else {
            panic!(
                "deadlock: {} of {} tasks unfinished with no events pending",
                self.tasks.len() - self.completed,
                self.tasks.len()
            );
        };
        if self.down {
            match event {
                Event::Recovered => self.come_back_up(now),
                // The physical cluster keeps moving while the master is
                // down: buffer its events for the recovery drain.
                ev if ev.is_world() => self.deferred.push(ev),
                // Any other timer belonged to the dead process.
                _ => {}
            }
            return;
        }
        self.handle_event(now, event);
        self.after_event();
    }

    fn run(mut self) -> RunReport {
        self.start();
        while self.completed < self.tasks.len() {
            self.step();
        }
        self.finish()
    }

    /// Assemble the final report (the standalone run's epilogue).
    pub(crate) fn finish(self) -> RunReport {
        let makespan = self.queue.now().as_secs();
        let allocated: f64 = self.results.iter().map(|r| r.allocated_core_secs()).sum();
        let used: f64 = self.results.iter().map(|r| r.used_core_secs()).sum();
        let (hits, misses) = self.workers.values().fold((0, 0), |acc, w| {
            (acc.0 + w.cache_hits, acc.1 + w.cache_misses)
        });
        RunReport {
            strategy: self.config.strategy.name().to_string(),
            dist_mode: self.config.staging.dist_mode,
            makespan_secs: makespan,
            task_count: self.tasks.len(),
            retried_tasks: self.retried.len() as u64,
            abandoned_tasks: self.abandoned,
            cache_hits: hits,
            cache_misses: misses,
            allocated_core_secs: allocated,
            used_core_secs: used,
            overcommit_core_secs: (used - allocated).max(0.0),
            fs_md_ops: self.fs.md_ops_served,
            net_bytes: self.net.bytes_moved,
            workers_provisioned: self.workers_provisioned,
            workers_lost: self.workers_lost,
            tasks_lost: self.tasks_lost,
            infra_retried_tasks: self.infra_retried.len() as u64,
            lease_reclaims: self.lease_reclaims,
            stage_in_failures: self.stage_in_failures,
            spurious_kills: self.spurious_kills,
            result_messages_lost: self.result_msgs_lost,
            quarantines: self.quarantines,
            lost_core_secs: self.lost_core_secs,
            degraded_to_shared_fs: self.degraded,
            master_crashes: self.master_crashes,
            recoveries: self.recoveries,
            journal_bytes: self.journal.as_ref().map_or(0, |j| j.bytes_written()),
            replayed_events: self.replayed_events,
            results: self.results,
        }
    }

    /// Process one simulation event while the master is up. Every arm ends
    /// with a dispatch so freed or added capacity is reused immediately.
    fn handle_event(&mut self, now: SimTime, event: Event) {
        match event {
            Event::WorkerUp { id } => {
                self.config
                    .telemetry
                    .counter_at_key(tk().event_worker_up, 1, now);
                let mut worker = Worker::new(id, self.spec);
                // Per-worker fault properties are keyed by worker id,
                // not drawn from a shared stream, so they are identical
                // across scheduler implementations.
                worker.slowdown = self.faults.worker_slowdown(id);
                self.workers.insert(id, worker);
                self.free_cores += self.spec.resources.cores as u64;
                if let SchedState::Indexed(ix) = &mut self.sched {
                    ix.worker_added(id, self.spec.resources.cores);
                    // An empty worker fits any resolved allocation:
                    // every NoFit certificate is void.
                    ix.wake_all_nofit();
                }
                // Sample an eviction time for unreliable pools.
                if let Some(lifetime) = self.faults.worker_lifetime(id) {
                    self.queue.schedule_in(lifetime, Event::WorkerDown { id });
                }
                self.dispatch(now);
            }
            Event::WorkerDown { id } => {
                self.config
                    .telemetry
                    .counter_at_key(tk().event_worker_down, 1, now);
                self.evict_worker(now, id);
                self.dispatch(now);
            }
            Event::TaskDone(info) => {
                self.config
                    .telemetry
                    .counter_at_key(tk().event_task_done, 1, now);
                // A placement lost with its worker (or reclaimed by its
                // lease) was already rescheduled; drop the stale
                // completion.
                if !self.live_placements.contains_key(&info.placement) {
                    return;
                }
                if info.infra == Some(InfraFault::ResultLost) {
                    // The task ran, but its completion message vanished:
                    // free the worker and leave a zombie placement for
                    // the lease to reclaim.
                    self.result_lost(now, &info);
                } else {
                    self.live_placements.remove(&info.placement);
                    if let Some(set) = self.placements_by_worker.get_mut(&info.worker) {
                        set.remove(&info.placement);
                    }
                    self.jrec(Record::Freed {
                        placement: info.placement,
                    });
                    self.finish_task(now, *info);
                }
                self.dispatch(now);
            }
            Event::LeaseExpired { placement } => {
                self.reclaim_lease(now, placement);
                self.dispatch(now);
            }
            Event::Requeue { task_idx, attempt } => {
                // The armed backoff fires: retire its ledger entry, then
                // enqueue (which journals the matching front-enqueue).
                self.backoffs
                    .retain(|&((t, a), _)| !(t == task_idx && a == attempt));
                self.enqueue_front(Pending {
                    task_idx,
                    attempt,
                    since: now,
                });
                self.dispatch(now);
            }
            Event::QuarantineRelease { id } => {
                self.release_quarantine(now, id);
                self.dispatch(now);
            }
            Event::RemoteRelease { task_idx, success } => {
                self.handle_remote_release(now, task_idx, success);
                self.dispatch(now);
            }
            Event::StolenArrive { task_idx, attempt } => {
                if let Some(f) = self.fed.as_mut() {
                    f.inbound_pending = f.inbound_pending.saturating_sub(1);
                }
                self.config
                    .telemetry
                    .counter_at_key(tk().fed_stolen_in, 1, now);
                self.enqueue_back(Pending {
                    task_idx,
                    attempt,
                    since: now,
                });
                self.dispatch(now);
            }
            Event::Recovered => unreachable!("Recovered is only delivered while down"),
            Event::Submit(specs) => {
                self.config
                    .telemetry
                    .counter_at_key(tk().event_submit, specs.len() as u64, now);
                for spec in specs {
                    self.admit_streamed(now, spec);
                }
                self.dispatch(now);
            }
        }
    }

    /// Append one streamed task to a running master and enqueue it. The
    /// per-task parallel vectors (dependency counts, infra budgets) grow
    /// with it, and a first-seen category is interned on the fly — the
    /// allocator then learns its label from scratch exactly as it would
    /// have for an up-front batch.
    fn admit_streamed(&mut self, now: SimTime, spec: TaskSpec) {
        assert!(
            spec.deps.is_empty(),
            "streamed task {} has dependencies; streaming submission is for \
             independent invocations",
            spec.id
        );
        let task_idx = self.tasks.len();
        let cat = match self.cat_names.iter().position(|c| c == &spec.category) {
            Some(i) => i as u32,
            None => {
                self.cat_names.push(spec.category.clone());
                self.running_by_cat.push(0);
                self.cat_streak.push(0);
                (self.cat_names.len() - 1) as u32
            }
        };
        self.cat_of.push(cat);
        self.dep_remaining.push(0);
        self.infra_fail_count.push(0);
        self.jrec(Record::Submitted {
            task_idx: task_idx as u64,
            cat,
            spec: Box::new(spec.clone()),
        });
        self.tasks.push(spec);
        self.enqueue_back(Pending {
            task_idx,
            attempt: 0,
            since: now,
        });
    }

    /// A dependency of `task_idx` reached a terminal state on another shard.
    /// Mirrors the local `release_dependents` / `cancel_dependents` paths,
    /// deduplicating against already-cancelled dependents.
    fn handle_remote_release(&mut self, now: SimTime, task_idx: usize, success: bool) {
        if self.dep_remaining[task_idx] == usize::MAX {
            // Already cancelled by another failed upstream.
            return;
        }
        if success {
            self.jrec(Record::RemoteDep {
                task_idx: task_idx as u64,
            });
            self.dep_remaining[task_idx] -= 1;
            if self.dep_remaining[task_idx] == 0 {
                self.enqueue_back(Pending {
                    task_idx,
                    attempt: 0,
                    since: now,
                });
            }
        } else {
            self.dep_remaining[task_idx] = usize::MAX;
            self.abandoned += 1;
            self.completed += 1;
            self.jrec(Record::Cancelled {
                task_idx: task_idx as u64,
            });
            self.cancel_dependents(task_idx);
        }
    }

    /// Bookkeeping after every event processed while up: the crash-point
    /// check, the restore-equivalence probe, snapshot compaction, elastic
    /// scaling, and the queue-depth gauge.
    fn after_event(&mut self) {
        self.processed_events += 1;
        if let Some(&point) = self.faults.crash_points().get(self.next_crash) {
            if self.processed_events >= point {
                self.crash(self.queue.now());
                return;
            }
        }
        if let Some(at) = self.config.durability.probe_restore_at {
            if !self.probe_done && self.processed_events >= at && self.is_quiescent() {
                self.probe_restore(self.queue.now());
                self.probe_done = true;
            }
        }
        if let Some(j) = self.journal.as_ref() {
            if j.wants_snapshot(self.config.durability.snapshot_every) {
                let img = self.snapshot_image();
                self.journal
                    .as_mut()
                    .expect("journal present")
                    .install_snapshot(&img);
                self.config
                    .telemetry
                    .counter_at_key(tk().journal_snapshot, 1, self.queue.now());
            }
        }
        self.maybe_scale(self.queue.now());
        self.config.telemetry.gauge_key(
            tk().master_pending_tasks,
            self.pending_len() as f64,
            self.queue.now(),
        );
    }

    /// No armed master-side timers (leases, backoffs, quarantine releases):
    /// restoring here re-arms nothing, so the event queue is untouched and a
    /// probe restore must be bit-exact. In-flight placements are fine — they
    /// live in the image, not the queue — as long as their leases are
    /// unarmed (always true on a fault-free cluster).
    fn is_quiescent(&self) -> bool {
        self.backoffs.is_empty()
            && self.quarantine_until.is_empty()
            && self.live_placements.values().all(|p| p.lease_at.is_none())
    }

    // ---- durability: journaling, crash, and recovery ----

    /// Append a write-ahead record — unless recovery is reconstructing
    /// state (reconstruction is not new history) or durability is off.
    fn jrec(&mut self, rec: Record) {
        if self.restoring {
            return;
        }
        if let Some(j) = self.journal.as_mut() {
            j.append(rec);
        }
    }

    /// Journal a plain report-counter delta.
    fn jcount(&mut self, key: CounterKey, amount: f64) {
        self.jrec(Record::Counter { key, amount });
    }

    /// The master process dies. Its logical state is wiped; the physical
    /// cluster (workers, caches, running executions, in-flight transfers)
    /// keeps moving. With a journal the master recovers `snapshot ⊕ tail`;
    /// without one it restarts the run from scratch (the bench baseline).
    /// Either way the master stays down for the restart latency plus the
    /// per-record replay cost, buffering world events until `Recovered`.
    fn crash(&mut self, now: SimTime) {
        self.master_crashes += 1;
        self.next_crash += 1;
        self.config
            .telemetry
            .counter_at_key(tk().master_crash, 1, now);
        // Master-side timers (leases, backoffs, quarantine releases) died
        // with the process; only the physical world's events survive.
        self.queue.retain(Event::is_world);
        let tail = self.journal.as_ref().map(|j| j.tail_len());
        let downtime = self.config.durability.restart_secs
            + self.config.durability.replay_secs_per_event * tail.unwrap_or(0) as f64;
        let resume_at = now + downtime;
        // Recovery re-arms master timers whose deadlines passed while down
        // by clamping them to the recovery instant. Ties break FIFO, so
        // `Recovered` must be inserted first: otherwise a clamped timer
        // pops while the master is still down and is discarded as a
        // dead-process timer, leaving its ledger entry armed forever.
        self.queue.schedule_at(resume_at, Event::Recovered);
        match tail {
            Some(replayed) => {
                let img = self.recover_image();
                self.replayed_events += replayed;
                self.config
                    .telemetry
                    .counter_at_key(tk().journal_replayed_events, replayed, now);
                self.restore_from_image(&img, resume_at);
                self.recoveries += 1;
            }
            None => self.full_restart(resume_at),
        }
        self.down = true;
        self.deferred.clear();
    }

    /// The master process is back up: drain the world events that arrived
    /// while it was down (in their original order), then resume dispatching.
    fn come_back_up(&mut self, now: SimTime) {
        self.down = false;
        self.config
            .telemetry
            .counter_at_key(tk().master_recovered, 1, now);
        let deferred = std::mem::take(&mut self.deferred);
        for ev in deferred {
            self.handle_event(now, ev);
            self.processed_events += 1;
        }
        self.dispatch(now);
        self.maybe_scale(now);
        self.config
            .telemetry
            .gauge_key(tk().master_pending_tasks, self.pending_len() as f64, now);
    }

    /// Fold the journal (base snapshot plus record tail) into the image the
    /// crashed master must resume from.
    fn recover_image(&mut self) -> MasterImage {
        let journal = self.journal.take().expect("journaled recovery");
        let mut img = journal
            .base_image()
            .expect("snapshot decodes")
            .unwrap_or_else(|| {
                // Start from the *constructed* task/category sizes: tasks
                // streamed in after run start re-grow the image as their
                // `Submitted` records replay.
                let fresh_deps: Vec<usize> = self.tasks[..self.initial_task_count]
                    .iter()
                    .map(|t| t.deps.len())
                    .collect();
                MasterImage::fresh(&fresh_deps, self.initial_task_count, self.initial_cat_count)
            });
        let full_deps = Self::dependency_graph(&self.tasks);
        for rec in journal.tail() {
            self.apply_record(&mut img, rec, &full_deps);
        }
        self.journal = Some(journal);
        img
    }

    /// Replay one record into an image — the exact mutation the live master
    /// performed when it appended the record.
    fn apply_record(
        &self,
        img: &mut MasterImage,
        rec: &Record,
        full_deps: &BTreeMap<TaskId, Vec<usize>>,
    ) {
        match rec {
            Record::RunStart {
                seed,
                task_count,
                worker_count,
            } => {
                debug_assert_eq!(*seed, self.config.seed, "journal from another run");
                // `self.tasks` may have grown past the header count via
                // streamed admissions; the header pins the constructed size.
                debug_assert_eq!(*task_count, self.initial_task_count as u64);
                debug_assert_eq!(*worker_count, self.worker_count);
            }
            Record::Enqueue {
                task_idx,
                attempt,
                front,
                since,
            } => {
                // An enqueue of an attempt retires any armed backoff for it:
                // the timer fired (or the attempt re-entered another way).
                img.backoffs
                    .retain(|&(t, a, _)| !(t == *task_idx && a == *attempt));
                if *front {
                    img.pending.push_front((*task_idx, *attempt, *since));
                } else {
                    img.pending.push_back((*task_idx, *attempt, *since));
                }
            }
            Record::BackoffArm {
                task_idx,
                attempt,
                at,
            } => img.backoffs.push((*task_idx, *attempt, *at)),
            Record::Placed {
                placement,
                worker,
                task_idx,
                attempt,
                alloc,
                started_at,
                lease_at,
            } => {
                // An attempt is pending at most once, so the match is unique.
                if let Some(pos) = img
                    .pending
                    .iter()
                    .position(|&(t, a, _)| t == *task_idx && a == *attempt)
                {
                    img.pending.remove(pos);
                }
                img.placements.insert(
                    *placement,
                    PlacementSnap {
                        worker: *worker,
                        task_idx: *task_idx,
                        attempt: *attempt,
                        alloc: *alloc,
                        started_at: *started_at,
                        zombie: false,
                        lease_at: *lease_at,
                    },
                );
                img.next_placement = placement + 1;
            }
            Record::Zombie { placement } => {
                if let Some(p) = img.placements.get_mut(placement) {
                    p.zombie = true;
                }
            }
            Record::Freed { placement } => {
                img.placements.remove(placement);
            }
            Record::Result(tr) => img.results.push((**tr).clone()),
            Record::Finished { task_idx, success } => {
                img.completed += 1;
                if *success {
                    let id = self.tasks[*task_idx as usize].id;
                    for &dep_idx in full_deps.get(&id).map(Vec::as_slice).unwrap_or(&[]) {
                        // Only locally-owned dependents were decremented by
                        // the live path — remote ones were released via the
                        // federation outbox and the owner's own journal.
                        if !self.owned(dep_idx) {
                            continue;
                        }
                        // Mirrors the live decrement, including the
                        // cancelled-marker wrap (u64::MAX → u64::MAX - 1).
                        img.dep_remaining[dep_idx] = img.dep_remaining[dep_idx].wrapping_sub(1);
                    }
                }
            }
            Record::Stolen { task_idx, attempt } => {
                // The live path removed the attempt from the pending queue
                // and shipped it to the thief shard.
                if let Some(pos) = img
                    .pending
                    .iter()
                    .position(|&(t, a, _)| t == *task_idx && a == *attempt)
                {
                    img.pending.remove(pos);
                }
            }
            Record::RemoteDep { task_idx } => {
                img.dep_remaining[*task_idx as usize] =
                    img.dep_remaining[*task_idx as usize].wrapping_sub(1);
            }
            Record::Abandoned { .. } => {
                img.abandoned += 1;
                img.completed += 1;
            }
            Record::Cancelled { task_idx } => {
                img.dep_remaining[*task_idx as usize] = u64::MAX;
                img.abandoned += 1;
                img.completed += 1;
            }
            Record::Observe {
                cat,
                peak_cores,
                peak_rss_mb,
                peak_disk_mb,
                completed,
                violated,
            } => {
                // Exactly `Allocator::observe_outcome`, against the sample
                // vectors instead of the live stores.
                let s = &mut img.alloc_stats[*cat as usize];
                match violated {
                    None => {
                        s.cores.push(peak_cores.max(0.01));
                        s.memory_mb.push((*peak_rss_mb).max(1) as f64);
                        s.disk_mb.push((*peak_disk_mb).max(1) as f64);
                    }
                    Some(ResourceKind::Cores) => s.cores.push(peak_cores.max(0.01) * 2.0),
                    Some(ResourceKind::Memory) => {
                        s.memory_mb.push((*peak_rss_mb).max(1) as f64 * 2.0)
                    }
                    Some(ResourceKind::Disk) => s.disk_mb.push((*peak_disk_mb).max(1) as f64 * 2.0),
                    Some(ResourceKind::WallTime) => {}
                }
                if *completed {
                    s.completed += 1;
                }
            }
            Record::Retried { task_idx } => {
                if let Err(pos) = img.retried.binary_search(task_idx) {
                    img.retried.insert(pos, *task_idx);
                }
            }
            Record::InfraRetried { task_idx, count } => {
                if let Err(pos) = img.infra_retried.binary_search(task_idx) {
                    img.infra_retried.insert(pos, *task_idx);
                }
                img.infra_fail_count[*task_idx as usize] = *count;
            }
            Record::Streak { cat, value } => img.cat_streak[*cat as usize] = *value,
            Record::WorkerFault { worker, count } => {
                img.worker_faults.insert(*worker, *count);
            }
            Record::Quarantined { worker, release_at } => {
                img.quarantined_until.push((*worker, *release_at));
                img.quarantines += 1;
            }
            Record::QuarantineLifted { worker } => {
                img.quarantined_until.retain(|&(w, _)| w != *worker);
                img.worker_faults.remove(worker);
            }
            Record::EnvFailure { count } => img.env_failures = *count,
            Record::Degraded => img.degraded = true,
            Record::Submitted { task_idx, cat, .. } => {
                // Mirrors `admit_streamed`: the per-task vectors grow by one
                // slot (dependency-free) and a first-seen category extends
                // the per-category vectors. The spec itself survives in
                // `self.tasks` — the record's copy keeps the on-disk journal
                // self-contained; replay only needs the index growth.
                debug_assert_eq!(
                    *task_idx,
                    img.dep_remaining.len() as u64,
                    "streamed admissions replay in admission order"
                );
                img.dep_remaining.push(0);
                img.infra_fail_count.push(0);
                while img.cat_streak.len() <= *cat as usize {
                    img.cat_streak.push(0);
                }
                while img.alloc_stats.len() <= *cat as usize {
                    img.alloc_stats.push(CategorySnap::default());
                }
            }
            Record::Counter { key, amount } => match key {
                CounterKey::WorkersProvisioned => img.workers_provisioned += *amount as u32,
                CounterKey::WorkersLost => img.workers_lost += *amount as u32,
                CounterKey::TasksLost => img.tasks_lost += *amount as u64,
                CounterKey::LeaseReclaims => img.lease_reclaims += *amount as u64,
                CounterKey::StageInFailures => img.stage_in_failures += *amount as u64,
                CounterKey::SpuriousKills => img.spurious_kills += *amount as u64,
                CounterKey::ResultMsgsLost => img.result_msgs_lost += *amount as u64,
                CounterKey::LostCoreSecs => img.lost_core_secs += *amount,
            },
        }
    }

    /// Serialize the master's complete logical state. The pending queue is
    /// enumerated canonically (policy-sorted, stable) so both scheduler
    /// implementations emit byte-identical snapshots; allocator sample
    /// stores export canonically for the same reason.
    fn snapshot_image(&self) -> MasterImage {
        let pending: Vec<Pending> = match &self.sched {
            SchedState::Reference(q) => {
                let mut v: Vec<Pending> = q.iter().cloned().collect();
                v.sort_by_key(|p| {
                    policy_rank(
                        self.config.policy,
                        self.tasks[p.task_idx].profile.peak_memory_mb,
                    )
                });
                v
            }
            SchedState::Indexed(ix) => ix.snapshot_pending(),
        };
        MasterImage {
            pending: pending
                .into_iter()
                .map(|p| (p.task_idx as u64, p.attempt, p.since))
                .collect(),
            backoffs: self
                .backoffs
                .iter()
                .map(|&((t, a), at)| (t as u64, a, SimTime::from_secs(at)))
                .collect(),
            placements: self
                .live_placements
                .iter()
                .map(|(&id, p)| {
                    (
                        id,
                        PlacementSnap {
                            worker: p.worker,
                            task_idx: p.task_idx as u64,
                            attempt: p.attempt,
                            alloc: p.allocated,
                            started_at: p.started_at,
                            zombie: p.zombie,
                            lease_at: p.lease_at.map(SimTime::from_secs),
                        },
                    )
                })
                .collect(),
            next_placement: self.next_placement,
            alloc_stats: self
                .cat_names
                .iter()
                .map(|cat| {
                    self.allocator
                        .snapshot_category(cat)
                        .map(|(cores, memory_mb, disk_mb, completed)| CategorySnap {
                            cores,
                            memory_mb,
                            disk_mb,
                            completed: completed as u64,
                        })
                        .unwrap_or_default()
                })
                .collect(),
            dep_remaining: self
                .dep_remaining
                .iter()
                .map(|&d| if d == usize::MAX { u64::MAX } else { d as u64 })
                .collect(),
            completed: self.completed as u64,
            abandoned: self.abandoned,
            results: self.results.clone(),
            retried: self.retried.iter().map(|&t| t as u64).collect(),
            infra_retried: self.infra_retried.iter().map(|&t| t as u64).collect(),
            infra_fail_count: self.infra_fail_count.clone(),
            cat_streak: self.cat_streak.clone(),
            worker_faults: self
                .workers
                .values()
                .filter(|w| w.infra_failures > 0)
                .map(|w| (w.id(), w.infra_failures))
                .collect(),
            quarantined_until: self
                .quarantine_until
                .iter()
                .map(|&(w, t)| (w, SimTime::from_secs(t)))
                .collect(),
            quarantines: self.quarantines,
            degraded: self.degraded,
            env_failures: self.env_failures,
            workers_provisioned: self.workers_provisioned,
            workers_lost: self.workers_lost,
            tasks_lost: self.tasks_lost,
            lease_reclaims: self.lease_reclaims,
            stage_in_failures: self.stage_in_failures,
            spurious_kills: self.spurious_kills,
            result_msgs_lost: self.result_msgs_lost,
            lost_core_secs: self.lost_core_secs,
        }
    }

    /// Overwrite the master's logical state from an image, rebuild the
    /// active scheduler implementation, and re-arm master-side timers
    /// clamped to the recovery instant. World state (workers, caches,
    /// running executions) is untouched — it survived the crash.
    fn restore_from_image(&mut self, img: &MasterImage, resume_at: SimTime) {
        self.restoring = true;
        self.dep_remaining = img
            .dep_remaining
            .iter()
            .map(|&d| {
                if d == u64::MAX {
                    usize::MAX
                } else {
                    d as usize
                }
            })
            .collect();
        // The rebuilt graph is unpruned, but pruning is an optimization:
        // every re-walk of an already-cancelled branch is stopped by the
        // `usize::MAX` markers restored above.
        self.dependents = Self::dependency_graph(&self.tasks);
        self.completed = img.completed as usize;
        self.abandoned = img.abandoned;
        self.results = img.results.clone();
        self.retried = img.retried.iter().map(|&t| t as usize).collect();
        self.infra_retried = img.infra_retried.iter().map(|&t| t as usize).collect();
        self.infra_fail_count = img.infra_fail_count.clone();
        self.cat_streak = img.cat_streak.clone();
        self.quarantines = img.quarantines;
        self.degraded = img.degraded;
        self.env_failures = img.env_failures;
        self.workers_provisioned = img.workers_provisioned;
        self.workers_lost = img.workers_lost;
        self.tasks_lost = img.tasks_lost;
        self.lease_reclaims = img.lease_reclaims;
        self.stage_in_failures = img.stage_in_failures;
        self.spurious_kills = img.spurious_kills;
        self.result_msgs_lost = img.result_msgs_lost;
        self.lost_core_secs = img.lost_core_secs;
        self.next_placement = img.next_placement;

        // The allocator's labels are a pure function of the sample multiset,
        // so replaying the exported samples reproduces every decision.
        self.allocator = Allocator::new(self.config.strategy.clone());
        for (cat, s) in self.cat_names.iter().zip(&img.alloc_stats) {
            if s.cores.is_empty()
                && s.memory_mb.is_empty()
                && s.disk_mb.is_empty()
                && s.completed == 0
            {
                continue;
            }
            self.allocator.restore_category(
                cat,
                &s.cores,
                &s.memory_mb,
                &s.disk_mb,
                s.completed as usize,
            );
        }

        self.live_placements.clear();
        self.placements_by_worker.clear();
        for c in &mut self.running_by_cat {
            *c = 0;
        }
        self.in_flight = 0;
        for (&id, p) in &img.placements {
            self.live_placements.insert(
                id,
                PlacementInfo {
                    worker: p.worker,
                    task_idx: p.task_idx as usize,
                    attempt: p.attempt,
                    allocated: p.alloc,
                    started_at: p.started_at,
                    zombie: p.zombie,
                    lease_at: p.lease_at.map(|t| t.as_secs()),
                },
            );
            if !p.zombie {
                // Zombies already freed their resources; they stay live only
                // to block duplicate completions until the lease reclaims.
                self.placements_by_worker
                    .entry(p.worker)
                    .or_default()
                    .insert(id);
                self.in_flight += 1;
                self.running_by_cat[self.cat_of[p.task_idx as usize] as usize] += 1;
            }
        }

        for w in self.workers.values_mut() {
            w.quarantined = false;
            w.infra_failures = 0;
        }
        for (&wid, &count) in &img.worker_faults {
            if let Some(w) = self.workers.get_mut(&wid) {
                w.infra_failures = count;
            }
        }
        for &(wid, _) in &img.quarantined_until {
            if let Some(w) = self.workers.get_mut(&wid) {
                w.quarantined = true;
            }
        }
        self.free_cores = self
            .workers
            .values()
            .filter(|w| !w.quarantined)
            .map(|w| w.node.available().cores as u64)
            .sum();

        self.backoffs = img
            .backoffs
            .iter()
            .map(|&(t, a, at)| ((t as usize, a), at.as_secs()))
            .collect();
        self.quarantine_until = img
            .quarantined_until
            .iter()
            .map(|&(w, t)| (w, t.as_secs()))
            .collect();

        let pending: Vec<Pending> = img
            .pending
            .iter()
            .map(|&(t, a, since)| Pending {
                task_idx: t as usize,
                attempt: a,
                since,
            })
            .collect();
        self.rebuild_sched(pending);

        // Re-arm master-side timers, clamping deadlines that passed while
        // the master was down to the recovery instant. Each class re-arms
        // in its original arm order, so equal-time timers keep their FIFO
        // tie-break.
        let clamp = |t: f64| SimTime::from_secs(t.max(resume_at.as_secs()));
        let leases: Vec<(u64, f64)> = self
            .live_placements
            .iter()
            .filter_map(|(&id, p)| p.lease_at.map(|t| (id, t)))
            .collect();
        for (placement, t) in leases {
            self.queue
                .schedule_at(clamp(t), Event::LeaseExpired { placement });
        }
        for ((task_idx, attempt), at) in self.backoffs.clone() {
            self.queue
                .schedule_at(clamp(at), Event::Requeue { task_idx, attempt });
        }
        for (id, t) in self.quarantine_until.clone() {
            self.queue
                .schedule_at(clamp(t), Event::QuarantineRelease { id });
        }
        self.restoring = false;
    }

    /// Crash recovery without a journal: the restarted master knows nothing.
    /// Orphaned placements are torn down (their completions will be dropped
    /// as stale), every learned label and result row is lost, and the whole
    /// workload re-enqueues from its roots — only worker caches survive to
    /// soften the re-run. This deliberately breaks run conservation; it is
    /// the baseline the recovery bench measures the journal against.
    fn full_restart(&mut self, resume_at: SimTime) {
        let placements: Vec<PlacementInfo> = self.live_placements.values().copied().collect();
        for p in &placements {
            if p.zombie {
                continue;
            }
            if let Some(w) = self.workers.get_mut(&p.worker) {
                w.node.free(p.allocated);
                w.running -= 1;
            }
        }
        // Forget in-flight staging marks for torn-down placements so the
        // re-run re-stages cleanly.
        for p in &placements {
            if p.zombie {
                continue;
            }
            for i in 0..self.tasks[p.task_idx].inputs.len() {
                let name = self.tasks[p.task_idx].inputs[i].name.clone();
                let cacheable = self.tasks[p.task_idx].inputs[i].cacheable;
                if cacheable {
                    if let Some(w) = self.workers.get_mut(&p.worker) {
                        w.abort_staging(&name);
                    }
                }
            }
        }
        self.live_placements.clear();
        self.placements_by_worker.clear();
        self.in_flight = 0;
        for c in &mut self.running_by_cat {
            *c = 0;
        }
        self.backoffs.clear();
        self.quarantine_until.clear();
        for w in self.workers.values_mut() {
            w.quarantined = false;
            w.infra_failures = 0;
        }
        self.free_cores = self
            .workers
            .values()
            .map(|w| w.node.available().cores as u64)
            .sum();
        self.allocator = Allocator::new(self.config.strategy.clone());
        self.dep_remaining = self.tasks.iter().map(|t| t.deps.len()).collect();
        self.dependents = Self::dependency_graph(&self.tasks);
        self.infra_fail_count = vec![0; self.tasks.len()];
        for s in &mut self.cat_streak {
            *s = 0;
        }
        self.degraded = false;
        self.env_failures = 0;
        self.results.clear();
        self.retried.clear();
        self.infra_retried.clear();
        self.completed = 0;
        self.abandoned = 0;
        self.rebuild_sched(Vec::new());
        for idx in 0..self.tasks.len() {
            if self.dep_remaining[idx] == 0 && self.owned(idx) {
                self.enqueue_back(Pending {
                    task_idx: idx,
                    attempt: 0,
                    since: resume_at,
                });
            }
        }
    }

    /// Point the active scheduler implementation at a restored pending
    /// sequence (already in examination order) and the surviving worker
    /// pool.
    fn rebuild_sched(&mut self, pending: Vec<Pending>) {
        match self.config.sched {
            SchedImpl::Reference => {
                self.sched = SchedState::Reference(pending.into_iter().collect());
            }
            SchedImpl::Indexed => {
                let mut ix = IndexedSched::new(self.config.policy);
                for w in self.workers.values() {
                    ix.worker_added(w.id(), w.node.available().cores);
                    for f in w.cached_files() {
                        ix.file_cached(f, w.id());
                    }
                    // The index keeps quarantined workers' cached-file lists
                    // (they rejoin with caches intact), matching live
                    // maintenance.
                    if w.quarantined {
                        ix.worker_offline(w.id());
                    }
                }
                self.sched = SchedState::Indexed(ix);
                if let SchedState::Indexed(ix) = &mut self.sched {
                    for item in pending {
                        ix.push_back(&self.tasks[item.task_idx], item);
                    }
                }
            }
        }
    }

    /// The full dependents graph, as built at construction (recovery cannot
    /// use the live map — cancellation prunes it as it walks).
    fn dependency_graph(tasks: &[TaskSpec]) -> BTreeMap<TaskId, Vec<usize>> {
        let mut dependents: BTreeMap<TaskId, Vec<usize>> = BTreeMap::new();
        for (i, t) in tasks.iter().enumerate() {
            for d in &t.deps {
                dependents.entry(*d).or_default().push(i);
            }
        }
        dependents
    }

    /// Test hook (`DurabilityConfig::probe_restore_at`): serialize the
    /// full master image through the encode/decode path, wipe, and restore
    /// in place. A restored master must be bitwise-indistinguishable from
    /// an uninterrupted one — the recovery-equivalence suites compare the
    /// final `RunReport`s.
    fn probe_restore(&mut self, now: SimTime) {
        let img = self.snapshot_image();
        let bytes = img.encode();
        let decoded = MasterImage::decode(&bytes).expect("image round-trips");
        debug_assert_eq!(img, decoded, "image encode/decode must round-trip");
        // Mirror a real crash's timer purge. At a quiescent point there are
        // no master-side timers, so this keeps the code path honest at zero
        // observable cost.
        self.queue.retain(Event::is_world);
        self.restore_from_image(&decoded, now);
    }

    fn submit_pilots(&mut self, now: SimTime, count: u32) {
        for pilot in self.batch.submit(now, self.spec, count) {
            self.workers_provisioned += 1;
            self.jcount(CounterKey::WorkersProvisioned, 1.0);
            self.queue
                .schedule_at(pilot.starts_at, Event::WorkerUp { id: pilot.id });
        }
    }

    /// Elastic scale-up: if ready tasks outnumber free slots and we are
    /// under the cap, submit another batch of pilots.
    fn maybe_scale(&mut self, now: SimTime) {
        let Provisioning::Elastic {
            max_workers, batch, ..
        } = self.config.provisioning
        else {
            return;
        };
        let pending = self.pending_len();
        if pending == 0 || self.workers_provisioned >= max_workers {
            return;
        }
        // `free_cores` is maintained incrementally on worker up, place,
        // finish, and evict — identical to re-summing the pool, without the
        // per-event O(workers) scan.
        if (pending as u64) > self.free_cores {
            let want = batch.min(max_workers - self.workers_provisioned);
            if want > 0 {
                self.submit_pilots(now, want);
            }
        }
    }

    /// A pilot was evicted: requeue its in-flight tasks (not counted as
    /// resource retries — the task did nothing wrong) and optionally submit
    /// a replacement.
    fn evict_worker(&mut self, now: SimTime, id: u32) {
        let Some(worker) = self.workers.remove(&id) else {
            return;
        };
        self.workers_lost += 1;
        self.jcount(CounterKey::WorkersLost, 1.0);
        // A quarantined worker's free cores were already withdrawn from the
        // pool (and from the capacity index) when it was quarantined.
        if !worker.quarantined {
            self.free_cores -= worker.node.available().cores as u64;
        }
        if let SchedState::Indexed(ix) = &mut self.sched {
            ix.worker_removed(id);
        }
        // Only the evicted worker's own placements are touched — the index
        // replaces the old filter-scan over every live placement.
        let lost = self.placements_by_worker.remove(&id).unwrap_or_default();
        for placement in lost {
            #[cfg(test)]
            EVICT_SCANNED.with(|c| c.set(c.get() + 1));
            let p = self
                .live_placements
                .remove(&placement)
                .expect("indexed placement is live");
            debug_assert_eq!(p.worker, id);
            self.jrec(Record::Freed { placement });
            self.tasks_lost += 1;
            self.jcount(CounterKey::TasksLost, 1.0);
            self.in_flight -= 1;
            let lost_secs = p.allocated.cores as f64 * (now - p.started_at);
            self.lost_core_secs += lost_secs;
            self.jcount(CounterKey::LostCoreSecs, lost_secs);
            let cat = self.cat_of[p.task_idx];
            self.running_by_cat[cat as usize] -= 1;
            if let SchedState::Indexed(ix) = &mut self.sched {
                // The category's running count fell: a slow-start verdict
                // for its parked first attempts is stale.
                ix.wake_category(cat, false);
            }
            self.config
                .telemetry
                .instant_key(tk().task_lost, tk().cat_master)
                .at(now)
                .track(id as u64)
                .task(self.tasks[p.task_idx].id.0)
                .attempt(p.attempt)
                .emit();
            self.enqueue_front(Pending {
                task_idx: p.task_idx,
                attempt: p.attempt,
                since: now,
            });
        }
        drop(worker);
        if self.faults.replace_evicted() {
            self.submit_pilots(now, 1);
        }
    }

    // ---- queue plumbing shared by both dispatch implementations ----

    fn pending_len(&self) -> usize {
        match &self.sched {
            SchedState::Reference(q) => q.len(),
            SchedState::Indexed(ix) => ix.len(),
        }
    }

    fn enqueue_back(&mut self, item: Pending) {
        self.jrec(Record::Enqueue {
            task_idx: item.task_idx as u64,
            attempt: item.attempt,
            front: false,
            since: item.since,
        });
        match &mut self.sched {
            SchedState::Reference(q) => q.push_back(item),
            SchedState::Indexed(ix) => ix.push_back(&self.tasks[item.task_idx], item),
        }
    }

    fn enqueue_front(&mut self, item: Pending) {
        self.jrec(Record::Enqueue {
            task_idx: item.task_idx as u64,
            attempt: item.attempt,
            front: true,
            since: item.since,
        });
        match &mut self.sched {
            SchedState::Reference(q) => q.push_front(item),
            SchedState::Indexed(ix) => ix.push_front(&self.tasks[item.task_idx], item),
        }
    }

    fn ref_queue(&mut self) -> &mut VecDeque<Pending> {
        match &mut self.sched {
            SchedState::Reference(q) => q,
            SchedState::Indexed(_) => unreachable!("reference path on indexed state"),
        }
    }

    fn ix(&self) -> &IndexedSched {
        match &self.sched {
            SchedState::Indexed(ix) => ix,
            SchedState::Reference(_) => unreachable!("indexed path on reference state"),
        }
    }

    fn ix_mut(&mut self) -> &mut IndexedSched {
        match &mut self.sched {
            SchedState::Indexed(ix) => ix,
            SchedState::Reference(_) => unreachable!("indexed path on reference state"),
        }
    }

    fn dispatch(&mut self, now: SimTime) {
        match self.config.sched {
            SchedImpl::Reference => self.dispatch_reference(now),
            SchedImpl::Indexed => self.dispatch_indexed(now),
        }
    }

    /// Examine one queued attempt: decide its allocation, apply the
    /// slow-start gate, and pick a worker. `Err` carries why placement is
    /// impossible right now.
    ///
    /// The allocation decision is recomputed at every examination: under
    /// Auto, tasks waiting while the first (whole-worker, monitored) runs of
    /// their category complete pick up the learned label the moment it
    /// exists.
    fn examine(
        &mut self,
        item: &Pending,
    ) -> Result<(u32, AllocationDecision, Resources), ParkReason> {
        let cat = self.cat_of[item.task_idx] as usize;
        let capacity = self.spec.resources;
        let decision = self
            .allocator
            .decide(&self.cat_names[cat], item.attempt, &capacity);
        // Slow-start: immature Auto labels dispatch gradually so one bad
        // label cannot kill an entire wave at once.
        if matches!(decision, AllocationDecision::Sized(_)) && item.attempt == 0 {
            if let Some(cap) = self.allocator.concurrency_cap(&self.cat_names[cat]) {
                if self.running_by_cat[cat] >= cap {
                    return Err(ParkReason::SlowStart);
                }
            }
        }
        let alloc = self.resolve_allocation(decision);
        let picked = match &self.sched {
            SchedState::Reference(_) => self.pick_worker(item.task_idx, &alloc),
            SchedState::Indexed(ix) => {
                ix.pick_worker(&self.workers, &self.tasks[item.task_idx], &alloc)
            }
        };
        match picked {
            Some(wid) => Ok((wid, decision, alloc)),
            None => Err(ParkReason::NoFit(alloc)),
        }
    }

    /// The reference matcher: one greedy pass over the whole pending queue
    /// (drain-sort-refill under the size policies, then examine every item).
    /// Kept as the oracle the indexed scheduler is proven equal against, and
    /// as the benchmark baseline.
    fn dispatch_reference(&mut self, now: SimTime) {
        match self.config.policy {
            SchedulePolicy::Fifo => {}
            SchedulePolicy::LargestFirst => {
                let mut v: Vec<Pending> = self.ref_queue().drain(..).collect();
                v.sort_by_key(|p| std::cmp::Reverse(self.tasks[p.task_idx].profile.peak_memory_mb));
                self.ref_queue().extend(v);
            }
            SchedulePolicy::SmallestFirst => {
                let mut v: Vec<Pending> = self.ref_queue().drain(..).collect();
                v.sort_by_key(|p| self.tasks[p.task_idx].profile.peak_memory_mb);
                self.ref_queue().extend(v);
            }
        }
        let rounds = self.ref_queue().len();
        for _ in 0..rounds {
            let Some(item) = self.ref_queue().pop_front() else {
                break;
            };
            match self.examine(&item) {
                Ok((wid, decision, alloc)) => self.place(now, wid, &item, decision, alloc),
                Err(_) => self.ref_queue().push_back(item),
            }
        }
    }

    /// The indexed pass: a k-way merge over the ready queue and the woken
    /// park groups' heads, in exactly the reference examination order. One
    /// failed head examination settles its whole group for the pass (within
    /// a pass capacity only shrinks and per-category running counts only
    /// grow, so every later member would fail identically); fresh arrivals
    /// whose group is asleep or already settled are parked directly under
    /// the group's standing failure certificate.
    fn dispatch_indexed(&mut self, now: SimTime) {
        // Groups that failed examination *this pass*, with the reason.
        let mut settled: BTreeMap<(u32, bool), ParkReason> = BTreeMap::new();
        while let Some(src) = self.ix().peek_min() {
            match src {
                Src::Ready => {
                    let (key, item) = self.ix_mut().pop_ready();
                    let gk = (self.cat_of[item.task_idx], item.attempt > 0);
                    if let Some(reason) = settled.get(&gk) {
                        let reason = reason.clone();
                        self.ix_mut().park(gk, Some(reason), key, item);
                        continue;
                    }
                    if self.ix().is_asleep(gk) {
                        self.ix_mut().park(gk, None, key, item);
                        continue;
                    }
                    match self.examine(&item) {
                        Ok((wid, decision, alloc)) => {
                            self.place(now, wid, &item, decision, alloc);
                            self.ix_mut().drop_group_if_empty(gk);
                        }
                        Err(reason) => {
                            settled.insert(gk, reason.clone());
                            self.ix_mut().park(gk, Some(reason), key, item);
                        }
                    }
                }
                Src::Group(gk) => {
                    let (key, item) = self.ix_mut().pop_group_head(gk);
                    match self.examine(&item) {
                        Ok((wid, decision, alloc)) => {
                            self.place(now, wid, &item, decision, alloc);
                            self.ix_mut().drop_group_if_empty(gk);
                        }
                        Err(reason) => {
                            settled.insert(gk, reason.clone());
                            self.ix_mut().park(gk, Some(reason), key, item);
                        }
                    }
                }
            }
        }
    }

    /// Convert a decision into a concrete vector on this pool's node spec.
    fn resolve_allocation(&self, decision: AllocationDecision) -> Resources {
        match decision {
            AllocationDecision::WholeWorker => self.spec.resources,
            AllocationDecision::Sized(r) => {
                // A label larger than the node clamps to a whole worker.
                if r.fits_in(&self.spec.resources) {
                    r
                } else {
                    self.spec.resources
                }
            }
        }
    }

    /// Choose a worker: prefer one with the task's cacheable inputs already
    /// local (Work Queue "prefers to schedule tasks where needed data is
    /// cached"), then the one with most free cores.
    fn pick_worker(&self, task_idx: usize, alloc: &Resources) -> Option<u32> {
        let task = &self.tasks[task_idx];
        let mut best: Option<(bool, u32, u32)> = None; // (cached, free_cores, id)
        for w in self.workers.values() {
            if w.quarantined || !w.node.can_fit(alloc) {
                continue;
            }
            let cached = task
                .inputs
                .iter()
                .filter(|f| f.cacheable)
                .all(|f| w.has_cached(&f.name));
            let free = w.node.available().cores;
            let key = (cached, free, w.id());
            match best {
                Some((bc, bf, _)) if (bc, bf) >= (cached, free) => {}
                _ => best = Some(key),
            }
        }
        best.map(|(_, _, id)| id)
    }

    fn place(
        &mut self,
        now: SimTime,
        wid: u32,
        item: &Pending,
        decision: AllocationDecision,
        alloc: Resources,
    ) {
        let (task_idx, attempt) = (item.task_idx, item.attempt);
        let concurrent = self.in_flight.max(1);
        let tid = self.tasks[task_idx].id.0;
        // ---- schedule/dispatch telemetry ----
        if now > item.since {
            self.config
                .telemetry
                .span_key(tk().queue_wait, tk().cat_master)
                .at(item.since, now)
                .track(wid as u64)
                .task(tid)
                .attempt(attempt)
                .emit();
        }
        self.config
            .telemetry
            .instant_key(tk().dispatch, tk().cat_master)
            .at(now)
            .track(wid as u64)
            .task(tid)
            .attempt(attempt)
            .attr_key(tk().a_category, self.tasks[task_idx].category.as_str())
            .attr_key(tk().a_cores, alloc.cores as u64)
            .attr_key(tk().a_memory_mb, alloc.memory_mb)
            .emit();
        // Take the worker out of the map so staging can borrow the network
        // and filesystem models mutably alongside it.
        let mut worker = self.workers.remove(&wid).expect("picked worker exists");
        let co_resident = worker.running;
        assert!(worker.node.allocate(alloc), "pick_worker guaranteed fit");
        if let SchedState::Indexed(ix) = &mut self.sched {
            ix.update_free(wid, worker.node.available().cores);
        }
        self.free_cores -= alloc.cores as u64;
        worker.running += 1;
        self.in_flight += 1;
        self.running_by_cat[self.cat_of[task_idx] as usize] += 1;
        let placement = self.next_placement;
        self.next_placement += 1;
        self.live_placements.insert(
            placement,
            PlacementInfo {
                worker: wid,
                task_idx,
                attempt,
                allocated: alloc,
                started_at: now,
                zombie: false,
                lease_at: None,
            },
        );
        self.placements_by_worker
            .entry(wid)
            .or_default()
            .insert(placement);

        // ---- stage-in ----
        // Cacheable files (environments, shared data) transfer once per
        // worker; tasks arriving while the transfer is in flight wait for it.
        // Per-task data files always transfer. All fault-stream draws below
        // happen at placement-identical points, so both scheduler
        // implementations consume identical fault sequences.
        let direct_env = self.effective_dist_mode() == DistMode::SharedFsDirect;
        let mut cacheable_wait = 0.0f64;
        let mut data_bytes = 0u64;
        let mut direct_import = 0.0f64;
        let mut infra: Option<InfraFault> = None;
        let mut transferred = false;
        let mut env_transfer = false;
        for f in &self.tasks[task_idx].inputs {
            let is_env = matches!(f.kind, FileKind::EnvironmentPack { .. });
            if is_env && direct_env {
                // Conventional deployment: every task imports the whole
                // environment straight from the shared filesystem.
                if let FileKind::EnvironmentPack {
                    unpacked_files,
                    unpacked_bytes,
                    ..
                } = &f.kind
                {
                    direct_import +=
                        self.fs
                            .import_cost(*unpacked_files, *unpacked_bytes, concurrent);
                    worker.cache_misses += 1;
                    self.config
                        .telemetry
                        .counter_at_key(tk().worker_cache_miss, 1, now);
                }
                continue;
            }
            if f.cacheable {
                if worker.has_cached(&f.name) {
                    worker.cache_hits += 1;
                    self.config
                        .telemetry
                        .counter_at_key(tk().worker_cache_hit, 1, now);
                } else if let Some(ready) = worker.staging_ready(&f.name) {
                    // Share the in-flight transfer.
                    worker.cache_hits += 1;
                    self.config
                        .telemetry
                        .counter_at_key(tk().worker_cache_hit, 1, now);
                    cacheable_wait = cacheable_wait.max((ready - now).max(0.0));
                } else {
                    worker.cache_misses += 1;
                    self.config
                        .telemetry
                        .counter_at_key(tk().worker_cache_miss, 1, now);
                    self.config.telemetry.counter_at_key(
                        tk().worker_transfer_bytes,
                        f.size_bytes,
                        now,
                    );
                    transferred = true;
                    if is_env {
                        env_transfer = true;
                    }
                    let tr = self
                        .net
                        .transfer(f.size_bytes, concurrent, &mut self.net_rng);
                    if tr.lost {
                        // The bytes never landed: the time is spent, the
                        // attempt fails, nothing is marked staging.
                        infra.get_or_insert(InfraFault::StageInFailed);
                        cacheable_wait = cacheable_wait.max(tr.secs);
                        continue;
                    }
                    let mut cost = tr.secs;
                    if let FileKind::EnvironmentPack {
                        unpacked_files,
                        relocation_ops,
                        unpacked_bytes,
                    } = &f.kind
                    {
                        if self.faults.unpack_disk_full() {
                            infra.get_or_insert(InfraFault::DiskFull);
                            cacheable_wait = cacheable_wait.max(cost);
                            continue;
                        }
                        cost += self.disk_model.unpack_cost(
                            *unpacked_bytes,
                            *unpacked_files,
                            *relocation_ops,
                        );
                    }
                    worker.mark_staging(&f.name, now + cost);
                    cacheable_wait = cacheable_wait.max(cost);
                }
            } else {
                data_bytes += f.size_bytes;
            }
        }
        let mut stage_in = cacheable_wait + direct_import;
        if data_bytes > 0 {
            self.config
                .telemetry
                .counter_at_key(tk().worker_transfer_bytes, data_bytes, now);
            transferred = true;
            let tr = self.net.transfer(data_bytes, concurrent, &mut self.net_rng);
            stage_in += tr.secs;
            if tr.lost {
                infra.get_or_insert(InfraFault::StageInFailed);
            }
        }
        // The injected staging-failure stream draws once per attempt that
        // actually moved data.
        if infra.is_none() && transferred && self.faults.stage_in_fails() {
            infra = Some(InfraFault::StageInFailed);
        }
        let straggler = worker.slowdown;
        self.workers.insert(wid, worker);

        if let Some(fault) = infra {
            // Stage-in failed: the attempt ends when the wasted transfer
            // time elapses, without ever executing. The `outcome` is a
            // placeholder — infra completions never reach the allocator or
            // the results log.
            self.queue.schedule_in(
                stage_in,
                Event::TaskDone(Box::new(DoneInfo {
                    worker: wid,
                    placement,
                    task_idx,
                    attempt,
                    allocated: alloc,
                    started_at: now,
                    stage_in_secs: stage_in,
                    exec_secs: 0.0,
                    outcome: MonitorOutcome::Failed {
                        exit_code: -86,
                        report: Default::default(),
                    },
                    infra: Some(fault),
                    env_transfer,
                })),
            );
            // No execution, no lease: the stage-in failure event itself
            // bounds the attempt.
            self.jrec(Record::Placed {
                placement,
                worker: wid,
                task_idx: task_idx as u64,
                attempt,
                alloc,
                started_at: now,
                lease_at: None,
            });
            return;
        }

        // ---- execution under the simulated LFM ----
        let limits = match decision {
            AllocationDecision::WholeWorker => ResourceLimits::unlimited(),
            AllocationDecision::Sized(r) => ResourceLimits::unlimited()
                .with_cores(r.cores as f64)
                .with_memory_mb(r.memory_mb)
                .with_disk_mb(r.disk_mb),
        };
        let io_slow = 1.0 + self.config.staging.io_interference * co_resident as f64;
        let slowdown = io_slow * straggler;
        let profile = SimTaskProfile {
            duration_secs: self.tasks[task_idx].profile.duration_secs * slowdown,
            ..self.tasks[task_idx].profile
        };
        let mut sim = self.config.monitor.run(&profile, &limits);
        if sim.outcome.is_success() {
            if let Some(frac) = self.faults.spurious_kill() {
                sim = self
                    .config
                    .monitor
                    .killed_at(&profile, frac * sim.occupied_secs);
            }
        }

        // ---- stage-out ----
        let output_bytes = self.tasks[task_idx].output_bytes;
        let mut infra_out: Option<InfraFault> = None;
        let stage_out = if output_bytes > 0 && sim.outcome.is_success() {
            let tr = self
                .net
                .transfer(output_bytes, concurrent, &mut self.net_rng);
            if tr.lost {
                infra_out = Some(InfraFault::ResultLost);
            }
            tr.secs
        } else {
            0.0
        };

        let total = stage_in + sim.occupied_secs + stage_out;
        self.queue.schedule_in(
            total,
            Event::TaskDone(Box::new(DoneInfo {
                worker: wid,
                placement,
                task_idx,
                attempt,
                allocated: alloc,
                started_at: now,
                stage_in_secs: stage_in,
                exec_secs: sim.occupied_secs,
                outcome: sim.outcome,
                infra: infra_out,
                env_transfer,
            })),
        );

        // ---- lease ----
        // Only armed under an active fault plan, so fault-free runs
        // schedule no extra events. The lease is a multiple of the
        // attempt's *nominal* time (actual stage-in + unslowed execution +
        // nominal output transfer): stragglers running far past nominal
        // and zombies whose completion never arrives both get reclaimed.
        let lease_at = if self.faults.active() {
            let nominal = stage_in
                + self.tasks[task_idx].profile.duration_secs * io_slow
                + output_bytes as f64 / self.net.params.per_link_bw;
            let r = &self.config.resilience;
            let lease = (r.lease_factor * nominal).max(r.min_lease_secs);
            let deadline = now + lease;
            self.queue
                .schedule_at(deadline, Event::LeaseExpired { placement });
            self.live_placements
                .get_mut(&placement)
                .expect("just inserted")
                .lease_at = Some(deadline.as_secs());
            Some(deadline)
        } else {
            None
        };
        self.jrec(Record::Placed {
            placement,
            worker: wid,
            task_idx: task_idx as u64,
            attempt,
            alloc,
            started_at: now,
            lease_at,
        });
    }

    /// What distribution mode is in force right now — the configured one,
    /// unless repeated packed-env staging failures degraded the run to the
    /// shared filesystem.
    fn effective_dist_mode(&self) -> DistMode {
        if self.degraded {
            DistMode::SharedFsDirect
        } else {
            self.config.staging.dist_mode
        }
    }

    /// Release a finished/reclaimed placement's resources and wake parked
    /// work. Mirrors the allocation bookkeeping in `place()`; quarantined
    /// workers keep their capacity withdrawn from the pool and the index.
    fn free_placement(&mut self, wid: u32, task_idx: usize, allocated: Resources) {
        let cat = self.cat_of[task_idx];
        let worker = self.workers.get_mut(&wid).expect("worker exists");
        worker.node.free(allocated);
        let avail = worker.node.available();
        let quarantined = worker.quarantined;
        worker.running -= 1;
        if !quarantined {
            self.free_cores += allocated.cores as u64;
        }
        self.in_flight -= 1;
        self.running_by_cat[cat as usize] -= 1;
        if let SchedState::Indexed(ix) = &mut self.sched {
            if !quarantined {
                ix.update_free(wid, avail.cores);
            }
            // The category's running count fell: a slow-start verdict for
            // its parked first attempts is stale.
            ix.wake_category(cat, false);
            if !quarantined {
                // Freed capacity can unblock any group whose allocation now
                // fits this worker.
                ix.wake_fitting(&avail);
            }
        }
    }

    /// Cacheable inputs staged during a completed execution are now local.
    /// In (effective) direct mode environments are never materialized
    /// locally, but ordinary shared data still caches.
    fn cache_staged_inputs(&mut self, wid: u32, task_idx: usize) {
        let packed = self.effective_dist_mode() == DistMode::PackedTransfer;
        let worker = self.workers.get_mut(&wid).expect("worker exists");
        for f in &self.tasks[task_idx].inputs {
            let is_env = matches!(f.kind, FileKind::EnvironmentPack { .. });
            if (!is_env || packed) && worker.insert_cached(f) {
                if let SchedState::Indexed(ix) = &mut self.sched {
                    ix.file_cached(&f.name, wid);
                }
            }
        }
    }

    /// The task ran to completion on its worker, but the result message was
    /// lost. Free the worker (the work is done there, and its staged inputs
    /// are cached), but keep the placement live as a zombie: its lease will
    /// reclaim and requeue it, and no duplicate completion can slip in.
    fn result_lost(&mut self, now: SimTime, info: &DoneInfo) {
        if let Some(set) = self.placements_by_worker.get_mut(&info.worker) {
            set.remove(&info.placement);
        }
        if let Some(p) = self.live_placements.get_mut(&info.placement) {
            p.zombie = true;
        }
        self.jrec(Record::Zombie {
            placement: info.placement,
        });
        self.free_placement(info.worker, info.task_idx, info.allocated);
        self.cache_staged_inputs(info.worker, info.task_idx);
        self.result_msgs_lost += 1;
        self.jcount(CounterKey::ResultMsgsLost, 1.0);
        let lost_secs = info.allocated.cores as f64 * (now - info.started_at);
        self.lost_core_secs += lost_secs;
        self.jcount(CounterKey::LostCoreSecs, lost_secs);
        self.config
            .telemetry
            .instant_key(tk().result_lost, tk().cat_faults)
            .at(now)
            .track(info.worker as u64)
            .task(self.tasks[info.task_idx].id.0)
            .attempt(info.attempt)
            .emit();
        self.note_worker_fault(now, info.worker);
    }

    /// A placement's lease expired. If it is still live, the attempt is
    /// written off: a zombie (result lost — resources already freed) or a
    /// straggler still running (whose eventual completion will be dropped
    /// as stale). Either way the task is requeued with backoff.
    fn reclaim_lease(&mut self, now: SimTime, placement: u64) {
        let Some(p) = self.live_placements.get(&placement).copied() else {
            return; // completed (or was lost with its worker) long ago
        };
        self.live_placements.remove(&placement);
        self.jrec(Record::Freed { placement });
        self.lease_reclaims += 1;
        self.jcount(CounterKey::LeaseReclaims, 1.0);
        if !p.zombie {
            if let Some(set) = self.placements_by_worker.get_mut(&p.worker) {
                set.remove(&placement);
            }
            self.free_placement(p.worker, p.task_idx, p.allocated);
            let lost_secs = p.allocated.cores as f64 * (now - p.started_at);
            self.lost_core_secs += lost_secs;
            self.jcount(CounterKey::LostCoreSecs, lost_secs);
        }
        self.config
            .telemetry
            .instant_key(tk().lease_reclaim, tk().cat_faults)
            .at(now)
            .track(p.worker as u64)
            .task(self.tasks[p.task_idx].id.0)
            .attempt(p.attempt)
            .attr_key(tk().a_zombie, if p.zombie { 1u64 } else { 0u64 })
            .emit();
        self.note_worker_fault(now, p.worker);
        self.requeue_with_backoff(now, p.task_idx, p.attempt);
    }

    /// Attribute an infrastructure failure to a worker; past the threshold
    /// the worker is quarantined — withdrawn from scheduling (its running
    /// tasks drain normally) until its release event.
    fn note_worker_fault(&mut self, now: SimTime, wid: u32) {
        let Some(threshold) = self.config.resilience.quarantine_threshold else {
            return;
        };
        let Some(worker) = self.workers.get_mut(&wid) else {
            return; // already evicted
        };
        worker.infra_failures += 1;
        let count = worker.infra_failures;
        let quarantine = count >= threshold && !worker.quarantined;
        if quarantine {
            worker.quarantined = true;
        }
        self.jrec(Record::WorkerFault { worker: wid, count });
        if quarantine {
            let worker = self.workers.get_mut(&wid).expect("worker exists");
            let avail = worker.node.available();
            self.quarantines += 1;
            self.free_cores -= avail.cores as u64;
            if let SchedState::Indexed(ix) = &mut self.sched {
                ix.worker_offline(wid);
            }
            self.config
                .telemetry
                .instant_key(tk().quarantine, tk().cat_faults)
                .at(now)
                .track(wid as u64)
                .emit();
            let release_at = now + self.config.resilience.quarantine_secs;
            self.quarantine_until.push((wid, release_at.as_secs()));
            self.jrec(Record::Quarantined {
                worker: wid,
                release_at,
            });
            self.queue
                .schedule_at(release_at, Event::QuarantineRelease { id: wid });
        }
    }

    /// A quarantined worker sits out its penalty and rejoins the pool with
    /// a clean flakiness score (and its file cache intact).
    fn release_quarantine(&mut self, now: SimTime, id: u32) {
        let Some(worker) = self.workers.get_mut(&id) else {
            return; // evicted while quarantined
        };
        if !worker.quarantined {
            return;
        }
        worker.quarantined = false;
        worker.infra_failures = 0;
        let avail = worker.node.available();
        self.quarantine_until.retain(|&(w, _)| w != id);
        self.jrec(Record::QuarantineLifted { worker: id });
        self.free_cores += avail.cores as u64;
        if let SchedState::Indexed(ix) = &mut self.sched {
            ix.worker_online(id, avail.cores);
            ix.wake_fitting(&avail);
        }
        self.config
            .telemetry
            .instant_key(tk().quarantine_release, tk().cat_faults)
            .at(now)
            .track(id as u64)
            .emit();
    }

    /// Requeue a task after an infrastructure failure: same attempt number
    /// (the task did nothing wrong), bounded by the infra retry budget,
    /// delayed by the category's exponential-backoff streak.
    fn requeue_with_backoff(&mut self, now: SimTime, task_idx: usize, attempt: u32) {
        self.infra_retried.insert(task_idx);
        self.infra_fail_count[task_idx] += 1;
        self.jrec(Record::InfraRetried {
            task_idx: task_idx as u64,
            count: self.infra_fail_count[task_idx],
        });
        if self.infra_fail_count[task_idx] > self.config.resilience.infra_retry_budget {
            self.abandoned += 1;
            self.completed += 1;
            self.jrec(Record::Abandoned {
                task_idx: task_idx as u64,
            });
            self.config
                .telemetry
                .counter_at_key(tk().master_abandoned, 1, now);
            self.cancel_dependents(task_idx);
            return;
        }
        let cat = self.cat_of[task_idx] as usize;
        // Saturate rather than wrap: a pathological streak past u32::MAX
        // attempts must pin at the backoff ceiling, not reset to zero.
        self.cat_streak[cat] = self.cat_streak[cat].saturating_add(1);
        self.jrec(Record::Streak {
            cat: cat as u32,
            value: self.cat_streak[cat],
        });
        let delay = backoff_delay(self.cat_streak[cat], &self.config.resilience);
        self.config
            .telemetry
            .instant_key(tk().infra_requeue, tk().cat_faults)
            .at(now)
            .task(self.tasks[task_idx].id.0)
            .attempt(attempt)
            .attr_key(tk().a_backoff_s, delay)
            .emit();
        if delay <= 0.0 {
            self.enqueue_front(Pending {
                task_idx,
                attempt,
                since: now,
            });
        } else {
            let at = now + delay;
            self.backoffs.push(((task_idx, attempt), at.as_secs()));
            self.jrec(Record::BackoffArm {
                task_idx: task_idx as u64,
                attempt,
                at,
            });
            self.queue
                .schedule_at(at, Event::Requeue { task_idx, attempt });
        }
    }

    /// A stage-in attempt failed (lost transfer, injected failure, or
    /// disk-full unpack): nothing landed, nothing executed. Forget the
    /// in-flight staging marks, account the wasted core-time, advance the
    /// degradation counter, and requeue.
    fn infra_finish(&mut self, now: SimTime, info: DoneInfo) {
        let fault = info.infra.expect("infra completion");
        let worker = self.workers.get_mut(&info.worker).expect("worker exists");
        for f in &self.tasks[info.task_idx].inputs {
            if f.cacheable {
                worker.abort_staging(&f.name);
            }
        }
        self.stage_in_failures += 1;
        self.jcount(CounterKey::StageInFailures, 1.0);
        let lost_secs = info.allocated.cores as f64 * info.stage_in_secs;
        self.lost_core_secs += lost_secs;
        self.jcount(CounterKey::LostCoreSecs, lost_secs);
        if info.env_transfer
            && self.config.staging.dist_mode == DistMode::PackedTransfer
            && !self.degraded
        {
            self.env_failures += 1;
            self.jrec(Record::EnvFailure {
                count: self.env_failures,
            });
            if let Some(th) = self.config.resilience.degrade_env_failures {
                if self.env_failures >= th {
                    self.degraded = true;
                    self.jrec(Record::Degraded);
                    self.config
                        .telemetry
                        .instant_key(tk().degrade_to_shared_fs, tk().cat_faults)
                        .at(now)
                        .emit();
                }
            }
        }
        self.config
            .telemetry
            .instant_key(Name::intern(fault.label()), tk().cat_faults)
            .at(now)
            .track(info.worker as u64)
            .task(self.tasks[info.task_idx].id.0)
            .attempt(info.attempt)
            .emit();
        self.note_worker_fault(now, info.worker);
        self.requeue_with_backoff(now, info.task_idx, info.attempt);
    }

    fn finish_task(&mut self, now: SimTime, info: DoneInfo) {
        let cat = self.cat_of[info.task_idx];
        self.free_placement(info.worker, info.task_idx, info.allocated);
        if info.infra.is_some() {
            self.infra_finish(now, info);
            return;
        }
        self.cache_staged_inputs(info.worker, info.task_idx);
        let worker = self.workers.get_mut(&info.worker).expect("worker exists");
        let completed = info.outcome.is_success();
        if completed {
            worker.tasks_completed += 1;
        }
        let spurious = info.outcome.is_spurious_kill();
        let violated = match &info.outcome {
            MonitorOutcome::LimitExceeded { kind, .. } => Some(*kind),
            _ => None,
        };
        // Spurious kills are infrastructure noise: the allocator never
        // sees them, so injected monitor faults cannot corrupt learned
        // labels.
        let effects = if spurious {
            ObservationEffects::default()
        } else {
            let report = info.outcome.report();
            self.jrec(Record::Observe {
                cat,
                peak_cores: report.peak_cores,
                peak_rss_mb: report.peak_rss_mb,
                peak_disk_mb: report.peak_disk_mb,
                completed,
                violated,
            });
            self.allocator.observe_outcome_notify(
                &self.cat_names[cat as usize],
                info.outcome.report(),
                completed,
                violated,
                &self.spec.resources,
            )
        };
        if effects.label_changed {
            if let SchedState::Indexed(ix) = &mut self.sched {
                // On a label change the category's NoFit parks hold a stale
                // allocation vector: wake them for re-examination.
                ix.wake_category(cat, true);
            }
        }
        let task = &self.tasks[info.task_idx];
        let task_id = task.id;

        // Per-attempt trace spans. Nothing below touches sim state: the
        // recorder is strictly observational, so a disabled recorder yields
        // a bit-identical RunReport.
        {
            let tel = &self.config.telemetry;
            let tid = task.id.0;
            let track = info.worker as u64;
            let stage_in_end = info.started_at + info.stage_in_secs;
            let exec_end = stage_in_end + info.exec_secs;
            if info.stage_in_secs > 0.0 {
                tel.span_key(tk().stage_in, tk().cat_worker)
                    .at(info.started_at, stage_in_end)
                    .track(track)
                    .task(tid)
                    .attempt(info.attempt)
                    .emit();
            }
            let report = info.outcome.report();
            let status = match &info.outcome {
                MonitorOutcome::Completed(_) => "completed",
                MonitorOutcome::LimitExceeded { .. } => "limit_exceeded",
                MonitorOutcome::SpuriousKill { .. } => "spurious_kill",
                MonitorOutcome::Failed { .. } => "failed",
            };
            tel.span_key(tk().exec, tk().cat_lfm)
                .at(stage_in_end, exec_end)
                .track(track)
                .task(tid)
                .attempt(info.attempt)
                .attr_key(tk().a_category, task.category.as_str())
                .attr_key(tk().a_status, status)
                .attr_key(tk().a_polls, report.polls)
                .attr_key(tk().a_peak_rss_mb, report.peak_rss_mb)
                .attr_key(tk().a_peak_disk_mb, report.peak_disk_mb)
                .attr_key(tk().a_cpu_s, report.cpu_secs)
                .attr_key(tk().a_monitor_overhead_s, report.monitor_overhead_secs)
                .emit();
            if let Some(kind) = violated {
                tel.instant_key(tk().limit_kill, tk().cat_lfm)
                    .at(exec_end)
                    .track(track)
                    .task(tid)
                    .attempt(info.attempt)
                    .attr_key(tk().a_limit, kind.to_string())
                    .emit();
            }
            if now > exec_end {
                tel.span_key(tk().stage_out, tk().cat_worker)
                    .at(exec_end, now)
                    .track(track)
                    .task(tid)
                    .attempt(info.attempt)
                    .emit();
            }
            tel.span_key(tk().task, tk().cat_master)
                .at(info.started_at, now)
                .track(track)
                .task(tid)
                .attempt(info.attempt)
                .attr_key(tk().a_status, status)
                .emit();
        }

        let result = TaskResult {
            task: task.id,
            category: task.category.clone(),
            worker: info.worker,
            allocated: info.allocated,
            submitted_at: SimTime::ZERO,
            started_at: info.started_at,
            finished_at: now,
            stage_in_secs: info.stage_in_secs,
            exec_secs: info.exec_secs,
            outcome: info.outcome.clone(),
            attempt: info.attempt,
        };
        self.jrec(Record::Result(Box::new(result.clone())));
        self.results.push(result);

        if spurious {
            // An injected monitor fault killed a healthy execution: retry
            // the *same* attempt against the infra budget, never the
            // resource-retry ceiling.
            self.spurious_kills += 1;
            self.jcount(CounterKey::SpuriousKills, 1.0);
            self.config
                .telemetry
                .instant_key(tk().spurious_kill, tk().cat_faults)
                .at(now)
                .track(info.worker as u64)
                .task(task_id.0)
                .attempt(info.attempt)
                .emit();
            self.note_worker_fault(now, info.worker);
            self.requeue_with_backoff(now, info.task_idx, info.attempt);
        } else if info.outcome.is_limit_exceeded() {
            self.retried.insert(info.task_idx);
            self.jrec(Record::Retried {
                task_idx: info.task_idx as u64,
            });
            if info.attempt + 1 < self.config.resilience.max_attempts {
                self.config
                    .telemetry
                    .counter_at_key(tk().master_retry, 1, now);
                self.config
                    .telemetry
                    .instant_key(tk().retry, tk().cat_master)
                    .at(now)
                    .track(info.worker as u64)
                    .task(task_id.0)
                    .attempt(info.attempt + 1)
                    .emit();
                // Retry at the front, at full size (the allocator returns
                // WholeWorker for attempt > 0).
                self.enqueue_front(Pending {
                    task_idx: info.task_idx,
                    attempt: info.attempt + 1,
                    since: now,
                });
            } else {
                self.abandoned += 1;
                self.completed += 1;
                self.jrec(Record::Abandoned {
                    task_idx: info.task_idx as u64,
                });
                self.config
                    .telemetry
                    .counter_at_key(tk().master_abandoned, 1, now);
                self.cancel_dependents(info.task_idx);
            }
        } else {
            self.completed += 1;
            self.jrec(Record::Finished {
                task_idx: info.task_idx as u64,
                success: info.outcome.is_success(),
            });
            self.config
                .telemetry
                .counter_at_key(tk().master_task_done, 1, now);
            if info.outcome.is_success() {
                // A success ends the category's infra-failure streak.
                self.cat_streak[cat as usize] = 0;
                self.jrec(Record::Streak { cat, value: 0 });
                // All tasks submit at t=0, so turnaround is just `now`.
                self.config
                    .telemetry
                    .observe_key(tk().turnaround_s, now.as_secs());
                self.release_dependents(now, info.task_idx);
            } else {
                // The function itself failed: its dependents can never run.
                self.cancel_dependents(info.task_idx);
            }
        }
    }

    /// A task succeeded: locally-owned dependents with no remaining
    /// dependencies become ready; remotely-owned dependents get a `Release`
    /// handoff message carrying the producer's output size (the owner
    /// decrements its own count when the message lands).
    fn release_dependents(&mut self, now: SimTime, task_idx: usize) {
        let id = self.tasks[task_idx].id;
        let bytes = self.tasks[task_idx].output_bytes;
        let mut ready: Vec<usize> = Vec::new();
        let mut remote: Vec<usize> = Vec::new();
        for &dep_idx in self.dependents.get(&id).map(Vec::as_slice).unwrap_or(&[]) {
            if !self.owned(dep_idx) {
                remote.push(dep_idx);
                continue;
            }
            self.dep_remaining[dep_idx] -= 1;
            if self.dep_remaining[dep_idx] == 0 {
                ready.push(dep_idx);
            }
        }
        for dep_idx in ready {
            self.enqueue_back(Pending {
                task_idx: dep_idx,
                attempt: 0,
                since: now,
            });
        }
        if let Some(f) = self.fed.as_mut() {
            for dep_idx in remote {
                f.outbox.push(OutMsg::Release {
                    task_idx: dep_idx,
                    at: now,
                    bytes,
                });
            }
        }
    }

    /// A task permanently failed: transitively cancel everything downstream
    /// so the run still terminates, counting the casualties as abandoned.
    /// Remotely-owned dependents get a `Cancel` handoff message instead —
    /// the owning shard accounts for them and continues the cascade there.
    fn cancel_dependents(&mut self, task_idx: usize) {
        let now = self.queue.now();
        let mut stack = vec![self.tasks[task_idx].id];
        while let Some(id) = stack.pop() {
            let Some(deps) = self.dependents.remove(&id) else {
                continue;
            };
            for dep_idx in deps {
                if !self.owned(dep_idx) {
                    if let Some(f) = self.fed.as_mut() {
                        f.outbox.push(OutMsg::Cancel {
                            task_idx: dep_idx,
                            at: now,
                        });
                    }
                    continue;
                }
                if self.dep_remaining[dep_idx] == usize::MAX {
                    continue; // already cancelled
                }
                self.dep_remaining[dep_idx] = usize::MAX;
                self.abandoned += 1;
                self.completed += 1;
                self.jrec(Record::Cancelled {
                    task_idx: dep_idx as u64,
                });
                stack.push(self.tasks[dep_idx].id);
            }
        }
    }

    // ---- federation driver surface (see `federation.rs`) ----

    /// The timestamp of the next calendar event, if any.
    pub(crate) fn next_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Current simulation time on this shard's clock.
    pub(crate) fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Tasks that reached a terminal state on this shard (successes plus
    /// abandoned), the federation's termination currency.
    pub(crate) fn completed_count(&self) -> usize {
        self.completed
    }

    /// The master process is currently crashed (buffering world events).
    pub(crate) fn is_down(&self) -> bool {
        self.down
    }

    /// Ready tasks queued on this shard (the stealing balancer's heat
    /// measure).
    pub(crate) fn queued_len(&self) -> usize {
        self.pending_len()
    }

    /// Stolen-task arrivals injected but not yet handled.
    pub(crate) fn inbound_pending(&self) -> u32 {
        self.fed.as_ref().map_or(0, |f| f.inbound_pending)
    }

    /// Record an in-flight stolen-task arrival (the balancer injected a
    /// `StolenArrive` toward this shard).
    pub(crate) fn note_inbound(&mut self) {
        if let Some(f) = self.fed.as_mut() {
            f.inbound_pending += 1;
        }
    }

    /// Drain the cross-shard effects produced since the last drain.
    pub(crate) fn drain_outbox(&mut self) -> Vec<OutMsg> {
        self.fed
            .as_mut()
            .map(|f| std::mem::take(&mut f.outbox))
            .unwrap_or_default()
    }

    /// Schedule `event` on this shard's calendar at absolute time `at`.
    pub(crate) fn inject_at(&mut self, at: SimTime, event: Event) {
        self.queue.schedule_at(at, event);
    }

    /// Events handled so far (federation telemetry).
    pub(crate) fn events_processed(&self) -> u64 {
        self.processed_events
    }

    // ---- streaming driver surface (see `streaming.rs`) ----

    /// Every attempt record produced so far, in completion order. Streaming
    /// drivers read incrementally from a cursor; the slice only ever grows.
    pub(crate) fn results_so_far(&self) -> &[TaskResult] {
        &self.results
    }

    /// Attempts currently placed on workers.
    pub(crate) fn in_flight_count(&self) -> usize {
        self.in_flight
    }

    /// Master crashes fired so far (`FaultKind::MasterCrash`).
    pub(crate) fn crash_count(&self) -> u32 {
        self.master_crashes
    }

    /// Journaled recoveries completed so far (≤ `crash_count`; the gap is
    /// full restarts).
    pub(crate) fn recovery_count(&self) -> u32 {
        self.recoveries
    }

    /// Journal bytes flushed so far (records plus snapshots); 0 without a
    /// journal.
    pub(crate) fn journal_bytes(&self) -> u64 {
        self.journal.as_ref().map_or(0, |j| j.bytes_written())
    }

    /// Give up to `max` queued first-attempt tasks from the back of the
    /// pending queue (the coldest work under every policy ordering) to a
    /// work-stealing balancer. Retries and backoff re-entries stay put —
    /// their accounting is anchored to this shard. Each migration journals
    /// a `Stolen` record so crash recovery does not resurrect the task
    /// here.
    pub(crate) fn steal_back(&mut self, max: usize) -> Vec<(usize, u32)> {
        if max == 0 || self.down {
            return Vec::new();
        }
        let stolen: Vec<Pending> = match &mut self.sched {
            SchedState::Indexed(ix) => ix.steal_last(max),
            SchedState::Reference(q) => {
                Self::steal_back_reference(q, &self.tasks, self.config.policy, max)
            }
        };
        stolen
            .into_iter()
            .map(|p| {
                self.jrec(Record::Stolen {
                    task_idx: p.task_idx as u64,
                    attempt: p.attempt,
                });
                (p.task_idx, p.attempt)
            })
            .collect()
    }

    /// Reference-scheduler stealing: mirror the canonical policy-sorted
    /// enumeration (`snapshot_pending`) and take the last `max`
    /// first-attempt items of that view.
    fn steal_back_reference(
        q: &mut VecDeque<Pending>,
        tasks: &[TaskSpec],
        policy: SchedulePolicy,
        max: usize,
    ) -> Vec<Pending> {
        // Stable-sort the queue positions by policy rank, exactly like the
        // snapshot enumeration, then walk that view from the back.
        let mut order: Vec<usize> = (0..q.len()).collect();
        order.sort_by_key(|&i| policy_rank(policy, tasks[q[i].task_idx].profile.peak_memory_mb));
        // Picked in descending policy-view order; keep that order for the
        // output so both scheduler implementations hand over the same
        // sequence.
        let picked: Vec<usize> = order
            .into_iter()
            .rev()
            .filter(|&i| q[i].attempt == 0)
            .take(max)
            .collect();
        let mut out: Vec<Pending> = picked.iter().map(|&i| q[i].clone()).collect();
        // Remove back-to-front so earlier indices stay valid.
        let mut doomed = picked;
        doomed.sort_unstable();
        for i in doomed.into_iter().rev() {
            q.remove(i);
        }
        // Coldest (policy-last) task last: the thief enqueues in warm-first
        // order.
        out.reverse();
        out
    }
}

/// Convenience: task ids for a generated batch.
pub fn task_ids(n: u64) -> Vec<TaskId> {
    (0..n).map(TaskId).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocate::AutoConfig;
    use crate::files::FileRef;

    /// A uniform batch of HEP-like tasks (§VI-C1's numbers).
    fn hep_tasks(n: u64) -> Vec<TaskSpec> {
        let env = FileRef::environment("hep-env", 240 << 20, 600 << 20, 5000, 800);
        let common = FileRef::shared_data("calib", 1 << 20);
        (0..n)
            .map(|i| {
                TaskSpec::new(
                    TaskId(i),
                    "hep",
                    vec![
                        env.clone(),
                        common.clone(),
                        FileRef::data(format!("in-{i}"), 512 << 10),
                    ],
                    50 << 20,
                    SimTaskProfile::new(55.0, 1.0, 110, 1024),
                )
            })
            .collect()
    }

    fn oracle() -> Strategy {
        let mut map = BTreeMap::new();
        map.insert("hep".to_string(), Resources::new(1, 110, 1024));
        Strategy::Oracle(map)
    }

    fn node() -> NodeSpec {
        NodeSpec::new(8, 8192, 16384)
    }

    #[test]
    fn all_tasks_complete() {
        let report = run_workload(&MasterConfig::new(oracle()), hep_tasks(40), 4, node());
        assert_eq!(report.task_count, 40);
        let successes = report
            .results
            .iter()
            .filter(|r| r.outcome.is_success())
            .count();
        assert_eq!(successes, 40);
        assert_eq!(report.abandoned_tasks, 0);
        assert!(report.makespan_secs > 0.0);
    }

    #[test]
    fn oracle_packs_tasks_per_worker() {
        // 8-core workers, 1-core tasks: Oracle packs 8 per worker, so 40
        // tasks on 4 workers ≈ 2 waves of execution (~110 s + staging), far
        // below the 40-wave unmanaged serial bound.
        let oracle_rep = run_workload(&MasterConfig::new(oracle()), hep_tasks(40), 4, node());
        let unmanaged_rep = run_workload(
            &MasterConfig::new(Strategy::Unmanaged),
            hep_tasks(40),
            4,
            node(),
        );
        assert!(
            unmanaged_rep.makespan_secs > 3.0 * oracle_rep.makespan_secs,
            "unmanaged {} vs oracle {}",
            unmanaged_rep.makespan_secs,
            oracle_rep.makespan_secs
        );
    }

    #[test]
    fn auto_converges_close_to_oracle() {
        let auto_rep = run_workload(
            &MasterConfig::new(Strategy::Auto(AutoConfig::default())),
            hep_tasks(160),
            4,
            node(),
        );
        let oracle_rep = run_workload(&MasterConfig::new(oracle()), hep_tasks(160), 4, node());
        assert!(
            auto_rep.makespan_secs < 1.5 * oracle_rep.makespan_secs,
            "auto {} vs oracle {}",
            auto_rep.makespan_secs,
            oracle_rep.makespan_secs
        );
        // Uniform workload: almost nothing should be retried.
        assert!(
            auto_rep.retry_fraction() <= 0.05,
            "retries {}",
            auto_rep.retry_fraction()
        );
    }

    #[test]
    fn tight_guess_triggers_retries_but_completes() {
        // Guess below the true 110 MB peak → every task gets killed once,
        // then succeeds at full size.
        let guess = Strategy::Guess(Resources::new(1, 64, 2048));
        let report = run_workload(&MasterConfig::new(guess), hep_tasks(10), 2, node());
        assert_eq!(report.retried_tasks, 10);
        assert_eq!(report.abandoned_tasks, 0);
        let successes = report
            .results
            .iter()
            .filter(|r| r.outcome.is_success())
            .count();
        assert_eq!(successes, 10);
        // Each task has a failed attempt and a successful one.
        assert_eq!(report.results.len(), 20);
    }

    #[test]
    fn env_cached_after_first_task_per_worker() {
        let report = run_workload(&MasterConfig::new(oracle()), hep_tasks(30), 3, node());
        // The env + calib are cacheable: each transfers exactly once per
        // worker (3 workers × 2 files = 6 misses); every other access —
        // whether the file is already local or still in flight — is a hit.
        assert_eq!(
            report.cache_misses, 6,
            "cacheable files must stage once per worker"
        );
        assert_eq!(report.cache_hits, 30 * 2 - 6);
        // The environment archive (240 MB) moved only 3 times.
        let env_bytes = 3 * (240u64 << 20);
        assert!(
            report.net_bytes < env_bytes + (60 << 20) * 30 + (1 << 20) * 30,
            "net bytes {} implies duplicate env transfers",
            report.net_bytes
        );
    }

    #[test]
    fn shared_fs_direct_is_slower_than_packed() {
        let packed = run_workload(
            &MasterConfig::new(oracle()).with_dist_mode(DistMode::PackedTransfer),
            hep_tasks(40),
            4,
            node(),
        );
        let direct = run_workload(
            &MasterConfig::new(oracle()).with_dist_mode(DistMode::SharedFsDirect),
            hep_tasks(40),
            4,
            node(),
        );
        assert!(
            direct.makespan_secs > packed.makespan_secs,
            "direct {} should exceed packed {}",
            direct.makespan_secs,
            packed.makespan_secs
        );
        assert!(direct.fs_md_ops > packed.fs_md_ops * 10);
    }

    #[test]
    fn more_workers_reduce_makespan() {
        let cfg = MasterConfig::new(oracle());
        let w2 = run_workload(&cfg, hep_tasks(64), 2, node());
        let w8 = run_workload(&cfg, hep_tasks(64), 8, node());
        assert!(
            w8.makespan_secs < w2.makespan_secs / 2.0,
            "2w: {} 8w: {}",
            w2.makespan_secs,
            w8.makespan_secs
        );
    }

    #[test]
    fn core_efficiency_ordering() {
        // Oracle allocates exactly what's used; Unmanaged wastes 7 of 8
        // cores per task.
        let o = run_workload(&MasterConfig::new(oracle()), hep_tasks(24), 2, node());
        let u = run_workload(
            &MasterConfig::new(Strategy::Unmanaged),
            hep_tasks(24),
            2,
            node(),
        );
        assert!(
            o.core_efficiency() > 2.0 * u.core_efficiency(),
            "oracle {} vs unmanaged {}",
            o.core_efficiency(),
            u.core_efficiency()
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = MasterConfig::new(oracle()).with_seed(99);
        let a = run_workload(&cfg, hep_tasks(20), 3, node());
        let b = run_workload(&cfg, hep_tasks(20), 3, node());
        assert_eq!(a.makespan_secs, b.makespan_secs);
        assert_eq!(a.results.len(), b.results.len());
    }

    #[test]
    fn io_interference_slows_packed_workers() {
        let quiet = run_workload(
            &MasterConfig::new(oracle()).with_io_interference(0.0),
            hep_tasks(32),
            2,
            node(),
        );
        let noisy = run_workload(
            &MasterConfig::new(oracle()).with_io_interference(0.15),
            hep_tasks(32),
            2,
            node(),
        );
        assert!(noisy.makespan_secs > quiet.makespan_secs);
    }

    #[test]
    #[should_panic(expected = "empty workload")]
    fn empty_workload_panics() {
        let _ = run_workload(&MasterConfig::new(oracle()), Vec::new(), 1, node());
    }

    #[test]
    fn dependencies_execute_in_order() {
        // A 3-stage chain per "genome": align → call → annotate.
        let mk = |id: u64, cat: &str, deps: Vec<TaskId>| {
            TaskSpec::new(
                TaskId(id),
                cat,
                vec![],
                0,
                SimTaskProfile::new(20.0, 1.0, 100, 100),
            )
            .after(deps)
        };
        let tasks = vec![
            mk(0, "align", vec![]),
            mk(1, "call", vec![TaskId(0)]),
            mk(2, "annotate", vec![TaskId(1)]),
            mk(3, "align", vec![]),
            mk(4, "call", vec![TaskId(3)]),
            mk(5, "annotate", vec![TaskId(4)]),
        ];
        let report = run_workload(&MasterConfig::new(Strategy::Unmanaged), tasks, 2, node());
        assert_eq!(report.abandoned_tasks, 0);
        let finish = |id: u64| {
            report
                .results
                .iter()
                .find(|r| r.task == TaskId(id))
                .unwrap()
                .finished_at
        };
        let start = |id: u64| {
            report
                .results
                .iter()
                .find(|r| r.task == TaskId(id))
                .unwrap()
                .started_at
        };
        for chain in [[0u64, 1, 2], [3, 4, 5]] {
            assert!(start(chain[1]) >= finish(chain[0]));
            assert!(start(chain[2]) >= finish(chain[1]));
        }
        // Two chains on two whole-node workers run concurrently: makespan is
        // about one chain's length, not both.
        assert!(report.makespan_secs < 2.0 * 3.0 * 20.0 + 30.0);
    }

    #[test]
    fn elastic_provisioning_scales_up() {
        // 64 tasks, elastic pool growing 1 -> 6 in batches of 1: the run
        // must finish and submit more pilots than the initial one.
        let cfg = MasterConfig::new(oracle()).with_provisioning(Provisioning::Elastic {
            initial: 1,
            max_workers: 6,
            batch: 1,
        });
        let report = run_workload(&cfg, hep_tasks(64), 6, node());
        assert_eq!(report.abandoned_tasks, 0);
        assert!(
            report.workers_provisioned > 1,
            "pool never grew: {}",
            report.workers_provisioned
        );
        assert!(report.workers_provisioned <= 6);
        let ok = report
            .results
            .iter()
            .filter(|r| r.outcome.is_success())
            .count();
        assert_eq!(ok, 64);
    }

    #[test]
    fn elastic_never_exceeds_cap() {
        let cfg = MasterConfig::new(oracle()).with_provisioning(Provisioning::Elastic {
            initial: 2,
            max_workers: 3,
            batch: 4, // batch larger than remaining headroom
        });
        let report = run_workload(&cfg, hep_tasks(40), 3, node());
        assert!(
            report.workers_provisioned <= 3,
            "{}",
            report.workers_provisioned
        );
        assert_eq!(report.abandoned_tasks, 0);
    }

    #[test]
    fn evicted_workers_lose_tasks_but_workflow_completes() {
        // Mean pilot lifetime shorter than the workload: evictions are
        // guaranteed; replacements keep the run alive and every task still
        // completes exactly once.
        let cfg = MasterConfig::new(oracle())
            .with_faults(FaultPlan::evicting(120.0))
            .with_seed(5);
        let report = run_workload(&cfg, hep_tasks(48), 4, node());
        assert!(report.workers_lost > 0, "expected evictions");
        assert!(report.tasks_lost > 0, "expected in-flight losses");
        assert_eq!(report.abandoned_tasks, 0);
        let ok: Vec<_> = report
            .results
            .iter()
            .filter(|r| r.outcome.is_success())
            .collect();
        assert_eq!(ok.len(), 48, "every task completes despite churn");
        // Lost placements are not resource retries.
        assert_eq!(report.retried_tasks, 0);
        // Each task succeeds exactly once.
        let mut ids: Vec<_> = ok.iter().map(|r| r.task).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 48);
    }

    #[test]
    fn failures_cost_makespan() {
        let reliable = run_workload(
            &MasterConfig::new(oracle()).with_seed(5),
            hep_tasks(48),
            4,
            node(),
        );
        let flaky = run_workload(
            &MasterConfig::new(oracle())
                .with_faults(FaultPlan::evicting(100.0))
                .with_seed(5),
            hep_tasks(48),
            4,
            node(),
        );
        assert!(flaky.makespan_secs > reliable.makespan_secs);
        // Lost placements surface in the efficiency denominator now.
        assert!(flaky.lost_core_secs > 0.0);
        assert!(flaky.core_efficiency() < reliable.core_efficiency());
    }

    #[test]
    fn summary_json_is_complete() {
        let report = run_workload(&MasterConfig::new(oracle()), hep_tasks(8), 2, node());
        let j = report.summary_json();
        for key in [
            "strategy",
            "dist_mode",
            "makespan_s",
            "tasks",
            "retry_fraction",
            "core_efficiency",
            "cache_hits",
            "workers_provisioned",
        ] {
            assert!(j.contains(&format!("\"{key}\"")), "missing {key}: {j}");
        }
        assert!(j.contains("\"strategy\":\"Oracle\""));
        assert!(j.contains("\"tasks\":8"));
    }

    #[test]
    fn utilization_timeline_tracks_packing() {
        let report = run_workload(&MasterConfig::new(oracle()), hep_tasks(16), 2, node());
        let timeline = report.utilization_timeline(5.0);
        assert!(!timeline.is_empty());
        // Peak concurrency with Oracle packing: up to 8 per 8-core worker.
        let peak_running = timeline.iter().map(|&(_, r, _)| r).max().unwrap();
        assert!(peak_running > 2, "no packing visible: peak {peak_running}");
        // Never more allocated cores than the pool has.
        assert!(timeline.iter().all(|&(_, _, c)| c <= 16));
        // First and last samples bracket the run.
        assert_eq!(timeline[0].0, 0.0);
        assert!(timeline.last().unwrap().0 <= report.makespan_secs);
    }

    #[test]
    fn schedule_policies_all_complete_and_differ() {
        // Mixed big/small memory tasks on memory-tight workers.
        let tasks: Vec<TaskSpec> = (0..30)
            .map(|i| {
                let mem = if i % 3 == 0 { 6000 } else { 1000 };
                TaskSpec::new(
                    TaskId(i),
                    if i % 3 == 0 { "big" } else { "small" },
                    vec![],
                    0,
                    SimTaskProfile::new(30.0, 1.0, mem, 100),
                )
            })
            .collect();
        let mut map = BTreeMap::new();
        map.insert("big".to_string(), Resources::new(1, 6000, 100));
        map.insert("small".to_string(), Resources::new(1, 1000, 100));
        let oracle = Strategy::Oracle(map);
        let mut spans = Vec::new();
        for policy in [
            SchedulePolicy::Fifo,
            SchedulePolicy::LargestFirst,
            SchedulePolicy::SmallestFirst,
        ] {
            let cfg = MasterConfig::new(oracle.clone()).with_policy(policy);
            let rep = run_workload(&cfg, tasks.clone(), 2, node());
            assert_eq!(rep.abandoned_tasks, 0, "{policy:?}");
            let ok = rep
                .results
                .iter()
                .filter(|r| r.outcome.is_success())
                .count();
            assert_eq!(ok, 30, "{policy:?}");
            spans.push(rep.makespan_secs);
        }
        // Policies must actually change the schedule.
        assert!(
            spans.iter().any(|&s| (s - spans[0]).abs() > 1e-9),
            "all policies produced identical makespans: {spans:?}"
        );
    }

    #[test]
    fn indexed_matches_reference_exactly() {
        // Same seed → same placement sequence → identical report, results
        // order included. The broader matrix lives in the integration suite;
        // this is the in-crate smoke check.
        let cfg = MasterConfig::new(Strategy::Auto(AutoConfig::default()))
            .with_faults(FaultPlan::evicting(130.0))
            .with_seed(3);
        let reference = run_workload(
            &cfg.clone().with_sched(SchedImpl::Reference),
            hep_tasks(48),
            4,
            node(),
        );
        let indexed = run_workload(
            &cfg.clone().with_sched(SchedImpl::Indexed),
            hep_tasks(48),
            4,
            node(),
        );
        assert_eq!(reference, indexed);
    }

    #[test]
    fn eviction_scan_is_linear_in_lost_placements() {
        // Eviction must only touch the evicted worker's own placements (via
        // the per-worker index), not scan every live placement in the
        // cluster. The thread-local counter increments once per placement
        // examined during evictions; linearity means it equals tasks_lost.
        EVICT_SCANNED.with(|c| c.set(0));
        let cfg = MasterConfig::new(oracle())
            .with_faults(FaultPlan::evicting(120.0))
            .with_seed(5);
        let report = run_workload(&cfg, hep_tasks(48), 4, node());
        assert!(report.tasks_lost > 0, "expected in-flight losses");
        let scanned = EVICT_SCANNED.with(|c| c.get());
        assert_eq!(
            scanned, report.tasks_lost,
            "evict_worker examined placements on other workers"
        );
    }

    /// The dispatch-stress shape of `lfm_bench::sched_bench::bench_tasks(n,
    /// true)`: 1-core tasks in four categories sharing an environment pack
    /// and a calibration file.
    fn dispatch_tasks(n: u64) -> Vec<TaskSpec> {
        let env = FileRef::environment("bench-env", 100 << 20, 300 << 20, 2000, 400);
        let calib = FileRef::shared_data("bench-calib", 4 << 20);
        (0..n)
            .map(|i| {
                TaskSpec::new(
                    TaskId(i),
                    format!("cat{}", i % 4),
                    vec![
                        FileRef::data(format!("in-{i}"), 64 << 10),
                        env.clone(),
                        calib.clone(),
                    ],
                    1 << 20,
                    SimTaskProfile::new(30.0 + (i % 11) as f64, 1.0, 300 + 50 * (i % 4), 200),
                )
            })
            .collect()
    }

    #[test]
    fn dispatch_scan_cost_is_flat_in_pool_and_samples() {
        // Once every worker caches the shared inputs, a placement probe must
        // not walk the holder sets, and an Auto label recomputation must not
        // walk the sample history: both stay O(1) entries per call on this
        // workload (an O(workers) walk would visit ~256 per examination).
        crate::sched::PICK_SCAN.with(|c| c.set((0, 0)));
        crate::allocate::LABEL_SCAN.with(|c| c.set((0, 0)));
        let cfg = MasterConfig::new(Strategy::Auto(AutoConfig::default())).with_seed(7);
        let spec = NodeSpec::new(16, 64 * 1024, 128 * 1024);
        let report = run_workload(&cfg, dispatch_tasks(4_000), 256, spec);
        assert_eq!(report.abandoned_tasks, 0);
        let (picks, visited) = crate::sched::PICK_SCAN.with(|c| c.get());
        let (labels, walked) = crate::allocate::LABEL_SCAN.with(|c| c.get());
        assert!(
            picks >= 4_000 && labels >= 4_000,
            "{picks} picks, {labels} labels"
        );
        let per_pick = visited as f64 / picks as f64;
        let per_label = walked as f64 / labels as f64;
        assert!(per_pick <= 3.0, "{per_pick:.2} index entries per pick");
        assert!(per_label <= 3.0, "{per_label:.2} steps per label walk");
    }

    /// Distinct successful task ids; asserts no task completed twice.
    fn distinct_successes(report: &RunReport) -> usize {
        let mut ids: Vec<_> = report
            .results
            .iter()
            .filter(|r| r.outcome.is_success())
            .map(|r| r.task)
            .collect();
        let n = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), n, "a task completed more than once");
        ids.len()
    }

    #[test]
    fn lost_results_are_reclaimed_by_leases() {
        use crate::faults::FaultSpec;
        let cfg = MasterConfig::new(oracle())
            .with_faults(FaultPlan::reliable().with(FaultSpec::message_loss(0.15)))
            .with_seed(11);
        let report = run_workload(&cfg, hep_tasks(30), 3, node());
        assert!(
            report.result_messages_lost > 0 || report.stage_in_failures > 0,
            "loss at p=0.15 must hit something"
        );
        assert_eq!(report.abandoned_tasks, 0);
        assert_eq!(distinct_successes(&report), 30);
        if report.result_messages_lost > 0 {
            // Every zombie placement must have been reclaimed by its lease.
            assert!(report.lease_reclaims > 0, "zombies never reclaimed");
            assert!(report.lost_core_secs > 0.0);
        }
        // Infra recovery is not a resource retry.
        assert_eq!(report.retried_tasks, 0);
        assert!(report.infra_retried_tasks > 0);
    }

    #[test]
    fn spurious_kills_retry_on_the_infra_path() {
        use crate::faults::FaultSpec;
        let cfg = MasterConfig::new(oracle())
            .with_faults(FaultPlan::reliable().with(FaultSpec::spurious_kill(0.3)))
            .with_seed(2);
        let report = run_workload(&cfg, hep_tasks(40), 4, node());
        assert!(report.spurious_kills > 0, "p=0.3 over 40 tasks must fire");
        // Spurious kills are infrastructure noise: no resource retries, no
        // abandoned tasks, and every task still succeeds exactly once.
        assert_eq!(report.retried_tasks, 0);
        assert_eq!(report.abandoned_tasks, 0);
        assert_eq!(distinct_successes(&report), 40);
        // The killed attempts are in the log, distinguishable from real
        // limit kills.
        let spurious_logged = report
            .results
            .iter()
            .filter(|r| r.outcome.is_spurious_kill())
            .count() as u64;
        assert_eq!(spurious_logged, report.spurious_kills);
        assert!(!report.results.iter().any(|r| r.outcome.is_limit_exceeded()));
    }

    #[test]
    fn repeated_env_failures_degrade_to_shared_fs() {
        use crate::faults::FaultSpec;
        let cfg = MasterConfig::new(oracle())
            .with_faults(FaultPlan::reliable().with(FaultSpec::unpack_disk_full(1.0)))
            .with_seed(7);
        let report = run_workload(&cfg, hep_tasks(20), 2, node());
        // Packed-env staging can never succeed; the master must fall back
        // to shared-FS imports and still finish everything.
        assert!(report.degraded_to_shared_fs, "never degraded");
        assert_eq!(report.abandoned_tasks, 0);
        assert_eq!(distinct_successes(&report), 20);
        assert!(
            report.stage_in_failures >= 6,
            "{}",
            report.stage_in_failures
        );
        // The configured mode is still reported; degradation is its own
        // flag.
        assert_eq!(report.dist_mode, DistMode::PackedTransfer);
    }

    #[test]
    fn flaky_staging_triggers_quarantine_and_backoff() {
        use crate::faults::FaultSpec;
        let cfg = MasterConfig::new(oracle())
            .with_faults(FaultPlan::reliable().with(FaultSpec::stage_in_failure(0.4)))
            .with_seed(3);
        let report = run_workload(&cfg, hep_tasks(40), 4, node());
        assert!(report.stage_in_failures > 0);
        assert!(report.quarantines > 0, "threshold 3 at p=0.4 must trip");
        assert_eq!(report.abandoned_tasks, 0);
        assert_eq!(distinct_successes(&report), 40);
        assert!(report.lost_core_secs > 0.0);
    }

    #[test]
    fn straggler_placements_are_reclaimed_and_rerun() {
        use crate::faults::FaultSpec;
        // Half the workers run 6-10x slow; the lease (4x nominal) reclaims
        // their placements and the retries land on healthy workers.
        let cfg = MasterConfig::new(oracle())
            .with_faults(FaultPlan::reliable().with(FaultSpec::straggler(0.5, 6.0, 10.0)))
            .with_seed(4);
        let report = run_workload(&cfg, hep_tasks(24), 4, node());
        assert!(report.lease_reclaims > 0, "stragglers never reclaimed");
        assert_eq!(report.abandoned_tasks, 0);
        assert_eq!(distinct_successes(&report), 24);
    }

    #[test]
    fn grouped_config_setters() {
        assert!(!FaultPlan::reliable().is_active());
        let plan = FaultPlan::evicting(250.0);
        assert!(plan.is_active());
        assert_eq!(plan.specs().len(), 1);
        // Grouped setters write through to the nested configs.
        let cfg = MasterConfig::new(oracle())
            .with_dist_mode(DistMode::SharedFsDirect)
            .with_io_interference(0.2)
            .with_resilience(ResilienceConfig::naive_retry())
            .with_staging(StagingConfig {
                io_interference: 0.1,
                ..StagingConfig::default()
            });
        // with_staging replaced the whole group, including the earlier
        // io_interference and dist_mode writes.
        assert_eq!(cfg.staging.dist_mode, DistMode::PackedTransfer);
        assert_eq!(cfg.staging.io_interference, 0.1);
        assert!(cfg.resilience.quarantine_threshold.is_none());
    }

    #[test]
    fn quarantine_release_rejoins_pool_exactly_once() {
        // Regression: a timed release must restore the worker's capacity to
        // the pool and the capacity index exactly once — a duplicate release
        // event (e.g. re-armed after a recovery) must be a no-op.
        let cfg = MasterConfig::new(oracle()).with_resilience(ResilienceConfig {
            quarantine_threshold: Some(1),
            ..ResilienceConfig::default()
        });
        let mut m = Master::new(cfg, hep_tasks(1), 1, node());
        m.handle_event(SimTime::ZERO, Event::WorkerUp { id: 0 });
        let full = m.free_cores;
        assert_eq!(full, 8);
        m.note_worker_fault(SimTime::from_secs(1.0), 0);
        assert!(m.workers[&0].quarantined, "threshold 1 must quarantine");
        assert_eq!(m.free_cores, 0, "capacity withdrawn from the pool");
        assert_eq!(m.quarantine_until.len(), 1);
        m.release_quarantine(SimTime::from_secs(2.0), 0);
        assert!(!m.workers[&0].quarantined);
        assert_eq!(m.workers[&0].infra_failures, 0, "flakiness score reset");
        assert_eq!(m.free_cores, full, "capacity restored");
        assert!(m.quarantine_until.is_empty());
        // The duplicate release: nothing may be added twice.
        m.release_quarantine(SimTime::from_secs(3.0), 0);
        assert_eq!(m.free_cores, full, "double release re-added capacity");
        // Placements resume on the released worker.
        m.enqueue_back(Pending {
            task_idx: 0,
            attempt: 0,
            since: SimTime::from_secs(3.0),
        });
        m.dispatch(SimTime::from_secs(3.0));
        assert_eq!(m.live_placements.len(), 1, "released worker unused");
        assert_eq!(m.live_placements.values().next().unwrap().worker, 0);
    }

    #[test]
    fn allocator_labels_survive_snapshot_restore() {
        // AC3: the learned first-allocation labels are the paper's core
        // asset — a snapshot→restore cycle must reproduce the sample stores
        // (and therefore the labels) exactly, not re-pay exploration.
        let mut m = Master::new(
            MasterConfig::new(Strategy::Auto(AutoConfig::default())),
            hep_tasks(4),
            1,
            node(),
        );
        for mem in [100u64, 104, 108, 112, 120] {
            let rep = lfm_monitor::report::ResourceReport {
                peak_cores: 1.0,
                peak_rss_mb: mem,
                peak_disk_mb: 900,
                cpu_secs: 50.0,
                wall_secs: 55.0,
                ..Default::default()
            };
            m.allocator.observe("hep", &rep, true);
        }
        let cap = node().resources;
        let label = m.allocator.peek_decision("hep", &cap);
        assert!(
            matches!(label, AllocationDecision::Sized(_)),
            "5 samples must label"
        );
        let stats = m.allocator.snapshot_category("hep").expect("stats");
        let img = m.snapshot_image();
        m.restore_from_image(&img, SimTime::ZERO);
        assert_eq!(
            m.allocator.snapshot_category("hep").expect("stats"),
            stats,
            "sample stores diverged across restore"
        );
        assert_eq!(
            m.allocator.peek_decision("hep", &cap),
            label,
            "label diverged across restore"
        );
    }

    #[test]
    fn probe_restore_is_bitwise_invisible() {
        // AC1: snapshot → encode → decode → restore at a quiescent point
        // must leave the run bitwise-identical to one that never restored,
        // for both scheduler implementations, with and without faults.
        for sched in [SchedImpl::Reference, SchedImpl::Indexed] {
            for plan in [FaultPlan::reliable(), FaultPlan::evicting(150.0)] {
                let plain_cfg = MasterConfig::new(Strategy::Auto(AutoConfig::default()))
                    .with_faults(plan.clone())
                    .with_sched(sched)
                    .with_seed(13)
                    .with_durability(DurabilityConfig::journal_only());
                let probed_cfg = plain_cfg.clone().with_durability(DurabilityConfig {
                    probe_restore_at: Some(40),
                    ..DurabilityConfig::journal_only()
                });
                let plain = run_workload(&plain_cfg, hep_tasks(48), 4, node());
                let probed = run_workload(&probed_cfg, hep_tasks(48), 4, node());
                assert_eq!(plain, probed, "{sched:?} under {plan:?}");
            }
        }
    }

    #[test]
    fn journaled_recovery_conserves_tasks_and_matches_across_scheds() {
        use crate::faults::FaultSpec;
        let cfg = MasterConfig::new(Strategy::Auto(AutoConfig::default()))
            .with_faults(FaultPlan::reliable().with(FaultSpec::master_crash(12.0, 3)))
            .with_durability(DurabilityConfig::journal_with_snapshots(64))
            .with_seed(21);
        let reference = run_workload(
            &cfg.clone().with_sched(SchedImpl::Reference),
            hep_tasks(48),
            4,
            node(),
        );
        let indexed = run_workload(
            &cfg.clone().with_sched(SchedImpl::Indexed),
            hep_tasks(48),
            4,
            node(),
        );
        // Journals are written at placement-identical points, so recovery
        // lands both implementations in the same state.
        assert_eq!(reference, indexed);
        assert!(reference.master_crashes > 0, "crash points never fired");
        assert_eq!(reference.recoveries, reference.master_crashes);
        assert!(reference.journal_bytes > 0);
        // Conservation: every task succeeds exactly once.
        assert_eq!(reference.abandoned_tasks, 0);
        assert_eq!(distinct_successes(&reference), 48);
    }

    #[test]
    fn crash_without_journal_is_a_full_restart() {
        use crate::faults::FaultSpec;
        let crash_plan = FaultPlan::reliable().with(FaultSpec::master_crash(12.0, 1));
        let base = MasterConfig::new(oracle()).with_seed(9);
        let no_crash = run_workload(&base, hep_tasks(40), 4, node());
        let restarted = run_workload(
            &base.clone().with_faults(crash_plan.clone()),
            hep_tasks(40),
            4,
            node(),
        );
        assert!(restarted.master_crashes > 0, "crash point never fired");
        assert_eq!(restarted.recoveries, 0, "no journal, no recovery");
        assert_eq!(restarted.journal_bytes, 0);
        // The restarted run still finishes everything exactly once (the
        // pre-crash results were wiped with the rest of the master state),
        // but re-pays the lost work.
        assert_eq!(distinct_successes(&restarted), 40);
        assert!(
            restarted.makespan_secs > no_crash.makespan_secs,
            "restart {} must cost more than uninterrupted {}",
            restarted.makespan_secs,
            no_crash.makespan_secs
        );
        // A journaled master recovers in place: strictly less rework.
        let journaled = run_workload(
            &base
                .clone()
                .with_faults(crash_plan)
                .with_durability(DurabilityConfig::journal_with_snapshots(64)),
            hep_tasks(40),
            4,
            node(),
        );
        assert_eq!(journaled.recoveries, 1);
        assert!(
            journaled.makespan_secs < restarted.makespan_secs,
            "journaled {} must beat full restart {}",
            journaled.makespan_secs,
            restarted.makespan_secs
        );
    }

    #[test]
    fn duplicate_ids_rejected() {
        let t = TaskSpec::new(
            TaskId(7),
            "x",
            vec![],
            0,
            SimTaskProfile::new(1.0, 1.0, 1, 1),
        );
        let result = std::panic::catch_unwind(|| {
            run_workload(
                &MasterConfig::new(Strategy::Unmanaged),
                vec![t.clone(), t],
                1,
                node(),
            )
        });
        assert!(result.is_err());
    }
}
