//! Write-ahead journal and compacting snapshots for the durable master.
//!
//! The master is a single point of failure: worker churn, lost messages,
//! and staging faults are all survivable (PR 4), but losing the master
//! loses the run — including the converged allocator labels the paper's
//! automatic allocation spent a whole exploration phase learning. This
//! module makes the master's *logical* state durable:
//!
//! * **Records** — every state-changing transition appends one `Record`
//!   to the journal: task (re-)enqueues, placements, attempt outcomes,
//!   allocator observations, quarantine entries/releases, degradation, and
//!   plain counter bumps. Records are written at placement-identical points,
//!   so the Reference and Indexed schedulers produce byte-identical
//!   journals — the equivalence suites pin recovery for free.
//! * **Snapshots** — a `MasterImage` is a complete serialized image of
//!   the master-logical state (pending queue in examination order, live
//!   placements with lease deadlines, allocator sample stores, dependency
//!   countdowns, quarantine ledger, report counters). Installing one
//!   compacts the journal: recovery replays only the record tail written
//!   since.
//! * **Recovery** — `image = snapshot ⊕ replay(tail)`, then the master
//!   rebuilds either scheduler implementation from the image. World state
//!   (workers, caches, the shared filesystem, the network, in-flight
//!   completions) survives a master crash by definition — only the
//!   coordinator's memory is lost.
//!
//! Everything is encoded with the fixed-width family of the shared
//! [`lfm_telemetry::codec`] (the vendored serde is a stub): `u8` tags,
//! fixed-width LE integers, `f64` as raw bits (exact round-trip), and
//! length-prefixed strings. See DESIGN.md §5e for the format and the
//! recovery invariants.

use crate::files::{FileKind, FileRef};
use crate::task::{TaskId, TaskResult, TaskSpec};
use lfm_monitor::report::{MonitorOutcome, ResourceKind, ResourceReport};
use lfm_monitor::sim::SimTaskProfile;
use lfm_simcluster::node::Resources;
use lfm_simcluster::time::SimTime;
use lfm_telemetry::codec::{
    self, put_bool, put_f64, put_i32, put_seq, put_str, put_u32, put_u64, put_u8, Reader,
};
use std::collections::{BTreeMap, VecDeque};

/// Durability knobs for the master. Defaults to journaling off — a
/// fault-free run writes no journal and behaves bit-identically to the
/// pre-durability master.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DurabilityConfig {
    /// Append a write-ahead record per state-changing event. Without a
    /// journal a master crash is a full restart: the run starts over and
    /// every pre-crash completion is lost (the bench baseline).
    pub journal: bool,
    /// Install a compacting snapshot every this many journal records.
    /// `None` never snapshots: recovery replays the whole journal.
    pub snapshot_every: Option<u64>,
    /// Fixed downtime per master crash (process restart, reconnects).
    pub restart_secs: f64,
    /// Additional downtime per replayed journal record — what snapshot
    /// compaction buys down.
    pub replay_secs_per_event: f64,
    /// Test hook: at the first quiescent point (no live placements) at or
    /// after this many processed events, snapshot → wipe → restore the
    /// master through the full encode/decode path and keep running. Used by
    /// the recovery-equivalence suites to pin that a restored master is
    /// bitwise-indistinguishable from an uninterrupted one.
    pub probe_restore_at: Option<u64>,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            journal: false,
            snapshot_every: None,
            restart_secs: 5.0,
            replay_secs_per_event: 1e-3,
            probe_restore_at: None,
        }
    }
}

impl DurabilityConfig {
    /// No durability at all: a crash is a full restart (the default).
    pub fn none() -> Self {
        DurabilityConfig::default()
    }

    /// Write-ahead journal without snapshots: recovery replays every record
    /// since run start.
    pub fn journal_only() -> Self {
        DurabilityConfig {
            journal: true,
            ..DurabilityConfig::default()
        }
    }

    /// Journal plus a compacting snapshot every `every` records.
    pub fn journal_with_snapshots(every: u64) -> Self {
        assert!(every > 0, "snapshot interval must be positive");
        DurabilityConfig {
            journal: true,
            snapshot_every: Some(every),
            ..DurabilityConfig::default()
        }
    }
}

/// Report counters that journal as plain deltas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CounterKey {
    WorkersProvisioned,
    WorkersLost,
    TasksLost,
    LeaseReclaims,
    StageInFailures,
    SpuriousKills,
    ResultMsgsLost,
    LostCoreSecs,
}

impl CounterKey {
    /// Every key, in tag order (the declaration order, so `key as u8` is
    /// its tag).
    const ALL: [CounterKey; 8] = [
        CounterKey::WorkersProvisioned,
        CounterKey::WorkersLost,
        CounterKey::TasksLost,
        CounterKey::LeaseReclaims,
        CounterKey::StageInFailures,
        CounterKey::SpuriousKills,
        CounterKey::ResultMsgsLost,
        CounterKey::LostCoreSecs,
    ];

    fn from_tag(t: u8) -> Result<Self, JournalError> {
        Self::ALL
            .get(t as usize)
            .copied()
            .ok_or(JournalError::BadTag("counter", t))
    }
}

/// One write-ahead record. Each variant mirrors exactly one state-changing
/// transition in the master; replay applies the same mutation to a
/// [`MasterImage`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Record {
    /// Journal header: sanity-checks that a journal is replayed against the
    /// run that wrote it.
    RunStart {
        seed: u64,
        task_count: u64,
        worker_count: u32,
    },
    /// A task attempt entered the pending queue (front or back). Replaying
    /// an enqueue also retires any armed backoff timer for the same
    /// attempt: the timer fired.
    Enqueue {
        task_idx: u64,
        attempt: u32,
        front: bool,
        since: SimTime,
    },
    /// A backed-off infra requeue was armed to fire at `at`.
    BackoffArm {
        task_idx: u64,
        attempt: u32,
        at: SimTime,
    },
    /// An attempt was placed on a worker; `lease_at` is the absolute lease
    /// deadline (None when leases are unarmed).
    Placed {
        placement: u64,
        worker: u32,
        task_idx: u64,
        attempt: u32,
        alloc: Resources,
        started_at: SimTime,
        lease_at: Option<SimTime>,
    },
    /// A live placement turned zombie (its result message was lost).
    Zombie { placement: u64 },
    /// A placement left the live set (completion, lease reclaim, eviction).
    Freed { placement: u64 },
    /// An attempt produced a result row.
    Result(Box<TaskResult>),
    /// A task finished for good: success releases dependents, failure
    /// leaves them to the `Cancelled` records that follow.
    Finished { task_idx: u64, success: bool },
    /// A task was abandoned (retry or infra budget exhausted).
    Abandoned { task_idx: u64 },
    /// A downstream task was transitively cancelled.
    Cancelled { task_idx: u64 },
    /// The allocator observed an attempt's measured usage — the raw inputs
    /// of `Allocator::observe_outcome`, so replay reproduces the sample
    /// stores (and therefore the learned labels) exactly.
    Observe {
        cat: u32,
        peak_cores: f64,
        peak_rss_mb: u64,
        peak_disk_mb: u64,
        completed: bool,
        violated: Option<ResourceKind>,
    },
    /// A task consumed a resource-limit retry.
    Retried { task_idx: u64 },
    /// A task consumed an infrastructure retry; `count` is its new total.
    InfraRetried { task_idx: u64, count: u32 },
    /// A category's backoff streak moved.
    Streak { cat: u32, value: u32 },
    /// A worker's infra-failure attribution count moved.
    WorkerFault { worker: u32, count: u32 },
    /// A worker entered quarantine until `release_at`.
    Quarantined { worker: u32, release_at: SimTime },
    /// A worker left quarantine (timed release).
    QuarantineLifted { worker: u32 },
    /// The packed-env failure counter moved.
    EnvFailure { count: u32 },
    /// Packed-env distribution degraded to the shared FS for good.
    Degraded,
    /// A plain report-counter delta.
    Counter { key: CounterKey, amount: f64 },
    /// A queued first attempt migrated to another shard (federation work
    /// stealing): replay removes it from the pending queue so recovery
    /// cannot resurrect it here.
    Stolen { task_idx: u64, attempt: u32 },
    /// A dependency of `task_idx` completed on another shard: replay
    /// decrements its remaining-dependency count (the matching `Enqueue`
    /// follows when the count reaches zero).
    RemoteDep { task_idx: u64 },
    /// A streamed task was admitted mid-run (`Event::Submit`). The full spec
    /// travels in the record so replay can re-grow the per-task state vectors
    /// (and intern a brand-new category at index `cat`) exactly as the live
    /// master did; the `Enqueue` for the fresh attempt follows immediately.
    Submitted {
        task_idx: u64,
        cat: u32,
        spec: Box<TaskSpec>,
    },
}

/// Why a journal or snapshot failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// Ran out of bytes mid-record.
    Truncated,
    /// An unknown tag byte for the named field.
    BadTag(&'static str, u8),
    /// A length-prefixed string was not UTF-8.
    BadString,
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Truncated => write!(f, "journal truncated mid-record"),
            JournalError::BadTag(what, t) => write!(f, "bad {what} tag byte {t:#x}"),
            JournalError::BadString => write!(f, "journal string is not UTF-8"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<codec::Error> for JournalError {
    fn from(e: codec::Error) -> Self {
        match e {
            codec::Error::Truncated { .. } => JournalError::Truncated,
            // The journal reads no varints: its only corrupt
            // codec-level field is a string that is not UTF-8.
            codec::Error::Corrupt { .. } => JournalError::BadString,
        }
    }
}

// ---- journal-specific fields over the shared codec ----

fn put_time(out: &mut Vec<u8>, t: SimTime) {
    put_f64(out, t.as_secs());
}

/// A lease deadline: tag 0 (none) or 1 followed by the time.
fn put_opt_time(out: &mut Vec<u8>, t: Option<SimTime>) {
    put_bool(out, t.is_some());
    if let Some(t) = t {
        put_time(out, t);
    }
}

fn put_resources(out: &mut Vec<u8>, r: &Resources) {
    put_u32(out, r.cores);
    put_u64(out, r.memory_mb);
    put_u64(out, r.disk_mb);
}

fn time(r: &mut Reader<'_>) -> Result<SimTime, JournalError> {
    let secs = r.f64()?;
    if !(secs.is_finite() && secs >= 0.0) {
        return Err(JournalError::BadTag("sim-time", 0));
    }
    Ok(SimTime::from_secs(secs))
}

fn opt_time(r: &mut Reader<'_>) -> Result<Option<SimTime>, JournalError> {
    match r.u8()? {
        0 => Ok(None),
        1 => time(r).map(Some),
        t => Err(JournalError::BadTag("lease-at", t)),
    }
}

/// A pending entry or armed backoff: `(task_idx, attempt, time)`.
fn put_timed(out: &mut Vec<u8>, &(t, a, at): &(u64, u32, SimTime)) {
    put_u64(out, t);
    put_u32(out, a);
    put_time(out, at);
}

fn timed(r: &mut Reader<'_>) -> Result<(u64, u32, SimTime), JournalError> {
    Ok((r.u64()?, r.u32()?, time(r)?))
}

fn string(r: &mut Reader<'_>) -> Result<String, JournalError> {
    Ok(r.str()?.to_string())
}

fn resources(r: &mut Reader<'_>) -> Result<Resources, JournalError> {
    Ok(Resources::new(r.u32()?, r.u64()?, r.u64()?))
}

fn put_resource_kind(out: &mut Vec<u8>, k: Option<ResourceKind>) {
    put_u8(
        out,
        match k {
            None => 0,
            Some(ResourceKind::Cores) => 1,
            Some(ResourceKind::Memory) => 2,
            Some(ResourceKind::Disk) => 3,
            Some(ResourceKind::WallTime) => 4,
        },
    );
}

fn read_resource_kind(r: &mut Reader<'_>) -> Result<Option<ResourceKind>, JournalError> {
    Ok(match r.u8()? {
        0 => None,
        1 => Some(ResourceKind::Cores),
        2 => Some(ResourceKind::Memory),
        3 => Some(ResourceKind::Disk),
        4 => Some(ResourceKind::WallTime),
        t => return Err(JournalError::BadTag("resource-kind", t)),
    })
}

fn put_report(out: &mut Vec<u8>, r: &ResourceReport) {
    put_f64(out, r.wall_secs);
    put_f64(out, r.cpu_secs);
    put_f64(out, r.peak_cores);
    put_u64(out, r.peak_rss_mb);
    put_u32(out, r.peak_processes);
    put_u64(out, r.peak_disk_mb);
    put_u64(out, r.read_bytes);
    put_u64(out, r.write_bytes);
    put_u64(out, r.polls);
    put_f64(out, r.monitor_overhead_secs);
}

fn read_report(r: &mut Reader<'_>) -> Result<ResourceReport, JournalError> {
    Ok(ResourceReport {
        wall_secs: r.f64()?,
        cpu_secs: r.f64()?,
        peak_cores: r.f64()?,
        peak_rss_mb: r.u64()?,
        peak_processes: r.u32()?,
        peak_disk_mb: r.u64()?,
        read_bytes: r.u64()?,
        write_bytes: r.u64()?,
        polls: r.u64()?,
        monitor_overhead_secs: r.f64()?,
    })
}

fn put_outcome(out: &mut Vec<u8>, o: &MonitorOutcome) {
    match o {
        MonitorOutcome::Completed(rep) => {
            put_u8(out, 0);
            put_report(out, rep);
        }
        MonitorOutcome::LimitExceeded { kind, report } => {
            put_u8(out, 1);
            put_resource_kind(out, Some(*kind));
            put_report(out, report);
        }
        MonitorOutcome::SpuriousKill { report } => {
            put_u8(out, 2);
            put_report(out, report);
        }
        MonitorOutcome::Failed { exit_code, report } => {
            put_u8(out, 3);
            put_i32(out, *exit_code);
            put_report(out, report);
        }
    }
}

fn read_outcome(r: &mut Reader<'_>) -> Result<MonitorOutcome, JournalError> {
    Ok(match r.u8()? {
        0 => MonitorOutcome::Completed(read_report(r)?),
        1 => {
            let kind =
                read_resource_kind(r)?.ok_or(JournalError::BadTag("limit-exceeded-kind", 0))?;
            MonitorOutcome::LimitExceeded {
                kind,
                report: read_report(r)?,
            }
        }
        2 => MonitorOutcome::SpuriousKill {
            report: read_report(r)?,
        },
        3 => MonitorOutcome::Failed {
            exit_code: r.i32()?,
            report: read_report(r)?,
        },
        t => return Err(JournalError::BadTag("monitor-outcome", t)),
    })
}

fn put_result(out: &mut Vec<u8>, tr: &TaskResult) {
    put_u64(out, tr.task.0);
    put_str(out, &tr.category);
    put_u32(out, tr.worker);
    put_resources(out, &tr.allocated);
    put_time(out, tr.submitted_at);
    put_time(out, tr.started_at);
    put_time(out, tr.finished_at);
    put_f64(out, tr.stage_in_secs);
    put_f64(out, tr.exec_secs);
    put_outcome(out, &tr.outcome);
    put_u32(out, tr.attempt);
}

fn read_result(r: &mut Reader<'_>) -> Result<TaskResult, JournalError> {
    Ok(TaskResult {
        task: TaskId(r.u64()?),
        category: string(r)?,
        worker: r.u32()?,
        allocated: resources(r)?,
        submitted_at: time(r)?,
        started_at: time(r)?,
        finished_at: time(r)?,
        stage_in_secs: r.f64()?,
        exec_secs: r.f64()?,
        outcome: read_outcome(r)?,
        attempt: r.u32()?,
    })
}

fn put_file_ref(out: &mut Vec<u8>, f: &FileRef) {
    put_str(out, &f.name);
    put_u64(out, f.size_bytes);
    put_bool(out, f.cacheable);
    match &f.kind {
        FileKind::Data => put_u8(out, 0),
        FileKind::EnvironmentPack {
            unpacked_files,
            relocation_ops,
            unpacked_bytes,
        } => {
            put_u8(out, 1);
            put_u64(out, *unpacked_files);
            put_u64(out, *relocation_ops);
            put_u64(out, *unpacked_bytes);
        }
    }
}

fn read_file_ref(r: &mut Reader<'_>) -> Result<FileRef, JournalError> {
    let name = string(r)?;
    let size_bytes = r.u64()?;
    let cacheable = r.bool()?;
    let kind = match r.u8()? {
        0 => FileKind::Data,
        1 => FileKind::EnvironmentPack {
            unpacked_files: r.u64()?,
            relocation_ops: r.u64()?,
            unpacked_bytes: r.u64()?,
        },
        t => return Err(JournalError::BadTag("file-kind", t)),
    };
    Ok(FileRef {
        name,
        size_bytes,
        cacheable,
        kind,
    })
}

fn put_spec(out: &mut Vec<u8>, spec: &TaskSpec) {
    put_u64(out, spec.id.0);
    put_str(out, &spec.category);
    put_seq(out, &spec.inputs, put_file_ref);
    put_u64(out, spec.output_bytes);
    put_f64(out, spec.profile.duration_secs);
    put_f64(out, spec.profile.cores_used);
    put_u64(out, spec.profile.base_memory_mb);
    put_u64(out, spec.profile.peak_memory_mb);
    put_f64(out, spec.profile.mem_ramp_fraction);
    put_u64(out, spec.profile.peak_disk_mb);
    put_seq(out, &spec.deps, |o, d| put_u64(o, d.0));
}

fn read_spec(r: &mut Reader<'_>) -> Result<TaskSpec, JournalError> {
    Ok(TaskSpec {
        id: TaskId(r.u64()?),
        category: string(r)?,
        inputs: r.seq(read_file_ref)?,
        output_bytes: r.u64()?,
        profile: SimTaskProfile {
            duration_secs: r.f64()?,
            cores_used: r.f64()?,
            base_memory_mb: r.u64()?,
            peak_memory_mb: r.u64()?,
            mem_ramp_fraction: r.f64()?,
            peak_disk_mb: r.u64()?,
        },
        deps: r.seq(|r| r.u64().map(TaskId))?,
    })
}

impl Record {
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Record::RunStart {
                seed,
                task_count,
                worker_count,
            } => {
                put_u8(out, 0);
                put_u64(out, *seed);
                put_u64(out, *task_count);
                put_u32(out, *worker_count);
            }
            Record::Enqueue {
                task_idx,
                attempt,
                front,
                since,
            } => {
                put_u8(out, 1);
                put_u64(out, *task_idx);
                put_u32(out, *attempt);
                put_bool(out, *front);
                put_time(out, *since);
            }
            Record::BackoffArm {
                task_idx,
                attempt,
                at,
            } => {
                put_u8(out, 2);
                put_u64(out, *task_idx);
                put_u32(out, *attempt);
                put_time(out, *at);
            }
            Record::Placed {
                placement,
                worker,
                task_idx,
                attempt,
                alloc,
                started_at,
                lease_at,
            } => {
                put_u8(out, 3);
                put_u64(out, *placement);
                put_u32(out, *worker);
                put_u64(out, *task_idx);
                put_u32(out, *attempt);
                put_resources(out, alloc);
                put_time(out, *started_at);
                put_opt_time(out, *lease_at);
            }
            Record::Zombie { placement } => {
                put_u8(out, 4);
                put_u64(out, *placement);
            }
            Record::Freed { placement } => {
                put_u8(out, 5);
                put_u64(out, *placement);
            }
            Record::Result(tr) => {
                put_u8(out, 6);
                put_result(out, tr);
            }
            Record::Finished { task_idx, success } => {
                put_u8(out, 7);
                put_u64(out, *task_idx);
                put_bool(out, *success);
            }
            Record::Abandoned { task_idx } => {
                put_u8(out, 8);
                put_u64(out, *task_idx);
            }
            Record::Cancelled { task_idx } => {
                put_u8(out, 9);
                put_u64(out, *task_idx);
            }
            Record::Observe {
                cat,
                peak_cores,
                peak_rss_mb,
                peak_disk_mb,
                completed,
                violated,
            } => {
                put_u8(out, 10);
                put_u32(out, *cat);
                put_f64(out, *peak_cores);
                put_u64(out, *peak_rss_mb);
                put_u64(out, *peak_disk_mb);
                put_bool(out, *completed);
                put_resource_kind(out, *violated);
            }
            Record::Retried { task_idx } => {
                put_u8(out, 11);
                put_u64(out, *task_idx);
            }
            Record::InfraRetried { task_idx, count } => {
                put_u8(out, 12);
                put_u64(out, *task_idx);
                put_u32(out, *count);
            }
            Record::Streak { cat, value } => {
                put_u8(out, 13);
                put_u32(out, *cat);
                put_u32(out, *value);
            }
            Record::WorkerFault { worker, count } => {
                put_u8(out, 14);
                put_u32(out, *worker);
                put_u32(out, *count);
            }
            Record::Quarantined { worker, release_at } => {
                put_u8(out, 15);
                put_u32(out, *worker);
                put_time(out, *release_at);
            }
            Record::QuarantineLifted { worker } => {
                put_u8(out, 16);
                put_u32(out, *worker);
            }
            Record::EnvFailure { count } => {
                put_u8(out, 17);
                put_u32(out, *count);
            }
            Record::Degraded => put_u8(out, 18),
            Record::Counter { key, amount } => {
                put_u8(out, 19);
                put_u8(out, *key as u8);
                put_f64(out, *amount);
            }
            Record::Stolen { task_idx, attempt } => {
                put_u8(out, 20);
                put_u64(out, *task_idx);
                put_u32(out, *attempt);
            }
            Record::RemoteDep { task_idx } => {
                put_u8(out, 21);
                put_u64(out, *task_idx);
            }
            Record::Submitted {
                task_idx,
                cat,
                spec,
            } => {
                put_u8(out, 22);
                put_u64(out, *task_idx);
                put_u32(out, *cat);
                put_spec(out, spec);
            }
        }
    }

    pub fn decode(r: &mut Reader<'_>) -> Result<Record, JournalError> {
        Ok(match r.u8()? {
            0 => Record::RunStart {
                seed: r.u64()?,
                task_count: r.u64()?,
                worker_count: r.u32()?,
            },
            1 => Record::Enqueue {
                task_idx: r.u64()?,
                attempt: r.u32()?,
                front: r.bool()?,
                since: time(r)?,
            },
            2 => Record::BackoffArm {
                task_idx: r.u64()?,
                attempt: r.u32()?,
                at: time(r)?,
            },
            3 => {
                let placement = r.u64()?;
                let worker = r.u32()?;
                let task_idx = r.u64()?;
                let attempt = r.u32()?;
                let alloc = resources(r)?;
                let started_at = time(r)?;
                let lease_at = opt_time(r)?;
                Record::Placed {
                    placement,
                    worker,
                    task_idx,
                    attempt,
                    alloc,
                    started_at,
                    lease_at,
                }
            }
            4 => Record::Zombie {
                placement: r.u64()?,
            },
            5 => Record::Freed {
                placement: r.u64()?,
            },
            6 => Record::Result(Box::new(read_result(r)?)),
            7 => Record::Finished {
                task_idx: r.u64()?,
                success: r.bool()?,
            },
            8 => Record::Abandoned { task_idx: r.u64()? },
            9 => Record::Cancelled { task_idx: r.u64()? },
            10 => Record::Observe {
                cat: r.u32()?,
                peak_cores: r.f64()?,
                peak_rss_mb: r.u64()?,
                peak_disk_mb: r.u64()?,
                completed: r.bool()?,
                violated: read_resource_kind(r)?,
            },
            11 => Record::Retried { task_idx: r.u64()? },
            12 => Record::InfraRetried {
                task_idx: r.u64()?,
                count: r.u32()?,
            },
            13 => Record::Streak {
                cat: r.u32()?,
                value: r.u32()?,
            },
            14 => Record::WorkerFault {
                worker: r.u32()?,
                count: r.u32()?,
            },
            15 => Record::Quarantined {
                worker: r.u32()?,
                release_at: time(r)?,
            },
            16 => Record::QuarantineLifted { worker: r.u32()? },
            17 => Record::EnvFailure { count: r.u32()? },
            18 => Record::Degraded,
            19 => Record::Counter {
                key: CounterKey::from_tag(r.u8()?)?,
                amount: r.f64()?,
            },
            20 => Record::Stolen {
                task_idx: r.u64()?,
                attempt: r.u32()?,
            },
            21 => Record::RemoteDep { task_idx: r.u64()? },
            22 => Record::Submitted {
                task_idx: r.u64()?,
                cat: r.u32()?,
                spec: Box::new(read_spec(r)?),
            },
            t => return Err(JournalError::BadTag("record", t)),
        })
    }
}

// ---- the serialized master image (snapshot payload / replay target) ----

/// A live placement as the journal sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PlacementSnap {
    pub worker: u32,
    pub task_idx: u64,
    pub attempt: u32,
    pub alloc: Resources,
    pub started_at: SimTime,
    pub zombie: bool,
    /// Absolute lease deadline; recovery re-arms the lease at
    /// `max(lease_at, now)`.
    pub lease_at: Option<SimTime>,
}

/// One category's allocator state: the raw sample stores (already including
/// the censored-axis inflation applied at observation time) plus the
/// completed count. Restoring replays the values through `record()`, which
/// reproduces labels exactly — the Auto label is a pure function of the
/// sample multiset.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct CategorySnap {
    pub cores: Vec<f64>,
    pub memory_mb: Vec<f64>,
    pub disk_mb: Vec<f64>,
    pub completed: u64,
}

/// The complete serializable image of the master's logical state. A
/// snapshot encodes one; journal replay folds records into one; recovery
/// rebuilds either scheduler implementation from one.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct MasterImage {
    /// Pending queue in examination order: `(task_idx, attempt, since)`.
    /// Snapshots enumerate the policy-sorted order (identical for both
    /// scheduler implementations); replay maintains deque order. Either
    /// preserves the within-rank relative order that determines dispatch.
    pub pending: VecDeque<(u64, u32, SimTime)>,
    /// Armed backoff timers: `(task_idx, attempt, fire_at)`.
    pub backoffs: Vec<(u64, u32, SimTime)>,
    pub placements: BTreeMap<u64, PlacementSnap>,
    pub next_placement: u64,
    /// Allocator sample stores, dense by interned category id.
    pub alloc_stats: Vec<CategorySnap>,
    /// `u64::MAX` = cancelled.
    pub dep_remaining: Vec<u64>,
    pub completed: u64,
    pub abandoned: u64,
    pub results: Vec<TaskResult>,
    pub retried: Vec<u64>,
    pub infra_retried: Vec<u64>,
    pub infra_fail_count: Vec<u32>,
    pub cat_streak: Vec<u32>,
    /// Per-worker infra-failure attribution.
    pub worker_faults: BTreeMap<u32, u32>,
    /// Quarantined workers and their release deadlines, in quarantine-entry
    /// order — recovery re-arms release timers in that order so equal-time
    /// releases keep their original FIFO tie-break.
    pub quarantined_until: Vec<(u32, SimTime)>,
    pub quarantines: u32,
    pub degraded: bool,
    pub env_failures: u32,
    pub workers_provisioned: u32,
    pub workers_lost: u32,
    pub tasks_lost: u64,
    pub lease_reclaims: u64,
    pub stage_in_failures: u64,
    pub spurious_kills: u64,
    pub result_msgs_lost: u64,
    pub lost_core_secs: f64,
}

impl MasterImage {
    /// The image of a freshly constructed master (nothing enqueued yet —
    /// the root enqueues are the first journal records).
    pub fn fresh(dep_remaining: &[usize], task_count: usize, cat_count: usize) -> Self {
        MasterImage {
            dep_remaining: dep_remaining
                .iter()
                .map(|&d| if d == usize::MAX { u64::MAX } else { d as u64 })
                .collect(),
            infra_fail_count: vec![0; task_count],
            cat_streak: vec![0; cat_count],
            alloc_stats: vec![CategorySnap::default(); cat_count],
            ..MasterImage::default()
        }
    }

    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_seq(&mut out, &self.pending, put_timed);
        put_seq(&mut out, &self.backoffs, put_timed);
        put_seq(&mut out, &self.placements, |o, (&id, p)| {
            put_u64(o, id);
            put_u32(o, p.worker);
            put_u64(o, p.task_idx);
            put_u32(o, p.attempt);
            put_resources(o, &p.alloc);
            put_time(o, p.started_at);
            put_bool(o, p.zombie);
            put_opt_time(o, p.lease_at);
        });
        put_u64(&mut out, self.next_placement);
        put_seq(&mut out, &self.alloc_stats, |o, s| {
            for axis in [&s.cores, &s.memory_mb, &s.disk_mb] {
                put_seq(o, axis, |o, &v| put_f64(o, v));
            }
            put_u64(o, s.completed);
        });
        put_seq(&mut out, &self.dep_remaining, |o, &d| put_u64(o, d));
        put_u64(&mut out, self.completed);
        put_u64(&mut out, self.abandoned);
        put_seq(&mut out, &self.results, put_result);
        for set in [&self.retried, &self.infra_retried] {
            put_seq(&mut out, set, |o, &t| put_u64(o, t));
        }
        for counts in [&self.infra_fail_count, &self.cat_streak] {
            put_seq(&mut out, counts, |o, &c| put_u32(o, c));
        }
        put_seq(&mut out, &self.worker_faults, |o, (&w, &c)| {
            put_u32(o, w);
            put_u32(o, c);
        });
        put_seq(&mut out, &self.quarantined_until, |o, &(w, t)| {
            put_u32(o, w);
            put_time(o, t);
        });
        put_u32(&mut out, self.quarantines);
        put_bool(&mut out, self.degraded);
        put_u32(&mut out, self.env_failures);
        put_u32(&mut out, self.workers_provisioned);
        put_u32(&mut out, self.workers_lost);
        put_u64(&mut out, self.tasks_lost);
        put_u64(&mut out, self.lease_reclaims);
        put_u64(&mut out, self.stage_in_failures);
        put_u64(&mut out, self.spurious_kills);
        put_u64(&mut out, self.result_msgs_lost);
        put_f64(&mut out, self.lost_core_secs);
        out
    }

    pub fn decode(buf: &[u8]) -> Result<Self, JournalError> {
        type Res<T> = Result<T, JournalError>;
        let r = &mut Reader::new(buf);
        Ok(MasterImage {
            pending: r.seq(timed)?.into(),
            backoffs: r.seq(timed)?,
            placements: {
                // Inserted as read, like the live master's map grows.
                let mut placements = BTreeMap::new();
                for _ in 0..r.u64()? {
                    let id = r.u64()?;
                    let snap = PlacementSnap {
                        worker: r.u32()?,
                        task_idx: r.u64()?,
                        attempt: r.u32()?,
                        alloc: resources(r)?,
                        started_at: time(r)?,
                        zombie: r.bool()?,
                        lease_at: opt_time(r)?,
                    };
                    placements.insert(id, snap);
                }
                placements
            },
            next_placement: r.u64()?,
            alloc_stats: r.seq(|r| {
                Res::Ok(CategorySnap {
                    cores: r.seq(Reader::f64)?,
                    memory_mb: r.seq(Reader::f64)?,
                    disk_mb: r.seq(Reader::f64)?,
                    completed: r.u64()?,
                })
            })?,
            dep_remaining: r.seq(Reader::u64)?,
            completed: r.u64()?,
            abandoned: r.u64()?,
            results: r.seq(read_result)?,
            retried: r.seq(Reader::u64)?,
            infra_retried: r.seq(Reader::u64)?,
            infra_fail_count: r.seq(Reader::u32)?,
            cat_streak: r.seq(Reader::u32)?,
            worker_faults: r
                .seq(|r| Res::Ok((r.u32()?, r.u32()?)))?
                .into_iter()
                .collect(),
            quarantined_until: r.seq(|r| Res::Ok((r.u32()?, time(r)?)))?,
            quarantines: r.u32()?,
            degraded: r.bool()?,
            env_failures: r.u32()?,
            workers_provisioned: r.u32()?,
            workers_lost: r.u32()?,
            tasks_lost: r.u64()?,
            lease_reclaims: r.u64()?,
            stage_in_failures: r.u64()?,
            spurious_kills: r.u64()?,
            result_msgs_lost: r.u64()?,
            lost_core_secs: r.f64()?,
        })
    }
}

// ---- the journal store ----

/// The master's in-memory model of its on-disk write-ahead journal: the
/// latest compacting snapshot (if any) plus every record appended since.
/// `bytes_written` integrates everything ever flushed — records *and*
/// snapshots — which is the `journal_bytes` the report and the recovery
/// bench account.
#[derive(Debug, Default)]
pub(crate) struct Journal {
    snapshot: Option<Vec<u8>>,
    tail: Vec<Record>,
    bytes_written: u64,
    records_since_snapshot: u64,
    scratch: Vec<u8>,
}

impl Journal {
    pub fn new() -> Self {
        Journal::default()
    }

    /// Append one record.
    pub fn append(&mut self, rec: Record) {
        self.scratch.clear();
        rec.encode(&mut self.scratch);
        if cfg!(debug_assertions) {
            // Every record written must read back exactly — catching an
            // encoding drift at append time, not at the next recovery.
            let mut r = Reader::new(&self.scratch);
            let back = Record::decode(&mut r).expect("appended record decodes");
            assert!(r.is_empty(), "record encoding has trailing bytes");
            assert_eq!(back, rec, "record encoding must round-trip");
        }
        self.bytes_written += self.scratch.len() as u64;
        self.records_since_snapshot += 1;
        self.tail.push(rec);
    }

    /// Records appended since the last snapshot (what a recovery replays).
    pub fn tail_len(&self) -> u64 {
        self.tail.len() as u64
    }

    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Should the master install a compacting snapshot now?
    pub fn wants_snapshot(&self, every: Option<u64>) -> bool {
        match every {
            Some(k) => self.records_since_snapshot >= k,
            None => false,
        }
    }

    /// Install a compacting snapshot: the encoded image replaces the whole
    /// record tail.
    pub fn install_snapshot(&mut self, image: &MasterImage) {
        let bytes = image.encode();
        self.bytes_written += bytes.len() as u64;
        self.snapshot = Some(bytes);
        self.tail.clear();
        self.records_since_snapshot = 0;
    }

    /// The snapshot to start recovery from, decoded — or `None` when
    /// recovery must replay from the fresh image.
    pub fn base_image(&self) -> Result<Option<MasterImage>, JournalError> {
        match &self.snapshot {
            Some(bytes) => Ok(Some(MasterImage::decode(bytes)?)),
            None => Ok(None),
        }
    }

    pub fn tail(&self) -> &[Record] {
        &self.tail
    }
}

/// Opaque entry points for the journal micro-benchmarks. The journal's
/// types are crate-private (they are an implementation detail of the
/// durable master), so the bench crate drives representative encode/decode
/// and snapshot round-trip work through these functions instead.
pub mod bench_api {
    use super::*;

    fn sample_record(i: u64) -> Record {
        // A rotating mix weighted toward the hot-path records a real run
        // writes most: enqueues, placements, results, finishes.
        match i % 6 {
            0 => Record::Enqueue {
                task_idx: i,
                attempt: (i % 3) as u32,
                front: i.is_multiple_of(2),
                since: SimTime::from_secs(i as f64 * 0.25),
            },
            1 => Record::Placed {
                placement: i,
                worker: (i % 64) as u32,
                task_idx: i,
                attempt: 0,
                alloc: Resources::new(1, 110 + i % 512, 1024),
                started_at: SimTime::from_secs(i as f64 * 0.5),
                lease_at: i
                    .is_multiple_of(2)
                    .then(|| SimTime::from_secs(i as f64 * 0.5 + 300.0)),
            },
            2 => Record::Result(Box::new(TaskResult {
                task: TaskId(i),
                category: "hep".to_string(),
                worker: (i % 64) as u32,
                allocated: Resources::new(1, 110, 1024),
                submitted_at: SimTime::ZERO,
                started_at: SimTime::from_secs(5.0),
                finished_at: SimTime::from_secs(60.0),
                stage_in_secs: 4.0,
                exec_secs: 51.0,
                outcome: MonitorOutcome::Completed(ResourceReport {
                    wall_secs: 51.0,
                    cpu_secs: 50.0,
                    peak_cores: 1.01,
                    peak_rss_mb: 108,
                    peak_processes: 2,
                    peak_disk_mb: 850,
                    read_bytes: 1 << 28,
                    write_bytes: 1 << 22,
                    polls: 51,
                    monitor_overhead_secs: 0.005,
                }),
                attempt: 0,
            })),
            3 => Record::Finished {
                task_idx: i,
                success: true,
            },
            4 => Record::Freed { placement: i },
            _ => Record::Observe {
                cat: (i % 4) as u32,
                peak_cores: 1.01,
                peak_rss_mb: 108 + i % 64,
                peak_disk_mb: 850,
                completed: true,
                violated: None,
            },
        }
    }

    /// Encode `n` representative records, returning the byte stream.
    pub fn encode_records(n: u64) -> Vec<u8> {
        let mut out = Vec::new();
        for i in 0..n {
            sample_record(i).encode(&mut out);
        }
        out
    }

    /// Decode a stream produced by [`encode_records`], returning the record
    /// count. Panics on malformed input.
    pub fn decode_records(buf: &[u8]) -> usize {
        try_decode_records(buf).expect("bench stream decodes")
    }

    /// Decode an arbitrary byte stream as journal records, returning how
    /// many decoded cleanly before the stream ended or the first error.
    /// Unlike [`decode_records`] this never panics — it is the entry point
    /// the decoder-robustness proptests drive with corrupt/truncated input.
    pub fn try_decode_records(buf: &[u8]) -> Result<usize, crate::journal::JournalError> {
        let mut r = Reader::new(buf);
        let mut n = 0;
        while !r.is_empty() {
            Record::decode(&mut r)?;
            n += 1;
        }
        Ok(n)
    }

    /// Encode a populated `MasterImage` snapshot for a `tasks`-task run.
    pub fn encode_image(tasks: usize) -> Vec<u8> {
        let deps: Vec<usize> = (0..tasks).map(|i| i % 3).collect();
        let mut img = MasterImage::fresh(&deps, tasks, 4);
        for i in 0..tasks as u64 {
            match i % 3 {
                0 => img.pending.push_back((i, 0, SimTime::from_secs(i as f64))),
                1 => {
                    img.placements.insert(
                        i,
                        PlacementSnap {
                            worker: (i % 64) as u32,
                            task_idx: i,
                            attempt: 0,
                            alloc: Resources::new(1, 110, 1024),
                            started_at: SimTime::from_secs(i as f64),
                            zombie: false,
                            lease_at: Some(SimTime::from_secs(i as f64 + 300.0)),
                        },
                    );
                }
                _ => img.completed += 1,
            }
        }
        for s in &mut img.alloc_stats {
            for v in 0..64 {
                s.cores.push(1.0 + v as f64 * 0.01);
                s.memory_mb.push(100.0 + v as f64);
                s.disk_mb.push(800.0 + v as f64);
            }
            s.completed = 64;
        }
        img.encode()
    }

    /// Decode + re-encode a snapshot, returning whether it round-trips
    /// bitwise (always true; the comparison keeps the work honest).
    pub fn image_roundtrips(bytes: &[u8]) -> bool {
        let img = MasterImage::decode(bytes).expect("bench image decodes");
        img.encode() == bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_result() -> TaskResult {
        TaskResult {
            task: TaskId(7),
            category: "hep".to_string(),
            worker: 3,
            allocated: Resources::new(2, 512, 1024),
            submitted_at: SimTime::ZERO,
            started_at: SimTime::from_secs(10.5),
            finished_at: SimTime::from_secs(99.25),
            stage_in_secs: 4.5,
            exec_secs: 80.0,
            outcome: MonitorOutcome::LimitExceeded {
                kind: ResourceKind::Memory,
                report: ResourceReport {
                    wall_secs: 80.0,
                    cpu_secs: 79.5,
                    peak_cores: 1.01,
                    peak_rss_mb: 620,
                    peak_processes: 3,
                    peak_disk_mb: 900,
                    read_bytes: 1 << 30,
                    write_bytes: 1 << 20,
                    polls: 80,
                    monitor_overhead_secs: 0.008,
                },
            },
            attempt: 1,
        }
    }

    fn all_records() -> Vec<Record> {
        vec![
            Record::RunStart {
                seed: 0xdead_beef,
                task_count: 100,
                worker_count: 8,
            },
            Record::Enqueue {
                task_idx: 3,
                attempt: 1,
                front: true,
                since: SimTime::from_secs(2.5),
            },
            Record::BackoffArm {
                task_idx: 4,
                attempt: 0,
                at: SimTime::from_secs(60.0),
            },
            Record::Placed {
                placement: 42,
                worker: 2,
                task_idx: 3,
                attempt: 1,
                alloc: Resources::new(1, 110, 1024),
                started_at: SimTime::from_secs(5.0),
                lease_at: Some(SimTime::from_secs(305.0)),
            },
            Record::Placed {
                placement: 43,
                worker: 2,
                task_idx: 5,
                attempt: 0,
                alloc: Resources::new(8, 8192, 16384),
                started_at: SimTime::from_secs(5.0),
                lease_at: None,
            },
            Record::Zombie { placement: 42 },
            Record::Freed { placement: 42 },
            Record::Result(Box::new(sample_result())),
            Record::Finished {
                task_idx: 3,
                success: true,
            },
            Record::Abandoned { task_idx: 9 },
            Record::Cancelled { task_idx: 10 },
            Record::Observe {
                cat: 1,
                peak_cores: 1.5,
                peak_rss_mb: 110,
                peak_disk_mb: 900,
                completed: true,
                violated: Some(ResourceKind::Disk),
            },
            Record::Retried { task_idx: 3 },
            Record::InfraRetried {
                task_idx: 4,
                count: 2,
            },
            Record::Streak { cat: 0, value: 3 },
            Record::WorkerFault {
                worker: 2,
                count: 4,
            },
            Record::Quarantined {
                worker: 2,
                release_at: SimTime::from_secs(400.0),
            },
            Record::QuarantineLifted { worker: 2 },
            Record::EnvFailure { count: 5 },
            Record::Degraded,
            Record::Counter {
                key: CounterKey::LostCoreSecs,
                amount: 123.75,
            },
            Record::Stolen {
                task_idx: 11,
                attempt: 0,
            },
            Record::RemoteDep { task_idx: 12 },
            Record::Submitted {
                task_idx: 100,
                cat: 2,
                spec: Box::new(
                    TaskSpec::new(
                        TaskId(100),
                        "stream",
                        vec![
                            FileRef::data("in.pkl", 4096),
                            FileRef::environment("env.tar.gz", 1 << 20, 4 << 20, 500, 80),
                        ],
                        1 << 16,
                        SimTaskProfile {
                            duration_secs: 12.5,
                            cores_used: 1.25,
                            base_memory_mb: 64,
                            peak_memory_mb: 256,
                            mem_ramp_fraction: 0.4,
                            peak_disk_mb: 512,
                        },
                    )
                    .after(vec![TaskId(3)]),
                ),
            },
        ]
    }

    #[test]
    fn every_record_roundtrips() {
        for rec in all_records() {
            let mut buf = Vec::new();
            rec.encode(&mut buf);
            let mut r = Reader::new(&buf);
            let back = Record::decode(&mut r).expect("decodes");
            assert!(r.is_empty(), "trailing bytes after {rec:?}");
            assert_eq!(back, rec);
        }
    }

    #[test]
    fn record_stream_roundtrips() {
        let recs = all_records();
        let mut buf = Vec::new();
        for rec in &recs {
            rec.encode(&mut buf);
        }
        let mut r = Reader::new(&buf);
        let mut back = Vec::new();
        while !r.is_empty() {
            back.push(Record::decode(&mut r).expect("decodes"));
        }
        assert_eq!(back, recs);
    }

    #[test]
    fn truncated_record_reports_error() {
        let mut buf = Vec::new();
        Record::Result(Box::new(sample_result())).encode(&mut buf);
        for cut in [1, buf.len() / 2, buf.len() - 1] {
            let mut r = Reader::new(&buf[..cut]);
            assert!(Record::decode(&mut r).is_err(), "cut at {cut}");
        }
        let mut r = Reader::new(&[0xff]);
        assert_eq!(
            Record::decode(&mut r),
            Err(JournalError::BadTag("record", 0xff))
        );
    }

    #[test]
    fn image_roundtrips_bitwise() {
        let mut img = MasterImage::fresh(&[0, 2, usize::MAX], 3, 2);
        img.pending.push_back((0, 0, SimTime::ZERO));
        img.pending.push_front((2, 1, SimTime::from_secs(3.0)));
        img.backoffs.push((1, 0, SimTime::from_secs(90.0)));
        img.placements.insert(
            5,
            PlacementSnap {
                worker: 1,
                task_idx: 2,
                attempt: 0,
                alloc: Resources::new(1, 110, 1024),
                started_at: SimTime::from_secs(4.0),
                zombie: true,
                lease_at: Some(SimTime::from_secs(304.0)),
            },
        );
        img.next_placement = 6;
        img.alloc_stats[0].cores.push(1.25);
        img.alloc_stats[0].memory_mb.push(110.0);
        img.alloc_stats[0].disk_mb.push(900.0);
        img.alloc_stats[0].completed = 1;
        img.completed = 1;
        img.abandoned = 1;
        img.results.push(sample_result());
        img.retried.push(2);
        img.infra_retried.push(1);
        img.infra_fail_count[1] = 3;
        img.cat_streak[1] = 2;
        img.worker_faults.insert(1, 4);
        img.quarantined_until.push((3, SimTime::from_secs(500.0)));
        img.quarantines = 1;
        img.degraded = true;
        img.env_failures = 6;
        img.workers_provisioned = 9;
        img.workers_lost = 2;
        img.tasks_lost = 3;
        img.lease_reclaims = 1;
        img.stage_in_failures = 2;
        img.spurious_kills = 1;
        img.result_msgs_lost = 1;
        img.lost_core_secs = 55.5;
        let bytes = img.encode();
        let back = MasterImage::decode(&bytes).expect("decodes");
        assert_eq!(back, img);
        // Same image → same bytes (snapshots are deterministic, so the
        // scheduler-equivalence suites pin journal byte-identity too).
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn journal_compaction_drops_tail_and_counts_bytes() {
        let mut j = Journal::new();
        assert!(!j.wants_snapshot(Some(2)));
        j.append(Record::Degraded);
        j.append(Record::Freed { placement: 1 });
        assert!(j.wants_snapshot(Some(2)));
        assert!(!j.wants_snapshot(None));
        assert_eq!(j.tail_len(), 2);
        let bytes_before = j.bytes_written();
        assert!(bytes_before > 0);
        let img = MasterImage::fresh(&[0, 0], 2, 1);
        j.install_snapshot(&img);
        assert_eq!(j.tail_len(), 0);
        assert!(!j.wants_snapshot(Some(2)));
        assert!(j.bytes_written() > bytes_before, "snapshot bytes count");
        let base = j.base_image().expect("decodes").expect("present");
        assert_eq!(base, img);
        // A fresh journal has no base image.
        assert!(Journal::new().base_image().unwrap().is_none());
    }

    #[test]
    fn fresh_image_mirrors_dep_state() {
        let img = MasterImage::fresh(&[0, 1, usize::MAX], 3, 2);
        assert_eq!(img.dep_remaining, vec![0, 1, u64::MAX]);
        assert_eq!(img.infra_fail_count, vec![0, 0, 0]);
        assert_eq!(img.cat_streak, vec![0, 0]);
        assert_eq!(img.alloc_stats.len(), 2);
        assert_eq!(img.completed, 0);
    }

    #[test]
    fn durability_presets() {
        let none = DurabilityConfig::none();
        assert!(!none.journal);
        let j = DurabilityConfig::journal_only();
        assert!(j.journal && j.snapshot_every.is_none());
        let s = DurabilityConfig::journal_with_snapshots(256);
        assert_eq!(s.snapshot_every, Some(256));
        assert!(s.restart_secs > 0.0);
    }

    /// Length and FNV-1a digest of the journal's record and snapshot
    /// encodings. Round-trip tests cannot see a format drift (both ends
    /// drift together); this pin can.
    #[test]
    fn byte_format_is_pinned() {
        let pin = |b: &[u8]| (b.len(), lfm_telemetry::codec::fnv1a(b));
        assert_eq!(
            pin(&bench_api::encode_records(64)),
            (3161, 0xda166f30a06d81cd)
        );
        assert_eq!(
            pin(&bench_api::encode_image(256)),
            (16535, 0xc1d9cb71bf3754c9)
        );
    }
}
