//! Deterministic, seedable fault injection and the master's resilience
//! knobs.
//!
//! A [`FaultPlan`] is a composition of independent [`FaultSpec`]s — worker
//! churn, per-worker straggler slowdown, message delay/loss on the network,
//! stage-in failure, env-unpack disk-full, spurious monitor kills. Every
//! spec carries its own seed and draws from its own stream, so adding or
//! removing one fault source never perturbs another's schedule and traces
//! stay byte-reproducible. Faults whose effect is a *worker property*
//! (churn lifetime, straggler factor) are drawn from a stream keyed by the
//! worker id, which makes them independent of event interleaving — the
//! Reference and Indexed schedulers observe identical fault sequences, so
//! the bitwise-equivalence suites keep holding under arbitrary plans.
//!
//! The master-side recovery machinery is configured by
//! [`ResilienceConfig`]: placement leases (lost-result and straggler
//! reclamation), per-category exponential backoff with a bounded infra
//! retry budget, flaky-worker quarantine, and graceful degradation to
//! [`DistMode::SharedFsDirect`](crate::master::DistMode) when packed-env
//! distribution keeps failing.

use lfm_simcluster::network::Disturbance;
use lfm_simcluster::rng::SimRng;
use serde::{Deserialize, Serialize};

/// One independent fault source: what to inject, and the seed of the stream
/// it draws from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    pub kind: FaultKind,
    /// Per-spec stream seed, mixed with the master seed at run start. Two
    /// specs of different kinds never share a stream even with equal seeds
    /// (the kind salts the mix).
    pub seed: u64,
}

/// The fault taxonomy (see DESIGN.md §5d for the invariants each preserves).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Pilot eviction: each worker's lifetime is exponential with this
    /// mean; every loss submits a replacement pilot.
    WorkerChurn { mean_lifetime_secs: f64 },
    /// With probability `prob` a worker is a straggler: everything it
    /// executes is slowed by a factor uniform in `[min_factor, max_factor]`.
    Straggler {
        prob: f64,
        min_factor: f64,
        max_factor: f64,
    },
    /// Each network transfer is delayed with probability `prob` by an
    /// exponential extra latency of this mean.
    MessageDelay { prob: f64, mean_delay_secs: f64 },
    /// Each network transfer is lost with probability `prob` (stage-in
    /// transfers fail the attempt; a lost result makes a zombie placement
    /// reclaimed by its lease).
    MessageLoss { prob: f64 },
    /// Each staging attempt that moved data fails outright with this
    /// probability (wasting the stage-in time).
    StageInFailure { prob: f64 },
    /// Each environment-pack unpack hits disk-full with this probability.
    /// Repeated env failures trigger the shared-FS degradation fallback.
    UnpackDiskFull { prob: f64 },
    /// The monitor falsely kills an otherwise-successful execution with
    /// this probability, partway through. Reported as
    /// [`MonitorOutcome::SpuriousKill`](lfm_monitor::report::MonitorOutcome)
    /// — distinguishable from a real limit kill, never fed to the
    /// allocator, and not counted as a resource retry.
    SpuriousKill { prob: f64 },
    /// The master process itself crashes. Crash points are precomputed at
    /// run start as cumulative exponential gaps with this mean (in
    /// *processed events*, minimum gap 1), up to `max_crashes` per run —
    /// counting events rather than drawing per-event keeps the schedule
    /// identical across scheduler implementations. What a crash costs
    /// depends on the master's
    /// [`DurabilityConfig`](crate::journal::DurabilityConfig): with a
    /// journal the master recovers its logical state (snapshot ⊕ replay);
    /// without one the run starts over from scratch.
    MasterCrash {
        mean_interval_events: f64,
        max_crashes: u32,
    },
}

impl FaultSpec {
    fn new(kind: FaultKind) -> Self {
        FaultSpec { kind, seed: 0 }
    }

    /// Exponential pilot eviction with auto-replacement.
    pub fn worker_churn(mean_lifetime_secs: f64) -> Self {
        Self::new(FaultKind::WorkerChurn { mean_lifetime_secs })
    }

    /// Per-worker straggler slowdown.
    pub fn straggler(prob: f64, min_factor: f64, max_factor: f64) -> Self {
        assert!(min_factor >= 1.0 && max_factor >= min_factor);
        Self::new(FaultKind::Straggler {
            prob,
            min_factor,
            max_factor,
        })
    }

    /// Random extra latency on network transfers.
    pub fn message_delay(prob: f64, mean_delay_secs: f64) -> Self {
        Self::new(FaultKind::MessageDelay {
            prob,
            mean_delay_secs,
        })
    }

    /// Random transfer loss on the network.
    pub fn message_loss(prob: f64) -> Self {
        Self::new(FaultKind::MessageLoss { prob })
    }

    /// Staging fails outright with probability `prob` per staging attempt.
    pub fn stage_in_failure(prob: f64) -> Self {
        Self::new(FaultKind::StageInFailure { prob })
    }

    /// Env-pack unpack hits disk-full with probability `prob`.
    pub fn unpack_disk_full(prob: f64) -> Self {
        Self::new(FaultKind::UnpackDiskFull { prob })
    }

    /// Spurious monitor kill with probability `prob` per execution.
    pub fn spurious_kill(prob: f64) -> Self {
        Self::new(FaultKind::SpuriousKill { prob })
    }

    /// Master crashes at exponentially spaced event indices (mean gap
    /// `mean_interval_events` processed events), at most `max_crashes`
    /// times per run.
    pub fn master_crash(mean_interval_events: f64, max_crashes: u32) -> Self {
        assert!(
            mean_interval_events >= 1.0,
            "mean crash interval must be at least one event"
        );
        Self::new(FaultKind::MasterCrash {
            mean_interval_events,
            max_crashes,
        })
    }

    /// Override this spec's stream seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// A composition of independent fault sources — the single public failure
/// configuration surface of [`MasterConfig`](crate::master::MasterConfig).
/// When two specs of the same kind are composed, the last one wins.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// No faults at all (the default).
    pub fn reliable() -> Self {
        FaultPlan::default()
    }

    /// The classic one-spec plan: exponential pilot eviction with
    /// auto-replacement.
    pub fn evicting(mean_lifetime_secs: f64) -> Self {
        FaultPlan::default().with(FaultSpec::worker_churn(mean_lifetime_secs))
    }

    /// Compose another fault source into the plan.
    pub fn with(mut self, spec: FaultSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Does this plan inject anything?
    pub fn is_active(&self) -> bool {
        !self.specs.is_empty()
    }

    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }
}

/// Master-side recovery knobs: leases, backoff, quarantine, degradation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResilienceConfig {
    /// Resource-kill-and-retry ceiling; a task killed for exceeding its
    /// allocation this many times is abandoned.
    pub max_attempts: u32,
    /// Placement lease = `lease_factor` × the attempt's nominal duration
    /// (stage-in + unslowed execution + output transfer). A placement still
    /// live past its lease — a straggler, or a zombie whose result message
    /// was lost — is reclaimed and requeued. Leases are only armed when the
    /// fault plan is active.
    pub lease_factor: f64,
    /// Lower bound on any lease, seconds.
    pub min_lease_secs: f64,
    /// Infrastructure-failure retries per task (staging failures, lost
    /// results, lease reclaims, spurious kills) before abandoning it.
    /// Distinct from `max_attempts`: infra retries rerun the *same* attempt
    /// — the task did nothing wrong.
    pub infra_retry_budget: u32,
    /// First backoff delay for infra requeues, seconds; doubles per
    /// consecutive failure of the category, capped below. Zero disables
    /// backoff (immediate requeue).
    pub backoff_base_secs: f64,
    /// Backoff ceiling, seconds.
    pub backoff_cap_secs: f64,
    /// Infra failures attributed to one worker before it is quarantined
    /// (taken out of scheduling, released after `quarantine_secs`). `None`
    /// disables quarantine.
    pub quarantine_threshold: Option<u32>,
    /// How long a quarantined worker sits out, seconds.
    pub quarantine_secs: f64,
    /// Packed-environment staging failures before the master degrades to
    /// `DistMode::SharedFsDirect` for the rest of the run. `None` disables
    /// the fallback.
    pub degrade_env_failures: Option<u32>,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            max_attempts: 3,
            lease_factor: 4.0,
            min_lease_secs: 30.0,
            infra_retry_budget: 8,
            backoff_base_secs: 2.0,
            backoff_cap_secs: 120.0,
            quarantine_threshold: Some(5),
            quarantine_secs: 180.0,
            degrade_env_failures: Some(6),
        }
    }
}

impl ResilienceConfig {
    /// The strawman the chaos bench compares against: leases and retry
    /// budgets only — no backoff, no quarantine, no degradation.
    pub fn naive_retry() -> Self {
        ResilienceConfig {
            backoff_base_secs: 0.0,
            quarantine_threshold: None,
            degrade_env_failures: None,
            ..ResilienceConfig::default()
        }
    }
}

/// Exponential backoff delay for the `streak`-th consecutive infra failure
/// (1-based): `base × 2^(streak-1)`, capped.
pub fn backoff_delay(streak: u32, cfg: &ResilienceConfig) -> f64 {
    if cfg.backoff_base_secs <= 0.0 {
        return 0.0;
    }
    let exp = streak.saturating_sub(1).min(32);
    (cfg.backoff_base_secs * f64::powi(2.0, exp as i32)).min(cfg.backoff_cap_secs)
}

/// Why an attempt failed for infrastructure (not task) reasons. Infra
/// failures are requeued with backoff against the infra retry budget and
/// are never shown to the allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum InfraFault {
    /// Input staging failed (lost transfer or injected staging failure).
    StageInFailed,
    /// The environment unpack ran out of disk.
    DiskFull,
    /// The task ran, but its result message was lost; the placement turns
    /// zombie until its lease reclaims it.
    ResultLost,
}

impl InfraFault {
    pub fn label(self) -> &'static str {
        match self {
            InfraFault::StageInFailed => "stage_in_failed",
            InfraFault::DiskFull => "disk_full",
            InfraFault::ResultLost => "result_lost",
        }
    }
}

/// splitmix64 — mixes a spec seed, the master seed, and an entity id into
/// an independent stream seed (also used by the federation to derive
/// per-shard seeds).
pub(crate) fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn stream_seed(master_seed: u64, spec_seed: u64, kind_salt: u64) -> u64 {
    mix(master_seed ^ mix(spec_seed.wrapping_add(kind_salt)))
}

/// The master's live fault-injection state, compiled from a [`FaultPlan`].
/// Stream draws happen only at placement-identical points (inside
/// `place()`), and per-worker properties are drawn keyed by worker id, so
/// scheduler implementations consume identical fault sequences.
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    churn: Option<(f64, u64)>,
    straggler: Option<(f64, f64, f64, u64)>,
    stage_fail: Option<(f64, SimRng)>,
    disk_full: Option<(f64, SimRng)>,
    spurious: Option<(f64, SimRng)>,
    /// Network delay/loss parameters for `Network::set_disturbance`.
    pub disturbance: Option<Disturbance>,
    /// Seed of the network draw stream (master-owned, passed per transfer).
    pub net_seed: u64,
    /// Sorted absolute event indices at which the master crashes. Counting
    /// *processed* events (not wall time) keeps the schedule identical for
    /// the Reference and Indexed schedulers.
    crash_points: Vec<u64>,
    active: bool,
}

impl FaultState {
    pub fn new(plan: &FaultPlan, master_seed: u64) -> Self {
        let mut s = FaultState {
            churn: None,
            straggler: None,
            stage_fail: None,
            disk_full: None,
            spurious: None,
            disturbance: None,
            net_seed: stream_seed(master_seed, 0, 7),
            crash_points: Vec::new(),
            active: plan.is_active(),
        };
        for spec in plan.specs() {
            match spec.kind {
                FaultKind::WorkerChurn { mean_lifetime_secs } => {
                    s.churn = Some((mean_lifetime_secs, stream_seed(master_seed, spec.seed, 1)));
                }
                FaultKind::Straggler {
                    prob,
                    min_factor,
                    max_factor,
                } => {
                    s.straggler = Some((
                        prob,
                        min_factor,
                        max_factor,
                        stream_seed(master_seed, spec.seed, 2),
                    ));
                }
                FaultKind::MessageDelay {
                    prob,
                    mean_delay_secs,
                } => {
                    let d = s.disturbance.get_or_insert(Disturbance::none());
                    d.delay_prob = prob;
                    d.mean_delay_secs = mean_delay_secs;
                    s.net_seed ^= stream_seed(master_seed, spec.seed, 3);
                }
                FaultKind::MessageLoss { prob } => {
                    let d = s.disturbance.get_or_insert(Disturbance::none());
                    d.loss_prob = prob;
                    s.net_seed ^= stream_seed(master_seed, spec.seed, 4);
                }
                FaultKind::StageInFailure { prob } => {
                    s.stage_fail =
                        Some((prob, SimRng::seeded(stream_seed(master_seed, spec.seed, 5))));
                }
                FaultKind::UnpackDiskFull { prob } => {
                    s.disk_full =
                        Some((prob, SimRng::seeded(stream_seed(master_seed, spec.seed, 6))));
                }
                FaultKind::SpuriousKill { prob } => {
                    s.spurious =
                        Some((prob, SimRng::seeded(stream_seed(master_seed, spec.seed, 8))));
                }
                FaultKind::MasterCrash {
                    mean_interval_events,
                    max_crashes,
                } => {
                    let mut rng = SimRng::seeded(stream_seed(master_seed, spec.seed, 9));
                    let mut at = 0u64;
                    let mut pts = Vec::with_capacity(max_crashes as usize);
                    for _ in 0..max_crashes {
                        let u = rng.uniform(1e-9, 1.0);
                        let gap = (-mean_interval_events * u.ln()).ceil().max(1.0) as u64;
                        at = at.saturating_add(gap);
                        pts.push(at);
                    }
                    s.crash_points = pts;
                }
            }
        }
        s
    }

    /// Sorted absolute processed-event indices at which the master crashes.
    pub fn crash_points(&self) -> &[u64] {
        &self.crash_points
    }

    /// Is any fault source configured? Leases are only armed when true, so
    /// fault-free runs schedule no extra events.
    pub fn active(&self) -> bool {
        self.active
    }

    /// Keyed draw: this worker's eviction time after coming up, if churn is
    /// configured.
    pub fn worker_lifetime(&self, worker: u32) -> Option<f64> {
        let (mean, seed) = self.churn?;
        let mut rng = SimRng::seeded(mix(seed ^ mix(worker as u64)));
        let u = rng.uniform(1e-9, 1.0);
        Some(-mean * u.ln())
    }

    /// Keyed draw: this worker's execution slowdown factor (1.0 = healthy).
    pub fn worker_slowdown(&self, worker: u32) -> f64 {
        let Some((prob, min_f, max_f, seed)) = self.straggler else {
            return 1.0;
        };
        let mut rng = SimRng::seeded(mix(seed ^ mix(worker as u64)));
        if rng.chance(prob) {
            rng.uniform(min_f, max_f)
        } else {
            1.0
        }
    }

    /// Stream draw: does this staging attempt fail outright?
    pub fn stage_in_fails(&mut self) -> bool {
        match &mut self.stage_fail {
            Some((p, rng)) => rng.chance(*p),
            None => false,
        }
    }

    /// Stream draw: does this env-pack unpack hit disk-full?
    pub fn unpack_disk_full(&mut self) -> bool {
        match &mut self.disk_full {
            Some((p, rng)) => rng.chance(*p),
            None => false,
        }
    }

    /// Stream draw: is this execution spuriously killed? Returns the
    /// fraction of the run at which the false kill lands.
    pub fn spurious_kill(&mut self) -> Option<f64> {
        let (p, rng) = self.spurious.as_mut()?;
        if rng.chance(*p) {
            Some(rng.uniform(0.05, 0.95))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_builder_composes_specs() {
        let plan = FaultPlan::reliable()
            .with(FaultSpec::worker_churn(300.0))
            .with(FaultSpec::message_loss(0.1).with_seed(7))
            .with(FaultSpec::spurious_kill(0.05));
        assert!(plan.is_active());
        assert_eq!(plan.specs().len(), 3);
        assert!(!FaultPlan::reliable().is_active());
        assert!(FaultPlan::evicting(100.0).is_active());
    }

    #[test]
    fn keyed_draws_are_deterministic_and_independent_per_worker() {
        let plan = FaultPlan::evicting(200.0).with(FaultSpec::straggler(0.5, 2.0, 4.0));
        let a = FaultState::new(&plan, 42);
        let b = FaultState::new(&plan, 42);
        for w in 0..16u32 {
            assert_eq!(a.worker_lifetime(w), b.worker_lifetime(w));
            assert_eq!(a.worker_slowdown(w), b.worker_slowdown(w));
        }
        // Different workers see different lifetimes (with overwhelming
        // probability over 16 ids).
        let distinct: std::collections::BTreeSet<u64> = (0..16u32)
            .map(|w| a.worker_lifetime(w).unwrap().to_bits())
            .collect();
        assert!(distinct.len() > 1);
        // A different master seed moves every draw.
        let c = FaultState::new(&plan, 43);
        assert_ne!(a.worker_lifetime(0), c.worker_lifetime(0));
    }

    #[test]
    fn spec_streams_are_independent() {
        // Removing the straggler spec must not change the churn draws.
        let with_both = FaultState::new(
            &FaultPlan::evicting(200.0).with(FaultSpec::straggler(0.5, 2.0, 4.0)),
            9,
        );
        let churn_only = FaultState::new(&FaultPlan::evicting(200.0), 9);
        for w in 0..8u32 {
            assert_eq!(with_both.worker_lifetime(w), churn_only.worker_lifetime(w));
        }
    }

    #[test]
    fn straggler_draw_respects_bounds() {
        let plan = FaultPlan::reliable().with(FaultSpec::straggler(1.0, 2.0, 4.0));
        let s = FaultState::new(&plan, 1);
        for w in 0..32u32 {
            let f = s.worker_slowdown(w);
            assert!((2.0..4.0).contains(&f), "factor {f}");
        }
        let healthy = FaultState::new(&FaultPlan::reliable(), 1);
        assert_eq!(healthy.worker_slowdown(3), 1.0);
    }

    #[test]
    fn backoff_schedule_doubles_and_caps() {
        let cfg = ResilienceConfig {
            backoff_base_secs: 2.0,
            backoff_cap_secs: 120.0,
            ..ResilienceConfig::default()
        };
        assert_eq!(backoff_delay(1, &cfg), 2.0);
        assert_eq!(backoff_delay(2, &cfg), 4.0);
        assert_eq!(backoff_delay(3, &cfg), 8.0);
        assert_eq!(backoff_delay(7, &cfg), 120.0); // 128 capped
        assert_eq!(backoff_delay(40, &cfg), 120.0); // huge streaks don't overflow
        let naive = ResilienceConfig::naive_retry();
        assert_eq!(backoff_delay(5, &naive), 0.0);
        assert!(naive.quarantine_threshold.is_none());
    }

    #[test]
    fn backoff_exponent_is_capped_at_the_integer_boundary() {
        // The exponent cap (32) must hold even for pathological streak
        // counters: 2^(u32::MAX-1) would overflow any shift/multiply, but
        // the delay stays finite, monotone, and pinned at the cap.
        let cfg = ResilienceConfig {
            backoff_base_secs: 2.0,
            backoff_cap_secs: f64::MAX,
            ..ResilienceConfig::default()
        };
        let at_cap = backoff_delay(33, &cfg); // exp = 32 exactly
        assert_eq!(at_cap, 2.0 * f64::powi(2.0, 32));
        for streak in [34, 1 << 20, u32::MAX - 1, u32::MAX] {
            let d = backoff_delay(streak, &cfg);
            assert!(d.is_finite());
            assert_eq!(d, at_cap, "streak {streak} escaped the exponent cap");
        }
        // With a realistic cap the boundary value saturates there instead.
        let real = ResilienceConfig::default();
        assert_eq!(backoff_delay(u32::MAX, &real), real.backoff_cap_secs);
    }

    #[test]
    fn crash_points_are_deterministic_sorted_and_bounded() {
        let plan = FaultPlan::reliable().with(FaultSpec::master_crash(50.0, 8).with_seed(3));
        let a = FaultState::new(&plan, 42);
        let b = FaultState::new(&plan, 42);
        assert_eq!(a.crash_points(), b.crash_points());
        assert_eq!(a.crash_points().len(), 8);
        assert!(a.crash_points().windows(2).all(|w| w[0] < w[1]));
        assert!(a.crash_points()[0] >= 1);
        // Different master seed → different schedule.
        let c = FaultState::new(&plan, 43);
        assert_ne!(a.crash_points(), c.crash_points());
        // No crash spec → no crash points, and the plan counts as active
        // when a crash spec is the only one (leases must arm).
        assert!(FaultState::new(&FaultPlan::reliable(), 42)
            .crash_points()
            .is_empty());
        assert!(plan.is_active());
    }

    #[test]
    fn disturbance_composed_from_delay_and_loss_specs() {
        let plan = FaultPlan::reliable()
            .with(FaultSpec::message_delay(0.2, 1.5))
            .with(FaultSpec::message_loss(0.1));
        let s = FaultState::new(&plan, 5);
        let d = s.disturbance.expect("disturbance configured");
        assert_eq!(d.delay_prob, 0.2);
        assert_eq!(d.mean_delay_secs, 1.5);
        assert_eq!(d.loss_prob, 0.1);
        assert!(FaultState::new(&FaultPlan::reliable(), 5)
            .disturbance
            .is_none());
    }
}
