//! Serving-gateway latency vs offered load: calibrates the gateway's
//! effective capacity with a flood run, then sweeps a multi-tenant
//! open-loop arrival mix from well under to well over that capacity. Each
//! point runs twice — with admission control and with the unlimited (no
//! admission) baseline — and the sweep is written to `BENCH_serving.json`
//! with per-point p50/p95/p99/p99.9 latency, success rate, and warm-pool
//! stats.
//!
//! The headline comparison: with admission, outstanding work (and
//! therefore p99) stays bounded at any offered load and excess arrivals
//! get explicit rejections; without it the gateway buffers everything, so
//! p99 grows with the overload factor while "success" is only deferred.
//! Both claims are asserted here, not just plotted.
//!
//! Invoked by `scripts/bench_serving.sh`. Flags:
//!
//! * `--out <path>`     output JSON path (default `BENCH_serving.json`)
//! * `--workers <n>`    worker count (default 4; 16 cores each)
//! * `--horizon <s>`    arrival horizon in sim-seconds (default 60)
//! * `--loads <list>`   comma-separated fractions of calibrated capacity
//!   (default `0.25,0.5,0.75,1.0,1.5,2.0`)
//! * `--quick`          horizon 20s over loads 0.5,1.0,2.0 (CI smoke mode)
//! * `--trace <chrome|jsonl|perfetto>[:stream]=<path>` trace the sweep's
//!   gateway runs (repeatable; `:stream` tails the ring buffers live —
//!   see [`lfm_bench::TraceOpts`])

use lfm_bench::TraceOpts;
use lfm_core::funcx::container::ActivationTech;
use lfm_core::monitor::sim::SimTaskProfile;
use lfm_core::serving::admission::AdmissionConfig;
use lfm_core::serving::arrivals::ArrivalConfig;
use lfm_core::serving::gateway::{ServingConfig, ServingFunction, ServingGateway};
use lfm_core::serving::report::ServingReport;
use lfm_core::serving::tenant::TenantConfig;
use lfm_core::simcluster::node::NodeSpec;
use lfm_core::telemetry::Recorder;
use std::io::Write as _;

const CORES_PER_WORKER: u32 = 16;
const TASK_SECS: f64 = 0.5;
const SEED: u64 = 11;
/// Global backpressure bound: arrivals shed once this much work is queued
/// in the gateway (on top of the master's in-flight dispatch window).
const SHED_THRESHOLD: usize = 300;
const DISPATCH_WINDOW: usize = 256;

fn functions() -> Vec<ServingFunction> {
    // One 1-core function; effective per-invocation duration is
    // TASK_SECS + activation overhead (mostly warm ~0.16s).
    vec![ServingFunction::synthetic(
        "classify",
        50 << 20,
        ActivationTech::Docker,
        SimTaskProfile::new(TASK_SECS, 1.0, 1024, 256),
        64 << 10,
    )]
}

/// Three tenants (weights 1/2/4) splitting `rate` proportionally; the
/// heaviest also carries diurnal swing and burst episodes so the
/// non-homogeneous arrival paths are exercised at every load point. The
/// diurnal period equals the horizon (one full cycle), so the mean
/// offered rate stays at `rate`.
fn tenants(rate: f64, horizon: f64) -> Vec<TenantConfig> {
    let unit = rate / 7.0;
    vec![
        TenantConfig::new("free", 1, ArrivalConfig::poisson(unit)).with_max_queue_depth(256),
        TenantConfig::new("pro", 2, ArrivalConfig::poisson(2.0 * unit)).with_max_queue_depth(256),
        TenantConfig::new(
            "enterprise",
            4,
            ArrivalConfig::poisson(4.0 * unit)
                .with_diurnal(0.25, horizon)
                .with_bursts(0.01, 2.0, 2.0),
        )
        .with_max_queue_depth(256),
    ]
}

fn run_point(
    workers: u32,
    horizon: f64,
    tenants: Vec<TenantConfig>,
    admission: AdmissionConfig,
    telemetry: &Recorder,
) -> ServingReport {
    let node = NodeSpec::new(CORES_PER_WORKER, 64 * 1024, 100 * 1024);
    let config = ServingConfig::new(workers, node)
        .with_seed(SEED)
        .with_horizon(horizon)
        .with_tick(0.25)
        .with_dispatch_window(DISPATCH_WINDOW)
        .with_admission(admission)
        .with_telemetry(telemetry.clone());
    ServingGateway::new(config, functions(), tenants).run()
}

/// Measure effective capacity: flood one tenant far past any plausible
/// service rate with bounded queues; steady-state completions per
/// sim-second is the gateway's sustainable throughput.
fn calibrate(workers: u32, horizon: f64) -> f64 {
    let flood =
        vec![TenantConfig::new("cal", 1, ArrivalConfig::poisson(2000.0)).with_max_queue_depth(512)];
    // Calibration stays untraced: it is a measuring stick, not part of
    // the sweep the trace is meant to show.
    let report = run_point(
        workers,
        horizon,
        flood,
        AdmissionConfig::new(SHED_THRESHOLD),
        &Recorder::disabled(),
    );
    assert!(report.completed > 0, "calibration run completed nothing");
    report.completed as f64 / report.end_secs
}

fn main() {
    let trace = TraceOpts::from_args();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = String::from("BENCH_serving.json");
    let mut workers = 4u32;
    let mut horizon = 60.0f64;
    let mut loads = vec![0.25f64, 0.5, 0.75, 1.0, 1.5, 2.0];
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out_path = it.next().expect("--out needs a path").clone(),
            "--workers" => {
                workers = it
                    .next()
                    .expect("--workers needs a count")
                    .parse()
                    .expect("--workers must be an integer")
            }
            "--horizon" => {
                horizon = it
                    .next()
                    .expect("--horizon needs seconds")
                    .parse()
                    .expect("--horizon must be a float")
            }
            "--loads" => {
                loads = it
                    .next()
                    .expect("--loads needs a comma-separated list")
                    .split(',')
                    .map(|s| s.trim().parse().expect("--loads entries must be floats"))
                    .collect()
            }
            "--quick" => {
                horizon = 20.0;
                loads = vec![0.5, 1.0, 2.0];
            }
            "--trace" => {
                // Already consumed by TraceOpts::from_args; skip the value.
                it.next();
            }
            other => panic!(
                "unknown flag {other:?} \
                 (expected --out <path> | --workers <n> | --horizon <s> | --loads <list> | \
                 --quick | --trace <fmt>[:stream]=<path>)"
            ),
        }
    }
    assert!(
        loads.iter().any(|&f| f >= 1.5),
        "load sweep must include an overload point (>= 1.5x capacity)"
    );
    let capacity = calibrate(workers, horizon);
    eprintln!(
        "calibrated capacity: {capacity:.1} inv/s ({workers} workers x {CORES_PER_WORKER} cores)"
    );
    let admission = AdmissionConfig::new(SHED_THRESHOLD);
    // With admission, queue wait is bounded by (queued + in-flight) work
    // over the service rate; everything past this bound is divergence.
    let p99_bound = (SHED_THRESHOLD + DISPATCH_WINDOW) as f64 / capacity + 3.0;

    let mut rows = Vec::new();
    let mut checked_determinism = false;
    for &frac in &loads {
        let rate = frac * capacity;
        eprintln!(
            "offered {frac:.2}x capacity ({rate:.0} inv/s) x {horizon:.0}s, {workers} workers ..."
        );
        let telemetry = trace.recorder();
        let with = run_point(
            workers,
            horizon,
            tenants(rate, horizon),
            admission,
            &telemetry,
        );
        let without = run_point(
            workers,
            horizon,
            tenants(rate, horizon),
            AdmissionConfig::unlimited(),
            &telemetry,
        );
        if !checked_determinism {
            // Same seed, same config: the report must be byte-identical.
            let again = run_point(
                workers,
                horizon,
                tenants(rate, horizon),
                admission,
                &telemetry,
            );
            assert_eq!(
                with.summary_json(),
                again.summary_json(),
                "serving runs with identical seeds must be byte-identical"
            );
            checked_determinism = true;
        }
        eprintln!(
            "  admission:    p99 {:.2}s  success {:.3}  rejected {:.3}  warm {:.2}",
            with.latency.p99,
            with.success_rate(),
            with.rejection_rate(),
            with.warm_hit_rate
        );
        eprintln!(
            "  no admission: p99 {:.2}s  success {:.3}",
            without.latency.p99,
            without.success_rate()
        );

        assert_eq!(with.failed, 0, "admitted invocations must all complete");
        assert!(
            with.warm_hit_rate > 0.0,
            "warm pool never hit at {frac}x load"
        );
        assert!(
            with.latency.p99 < p99_bound,
            "admission failed to bound p99 at {frac}x: {} (bound {p99_bound:.1})",
            with.latency.p99
        );
        if frac <= 0.75 {
            assert!(
                with.success_rate() > 0.99,
                "underloaded point {frac}x should complete ~everything, got {}",
                with.success_rate()
            );
        }
        if frac >= 1.5 {
            // Bounded vs divergent p99 — the tentpole claim. Without
            // admission the backlog (and the wait) grows with how long
            // the overload lasts: ~(frac-1)*horizon of queued work by the
            // end. With admission, p99 stays under the load-independent
            // bound asserted above.
            assert!(
                without.latency.p99 > 1.5 * with.latency.p99,
                "no-admission p99 ({}) should diverge past admission p99 ({}) at {frac}x",
                without.latency.p99,
                with.latency.p99
            );
            assert!(
                without.latency.p99 > with.latency.p99 + 0.2 * (frac - 1.0) * horizon,
                "no-admission p99 ({}) should grow with overload duration ({frac}x, {horizon}s)",
                without.latency.p99
            );
            // Graceful degradation: goodput tracks capacity, not collapse.
            let ideal = 1.0 / frac;
            assert!(
                with.success_rate() > 0.6 * ideal,
                "success rate {} collapsed at {frac}x (ideal {ideal})",
                with.success_rate()
            );
            assert!(
                with.rejection_rate() > 0.0,
                "overload must produce explicit rejections"
            );
        }

        rows.push(format!(
            "{{\"offered_fraction\": {frac}, \"offered_rate\": {rate}, \
             \"admission\": {}, \"no_admission\": {}}}",
            with.summary_json(),
            without.summary_json()
        ));
    }

    let mut json = format!(
        "{{\n  \"bench\": \"serving\",\n  \"workers\": {workers},\n  \
         \"cores_per_worker\": {CORES_PER_WORKER},\n  \
         \"calibrated_capacity_inv_per_sec\": {capacity},\n  \
         \"horizon_secs\": {horizon},\n  \"seed\": {SEED},\n  \
         \"shed_threshold\": {SHED_THRESHOLD},\n  \"loads\": [\n"
    );
    for (i, row) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        json.push_str(&format!("    {row}{sep}\n"));
    }
    json.push_str("  ]\n}\n");
    lfm_core::telemetry::export::validate_json(&json).expect("report must be valid JSON");

    let mut f = std::fs::File::create(&out_path).expect("create output file");
    f.write_all(json.as_bytes()).expect("write output");
    println!("wrote {out_path}");
    trace.finish();
}
