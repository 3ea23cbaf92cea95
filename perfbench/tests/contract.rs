//! The benchmark's own tests: metric names, a smoke-sized run of every
//! workload, and checks that fail on tampered outputs.

use lfm_core::telemetry::{Record, SpanRecord};
use perfbench::host::{scale, HostClock, REFERENCE_SECS};
use perfbench::metrics::{
    median, result_line, tail, valid_name, valid_unit, Checks, Values, END_TO_END, PER_LAYER,
};
use perfbench::spans::Shares;
use perfbench::workloads::{self, check_master_run, dispatch, lifecycle, serving, NAMES};
use perfbench::{RunConfig, Scale};
use std::collections::BTreeSet;
use std::time::Duration;

fn smoke(seed: u64, trace: bool) -> RunConfig {
    RunConfig {
        seed,
        budget: Duration::ZERO,
        trace,
        scale: Scale::Smoke,
    }
}

#[test]
fn metric_names_and_units_are_legal_and_unique() {
    let mut seen = BTreeSet::new();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(name), "bad metric name {name}");
        assert!(valid_unit(unit), "bad unit {unit} of {name}");
        assert!(seen.insert(*name), "metric {name} listed twice");
    }
    for name in NAMES {
        assert!(valid_name(name), "bad workload name {name}");
    }
    assert!(!valid_name("_leading"));
    assert!(!valid_name("has space"));
    assert!(!valid_name(&"x".repeat(65)));
    assert!(!valid_unit("ms s"));
}

#[test]
fn benchmark_json_lists_the_same_metrics_and_workloads() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark directory");
    lfm_core::telemetry::export::validate_json(&json).expect("BENCHMARK.json is valid JSON");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let listed = json.matches("\"unit\":").count();
    assert_eq!(
        listed,
        END_TO_END.len() + PER_LAYER.len(),
        "extra metrics listed"
    );
    for name in NAMES {
        assert!(
            json.contains(&format!("{{\"name\": \"{name}\", \"why\":")),
            "{name}"
        );
    }
}

#[test]
fn scaled_times_follow_the_reference_kernel() {
    // A call as long as the reference reads as REFERENCE_SECS; one twice as
    // long reads twice that.
    assert_eq!(scale(0.25, 0.25), REFERENCE_SECS);
    assert_eq!(scale(0.5, 0.25), 2.0 * REFERENCE_SECS);
    let mut clock = HostClock::new();
    let (out, secs) = clock.scaled(|| 7);
    assert_eq!(out, 7);
    assert!(secs >= 0.0);
    assert_eq!(clock.reference_secs.len(), 1);
    assert!(clock.reference_secs[0] > 0.0);
}

#[test]
fn median_and_tail() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    // Fewer than 40 samples: p75.
    let t = tail(&[5.0, 1.0, 3.0]);
    assert_eq!((t.value, t.percentile, t.samples), (5.0, 100.0, 3));
    let v: Vec<f64> = (1..=20).map(f64::from).collect();
    let t = tail(&v);
    assert_eq!((t.value, t.percentile, t.samples), (15.0, 75.0, 20));
    // 40 samples: rank 30 leaves exactly ten beyond it; 100 samples: rank 90.
    let v: Vec<f64> = (1..=40).map(f64::from).collect();
    let t = tail(&v);
    assert_eq!((t.value, t.percentile, t.samples), (30.0, 75.0, 40));
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(tail(&v).value, 90.0);
}

fn span(seq: u64, name: &str, depth: u32, start: f64, end: f64) -> Record {
    Record::Span(SpanRecord {
        seq,
        name: name.into(),
        cat: "perfbench".into(),
        start_secs: start,
        end_secs: end,
        track: 0,
        depth,
        task: None,
        attempt: None,
        attrs: Vec::new(),
    })
}

#[test]
fn self_times_add_up_to_the_root_spans() {
    // setup [0,1]; rep [1,10] holding a [2,5] (holding b [3,4]) and c [6,7].
    let records = vec![
        span(0, "setup", 0, 0.0, 1.0),
        span(1, "b", 2, 3.0, 4.0),
        span(2, "a", 1, 2.0, 5.0),
        span(3, "c", 1, 6.0, 7.0),
        span(4, "rep", 0, 1.0, 10.0),
    ];
    let s = Shares::from_records(&records);
    let ms = |n: &str| s.self_ms[n];
    assert_eq!(
        (ms("setup"), ms("a"), ms("b"), ms("c"), ms("rep")),
        (1e3, 2e3, 1e3, 1e3, 5e3)
    );
    assert_eq!(s.wall_ms, 10e3);
    assert_eq!(s.self_ms.values().sum::<f64>(), s.wall_ms);
    assert_eq!(s.root_secs("rep"), &[9.0]);
}

/// Parse `"name":{"value":v,...}` pairs out of a result line.
fn metric_names(line: &str) -> Vec<String> {
    let chunks: Vec<&str> = line.split("{\"value\":").collect();
    chunks[..chunks.len() - 1]
        .iter()
        .filter_map(|chunk| chunk.strip_suffix("\":"))
        .filter_map(|head| head.rsplit_once('"').map(|(_, name)| name.to_string()))
        .collect()
}

#[test]
fn every_workload_passes_its_checks_at_smoke_size() {
    let seeds = [perfbench::DEFAULT_SEED, perfbench::HELD_OUT_SEED];
    for name in NAMES {
        for (seed, trace) in seeds.iter().flat_map(|&s| [(s, false), (s, true)]) {
            let out = workloads::run(name, &smoke(seed, trace)).expect("known workload");
            assert!(
                out.checks.correct(),
                "{name} seed={seed} trace={trace}: {:?} failed {} of {}",
                out.checks.violations,
                out.checks.failed,
                out.checks.attempted
            );
            assert!(
                out.details.iter().any(|d| d.starts_with("digest ")),
                "{name}"
            );
            let table = if trace { PER_LAYER } else { END_TO_END };
            let line = result_line(&out.checks, &out.values, table);
            lfm_core::telemetry::export::validate_json(&line).expect("result line is JSON");
            assert!(
                line.starts_with("{\"correct\":true,\"attempted\":"),
                "{line}"
            );
            let names = metric_names(&line);
            let expected: Vec<String> = table.iter().map(|(n, _)| n.to_string()).collect();
            assert_eq!(names, expected, "{name} trace={trace}");
            if trace {
                let shares: f64 = PER_LAYER
                    .iter()
                    .filter(|(n, _)| n.ends_with("_ms") && is_share(n))
                    .map(|(n, _)| out.values.get(n).unwrap_or(0.0))
                    .sum();
                let wall = out.values.get("trace.wall_ms").expect("wall time");
                assert!(
                    (shares - wall).abs() < 1e-6 * wall,
                    "{name}: {shares} != {wall}"
                );
            } else {
                for (m, _) in END_TO_END {
                    assert!(out.values.get(m).expect(m) > 0.0, "{name}: {m} is 0");
                }
            }
        }
    }
}

/// The per-layer `_ms` metrics that are span self times (the rest are
/// totals measured elsewhere).
fn is_share(name: &str) -> bool {
    !matches!(
        name,
        "trace.wall_ms" | "telemetry.drain_ms" | "lfm.exit_lag_ms" | "lfm.poll_cpu_ms"
    )
}

#[test]
fn tampered_master_report_fails_its_checks() {
    let n = 200;
    let tasks = dispatch::inputs(n, 5);
    let report = lfm_core::workqueue::master::run_workload(
        &dispatch::config(5),
        tasks,
        dispatch::WORKERS,
        dispatch::node(),
    );
    let mut reference = None;
    let mut checks = Checks::default();
    check_master_run(&mut checks, &report, n, &mut reference);
    assert!(checks.correct(), "{:?}", checks.violations);

    let mut miscounted = report.clone();
    miscounted.task_count -= 1;
    let mut checks = Checks::default();
    check_master_run(&mut checks, &miscounted, n, &mut reference.clone());
    assert!(!checks.correct());

    let mut abandoned = report.clone();
    abandoned.abandoned_tasks = 1;
    abandoned.results.retain(|r| r.task.0 != 0);
    let mut checks = Checks::default();
    check_master_run(&mut checks, &abandoned, n, &mut reference.clone());
    assert!(!checks.correct());
    assert!(checks.failed >= 1);

    // A run whose summary no longer matches the reference digest.
    let mut drifted = report.clone();
    drifted.makespan_secs += 1.0;
    let mut checks = Checks::default();
    check_master_run(&mut checks, &drifted, n, &mut reference.clone());
    assert!(!checks.correct());
    assert!(checks.violations.iter().any(|v| v.contains("digest")));
}

#[test]
fn tampered_serving_report_fails_its_checks() {
    let inputs = serving::inputs(3, 10.0);
    let report = lfm_core::serving::gateway::ServingGateway::new(
        inputs.config.clone(),
        serving::functions(),
        inputs.tenants.clone(),
    )
    .run();
    let mut reference = None;
    let mut checks = Checks::default();
    serving::check(&mut checks, &report, &mut reference);
    assert!(checks.correct(), "{:?}", checks.violations);

    for tamper in [
        |r: &mut lfm_core::serving::report::ServingReport| r.admitted += 1,
        |r: &mut lfm_core::serving::report::ServingReport| r.shed += 1,
        |r: &mut lfm_core::serving::report::ServingReport| {
            r.lost += 1;
            r.completed -= 1;
        },
    ] {
        let mut broken = report.clone();
        tamper(&mut broken);
        let mut checks = Checks::default();
        serving::check(&mut checks, &broken, &mut reference.clone());
        assert!(!checks.correct());
        assert!(
            checks.failed > 0,
            "a broken count fails the admitted invocations"
        );
    }
}

#[test]
fn tampered_environment_round_trip_fails() {
    use lfm_core::pyenv::pack::PackedEnv;
    let inputs = lifecycle::inputs(9);
    let cache = lfm_core::pyenv::resolve::ResolveCache::new();
    let tracer = perfbench::spans::Tracer::new(false);
    let f = &inputs.functions[0];
    let bytes = lifecycle::prepare(&tracer, &inputs.index, &cache, f, "fn-0").expect("prepares");
    let packed = PackedEnv::from_bytes(&bytes).expect("decodes");
    let env = packed.unpack("/a").expect("unpacks");
    lifecycle::check_round_trip(&env, &packed, &packed, &env).expect("untouched passes");

    let mut fewer = packed.clone();
    fewer.entries.pop();
    assert!(lifecycle::check_round_trip(&env, &packed, &fewer, &env).is_err());

    // An environment unpacked from another function's archive.
    let other = inputs
        .functions
        .iter()
        .find(|g| g.imports != f.imports)
        .expect("another import set");
    let other_bytes =
        lifecycle::prepare(&tracer, &inputs.index, &cache, other, "fn-x").expect("prepares");
    let other_env = PackedEnv::from_bytes(&other_bytes)
        .and_then(|p| p.unpack("/b"))
        .expect("unpacks");
    assert!(lifecycle::check_round_trip(&env, &packed, &packed, &other_env).is_err());
}

#[test]
fn unknown_workload_is_refused() {
    assert!(workloads::run("nope", &smoke(1, false)).is_none());
    let mut checks = Checks::default();
    assert!(!checks.correct(), "nothing attempted is not correct");
    checks.attempt(1, 0);
    assert!(checks.correct());
    assert_eq!(
        result_line(&checks, &Values::default(), &END_TO_END[..1]),
        "{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{\"ops_per_s\":{\"value\":0,\"unit\":\"1/s\"}}}"
    );
}
