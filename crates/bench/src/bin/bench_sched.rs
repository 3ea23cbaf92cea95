//! Before/after dispatch-throughput measurement for the indexed scheduler:
//! runs the same workloads under `SchedImpl::Reference` (the original
//! rescan-everything matcher) and `SchedImpl::Indexed`, and writes
//! `BENCH_sched.json` with tasks/sec and wall time per configuration.
//! A second, Indexed-only section runs 12.5k–100k tasks × 256 workers with
//! cacheable inputs and reports µs per task and its growth against the
//! smallest row — the per-task master cost must stay flat as the pending
//! queue deepens. The reference matcher stops at 10k: it is O(n²).
//!
//! Invoked by `scripts/bench_sched.sh`. Flags:
//!
//! * `--out <path>`   output JSON path (default `BENCH_sched.json`)
//! * `--quick`        drop the 10k-task configs and the scaling rows past
//!   25k (smoke mode for CI)

use lfm_bench::sched_bench::{bench_config, bench_tasks};
use lfm_core::simcluster::node::NodeSpec;
use lfm_core::workqueue::master::run_workload;
use lfm_core::workqueue::sched::SchedImpl;
use std::io::Write as _;
use std::time::Instant;

struct Row {
    tasks: u64,
    workers: u32,
    cacheable: bool,
    reference_secs: f64,
    indexed_secs: f64,
}

fn measure(sched: SchedImpl, tasks_n: u64, workers: u32, cacheable: bool) -> f64 {
    let tasks = bench_tasks(tasks_n, cacheable);
    let spec = NodeSpec::new(16, 64 * 1024, 128 * 1024);
    // Best of `reps` to shave scheduler noise; the big reference configs are
    // expensive enough that one timing is already stable.
    let reps = if sched == SchedImpl::Reference && tasks_n >= 10_000 {
        1
    } else {
        3
    };
    (0..reps)
        .map(|_| {
            let cfg = bench_config(sched);
            let t = Instant::now();
            let report = run_workload(&cfg, tasks.clone(), workers, spec);
            let dt = t.elapsed().as_secs_f64();
            assert_eq!(report.abandoned_tasks, 0);
            dt
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = String::from("BENCH_sched.json");
    let mut quick = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out_path = it.next().expect("--out needs a path").clone(),
            "--quick" => quick = true,
            other => panic!("unknown flag {other:?} (expected --out <path> | --quick)"),
        }
    }

    let mut configs = vec![(1_000u64, 32u32), (1_000, 256)];
    if !quick {
        configs.extend([(10_000, 32), (10_000, 256)]);
    }

    let mut rows = Vec::new();
    for (n, w) in configs {
        for cacheable in [false, true] {
            eprintln!("measuring {n} tasks x {w} workers (cacheable={cacheable}) ...");
            let reference_secs = measure(SchedImpl::Reference, n, w, cacheable);
            let indexed_secs = measure(SchedImpl::Indexed, n, w, cacheable);
            eprintln!(
                "  reference {reference_secs:.3}s  indexed {indexed_secs:.3}s  speedup {:.1}x",
                reference_secs / indexed_secs
            );
            rows.push(Row {
                tasks: n,
                workers: w,
                cacheable,
                reference_secs,
                indexed_secs,
            });
        }
    }

    let mut scaling_sizes = vec![12_500u64, 25_000];
    if !quick {
        scaling_sizes.extend([50_000, 100_000]);
    }
    let mut scaling = Vec::new();
    for &n in &scaling_sizes {
        eprintln!("measuring indexed scaling: {n} tasks x 256 workers (cacheable) ...");
        let us_per_task = measure(SchedImpl::Indexed, n, 256, true) * 1e6 / n as f64;
        eprintln!("  {us_per_task:.2} us/task");
        scaling.push((n, us_per_task));
    }

    let mut json = String::from("{\n  \"bench\": \"sched_dispatch\",\n  \"configs\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{\"tasks\": {}, \"workers\": {}, \"cacheable\": {}, \
             \"reference\": {{\"wall_secs\": {:.6}, \"tasks_per_sec\": {:.1}}}, \
             \"indexed\": {{\"wall_secs\": {:.6}, \"tasks_per_sec\": {:.1}}}, \
             \"speedup\": {:.2}}}{}\n",
            r.tasks,
            r.workers,
            r.cacheable,
            r.reference_secs,
            r.tasks as f64 / r.reference_secs,
            r.indexed_secs,
            r.tasks as f64 / r.indexed_secs,
            r.reference_secs / r.indexed_secs,
            sep,
        ));
    }
    json.push_str("  ],\n  \"scaling\": [\n");
    let base_us = scaling[0].1;
    for (i, &(n, us)) in scaling.iter().enumerate() {
        let sep = if i + 1 == scaling.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{\"tasks\": {n}, \"workers\": 256, \"cacheable\": true, \
             \"us_per_task\": {us:.3}, \"growth_vs_smallest\": {:.3}}}{sep}\n",
            us / base_us,
        ));
    }
    json.push_str("  ]\n}\n");

    let mut f = std::fs::File::create(&out_path).expect("create output file");
    f.write_all(json.as_bytes()).expect("write output");
    println!("wrote {out_path}");
}
