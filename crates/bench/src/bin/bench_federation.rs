//! End-to-end scheduler throughput vs shard count for the federated
//! master: runs the same workload under 1, 2, 4, and 8 foreman shards and
//! writes `BENCH_federation.json` with tasks/sec per shard count (workload
//! tasks ÷ the root driver's wall time) plus per-shard walls and rates,
//! and balancer/handoff telemetry.
//!
//! The workload is the dispatch-stress shape from `sched_bench` (deep
//! pending queue of 1-core tasks in four categories); tasks are
//! independent, so `PartitionPolicy::ByComponent` balances them by
//! duration. The driver steps the shards one after another on one thread,
//! so the speedup (ratio of driver walls) measures only how much cheaper
//! N small masters are than one big one, not parallelism.
//!
//! Invoked by `scripts/bench_federation.sh`. Flags:
//!
//! * `--out <path>`     output JSON path (default `BENCH_federation.json`)
//! * `--tasks <n>`      workload size (default 100000; paper-scale 1000000)
//! * `--shards <list>`  comma-separated shard counts (default `1,2,4,8`)
//! * `--quick`          20k tasks over shards 1,2,4 (smoke mode for CI)

use lfm_bench::sched_bench::{bench_config, bench_tasks};
use lfm_core::simcluster::node::NodeSpec;
use lfm_core::workqueue::federation::{run_federated, FederationConfig, FederationReport};
use lfm_core::workqueue::sched::SchedImpl;
use std::io::Write as _;

fn measure(shards: u32, tasks_n: u64, workers: u32) -> FederationReport {
    let tasks = bench_tasks(tasks_n, true);
    let spec = NodeSpec::new(16, 64 * 1024, 128 * 1024);
    let cfg = bench_config(SchedImpl::Indexed);
    let report = run_federated(&cfg, &FederationConfig::new(shards), tasks, workers, spec);
    assert_eq!(report.merged.abandoned_tasks, 0);
    assert_eq!(report.merged.task_count as u64, tasks_n);
    report
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = String::from("BENCH_federation.json");
    let mut tasks_n = 100_000u64;
    let mut shard_counts = vec![1u32, 2, 4, 8];
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out_path = it.next().expect("--out needs a path").clone(),
            "--tasks" => {
                tasks_n = it
                    .next()
                    .expect("--tasks needs a count")
                    .parse()
                    .expect("--tasks must be an integer")
            }
            "--shards" => {
                shard_counts = it
                    .next()
                    .expect("--shards needs a comma-separated list")
                    .split(',')
                    .map(|s| s.trim().parse().expect("--shards entries must be integers"))
                    .collect()
            }
            "--quick" => {
                tasks_n = 20_000;
                shard_counts = vec![1, 2, 4];
            }
            other => panic!(
                "unknown flag {other:?} \
                 (expected --out <path> | --tasks <n> | --shards <list> | --quick)"
            ),
        }
    }
    let workers = 256u32;

    let mut rows = Vec::new();
    let mut base_wall = 0.0f64;
    for &s in &shard_counts {
        eprintln!("measuring {tasks_n} tasks across {s} shard(s) x {workers} workers ...");
        let report = measure(s, tasks_n, workers);
        let wall = report.driver_wall_secs;
        if s == 1 {
            base_wall = wall;
        }
        let speedup = if wall > 0.0 { base_wall / wall } else { 0.0 };
        eprintln!(
            "  {:.0} tasks/s  driver wall {wall:.3}s  steals {}  \
             cross-shard releases {}  speedup vs 1 shard {speedup:.2}x",
            report.tasks_per_sec(),
            report.steals,
            report.cross_shard_releases
        );
        // Splice the speedup into the report's own summary.
        let summary = report.summary_json();
        rows.push(format!(
            "{},\"speedup_vs_1shard\":{speedup:.3}}}",
            &summary[..summary.len() - 1],
        ));
    }

    let mut json = format!(
        "{{\n  \"bench\": \"federation\",\n  \"tasks\": {tasks_n},\n  \"workers\": {workers},\n  \"configs\": [\n"
    );
    for (i, row) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        json.push_str(&format!("    {row}{sep}\n"));
    }
    json.push_str("  ]\n}\n");

    let mut f = std::fs::File::create(&out_path).expect("create output file");
    f.write_all(json.as_bytes()).expect("write output");
    println!("wrote {out_path}");
}
