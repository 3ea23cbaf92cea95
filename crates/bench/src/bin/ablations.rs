//! Ablation sweeps over the LFM design choices DESIGN.md calls out:
//!
//! 1. polling interval — enforcement tightness vs. monitor overhead;
//! 2. Auto first-allocation headroom — retry rate vs. packing density;
//! 3. Auto `min_samples` — measurement cost vs. label quality;
//! 4. worker file cache on/off (direct vs. packed distribution) and where
//!    the pack/unpack crossover falls as node count grows.
//!
//! Every parameter fan-out runs through the parallel engine
//! ([`lfm_core::parallel::par_map`]): each cell is an independent seeded
//! simulation, so the table contents are identical to the serial loops this
//! replaced while the wall clock scales with the core count.

use lfm_core::experiments::fig5::{self, Method};
use lfm_core::monitor::sim::SimMonitor;
use lfm_core::parallel::par_map;
use lfm_core::render::{fmt_secs, render_table};
use lfm_core::workloads::{genomic, hep};
use lfm_core::workqueue::allocate::{AutoConfig, Strategy};
use lfm_core::workqueue::master::{run_workload, DistMode, MasterConfig};

fn main() {
    let trace = lfm_bench::TraceOpts::from_args();
    poll_interval();
    headroom();
    min_samples();
    cache_and_crossover();
    schedule_policies();
    trace.finish();
}

/// Placement-order heuristics on a memory-heterogeneous workload.
fn schedule_policies() {
    use lfm_core::workloads::drug;
    use lfm_core::workqueue::master::SchedulePolicy;
    println!("\nAblation 5 — placement policy (drug screening, Oracle)\n");
    let w = drug::build(40, 23);
    let policies = vec![
        SchedulePolicy::Fifo,
        SchedulePolicy::LargestFirst,
        SchedulePolicy::SmallestFirst,
    ];
    let rows = par_map(policies, |policy| {
        let cfg = MasterConfig::new(w.oracle_strategy())
            .with_policy(policy)
            .with_seed(23);
        let rep = run_workload(&cfg, w.tasks.clone(), 6, drug::worker_spec());
        vec![
            format!("{policy:?}"),
            fmt_secs(rep.makespan_secs),
            format!("{:.1}%", rep.core_efficiency() * 100.0),
        ]
    });
    print!(
        "{}",
        render_table(&["policy", "makespan", "core efficiency"], &rows)
    );
}

/// Finer polls kill runaway tasks earlier (less wasted occupancy) at the
/// cost of more monitor work.
fn poll_interval() {
    println!("Ablation 1 — polling interval (genomic, tight Guess)\n");
    let w = genomic::build(20, 11);
    // A guess tight enough that heavy stages exceed it: enforcement
    // latency (how fast the poll notices) becomes visible in the makespan.
    let tight = Strategy::Guess(lfm_core::simcluster::node::Resources::new(
        12,
        8 * 1024,
        5 * 1024,
    ));
    let rows = par_map(vec![0.25, 1.0, 5.0, 20.0], |interval| {
        let cfg = MasterConfig::new(tight.clone())
            .with_monitor(SimMonitor {
                poll_interval: interval,
                per_poll_cost: 0.5e-3,
            })
            .with_seed(11);
        let rep = run_workload(&cfg, w.tasks.clone(), 10, genomic::worker_spec());
        let overhead: f64 = rep
            .results
            .iter()
            .map(|r| r.outcome.report().monitor_overhead_secs)
            .sum();
        vec![
            format!("{interval} s"),
            fmt_secs(rep.makespan_secs),
            format!("{:.1}%", rep.retry_fraction() * 100.0),
            fmt_secs(overhead),
        ]
    });
    print!(
        "{}",
        render_table(
            &["poll interval", "makespan", "retries", "total monitor cpu"],
            &rows
        )
    );
    println!();
}

/// Headroom trades retry storms (too small) against wasted packing slots
/// (too large).
fn headroom() {
    println!("Ablation 2 — Auto label headroom (HEP)\n");
    let w = hep::build(200, 13);
    let rows = par_map(vec![1.0, 1.1, 1.25, 1.5, 2.0], |headroom| {
        let cfg = MasterConfig::new(Strategy::Auto(AutoConfig {
            min_samples: 4,
            headroom,
            slow_start_until: 16,
        }))
        .with_seed(13);
        let rep = run_workload(&cfg, w.tasks.clone(), 6, hep::worker_spec(8));
        vec![
            format!("{headroom:.2}"),
            fmt_secs(rep.makespan_secs),
            format!("{:.1}%", rep.retry_fraction() * 100.0),
            format!("{:.1}%", rep.core_efficiency() * 100.0),
        ]
    });
    print!(
        "{}",
        render_table(
            &["headroom", "makespan", "retries", "core efficiency"],
            &rows
        )
    );
    println!();
}

/// More measurement runs give better labels but occupy whole workers longer.
fn min_samples() {
    println!("Ablation 3 — Auto min_samples (HEP)\n");
    let w = hep::build(200, 17);
    let rows = par_map(vec![1usize, 2, 4, 8, 16], |min_samples| {
        let cfg = MasterConfig::new(Strategy::Auto(AutoConfig {
            min_samples,
            headroom: 1.25,
            slow_start_until: 16,
        }))
        .with_seed(17);
        let rep = run_workload(&cfg, w.tasks.clone(), 6, hep::worker_spec(8));
        vec![
            min_samples.to_string(),
            fmt_secs(rep.makespan_secs),
            format!("{:.1}%", rep.retry_fraction() * 100.0),
        ]
    });
    print!(
        "{}",
        render_table(&["min samples", "makespan", "retries"], &rows)
    );
    println!();
}

/// The worker cache is what makes packed distribution pay: with it off
/// (direct mode) every task re-imports; the crossover vs. node count is
/// Figure 5's underlying economics.
fn cache_and_crossover() {
    println!("Ablation 4 — distribution mode (HEP, Oracle strategy)\n");
    let w = hep::build(120, 19);
    let rows = par_map(
        vec![DistMode::PackedTransfer, DistMode::SharedFsDirect],
        |mode| {
            let cfg = MasterConfig::new(w.oracle_strategy())
                .with_dist_mode(mode)
                .with_seed(19);
            let rep = run_workload(&cfg, w.tasks.clone(), 6, hep::worker_spec(8));
            vec![
                format!("{mode:?}"),
                fmt_secs(rep.makespan_secs),
                rep.cache_hits.to_string(),
                rep.fs_md_ops.to_string(),
            ]
        },
    );
    print!(
        "{}",
        render_table(
            &["mode", "makespan", "cache hits", "shared-FS md ops"],
            &rows
        )
    );

    println!("\npack-vs-direct cumulative crossover (TensorFlow env, Theta):");
    let points = fig5::run();
    let rows: Vec<Vec<String>> = fig5::NODE_COUNTS
        .iter()
        .map(|&n| {
            let get = |m: Method| {
                points
                    .iter()
                    .find(|p| p.site == "Theta (ALCF)" && p.nodes == n && p.method == m)
                    .expect("grid")
                    .cumulative_secs
            };
            vec![
                n.to_string(),
                fmt_secs(get(Method::DirectAccess)),
                fmt_secs(get(Method::LocalUnpack)),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(&["nodes", "direct", "packed+unpack"], &rows)
    );
}
