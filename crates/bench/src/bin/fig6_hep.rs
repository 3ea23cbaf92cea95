//! Regenerates Figure 6: HEP completion time under four strategies.

use lfm_bench::{pivot_sweep, retry_summary, save_sweep_csv, TraceOpts};
use lfm_core::experiments::fig6;

fn main() {
    let trace = TraceOpts::from_args();
    println!("Figure 6 — HEP workflow (ND-CRC)\n");

    println!("(a) varying analysis tasks, 6 workers x 8 cores:");
    let points = fig6::by_tasks(&[50, 100, 200, 400], 6, 8, 2021);
    let csv = save_sweep_csv("fig6_by_tasks", &points);
    println!("[csv: {}]", csv.display());
    print!("{}", pivot_sweep(&points, "tasks"));
    println!();
    print!("{}", retry_summary(&points));

    println!("\n(b) varying workers (16 tasks/core-worker), 8-core workers:");
    let points = fig6::by_workers(&[2, 4, 8, 16], 2, 8, 2021);
    let csv = save_sweep_csv("fig6_by_workers", &points);
    println!("[csv: {}]", csv.display());
    print!("{}", pivot_sweep(&points, "workers"));

    println!("\n(c) varying worker size, 200 tasks on 6 workers:");
    let points = fig6::by_worker_size(200, 6, 2021);
    let csv = save_sweep_csv("fig6_by_worker_size", &points);
    println!("[csv: {}]", csv.display());
    print!("{}", pivot_sweep(&points, "cores/worker"));
    trace.finish();
}
