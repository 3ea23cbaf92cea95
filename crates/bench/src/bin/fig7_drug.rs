//! Regenerates Figure 7: drug-screening pipeline on Theta.

use lfm_bench::{pivot_sweep, retry_summary, save_sweep_csv, TraceOpts};
use lfm_core::experiments::fig7;

fn main() {
    let trace = TraceOpts::from_args();
    println!("Figure 7 — drug screening (Theta)\n");

    println!("(left) varying total tasks on 14 workers:");
    let points = fig7::by_tasks(&[20, 60, 120, 240], 2021);
    let csv = save_sweep_csv("fig7_by_tasks", &points);
    println!("[csv: {}]", csv.display());
    print!("{}", pivot_sweep(&points, "tasks"));
    println!();
    print!("{}", retry_summary(&points));

    println!("\n(right) varying workers, ~4 tasks per worker:");
    let points = fig7::by_workers(&[4, 8, 16, 32], 2021);
    let csv = save_sweep_csv("fig7_by_workers", &points);
    println!("[csv: {}]", csv.display());
    print!("{}", pivot_sweep(&points, "workers"));
    trace.finish();
}
