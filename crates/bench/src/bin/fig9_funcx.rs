//! Regenerates Figure 9: funcX image classification, LFM vs. containers.

use lfm_bench::{pivot_sweep, retry_summary, save_sweep_csv, TraceOpts};
use lfm_core::experiments::fig9;

fn main() {
    let trace = TraceOpts::from_args();
    println!("Figure 9 — funcX ResNet image classification\n");

    println!("(left) varying tasks on 4 workers:");
    let points = fig9::by_tasks(&[32, 64, 128, 256], 4, 2021);
    let csv = save_sweep_csv("fig9_by_tasks", &points);
    println!("[csv: {}]", csv.display());
    print!("{}", pivot_sweep(&points, "tasks"));
    println!();
    print!("{}", retry_summary(&points));

    println!("\n(right) varying workers, 16 tasks per worker:");
    let points = fig9::by_workers(&[1, 2, 4, 8], 16, 2021);
    let csv = save_sweep_csv("fig9_by_workers", &points);
    println!("[csv: {}]", csv.display());
    print!("{}", pivot_sweep(&points, "workers"));
    trace.finish();
}
