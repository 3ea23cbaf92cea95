//! Regenerates Figure 8: GDC genomic pipeline on NSCC Aspire.

use lfm_bench::{pivot_sweep, retry_summary, save_sweep_csv, TraceOpts};
use lfm_core::experiments::fig8;

fn main() {
    let trace = TraceOpts::from_args();
    println!("Figure 8 — genomic analysis (NSCC Aspire)\n");

    println!("(left) varying genomes on 14 workers:");
    let points = fig8::by_genomes(&[4, 10, 20, 40], 2021);
    let csv = save_sweep_csv("fig8_by_genomes", &points);
    println!("[csv: {}]", csv.display());
    print!("{}", pivot_sweep(&points, "genomes"));
    println!();
    print!("{}", retry_summary(&points));

    println!("\n(right) varying workers, one genome per worker:");
    let points = fig8::by_workers(&[1, 2, 4, 8, 16], 2021);
    let csv = save_sweep_csv("fig8_by_workers", &points);
    println!("[csv: {}]", csv.display());
    print!("{}", pivot_sweep(&points, "workers"));
    trace.finish();
}
