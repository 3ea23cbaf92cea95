//! `Lfm::run` joins its exit-watcher thread on every path, so repeated
//! calls leave the process's thread count where it was.
//!
//! Kept as the sole test in this binary so the process-wide thread count is
//! not perturbed by concurrent tests.

#![cfg(target_os = "linux")]

use lfm_core::prelude::*;
use std::process::Command;

fn threads() -> u32 {
    let status = std::fs::read_to_string("/proc/self/status").expect("status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("Threads: line")
}

#[test]
fn sequential_runs_leave_no_threads_behind() {
    let before = threads();
    for _ in 0..100 {
        let outcome = Lfm::new().run(&mut Command::new("true")).expect("spawn");
        assert!(outcome.is_success(), "{outcome:?}");
    }
    assert_eq!(threads(), before);
}
