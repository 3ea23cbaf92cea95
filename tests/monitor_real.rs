//! Integration tests for the *real* lightweight function monitor against
//! live processes (Linux `/proc`). These exercise the paper's §VI-B1
//! machinery: per-invocation processes, polling measurement, process-tree
//! tracking, and kill-on-limit.

#![cfg(target_os = "linux")]

use lfm_core::prelude::*;
use std::process::Command;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

#[test]
fn monitors_real_memory_consumer() {
    // Allocate ~60 MB in a python-free way: `head -c` into shell memory via
    // a here-string is awkward portably; use `sh` + dd into a variable.
    let mut cmd = Command::new("sh");
    cmd.args([
        "-c",
        "x=$(dd if=/dev/zero bs=1M count=60 2>/dev/null | tr '\\0' 'a'); sleep 0.6; echo ${#x}",
    ]);
    cmd.stdout(std::process::Stdio::null());
    let outcome = Lfm::new()
        .with_poll_interval(Duration::from_millis(50))
        .run(&mut cmd)
        .expect("spawn");
    assert!(outcome.is_success(), "{outcome:?}");
    let report = outcome.report();
    assert!(
        report.peak_rss_mb >= 30,
        "expected to observe the 60 MB string, saw {} MB",
        report.peak_rss_mb
    );
}

#[test]
fn memory_limit_kills_real_process() {
    let mut cmd = Command::new("sh");
    cmd.args([
        "-c",
        "x=$(dd if=/dev/zero bs=1M count=120 2>/dev/null | tr '\\0' 'a'); sleep 10",
    ]);
    cmd.stdout(std::process::Stdio::null());
    let started = Instant::now();
    let outcome = Lfm::new()
        .with_limits(ResourceLimits::unlimited().with_memory_mb(40))
        .with_poll_interval(Duration::from_millis(50))
        .run(&mut cmd)
        .expect("spawn");
    assert!(
        started.elapsed() < Duration::from_secs(8),
        "kill was not prompt"
    );
    match outcome {
        MonitorOutcome::LimitExceeded { kind, .. } => assert_eq!(kind, ResourceKind::Memory),
        other => panic!("expected memory kill, got {other:?}"),
    }
}

#[test]
fn process_tree_events_observed() {
    let mut forks = 0u64;
    {
        let mut cmd = Command::new("sh");
        cmd.args(["-c", "sleep 0.4 & sleep 0.4 & sleep 0.4 & wait"]);
        let mut tracker = ProcessTracker::new();
        let outcome = Lfm::new()
            .with_poll_interval(Duration::from_millis(30))
            .with_callback(|snap| {
                // Track peak processes via the snapshot stream.
                forks = forks.max(snap.processes as u64);
            })
            .run(&mut cmd)
            .expect("spawn");
        assert!(outcome.is_success());
        assert!(
            outcome.report().peak_processes >= 3,
            "tree: {}",
            outcome.report().peak_processes
        );
        // The tracker API itself:
        tracker.observe(&[1, 2]);
        tracker.observe(&[2, 3]);
        assert_eq!(tracker.total_forks, 3);
        assert_eq!(tracker.total_exits, 1);
    }
    assert!(forks >= 3, "callback saw {forks} processes");
}

#[test]
fn cpu_time_measured_for_busy_process() {
    let mut cmd = Command::new("sh");
    cmd.args(["-c", "i=0; while [ $i -lt 2000000 ]; do i=$((i+1)); done"]);
    let outcome = Lfm::new()
        .with_poll_interval(Duration::from_millis(40))
        .run(&mut cmd)
        .expect("spawn");
    assert!(outcome.is_success());
    let r = outcome.report();
    assert!(
        r.cpu_secs > 0.1,
        "busy loop should burn CPU, saw {}",
        r.cpu_secs
    );
    assert!(r.peak_cores > 0.3, "cores estimate {}", r.peak_cores);
}

#[test]
fn inline_monitor_matches_queue_semantics() {
    // Results (and panics) come back over the result channel.
    let (result, report) = monitor_inline(|| {
        let v: Vec<u64> = (0..1_000_000).collect();
        v.iter().sum::<u64>()
    });
    assert_eq!(result.unwrap(), 499999500000);
    assert!(report.wall_secs > 0.0);
}

#[test]
fn busy_loop_shorter_than_one_poll_is_accounted() {
    // ~70 ms of shell arithmetic ends before the default 250 ms poll; the
    // monitor samples the exited root before reaping it, so its CPU counts.
    let mut cmd = Command::new("sh");
    cmd.args(["-c", "i=0; while [ $i -lt 40000 ]; do i=$((i+1)); done"]);
    let outcome = Lfm::new().run(&mut cmd).expect("spawn");
    assert!(outcome.is_success(), "{outcome:?}");
    let r = outcome.report();
    assert!(r.cpu_secs > 0.0, "short busy loop reported {r}");
    assert!(r.polls >= 2, "the final sample was lost: {r}");
}

#[test]
fn short_call_returns_at_exit_not_at_next_poll() {
    let mut cmd = Command::new("sleep");
    cmd.arg("0.05");
    let started = Instant::now();
    let outcome = Lfm::new().run(&mut cmd).expect("spawn");
    let elapsed = started.elapsed();
    assert!(outcome.is_success(), "{outcome:?}");
    assert!(
        elapsed < Duration::from_millis(200),
        "returned after {elapsed:?}"
    );
    let wall = outcome.report().wall_secs;
    assert!((0.05..0.2).contains(&wall), "wall_secs {wall}");
}

#[test]
fn parallel_runs_each_reap_their_own_child() {
    // Every watcher waits on its own PID without reaping it: were one to
    // reap another call's child, that call's own reap would fail. The
    // barrier starts all four calls together so their children overlap.
    let start = Arc::new(Barrier::new(4));
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let start = start.clone();
            std::thread::spawn(move || {
                let mut cmd = Command::new("sleep");
                cmd.arg("0.1");
                start.wait();
                let started = Instant::now();
                let outcome = Lfm::new().run(&mut cmd).expect("run");
                (outcome, started.elapsed())
            })
        })
        .collect();
    for handle in handles {
        let (outcome, elapsed) = handle.join().expect("monitor thread");
        assert!(outcome.is_success(), "{outcome:?}");
        assert!(
            elapsed < Duration::from_millis(200),
            "returned after {elapsed:?}"
        );
    }
}
