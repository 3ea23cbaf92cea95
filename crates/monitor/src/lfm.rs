//! The lightweight function monitor for real processes.
//!
//! Mirrors the paper's §VI-B1 design: the task runs in its own process
//! (a fork of the interpreter, here any `Command`); results come back over
//! a queue; a poller reads `/proc` at a fixed interval, tracks the process
//! tree, enforces limits by killing the tree, and emits a
//! [`ResourceReport`] at the end. A callback can observe every poll —
//! the decorator's `callback` argument.
//!
//! Polling is how the monitor *measures*; it is not how it notices the end.
//! A small watcher thread blocks in `waitid(2)` with `WNOWAIT` and wakes the
//! poller the moment the root exits, so a call returns when its process
//! does, not at the next poll. The poller stays the only reaper: it takes
//! the final sample while the root is still a zombie, then reaps it.

use crate::events::ProcessTracker;
use crate::limits::ResourceLimits;
use crate::procfs;
use crate::report::{MonitorOutcome, ResourceReport, UsageSnapshot};
use std::ffi::c_int;
use std::io;
use std::process::{Child, Command, ExitStatus};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// `siginfo_t`: 128 bytes on every Linux target.
type SigInfo = [u64; 16];

// From the C library std already links; the vendored set has no libc crate.
extern "C" {
    fn waitid(idtype: c_int, id: u32, infop: *mut SigInfo, options: c_int) -> c_int;
    fn kill(pid: i32, sig: c_int) -> c_int;
}

// Linux values (identical on every architecture).
const P_PID: c_int = 1;
const WEXITED: c_int = 4;
const WNOWAIT: c_int = 0x0100_0000;
const SIGKILL: c_int = 9;

/// Stack of the exit watcher: it only calls `waitid` and sends a unit.
const WATCHER_STACK: usize = 32 * 1024;

/// Per-poll observer: receives each snapshot as it is taken.
pub type PollCallback<'a> = dyn FnMut(&UsageSnapshot) + 'a;

/// Builder for monitored executions — the "decorator".
pub struct Lfm<'a> {
    limits: ResourceLimits,
    poll_interval: Duration,
    callback: Option<Box<PollCallback<'a>>>,
    /// Scratch directory whose size is attributed to the task as disk use
    /// (the LFM's sandbox directory in Work Queue).
    scratch_dir: Option<std::path::PathBuf>,
}

impl Default for Lfm<'_> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'a> Lfm<'a> {
    pub fn new() -> Self {
        Lfm {
            limits: ResourceLimits::unlimited(),
            // The paper finds polling "sufficient for tasks that run for
            // more than a handful of seconds"; 250 ms keeps relative
            // overhead tiny at that scale.
            poll_interval: Duration::from_millis(250),
            callback: None,
            scratch_dir: None,
        }
    }

    /// Attribute the recursive size of `dir` to the task as scratch-disk
    /// usage (sampled at every poll).
    pub fn with_scratch_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.scratch_dir = Some(dir.into());
        self
    }

    pub fn with_limits(mut self, limits: ResourceLimits) -> Self {
        self.limits = limits;
        self
    }

    pub fn with_poll_interval(mut self, interval: Duration) -> Self {
        assert!(!interval.is_zero(), "poll interval must be positive");
        self.poll_interval = interval;
        self
    }

    /// Register a per-poll callback (e.g. live resource reporting).
    pub fn with_callback(mut self, cb: impl FnMut(&UsageSnapshot) + 'a) -> Self {
        self.callback = Some(Box::new(cb));
        self
    }

    /// Run `cmd` under the monitor. Blocks until the process tree finishes
    /// or violates a limit; returns as soon as the root process exits.
    pub fn run(mut self, cmd: &mut Command) -> io::Result<MonitorOutcome> {
        let start = Instant::now();
        let mut root = WatchedChild::spawn(cmd)?;
        let pid = root.child.id();
        let mut tracker = ProcessTracker::new();
        let mut report = ResourceReport::default();
        let mut prev: Option<UsageSnapshot> = None;
        let mut monitor_cpu = 0.0f64;

        loop {
            let poll_started = Instant::now();
            if let Some(snap) = self.poll(pid, &mut tracker, start, &mut report, prev.as_ref()) {
                if let Some(kind) = self.limits.check(&snap, prev.as_ref()) {
                    kill_tree(&mut root.child, &tracker);
                    let _ = root.reap();
                    report.wall_secs = start.elapsed().as_secs_f64();
                    report.monitor_overhead_secs = monitor_cpu;
                    return Ok(MonitorOutcome::LimitExceeded { kind, report });
                }
                prev = Some(snap);
            }
            monitor_cpu += poll_started.elapsed().as_secs_f64();
            if root.exited_within(self.poll_interval) {
                break;
            }
        }

        // The root is a zombie until reaped, and its `/proc` entry still
        // holds its final CPU time: one last poll accounts short tails.
        let poll_started = Instant::now();
        self.poll(pid, &mut tracker, start, &mut report, prev.as_ref());
        monitor_cpu += poll_started.elapsed().as_secs_f64();
        let status = root.reap()?;
        report.wall_secs = start.elapsed().as_secs_f64();
        report.monitor_overhead_secs = monitor_cpu;
        let code = status.code().unwrap_or(-1);
        Ok(if code == 0 {
            MonitorOutcome::Completed(report)
        } else {
            MonitorOutcome::Failed {
                exit_code: code,
                report,
            }
        })
    }
}

impl Lfm<'_> {
    /// Sample the tree under `root`, fold the snapshot into `report` and
    /// show it to the callback. `None` once the tree is gone.
    fn poll(
        &mut self,
        root: u32,
        tracker: &mut ProcessTracker,
        start: Instant,
        report: &mut ResourceReport,
        prev: Option<&UsageSnapshot>,
    ) -> Option<UsageSnapshot> {
        let mut snap = sample_tree(root, tracker, start)?;
        snap.disk_mb = snap.disk_mb.max(self.scratch_mb());
        report.absorb(&snap, prev);
        if let Some(cb) = self.callback.as_mut() {
            cb(&snap);
        }
        Some(snap)
    }

    /// Current scratch-directory footprint in MB (0 when unset/missing).
    fn scratch_mb(&self) -> u64 {
        self.scratch_dir.as_deref().map(dir_size_bytes).unwrap_or(0) / (1024 * 1024)
    }
}

/// The monitored root process and the thread that reports its exit.
///
/// The watcher never reaps; [`WatchedChild::reap`] does, and only after the
/// watcher has finished. So the root's PID cannot be reused while the
/// watcher waits on it or while the poller signals it.
struct WatchedChild {
    child: Child,
    exited: Receiver<()>,
    watcher: Option<JoinHandle<()>>,
}

impl WatchedChild {
    fn spawn(cmd: &mut Command) -> io::Result<Self> {
        let mut child = cmd.spawn()?;
        let pid = child.id();
        let (tx, exited) = mpsc::sync_channel(1);
        let watcher = thread::Builder::new()
            .stack_size(WATCHER_STACK)
            .spawn(move || {
                wait_for_exit(pid);
                // Cannot fail: the receiver is dropped only after the join.
                let _ = tx.send(());
            });
        match watcher {
            Ok(watcher) => Ok(WatchedChild {
                child,
                exited,
                watcher: Some(watcher),
            }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(e)
            }
        }
    }

    /// Wait up to `timeout` for the root to exit; true once it has.
    fn exited_within(&self, timeout: Duration) -> bool {
        !matches!(
            self.exited.recv_timeout(timeout),
            Err(RecvTimeoutError::Timeout)
        )
    }

    /// Join the watcher (it returns once the root has exited), then reap.
    fn reap(&mut self) -> io::Result<ExitStatus> {
        let joined = self.watcher.take().map_or(Ok(()), JoinHandle::join);
        let status = self.child.wait();
        joined.map_err(|_| io::Error::other("exit watcher panicked"))?;
        status
    }
}

impl Drop for WatchedChild {
    /// A run that unwinds (a panicking callback) still leaves no process or
    /// thread behind.
    fn drop(&mut self) {
        if self.watcher.is_some() {
            let _ = self.child.kill();
            let _ = self.reap();
        }
    }
}

/// Block until `pid`, a child of this process, has exited, leaving it
/// waitable.
fn wait_for_exit(pid: u32) {
    let mut info: SigInfo = [0; 16];
    loop {
        // SAFETY: `info` is a live, writable buffer of siginfo_t's size for
        // the whole call. With WNOWAIT the kernel only reports the exit, so
        // the PID stays owned by the `Child` that reaps it.
        let rc = unsafe { waitid(P_PID, pid, &mut info, WEXITED | WNOWAIT) };
        if rc == 0 || io::Error::last_os_error().kind() != io::ErrorKind::Interrupted {
            return;
        }
    }
}

/// Recursive directory size (best-effort; races with deletion are fine).
fn dir_size_bytes(dir: &std::path::Path) -> u64 {
    let mut total = 0;
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    for entry in entries.flatten() {
        let Ok(meta) = entry.metadata() else { continue };
        if meta.is_dir() {
            total += dir_size_bytes(&entry.path());
        } else {
            total += meta.len();
        }
    }
    total
}

/// Aggregate a snapshot over the process tree rooted at `root`.
fn sample_tree(root: u32, tracker: &mut ProcessTracker, start: Instant) -> Option<UsageSnapshot> {
    let tree = procfs::process_tree(root);
    if tree.is_empty() {
        return None;
    }
    tracker.observe(&tree);
    let mut snap = UsageSnapshot {
        elapsed: start.elapsed().as_secs_f64(),
        ..Default::default()
    };
    let mut any = false;
    for pid in tree {
        if let Some(stat) = procfs::read_stat(pid) {
            snap.cpu_secs += stat.utime_secs + stat.stime_secs;
            any = true;
        }
        if let Some(rss) = procfs::read_rss_bytes(pid) {
            snap.rss_mb += rss / (1024 * 1024);
        }
        if let Some((r, w)) = procfs::read_io(pid) {
            snap.read_bytes += r;
            snap.write_bytes += w;
        }
        snap.processes += 1;
    }
    // Approximate scratch-disk usage by write volume: without a dedicated
    // scratch mount we cannot attribute filesystem blocks to the task.
    snap.disk_mb = snap.write_bytes / (1024 * 1024);
    any.then_some(snap)
}

/// Kill the root and every tracked descendant. The root dies via
/// `Child::kill`; descendants get SIGKILL through `kill(2)` (without a libc
/// *crate*). The caller reaps the root.
fn kill_tree(child: &mut Child, tracker: &ProcessTracker) {
    let root = child.id();
    let _ = child.kill();
    for pid in tracker.live().filter(|&pid| pid != root) {
        // A PID outside 1..=i32::MAX would address a process group or every
        // process; `/proc` never lists one.
        let Ok(pid @ 1..) = i32::try_from(pid) else {
            continue;
        };
        // SAFETY: kill takes no pointers; `pid` is positive, so it names
        // exactly one process.
        unsafe {
            kill(pid, SIGKILL);
        }
    }
}

/// Run an in-process closure with result-queue semantics: the function runs
/// on its own thread, the return value (or panic payload) travels back over
/// a channel, and wall time is measured. In-process execution cannot be
/// forcibly killed from safe Rust, so limits are *not* enforced here — use
/// [`Lfm::run`] for enforcement; this is the low-overhead measurement path
/// for trusted functions.
pub fn monitor_inline<T, F>(f: F) -> (std::thread::Result<T>, ResourceReport)
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let start = Instant::now();
    let rss_before = procfs::read_rss_bytes(std::process::id()).unwrap_or(0);
    let (tx, rx) = crossbeam::channel::bounded(1);
    let handle = std::thread::spawn(move || {
        let out = f();
        // Receiver outlives us; ignore send failure on abandoned monitor.
        let _ = tx.send(());
        out
    });
    let _ = rx.recv();
    let result = handle.join();
    let rss_after = procfs::read_rss_bytes(std::process::id()).unwrap_or(rss_before);
    let report = ResourceReport {
        wall_secs: start.elapsed().as_secs_f64(),
        peak_rss_mb: rss_after.saturating_sub(rss_before) / (1024 * 1024),
        peak_processes: 1,
        polls: 1,
        ..Default::default()
    };
    (result, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::ResourceKind;

    #[test]
    fn inline_monitor_returns_value_and_times() {
        let (result, report) = monitor_inline(|| {
            std::thread::sleep(Duration::from_millis(120));
            21 * 2
        });
        assert_eq!(result.unwrap(), 42);
        assert!(report.wall_secs >= 0.1, "wall {}", report.wall_secs);
    }

    #[test]
    fn inline_monitor_propagates_panic() {
        let (result, _report) = monitor_inline(|| panic!("task exploded"));
        assert!(result.is_err());
    }

    #[cfg(target_os = "linux")]
    mod linux {
        use super::*;

        #[test]
        fn completed_command_reports_resources() {
            let mut cmd = Command::new("sh");
            cmd.args(["-c", "sleep 0.6; exit 0"]);
            let outcome = Lfm::new()
                .with_poll_interval(Duration::from_millis(50))
                .run(&mut cmd)
                .unwrap();
            assert!(outcome.is_success(), "{outcome:?}");
            let r = outcome.report();
            assert!(r.wall_secs >= 0.5, "wall {}", r.wall_secs);
            assert!(r.polls >= 2, "polls {}", r.polls);
            assert!(r.peak_processes >= 1);
        }

        #[test]
        fn failing_command_reports_exit_code() {
            let mut cmd = Command::new("sh");
            cmd.args(["-c", "exit 3"]);
            let outcome = Lfm::new()
                .with_poll_interval(Duration::from_millis(20))
                .run(&mut cmd)
                .unwrap();
            match outcome {
                MonitorOutcome::Failed { exit_code, .. } => assert_eq!(exit_code, 3),
                other => panic!("expected Failed, got {other:?}"),
            }
        }

        #[test]
        fn wall_limit_kills_runaway() {
            let mut cmd = Command::new("sleep");
            cmd.arg("30");
            let started = Instant::now();
            let outcome = Lfm::new()
                .with_limits(ResourceLimits::unlimited().with_wall_secs(0.3))
                .with_poll_interval(Duration::from_millis(50))
                .run(&mut cmd)
                .unwrap();
            assert!(
                started.elapsed() < Duration::from_secs(5),
                "kill was not prompt"
            );
            match outcome {
                MonitorOutcome::LimitExceeded { kind, .. } => {
                    assert_eq!(kind, ResourceKind::WallTime)
                }
                other => panic!("expected LimitExceeded, got {other:?}"),
            }
        }

        #[test]
        fn panicking_callback_kills_and_reaps_the_root() {
            // Unwinding out of `run` must kill the root rather than wait
            // 30 s for it: the watcher is joined only after the kill.
            let started = Instant::now();
            let unwound = std::panic::catch_unwind(|| {
                let mut cmd = Command::new("sleep");
                cmd.arg("30");
                Lfm::new()
                    .with_callback(|_snap| panic!("callback exploded"))
                    .run(&mut cmd)
            });
            assert!(unwound.is_err());
            assert!(
                started.elapsed() < Duration::from_secs(5),
                "root outlived the unwound run"
            );
        }

        #[test]
        fn callback_sees_polls() {
            let mut count = 0u32;
            let mut cmd = Command::new("sleep");
            cmd.arg("0.4");
            let outcome = Lfm::new()
                .with_poll_interval(Duration::from_millis(50))
                .with_callback(|_snap| count += 1)
                .run(&mut cmd)
                .unwrap();
            assert!(outcome.is_success());
            assert!(count >= 2, "callback ran {count} times");
        }

        #[test]
        fn scratch_dir_attributed_as_disk() {
            let dir = std::env::temp_dir().join(format!("lfm-scratch-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let file = dir.join("blob.bin");
            let mut cmd = Command::new("sh");
            cmd.args([
                "-c",
                &format!(
                    "dd if=/dev/zero of={} bs=1M count=8 2>/dev/null; sleep 0.4",
                    file.display()
                ),
            ]);
            let outcome = Lfm::new()
                .with_poll_interval(Duration::from_millis(50))
                .with_scratch_dir(&dir)
                .run(&mut cmd)
                .unwrap();
            std::fs::remove_dir_all(&dir).ok();
            assert!(outcome.is_success());
            assert!(
                outcome.report().peak_disk_mb >= 7,
                "scratch blob not attributed: {} MB",
                outcome.report().peak_disk_mb
            );
        }

        #[test]
        fn disk_limit_on_scratch_dir_kills() {
            let dir = std::env::temp_dir().join(format!("lfm-scratch2-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let file = dir.join("blob.bin");
            let mut cmd = Command::new("sh");
            cmd.args([
                "-c",
                &format!(
                    "dd if=/dev/zero of={} bs=1M count=30 2>/dev/null; sleep 10",
                    file.display()
                ),
            ]);
            let outcome = Lfm::new()
                .with_poll_interval(Duration::from_millis(50))
                .with_limits(ResourceLimits::unlimited().with_disk_mb(10))
                .with_scratch_dir(&dir)
                .run(&mut cmd)
                .unwrap();
            std::fs::remove_dir_all(&dir).ok();
            match outcome {
                MonitorOutcome::LimitExceeded { kind, .. } => {
                    assert_eq!(kind, ResourceKind::Disk)
                }
                other => panic!("expected disk kill, got {other:?}"),
            }
        }

        #[test]
        fn child_processes_are_observed() {
            // sh forks two sleeps; the tree should peak at ≥ 3 processes.
            let mut cmd = Command::new("sh");
            cmd.args(["-c", "sleep 0.5 & sleep 0.5 & wait"]);
            let outcome = Lfm::new()
                .with_poll_interval(Duration::from_millis(40))
                .run(&mut cmd)
                .unwrap();
            let r = outcome.report();
            assert!(r.peak_processes >= 3, "peak processes {}", r.peak_processes);
        }
    }
}
