//! Host speed, measured by a fixed reference kernel beside every timed call.
//!
//! The simulated workloads are CPU-bound, and a shared host runs them at a
//! speed that drifts by up to 2x over minutes (other tenants share its
//! cores, caches and memory; the time is user time, not steal). The wall
//! time of one call therefore says as much about the host as about the
//! program. Each timed call is paired with one run of a reference kernel
//! just before it, and its time is scaled to a host on which that kernel
//! takes [`REFERENCE_SECS`]: `secs * REFERENCE_SECS / reference_secs`.
//!
//! The kernel is the benchmark's own code on `std` collections and calls
//! no `lfm-core` code, so a change to the program cannot move it. Its work
//! is shaped like the simulator's: a binary heap and a hash map that grow
//! from empty, then a fresh 8 MB vector sorted in place. Of the kernels
//! tried, this one tracked the workloads' drift best; a pure pointer chase
//! through 8 MiB, which allocates nothing, hardly tracked it at all.
//!
//! The kernel's memory is not the program's: after each run the clock hands
//! the freed memory back to the system and resets the process's peak
//! resident size, so a peak read after the next timed call is the
//! program's own.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Reference kernel seconds the scaled times assume.
pub const REFERENCE_SECS: f64 = 0.050;

const QUEUE_OPS: u64 = 150_000;
const KEYS: u64 = 200_000;
const SORT_LEN: usize = 1_000_000;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

fn kernel() -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut heap = BinaryHeap::new();
    let mut map: HashMap<u64, u64> = HashMap::new();
    let mut acc = 0u64;
    for i in 0..QUEUE_OPS {
        let k = xorshift(&mut x);
        heap.push(Reverse(k % 1_000_000));
        map.insert(k % KEYS, i);
        if i % 3 == 0 {
            if let Some(Reverse(v)) = heap.pop() {
                acc = acc.wrapping_add(v);
            }
        }
        if let Some(v) = map.get(&(xorshift(&mut x) % KEYS)) {
            acc = acc.wrapping_add(*v);
        }
    }
    let mut v: Vec<u64> = (0..SORT_LEN).map(|_| xorshift(&mut x)).collect();
    v.sort_unstable();
    acc.wrapping_add(v[SORT_LEN / 2])
        .wrapping_add(heap.len() as u64)
}

/// `secs` measured right after a reference run of `reference_secs`, scaled
/// to a host on which the reference takes [`REFERENCE_SECS`].
pub fn scale(secs: f64, reference_secs: f64) -> f64 {
    secs * REFERENCE_SECS / reference_secs
}

#[cfg(target_env = "gnu")]
extern "C" {
    /// glibc: return free heap memory to the system.
    fn malloc_trim(pad: usize) -> i32;
}

/// Reset the peak resident size (`VmHWM`) to the current resident size.
pub fn reset_peak_rss() {
    // Writing 5 resets it (proc(5), clear_refs).
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Give the kernel's freed memory back and reset the peak resident size.
fn forget_reference_memory() {
    #[cfg(target_env = "gnu")]
    // SAFETY: malloc_trim only releases free memory; no pointer is passed.
    unsafe {
        malloc_trim(0);
    }
    reset_peak_rss();
}

/// Every reference time measured in one run.
#[derive(Debug, Default)]
pub struct HostClock {
    /// Seconds of each reference run, in order.
    pub reference_secs: Vec<f64>,
}

impl HostClock {
    pub fn new() -> Self {
        Self::default()
    }

    /// Run the kernel once; returns its seconds and keeps them.
    pub fn measure(&mut self) -> f64 {
        let start = Instant::now();
        black_box(kernel());
        let secs = start.elapsed().as_secs_f64();
        forget_reference_memory();
        self.reference_secs.push(secs);
        secs
    }

    /// Time `f` right after one reference run: returns its result and its
    /// scaled seconds.
    pub fn scaled<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let reference = self.measure();
        let start = Instant::now();
        let out = f();
        (out, scale(start.elapsed().as_secs_f64(), reference))
    }
}
