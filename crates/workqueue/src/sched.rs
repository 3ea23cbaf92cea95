//! Indexed incremental scheduling state for the Work Queue master.
//!
//! The reference matcher re-runs a full greedy pass over the entire pending
//! queue on every event, and every placement attempt scans every worker and
//! re-probes every input file for cache affinity — O(events × pending ×
//! workers × inputs). This module replaces that with event-driven state:
//!
//! * **Order keys** — the reference examination order (stable policy sort
//!   over a deque fed by `push_back`/`push_front`) is a total order
//!   `(policy_rank, seq)`: ranks are `0` (Fifo), `!peak_mem` (LargestFirst)
//!   or `peak_mem` (SmallestFirst), and seqs grow at the back / shrink at
//!   the front. Ready tasks live in a `BTreeMap` keyed by it, so a dispatch
//!   pass is a k-way merge instead of a drain-sort-refill.
//! * **Park groups** — a task that fails examination is parked under its
//!   `(category, is_retry)` group together with *why* it failed (slow-start
//!   cap, or no worker fits its allocation). All members of a group resolve
//!   to the same decision at any instant, so one head examination decides
//!   the whole group; groups are re-examined ("woken") only when an event
//!   could change the verdict — see the wake methods.
//! * **Capacity index** — workers ordered by free cores, so the
//!   most-free-cores preference is a reverse scan with early exit instead
//!   of a full-pool sweep.
//! * **File index** — inverted cache map (file → holders), each holder set
//!   ordered by the same `(free cores, Reverse(id))` key as the capacity
//!   index. The cached-inputs preference scans the smallest set most-free
//!   first, probes the others by key, and stops at the first fit or once
//!   free cores drop below the request — O(log workers) per examination
//!   instead of a walk over every holder. Quarantined workers leave every
//!   set while offline, so the scan never meets one.
//!
//! Exactness: see `DESIGN.md` §Scheduler for the argument that every skipped
//! examination would have failed in the reference matcher, and that failed
//! reference examinations have no observable side effects — which together
//! make the indexed scheduler placement-for-placement identical.

use crate::master::SchedulePolicy;
use crate::task::TaskSpec;
use crate::worker::Worker;
use lfm_simcluster::node::Resources;
use lfm_simcluster::time::SimTime;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};

/// Which dispatch implementation a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedImpl {
    /// The original rescan-everything greedy matcher, kept as the test
    /// oracle for seed-equivalence suites (and as the benchmark baseline).
    Reference,
    /// The indexed, event-driven scheduler (behavior-identical, default).
    #[default]
    Indexed,
}

/// A queued task attempt.
#[derive(Debug, Clone)]
pub(crate) struct Pending {
    pub task_idx: usize,
    pub attempt: u32,
    /// When this attempt became ready (for queue-wait spans).
    pub since: SimTime,
}

/// Total examination order: `(policy_rank, seq)`. Smaller examines first.
pub(crate) type OrderKey = (u64, i64);

/// Park-group identity: `(category id, attempt > 0)`. Every member of a
/// group receives the same allocation decision at any instant, because the
/// allocator decides per category and treats all retries alike.
pub(crate) type GroupKey = (u32, bool);

/// The policy component of an [`OrderKey`]. Bitwise NOT turns "largest
/// first" into an ascending sort key.
pub(crate) fn policy_rank(policy: SchedulePolicy, peak_memory_mb: u64) -> u64 {
    match policy {
        SchedulePolicy::Fifo => 0,
        SchedulePolicy::LargestFirst => !peak_memory_mb,
        SchedulePolicy::SmallestFirst => peak_memory_mb,
    }
}

/// Why a group failed its last examination. The stored reason is a
/// *certificate* that re-examining the group is pointless until a wake
/// condition specific to the reason occurs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ParkReason {
    /// Sized first attempts hit the slow-start concurrency cap. Invalidated
    /// by any completion/eviction of the category (running count fell, or
    /// the cap itself moved with the new sample).
    SlowStart,
    /// No worker could fit this resolved allocation. Invalidated by a
    /// worker arrival, by freed capacity that fits the stored vector, or by
    /// the category's label changing (the vector itself is stale then).
    NoFit(Resources),
}

#[derive(Debug)]
struct ParkGroup {
    reason: ParkReason,
    members: BTreeMap<OrderKey, Pending>,
}

/// Where the next-in-order candidate lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Src {
    Ready,
    Group(GroupKey),
}

/// The indexed scheduler state. Owned by the master when
/// [`SchedImpl::Indexed`] is active.
#[derive(Debug)]
pub(crate) struct IndexedSched {
    policy: SchedulePolicy,
    /// Tasks awaiting their first examination since (re-)enqueue.
    ready: BTreeMap<OrderKey, Pending>,
    /// Tasks whose last examination failed, grouped by (category, retry).
    groups: BTreeMap<GroupKey, ParkGroup>,
    /// Groups with a pending wake: their heads compete with `ready` in the
    /// next dispatch pass. Waking is lazy — members never move.
    runnable: BTreeSet<GroupKey>,
    /// Total members across all groups (so `len` is O(1)).
    parked: usize,
    /// `push_front` seqs: start at -1 and decrease.
    front_seq: i64,
    /// `push_back` seqs: start at 0 and increase.
    back_seq: i64,
    /// Every online worker's [`CapKey`]. Reverse iteration yields
    /// most-free-first with lowest-id tie-break — the reference
    /// `pick_worker` preference.
    cap_index: BTreeSet<CapKey>,
    /// file name → id into `holders` (mirrors `Worker::insert_cached`).
    file_ids: BTreeMap<String, usize>,
    /// Per file id: the online workers caching it, keyed like `cap_index`.
    holders: Vec<BTreeSet<CapKey>>,
    /// The index's view of every live worker, online or quarantined.
    workers: BTreeMap<u32, IndexedWorker>,
}

/// A worker's position in the capacity-ordered sets: `(free cores,
/// Reverse(worker id))`.
type CapKey = (u32, Reverse<u32>);

/// What the index tracks per worker to keep its keys in step.
#[derive(Debug)]
struct IndexedWorker {
    /// Free cores as last reported (the key's first component).
    free: u32,
    /// False while quarantined: the worker is in no capacity-ordered set.
    online: bool,
    /// Ids (into `holders`) of every file the worker caches.
    files: Vec<usize>,
}

#[cfg(test)]
thread_local! {
    /// `(pick_worker calls, index entries they visited)` across the holder
    /// sets and the capacity index, for the dispatch scaling guard.
    pub(crate) static PICK_SCAN: std::cell::Cell<(u64, u64)> =
        const { std::cell::Cell::new((0, 0)) };
}

impl IndexedSched {
    pub fn new(policy: SchedulePolicy) -> Self {
        IndexedSched {
            policy,
            ready: BTreeMap::new(),
            groups: BTreeMap::new(),
            runnable: BTreeSet::new(),
            parked: 0,
            front_seq: -1,
            back_seq: 0,
            cap_index: BTreeSet::new(),
            file_ids: BTreeMap::new(),
            holders: Vec::new(),
            workers: BTreeMap::new(),
        }
    }

    /// Ready + parked tasks (the reference queue length).
    pub fn len(&self) -> usize {
        self.ready.len() + self.parked
    }

    /// Every pending task — ready and parked alike — in global examination
    /// order (merged by [`OrderKey`]). This is the durability snapshot's
    /// canonical pending enumeration: the reference scheduler produces the
    /// identical sequence by stable-sorting its deque by
    /// [`policy_rank`], because within a rank, deque order always equals
    /// seq order.
    pub fn snapshot_pending(&self) -> Vec<Pending> {
        let mut all: Vec<(OrderKey, Pending)> = self
            .ready
            .iter()
            .chain(self.groups.values().flat_map(|g| g.members.iter()))
            .map(|(&k, p)| (k, p.clone()))
            .collect();
        all.sort_by_key(|&(k, _)| k);
        all.into_iter().map(|(_, p)| p).collect()
    }

    fn rank(&self, task: &TaskSpec) -> u64 {
        policy_rank(self.policy, task.profile.peak_memory_mb)
    }

    /// Enqueue at the back of the examination order (new arrivals).
    pub fn push_back(&mut self, task: &TaskSpec, item: Pending) {
        let key = (self.rank(task), self.back_seq);
        self.back_seq += 1;
        self.ready.insert(key, item);
    }

    /// Enqueue at the front of the examination order (retries, evictions).
    pub fn push_front(&mut self, task: &TaskSpec, item: Pending) {
        let key = (self.rank(task), self.front_seq);
        self.front_seq -= 1;
        self.ready.insert(key, item);
    }

    // ---- dispatch-pass primitives ----

    /// The source holding the smallest order key among `ready` and all
    /// runnable group heads, or None when nothing is examinable.
    pub fn peek_min(&self) -> Option<Src> {
        let mut best: Option<(OrderKey, Src)> = self.ready.keys().next().map(|&k| (k, Src::Ready));
        for &gk in &self.runnable {
            let head = *self.groups[&gk]
                .members
                .keys()
                .next()
                .expect("runnable group is non-empty");
            if best.is_none_or(|(bk, _)| head < bk) {
                best = Some((head, Src::Group(gk)));
            }
        }
        best.map(|(_, src)| src)
    }

    pub fn pop_ready(&mut self) -> (OrderKey, Pending) {
        self.ready.pop_first().expect("peek_min said ready")
    }

    pub fn pop_group_head(&mut self, gk: GroupKey) -> (OrderKey, Pending) {
        let g = self.groups.get_mut(&gk).expect("runnable group exists");
        let (key, item) = g.members.pop_first().expect("runnable group non-empty");
        self.parked -= 1;
        (key, item)
    }

    /// Remove a group emptied by successful placements.
    pub fn drop_group_if_empty(&mut self, gk: GroupKey) {
        if self.groups.get(&gk).is_some_and(|g| g.members.is_empty()) {
            self.groups.remove(&gk);
            self.runnable.remove(&gk);
        }
    }

    /// Is this group parked and *not* scheduled for re-examination? Fresh
    /// arrivals for such groups are parked directly: no wake event has
    /// occurred since the group's last failed examination, so the same
    /// failure certificate covers them.
    pub fn is_asleep(&self, gk: GroupKey) -> bool {
        self.groups.contains_key(&gk) && !self.runnable.contains(&gk)
    }

    /// Park `item` under `gk`. `reason: Some` records a fresh failure
    /// verdict (overwriting any stale one) and puts the group to sleep;
    /// `None` joins an existing group without touching its certificate.
    pub fn park(&mut self, gk: GroupKey, reason: Option<ParkReason>, key: OrderKey, item: Pending) {
        match reason {
            Some(r) => {
                let g = self.groups.entry(gk).or_insert_with(|| ParkGroup {
                    reason: r.clone(),
                    members: BTreeMap::new(),
                });
                g.reason = r;
                self.runnable.remove(&gk);
                g.members.insert(key, item);
            }
            None => {
                let g = self.groups.get_mut(&gk).expect("joining an existing group");
                g.members.insert(key, item);
            }
        }
        self.parked += 1;
    }

    // ---- wake protocol ----

    /// A task of `cat` finished (or was evicted): its running count fell and
    /// — on finishes — its sample set grew, so a slow-start verdict for the
    /// category's first attempts is stale. `label_changed` additionally
    /// invalidates a NoFit verdict: the parked allocation vector itself is
    /// no longer what the group would be offered.
    pub fn wake_category(&mut self, cat: u32, label_changed: bool) {
        let gk = (cat, false);
        if let Some(g) = self.groups.get(&gk) {
            if label_changed || g.reason == ParkReason::SlowStart {
                self.runnable.insert(gk);
            }
        }
    }

    /// Capacity was freed on a worker now offering `avail`: wake every
    /// NoFit group whose stored allocation fits it. Groups whose vector
    /// still doesn't fit keep their certificate — no other worker's
    /// capacity grew since they parked.
    pub fn wake_fitting(&mut self, avail: &Resources) {
        for (gk, g) in &self.groups {
            if let ParkReason::NoFit(r) = &g.reason {
                if r.fits_in(avail) {
                    self.runnable.insert(*gk);
                }
            }
        }
    }

    /// A fresh worker arrived: every resolved allocation fits an empty
    /// worker (resolution clamps to the node spec), so every NoFit
    /// certificate is void.
    pub fn wake_all_nofit(&mut self) {
        for (gk, g) in &self.groups {
            if matches!(g.reason, ParkReason::NoFit(_)) {
                self.runnable.insert(*gk);
            }
        }
    }

    // ---- worker capacity / file-cache indexes ----

    pub fn worker_added(&mut self, id: u32, free_cores: u32) {
        let w = IndexedWorker {
            free: free_cores,
            online: true,
            files: Vec::new(),
        };
        assert!(
            self.workers.insert(id, w).is_none(),
            "worker {id} added twice"
        );
        self.cap_index.insert((free_cores, Reverse(id)));
    }

    /// Insert (`link`) or remove an online worker's key in the capacity
    /// index and in the holder set of every file it caches.
    fn relink(&mut self, id: u32, link: bool) {
        let w = &self.workers[&id];
        let key = (w.free, Reverse(id));
        let toggle = |set: &mut BTreeSet<CapKey>| {
            if link {
                set.insert(key);
            } else {
                set.remove(&key);
            }
        };
        toggle(&mut self.cap_index);
        for &f in &w.files {
            toggle(&mut self.holders[f]);
        }
    }

    /// The worker left the pool: drop it from every index.
    pub fn worker_removed(&mut self, id: u32) {
        if self.workers[&id].online {
            self.relink(id, false);
        }
        self.workers.remove(&id);
    }

    /// Take a worker out of every capacity-ordered set while keeping its
    /// cached-file list (quarantine: the worker is alive, its cache intact,
    /// but it must not receive placements).
    pub fn worker_offline(&mut self, id: u32) {
        if self.workers[&id].online {
            self.relink(id, false);
            self.workers.get_mut(&id).expect("indexed worker").online = false;
        }
    }

    /// Put a quarantined worker back, with the free cores it has now.
    pub fn worker_online(&mut self, id: u32, free_cores: u32) {
        let w = self.workers.get_mut(&id).expect("indexed worker");
        assert!(!w.online, "worker {id} already online");
        w.free = free_cores;
        w.online = true;
        self.relink(id, true);
    }

    /// An online worker's free cores changed: move its key in the capacity
    /// index and in the holder set of each file it caches.
    pub fn update_free(&mut self, id: u32, new_free: u32) {
        let w = &self.workers[&id];
        assert!(w.online, "capacity update on offline worker {id}");
        if w.free != new_free {
            self.relink(id, false);
            self.workers.get_mut(&id).expect("indexed worker").free = new_free;
            self.relink(id, true);
        }
    }

    /// `file` newly entered `id`'s cache.
    pub fn file_cached(&mut self, file: &str, id: u32) {
        let f = match self.file_ids.get(file) {
            Some(&f) => f,
            None => {
                self.holders.push(BTreeSet::new());
                self.file_ids
                    .insert(file.to_string(), self.holders.len() - 1);
                self.holders.len() - 1
            }
        };
        let w = self.workers.get_mut(&id).expect("indexed worker");
        w.files.push(f);
        if w.online {
            self.holders[f].insert((w.free, Reverse(id)));
        }
    }

    /// Give up to `max` first-attempt pending items from the *back* of the
    /// global examination order — the coldest work under every policy — to
    /// a federation work-stealing balancer. Retries (attempt > 0) are never
    /// taken: their accounting is anchored to the home shard. Returns the
    /// stolen items warm-first (ascending order key), matching the
    /// reference scheduler's policy-view enumeration.
    pub fn steal_last(&mut self, max: usize) -> Vec<Pending> {
        let mut out: Vec<Pending> = Vec::new();
        while out.len() < max {
            // The largest order key among stealable (attempt == 0) items in
            // `ready` and in every park group. Groups are searched whether
            // runnable or asleep — parked work is exactly what a hot shard
            // cannot start soon.
            let mut best: Option<(OrderKey, Option<GroupKey>)> = None;
            if let Some((&k, _)) = self.ready.iter().rev().find(|(_, p)| p.attempt == 0) {
                best = Some((k, None));
            }
            for (&gk, g) in &self.groups {
                if let Some((&k, _)) = g.members.iter().rev().find(|(_, p)| p.attempt == 0) {
                    if best.is_none_or(|(bk, _)| k > bk) {
                        best = Some((k, Some(gk)));
                    }
                }
            }
            let Some((key, src)) = best else { break };
            let item = match src {
                None => self.ready.remove(&key).expect("found in ready"),
                Some(gk) => {
                    let g = self.groups.get_mut(&gk).expect("found in group");
                    let item = g.members.remove(&key).expect("found member");
                    self.parked -= 1;
                    if g.members.is_empty() {
                        self.groups.remove(&gk);
                        self.runnable.remove(&gk);
                    }
                    item
                }
            };
            out.push(item);
        }
        out.reverse();
        out
    }

    /// Choose a worker for `task` under `alloc`: prefer one with all the
    /// task's cacheable inputs already local, then the one with most free
    /// cores, lowest id breaking ties — exactly the reference preference,
    /// computed from the indexes instead of a full scan.
    pub fn pick_worker(
        &self,
        workers: &BTreeMap<u32, Worker>,
        task: &TaskSpec,
        alloc: &Resources,
    ) -> Option<u32> {
        #[cfg(test)]
        PICK_SCAN.with(|c| c.set((c.get().0 + 1, c.get().1)));
        // Cached-preference path, then (no cacheable inputs, so every worker
        // counts as "cached", or no cached worker fits) most free cores.
        self.pick_cached(workers, task, alloc).or_else(|| {
            first_fit(
                workers,
                alloc,
                self.cap_index.iter().rev().map(|&key| (key, true)),
            )
        })
    }

    /// The most-free, lowest-id fitting worker holding every cacheable input
    /// of `task`: walk the smallest holder set in descending key order and
    /// probe the others for the same key. Holder sets only contain online
    /// workers, so the first full fit is the reference's cached winner.
    fn pick_cached(
        &self,
        workers: &BTreeMap<u32, Worker>,
        task: &TaskSpec,
        alloc: &Resources,
    ) -> Option<u32> {
        let mut sets: Vec<&BTreeSet<CapKey>> = Vec::new();
        for f in task.inputs.iter().filter(|f| f.cacheable) {
            // A file nobody holds empties the intersection.
            sets.push(&self.holders[*self.file_ids.get(&f.name)?]);
        }
        sets.sort_by_key(|s| s.len());
        let (smallest, rest) = sets.split_first()?;
        first_fit(
            workers,
            alloc,
            smallest
                .iter()
                .rev()
                .map(|key| (*key, rest.iter().all(|s| s.contains(key)))),
        )
    }
}

/// The first worker in `candidates` (descending [`CapKey`] order, each
/// flagged with whether it is eligible) that fits `alloc`. Stops once free
/// cores drop below the request: no later candidate can fit.
fn first_fit(
    workers: &BTreeMap<u32, Worker>,
    alloc: &Resources,
    candidates: impl Iterator<Item = (CapKey, bool)>,
) -> Option<u32> {
    for ((free, Reverse(id)), eligible) in candidates {
        #[cfg(test)]
        PICK_SCAN.with(|c| c.set((c.get().0, c.get().1 + 1)));
        if free < alloc.cores {
            break;
        }
        if eligible && workers[&id].node.can_fit(alloc) {
            return Some(id);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::files::FileRef;
    use crate::task::TaskId;
    use lfm_monitor::sim::SimTaskProfile;
    use lfm_simcluster::node::NodeSpec;

    fn task(id: u64, mem: u64, inputs: Vec<FileRef>) -> TaskSpec {
        TaskSpec::new(
            TaskId(id),
            "cat",
            inputs,
            0,
            SimTaskProfile::new(10.0, 1.0, mem, 100),
        )
    }

    fn pending(idx: usize) -> Pending {
        Pending {
            task_idx: idx,
            attempt: 0,
            since: SimTime::ZERO,
        }
    }

    #[test]
    fn order_keys_reproduce_policy_order() {
        // LargestFirst: bigger memory → smaller rank → examined first, with
        // insertion order breaking ties.
        let mut ix = IndexedSched::new(SchedulePolicy::LargestFirst);
        ix.push_back(&task(0, 100, vec![]), pending(0));
        ix.push_back(&task(1, 500, vec![]), pending(1));
        ix.push_back(&task(2, 500, vec![]), pending(2));
        let mut order = Vec::new();
        while ix.peek_min() == Some(Src::Ready) {
            order.push(ix.pop_ready().1.task_idx);
        }
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn push_front_examines_before_everything() {
        let mut ix = IndexedSched::new(SchedulePolicy::Fifo);
        ix.push_back(&task(0, 1, vec![]), pending(0));
        ix.push_front(&task(1, 1, vec![]), pending(1));
        ix.push_front(&task(2, 1, vec![]), pending(2));
        // Later front pushes land in front of earlier ones (deque order).
        let mut order = Vec::new();
        while ix.peek_min().is_some() {
            order.push(ix.pop_ready().1.task_idx);
        }
        assert_eq!(order, vec![2, 1, 0]);
    }

    #[test]
    fn parked_groups_hidden_until_woken() {
        let mut ix = IndexedSched::new(SchedulePolicy::Fifo);
        ix.push_back(&task(0, 1, vec![]), pending(0));
        let (key, item) = ix.pop_ready();
        ix.park((0, false), Some(ParkReason::SlowStart), key, item);
        assert_eq!(ix.len(), 1);
        assert!(ix.is_asleep((0, false)));
        assert_eq!(ix.peek_min(), None);
        ix.wake_category(0, false);
        assert_eq!(ix.peek_min(), Some(Src::Group((0, false))));
        let (_, item) = ix.pop_group_head((0, false));
        assert_eq!(item.task_idx, 0);
        assert_eq!(ix.len(), 0);
    }

    #[test]
    fn nofit_wakes_only_on_fitting_capacity() {
        let mut ix = IndexedSched::new(SchedulePolicy::Fifo);
        ix.push_back(&task(0, 1, vec![]), pending(0));
        let (key, item) = ix.pop_ready();
        let want = Resources::new(4, 1000, 1000);
        ix.park((0, false), Some(ParkReason::NoFit(want)), key, item);
        ix.wake_category(0, false); // not a SlowStart park, no label change
        assert!(ix.is_asleep((0, false)));
        ix.wake_fitting(&Resources::new(2, 8000, 8000)); // too few cores
        assert!(ix.is_asleep((0, false)));
        ix.wake_fitting(&Resources::new(4, 1000, 1000));
        assert!(!ix.is_asleep((0, false)));
    }

    #[test]
    fn label_change_wakes_nofit_group() {
        let mut ix = IndexedSched::new(SchedulePolicy::Fifo);
        ix.push_back(&task(0, 1, vec![]), pending(0));
        let (key, item) = ix.pop_ready();
        ix.park(
            (0, false),
            Some(ParkReason::NoFit(Resources::new(8, 1, 1))),
            key,
            item,
        );
        ix.wake_category(0, true);
        assert!(!ix.is_asleep((0, false)));
    }

    #[test]
    fn pick_worker_prefers_cached_then_free_cores() {
        let spec = NodeSpec::new(8, 8192, 16384);
        let mut workers = BTreeMap::new();
        for id in 0..3u32 {
            workers.insert(id, Worker::new(id, spec));
        }
        let mut ix = IndexedSched::new(SchedulePolicy::Fifo);
        for id in 0..3u32 {
            ix.worker_added(id, 8);
        }
        let env = FileRef::environment("env", 100, 600, 10, 1);
        // Worker 2 holds the env; worker 0 has more free cores.
        assert!(workers.get_mut(&2).unwrap().insert_cached(&env));
        ix.file_cached("env", 2);
        assert!(workers
            .get_mut(&2)
            .unwrap()
            .node
            .allocate(Resources::new(4, 1, 1)));
        ix.update_free(2, 4);
        let t = task(0, 1, vec![env.clone()]);
        let alloc = Resources::new(1, 100, 100);
        // Cached worker wins despite fewer free cores.
        assert_eq!(ix.pick_worker(&workers, &t, &alloc), Some(2));
        // Without cacheable inputs, most free cores + lowest id wins.
        let t2 = task(1, 1, vec![]);
        assert_eq!(ix.pick_worker(&workers, &t2, &alloc), Some(0));
        // Cached worker full: fall back to the most-free fitting worker.
        assert!(workers
            .get_mut(&2)
            .unwrap()
            .node
            .allocate(Resources::new(4, 1, 1)));
        ix.update_free(2, 0);
        assert_eq!(ix.pick_worker(&workers, &t, &alloc), Some(0));
    }

    #[test]
    fn steal_last_takes_coldest_first_attempts_only() {
        let mut ix = IndexedSched::new(SchedulePolicy::SmallestFirst);
        // Examination order by memory: 1 (100) < 0 (300) < 2 (900).
        ix.push_back(&task(0, 300, vec![]), pending(0));
        ix.push_back(&task(1, 100, vec![]), pending(1));
        ix.push_back(&task(2, 900, vec![]), pending(2));
        // A retry at the very back of the order must not be stealable.
        let retry = Pending {
            task_idx: 3,
            attempt: 2,
            since: SimTime::ZERO,
        };
        ix.push_back(&task(3, 5000, vec![]), retry);
        // Park one candidate: parked work is stealable too.
        let (key, item) = ix.pop_ready(); // task 1, warmest
        ix.park((0, false), Some(ParkReason::SlowStart), key, item);
        let stolen = ix.steal_last(2);
        let idxs: Vec<usize> = stolen.iter().map(|p| p.task_idx).collect();
        // Coldest two first attempts (0 then 2), warm-first order.
        assert_eq!(idxs, vec![0, 2]);
        // The retry and the parked task remain.
        assert_eq!(ix.len(), 2);
        let rest: Vec<usize> = ix.snapshot_pending().iter().map(|p| p.task_idx).collect();
        assert_eq!(rest, vec![1, 3]);
    }

    #[test]
    fn worker_removal_tears_down_indexes() {
        let spec = NodeSpec::new(8, 8192, 16384);
        let mut workers = BTreeMap::new();
        workers.insert(1u32, Worker::new(1, spec));
        let mut ix = IndexedSched::new(SchedulePolicy::Fifo);
        ix.worker_added(1, 8);
        ix.worker_added(2, 8);
        let env = FileRef::environment("env", 100, 600, 10, 1);
        workers.get_mut(&1).unwrap().insert_cached(&env);
        ix.file_cached("env", 2);
        ix.worker_removed(2);
        let t = task(0, 1, vec![env]);
        // Worker 2 gone from both indexes: the env holder set is empty, and
        // capacity falls back to worker 1.
        assert_eq!(
            ix.pick_worker(&workers, &t, &Resources::new(1, 1, 1)),
            Some(1)
        );
    }

    /// `Master::pick_worker`'s rule as a full scan: skip quarantined and
    /// non-fitting workers, then maximize (all cacheable inputs cached, free
    /// cores), ascending ids keeping the first of equals.
    fn brute_pick(
        workers: &BTreeMap<u32, Worker>,
        task: &TaskSpec,
        alloc: &Resources,
    ) -> Option<u32> {
        let mut best: Option<(bool, u32, u32)> = None;
        for w in workers.values() {
            if w.quarantined || !w.node.can_fit(alloc) {
                continue;
            }
            let cached = task
                .inputs
                .iter()
                .filter(|f| f.cacheable)
                .all(|f| w.has_cached(&f.name));
            let free = w.node.available().cores;
            if best.is_none_or(|(bc, bf, _)| (bc, bf) < (cached, free)) {
                best = Some((cached, free, w.id()));
            }
        }
        best.map(|(_, _, id)| id)
    }

    /// Cacheable file `i` of the random pools (two environments, two data).
    fn pool_file(i: u32) -> FileRef {
        match i % 4 {
            0 => FileRef::environment("env-a", 100, 600, 10, 1),
            1 => FileRef::environment("env-b", 100, 600, 10, 1),
            2 => FileRef::shared_data("calib", 10),
            _ => FileRef::shared_data("lookup", 10),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The indexed pick equals the reference full scan after any
        /// sequence of arrivals, allocations, frees, cache insertions,
        /// quarantines, releases and removals — with memory-bound and
        /// core-bound requests and tasks carrying 0–3 cacheable inputs.
        #[test]
        fn pick_worker_matches_brute_force_scan(
            ops in proptest::collection::vec((0u8..8, 0u32..16, 0u32..9, 0u64..9), 1..120)
        ) {
            let spec = NodeSpec::new(8, 8192, 16384);
            let mut workers: BTreeMap<u32, Worker> = BTreeMap::new();
            let mut held: BTreeMap<u32, Vec<Resources>> = BTreeMap::new();
            let mut ix = IndexedSched::new(SchedulePolicy::Fifo);
            let mut next_id = 0u32;
            for (op, a, b, c) in ops {
                // Operations address an existing worker by rank.
                let target = (!workers.is_empty())
                    .then(|| *workers.keys().nth(a as usize % workers.len()).unwrap());
                match (op, target) {
                    (0, _) | (_, None) => {
                        workers.insert(next_id, Worker::new(next_id, spec));
                        ix.worker_added(next_id, 8);
                        next_id += 1;
                    }
                    (1 | 2, Some(id)) => {
                        // Allocate a core- or memory-heavy slice.
                        let r = Resources::new(b.max(1), c * 1000 + 1, 100);
                        let w = workers.get_mut(&id).unwrap();
                        if w.node.allocate(r) {
                            held.entry(id).or_default().push(r);
                            if !w.quarantined {
                                ix.update_free(id, w.node.available().cores);
                            }
                        }
                    }
                    (3, Some(id)) => {
                        let w = workers.get_mut(&id).unwrap();
                        if let Some(r) = held.get_mut(&id).and_then(Vec::pop) {
                            w.node.free(r);
                            if !w.quarantined {
                                ix.update_free(id, w.node.available().cores);
                            }
                        }
                    }
                    (4, Some(id)) => {
                        let f = pool_file(b);
                        if workers.get_mut(&id).unwrap().insert_cached(&f) {
                            ix.file_cached(&f.name, id);
                        }
                    }
                    (5, Some(id)) => {
                        let w = workers.get_mut(&id).unwrap();
                        if w.quarantined {
                            w.quarantined = false;
                            ix.worker_online(id, w.node.available().cores);
                        } else {
                            w.quarantined = true;
                            ix.worker_offline(id);
                        }
                    }
                    (6, Some(id)) => {
                        workers.remove(&id);
                        held.remove(&id);
                        ix.worker_removed(id);
                    }
                    (_, Some(_)) => {}
                }
                // Probe with a task over up to three distinct cacheable
                // inputs (bits of `a`) plus per-task data.
                let mut inputs = vec![FileRef::data("in", 1)];
                inputs.extend((0..4).filter(|i| a & (1 << i) != 0).take(3).map(pool_file));
                let t = task(0, 1, inputs);
                for alloc in [
                    Resources::new(b.max(1), 100, 100),
                    Resources::new(1, c * 1000 + 1, 100),
                    Resources::new(8, 8192, 16384),
                ] {
                    proptest::prop_assert_eq!(
                        ix.pick_worker(&workers, &t, &alloc),
                        brute_pick(&workers, &t, &alloc),
                        "alloc {:?}",
                        alloc
                    );
                }
            }
        }
    }
}
