//! Morsel-driven parallel execution state (shared across Exchange workers).
//!
//! Every table scan claims its units from a [`MorselQueue`], planned when
//! the scan first runs. Inside an Exchange the queue is shared: the P
//! workers' scans of one plan position pull from it, in the spirit of
//! morsel-driven parallelism (Leis et al., SIGMOD 2014) grafted onto the
//! Vectorwise Volcano-style Exchange, instead of owning a static `(worker,
//! P)` modulo slice of the row groups — one oversized or unpruned group no
//! longer serializes the query behind a single worker. Any other scan plans
//! a private queue of one lane. This module holds:
//!
//! * [`MorselQueue`] — a work-stealing queue of scan units (row groups + the
//!   PDT append tail) behind atomic cursors. Workers claim the next unit
//!   when they are ready, so skewed group sizes self-balance and every unit
//!   is scanned exactly once.
//! * [`SharedBuild`] — a once-cell for a hash join's build side: the first
//!   worker to reach the join executes the build child, everyone else waits
//!   and shares the frozen [`BuildData`](crate::operators::BuildData) behind
//!   an `Arc`. Build errors (and builder panics) propagate to all waiters.
//! * [`SharedExec`] — the per-Exchange registry mapping plan positions to
//!   the above. Workers compile identical clones of the same plan, so a
//!   `(TableId, occurrence)` key for scans and a preorder join index line up
//!   across threads without any coordination at plan time.
//! * [`ExecStats`] — atomic counters observable from tests ("the build ran
//!   exactly once", "every morsel was claimed").
//!
//! Every queue carries a [`ScanProgress`] counter and at most one
//! cooperative-scan registration with the buffer manager
//! (`vw_bufman::Abm`), whose progress is that counter: the P workers of a
//! shared queue clone the one registration, so the ABM's relevance and
//! starvation policy sees them as ONE logical scan whose progress is the
//! number of morsels claimed.

use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use vw_bufman::{CoopScanHandle, ScanProgress};
use vw_common::{Result, TableId, VwError};

use crate::operators::BuildData;

/// One claimable unit of scan work: a storage row group or the virtual
/// group of PDT appends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Morsel {
    Group(usize),
    AppendTail,
}

/// Counters for observing parallel execution from tests and benches.
#[derive(Debug, Default)]
pub struct ExecStats {
    morsels_claimed: AtomicUsize,
    builds_executed: AtomicUsize,
}

impl ExecStats {
    pub fn morsels_claimed(&self) -> usize {
        self.morsels_claimed.load(Ordering::Relaxed)
    }

    pub fn builds_executed(&self) -> usize {
        self.builds_executed.load(Ordering::Relaxed)
    }

    pub(crate) fn note_morsel(&self) {
        self.morsels_claimed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_build(&self) {
        self.builds_executed.fetch_add(1, Ordering::Relaxed);
    }
}

/// One partition lane of a [`MorselQueue`]: a contiguous index range of the
/// unit list with its own claim cursor.
struct Lane {
    start: usize,
    end: usize,
    cursor: AtomicUsize,
}

/// Work-stealing queue over one table scan's units.
///
/// The unit list is fixed at creation (pruned row groups + append tail); an
/// atomic cursor hands each unit to exactly one claimant. Claim order is the
/// list order; *which worker* gets a unit is decided entirely by runtime
/// readiness, which is what balances skew.
///
/// For range-partitioned tables an Exchange's queue splits the units into
/// per-partition **lanes**. [`MorselQueue::claim_for`] keeps each worker inside its home
/// lane (`worker % lanes`) while it has work — so a worker streams one
/// device sequentially instead of ping-ponging across disks — and steals
/// from the next non-drained lane only once its own runs dry. A private
/// queue is one lane, so it hands out its units in storage order.
pub struct MorselQueue {
    units: Vec<Morsel>,
    lanes: Vec<Lane>,
    progress: Arc<ScanProgress>,
    stats: Option<Arc<ExecStats>>,
    /// The ONE cooperative-scan registration shared by every worker of this
    /// queue's scan; each worker clones the handle, so the ABM sees P threads
    /// as a single logical scan.
    coop: Mutex<Option<CoopScanHandle>>,
}

impl MorselQueue {
    /// A queue over `units`, split into partition lanes: `lanes` are
    /// `(start, end)` index ranges into `units`, in order; an empty list is
    /// one lane over every unit, which hands them out in list order to any
    /// worker. Claims count into `stats` when given.
    pub fn new(
        units: Vec<Morsel>,
        mut lanes: Vec<(usize, usize)>,
        stats: Option<Arc<ExecStats>>,
    ) -> Arc<MorselQueue> {
        if lanes.is_empty() {
            lanes.push((0, units.len()));
        }
        let lanes = lanes
            .into_iter()
            .map(|(start, end)| Lane {
                start,
                end: end.min(units.len()),
                cursor: AtomicUsize::new(0),
            })
            .collect();
        Arc::new(MorselQueue {
            units,
            lanes,
            progress: ScanProgress::new(),
            stats,
            coop: Mutex::new(None),
        })
    }

    /// Claim for a specific worker: its home partition lane first, stealing
    /// from the next non-drained lane only when the home lane is empty.
    pub fn claim_for(&self, worker: usize) -> Option<Morsel> {
        let n = self.lanes.len();
        let home = worker % n;
        for k in 0..n {
            let lane = &self.lanes[(home + k) % n];
            let i = lane.cursor.fetch_add(1, Ordering::Relaxed);
            if let Some(m) = lane
                .start
                .checked_add(i)
                .filter(|&u| u < lane.end)
                .map(|u| self.units[u])
            {
                self.progress.advance(1);
                if let Some(s) = &self.stats {
                    s.note_morsel();
                }
                return Some(m);
            }
        }
        None
    }

    /// Number of partition lanes (1 = unpartitioned).
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Total units in the queue (claimed or not).
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// The fixed unit list this queue hands out (claimed or not).
    pub fn units(&self) -> &[Morsel] {
        &self.units
    }

    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// The logical scan's progress counter (morsels claimed so far). Register
    /// this with `Abm::register_scan_with_progress` to make P workers count
    /// as one cooperative scan.
    pub fn progress(&self) -> Arc<ScanProgress> {
        self.progress.clone()
    }

    /// Clone this queue's shared cooperative-scan handle, registering it via
    /// `register` on first touch. All workers compiling against the same
    /// queue end up with clones of ONE registration.
    pub fn coop_or_register(&self, register: impl FnOnce() -> CoopScanHandle) -> CoopScanHandle {
        let mut g = self.coop.lock();
        g.get_or_insert_with(register).clone()
    }
}

enum BuildState {
    Idle,
    Building,
    Done(Result<Arc<BuildData>>),
}

/// Once-cell for a hash join build side shared by all probe workers.
pub struct SharedBuild {
    state: Mutex<BuildState>,
    cv: Condvar,
}

impl Default for SharedBuild {
    fn default() -> Self {
        SharedBuild {
            state: Mutex::new(BuildState::Idle),
            cv: Condvar::new(),
        }
    }
}

impl SharedBuild {
    /// Return the shared build, executing `build` on the first caller. Other
    /// callers block until it finishes; a build error is cloned to everyone.
    /// If the builder panics, waiters receive an `Exec` error instead of
    /// deadlocking, and the panic resumes on the building thread.
    pub fn get_or_build(
        &self,
        build: impl FnOnce() -> Result<BuildData>,
    ) -> Result<Arc<BuildData>> {
        let mut g = self.state.lock();
        loop {
            match &*g {
                BuildState::Done(r) => return r.clone(),
                BuildState::Building => self.cv.wait(&mut g),
                BuildState::Idle => {
                    *g = BuildState::Building;
                    drop(g);
                    // Poison the slot if `build` unwinds so waiters wake.
                    struct Unpoison<'a>(&'a SharedBuild, bool);
                    impl Drop for Unpoison<'_> {
                        fn drop(&mut self) {
                            if !self.1 {
                                *self.0.state.lock() = BuildState::Done(Err(VwError::Exec(
                                    "join build side panicked".into(),
                                )));
                                self.0.cv.notify_all();
                            }
                        }
                    }
                    let mut guard = Unpoison(self, false);
                    let result = build().map(Arc::new);
                    guard.1 = true;
                    drop(guard);
                    *self.state.lock() = BuildState::Done(result.clone());
                    self.cv.notify_all();
                    return result;
                }
            }
        }
    }
}

/// Per-Exchange shared execution state.
///
/// Created once in `Exchange::spawn` and cloned into every worker's
/// `ExecContext`. All workers compile identical plan clones in the same
/// preorder, so position-derived keys — the Nth scan of table T, the Nth
/// join — resolve to the same shared object on every thread.
pub struct SharedExec {
    dop: usize,
    stats: Arc<ExecStats>,
    morsels: Mutex<HashMap<(TableId, usize), Arc<MorselQueue>>>,
    builds: Mutex<HashMap<usize, Arc<SharedBuild>>>,
}

impl SharedExec {
    pub fn new(dop: usize, stats: Arc<ExecStats>) -> Arc<SharedExec> {
        Arc::new(SharedExec {
            dop: dop.max(1),
            stats,
            morsels: Mutex::new(HashMap::new()),
            builds: Mutex::new(HashMap::new()),
        })
    }

    /// Degree of parallelism of the owning Exchange.
    pub fn dop(&self) -> usize {
        self.dop
    }

    pub fn stats(&self) -> Arc<ExecStats> {
        self.stats.clone()
    }

    /// The morsel queue for the `occurrence`-th scan of `table` in the plan,
    /// planned by `plan` on first touch (with this Exchange's counters to
    /// count claims into).
    pub fn morsel_queue(
        &self,
        table: TableId,
        occurrence: usize,
        plan: impl FnOnce(Arc<ExecStats>) -> Arc<MorselQueue>,
    ) -> Arc<MorselQueue> {
        let mut g = self.morsels.lock();
        g.entry((table, occurrence))
            .or_insert_with(|| plan(self.stats.clone()))
            .clone()
    }

    /// The shared build slot for the `occurrence`-th join in the plan.
    pub fn build_slot(&self, occurrence: usize) -> Arc<SharedBuild> {
        let mut g = self.builds.lock();
        g.entry(occurrence).or_default().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_hands_each_unit_exactly_once() {
        let units: Vec<Morsel> = (0..100).map(Morsel::Group).collect();
        let q = MorselQueue::new(units, Vec::new(), None);
        let mut handles = Vec::new();
        for worker in 0..4 {
            let q = q.clone();
            handles.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(m) = q.claim_for(worker) {
                    got.push(m);
                }
                got
            }));
        }
        let mut all: Vec<Morsel> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        assert_eq!(all.len(), 100);
        all.sort_by_key(|m| match m {
            Morsel::Group(g) => *g,
            Morsel::AppendTail => usize::MAX,
        });
        all.dedup();
        assert_eq!(all.len(), 100, "a unit was claimed twice");
        assert_eq!(q.progress().get(), 100);
        assert!(q.claim_for(0).is_none());
    }

    #[test]
    fn lanes_keep_workers_home_until_drained() {
        // 3 lanes of 4 units each.
        let units: Vec<Morsel> = (0..12).map(Morsel::Group).collect();
        let q = MorselQueue::new(units, vec![(0, 4), (4, 8), (8, 12)], None);
        assert_eq!(q.lane_count(), 3);
        // Worker 1 drains its home lane (units 4..8) first.
        let mut w1 = Vec::new();
        for _ in 0..4 {
            w1.push(q.claim_for(1).unwrap());
        }
        assert_eq!(w1, (4..8).map(Morsel::Group).collect::<Vec<_>>());
        // Home drained: worker 1 steals from the next lane (8..12).
        assert_eq!(q.claim_for(1), Some(Morsel::Group(8)));
        // Worker 0 still finds its own lane untouched.
        assert_eq!(q.claim_for(0), Some(Morsel::Group(0)));
        // Drain everything; each unit is handed out exactly once.
        let mut rest = Vec::new();
        while let Some(m) = q.claim_for(2) {
            rest.push(m);
        }
        assert!(q.claim_for(0).is_none());
        let mut all: Vec<_> = w1
            .into_iter()
            .chain([Morsel::Group(8), Morsel::Group(0)])
            .chain(rest)
            .collect();
        all.sort_by_key(|m| match m {
            Morsel::Group(g) => *g,
            Morsel::AppendTail => usize::MAX,
        });
        assert_eq!(all, (0..12).map(Morsel::Group).collect::<Vec<_>>());
        assert_eq!(q.progress().get(), 12);
    }

    #[test]
    fn shared_build_runs_once_and_fans_out() {
        let slot = Arc::new(SharedBuild::default());
        let ran = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let slot = slot.clone();
            let ran = ran.clone();
            handles.push(std::thread::spawn(move || {
                slot.get_or_build(|| {
                    ran.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    Ok(BuildData::empty())
                })
            }));
        }
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(results.iter().all(|r| r.is_ok()));
        assert_eq!(
            ran.load(Ordering::SeqCst),
            1,
            "build executed more than once"
        );
        // All waiters share the same Arc.
        let first = results[0].as_ref().unwrap();
        assert!(results
            .iter()
            .all(|r| Arc::ptr_eq(r.as_ref().unwrap(), first)));
    }

    #[test]
    fn shared_build_error_reaches_all_waiters() {
        let slot = Arc::new(SharedBuild::default());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let slot = slot.clone();
            handles.push(std::thread::spawn(move || {
                slot.get_or_build(|| Err(VwError::Exec("boom".into())))
            }));
        }
        for h in handles {
            assert!(h.join().unwrap().is_err());
        }
    }

    #[test]
    fn shared_build_panic_poisons_instead_of_deadlocking() {
        let slot = Arc::new(SharedBuild::default());
        let s2 = slot.clone();
        let builder = std::thread::spawn(move || {
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                s2.get_or_build(|| panic!("builder died"))
            }));
        });
        builder.join().unwrap();
        // A later worker must see an error, not hang.
        let r = slot.get_or_build(|| Ok(BuildData::empty()));
        assert!(matches!(r, Err(VwError::Exec(_))));
    }

    #[test]
    fn queue_progress_feeds_cooperative_scan() {
        use vw_bufman::Abm;
        use vw_storage::{SimDisk, SimDiskConfig};
        let disk = Arc::new(SimDisk::new(SimDiskConfig::default()));
        let ids: Vec<_> = (0..6)
            .map(|i| disk.write_block(vec![i as u8; 64]))
            .collect();
        let abm = Abm::new(disk, 1 << 20);
        let q = MorselQueue::new((0..6).map(Morsel::Group).collect(), Vec::new(), None);
        // One logical scan for the whole Exchange gang: the registration's
        // progress IS the queue's claim counter, and worker handles are
        // clones of one registration.
        let handle = abm.register_scan_with_progress(ids, Some(q.progress()));
        let mut workers = [handle.clone(), handle];
        let mut seen = std::collections::HashSet::new();
        'outer: loop {
            for (worker, w) in workers.iter_mut().enumerate() {
                if q.claim_for(worker).is_none() {
                    break 'outer;
                }
                let (id, _) = w.next().unwrap().expect("block for claimed morsel");
                assert!(seen.insert(id), "block delivered twice");
            }
        }
        assert_eq!(seen.len(), 6, "workers together cover every block once");
        assert_eq!(q.progress().get(), 6);
        assert_eq!(
            abm.stats().loads,
            6,
            "one logical scan: each block loaded once"
        );
    }

    #[test]
    fn shared_exec_keys_are_stable() {
        let shared = SharedExec::new(4, Arc::new(ExecStats::default()));
        let t = TableId::new(7);
        let plan = |n: usize| {
            move |stats| MorselQueue::new((0..n).map(Morsel::Group).collect(), vec![], Some(stats))
        };
        let q1 = shared.morsel_queue(t, 0, plan(1));
        let q2 = shared.morsel_queue(t, 0, |_| panic!("must reuse existing queue"));
        assert!(Arc::ptr_eq(&q1, &q2));
        let other = shared.morsel_queue(t, 1, plan(2));
        assert!(!Arc::ptr_eq(&q1, &other));
        // Claims on a planned queue count into the Exchange's counters.
        assert_eq!(other.claim_for(3), Some(Morsel::Group(0)));
        assert_eq!(shared.stats().morsels_claimed(), 1);
        let b1 = shared.build_slot(0);
        let b2 = shared.build_slot(0);
        assert!(Arc::ptr_eq(&b1, &b2));
    }
}
