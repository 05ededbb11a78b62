//! Execution-memory governance.
//!
//! A query gets one [`MemBudget`]: a byte budget shared by every operator in
//! the plan and by every Exchange worker (they all clone the same `Arc`
//! through `ExecContext`). Each stateful operator (hash-join build, hash
//! aggregation table, sort buffer) holds a [`MemTracker`] — a per-plan-node
//! ledger onto the shared budget.
//!
//! The pressure protocol is deliberately simple:
//!
//! 1. Operators call [`MemTracker::try_grow`] *before* materializing more
//!    state. `false` means the query-wide budget is exhausted — the operator
//!    must spill something (releasing its reservation) before retrying.
//! 2. A minimal working unit (one input vector, one spill partition being
//!    drained, one merge cursor per sorted run) is reserved with
//!    [`MemTracker::force_grow`], which may overshoot the budget. This
//!    guarantees every plan completes under *any* budget — the budget bounds
//!    materialized state, it never aborts a query.
//! 3. Reservations are released when state is spilled or the operator
//!    finishes; dropping a tracker releases whatever it still holds.
//!
//! Accounting is coarse-grained on purpose: operators reserve per input
//! batch or per group-chunk, not per row, so the unbounded fast path costs
//! one atomic add per batch.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use vw_common::config::EngineConfig;

/// Sentinel for "no limit" in the atomic field.
const UNBOUNDED: u64 = u64::MAX;

/// Query-wide execution-memory budget. Thread-safe; shared via `Arc` across
/// all Exchange workers of one query.
///
/// A budget may be *chained* onto a parent ledger (the database-wide
/// admission ledger): every reservation is then forwarded 1:1 to the parent,
/// so concurrent queries see each other's pressure while each query's own
/// `limit`/`peak`/spill counters stay per-query. Spill accounting is **not**
/// forwarded — spills are a per-query event.
#[derive(Debug)]
pub struct MemBudget {
    /// Byte limit (`UNBOUNDED` = no limit).
    limit: u64,
    /// Currently reserved bytes across all trackers.
    reserved: AtomicU64,
    /// High-water mark of `reserved`.
    peak: AtomicU64,
    /// Total bytes written to spill files under this budget.
    spill_bytes: AtomicU64,
    /// Number of spill events (partitions flushed / sorted runs written).
    spill_events: AtomicU64,
    /// Optional parent ledger every reservation is forwarded to.
    parent: Option<Arc<MemBudget>>,
}

impl MemBudget {
    /// A budget with the given byte limit (`None` = unbounded).
    pub fn new(limit: Option<usize>) -> Self {
        MemBudget {
            limit: limit.map_or(UNBOUNDED, |l| l as u64),
            reserved: AtomicU64::new(0),
            peak: AtomicU64::new(0),
            spill_bytes: AtomicU64::new(0),
            spill_events: AtomicU64::new(0),
            parent: None,
        }
    }

    /// A per-query budget chained onto a shared parent ledger. Reservations
    /// count against *both* limits; either can signal pressure.
    pub fn chained(limit: Option<usize>, parent: Arc<MemBudget>) -> Self {
        let mut b = MemBudget::new(limit);
        b.parent = Some(parent);
        b
    }

    /// An unbounded budget (accounting still runs; nothing ever spills).
    pub fn unbounded() -> Self {
        MemBudget::new(None)
    }

    /// The budget configured in `EngineConfig`.
    pub fn from_config(config: &EngineConfig) -> Self {
        MemBudget::new(config.mem_budget_bytes)
    }

    /// The byte limit, if any.
    pub fn limit(&self) -> Option<u64> {
        (self.limit != UNBOUNDED).then_some(self.limit)
    }

    /// Try to reserve `bytes`; fails (reserving nothing) if that would
    /// exceed the limit — either this budget's own limit or the parent
    /// ledger's.
    pub fn try_reserve(&self, bytes: u64) -> bool {
        if !self.try_reserve_local(bytes) {
            return false;
        }
        if let Some(parent) = &self.parent {
            if !parent.try_reserve(bytes) {
                // Roll back the local reservation exactly; nothing leaked.
                self.reserved.fetch_sub(bytes, Ordering::Relaxed);
                return false;
            }
        }
        true
    }

    fn try_reserve_local(&self, bytes: u64) -> bool {
        let mut cur = self.reserved.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(bytes);
            if next > self.limit {
                return false;
            }
            match self.reserved.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.note_peak(next);
                    return true;
                }
                Err(actual) => cur = actual,
            }
        }
    }

    /// Reserve `bytes` unconditionally, possibly overshooting the limit
    /// (minimal-working-unit reservations — see module docs).
    pub fn force_reserve(&self, bytes: u64) {
        let next = self.reserved.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.note_peak(next);
        if let Some(parent) = &self.parent {
            parent.force_reserve(bytes);
        }
    }

    /// Release a prior reservation. Saturating: an over-release clamps to
    /// zero instead of wrapping the ledger to ~`u64::MAX` (which would
    /// permanently block every subsequent `try_reserve`).
    pub fn release(&self, bytes: u64) {
        let prev = self
            .reserved
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                Some(cur.saturating_sub(bytes))
            })
            .expect("fetch_update closure always returns Some");
        debug_assert!(
            prev >= bytes,
            "MemBudget over-release: releasing {} with only {} reserved",
            bytes,
            prev
        );
        if let Some(parent) = &self.parent {
            // Forward only what was actually subtracted locally, so an
            // over-release here can't drain someone else's parent bytes.
            parent.release(bytes.min(prev));
        }
    }

    fn note_peak(&self, candidate: u64) {
        self.peak.fetch_max(candidate, Ordering::Relaxed);
    }

    /// Record `bytes` written to a spill file (one spill event).
    pub fn note_spill(&self, bytes: u64) {
        self.spill_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.spill_events.fetch_add(1, Ordering::Relaxed);
    }

    /// Currently reserved bytes.
    pub fn reserved(&self) -> u64 {
        self.reserved.load(Ordering::Relaxed)
    }

    /// High-water mark of reserved bytes.
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// Point-in-time snapshot for `QueryProfile`.
    pub fn stats(&self) -> MemStats {
        MemStats {
            limit: self.limit(),
            peak: self.peak(),
            spill_bytes: self.spill_bytes.load(Ordering::Relaxed),
            spill_events: self.spill_events.load(Ordering::Relaxed),
        }
    }
}

/// Snapshot of a budget's counters, carried on `QueryProfile`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemStats {
    pub limit: Option<u64>,
    pub peak: u64,
    pub spill_bytes: u64,
    pub spill_events: u64,
}

/// Per-plan-node ledger onto a shared [`MemBudget`]. Not thread-safe — each
/// operator instance owns its own tracker (Exchange workers compile their
/// own operator clones, so each gets one).
#[derive(Debug)]
pub struct MemTracker {
    budget: Arc<MemBudget>,
    reserved: u64,
    peak: u64,
    spill_bytes: u64,
    spill_events: u64,
}

impl MemTracker {
    pub fn new(budget: Arc<MemBudget>) -> Self {
        MemTracker {
            budget,
            reserved: 0,
            peak: 0,
            spill_bytes: 0,
            spill_events: 0,
        }
    }

    /// A tracker onto a private unbounded budget (operator unit tests and
    /// direct construction outside `compile`).
    pub fn detached() -> Self {
        MemTracker::new(Arc::new(MemBudget::unbounded()))
    }

    /// The shared budget this tracker reserves against.
    pub fn budget(&self) -> &Arc<MemBudget> {
        &self.budget
    }

    /// True if the budget has a byte limit (i.e. spilling can happen).
    pub fn bounded(&self) -> bool {
        self.budget.limit().is_some()
    }

    /// Try to reserve `bytes` more; `false` signals memory pressure and
    /// reserves nothing.
    pub fn try_grow(&mut self, bytes: usize) -> bool {
        if self.budget.try_reserve(bytes as u64) {
            self.grew(bytes as u64);
            true
        } else {
            false
        }
    }

    /// Reserve `bytes` unconditionally (minimal working unit).
    pub fn force_grow(&mut self, bytes: usize) {
        self.budget.force_reserve(bytes as u64);
        self.grew(bytes as u64);
    }

    fn grew(&mut self, bytes: u64) {
        self.reserved += bytes;
        self.peak = self.peak.max(self.reserved);
    }

    /// Release part of this tracker's reservation.
    pub fn shrink(&mut self, bytes: usize) {
        let bytes = (bytes as u64).min(self.reserved);
        self.reserved -= bytes;
        self.budget.release(bytes);
    }

    /// Bring the share of this reservation a caller tracks in `*held` to
    /// `want` bytes (a structure's heap footprint, re-measured). Shrinking
    /// always succeeds; growth the budget refuses changes nothing and returns
    /// `false`, unless `force`.
    pub fn resize(&mut self, held: &mut usize, want: usize, force: bool) -> bool {
        if want <= *held {
            self.shrink(*held - want);
        } else if force {
            self.force_grow(want - *held);
        } else if !self.try_grow(want - *held) {
            return false;
        }
        *held = want;
        true
    }

    /// Release everything this tracker holds.
    pub fn release_all(&mut self) {
        self.budget.release(self.reserved);
        self.reserved = 0;
    }

    /// Record `bytes` written to a spill file (one spill event: a flushed
    /// partition or a sorted run).
    pub fn note_spill(&mut self, bytes: u64) {
        self.spill_bytes += bytes;
        self.spill_events += 1;
        self.budget.note_spill(bytes);
    }

    /// Bytes currently reserved by this tracker.
    pub fn reserved(&self) -> u64 {
        self.reserved
    }

    /// This tracker's high-water mark.
    pub fn peak(&self) -> u64 {
        self.peak
    }

    /// Bytes this tracker spilled.
    pub fn spill_bytes(&self) -> u64 {
        self.spill_bytes
    }

    /// Spill events (partitions / runs) this tracker wrote.
    pub fn spill_events(&self) -> u64 {
        self.spill_events
    }
}

impl Drop for MemTracker {
    fn drop(&mut self) {
        self.budget.release(self.reserved);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_never_pressures() {
        let b = MemBudget::unbounded();
        assert!(b.limit().is_none());
        assert!(b.try_reserve(u64::MAX / 2));
        assert_eq!(b.reserved(), u64::MAX / 2);
    }

    #[test]
    fn limit_enforced_and_peak_tracked() {
        let b = MemBudget::new(Some(1000));
        assert!(b.try_reserve(600));
        assert!(!b.try_reserve(500), "would exceed limit");
        assert_eq!(b.reserved(), 600, "failed reserve must not leak");
        assert!(b.try_reserve(400));
        b.release(1000);
        assert_eq!(b.reserved(), 0);
        assert_eq!(b.peak(), 1000);
    }

    #[test]
    fn force_reserve_overshoots() {
        let b = MemBudget::new(Some(100));
        b.force_reserve(250);
        assert_eq!(b.reserved(), 250);
        assert_eq!(b.peak(), 250);
        assert!(!b.try_reserve(1));
    }

    #[test]
    fn tracker_releases_on_drop() {
        let budget = Arc::new(MemBudget::new(Some(1000)));
        {
            let mut t = MemTracker::new(budget.clone());
            assert!(t.try_grow(700));
            assert!(!t.try_grow(700));
            t.shrink(200);
            assert_eq!(t.reserved(), 500);
            assert_eq!(budget.reserved(), 500);
            assert_eq!(t.peak(), 700);
        }
        assert_eq!(budget.reserved(), 0, "drop releases the remainder");
        assert_eq!(budget.peak(), 700);
    }

    #[test]
    fn spill_counters_roll_up() {
        let budget = Arc::new(MemBudget::new(Some(64)));
        let mut a = MemTracker::new(budget.clone());
        let mut b = MemTracker::new(budget.clone());
        a.note_spill(100);
        a.note_spill(50);
        b.note_spill(25);
        assert_eq!(a.spill_bytes(), 150);
        assert_eq!(a.spill_events(), 2);
        let s = budget.stats();
        assert_eq!(s.spill_bytes, 175);
        assert_eq!(s.spill_events, 3);
        assert_eq!(s.limit, Some(64));
    }

    /// Regression: `release` used a raw `fetch_sub`, so an over-release
    /// wrapped `reserved` to ~u64::MAX and permanently blocked every
    /// subsequent `try_reserve`. It must saturate at zero instead.
    #[test]
    fn over_release_saturates_instead_of_wrapping() {
        let b = Arc::new(MemBudget::new(Some(1000)));
        assert!(b.try_reserve(100));
        // A buggy caller releases more than it holds. Debug builds trip the
        // debug_assert (caught here); either way the ledger must clamp to
        // zero, not wrap.
        let b2 = b.clone();
        let _ = std::panic::catch_unwind(move || b2.release(400));
        assert_eq!(b.reserved(), 0, "ledger clamps to zero");
        assert!(b.try_reserve(500), "budget still usable after over-release");
        assert_eq!(b.reserved(), 500);
    }

    #[test]
    fn chained_budget_forwards_to_parent() {
        let parent = Arc::new(MemBudget::new(Some(1000)));
        let child = MemBudget::chained(Some(1000), parent.clone());
        assert!(child.try_reserve(600));
        assert_eq!(parent.reserved(), 600);
        child.release(200);
        assert_eq!(child.reserved(), 400);
        assert_eq!(parent.reserved(), 400);
        child.force_reserve(700);
        assert_eq!(child.reserved(), 1100, "force overshoots both");
        assert_eq!(parent.reserved(), 1100);
        child.release(1100);
        assert_eq!(parent.reserved(), 0);
    }

    #[test]
    fn parent_pressure_fails_child_reserve_exactly() {
        let parent = Arc::new(MemBudget::new(Some(1000)));
        let sibling = MemBudget::chained(Some(1000), parent.clone());
        let child = MemBudget::chained(Some(1000), parent.clone());
        assert!(sibling.try_reserve(800));
        // Child's own limit allows 500, but the parent only has 200 left:
        // the reservation must fail and roll back the child's own ledger.
        assert!(!child.try_reserve(500));
        assert_eq!(child.reserved(), 0, "failed reserve rolled back locally");
        assert_eq!(parent.reserved(), 800, "parent untouched by the failure");
        assert!(child.try_reserve(200));
        assert_eq!(parent.reserved(), 1000);
    }

    #[test]
    fn chained_spills_stay_per_query() {
        let parent = Arc::new(MemBudget::new(Some(1000)));
        let child = MemBudget::chained(Some(1000), parent.clone());
        child.note_spill(64);
        assert_eq!(child.stats().spill_events, 1);
        assert_eq!(parent.stats().spill_events, 0, "spills are per-query");
    }

    #[test]
    fn trackers_share_one_budget() {
        let budget = Arc::new(MemBudget::new(Some(1000)));
        let mut a = MemTracker::new(budget.clone());
        let mut b = MemTracker::new(budget.clone());
        assert!(a.try_grow(600));
        assert!(!b.try_grow(600), "other tracker sees the pressure");
        assert!(b.try_grow(400));
        a.release_all();
        assert!(b.try_grow(600));
    }
}
