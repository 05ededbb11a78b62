//! Wait-state attribution: fixed wait classes and lock-free accumulators.
//!
//! The Vectorwise paper's operational lesson is that under concurrent load a
//! slow query and a fast query that *waited* look identical from wall time
//! alone. This module gives every profiled plan node a [`WaitStats`] cell:
//! the choke points where an operator can block (block I/O through the ABM,
//! a scan vector's decompression, hash-join build waits, spill I/O,
//! morsel-queue starvation) record the blocked nanoseconds into the class-indexed atomic
//! arrays. Subtracting total wait from `operator_next_ns` yields compute
//! time; `vw_waits` rolls the classes up per query.
//!
//! Recording is two relaxed atomic adds per *blocking event* — never per
//! value; the decode class records once per materialized vector — so the attribution machinery costs nothing on the fast path and
//! is safe to leave always-on alongside profiling.

use std::sync::atomic::{AtomicU64, Ordering};

/// The fixed set of wait classes. Indexes into [`WaitStats`] arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum WaitClass {
    /// Blocked reading a column block from (simulated) disk via the ABM.
    BlockIo = 0,
    /// Decompressing a scan vector's columns into the batch it returns: one
    /// event per materialized vector. vwbench reports it as
    /// `bufman.decode_cache.miss_decode_ms`, a name from when only
    /// decode-cache misses decoded.
    Decode = 1,
    /// Waiting for another worker to finish a shared hash-join build.
    BuildWait = 2,
    /// Reading spilled batches back from the spill disk.
    SpillRead = 3,
    /// Writing batches out to the spill disk under memory pressure.
    SpillWrite = 4,
    /// Morsel-queue claim time (starvation shows up as growth here).
    Morsel = 5,
    /// Blocked in the admission controller before execution began.
    Admission = 6,
}

/// Number of wait classes (array size for [`WaitStats`]).
pub const WAIT_CLASSES: usize = 7;

/// All wait classes in index order.
pub const ALL_WAIT_CLASSES: [WaitClass; WAIT_CLASSES] = [
    WaitClass::BlockIo,
    WaitClass::Decode,
    WaitClass::BuildWait,
    WaitClass::SpillRead,
    WaitClass::SpillWrite,
    WaitClass::Morsel,
    WaitClass::Admission,
];

impl WaitClass {
    /// Stable lower-case name, used as the `wait_class` column of `vw_waits`
    /// and as the suffix of per-operator `wait_<class>_ns` profile extras.
    pub fn name(self) -> &'static str {
        match self {
            WaitClass::BlockIo => "block_io",
            WaitClass::Decode => "decode",
            WaitClass::BuildWait => "build_wait",
            WaitClass::SpillRead => "spill_read",
            WaitClass::SpillWrite => "spill_write",
            WaitClass::Morsel => "morsel",
            WaitClass::Admission => "admission",
        }
    }

    /// `'static` extras key (`wait_<class>_ns`) for per-operator profiles.
    pub fn extra_key(self) -> &'static str {
        match self {
            WaitClass::BlockIo => "wait_block_io_ns",
            WaitClass::Decode => "wait_decode_ns",
            WaitClass::BuildWait => "wait_build_ns",
            WaitClass::SpillRead => "wait_spill_read_ns",
            WaitClass::SpillWrite => "wait_spill_write_ns",
            WaitClass::Morsel => "wait_morsel_ns",
            WaitClass::Admission => "wait_admission_ns",
        }
    }
}

/// Per-node (or per-query) wait accumulator: blocked nanoseconds and event
/// counts per wait class. Shared across Exchange workers of one plan node
/// via `Arc`, merged with relaxed adds exactly like the profile counters.
#[derive(Debug, Default)]
pub struct WaitStats {
    ns: [AtomicU64; WAIT_CLASSES],
    count: [AtomicU64; WAIT_CLASSES],
}

impl WaitStats {
    /// Fresh all-zero accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one blocking event of `ns` nanoseconds in `class`.
    pub fn record(&self, class: WaitClass, ns: u64) {
        self.ns[class as usize].fetch_add(ns, Ordering::Relaxed);
        self.count[class as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Total blocked nanoseconds in `class`.
    pub fn ns(&self, class: WaitClass) -> u64 {
        self.ns[class as usize].load(Ordering::Relaxed)
    }

    /// Number of blocking events in `class`.
    pub fn count(&self, class: WaitClass) -> u64 {
        self.count[class as usize].load(Ordering::Relaxed)
    }

    /// Sum of blocked nanoseconds across all classes.
    pub fn total_ns(&self) -> u64 {
        ALL_WAIT_CLASSES.iter().map(|&c| self.ns(c)).sum()
    }

    /// Fold another accumulator into this one (used when rolling per-node
    /// waits up to the query level).
    pub fn merge_from(&self, other: &WaitStats) {
        for c in ALL_WAIT_CLASSES {
            let i = c as usize;
            self.ns[i].fetch_add(other.ns[i].load(Ordering::Relaxed), Ordering::Relaxed);
            self.count[i].fetch_add(other.count[i].load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }

    /// Immutable snapshot of all classes (for storing in query history).
    pub fn snapshot(&self) -> WaitSnapshot {
        let mut ns = [0u64; WAIT_CLASSES];
        let mut count = [0u64; WAIT_CLASSES];
        for c in ALL_WAIT_CLASSES {
            let i = c as usize;
            ns[i] = self.ns[i].load(Ordering::Relaxed);
            count[i] = self.count[i].load(Ordering::Relaxed);
        }
        WaitSnapshot { ns, count }
    }
}

/// Plain-data snapshot of a [`WaitStats`], stored per query in history.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WaitSnapshot {
    /// Blocked nanoseconds, indexed by `WaitClass as usize`.
    pub ns: [u64; WAIT_CLASSES],
    /// Blocking event counts, indexed by `WaitClass as usize`.
    pub count: [u64; WAIT_CLASSES],
}

impl WaitSnapshot {
    /// Blocked nanoseconds in `class`.
    pub fn ns(&self, class: WaitClass) -> u64 {
        self.ns[class as usize]
    }

    /// Blocking event count in `class`.
    pub fn count(&self, class: WaitClass) -> u64 {
        self.count[class as usize]
    }

    /// Sum of blocked nanoseconds across all classes.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Add a single event (used to fold query-level waits like admission
    /// into a snapshot captured from operator-level stats).
    pub fn add(&mut self, class: WaitClass, ns: u64, count: u64) {
        self.ns[class as usize] += ns;
        self.count[class as usize] += count;
    }

    /// Fold another snapshot into this one.
    pub fn merge(&mut self, other: &WaitSnapshot) {
        for i in 0..WAIT_CLASSES {
            self.ns[i] += other.ns[i];
            self.count[i] += other.count[i];
        }
    }
}

/// Times a blocking region into a [`WaitStats`] on drop. Constructing one
/// takes a single `Instant::now()`; the choke points are per-block /
/// per-build events, never per-tuple.
pub struct WaitTimer<'a> {
    stats: &'a WaitStats,
    class: WaitClass,
    start: std::time::Instant,
}

impl<'a> WaitTimer<'a> {
    /// Start timing a blocking region of `class` against `stats`.
    pub fn start(stats: &'a WaitStats, class: WaitClass) -> Self {
        WaitTimer {
            stats,
            class,
            start: std::time::Instant::now(),
        }
    }
}

impl Drop for WaitTimer<'_> {
    fn drop(&mut self) {
        self.stats
            .record(self.class, self.start.elapsed().as_nanos() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot() {
        let w = WaitStats::new();
        w.record(WaitClass::BlockIo, 100);
        w.record(WaitClass::BlockIo, 50);
        w.record(WaitClass::Decode, 7);
        assert_eq!(w.ns(WaitClass::BlockIo), 150);
        assert_eq!(w.count(WaitClass::BlockIo), 2);
        assert_eq!(w.total_ns(), 157);
        let s = w.snapshot();
        assert_eq!(s.ns(WaitClass::BlockIo), 150);
        assert_eq!(s.count(WaitClass::Decode), 1);
        assert_eq!(s.total_ns(), 157);
    }

    #[test]
    fn merge_accumulates() {
        let a = WaitStats::new();
        let b = WaitStats::new();
        a.record(WaitClass::SpillWrite, 10);
        b.record(WaitClass::SpillWrite, 5);
        b.record(WaitClass::Morsel, 3);
        a.merge_from(&b);
        assert_eq!(a.ns(WaitClass::SpillWrite), 15);
        assert_eq!(a.count(WaitClass::SpillWrite), 2);
        assert_eq!(a.ns(WaitClass::Morsel), 3);

        let mut s = a.snapshot();
        s.add(WaitClass::Admission, 1000, 1);
        assert_eq!(s.ns(WaitClass::Admission), 1000);
        let mut t = WaitSnapshot::default();
        t.merge(&s);
        assert_eq!(t.total_ns(), s.total_ns());
    }

    #[test]
    fn timer_records_on_drop() {
        let w = WaitStats::new();
        {
            let _t = WaitTimer::start(&w, WaitClass::BuildWait);
        }
        assert_eq!(w.count(WaitClass::BuildWait), 1);
    }

    #[test]
    fn names_are_stable() {
        for c in ALL_WAIT_CLASSES {
            assert!(c.extra_key().starts_with("wait_"));
            assert!(c.extra_key().ends_with("_ns"));
        }
        assert_eq!(WaitClass::BlockIo.name(), "block_io");
        assert_eq!(WaitClass::Admission.name(), "admission");
    }
}
