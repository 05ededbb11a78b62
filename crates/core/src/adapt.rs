//! Runtime adaptivity: micro-adaptive predicate ordering and the
//! aggregation-path feedback store.
//!
//! A vectorized engine can observe its own execution almost for free: one
//! counter add and one coarse timestamp per *vector* (not per tuple) is
//! amortized over ~1K values, the same argument the paper makes for
//! always-on profiling. [`AdaptiveOrder`] exploits that to keep conjuncts
//! ranked by observed cost-per-eliminated-row, re-deciding every few
//! row-groups so the order tracks data drift across a table (e.g. a
//! clustered date column whose predicate goes from all-pass to all-fail
//! mid-scan).
//!
//! Correctness note: both consumers evaluate a conjunction as a chain — each
//! conjunct narrows what the ones before it left (a candidate list over the
//! encoded blocks in the scan, the batch's selection vector in the filter) —
//! and the rows that pass every conjunct are the same in any order, so any
//! order produces bit-identical results. Adaptivity changes only how much
//! work is spent discovering the same rows; the property tests in
//! `tests/adaptive.rs` pin this down. What an order *can* change is whether
//! a conjunct that raises an error (a division, a cast) meets the row it
//! raises on, so such conjuncts are never ranked: they keep their place at
//! the end of the chain ([`AdaptiveOrder::pin_tail`]), behind every conjunct
//! that cannot fail.
//!
//! [`AggFeedback`] is the cross-query half: per `(table, key-set)` it
//! remembers observed group counts and perfect-hash refusals (budget or
//! domain blowups) so `compile` can stop re-trying a perfect-hash layout the
//! data has already proven wrong, and EXPLAIN ANALYZE can say why.

use std::collections::HashMap;
use std::sync::Mutex;

/// Re-rank after this many vectors in a scan (~8K rows at the default
/// vector size — several re-decisions per 64K-row group, and small tables
/// with a single row group still adapt).
pub const SCAN_RERANK_VECTORS: u64 = 8;
/// Re-rank after this many batches in a vectorized filter (~16K rows).
pub const FILTER_RERANK_BATCHES: u64 = 16;

/// Per-conjunct running accumulators. All costs are totals; rates are
/// derived at rank time.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConjunctStats {
    /// Vector (or row-range) evaluations.
    pub evals: u64,
    /// Rows the conjunct was asked about.
    pub rows_in: u64,
    /// Rows that passed.
    pub rows_out: u64,
    /// Total evaluation time.
    pub nanos: u64,
}

impl ConjunctStats {
    /// Observed pass rate; 0.5 before any evidence.
    pub fn pass_rate(&self) -> f64 {
        if self.rows_in == 0 {
            0.5
        } else {
            self.rows_out as f64 / self.rows_in as f64
        }
    }

    /// Cost per input row in nanoseconds (floored at a tick so that
    /// sub-resolution timings still rank by selectivity).
    pub fn cost_per_row(&self) -> f64 {
        if self.rows_in == 0 {
            1.0
        } else {
            self.nanos.max(1) as f64 / self.rows_in as f64
        }
    }

    /// The classic micro-adaptive rank: cost per *eliminated* row. Lower is
    /// better — cheap and selective conjuncts run first, expensive
    /// pass-everything conjuncts run last (against an already tiny
    /// selection).
    pub fn rank(&self) -> f64 {
        self.cost_per_row() / (1.0 - self.pass_rate()).max(1e-6)
    }
}

/// Tracks per-conjunct stats and maintains the current evaluation order.
#[derive(Debug)]
pub struct AdaptiveOrder {
    stats: Vec<ConjunctStats>,
    order: Vec<usize>,
    period: u64,
    ticks: u64,
    reorders: u64,
    enabled: bool,
    /// Conjuncts `ranked..` are never re-ranked.
    ranked: usize,
}

impl AdaptiveOrder {
    /// `n` conjuncts in their static (plan) order; re-rank every `period`
    /// ticks. When `enabled` is false the order stays static forever and
    /// observation is skipped (a static operator pays nothing for it).
    pub fn new(n: usize, period: u64, enabled: bool) -> AdaptiveOrder {
        AdaptiveOrder {
            stats: vec![ConjunctStats::default(); n],
            order: (0..n).collect(),
            period: period.max(1),
            ticks: 0,
            reorders: 0,
            enabled,
            ranked: n,
        }
    }

    /// Keep conjuncts `from..` where they are, after the ranked ones: the
    /// place of the conjuncts that can raise an error.
    pub fn pin_tail(mut self, from: usize) -> AdaptiveOrder {
        self.ranked = from.min(self.order.len());
        self
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Current evaluation order (conjunct ids, best first).
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    pub fn stats(&self) -> &[ConjunctStats] {
        &self.stats
    }

    /// Number of times the order actually changed.
    pub fn reorders(&self) -> u64 {
        self.reorders
    }

    /// Fold one conjunct evaluation into the accumulators.
    #[inline]
    pub fn observe(&mut self, id: usize, rows_in: usize, rows_out: usize, nanos: u64) {
        if !self.enabled {
            return;
        }
        let s = &mut self.stats[id];
        s.evals += 1;
        s.rows_in += rows_in as u64;
        s.rows_out += rows_out as u64;
        s.nanos += nanos;
    }

    /// Advance one unit of work (a row-group or a batch); re-ranks on period
    /// boundaries. Returns `true` if the order changed.
    pub fn tick(&mut self) -> bool {
        if !self.enabled || self.ranked < 2 {
            return false;
        }
        self.ticks += 1;
        if !self.ticks.is_multiple_of(self.period) {
            return false;
        }
        let mut next = self.order.clone();
        // Stable sort on rank: ties keep the static (plan) order.
        next[..self.ranked].sort_by(|&a, &b| {
            self.stats[a]
                .rank()
                .total_cmp(&self.stats[b].rank())
                .then(a.cmp(&b))
        });
        if next != self.order {
            self.order = next;
            self.reorders += 1;
            true
        } else {
            false
        }
    }
}

/// Encode an evaluation order as a decimal reading: order `[2,0,1]` becomes
/// `312` ("conjunct 3 first, then 1, then 2", 1-based). Readable in a `u64`
/// profile extra for up to [`MAX_REPORTED_CONJUNCTS`] conjuncts.
pub fn encode_order(order: &[usize]) -> u64 {
    order
        .iter()
        .take(MAX_REPORTED_CONJUNCTS)
        .fold(0u64, |acc, &id| acc * 10 + (id as u64 + 1).min(9))
}

/// Per-conjunct profile extras are reported for at most this many conjuncts
/// (extras keys must be `&'static str`).
pub const MAX_REPORTED_CONJUNCTS: usize = 6;

/// `predN_pass_pct` — observed pass rate of conjunct N (static numbering).
pub const PRED_PASS_KEYS: [&str; MAX_REPORTED_CONJUNCTS] = [
    "pred0_pass_pct",
    "pred1_pass_pct",
    "pred2_pass_pct",
    "pred3_pass_pct",
    "pred4_pass_pct",
    "pred5_pass_pct",
];

/// `predN_evals` — vector/range evaluations of conjunct N. Under adaptive
/// ordering, later conjuncts see fewer evaluations (empty selections
/// short-circuit); this is the counter the skew benchmark asserts on.
pub const PRED_EVAL_KEYS: [&str; MAX_REPORTED_CONJUNCTS] = [
    "pred0_evals",
    "pred1_evals",
    "pred2_evals",
    "pred3_evals",
    "pred4_evals",
    "pred5_evals",
];

/// Key identifying an aggregation shape: the table scanned and the group-key
/// column ids (storage column space, order-insensitive via sorting).
pub type AggShapeKey = (u64, Vec<usize>);

#[derive(Debug, Clone, Copy, Default)]
pub struct AggShape {
    /// Group count observed at the most recent completion.
    pub last_groups: u64,
    /// Largest group count ever observed.
    pub max_groups: u64,
    /// Times the perfect-hash path refused (budget) or fell back (domain).
    pub refusals: u32,
    /// Times the perfect-hash path completed.
    pub successes: u32,
}

/// Cross-query memory of aggregation outcomes, shared (via `Arc`) from the
/// `Database` into every running aggregate. Interior mutability because the
/// recording sites sit deep inside operators.
#[derive(Debug, Default)]
pub struct AggFeedback {
    shapes: Mutex<HashMap<AggShapeKey, AggShape>>,
}

impl AggFeedback {
    pub fn new() -> AggFeedback {
        AggFeedback::default()
    }

    fn canon(table: u64, mut keys: Vec<usize>) -> AggShapeKey {
        keys.sort_unstable();
        (table, keys)
    }

    /// Record the group count of a completed aggregation (either path).
    pub fn record_groups(&self, table: u64, keys: Vec<usize>, groups: u64) {
        let key = Self::canon(table, keys);
        let mut m = self.shapes.lock().unwrap();
        let s = m.entry(key).or_default();
        s.last_groups = groups;
        s.max_groups = s.max_groups.max(groups);
    }

    /// Record that the perfect-hash path completed successfully.
    pub fn record_success(&self, table: u64, keys: Vec<usize>) {
        let key = Self::canon(table, keys);
        let mut m = self.shapes.lock().unwrap();
        m.entry(key).or_default().successes += 1;
    }

    /// Record a perfect-hash refusal: the budget rejected the table or the
    /// runtime domain blew past the speculated bounds.
    pub fn record_refusal(&self, table: u64, keys: Vec<usize>) {
        let key = Self::canon(table, keys);
        let mut m = self.shapes.lock().unwrap();
        m.entry(key).or_default().refusals += 1;
    }

    /// Snapshot for one shape.
    pub fn shape(&self, table: u64, keys: Vec<usize>) -> Option<AggShape> {
        let key = Self::canon(table, keys);
        self.shapes.lock().unwrap().get(&key).copied()
    }

    /// Should `compile` skip the perfect-hash attempt for this shape?
    /// Yes when history shows refusals that successes never redeemed, or
    /// observed group counts beyond what the direct array can hold.
    pub fn veto_perfect(&self, table: u64, keys: Vec<usize>, max_slots: u64) -> bool {
        match self.shape(table, keys) {
            Some(s) => s.refusals > s.successes || s.max_groups > max_slots,
            None => false,
        }
    }

    pub fn len(&self) -> usize {
        self.shapes.lock().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_order_until_evidence() {
        let mut a = AdaptiveOrder::new(3, 2, true);
        assert_eq!(a.order(), &[0, 1, 2]);
        // No observations: ranks tie, stable order preserved.
        a.tick();
        a.tick();
        assert_eq!(a.order(), &[0, 1, 2]);
        assert_eq!(a.reorders(), 0);
    }

    #[test]
    fn selective_conjunct_moves_first() {
        let mut a = AdaptiveOrder::new(2, 4, true);
        for _ in 0..4 {
            a.observe(0, 1000, 990, 1000); // pass-through
            a.observe(1, 1000, 10, 1000); // selective
            a.tick();
        }
        assert_eq!(a.order(), &[1, 0]);
        assert_eq!(a.reorders(), 1);
        // More of the same evidence: order is stable, no churn.
        for _ in 0..8 {
            a.observe(0, 1000, 990, 1000);
            a.observe(1, 1000, 10, 1000);
            a.tick();
        }
        assert_eq!(a.reorders(), 1);
    }

    #[test]
    fn cheap_conjunct_beats_expensive_at_equal_selectivity() {
        let mut a = AdaptiveOrder::new(2, 1, true);
        a.observe(0, 1000, 500, 100_000); // expensive
        a.observe(1, 1000, 500, 1_000); // cheap
        a.tick();
        assert_eq!(a.order(), &[1, 0]);
    }

    #[test]
    fn adapts_to_drift() {
        let mut a = AdaptiveOrder::new(2, 1, true);
        a.observe(0, 1000, 10, 1000);
        a.observe(1, 1000, 990, 1000);
        a.tick();
        assert_eq!(a.order(), &[0, 1]);
        // The data drifts: conjunct 0 stops filtering, 1 starts.
        for _ in 0..50 {
            a.observe(0, 1000, 1000, 1000);
            a.observe(1, 1000, 0, 1000);
            a.tick();
        }
        assert_eq!(a.order(), &[1, 0]);
        assert_eq!(a.reorders(), 1);
    }

    #[test]
    fn kill_switch_freezes_order() {
        let mut a = AdaptiveOrder::new(2, 1, false);
        for _ in 0..10 {
            a.observe(0, 1000, 1000, 1000);
            a.observe(1, 1000, 0, 1000);
            assert!(!a.tick());
        }
        assert_eq!(a.order(), &[0, 1]);
        assert_eq!(a.reorders(), 0);
        // Disabled observation is free (stats stay zero).
        assert_eq!(a.stats()[1].evals, 0);
    }

    #[test]
    fn pinned_tail_is_never_ranked() {
        // Conjunct 2 is by far the best filter, but it can raise: it stays
        // last, and the two before it still trade places.
        let mut a = AdaptiveOrder::new(3, 1, true).pin_tail(2);
        a.observe(0, 1000, 990, 1000);
        a.observe(1, 1000, 500, 1000);
        a.observe(2, 1000, 1, 10);
        a.tick();
        assert_eq!(a.order(), &[1, 0, 2]);
        // With one conjunct left to rank there is nothing to decide.
        let mut a = AdaptiveOrder::new(2, 1, true).pin_tail(1);
        a.observe(0, 1000, 990, 1000);
        a.observe(1, 1000, 1, 10);
        assert!(!a.tick());
        assert_eq!(a.order(), &[0, 1]);
    }

    #[test]
    fn order_encoding_reads_one_based() {
        assert_eq!(encode_order(&[0, 1, 2]), 123);
        assert_eq!(encode_order(&[2, 0, 1]), 312);
        assert_eq!(encode_order(&[]), 0);
    }

    #[test]
    fn agg_feedback_vetoes_after_refusals_and_blowups() {
        let fb = AggFeedback::new();
        assert!(!fb.veto_perfect(1, vec![0, 2], 4096));
        fb.record_refusal(1, vec![2, 0]); // key order canonicalized
        assert!(fb.veto_perfect(1, vec![0, 2], 4096));
        // A success redeems one refusal.
        fb.record_success(1, vec![0, 2]);
        assert!(!fb.veto_perfect(1, vec![0, 2], 4096));
        // Observed group blowup vetoes regardless.
        fb.record_groups(1, vec![0, 2], 10_000);
        assert!(fb.veto_perfect(1, vec![0, 2], 4096));
        // Different shape is unaffected.
        assert!(!fb.veto_perfect(1, vec![0], 4096));
        assert!(!fb.veto_perfect(2, vec![0, 2], 4096));
    }
}
