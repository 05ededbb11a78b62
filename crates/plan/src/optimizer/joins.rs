//! Inner-join regions: their cardinality model and their enumeration.
//!
//! A **region** is a maximal tree of inner joins (comma-form or explicit
//! `JOIN … ON`) together with the filters directly above its joins. Its
//! **leaves** are everything else — a scan with its filter, a
//! `leaf ⋉ subquery`, an aggregate, a LEFT join — each optimized on its own.
//! Its **edges** are the join keys plus every column-to-column equality among
//! the filter conjuncts (Q5's `c_nationkey = s_nationkey`). Equal columns form
//! **equivalence classes**, so `c_nationkey = s_nationkey = n_nationkey` also
//! links `customer` to `nation` directly. Every other conjunct is placed at
//! the lowest join that covers its columns; a conjunct over one leaf filters
//! that leaf.
//!
//! **Estimates.** A set of leaves `S` is expected to produce
//! `Π rows(leaf) · Π_class d_min / Π d · Π selectivity(conjunct ⊆ S)` rows,
//! where a class contributes through its members in `S`, `d` being each
//! member's distinct count capped by its leaf's rows: every value of the
//! smallest domain finds its match in the others. Between two leaves that
//! share several classes — the columns of a composite key, `ps_partkey,
//! ps_suppkey` against `l_partkey, l_suppkey` — only the most selective class
//! counts: those columns are correlated, and one-column statistics would call
//! the join a thousand times too small. The number depends on `S` alone, not
//! on how `S` is built, and [`region_rows`] computes it for any inner-join
//! tree, so `EXPLAIN`, feedback and the enumerator agree by construction.
//!
//! **Cost.** Joining `A` and `B` costs `probe rows + w·build rows + output
//! rows`, building on the smaller input (`w` is [`super::BUILD_ROW_WEIGHT`]);
//! a plan costs the sum over its joins. Regions of up to [`DP_LEAVES`] leaves
//! are enumerated exactly by dynamic programming over connected subsets —
//! bushy plans allowed, cross products not; larger regions merge the
//! cheapest connected pair greedily. No plan is built per state: the tree is
//! built once, at the end. On equal cost the split found first wins, so the
//! plan depends on the plan and the statistics alone.
//!
//! A region of **two** leaves keeps the rule older plans were tuned against:
//! the join builds on its right input unless the left is estimated 1.5×
//! smaller, and then swaps them, so plans with one join stay as they were.
//!
//! Whatever order comes out, a final projection restores the region's
//! column order, so nothing above the region changes.

use super::{column_ndv, conjunct_selectivity, estimate_rows_with, BUILD_ROW_WEIGHT};
use crate::expr::{BinOp, Expr};
use crate::feedback::CardFeedback;
use crate::plan::{JoinKind, LogicalPlan};
use crate::rewrite::pushdown::{conjoin, push_down_filters, split_conjunction};
use crate::stats::TableStats;
use std::collections::HashMap;
use vw_common::TableId;

/// Largest region the dynamic program enumerates exhaustively.
const DP_LEAVES: usize = 10;

/// Most leaves a region can have: sets of leaves are `u64` bitmasks.
const MAX_LEAVES: usize = 64;

type Stats = HashMap<TableId, TableStats>;

/// True for the nodes a region is made of: inner joins and filters over them.
pub(super) fn in_region(plan: &LogicalPlan) -> bool {
    match plan {
        LogicalPlan::Join {
            kind: JoinKind::Inner,
            ..
        }
        | LogicalPlan::MergeJoin { .. } => true,
        LogicalPlan::Filter { input, .. } => in_region(input),
        _ => false,
    }
}

fn full_set(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1 << n) - 1
    }
}

/// What a region is made of, in region columns: column `g` is output column
/// `g` of the region's root. Leaves are listed in column order.
#[derive(Default)]
struct Shape {
    /// First region column of each leaf.
    offsets: Vec<usize>,
    /// `a = b` over region columns, from join keys and filter conjuncts.
    equalities: Vec<(usize, usize)>,
    /// Every other conjunct, over region columns.
    conjuncts: Vec<Expr>,
}

impl Shape {
    fn of(plan: &LogicalPlan) -> (Shape, Vec<&LogicalPlan>) {
        let mut shape = Shape::default();
        let mut leaves = Vec::new();
        shape.walk(plan, 0, &mut leaves);
        (shape, leaves)
    }

    fn walk<'a>(
        &mut self,
        plan: &'a LogicalPlan,
        offset: usize,
        leaves: &mut Vec<&'a LogicalPlan>,
    ) {
        match plan {
            LogicalPlan::Join {
                left,
                right,
                kind: JoinKind::Inner,
                on,
                residual,
            } => {
                self.walk_join(left, right, on, offset, leaves);
                if let Some(r) = residual {
                    self.add_conjuncts(r, offset);
                }
            }
            LogicalPlan::MergeJoin { left, right, on } => {
                self.walk_join(left, right, on, offset, leaves)
            }
            LogicalPlan::Filter { input, predicate } if in_region(input) => {
                self.add_conjuncts(predicate, offset);
                self.walk(input, offset, leaves);
            }
            leaf => {
                self.offsets.push(offset);
                leaves.push(leaf);
            }
        }
    }

    fn walk_join<'a>(
        &mut self,
        left: &'a LogicalPlan,
        right: &'a LogicalPlan,
        on: &[(usize, usize)],
        offset: usize,
        leaves: &mut Vec<&'a LogicalPlan>,
    ) {
        let lw = left.width();
        self.walk(left, offset, leaves);
        self.walk(right, offset + lw, leaves);
        self.equalities
            .extend(on.iter().map(|&(l, r)| (offset + l, offset + lw + r)));
    }

    fn add_conjuncts(&mut self, e: &Expr, offset: usize) {
        let mut parts = Vec::new();
        split_conjunction(e, &mut parts);
        for p in parts {
            match p.remap_columns(&|i| i + offset) {
                Expr::Binary {
                    op: BinOp::Eq,
                    l,
                    r,
                } if matches!((&*l, &*r), (Expr::Col(_), Expr::Col(_))) => {
                    if let (Expr::Col(a), Expr::Col(b)) = (*l, *r) {
                        self.equalities.push((a, b));
                    }
                }
                other => self.conjuncts.push(other),
            }
        }
    }

    fn leaf_of(&self, col: usize) -> usize {
        self.offsets.partition_point(|&o| o <= col) - 1
    }

    /// The leaves a conjunct reads; a constant belongs to the whole region.
    fn mask_of(&self, e: &Expr) -> u64 {
        let mut cols = Vec::new();
        e.columns(&mut cols);
        match cols.iter().fold(0, |m, &c| m | 1 << self.leaf_of(c)) {
            0 => full_set(self.offsets.len()),
            m => m,
        }
    }

    /// The equivalence classes of the equalities: region columns that must
    /// all be equal, each class ascending, classes by their first column.
    fn classes(&self) -> Vec<Vec<usize>> {
        let mut cols: Vec<usize> = self.equalities.iter().flat_map(|&(a, b)| [a, b]).collect();
        cols.sort_unstable();
        cols.dedup();
        let mut parent: Vec<usize> = (0..cols.len()).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for &(a, b) in &self.equalities {
            let ra = find(&mut parent, cols.binary_search(&a).unwrap_or(0));
            let rb = find(&mut parent, cols.binary_search(&b).unwrap_or(0));
            parent[ra.max(rb)] = ra.min(rb);
        }
        let mut classes: Vec<Vec<usize>> = Vec::new();
        let mut class_of_root: HashMap<usize, usize> = HashMap::new();
        for (k, &col) in cols.iter().enumerate() {
            let root = find(&mut parent, k);
            let i = *class_of_root.entry(root).or_insert_with(|| {
                classes.push(Vec::new());
                classes.len() - 1
            });
            classes[i].push(col);
        }
        classes
    }
}

/// Move a region's leaves out of its plan, in the order [`Shape::of`] lists
/// them.
fn take_leaves(plan: LogicalPlan, out: &mut Vec<LogicalPlan>) {
    match plan {
        LogicalPlan::Join {
            left,
            right,
            kind: JoinKind::Inner,
            ..
        }
        | LogicalPlan::MergeJoin { left, right, .. } => {
            take_leaves(*left, out);
            take_leaves(*right, out);
        }
        LogicalPlan::Filter { input, .. } if in_region(&input) => take_leaves(*input, out),
        leaf => out.push(leaf),
    }
}

/// Estimated rows of an inner-join region (an inner join, a merge join, or
/// a filter over one).
pub(super) fn region_rows(plan: &LogicalPlan, stats: &Stats, fb: Option<&CardFeedback>) -> f64 {
    let (shape, leaves) = Shape::of(plan);
    if leaves.len() > MAX_LEAVES {
        // Unreachable in practice; the foreign-key guess.
        return leaves
            .iter()
            .map(|l| estimate_rows_with(l, stats, fb))
            .fold(0.0, f64::max);
    }
    let conjuncts = shape
        .conjuncts
        .iter()
        .map(|c| (shape.mask_of(c), conjunct_selectivity(c)))
        .collect();
    let graph = JoinGraph::new(&leaves, &shape, conjuncts, stats, fb);
    graph.card(full_set(leaves.len()))
}

/// Estimated rows of `left ⋈ right` on `on` as an inner join, with the same
/// model as a two-leaf region (LEFT joins start from this).
pub(super) fn pair_rows(
    left: &LogicalPlan,
    right: &LogicalPlan,
    on: &[(usize, usize)],
    residual: &Option<Expr>,
    stats: &Stats,
    fb: Option<&CardFeedback>,
) -> f64 {
    let lw = left.width();
    let shape = Shape {
        offsets: vec![0, lw],
        equalities: on.iter().map(|&(l, r)| (l, lw + r)).collect(),
        conjuncts: Vec::new(),
    };
    let conjuncts = residual
        .iter()
        .map(|r| (0b11, conjunct_selectivity(r)))
        .collect();
    JoinGraph::new(&[left, right], &shape, conjuncts, stats, fb).card(0b11)
}

/// Order every inner-join region of `plan`, leaves first.
pub(super) fn reorder(plan: LogicalPlan, stats: &Stats, fb: Option<&CardFeedback>) -> LogicalPlan {
    if !in_region(&plan) {
        return plan.map_children(|c| reorder(c, stats, fb));
    }
    let (shape, n) = {
        let (shape, leaves) = Shape::of(&plan);
        (shape, leaves.len())
    };
    match (n, plan.schema()) {
        (2, _) => two_way(plan, stats, fb),
        (3..=MAX_LEAVES, Ok(schema)) => {
            let mut leaves = Vec::with_capacity(n);
            take_leaves(plan, &mut leaves);
            let built = enumerate(shape, leaves, stats, fb);
            if built.cols.iter().copied().eq(0..schema.len()) {
                return built.plan;
            }
            let exprs = (0..schema.len())
                .map(|g| {
                    (
                        Expr::col(position(&built.cols, g)),
                        schema.field(g).name.clone(),
                    )
                })
                .collect();
            LogicalPlan::Project {
                input: Box::new(built.plan),
                exprs,
            }
        }
        _ => plan.map_children(|c| reorder(c, stats, fb)),
    }
}

/// A two-leaf region: the join builds on its right input unless the left is
/// estimated 1.5× smaller, and a projection restores the column order after
/// a swap. Filters above the join stay where they are.
fn two_way(plan: LogicalPlan, stats: &Stats, fb: Option<&CardFeedback>) -> LogicalPlan {
    let (left, right, on, residual) = match plan {
        LogicalPlan::Join {
            left,
            right,
            kind: JoinKind::Inner,
            on,
            residual,
        } => (left, right, on, residual),
        LogicalPlan::Filter { .. } => return plan.map_children(|c| two_way(c, stats, fb)),
        // A merge join keeps the order its inputs are sorted in.
        other => return other.map_children(|c| reorder(c, stats, fb)),
    };
    let left = reorder(*left, stats, fb);
    let right = reorder(*right, stats, fb);
    if estimate_rows_with(&left, stats, fb) * 1.5 >= estimate_rows_with(&right, stats, fb) {
        return LogicalPlan::Join {
            left: Box::new(left),
            right: Box::new(right),
            kind: JoinKind::Inner,
            on,
            residual,
        };
    }
    let l_schema = left.schema().unwrap_or_default();
    let r_schema = right.schema().unwrap_or_default();
    let (ln, rn) = (l_schema.len(), r_schema.len());
    let swapped = LogicalPlan::Join {
        left: Box::new(right),
        right: Box::new(left),
        kind: JoinKind::Inner,
        on: on.iter().map(|&(l, r)| (r, l)).collect(),
        residual: residual.map(|e| e.remap_columns(&|i| if i < ln { rn + i } else { i - ln })),
    };
    // Output of swapped join: right ++ left; restore left ++ right.
    let exprs = l_schema
        .fields()
        .iter()
        .enumerate()
        .map(|(i, f)| (Expr::col(rn + i), f.name.clone()))
        .chain(
            r_schema
                .fields()
                .iter()
                .enumerate()
                .map(|(i, f)| (Expr::col(i), f.name.clone())),
        )
        .collect();
    LogicalPlan::Project {
        input: Box::new(swapped),
        exprs,
    }
}

fn position(cols: &[usize], g: usize) -> usize {
    cols.iter()
        .position(|&c| c == g)
        .expect("region column is produced by the subtree")
}

/// A subtree built from a set of leaves, with the region column each of its
/// output columns carries.
struct Built {
    plan: LogicalPlan,
    cols: Vec<usize>,
}

/// Enumerate a region of three or more leaves and build its best plan.
fn enumerate(
    shape: Shape,
    leaves: Vec<LogicalPlan>,
    stats: &Stats,
    fb: Option<&CardFeedback>,
) -> Built {
    let n = leaves.len();
    // Conjuncts over one leaf filter it, and so do the equalities a class
    // implies between two columns of one leaf (the joins compare one column
    // of each leaf per class); other conjuncts wait for the join covering
    // them.
    let mut leaf_preds: Vec<Vec<Expr>> = vec![Vec::new(); n];
    for class in shape.classes() {
        let mut first: HashMap<usize, usize> = HashMap::new();
        for &c in &class {
            let leaf = shape.leaf_of(c);
            let off = shape.offsets[leaf];
            match first.get(&leaf) {
                Some(&f) => leaf_preds[leaf].push(Expr::eq(Expr::col(f - off), Expr::col(c - off))),
                None => {
                    first.insert(leaf, c);
                }
            }
        }
    }
    let mut placed: Vec<(u64, Expr)> = Vec::new();
    for c in &shape.conjuncts {
        match shape.mask_of(c) {
            m if m.count_ones() == 1 => {
                let leaf = m.trailing_zeros() as usize;
                let off = shape.offsets[leaf];
                leaf_preds[leaf].push(c.remap_columns(&|i| i - off));
            }
            m => placed.push((m, c.clone())),
        }
    }
    let leaves: Vec<LogicalPlan> = leaves
        .into_iter()
        .zip(leaf_preds)
        .map(|(leaf, preds)| {
            let leaf = match conjoin(preds) {
                Some(p) => push_down_filters(leaf.filter(p)),
                None => leaf,
            };
            reorder(leaf, stats, fb)
        })
        .collect();
    let graph = {
        let refs: Vec<&LogicalPlan> = leaves.iter().collect();
        let conjuncts = placed
            .iter()
            .map(|(m, c)| (*m, conjunct_selectivity(c)))
            .collect();
        JoinGraph::new(&refs, &shape, conjuncts, stats, fb)
    };
    let splits = graph.best_plan().1;
    let builder = Builder {
        offsets: &shape.offsets,
        graph: &graph,
        splits: &splits,
        placed: &placed,
    };
    let mut leaves: Vec<Option<LogicalPlan>> = leaves.into_iter().map(Some).collect();
    builder.build(full_set(n), &mut leaves)
}

struct Builder<'a> {
    offsets: &'a [usize],
    graph: &'a JoinGraph,
    splits: &'a HashMap<u64, u64>,
    placed: &'a [(u64, Expr)],
}

impl Builder<'_> {
    fn build(&self, s: u64, leaves: &mut [Option<LogicalPlan>]) -> Built {
        if s.count_ones() == 1 {
            let i = s.trailing_zeros() as usize;
            let plan = leaves[i].take().expect("each leaf is built once");
            let off = self.offsets[i];
            let cols = (off..off + plan.width()).collect();
            return Built { plan, cols };
        }
        let a = self.splits[&s];
        let b = s ^ a;
        let (x, y) = (self.build(a, leaves), self.build(b, leaves));
        // Probe with the larger input, build on the smaller; on a tie the
        // input holding the lower leaf probes.
        let ((l, ls), (r, rs)) = if self.graph.card(b) > self.graph.card(a) {
            ((y, b), (x, a))
        } else {
            ((x, a), (y, b))
        };
        let on = self
            .graph
            .keys(ls, rs)
            .map(|(p, q)| (position(&l.cols, p), position(&r.cols, q)))
            .collect();
        let mut cols = l.cols;
        cols.extend(r.cols);
        let residual = conjoin(
            self.placed
                .iter()
                .filter(|(m, _)| m & s == *m && m & a != *m && m & b != *m)
                .map(|(_, e)| e.remap_columns(&|g| position(&cols, g)))
                .collect(),
        );
        Built {
            plan: LogicalPlan::Join {
                left: Box::new(l.plan),
                right: Box::new(r.plan),
                kind: JoinKind::Inner,
                on,
                residual,
            },
            cols,
        }
    }
}

/// One leaf's column in an equivalence class.
#[derive(Debug, Clone, Copy)]
struct Member {
    leaf: usize,
    /// Region column.
    col: usize,
    /// Distinct values, capped by the leaf's rows; `None` without statistics.
    ndv: Option<f64>,
}

/// The enumerator's view of a region: leaf cardinalities, the equivalence
/// classes with one member per leaf, and the selectivities of multi-leaf
/// conjuncts with the leaf sets they cover.
#[derive(Debug, Clone)]
struct JoinGraph {
    rows: Vec<f64>,
    classes: Vec<Vec<Member>>,
    /// `(leaf pair, class, divisor)`: the pair also shares a more selective
    /// class, so this one's equality between them is implied.
    implied: Vec<(u64, usize, f64)>,
    conjuncts: Vec<(u64, f64)>,
    /// Leaves sharing a class with each leaf.
    adj: Vec<u64>,
}

impl JoinGraph {
    fn new(
        leaves: &[&LogicalPlan],
        shape: &Shape,
        conjuncts: Vec<(u64, f64)>,
        stats: &Stats,
        fb: Option<&CardFeedback>,
    ) -> JoinGraph {
        let rows: Vec<f64> = leaves
            .iter()
            .map(|l| estimate_rows_with(l, stats, fb))
            .collect();
        let classes = shape
            .classes()
            .iter()
            .map(|class| {
                // One member per leaf: its column with the fewest values.
                let mut members: Vec<Member> = Vec::new();
                for &col in class {
                    let leaf = shape.leaf_of(col);
                    let ndv = column_ndv(leaves[leaf], col - shape.offsets[leaf], stats, fb);
                    let m = Member { leaf, col, ndv };
                    match members.iter_mut().find(|m| m.leaf == leaf) {
                        Some(old) if m.key_ndv(&rows) < old.key_ndv(&rows) => *old = m,
                        Some(_) => {}
                        None => members.push(m),
                    }
                }
                members
            })
            .filter(|members| members.len() > 1)
            .collect();
        JoinGraph::from_parts(rows, classes, conjuncts)
    }

    fn from_parts(
        rows: Vec<f64>,
        classes: Vec<Vec<Member>>,
        conjuncts: Vec<(u64, f64)>,
    ) -> JoinGraph {
        let n = rows.len();
        let mut adj = vec![0u64; n];
        for class in &classes {
            let set = class.iter().fold(0u64, |s, m| s | 1 << m.leaf);
            for m in class {
                adj[m.leaf] |= set & !(1 << m.leaf);
            }
        }
        let mut implied = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                let pair = 1u64 << i | 1 << j;
                let shared: Vec<(usize, f64)> = classes
                    .iter()
                    .enumerate()
                    .filter_map(|(k, class)| {
                        let a = class.iter().find(|m| m.leaf == i)?;
                        let b = class.iter().find(|m| m.leaf == j)?;
                        let floor = rows[i].min(rows[j]);
                        let d = |m: &Member| m.ndv.unwrap_or(floor).max(1.0);
                        Some((k, d(a).max(d(b))))
                    })
                    .collect();
                let Some(top) =
                    (0..shared.len()).reduce(|t, x| if shared[x].1 > shared[t].1 { x } else { t })
                else {
                    continue;
                };
                for (x, &(k, d)) in shared.iter().enumerate() {
                    if x != top {
                        implied.push((pair, k, d));
                    }
                }
            }
        }
        JoinGraph {
            rows,
            classes,
            implied,
            conjuncts,
            adj,
        }
    }

    /// Estimated rows of the join of the leaves in `s`.
    fn card(&self, s: u64) -> f64 {
        let mut c: f64 = bits(s).map(|i| self.rows[i]).product();
        for (k, class) in self.classes.iter().enumerate() {
            let inside: Vec<&Member> = class.iter().filter(|m| s >> m.leaf & 1 == 1).collect();
            if inside.len() < 2 {
                continue;
            }
            // Unknown distinct counts stand at the smallest leaf's rows: two
            // unknown leaves join like a foreign key into the smaller one.
            let floor = inside
                .iter()
                .map(|m| self.rows[m.leaf])
                .fold(f64::INFINITY, f64::min);
            let ds: Vec<f64> = inside
                .iter()
                .map(|m| m.ndv.unwrap_or(floor).max(1.0))
                .collect();
            let mut f =
                ds.iter().copied().fold(f64::INFINITY, f64::min) / ds.iter().product::<f64>();
            for &(pair, class, d) in &self.implied {
                if class == k && pair & s == pair {
                    f *= d;
                }
            }
            c *= f.min(1.0);
        }
        for &(m, sel) in &self.conjuncts {
            if m & s == m {
                c *= sel;
            }
        }
        c
    }

    /// The key pairs (region columns) joining leaf sets `a` and `b`: per
    /// class on both sides, each side's member with the fewest values.
    fn keys(&self, a: u64, b: u64) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.classes.iter().filter_map(move |class| {
            let pick = |side: u64| {
                class
                    .iter()
                    .filter(|m| side >> m.leaf & 1 == 1)
                    .min_by(|x, y| x.key_ndv(&self.rows).total_cmp(&y.key_ndv(&self.rows)))
                    .map(|m| m.col)
            };
            Some((pick(a)?, pick(b)?))
        })
    }

    fn connects(&self, a: u64, b: u64) -> bool {
        bits(a).any(|i| self.adj[i] & b != 0)
    }

    /// Cost of one hash join producing `out` rows from inputs of `a` and `b`
    /// rows: it probes with the larger and builds on the smaller.
    fn join_cost(a: f64, b: f64, out: f64) -> f64 {
        a.max(b) + BUILD_ROW_WEIGHT * a.min(b) + out
    }

    /// The cheapest plan: its cost and, for every set of two or more leaves
    /// it joins, the part holding the set's lowest leaf.
    fn best_plan(&self) -> (f64, HashMap<u64, u64>) {
        if self.rows.len() <= DP_LEAVES {
            if let Some(found) = self.dynamic_program() {
                return found;
            }
        }
        self.greedy()
    }

    /// Exhaustive enumeration of bushy plans over connected subsets. Every
    /// proper subset is numerically smaller than its superset, so counting
    /// up visits the parts of a set before the set.
    fn dynamic_program(&self) -> Option<(f64, HashMap<u64, u64>)> {
        let full = full_set(self.rows.len());
        let card: Vec<f64> = (0..=full).map(|s| self.card(s)).collect();
        let mut cost = vec![f64::INFINITY; card.len()];
        let mut split = vec![0u64; card.len()];
        for i in 0..self.rows.len() {
            cost[1 << i] = 0.0;
        }
        for s in 1..=full {
            if s.count_ones() < 2 {
                continue;
            }
            let low = s & s.wrapping_neg();
            let mut a = (s - 1) & s;
            while a != 0 {
                let b = s ^ a;
                let (ai, bi, si) = (a as usize, b as usize, s as usize);
                if a & low != 0
                    && cost[ai] < f64::INFINITY
                    && cost[bi] < f64::INFINITY
                    && self.connects(a, b)
                {
                    let c = cost[ai] + cost[bi] + Self::join_cost(card[ai], card[bi], card[si]);
                    if c < cost[si] {
                        cost[si] = c;
                        split[si] = a;
                    }
                }
                a = (a - 1) & s;
            }
        }
        if cost[full as usize] == f64::INFINITY {
            return None;
        }
        let mut splits = HashMap::new();
        let mut todo = vec![full];
        while let Some(s) = todo.pop() {
            if s.count_ones() > 1 {
                let a = split[s as usize];
                splits.insert(s, a);
                todo.extend([a, s ^ a]);
            }
        }
        Some((cost[full as usize], splits))
    }

    /// Merge the connected pair of parts whose join is cheapest until one is
    /// left. A region with no connecting equality left merges the two
    /// cheapest parts anyway, into a join the executor rejects as it would
    /// have rejected the plan it came from.
    fn greedy(&self) -> (f64, HashMap<u64, u64>) {
        let mut parts: Vec<u64> = (0..self.rows.len()).map(|i| 1 << i).collect();
        let mut splits = HashMap::new();
        let mut total = 0.0;
        while parts.len() > 1 {
            let mut best: Option<(bool, f64, usize, usize)> = None;
            for i in 0..parts.len() {
                for j in i + 1..parts.len() {
                    let (a, b) = (parts[i], parts[j]);
                    let linked = self.connects(a, b);
                    let c = Self::join_cost(self.card(a), self.card(b), self.card(a | b));
                    let better = match best {
                        None => true,
                        Some((bl, bc, ..)) => linked && !bl || linked == bl && c < bc,
                    };
                    if better {
                        best = Some((linked, c, i, j));
                    }
                }
            }
            let (_, c, i, j) = best.expect("two parts left");
            total += c;
            splits.insert(parts[i] | parts[j], parts[i]);
            parts[i] |= parts[j];
            parts.remove(j);
        }
        (total, splits)
    }
}

impl Member {
    /// Distinct values for picking a key column: rows stand in when unknown.
    fn key_ndv(&self, rows: &[f64]) -> f64 {
        self.ndv.unwrap_or(rows[self.leaf])
    }
}

/// Indexes of the set bits of `s`, ascending.
fn bits(s: u64) -> impl Iterator<Item = usize> {
    (0..64).filter(move |&i| s >> i & 1 == 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vw_common::rng::Xoshiro256;

    /// Every bushy tree over the leaves of `s` whose joins all link their
    /// inputs, as the total cost of its joins.
    fn all_tree_costs(g: &JoinGraph, s: u64) -> Vec<f64> {
        if s.count_ones() == 1 {
            return vec![0.0];
        }
        let low = s & s.wrapping_neg();
        let mut out = Vec::new();
        let mut a = (s - 1) & s;
        while a != 0 {
            let b = s ^ a;
            if a & low != 0 && g.connects(a, b) {
                let join = JoinGraph::join_cost(g.card(a), g.card(b), g.card(s));
                let right = all_tree_costs(g, b);
                for ca in all_tree_costs(g, a) {
                    out.extend(right.iter().map(|cb| ca + cb + join));
                }
            }
            a = (a - 1) & s;
        }
        out
    }

    /// A random connected graph: a spanning tree of classes plus extra
    /// classes (cycles, composite keys, three-way classes), leaf sizes over
    /// five orders of magnitude, and a few conjuncts.
    fn random_graph(r: &mut Xoshiro256, n: usize) -> JoinGraph {
        let rows: Vec<f64> = (0..n)
            .map(|_| 10f64.powf(r.next_f64() * 5.0).round().max(1.0))
            .collect();
        let member = |r: &mut Xoshiro256, leaf: usize| Member {
            leaf,
            col: leaf,
            ndv: (!r.chance(0.1)).then(|| 10f64.powf(r.next_f64() * 4.0).min(rows[leaf])),
        };
        let mut classes = Vec::new();
        for i in 1..n {
            let j = r.next_below(i as u64) as usize;
            classes.push(vec![member(r, i), member(r, j)]);
        }
        for _ in 0..r.next_below(n as u64) {
            let mut leaves: Vec<usize> = (0..n).filter(|_| r.chance(0.5)).collect();
            leaves.truncate(3);
            if leaves.len() >= 2 {
                classes.push(leaves.into_iter().map(|l| member(r, l)).collect());
            }
        }
        // Conjuncts over one leaf filter the leaf before enumeration starts.
        let mut conjuncts = Vec::new();
        for _ in 0..r.next_below(3) {
            let m = r.next_u64() & full_set(n);
            if m.count_ones() >= 2 {
                conjuncts.push((m, 0.05 + r.next_f64() * 0.9));
            }
        }
        JoinGraph::from_parts(rows, classes, conjuncts)
    }

    #[test]
    fn dynamic_program_matches_exhaustive_enumeration() {
        let cases = if cfg!(debug_assertions) { 200 } else { 3000 };
        let mut r = Xoshiro256::seeded(0x0dd5);
        for case in 0..cases {
            let n = 2 + r.next_below(5) as usize;
            let g = random_graph(&mut r, n);
            let brute = all_tree_costs(&g, full_set(n))
                .into_iter()
                .fold(f64::INFINITY, f64::min);
            let (dp, splits) = g.dynamic_program().expect("connected");
            assert!(
                (dp - brute).abs() <= 1e-9 * brute.max(1.0),
                "case {case}: dp {dp} vs exhaustive {brute} over {g:?}"
            );
            // The same statistics give the same plan.
            assert_eq!(splits, g.dynamic_program().unwrap().1);
        }
    }

    #[test]
    fn greedy_never_makes_a_cross_product_while_an_edge_is_left() {
        // A chain 0 - 1 - 2 - 3 - 4 with leaf 0 huge.
        let rows = vec![1e6, 10.0, 10.0, 10.0, 10.0];
        let m = |leaf| Member {
            leaf,
            col: leaf,
            ndv: Some(10.0),
        };
        let classes = (0..4).map(|i| vec![m(i), m(i + 1)]).collect();
        let g = JoinGraph::from_parts(rows, classes, Vec::new());
        let (_, splits) = g.greedy();
        assert_eq!(splits.len(), 4);
        for (&s, &a) in &splits {
            assert!(g.connects(a, s ^ a), "cross product {a:b} x {:b}", s ^ a);
        }
    }

    #[test]
    fn composite_keys_count_once_and_classes_close_transitively() {
        let m = |leaf, ndv| Member {
            leaf,
            col: leaf,
            ndv: Some(ndv),
        };
        // lineitem (0) and partsupp (1) share two classes: only the more
        // selective one divides their cross product.
        let g = JoinGraph::from_parts(
            vec![600_000.0, 80_000.0],
            vec![
                vec![m(0, 20_000.0), m(1, 20_000.0)],
                vec![m(0, 1000.0), m(1, 1000.0)],
            ],
            Vec::new(),
        );
        assert_eq!(g.card(0b11), 600_000.0 * 80_000.0 / 20_000.0);
        // customer (0), supplier (1), nation (2) on one nation-key class:
        // customer links to nation directly, and the three-way join is
        // divided twice, not three times.
        let g = JoinGraph::from_parts(
            vec![15_000.0, 1000.0, 25.0],
            vec![vec![m(0, 25.0), m(1, 25.0), m(2, 25.0)]],
            Vec::new(),
        );
        assert!(g.connects(0b001, 0b100));
        assert_eq!(g.card(0b101), 15_000.0);
        assert_eq!(g.card(0b111), 15_000.0 * 1000.0 / 25.0);
    }
}
