//! `vw-plan` — logical query algebra, rewriter and optimizer.
//!
//! In the Vectorwise product, SQL parsing and cost-based optimization happen
//! in the Ingres front-end, a cross-compiler emits X100 algebra, and a
//! column-oriented *rewriter* inside X100 applies rule-based transformations
//! (the paper names NULL handling and multi-core parallelization as rewriter
//! duties, §I-B). This crate is the engine-neutral middle of that stack:
//!
//! * [`expr`] — typed scalar expressions with *reference* (row-at-a-time)
//!   evaluation semantics. The vectorized engine must agree with these
//!   semantics kernel-for-kernel; tests compare the two.
//! * [`plan`] — the logical algebra ([`LogicalPlan`]): Scan, Filter, Project,
//!   Join, Aggregate, Sort, Limit, Exchange.
//! * [`rewrite`] — the rule-based rewriter: constant folding, predicate
//!   pushdown, and the Volcano-style `parallelize` rule that introduces
//!   Exchange operators and splits aggregates into partial/final pairs.
//! * [`stats`] + [`optimizer`] — equi-width histograms and sampled distinct
//!   counts, cardinality estimation, and cost-based join enumeration with
//!   build-side choice and semi-join pushdown (standing in for Ingres'
//!   histogram optimizer).

pub mod expr;
pub mod feedback;
pub mod optimizer;
pub mod plan;
pub mod rewrite;
pub mod stats;

pub use expr::{AggExpr, AggFunc, BinOp, DatePart, Expr, UnOp};
pub use feedback::{fingerprint, recordable, AppliedCorrection, CardFeedback};
pub use optimizer::{estimate_rows, estimate_rows_with, optimize, optimize_with_feedback};
pub use plan::{JoinKind, LogicalPlan, SortKey};
pub use rewrite::{
    apply_interesting_orders, fold_constants, parallelize, prune_columns, push_down_filters,
    rewrite_default, DeliveredOrders,
};
pub use stats::{ColStats, Histogram, TableStats};
