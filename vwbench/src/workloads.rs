//! The statements of the four workloads. SQL literals are fixed; the seed
//! drives the generated data and, on `short` and `mixed_rw`, the keys.

use crate::data::Facts;
use vw_common::rng::Xoshiro256;

/// A statement with fixed text, run once per round.
pub struct Template {
    pub name: &'static str,
    pub sql: &'static str,
}

/// `scan`: lineitem scans whose working set (about 116 MiB raw at SF 0.1) is
/// three times the decode cache. Run round-robin so each template finds the
/// cache as the other six left it.
pub const SCAN: &[Template] = &[
    Template {
        name: "q1",
        sql: "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, \
              SUM(l_extendedprice) AS sum_base_price, \
              SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price, \
              SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge, \
              AVG(l_quantity) AS avg_qty, AVG(l_extendedprice) AS avg_price, \
              AVG(l_discount) AS avg_disc, COUNT(*) AS count_order \
              FROM lineitem WHERE l_shipdate <= DATE '1998-09-02' \
              GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus",
    },
    Template {
        name: "q6",
        sql: "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem \
              WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01' \
              AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24",
    },
    Template {
        name: "q12",
        sql: "SELECT l_shipmode, \
              SUM(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH') THEN 1 ELSE 0 END) AS high_line_count, \
              SUM(CASE WHEN o_orderpriority NOT IN ('1-URGENT', '2-HIGH') THEN 1 ELSE 0 END) AS low_line_count \
              FROM lineitem, orders WHERE l_orderkey = o_orderkey \
              AND l_shipmode IN ('MAIL', 'SHIP') AND l_commitdate < l_receiptdate \
              AND l_shipdate < l_commitdate AND l_receiptdate >= DATE '1994-01-01' \
              AND l_receiptdate < DATE '1995-01-01' GROUP BY l_shipmode ORDER BY l_shipmode",
    },
    Template {
        name: "q14",
        sql: "SELECT 100.0 * SUM(CASE WHEN p_type LIKE 'PROMO%' \
              THEN l_extendedprice * (1 - l_discount) ELSE 0.0 END) \
              / SUM(l_extendedprice * (1 - l_discount)) AS promo_revenue \
              FROM lineitem, part WHERE l_partkey = p_partkey \
              AND l_shipdate >= DATE '1995-09-01' AND l_shipdate < DATE '1995-10-01'",
    },
    // The lineitem side of Q19: two dictionary-string predicates.
    Template {
        name: "str_pred",
        sql: "SELECT COUNT(*) AS n, SUM(l_extendedprice * (1 - l_discount)) AS revenue \
              FROM lineitem WHERE l_shipmode IN ('AIR', 'REG AIR') \
              AND l_shipinstruct = 'DELIVER IN PERSON' AND l_quantity BETWEEN 1 AND 30",
    },
    // 1% of the clustered key at SF 0.1: the zone-map and encoded-skip path.
    Template {
        name: "key_range",
        sql: "SELECT COUNT(*) AS n, SUM(l_quantity) AS qty FROM lineitem WHERE l_orderkey < 1500",
    },
    // Decodes the widest string column of the table.
    Template {
        name: "comment_like",
        sql: "SELECT COUNT(*) AS n FROM lineitem WHERE l_comment LIKE '%special%'",
    },
];

/// `join_agg`: hash build/probe, generic aggregation and sort. Q5 is written
/// with explicit joins: in its comma form the binder's greedy ordering joins
/// customer to the lineitem side on the nation key alone and the statement
/// takes 110 s at SF 0.1.
pub const JOIN_AGG: &[Template] = &[
    Template {
        name: "q3",
        sql: "SELECT l_orderkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue, \
              o_orderdate, o_shippriority FROM customer, orders, lineitem \
              WHERE c_mktsegment = 'BUILDING' AND c_custkey = o_custkey \
              AND l_orderkey = o_orderkey AND o_orderdate < DATE '1995-03-15' \
              AND l_shipdate > DATE '1995-03-15' \
              GROUP BY l_orderkey, o_orderdate, o_shippriority \
              ORDER BY revenue DESC, o_orderdate, l_orderkey LIMIT 10",
    },
    Template {
        name: "q5",
        sql: "SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue \
              FROM lineitem JOIN orders ON l_orderkey = o_orderkey \
              JOIN customer ON o_custkey = c_custkey \
              JOIN supplier ON l_suppkey = s_suppkey \
              JOIN nation ON s_nationkey = n_nationkey \
              JOIN region ON n_regionkey = r_regionkey \
              WHERE c_nationkey = s_nationkey AND r_name = 'ASIA' \
              AND o_orderdate >= DATE '1994-01-01' AND o_orderdate < DATE '1995-01-01' \
              GROUP BY n_name ORDER BY revenue DESC, n_name",
    },
    Template {
        name: "q9",
        sql: "SELECT n_name AS nation, EXTRACT(YEAR FROM o_orderdate) AS o_year, \
              SUM(l_extendedprice * (1 - l_discount) - ps_supplycost * l_quantity) AS sum_profit \
              FROM part, supplier, lineitem, partsupp, orders, nation \
              WHERE s_suppkey = l_suppkey AND ps_suppkey = l_suppkey \
              AND ps_partkey = l_partkey AND p_partkey = l_partkey \
              AND o_orderkey = l_orderkey AND s_nationkey = n_nationkey \
              AND p_name LIKE '%green%' \
              GROUP BY n_name, EXTRACT(YEAR FROM o_orderdate) ORDER BY nation, o_year DESC",
    },
    Template {
        name: "q10",
        sql: "SELECT c_custkey, c_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue, \
              c_acctbal, n_name, c_address, c_phone, c_comment \
              FROM customer, orders, lineitem, nation \
              WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey \
              AND o_orderdate >= DATE '1993-10-01' AND o_orderdate < DATE '1994-01-01' \
              AND l_returnflag = 'R' AND c_nationkey = n_nationkey \
              GROUP BY c_custkey, c_name, c_acctbal, c_phone, n_name, c_address, c_comment \
              ORDER BY revenue DESC, c_custkey LIMIT 20",
    },
    Template {
        name: "q18",
        sql: "SELECT c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice, \
              SUM(l_quantity) AS sum_qty FROM customer, orders, lineitem \
              WHERE o_orderkey IN (SELECT l_orderkey FROM lineitem GROUP BY l_orderkey \
              HAVING SUM(l_quantity) > 300) \
              AND c_custkey = o_custkey AND o_orderkey = l_orderkey \
              GROUP BY c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice \
              ORDER BY o_totalprice DESC, o_orderdate, o_orderkey LIMIT 100",
    },
    // About 80K groups at SF 0.1: the generic hash aggregate.
    Template {
        name: "group_part_supp",
        sql: "SELECT l_partkey, l_suppkey, SUM(l_quantity) AS qty, COUNT(*) AS n \
              FROM lineitem GROUP BY l_partkey, l_suppkey \
              ORDER BY qty DESC, l_partkey, l_suppkey LIMIT 10",
    },
    // 10000 is above TopN's cut-off, so this is a full sort of lineitem.
    Template {
        name: "full_sort",
        sql: "SELECT l_orderkey, l_linenumber, l_extendedprice FROM lineitem \
              ORDER BY l_extendedprice DESC, l_orderkey, l_linenumber LIMIT 10000",
    },
];

/// First key of the orders the `mixed_rw` writer inserts; generated keys stay
/// far below it.
pub const NEW_ORDER_BASE: i64 = 1_000_000_000;

/// Index into [`MIXED_READ`] of the two invariant statements.
pub const MIXED_INV_PRIORITY: usize = 5;
pub const MIXED_INV_LINES: usize = 6;

/// The reader side of `mixed_rw`: the scan layer over tables a writer is
/// changing, plus two invariants the writer's transactions preserve.
pub const MIXED_READ: &[Template] = &[
    Template {
        name: "q1",
        sql: SCAN[0].sql,
    },
    Template {
        name: "q6",
        sql: SCAN[1].sql,
    },
    Template {
        name: "q12",
        sql: SCAN[2].sql,
    },
    Template {
        name: "q3",
        sql: JOIN_AGG[0].sql,
    },
    Template {
        name: "group_custkey",
        sql: "SELECT o_custkey, COUNT(*) AS n, SUM(o_totalprice) AS total FROM orders \
              GROUP BY o_custkey ORDER BY total DESC, o_custkey LIMIT 10",
    },
    // Transfers add 1 to one order and take 1 from another in one
    // transaction, and new orders carry 0: the sum never changes.
    Template {
        name: "inv_priority_sum",
        sql: "SELECT SUM(o_shippriority) AS s FROM orders",
    },
    // Every inserted order arrives with its 4 lines in one transaction.
    Template {
        name: "inv_new_order_lines",
        sql: "SELECT l_orderkey, COUNT(*) AS n FROM lineitem WHERE l_orderkey >= 1000000000 \
              GROUP BY l_orderkey HAVING COUNT(*) <> 4",
    },
];

/// Names of the `short` templates, in the order their latencies are logged.
pub const SHORT_NAMES: &[&str] = &[
    "nation_by_key",
    "supplier_agg_by_nation",
    "order_by_key",
    "customer_by_key",
    "lines_of_order",
    "order_customer_range_join",
    "vw_queries_count",
];

/// One pass over `short`: ten statements, the system-table read once. By
/// latency the four quick templates are the first 40% of the statements, the
/// order lookups the next 20%, then the line lookups, and the range joins the
/// last 20%: the 50th and the 90th percentile each fall inside one template's
/// cluster, not on the gap between two, where they would jump between runs.
const SHORT_CYCLE: [usize; 10] = [0, 1, 2, 3, 4, 5, 2, 6, 4, 5];
/// Orders joined by the range-join template.
pub const RANGE_JOIN_KEYS: i64 = 32;

pub struct ShortStmt {
    pub template: usize,
    pub sql: String,
    /// Rows the generated data says the statement returns.
    pub expect_rows: usize,
}

/// The next round of `short` statements with keys drawn from `rng`.
pub fn short_round(rng: &mut Xoshiro256, facts: &Facts) -> Vec<ShortStmt> {
    SHORT_CYCLE
        .iter()
        .map(|&template| {
            let (sql, expect_rows) = match template {
                0 => (
                    format!(
                        "SELECT n_name, n_regionkey FROM nation WHERE n_nationkey = {}",
                        rng.range_i64(0, 24)
                    ),
                    1,
                ),
                1 => (
                    format!(
                        "SELECT COUNT(*) AS n, SUM(s_acctbal) AS bal FROM supplier WHERE s_nationkey = {}",
                        rng.range_i64(0, 24)
                    ),
                    1,
                ),
                2 => (
                    format!(
                        "SELECT o_orderkey, o_custkey, o_totalprice, o_orderdate FROM orders WHERE o_orderkey = {}",
                        rng.range_i64(1, facts.n_orders)
                    ),
                    1,
                ),
                3 => (
                    format!(
                        "SELECT c_name, c_acctbal, c_mktsegment FROM customer WHERE c_custkey = {}",
                        rng.range_i64(1, facts.n_customers)
                    ),
                    1,
                ),
                4 => {
                    let k = rng.range_i64(1, facts.n_orders);
                    (
                        format!(
                            "SELECT l_linenumber, l_quantity, l_extendedprice FROM lineitem \
                             WHERE l_orderkey = {} ORDER BY l_linenumber",
                            k
                        ),
                        facts.lines_of_order[k as usize] as usize,
                    )
                }
                5 => {
                    let k = rng.range_i64(1, facts.n_orders - RANGE_JOIN_KEYS + 1);
                    (
                        format!(
                            "SELECT o_orderkey, c_name, o_totalprice FROM orders, customer \
                             WHERE o_custkey = c_custkey AND o_orderkey >= {} AND o_orderkey < {} \
                             ORDER BY o_orderkey",
                            k,
                            k + RANGE_JOIN_KEYS
                        ),
                        RANGE_JOIN_KEYS as usize,
                    )
                }
                _ => ("SELECT COUNT(*) AS n FROM vw_queries".to_string(), 1),
            };
            ShortStmt {
                template,
                sql,
                expect_rows,
            }
        })
        .collect()
}
