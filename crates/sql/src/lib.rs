//! `vw-sql` — the SQL front-end: lexer, parser, binder.
//!
//! In the Vectorwise product SQL lives in the Ingres front-end (§I-B); here
//! a self-contained implementation covers the analytical dialect the engine
//! needs:
//!
//! * `SELECT` with projections, expressions, aliases, `DISTINCT`;
//! * `FROM` with comma joins and explicit `[INNER|LEFT] JOIN ... ON`;
//! * `WHERE` (full boolean expressions, `BETWEEN`, `IN`, `LIKE`,
//!   `IS [NOT] NULL`), uncorrelated `IN (SELECT ...)` subqueries
//!   (bound to semi/anti joins);
//! * `GROUP BY` / `HAVING` with `COUNT/SUM/MIN/MAX/AVG`;
//! * `ORDER BY` (output names or ordinals) and `LIMIT`/`OFFSET`;
//! * `CREATE TABLE`, `INSERT ... VALUES`, `UPDATE`, `DELETE`;
//! * `EXPLAIN <query>`;
//! * scalar functions: `SUBSTRING`, `EXTRACT(YEAR|MONTH FROM ...)`,
//!   `CAST`, date literals (`DATE '1995-01-01'`) and
//!   `INTERVAL 'n' MONTH|YEAR` arithmetic.
//!
//! The binder resolves names against a [`CatalogView`] and emits
//! engine-neutral [`vw_plan::LogicalPlan`]s, comma joins in written order;
//! `vw_plan::optimizer` chooses the join order.

pub mod ast;
pub mod binder;
pub mod lexer;
pub mod parser;

pub use ast::{AstExpr, SelectStmt, SetScope, Statement};
pub use binder::{bind, BoundStatement, CatalogView};
pub use parser::parse_statement;

use vw_common::Result;

/// Parse and bind one SQL statement.
pub fn compile_sql(sql: &str, catalog: &dyn CatalogView) -> Result<BoundStatement> {
    let stmt = parse_statement(sql)?;
    bind(&stmt, catalog)
}
