//! Virtual `vw_` system tables.
//!
//! The monitoring surface every production analytical DBMS grows (Vertica's
//! system tables are the canonical example): the engine's own telemetry —
//! query history, per-operator profiles, the metrics registry, I/O and cache
//! counters — exposed as relations so it is queryable with plain SQL in
//! either engine. This module owns the *catalog* side: reserved table ids,
//! names and schemas. The `Database` materializes the rows (a point-in-time
//! snapshot taken when a query referencing a system table starts executing).

use vw_common::{DataType, Field, Schema, TableId};

/// System tables live at the top of the id space; user tables are allocated
/// sequentially from 1 and can never collide.
pub const SYS_TABLE_BASE: u64 = u64::MAX - 64;

/// All virtual system tables, in catalog order.
pub const SYSTEM_TABLE_NAMES: &[&str] = &[
    "vw_queries",
    "vw_operator_stats",
    "vw_metrics",
    "vw_io",
    "vw_cache",
    "vw_waits",
    "vw_log",
];

/// True if `id` denotes a virtual system table.
pub fn is_system_table(id: TableId) -> bool {
    id.0 >= SYS_TABLE_BASE
}

/// Resolve a system-table name to its reserved id + schema.
pub fn system_table(name: &str) -> Option<(TableId, Schema)> {
    let idx = SYSTEM_TABLE_NAMES.iter().position(|&n| n == name)?;
    Some((TableId(SYS_TABLE_BASE + idx as u64), system_schema(name)))
}

/// Name of the system table with reserved id `id`.
pub fn system_table_name(id: TableId) -> Option<&'static str> {
    if !is_system_table(id) {
        return None;
    }
    SYSTEM_TABLE_NAMES
        .get((id.0 - SYS_TABLE_BASE) as usize)
        .copied()
}

/// Schema of each system table. Kept here (not derived from rows) so tests
/// can assert schema stability and the binder can resolve columns without
/// materializing anything.
pub fn system_schema(name: &str) -> Schema {
    match name {
        // One row per query retained in the history ring (oldest first).
        // The *_ms tail mirrors the lifecycle timeline: the phases sum to
        // wall_ms (see `profile::Timeline`).
        "vw_queries" => Schema::new(vec![
            Field::new("query_id", DataType::I64),
            Field::nullable("sql", DataType::Str),
            Field::new("wall_ms", DataType::F64),
            Field::new("rows", DataType::I64),
            Field::new("dop", DataType::I64),
            Field::new("peak_mem_bytes", DataType::I64),
            Field::new("spill_bytes", DataType::I64),
            Field::new("session_id", DataType::I64),
            Field::new("parse_ms", DataType::F64),
            Field::new("bind_ms", DataType::F64),
            Field::new("optimize_ms", DataType::F64),
            Field::new("admission_ms", DataType::F64),
            Field::new("checkpoint_ms", DataType::F64),
            Field::new("execute_ms", DataType::F64),
        ]),
        // One row per operator of each profiled query in the history ring.
        "vw_operator_stats" => Schema::new(vec![
            Field::new("query_id", DataType::I64),
            Field::new("op", DataType::Str),
            Field::new("plan_node", DataType::Str),
            Field::new("time_ms", DataType::F64),
            Field::new("next_calls", DataType::I64),
            Field::new("vectors", DataType::I64),
            Field::new("rows", DataType::I64),
            // Operator-specific counters ("agg_path_perfect=1, fused_scan=1"),
            // NULL when the operator reported none.
            Field::nullable("extras", DataType::Str),
        ]),
        // The flattened metrics registry (counters, gauges, polled gauges,
        // histogram count/sum/buckets), sorted by (name, label, kind).
        "vw_metrics" => Schema::new(vec![
            Field::new("name", DataType::Str),
            Field::new("label", DataType::Str),
            Field::new("kind", DataType::Str),
            Field::new("value", DataType::F64),
        ]),
        // One row per SimDisk: the database's main disk plus one device per
        // table range partition, each with its own cumulative counters.
        "vw_io" => Schema::new(vec![
            Field::new("disk", DataType::Str),
            Field::new("reads", DataType::I64),
            Field::new("writes", DataType::I64),
            Field::new("bytes_read", DataType::I64),
            Field::new("bytes_written", DataType::I64),
            Field::new("bytes_skipped", DataType::I64),
            Field::new("virtual_read_ms", DataType::F64),
        ]),
        // One row per attached cache (the ABM, when the database has one).
        "vw_cache" => Schema::new(vec![
            Field::new("cache", DataType::Str),
            Field::new("hits", DataType::I64),
            Field::new("misses", DataType::I64),
            Field::new("evictions", DataType::I64),
            Field::new("resident_bytes", DataType::I64),
        ]),
        // Wait-state attribution: one row per query in the history ring ×
        // wait class with nonzero time (block_io, decode, build_wait,
        // spill_read, spill_write, morsel, admission).
        "vw_waits" => Schema::new(vec![
            Field::new("query_id", DataType::I64),
            Field::new("wait_class", DataType::Str),
            Field::new("wait_ms", DataType::F64),
            // Blocking events, not vectors ("wait_count" rather than "count"
            // so the column name doesn't collide with the COUNT keyword).
            Field::new("wait_count", DataType::I64),
        ]),
        // The structured event log ring, oldest first. `detail` holds the
        // event's key-value fields rendered as "k=v k=v".
        "vw_log" => Schema::new(vec![
            Field::new("seq", DataType::I64),
            Field::new("ts_ms", DataType::F64),
            Field::new("severity", DataType::Str),
            Field::new("event", DataType::Str),
            Field::new("query_id", DataType::I64),
            Field::new("session_id", DataType::I64),
            Field::nullable("detail", DataType::Str),
        ]),
        other => panic!("unknown system table '{other}'"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_resolve_to_distinct_reserved_ids() {
        let mut ids = std::collections::HashSet::new();
        for &name in SYSTEM_TABLE_NAMES {
            let (id, schema) = system_table(name).unwrap();
            assert!(is_system_table(id), "{name} id not in reserved range");
            assert!(ids.insert(id), "duplicate id for {name}");
            assert!(!schema.is_empty());
            assert_eq!(system_table_name(id), Some(name));
        }
        assert!(system_table("lineitem").is_none());
        assert!(!is_system_table(TableId(1)));
    }
}
