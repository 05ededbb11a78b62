//! Engine-wide tuning constants.
//!
//! The single most important knob in a vectorized engine is the vector size:
//! the number of tuples processed per primitive invocation. X100 found ~1K
//! tuples to be the sweet spot — large enough to amortize interpretation
//! overhead over a whole vector, small enough that all vectors touched by a
//! query pipeline stay resident in the CPU cache.

/// Default number of tuples per vector.
pub const VECTOR_SIZE: usize = 1024;

/// Default number of values per column block on "disk" (storage granularity).
pub const BLOCK_VALUES: usize = 64 * 1024;

/// Default size in bytes we model for a physical disk block (compressed).
pub const BLOCK_BYTES: usize = 512 * 1024;

/// Parse a human-friendly byte size: a plain integer (bytes) or an integer
/// with a `K`/`M`/`G` suffix, optionally followed by `B` or `iB`
/// (case-insensitive). All suffixes are binary (powers of 1024): `16MiB`,
/// `16MB`, and `16m` all mean `16 * 1024 * 1024`.
pub fn parse_byte_size(s: &str) -> Option<usize> {
    let s = s.trim();
    let digits_end = s
        .char_indices()
        .find(|(_, c)| !c.is_ascii_digit())
        .map_or(s.len(), |(i, _)| i);
    let n: usize = s[..digits_end].parse().ok()?;
    let unit = s[digits_end..].trim().to_ascii_lowercase();
    let shift = match unit.as_str() {
        "" | "b" => 0,
        "k" | "kb" | "kib" => 10,
        "m" | "mb" | "mib" => 20,
        "g" | "gb" | "gib" => 30,
        _ => return None,
    };
    n.checked_shl(shift)
}

/// Environment variable consulted by `EngineConfig::default()` for the
/// execution-memory budget (e.g. `VW_MEM_BUDGET=16MiB`). Lets the whole
/// test suite run memory-governed without code changes (used by the
/// low-memory CI job). `0` or `unbounded` mean no limit.
pub const MEM_BUDGET_ENV: &str = "VW_MEM_BUDGET";

/// Environment variable giving tables created without an explicit
/// `PARTITION BY` clause a default range-partitioned layout with this many
/// partitions (`VW_PARTITIONS=4`; the partition column defaults to the
/// leading declared sort column, else column 0). The `partitioned` CI leg
/// uses this to exercise the multi-disk path on the whole suite. Unset,
/// `0`, or `1` mean no default partitioning.
pub const PARTITIONS_ENV: &str = "VW_PARTITIONS";

/// Default partition count from [`PARTITIONS_ENV`]; `None` when unset or ≤ 1.
pub fn env_default_partitions() -> Option<usize> {
    let v = std::env::var(PARTITIONS_ENV).ok()?;
    match v.trim().parse::<usize>() {
        Ok(n) if n > 1 => Some(n),
        _ => None,
    }
}

/// Default capacity of the per-database query-history ring (`vw_queries`).
pub const QUERY_HISTORY_DEFAULT: usize = 128;

/// Upper bound accepted by `SET query_history = N` (keeps the ring bounded
/// even under adversarial settings).
pub const QUERY_HISTORY_MAX: usize = 65_536;

/// Parse a human-friendly duration into nanoseconds: a plain integer is
/// nanoseconds; `us`/`ms`/`s` suffixes scale (case-insensitive, optional
/// space). `SET log_min_duration = '5ms'` and `= 5000000` are equivalent.
pub fn parse_duration_ns(s: &str) -> Option<u64> {
    let s = s.trim();
    let digits_end = s
        .char_indices()
        .find(|(_, c)| !c.is_ascii_digit())
        .map_or(s.len(), |(i, _)| i);
    let n: u64 = s[..digits_end].parse().ok()?;
    let unit = s[digits_end..].trim().to_ascii_lowercase();
    let mult: u64 = match unit.as_str() {
        "" | "ns" => 1,
        "us" => 1_000,
        "ms" => 1_000_000,
        "s" => 1_000_000_000,
        _ => return None,
    };
    n.checked_mul(mult)
}

fn env_byte_size(var: &str) -> Option<usize> {
    let v = std::env::var(var).ok()?;
    if v.eq_ignore_ascii_case("unbounded") || v.eq_ignore_ascii_case("none") {
        return None;
    }
    match parse_byte_size(&v) {
        Some(0) | None => None,
        some => some,
    }
}

/// Runtime-configurable engine options, threaded through executors.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Tuples per vector (per primitive call).
    pub vector_size: usize,
    /// Degree of parallelism the `parallelize` rewrite rule targets.
    pub parallelism: usize,
    /// Whether the null-decompose rewrite runs (on by default; off selects
    /// the naive per-value NULL checks the rewrite replaces).
    pub rewrite_nulls: bool,
    /// Whether queries record a per-operator profile. On by default: with
    /// ~1K-tuple vectors the bookkeeping is one timestamp pair and a few
    /// counter adds per `next()` call, amortized to well under 1% of query
    /// time (the X100 argument for always-on profiling). `EXPLAIN ANALYZE`
    /// forces it on regardless.
    pub profiling: bool,
    /// Query-wide execution-memory budget in bytes; `None` = unbounded.
    /// Shared by all workers of one query: stateful operators (hash join
    /// build, aggregation table, sort buffer) reserve against it and spill
    /// to disk under pressure. Defaults from `VW_MEM_BUDGET` if set.
    pub mem_budget_bytes: Option<usize>,
    /// Inert: no query reads it. Scans decode into their own vectors and the
    /// engine holds no decoded-slice cache. vwbench sizes its standalone
    /// `DecodeCache` rung from it; retire it with the
    /// `bufman.decode_cache.*` rungs.
    pub decode_cache_bytes: usize,
    /// Slow-query threshold in nanoseconds for the structured event log:
    /// queries whose wall time meets or exceeds it emit a `slow_query`
    /// event. `None` (default) disables slow-query logging. Set via
    /// `SET log_min_duration = <ns | '5ms' | 0 to disable>`.
    pub log_min_duration_ns: Option<u64>,
    /// Capacity of the query-history ring backing `vw_queries`. Evictions
    /// are counted in the `history_evicted_total` metric. Set via
    /// `SET query_history = N` (clamped to [`QUERY_HISTORY_MAX`]).
    pub query_history: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            vector_size: VECTOR_SIZE,
            parallelism: 1,
            rewrite_nulls: true,
            profiling: true,
            mem_budget_bytes: env_byte_size(MEM_BUDGET_ENV),
            decode_cache_bytes: 32 << 20,
            log_min_duration_ns: None,
            query_history: QUERY_HISTORY_DEFAULT,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = EngineConfig::default();
        assert_eq!(c.vector_size, VECTOR_SIZE);
        assert_eq!(c.parallelism, 1);
        assert!(c.rewrite_nulls);
        assert!(c.profiling);
        assert_eq!(c.query_history, QUERY_HISTORY_DEFAULT);
        assert_eq!(c.log_min_duration_ns, None);
        assert!(VECTOR_SIZE.is_power_of_two());
        assert!(BLOCK_VALUES.is_multiple_of(VECTOR_SIZE));
    }

    #[test]
    fn byte_size_parsing() {
        assert_eq!(parse_byte_size("0"), Some(0));
        assert_eq!(parse_byte_size("4096"), Some(4096));
        assert_eq!(parse_byte_size("16MiB"), Some(16 << 20));
        assert_eq!(parse_byte_size("16mb"), Some(16 << 20));
        assert_eq!(parse_byte_size(" 2 GiB "), Some(2 << 30));
        assert_eq!(parse_byte_size("512k"), Some(512 << 10));
        assert_eq!(parse_byte_size("1B"), Some(1));
        assert_eq!(parse_byte_size("x"), None);
        assert_eq!(parse_byte_size("16XB"), None);
        assert_eq!(parse_byte_size(""), None);
    }

    #[test]
    fn duration_parsing() {
        assert_eq!(parse_duration_ns("0"), Some(0));
        assert_eq!(parse_duration_ns("1"), Some(1));
        assert_eq!(parse_duration_ns("5ms"), Some(5_000_000));
        assert_eq!(parse_duration_ns("10 us"), Some(10_000));
        assert_eq!(parse_duration_ns("2s"), Some(2_000_000_000));
        assert_eq!(parse_duration_ns("7ns"), Some(7));
        assert_eq!(parse_duration_ns("x"), None);
        assert_eq!(parse_duration_ns("5m"), None);
        assert_eq!(parse_duration_ns(""), None);
    }

    #[test]
    fn mem_budget_tracks_env() {
        // The low-memory CI job runs the whole suite with VW_MEM_BUDGET set,
        // so assert consistency with the environment rather than a fixed
        // value.
        let expected = std::env::var(MEM_BUDGET_ENV)
            .ok()
            .filter(|v| !v.eq_ignore_ascii_case("unbounded") && !v.eq_ignore_ascii_case("none"))
            .and_then(|v| parse_byte_size(&v))
            .filter(|&n| n > 0);
        assert_eq!(EngineConfig::default().mem_budget_bytes, expected);
    }
}
