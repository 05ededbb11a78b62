//! The benchmark's contract: workloads, metric names, units, directions and
//! bounds. `BENCHMARK.json` at the repository root is generated from these
//! tables (`vwbench spec`) and a unit test keeps the two equal.

use crate::json::Json;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "scan",
        why: "7 lineitem scan templates round-robin, 116 MiB raw against a 32 MiB decode cache: VecScan, block cursors and the decode cache do most of the work, hash operators almost none",
    },
    Workload {
        name: "join_agg",
        why: "Q3 Q5 Q9 Q10 Q18 plus an 80K-group aggregate and a full sort: hash build/probe, aggregation and sort dominate, scans are a few ms, so a scan-only change should not move it",
    },
    Workload {
        name: "short",
        why: "point lookups, small joins and a system-table read with seeded keys: data fits every cache, so parse, bind, optimize, admission and per-query bookkeeping dominate",
    },
    Workload {
        name: "mixed_rw",
        why: "an open-loop writer (insert, update, delete, checkpoint) beside a closed-loop reader on one database: PDT-merged scans, DML, WAL fsync and checkpoint stalls meet, so read/write trades show",
    },
];

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which an end-to-end metric may worsen;
    /// per-layer metrics carry no bound.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: higher,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: false,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: true,
        bound: None,
    }
}

/// Seconds one untraced run measures for. Part of `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 12;

/// The bounds are what the measured A/A spreads support, not what one would
/// like: this container's own speed moves by a quarter for a minute at a
/// time (README.md, "Steadiness", has the measured spreads beside each
/// bound). 0.25 is the most the contract allows.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", false, 0.25),
    e2e("stmts_per_s", "1/s", true, 0.25),
    e2e("lat_geomean_ms", "ms", false, 0.25),
    e2e("lat_p50_ms", "ms", false, 0.25),
    e2e("lat_p90_ms", "ms", false, 0.25),
    e2e("peak_rss_mb", "MB", false, 0.25),
    e2e("storage_bytes_per_user_byte", "ratio", false, 0.01),
];

pub const PER_LAYER: &[Metric] = &[
    // Staged pipeline: medians per statement over the traced rounds.
    lower("sql.parse_us", "us"),
    lower("sql.bind_us", "us"),
    lower("plan.optimize_us", "us"),
    lower("core.compile_us", "us"),
    lower("core.execute_ms", "ms"),
    lower("sql.frontend_share_pct", "%"),
    lower("core.lifecycle_overhead_us", "us"),
    lower("core.sched.admission_us", "us"),
    lower("core.sched.waited", "count"),
    lower("core.systab.query_us", "us"),
    // Operator and resource breakdown from the engine's own QueryProfile:
    // sums over one round, median of the traced rounds.
    lower("core.scan.self_ms", "ms"),
    lower("core.scan.share_pct", "%"),
    higher("core.scan.mrows_per_s", "Mrows/s"),
    lower("core.scan.vec_decoded", "count"),
    higher("core.scan.vec_skipped", "count"),
    higher("core.scan.enc_evals", "count"),
    higher("bufman.decode_cache.hit_rate", "ratio"),
    lower("bufman.decode_cache.evictions", "count"),
    lower("bufman.decode_cache.miss_decode_ms", "ms"),
    lower("bufman.decode_cache.resident_mb", "MB"),
    lower("storage.disk.reads", "count"),
    lower("storage.disk.bytes_read_per_tuple", "B"),
    higher("storage.disk.bytes_skipped_mb", "MB"),
    lower("storage.disk.virtual_read_ms", "ms"),
    lower("storage.block_io_wait_ms", "ms"),
    lower("core.filter.self_ms", "ms"),
    lower("core.project.self_ms", "ms"),
    lower("core.join.self_ms", "ms"),
    lower("core.aggregate.self_ms", "ms"),
    lower("core.sort.self_ms", "ms"),
    lower("core.mem.peak_bytes", "B"),
    lower("core.spill.bytes", "B"),
    lower("storage.encoded_mb", "MB"),
    lower("storage.raw_mb", "MB"),
    // Baseline engines over the workload's own optimized plans.
    lower("baselines.row.geomean_ms", "ms"),
    lower("baselines.mat.geomean_ms", "ms"),
    higher("baselines.ratio_vs_row", "ratio"),
    higher("baselines.ratio_vs_mat", "ratio"),
    // Scan ladder: tight loops over real lineitem blocks and scan-only plans.
    higher("storage.codec.plain.decode_gbps", "GB/s"),
    higher("storage.codec.pfor.decode_gbps", "GB/s"),
    higher("storage.codec.pfor_delta.decode_gbps", "GB/s"),
    higher("storage.codec.pdict.decode_gbps", "GB/s"),
    higher("storage.codec.rle.decode_gbps", "GB/s"),
    higher("storage.cursor.eval_pred.pfor_mrows_per_s", "Mrows/s"),
    higher("storage.cursor.eval_pred.pdict_mrows_per_s", "Mrows/s"),
    higher("storage.cursor.eval_pred.plain_f64_mrows_per_s", "Mrows/s"),
    lower("storage.cursor.decode_slice_us", "us"),
    lower("bufman.decode_cache.hit_us", "us"),
    lower("bufman.decode_cache.insert_us", "us"),
    higher("core.vecscan.c1_mrows_per_s", "Mrows/s"),
    higher("core.vecscan.c4_mrows_per_s", "Mrows/s"),
    higher("core.vecscan.c8_mrows_per_s", "Mrows/s"),
    higher("core.vecscan.sel1_mrows_per_s", "Mrows/s"),
    higher("core.vecscan.sel50_mrows_per_s", "Mrows/s"),
    lower("core.vecscan.us_per_vector", "us"),
    lower("core.scale.scan_round_ratio_sf02", "ratio"),
    lower("core.profile.overhead_pct", "%"),
    higher("core.exchange.dop2_speedup_q1", "ratio"),
    // Operator ladder: public operators over in-memory batches.
    higher("core.join.build_mrows_per_s", "Mrows/s"),
    higher("core.join.probe_mrows_per_s", "Mrows/s"),
    higher("core.aggregate.generic_mrows_per_s", "Mrows/s"),
    higher("core.aggregate.perfect_mrows_per_s", "Mrows/s"),
    higher("core.sort.mrows_per_s", "Mrows/s"),
    higher("core.topn.mrows_per_s", "Mrows/s"),
    higher("core.exchange.dop2_speedup_q18", "ratio"),
    lower("core.spill.slowdown_q18", "ratio"),
    // Write ladder: one client, nothing else running.
    lower("core.dml.update_ms", "ms"),
    lower("core.dml.delete_ms", "ms"),
    lower("core.dml.insert_us", "us"),
    lower("core.dml.kb_read_per_row_changed", "KB"),
    lower("txn.commit_us", "us"),
    lower("txn.wal.append_us", "us"),
    lower("txn.wal.bytes_per_user_byte", "ratio"),
    lower("pdt.update_us", "us"),
    lower("txn.checkpoint.lineitem_ms", "ms"),
    lower("txn.checkpoint.orders_ms", "ms"),
    lower("txn.checkpoint.bytes_rewritten_mb", "MB"),
    lower("pdt.entries_at_checkpoint", "count"),
    lower("pdt.dirty_scan_slowdown", "ratio"),
    // The open-loop writer of mixed_rw; 0 on the read-only workloads, which
    // run no writer.
    lower("txn.open_loop.neworder_ms", "ms"),
    lower("txn.open_loop.transfer_ms", "ms"),
    lower("txn.open_loop.delete_ms", "ms"),
    lower("txn.open_loop.commit_p90_ms", "ms"),
    lower("txn.checkpoint.total_s", "s"),
    lower("txn.checkpoint.read_stall_ms", "ms"),
    lower("txn.conflicts", "count"),
    lower("harness.writer_late_ms_max", "ms"),
    lower("harness.trace_overhead_pct", "%"),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A metric or workload name the contract accepts: starts with a letter or
/// digit, then letters, digits, `_`, `.` and `-`, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit the contract accepts: letters, digits, `_ / % . -`, 1 to 16 long.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Check the tables against the limits of the benchmark contract; the
/// `spec` command refuses to print a `BENCHMARK.json` that breaks one.
pub fn validate() -> Result<(), String> {
    let check = |ok: bool, what: String| if ok { Ok(()) } else { Err(what) };
    check(
        (2..=8).contains(&WORKLOADS.len()),
        "2 to 8 workloads".into(),
    )?;
    check(
        (1..=16).contains(&END_TO_END.len()),
        "1 to 16 end-to-end metrics".into(),
    )?;
    check(
        (1..=128).contains(&PER_LAYER.len()),
        "1 to 128 per-layer metrics".into(),
    )?;
    check(
        (1..=60).contains(&RUN_SECONDS),
        "run_seconds is 1 to 60".into(),
    )?;
    let mut seen = std::collections::HashSet::new();
    for w in WORKLOADS {
        check(
            valid_name(w.name),
            format!("bad workload name '{}'", w.name),
        )?;
        check(
            seen.insert(w.name),
            format!("name '{}' is used twice", w.name),
        )?;
        check(
            w.why.len() <= 200 && !w.why.contains('\n'),
            format!(
                "the why of '{}' is one line of at most 200 characters",
                w.name
            ),
        )?;
    }
    for m in END_TO_END.iter().chain(PER_LAYER) {
        check(valid_name(m.name), format!("bad metric name '{}'", m.name))?;
        check(
            seen.insert(m.name),
            format!("name '{}' is used twice", m.name),
        )?;
        check(
            valid_unit(m.unit),
            format!("bad unit '{}' of '{}'", m.unit, m.name),
        )?;
    }
    for m in END_TO_END {
        check(
            m.bound.is_some_and(|b| b > 0.0 && b <= 0.25),
            format!("'{}' needs a bound of at most 0.25", m.name),
        )?;
    }
    check(
        PER_LAYER.iter().all(|m| m.bound.is_none()),
        "per-layer metrics carry no bound".into(),
    )?;
    // setup_s is required, in seconds, lower is better, with the largest bound.
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .ok_or("setup_s is required")?;
    check(
        setup.unit == "s" && !setup.higher_is_better,
        "setup_s is in s and lower is better".into(),
    )?;
    check(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound".into(),
    )?;
    check(
        benchmark_json().render().len() <= 64 * 1024,
        "BENCHMARK.json is at most 64 KiB".into(),
    )
}

/// The whole of `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    let metric = |m: &Metric| {
        let mut pairs = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            (
                "better",
                Json::str(if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                }),
            ),
        ];
        if let Some(b) = m.bound {
            pairs.push(("bound", Json::Num(b)));
        }
        Json::obj(pairs)
    };
    Json::obj(vec![
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--quiet",
                    "--offline",
                    "--manifest-path",
                    "vwbench/Cargo.toml",
                    "--",
                ]
                .into_iter()
                .map(Json::str)
                .collect(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("vwbench")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_validator_follows_the_contract() {
        for ok in ["lat_p50_ms", "core.scan.self_ms", "a", "9lives", "x-y.z_0"] {
            assert!(valid_name(ok), "{}", ok);
        }
        let too_long = "a".repeat(65);
        for bad in [
            "",
            ".hidden",
            "_x",
            "has space",
            "slash/x",
            "é",
            too_long.as_str(),
        ] {
            assert!(!valid_name(bad), "{}", bad);
        }
        assert!(valid_name(&"a".repeat(64)));
        for ok in ["ms", "1/s", "%", "Mrows/s", "GB/s", "count"] {
            assert!(valid_unit(ok), "{}", ok);
        }
        for bad in ["", "rows per s", "seventeen_chars__"] {
            assert!(!valid_unit(bad), "{}", bad);
        }
    }

    #[test]
    fn tables_stay_inside_the_contract_limits() {
        assert_eq!(validate(), Ok(()));
    }

    #[test]
    fn benchmark_json_at_the_root_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            Json::parse(&text).expect("BENCHMARK.json parses"),
            benchmark_json(),
            "regenerate with `vwbench spec > BENCHMARK.json`"
        );
    }
}
