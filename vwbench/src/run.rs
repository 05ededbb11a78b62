//! The untraced run: set up, measure for the asked time, check outputs and
//! report the end-to-end metrics.
//!
//! Rules of measurement, the same for every workload: SQL text in, rows out
//! through `Session::execute` on a database at engine defaults; templates run
//! round-robin, never back to back (back to back hides how the templates
//! evict each other from the decode cache); whole rounds only; each latency
//! is wall clock around `Session::execute` alone, checks happen outside it.

use crate::data::{self, Facts, ScratchDir};
use crate::mixed;
use crate::report::Report;
use crate::rss::{self, RssSampler};
use crate::stats::{geomean, median, percentile, LatencyLog};
use crate::verify::{self, Checks};
use crate::workloads::{self, Template, JOIN_AGG, MIXED_READ, SCAN, SHORT_NAMES};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vw_common::rng::Xoshiro256;
use vw_common::{Result, Value, VwError};
use vw_core::{Database, Session};

/// Set-ups per run; `setup_s` is their median. One set-up is generate, bulk
/// load, analyze and the warm-up rounds.
pub const SETUP_REPS: usize = 3;
/// Rounds run before timing so caches, cardinality feedback and the
/// aggregation-path feedback settle.
pub const WARMUP_ROUNDS: usize = 2;
/// `short` rounds are ten sub-millisecond statements; it warms up with more.
const SHORT_WARMUP_ROUNDS: usize = 30;
/// Statements of `short` also checked against the row engine.
const SHORT_ORACLE_SAMPLE: usize = 50;

pub struct Args {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    /// SF 0.01 and short phases: for the bin's own tests.
    pub smoke: bool,
}

impl Args {
    pub fn sf(&self) -> f64 {
        if self.smoke {
            data::SF_SMOKE
        } else {
            data::SF
        }
    }

    pub fn writer_period(&self) -> Duration {
        if self.smoke {
            mixed::PERIOD_SMOKE
        } else {
            mixed::PERIOD
        }
    }

    /// Transactions the `mixed_rw` writer issues in `seconds`.
    pub fn writer_txns(&self) -> usize {
        ((self.seconds / self.writer_period().as_secs_f64()) as usize).max(4)
    }

    pub fn templates(&self) -> Option<&'static [Template]> {
        match self.workload {
            "scan" => Some(SCAN),
            "join_agg" => Some(JOIN_AGG),
            "mixed_rw" => Some(MIXED_READ),
            _ => None,
        }
    }
}

/// A loaded, warmed-up database.
pub struct Ready {
    pub db: Arc<Database>,
    pub session: Arc<Session>,
    pub facts: Facts,
    /// Result of each fixed template in the last warm-up round (empty for
    /// `short`, whose statements change with their keys).
    pub references: Vec<Vec<Vec<Value>>>,
}

/// One set-up, timed: fresh database, generate, load, analyze, warm up.
pub fn set_up(scratch: &ScratchDir, args: &Args) -> Result<(Ready, f64)> {
    let t = Instant::now();
    let db = data::new_database(scratch)?;
    let facts = data::load_tpch(&db, args.sf(), args.seed)?;
    let session = db.session();
    let mut references = Vec::new();
    match args.templates() {
        Some(templates) => {
            for _ in 0..WARMUP_ROUNDS {
                references.clear();
                for t in templates {
                    references.push(session.execute(t.sql)?.rows);
                }
            }
        }
        None => {
            let mut rng = Xoshiro256::seeded(args.seed ^ 0x7761_726d);
            for _ in 0..SHORT_WARMUP_ROUNDS {
                for stmt in workloads::short_round(&mut rng, &facts) {
                    session.execute(&stmt.sql)?;
                }
            }
        }
    }
    let seconds = t.elapsed().as_secs_f64();
    // Not part of set-up: hygiene for the memory metric (see `rss`).
    rss::trim_heap();
    Ok((
        Ready {
            db,
            session,
            facts,
            references,
        },
        seconds,
    ))
}

/// Latencies of one round: (template, milliseconds) per statement.
type Round = Vec<(usize, f64)>;

/// The faster half of the rounds, as a latency log, with the time they took.
///
/// Every round is the same work, and what disturbs a round only ever adds
/// time. This container's speed itself moves: a fixed arithmetic loop takes
/// between 0.24 and 0.42 s here, in episodes of seconds to a minute. So the
/// slower rounds say what the neighbours cost, the faster ones what the code
/// costs, and every statistic of the read-only workloads is taken over the
/// faster half. (Not on `mixed_rw`: there slow rounds are the engine's own
/// stalls, which are the point.)
fn faster_half(names: Vec<&'static str>, mut rounds: Vec<Round>) -> (LatencyLog, f64) {
    let total = |r: &Round| r.iter().map(|(_, ms)| ms).sum::<f64>();
    rounds.sort_by(|a, b| total(a).total_cmp(&total(b)));
    rounds.truncate(rounds.len().div_ceil(2));
    let mut log = LatencyLog::new(names);
    for (template, ms) in rounds.iter().flatten() {
        log.record(*template, *ms);
    }
    (log, rounds.iter().map(total).sum::<f64>() / 1e3)
}

/// What a measured phase hands to the metric computation.
pub struct Measured {
    pub reads: LatencyLog,
    /// Seconds the statements in `reads` took.
    pub wall_s: f64,
    pub checks: Checks,
    /// Latencies that enter `lat_geomean_ms` beside the read templates'
    /// medians: the writer's transaction kinds on `mixed_rw`.
    pub writer_kinds: Vec<(&'static str, f64)>,
    pub info: Vec<String>,
}

pub fn timed(session: &Session, sql: &str) -> (Result<vw_core::QueryResult>, f64) {
    let t = Instant::now();
    let result = session.execute(sql);
    (result, t.elapsed().as_secs_f64() * 1e3)
}

/// `scan` and `join_agg`: whole rounds of the fixed templates until the time
/// is up, every result compared with the template's reference.
fn measure_fixed(ready: &Ready, templates: &[Template], seconds: f64) -> Measured {
    let mut rounds: Vec<Round> = Vec::new();
    let mut checks = Checks::default();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let mut round = Round::new();
        for (i, t) in templates.iter().enumerate() {
            let (result, ms) = timed(&ready.session, t.sql);
            round.push((i, ms));
            checks.record(match result {
                Err(e) => Err(format!("{}: {}", t.name, e)),
                Ok(r) => verify::rows_match(&r.rows, &ready.references[i])
                    .map_err(|m| format!("{}: differs from its verified result: {}", t.name, m)),
            });
        }
        rounds.push(round);
    }
    // The references themselves, against the row engine over the same
    // optimized plans. After the window: the row engine's boxed hash tables
    // would otherwise count into the memory metric.
    for (t, reference) in templates.iter().zip(&ready.references) {
        checks.record(
            verify::check_against_row_engine(&ready.db, t.sql, reference)
                .map_err(|m| format!("{}: {}", t.name, m)),
        );
    }
    let info = vec![format!("{} rounds run, the faster half kept", rounds.len())];
    let (reads, wall_s) = faster_half(templates.iter().map(|t| t.name).collect(), rounds);
    Measured {
        reads,
        wall_s,
        checks,
        writer_kinds: Vec::new(),
        info,
    }
}

/// `short`: rounds of ten keyed statements; row counts checked against what
/// the generator produced, a sample also against the row engine.
fn measure_short(ready: &Ready, seed: u64, seconds: f64) -> Measured {
    let mut rounds: Vec<Round> = Vec::new();
    let mut checks = Checks::default();
    let mut rng = Xoshiro256::seeded(seed ^ 0x7368_6f72);
    let mut sample: Vec<(String, Vec<Vec<Value>>)> = Vec::new();
    let vw_queries = SHORT_NAMES.len() - 1;
    let start = Instant::now();
    let mut n = 0usize;
    while start.elapsed().as_secs_f64() < seconds {
        let mut round = Round::new();
        for stmt in workloads::short_round(&mut rng, &ready.facts) {
            let (result, ms) = timed(&ready.session, &stmt.sql);
            round.push((stmt.template, ms));
            n += 1;
            match result {
                Err(e) => checks.fail(format!("{}: {}", stmt.sql, e)),
                Ok(r) if r.len() != stmt.expect_rows => checks.fail(format!(
                    "{}: {} rows, the generated data has {}",
                    stmt.sql,
                    r.len(),
                    stmt.expect_rows
                )),
                Ok(r) => {
                    checks.pass();
                    // A spread-out sample; the history ring behind
                    // vw_queries moves between the statement and the check.
                    if n.is_multiple_of(97)
                        && sample.len() < SHORT_ORACLE_SAMPLE
                        && stmt.template != vw_queries
                    {
                        sample.push((stmt.sql, r.rows));
                    }
                }
            }
        }
        rounds.push(round);
    }
    for (sql, rows) in &sample {
        checks.record(
            verify::check_against_row_engine(&ready.db, sql, rows)
                .map_err(|m| format!("{}: {}", sql, m)),
        );
    }
    let info = vec![
        format!("{} rounds run, the faster half kept", rounds.len()),
        format!(
            "{} statements also checked against the row engine",
            sample.len()
        ),
    ];
    let (reads, wall_s) = faster_half(SHORT_NAMES.to_vec(), rounds);
    Measured {
        reads,
        wall_s,
        checks,
        writer_kinds: Vec::new(),
        info,
    }
}

/// `mixed_rw`: both clients, then the end state against the writer's model,
/// before and after a simulated crash.
fn measure_mixed(ready: &Ready, args: &Args) -> Measured {
    let period = args.writer_period();
    let out = mixed::run_mixed(
        &ready.db,
        &ready.session,
        &ready.facts,
        args.seed,
        args.writer_txns(),
        period,
        None,
    );
    let info = vec![
        format!(
            "writer: {} transactions, one due per {} ms, generator at most {:.3} ms late, {} aborts",
            out.txn_ms.iter().map(Vec::len).sum::<usize>(),
            period.as_millis(),
            out.writer_late_ms_max,
            ready.db.abort_count()
        ),
        format!(
            "writer: due-to-commit p90 {:.3} ms; checkpoints (orders, lineitem) ms {:?}",
            out.commit_p90_ms(),
            out.checkpoint_ms
        ),
    ];
    let writer_kinds = mixed::TXN_KINDS
        .into_iter()
        .zip(out.kind_means())
        .filter(|(_, ms)| *ms > 0.0)
        .collect();
    let mut checks = mixed::verify_durable(&ready.db, &ready.session, &ready.facts, &out.model);
    checks.merge(out.checks);
    Measured {
        reads: out.reads,
        wall_s: out.read_wall_s,
        checks,
        writer_kinds,
        info,
    }
}

/// Run one workload untraced and report the end-to-end metrics.
pub fn run(args: &Args) -> Result<Report> {
    let scratch = ScratchDir::create()?;
    let mut setup_s = Vec::new();
    let mut ready = None;
    for _ in 0..SETUP_REPS {
        // The previous database goes first: two at once would double the
        // memory the run needs.
        drop(ready.take());
        let (r, seconds) = set_up(&scratch, args)?;
        setup_s.push(seconds);
        ready = Some(r);
    }
    let ready = ready.expect("SETUP_REPS is at least 1");

    let sampler = RssSampler::start();
    let measured = match args.templates() {
        Some(_) if args.workload == "mixed_rw" => measure_mixed(&ready, args),
        Some(templates) => measure_fixed(&ready, templates, args.seconds),
        None => measure_short(&ready, args.seed, args.seconds),
    };
    let peak_rss_mb = sampler
        .finish()
        .ok_or_else(|| VwError::Io("cannot read VmRSS from /proc/self/status".into()))?;
    // On mixed_rw this is after the last checkpoint: rows inserted since
    // live in the PDT, not in the stable image.
    let (encoded, raw) = data::storage_bytes(&ready.db)?;

    let medians: Vec<(&'static str, f64)> = measured
        .reads
        .names
        .iter()
        .copied()
        .zip(measured.reads.template_medians())
        .collect();
    let all = measured.reads.all_sorted();
    let n = measured.reads.count();
    let mut info = vec![format!(
        "seed {} sf {} setups {:?} s; statistics over {} read statements that took {:.3} s",
        args.seed,
        args.sf(),
        setup_s,
        n,
        measured.wall_s
    )];
    for (name, ms) in &medians {
        info.push(format!("median_ms {} {:.4}", name, ms));
    }
    for (name, ms) in &measured.writer_kinds {
        info.push(format!("mean_due_to_commit_ms {} {:.4}", name, ms));
    }
    info.extend(measured.info);
    let per_template: Vec<f64> = medians
        .iter()
        .chain(&measured.writer_kinds)
        .map(|(_, ms)| *ms)
        .collect();
    Ok(Report {
        workload: args.workload,
        checks: measured.checks,
        metrics: vec![
            ("setup_s", median(&setup_s)),
            ("stmts_per_s", n as f64 / measured.wall_s),
            ("lat_geomean_ms", geomean(&per_template)),
            ("lat_p50_ms", percentile(&all, 0.5)),
            ("lat_p90_ms", percentile(&all, 0.9)),
            ("peak_rss_mb", peak_rss_mb),
            ("storage_bytes_per_user_byte", encoded as f64 / raw as f64),
        ],
        info,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faster_half_keeps_the_quicker_rounds_whole() {
        // Four rounds of two templates; the disturbed rounds are 0 and 2.
        let rounds: Vec<Round> = vec![
            vec![(0, 30.0), (1, 3.0)],
            vec![(0, 10.0), (1, 1.0)],
            vec![(0, 50.0), (1, 1.0)],
            vec![(0, 11.0), (1, 2.0)],
        ];
        let (log, wall_s) = faster_half(vec!["a", "b"], rounds);
        assert_eq!(log.ms, vec![vec![10.0, 11.0], vec![1.0, 2.0]]);
        assert!((wall_s - 0.024).abs() < 1e-12);
        // An odd count keeps the larger half; one round is kept as it is.
        let rounds: Vec<Round> = (1..=5).map(|i| vec![(0, i as f64)]).collect();
        assert_eq!(
            faster_half(vec!["a"], rounds).0.ms,
            vec![vec![1.0, 2.0, 3.0]]
        );
        assert_eq!(faster_half(vec!["a"], vec![vec![(0, 7.0)]]).0.count(), 1);
    }
}
