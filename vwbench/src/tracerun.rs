//! The traced run: per-layer metrics for one workload.
//!
//! 1. The workload's statements through the staged path, one span per layer
//!    call (`trace::staged_execute`).
//! 2. The same statements through `Session::execute`, untraced, harvesting
//!    the engine's own `QueryProfile` after each; the results must agree with
//!    step 1, and the difference in time is what the tracing costs.
//! 3. The baseline engines over the same plans.
//! 4. On `mixed_rw`, both clients with the reader's profiles harvested.
//! 5. The ladder.
//!
//! End-to-end numbers never come from here.

use crate::breakdown::Breakdown;
use crate::data::{self, ScratchDir};
use crate::ladder::Ladder;
use crate::mixed;
use crate::report::Report;
use crate::run::{self, Args};
use crate::stats::median;
use crate::trace::{staged_execute, Tracer};
use crate::verify::{self, Checks};
use crate::workloads;
use vw_common::rng::Xoshiro256;
use vw_common::{Result, Value, VwError};

/// Rounds each of steps 1 and 2 runs.
const ROUNDS: usize = 3;
/// `short` rounds are ten sub-millisecond statements; it runs more of them.
const SHORT_ROUNDS: usize = 30;

/// The statements of `rounds` rounds, as (template, SQL). Seeded, so steps 1
/// and 2 run the very same statements.
fn statements(args: &Args, facts: &data::Facts, rounds: usize) -> Vec<Vec<(usize, String)>> {
    let mut rng = Xoshiro256::seeded(args.seed ^ 0x7472_6163);
    (0..rounds)
        .map(|_| match args.templates() {
            Some(templates) => templates
                .iter()
                .enumerate()
                .map(|(i, t)| (i, t.sql.to_string()))
                .collect(),
            None => workloads::short_round(&mut rng, facts)
                .into_iter()
                .map(|s| (s.template, s.sql))
                .collect(),
        })
        .collect()
}

pub fn trace(args: &Args) -> Result<Report> {
    let scratch = ScratchDir::create()?;
    let (ready, _) = run::set_up(&scratch, args)?;
    let (db, session, facts) = (&*ready.db, &*ready.session, &ready.facts);
    let mut tracer = Tracer::new();
    let mut checks = Checks::default();
    let mut metrics: Vec<(&'static str, f64)> = Vec::new();
    let mut info = Vec::new();

    let n_templates = args
        .templates()
        .map_or(workloads::SHORT_NAMES.len(), |t| t.len());
    let rounds = statements(
        args,
        facts,
        if args.templates().is_some() {
            ROUNDS
        } else {
            SHORT_ROUNDS
        },
    );

    // Step 1: staged, traced.
    let mut stage_us: [Vec<f64>; 5] = Default::default();
    let (mut frontend_ns, mut staged_ns) = (0u64, 0u64);
    let mut staged_ms: Vec<Vec<f64>> = vec![Vec::new(); n_templates];
    let mut staged_rows: Vec<Vec<Vec<Value>>> = Vec::new();
    let mut input_tuples = 0u64;
    let mut stmt_id = 0u64;
    for round in &rounds {
        for (template, sql) in round {
            stmt_id += 1;
            let s = staged_execute(db, &mut tracer, stmt_id, sql)?;
            for (log, ns) in stage_us.iter_mut().zip([
                s.parse_ns,
                s.bind_ns,
                s.optimize_ns,
                s.compile_ns,
                s.execute_ns,
            ]) {
                log.push(ns as f64 / 1e3);
            }
            frontend_ns += s.parse_ns + s.bind_ns + s.optimize_ns;
            staged_ns += s.total_ns();
            staged_ms[*template].push(s.total_ns() as f64 / 1e6);
            input_tuples += s.input_tuples;
            staged_rows.push(s.rows);
        }
    }
    let input_tuples_per_round = input_tuples as f64 / rounds.len() as f64;

    // Step 2: the product's own path, untraced, profiles harvested.
    let mut breakdown = Breakdown::default();
    let mut e2e_ms: Vec<Vec<f64>> = vec![Vec::new(); n_templates];
    let mut staged_rows = staged_rows.into_iter();
    for round in &rounds {
        breakdown.begin_round();
        for (template, sql) in round {
            let (result, ms) = run::timed(session, sql);
            let result = result?;
            e2e_ms[*template].push(ms);
            let staged = staged_rows.next().expect("one staged result per statement");
            // vw_queries counts the history ring, which step 1 never enters.
            if sql.contains("vw_queries") {
                checks.pass();
            } else {
                checks.record(verify::rows_match(&result.rows, &staged).map_err(|m| {
                    format!("staged and Session::execute disagree on {}: {}", sql, m)
                }));
            }
            let profile = session.profile_last_query().ok_or_else(|| {
                VwError::Exec("profiling is on by default but left no profile".into())
            })?;
            breakdown.add(&profile);
        }
    }
    let (encoded, raw) = data::storage_bytes(db)?;

    let [parse, bind, optimize, compile, execute] = &stage_us;
    metrics.push(("sql.parse_us", median(parse)));
    metrics.push(("sql.bind_us", median(bind)));
    metrics.push(("plan.optimize_us", median(optimize)));
    metrics.push(("core.compile_us", median(compile)));
    metrics.push(("core.execute_ms", median(execute) / 1e3));
    metrics.push((
        "sql.frontend_share_pct",
        100.0 * frontend_ns as f64 / staged_ns as f64,
    ));
    let staged_med: Vec<f64> = staged_ms.iter().map(|v| median(v)).collect();
    let e2e_med: Vec<f64> = e2e_ms.iter().map(|v| median(v)).collect();
    let overhead_us: Vec<f64> = e2e_med
        .iter()
        .zip(&staged_med)
        .map(|(e, s)| (e - s) * 1e3)
        .collect();
    metrics.push(("core.lifecycle_overhead_us", median(&overhead_us)));
    metrics.push((
        "harness.trace_overhead_pct",
        (staged_med.iter().sum::<f64>() / e2e_med.iter().sum::<f64>() - 1.0) * 100.0,
    ));
    metrics.push(("storage.encoded_mb", encoded as f64 / (1u64 << 20) as f64));
    metrics.push(("storage.raw_mb", raw as f64 / (1u64 << 20) as f64));

    let mut ladder = Ladder {
        db: &ready.db,
        session,
        tracer: &mut tracer,
        metrics: Vec::new(),
        notes: Vec::new(),
    };
    // Step 3, before any write: the baselines read stable storage only.
    let first_round: Vec<String> = rounds[0].iter().map(|(_, sql)| sql.clone()).collect();
    ladder.baselines(&first_round)?;

    // Step 4.
    let mut open_loop = [0.0; 7];
    if args.workload == "mixed_rw" {
        let mut under_writes = Breakdown::default();
        let id = ladder.tracer.begin("mixed_rw.both_clients", None, 0);
        let out = mixed::run_mixed(
            db,
            session,
            facts,
            args.seed,
            args.writer_txns(),
            args.writer_period(),
            Some(&mut under_writes),
        );
        ladder.tracer.end(id);
        checks.merge(mixed::verify_durable(&ready.db, session, facts, &out.model));
        let [new_order, transfer, delete] = out.kind_means();
        open_loop = [
            new_order,
            transfer,
            delete,
            out.commit_p90_ms(),
            out.checkpoint_ms.iter().map(|(o, l)| o + l).sum::<f64>() / 1e3,
            under_writes.checkpoint_stall_ms(),
            out.writer_late_ms_max,
        ];
        info.push(format!(
            "mixed_rw: {} reader statements beside {} transactions; breakdown below is the reader's under writes",
            out.reads.count(),
            out.txn_ms.iter().map(Vec::len).sum::<usize>()
        ));
        checks.merge(out.checks);
        // The workload is the reader beside the writer: report that
        // breakdown, not the one of the quiet rounds above.
        breakdown = under_writes;
    }
    metrics.extend(breakdown.metrics(input_tuples_per_round));
    for (name, value) in [
        "txn.open_loop.neworder_ms",
        "txn.open_loop.transfer_ms",
        "txn.open_loop.delete_ms",
        "txn.open_loop.commit_p90_ms",
        "txn.checkpoint.total_s",
        "txn.checkpoint.read_stall_ms",
        "harness.writer_late_ms_max",
    ]
    .into_iter()
    .zip(open_loop)
    {
        metrics.push((name, value));
    }

    // Step 5.
    ladder.climb(&scratch, facts, args.seed, args.sf())?;
    metrics.append(&mut ladder.metrics);
    info.append(&mut ladder.notes);
    metrics.push(("txn.conflicts", db.abort_count() as f64));
    metrics.push(("core.sched.waited", db.admission_stats().waited as f64));

    let path = format!("vwbench_{}.trace.json", args.workload);
    std::fs::write(&path, tracer.chrome_json(args.workload).render())
        .map_err(|e| VwError::Io(format!("cannot write {}: {}", path, e)))?;
    info.push(format!(
        "{} spans written to {}; staged medians per template (ms) {:?}; untraced {:?}",
        tracer.spans().len(),
        path,
        staged_med,
        e2e_med
    ));
    Ok(Report {
        workload: args.workload,
        checks,
        metrics,
        info,
    })
}
