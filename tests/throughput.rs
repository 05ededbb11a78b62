//! Concurrent serving of the whole TPC-H query set: four sessions replay all
//! 22 queries at once against one database under a 24 MiB admission ledger,
//! with table scans routed through the cooperative buffer manager.
//!
//! Every stream result must match a serial reference, admission must gate
//! every start without ever granting past the ledger, the time queries spent
//! waiting for a grant must be attributed (in `vw_waits` and as an
//! `"admission"` span in the query's trace), and overlapping scans must share
//! at least one block through the ABM.

mod common;

use std::sync::{Arc, Barrier};

use common::{assert_rows_match, canonical, tpch_db};
use vectorwise::tpch::all_queries;
use vectorwise::Value;

const STREAMS: usize = 4;
const LEDGER: u64 = 24 << 20;

/// A query that waited this long for admission must show it in its trace
/// (the threshold of the `admission_wait` event).
const BLOCKED_NS: u64 = 1_000_000;

#[test]
fn four_streams_replay_tpch_under_a_24_mib_ledger() {
    let (db, cat) = tpch_db(0.01);
    let db = Arc::new(db);
    db.execute("SET GLOBAL memory_budget = '24MiB'").unwrap();
    let abm = db.enable_cooperative_scans(256 << 20);
    // dop 1 everywhere: concurrency across streams is the only parallelism.
    db.set_parallelism(1);

    // History keeps learning while the streams run, so a stream may run a
    // corrected plan that sums floats in another order than the reference
    // did: rows compare as sorted sets, doubles within a relative 1e-9.
    let queries = all_queries(&cat);
    let expected: Arc<Vec<Vec<Vec<Value>>>> = Arc::new(
        queries
            .iter()
            .map(|(_, plan)| canonical(db.run_plan(plan.clone()).unwrap().rows))
            .collect(),
    );

    let admission_before = db.admission_stats();
    let abm_before = abm.stats();
    let barrier = Arc::new(Barrier::new(STREAMS));
    let streams: Vec<_> = (0..STREAMS)
        .map(|s| {
            let session = db.session();
            session.set_parallelism(1);
            let queries = all_queries(&cat);
            let expected = expected.clone();
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                barrier.wait();
                for i in 0..queries.len() {
                    // Offset start order so streams run different queries at
                    // once while still overlapping on the hot tables.
                    let idx = (i + s * 7) % queries.len();
                    let (n, plan) = &queries[idx];
                    let rows = session.run_plan(plan.clone()).unwrap().rows;
                    let tag = format!("stream {s} Q{n}");
                    assert_rows_match(&tag, &canonical(rows), &expected[idx]);
                    let profile = session.profile_last_query().expect("profiling is on");
                    if profile.timeline.admission_ns >= BLOCKED_NS {
                        let trace = session.export_trace().expect("a profiled query's trace");
                        assert!(
                            trace.contains("\"admission\""),
                            "{tag} waited in admission but its trace has no admission span"
                        );
                    }
                }
            })
        })
        .collect();
    for stream in streams {
        stream.join().unwrap();
    }

    let admission = db.admission_stats();
    assert_eq!(
        admission.admitted - admission_before.admitted,
        (STREAMS * queries.len()) as u64,
        "every stream query passes admission exactly once"
    );
    assert_eq!(admission.violations, 0, "grants exceeded the ledger");
    assert!(
        admission.peak_granted > 0,
        "a bounded ledger grants real bytes"
    );
    assert!(
        admission.peak_granted <= LEDGER,
        "peak granted {} > ledger {LEDGER}",
        admission.peak_granted
    );

    // Every query times its admission, so the history ring's `vw_waits` rows
    // carry admission time.
    let waits = db
        .execute("SELECT wait_ms FROM vw_waits WHERE wait_class = 'admission'")
        .unwrap()
        .rows;
    let admission_ms: f64 = waits.iter().filter_map(|r| r[0].as_f64()).sum();
    assert!(
        admission_ms > 0.0,
        "vw_waits attributes no admission time across {} rows",
        waits.len()
    );

    // Sharing depends on the interleaving: when the streams never overlapped
    // two scans of one table, overlap two sessions on Q1 (a pure lineitem
    // scan and aggregate) until they do, a bounded number of times.
    let mut shared = abm.stats().shared_hits - abm_before.shared_hits;
    for _ in 0..30 {
        if shared > 0 {
            break;
        }
        let before = abm.stats();
        let barrier = Arc::new(Barrier::new(2));
        let probes: Vec<_> = (0..2)
            .map(|_| {
                let session = db.session();
                let (_, q1) = all_queries(&cat).swap_remove(0);
                let expected = expected.clone();
                let barrier = barrier.clone();
                std::thread::spawn(move || {
                    barrier.wait();
                    let rows = canonical(session.run_plan(q1).unwrap().rows);
                    assert_rows_match("overlap probe Q1", &rows, &expected[0]);
                })
            })
            .collect();
        for probe in probes {
            probe.join().unwrap();
        }
        shared = abm.stats().shared_hits - before.shared_hits;
    }
    assert!(
        shared > 0,
        "overlapping scans never shared a block through the ABM"
    );
}
