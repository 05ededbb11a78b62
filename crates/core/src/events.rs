//! Structured event log: a bounded ring of typed engine events.
//!
//! The metrics registry answers "how much"; the trace answers "where did
//! this one query's time go"; the event log answers "what *happened*" —
//! queries starting and finishing, a query running past `log_min_duration`,
//! operators spilling, admission stalls, adaptive fallbacks, checkpoints.
//! Events are typed (`&'static str` names drawn from a fixed set), carry a
//! severity and key-value fields, and land in a fixed-capacity ring with
//! monotonically increasing sequence numbers — old events are dropped (and
//! counted), never reallocated.
//!
//! Recording is one short mutex hold per *event*, and events are per-query
//! (never per vector), so a database's log is always on.

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Event severity (rendered lower-case in `vw_log`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    Info,
    Warn,
}

impl Severity {
    pub fn name(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
        }
    }
}

/// One structured event.
#[derive(Debug, Clone)]
pub struct LogEvent {
    /// Monotonically increasing sequence number (never reused; gaps only
    /// appear when the ring dropped events between two reads).
    pub seq: u64,
    /// Milliseconds since the database opened.
    pub ts_ms: f64,
    pub severity: Severity,
    /// Event type, from the fixed set: `query_start`, `query_finish`,
    /// `slow_query`, `spill`, `admission_wait`, `agg_fallback`, `agg_veto`,
    /// `plan_correction`, `checkpoint`, `reorganize`.
    pub event: &'static str,
    /// Query the event belongs to (0 = not query-scoped).
    pub query_id: u64,
    /// Session that ran the query (0 = none).
    pub session: u64,
    /// Key-value detail fields, in emission order.
    pub fields: Vec<(&'static str, String)>,
}

impl LogEvent {
    /// Render the fields as `k=v k=v` (the `detail` column of `vw_log`).
    pub fn detail(&self) -> String {
        let mut s = String::new();
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                s.push(' ');
            }
            s.push_str(k);
            s.push('=');
            s.push_str(v);
        }
        s
    }
}

struct Ring {
    buf: VecDeque<LogEvent>,
    next_seq: u64,
    dropped: u64,
}

/// Bounded, lock-light event ring shared by every session of one database.
pub struct EventLog {
    ring: Mutex<Ring>,
    cap: usize,
    epoch: Instant,
    enabled: bool,
    /// Internal cursor for the `tail -f`-style [`EventLog::drain`].
    drain_cursor: AtomicU64,
}

/// Default event-ring capacity.
pub const EVENT_LOG_CAP: usize = 4096;

impl EventLog {
    pub fn new(cap: usize, enabled: bool) -> EventLog {
        EventLog {
            ring: Mutex::new(Ring {
                buf: VecDeque::with_capacity(cap.min(EVENT_LOG_CAP)),
                next_seq: 1,
                dropped: 0,
            }),
            cap: cap.max(1),
            epoch: Instant::now(),
            enabled,
            drain_cursor: AtomicU64::new(0),
        }
    }

    /// Append one event; returns its sequence number (0 when disabled).
    pub fn emit(
        &self,
        severity: Severity,
        event: &'static str,
        query_id: u64,
        session: u64,
        fields: Vec<(&'static str, String)>,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let ts_ms = self.epoch.elapsed().as_secs_f64() * 1e3;
        let mut g = self.ring.lock();
        let seq = g.next_seq;
        g.next_seq += 1;
        if g.buf.len() >= self.cap {
            g.buf.pop_front();
            g.dropped += 1;
        }
        g.buf.push_back(LogEvent {
            seq,
            ts_ms,
            severity,
            event,
            query_id,
            session,
            fields,
        });
        seq
    }

    /// All retained events, oldest first.
    pub fn snapshot(&self) -> Vec<LogEvent> {
        self.ring.lock().buf.iter().cloned().collect()
    }

    /// Events with `seq > after`, oldest first (resumable tail).
    pub fn events_since(&self, after: u64) -> Vec<LogEvent> {
        self.ring
            .lock()
            .buf
            .iter()
            .filter(|e| e.seq > after)
            .cloned()
            .collect()
    }

    /// `tail -f`-style drain: events appended since the previous `drain`
    /// call. Events evicted from the ring between calls are lost (visible
    /// as a gap in sequence numbers and in [`EventLog::dropped`]).
    pub fn drain(&self) -> Vec<LogEvent> {
        let g = self.ring.lock();
        let after = self.drain_cursor.load(Ordering::Relaxed);
        let out: Vec<LogEvent> = g.buf.iter().filter(|e| e.seq > after).cloned().collect();
        self.drain_cursor.store(g.next_seq - 1, Ordering::Relaxed);
        out
    }

    /// Events evicted by the ring so far.
    pub fn dropped(&self) -> u64 {
        self.ring.lock().dropped
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.ring.lock().buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(log: &EventLog, name: &'static str) -> u64 {
        log.emit(Severity::Info, name, 1, 0, vec![("k", "v".to_string())])
    }

    #[test]
    fn emit_and_snapshot() {
        let log = EventLog::new(8, true);
        ev(&log, "query_start");
        ev(&log, "query_finish");
        let s = log.snapshot();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].seq, 1);
        assert_eq!(s[1].seq, 2);
        assert_eq!(s[0].event, "query_start");
        assert_eq!(s[0].detail(), "k=v");
        assert_eq!(log.dropped(), 0);
    }

    #[test]
    fn ring_wraparound_keeps_order_and_counts_drops() {
        let log = EventLog::new(4, true);
        for _ in 0..10 {
            ev(&log, "spill");
        }
        let s = log.snapshot();
        // Last 4 of 10, strictly ordered, seq never reused.
        assert_eq!(s.len(), 4);
        let seqs: Vec<u64> = s.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9, 10]);
        assert!(s.windows(2).all(|w| w[0].ts_ms <= w[1].ts_ms));
        assert_eq!(log.dropped(), 6);
        // events_since respects the cursor across the wrap.
        assert_eq!(log.events_since(8).len(), 2);
        assert_eq!(log.events_since(10).len(), 0);
    }

    #[test]
    fn drain_is_tail_f() {
        let log = EventLog::new(16, true);
        ev(&log, "query_start");
        ev(&log, "query_finish");
        assert_eq!(log.drain().len(), 2);
        assert_eq!(log.drain().len(), 0, "second drain sees nothing new");
        ev(&log, "checkpoint");
        let d = log.drain();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].event, "checkpoint");
    }

    #[test]
    fn disabled_log_records_nothing() {
        let log = EventLog::new(16, false);
        assert_eq!(ev(&log, "query_start"), 0);
        assert!(log.is_empty());
        assert_eq!(log.drain().len(), 0);
    }
}
