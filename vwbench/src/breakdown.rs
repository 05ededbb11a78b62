//! The operator and resource breakdown of the traced run, read from the
//! engine's own `QueryProfile` after each statement. Values are summed over
//! one round of the workload and the median over the rounds is reported; at
//! dop 1 the counts repeat exactly from run to run.

use crate::stats::median;
use std::collections::BTreeMap;
use vw_common::WaitClass;
use vw_core::QueryProfile;

#[derive(Default)]
pub struct Breakdown {
    rounds: Vec<BTreeMap<&'static str, f64>>,
    /// Admission wait per statement, over all rounds.
    admission_us: Vec<f64>,
    /// Largest per-query execution-memory high-water mark seen.
    peak_mem_bytes: f64,
    /// Resident bytes of the decode cache after the last statement.
    resident_bytes: f64,
}

impl Breakdown {
    pub fn begin_round(&mut self) {
        self.rounds.push(BTreeMap::new());
    }

    pub fn add(&mut self, profile: &QueryProfile) {
        let round = self.rounds.last_mut().expect("begin_round before add");
        let mut bump = |key: &'static str, v: f64| *round.entry(key).or_insert(0.0) += v;
        for node in profile.nodes() {
            let self_ns = node.self_time().as_nanos() as f64;
            match node.op_name() {
                "Scan" => {
                    bump("scan_ns", self_ns);
                    for (key, v) in node.extras() {
                        if matches!(key, "vec_decoded" | "vec_skipped" | "enc_evals") {
                            bump(key, v as f64);
                        }
                    }
                }
                "Filter" => bump("filter_ns", self_ns),
                "Project" => bump("project_ns", self_ns),
                "Join" | "MergeJoin" => bump("join_ns", self_ns),
                "Aggregate" => bump("aggregate_ns", self_ns),
                "Sort" => bump("sort_ns", self_ns),
                _ => {}
            }
        }
        bump("wall_ns", profile.wall.as_nanos() as f64);
        bump("checkpoint_ns", profile.timeline.checkpoint_ns as f64);
        bump("decode_wait_ns", profile.waits.ns(WaitClass::Decode) as f64);
        bump(
            "block_io_wait_ns",
            profile.waits.ns(WaitClass::BlockIo) as f64,
        );
        bump("disk_reads", profile.disk.reads as f64);
        bump("disk_bytes_read", profile.disk.bytes_read as f64);
        bump("disk_bytes_skipped", profile.disk.bytes_skipped as f64);
        bump("disk_virtual_read_ns", profile.disk.virtual_read_ns as f64);
        bump("spill_bytes", profile.mem.spill_bytes as f64);
        if let Some(d) = &profile.decode {
            bump("cache_hits", d.hits as f64);
            bump("cache_misses", d.misses as f64);
            bump("cache_evictions", d.evictions as f64);
            self.resident_bytes = d.resident_bytes as f64;
        }
        self.admission_us
            .push(profile.timeline.admission_ns as f64 / 1e3);
        self.peak_mem_bytes = self.peak_mem_bytes.max(profile.mem.peak as f64);
    }

    fn round_median(&self, key: &'static str) -> f64 {
        let per_round: Vec<f64> = self
            .rounds
            .iter()
            .map(|r| r.get(key).copied().unwrap_or(0.0))
            .collect();
        if per_round.is_empty() {
            0.0
        } else {
            median(&per_round)
        }
    }

    /// Time statements spent behind a checkpoint, summed over all rounds.
    pub fn checkpoint_stall_ms(&self) -> f64 {
        self.rounds
            .iter()
            .map(|r| r.get("checkpoint_ns").copied().unwrap_or(0.0))
            .sum::<f64>()
            / 1e6
    }

    /// The per-layer metrics this breakdown feeds. `input_tuples` is the
    /// number of base-table rows one round's plans scan.
    pub fn metrics(&self, input_tuples: f64) -> Vec<(&'static str, f64)> {
        let m = |key| self.round_median(key);
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let scan_ns = m("scan_ns");
        vec![
            (
                "core.sched.admission_us",
                if self.admission_us.is_empty() {
                    0.0
                } else {
                    median(&self.admission_us)
                },
            ),
            ("core.scan.self_ms", scan_ns / 1e6),
            ("core.scan.share_pct", 100.0 * ratio(scan_ns, m("wall_ns"))),
            // Rows per second is rows per microsecond in millions.
            ("core.scan.mrows_per_s", ratio(input_tuples, scan_ns / 1e3)),
            ("core.scan.vec_decoded", m("vec_decoded")),
            ("core.scan.vec_skipped", m("vec_skipped")),
            ("core.scan.enc_evals", m("enc_evals")),
            (
                "bufman.decode_cache.hit_rate",
                ratio(m("cache_hits"), m("cache_hits") + m("cache_misses")),
            ),
            ("bufman.decode_cache.evictions", m("cache_evictions")),
            (
                "bufman.decode_cache.miss_decode_ms",
                m("decode_wait_ns") / 1e6,
            ),
            (
                "bufman.decode_cache.resident_mb",
                self.resident_bytes / (1u64 << 20) as f64,
            ),
            ("storage.disk.reads", m("disk_reads")),
            (
                "storage.disk.bytes_read_per_tuple",
                ratio(m("disk_bytes_read"), input_tuples),
            ),
            (
                "storage.disk.bytes_skipped_mb",
                m("disk_bytes_skipped") / (1u64 << 20) as f64,
            ),
            (
                "storage.disk.virtual_read_ms",
                m("disk_virtual_read_ns") / 1e6,
            ),
            ("storage.block_io_wait_ms", m("block_io_wait_ns") / 1e6),
            ("core.filter.self_ms", m("filter_ns") / 1e6),
            ("core.project.self_ms", m("project_ns") / 1e6),
            ("core.join.self_ms", m("join_ns") / 1e6),
            ("core.aggregate.self_ms", m("aggregate_ns") / 1e6),
            ("core.sort.self_ms", m("sort_ns") / 1e6),
            ("core.mem.peak_bytes", self.peak_mem_bytes),
            ("core.spill.bytes", m("spill_bytes")),
        ]
    }
}
