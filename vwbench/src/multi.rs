//! Commands that run workloads in child processes: `all` (every workload,
//! untraced and traced, each in a fresh process so memory and cache state
//! are per workload) and `aa` (the same build against itself).

use crate::json::Json;
use crate::spec::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{iqr_share, median, quartiles};
use std::process::{Command, Stdio};

pub struct Common {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
}

/// Run this executable again for one workload and parse the result object
/// on the last line of its output.
fn child(workload: &str, seed: u64, c: &Common, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {}", e))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &c.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if c.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child: {}", e))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{} (trace {}) exited with {}:\n{}",
            workload, trace, out.status, stdout
        ));
    }
    // Show the child's `workload metric value unit` lines as they are.
    for line in stdout.lines().filter(|l| !l.starts_with('{')) {
        println!("{}", line);
    }
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("{} printed nothing", workload))?;
    Json::parse(last).map_err(|e| format!("{}: bad result line: {}", workload, e))
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn failed(result: &Json) -> f64 {
    result
        .get("failed")
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN)
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Median and quartiles of one metric over the runs' results. A single run
/// has no quartiles.
fn summary(results: &[Json], m: &Metric) -> Json {
    let values: Vec<f64> = results
        .iter()
        .filter_map(|r| metric_value(r, m.name))
        .collect();
    let q = quartiles(&values);
    Json::obj(vec![
        ("unit", Json::str(m.unit)),
        (
            "median",
            if values.is_empty() {
                Json::Null
            } else {
                Json::Num(median(&values))
            },
        ),
        ("q1", q.map_or(Json::Null, |q| Json::Num(q[0]))),
        ("q3", q.map_or(Json::Null, |q| Json::Num(q[2]))),
    ])
}

/// `vwbench all`: every workload, `runs` times untraced and `runs` times
/// traced, each run with another seed and in a fresh process; writes medians
/// and quartiles to `BENCH_vwbench.json`. Returns whether every check of
/// every run passed.
pub fn all(c: &Common, runs: usize) -> Result<bool, String> {
    let mut per_workload = Vec::new();
    let mut correct = true;
    for w in WORKLOADS {
        let (mut untraced, mut traced) = (Vec::new(), Vec::new());
        for i in 0..runs.max(1) as u64 {
            untraced.push(child(w.name, c.seed + i, c, false)?);
            traced.push(child(w.name, c.seed + i, c, true)?);
        }
        let failures: f64 = untraced.iter().chain(&traced).map(failed).sum();
        correct &= failures == 0.0;
        let pick = |results: &[Json], specs: &[Metric]| {
            Json::obj(
                specs
                    .iter()
                    .map(|m| (m.name, summary(results, m)))
                    .collect(),
            )
        };
        per_workload.push((
            w.name,
            Json::obj(vec![
                ("failed", Json::Num(failures)),
                ("end_to_end", pick(&untraced, END_TO_END)),
                ("per_layer", pick(&traced, PER_LAYER)),
            ]),
        ));
    }
    let doc = Json::obj(vec![
        ("commit", Json::str(commit())),
        ("first_seed", Json::Num(c.seed as f64)),
        ("runs", Json::Num(runs.max(1) as f64)),
        ("seconds", Json::Num(c.seconds)),
        ("smoke", Json::Bool(c.smoke)),
        ("nproc", Json::Num(nproc() as f64)),
        ("rustc", Json::str(rustc_version())),
        ("workloads", Json::obj(per_workload)),
    ]);
    std::fs::write("BENCH_vwbench.json", doc.pretty())
        .map_err(|e| format!("cannot write BENCH_vwbench.json: {}", e))?;
    println!("# wrote BENCH_vwbench.json");
    Ok(correct)
}

/// How much worse `b` is than `a`, as a share of `a`; negative when better.
pub fn worsening(metric: &Metric, a: f64, b: f64) -> f64 {
    if metric.higher_is_better {
        (a - b) / a.abs()
    } else {
        (b - a) / a.abs()
    }
}

/// `vwbench aa`: two interleaved sets of `runs` untraced runs per workload
/// of this same build, each run with another seed. Prints per metric both
/// medians, quartiles, spreads and the gap between the medians; the result
/// is false when a gap, in either direction, exceeds the metric's bound or a
/// run failed a check.
pub fn aa(c: &Common, runs: usize) -> Result<bool, String> {
    if runs < 3 {
        return Err("aa needs at least 3 runs per set".into());
    }
    let mut ok = true;
    for w in WORKLOADS {
        let (mut set_a, mut set_b) = (Vec::new(), Vec::new());
        for i in 0..runs as u64 {
            set_a.push(child(w.name, c.seed + i, c, false)?);
            set_b.push(child(w.name, c.seed + 1000 + i, c, false)?);
        }
        ok &= set_a.iter().chain(&set_b).all(|r| failed(r) == 0.0);
        for m in END_TO_END {
            let values = |set: &[Json]| -> Result<Vec<f64>, String> {
                set.iter()
                    .map(|r| metric_value(r, m.name).ok_or_else(|| format!("{} missing", m.name)))
                    .collect()
            };
            let (a, b) = (values(&set_a)?, values(&set_b)?);
            let (qa, qb) = (
                quartiles(&a).expect("3 runs or more"),
                quartiles(&b).expect("3 runs or more"),
            );
            let gap = worsening(m, median(&a), median(&b));
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let within = gap.abs() <= bound;
            ok &= within;
            println!(
                "aa {} {} A median {} quartiles {:?} spread {:.4} | B median {} quartiles {:?} spread {:.4} | gap {:+.4} bound {} {}",
                w.name,
                m.name,
                median(&a),
                qa,
                iqr_share(&a).unwrap_or(f64::NAN),
                median(&b),
                qb,
                iqr_share(&b).unwrap_or(f64::NAN),
                gap,
                bound,
                if within { "ok" } else { "EXCEEDED" }
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        let lower = &END_TO_END[0]; // setup_s, lower is better
        let higher = END_TO_END.iter().find(|m| m.higher_is_better).unwrap();
        assert!((worsening(lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(lower, 10.0, 9.0) + 0.1).abs() < 1e-12);
        assert!((worsening(higher, 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!((worsening(higher, 100.0, 110.0) + 0.1).abs() < 1e-12);
    }
}
