//! `vwbench`: the repository's benchmark. SQL text in, rows out, on four
//! workloads; end-to-end metrics from an untraced run, per-layer metrics
//! from a traced run. README.md in this directory says what is measured and
//! why; `BENCHMARK.json` at the repository root is the contract.

mod breakdown;
mod data;
mod json;
mod ladder;
mod mixed;
mod multi;
mod report;
mod rss;
mod run;
mod spec;
mod stats;
mod trace;
mod tracerun;
mod verify;
mod workloads;

use std::process::ExitCode;

const USAGE: &str = "\
usage:
  vwbench --workload <w> --seed <n> --seconds <s> --trace <0|1>   the benchmark contract's form
  vwbench run   --workload <w> [--seed <n>] [--seconds <s>]       untraced: end-to-end metrics
  vwbench trace --workload <w> [--seed <n>] [--seconds <s>]       traced: per-layer metrics, chrome trace
  vwbench all   [--seed <n>] [--seconds <s>] [--runs <r>]         every workload, both ways; BENCH_vwbench.json
  vwbench aa    [--seed <n>] [--seconds <s>] [--runs <r>]         this build against itself, within the bounds?
  vwbench spec                                                    print BENCHMARK.json
workloads: scan join_agg short mixed_rw; --smoke runs at SF 0.01";

struct Cli {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    runs: Option<usize>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        command: String::new(),
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        runs: None,
    };
    let mut it = args.iter().peekable();
    if let Some(first) = it.peek().filter(|a| !a.starts_with("--")) {
        cli.command = first.to_string();
        it.next();
    }
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            cli.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{} needs a value", flag))?;
        let bad = || format!("bad value '{}' for {}", value, flag);
        match flag.as_str() {
            "--workload" => cli.workload = Some(value.clone()),
            "--seed" => cli.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                cli.seconds = value.parse().map_err(|_| bad())?;
                if !(cli.seconds > 0.0 && cli.seconds <= 60.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                cli.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--runs" => cli.runs = Some(value.parse().map_err(|_| bad())?),
            _ => return Err(format!("unknown flag {}", flag)),
        }
    }
    match cli.command.as_str() {
        "" | "run" => {}
        "trace" => cli.trace = true,
        "all" | "aa" | "spec" => {}
        other => return Err(format!("unknown command {}", other)),
    }
    Ok(cli)
}

fn one_workload(cli: &Cli) -> Result<(), String> {
    let name = cli.workload.as_deref().ok_or("--workload is required")?;
    let workload = spec::workload(name).ok_or_else(|| format!("unknown workload {}", name))?;
    let overrides = data::engine_env_overrides();
    if !overrides.is_empty() {
        return Err(format!(
            "refusing to measure with engine switches set in the environment: {}",
            overrides.join(" ")
        ));
    }
    let args = run::Args {
        workload: workload.name,
        seed: cli.seed,
        seconds: cli.seconds,
        smoke: cli.smoke,
    };
    let (report, specs) = if cli.trace {
        (tracerun::trace(&args), spec::PER_LAYER)
    } else {
        (run::run(&args), spec::END_TO_END)
    };
    let report = report.map_err(|e| e.to_string())?;
    report.print(specs)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_cli(&args).and_then(|cli| {
        let common = multi::Common {
            seed: cli.seed,
            seconds: cli.seconds,
            smoke: cli.smoke,
        };
        match cli.command.as_str() {
            "spec" => spec::validate().map(|()| {
                print!("{}", spec::benchmark_json().pretty());
                true
            }),
            "all" => multi::all(&common, cli.runs.unwrap_or(1)),
            "aa" => multi::aa(&common, cli.runs.unwrap_or(3)),
            // A run whose checks failed still printed its result, with
            // `correct` false; the exit code is for harness errors.
            _ => one_workload(&cli).map(|()| true),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("vwbench: {}\n{}", message, USAGE);
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn contract_form_and_subcommands_parse() {
        let c = cli(&[
            "--workload",
            "scan",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (
                c.command.as_str(),
                c.workload.as_deref(),
                c.seed,
                c.seconds,
                c.trace
            ),
            ("", Some("scan"), 7, 12.0, true)
        );
        let c = cli(&["trace", "--workload", "short", "--smoke"]).unwrap();
        assert!(c.trace && c.smoke && c.seed == 1);
        assert_eq!(cli(&["aa", "--runs", "5"]).unwrap().runs, Some(5));
        for bad in [
            &["--trace", "2"][..],
            &["--seconds", "0"],
            &["--seconds", "61"],
            &["--seed"],
            &["--frobnicate", "1"],
            &["frobnicate"],
        ] {
            assert!(cli(bad).is_err(), "{:?}", bad);
        }
    }

    /// All four workloads end to end at SF 0.01, untraced and traced: every
    /// check passes, every metric of the contract is printed and nothing
    /// else, and each traced run leaves a valid chrome trace.
    #[test]
    fn smoke_pass_of_every_workload() {
        for w in spec::WORKLOADS {
            let args = run::Args {
                workload: w.name,
                seed: 3,
                seconds: 0.5,
                smoke: true,
            };
            let report = run::run(&args).expect(w.name);
            assert_eq!(
                report.checks.failed, 0,
                "{} {:?}",
                w.name, report.checks.messages
            );
            assert!(report.checks.attempted > 0);
            let result = report.result_json(spec::END_TO_END).expect(w.name);
            for m in spec::END_TO_END {
                let v = result
                    .get("metrics")
                    .unwrap()
                    .get(m.name)
                    .unwrap()
                    .get("value")
                    .unwrap();
                assert!(
                    v.as_f64().unwrap() > 0.0,
                    "{} {} must never be 0",
                    w.name,
                    m.name
                );
            }

            let report = tracerun::trace(&args).expect(w.name);
            assert_eq!(
                report.checks.failed, 0,
                "{} {:?}",
                w.name, report.checks.messages
            );
            report.result_json(spec::PER_LAYER).expect(w.name);
            let path = format!("vwbench_{}.trace.json", w.name);
            let text = std::fs::read_to_string(&path).expect("the traced run writes its trace");
            std::fs::remove_file(&path).unwrap();
            let events = vw_core::validate_chrome_json(&text).expect("valid chrome trace");
            // Five layer spans and their statement span per statement.
            assert!(events > 6 * 21, "{} has {} events", w.name, events);
        }
    }
}
