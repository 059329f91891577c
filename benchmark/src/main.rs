//! One benchmark for the whole AutoPhase stack.
//!
//! ```text
//! autophase-benchmark run --workload <name> [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
//! autophase-benchmark check-determinism [--seed N] [--smoke]
//! ```
//!
//! `run` builds seeded inputs, drives one workload against the real stack
//! through public APIs only, checks every output, prints every metric by
//! name with its unit, and ends with one JSON line. See `README.md`.

use autophase_benchmark::determinism;
use autophase_benchmark::report;
use autophase_benchmark::workloads::{run, RunArgs, Workload};
use std::process::ExitCode;

const USAGE: &str = "usage:
  autophase-benchmark run --workload <cold-corpus|warm-replay|mixed-ir|train-ppo>
                          [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
  autophase-benchmark check-determinism [--seed N] [--smoke]";

struct Cli {
    command: String,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        command: args.first().cloned().ok_or("missing command")?,
        workload: None,
        seed: 1,
        seconds: 12.0,
        trace: false,
        smoke: false,
    };
    let mut it = args[1..].iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                cli.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                cli.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            // `--trace` alone means on; the driver passes `--trace 0|1`.
            "--trace" => {
                cli.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => cli.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match cli.command.as_str() {
        "run" => {
            let Some(workload) = cli.workload else {
                eprintln!("run needs --workload\n{USAGE}");
                return ExitCode::from(2);
            };
            let args = RunArgs {
                workload,
                seed: cli.seed,
                seconds: cli.seconds,
                trace: cli.trace,
                smoke: cli.smoke,
            };
            let outcome = run(&args);
            report::print(&args, &outcome);
            if outcome.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        "check-determinism" => {
            if determinism::check(cli.seed, cli.smoke) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        other => {
            eprintln!("unknown command {other}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
