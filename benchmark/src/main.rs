//! End-to-end and per-layer benchmark of the CommGuard reproduction.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!           [--out PATH] [--smoke]
//! benchmark --compare A.json B.json
//! ```
//!
//! Runs one workload (or all four), checks every program run's output,
//! and prints one JSON result line per workload on standard output: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A table with the dispersion behind each value goes to
//! standard error, and `--out` writes the detailed record that
//! `--compare` reads. Exits 1 when a correctness check failed. See
//! README.md for the workloads, the metrics and their bounds.

mod harness;
mod layers;
mod metrics;
mod reference;
mod stats;
mod timed;
mod workload;

use std::process::ExitCode;

use cg_campaign::json::Json;

use crate::workload::Workload;

/// Measured seconds per run unless `--seconds` says otherwise; the same
/// value as `run_seconds` in BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 25.0;

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--out PATH] [--smoke]\n       \
                     benchmark --compare A.json B.json";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    smoke: bool,
}

enum Command {
    Run(Args),
    Compare(String, String),
}

fn parse(argv: &[String]) -> Result<Command, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
        smoke: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w = Workload::parse(name).ok_or(format!("unknown workload {name}"))?;
                args.workloads = vec![w];
            }
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| format!("bad seed {v}"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("bad seconds {v}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad trace {v}: use 0 or 1")),
                };
            }
            "--out" => args.out = Some(value()?.clone()),
            "--smoke" => args.smoke = true,
            "--compare" => {
                let a = value()?.clone();
                let b = value()?.clone();
                return Ok(Command::Compare(a, b));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Command::Run(args))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(Command::Run(args)) => args,
        Ok(Command::Compare(a, b)) => {
            return match metrics::compare(&a, &b) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("benchmark: {e}");
                    ExitCode::from(2)
                }
            };
        }
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let mut details = Vec::new();
    let mut all_correct = true;
    for &w in &args.workloads {
        let outcome = if args.trace {
            layers::measure(w, args.seed, args.seconds, args.smoke)
        } else {
            timed::measure(w, args.seed, args.seconds, args.smoke)
        };
        eprint!("{}", outcome.render());
        println!("{}", outcome.result_line());
        all_correct &= outcome.correct();
        details.push(outcome.detail());
    }

    if let Some(path) = &args.out {
        let mut doc = Json::object();
        doc.set("seed", args.seed)
            .set("seconds", args.seconds)
            .set("trace", u32::from(args.trace))
            .set("smoke", args.smoke)
            .set(
                "host_parallelism",
                std::thread::available_parallelism().map_or(0, |n| n.get()),
            )
            .set("workloads", Json::Array(details));
        if let Err(e) = std::fs::write(path, doc.pretty()) {
            eprintln!("benchmark: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
