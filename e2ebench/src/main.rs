//! End-to-end, layer-by-layer benchmark of taj.
//!
//! Usage: `e2ebench --workload <paper-apps|large-app|serve-mixed>
//!         --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints progress on stderr and, as the last line of stdout, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones (see README.md).

mod adapter;
mod analysis;
mod inputs;
mod metrics;
mod serve;
mod speed;
mod stats;
mod verdicts;

use std::process::ExitCode;

use analysis::Workload;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        args.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|_| format!("{flag} takes a whole number"))
    };
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace takes 0 or 1".to_string()),
    };
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed: number("--seed")?,
        seconds: number("--seconds")?.max(1) as f64,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: e2ebench --workload <paper-apps|large-app|serve-mixed> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "paper-apps" => analysis::run(Workload::PaperApps, args.seed, args.seconds, args.trace),
        "large-app" => analysis::run(Workload::LargeApp, args.seed, args.seconds, args.trace),
        "serve-mixed" => match serve::run(args.seed, args.seconds, args.trace) {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("error: serve-mixed: {e}");
                return ExitCode::FAILURE;
            }
        },
        other => {
            eprintln!("error: unknown workload `{other}`");
            return ExitCode::from(2);
        }
    };
    println!("{}", metrics::result_line(&outcome, args.trace));
    ExitCode::SUCCESS
}
