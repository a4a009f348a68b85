//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> [--seed <n>] [--seconds <n>] [--trace <0|1>]
//! ```
//!
//! Generates seeded inputs, runs one workload against the public APIs of
//! `scnn_core` and `scnn_nn`, checks the outputs, and prints one JSON line
//! as the last line of standard output: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of the traced run with `--trace 1`.
//! Exits non-zero when an output check fails (after printing the result)
//! or when the run cannot complete (without a result). See README.md.

mod inputs;
mod report;
mod stats;
mod trace;
mod workload;

use report::{render, validate, END_TO_END, MAX_END_TO_END, MAX_PER_LAYER, PER_LAYER};
use std::process::ExitCode;
use workload::Workload;

const USAGE: &str =
    "usage: perfbench --workload <name> [--seed <n>] [--seconds <n>] [--trace <0|1>]";

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if seconds == 0 {
                        return Err("--seconds must be at least 1".into());
                    }
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, got {other}")),
                    }
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        Ok(Self { workload, seed, seconds, trace })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = Workload::by_name(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {}, expected one of {:?}",
            args.workload,
            workload::NAMES
        );
        return ExitCode::from(2);
    };
    let checked = validate(END_TO_END, MAX_END_TO_END).and(validate(PER_LAYER, MAX_PER_LAYER));
    let (catalogue, result) = if args.trace {
        (PER_LAYER, checked.and_then(|()| trace::run(&w, args.seed)))
    } else {
        (END_TO_END, checked.and_then(|()| workload::run(&w, args.seed, args.seconds)))
    };
    let line = result.and_then(|(values, tally)| {
        render(catalogue, &values, &tally).map(|line| (line, tally.failed == 0))
    });
    match line {
        Ok((line, ok)) => {
            println!("{line}");
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_a_full_command_line() {
        let args =
            parse(&["--workload", "infer-mux", "--seed", "7", "--seconds", "12", "--trace", "1"]);
        assert_eq!(
            args,
            Ok(Args { workload: "infer-mux".into(), seed: 7, seconds: 12, trace: true })
        );
        assert_eq!(parse(&["--workload", "infer-tff"]).unwrap().seconds, 10);
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--workload"]).is_err());
        assert!(parse(&["--workload", "x", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "x", "--seconds", "0"]).is_err());
        assert!(parse(&["--workload", "x", "--seed", "-1"]).is_err());
        assert!(parse(&["--workload", "x", "--bogus", "1"]).is_err());
    }

    #[test]
    fn every_listed_workload_exists() {
        for name in workload::NAMES {
            assert!(Workload::by_name(name).is_some(), "{name}");
            assert!(report::is_valid_name(name));
        }
        assert!(Workload::by_name("nope").is_none());
    }
}
