//! The repository benchmark: commit, freshness and read latency of the
//! served repair pipeline on a fixed workload.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <med-ingest|rest-ingest> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one line per metric with its unit, then, as the last line, a JSON
//! object with `correct`, `attempted`, `failed` and `metrics` (end-to-end
//! metrics with `--trace 0`, per-layer metrics with `--trace 1`).  Wrong
//! outputs are reported through `correct` and `failed`; the exit code is 2
//! when the run could not be measured and 0 otherwise.  See
//! `perfbench/README.md`.

mod check;
mod feed;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;
use workload::Metric;

struct Args {
    workload: &'static workload::Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::find(&value).ok_or_else(|| {
                    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.clamp(1, 600)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20),
        trace: trace.unwrap_or(false),
    })
}

fn json_metrics(metrics: &[Metric]) -> Result<String, String> {
    let mut fields = Vec::new();
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("{} is not a finite number: {}", m.name, m.value));
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!("{{{}}}", fields.join(", ")))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match workload::run(args.workload, args.seed, args.seconds, args.trace) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name);
            return ExitCode::from(2);
        }
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    let metrics = if args.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    for m in metrics {
        println!("{:<40} {:>14.4} {:<6} {}", m.name, m.value, m.unit, m.base);
    }
    println!(
        "{:<40} {:>14.4} {:<6} ({}/{})",
        "failed_ops_ratio",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        "ratio",
        outcome.failed,
        outcome.attempted
    );
    for failure in &outcome.failures {
        eprintln!("perfbench: FAILED: {failure}");
    }
    let correct = outcome.failed == 0;
    let json = match json_metrics(metrics) {
        Ok(json) => json,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {json}}}",
        outcome.attempted.max(1),
        outcome.failed
    );
    ExitCode::SUCCESS
}
