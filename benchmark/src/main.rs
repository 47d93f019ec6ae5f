//! Benchmark entry point: `anek-benchmark --workload NAME --seed N --seconds S
//! --trace 0|1`. Progress goes to standard error; the last line of
//! standard output is the JSON result. Exits 1 when a correctness check
//! fails and 2 on bad arguments.

use anek_benchmark::batch::{self, Batch};
use anek_benchmark::report::RunReport;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Temporary space for the stores of the serve phase, inside the build
/// directory of the checkout.
fn tmp_dir() -> PathBuf {
    PathBuf::from(".bench_build/tmp")
}

/// Where a traced run writes its spans: under the build directory, which
/// the checkout already ignores.
fn spans_path(args: &Args) -> PathBuf {
    PathBuf::from(".bench_build/spans").join(format!("{}-seed{}.jsonl", args.workload, args.seed))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "usage: anek-benchmark --workload NAME --seed N --seconds S --trace 0|1\n{e}"
            );
            return ExitCode::from(2);
        }
    };
    let seconds = Duration::from_secs(args.seconds);
    let report: RunReport = match (args.workload.as_str(), args.trace) {
        ("pmd-batch", false) => batch::run(Batch::Pmd, args.seed, seconds),
        ("mixed-solve", false) => batch::run(Batch::Mixed, args.seed, seconds),
        ("pmd-batch", true) => {
            batch::run_traced(Batch::Pmd, args.seed, seconds, &tmp_dir(), &spans_path(&args))
        }
        ("mixed-solve", true) => {
            batch::run_traced(Batch::Mixed, args.seed, seconds, &tmp_dir(), &spans_path(&args))
        }
        (other, _) => {
            eprintln!("unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    for f in &report.failures {
        eprintln!("CHECK FAILED: {f}");
    }
    println!("{}", report.to_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
