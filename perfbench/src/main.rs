//! The repository benchmark: four seeded workloads over the three public
//! entry points of SkinnyMine (direct mining, the minimal-pattern index,
//! incremental refresh).
//!
//! Usage:
//!
//! ```text
//! perfbench --workload <mine-er|mine-xl|serve-zipf|refresh-stream> \
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.  `--trace 0` reports the
//! end-to-end metrics of untraced operations; `--trace 1` re-executes the
//! pipeline as timed calls into each layer and reports per-layer metrics.
//! See `README.md` for the workloads and which end-to-end metric each
//! per-layer metric is expected to move.

mod inputs;
mod mine;
mod pipeline;
mod refresh;
mod report;
mod serve;

use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let number =
        |flag: &str| -> Result<u64, String> { value(flag)?.parse().map_err(|e| format!("{flag}: {e}")) };
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed: number("--seed")?,
        seconds: seconds as f64,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "mine-er" => mine::run(&args, false),
        "mine-xl" => mine::run(&args, true),
        "serve-zipf" => serve::run(&args),
        "refresh-stream" => refresh::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    println!("{}", report.to_json(args.trace));
    ExitCode::SUCCESS
}
