//! The repo benchmark. See `benchmark/README.md` for what it measures and
//! why; `/BENCHMARK.json` is its contract with whoever runs it.
//!
//! Three entry points, all reached through `benchmark/run.sh`:
//!
//! * `--workload NAME --seed N --seconds S --trace 0|1 [--smoke]` runs one
//!   workload in this process and prints, as the last line of standard
//!   output, `{"correct", "attempted", "failed", "metrics"}` — the
//!   end-to-end metrics untraced, the per-layer metrics traced (which also
//!   writes `benchmark/out/trace-NAME.json`). Exit code 1 if anything
//!   failed.
//! * no `--workload`: the suite — one child process per workload (so
//!   `peak_rss_mb` is the workload's own), results gathered into
//!   `benchmark/out/results.json`.
//! * `compare A.json B.json`: two result files against the bounds of
//!   `/BENCHMARK.json`.

pub mod alloc;
pub mod compare;
pub mod harness;
pub mod json;
pub mod metrics;
pub mod query;
pub mod stats;
pub mod suite;
pub mod trace;
pub mod workloads;

use std::process::ExitCode;

use harness::RunCfg;

/// Where the suite and the traced runs write, relative to the repo root
/// (`run.sh` changes into it).
pub const OUT_DIR: &str = "benchmark/out";

const USAGE: &str = "usage:
  run.sh --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
  run.sh [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--runs K]
  run.sh compare A.json B.json
workloads: apsp_dense sparse_sweep republish_churn serve_read serve_mixed";

/// The parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub smoke: bool,
    pub runs: usize,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut out = Args {
            workload: None,
            seed: 1,
            seconds: None,
            trace: false,
            smoke: false,
            runs: 1,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => out.workload = Some(value()?.clone()),
                "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                    out.seconds = Some(s);
                }
                "--trace" => {
                    out.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    }
                }
                "--runs" => {
                    out.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?;
                    if !(1..=64).contains(&out.runs) {
                        return Err("--runs must be in 1..=64".into());
                    }
                }
                "--smoke" => out.smoke = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(out)
    }
}

/// The program: both binaries call this and nothing else.
pub fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("compare") => match &argv[1..] {
            [a, b] => compare::run(a, b),
            _ => Err(USAGE.to_string()),
        },
        Some("-h" | "--help") => {
            println!("{USAGE}");
            Ok(true)
        }
        _ => Args::parse(&argv).and_then(|args| match &args.workload {
            Some(name) => run_one(name, &args),
            None => suite::run(&args),
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

/// Runs one workload in this process and prints its result line.
fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    let cfg = RunCfg {
        workload: name.to_string(),
        seed: args.seed,
        seconds: suite::seconds(args)?,
        trace: args.trace,
        smoke: args.smoke,
    };
    let outcome = workloads::dispatch(&cfg).ok_or(format!("unknown workload {name}\n{USAGE}"))?;
    eprintln!("{}", outcome.summary);
    if let Some(trace) = &outcome.trace_json {
        let path = format!("{OUT_DIR}/trace-{name}.json");
        std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&path, trace))
            .map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    println!("{}", outcome.result_line(cfg.trace));
    Ok(outcome.failed == 0)
}
