//! The suite: every workload in a process of its own, results in one file.

use std::path::Path;
use std::process::{Command, Stdio};

use crate::json::{self, Value};
use crate::metrics::{check_manifest, END_TO_END, PER_LAYER};
use crate::stats::median;
use crate::workloads::NAMES;
use crate::{Args, OUT_DIR};

/// The parsed `/BENCHMARK.json` (`run.sh` changes into the repo root).
///
/// # Errors
///
/// The file is missing or is not JSON.
pub fn manifest() -> Result<Value, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))
}

/// Seconds to measure: as given, else 1 under `--smoke`, else the
/// manifest's `run_seconds`.
///
/// # Errors
///
/// The manifest is needed and cannot be read.
pub fn seconds(args: &Args) -> Result<f64, String> {
    match (args.seconds, args.smoke) {
        (Some(s), _) => Ok(s),
        (None, true) => Ok(1.0),
        (None, false) => manifest()?
            .get("run_seconds")
            .and_then(Value::num)
            .ok_or("BENCHMARK.json: no run_seconds".into()),
    }
}

/// One child process: `binary --workload ...`; its parsed result line.
fn run_child(
    binary: &Path,
    workload: &str,
    args: &Args,
    seconds: f64,
    trace: bool,
) -> Result<Value, String> {
    let mut command = Command::new(binary);
    command
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if args.smoke {
        command.arg("--smoke");
    }
    // `output` waits for the child and closes its pipes.
    let output = command
        .output()
        .map_err(|e| format!("{}: {e}", binary.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let result = json::parse(line).map_err(|e| format!("{workload}: no result line ({e})"))?;
    let table = if trace { PER_LAYER } else { END_TO_END };
    let printed: Vec<&str> = result
        .get("metrics")
        .map(Value::members)
        .unwrap_or_default()
        .iter()
        .map(|(name, _)| name.as_str())
        .collect();
    if printed != table.iter().map(|(name, _)| *name).collect::<Vec<_>>() {
        return Err(format!(
            "{workload}: result line lacks some metric of its table"
        ));
    }
    Ok(result)
}

/// The value of `metric` in one result line.
pub fn metric_of(result: &Value, metric: &str) -> Option<f64> {
    result.get("metrics")?.get(metric)?.get("value")?.num()
}

/// Runs every workload `--runs` times untraced (and, with `--trace 1`, as
/// many times traced), prints every metric by name with its unit, and
/// writes `benchmark/out/results.json`. `Ok(false)` if any run failed a
/// check or a count differs between the traced and the untraced runs.
///
/// # Errors
///
/// A child could not be started or printed no result.
pub fn run(args: &Args) -> Result<bool, String> {
    let manifest = manifest()?;
    check_manifest(&manifest, NAMES)?;
    let seconds = seconds(args)?;
    let plain = std::env::current_exe().map_err(|e| e.to_string())?;
    let traced = plain.with_file_name("dapsp-benchmark-traced");
    let modes: &[(&str, bool, &Path)] = if args.trace {
        &[("untraced", false, &plain), ("traced", true, &traced)]
    } else {
        &[("untraced", false, &plain)]
    };

    let mut all_ok = true;
    let mut sections = Vec::new();
    for &(mode, trace, binary) in modes {
        let mut by_workload = Vec::new();
        for &workload in NAMES {
            let mut runs = Vec::new();
            for _ in 0..args.runs {
                let result = run_child(binary, workload, args, seconds, trace)?;
                all_ok &= result.get("correct") == Some(&Value::Bool(true));
                runs.push(result);
            }
            println!(
                "\n{workload} ({mode}, seed {}, {} run(s) of {seconds} s)",
                args.seed, args.runs
            );
            for (name, unit) in if trace { PER_LAYER } else { END_TO_END } {
                let values: Vec<f64> = runs.iter().filter_map(|r| metric_of(r, name)).collect();
                println!("  {name:<42} {:>16.4} {unit}", median(&values));
            }
            by_workload.push((workload.to_string(), Value::Arr(runs)));
        }
        sections.push((mode.to_string(), Value::Obj(by_workload)));
    }

    // Counts are the seed's, not the run's: the traced binary must have
    // simulated exactly what the untraced one did.
    if let [(_, untraced), (_, traced)] = &sections[..] {
        for &workload in NAMES {
            let first = |section: &Value, metric| {
                metric_of(section.get(workload)?.items().first()?, metric)
            };
            let (a, b) = (
                first(untraced, "model_rounds"),
                first(traced, "congest.rounds"),
            );
            if a.is_none() || a != b {
                eprintln!("{workload}: model_rounds {a:?} untraced, congest.rounds {b:?} traced");
                all_ok = false;
            }
        }
    }

    let cpus = std::thread::available_parallelism().map_or(0, usize::from);
    let mut members = vec![
        ("seed".to_string(), Value::Num(args.seed as f64)),
        ("seconds".to_string(), Value::Num(seconds)),
        ("smoke".to_string(), Value::Bool(args.smoke)),
        ("host_cpus".to_string(), Value::Num(cpus as f64)),
    ];
    members.extend(sections);
    let path = format!("{OUT_DIR}/results.json");
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, Value::Obj(members).to_json() + "\n"))
        .map_err(|e| format!("{path}: {e}"))?;
    println!(
        "\nwrote {path} ({})",
        if all_ok { "all correct" } else { "FAILURES" }
    );
    Ok(all_ok)
}
