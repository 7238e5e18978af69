//! `compare A.json B.json`: is B worse than A by more than the benchmark
//! allows?
//!
//! For every workload × end-to-end metric it prints both medians, B's
//! difference relative to A (A is the base), the bound from
//! `/BENCHMARK.json`, and a verdict:
//!
//! * `worse` — B's median is worse than A's by more than the bound;
//! * `unresolved` — within the bound, or better, but one side's own
//!   run-to-run spread (interquartile range over its median, known from
//!   four runs up) is wider than the bound, so the comparison cannot tell;
//! * `ok` — otherwise.

use crate::json::{self, Value};
use crate::stats::{median, percentile};
use crate::suite::{manifest, metric_of};

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Every run's value of `metric` on `workload` in a results file.
fn values(results: &Value, workload: &str, metric: &str) -> Vec<f64> {
    results
        .get("untraced")
        .and_then(|u| u.get(workload))
        .map(Value::items)
        .unwrap_or_default()
        .iter()
        .filter_map(|run| metric_of(run, metric))
        .collect()
}

/// Interquartile range over the median; `None` below four runs.
fn spread(values: &[f64]) -> Option<f64> {
    (values.len() >= 4)
        .then(|| (percentile(values, 0.75) - percentile(values, 0.25)) / median(values).abs())
}

/// Compares two results files; `Ok(false)` if any pairing is `worse`.
///
/// # Errors
///
/// A file is missing or malformed, or lacks a pairing the manifest lists.
pub fn run(a_path: &str, b_path: &str) -> Result<bool, String> {
    let manifest = manifest()?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!(
        "{:<16} {:<20} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "B vs A", "bound"
    );
    let mut any_worse = false;
    for workload in manifest
        .get("workloads")
        .map(Value::items)
        .unwrap_or_default()
    {
        let workload = workload
            .get("name")
            .and_then(Value::str)
            .ok_or("workload without name")?;
        for metric in manifest
            .get("end_to_end")
            .map(Value::items)
            .unwrap_or_default()
        {
            let field = |key| metric.get(key).and_then(Value::str);
            let (Some(name), Some(better), Some(bound)) = (
                field("name"),
                field("better"),
                metric.get("bound").and_then(Value::num),
            ) else {
                return Err("BENCHMARK.json: malformed end_to_end entry".into());
            };
            let (va, vb) = (values(&a, workload, name), values(&b, workload, name));
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{workload} × {name}: missing from a results file"));
            }
            let (ma, mb) = (median(&va), median(&vb));
            let diff = (mb - ma) / ma.abs();
            let worse_by = if better == "lower" { diff } else { -diff };
            let noisy = [&va, &vb]
                .iter()
                .any(|v| spread(v).is_some_and(|s| s > bound));
            let verdict = if worse_by > bound {
                any_worse = true;
                "worse"
            } else if noisy {
                "unresolved"
            } else {
                "ok"
            };
            println!(
                "{workload:<16} {name:<20} {ma:>14.4} {mb:>14.4} {:>+8.2}% {:>6.0}%  {verdict}",
                diff * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(!any_worse)
}
