//! The metric names this benchmark prints, and the bag a run collects
//! them in. The two tables are the contract with `/BENCHMARK.json`;
//! `check_manifest` (run by the suite) fails if they drift apart.

use std::collections::BTreeMap;

use crate::json::{self, Value};
use crate::stats::median;

/// `(name, unit)` of every end-to-end metric, printed by `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_ms_min", "ms"),
    ("model_rounds", "rounds"),
    ("query_batch_us_p01", "us"),
    ("peak_rss_mb", "MiB"),
];

/// `(name, unit)` of every per-layer metric, printed by `--trace 1`. A
/// metric a workload does not exercise prints as 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // End-to-end quantities that this host cannot hold steady enough to
    // gate on, or that are zero by construction; see the README.
    ("op_ms_p50", "ms"),
    ("op_ms_p75", "ms"),
    ("queries_per_s", "1/s"),
    ("query_batch_us_p50", "us"),
    ("failed_frac", "ratio"),
    ("graph.generate_ms", "ms"),
    ("graph.oracle_ms", "ms"),
    ("graph.to_topology_ms", "ms"),
    ("congest.rounds", "rounds"),
    ("congest.messages", "count"),
    ("congest.bits", "bits"),
    ("congest.max_messages_per_round", "count"),
    ("congest.dropped", "count"),
    ("congest.scheduled_node_rounds", "count"),
    ("congest.sched_density", "ratio"),
    ("congest.engine_wall_ms", "ms"),
    ("congest.deliver_ms", "ms"),
    ("congest.commit_ms", "ms"),
    ("congest.ns_per_msg", "ns"),
    ("congest.us_per_round", "us"),
    ("congest.pool2_speedup", "ratio"),
    ("congest.steals", "count"),
    ("congest.chunks_stepped", "count"),
    ("kernel.step_ms", "ms"),
    ("kernel.step_share", "ratio"),
    ("kernel.ns_per_msg", "ns"),
    ("kernel.repaired_node_rounds", "count"),
    ("kernel.recompute_fallbacks", "count"),
    ("core.bfs_ms", "ms"),
    ("core.apsp_ms", "ms"),
    ("core.ssp_ms", "ms"),
    ("core.approx_ecc_ms", "ms"),
    ("core.approx_diam2_ms", "ms"),
    ("core.apsp_churned_ms", "ms"),
    ("core.runs_per_op", "count"),
    ("core.host_ms", "ms"),
    ("core.host_share", "ratio"),
    ("serve.table.from_apsp_ms", "ms"),
    ("serve.table.verify_ms", "ms"),
    ("serve.table.bytes", "bytes"),
    ("serve.table.from_churned_ms", "ms"),
    ("serve.service.build_ms", "ms"),
    ("serve.service.apply_ms", "ms"),
    ("serve.service.topo_ms", "ms"),
    ("serve.service.rerun_ms", "ms"),
    ("serve.service.compact_ms", "ms"),
    ("serve.service.unattributed_ms", "ms"),
    ("serve.service.apply_over_build", "ratio"),
    ("serve.service.repair_rounds_over_build", "ratio"),
    ("serve.handle.load_ns", "ns"),
    ("serve.handle.dist_ns", "ns"),
    ("serve.handle.next_hop_ns", "ns"),
    ("serve.handle.path_ns_per_hop", "ns"),
    ("serve.handle.dist_batch_ns_per_pair", "ns"),
    ("serve.handle.batch_us_p99", "us"),
    ("serve.handle.batch_us_p999", "us"),
    ("serve.handle.epochs_seen", "count"),
    ("serve.handle.quiet_qps", "1/s"),
    ("serve.handle.live_over_quiet_qps", "ratio"),
    ("host.alloc_count_per_op", "count"),
    ("host.alloc_bytes_per_op", "bytes"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.ops_plain", "count"),
    ("trace.ops_traced", "count"),
    ("trace.query_batches", "count"),
];

/// What a run measured: timing samples reduce to their median when
/// printed, counts and derived ratios are set once.
#[derive(Debug, Default)]
pub struct Metrics {
    samples: BTreeMap<String, Vec<f64>>,
    values: BTreeMap<String, f64>,
}

impl Metrics {
    /// Adds one timing sample for `name`.
    pub fn sample(&mut self, name: &str, value: f64) {
        self.samples
            .entry(name.to_string())
            .or_default()
            .push(value);
    }

    /// Sets `name` to a count or a derived value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Appends another bag's samples and takes over its values.
    pub fn absorb(&mut self, other: Metrics) {
        for (name, samples) in other.samples {
            self.samples.entry(name).or_default().extend(samples);
        }
        self.values.extend(other.values);
    }

    /// The value `name` prints as: what was set, else the median of its
    /// samples, else 0.
    pub fn get(&self, name: &str) -> f64 {
        match (self.values.get(name), self.samples.get(name)) {
            (Some(&v), _) => v,
            (None, Some(s)) => median(s),
            (None, None) => 0.0,
        }
    }

    /// The `"metrics"` object of a result line, in table order.
    pub fn to_json(&self, table: &[(&str, &str)]) -> String {
        let fields: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(name),
                    json::number(self.get(name)),
                    json::quote(unit)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// Checks that `manifest` (the parsed `/BENCHMARK.json`) lists exactly the
/// metrics of the two tables above, with the same units, and exactly
/// `workloads`.
///
/// # Errors
///
/// The first difference found.
pub fn check_manifest(manifest: &Value, workloads: &[&str]) -> Result<(), String> {
    for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed: Vec<(&str, &str)> = manifest
            .get(key)
            .map(Value::items)
            .unwrap_or_default()
            .iter()
            .filter_map(|m| Some((m.get("name")?.str()?, m.get("unit")?.str()?)))
            .collect();
        if listed != table {
            let odd = listed
                .iter()
                .zip(table)
                .find(|(a, b)| a != b)
                .map(|(a, b)| format!("{a:?} vs {b:?}"))
                .unwrap_or_else(|| format!("{} vs {} entries", listed.len(), table.len()));
            return Err(format!(
                "BENCHMARK.json {key} differs from the binary: {odd}"
            ));
        }
    }
    let listed: Vec<&str> = manifest
        .get("workloads")
        .map(Value::items)
        .unwrap_or_default()
        .iter()
        .filter_map(|w| w.get("name")?.str())
        .collect();
    if listed != workloads {
        return Err(format!(
            "BENCHMARK.json workloads {listed:?} differ from the binary's {workloads:?}"
        ));
    }
    Ok(())
}
