//! The committed contract: `BENCHMARK.json` (metric names, units, directions,
//! bounds) and `pins.json` (the input digests of the default seed and run
//! length), both compiled in
//! so the program and the contract cannot drift apart.

use serde_json::Value;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
const PINS_JSON: &str = include_str!("../pins.json");

/// The seed whose traffic is pinned.
pub const DEFAULT_SEED: u64 = 1;

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the base value by which the metric may worsen (end-to-end only).
    pub bound: Option<f64>,
}

pub struct BenchmarkSpec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn metrics_of(root: &Value, key: &str) -> Vec<MetricSpec> {
    let field = |m: &Value, f: &str| {
        m.get(f)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("BENCHMARK.json: a {key} metric lacks `{f}`"))
            .to_string()
    };
    root.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{key}`"))
        .iter()
        .map(|m| MetricSpec {
            name: field(m, "name"),
            unit: field(m, "unit"),
            higher_is_better: field(m, "better") == "higher",
            bound: m.get("bound").and_then(Value::as_f64),
        })
        .collect()
}

/// Parses the compiled-in `BENCHMARK.json`. It is a committed file, so a
/// malformed one is a bug in the repository, not an input error.
pub fn benchmark_spec() -> BenchmarkSpec {
    let root: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
    BenchmarkSpec {
        run_seconds: root
            .get("run_seconds")
            .and_then(Value::as_i64)
            .expect("BENCHMARK.json has run_seconds") as u64,
        workloads: root
            .get("workloads")
            .and_then(Value::as_array)
            .expect("BENCHMARK.json has workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str).map(String::from))
            .collect(),
        end_to_end: metrics_of(&root, "end_to_end"),
        per_layer: metrics_of(&root, "per_layer"),
    }
}

/// The pinned input digest of `workload` for [`DEFAULT_SEED`] and `run_seconds`.
pub fn pinned_digest(workload: &str) -> Option<String> {
    let pins: Value = serde_json::from_str(PINS_JSON).expect("pins.json is valid JSON");
    pins.get(workload).and_then(Value::as_str).map(String::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::SPECS;

    #[test]
    fn contract_names_the_workloads_this_program_runs() {
        let spec = benchmark_spec();
        let ours: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        assert_eq!(spec.workloads, ours);
        for name in ours {
            assert!(pinned_digest(name).is_some(), "{name} has no pinned digest");
        }
    }

    #[test]
    fn every_end_to_end_metric_has_a_bound_within_the_cap() {
        let spec = benchmark_spec();
        assert!(spec.end_to_end.iter().any(|m| m.name == "setup_s"));
        for m in &spec.end_to_end {
            let bound = m.bound.expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
    }
}
