//! # maliva-bench — the experiment harness
//!
//! One module per table / figure of the paper's evaluation section (§7). Each
//! experiment builds the corresponding dataset and workload, trains the required
//! rewriters, evaluates them per difficulty bucket and prints the same rows / series
//! the paper reports (plus a JSON dump under `target/experiments/`).
//!
//! Run everything with
//! `cargo run -p maliva-bench --release --bin experiments -- all`, or a single
//! experiment with e.g. `... -- fig12`. The environment variables `MALIVA_SCALE`
//! (`tiny` / `small` / `large`) and `MALIVA_QUERIES` control the dataset size and
//! workload size; the defaults are chosen so the full suite completes in minutes on a
//! laptop while preserving the paper's qualitative results.

pub mod experiments;
pub mod harness;
pub mod pins;

pub use harness::{
    bucket_edges_small, evaluate_by_bucket, print_table, save_json, scenario, standard_rewriters,
    BucketReport, DatasetKind, ExperimentOutput, Scenario,
};
