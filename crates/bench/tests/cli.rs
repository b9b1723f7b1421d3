//! The `experiments` binary's usage errors: each exits with status 2 and
//! names what was wrong before any experiment runs.

use std::process::Command;

/// Runs `experiments fig12` with `MALIVA_QUERIES=value` and returns its exit
/// code and standard error.
fn fig12_with_queries(value: &str) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("fig12")
        .env("MALIVA_QUERIES", value)
        .env_remove("MALIVA_SCALE")
        .output()
        .expect("the experiments binary starts");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn zero_queries_is_a_usage_error() {
    let (code, stderr) = fig12_with_queries("0");
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("MALIVA_QUERIES"), "stderr: {stderr}");
    assert!(!stderr.contains("running fig12"), "stderr: {stderr}");
}

#[test]
fn a_non_number_of_queries_is_a_usage_error() {
    let (code, stderr) = fig12_with_queries("lots");
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("MALIVA_QUERIES"), "stderr: {stderr}");
    assert!(stderr.contains("`lots`"), "stderr: {stderr}");
}

#[test]
fn an_unknown_experiment_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("fig99")
        .output()
        .expect("the experiments binary starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("unknown experiment id `fig99`"),
        "stderr: {stderr}"
    );
}
