//! The `experiments` binary's usage errors: each exits with status 2 and
//! names what was wrong before any experiment runs.

use std::process::Command;

/// Runs `experiments fig12` with `variable=value` (and the other of
/// `MALIVA_QUERIES` / `MALIVA_SCALE` unset) and returns its exit code and
/// standard error.
fn fig12_with(variable: &str, value: &str) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("fig12")
        .env_remove("MALIVA_QUERIES")
        .env_remove("MALIVA_SCALE")
        .env(variable, value)
        .output()
        .expect("the experiments binary starts");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn zero_queries_is_a_usage_error() {
    let (code, stderr) = fig12_with("MALIVA_QUERIES", "0");
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("MALIVA_QUERIES"), "stderr: {stderr}");
    assert!(!stderr.contains("running fig12"), "stderr: {stderr}");
}

#[test]
fn a_non_number_of_queries_is_a_usage_error() {
    let (code, stderr) = fig12_with("MALIVA_QUERIES", "lots");
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("MALIVA_QUERIES"), "stderr: {stderr}");
    assert!(stderr.contains("`lots`"), "stderr: {stderr}");
}

#[test]
fn an_unknown_scale_is_a_usage_error() {
    let (code, stderr) = fig12_with("MALIVA_SCALE", "huge");
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("MALIVA_SCALE"), "stderr: {stderr}");
    assert!(stderr.contains("`huge`"), "stderr: {stderr}");
    assert!(!stderr.contains("running fig12"), "stderr: {stderr}");
}

/// Only the paper suite's ids are known: a made-up one and `exec` are not.
#[test]
fn an_unknown_experiment_is_a_usage_error() {
    for id in ["fig99", "exec"] {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .arg(id)
            .output()
            .expect("the experiments binary starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
        assert!(
            stderr.contains(&format!("unknown experiment id `{id}`")),
            "stderr: {stderr}"
        );
    }
}
