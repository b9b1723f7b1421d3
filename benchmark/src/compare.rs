//! `compare <a.json> <b.json>`: one row per (workload, end-to-end metric), with
//! `a` as the base of every ratio.

use serde_json::Value;

use crate::spec::{BenchmarkSpec, MetricSpec};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Improved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Improved => "improved",
        }
    }
}

/// By what share of the base `a` the value `b` is worse (negative: better).
pub fn worsening(metric: &MetricSpec, a: f64, b: f64) -> f64 {
    let change = if metric.higher_is_better {
        a - b
    } else {
        b - a
    };
    if a == 0.0 {
        // No base to take a share of: any worsening at all is unbounded.
        return if change == 0.0 {
            0.0
        } else {
            change.signum() * f64::INFINITY
        };
    }
    change / a.abs()
}

pub fn judge(metric: &MetricSpec, a: f64, b: f64) -> Verdict {
    let bound = metric.bound.unwrap_or(0.0);
    let worse = worsening(metric, a, b);
    if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Ok
    }
}

/// Envelope fields that must agree for two runs to be comparable. The git sha
/// is recorded but free to differ: comparing two commits is the point.
const COMPARABLE: [&str; 5] = [
    "available_parallelism",
    "build_profile",
    "rustc",
    "seed",
    "seconds",
];

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))
}

fn workload_entries(file: &Value, path: &str) -> Result<Vec<(String, Value)>, String> {
    file.get("workloads")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{path} has no `workloads` list"))?
        .iter()
        .map(|w| {
            let name = w
                .get("workload")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("{path}: a workload entry lacks its name"))?;
            Ok((name.to_string(), w.clone()))
        })
        .collect()
}

fn refuse_if_incomparable(a: &Value, b: &Value) -> Result<(), String> {
    for field in COMPARABLE {
        let of = |file: &Value| file.get("envelope").and_then(|e| e.get(field)).cloned();
        let (va, vb) = (of(a), of(b));
        if va.is_none() || va != vb {
            return Err(format!(
                "not comparable: envelope `{field}` is {va:?} in a but {vb:?} in b"
            ));
        }
    }
    Ok(())
}

/// Prints the comparison; `Ok(true)` when nothing regressed and every digest agrees.
pub fn compare(path_a: &str, path_b: &str, contract: &BenchmarkSpec) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    refuse_if_incomparable(&a, &b)?;
    let sha = |file: &Value| {
        file.get("envelope")
            .and_then(|e| e.get("git_sha"))
            .and_then(Value::as_str)
            .unwrap_or("unknown")
            .to_string()
    };
    println!("a = {path_a} (git {})", sha(&a));
    println!("b = {path_b} (git {})", sha(&b));
    let entries_b = workload_entries(&b, path_b)?;
    let mut clean = true;
    println!(
        "{:<17} {:<17} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "a", "b", "b/a", "bound"
    );
    for (name, wa) in workload_entries(&a, path_a)? {
        let wb = &entries_b
            .iter()
            .find(|(n, _)| *n == name)
            .ok_or_else(|| format!("not comparable: {path_b} lacks workload `{name}`"))?
            .1;
        for field in ["input_digest", "rows"] {
            if wa.get(field) != wb.get(field) {
                return Err(format!(
                    "not comparable: `{field}` of {name} is {:?} in a but {:?} in b",
                    wa.get(field),
                    wb.get(field)
                ));
            }
        }
        for metric in &contract.end_to_end {
            let value = |w: &Value, path: &str| {
                w.get("end_to_end")
                    .and_then(|m| m.get(&metric.name))
                    .and_then(|m| m.get("value"))
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("{path}: {name} lacks `{}`", metric.name))
            };
            let (va, vb) = (value(&wa, path_a)?, value(wb, path_b)?);
            let verdict = judge(metric, va, vb);
            clean &= verdict != Verdict::Regressed;
            println!(
                "{:<17} {:<17} {:>14.4} {:>14.4} {:>9.4} {:>5.0}%  {}",
                name,
                metric.name,
                va,
                vb,
                vb / va,
                metric.bound.unwrap_or(0.0) * 100.0,
                verdict.label()
            );
        }
        for digest in ["decision_digest", "result_digest"] {
            let same = wa.get(digest) == wb.get(digest);
            clean &= same;
            println!(
                "{:<17} {:<17} {}",
                name,
                digest,
                if same { "identical" } else { "DIFFERS" }
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher_is_better: bool, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: "ms".into(),
            higher_is_better,
            bound: Some(bound),
        }
    }

    #[test]
    fn lower_is_better_metric() {
        let m = metric(false, 0.10);
        assert_eq!(judge(&m, 100.0, 109.9), Verdict::Ok);
        assert_eq!(judge(&m, 100.0, 110.1), Verdict::Regressed);
        assert_eq!(judge(&m, 100.0, 90.1), Verdict::Ok);
        assert_eq!(judge(&m, 100.0, 89.9), Verdict::Improved);
        assert!((worsening(&m, 100.0, 125.0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn higher_is_better_metric() {
        let m = metric(true, 0.10);
        assert_eq!(judge(&m, 1000.0, 905.0), Verdict::Ok);
        assert_eq!(judge(&m, 1000.0, 895.0), Verdict::Regressed);
        assert_eq!(judge(&m, 1000.0, 1105.0), Verdict::Improved);
    }

    #[test]
    fn the_bound_is_a_share_of_the_base_not_of_the_change() {
        // a is the base: 100 → 111 worsens by 11% of a, although it is 9.9% of b.
        assert_eq!(
            judge(&metric(false, 0.10), 100.0, 111.0),
            Verdict::Regressed
        );
        assert_eq!(judge(&metric(false, 0.10), 111.0, 100.0), Verdict::Ok);
    }

    #[test]
    fn zero_base_has_no_tolerance() {
        let m = metric(false, 0.10);
        assert_eq!(judge(&m, 0.0, 0.0), Verdict::Ok);
        assert_eq!(judge(&m, 0.0, 0.001), Verdict::Regressed);
    }

    #[test]
    fn envelopes_must_match_except_for_the_sha() {
        let file = |sha: &str, seed: u64| {
            serde_json::json!({"envelope": serde_json::json!({
                "git_sha": sha, "available_parallelism": 2, "build_profile": "release",
                "rustc": "rustc 1.0", "seed": seed, "seconds": 15,
            })})
        };
        assert!(refuse_if_incomparable(&file("aaa", 1), &file("bbb", 1)).is_ok());
        let err = refuse_if_incomparable(&file("aaa", 1), &file("aaa", 2)).unwrap_err();
        assert!(err.contains("seed"), "{err}");
    }
}
