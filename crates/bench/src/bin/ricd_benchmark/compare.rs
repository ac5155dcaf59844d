//! `--compare A.json B.json`: for every workload × end-to-end metric, is B
//! better, the same, or worse than A by the bounds `BENCHMARK.json` fixes?
//!
//! Both files are `result.json` documents written by `--all`; with
//! `--repeat N` each metric carries N values, and the run-to-run spread
//! (quartile distance ÷ median, the wider of the two sides) decides
//! whether the comparison resolves at all.

use crate::spec::{Contract, MetricSpec};
use crate::stats;
use serde_json::Value;

/// The outcome for one workload × metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// Run-to-run spread wider than the bound: no claim either way.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges B against A for one metric. `None` when either side has no
/// values or A's median is zero.
pub fn judge(spec: &MetricSpec, a: &[f64], b: &[f64]) -> Option<(Verdict, f64, f64)> {
    let bound = spec.bound.unwrap_or(0.0);
    let (ma, mb) = (stats::median(a)?, stats::median(b)?);
    if ma == 0.0 {
        return None;
    }
    // Positive = B is worse.
    let worse = if spec.higher_is_better {
        (ma - mb) / ma.abs()
    } else {
        (mb - ma) / ma.abs()
    };
    let spread = stats::spread(a)
        .unwrap_or(0.0)
        .max(stats::spread(b).unwrap_or(0.0));
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    Some((verdict, worse, spread))
}

fn values(doc: &Value, workload: &str, metric: &str) -> Vec<f64> {
    doc["workloads"][workload]["metrics"][metric]["values"]
        .as_array()
        .map(|a| a.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// Prints one line per workload × end-to-end metric; `Ok(true)` when
/// nothing regressed.
pub fn run(contract: &Contract, path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut clean = true;
    println!(
        "{:<22} {:<16} {:>14} {:>14} {:>9} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "spread", "bound"
    );
    for workload in &contract.workloads {
        for spec in &contract.end_to_end {
            let (va, vb) = (
                values(&a, workload, &spec.name),
                values(&b, workload, &spec.name),
            );
            let Some((verdict, worse, spread)) = judge(spec, &va, &vb) else {
                println!("{workload:<22} {:<16} missing on one side", spec.name);
                clean = false;
                continue;
            };
            println!(
                "{workload:<22} {:<16} {:>14.4} {:>14.4} {:>+8.2}% {:>7.2}% {:>5.0}%  {}",
                spec.name,
                stats::median(&va).unwrap_or(0.0),
                stats::median(&vb).unwrap_or(0.0),
                worse * 100.0,
                spread * 100.0,
                spec.bound.unwrap_or(0.0) * 100.0,
                verdict.as_str()
            );
            clean &= verdict != Verdict::Regressed;
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(higher: bool) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: "ms".into(),
            higher_is_better: higher,
            bound: Some(0.10),
        }
    }

    #[test]
    fn lower_is_better_metric_regresses_when_it_grows_past_the_bound() {
        let (v, worse, _) = judge(&spec(false), &[100.0], &[115.0]).unwrap();
        assert_eq!(v, Verdict::Regressed);
        assert!((worse - 0.15).abs() < 1e-12);
        assert_eq!(
            judge(&spec(false), &[100.0], &[105.0]).unwrap().0,
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&spec(false), &[100.0], &[80.0]).unwrap().0,
            Verdict::Improved
        );
    }

    #[test]
    fn higher_is_better_metric_flips_the_direction() {
        assert_eq!(
            judge(&spec(true), &[100.0], &[80.0]).unwrap().0,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&spec(true), &[100.0], &[120.0]).unwrap().0,
            Verdict::Improved
        );
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(
            judge(&spec(false), &noisy, &noisy).unwrap().0,
            Verdict::Unresolved
        );
    }

    #[test]
    fn missing_side_gives_no_verdict() {
        assert_eq!(judge(&spec(false), &[], &[1.0]), None);
        assert_eq!(judge(&spec(false), &[0.0], &[1.0]), None);
    }
}
