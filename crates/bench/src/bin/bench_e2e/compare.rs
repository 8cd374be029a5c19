//! `bench_e2e compare`: `--out` files side by side, with a verdict per
//! (workload, metric) against the bounds in `BENCHMARK.json`.
//!
//! ```text
//! bench_e2e compare A.json B.json
//! bench_e2e compare A1.json A2.json A3.json -- B1.json B2.json B3.json
//! ```
//!
//! With several files on either side each run counts as one sample: the
//! value of a side is the median of its runs' values, and the spread is
//! taken over them. One file per side shows nothing of how far runs of the
//! same code differ, and on a shared host that is far more than the samples
//! inside a run differ, so a single pair judges only the metrics that do not
//! vary within a run (the exact counts) and the error rate.

use crate::stats::{median, quartiles, spread};
use serde_json::Value;
use std::fmt;
use std::fmt::Write as _;

const USAGE: &str = "usage: bench_e2e compare A.json B.json
       bench_e2e compare A.json... -- B.json...";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The spread is wider than the bound.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// One side of a comparison: its value and the numbers its spread is taken
/// over.
pub struct Side<'a> {
    pub value: f64,
    pub samples: &'a [f64],
}

/// The verdict on B against A for a metric where `lower` is better and
/// that may worsen by `bound` (a share of A's value). Unresolved when the
/// spread of either side exceeds the bound, unless every sample of one
/// side beats every sample of the other.
pub fn verdict(lower: bool, bound: f64, a: &Side, b: &Side) -> Verdict {
    if !(a.value.is_finite() && b.value.is_finite()) || a.value == 0.0 {
        return Verdict::Unresolved;
    }
    let worse = if lower {
        b.value - a.value
    } else {
        a.value - b.value
    } / a.value.abs();
    let max = |s: &[f64]| s.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = |s: &[f64]| s.iter().copied().fold(f64::INFINITY, f64::min);
    let separated = max(a.samples) < min(b.samples) || max(b.samples) < min(a.samples);
    if spread(a.samples).max(spread(b.samples)) > bound && !separated {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else if -worse > bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    match doc.get("workloads") {
        Some(Value::Object(_)) => Ok(doc),
        _ => Err(format!("{path}: not a bench_e2e --out file")),
    }
}

fn entries(v: &Value) -> &[(String, Value)] {
    match v {
        Value::Object(e) => e,
        _ => &[],
    }
}

/// The two sides' files: `A B`, or `A... -- B...`.
fn sides(args: &[String]) -> Result<(&[String], &[String]), String> {
    let (a, b) = match args.iter().position(|a| a == "--") {
        Some(i) => (&args[..i], &args[i + 1..]),
        None if args.len() == 2 => args.split_at(1),
        None => return Err(USAGE.into()),
    };
    if a.is_empty() || b.is_empty() {
        return Err(USAGE.into());
    }
    Ok((a, b))
}

/// Failed over attempted operations of `workload`, summed over the runs.
fn error_rate(docs: &[Value], workload: &str) -> f64 {
    let sum = |key: &str| {
        docs.iter()
            .map(|d| d["workloads"][workload][key].as_f64().unwrap_or(f64::NAN))
            .sum::<f64>()
    };
    sum("failed") / sum("attempted")
}

/// Each run's value of `metric` on `workload` and the samples behind it;
/// `None` when a run lacks the metric.
fn runs(docs: &[Value], workload: &str, metric: &str) -> Option<(Vec<f64>, Vec<Vec<f64>>)> {
    docs.iter()
        .map(|d| {
            let m = d["workloads"][workload]["metrics"].get(metric)?;
            let samples = m["samples"]
                .as_array()
                .map(|s| s.iter().filter_map(Value::as_f64).collect())
                .unwrap_or_default();
            Some((m["value"].as_f64().unwrap_or(f64::NAN), samples))
        })
        .collect::<Option<Vec<(f64, Vec<f64>)>>>()
        .map(|v| v.into_iter().unzip())
}

fn describe(value: f64, samples: &[f64]) -> String {
    let [q1, _, q3] = quartiles(samples);
    format!("{value:.4} [{q1:.4}, {q3:.4}]")
}

/// Writes the comparison of the runs `b` against the runs `a` to `out`;
/// returns the regressions and error-rate rises found.
pub fn compare(a: &[Value], b: &[Value], out: &mut String) -> Vec<String> {
    let spec = crate::spec();
    let declared: Vec<&Value> = ["end_to_end", "per_layer"]
        .iter()
        .flat_map(|s| spec[*s].as_array().map(Vec::as_slice).unwrap_or(&[]))
        .collect();
    let between_runs = a.len() > 1 || b.len() > 1;
    let _ = writeln!(
        out,
        "A: {} run(s), B: {} run(s); {}",
        a.len(),
        b.len(),
        if between_runs {
            "spread over the runs' values"
        } else {
            "one run per side: metrics that vary within a run stay unresolved"
        }
    );
    let _ = writeln!(
        out,
        "{:<22} {:<34} {:>36} {:>36} {:>9}  verdict",
        "workload", "metric", "A value [q1, q3]", "B value [q1, q3]", "change"
    );
    let mut failures = Vec::new();
    let Some(first) = a.first() else {
        return failures;
    };
    for (workload, wa) in entries(&first["workloads"]) {
        if b.iter().any(|d| d["workloads"].get(workload).is_none()) {
            let _ = writeln!(out, "{workload}: not in every B run");
            continue;
        }
        let (ea, eb) = (error_rate(a, workload), error_rate(b, workload));
        let _ = writeln!(out, "{workload:<22} {:<34} {ea:>36} {eb:>36}", "error_rate");
        if eb > ea || (eb.is_nan() && !ea.is_nan()) {
            failures.push(format!("{workload}: error rate rose from {ea} to {eb}"));
        }
        for (name, _) in entries(&wa["metrics"]) {
            let (Some((va, sa)), Some((vb, sb))) =
                (runs(a, workload, name), runs(b, workload, name))
            else {
                continue;
            };
            let (basis_a, basis_b) = if between_runs {
                (va.clone(), vb.clone())
            } else {
                (sa[0].clone(), sb[0].clone())
            };
            let a_side = Side {
                value: median(&va),
                samples: &basis_a,
            };
            let b_side = Side {
                value: median(&vb),
                samples: &basis_b,
            };
            let change = 100.0 * (b_side.value - a_side.value) / a_side.value.abs();
            let spec = declared.iter().find(|d| d["name"] == name.as_str());
            let lower = spec.is_none_or(|d| d["better"] != "higher");
            let varies = |s: &[f64]| s.iter().any(|x| x != &s[0]);
            let spread_unknown = !between_runs && (varies(&basis_a) || varies(&basis_b));
            let shown = match spec.and_then(|d| d["bound"].as_f64()) {
                Some(_) if spread_unknown => Verdict::Unresolved.to_string(),
                Some(bound) => {
                    let v = verdict(lower, bound, &a_side, &b_side);
                    if v == Verdict::Regressed {
                        failures.push(format!("{workload}: {name} regressed ({change:+.2}%)"));
                    }
                    v.to_string()
                }
                None => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "{workload:<22} {name:<34} {:>36} {:>36} {change:>8.2}%  {shown}",
                describe(a_side.value, &basis_a),
                describe(b_side.value, &basis_b),
            );
        }
    }
    failures
}

/// Prints the comparison; fails on a regression or a rise in the error
/// rate.
pub fn run(args: &[String]) -> Result<(), String> {
    let (a_paths, b_paths) = sides(args)?;
    let load_all = |paths: &[String]| paths.iter().map(|p| load(p)).collect::<Result<Vec<_>, _>>();
    let (a, b) = (load_all(a_paths)?, load_all(b_paths)?);
    let mut out = String::new();
    let failures = compare(&a, &b, &mut out);
    print!("{out}");
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn side(samples: &[f64]) -> Side<'_> {
        Side {
            value: median(samples),
            samples,
        }
    }

    #[test]
    fn verdicts_follow_bounds_and_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [100.2, 100.8, 99.3, 100.1, 99.9];
        let slow = [120.0, 121.0, 119.0, 120.5, 119.5];
        let fast = [80.0, 81.0, 79.0, 80.5, 79.5];
        let noisy = [60.0, 140.0, 100.0, 70.0, 130.0];
        let (a, same, slow, fast, noisy) = (
            side(&a),
            side(&same),
            side(&slow),
            side(&fast),
            side(&noisy),
        );
        assert_eq!(verdict(true, 0.1, &a, &same), Verdict::Unchanged);
        assert_eq!(verdict(true, 0.1, &a, &slow), Verdict::Regressed);
        assert_eq!(verdict(true, 0.1, &a, &fast), Verdict::Improved);
        assert_eq!(verdict(true, 0.1, &a, &noisy), Verdict::Unresolved);
        // Higher is better: the same numbers flip.
        assert_eq!(verdict(false, 0.1, &a, &slow), Verdict::Improved);
        // Exact counts: any rise regresses.
        let c = [381.0; 3];
        let c2 = [382.0; 3];
        assert_eq!(
            verdict(true, 0.0005, &side(&c), &side(&c2)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(true, 0.0005, &side(&c), &side(&c)),
            Verdict::Unchanged
        );
    }

    /// An `--out` document with one workload and the given metrics, each
    /// `(name, value, samples)`.
    fn doc(failed: u64, metrics: &[(&str, f64, Vec<f64>)]) -> Value {
        let mut m = json!({});
        for (name, value, samples) in metrics {
            m.insert(
                name,
                json!({"value": value, "unit": "ms", "samples": samples}),
            );
        }
        json!({"workloads": {"cli-dense-1024": {
            "correct": failed == 0, "attempted": 10, "failed": failed, "metrics": m,
        }}})
    }

    /// Ten tight samples around `value`.
    fn tight(value: f64) -> Vec<f64> {
        (0..10)
            .map(|i| value * (1.0 + 0.001 * f64::from(i)))
            .collect()
    }

    fn wall(value: f64) -> Value {
        doc(0, &[("wall_ms_p5", value, tight(value))])
    }

    #[test]
    fn several_runs_per_side_take_the_spread_between_runs() {
        // One run per side: a 30% rise beyond a tight in-run spread says
        // nothing about the spread between runs, so it stays unresolved;
        // a change in a count that is exact within each run regresses.
        let mut out = String::new();
        assert!(compare(&[wall(100.0)], &[wall(130.0)], &mut out).is_empty());
        assert!(out.contains("unresolved"), "{out}");
        let count = |v: f64| doc(0, &[("generations", v, vec![v; 10])]);
        let mut out = String::new();
        assert_eq!(compare(&[count(381.0)], &[count(382.0)], &mut out).len(), 1);
        assert!(out.contains("regressed"), "{out}");

        // The same medians, but the runs of each side scatter by more than
        // the bound: unresolved, not regressed.
        let a: Vec<Value> = [100.0, 70.0, 140.0].map(wall).into();
        let b: Vec<Value> = [130.0, 95.0, 170.0].map(wall).into();
        let mut out = String::new();
        assert!(compare(&a, &b, &mut out).is_empty(), "{out}");
        assert!(
            out.contains("unresolved") && out.contains("3 run(s)"),
            "{out}"
        );

        // Runs that agree with each other resolve the same change.
        let a: Vec<Value> = [100.0, 101.0, 99.0].map(wall).into();
        let b: Vec<Value> = [130.0, 131.0, 129.0].map(wall).into();
        let mut out = String::new();
        assert_eq!(compare(&a, &b, &mut out).len(), 1, "{out}");
    }

    #[test]
    fn a_rise_in_failures_fails() {
        let mut out = String::new();
        assert_eq!(compare(&[wall(100.0)], &[doc(1, &[])], &mut out).len(), 1);
        let mut out = String::new();
        assert!(compare(&[wall(100.0)], &[wall(100.0)], &mut out).is_empty());
    }

    #[test]
    fn sides_split_on_double_dash() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let two = args(&["a", "b"]);
        assert_eq!(sides(&two).expect("ok"), (&two[..1], &two[1..]));
        let many = args(&["a1", "a2", "--", "b1"]);
        assert_eq!(sides(&many).expect("ok"), (&many[..2], &many[3..]));
        assert!(sides(&args(&["a", "b", "c"])).is_err());
        assert!(sides(&args(&["a", "--"])).is_err());
    }
}
