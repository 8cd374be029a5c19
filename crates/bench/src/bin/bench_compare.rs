//! Bench regression comparator: diffs a fresh exporter run against a
//! checked-in `BENCH_*.json` artifact and flags per-row timing regressions.
//!
//! Usage:
//!
//! ```text
//! bench_compare --baseline BENCH_exec_paths.json --fresh /tmp/BENCH_exec_paths.json
//!               [--threshold 25] [--strict]
//! ```
//!
//! Both documents are walked structurally. Array elements are matched by
//! their *identity fields* (`layer`, `n`, `exec`, `workers`,
//! `instrumentation`, …) rather than by position, so a quick CI run
//! covering a subset of sizes still lines up against the full checked-in
//! artifact. Wherever both sides carry an `ns` statistics object, the
//! medians are compared: a fresh median more than `--threshold` percent
//! (default 25) above the baseline median is a **regression**.
//!
//! By default the tool only *warns* (exit 0) — CI hardware differs from
//! the machine that produced the checked-in numbers, so this is a
//! trend-spotting gate, not a hard one. `--strict` turns regressions into
//! a nonzero exit for local use on stable hardware.

use serde_json::Value;
use std::process::ExitCode;

/// One matched timing-statistic median pair.
#[derive(Debug, Clone)]
struct Comparison {
    /// Human-readable path of the statistic (identity-keyed, not indexed).
    path: String,
    /// Baseline median, ns per step.
    baseline: f64,
    /// Fresh median, ns per step.
    fresh: f64,
}

impl Comparison {
    /// Ratio of fresh to baseline median (`> 1` means slower).
    fn ratio(&self) -> f64 {
        self.fresh / self.baseline
    }

    /// Is this a regression at `threshold_pct` percent?
    fn regressed(&self, threshold_pct: f64) -> bool {
        self.baseline > 0.0 && self.ratio() > 1.0 + threshold_pct / 100.0
    }
}

/// Keys that identify an array element across runs (as opposed to the
/// measured quantities, which vary).
const IDENTITY_KEYS: [&str; 11] = [
    "layer",
    "n",
    "exec",
    "workers",
    "instrumentation",
    "workload",
    "generation",
    "subgeneration",
    "size",
    "name",
    "variant",
];

/// Builds the identity key of an array element: the sorted
/// `field=value` pairs of its identity fields, or `None` for elements
/// without any (those are matched by position as a fallback).
fn identity(v: &Value) -> Option<String> {
    let Value::Object(entries) = v else {
        return None;
    };
    let mut parts: Vec<String> = entries
        .iter()
        .filter(|(k, v)| {
            IDENTITY_KEYS.contains(&k.as_str())
                && !matches!(v, Value::Object(_) | Value::Array(_))
        })
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    if parts.is_empty() {
        return None;
    }
    parts.sort();
    Some(parts.join(","))
}

/// Whether `key` names a timing statistics object.
fn is_stat_key(key: &str) -> bool {
    key == "ns"
}

/// Recursively collects matched timing-statistic median pairs from two
/// documents. Returns the comparisons plus the count of baseline
/// statistics the fresh run did not cover (informational — a subset run
/// is expected in CI).
fn collect(path: &str, baseline: &Value, fresh: &Value, out: &mut Vec<Comparison>) -> u64 {
    let mut uncovered = 0u64;
    match baseline {
        Value::Object(entries) => {
            for (k, bv) in entries {
                let child = if path.is_empty() { k.clone() } else { format!("{path}.{k}") };
                match fresh.get(k) {
                    Some(fv) => {
                        if is_stat_key(k) {
                            if let (Some(bm), Some(fm)) = (
                                bv.get("median").and_then(Value::as_f64),
                                fv.get("median").and_then(Value::as_f64),
                            ) {
                                out.push(Comparison { path: child, baseline: bm, fresh: fm });
                                continue;
                            }
                        }
                        uncovered += collect(&child, bv, fv, out);
                    }
                    None => {
                        if is_stat_key(k) && bv.get("median").is_some() {
                            uncovered += 1;
                        } else {
                            uncovered += count_stats(bv);
                        }
                    }
                }
            }
        }
        Value::Array(b) => {
            let empty = Vec::new();
            let f = fresh.as_array().unwrap_or(&empty);
            for (i, bv) in b.iter().enumerate() {
                let (label, fv) = match identity(bv) {
                    Some(id) => (
                        format!("{path}[{id}]"),
                        f.iter().find(|fv| identity(fv).as_deref() == Some(id.as_str())),
                    ),
                    None => (format!("{path}[{i}]"), f.get(i)),
                };
                match fv {
                    Some(fv) => uncovered += collect(&label, bv, fv, out),
                    None => uncovered += count_stats(bv),
                }
            }
        }
        _ => {}
    }
    uncovered
}

/// Counts the timing statistics under a value — used to report
/// how much of the baseline a subset run left uncovered.
fn count_stats(v: &Value) -> u64 {
    match v {
        Value::Object(entries) => entries
            .iter()
            .map(|(k, v)| {
                if is_stat_key(k) && v.get("median").is_some() {
                    1
                } else {
                    count_stats(v)
                }
            })
            .sum(),
        Value::Array(a) => a.iter().map(count_stats).sum(),
        _ => 0,
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: bench_compare --baseline <checked-in.json> --fresh <fresh.json> \
         [--threshold <pct>] [--strict]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut baseline_path: Option<String> = None;
    let mut fresh_path: Option<String> = None;
    let mut threshold = 25.0f64;
    let mut strict = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--baseline" => {
                i += 1;
                baseline_path = args.get(i).cloned();
            }
            "--fresh" => {
                i += 1;
                fresh_path = args.get(i).cloned();
            }
            "--threshold" => {
                i += 1;
                threshold = match args.get(i).and_then(|a| a.parse().ok()) {
                    Some(t) => t,
                    None => usage(),
                };
            }
            "--strict" => strict = true,
            _ => usage(),
        }
        i += 1;
    }
    let (Some(baseline_path), Some(fresh_path)) = (baseline_path, fresh_path) else {
        usage()
    };

    let load = |p: &str| -> Value {
        let text = std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("bench_compare: cannot read {p}: {e}");
            std::process::exit(2);
        });
        serde_json::from_str(&text).unwrap_or_else(|e| {
            eprintln!("bench_compare: {p} is not valid JSON: {e}");
            std::process::exit(2);
        })
    };
    let baseline = load(&baseline_path);
    let fresh = load(&fresh_path);

    let mut comparisons = Vec::new();
    let uncovered = collect("", &baseline, &fresh, &mut comparisons);

    let mut regressions = 0u64;
    for c in &comparisons {
        if c.regressed(threshold) {
            regressions += 1;
            eprintln!(
                "bench_compare: REGRESSION {}: {:.1} -> {:.1} ns ({:+.1}%)",
                c.path,
                c.baseline,
                c.fresh,
                (c.ratio() - 1.0) * 100.0,
            );
        }
    }
    println!(
        "bench_compare: {} statistics compared against {} ({} regressions > {}%, \
         {} baseline statistics not covered by the fresh run)",
        comparisons.len(),
        baseline_path,
        regressions,
        threshold,
        uncovered,
    );
    if comparisons.is_empty() {
        eprintln!("bench_compare: WARNING: nothing matched — check the document shapes");
    }
    if strict && regressions > 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn compare(baseline: &Value, fresh: &Value) -> (Vec<Comparison>, u64) {
        let mut out = Vec::new();
        let uncovered = collect("", baseline, fresh, &mut out);
        (out, uncovered)
    }

    #[test]
    fn matches_array_elements_by_identity_not_position() {
        let baseline = json!({"rows": [
            {"n": 64, "workload": "gnp_300", "ns": {"median": 100.0}},
            {"n": 128, "workload": "gnp_300", "ns": {"median": 200.0}},
        ]});
        // Fresh run covers only n = 128, listed first.
        let fresh = json!({"rows": [
            {"n": 128, "workload": "gnp_300", "ns": {"median": 210.0}},
        ]});
        let (cmp, uncovered) = compare(&baseline, &fresh);
        assert_eq!(cmp.len(), 1);
        assert_eq!(cmp[0].baseline, 200.0);
        assert_eq!(cmp[0].fresh, 210.0);
        assert!(cmp[0].path.contains("n=128"), "{}", cmp[0].path);
        assert_eq!(uncovered, 1, "the n = 64 row is uncovered");
    }

    #[test]
    fn threshold_splits_regressions_from_noise() {
        let c = Comparison { path: "x".into(), baseline: 100.0, fresh: 124.0 };
        assert!(!c.regressed(25.0), "24% above is inside the 25% band");
        let c = Comparison { path: "x".into(), baseline: 100.0, fresh: 126.0 };
        assert!(c.regressed(25.0));
        let c = Comparison { path: "x".into(), baseline: 100.0, fresh: 90.0 };
        assert!(!c.regressed(25.0), "improvements never flag");
    }

    #[test]
    fn nested_documents_are_walked() {
        let baseline = json!({"a": {"b": {"ns": {"median": 10.0, "min": 9.0}}}});
        let fresh = json!({"a": {"b": {"ns": {"median": 20.0, "min": 18.0}}}});
        let (cmp, uncovered) = compare(&baseline, &fresh);
        assert_eq!(cmp.len(), 1);
        assert_eq!(cmp[0].path, "a.b.ns");
        assert!(cmp[0].regressed(25.0));
        assert_eq!(uncovered, 0);
    }

    #[test]
    fn exec_path_rows_match_on_their_full_identity() {
        let row = |layer: &str, exec: &str, instr: &str, median: f64| {
            json!({"layer": layer, "n": 64, "exec": exec, "workers": 1,
                   "instrumentation": instr, "ns": {"median": median}, "agrees": true})
        };
        let baseline = json!({"rows": [
            row("run", "fused", "counts", 10.0),
            row("run", "fused", "off", 20.0),
            row("iteration", "fused", "counts", 30.0),
            row("run", "generic", "counts", 40.0),
        ]});
        let fresh = json!({"rows": [
            row("run", "generic", "counts", 40.0),
            row("iteration", "fused", "counts", 30.0),
            row("run", "fused", "off", 20.0),
            row("run", "fused", "counts", 10.0),
        ]});
        let (cmp, uncovered) = compare(&baseline, &fresh);
        assert_eq!(cmp.len(), 4);
        assert!(cmp.iter().all(|c| c.baseline == c.fresh), "{cmp:?}");
        assert_eq!(uncovered, 0);
    }

    #[test]
    fn suffixed_statistics_are_not_timing_keys() {
        let doc = json!({"iterations": [{"n": 64, "fused_ns_per_iteration": {"median": 10.0}}]});
        let (cmp, uncovered) = compare(&doc, &doc);
        assert!(cmp.is_empty());
        assert_eq!(uncovered, 0);
    }

    #[test]
    fn non_timing_keys_are_ignored() {
        let baseline = json!({"speedup": 2.0, "stamp": {"commit": "abc"}});
        let fresh = json!({"speedup": 1.0, "stamp": {"commit": "def"}});
        let (cmp, uncovered) = compare(&baseline, &fresh);
        assert!(cmp.is_empty());
        assert_eq!(uncovered, 0);
    }

    #[test]
    fn missing_subtrees_count_their_statistics() {
        let baseline = json!({"rows": [
            {"n": 64, "ns": {"median": 1.0}},
            {"n": 128, "ns": {"median": 2.0}},
        ]});
        let fresh = json!({"other": 1});
        let (cmp, uncovered) = compare(&baseline, &fresh);
        assert!(cmp.is_empty());
        assert_eq!(uncovered, 2);
    }

    #[test]
    fn zero_baseline_never_divides() {
        let c = Comparison { path: "x".into(), baseline: 0.0, fresh: 5.0 };
        assert!(!c.regressed(25.0));
    }
}
