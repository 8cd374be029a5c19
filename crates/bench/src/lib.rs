//! Shared helpers for the benchmark harness and table/figure binaries.
//!
//! Every experiment binary prints a human-readable table (the same rows the
//! paper reports) and can additionally emit machine-readable JSON rows; the
//! small formatting utilities live here so the binaries stay declarative.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec_paths;
pub mod tables;
pub mod workloads;

/// Number of worker threads the harness may use: the machine's available
/// parallelism, falling back to 1 where it cannot be determined (the
/// fallback also keeps the batch rows meaningful in constrained CI
/// sandboxes).
pub fn workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Per-step timing statistics over repeated timed groups — the robust
/// replacement for a single mean sample. The median is the headline number
/// (insensitive to a stray scheduler hiccup in one group); min and max
/// bound the spread so a noisy row is visible in the exported artifact.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NsPerStep {
    /// Fastest group, nanoseconds per step.
    pub min: f64,
    /// Median group, nanoseconds per step — the number tables report.
    pub median: f64,
    /// Slowest group, nanoseconds per step.
    pub max: f64,
}

impl NsPerStep {
    /// How many timed groups every measurement takes.
    pub const GROUPS: u32 = 5;

    /// Measures `step` with `reps` total timed calls: one warmup group
    /// (untimed, `reps / GROUPS` calls, at least one — first-call effects
    /// like cold caches and lazy allocations never reach the statistics),
    /// then [`NsPerStep::GROUPS`] timed groups whose per-step times are
    /// reduced to min / median / max.
    pub fn measure(mut step: impl FnMut(), reps: u32) -> NsPerStep {
        let per_group = (reps / Self::GROUPS).max(1);
        for _ in 0..per_group {
            step();
        }
        let mut samples: Vec<f64> = (0..Self::GROUPS)
            .map(|_| {
                let start = std::time::Instant::now();
                for _ in 0..per_group {
                    step();
                }
                start.elapsed().as_nanos() as f64 / f64::from(per_group)
            })
            .collect();
        samples.sort_by(|a, b| a.total_cmp(b));
        NsPerStep {
            min: samples[0],
            median: samples[samples.len() / 2],
            max: samples[samples.len() - 1],
        }
    }

    /// The statistics as a JSON object (`{"min": …, "median": …, "max": …}`)
    /// — the per-row shape the exported bench artifacts carry.
    pub fn json(&self) -> serde_json::Value {
        serde_json::json!({
            "min": self.min,
            "median": self.median,
            "max": self.max,
        })
    }
}

/// Best-effort commit SHA of the tree the bench ran on: `GITHUB_SHA` (CI),
/// then `git rev-parse HEAD`, else `"unknown"`. Never fails — a bench
/// artifact without provenance is still worth writing.
pub fn commit_sha() -> String {
    if let Ok(sha) = std::env::var("GITHUB_SHA") {
        if !sha.is_empty() {
            return sha;
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Whether the working tree differs from the stamped commit, ignoring the
/// exported `BENCH_*.json` artifacts themselves (regenerating them is the
/// whole point of a bench run, so their own churn must not mark the stamp
/// dirty). `None` when git is unavailable — provenance stays best-effort.
pub fn tree_dirty() -> Option<bool> {
    let out = std::process::Command::new("git")
        .args(["status", "--porcelain"])
        .output()
        .ok()
        .filter(|o| o.status.success())?;
    let status = String::from_utf8(out.stdout).ok()?;
    Some(status.lines().any(|line| {
        // Porcelain v1: two status columns, a space, then the path
        // (rename lines keep the original path after " -> ", which never
        // rescues a dirty tree, so the prefix check is enough).
        let path = line.get(3..).unwrap_or("").trim_start();
        let name = path.rsplit('/').next().unwrap_or(path);
        !(name.starts_with("BENCH_") && name.ends_with(".json"))
    }))
}

/// The provenance stamp every exported bench JSON carries: the harness
/// worker budget, the machine's visible CPU count, the commit the numbers
/// were measured at, and whether the tree had uncommitted changes beyond
/// the artifacts themselves — without these a checked-in throughput or
/// speedup figure cannot be interpreted (a 1-CPU CI runner legitimately
/// reports ~1.0x parallel speedups, and a dirty tree may not be the
/// stamped commit's code at all).
pub fn stamp() -> serde_json::Value {
    serde_json::json!({
        "workers": workers(),
        "cpus": std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        "commit": commit_sha(),
        "dirty": tree_dirty(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_per_step_orders_its_statistics() {
        let mut i = 0u64;
        let t = NsPerStep::measure(
            || {
                i = std::hint::black_box(i.wrapping_mul(6364136223846793005).wrapping_add(1));
            },
            50,
        );
        assert!(t.min > 0.0);
        assert!(t.min <= t.median && t.median <= t.max);
    }

    #[test]
    fn stamp_has_provenance_fields() {
        let s = stamp();
        assert!(s["workers"].as_u64().unwrap() >= 1);
        assert!(s["commit"].as_str().is_some());
        // In this repo git is available, so dirtiness must be determined.
        assert!(s["dirty"].as_bool().is_some() || s["dirty"].is_null());
    }
}
