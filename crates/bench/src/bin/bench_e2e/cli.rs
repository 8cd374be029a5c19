//! The `cli-*` workloads: the real `gca-cc` binary, one process per
//! operation, timed from spawn to exit, with set-up probes between
//! operations; the correctness gate every output passes through; and the
//! peak-RSS sampler.

use crate::workloads::Workload;
use crate::{elapsed_ms, end_to_end, replay, sample, Ctx, Metric, Tally};
use gca_graphs::connectivity::union_find_components_dense;
use gca_graphs::AdjacencyMatrix;
use gca_hirschberg::complexity::total_generations;
use serde_json::Value;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// What a correct run on one input must report.
#[derive(Clone, Debug)]
pub struct Expected {
    /// The union-find labeling.
    pub labels: Vec<usize>,
    /// `total_generations(n)`, the paper's closed form.
    pub generations: u64,
    /// Table 1's worst δ from a reference run; `None` leaves it unchecked.
    pub max_congestion: Option<u64>,
}

impl Expected {
    pub fn for_graph(graph: &AdjacencyMatrix) -> Self {
        Expected {
            labels: union_find_components_dense(graph).into_vec(),
            generations: total_generations(graph.n()),
            max_congestion: None,
        }
    }
}

/// The fields of `gca-cc --json --labels` the gate checks.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    pub labels: Vec<usize>,
    pub generations: u64,
    pub max_congestion: u64,
    /// `gca-cc`'s own `wall_ms`: the time it spent in `execute`.
    pub execute_ms: f64,
}

impl Report {
    pub fn parse(stdout: &str) -> Result<Report, String> {
        let v: Value = serde_json::from_str(stdout).map_err(|e| format!("bad JSON report: {e}"))?;
        let field = |key: &str| v[key].as_u64().ok_or(format!("report lacks '{key}'"));
        let labels = v["labels"]
            .as_array()
            .ok_or("report lacks 'labels'")?
            .iter()
            .map(|l| l.as_u64().and_then(|l| usize::try_from(l).ok()))
            .collect::<Option<Vec<usize>>>()
            .ok_or("non-integer label")?;
        Ok(Report {
            labels,
            generations: field("steps")?,
            max_congestion: field("max_congestion")?,
            execute_ms: v["wall_ms"].as_f64().ok_or("report lacks 'wall_ms'")?,
        })
    }
}

/// The correctness gate: labels equal union-find's, the generation count
/// equals the closed form, and the worst δ equals the reference run's.
pub fn check(report: &Report, want: &Expected) -> Result<(), String> {
    if report.labels != want.labels {
        return Err("labels differ from union-find".into());
    }
    if report.generations != want.generations {
        return Err(format!(
            "{} generations, expected {}",
            report.generations, want.generations
        ));
    }
    match want.max_congestion {
        Some(m) if m != report.max_congestion => Err(format!(
            "max congestion {}, reference run says {m}",
            report.max_congestion
        )),
        _ => Ok(()),
    }
}

pub fn gca_cc(bin: &Path, args: &[String]) -> Command {
    let mut cmd = Command::new(bin);
    cmd.args(args).stdin(Stdio::null()).stderr(Stdio::piped());
    cmd
}

/// One process from spawn to exit, in milliseconds, and its parsed report.
fn invoke(cmd: &mut Command) -> (f64, Result<Report, String>) {
    let start = Instant::now();
    let out = cmd.output();
    let ms = elapsed_ms(start);
    let report = match out {
        Err(e) => Err(format!("spawning gca-cc: {e}")),
        Ok(o) if !o.status.success() => Err(format!(
            "gca-cc exited with {}: {}",
            o.status,
            String::from_utf8_lossy(&o.stderr).trim()
        )),
        Ok(o) => Report::parse(&String::from_utf8_lossy(&o.stdout)),
    };
    (ms, report)
}

/// Runs and checks one operation; yields the report only if it passed.
pub fn checked(cmd: &mut Command, want: &Expected) -> (f64, Result<Report, String>) {
    let (ms, report) = invoke(cmd);
    (ms, report.and_then(|r| check(&r, want).map(|()| r)))
}

/// `key` (in kB) from `/proc/<pid>/status`, e.g. `VmHWM` or `VmRSS`.
pub fn proc_status_kb(pid: &str, key: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Peak RSS of one untimed run, in MB. The child's `VmHWM` is read in a
/// tight loop rather than on a timer: `VmHWM` only grows, so the last read
/// before exit is the peak, and a 2 ms `cli-small-64` process would fall
/// between two ticks of any coarser timer.
pub fn peak_rss_mb(cmd: &mut Command, stdout: &Path, want: &Expected) -> Result<f64, String> {
    let file = std::fs::File::create(stdout).map_err(|e| format!("{}: {e}", stdout.display()))?;
    let mut child = cmd
        .stdout(file)
        .spawn()
        .map_err(|e| format!("spawning gca-cc: {e}"))?;
    let pid = child.id().to_string();
    let mut peak_kb = 0;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) => peak_kb = peak_kb.max(proc_status_kb(&pid, "VmHWM").unwrap_or(0)),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("waiting for gca-cc: {e}"));
            }
        }
        std::thread::yield_now();
    };
    if !status.success() {
        return Err(format!("gca-cc exited with {status}"));
    }
    let text = std::fs::read_to_string(stdout).map_err(|e| format!("{}: {e}", stdout.display()))?;
    check(&Report::parse(&text)?, want)?;
    if peak_kb == 0 {
        return Err("no VmHWM sample before gca-cc exited".into());
    }
    Ok(peak_kb as f64 / 1024.0)
}

/// How long the untimed peak-RSS runs may take, at least one run.
const RSS_BUDGET: Duration = Duration::from_secs(1);
const RSS_MAX_RUNS: usize = 5;

/// One `cli-*` workload run with tracing off.
pub fn run(w: &Workload, ctx: &Ctx, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    let graphs = w.graphs(ctx.seed);
    let files = ctx.dir.write(&graphs)?;
    let args: Vec<Vec<String>> = files.iter().map(|f| w.cli_args(f, ctx.workers)).collect();

    // Untimed references, once per input: the reference run is the
    // generic exec path, whose Table 1 accounting the fused paths must
    // reproduce exactly.
    let mut expected: Vec<Expected> = graphs.iter().map(Expected::for_graph).collect();
    for (want, file) in expected.iter_mut().zip(&files) {
        let args = [
            file.display().to_string(),
            "--exec".into(),
            "generic".into(),
            "--json".into(),
            "--labels".into(),
        ];
        let (_, report) = checked(&mut gca_cc(&ctx.gca_cc, &args), want);
        want.max_congestion = tally.record(report).map(|r| r.max_congestion);
    }

    // The peak-RSS runs come first and double as the warm-up.
    let rss_out = ctx.dir.path().join("rss-stdout.json");
    let rss_mb = sample(1, RSS_MAX_RUNS, RSS_BUDGET, tally, |i| {
        let k = i % files.len();
        peak_rss_mb(&mut gca_cc(&ctx.gca_cc, &args[k]), &rss_out, &expected[k])
    });

    let mut generations = Vec::new();
    let mut congestion = Vec::new();
    let mut setup = replay::SetupProbe::new(w, &files);
    let wall_ms = sample(w.min_ops, usize::MAX, ctx.seconds, tally, |i| {
        let k = i % files.len();
        let (ms, report) = checked(&mut gca_cc(&ctx.gca_cc, &args[k]), &expected[k]);
        setup.catch_up();
        let report = report?;
        generations.push(report.generations as f64);
        congestion.push(report.max_congestion as f64);
        Ok(ms)
    });
    let (setup_s, setup_tally) = setup.finish();
    *tally += setup_tally;
    Ok(end_to_end(
        &wall_ms,
        1.0,
        setup_s,
        rss_mb,
        generations,
        congestion,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gca_graphs::generators;

    fn report_json(labels: &[usize], steps: u64) -> String {
        serde_json::json!({
            "machine": "gca",
            "steps": steps,
            "max_congestion": 17,
            "wall_ms": 0.5,
            "labels": labels,
        })
        .to_string()
    }

    #[test]
    fn a_corrupted_labeling_is_counted_as_a_failure() {
        let g = generators::random_forest(16, 3, 5);
        let mut want = Expected::for_graph(&g);
        want.max_congestion = Some(17);
        let good = Report::parse(&report_json(&want.labels, want.generations)).expect("parses");
        assert_eq!(check(&good, &want), Ok(()));

        let mut corrupted = want.labels.clone();
        corrupted[15] = (corrupted[15] + 1) % 16;
        let bad = Report::parse(&report_json(&corrupted, want.generations)).expect("parses");
        let mut tally = Tally::default();
        assert!(tally.record(check(&bad, &want)).is_none());
        assert!(tally.record(check(&good, &want)).is_some());
        assert_eq!(
            tally,
            Tally {
                attempted: 2,
                failed: 1
            }
        );

        // Wrong generation count or worst δ fail the gate too.
        let short =
            Report::parse(&report_json(&want.labels, want.generations - 1)).expect("parses");
        assert!(check(&short, &want).is_err());
        want.max_congestion = Some(18);
        assert!(check(&good, &want).is_err());
        assert!(Report::parse("not json").is_err());
    }

    #[test]
    fn proc_status_reads_own_memory() {
        assert!(proc_status_kb("self", "VmHWM").is_some_and(|kb| kb > 0));
        assert!(proc_status_kb("self", "NoSuchKey").is_none());
    }
}
