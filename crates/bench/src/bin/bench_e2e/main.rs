//! `bench_e2e` — the end-to-end benchmark of `gca-cc`, defined in the
//! repository's `BENCHMARK.json`.
//!
//! ```text
//! bench_e2e [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]
//! bench_e2e compare A.json B.json
//! ```
//!
//! Without `--trace` each workload is a closed loop with one client, timed
//! from outside: the real `gca-cc` binary (found next to this executable)
//! once per operation, or `BatchRunner::run` in a fresh child process.
//! With `--trace` the same inputs are replayed in-process through the
//! library calls `gca-cc` makes, one span per call, and the per-layer
//! metrics are printed instead. Every output is checked; a failure is
//! counted, never timed, and never aborts the run. The last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. See the README next to this file.

mod batch;
mod cli;
mod compare;
mod replay;
mod spans;
mod stats;
mod workloads;

use serde_json::{json, Value};
use spans::Recorder;
use std::ffi::OsStr;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workloads::{Via, WorkDir, Workload};

/// The benchmark's definition: metric names, units, directions, bounds.
pub const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

/// Parsed `BENCHMARK.json`.
pub fn spec() -> Value {
    serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON")
}

/// One reported number and the samples it summarizes.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: Vec<f64>,
}

impl Metric {
    pub fn median(name: impl Into<String>, unit: &'static str, samples: Vec<f64>) -> Self {
        Metric {
            name: name.into(),
            unit,
            value: stats::median(&samples),
            samples,
        }
    }

    pub fn single(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Metric::median(name, unit, vec![value])
    }
}

/// Operations attempted and failed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl std::ops::AddAssign for Tally {
    fn add_assign(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

impl Tally {
    /// Counts one operation; a failure is reported on stderr (the first
    /// few only) and yields `None`.
    pub fn record<T>(&mut self, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                if self.failed <= 5 {
                    eprintln!("bench_e2e: operation failed: {e}");
                }
                None
            }
        }
    }
}

/// Runs `op(i)` for i = 0, 1, … at least `min` and at most `max` times,
/// stopping once `budget` has elapsed; returns the values of the
/// operations that succeeded.
pub fn sample(
    min: usize,
    max: usize,
    budget: Duration,
    tally: &mut Tally,
    mut op: impl FnMut(usize) -> Result<f64, String>,
) -> Vec<f64> {
    let start = Instant::now();
    let mut out = Vec::new();
    for i in 0..max {
        if i >= min && start.elapsed() >= budget {
            break;
        }
        out.extend(tally.record(op(i)));
    }
    out
}

/// Runs this executable again with `args` and parses the JSON object its
/// child mode prints on the last line.
pub fn run_child(args: &[&OsStr]) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating bench_e2e: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("spawning a child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "child {args:?} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    serde_json::from_str(stdout.lines().last().unwrap_or(""))
        .map_err(|e| format!("child {args:?} report: {e}"))
}

pub fn elapsed_ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// The percentile of operation latency and of set-up time that the
/// end-to-end timings report. Each vCPU of a shared host runs at full
/// speed or up to 1.75× slower by turns of seconds, so a run's median
/// depends on how long it was slow; the fastest twentieth is what the
/// program itself costs.
pub const FAST_PCT: usize = 5;

/// The end-to-end metrics of one workload, from the latencies of its
/// timed operations (`graphs_per_op` graphs each) and its untimed probes.
pub fn end_to_end(
    op_ms: &[f64],
    graphs_per_op: f64,
    setup_s: Vec<f64>,
    rss_mb: Vec<f64>,
    generations: Vec<f64>,
    max_congestion: Vec<f64>,
) -> Vec<Metric> {
    let wall_ms = stats::percentile(op_ms, FAST_PCT);
    vec![
        Metric {
            name: "wall_ms_p5".into(),
            unit: "ms",
            value: wall_ms,
            samples: op_ms.to_vec(),
        },
        Metric {
            name: "graphs_per_s".into(),
            unit: "1/s",
            value: graphs_per_op * 1e3 / wall_ms,
            samples: op_ms.iter().map(|ms| graphs_per_op * 1e3 / ms).collect(),
        },
        Metric {
            name: "setup_s".into(),
            unit: "s",
            value: stats::percentile(&setup_s, FAST_PCT),
            samples: setup_s,
        },
        Metric::median("peak_rss_mb", "MB", rss_mb),
        Metric::median("generations", "count", generations),
        Metric::median("max_congestion", "count", max_congestion),
    ]
}

/// Everything one workload run needs besides the workload itself.
pub struct Ctx {
    pub gca_cc: PathBuf,
    pub seed: u64,
    pub seconds: Duration,
    pub workers: usize,
    pub dir: WorkDir,
}

struct Outcome {
    workload: &'static str,
    tally: Tally,
    metrics: Vec<Metric>,
}

impl Outcome {
    /// The result line the benchmark contract asks for.
    fn line(&self) -> Value {
        let mut metrics = json!({});
        for m in &self.metrics {
            metrics.insert(&m.name, json!({"value": m.value, "unit": m.unit}));
        }
        json!({
            "correct": self.tally.failed == 0,
            "attempted": self.tally.attempted,
            "failed": self.tally.failed,
            "metrics": metrics,
        })
    }

    /// The same with every sample, as `--out` and `compare` use it.
    fn detailed(&self) -> Value {
        let mut doc = self.line();
        for m in &self.metrics {
            doc["metrics"][m.name.as_str()].insert("samples", json!(m.samples));
        }
        doc
    }

    fn print(&self, seed: u64, trace: bool) {
        println!(
            "{} (seed {seed}, {}): {} attempted, {} failed",
            self.workload,
            if trace {
                "traced replay"
            } else {
                "tracing off"
            },
            self.tally.attempted,
            self.tally.failed
        );
        for m in &self.metrics {
            // For timings, the median and the highest percentile with ten
            // samples beyond it.
            let spread = match stats::tail(&m.samples) {
                _ if !matches!(m.unit, "ms" | "s") || m.samples.len() < 2 => String::new(),
                Some((pct, tail)) => {
                    format!(
                        "  median {:.6}  p{pct} {tail:.6}",
                        stats::median(&m.samples)
                    )
                }
                None => format!(
                    "  median {:.6}  max {:.6}",
                    stats::median(&m.samples),
                    stats::percentile(&m.samples, 100)
                ),
            };
            println!(
                "  {:<36} {:>16.6} {:<6} n={}{spread}",
                m.name,
                m.value,
                m.unit,
                m.samples.len()
            );
        }
    }
}

struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
    /// Internal: run as a child process, `batch` (the library workload's
    /// loop over the inputs in `dir`) or `setup` (one set-up of `input`).
    child: Option<String>,
    dir: Option<PathBuf>,
    input: Option<PathBuf>,
}

const USAGE: &str =
    "usage: bench_e2e [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]
       bench_e2e compare A.json B.json";

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut opts = Opts {
            workload: None,
            seed: 1,
            seconds: spec()["run_seconds"].as_u64().unwrap_or(10),
            trace: false,
            out: None,
            child: None,
            dir: None,
            input: None,
        };
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            let mut value = || {
                it.next()
                    .ok_or_else(|| format!("{arg} needs a value\n{USAGE}"))
            };
            match arg.as_str() {
                "--workload" => opts.workload = Some(value()?.clone()),
                "--seed" => opts.seed = value()?.parse().map_err(|_| "bad --seed".to_string())?,
                "--seconds" => {
                    opts.seconds = value()?.parse().map_err(|_| "bad --seconds".to_string())?
                }
                "--out" => opts.out = Some(PathBuf::from(value()?)),
                "--child" => opts.child = Some(value()?.clone()),
                "--dir" => opts.dir = Some(PathBuf::from(value()?)),
                "--input" => opts.input = Some(PathBuf::from(value()?)),
                // Runners of `BENCHMARK.json`'s command pass `--trace 0|1`;
                // by hand a bare `--trace` is enough.
                "--trace" => match it.peek().map(|s| s.as_str()) {
                    Some(v @ ("0" | "1")) => {
                        opts.trace = v == "1";
                        it.next();
                    }
                    _ => opts.trace = true,
                },
                other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
            }
        }
        if let Some(name) = &opts.workload {
            workloads::find(name)?;
        }
        Ok(opts)
    }
}

fn run_workload(w: &Workload, ctx: &Ctx, trace: bool, rec: &mut Recorder) -> Outcome {
    let mut tally = Tally::default();
    let result = if trace {
        replay::trace_workload(w, ctx, rec, &mut tally)
    } else {
        match w.via {
            Via::Cli => cli::run(w, ctx, &mut tally),
            Via::Lib => batch::run(w, ctx, &mut tally),
        }
    };
    let metrics = result.unwrap_or_else(|e| {
        tally.record::<()>(Err(e));
        Vec::new()
    });
    Outcome {
        workload: w.name,
        tally,
        metrics,
    }
}

fn run(args: &[String]) -> Result<(), String> {
    if args.first().map(String::as_str) == Some("compare") {
        return compare::run(&args[1..]);
    }
    let opts = Opts::parse(args)?;
    let seconds = Duration::from_secs(opts.seconds);
    if let Some(mode) = &opts.child {
        let w = workloads::find(opts.workload.as_deref().ok_or("--child needs --workload")?)?;
        let report = match mode.as_str() {
            "batch" => batch::child(
                w,
                opts.dir.as_deref().ok_or("--child batch needs --dir")?,
                seconds,
            )?,
            "setup" => replay::setup_child(
                w,
                opts.input.as_deref().ok_or("--child setup needs --input")?,
            )?,
            other => return Err(format!("unknown child mode '{other}'")),
        };
        println!("{report}");
        return Ok(());
    }

    let exe = std::env::current_exe().map_err(|e| format!("locating bench_e2e: {e}"))?;
    let exe_dir = exe.parent().ok_or("bench_e2e has no parent directory")?;
    let gca_cc = exe_dir.join("gca-cc");
    if !gca_cc.is_file() {
        return Err(format!(
            "{} not found: build gca-cc into the same target directory first",
            gca_cc.display()
        ));
    }
    let selected: Vec<&Workload> = match &opts.workload {
        Some(name) => vec![workloads::find(name)?],
        None => workloads::ALL.iter().collect(),
    };

    let mut outcomes = Vec::new();
    let mut span_lines = String::new();
    for w in selected {
        let ctx = Ctx {
            gca_cc: gca_cc.clone(),
            seed: opts.seed,
            seconds,
            workers: workloads::bench_workers(),
            dir: WorkDir::new(exe_dir, w.name)?,
        };
        let mut rec = Recorder::new(opts.trace);
        let outcome = run_workload(w, &ctx, opts.trace, &mut rec);
        span_lines.push_str(&spans::to_jsonl(w.name, &rec));
        outcome.print(opts.seed, opts.trace);
        outcomes.push(outcome);
    }

    if opts.trace {
        let path = match &opts.out {
            Some(out) => PathBuf::from(format!("{}.spans.jsonl", out.display())),
            None => exe_dir.join("bench_e2e.spans.jsonl"),
        };
        write(&path, &span_lines)?;
        eprintln!("bench_e2e: spans written to {}", path.display());
    }
    if let Some(out) = &opts.out {
        let mut per_workload = json!({});
        for o in &outcomes {
            per_workload.insert(o.workload, o.detailed());
        }
        let doc = json!({
            "bench": "bench_e2e",
            "seed": opts.seed,
            "seconds": opts.seconds,
            "trace": opts.trace,
            "bench_workers": workloads::bench_workers(),
            "stamp": gca_bench::stamp(),
            "workloads": per_workload,
        });
        write(
            out,
            &serde_json::to_string_pretty(&doc).expect("serializable"),
        )?;
    }

    let mut tally = Tally::default();
    for o in &outcomes {
        tally += o.tally;
    }
    let last = match outcomes.as_slice() {
        [only] => only.line(),
        _ => json!({
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": json!({}),
        }),
    };
    println!("{last}");
    Ok(())
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn declared(section: &str) -> BTreeSet<String> {
        spec()[section]
            .as_array()
            .expect("section is a list")
            .iter()
            .map(|m| m["name"].as_str().expect("named").to_string())
            .collect()
    }

    fn names(metrics: &[Metric]) -> BTreeSet<String> {
        for m in metrics {
            assert!(
                !m.name.is_empty()
                    && m.name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "bad metric name {:?}",
                m.name
            );
        }
        let set: BTreeSet<String> = metrics.iter().map(|m| m.name.clone()).collect();
        assert_eq!(set.len(), metrics.len(), "metric names must be unique");
        set
    }

    /// One traced replay at n = 16 (it is the slowest test here), checked
    /// for names, units and values.
    #[test]
    fn emitted_metrics_match_benchmark_json_and_trace_smoke_n16() {
        let op_ms: Vec<f64> = (1..=40).map(f64::from).collect();
        let setup_s = op_ms.iter().rev().map(|ms| ms / 1e3).collect();
        let e2e = end_to_end(&op_ms, 4.0, setup_s, vec![1.0], vec![1.0], vec![1.0]);
        assert_eq!(names(&e2e), declared("end_to_end"));
        // The fastest twentieth: the 2nd of 40, 2 ms for 4 graphs.
        assert_eq!(e2e[0].value, 2.0);
        assert_eq!(e2e[1].value, 2000.0);
        assert_eq!(e2e[2].value, 0.002);
        let traced = replay::tests::smoke_trace(16);
        assert_eq!(names(&traced), declared("per_layer"));
        replay::tests::check_smoke_n16(&traced);
        for section in ["end_to_end", "per_layer"] {
            for m in spec()[section].as_array().expect("list") {
                let name = m["name"].as_str().expect("named");
                let emitted = e2e.iter().chain(&traced).find(|e| e.name == name);
                assert_eq!(emitted.map(|e| e.unit), m["unit"].as_str(), "{name}");
            }
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let o = Outcome {
            workload: "w",
            tally: Tally {
                attempted: 3,
                failed: 1,
            },
            metrics: vec![Metric::single("wall_ms_p5", "ms", 2.5)],
        };
        let line: Value = serde_json::from_str(&o.line().to_string()).expect("valid JSON");
        assert_eq!(line["correct"], false);
        assert_eq!(line["attempted"], 3);
        assert_eq!(line["failed"], 1);
        assert_eq!(
            line["metrics"]["wall_ms_p5"],
            json!({"value": 2.5, "unit": "ms"})
        );
        assert_eq!(
            o.detailed()["metrics"]["wall_ms_p5"]["samples"],
            json!([2.5])
        );
    }

    #[test]
    fn trace_flag_takes_an_optional_value() {
        let parse = |a: &[&str]| Opts::parse(&a.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        assert!(parse(&["--trace"]).expect("ok").trace);
        assert!(parse(&["--trace", "1"]).expect("ok").trace);
        assert!(!parse(&["--trace", "0", "--seed", "3"]).expect("ok").trace);
        assert!(parse(&["--trace", "--seed", "3"]).expect("ok").trace);
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seconds"]).is_err());
    }

    #[test]
    fn failures_are_counted_not_sampled() {
        let mut tally = Tally::default();
        let got = sample(4, 4, Duration::ZERO, &mut tally, |i| {
            if i == 2 {
                Err("boom".into())
            } else {
                Ok(i as f64)
            }
        });
        assert_eq!(got, vec![0.0, 1.0, 3.0]);
        assert_eq!(
            tally,
            Tally {
                attempted: 4,
                failed: 1
            }
        );
    }
}
