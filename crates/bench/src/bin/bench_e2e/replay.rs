//! The traced replay: the pipeline `gca-cc` runs, replayed in-process
//! through the same public library calls, one span per call, plus the
//! single-step, parallel, batch and process probes the per-layer metrics
//! need. Also the set-up probe behind `setup_s`.

use crate::batch::{same_labels, union_find};
use crate::cli::{self, Expected};
use crate::spans::{self_time_ms, Recorder};
use crate::workloads::{bench_workers, Via, Workload};
use crate::{elapsed_ms, sample, stats, Ctx, Metric, Tally};
use gca_engine::metrics::MetricsLog;
use gca_engine::{Engine, Instrumentation};
use gca_graphs::connectivity::union_find_components_dense;
use gca_graphs::{io, verify, AdjacencyMatrix};
use gca_hirschberg::complexity::ceil_log2;
use gca_hirschberg::{
    iteration_schedule, BatchRunner, Convergence, ExecPath, FusedParallel, Gen, HirschbergGca,
    Machine,
};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// How a machine is configured: what `gca-cc` or `BatchRunner` would use.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    pub exec: ExecPath,
    pub instrumentation: Instrumentation,
}

impl Config {
    fn engine(&self) -> Engine {
        Engine::sequential().with_instrumentation(self.instrumentation)
    }
}

/// The eleven iterated generations, by the names the metrics use.
const GENERATIONS: [(Gen, &str); 11] = [
    (Gen::BroadcastC, "broadcast_c"),
    (Gen::FilterNeighbors, "filter_neighbors"),
    (Gen::MinReduce, "min_reduce"),
    (Gen::ResolveIsolated, "resolve_isolated"),
    (Gen::BroadcastT, "broadcast_t"),
    (Gen::FilterMembers, "filter_members"),
    (Gen::MinReduceMembers, "min_reduce_members"),
    (Gen::ResolveMembers, "resolve_members"),
    (Gen::CopyAndSaveT, "copy_and_save_t"),
    (Gen::PointerJump, "pointer_jump"),
    (Gen::FinalMin, "final_min"),
];

fn gen_name(gen: Gen) -> &'static str {
    GENERATIONS
        .iter()
        .find(|(g, _)| *g == gen)
        .map_or("init", |(_, name)| name)
}

/// Set-up up to the point where the machine is ready for generation 1:
/// read the file, parse it, build the layout and field, set the exec path
/// and run generation 0.
pub fn setup(
    rec: &mut Recorder,
    req: u64,
    path: &Path,
    cfg: &Config,
) -> Result<(AdjacencyMatrix, Machine), String> {
    let text = rec
        .time("io.read", req, || std::fs::read_to_string(path))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let graph = rec
        .time("io.parse", req, || io::from_edge_list(&text))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let machine = rec
        .time("layout.build", req, || {
            Machine::with_engine(&graph, cfg.engine())
        })
        .map_err(|e| e.to_string())?;
    let machine = rec
        .time("machine.init", req, || {
            let mut m = machine.with_exec(cfg.exec);
            m.init().map(|_| m)
        })
        .map_err(|e| e.to_string())?;
    Ok((graph, machine))
}

/// Share of a timed loop's wall time that goes to set-up probes.
const SETUP_SHARE: f64 = 0.1;
const SETUP_MIN: u64 = 5;

/// `setup_s` samples, in seconds, taken across a timed loop. Each set-up
/// runs in a fresh child process, as `gca-cc` pays it, with first-touch
/// page faults and no allocator state carried over from an earlier
/// set-up. Called after every timed operation, [`SetupProbe::catch_up`]
/// runs set-ups until they have taken [`SETUP_SHARE`] of the time since the
/// loop began, so that they meet the same stretch of the host's load as
/// the operations do, fast turns included, not one second of it.
pub struct SetupProbe<'a> {
    w: &'a Workload,
    files: &'a [PathBuf],
    start: Instant,
    spent: Duration,
    tally: Tally,
    seconds: Vec<f64>,
}

impl<'a> SetupProbe<'a> {
    /// Starts the clock: create it just before the timed loop.
    pub fn new(w: &'a Workload, files: &'a [PathBuf]) -> Self {
        SetupProbe {
            w,
            files,
            start: Instant::now(),
            spent: Duration::ZERO,
            tally: Tally::default(),
            seconds: Vec::new(),
        }
    }

    fn once(&mut self) {
        let start = Instant::now();
        let input = &self.files[self.tally.attempted as usize % self.files.len()];
        let report = crate::run_child(&[
            "--child".as_ref(),
            "setup".as_ref(),
            "--workload".as_ref(),
            self.w.name.as_ref(),
            "--input".as_ref(),
            input.as_os_str(),
        ])
        .and_then(|v| {
            v["setup_s"]
                .as_f64()
                .ok_or("setup child report lacks 'setup_s'".into())
        });
        self.seconds.extend(self.tally.record(report));
        self.spent += start.elapsed();
    }

    pub fn catch_up(&mut self) {
        while self.spent.as_secs_f64() < SETUP_SHARE * self.start.elapsed().as_secs_f64() {
            self.once();
        }
    }

    /// At least [`SETUP_MIN`] set-ups: the samples and their tally.
    pub fn finish(mut self) -> (Vec<f64>, Tally) {
        while self.tally.attempted < SETUP_MIN {
            self.once();
        }
        (self.seconds, self.tally)
    }
}

/// The child side of the `setup_s` probe: one set-up of `input`.
pub fn setup_child(w: &Workload, input: &Path) -> Result<String, String> {
    let start = Instant::now();
    let _ready = setup(
        &mut Recorder::new(false),
        0,
        input,
        &w.config(bench_workers()),
    )?;
    Ok(serde_json::json!({"setup_s": start.elapsed().as_secs_f64()}).to_string())
}

fn ensure(labels: &[usize], want: &[usize], what: &str) -> Result<(), String> {
    if labels == want {
        Ok(())
    } else {
        Err(format!("{what}: labels differ from union-find"))
    }
}

fn rss_kb() -> f64 {
    cli::proc_status_kb("self", "VmRSS").unwrap_or(0) as f64
}

/// Cells the memory probe keeps alive at once.
const PROBE_CELLS: usize = 1 << 20;

/// Resident bytes per cell of machines that have run an iteration (so
/// that lazily allocated buffers exist). Small machines are kept alive by
/// the hundred, so that their memory outweighs what the allocator hands
/// back from earlier frees without growing the process.
fn bytes_per_cell(path: &Path, cfg: &Config) -> Result<f64, String> {
    let before = rss_kb();
    let mut live = Vec::new();
    let mut cells = 0;
    while cells < PROBE_CELLS {
        let (_, mut machine) = setup(&mut Recorder::new(false), 0, path, cfg)?;
        machine.run_iteration().map_err(|e| e.to_string())?;
        cells += machine.layout().cells();
        live.push(machine);
    }
    Ok((rss_kb() - before) * 1024.0 / cells as f64)
}

/// The `gca-cc` pipeline under one `pipeline` span.
fn pipeline(
    rec: &mut Recorder,
    req: u64,
    path: &Path,
    cfg: &Config,
    want: &[usize],
) -> Result<(), String> {
    let top = rec.open("pipeline", req);
    let result = (|| {
        let (graph, mut machine) = setup(rec, req, path, cfg)?;
        for _ in 0..ceil_log2(graph.n()) {
            rec.time("machine.iteration", req, || machine.run_iteration())
                .map_err(|e| e.to_string())?;
        }
        let labels = rec
            .time("machine.labels", req, || machine.labels())
            .map_err(|e| e.to_string())?;
        rec.time("verify", req, || {
            verify::verify_components(&graph.to_adjacency_list(), &labels)
        })
        .map_err(|e| e.to_string())?;
        ensure(labels.as_slice(), want, "pipeline")
    })();
    rec.close(top);
    result
}

/// Every iterated generation through the single-step `Machine::step`, one
/// span per call. Returns the machine's metrics log.
fn steps(
    rec: &mut Recorder,
    req: u64,
    path: &Path,
    cfg: &Config,
    want: &[usize],
) -> Result<MetricsLog, String> {
    let (graph, mut machine) = setup(&mut Recorder::new(false), req, path, cfg)?;
    let schedule = iteration_schedule(graph.n());
    for _ in 0..ceil_log2(graph.n()) {
        for &(gen, sub) in &schedule {
            rec.time(gen_name(gen), req, || machine.step(gen, sub))
                .map_err(|e| e.to_string())?;
        }
    }
    ensure(
        machine.labels().map_err(|e| e.to_string())?.as_slice(),
        want,
        "steps",
    )?;
    Ok(machine.metrics().clone())
}

/// Milliseconds of all iterations of one run on `exec`.
fn iterations_ms(path: &Path, cfg: &Config, want: &[usize]) -> Result<f64, String> {
    let (graph, mut machine) = setup(&mut Recorder::new(false), 0, path, cfg)?;
    let start = Instant::now();
    machine
        .run_iterations(u64::from(ceil_log2(graph.n())))
        .map_err(|e| e.to_string())?;
    let ms = elapsed_ms(start);
    ensure(
        machine.labels().map_err(|e| e.to_string())?.as_slice(),
        want,
        "iterations",
    )?;
    Ok(ms)
}

/// What `BatchRunner` does per graph, replayed with spans: reuse the
/// worker's machine via `reset_with` when the size matches, then init,
/// iterate and extract labels.
fn batch_replay(
    rec: &mut Recorder,
    graphs: &[AdjacencyMatrix],
    expected: &[Vec<usize>],
) -> Result<(Vec<f64>, Vec<f64>), String> {
    let req = rec.next_request();
    let mut machine: Option<Machine> = None;
    let mut out = Vec::new();
    for (graph, want) in graphs.iter().zip(expected) {
        let span = rec.open("batch.graph", req);
        let result = (|| {
            let m = match &mut machine {
                Some(m) if m.n() == graph.n() => {
                    rec.time("batch.reset", req, || m.reset_with(graph))
                        .map_err(|e| e.to_string())?;
                    m
                }
                slot => slot.insert(
                    Machine::with_engine(
                        graph,
                        Engine::sequential().with_instrumentation(Instrumentation::Off),
                    )
                    .map_err(|e| e.to_string())?
                    .with_convergence(Convergence::Fixed)
                    .with_exec(ExecPath::Fused),
                ),
            };
            m.init().map_err(|e| e.to_string())?;
            for _ in 0..ceil_log2(graph.n()) {
                m.run_iteration().map_err(|e| e.to_string())?;
            }
            m.labels_into(&mut out);
            Ok::<_, String>(())
        })();
        rec.close(span);
        result?;
        if !same_labels(&out, want) {
            return Err("batch replay: labels differ from union-find".into());
        }
    }
    let ms = |name| rec.named(req, name).map(|s| s.duration_ms()).collect();
    Ok((ms("batch.graph"), ms("batch.reset")))
}

/// Per-layer budget: each probe repeats until this much time has passed
/// (at least once) or it has run `REPS_MAX` times.
const BUDGET: Duration = Duration::from_secs(1);
const REPS_MAX: usize = 200;

/// Everything a traced replay runs on.
pub struct Inputs<'a> {
    pub files: &'a [PathBuf],
    pub graphs: &'a [AdjacencyMatrix],
    pub config: Config,
    pub via: Via,
    pub workers: usize,
    /// `gca-cc` and its arguments for the first input; `None` skips the
    /// process probe.
    pub gca_cc: Option<(&'a Path, Vec<String>)>,
}

/// One workload's traced run.
pub fn trace_workload(
    w: &Workload,
    ctx: &Ctx,
    rec: &mut Recorder,
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    let graphs = w.graphs(ctx.seed);
    let files = ctx.dir.write(&graphs)?;
    // `gca-cc` always counts, so on `lib-batch-128` the process probe
    // runs the CLI's counting path on the batch's exec path.
    let args = w.cli_args(&files[0], ctx.workers);
    Ok(trace(
        &Inputs {
            files: &files,
            graphs: &graphs,
            config: w.config(ctx.workers),
            via: w.via,
            workers: ctx.workers,
            gca_cc: Some((&ctx.gca_cc, args)),
        },
        rec,
        tally,
    ))
}

/// Runs every probe and returns the per-layer metrics, in the order
/// `BENCHMARK.json` declares them. The single-input probes use the first
/// input; the batch probes use all of them.
pub fn trace(inp: &Inputs, rec: &mut Recorder, tally: &mut Tally) -> Vec<Metric> {
    let path = &inp.files[0];
    let want = union_find_components_dense(&inp.graphs[0]).into_vec();
    let cfg = &inp.config;
    let was_enabled = rec.enabled();

    // First, while the allocator has little freed memory to hand back.
    let bytes = tally.record(bytes_per_cell(path, cfg)).unwrap_or(f64::NAN);

    // The pipeline, alternately traced and untraced: the difference in
    // wall time is the recorder's own overhead.
    let mut traced: Vec<(u64, f64)> = Vec::new();
    let mut untraced = Vec::new();
    sample(2, REPS_MAX, BUDGET, tally, |i| {
        rec.set_enabled(i % 2 == 0);
        let req = rec.next_request();
        let start = Instant::now();
        pipeline(rec, req, path, cfg, &want)?;
        let ms = elapsed_ms(start);
        if rec.enabled() {
            traced.push((req, ms));
        } else {
            untraced.push(ms);
        }
        Ok(ms)
    });
    rec.set_enabled(was_enabled);
    let traced_ms: Vec<f64> = traced.iter().map(|&(_, ms)| ms).collect();
    let (mut m, iter_total, covered) = {
        let per_rep =
            |f: &dyn Fn(u64) -> f64| traced.iter().map(|&(req, _)| f(req)).collect::<Vec<f64>>();
        let layer = |name: &str| per_rep(&|req| rec.total_ms(req, name));
        let iterations = |req| {
            rec.named(req, "machine.iteration")
                .map(|s| s.duration_ms())
                .collect::<Vec<f64>>()
        };
        let spans = rec.spans();
        let covered = per_rep(&|req| {
            spans
                .iter()
                .position(|s| s.request == req && s.name == "pipeline")
                .map_or(f64::NAN, |idx| {
                    spans[idx].duration_ms() - self_time_ms(spans, idx)
                })
        });
        let metrics = vec![
            Metric::median("io.read_ms", "ms", layer("io.read")),
            Metric::median("io.parse_ms", "ms", layer("io.parse")),
            Metric::median("layout.build_ms", "ms", layer("layout.build")),
            Metric::median("machine.init_ms", "ms", layer("machine.init")),
            Metric::single("machine.bytes_per_cell", "B", bytes),
            Metric::median(
                "machine.iter_first_ms",
                "ms",
                per_rep(&|req| iterations(req).first().copied().unwrap_or(f64::NAN)),
            ),
            Metric::median(
                "machine.iter_rest_ms",
                "ms",
                per_rep(&|req| stats::median(iterations(req).get(1..).unwrap_or(&[]))),
            ),
            Metric::median("machine.labels_ms", "ms", layer("machine.labels")),
            Metric::median("verify.ms", "ms", layer("verify")),
        ];
        (
            metrics,
            per_rep(&|req| iterations(req).iter().sum()),
            covered,
        )
    };

    // Single-step replay: per-generation time and Table 1 counts.
    let mut step_reqs = Vec::new();
    let mut log = MetricsLog::new();
    sample(1, REPS_MAX, BUDGET, tally, |_| {
        let req = rec.next_request();
        log = steps(rec, req, path, cfg, &want)?;
        step_reqs.push(req);
        Ok(0.0)
    });
    if cfg.instrumentation == Instrumentation::Off {
        // No accounting on this path: count on the same exec path instead.
        match HirschbergGca::new().exec(cfg.exec).run(&inp.graphs[0]) {
            Ok(run) => log = run.metrics,
            Err(e) => {
                tally.record::<()>(Err(format!("counting run: {e}")));
            }
        }
    }
    let step_total: Vec<f64> = step_reqs
        .iter()
        .map(|&req| {
            GENERATIONS
                .iter()
                .map(|(_, name)| rec.total_ms(req, name))
                .sum()
        })
        .collect();

    // Fused against row-partitioned fused, on the workload's accounting.
    let on = |exec| Config { exec, ..*cfg };
    let fused = sample(1, REPS_MAX, BUDGET, tally, |_| {
        iterations_ms(path, &on(ExecPath::Fused), &want)
    });
    let par_cfg = on(ExecPath::FusedParallel(FusedParallel::with_workers(
        inp.workers,
    )));
    let par = sample(1, REPS_MAX, BUDGET, tally, |_| {
        iterations_ms(path, &par_cfg, &want)
    });

    // The batch path on this workload's inputs, with at least two graphs
    // per worker.
    let batch: Vec<AdjacencyMatrix> = inp
        .graphs
        .iter()
        .cycle()
        .take(inp.graphs.len().max(2 * inp.workers))
        .cloned()
        .collect();
    let batch_want = union_find(&batch);
    let timed_batch = |workers: usize, tally: &mut Tally| {
        let runner = BatchRunner::new().workers(workers);
        sample(1, REPS_MAX, BUDGET, tally, |_| {
            crate::batch::batch_once(&runner, &batch, &batch_want)
        })
    };
    let one = timed_batch(1, tally);
    let all = timed_batch(inp.workers, tally);
    let (graph_ms, reset_ms) = tally
        .record(batch_replay(rec, &batch, &batch_want))
        .unwrap_or_default();

    // The real process on the first input.
    let mut execute = Vec::new();
    let mut residual = Vec::new();
    let process = match &inp.gca_cc {
        Some((bin, args)) => {
            let mut expect = Expected::for_graph(&inp.graphs[0]);
            expect.max_congestion = Some(u64::from(log.max_congestion()));
            sample(3, REPS_MAX, BUDGET, tally, |_| {
                let (ms, report) = cli::checked(&mut cli::gca_cc(bin, args), &expect);
                let report = report?;
                execute.push(report.execute_ms);
                residual.push(ms - report.execute_ms);
                Ok(ms)
            })
        }
        None => Vec::new(),
    };

    let ratio = |a: &[f64], b: &[f64]| stats::median(a) / stats::median(b);
    // The replayed layers against the operation they stand for: the
    // `gca-cc` process, or a one-worker batch for the library workload.
    let coverage = match inp.via {
        Via::Cli => ratio(&covered, &process),
        Via::Lib => graph_ms.iter().sum::<f64>() / stats::median(&one),
    };
    for (gen, name) in GENERATIONS {
        let entries = || log.phase_entries(gen.number());
        m.push(Metric::median(
            format!("table1.{name}.ms"),
            "ms",
            step_reqs
                .iter()
                .map(|&req| rec.total_ms(req, name))
                .collect(),
        ));
        m.push(Metric::single(
            format!("table1.{name}.reads"),
            "count",
            entries().map(|e| e.total_reads as f64).sum(),
        ));
        m.push(Metric::single(
            format!("table1.{name}.active"),
            "count",
            entries().map(|e| e.active_cells as f64).sum(),
        ));
        m.push(Metric::single(
            format!("table1.{name}.max_congestion"),
            "count",
            entries()
                .map(|e| f64::from(e.max_congestion))
                .fold(0.0, f64::max),
        ));
    }
    m.extend([
        Metric::single(
            "step.overhead_ms",
            "ms",
            stats::median(&step_total) - stats::median(&iter_total),
        ),
        Metric::single("par.speedup", "ratio", ratio(&fused, &par)),
        Metric::median("batch.graph_ms", "ms", graph_ms),
        Metric::median("batch.reset_ms", "ms", reset_ms),
        Metric::single(
            "batch.parallel_efficiency",
            "ratio",
            ratio(&one, &all) / inp.workers as f64,
        ),
        Metric::median("cli.process_ms", "ms", process.clone()),
        Metric::median("cli.execute_ms", "ms", execute),
        Metric::median("cli.residual_ms", "ms", residual),
        Metric::single("trace.coverage", "ratio", coverage),
        Metric::single(
            "trace.overhead_pct",
            "%",
            100.0 * (ratio(&traced_ms, &untraced) - 1.0),
        ),
    ]);
    m
}

#[cfg(test)]
pub mod tests {
    use super::*;
    use crate::workloads::WorkDir;
    use gca_graphs::generators;

    /// A traced replay at `n` nodes without `gca-cc`.
    pub fn smoke_trace(n: usize) -> Vec<Metric> {
        let graphs: Vec<_> = (0..3).map(|s| generators::gnp(n, 0.15, s)).collect();
        let dir = WorkDir::new(
            &std::env::temp_dir(),
            &format!("smoke-trace-{n}-{:?}", std::thread::current().id()),
        )
        .expect("temp dir");
        let files = dir.write(&graphs).expect("write inputs");
        let mut rec = Recorder::new(true);
        let mut tally = Tally::default();
        let metrics = trace(
            &Inputs {
                files: &files,
                graphs: &graphs,
                config: Config {
                    exec: ExecPath::Fused,
                    instrumentation: Instrumentation::Counts,
                },
                via: Via::Cli,
                workers: 2,
                gca_cc: None,
            },
            &mut rec,
            &mut tally,
        );
        assert_eq!(tally.failed, 0);
        assert!(tally.attempted >= 6);
        metrics
    }

    /// The values [`smoke_trace`]`(16)` must produce.
    pub fn check_smoke_n16(metrics: &[Metric]) {
        let get = |name: &str| metrics.iter().find(|m| m.name == name).expect(name).value;
        // Table 1 at n = 16: generation 1 broadcasts C into all n(n+1)
        // cells, and the worst δ over the run is n + 1.
        assert!(get("table1.broadcast_c.active") > 0.0);
        assert_eq!(get("table1.broadcast_c.max_congestion"), 17.0);
        assert!(get("table1.pointer_jump.reads") > 0.0);
        assert!(get("machine.iter_first_ms") > 0.0);
        assert!(get("batch.graph_ms") > 0.0);
        assert!(
            get("cli.process_ms").is_nan(),
            "no process probe without gca-cc"
        );
    }

    #[test]
    fn set_up_stops_where_generation_one_starts() {
        let dir = WorkDir::new(&std::env::temp_dir(), "setup-probe").expect("temp dir");
        let files = dir.write(&[generators::path(16)]).expect("write");
        let cfg = Config {
            exec: ExecPath::Fused,
            instrumentation: Instrumentation::Off,
        };
        let mut rec = Recorder::new(true);
        let (graph, machine) = setup(&mut rec, 9, &files[0], &cfg).expect("setup");
        assert_eq!(graph.n(), 16);
        assert_eq!(machine.generations(), 1);
        let names: Vec<&str> = rec.spans().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            ["io.read", "io.parse", "layout.build", "machine.init"]
        );
        let report: serde_json::Value = serde_json::from_str(
            &setup_child(&crate::workloads::ALL[0], &files[0]).expect("set-up"),
        )
        .expect("JSON");
        assert!(report["setup_s"].as_f64().is_some_and(|s| s > 0.0));
    }
}
