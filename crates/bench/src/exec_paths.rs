//! One timing harness for the two execution paths — `generic` and
//! `fused` — and the one row schema of `BENCH_exec_paths.json`.
//!
//! Every row is `(layer, n, exec, workers, instrumentation) → ns {min,
//! median, max}` plus an `agrees` flag, on the standard workload
//! `gnp(n, 0.3, seed 2007)`:
//!
//! * `iteration` — the first outer iteration under `Counts`; agrees when
//!   it leaves the generic machine's field and `Counts` log. Each timed
//!   call is `reset_with` + `init` + `run_iteration`, because a later
//!   iteration may be a replay of a settled one rather than a computed
//!   one; the O(n²/64) matrix copy and the O(n) generation 0 are in the
//!   time;
//! * `run` — a full [`HirschbergGca::run`] under `Counts` and `Off`; agrees
//!   when the labels equal union-find and the metrics log equals the
//!   generic run's;
//! * `batch` — [`BatchRunner::run`] over [`BATCH`] graphs, ns per graph,
//!   under `Off` on the fused path at 1 worker and at every CPU, as far
//!   as the batch's work lets the runner use them (one row when it uses
//!   one); agrees when every labeling equals union-find.
//!
//! The check runs before the row is timed, so a fast wrong path is
//! reported, never hidden behind its number.

use crate::NsPerStep;
use gca_engine::{Engine, GcaError, Instrumentation};
use gca_graphs::connectivity::union_find_components_dense;
use gca_graphs::{generators, AdjacencyMatrix};
use gca_hirschberg::{BatchRunner, ExecPath, GcaRun, HirschbergGca, Machine};
use serde_json::{json, Value};
use std::time::{Duration, Instant};

/// Seed of the standard workload.
pub const SEED: u64 = 2007;

/// Default problem sizes. n = 256 is the largest at which eight full
/// generic runs, the reference and the timed calls, take about a second.
pub const SIZES: [usize; 4] = [16, 64, 128, 256];

/// The timed execution paths.
pub const PATHS: [ExecPath; 2] = [ExecPath::Generic, ExecPath::Fused];

/// Graphs per batch of the `batch` layer.
pub const BATCH: usize = 16;

/// Default cap on a row's timed calls.
pub const MAX_REPS: u32 = 64;

/// Wall time a row's timed calls aim for: a row whose first call is slow
/// (a full generic run) is timed with fewer calls, down to
/// [`NsPerStep::GROUPS`] plus one warm-up.
const BUDGET_NS: f64 = 1e8;

/// What a row times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// One outer iteration.
    Iteration,
    /// A full connected-components run.
    Run,
    /// A batched run, per graph.
    Batch,
}

/// One measured configuration.
#[derive(Clone, Debug)]
pub struct Row {
    /// What was timed.
    pub layer: Layer,
    /// Problem size.
    pub n: usize,
    /// Execution path.
    pub exec: ExecPath,
    /// Worker threads: the batch's workers, or 1.
    pub workers: usize,
    /// Instrumentation level of the timed calls.
    pub instrumentation: Instrumentation,
    /// Nanoseconds per call (per graph for `batch`).
    pub ns: NsPerStep,
    /// Whether the path agreed with its reference (see the module docs).
    pub agrees: bool,
}

impl Row {
    /// The row in the artifact's schema.
    pub fn json(&self) -> Value {
        json!({
            "layer": format!("{:?}", self.layer).to_lowercase(),
            "n": self.n,
            "exec": match self.exec {
                ExecPath::Generic => "generic",
                ExecPath::Fused | ExecPath::FusedParallel(_) => "fused",
            },
            "workers": self.workers,
            "instrumentation": format!("{:?}", self.instrumentation).to_lowercase(),
            "ns": self.ns.json(),
            "agrees": self.agrees,
        })
    }
}

/// Every row at size `n`: iterations and runs on each of [`PATHS`], then
/// the batch at 1 worker and at every CPU. A row takes at most `max_reps`
/// timed calls.
pub fn rows(n: usize, max_reps: u32) -> Result<Vec<Row>, GcaError> {
    let graph = generators::gnp(n, 0.3, SEED);
    let mut rows = Vec::new();
    let mut reference = machine(&graph, ExecPath::Generic)?;
    reference.run_iteration()?;
    for exec in PATHS {
        rows.push(iteration_row(
            &reference,
            &graph,
            machine(&graph, exec)?,
            exec,
            max_reps,
        )?);
    }
    for instrumentation in [Instrumentation::Counts, Instrumentation::Off] {
        let reference = runner(ExecPath::Generic, instrumentation).run(&graph)?;
        for exec in PATHS {
            rows.push(run_row(
                &graph,
                &reference,
                exec,
                instrumentation,
                max_reps,
            )?);
        }
    }
    let batch: Vec<_> = (0..BATCH as u64)
        .map(|i| generators::gnp(n, 0.3, SEED + i))
        .collect();
    let mut batch_workers: Vec<usize> = [1, crate::workers()]
        .iter()
        .map(|&w| BatchRunner::new().workers(w).effective_workers(&batch))
        .collect();
    batch_workers.dedup();
    for workers in batch_workers {
        rows.push(batch_row(&batch, workers, max_reps)?);
    }
    Ok(rows)
}

/// The artifact: workload and provenance stamp, then the rows.
pub fn document(rows: &[Row]) -> Value {
    json!({
        "workload": format!(
            "gnp(n, 0.3, seed {SEED}); batch rows: {BATCH} graphs gnp(n, 0.3, seed {SEED} + i)"
        ),
        "stamp": crate::stamp(),
        "rows": rows.iter().map(Row::json).collect::<Vec<_>>(),
    })
}

fn machine(graph: &AdjacencyMatrix, exec: ExecPath) -> Result<Machine, GcaError> {
    let engine = Engine::sequential().with_instrumentation(Instrumentation::Counts);
    let mut m = Machine::with_engine(graph, engine)?.with_exec(exec);
    m.init()?;
    Ok(m)
}

fn runner(exec: ExecPath, instrumentation: Instrumentation) -> HirschbergGca {
    HirschbergGca::new()
        .with_engine(Engine::sequential().with_instrumentation(instrumentation))
        .exec(exec)
}

/// Times `step` with as many calls as fit [`BUDGET_NS`] when one call
/// took `probe`, at most `max_reps`, surfacing the first error.
fn time(
    probe: Duration,
    mut step: impl FnMut() -> Result<(), GcaError>,
    max_reps: u32,
) -> Result<NsPerStep, GcaError> {
    let reps = (BUDGET_NS / probe.as_nanos().max(1) as f64) as u32;
    let mut failed = None;
    let ns = NsPerStep::measure(
        || {
            if let Err(e) = step() {
                failed.get_or_insert(e);
            }
        },
        reps.clamp(1, max_reps.max(1)),
    );
    failed.map_or(Ok(ns), Err)
}

/// Times first outer iterations of `candidate` on `graph`, each after a
/// reset and generation 0, after checking one against `reference`, a
/// generic machine one iteration in.
fn iteration_row(
    reference: &Machine,
    graph: &AdjacencyMatrix,
    mut candidate: Machine,
    exec: ExecPath,
    max_reps: u32,
) -> Result<Row, GcaError> {
    let start = Instant::now();
    candidate.run_iteration()?;
    let probe = start.elapsed();
    let agrees = candidate.metrics().entries() == reference.metrics().entries()
        && candidate.to_field().states() == reference.to_field().states();
    let first = || {
        candidate.reset_with(graph)?;
        candidate.init()?;
        candidate.run_iteration().map(drop)
    };
    let ns = time(probe, first, max_reps)?;
    Ok(Row {
        layer: Layer::Iteration,
        n: candidate.n(),
        exec,
        workers: 1,
        instrumentation: Instrumentation::Counts,
        ns,
        agrees,
    })
}

fn run_row(
    graph: &AdjacencyMatrix,
    reference: &GcaRun,
    exec: ExecPath,
    instrumentation: Instrumentation,
    max_reps: u32,
) -> Result<Row, GcaError> {
    let runner = runner(exec, instrumentation);
    let start = Instant::now();
    let run = runner.run(graph)?;
    let probe = start.elapsed();
    let agrees = run.labels == union_find_components_dense(graph)
        && run.metrics.entries() == reference.metrics.entries();
    let ns = time(probe, || runner.run(graph).map(drop), max_reps)?;
    Ok(Row {
        layer: Layer::Run,
        n: graph.n(),
        exec,
        workers: 1,
        instrumentation,
        ns,
        agrees,
    })
}

fn batch_row(graphs: &[AdjacencyMatrix], workers: usize, max_reps: u32) -> Result<Row, GcaError> {
    let runner = BatchRunner::new().workers(workers);
    let mut out = Vec::new();
    let start = Instant::now();
    let stats = runner.run_into(graphs, &mut out)?;
    let probe = start.elapsed();
    let agrees = graphs.iter().zip(&out).all(|(g, labels)| {
        let expected = union_find_components_dense(g);
        labels
            .iter()
            .map(|&l| l as usize)
            .eq(expected.as_slice().iter().copied())
    });
    let ns = time(
        probe,
        || runner.run_into(graphs, &mut out).map(drop),
        max_reps,
    )?;
    let per_graph = |t: f64| t / BATCH as f64;
    Ok(Row {
        layer: Layer::Batch,
        n: graphs[0].n(),
        exec: ExecPath::Fused,
        workers: stats.workers,
        instrumentation: Instrumentation::Off,
        ns: NsPerStep {
            min: per_graph(ns.min),
            median: per_graph(ns.median),
            max: per_graph(ns.max),
        },
        agrees,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gca_hirschberg::SweepFault;

    #[test]
    fn every_path_agrees() {
        let all = rows(16, 1).unwrap();
        // 2 paths × (iteration + 2 runs), then 1 or 2 batch rows.
        assert!(all.len() == 7 || all.len() == 8, "{}", all.len());
        for row in &all {
            let j = row.json();
            assert!(row.agrees, "{j}");
            assert!(row.ns.min > 0.0 && row.ns.min <= row.ns.median, "{j}");
            assert!(row.ns.median <= row.ns.max, "{j}");
        }
        // The row schema, timing aside.
        let mut j = all[1].json();
        j["ns"] = Value::Null;
        let expected = json!({"layer": "iteration", "n": 16, "exec": "fused", "workers": 1,
                              "instrumentation": "counts", "ns": null, "agrees": true});
        assert_eq!(j, expected);
        assert_eq!(all.last().unwrap().json()["layer"], "batch");
        let doc = document(&all);
        assert_eq!(doc["rows"].as_array().unwrap().len(), all.len());
        assert!(doc["stamp"]["cpus"].as_u64().unwrap() >= 1);
        assert!(doc["workload"].as_str().unwrap().contains("seed 2007"));
    }

    #[test]
    fn a_planted_sweep_fault_is_reported_as_disagreement() {
        let graph = generators::gnp(16, 0.3, SEED);
        let mut reference = machine(&graph, ExecPath::Generic).unwrap();
        reference.run_iteration().unwrap();
        let clean = machine(&graph, ExecPath::Fused).unwrap();
        assert!(
            iteration_row(&reference, &graph, clean, ExecPath::Fused, 1)
                .unwrap()
                .agrees
        );
        let mut faulty = machine(&graph, ExecPath::Fused).unwrap();
        faulty.seed_sweep_fault(SweepFault::FlipT(0));
        let row = iteration_row(&reference, &graph, faulty, ExecPath::Fused, 1).unwrap();
        assert!(!row.agrees);
        assert_eq!(row.json()["agrees"], false);
    }
}
