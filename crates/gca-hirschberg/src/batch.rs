//! Batched multi-graph execution: run many independent component-labeling
//! problems concurrently, one worker thread per contiguous slice of the
//! batch, with per-worker [`Machine`] state reused across graphs.
//!
//! This is the throughput-oriented counterpart to [`crate::HirschbergGca`]
//! (which optimizes the latency of one run and its instrumentation): the
//! serving scenario is *B* same-sized graphs per batch, and the quantity of
//! interest is aggregate **graphs per second**. Parallelism therefore goes
//! *across* graphs (each worker drives a sequential engine) instead of
//! across the cells of one field, and steady-state processing performs no
//! per-graph allocation — workers reload their machine in place via
//! [`Machine::reset_with`] and extract labels via [`Machine::labels_into`].

use crate::complexity::ceil_log2;
use crate::{Convergence, ExecPath, Machine};
use gca_engine::faults::FaultPlan;
use gca_engine::{Engine, GcaError, Instrumentation, Word};
use gca_graphs::AdjacencyMatrix;
use rayon::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// The work, in square cells of one graph's field, that each worker beyond
/// the first needs before it pays for its start. A graph's fixed cost
/// counts as [`GRAPH_CELLS`] more. On a 2-vCPU container a batch of 16
/// `gnp(n, 0.3)` graphs ran faster on one worker up to n = 128 (about
/// 0.3 ms a batch) and on two from n = 256 (about 1 ms), and 1024 graphs
/// at n = 16 ran faster on two.
const WORKER_CELLS: usize = 1 << 18;

/// A graph's fixed cost (reset, generation 0, the O(n log n) chases) in
/// square cells: about 2 µs, the time of a 16-node graph.
const GRAPH_CELLS: usize = 1 << 11;

/// Configuration for running a batch of independent graphs.
///
/// Defaults favor throughput: [`ExecPath::Fused`] kernels,
/// [`Instrumentation::Off`] (no congestion accounting), the paper's fixed
/// sub-generation schedule, and one worker per hardware thread.
///
/// ```
/// use gca_graphs::generators;
/// use gca_hirschberg::BatchRunner;
///
/// let graphs: Vec<_> = (0..8).map(|s| generators::gnp(16, 0.2, s)).collect();
/// let report = BatchRunner::new().run(&graphs).unwrap();
/// assert_eq!(report.labels.len(), 8);
/// ```
#[derive(Clone, Debug)]
pub struct BatchRunner {
    exec: ExecPath,
    convergence: Convergence,
    instrumentation: Instrumentation,
    workers: usize,
    /// Test-only failure injection for the contained API: a fault plan
    /// armed on the machine processing the graph at this batch index.
    inject: Option<(usize, FaultPlan)>,
    /// Test-only failure injection for the contained API: panic while
    /// processing the graph at this batch index.
    panic_at: Option<usize>,
}

impl Default for BatchRunner {
    fn default() -> Self {
        BatchRunner::new()
    }
}

impl BatchRunner {
    /// Throughput defaults: the fused sweep, instrumentation off, fixed
    /// schedule, auto worker count.
    pub fn new() -> Self {
        BatchRunner {
            exec: ExecPath::Fused,
            convergence: Convergence::Fixed,
            instrumentation: Instrumentation::Off,
            workers: 0,
            inject: None,
            panic_at: None,
        }
    }

    /// Sets the execution path each worker uses.
    #[must_use]
    pub fn exec(mut self, exec: ExecPath) -> Self {
        self.exec = exec;
        self
    }

    /// Sets the sub-generation convergence policy.
    #[must_use]
    pub fn convergence(mut self, convergence: Convergence) -> Self {
        self.convergence = convergence;
        self
    }

    /// Sets the per-worker instrumentation level. Batch runs discard the
    /// metrics logs; anything above [`Instrumentation::Off`] only costs.
    #[must_use]
    pub fn instrumentation(mut self, instrumentation: Instrumentation) -> Self {
        self.instrumentation = instrumentation;
        self
    }

    /// Sets the number of worker threads; `0` (the default) means one per
    /// hardware thread. The batch is split into at most this many
    /// contiguous chunks, one machine per chunk, and into fewer when the
    /// batch's work does not pay for them (see
    /// [`BatchRunner::effective_workers`]).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// The worker count `graphs` would actually use: the configured count,
    /// at most one per graph and at most one per 256 Ki cells of the
    /// batch's work (a graph counts n² cells and 2 Ki more for its fixed
    /// cost), and at least one.
    pub fn effective_workers(&self, graphs: &[AdjacencyMatrix]) -> usize {
        let configured = if self.workers == 0 {
            rayon::current_num_threads()
        } else {
            self.workers
        };
        let work = graphs.iter().fold(0usize, |sum, g| {
            sum.saturating_add(g.n().saturating_mul(g.n()).saturating_add(GRAPH_CELLS))
        });
        configured.min(graphs.len()).min(work / WORKER_CELLS).max(1)
    }

    /// Labels every graph, allocating fresh output vectors.
    pub fn run(&self, graphs: &[AdjacencyMatrix]) -> Result<BatchReport, GcaError> {
        let mut labels = Vec::new();
        let stats = self.run_into(graphs, &mut labels)?;
        Ok(BatchReport { labels, stats })
    }

    /// Labels every graph into `out`, reusing its allocations (outer vector
    /// and per-graph label vectors) — the steady-state API for callers that
    /// process batches repeatedly. `out` is resized to `graphs.len()`.
    ///
    /// On error the first failure (by graph order within the earliest
    /// failing worker) is returned; `out` then holds a mixture of new and
    /// stale labels and should be discarded.
    pub fn run_into(
        &self,
        graphs: &[AdjacencyMatrix],
        out: &mut Vec<Vec<Word>>,
    ) -> Result<BatchStats, GcaError> {
        let started = Instant::now();
        if graphs.is_empty() {
            out.clear();
            return Ok(BatchStats {
                graphs: 0,
                workers: 0,
                elapsed: started.elapsed(),
            });
        }
        let chunk = graphs.len().div_ceil(self.effective_workers(graphs));
        let workers = graphs.len().div_ceil(chunk);
        out.resize_with(graphs.len(), Vec::new);
        let mut failures: Vec<Option<GcaError>> = vec![None; workers];
        graphs
            .par_chunks(chunk)
            .zip(out.par_chunks_mut(chunk))
            .zip(failures.par_iter_mut())
            .for_each(|((graphs, outs), failure)| {
                let mut machine: Option<Machine> = None;
                for (graph, out) in graphs.iter().zip(outs.iter_mut()) {
                    if let Err(e) = self.run_one_armed(&mut machine, graph, out, None) {
                        *failure = Some(e);
                        return;
                    }
                }
            });
        if let Some(e) = failures.into_iter().flatten().next() {
            return Err(e);
        }
        Ok(BatchStats {
            graphs: graphs.len(),
            workers,
            elapsed: started.elapsed(),
        })
    }

    /// Test-only hook for the failure-injection suite: arms `plan` on the
    /// worker machine while it processes the graph at batch `index` of a
    /// [`BatchRunner::run_contained`] call (disarmed again afterwards, so
    /// machine reuse across the chunk stays clean). Detection requires
    /// [`Instrumentation::Validate`], like any other injected fault.
    #[doc(hidden)]
    pub fn seed_graph_fault(&mut self, index: usize, plan: FaultPlan) {
        self.inject = Some((index, plan));
    }

    /// Test-only hook for the failure-injection suite: panics while
    /// processing the graph at batch `index` of a
    /// [`BatchRunner::run_contained`] call — the stand-in for a worker
    /// dying mid-graph (corrupted scratch, arithmetic bug, …).
    #[doc(hidden)]
    pub fn seed_graph_panic(&mut self, index: usize) {
        self.panic_at = Some(index);
    }

    /// Labels every graph with **per-graph fault containment**: a worker
    /// whose graph fails — a detector error *or* a panic — records a typed
    /// [`GraphFault`] for that graph only, discards its (potentially
    /// poisoned) machine, and continues with the next graph in its chunk.
    /// The rest of the batch always completes; unlike [`BatchRunner::run`],
    /// one bad graph can no longer take its siblings' results down with it.
    pub fn run_contained(&self, graphs: &[AdjacencyMatrix]) -> ContainedReport {
        let started = Instant::now();
        if graphs.is_empty() {
            return ContainedReport {
                results: Vec::new(),
                stats: BatchStats {
                    graphs: 0,
                    workers: 0,
                    elapsed: started.elapsed(),
                },
            };
        }
        let chunk = graphs.len().div_ceil(self.effective_workers(graphs));
        let workers = graphs.len().div_ceil(chunk);
        let mut results: Vec<Result<Vec<Word>, GraphFault>> =
            (0..graphs.len()).map(|_| Ok(Vec::new())).collect();
        graphs
            .par_chunks(chunk)
            .zip(results.par_chunks_mut(chunk))
            .enumerate()
            .for_each(|(chunk_idx, (graphs, outs))| {
                let mut machine: Option<Machine> = None;
                for (offset, (graph, slot)) in graphs.iter().zip(outs.iter_mut()).enumerate() {
                    let index = chunk_idx * chunk + offset;
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        if self.panic_at == Some(index) {
                            panic!("seeded batch panic at graph {index}");
                        }
                        let armed = self
                            .inject
                            .as_ref()
                            .filter(|(at, _)| *at == index)
                            .map(|(_, p)| p.clone());
                        let mut out = Vec::new();
                        self.run_one_armed(&mut machine, graph, &mut out, armed)
                            .map(|()| out)
                    }));
                    match outcome {
                        Ok(Ok(labels)) => *slot = Ok(labels),
                        Ok(Err(e)) => {
                            *slot = Err(GraphFault::Error(e));
                            // A detector fired mid-run: the machine's field
                            // holds a partially executed (possibly corrupt)
                            // state. Rebuild for the next graph.
                            machine = None;
                        }
                        Err(payload) => {
                            *slot = Err(GraphFault::Panic(panic_message(payload.as_ref())));
                            machine = None;
                        }
                    }
                    if let Some(m) = machine.as_mut() {
                        m.set_fault_plan(None);
                    }
                }
            });
        ContainedReport {
            stats: BatchStats {
                graphs: graphs.len(),
                workers,
                elapsed: started.elapsed(),
            },
            results,
        }
    }

    /// Runs one graph on the worker's machine, rebuilding it only when the
    /// problem size changes, with an optional fault plan to arm before the
    /// run (covers the fresh-build path, where the plan cannot be armed
    /// from outside). The fused path writes the field back once per graph.
    fn run_one_armed(
        &self,
        machine: &mut Option<Machine>,
        graph: &AdjacencyMatrix,
        out: &mut Vec<Word>,
        plan: Option<FaultPlan>,
    ) -> Result<(), GcaError> {
        let m = match machine {
            Some(m) if m.n() == graph.n() => {
                m.reset_with(graph)?;
                m
            }
            _ => machine.insert(self.build_machine(graph)?),
        };
        if let Some(plan) = plan {
            m.set_fault_plan(Some(plan));
        }
        m.init()?;
        m.run_iterations(u64::from(ceil_log2(graph.n())))?;
        m.labels_into(out);
        Ok(())
    }

    fn build_machine(&self, graph: &AdjacencyMatrix) -> Result<Machine, GcaError> {
        let engine = Engine::sequential().with_instrumentation(self.instrumentation);
        Ok(Machine::with_engine(graph, engine)?
            .with_convergence(self.convergence)
            .with_exec(self.exec))
    }
}

/// Why one graph of a contained batch run produced no labels. The other
/// graphs of the batch are unaffected — that is the containment contract
/// of [`BatchRunner::run_contained`].
#[derive(Clone, Debug)]
pub enum GraphFault {
    /// A detector (CROW sanitizer, differential replay, invariant
    /// checker) or a structural check rejected the run.
    Error(GcaError),
    /// The worker panicked mid-graph; carries the panic message. The
    /// worker's machine was discarded (its scratch may be poisoned) and
    /// rebuilt for the next graph.
    Panic(String),
}

impl GraphFault {
    /// The detector that caught the failure — [`GcaError::detector`] for
    /// typed errors, `"panic"` for caught panics.
    pub fn detector(&self) -> &'static str {
        match self {
            GraphFault::Error(e) => e.detector(),
            GraphFault::Panic(_) => "panic",
        }
    }
}

impl std::fmt::Display for GraphFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphFault::Error(e) => write!(f, "{e}"),
            GraphFault::Panic(msg) => write!(f, "worker panicked: {msg}"),
        }
    }
}

/// Extracts a human-readable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Per-graph results plus timing of one contained batch run.
#[derive(Clone, Debug)]
pub struct ContainedReport {
    /// One entry per input graph, in input order: raw labels, or the
    /// typed fault that stopped that graph.
    pub results: Vec<Result<Vec<Word>, GraphFault>>,
    /// Batch timing.
    pub stats: BatchStats,
}

impl ContainedReport {
    /// Number of graphs that failed.
    pub fn failed(&self) -> usize {
        self.results.iter().filter(|r| r.is_err()).count()
    }
}

/// Timing of one batch run.
#[derive(Clone, Copy, Debug)]
pub struct BatchStats {
    /// Graphs processed.
    pub graphs: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock duration of the batch.
    pub elapsed: Duration,
}

impl BatchStats {
    /// Aggregate throughput in graphs per second (`0.0` for an empty or
    /// instantaneous batch).
    pub fn graphs_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.graphs as f64 / secs
        } else {
            0.0
        }
    }
}

/// Labels plus timing of one batch run.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// Per-graph raw label vectors, in input order.
    pub labels: Vec<Vec<Word>>,
    /// Batch timing.
    pub stats: BatchStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use gca_graphs::connectivity::union_find_components_dense;
    use gca_graphs::generators;

    fn expected_raw(graph: &AdjacencyMatrix) -> Vec<Word> {
        union_find_components_dense(graph)
            .as_slice()
            .iter()
            .map(|&l| l as Word)
            .collect()
    }

    fn mixed_batch() -> Vec<AdjacencyMatrix> {
        (0..12)
            .map(|s| match s % 4 {
                0 => generators::gnp(17, 0.15, s as u64),
                1 => generators::random_forest(17, 3, s as u64),
                2 => generators::ring(17),
                _ => generators::star(17),
            })
            .collect()
    }

    /// [`mixed_batch`] and twelve 512-node forests: work enough for eight
    /// workers, and 24 graphs split evenly into 2, 4 or 8.
    fn parallel_batch() -> Vec<AdjacencyMatrix> {
        let mut graphs = mixed_batch();
        graphs.extend((0..12).map(|s| generators::random_forest(512, 4, s)));
        graphs
    }

    #[test]
    fn batch_matches_union_find() {
        let graphs = mixed_batch();
        let report = BatchRunner::new().run(&graphs).unwrap();
        assert_eq!(report.labels.len(), graphs.len());
        assert_eq!(report.stats.graphs, graphs.len());
        for (graph, labels) in graphs.iter().zip(&report.labels) {
            assert_eq!(labels, &expected_raw(graph));
        }
    }

    #[test]
    fn exec_paths_agree() {
        let graphs = mixed_batch();
        let fused = BatchRunner::new().run(&graphs).unwrap();
        for (graph, labels) in graphs.iter().zip(&fused.labels) {
            assert_eq!(labels, &expected_raw(graph));
        }
        let generic = BatchRunner::new().exec(ExecPath::Generic).run(&graphs).unwrap();
        assert_eq!(generic.labels, fused.labels);
    }

    #[test]
    fn worker_counts_agree() {
        let graphs = parallel_batch();
        let reference = BatchRunner::new().workers(1).run(&graphs).unwrap();
        for workers in [2, 4, 8] {
            let report = BatchRunner::new().workers(workers).run(&graphs).unwrap();
            assert_eq!(report.stats.workers, workers);
            assert_eq!(report.labels, reference.labels, "workers = {workers}");
        }
    }

    #[test]
    fn run_into_reuses_outer_allocation() {
        let graphs = mixed_batch();
        let runner = BatchRunner::new();
        let mut out = Vec::new();
        runner.run_into(&graphs, &mut out).unwrap();
        let ptrs: Vec<*const Word> = out.iter().map(|v| v.as_ptr()).collect();
        runner.run_into(&graphs, &mut out).unwrap();
        // Same sizes both times: every per-graph vector must be reused.
        assert_eq!(ptrs, out.iter().map(|v| v.as_ptr()).collect::<Vec<_>>());
        for (graph, labels) in graphs.iter().zip(&out) {
            assert_eq!(labels, &expected_raw(graph));
        }
    }

    #[test]
    fn mixed_sizes_rebuild_machines() {
        let graphs: Vec<AdjacencyMatrix> = vec![
            generators::path(9),
            generators::gnp(13, 0.3, 1),
            generators::ring(9),
            generators::complete(4),
        ];
        let report = BatchRunner::new().workers(1).run(&graphs).unwrap();
        for (graph, labels) in graphs.iter().zip(&report.labels) {
            assert_eq!(labels, &expected_raw(graph));
        }
    }

    #[test]
    fn empty_batch() {
        let report = BatchRunner::new().run(&[]).unwrap();
        assert!(report.labels.is_empty());
        assert_eq!(report.stats.graphs, 0);
        assert_eq!(report.stats.graphs_per_sec(), 0.0);
    }

    #[test]
    fn effective_workers_clamps() {
        let runner = BatchRunner::new().workers(64);
        let large: Vec<_> = (0..3).map(|_| generators::empty(1024)).collect();
        assert_eq!(runner.effective_workers(&large), 3);
        assert_eq!(runner.effective_workers(&[]), 1);
        assert_eq!(BatchRunner::new().workers(2).effective_workers(&large), 2);
        assert!(BatchRunner::new().effective_workers(&large) >= 1);
    }

    #[test]
    fn tiny_batches_run_on_one_worker() {
        // 16 graphs of 16 nodes are a few microseconds of work each: a
        // second worker costs more to start than it saves.
        let graphs: Vec<_> = (0..16).map(|s| generators::gnp(16, 0.3, s)).collect();
        let runner = BatchRunner::new().workers(8);
        assert_eq!(runner.effective_workers(&graphs), 1);
        let report = runner.run(&graphs).unwrap();
        assert_eq!(report.stats.workers, 1);
        assert_eq!(runner.run_contained(&graphs).stats.workers, 1);
        for (graph, labels) in graphs.iter().zip(&report.labels) {
            assert_eq!(labels, &expected_raw(graph));
        }
        // 1024 of them are enough work for two.
        let many: Vec<_> = (0..1024).map(|_| generators::empty(16)).collect();
        assert_eq!(BatchRunner::new().workers(2).effective_workers(&many), 2);
    }

    #[test]
    fn replay_record_does_not_cross_graphs_on_a_reused_machine() {
        // The settled `C` of an empty graph is the identity, which is also
        // the first `C` of the path after it: one machine reused across
        // the three must compute the path, not replay the empty graph.
        let n = 16;
        let graphs = [
            generators::empty(n),
            generators::path(n),
            generators::empty(n),
        ];
        for instrumentation in [Instrumentation::Off, Instrumentation::Counts] {
            for convergence in [Convergence::Fixed, Convergence::Detect] {
                let report = BatchRunner::new()
                    .workers(1)
                    .instrumentation(instrumentation)
                    .convergence(convergence)
                    .run(&graphs)
                    .unwrap();
                assert_eq!(report.stats.workers, 1);
                for (graph, labels) in graphs.iter().zip(&report.labels) {
                    assert_eq!(
                        labels,
                        &expected_raw(graph),
                        "{instrumentation:?} {convergence:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn contained_run_matches_plain_run_when_clean() {
        let graphs = mixed_batch();
        let plain = BatchRunner::new().run(&graphs).unwrap();
        let contained = BatchRunner::new().run_contained(&graphs);
        assert_eq!(contained.failed(), 0);
        for (labels, result) in plain.labels.iter().zip(&contained.results) {
            assert_eq!(result.as_ref().unwrap(), labels);
        }
    }

    #[test]
    fn injected_fault_fails_only_its_graph() {
        use gca_engine::faults::FaultKind;
        let graphs = mixed_batch();
        let faulted = 5;
        let mut runner = BatchRunner::new()
            .workers(3)
            .instrumentation(Instrumentation::Validate);
        runner.seed_graph_fault(faulted, FaultPlan::new(FaultKind::BitFlip { bit: 0 }, 3, 9));
        let report = runner.run_contained(&graphs);
        assert_eq!(report.failed(), 1);
        for (i, (graph, result)) in graphs.iter().zip(&report.results).enumerate() {
            if i == faulted {
                let fault = result.as_ref().unwrap_err();
                // A fault plan routes its fused machine to the engine, whose
                // generations the invariant checker judges.
                assert!(
                    matches!(fault, GraphFault::Error(GcaError::InvariantViolation { .. })),
                    "graph {i}: {fault}"
                );
                assert_eq!(fault.detector(), "invariant-checker");
            } else {
                assert_eq!(
                    result.as_ref().unwrap(),
                    &expected_raw(graph),
                    "sibling graph {i} must complete correctly"
                );
            }
        }
    }

    #[test]
    fn panicking_worker_fails_only_its_graph() {
        let graphs = parallel_batch();
        let dead = 2;
        let mut runner = BatchRunner::new().workers(2);
        runner.seed_graph_panic(dead);
        let report = runner.run_contained(&graphs);
        assert_eq!(report.stats.workers, 2);
        assert_eq!(report.failed(), 1);
        for (i, (graph, result)) in graphs.iter().zip(&report.results).enumerate() {
            if i == dead {
                let fault = result.as_ref().unwrap_err();
                assert!(matches!(fault, GraphFault::Panic(_)), "graph {i}: {fault}");
                assert_eq!(fault.detector(), "panic");
                assert!(fault.to_string().contains("seeded batch panic"));
            } else {
                // In particular the graphs *after* the panic in the same
                // chunk: the worker rebuilt its machine and carried on.
                assert_eq!(result.as_ref().unwrap(), &expected_raw(graph), "graph {i}");
            }
        }
    }

    #[test]
    fn contained_empty_batch() {
        let report = BatchRunner::new().run_contained(&[]);
        assert!(report.results.is_empty());
        assert_eq!(report.failed(), 0);
    }

    #[test]
    fn detect_convergence_composes() {
        let graphs = mixed_batch();
        let report = BatchRunner::new()
            .convergence(Convergence::Detect)
            .run(&graphs)
            .unwrap();
        for (graph, labels) in graphs.iter().zip(&report.labels) {
            assert_eq!(labels, &expected_raw(graph));
        }
    }
}
