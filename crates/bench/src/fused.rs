//! Fused-kernel measurements: the data behind the `fused_kernels` bench and
//! the `BENCH_fused_kernels.json` export.
//!
//! The fused path ([`ExecPath::Fused`]) replaces the engine's per-cell
//! rule dispatch over the `n(n+1)` field with one vector sweep per outer
//! iteration over O(n) state and the packed adjacency plane. Its contract
//! is *bit-identical* labelings, `Counts` metrics and iteration-boundary
//! fields versus the generic path — every timing helper here asserts that
//! equivalence on the workload before publishing a number. The comparison
//! baseline is the generic path, which evaluates only each generation's
//! hinted domain. Single generations
//! are no longer compared: [`Machine::step`] is observation and ticks the
//! engine on every path.

use crate::NsPerStep;
use gca_engine::{Engine, GcaError, Instrumentation};
use gca_graphs::connectivity::union_find_components_dense;
use gca_graphs::generators;
use gca_hirschberg::{BatchRunner, ExecPath, HirschbergGca, Machine};
use std::time::Instant;

/// Seed shared by all fused-kernel workloads.
pub const SEED: u64 = 2007;

/// Problem sizes the export tracks.
pub const SIZES: [usize; 4] = [16, 64, 256, 1024];

/// The engine every timing helper here runs under.
fn engine(instrumentation: Instrumentation) -> Engine {
    Engine::sequential().with_instrumentation(instrumentation)
}

/// An initialized machine on the standard workload under the given path.
pub fn machine(
    n: usize,
    exec: ExecPath,
    instrumentation: Instrumentation,
) -> Result<Machine, GcaError> {
    let graph = generators::gnp(n, 0.3, SEED);
    let mut m = Machine::with_engine(&graph, engine(instrumentation))?.with_exec(exec);
    m.init()?;
    Ok(m)
}

/// One outer iteration timed under the generic (hinted) and fused paths.
#[derive(Clone, Debug)]
pub struct FusedIterTiming {
    /// Problem size.
    pub n: usize,
    /// Per-iteration statistics on the generic hinted path.
    pub generic_ns_per_iter: NsPerStep,
    /// Per-iteration statistics on the fused path.
    pub fused_ns_per_iter: NsPerStep,
    /// Whether the first iteration left bit-identical fields and `Counts`
    /// logs on the two paths.
    pub metrics_identical: bool,
}

impl FusedIterTiming {
    /// Generic median time over fused median time.
    pub fn speedup(&self) -> f64 {
        self.generic_ns_per_iter.median / self.fused_ns_per_iter.median
    }
}

/// Times `reps` outer iterations of `m`.
pub(crate) fn time_iterations(m: &mut Machine, reps: u32) -> Result<NsPerStep, GcaError> {
    // The measurement closure is infallible by signature, so any error
    // inside it is captured and surfaced afterwards.
    let mut failed = None;
    let ns = NsPerStep::measure(
        || {
            if let Err(e) = m.run_iteration() {
                failed = Some(e);
            }
        },
        reps,
    );
    match failed {
        Some(e) => Err(e),
        None => Ok(ns),
    }
}

/// Times `reps` outer iterations under both paths on the same workload,
/// asserting identical fields and metrics after the first.
pub fn time_iteration(n: usize, reps: u32) -> Result<FusedIterTiming, GcaError> {
    let mut generic = machine(n, ExecPath::Generic, Instrumentation::Counts)?;
    let mut fused = machine(n, ExecPath::Fused, Instrumentation::Counts)?;
    generic.run_iteration()?;
    fused.run_iteration()?;
    let metrics_identical = generic.metrics().entries() == fused.metrics().entries()
        && generic.to_field().states() == fused.to_field().states();
    let generic_ns = time_iterations(&mut generic, reps)?;
    let fused_ns = time_iterations(&mut fused, reps)?;
    Ok(FusedIterTiming {
        n,
        generic_ns_per_iter: generic_ns,
        fused_ns_per_iter: fused_ns,
        metrics_identical,
    })
}

/// Full connected-components runs, generic hinted vs. fused, under one
/// instrumentation level.
#[derive(Clone, Debug)]
pub struct FusedRunTiming {
    /// Problem size.
    pub n: usize,
    /// Instrumentation the two runs executed under (`"off"` / `"counts"`).
    pub instrumentation: &'static str,
    /// Milliseconds for the generic (hinted) run.
    pub generic_ms: f64,
    /// Milliseconds for the fused run.
    pub fused_ms: f64,
    /// Whether both runs matched the union-find ground truth.
    pub labels_match_union_find: bool,
    /// Whether the metrics logs were bit-identical (trivially `true` under
    /// `Instrumentation::Off`, where both are empty).
    pub metrics_identical: bool,
}

impl FusedRunTiming {
    /// Generic time over fused time.
    pub fn speedup(&self) -> f64 {
        self.generic_ms / self.fused_ms
    }
}

/// One full run of `graph` under `exec`, with its wall time in
/// milliseconds.
pub(crate) fn timed_run(
    graph: &gca_graphs::AdjacencyMatrix,
    exec: ExecPath,
    instrumentation: Instrumentation,
) -> Result<(f64, gca_hirschberg::GcaRun), GcaError> {
    let runner = HirschbergGca::new()
        .with_engine(engine(instrumentation))
        .exec(exec);
    let start = Instant::now();
    let run = runner.run(graph)?;
    let ms = start.elapsed().as_secs_f64() * 1e3;
    Ok((ms, run))
}

/// Times full runs on the standard workload at size `n` under
/// `instrumentation`.
pub fn time_full_runs(
    n: usize,
    instrumentation: Instrumentation,
) -> Result<FusedRunTiming, GcaError> {
    let graph = generators::gnp(n, 0.3, SEED);
    let expected = union_find_components_dense(&graph);
    let (generic_ms, generic) = timed_run(&graph, ExecPath::Generic, instrumentation)?;
    let (fused_ms, fused) = timed_run(&graph, ExecPath::Fused, instrumentation)?;
    let labels_match_union_find = [&generic.labels, &fused.labels]
        .iter()
        .all(|l| l.as_slice() == expected.as_slice());
    Ok(FusedRunTiming {
        n,
        instrumentation: match instrumentation {
            Instrumentation::Off => "off",
            Instrumentation::Counts => "counts",
            Instrumentation::Trace => "trace",
            Instrumentation::Validate => "validate",
        },
        generic_ms,
        fused_ms,
        labels_match_union_find,
        metrics_identical: generic.metrics.entries() == fused.metrics.entries(),
    })
}

/// One batched-runner measurement.
#[derive(Clone, Debug)]
pub struct ThroughputTiming {
    /// Problem size of every graph in the batch.
    pub n: usize,
    /// Batch size.
    pub batch: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Aggregate throughput.
    pub graphs_per_sec: f64,
    /// Whether every labeling matched the union-find ground truth.
    pub labels_match_union_find: bool,
}

/// Runs a batch of `batch` size-`n` graphs on `workers` workers (0 = auto)
/// and reports aggregate graphs/sec, verifying every labeling.
pub fn batch_throughput(
    n: usize,
    batch: usize,
    workers: usize,
) -> Result<ThroughputTiming, GcaError> {
    let graphs: Vec<_> = (0..batch)
        .map(|i| generators::gnp(n, 0.3, SEED + i as u64))
        .collect();
    let runner = BatchRunner::new().workers(workers);
    let report = runner.run(&graphs)?;
    let labels_match_union_find = graphs.iter().zip(&report.labels).all(|(g, labels)| {
        let expected = union_find_components_dense(g);
        labels.len() == expected.n()
            && labels
                .iter()
                .zip(expected.as_slice())
                .all(|(&l, &e)| l as usize == e)
    });
    Ok(ThroughputTiming {
        n,
        batch,
        workers: report.stats.workers,
        graphs_per_sec: report.stats.graphs_per_sec(),
        labels_match_union_find,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iteration_timings_report_identical_metrics() {
        let t = time_iteration(16, 2).unwrap();
        assert!(t.metrics_identical);
        assert!(t.generic_ns_per_iter.median > 0.0 && t.fused_ns_per_iter.median > 0.0);
        assert!(t.fused_ns_per_iter.min <= t.fused_ns_per_iter.max);
    }

    #[test]
    fn full_runs_agree_under_both_instrumentations() {
        for instr in [Instrumentation::Off, Instrumentation::Counts] {
            let t = time_full_runs(16, instr).unwrap();
            assert!(t.labels_match_union_find);
            assert!(t.metrics_identical);
        }
    }

    #[test]
    fn batch_throughput_verifies_labels() {
        let t = batch_throughput(16, 8, 2).unwrap();
        assert!(t.labels_match_union_find);
        assert_eq!(t.batch, 8);
        assert!(t.workers >= 1 && t.workers <= 2);
        assert!(t.graphs_per_sec > 0.0);
    }
}
