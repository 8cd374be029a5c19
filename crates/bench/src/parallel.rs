//! Parallel-fused measurements: the data behind the `parallel_fused` bench
//! and the `BENCH_parallel_fused.json` export.
//!
//! [`ExecPath::FusedParallel`] row-partitions the sweep's neighbour-min
//! across worker threads, one join per outer iteration. Its contract is the
//! same as the fused path's, one level up: *bit-identical* labelings and
//! `Counts` metrics versus **sequential fused** (and therefore versus the
//! generic engine path, whose equivalence the `fused_kernels` bench already
//! asserts). Every timing helper here checks that equivalence on the
//! workload before publishing a number — the export fails outright if any
//! row diverges.
//!
//! Thresholding: the per-iteration helper forces `threshold = Some(0)` so
//! the partitioned neighbour-min runs even below the amortization cutoff
//! ([`gca_hirschberg::kernels::MIN_PAR_CELLS`]) — the point is to measure
//! (and verify) the parallel code itself, not the auto-fallback. Full-run
//! timings are taken both ways; see [`time_full_runs`].

use crate::fused::{self, machine, time_iterations, timed_run};
use crate::NsPerStep;
use gca_engine::{GcaError, Instrumentation};
use gca_graphs::connectivity::union_find_components_dense;
use gca_graphs::generators;
use gca_hirschberg::{ExecPath, FusedParallel};

/// Problem sizes the export tracks (the fused bench's upper range — the
/// partitioned drivers only matter where rows are plentiful).
pub const SIZES: [usize; 3] = [256, 512, 1024];

/// Worker counts the export sweeps.
pub const WORKER_SWEEP: [usize; 2] = [2, 4];

/// The forced-parallel execution path used by the per-iteration timings.
pub fn forced(workers: usize) -> ExecPath {
    ExecPath::FusedParallel(FusedParallel {
        workers,
        threshold: Some(0),
    })
}

/// One outer iteration timed under sequential fused and parallel fused.
#[derive(Clone, Debug)]
pub struct ParIterTiming {
    /// Problem size.
    pub n: usize,
    /// Worker count of the parallel path.
    pub workers: usize,
    /// Per-iteration statistics, sequential fused.
    pub fused_ns_per_iter: NsPerStep,
    /// Per-iteration statistics, parallel fused.
    pub parallel_ns_per_iter: NsPerStep,
    /// Whether the first iteration left bit-identical fields and `Counts`
    /// logs on the two paths.
    pub metrics_identical: bool,
}

impl ParIterTiming {
    /// Sequential-fused median time over parallel-fused median time.
    pub fn speedup(&self) -> f64 {
        self.fused_ns_per_iter.median / self.parallel_ns_per_iter.median
    }
}

/// Times `reps` outer iterations under sequential fused and
/// forced-parallel fused on the same workload, asserting identical fields
/// and metrics after the first.
pub fn time_iteration(n: usize, workers: usize, reps: u32) -> Result<ParIterTiming, GcaError> {
    let mut seq = machine(n, ExecPath::Fused, Instrumentation::Counts)?;
    let mut par = machine(n, forced(workers), Instrumentation::Counts)?;
    seq.run_iteration()?;
    par.run_iteration()?;
    let metrics_identical = seq.metrics().entries() == par.metrics().entries()
        && seq.to_field().states() == par.to_field().states();
    let fused_ns = time_iterations(&mut seq, reps)?;
    let parallel_ns = time_iterations(&mut par, reps)?;
    Ok(ParIterTiming {
        n,
        workers,
        fused_ns_per_iter: fused_ns,
        parallel_ns_per_iter: parallel_ns,
        metrics_identical,
    })
}

/// Full connected-components runs, sequential fused vs. parallel fused.
#[derive(Clone, Debug)]
pub struct ParRunTiming {
    /// Problem size.
    pub n: usize,
    /// Worker count of the parallel path.
    pub workers: usize,
    /// Whether the amortization threshold was forced to zero (`true`) or
    /// left at its default (`false`, the honest deployment setting).
    pub forced_threshold: bool,
    /// Milliseconds for the sequential fused run.
    pub fused_ms: f64,
    /// Milliseconds for the parallel fused run.
    pub parallel_ms: f64,
    /// Whether both runs matched the union-find ground truth.
    pub labels_match_union_find: bool,
    /// Whether the per-generation `Counts` metrics logs were bit-identical.
    pub metrics_identical: bool,
}

impl ParRunTiming {
    /// Sequential-fused time over parallel-fused time.
    pub fn speedup(&self) -> f64 {
        self.fused_ms / self.parallel_ms
    }
}

/// Times full runs on the standard workload at size `n` with `workers`
/// parallel workers. With `force_threshold` the neighbour-min is always
/// partitioned; without it the default amortization threshold decides (the
/// deployment configuration).
pub fn time_full_runs(
    n: usize,
    workers: usize,
    force_threshold: bool,
) -> Result<ParRunTiming, GcaError> {
    let graph = generators::gnp(n, 0.3, fused::SEED);
    let expected = union_find_components_dense(&graph);
    let exec = if force_threshold {
        forced(workers)
    } else {
        ExecPath::FusedParallel(FusedParallel {
            workers,
            threshold: None,
        })
    };
    let (fused_ms, seq) = timed_run(&graph, ExecPath::Fused, Instrumentation::Counts)?;
    let (parallel_ms, par) = timed_run(&graph, exec, Instrumentation::Counts)?;
    let labels_match_union_find = [&seq.labels, &par.labels]
        .iter()
        .all(|l| l.as_slice() == expected.as_slice());
    Ok(ParRunTiming {
        n,
        workers,
        forced_threshold: force_threshold,
        fused_ms,
        parallel_ms,
        labels_match_union_find,
        metrics_identical: seq.metrics.entries() == par.metrics.entries(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iteration_timings_report_identical_metrics() {
        let t = time_iteration(16, 2, 2).unwrap();
        assert!(t.metrics_identical);
        assert!(t.fused_ns_per_iter.median > 0.0 && t.parallel_ns_per_iter.median > 0.0);
        assert!(t.parallel_ns_per_iter.min <= t.parallel_ns_per_iter.max);
    }

    #[test]
    fn full_runs_agree_with_and_without_forced_threshold() {
        for force in [true, false] {
            let t = time_full_runs(16, 3, force).unwrap();
            assert!(t.labels_match_union_find, "force={force}");
            assert!(t.metrics_identical, "force={force}");
            assert_eq!(t.forced_threshold, force);
        }
    }
}
