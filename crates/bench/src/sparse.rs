//! Active-domain stepping measurements: the data behind the
//! `sparse_stepping` bench and the `BENCH_sparse_stepping.json` export.
//!
//! Table 1 shows most Hirschberg generations activate only a slice of the
//! `n·(n+1)` field — a row band, the first column, or a stride-thinned
//! diagonal pattern. Under [`DomainPolicy::Hinted`] the engine walks only
//! that slice and bulk-copies the rest, so per-generation cost tracks
//! *activity* instead of field size. These helpers time representative
//! generations under both policies (verifying the reports stay
//! bit-identical first) and compare full runs under fixed vs. detected
//! pointer-jump convergence.

use gca_engine::{DomainPolicy, Engine, GcaError};
use gca_graphs::connectivity::union_find_components_dense;
use gca_graphs::generators;
use crate::NsPerStep;
use gca_hirschberg::{Convergence, ExecPath, Gen, HirschbergGca, Machine};
use std::time::Instant;

/// Seed shared by all sparse-stepping workloads (deterministic rows).
pub const SEED: u64 = 2007;

/// The problem sizes the issue tracks.
pub const SIZES: [usize; 4] = [16, 64, 256, 1024];

/// Representative `(generation, sub-generation)` pairs, one per restricted
/// domain shape: `Cols(0..1)` (pointer jumping), `Sparse` (the thinned
/// min-reduction tree at sub-generation 1), and `Rows(0..n)` (the step-2
/// filter, where hinting only trims the extra `D_N` row).
pub fn restricted_generations() -> [(Gen, u32); 3] {
    [
        (Gen::PointerJump, 0),
        (Gen::MinReduce, 1),
        (Gen::FilterNeighbors, 0),
    ]
}

/// An initialized machine on the standard workload under the given policy.
pub fn machine(n: usize, policy: DomainPolicy) -> Result<Machine, GcaError> {
    let graph = generators::gnp(n, 0.3, SEED);
    let engine = Engine::sequential().with_domain_policy(policy);
    // Domain stepping is the engine's, which only the generic path ticks.
    let mut m = Machine::with_engine(&graph, engine)?.with_exec(ExecPath::Generic);
    m.init()?;
    Ok(m)
}

/// One `(generation, sub)` timed under dense and hinted stepping.
#[derive(Clone, Debug)]
pub struct GenTiming {
    /// Problem size.
    pub n: usize,
    /// The timed generation.
    pub generation: Gen,
    /// The timed sub-generation.
    pub subgeneration: u32,
    /// Per-step statistics under `DomainPolicy::Dense`.
    pub dense_ns_per_step: NsPerStep,
    /// Per-step statistics under `DomainPolicy::Hinted`.
    pub hinted_ns_per_step: NsPerStep,
    /// Whether active cells, reads, changed cells and the congestion
    /// histogram were bit-identical between the two policies.
    pub metrics_identical: bool,
}

impl GenTiming {
    /// Dense median time over hinted median time.
    pub fn speedup(&self) -> f64 {
        self.dense_ns_per_step.median / self.hinted_ns_per_step.median
    }
}

fn time_steps(m: &mut Machine, gen: Gen, sub: u32, reps: u32) -> Result<NsPerStep, GcaError> {
    // The measurement closure is infallible by signature; capture the first
    // step error (if any) and surface it after the timing loop.
    let mut failed = None;
    let ns = NsPerStep::measure(
        || match m.step(gen, sub) {
            Ok(report) => {
                std::hint::black_box(report);
            }
            Err(e) => failed = Some(e),
        },
        reps,
    );
    match failed {
        Some(e) => Err(e),
        None => Ok(ns),
    }
}

/// Times `reps` executions of `(gen, sub)` under both policies on the same
/// workload, asserting report equality on the first step.
pub fn time_generation(n: usize, gen: Gen, sub: u32, reps: u32) -> Result<GenTiming, GcaError> {
    let mut dense = machine(n, DomainPolicy::Dense)?;
    let mut hinted = machine(n, DomainPolicy::Hinted)?;
    let rd = dense.step(gen, sub)?;
    let rh = hinted.step(gen, sub)?;
    let metrics_identical = rd.active_cells == rh.active_cells
        && rd.total_reads == rh.total_reads
        && rd.changed_cells == rh.changed_cells
        && rd.congestion == rh.congestion;
    let dense_ns = time_steps(&mut dense, gen, sub, reps)?;
    let hinted_ns = time_steps(&mut hinted, gen, sub, reps)?;
    Ok(GenTiming {
        n,
        generation: gen,
        subgeneration: sub,
        dense_ns_per_step: dense_ns,
        hinted_ns_per_step: hinted_ns,
        metrics_identical,
    })
}

/// Full connected-components runs under the three interesting configs.
#[derive(Clone, Debug)]
pub struct RunTiming {
    /// Problem size.
    pub n: usize,
    /// Milliseconds for a dense-policy fixed-schedule run.
    pub dense_fixed_ms: f64,
    /// Milliseconds for a hinted-policy fixed-schedule run.
    pub hinted_fixed_ms: f64,
    /// Milliseconds for a hinted-policy convergence-detecting run.
    pub hinted_detect_ms: f64,
    /// Generations executed by the fixed schedule.
    pub fixed_generations: u64,
    /// Generations executed under `Convergence::Detect`.
    pub detect_generations: u64,
    /// Whether all three runs matched the union-find ground truth.
    pub labels_match_union_find: bool,
}

fn timed_run(
    graph: &gca_graphs::AdjacencyMatrix,
    policy: DomainPolicy,
    convergence: Convergence,
) -> Result<(f64, u64, gca_graphs::Labeling), GcaError> {
    let runner = HirschbergGca::new()
        .with_engine(Engine::sequential().with_domain_policy(policy))
        .exec(ExecPath::Generic)
        .convergence(convergence);
    let start = Instant::now();
    let run = runner.run(graph)?;
    let ms = start.elapsed().as_secs_f64() * 1e3;
    Ok((ms, run.generations, run.labels))
}

/// Times full runs on the standard workload at size `n`.
pub fn time_full_runs(n: usize) -> Result<RunTiming, GcaError> {
    let graph = generators::gnp(n, 0.3, SEED);
    let expected = union_find_components_dense(&graph);
    let (dense_fixed_ms, fixed_generations, l1) =
        timed_run(&graph, DomainPolicy::Dense, Convergence::Fixed)?;
    let (hinted_fixed_ms, fixed_generations_hinted, l2) =
        timed_run(&graph, DomainPolicy::Hinted, Convergence::Fixed)?;
    let (hinted_detect_ms, detect_generations, l3) =
        timed_run(&graph, DomainPolicy::Hinted, Convergence::Detect)?;
    assert_eq!(fixed_generations, fixed_generations_hinted);
    let labels_match_union_find =
        [&l1, &l2, &l3].iter().all(|l| l.as_slice() == expected.as_slice());
    Ok(RunTiming {
        n,
        dense_fixed_ms,
        hinted_fixed_ms,
        hinted_detect_ms,
        fixed_generations,
        detect_generations,
        labels_match_union_find,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_timings_report_identical_metrics() {
        for (gen, sub) in restricted_generations() {
            let t = time_generation(16, gen, sub, 2).unwrap();
            assert!(t.metrics_identical, "{gen:?} sub {sub}");
            assert!(t.dense_ns_per_step.median > 0.0 && t.hinted_ns_per_step.median > 0.0);
            assert!(t.dense_ns_per_step.min <= t.dense_ns_per_step.max);
        }
    }

    #[test]
    fn full_runs_agree_with_union_find() {
        let t = time_full_runs(16).unwrap();
        assert!(t.labels_match_union_find);
        assert!(t.detect_generations <= t.fixed_generations);
    }
}
