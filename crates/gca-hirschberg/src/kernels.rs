//! Execution paths of [`crate::Machine`] and the row planner of the
//! parallel one.
//!
//! [`ExecPath::Generic`] ticks the engine's per-cell
//! [`gca_engine::GcaRule`] dispatch over the whole `n(n+1)` field, one
//! generation at a time: the reference semantics, with every
//! [`gca_engine::Instrumentation`] level.
//!
//! [`ExecPath::Fused`] and [`ExecPath::FusedParallel`] run each outer
//! iteration as one vector sweep ([`crate::sweep`]) over `C`, `T′` and the
//! rows of the machine's adjacency matrix, in O(n + m) work and O(n)
//! state, and never build the engine's field. They commit every generation of the schedule
//! in order, with the same `Counts` entries and generation numbers as the
//! engine, so labels, metrics logs and [`crate::Machine::to_field`] are
//! bit-identical to the generic path.
//!
//! **Observed runs go to the engine.** Per-cell access traces
//! (`Instrumentation::Trace`), an armed fault plan, a
//! [`crate::Machine::step`] call and `Instrumentation::Validate` all need
//! every generation to happen cell by cell, so on the fused paths they
//! hand the state to the engine's own field and tick it. Under
//! `Validate` the sweep also runs each iteration from that iteration's
//! column 0, and the machine compares its `Counts` footprints with the
//! engine's per generation and its field with the engine's at the
//! iteration boundary: the first differing cell is a
//! [`gca_engine::GcaError::KernelDivergence`].
//!
//! **Parallel execution.** [`ExecPath::FusedParallel`] splits the sweep's
//! neighbour-min into row chunks planned by [`plan_rows`], one join per
//! iteration. The chunks write disjoint rows of `T` and read only shared
//! vectors, so labels and metrics equal the sequential sweep's by
//! construction (DESIGN.md §13).

/// Which implementation executes the state machine's generations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ExecPath {
    /// The engine's generic per-cell `access`/`evolve` dispatch over the
    /// whole field — the reference semantics, supporting every
    /// [`gca_engine::Instrumentation`] level.
    Generic,
    /// One vector sweep per outer iteration ([`crate::sweep`]), sequential,
    /// in O(n) state: the default. Bit-identical labelings, `Counts`
    /// metrics and fields at iteration boundaries; observed runs
    /// (`Trace`, `Validate`, an armed fault plan, [`crate::Machine::step`])
    /// tick the generic engine instead.
    #[default]
    Fused,
    /// The sweep with its neighbour-min split into row chunks *within* one
    /// graph (see [`FusedParallel`]). Runs sequentially when the square is
    /// below the threshold. Labels and `Counts` metrics stay bit-identical
    /// to [`ExecPath::Fused`].
    FusedParallel(FusedParallel),
}

/// Configuration of the data-parallel fused path
/// ([`ExecPath::FusedParallel`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub struct FusedParallel {
    /// Worker (chunk) count; `0` means one per hardware thread
    /// ([`rayon::current_num_threads`]). An explicit count is honored
    /// exactly — even on small fields — so non-power-of-two partitions can
    /// be exercised deterministically.
    pub workers: usize,
    /// Minimum square cells (`n²`) before the neighbour-min goes parallel;
    /// `None` means [`MIN_PAR_CELLS`].
    pub threshold: Option<usize>,
}

/// The default [`FusedParallel::threshold`]: below this many square cells
/// the neighbour-min runs on the calling thread, because the scoped-thread
/// spawn cost of the vendored rayon work-alike would otherwise dominate.
pub const MIN_PAR_CELLS: usize = 16 * 1024;

impl FusedParallel {
    /// A configuration with an explicit worker count and the default
    /// threshold.
    pub fn with_workers(workers: usize) -> Self {
        FusedParallel {
            workers,
            threshold: None,
        }
    }

    /// Resolves the knob into the policy the sweep's neighbour-min
    /// consumes: an auto worker count defaults to the hardware thread
    /// count, an unset threshold to [`MIN_PAR_CELLS`], and anything that
    /// resolves below two workers runs the plain sequential sweep.
    pub(crate) fn policy(self) -> Option<ParPolicy> {
        let workers = if self.workers == 0 {
            rayon::current_num_threads()
        } else {
            self.workers
        };
        (workers >= 2).then(|| ParPolicy {
            workers,
            threshold: self.threshold.unwrap_or(MIN_PAR_CELLS),
            explicit: self.workers != 0,
        })
    }
}

impl ExecPath {
    /// Shorthand for [`ExecPath::FusedParallel`] with `workers` workers
    /// (`0` = auto) and the default threshold.
    pub fn fused_parallel(workers: usize) -> Self {
        ExecPath::FusedParallel(FusedParallel::with_workers(workers))
    }
}

/// The resolved parallel policy [`crate::Machine`] hands the sweep: worker
/// count already defaulted (≥ 2, or the machine would not pass a policy at
/// all) and threshold resolved (see [`FusedParallel::threshold`]).
#[derive(Clone, Copy, Debug)]
pub struct ParPolicy {
    /// Target chunk count.
    pub workers: usize,
    /// Minimum touched cells before a loop parallelizes.
    pub threshold: usize,
    /// `true` when the worker count was configured explicitly (honor it
    /// exactly); `false` for auto counts (clamp chunks to a minimum size so
    /// scoped-thread spawns stay amortized).
    pub explicit: bool,
}

/// Minimum data-plane cells per parallel chunk under an *auto* worker
/// count; explicit worker counts bypass it.
pub const MIN_PAR_CHUNK_CELLS: usize = 8 * 1024;

/// Decides the row partitioning of one loop: `None` → run sequentially,
/// `Some(rows_per_chunk)` → split `rows` rows (each `row_width` field
/// cells wide) into `par_chunks_mut` partitions.
///
/// Public as verification surface: `gca-analysis`'s partition prover
/// (DESIGN.md §15) enumerates this exact planner over the sweep's
/// partitioned geometry to prove the resulting `par_chunks_mut` intervals
/// are pairwise disjoint and exactly cover the vector.
pub fn plan_rows(
    par: Option<ParPolicy>,
    touched: usize,
    rows: usize,
    row_width: usize,
) -> Option<usize> {
    let p = par?;
    if touched < p.threshold || rows < 2 {
        return None;
    }
    let mut rows_per = rows.div_ceil(p.workers).max(1);
    if !p.explicit {
        rows_per = rows_per.max(MIN_PAR_CHUNK_CELLS.div_ceil(row_width.max(1)));
    }
    (rows.div_ceil(rows_per) >= 2).then_some(rows_per)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_honors_threshold_and_explicit_workers() {
        let explicit = ParPolicy {
            workers: 3,
            threshold: 0,
            explicit: true,
        };
        // Explicit workers split even tiny fields (8 rows / 3 → 3 per chunk).
        assert_eq!(plan_rows(Some(explicit), 64, 8, 8), Some(3));
        // Below the threshold: sequential.
        let gated = ParPolicy {
            threshold: 1 << 20,
            ..explicit
        };
        assert_eq!(plan_rows(Some(gated), 64, 8, 8), None);
        // No policy at all: sequential.
        assert_eq!(plan_rows(None, 1 << 30, 1 << 10, 1 << 10), None);
        // One row can never split.
        assert_eq!(plan_rows(Some(explicit), 64, 1, 64), None);
    }

    #[test]
    fn default_threshold_is_16_ki_square_cells() {
        let policy = FusedParallel::with_workers(2).policy().unwrap();
        assert_eq!(policy.threshold, 16_384);
        // `cli-forest-1024-par`'s square still splits …
        assert_eq!(plan_rows(Some(policy), 1024 * 1024, 1024, 1024), Some(512));
        // … and so does n = 128's, exactly at the threshold.
        assert_eq!(plan_rows(Some(policy), 128 * 128, 128, 128), Some(64));
        assert_eq!(plan_rows(Some(policy), 127 * 127, 127, 127), None);
        // Fewer than two workers never yields a policy.
        assert!(FusedParallel::with_workers(1).policy().is_none());
    }

    #[test]
    fn plan_clamps_auto_chunks_to_amortized_size() {
        let auto = ParPolicy {
            workers: 8,
            threshold: 0,
            explicit: false,
        };
        // 64 rows of width 64 = 4096 cells: one 8 KiB chunk minimum means
        // no split is worth it.
        assert_eq!(plan_rows(Some(auto), 4096, 64, 64), None);
        // 1024 rows of width 1024: 8 chunks of 128 rows each.
        assert_eq!(plan_rows(Some(auto), 1 << 20, 1024, 1024), Some(128));
    }
}
