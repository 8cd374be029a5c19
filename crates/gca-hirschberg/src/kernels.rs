//! Fused flat-array kernels for the Hirschberg rule ([`ExecPath::Fused`]
//! and [`ExecPath::FusedParallel`]).
//!
//! The generic engine path evaluates every generation through per-cell
//! [`gca_engine::GcaRule`] dispatch: each cell re-derives its row/column,
//! re-matches the phase enum, resolves an [`gca_engine::Access`], and the
//! engine copies every untouched cell from the previous to the next buffer.
//! For the iterated phases (the two `⌈log₂ n⌉` min-reduction trees and
//! pointer jumping) that copy alone is `O(n²)` work per sub-generation for
//! `O(n)` useful updates.
//!
//! This module implements each of Figure 2's generations as a specialized
//! kernel over the struct-of-arrays `HField` data plane instead. The
//! executor owns that `HField`, which is [`crate::Machine`]'s only
//! persistent cell state on every path: the kernels run on it in place,
//! and the machine's engine steps copy it into a scratch `CellField` and
//! back.
//!
//! * **broadcasts** (generations 1, 5, 9) gather the column-0 vector into a
//!   reusable scratch once, then fill rows with strided writes;
//! * **tree reductions** (generations 3, 7) update the current buffer in
//!   place — within one sub-generation the written columns
//!   (`col ≡ 0 (mod 2^{s+1})`) and the read columns (`col + 2^s`) are
//!   disjoint, so synchrony holds without any buffer copy, and the `log n`
//!   sub-generations fuse into consecutive passes over the same buffer;
//! * **pointer jumping** (generation 10) chases pointers through two
//!   ping-pong label vectors of length `n` (`FusedExecutor::gather_labels`
//!   / `FusedExecutor::scatter_labels`), touching the `n²`-cell field not
//!   at all between sub-generations — the existing
//!   [`crate::Convergence::Detect`] fixed point composes unchanged.
//!
//! **One body set.** Both fused paths run the same body per generation,
//! the faster one measured end to end. The broadcasts, filters and tree
//! reductions (generations 1–3 and 5–7) run the word-parallel bodies of
//! the [`crate::swar`] module: the bit-gated filters walk the row-aligned
//! packed adjacency plane a word at a time (zero-word skip +
//! `trailing_zeros` set-bit walks) and write an exact occupancy plane,
//! the tree reductions skip folds whose source the occupancy plane proves
//! dead, and the broadcasts skip rows that already hold the label
//! vector. The other generations run the scalar bodies below as written:
//! the column-0 and label-vector kernels (4, 8, 10, 11) touch one cell
//! per row, and the whole-row fills of generations 0 and 9 almost never
//! find a row already filled, so a single count-and-store pass beats a
//! scan-then-fill (DESIGN.md §14.5). The scalar bodies of
//! generations 1–3 and 5–7 are on no exec path: they are the per-cell
//! reference semantics that the kernel unit tests and `gca-analysis`'s
//! lane verifier (`gca-analyze --lanes`) check the SWAR bodies against.
//!
//! **Parallel execution.** Every kernel body is a *row-range function*
//! over a contiguous slice of whole rows. The sequential
//! path runs it once over the full range; [`ExecPath::FusedParallel`] runs
//! the same function over disjoint `par_chunks_mut` row partitions, one
//! `ChunkReport` accumulator per chunk, merged after the join. Because
//! both paths execute the identical per-cell code and integer counter sums
//! commute, labels *and* metrics are bit-identical by construction. The
//! per-generation race-freedom argument (why row partitions never alias) is
//! written out in DESIGN.md §13.
//!
//! **Metrics contract.** Every kernel produces the exact counters the
//! generic path produces: active cells per Table 1, total reads, changed
//! cells (the convergence signal), and — when counting — the generation's
//! reads as a compact [`ReadFootprint`] in `FusedExecutor::footprint`,
//! never as a per-cell vector over the `n(n+1)` field. A statically
//! addressed kernel returns its target family as a [`TargetGrid`] in its
//! report, measured from its own row and column loop bounds (column 0,
//! the `D_N` row, or the tree partners `col + 2^s`, each with one δ), and
//! the executor records it in O(1). The data-dependent pointer chases
//! (generations 10 and 11) accumulate per-chunk histograms indexed by the
//! chased label (`≤ n`) and sum them after the join into the footprint's
//! `n + 1` counters, one per candidate target `d·n` or `d·n + 1`.
//! [`gca_engine::metrics::GenerationMetrics::from_footprint`] builds the
//! Table 1 entry from that footprint, with the δ = 0 group as the field
//! size minus the cells read. `tests/property_based.rs` asserts labelings
//! *and* `Counts` metrics are bit-identical across all paths;
//! `Instrumentation::Trace` needs per-cell access lists only the generic
//! evaluator materializes, so [`crate::Machine`] falls back to it.

use crate::hfield::{a_bit, HField};
use crate::{swar, Gen};
use gca_engine::metrics::{ReadFootprint, TargetGrid};
use gca_engine::{AdjWord, GcaError, StepCtx, Word, INFINITY, WORD_BITS};
use rayon::prelude::*;

/// Which implementation executes the state machine's generations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ExecPath {
    /// The engine's generic per-cell `access`/`evolve` dispatch — the
    /// reference semantics, supporting every [`gca_engine::Instrumentation`]
    /// level and [`gca_engine::Backend`].
    #[default]
    Generic,
    /// The fused flat-array kernels of [`crate::kernels`], sequential, with
    /// the SWAR row bodies of the `swar` module where they are faster:
    /// word-skip + `trailing_zeros` walks over the bit-packed adjacency
    /// plane, slice-equality broadcast fast paths and occupancy-guided tree
    /// reductions. Bit-identical labelings and `Counts` metrics; steps with
    /// [`gca_engine::Instrumentation::Trace`] fall back to the generic path
    /// (access traces require the per-cell evaluator). Unless validation
    /// or a fault plan must observe every generation, the machine driver
    /// runs each broadcast and the filter after it in one sweep.
    Fused,
    /// The fused kernels with row-partitioned data parallelism *within* one
    /// graph (see [`FusedParallel`]). Falls back to sequential kernel
    /// execution per generation when the touched region is below the
    /// threshold, exactly like [`gca_engine::Backend::Parallel`] does for
    /// the generic path. Labels and `Counts` metrics stay bit-identical to
    /// [`ExecPath::Fused`]; `Trace` falls back to generic like `Fused`.
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
    /// Minimum touched cells per generation before a kernel goes parallel;
    /// `None` inherits the engine's tunable
    /// ([`gca_engine::Engine::min_parallel_cells`]), sharing one fallback
    /// knob with [`gca_engine::Backend::Parallel`].
    pub threshold: Option<usize>,
}

impl FusedParallel {
    /// A configuration with an explicit worker count and the shared engine
    /// threshold.
    pub fn with_workers(workers: usize) -> Self {
        FusedParallel {
            workers,
            threshold: None,
        }
    }
}

impl ExecPath {
    /// Shorthand for [`ExecPath::FusedParallel`] with `workers` workers
    /// (`0` = auto) and the engine-shared threshold.
    pub fn fused_parallel(workers: usize) -> Self {
        ExecPath::FusedParallel(FusedParallel::with_workers(workers))
    }
}

/// The resolved per-step parallel policy [`crate::Machine`] hands the
/// executor: worker count already defaulted (≥ 2, or the machine would not
/// pass a policy at all) and threshold resolved against the engine tunable.
#[derive(Clone, Copy, Debug)]
pub struct ParPolicy {
    /// Target chunk count.
    pub workers: usize,
    /// Minimum touched cells before a kernel parallelizes.
    pub threshold: usize,
    /// `true` when the worker count was configured explicitly (honor it
    /// exactly); `false` for auto counts (clamp chunks to a minimum size so
    /// scoped-thread spawns stay amortized, mirroring the engine backend).
    pub explicit: bool,
}

/// Minimum data-plane cells per parallel chunk under an *auto* worker
/// count (mirrors `gca-engine`'s `MIN_PAR_CHUNK`); explicit worker counts
/// bypass it.
pub const MIN_PAR_CHUNK_CELLS: usize = 8 * 1024;

/// Decides the row partitioning of one kernel: `None` → run sequentially,
/// `Some(rows_per_chunk)` → split `rows` rows (each `row_width` data-plane
/// cells wide) into `par_chunks_mut` partitions.
///
/// Public as verification surface: `gca-analysis`'s partition prover
/// (DESIGN.md §15) enumerates this exact planner over every kernel
/// geometry to prove the resulting `par_chunks_mut` intervals are
/// pairwise disjoint and exactly cover the field.
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

/// Counters of one fused generation — the kernel-side mirror of
/// [`gca_engine::StepReport`]'s counter fields.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct KernelReport {
    /// Cells that performed a calculation (Table 1's activity column).
    pub active: usize,
    /// Total global reads issued.
    pub reads: u64,
    /// Cells whose new state differs from their previous state.
    pub changed: usize,
    /// Cells the kernel visited.
    pub evaluated: usize,
    /// Worker chunks that executed the kernel (`1` = sequential, including
    /// the below-threshold auto-fallback).
    pub workers: usize,
    /// The read targets of a statically addressed generation, measured
    /// from the kernel's own row and column loop bounds; `None` for the
    /// pointer chases, which record their data-dependent footprint in the
    /// executor themselves.
    pub grid: Option<TargetGrid>,
}

impl KernelReport {
    fn sequential(active: usize, reads: u64, changed: usize) -> Self {
        KernelReport {
            active,
            reads,
            changed,
            evaluated: active,
            workers: 1,
            grid: None,
        }
    }
}

/// Column 0 (`C`/`T`) of an `n`-node field, every cell read `delta` times.
fn column_zero(n: usize, delta: usize) -> TargetGrid {
    TargetGrid {
        start: 0,
        rows: n,
        row_step: n,
        cols: 1,
        col_step: 1,
        // delta ≤ n + 1 and the layout caps n below u32::MAX.
        delta: delta as u32, // gca-lint: allow(truncating-cast)
    }
}

/// The `D_N` row of an `n`-node field, every cell read `delta` times.
fn dn_row(n: usize, delta: usize) -> TargetGrid {
    TargetGrid {
        start: n * n,
        rows: 1,
        row_step: n,
        cols: n,
        col_step: 1,
        // delta ≤ n and the layout caps n below u32::MAX.
        delta: delta as u32, // gca-lint: allow(truncating-cast)
    }
}

/// One parallel chunk's accumulator: a changed-cell tally, a compact
/// per-label read histogram for the data-dependent kernels (summed into
/// the executor's read footprint after the join) and an error slot.
/// Owned by the executor so the buffers stay warm across generations.
#[derive(Clone, Debug, Default)]
struct ChunkReport {
    changed: usize,
    hist: Vec<u32>,
    error: Option<GcaError>,
}

/// Clears (and histogram-sizes) the first `count` chunk accumulators,
/// growing the pool on demand.
fn chunk_slots(
    chunks: &mut Vec<ChunkReport>,
    count: usize,
    hist_len: Option<usize>,
) -> &mut [ChunkReport] {
    if chunks.len() < count {
        chunks.resize_with(count, ChunkReport::default);
    }
    let slots = &mut chunks[..count];
    for c in slots.iter_mut() {
        c.changed = 0;
        c.error = None;
        c.hist.clear();
        if let Some(len) = hist_len {
            c.hist.resize(len, 0);
        }
    }
    slots
}

/// Reusable scratch and per-generation kernels for one problem size `n`.
///
/// Owned by [`crate::Machine`]; all buffers (including the [`HField`] that
/// holds the machine's cell state) are allocated once and reused, so fused
/// steady-state stepping performs no allocation (under
/// `Instrumentation::Off`) beyond what the metrics log itself appends.
#[derive(Clone, Debug, Default)]
pub(crate) struct FusedExecutor {
    n: usize,
    /// The machine's cell state, which the kernels execute on in place.
    hfield: HField,
    /// Gathered column-0 (`C`/`T`) values — the broadcast source and the
    /// "ping" label buffer of pointer jumping.
    labels: Vec<Word>,
    /// The "pong" label buffer of pointer jumping.
    labels_next: Vec<Word>,
    /// The reads of the last executed generation (Table 1's congestion
    /// column) in compact form, recorded when counting.
    footprint: ReadFootprint,
    /// Per-chunk accumulators of the parallel path.
    chunks: Vec<ChunkReport>,
    /// Generation 6 scratch: the row-aligned membership mask
    /// (`bit (r, c) ⇔ D_N[c] = r`), rebuilt each FilterMembers.
    member_mask: Vec<AdjWord>,
    /// Occupancy plane over the square field: bit `(r, c)` set iff cell
    /// `(r, c)` is not `∞`. Written exactly by the filter kernels
    /// (generations 2 and 6), maintained by the occupancy-guided tree
    /// reductions, and meaningful only while `occ_valid`.
    occ: Vec<AdjWord>,
    /// Whether `occ` currently mirrors the square plane. True only in the
    /// filter → min-reduce windows; any other kernel (or a write through
    /// [`FusedExecutor::field_mut`]) invalidates it, dropping the
    /// reductions back to their occupancy-free body.
    occ_valid: bool,
    /// Test-only seeded fault: the next *parallel counting* broadcast
    /// accounts one boundary cell as if two adjacent row partitions
    /// overlapped on it, so the replay harness can prove it catches a
    /// mispartitioned kernel.
    overlap_fault: bool,
}

impl FusedExecutor {
    /// An executor for problem size `n`.
    pub fn new(n: usize) -> Self {
        let hfield = HField::new(n);
        let occ = vec![0; n * hfield.words_per_row];
        FusedExecutor {
            n,
            hfield,
            labels: Vec::with_capacity(n),
            labels_next: vec![0; n],
            footprint: ReadFootprint::new(),
            chunks: Vec::new(),
            member_mask: Vec::new(),
            occ,
            occ_valid: false,
            overlap_fault: false,
        }
    }

    /// The cell state the kernels execute on.
    pub fn field(&self) -> &HField {
        &self.hfield
    }

    /// Mutable access to the cell state for writes behind the kernels'
    /// back (engine steps, graph reloads, snapshot restores); invalidates
    /// the occupancy plane.
    pub fn field_mut(&mut self) -> &mut HField {
        self.occ_valid = false;
        &mut self.hfield
    }

    /// The read footprint of the last generation executed with
    /// `counting = true`.
    pub fn footprint(&self) -> &ReadFootprint {
        &self.footprint
    }

    /// Records a static generation's read targets (the `grid` of its
    /// report) as the footprint of the last executed generation. No-op
    /// for the pointer chases, which record theirs while they run.
    pub fn record_footprint(&mut self, rep: &KernelReport) {
        if let Some(grid) = rep.grid {
            self.footprint.set_grid(self.hfield.d.len(), grid);
        }
    }

    /// Arms the seeded partition-overlap fault — the surface of
    /// [`gca_engine::faults::FaultKind::DuplicatedChunkRow`]. Safe Rust
    /// makes a real aliasing overlap unrepresentable (`par_chunks_mut`
    /// hands out disjoint `&mut` slices), so the fault is its accounting
    /// consequence: the next parallel counting broadcast counts one
    /// boundary cell twice.
    pub fn seed_partition_fault(&mut self) {
        self.overlap_fault = true;
    }

    /// The data-plane word of linear cell `i`, or `None` when out of
    /// range — the fault-injection hooks' read surface.
    pub fn word_at(&self, i: usize) -> Option<Word> {
        self.hfield.d.get(i).copied()
    }

    /// Overwrites the data-plane word of linear cell `i` (out-of-range
    /// writes are ignored) — the fault-injection hooks' write surface.
    pub fn set_word(&mut self, i: usize, w: Word) {
        if let Some(slot) = self.hfield.d.get_mut(i) {
            *slot = w;
        }
    }

    /// Copies the whole data plane into `out` (reusing its allocation) —
    /// the pre-generation capture of a dropped-generation fault.
    pub fn save_plane(&self, out: &mut Vec<Word>) {
        out.clear();
        out.extend_from_slice(&self.hfield.d);
    }

    /// Restores a data plane captured by [`FusedExecutor::save_plane`].
    /// Ignored on length mismatch (a stale capture from another size).
    pub fn load_plane(&mut self, plane: &[Word]) {
        if plane.len() == self.hfield.d.len() {
            self.hfield.d.copy_from_slice(plane);
        }
    }

    /// Clears the occupancy-plane bit of square cell `i` — the stale-
    /// occupancy fault surface: a filter marked the cell occupied, the
    /// occupancy write is lost, and the next occupancy-guided tree
    /// reduction skips a live value. No-op unless the plane is currently
    /// authoritative (inside a filter → min-reduce window) or `i` lies
    /// outside the square plane.
    pub fn clear_occ_bit(&mut self, i: usize) {
        if !self.occ_valid || self.n == 0 || i >= self.n * self.n {
            return;
        }
        let (row, col) = (i / self.n, i % self.n);
        self.occ[row * self.hfield.words_per_row + col / WORD_BITS] &=
            !(1 << (col % WORD_BITS));
    }

    /// Adds one read on cell `i` to the recorded footprint behind the
    /// kernels' back — the corrupted-histogram-merge fault surface (a
    /// chunk's congestion accumulator folded in twice). No-op when `i` is
    /// out of range.
    pub fn bump_read(&mut self, i: usize) {
        self.footprint.bump(i);
    }

    /// Executes generation `gen` (sub-generation and counter in `ctx`)
    /// over the data plane, dispatching to the matching kernel. `par`
    /// carries the resolved parallel policy (`None` = sequential fused
    /// path). On error the data plane is left on its previous generation,
    /// like [`gca_engine::Engine::step`].
    pub fn step(
        &mut self,
        gen: Gen,
        ctx: &StepCtx,
        counting: bool,
        par: Option<ParPolicy>,
    ) -> Result<KernelReport, GcaError> {
        let n = self.n;
        if n == 0 {
            let rep = KernelReport {
                workers: 1,
                grid: Some(TargetGrid::default()),
                ..KernelReport::default()
            };
            if counting {
                self.record_footprint(&rep);
            }
            return Ok(rep);
        }
        // Occupancy lifecycle: the filters produce an exact plane,
        // the tree reductions keep it exact, everything else (including
        // errors, which leave the plane mid-state) invalidates it.
        let occ_was_valid = self.occ_valid;
        self.occ_valid = false;
        let rep = match gen {
            Gen::Init => Ok(self.init(par)),
            Gen::BroadcastC => Ok(self.broadcast(true, par)),
            Gen::FilterNeighbors => {
                let rep = self.filter_neighbors(par);
                self.occ_valid = true;
                Ok(rep)
            }
            Gen::MinReduce | Gen::MinReduceMembers => {
                let rep = self.min_reduce(ctx.subgeneration, occ_was_valid, par);
                self.occ_valid = occ_was_valid;
                Ok(rep)
            }
            Gen::ResolveIsolated | Gen::ResolveMembers => Ok(self.resolve(par)),
            Gen::BroadcastT => Ok(self.broadcast(false, par)),
            Gen::FilterMembers => {
                let rep = self.filter_members(par);
                self.occ_valid = true;
                Ok(rep)
            }
            Gen::CopyAndSaveT => Ok(self.copy_and_save_t(par)),
            Gen::PointerJump => {
                self.gather_labels();
                let rep = self.jump_once(ctx, counting, par)?;
                self.scatter_labels();
                Ok(rep)
            }
            Gen::FinalMin => self.final_min(ctx, counting, par),
        }?;
        if counting {
            self.record_footprint(&rep);
            if rep.workers > 1
                && self.overlap_fault
                && matches!(gen, Gen::BroadcastC | Gen::BroadcastT)
            {
                // Seeded fault: account the first column-0 cell once more,
                // exactly what an off-by-one row partition (two chunks both
                // covering row 0) would have produced. Safe Rust makes a
                // real aliasing overlap unrepresentable (`par_chunks_mut`
                // hands out disjoint `&mut` slices), so the injectable
                // fault is the accounting effect the replay harness must
                // flag as `KernelDivergence`.
                self.overlap_fault = false;
                self.footprint.bump(0);
            }
        }
        Ok(rep)
    }

    /// Generation 0: `d ← row(index)` everywhere, no reads.
    fn init(&mut self, par: Option<ParPolicy>) -> KernelReport {
        let n = self.n;
        let rows = n + 1;
        let touched = rows * n;
        let (changed, workers) = match plan_rows(par, touched, rows, n) {
            None => (init_rows(&mut self.hfield.d, 0, n), 1),
            Some(rows_per) => {
                let count = rows.div_ceil(rows_per);
                let slots = chunk_slots(&mut self.chunks, count, None);
                self.hfield
                    .d
                    .par_chunks_mut(rows_per * n)
                    .zip(slots.par_iter_mut())
                    .enumerate()
                    .for_each(|(ci, (seg, acc))| {
                        acc.changed = init_rows(seg, ci * rows_per, n);
                    });
                (slots.iter().map(|c| c.changed).sum(), count)
            }
        };
        KernelReport {
            active: touched,
            reads: 0,
            changed,
            evaluated: touched,
            workers,
            grid: Some(TargetGrid::default()),
        }
    }

    /// Generations 1 and 5: fill every row with the gathered column-0
    /// vector. Generation 1 (`include_dn`) also overwrites `D_N` (saving
    /// `C`); generation 5 leaves `D_N` on its saved copy.
    fn broadcast(&mut self, include_dn: bool, par: Option<ParPolicy>) -> KernelReport {
        let n = self.n;
        self.labels.clear();
        {
            let d = &self.hfield.d;
            self.labels.extend((0..n).map(|j| d[j * n]));
        }
        let rows = if include_dn { n + 1 } else { n };
        let touched = rows * n;
        let (changed, workers) = match plan_rows(par, touched, rows, n) {
            None => (
                swar::broadcast_rows(&mut self.hfield.d[..touched], &self.labels),
                1,
            ),
            Some(rows_per) => {
                let count = rows.div_ceil(rows_per);
                let slots = chunk_slots(&mut self.chunks, count, None);
                let labels = &self.labels;
                self.hfield.d[..touched]
                    .par_chunks_mut(rows_per * n)
                    .zip(slots.par_iter_mut())
                    .for_each(|(seg, acc)| acc.changed = swar::broadcast_rows(seg, labels));
                (slots.iter().map(|c| c.changed).sum(), count)
            }
        };
        KernelReport {
            active: touched,
            reads: touched as u64,
            changed,
            evaluated: touched,
            workers,
            // Every one of the `rows` rows reads each column-0 cell once.
            grid: Some(column_zero(n, rows)),
        }
    }

    /// Fused broadcast + filter: generations 1+2 (`members = false`) or
    /// 5+6 (`members = true`) in one sweep over the square plane — one
    /// load+store per cell instead of the broadcast's store pass plus the
    /// filter's load+store pass. Only reached from the iteration driver
    /// when the post-broadcast intermediate state is unobservable (no
    /// validation, no fault plan, no single-stepping).
    /// The returned pair carries the two generations' reports with the
    /// exact `changed` counts the separate passes produce (see
    /// [`swar::broadcast_filter_neighbor_rows`]) and each generation's own
    /// static read footprint; the caller records and commits them in
    /// order.
    pub(crate) fn broadcast_filter(
        &mut self,
        members: bool,
        par: Option<ParPolicy>,
    ) -> (KernelReport, KernelReport) {
        let n = self.n;
        let wpr = self.hfield.words_per_row;
        self.labels.clear();
        {
            let d = &self.hfield.d;
            self.labels.extend((0..n).map(|j| d[j * n]));
        }
        if members {
            // Generation 5 leaves D_N untouched, so the mask built here is
            // the mask generation 6 would have seen after the broadcast.
            swar::build_member_mask(&mut self.member_mask, &self.hfield.d[n * n..], n, wpr);
        }
        let occ = &mut self.occ;
        let (square, dn) = self.hfield.d.split_at_mut(n * n);
        let labels = &self.labels;
        let a = &self.hfield.a;
        let mask = &self.member_mask;
        // A uniform label vector (run converged to one component) means no
        // cell survives generation 2's `lab ≠ C(row)` test: the pair
        // degenerates to tally + fill. Not applicable to generation 6,
        // whose `keep` varies by row.
        let uniform_kill = !members && labels.iter().all(|&l| l == labels[0]);
        let kill_f_per_row = labels.iter().filter(|&&l| l != INFINITY).count();
        let run = |seg: &mut [Word], occ_seg: &mut [AdjWord], base_row: usize| {
            if uniform_kill {
                let rows = seg.len() / n.max(1);
                (
                    swar::broadcast_kill_rows(seg, occ_seg, labels, n, wpr),
                    rows * kill_f_per_row,
                )
            } else if members {
                swar::broadcast_filter_member_rows(seg, occ_seg, mask, labels, base_row, n, wpr)
            } else {
                swar::broadcast_filter_neighbor_rows(seg, occ_seg, a, labels, base_row, n, wpr)
            }
        };
        let ((mut b_changed, f_changed), workers) = match plan_rows(par, n * n, n, n) {
            None => (run(square, occ, 0), 1),
            Some(rows_per) => {
                let count = n.div_ceil(rows_per);
                // Two tallies per chunk, so the shared `ChunkReport` slots
                // (one counter) don't fit; `count` is at most the worker
                // budget, so a fresh accumulator vector is cheap.
                let mut slots: Vec<(usize, usize)> = vec![(0, 0); count];
                square
                    .par_chunks_mut(rows_per * n)
                    .zip(occ.par_chunks_mut(rows_per * wpr))
                    .zip(slots.par_iter_mut())
                    .enumerate()
                    .for_each(|(ci, ((seg, occ_seg), acc))| {
                        *acc = run(seg, occ_seg, ci * rows_per);
                    });
                (
                    slots
                        .iter()
                        .fold((0, 0), |(b, f), &(cb, cf)| (b + cb, f + cf)),
                    count,
                )
            }
        };
        // Generation 1's broadcast also writes the D_N row (saving `C`);
        // generation 5's leaves D_N on the saved copy.
        let bcast_rows = if members { n } else { n + 1 };
        if !members {
            for (cell, &lab) in dn[..n].iter_mut().zip(labels) {
                b_changed += usize::from(*cell != lab);
                *cell = lab;
            }
        }
        // The filter half wrote an exact occupancy plane, exactly as the
        // separate filter generation would have.
        self.occ_valid = true;
        let bcast = KernelReport {
            active: bcast_rows * n,
            reads: (bcast_rows * n) as u64,
            changed: b_changed,
            evaluated: bcast_rows * n,
            workers,
            grid: Some(column_zero(n, bcast_rows)),
        };
        let filter = KernelReport {
            active: n * n,
            reads: (n * n) as u64,
            changed: f_changed,
            evaluated: n * n,
            workers,
            // Each of the n square rows reads one D_N cell per column.
            grid: Some(dn_row(n, n)),
        };
        (bcast, filter)
    }

    /// Generation 2: keep `d = C(col)` only where an edge connects `row` to
    /// `col` and the endpoints are in different components (`d ≠ C(row)`,
    /// with `C(row)` read from `D_N`); else `∞`.
    fn filter_neighbors(&mut self, par: Option<ParPolicy>) -> KernelReport {
        let n = self.n;
        let wpr = self.hfield.words_per_row;
        let occ = &mut self.occ;
        let (square, dn) = self.hfield.d.split_at_mut(n * n);
        let a = &self.hfield.a;
        let run = |seg: &mut [Word], occ_seg: &mut [AdjWord], base_row: usize, dn: &[Word]| {
            swar::filter_neighbor_rows(seg, occ_seg, a, dn, base_row, n, wpr)
        };
        let (changed, workers) = match plan_rows(par, n * n, n, n) {
            None => (run(square, occ, 0, dn), 1),
            Some(rows_per) => {
                let count = n.div_ceil(rows_per);
                let slots = chunk_slots(&mut self.chunks, count, None);
                let dn = &dn[..];
                // The occupancy plane is row-partitioned exactly like the
                // square plane, so chunks stay disjoint.
                square
                    .par_chunks_mut(rows_per * n)
                    .zip(occ.par_chunks_mut(rows_per * wpr))
                    .zip(slots.par_iter_mut())
                    .enumerate()
                    .for_each(|(ci, ((seg, occ_seg), acc))| {
                        acc.changed = run(seg, occ_seg, ci * rows_per, dn);
                    });
                (slots.iter().map(|c| c.changed).sum(), count)
            }
        };
        KernelReport {
            active: n * n,
            reads: (n * n) as u64,
            changed,
            evaluated: n * n,
            workers,
            // All n cells of square row `row` read D_N[row].
            grid: Some(dn_row(n, n)),
        }
    }

    /// Generations 3 and 7, one sub-generation: every participating cell
    /// (`col ≡ 0 (mod 2^{s+1})`, `col + 2^s < n`) folds in the cell `2^s` to
    /// its right. In place: written and read columns are disjoint, and both
    /// stay inside the cell's own row, so row partitions never alias.
    fn min_reduce(&mut self, s: u32, occ_valid: bool, par: Option<ParPolicy>) -> KernelReport {
        let n = self.n;
        let wpr = self.hfield.words_per_row;
        let stride = 1usize << s;
        let per_row = if n > stride {
            (n - stride - 1) / (stride << 1) + 1
        } else {
            0
        };
        let active = n * per_row;
        let occ = &mut self.occ;
        let square = &mut self.hfield.d[..n * n];
        let run = |seg: &mut [Word], occ_seg: &mut [AdjWord]| {
            if occ_valid {
                swar::min_reduce_rows_occ(seg, occ_seg, stride, n, wpr)
            } else {
                swar::min_reduce_rows(seg, stride, n)
            }
        };
        let (changed, workers) = match plan_rows(par, active, n, n) {
            None => (run(square, occ), 1),
            Some(rows_per) => {
                let count = n.div_ceil(rows_per);
                let slots = chunk_slots(&mut self.chunks, count, None);
                square
                    .par_chunks_mut(rows_per * n)
                    .zip(occ.par_chunks_mut(rows_per * wpr))
                    .zip(slots.par_iter_mut())
                    .for_each(|((seg, occ_seg), acc)| acc.changed = run(seg, occ_seg));
                (slots.iter().map(|c| c.changed).sum(), count)
            }
        };
        KernelReport {
            active,
            reads: active as u64,
            changed,
            evaluated: active,
            workers,
            // Every row: the `per_row` partners `col + 2^s` of the
            // participating columns `col ≡ 0 (mod 2^{s+1})`, one read each.
            grid: Some(TargetGrid {
                start: stride,
                rows: n,
                row_step: n,
                cols: per_row,
                col_step: stride << 1,
                delta: 1,
            }),
        }
    }

    /// Generations 4 and 8: column-0 cells still holding `∞` fall back to
    /// the saved `C(row)` from `D_N`.
    fn resolve(&mut self, par: Option<ParPolicy>) -> KernelReport {
        let n = self.n;
        let (square, dn) = self.hfield.d.split_at_mut(n * n);
        let (changed, workers) = match plan_rows(par, n, n, 1) {
            None => (resolve_rows(square, dn, n), 1),
            Some(rows_per) => {
                let count = n.div_ceil(rows_per);
                let slots = chunk_slots(&mut self.chunks, count, None);
                square
                    .par_chunks_mut(rows_per * n)
                    .zip(dn[..n].par_chunks(rows_per))
                    .zip(slots.par_iter_mut())
                    .for_each(|((seg, dns), acc)| acc.changed = resolve_rows(seg, dns, n));
                (slots.iter().map(|c| c.changed).sum(), count)
            }
        };
        // The column-0 cell of each square row reads that row's D_N cell.
        KernelReport {
            grid: Some(dn_row(n, 1)),
            ..KernelReport::sequential(n, n as u64, changed).with_workers(workers)
        }
    }

    /// Generation 6: keep `d = T(col)` only where `col` is a member of
    /// component `row` (`C(col) = row`, read from `D_N`) and its candidate
    /// differs from `row`; else `∞`.
    fn filter_members(&mut self, par: Option<ParPolicy>) -> KernelReport {
        let n = self.n;
        let wpr = self.hfield.words_per_row;
        // One O(n) pass turns the n² membership tests into a packed row
        // mask the word-walk can zero-skip (D_N is read-only for this
        // generation).
        swar::build_member_mask(&mut self.member_mask, &self.hfield.d[n * n..], n, wpr);
        let mask = &self.member_mask;
        let occ = &mut self.occ;
        let square = &mut self.hfield.d[..n * n];
        let run = |seg: &mut [Word], occ_seg: &mut [AdjWord], base_row: usize| {
            swar::filter_member_rows(seg, occ_seg, mask, base_row, n, wpr)
        };
        let (changed, workers) = match plan_rows(par, n * n, n, n) {
            None => (run(square, occ, 0), 1),
            Some(rows_per) => {
                let count = n.div_ceil(rows_per);
                let slots = chunk_slots(&mut self.chunks, count, None);
                square
                    .par_chunks_mut(rows_per * n)
                    .zip(occ.par_chunks_mut(rows_per * wpr))
                    .zip(slots.par_iter_mut())
                    .enumerate()
                    .for_each(|(ci, ((seg, occ_seg), acc))| {
                        acc.changed = run(seg, occ_seg, ci * rows_per);
                    });
                (slots.iter().map(|c| c.changed).sum(), count)
            }
        };
        KernelReport {
            active: n * n,
            reads: (n * n) as u64,
            changed,
            evaluated: n * n,
            workers,
            // All n square rows read D_N[col] in column `col`.
            grid: Some(dn_row(n, n)),
        }
    }

    /// Generation 9: spread `T(row)` (column 0) across each square row and
    /// save `T` into `D_N`. Column 0 itself is never written, so both fills
    /// read stable sources; the `D_N` save of row `k` reads only row `k`'s
    /// column 0, keeping the fused per-row form race-free under row
    /// partitioning.
    fn copy_and_save_t(&mut self, par: Option<ParPolicy>) -> KernelReport {
        let n = self.n;
        let (square, dn) = self.hfield.d.split_at_mut(n * n);
        let (changed, workers) = match plan_rows(par, n * n, n, n) {
            None => (copy_save_rows(square, dn, n), 1),
            Some(rows_per) => {
                let count = n.div_ceil(rows_per);
                let slots = chunk_slots(&mut self.chunks, count, None);
                square
                    .par_chunks_mut(rows_per * n)
                    .zip(dn[..n].par_chunks_mut(rows_per))
                    .zip(slots.par_iter_mut())
                    .for_each(|((seg, dns), acc)| acc.changed = copy_save_rows(seg, dns, n));
                (slots.iter().map(|c| c.changed).sum(), count)
            }
        };
        KernelReport {
            active: n * n,
            reads: (n * n) as u64,
            changed,
            evaluated: n * n,
            workers,
            // Column 0 of row `row` is read by the row's n − 1 other
            // cells and by D_N[row].
            grid: Some(column_zero(n, n)),
        }
    }

    /// Counter capacity of every buffer held for read accounting: the
    /// footprint's slots and each chunk's label histogram.
    #[cfg(test)]
    pub(crate) fn accounting_capacities(&self) -> Vec<usize> {
        std::iter::once(self.footprint.capacity())
            .chain(self.chunks.iter().map(|c| c.hist.capacity()))
            .collect()
    }

    /// Records a pointer chase's footprint: the first `count` chunks'
    /// per-label histograms summed into one counter per label `d ≤ n`,
    /// the reads of cell `d·n + offset`.
    fn record_chase(&mut self, offset: usize, count: usize) {
        let n = self.n;
        let counts = self
            .footprint
            .set_slots(self.hfield.d.len(), n, offset, n + 1);
        for chunk in &self.chunks[..count] {
            for (total, &c) in counts.iter_mut().zip(&chunk.hist) {
                *total += c;
            }
        }
    }

    /// Copies column 0 of the square field into the ping label buffer —
    /// the entry point of a fused pointer-jump sequence.
    pub fn gather_labels(&mut self) {
        let n = self.n;
        let d = &self.hfield.d;
        self.labels.clear();
        self.labels.extend((0..n).map(|j| d[j * n]));
    }

    /// Writes the ping label buffer back into column 0 of the square field —
    /// the exit point of a fused pointer-jump sequence. Committed
    /// sub-generations stay visible even when a later one failed, matching
    /// the generic engine (a failed step leaves the previous generation in
    /// place).
    pub fn scatter_labels(&mut self) {
        let n = self.n;
        for (j, &v) in self.labels.iter().enumerate() {
            self.hfield.d[j * n] = v;
        }
    }

    /// One pointer-jump sub-generation over the gathered labels:
    /// `C(i) ← C(C(i))`, computed into the pong buffer and swapped on
    /// success. The field is only consulted for the `d = n` corner (the
    /// data-dependent pointer then lands on `D_N[0]`, which this generation
    /// never writes) and for bounds reporting.
    pub fn jump_once(
        &mut self,
        ctx: &StepCtx,
        counting: bool,
        par: Option<ParPolicy>,
    ) -> Result<KernelReport, GcaError> {
        let n = self.n;
        let len = self.hfield.d.len();
        let dn0 = if len > n * n {
            self.hfield.d[n * n]
        } else {
            INFINITY
        };
        let plan = plan_rows(par, n, n, 1);
        let rows_per = plan.unwrap_or(n.max(1));
        let count = n.div_ceil(rows_per.max(1)).max(1);
        let hist_len = counting.then_some(n + 1);
        {
            let slots = chunk_slots(&mut self.chunks, count, hist_len);
            let labels = &self.labels;
            let out = &mut self.labels_next[..n];
            let run = |base: usize, seg: &mut [Word], acc: &mut ChunkReport| {
                let hist = if counting {
                    Some(acc.hist.as_mut_slice())
                } else {
                    None
                };
                match jump_rows(seg, base, labels, dn0, n, len, ctx.generation, hist) {
                    Ok(c) => acc.changed = c,
                    Err(e) => acc.error = Some(e),
                }
            };
            if plan.is_none() {
                run(0, out, &mut slots[0]);
            } else {
                out.par_chunks_mut(rows_per)
                    .zip(slots.par_iter_mut())
                    .enumerate()
                    .for_each(|(ci, (seg, acc))| run(ci * rows_per, seg, acc));
            }
        }
        // Chunks are ordered by row range, and each reports its first
        // error, so the first erroring chunk carries the globally smallest
        // erroring cell — the same error the sequential loop raises.
        for ci in 0..count {
            if let Some(e) = self.chunks[ci].error.take() {
                return Err(e);
            }
        }
        let changed: usize = self.chunks[..count].iter().map(|c| c.changed).sum();
        if counting {
            // Label `d` points at column 0 of row `d` (`D_N[0]` for d = n).
            self.record_chase(0, count);
        }
        std::mem::swap(&mut self.labels, &mut self.labels_next);
        Ok(KernelReport::sequential(n, n as u64, changed).with_workers(if plan.is_some() {
            count
        } else {
            1
        }))
    }

    /// Generation 11: `C(i) ← min(C(i), T(C(i)))`, reading column 1 of row
    /// `C(i)` (which still holds the pre-jump `T`). Computed gather →
    /// per-row min into the pong buffer → scatter: the data-dependent
    /// target `d·n + 1` is never in column 0 (for `n = 1` it lands in
    /// `D_N`, also unwritten), so the whole data plane stays read-shared
    /// during the compute and the column-0 writes land only on success.
    fn final_min(
        &mut self,
        ctx: &StepCtx,
        counting: bool,
        par: Option<ParPolicy>,
    ) -> Result<KernelReport, GcaError> {
        let n = self.n;
        let len = self.hfield.d.len();
        self.gather_labels();
        let plan = plan_rows(par, n, n, 1);
        let rows_per = plan.unwrap_or(n.max(1));
        let count = n.div_ceil(rows_per.max(1)).max(1);
        let hist_len = counting.then_some(n + 1);
        {
            let slots = chunk_slots(&mut self.chunks, count, hist_len);
            let labels = &self.labels;
            let d = &self.hfield.d;
            let out = &mut self.labels_next[..n];
            let run = |base: usize, seg: &mut [Word], acc: &mut ChunkReport| {
                let hist = if counting {
                    Some(acc.hist.as_mut_slice())
                } else {
                    None
                };
                match final_min_rows(seg, base, labels, d, n, len, ctx.generation, hist) {
                    Ok(c) => acc.changed = c,
                    Err(e) => acc.error = Some(e),
                }
            };
            if plan.is_none() {
                run(0, out, &mut slots[0]);
            } else {
                out.par_chunks_mut(rows_per)
                    .zip(slots.par_iter_mut())
                    .enumerate()
                    .for_each(|(ci, (seg, acc))| run(ci * rows_per, seg, acc));
            }
        }
        // First error by chunk (row) order = globally smallest erroring
        // cell, like the sequential loop. On error nothing is scattered:
        // the field stays on its previous generation.
        for ci in 0..count {
            if let Some(e) = self.chunks[ci].error.take() {
                return Err(e);
            }
        }
        let changed: usize = self.chunks[..count].iter().map(|c| c.changed).sum();
        if counting {
            // Label `d` points at column 1 of row `d`.
            self.record_chase(1, count);
        }
        for (j, &v) in self.labels_next[..n].iter().enumerate() {
            self.hfield.d[j * n] = v;
        }
        Ok(KernelReport::sequential(n, n as u64, changed).with_workers(if plan.is_some() {
            count
        } else {
            1
        }))
    }
}

impl KernelReport {
    fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }
}

// ---------------------------------------------------------------------------
// Scalar row-range bodies. Each operates on a contiguous slice of whole
// rows; the sequential path passes the full range, the parallel path
// disjoint `par_chunks_mut` partitions. `init_rows`, `resolve_rows`,
// `copy_save_rows`, `jump_rows` and `final_min_rows` are executed as they
// stand. The others are off the exec path: public as verification
// surface, they ARE the per-cell reference semantics that the unit tests
// below and `gca-analysis`'s lane verifier check the SWAR bodies of
// `crate::swar` against, lane by lane (DESIGN.md §15).
// ---------------------------------------------------------------------------

/// `d ← base_row + local_row` over whole rows (generation 0).
pub fn init_rows(seg: &mut [Word], base_row: usize, n: usize) -> usize {
    let mut changed = 0;
    for (r, row) in seg.chunks_mut(n).enumerate() {
        let v = (base_row + r) as Word;
        for cell in row {
            changed += usize::from(*cell != v);
            *cell = v;
        }
    }
    changed
}

/// Fills whole rows with the gathered column-0 vector (generations 1, 5).
pub fn broadcast_rows(seg: &mut [Word], labels: &[Word]) -> usize {
    let mut changed = 0;
    for row in seg.chunks_mut(labels.len().max(1)) {
        for (cell, &v) in row.iter_mut().zip(labels) {
            changed += usize::from(*cell != v);
            *cell = v;
        }
    }
    changed
}

/// Generation 2 over whole rows: reads are the row's `D_N` entry and the
/// immutable adjacency plane — both disjoint from the square writes.
pub fn filter_neighbor_rows(
    seg: &mut [Word],
    a: &[AdjWord],
    dn: &[Word],
    base_row: usize,
    n: usize,
    wpr: usize,
) -> usize {
    let mut changed = 0;
    for (r, row) in seg.chunks_mut(n).enumerate() {
        let row_idx = base_row + r;
        let c_row = dn[row_idx];
        for (col, cell) in row.iter_mut().enumerate() {
            if !(a_bit(a, wpr, row_idx, col) && *cell != c_row) {
                changed += usize::from(*cell != INFINITY);
                *cell = INFINITY;
            }
        }
    }
    changed
}

/// Generations 3 and 7 over whole rows: strictly row-local reads/writes.
pub fn min_reduce_rows(seg: &mut [Word], stride: usize, n: usize) -> usize {
    let mut changed = 0;
    for row in seg.chunks_mut(n) {
        let mut col = 0;
        while col + stride < n {
            let neigh = row[col + stride];
            if neigh < row[col] {
                row[col] = neigh;
                changed += 1;
            }
            col += stride << 1;
        }
    }
    changed
}

/// Generations 4 and 8 over whole rows: each row writes only its own
/// column-0 cell and reads only its own `D_N` entry.
pub fn resolve_rows(seg: &mut [Word], dn: &[Word], n: usize) -> usize {
    let mut changed = 0;
    for (r, &saved) in dn.iter().enumerate() {
        let cell = &mut seg[r * n];
        if *cell == INFINITY {
            changed += usize::from(saved != INFINITY);
            *cell = saved;
        }
    }
    changed
}

/// Generation 6 over whole rows: reads only the (unwritten) `D_N` plane.
pub fn filter_member_rows(seg: &mut [Word], dn: &[Word], base_row: usize, n: usize) -> usize {
    let mut changed = 0;
    for (r, row) in seg.chunks_mut(n).enumerate() {
        let j = (base_row + r) as Word;
        for (col, cell) in row.iter_mut().enumerate() {
            if !(dn[col] == j && *cell != j) {
                changed += usize::from(*cell != INFINITY);
                *cell = INFINITY;
            }
        }
    }
    changed
}

/// Generation 9, fused per row: save `T(row)` (the row's column 0, never
/// written) into the row's `D_N` slot, then fill columns `1..` with it.
pub fn copy_save_rows(seg: &mut [Word], dn: &mut [Word], n: usize) -> usize {
    let mut changed = 0;
    for (r, row) in seg.chunks_mut(n).enumerate() {
        let t = row[0];
        changed += usize::from(dn[r] != t);
        dn[r] = t;
        for cell in &mut row[1..] {
            changed += usize::from(*cell != t);
            *cell = t;
        }
    }
    changed
}

/// One pointer-jump sub-generation over a segment of the pong buffer.
/// `hist` (when counting) is the compact per-label histogram: slot `d`
/// accumulates the reads of field cell `d·n`.
#[allow(clippy::too_many_arguments)]
pub fn jump_rows(
    seg: &mut [Word],
    base: usize,
    labels: &[Word],
    dn0: Word,
    n: usize,
    len: usize,
    generation: u64,
    mut hist: Option<&mut [u32]>,
) -> Result<usize, GcaError> {
    let mut changed = 0;
    for (k, slot) in seg.iter_mut().enumerate() {
        let i = base + k;
        let d = labels[i] as usize;
        if d.checked_mul(n).filter(|&t| t < len).is_none() {
            return Err(GcaError::PointerOutOfRange {
                cell: i * n,
                target: d.saturating_mul(n),
                len,
                generation,
            });
        }
        // target = d·n is column 0 of row d when d < n; the only other
        // in-range multiple of n is n² = D_N[0].
        let v = if d < n { labels[d] } else { dn0 };
        if let Some(h) = hist.as_deref_mut() {
            h[d] += 1;
        }
        changed += usize::from(v != labels[i]);
        *slot = v;
    }
    Ok(changed)
}

/// Generation 11 over a segment of the pong buffer: `min(C(i), T(C(i)))`
/// with `T` read from the shared data plane (column 1, never written).
/// `hist` slot `d` accumulates the reads of field cell `d·n + 1`.
#[allow(clippy::too_many_arguments)]
pub fn final_min_rows(
    seg: &mut [Word],
    base: usize,
    labels: &[Word],
    d_plane: &[Word],
    n: usize,
    len: usize,
    generation: u64,
    mut hist: Option<&mut [u32]>,
) -> Result<usize, GcaError> {
    let mut changed = 0;
    for (k, slot) in seg.iter_mut().enumerate() {
        let row = base + k;
        let cur = labels[row];
        let d = cur as usize;
        let target = d
            .checked_mul(n)
            .and_then(|t| t.checked_add(1))
            .filter(|&t| t < len)
            .ok_or_else(|| GcaError::PointerOutOfRange {
                cell: row * n,
                target: d.saturating_mul(n).saturating_add(1),
                len,
                generation,
            })?;
        let t = d_plane[target];
        if let Some(h) = hist.as_deref_mut() {
            h[d] += 1;
        }
        if t < cur {
            *slot = t;
            changed += 1;
        } else {
            *slot = cur;
        }
    }
    Ok(changed)
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

    /// Runs the scalar reference body of generation `gen` (sub-generation
    /// `sub`) over a copy `d` of the data plane, returning its `changed`
    /// tally; `None` for the generations whose scalar bodies the executor
    /// runs itself.
    fn scalar_reference(
        gen: Gen,
        sub: u32,
        d: &mut [Word],
        a: &[AdjWord],
        n: usize,
        wpr: usize,
    ) -> Option<usize> {
        let labels: Vec<Word> = (0..n).map(|j| d[j * n]).collect();
        let (square, dn) = d.split_at_mut(n * n);
        Some(match gen {
            Gen::BroadcastC => broadcast_rows(square, &labels) + broadcast_rows(dn, &labels),
            Gen::BroadcastT => broadcast_rows(square, &labels),
            Gen::FilterNeighbors => filter_neighbor_rows(square, a, dn, 0, n, wpr),
            Gen::MinReduce | Gen::MinReduceMembers => min_reduce_rows(square, 1 << sub, n),
            Gen::FilterMembers => filter_member_rows(square, dn, 0, n),
            _ => return None,
        })
    }

    #[test]
    fn swar_kernels_match_scalar_on_multiword_rows() {
        // The executor's SWAR bodies against the scalar reference bodies,
        // generation by generation from the same plane. n = 70 exercises
        // wpr = 2 adjacency words per row plus a zero tail — geometry the
        // n ≤ 64 property corpus cannot reach — and the occupancy-guided
        // reductions of the filter → min-reduce windows.
        let n = 70usize;
        let g = gca_graphs::generators::gnp(n, 0.13, 99);
        let mut exec = FusedExecutor::new(n);
        exec.field_mut().fill(&g).unwrap();
        let wpr = exec.hfield.words_per_row;
        let a = exec.hfield.a.clone();
        let mut checked = 0;
        for (generation, &(phase, sub)) in [
            (Gen::Init, 0u32),
            (Gen::BroadcastC, 0),
            (Gen::FilterNeighbors, 0),
            (Gen::MinReduce, 0),
            (Gen::MinReduce, 1),
            (Gen::MinReduce, 3),
            (Gen::MinReduce, 6),
            (Gen::ResolveIsolated, 0),
            (Gen::BroadcastT, 0),
            (Gen::FilterMembers, 0),
            (Gen::MinReduceMembers, 0),
            (Gen::ResolveMembers, 0),
            (Gen::CopyAndSaveT, 0),
            (Gen::PointerJump, 0),
            (Gen::FinalMin, 0),
        ]
        .iter()
        .enumerate()
        {
            let ctx = StepCtx {
                generation: generation as u64,
                phase: phase.number(),
                subgeneration: sub,
            };
            let mut want = exec.hfield.d.clone();
            let want_changed = scalar_reference(phase, sub, &mut want, &a, n, wpr);
            let rep = exec.step(phase, &ctx, true, None).unwrap();
            if let Some(changed) = want_changed {
                assert_eq!(exec.hfield.d, want, "{phase:?}/{sub} plane");
                assert_eq!(rep.changed, changed, "{phase:?}/{sub} changed");
                checked += 1;
            }
        }
        assert_eq!(checked, 9, "every SWAR body was compared");
    }

    #[test]
    fn remainder_partitions_cover_every_row() {
        // workers = 3 over 8 rows → chunks of 3, 3, 2 rows.
        let n = 8;
        let mut exec = FusedExecutor::new(n);
        for (i, v) in exec.hfield.d.iter_mut().enumerate() {
            *v = i as Word;
        }
        let before = exec.hfield.d.clone();
        let par = Some(ParPolicy {
            workers: 3,
            threshold: 0,
            explicit: true,
        });
        let rep = exec.init(par);
        assert_eq!(rep.workers, 3);
        for (i, &v) in exec.hfield.d.iter().enumerate() {
            assert_eq!(v as usize, i / n, "row value at {i}");
        }
        assert_eq!(
            rep.changed,
            before
                .iter()
                .enumerate()
                .filter(|&(i, &v)| v as usize != i / n)
                .count()
        );
    }
}
