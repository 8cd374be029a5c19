//! Activity and congestion accounting (the quantities of Table 1).
//!
//! The duration of a GCA generation in hardware is bounded from below by the
//! **congestion** δ of the most-read cell: if δ cells read the same target,
//! a physical interconnect needs (absent replication or tree distribution)
//! δ sequential transfers, or a tree of depth `log δ`. The paper tabulates,
//! per generation, how many cells are *active* (perform a calculation), how
//! many cells are *read*, and with which δ. This module computes those
//! numbers from the access patterns the engine observes.

use crate::{Access, StepCtx};
use std::collections::BTreeMap;

/// Per-target concurrent-read counts for one generation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CongestionHistogram {
    reads: Vec<u32>,
}

impl CongestionHistogram {
    /// Builds the histogram from every cell's access in one generation.
    pub fn from_accesses<'a>(len: usize, accesses: impl IntoIterator<Item = &'a Access>) -> Self {
        let mut reads = vec![0u32; len];
        for a in accesses {
            for t in a.targets() {
                reads[t] += 1;
            }
        }
        CongestionHistogram { reads }
    }

    /// Wraps a prebuilt per-target read-count vector (index = cell, value =
    /// concurrent readers). This is how the engine hands out its reusable
    /// accumulation scratch without re-walking the access list.
    pub fn from_reads(reads: Vec<u32>) -> Self {
        CongestionHistogram { reads }
    }

    /// Consumes the histogram, returning the underlying per-target read
    /// counts — the inverse of [`CongestionHistogram::from_reads`], used to
    /// recycle report buffers back into engine scratch.
    pub fn into_reads(self) -> Vec<u32> {
        self.reads
    }

    /// Number of cells in the field.
    #[inline]
    pub fn len(&self) -> usize {
        self.reads.len()
    }

    /// `true` iff the field had no cells.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.reads.is_empty()
    }

    /// Concurrent reads that targeted cell `index`.
    #[inline]
    pub fn reads_of(&self, index: usize) -> u32 {
        self.reads[index]
    }

    /// The maximum congestion δ over all cells — the quantity that bounds
    /// the generation's duration from below.
    pub fn max_congestion(&self) -> u32 {
        self.reads.iter().copied().max().unwrap_or(0)
    }

    /// Total number of global reads performed.
    pub fn total_reads(&self) -> u64 {
        self.reads.iter().map(|&r| u64::from(r)).sum()
    }

    /// Number of cells read at least once.
    pub fn cells_read(&self) -> usize {
        self.reads.iter().filter(|&&r| r > 0).count()
    }

    /// Groups cells by their δ: returns `δ → number of cells with exactly
    /// that many concurrent readers`, **including** the δ = 0 group. This is
    /// the exact shape of Table 1's `# cells / δ` column pairs.
    pub fn groups(&self) -> BTreeMap<u32, usize> {
        let mut m = BTreeMap::new();
        for &r in &self.reads {
            *m.entry(r).or_insert(0usize) += 1;
        }
        m
    }

    /// The cells with the maximal δ (useful in diagnostics: *which* cell is
    /// the hot spot).
    pub fn hottest_cells(&self) -> Vec<usize> {
        let max = self.max_congestion();
        if max == 0 {
            return Vec::new();
        }
        self.reads
            .iter()
            .enumerate()
            .filter(|(_, &r)| r == max)
            .map(|(i, _)| i)
            .collect()
    }
}

/// One generation's worth of Table-1 accounting.
#[derive(Clone, Debug, PartialEq)]
pub struct GenerationMetrics {
    /// The control context the generation executed under.
    pub ctx: StepCtx,
    /// Cells that performed a calculation ([`crate::GcaRule::is_active`]).
    pub active_cells: usize,
    /// Total global reads issued.
    pub total_reads: u64,
    /// Distinct cells read at least once.
    pub cells_read: usize,
    /// Maximum concurrent reads on a single cell.
    pub max_congestion: u32,
    /// Full δ grouping (δ → cell count), including δ = 0.
    pub congestion_groups: BTreeMap<u32, usize>,
}

impl GenerationMetrics {
    /// Assembles the metrics from a histogram and an active-cell count.
    pub fn new(ctx: StepCtx, active_cells: usize, hist: &CongestionHistogram) -> Self {
        GenerationMetrics {
            ctx,
            active_cells,
            total_reads: hist.total_reads(),
            cells_read: hist.cells_read(),
            max_congestion: hist.max_congestion(),
            congestion_groups: hist.groups(),
        }
    }

    /// Assembles the metrics straight from a compact [`ReadFootprint`], in
    /// time proportional to the footprint rather than the field.
    ///
    /// Equal to [`GenerationMetrics::new`] over
    /// [`ReadFootprint::to_histogram`]: every read cell lands in its δ
    /// group, and the δ = 0 group is the field size minus the cells read.
    pub fn from_footprint(ctx: StepCtx, active_cells: usize, footprint: &ReadFootprint) -> Self {
        let mut groups = BTreeMap::new();
        let mut cells_read = 0usize;
        let mut total_reads = 0u64;
        let mut add = |delta: u32, cells: usize| {
            if delta > 0 && cells > 0 {
                *groups.entry(delta).or_insert(0usize) += cells;
                cells_read += cells;
                total_reads += u64::from(delta) * cells as u64;
            }
        };
        match footprint.targets {
            Targets::Grid(grid) => match footprint.extra {
                Some(i) if grid.contains(i) => {
                    add(grid.delta, grid.cells() - 1);
                    add(grid.delta + 1, 1);
                }
                extra => {
                    add(grid.delta, grid.cells());
                    add(u32::from(extra.is_some()), 1);
                }
            },
            Targets::Slots { .. } => {
                let hot = footprint.extra.and_then(|i| footprint.slot_of(i));
                for (k, &c) in footprint.counts.iter().enumerate() {
                    add(c + u32::from(hot == Some(k)), 1);
                }
                add(u32::from(footprint.extra.is_some() && hot.is_none()), 1);
            }
        }
        if footprint.len > cells_read {
            groups.insert(0, footprint.len - cells_read);
        }
        GenerationMetrics {
            ctx,
            active_cells,
            total_reads,
            cells_read,
            max_congestion: groups.keys().next_back().copied().unwrap_or(0),
            congestion_groups: groups,
        }
    }
}

/// A static family of distinct read targets, each read exactly `delta`
/// times in one generation: the cells `start + r·row_step + c·col_step`
/// for `r < rows` and `c < cols`.
///
/// The cells are distinct when one row's run fits inside a row step
/// (`(cols − 1)·col_step < row_step` if `rows > 1`) and `col_step ≥ 1` if
/// `cols > 1`. Every statically addressed generation of a GCA whose
/// pointers depend only on the cell position has a target set of this
/// shape: a column (`rows` cells one row step apart), a row (one run of
/// consecutive cells), or a strided run repeated on every row.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct TargetGrid {
    /// The first target cell.
    pub start: usize,
    /// Number of runs.
    pub rows: usize,
    /// Distance between the first cells of consecutive runs.
    pub row_step: usize,
    /// Target cells per run.
    pub cols: usize,
    /// Distance between consecutive cells of one run.
    pub col_step: usize,
    /// Concurrent reads on every target cell.
    pub delta: u32,
}

impl TargetGrid {
    /// Number of distinct cells read (zero when `delta` is zero).
    fn cells(&self) -> usize {
        if self.delta == 0 {
            0
        } else {
            self.rows * self.cols
        }
    }

    /// Whether cell `i` is one of the targets.
    fn contains(&self, i: usize) -> bool {
        let Some(off) = i.checked_sub(self.start).filter(|_| self.cells() > 0) else {
            return false;
        };
        let (row, rem) = if self.rows > 1 {
            match (
                off.checked_div(self.row_step),
                off.checked_rem(self.row_step),
            ) {
                (Some(row), Some(rem)) => (row, rem),
                _ => return false,
            }
        } else {
            (0, off)
        };
        let in_run = if self.cols > 1 {
            rem.checked_rem(self.col_step) == Some(0)
                && rem
                    .checked_div(self.col_step)
                    .is_some_and(|c| c < self.cols)
        } else {
            rem == 0
        };
        row < self.rows && in_run
    }

    /// The target cells in increasing order.
    fn targets(&self) -> impl Iterator<Item = usize> + '_ {
        let (rows, cols) = if self.delta == 0 {
            (0, 0)
        } else {
            (self.rows, self.cols)
        };
        (0..rows).flat_map(move |r| {
            (0..cols).map(move |c| self.start + r * self.row_step + c * self.col_step)
        })
    }
}

/// Where a [`ReadFootprint`]'s reads land.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Targets {
    /// A static target family.
    Grid(TargetGrid),
    /// Data-dependent targets: counter slot `k` holds the reads of cell
    /// `k·stride + offset`.
    Slots { stride: usize, offset: usize },
}

/// One generation's reads in compact form: the target set and its δ,
/// instead of a read count for every cell of the field.
///
/// A statically addressed generation is one [`TargetGrid`], recorded in
/// O(1). A data-dependent generation whose pointers land on one of a few
/// candidate cells (a pointer chase over labels `0..=n` lands on the
/// cells `d·n + offset`) is one counter per candidate, recorded in O(n).
/// Either way every cell outside the target set was read zero times, so
/// [`GenerationMetrics::from_footprint`] gets the δ = 0 group by
/// subtraction and never walks the field.
///
/// The footprint also carries a one-slot overlay: [`ReadFootprint::bump`]
/// adds one read on one cell on top of the targets. It is the surface of
/// the fault classes that corrupt read accounting rather than data.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReadFootprint {
    len: usize,
    targets: Targets,
    counts: Vec<u32>,
    extra: Option<usize>,
}

impl Default for ReadFootprint {
    fn default() -> Self {
        ReadFootprint {
            len: 0,
            targets: Targets::Grid(TargetGrid::default()),
            counts: Vec::new(),
            extra: None,
        }
    }
}

impl ReadFootprint {
    /// An empty footprint over an empty field.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a statically addressed generation over a field of `len`
    /// cells: exactly the cells of `grid` were read, each `grid.delta`
    /// times. Clears the overlay.
    pub fn set_grid(&mut self, len: usize, grid: TargetGrid) {
        self.len = len;
        self.targets = Targets::Grid(grid);
        self.counts.clear();
        self.extra = None;
    }

    /// Records a data-dependent generation over a field of `len` cells
    /// whose reads can only land on the cells `k·stride + offset`,
    /// `k < slots`, and returns the `slots` zeroed counters for the caller
    /// to fill: slot `k` counts the reads of cell `k·stride + offset`.
    /// `stride` must be at least 1, and a slot whose cell lies outside
    /// the field must stay zero. Clears the overlay.
    pub fn set_slots(
        &mut self,
        len: usize,
        stride: usize,
        offset: usize,
        slots: usize,
    ) -> &mut [u32] {
        self.len = len;
        self.targets = Targets::Slots { stride, offset };
        self.counts.clear();
        self.counts.resize(slots, 0);
        self.extra = None;
        &mut self.counts
    }

    /// Adds one read on cell `i` on top of the recorded targets. The
    /// overlay holds one cell per generation: a bump while it is occupied,
    /// or on a cell outside the field, is ignored.
    pub fn bump(&mut self, i: usize) {
        if i < self.len && self.extra.is_none() {
            self.extra = Some(i);
        }
    }

    /// Number of cells in the field.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff the field has no cells.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Counter slots this footprint holds allocated: zero until a
    /// data-dependent generation is recorded, then its slot count. Never
    /// proportional to the field.
    pub fn capacity(&self) -> usize {
        self.counts.capacity()
    }

    /// The counter slot of cell `i` when the targets are slots.
    fn slot_of(&self, i: usize) -> Option<usize> {
        let Targets::Slots { stride, offset } = self.targets else {
            return None;
        };
        let off = i.checked_sub(offset)?;
        let k = (off.checked_rem(stride)? == 0).then(|| off / stride)?;
        (k < self.counts.len()).then_some(k)
    }

    /// Concurrent reads that targeted cell `i` (zero outside the field).
    pub fn reads_of(&self, i: usize) -> u32 {
        if i >= self.len {
            return 0;
        }
        let base = match self.targets {
            Targets::Grid(grid) => {
                if grid.contains(i) {
                    grid.delta
                } else {
                    0
                }
            }
            Targets::Slots { .. } => self.slot_of(i).map_or(0, |k| self.counts[k]),
        };
        base + u32::from(self.extra == Some(i))
    }

    /// Expands the footprint into the full per-cell histogram, in time
    /// proportional to the field — for callers that want every cell's
    /// count, such as the single-step API.
    pub fn to_histogram(&self) -> CongestionHistogram {
        let mut reads = vec![0u32; self.len];
        match self.targets {
            Targets::Grid(grid) => {
                for t in grid.targets() {
                    if let Some(r) = reads.get_mut(t) {
                        *r = grid.delta;
                    }
                }
            }
            Targets::Slots { stride, offset } => {
                for (k, &c) in self.counts.iter().enumerate() {
                    if let Some(r) = reads.get_mut(k * stride + offset) {
                        *r = c;
                    }
                }
            }
        }
        if let Some(i) = self.extra {
            reads[i] += 1;
        }
        CongestionHistogram::from_reads(reads)
    }
}

/// An append-only log of [`GenerationMetrics`] across a run, with the
/// aggregations the experiment tables need.
#[derive(Clone, Debug, Default)]
pub struct MetricsLog {
    entries: Vec<GenerationMetrics>,
}

impl MetricsLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one generation's metrics.
    pub fn push(&mut self, m: GenerationMetrics) {
        self.entries.push(m);
    }

    /// Discards all entries, keeping the log's capacity — for reusing a
    /// machine across runs without reallocating its metrics storage.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// All recorded generations in execution order.
    pub fn entries(&self) -> &[GenerationMetrics] {
        &self.entries
    }

    /// Discards every entry past the first `generations` — the metrics
    /// half of restoring a checkpoint: under counting instrumentation the
    /// log holds exactly one entry per committed generation, so
    /// truncating to the checkpoint's generation counter makes the
    /// re-executed generations append over a clean suffix and the final
    /// log bit-identical to an undisturbed run. No-op when the log is
    /// already at or below that length.
    pub fn truncate(&mut self, generations: usize) {
        self.entries.truncate(generations);
    }

    /// Number of generations recorded.
    pub fn generations(&self) -> usize {
        self.entries.len()
    }

    /// The worst congestion over the whole run.
    pub fn max_congestion(&self) -> u32 {
        self.entries.iter().map(|e| e.max_congestion).max().unwrap_or(0)
    }

    /// Sum of global reads over the whole run.
    pub fn total_reads(&self) -> u64 {
        self.entries.iter().map(|e| e.total_reads).sum()
    }

    /// Sum of active cells over the whole run (a work measure).
    pub fn total_active(&self) -> u64 {
        self.entries.iter().map(|e| e.active_cells as u64).sum()
    }

    /// Entries belonging to a particular algorithm phase.
    pub fn phase_entries(&self, phase: u32) -> impl Iterator<Item = &GenerationMetrics> {
        self.entries.iter().filter(move |e| e.ctx.phase == phase)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> StepCtx {
        StepCtx::at_phase(0)
    }

    #[test]
    fn histogram_from_accesses() {
        let accesses = [
            Access::One(0),
            Access::One(0),
            Access::Two(0, 2),
            Access::None,
        ];
        let h = CongestionHistogram::from_accesses(4, accesses.iter());
        assert_eq!(h.reads_of(0), 3);
        assert_eq!(h.reads_of(1), 0);
        assert_eq!(h.reads_of(2), 1);
        assert_eq!(h.max_congestion(), 3);
        assert_eq!(h.total_reads(), 4);
        assert_eq!(h.cells_read(), 2);
        assert_eq!(h.hottest_cells(), vec![0]);
    }

    #[test]
    fn from_reads_equals_from_accesses() {
        let accesses = [Access::One(0), Access::Two(0, 2), Access::None];
        let via_accesses = CongestionHistogram::from_accesses(3, accesses.iter());
        let via_reads = CongestionHistogram::from_reads(vec![2, 0, 1]);
        assert_eq!(via_accesses, via_reads);
    }

    #[test]
    fn histogram_groups_include_zero() {
        let accesses = [Access::One(1), Access::One(1)];
        let h = CongestionHistogram::from_accesses(3, accesses.iter());
        let g = h.groups();
        assert_eq!(g.get(&0), Some(&2)); // cells 0 and 2
        assert_eq!(g.get(&2), Some(&1)); // cell 1
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn empty_histogram() {
        let h = CongestionHistogram::from_accesses(0, [].iter());
        assert!(h.is_empty());
        assert_eq!(h.max_congestion(), 0);
        assert_eq!(h.hottest_cells(), Vec::<usize>::new());
    }

    #[test]
    fn generation_metrics_assembly() {
        let accesses = [Access::One(0), Access::One(0)];
        let h = CongestionHistogram::from_accesses(2, accesses.iter());
        let m = GenerationMetrics::new(ctx(), 2, &h);
        assert_eq!(m.active_cells, 2);
        assert_eq!(m.total_reads, 2);
        assert_eq!(m.cells_read, 1);
        assert_eq!(m.max_congestion, 2);
    }

    /// Every equality a footprint promises, against the histogram it
    /// expands to: per-cell counts and the assembled metrics.
    fn assert_footprint_consistent(fp: &ReadFootprint) {
        let hist = fp.to_histogram();
        assert_eq!(hist.len(), fp.len());
        for i in 0..fp.len() + 2 {
            let expect = if i < fp.len() { hist.reads_of(i) } else { 0 };
            assert_eq!(fp.reads_of(i), expect, "cell {i} of {fp:?}");
        }
        assert_eq!(
            GenerationMetrics::from_footprint(ctx(), 9, fp),
            GenerationMetrics::new(ctx(), 9, &hist),
            "{fp:?}"
        );
    }

    #[test]
    fn grid_footprints_equal_their_histograms() {
        let n = 6;
        let len = n * (n + 1);
        let grids = [
            TargetGrid::default(),
            // column 0, every cell read n + 1 times
            TargetGrid {
                start: 0,
                rows: n,
                row_step: n,
                cols: 1,
                col_step: 1,
                delta: 7,
            },
            // the last row, read once per cell
            TargetGrid {
                start: n * n,
                rows: 1,
                row_step: n,
                cols: n,
                col_step: 1,
                delta: 1,
            },
            // a tree sub-generation without partners
            TargetGrid {
                start: 8,
                rows: n,
                row_step: n,
                cols: 0,
                col_step: 16,
                delta: 1,
            },
            // tree partners col + 2 of cols ≡ 0 (mod 4)
            TargetGrid {
                start: 2,
                rows: n,
                row_step: n,
                cols: 1,
                col_step: 4,
                delta: 1,
            },
            TargetGrid {
                start: 1,
                rows: n,
                row_step: n,
                cols: 3,
                col_step: 2,
                delta: 1,
            },
        ];
        for grid in grids {
            let mut fp = ReadFootprint::new();
            fp.set_grid(len, grid);
            assert_footprint_consistent(&fp);
            for extra in [0, 1, 2, n * n, len - 1] {
                let mut bumped = fp.clone();
                bumped.bump(extra);
                assert_eq!(bumped.reads_of(extra), fp.reads_of(extra) + 1);
                assert_footprint_consistent(&bumped);
            }
        }
    }

    #[test]
    fn slot_footprints_equal_their_histograms() {
        let n = 5;
        let len = n * (n + 1);
        for offset in [0, 1] {
            let mut fp = ReadFootprint::new();
            let counts = fp.set_slots(len, n, offset, n + 1);
            counts.copy_from_slice(&[2, 0, 1, 1, 0, 1]);
            assert_footprint_consistent(&fp);
            for extra in [0, 1, n, n + 1, 2 * n, len - 1] {
                let mut bumped = fp.clone();
                bumped.bump(extra);
                assert_footprint_consistent(&bumped);
            }
            assert_eq!(fp.capacity(), n + 1);
        }
    }

    #[test]
    fn footprint_overlay_holds_one_cell() {
        let mut fp = ReadFootprint::new();
        fp.set_grid(4, TargetGrid::default());
        fp.bump(9); // outside the field: ignored
        fp.bump(2);
        fp.bump(3); // the slot is taken: ignored
        assert_eq!((fp.reads_of(2), fp.reads_of(3)), (1, 0));
        fp.set_grid(4, TargetGrid::default());
        assert_eq!(
            fp.reads_of(2),
            0,
            "recording a generation clears the overlay"
        );
        assert!(ReadFootprint::new().is_empty());
        assert_footprint_consistent(&ReadFootprint::new());
    }

    #[test]
    fn into_reads_round_trips() {
        let reads = vec![2u32, 0, 1];
        let h = CongestionHistogram::from_reads(reads.clone());
        assert_eq!(h.into_reads(), reads);
    }

    #[test]
    fn metrics_log_clear_empties() {
        let h = CongestionHistogram::from_reads(vec![1]);
        let mut log = MetricsLog::new();
        log.push(GenerationMetrics::new(ctx(), 1, &h));
        assert_eq!(log.generations(), 1);
        log.clear();
        assert_eq!(log.generations(), 0);
        assert_eq!(log.total_reads(), 0);
    }

    #[test]
    fn metrics_log_aggregation() {
        let h1 = CongestionHistogram::from_accesses(2, [Access::One(0)].iter());
        let h2 = CongestionHistogram::from_accesses(2, [Access::Two(0, 1), Access::One(0)].iter());
        let mut log = MetricsLog::new();
        log.push(GenerationMetrics::new(StepCtx::at_phase(1), 1, &h1));
        log.push(GenerationMetrics::new(StepCtx::at_phase(2), 2, &h2));
        assert_eq!(log.generations(), 2);
        assert_eq!(log.max_congestion(), 2);
        assert_eq!(log.total_reads(), 4);
        assert_eq!(log.total_active(), 3);
        assert_eq!(log.phase_entries(2).count(), 1);
        assert_eq!(log.phase_entries(9).count(), 0);
    }
}
