//! The vector sweep: one outer iteration of the schedule over O(n) state
//! ([`crate::ExecPath::Fused`]).
//!
//! Between outer iterations the whole `n(n+1)` data plane is a function of
//! two `n`-vectors. Generation 9 copies `T′` across every square row and
//! into `D_N`, and generations 10 and 11 write column 0 only, so at every
//! iteration boundary square row `r` is `[C(r), T′(r), …, T′(r)]` and
//! `D_N = T′`. Generation 1 of the next iteration overwrites every cell
//! from column 0, so an iteration's result, and its `Counts` entries,
//! depend only on `C` at its start and on the graph. The sweep runs the
//! iteration on those vectors, read from `rule.rs`:
//!
//! * generations 1–4: `T(i) = min{C(j) : A(i,j), C(j) ≠ C(i)}`, or `C(i)`
//!   if that set is empty — a set-bit walk over the graph's own packed
//!   [`AdjacencyMatrix`] row (its diagonal and row-tail bits are zero).
//!   When `C` does not decrease with the node index (the identity that
//!   generation 0 writes, say), the first set bit with another label
//!   holds the minimum and the walk stops there; one O(n) check on `C`
//!   per computed iteration decides it;
//! * generations 5–8: `T′(r) = min{T(c) : C(c) = r, T(c) ≠ r}`, or `C(r)`
//!   if that set is empty — an O(n) scatter-min;
//! * generation 9: column 0 and `D_N` take `T′`;
//! * generation 10: `⌈log₂ n⌉` jumps `C ← C∘C`;
//! * generation 11: `C(i) ← min(C(i), T′(C(i)))`.
//!
//! **Counts.** Every generation is committed in schedule order through the
//! caller's `commit` callback, which advances the engine's generation
//! counter and appends the metrics entry. Generations 0–9 are statically
//! addressed: their active count and read targets depend only on
//! `(gen, sub, n)` and come from [`static_footprint`], which the engine's
//! own accounting reproduces cell for cell. Generations 10 and 11 read
//! data-dependent targets `d·n` and `d·n + 1`; the sweep counts them in
//! one O(n) per-label histogram per generation.
//!
//! **State.** `Sweep` holds `C`, `T′` and whether `D_N` still holds the
//! `n` that generation 0 writes there (`Sweep::word` is the field those
//! vectors stand for). It also enters from the engine's field through
//! `Sweep::load_column`, since an iteration reads nothing but column 0.
//!
//! **Replay.** For the same reason an iteration that ends with the `C` it
//! started from is followed only by copies of itself. The machine records
//! such an iteration and replays it instead of calling `Sweep::iterate`
//! again: `Sweep::settle` writes its `T′` back (see
//! `Machine::run_iterations`).

use crate::{Gen, HCell};
use gca_engine::metrics::{ReadFootprint, TargetGrid};
use gca_engine::{AdjWord, GcaError, StepCtx, Word, INFINITY, WORD_BITS};
use gca_graphs::AdjacencyMatrix;

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

/// The active cell count and the read targets of a statically addressed
/// generation (0–9) at sub-generation `sub` on an `n`-node field, derived
/// from the rule's loop bounds; `None` for the pointer chases (10, 11),
/// whose targets depend on the labels.
///
/// One function for every consumer of Table 1's static rows: the sweep's
/// commits, the `Validate` cross-check (through the sweep's recorded
/// footprints) and [`crate::table1::static_row`].
pub fn static_footprint(gen: Gen, sub: u32, n: usize) -> Option<(usize, TargetGrid)> {
    Some(match gen {
        Gen::Init => (n * (n + 1), TargetGrid::default()),
        // Every one of the n + 1 rows reads each column-0 cell once.
        Gen::BroadcastC => ((n + 1) * n, column_zero(n, n + 1)),
        Gen::BroadcastT => (n * n, column_zero(n, n)),
        // All n cells of square row `row` read D_N[row] (generation 2), or
        // all n square rows read D_N[col] in column `col` (generation 6).
        Gen::FilterNeighbors | Gen::FilterMembers => (n * n, dn_row(n, n)),
        // Every row: the partners `col + 2^s` of the participating columns
        // `col ≡ 0 (mod 2^{s+1})`, one read each.
        Gen::MinReduce | Gen::MinReduceMembers => {
            let stride = 1usize << sub;
            let per_row = if n > stride {
                (n - stride - 1) / (stride << 1) + 1
            } else {
                0
            };
            let grid = TargetGrid {
                start: stride,
                rows: n,
                row_step: n,
                cols: per_row,
                col_step: stride << 1,
                delta: 1,
            };
            (n * per_row, grid)
        }
        // The column-0 cell of each square row reads that row's D_N cell.
        Gen::ResolveIsolated | Gen::ResolveMembers => (n, dn_row(n, 1)),
        // Column 0 of row `row` is read by the row's n − 1 other cells and
        // by D_N[row].
        Gen::CopyAndSaveT => (n * n, column_zero(n, n)),
        Gen::PointerJump | Gen::FinalMin => return None,
    })
}

/// A deliberate sweep bug, planted by tests to show that the `Validate`
/// cross-check catches it. Each fires once.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepFault {
    /// Flip bit 0 of `T′(row)` once the member-min has run.
    FlipT(usize),
}

/// The O(n) state of the fused path and the buffers one iteration needs.
#[derive(Clone, Debug, Default)]
pub(crate) struct Sweep {
    n: usize,
    /// `C`: column 0 of the square field.
    c: Vec<Word>,
    /// `T′`: columns `1..n` of every square row and, unless `fresh`, the
    /// `D_N` row.
    t: Vec<Word>,
    /// Generation 0 ran and no iteration since: `D_N` holds `n`.
    fresh: bool,
    /// The neighbour-min `T`, then the pong buffer of the chases.
    next: Vec<Word>,
    /// The reads of the last chase, when counting.
    footprint: ReadFootprint,
    /// A planted bug (see [`SweepFault`]).
    fault: Option<SweepFault>,
}

impl Sweep {
    /// The all-zero state of an `n`-node field before generation 0.
    pub fn new(n: usize) -> Self {
        Sweep {
            n,
            c: vec![0; n],
            t: vec![0; n],
            next: vec![0; n],
            ..Sweep::default()
        }
    }

    /// Returns to the all-zero state before generation 0.
    pub fn reset(&mut self) {
        self.c.fill(0);
        self.t.fill(0);
        self.fresh = false;
    }

    /// Generation 0: `d ← row(index)` everywhere, so `C = T′ = (0..n)` and
    /// `D_N` holds `n`.
    pub fn init(&mut self) {
        for (i, (c, t)) in self.c.iter_mut().zip(&mut self.t).enumerate() {
            // The layout caps n below u32::MAX.
            *c = i as Word; // gca-lint: allow(truncating-cast)
            *t = i as Word; // gca-lint: allow(truncating-cast)
        }
        self.fresh = true;
    }

    /// `C`, column 0 of the field.
    pub fn labels(&self) -> &[Word] {
        &self.c
    }

    /// `T′`, columns `1..n` of every square row.
    pub fn t(&self) -> &[Word] {
        &self.t
    }

    /// The state an iteration that leaves `C` unchanged ends in: `T′`
    /// becomes `t`, and `D_N` holds it too.
    pub fn settle(&mut self, t: &[Word]) {
        self.t.copy_from_slice(t);
        self.fresh = false;
    }

    /// Takes `C` from column 0 of the engine's cells: the only input of
    /// the next iteration.
    pub fn load_column(&mut self, cells: &[HCell]) {
        let n = self.n;
        for (r, c) in self.c.iter_mut().enumerate() {
            *c = cells[r * n].d;
        }
    }

    /// The data word of field cell `(row, col)`.
    #[inline]
    pub fn word(&self, row: usize, col: usize) -> Word {
        field_word(&self.c, &self.t, self.fresh, row, col)
    }

    /// Plants a sweep bug for the next iteration (tests only).
    pub fn seed_fault(&mut self, fault: SweepFault) {
        self.fault = Some(fault);
    }

    /// Whether a planted bug has yet to fire.
    pub fn faulted(&self) -> bool {
        self.fault.is_some()
    }

    /// Counter capacity of the buffers held for read accounting.
    #[cfg(test)]
    pub fn accounting_capacity(&self) -> usize {
        self.footprint.capacity()
    }

    /// Runs one outer iteration from `C`: generations 1–11 with their
    /// sub-generations, numbered from `start`. Each committed generation
    /// is passed to `commit` with its context, active cell count and read
    /// footprint (the chases' footprints are filled only when `counting`).
    /// Under `detect`, pointer jumping stops after a sub-generation that
    /// changed no label. A pointer out of the field fails that generation
    /// without committing it and leaves the state the committed ones
    /// produced, as the engine does.
    pub fn iterate(
        &mut self,
        graph: &AdjacencyMatrix,
        start: u64,
        detect: bool,
        counting: bool,
        commit: &mut dyn FnMut(StepCtx, usize, &ReadFootprint),
    ) -> Result<(), GcaError> {
        let n = self.n;
        let len = n * (n + 1);
        let mut generation = start;
        let mut ctx = |gen: Gen, sub: u32| {
            let ctx = StepCtx {
                generation,
                phase: gen.number(),
                subgeneration: sub,
            };
            generation += 1;
            ctx
        };

        // Generations 1–9 cannot fail: compute T and T′, then commit them.
        self.neighbour_min(graph);
        self.member_min();
        if let Some(SweepFault::FlipT(row)) = self.fault {
            if let Some(t) = self.t.get_mut(row) {
                *t ^= 1;
                self.fault = None;
            }
        }
        self.fresh = false;
        self.c.copy_from_slice(&self.t);
        for gen in Gen::ALL[1..=Gen::CopyAndSaveT as usize].iter().copied() {
            for sub in 0..gen.subgenerations(n) {
                if let Some((active, grid)) = static_footprint(gen, sub, n) {
                    self.footprint.set_grid(len, grid);
                    commit(ctx(gen, sub), active, &self.footprint);
                }
            }
        }

        // Generation 10: D_N[0] = T′(0) answers a pointer to n.
        for sub in 0..Gen::PointerJump.subgenerations(n) {
            let here = ctx(Gen::PointerJump, sub);
            let dn0 = self.word(n, 0);
            let hist = counting.then(|| self.footprint.set_slots(len, n, 0, n + 1));
            let changed = jump(&mut self.next, &self.c, dn0, here.generation, hist)?;
            std::mem::swap(&mut self.c, &mut self.next);
            commit(here, n, &self.footprint);
            if detect && changed == 0 {
                break;
            }
        }

        // Generation 11: C(i) ← min(C(i), d[C(i)·n + 1]), which is T′(C(i))
        // for n ≥ 2 (column 1 of row C(i)).
        let here = ctx(Gen::FinalMin, 0);
        let mut hist = counting.then(|| self.footprint.set_slots(len, n, 1, n + 1));
        for i in 0..n {
            let cur = self.c[i];
            let d = cur as usize;
            let target = d
                .checked_mul(n)
                .and_then(|t| t.checked_add(1))
                .filter(|&t| t < len)
                .ok_or_else(|| GcaError::PointerOutOfRange {
                    cell: i * n,
                    target: d.saturating_mul(n).saturating_add(1),
                    len,
                    generation: here.generation,
                })?;
            if let Some(h) = hist.as_deref_mut() {
                h[d] += 1;
            }
            self.next[i] = cur.min(field_word(&self.c, &self.t, false, target / n, target % n));
        }
        std::mem::swap(&mut self.c, &mut self.next);
        commit(here, n, &self.footprint);
        Ok(())
    }

    /// Generations 1–4 into `next`: every node's smallest neighbouring
    /// label outside its own, or its own label.
    fn neighbour_min(&mut self, graph: &AdjacencyMatrix) {
        let c = &self.c;
        let out = &mut self.next;
        // One label everywhere: no neighbour has another, so T = C.
        if c.iter().all(|&l| l == c[0]) {
            out.copy_from_slice(c);
            return;
        }
        let sorted = c.windows(2).all(|w| w[0] <= w[1]);
        neighbour_min_rows(out, c, graph, sorted);
    }

    /// Generations 5–8 into `t`: each component root's smallest member
    /// candidate other than itself, or its own label.
    fn member_min(&mut self) {
        let n = self.n;
        self.t.fill(INFINITY);
        for (&root, &cand) in self.c.iter().zip(&self.next) {
            let r = root as usize;
            if r < n && cand != root && cand < self.t[r] {
                self.t[r] = cand;
            }
        }
        for (t, &c) in self.t.iter_mut().zip(&self.c) {
            if *t == INFINITY {
                *t = c;
            }
        }
    }
}

/// The data word of field cell `(row, col)` in the state `C = c`,
/// `T′ = t`, with `D_N` holding `n` when `fresh` and `T′` otherwise.
#[inline]
fn field_word(c: &[Word], t: &[Word], fresh: bool, row: usize, col: usize) -> Word {
    let n = c.len();
    if row == n {
        if fresh {
            // The layout caps n below u32::MAX.
            n as Word // gca-lint: allow(truncating-cast)
        } else {
            t[col]
        }
    } else if col == 0 {
        c[row]
    } else {
        t[row]
    }
}

/// The neighbour-min of every row into `out`: a set-bit walk over each of
/// the matrix's rows. When `sorted` (`C` does not decrease with the node
/// index) the walk stops at the first label other than the row's own: no
/// later bit carries a smaller one.
fn neighbour_min_rows(out: &mut [Word], c: &[Word], graph: &AdjacencyMatrix, sorted: bool) {
    for (i, (slot, &own)) in out.iter_mut().zip(c).enumerate() {
        let mut best = INFINITY;
        'row: for (w, &word) in graph.row_words(i).iter().enumerate() {
            // The matrix packs rows in the engine's adjacency words.
            let mut bits: AdjWord = word;
            while bits != 0 {
                let l = c[w * WORD_BITS + bits.trailing_zeros() as usize];
                bits &= bits - 1;
                if l != own && l < best {
                    best = l;
                    if sorted {
                        break 'row;
                    }
                }
            }
        }
        *slot = if best == INFINITY { own } else { best };
    }
}

/// One pointer-jump sub-generation into `next`: `C(i) ← d[C(i)·n]`,
/// which is `labels[C(i)]` below `n` and `dn0` (`D_N[0]`) at `n`. `hist`
/// (when counting) is the per-label histogram: slot `d` counts the reads
/// of field cell `d·n`. A pointer past the field fails with the smallest
/// such cell, as the engine does. Returns the labels that changed.
fn jump(
    next: &mut [Word],
    labels: &[Word],
    dn0: Word,
    generation: u64,
    mut hist: Option<&mut [u32]>,
) -> Result<usize, GcaError> {
    let n = labels.len();
    let len = n * (n + 1);
    let mut changed = 0;
    for (i, (slot, &own)) in next.iter_mut().zip(labels).enumerate() {
        let d = own as usize;
        if d.checked_mul(n).filter(|&t| t < len).is_none() {
            return Err(GcaError::PointerOutOfRange {
                cell: i * n,
                target: d.saturating_mul(n),
                len,
                generation,
            });
        }
        let v = if d < n { labels[d] } else { dn0 };
        if let Some(h) = hist.as_deref_mut() {
            h[d] += 1;
        }
        changed += usize::from(v != own);
        *slot = v;
    }
    Ok(changed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gca_graphs::generators;

    #[test]
    fn early_exit_matches_the_full_walk_on_sorted_labels() {
        // n = 70: rows span two adjacency words. The labels are the
        // identity and non-decreasing vectors with runs of equal labels.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let n = 70;
        let mut rng = StdRng::seed_from_u64(7);
        for seed in 0..8 {
            let g = generators::gnp(n, 0.02 + 0.04 * seed as f64, seed);
            let identity: Vec<Word> = (0..n as Word).collect();
            let mut runs = vec![0; n];
            for i in 1..n {
                runs[i] = runs[i - 1] + rng.gen_range(0..3);
            }
            for c in [identity, runs] {
                let mut full = vec![0; n];
                neighbour_min_rows(&mut full, &c, &g, false);
                let mut sweep = Sweep::new(n);
                sweep.c.copy_from_slice(&c);
                sweep.neighbour_min(&g);
                assert_eq!(sweep.next, full, "seed {seed}");
            }
        }
    }

    #[test]
    fn row_words_carry_no_diagonal_or_tail_bits() {
        // n = 5 leaves WORD_BITS - 5 tail bits per row word. The set-bit
        // walk indexes `C` at every set bit, so it relies on the matrix
        // keeping the tails and the diagonal zero.
        let g = generators::complete(5);
        for row in 0..5 {
            assert_eq!(g.row_words(row), [0b11111 & !(1 << row)], "row {row}");
        }
    }

    #[test]
    fn static_footprints_cover_generations_zero_to_nine() {
        for gen in Gen::ALL {
            let chase = matches!(gen, Gen::PointerJump | Gen::FinalMin);
            assert_eq!(static_footprint(gen, 0, 8).is_none(), chase, "{gen:?}");
        }
        // Sub-generation 2 at n = 8: columns 0 fold 4, one per row.
        let (active, grid) = static_footprint(Gen::MinReduce, 2, 8).unwrap();
        assert_eq!((active, grid.cols, grid.start), (8, 1, 4));
    }
}
