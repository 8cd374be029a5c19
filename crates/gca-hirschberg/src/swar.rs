//! SWAR (SIMD-within-a-register) kernel bodies for
//! [`crate::kernels::ExecPath::FusedSwar`].
//!
//! Every function here is a drop-in replacement for the matching `*_rows`
//! row-range body in [`crate::kernels`]: same row-slice signature shape,
//! same per-cell *semantics* (each cell's new value and its contribution to
//! the `changed` counter are computed by the same rule), so labels and
//! `Counts` metrics stay bit-identical to the scalar fused path by
//! construction. What changes is the *iteration structure*:
//!
//! * the adjacency- and membership-gated filters (generations 2 and 6) walk
//!   the row-aligned bit-packed plane one [`AdjWord`] — [`WORD_BITS`] cells
//!   — at a time: an all-zero word collapses to one vectorizable
//!   count-and-fill of `∞` (no per-cell branch, no bit extraction), a
//!   non-zero word visits only its set bits via `trailing_zeros` and fills
//!   the gaps between them;
//! * broadcast/copy fills (generations 0, 1, 5, 9) compare whole rows with
//!   `memcmp`-shaped slice equality and fill with `copy_from_slice`/`fill`
//!   instead of a branchy per-cell store — in the converged steady state
//!   most rows already hold the broadcast vector and the kernel degrades to
//!   a pure scan;
//! * the tree reductions (generations 3, 7) run branch-free
//!   (`min` + difference-count) so the disjoint-column passes vectorize.
//!
//! The zero-word skip is sound because the packed plane is **row-aligned**
//! (see `hfield`): a word never spans two rows and its tail bits
//! beyond column `n` are zero, so "word = 0" exactly means "no live cell
//! among these `≤ WORD_BITS` cells of this row", and the scalar path would
//! have written `∞` to every one of them. The metric-identity argument is
//! written out in DESIGN.md §14.
//!
//! The module (including its word-level bodies) is public so that
//! `gca-analysis`'s lane verifier can drive every branch-free formula
//! directly against the scalar row-range semantics of [`crate::kernels`]
//! (DESIGN.md §15): the functions here are *verification surface*, not an
//! API — they assume the row-aligned packed-plane invariants stated on
//! each and are only meaningful through the fused executor (`kernels`).

use gca_engine::{AdjWord, Word, INFINITY, WORD_BITS};

/// Writes `∞` over a gap of dead cells, returning how many actually
/// changed — the same tally the scalar per-cell loop produces.
#[inline]
pub fn fill_inf(cells: &mut [Word]) -> usize {
    let changed = cells.iter().filter(|&&c| c != INFINITY).count();
    if changed > 0 {
        cells.fill(INFINITY);
    }
    changed
}

/// Set-bit count below which a non-zero word is cheaper to process by
/// walking its set bits (`trailing_zeros`) than by the branch-free
/// per-lane select sweep. Both strategies implement the identical per-cell
/// rule, so the crossover is purely a speed knob.
pub const SPARSE_BITS: u32 = 8;

/// Filters one row against one row of packed live-bits: live cells
/// (set bits) keep their value unless it equals `keep` (then `∞`), dead
/// cells become `∞`. Shared by generations 2 (`keep = C(row)`, bits =
/// adjacency) and 6 (`keep = row`, bits = membership mask).
///
/// Three regimes per word, chosen by population count: all-zero words
/// collapse to one count-and-fill; sparsely populated words walk their set
/// bits and fill the gaps; dense words run a branch-free select per lane
/// (`keep`-mask arithmetic, no data-dependent branches — the scalar fused
/// body loses ~4 ns/cell to branch mispredicts on random adjacency here).
///
/// As a byproduct the filter writes the row's *occupancy word(s)* into
/// `occ_row`: the exact set of post-filter non-`∞` cells (zero words emit
/// `0`, sparse words accumulate bits as they walk, dense words repack the
/// filtered cells in a separate vectorizable pass). The reduction contract
/// only *requires* a superset — a spurious bit costs a no-op fold,
/// `min(x, ∞) = x` — but exactness is what makes the plane collapse as
/// labels converge, which is where the occupancy-guided reduction wins.
/// The subsequent min-reduction tree consumes this plane to skip folds
/// whose source is provably `∞` (see [`min_reduce_rows_occ`]).
#[inline]
pub fn filter_row(row: &mut [Word], words: &[AdjWord], keep: Word, occ_row: &mut [AdjWord]) -> usize {
    let mut changed = 0;
    for (wi, &bits) in words.iter().enumerate() {
        let lo = wi * WORD_BITS;
        let hi = (lo + WORD_BITS).min(row.len());
        let cells = &mut row[lo..hi];
        let (delta, occ) = if bits == 0 {
            // Word-skip: no live cell in these WORD_BITS columns.
            (fill_inf(cells), 0)
        } else if bits.count_ones() <= SPARSE_BITS {
            filter_word_sparse(cells, bits, keep)
        } else {
            (filter_word_dense(cells, bits, keep), pack_occupancy(cells))
        };
        changed += delta;
        occ_row[wi] = occ;
    }
    changed
}

/// One sparsely populated word: visit only the set bits, fill the gaps.
/// Returns `(changed, occupancy)`.
#[inline]
pub fn filter_word_sparse(cells: &mut [Word], bits: AdjWord, keep: Word) -> (usize, AdjWord) {
    let mut changed = 0;
    let mut occ: AdjWord = 0;
    let mut prev = 0usize;
    let mut b = bits;
    while b != 0 {
        // Row alignment guarantees off < cells.len(): tail bits are 0.
        let off = b.trailing_zeros() as usize;
        changed += fill_inf(&mut cells[prev..off]);
        let cell = &mut cells[off];
        if *cell == keep {
            changed += usize::from(*cell != INFINITY);
            *cell = INFINITY;
        } else {
            occ |= AdjWord::from(*cell != INFINITY) << off;
        }
        prev = off + 1;
        b &= b - 1;
    }
    changed += fill_inf(&mut cells[prev..]);
    (changed, occ)
}

/// Packs one word's post-filter occupancy: bit `lane` ⇔ `cells[lane] ≠
/// ∞`. A separate pass on purpose — fused into the filter sweep the
/// cross-lane accumulation blocks vectorization of the value updates;
/// standalone, the compare-and-pack is the movemask shape the
/// autovectorizer handles.
#[inline]
pub fn pack_occupancy(cells: &[Word]) -> AdjWord {
    let mut occ: AdjWord = 0;
    for (lane, &c) in cells.iter().enumerate() {
        occ |= AdjWord::from(c != INFINITY) << lane;
    }
    occ
}

/// One densely populated word: branch-free select per lane. `live & (cell
/// ≠ keep)` keeps the cell, everything else becomes `∞`; with `∞ = !0` the
/// select is a single `cell | !mask`, and the changed tally is the
/// dead-and-not-yet-`∞` count — exactly the scalar rule's. No per-lane
/// occupancy accumulation: the caller packs it in a second sweep, so
/// this loop stays a pure lane-wise select the compiler can vectorize.
#[inline]
pub fn filter_word_dense(cells: &mut [Word], bits: AdjWord, keep: Word) -> usize {
    let mut changed = 0;
    let mut b = bits;
    for cell in cells.iter_mut() {
        let cur = *cell;
        let live = (b & 1) as Word;
        b >>= 1;
        let mask = (live & Word::from(cur != keep)).wrapping_neg();
        let new = cur | !mask;
        changed += usize::from(new != cur);
        *cell = new;
    }
    changed
}

/// Generation 0 over whole rows: difference-count scan, then `fill`.
pub fn init_rows(seg: &mut [Word], base_row: usize, n: usize) -> usize {
    let mut changed = 0;
    for (r, row) in seg.chunks_mut(n).enumerate() {
        let v = (base_row + r) as Word;
        let diffs = row.iter().filter(|&&c| c != v).count();
        if diffs > 0 {
            row.fill(v);
        }
        changed += diffs;
    }
    changed
}

/// Generations 1 and 5 over whole rows: slice-equality fast path, then a
/// single `copy_from_slice` per differing row.
pub fn broadcast_rows(seg: &mut [Word], labels: &[Word]) -> usize {
    let mut changed = 0;
    for row in seg.chunks_mut(labels.len().max(1)) {
        if row == labels {
            // Read-only fast path: a converged row costs one compare scan
            // (the common case for BroadcastC after the first iteration).
            continue;
        }
        // One fused difference-count-and-copy pass, branch-free per lane
        // (a separate count pass plus `copy_from_slice` would read the
        // row twice).
        for (cell, &v) in row.iter_mut().zip(labels) {
            changed += usize::from(*cell != v);
            *cell = v;
        }
    }
    changed
}

/// Generation 2 over whole rows: word-walks the row-aligned adjacency
/// plane (`wpr` words per row, absolute row indexing), writing each row's
/// occupancy words into the row-partitioned `occ` segment.
pub fn filter_neighbor_rows(
    seg: &mut [Word],
    occ: &mut [AdjWord],
    a: &[AdjWord],
    dn: &[Word],
    base_row: usize,
    n: usize,
    wpr: usize,
) -> usize {
    let mut changed = 0;
    for ((r, row), occ_row) in seg.chunks_mut(n).enumerate().zip(occ.chunks_mut(wpr)) {
        let row_idx = base_row + r;
        let words = &a[row_idx * wpr..(row_idx + 1) * wpr];
        changed += filter_row(row, words, dn[row_idx], occ_row);
    }
    changed
}

/// Generations 3 and 7 over whole rows, branch-free: `min` plus a
/// difference count instead of a compare-and-store branch per cell.
/// Sub-generation 0 (stride 1 — half of all folds) reduces adjacent pairs
/// through `chunks_exact`, a shape the autovectorizer turns into
/// deinterleaved word-wise `min` passes.
pub fn min_reduce_rows(seg: &mut [Word], stride: usize, n: usize) -> usize {
    seg.chunks_mut(n)
        .map(|row| fold_row_full(row, stride, n))
        .sum()
}

/// One row's full fold at `stride`: every target column (`≡ 0 mod
/// 2·stride`) takes the `min` with its source `stride` to the right,
/// occupancy-blind. Stride 1 goes through `chunks_exact` pairs (a shape
/// the autovectorizer turns into deinterleaved word-wise `min` passes);
/// odd `n` leaves the last column untouched — no right-hand neighbor,
/// exactly the scalar loop's exit condition.
#[inline]
pub fn fold_row_full(row: &mut [Word], stride: usize, n: usize) -> usize {
    let mut changed = 0;
    if stride == 1 {
        for pair in row.chunks_exact_mut(2) {
            let m = pair[0].min(pair[1]);
            changed += usize::from(m != pair[0]);
            pair[0] = m;
        }
        return changed;
    }
    let mut col = 0;
    while col + stride < n {
        let cur = row[col];
        let m = cur.min(row[col + stride]);
        changed += usize::from(m != cur);
        row[col] = m;
        col += stride << 1;
    }
    changed
}

/// The per-word mask selecting this sub-generation's fold *sources*
/// (columns `≡ stride (mod 2·stride)`) within packed word `wi`.
///
/// For `stride < WORD_BITS` the period `2·stride` divides the word width,
/// so the mask is one word-independent bit pattern; for larger strides the
/// sources are isolated word-aligned columns `stride·(2j+1)`, so a word
/// carries at most bit 0.
#[inline]
pub fn source_mask(stride: usize, wi: usize) -> AdjWord {
    if stride < WORD_BITS {
        let mut m: AdjWord = 0;
        let mut k = stride;
        while k < WORD_BITS {
            m |= 1 << k;
            k += stride << 1;
        }
        m
    } else {
        let q = stride / WORD_BITS;
        AdjWord::from(wi.is_multiple_of(q) && (wi / q) % 2 == 1)
    }
}

/// Row-occupancy fraction above which a row's fold runs the full strided
/// sweep instead of the occupancy bit-walk: the sweep is sequential and
/// branch-free while the bit-walk pays a data-dependent branch per
/// source, so the sweep wins once roughly a quarter of the row is
/// occupied. Both bodies implement the identical fold, so the crossover
/// is purely a speed knob.
pub const FULL_FOLD_POP_NUM: usize = 1;
/// Denominator of the [`FULL_FOLD_POP_NUM`] crossover fraction.
pub const FULL_FOLD_POP_DEN: usize = 4;

/// Occupancy-guided variant of [`min_reduce_rows`]: rows whose occupancy
/// plane is sparse visit only folds whose *source* cell (`col + stride`)
/// may be non-`∞`, word-skipping over the plane the filter generations
/// produced; dense rows run the full branch-free sweep (the plane then
/// advances by pure bit math).
///
/// Identical per-cell semantics either way: a fold with an `∞` source can
/// change neither the target (`min(cur, ∞) = cur`) nor the `changed`
/// tally, so skipping it is unobservable, and a spurious occupancy bit
/// (the plane is a superset) only re-adds such a no-op fold. The superset
/// invariant is preserved across sub-generations — a fold target is
/// non-`∞` afterwards only if the target or its source was before, and
/// both leave a bit behind (the bit-walk sets the target's bit on
/// improvement; the full sweep ORs the source pattern onto the targets).
pub fn min_reduce_rows_occ(
    seg: &mut [Word],
    occ: &mut [AdjWord],
    stride: usize,
    n: usize,
    wpr: usize,
) -> usize {
    let mut changed = 0;
    // For sub-word strides the source pattern is word-independent — hoist
    // it out of the per-row-per-word loops (rebuilt there it would cost a
    // `WORD_BITS / 2·stride`-iteration loop per word).
    let intra = (stride < WORD_BITS).then(|| source_mask(stride, 0));
    for (row, occ_row) in seg.chunks_mut(n).zip(occ.chunks_mut(wpr)) {
        let pop: u32 = occ_row.iter().map(|w| w.count_ones()).sum();
        if pop as usize * FULL_FOLD_POP_DEN >= n * FULL_FOLD_POP_NUM {
            changed += fold_row_full(row, stride, n);
            // target ← target ∪ source: a masked shift-OR per word (for
            // word-spanning strides the source pattern is bit 0 of words
            // `q·(2j+1)`, `q = stride / WORD_BITS`, folding into bit 0 of
            // the word `q` to its left).
            if let Some(mask) = intra {
                for w in occ_row.iter_mut() {
                    *w |= (*w & mask) >> stride;
                }
            } else {
                let q = stride / WORD_BITS;
                let mut wi = q;
                while wi < wpr {
                    occ_row[wi - q] |= occ_row[wi] & 1;
                    wi += q << 1;
                }
            }
            continue;
        }
        for wi in 0..wpr {
            let mut srcs = occ_row[wi] & intra.unwrap_or_else(|| source_mask(stride, wi));
            while srcs != 0 {
                // Occupancy tail bits are zero, so src < n, and the source
                // pattern guarantees src ≥ stride with src − stride a fold
                // target (≡ 0 mod 2·stride).
                let src = wi * WORD_BITS + srcs.trailing_zeros() as usize;
                srcs &= srcs - 1;
                let col = src - stride;
                let neigh = row[src];
                if neigh < row[col] {
                    // target ← non-∞ source: its occupancy bit turns on.
                    // (An unimproved target was already ≤ a non-∞ source,
                    // hence non-∞ with its bit already set — and a
                    // spurious ∞ source never improves anything.)
                    row[col] = neigh;
                    changed += 1;
                    occ_row[col / WORD_BITS] |= 1 << (col % WORD_BITS);
                }
            }
        }
    }
    changed
}

/// Generation 6 over whole rows: word-walks the per-generation membership
/// mask built by [`build_member_mask`] — cell `(row, col)` is live iff
/// `D_N[col] = row`, and a live cell keeps its value unless it equals the
/// row index. Writes each row's occupancy words into the row-partitioned
/// `occ` segment.
pub fn filter_member_rows(
    seg: &mut [Word],
    occ: &mut [AdjWord],
    mask: &[AdjWord],
    base_row: usize,
    n: usize,
    wpr: usize,
) -> usize {
    let mut changed = 0;
    for ((r, row), occ_row) in seg.chunks_mut(n).enumerate().zip(occ.chunks_mut(wpr)) {
        let row_idx = base_row + r;
        let words = &mask[row_idx * wpr..(row_idx + 1) * wpr];
        changed += filter_row(row, words, row_idx as Word, occ_row);
    }
    changed
}

/// Builds the row-aligned membership mask of generation 6: bit `(r, c)`
/// set iff `dn[c] = r`. One `O(n · wpr)` zeroing pass plus one set-bit per
/// column — cheaper than the `n²` membership tests it replaces.
pub fn build_member_mask(mask: &mut Vec<AdjWord>, dn: &[Word], n: usize, wpr: usize) {
    mask.clear();
    mask.resize(n * wpr, 0);
    for (col, &v) in dn[..n].iter().enumerate() {
        let r = v as usize;
        if r < n {
            mask[r * wpr + col / WORD_BITS] |= 1 << (col % WORD_BITS);
        }
    }
}

/// One row of the fused broadcast-then-filter pass (generations 1+2 and
/// 5+6 in the iteration driver): the row conceptually takes the broadcast
/// vector `labels` and is immediately filtered against `words`/`keep`, in
/// a single load+store sweep instead of the broadcast's store pass plus
/// the filter's load+store pass.
///
/// Returns the exact `(broadcast_changed, filter_changed)` pair the two
/// separate passes would have produced: the broadcast tally compares the
/// old cell against `labels[col]`, the filter tally compares the filtered
/// value against the broadcast one — every compared value is already in
/// hand, so fusing the passes changes neither count. The intermediate
/// post-broadcast cell values are never materialized, which is why the
/// driver only takes this path when they are unobservable (no counting,
/// no validation, no single-stepping).
///
/// The win is cache locality, not fewer instructions: each 64-cell word
/// gets both generations' work while it is hot in L1, instead of two full
/// sweeps of the `n²` plane through the outer cache levels. Every
/// micro-pass stays a vectorizable shape — the broadcast tally is a plain
/// compare-count, and the filter half reuses [`filter_row`]'s per-word
/// regimes (all-zero fill, sparse-bit walk over a pre-filled gap, dense
/// branch-free select). The occupancy plane gets the same exact bits
/// [`filter_row`] produces.
#[inline]
pub fn broadcast_filter_row(
    row: &mut [Word],
    words: &[AdjWord],
    labels: &[Word],
    keep: Word,
    occ_row: &mut [AdjWord],
) -> (usize, usize) {
    let mut b_changed = 0;
    let mut f_changed = 0;
    for (wi, &bits) in words.iter().enumerate() {
        let lo = wi * WORD_BITS;
        let hi = (lo + WORD_BITS).min(row.len());
        let cells = &mut row[lo..hi];
        let labs = &labels[lo..hi];
        // Broadcast tally: old cell vs. broadcast value, lane-parallel.
        b_changed += cells.iter().zip(labs).filter(|(c, l)| c != l).count();
        if bits == 0 {
            // Word-skip: every lane filters to ∞; the filter tally only
            // needs the broadcast values.
            f_changed += labs.iter().filter(|&&l| l != INFINITY).count();
            cells.fill(INFINITY);
            occ_row[wi] = 0;
        } else if bits.count_ones() <= SPARSE_BITS {
            // Sparse: count the all-∞ outcome wholesale, fill, then walk
            // the set bits restoring survivors and correcting the tally.
            f_changed += labs.iter().filter(|&&l| l != INFINITY).count();
            cells.fill(INFINITY);
            let mut occ: AdjWord = 0;
            let mut b = bits;
            while b != 0 {
                let lane = b.trailing_zeros() as usize;
                b &= b - 1;
                let lab = labs[lane];
                if lab != keep {
                    // Survivor: the filter keeps the broadcast value, so
                    // the ∞-transition counted above never happened.
                    f_changed -= usize::from(lab != INFINITY);
                    cells[lane] = lab;
                    occ |= AdjWord::from(lab != INFINITY) << lane;
                }
            }
            occ_row[wi] = occ;
        } else {
            // Dense: the filtered value depends only on the broadcast
            // value and the live bit, so it is computed straight from
            // `labs` — one store per lane, the broadcast word is never
            // materialized. The tally pass then counts the ∞-transitions
            // lane-parallel against `labs`.
            let mut b = bits;
            for (cell, &lab) in cells.iter_mut().zip(labs) {
                let live = (b & 1) as Word;
                b >>= 1;
                let mask = (live & Word::from(lab != keep)).wrapping_neg();
                *cell = lab | !mask;
            }
            f_changed += cells.iter().zip(labs).filter(|(c, l)| c != l).count();
            occ_row[wi] = pack_occupancy(cells);
        }
    }
    (b_changed, f_changed)
}

/// Fused generations 1+2 over whole square rows (`keep = C(row) =
/// labels[row]` — after the broadcast, `D_N[row]` holds exactly
/// `labels[row]`, so reading the gathered vector is reading `D_N`).
/// The `D_N` row of the broadcast is handled by the caller.
pub fn broadcast_filter_neighbor_rows(
    seg: &mut [Word],
    occ: &mut [AdjWord],
    a: &[AdjWord],
    labels: &[Word],
    base_row: usize,
    n: usize,
    wpr: usize,
) -> (usize, usize) {
    let mut b_changed = 0;
    let mut f_changed = 0;
    for ((r, row), occ_row) in seg.chunks_mut(n).enumerate().zip(occ.chunks_mut(wpr)) {
        let row_idx = base_row + r;
        let words = &a[row_idx * wpr..(row_idx + 1) * wpr];
        let (b, f) = broadcast_filter_row(row, words, labels, labels[row_idx], occ_row);
        b_changed += b;
        f_changed += f;
    }
    (b_changed, f_changed)
}

/// Fused generations 1+2 over whole square rows when the gathered label
/// vector is *uniform* (a run converged to one component — the steady
/// state of every connected workload's trailing iterations): every live
/// cell then has `lab == keep`, so no cell survives the filter and the
/// pair collapses to the broadcast tally, one `fill(∞)` and a zeroed
/// occupancy row — no per-lane select at all. The filter tally is the
/// same for live and dead lanes (`lab → ∞` iff `lab ≠ ∞`), hence
/// `rows · |{c : labels[c] ≠ ∞}|`, computed by the caller.
pub fn broadcast_kill_rows(
    seg: &mut [Word],
    occ: &mut [AdjWord],
    labels: &[Word],
    n: usize,
    wpr: usize,
) -> usize {
    let mut b_changed = 0;
    for (row, occ_row) in seg.chunks_mut(n).zip(occ.chunks_mut(wpr)) {
        b_changed += row.iter().zip(labels).filter(|(c, l)| c != l).count();
        row.fill(INFINITY);
        occ_row.fill(0);
    }
    b_changed
}

/// Fused generations 5+6 over whole square rows (`keep = row`, live bits
/// from the membership mask — generation 5 leaves `D_N` untouched, so the
/// mask built before this pass is the mask generation 6 would have seen).
pub fn broadcast_filter_member_rows(
    seg: &mut [Word],
    occ: &mut [AdjWord],
    mask: &[AdjWord],
    labels: &[Word],
    base_row: usize,
    n: usize,
    wpr: usize,
) -> (usize, usize) {
    let mut b_changed = 0;
    let mut f_changed = 0;
    for ((r, row), occ_row) in seg.chunks_mut(n).enumerate().zip(occ.chunks_mut(wpr)) {
        let row_idx = base_row + r;
        let words = &mask[row_idx * wpr..(row_idx + 1) * wpr];
        let (b, f) = broadcast_filter_row(row, words, labels, row_idx as Word, occ_row);
        b_changed += b;
        f_changed += f;
    }
    (b_changed, f_changed)
}

/// Generation 9 over whole rows: difference-count scan of columns `1..`,
/// then one `fill` per differing row.
pub fn copy_save_rows(seg: &mut [Word], dn: &mut [Word], n: usize) -> usize {
    let mut changed = 0;
    for (r, row) in seg.chunks_mut(n).enumerate() {
        let t = row[0];
        changed += usize::from(dn[r] != t);
        dn[r] = t;
        let rest = &mut row[1..];
        let diffs = rest.iter().filter(|&&c| c != t).count();
        if diffs > 0 {
            rest.fill(t);
        }
        changed += diffs;
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complexity::ceil_log2;

    #[test]
    fn filter_row_matches_scalar_semantics_across_word_boundaries() {
        // 70 columns = two adjacency words with a 6-bit zero tail.
        let n = 70usize;
        let wpr = n.div_ceil(WORD_BITS);
        let keep: Word = 7;
        // Pseudo-random row values and live bits (deterministic LCG).
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut row: Vec<Word> = (0..n)
            .map(|_| match next() % 4 {
                0 => INFINITY,
                1 => keep,
                v => v as Word,
            })
            .collect();
        let mut words = vec![0 as AdjWord; wpr];
        for col in 0..n {
            if next() % 3 == 0 {
                words[col / WORD_BITS] |= 1 << (col % WORD_BITS);
            }
        }
        // Scalar reference: the per-cell rule of crate::kernels.
        let mut expect = row.clone();
        let mut expect_changed = 0;
        for (col, cell) in expect.iter_mut().enumerate() {
            let live = (words[col / WORD_BITS] >> (col % WORD_BITS)) & 1 == 1;
            if !(live && *cell != keep) {
                expect_changed += usize::from(*cell != INFINITY);
                *cell = INFINITY;
            }
        }
        let mut occ = vec![0 as AdjWord; wpr];
        let changed = filter_row(&mut row, &words, keep, &mut occ);
        assert_eq!(row, expect);
        assert_eq!(changed, expect_changed);
        // The occupancy byproduct is a superset of the non-∞ cells (so a
        // guided fold never misses a live source), bounded above by the
        // live bits (so tail bits stay zero and spurious bits stay rare).
        for (col, &cell) in row.iter().enumerate() {
            let bit = (occ[col / WORD_BITS] >> (col % WORD_BITS)) & 1 == 1;
            let live = (words[col / WORD_BITS] >> (col % WORD_BITS)) & 1 == 1;
            assert!(bit || cell == INFINITY, "missing occupancy at col {col}");
            assert!(live || !bit, "occupancy outside live bits at col {col}");
        }
    }

    #[test]
    fn fused_broadcast_filter_row_matches_the_separate_passes() {
        // 70 columns = two words with a zero tail; word 1 of the live bits
        // is left all-zero so the word-skip regime runs alongside the
        // branch-free one.
        let n = 70usize;
        let wpr = n.div_ceil(WORD_BITS);
        let keep: Word = 9;
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let labels: Vec<Word> = (0..n).map(|_| (next() % 64) as Word).collect();
        let mut row: Vec<Word> = (0..n)
            .map(|_| match next() % 4 {
                0 => INFINITY,
                v => v as Word,
            })
            .collect();
        let mut words = vec![0 as AdjWord; wpr];
        for col in 0..WORD_BITS.min(n) {
            if next() % 3 == 0 {
                words[0] |= 1 << col;
            }
        }
        // Reference: the separate broadcast pass then the filter pass.
        let mut expect = row.clone();
        let mut expect_occ = vec![0 as AdjWord; wpr];
        let expect_b = broadcast_rows(&mut expect, &labels);
        let expect_f = filter_row(&mut expect, &words, keep, &mut expect_occ);
        let mut occ = vec![0 as AdjWord; wpr];
        let (b, f) = broadcast_filter_row(&mut row, &words, &labels, keep, &mut occ);
        assert_eq!(row, expect);
        assert_eq!(occ, expect_occ);
        assert_eq!(b, expect_b, "broadcast tally");
        assert_eq!(f, expect_f, "filter tally");
    }

    #[test]
    fn source_mask_selects_exactly_the_fold_sources() {
        for s in 0..10u32 {
            let stride = 1usize << s;
            for wi in 0..8usize {
                let mask = source_mask(stride, wi);
                for bit in 0..WORD_BITS {
                    let col = wi * WORD_BITS + bit;
                    let is_source = col % (stride << 1) == stride;
                    assert_eq!(
                        (mask >> bit) & 1 == 1,
                        is_source,
                        "stride {stride} word {wi} bit {bit}"
                    );
                }
            }
        }
    }

    #[test]
    fn occupancy_guided_reduce_matches_scalar_folds() {
        // A dense instance (~1/3 occupied: rows take the full-sweep body)
        // and a sparse one (~1/16: rows take the bit-walk), so both fold
        // bodies and the crossover are exercised.
        occupancy_guided_reduce_case(3);
        occupancy_guided_reduce_case(16);
    }

    fn occupancy_guided_reduce_case(inf_one_in: u64) {
        // Two 70-column rows (wpr = 2, zero tail), folded through every
        // sub-generation with the occupancy plane threaded across subs —
        // exactly the generation-3/7 trajectory.
        let n = 70usize;
        let wpr = n.div_ceil(WORD_BITS);
        let rows = 2usize;
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut seg: Vec<Word> = (0..rows * n)
            .map(|_| {
                if next() % inf_one_in != 0 {
                    INFINITY
                } else {
                    (next() % 97) as Word
                }
            })
            .collect();
        let mut occ = vec![0 as AdjWord; rows * wpr];
        for (i, &c) in seg.iter().enumerate() {
            let (r, col) = (i / n, i % n);
            occ[r * wpr + col / WORD_BITS] |= AdjWord::from(c != INFINITY) << (col % WORD_BITS);
        }
        let mut expect = seg.clone();
        for s in 0..ceil_log2(n) {
            let stride = 1usize << s;
            let mut expect_changed = 0;
            for row in expect.chunks_mut(n) {
                let mut col = 0;
                while col + stride < n {
                    let m = row[col].min(row[col + stride]);
                    expect_changed += usize::from(m != row[col]);
                    row[col] = m;
                    col += stride << 1;
                }
            }
            let changed = min_reduce_rows_occ(&mut seg, &mut occ, stride, n, wpr);
            assert_eq!(seg, expect, "plane after sub {s}");
            assert_eq!(changed, expect_changed, "changed after sub {s}");
            for (i, &c) in seg.iter().enumerate() {
                let (r, col) = (i / n, i % n);
                let bit = (occ[r * wpr + col / WORD_BITS] >> (col % WORD_BITS)) & 1 == 1;
                // Superset invariant: no non-∞ cell ever loses its bit.
                assert!(bit || c == INFINITY, "missing occupancy after sub {s} at {i}");
            }
            for (wi, &w) in occ.iter().enumerate() {
                if wi % wpr == wpr - 1 {
                    // Tail columns (≥ n) must stay unoccupied: the guided
                    // walk indexes `row[src]` straight off these bits.
                    assert_eq!(w >> (n - (wpr - 1) * WORD_BITS), 0, "tail bits after sub {s}");
                }
            }
        }
    }
}
