//! Struct-of-arrays Hirschberg field — [`crate::Machine`]'s only
//! persistent cell state, on every execution path.
//!
//! The paper's cell holds two registers: a data word `d` and the read-only
//! adjacency bit `a` (the pointer is recomputed every generation). [`HField`]
//! stores them as two planes:
//!
//! * a contiguous `Vec<Word>` **data plane** with the same linear indexing
//!   as [`crate::Layout`] (`index = row · n + col`, `D_N` at
//!   `n² .. n² + n`) — the per-generation working set; broadcasts and
//!   copies become `memcpy`-shaped fills, and row-partitioned parallel
//!   kernels split it with `split_at_mut`-safe disjoint chunks;
//! * a bit-packed **adjacency plane** (one bit per square cell) — filled
//!   once per graph straight from the [`AdjacencyMatrix`] rows
//!   ([`HField::fill`]), read-only afterwards. The plane is
//!   **row-aligned**: row `r` occupies the [`HField::words_per_row`] words
//!   starting at `r · words_per_row`, column `c` is bit `c % WORD_BITS` of
//!   word `c / WORD_BITS` within the row, and the tail bits of the last
//!   word of every row are zero. Row alignment is what makes the SWAR
//!   kernels' zero-word skip sound: an all-zero adjacency word always
//!   covers cells of a single row, never a wrapped row boundary.
//!
//! The array-of-structures `CellField<HCell>` exists only where a consumer
//! needs one: the machine's engine scratch (refilled by [`HField::store`]
//! before each engine step, copied back by [`HField::load_d`]) and on-demand
//! copies for snapshots and [`crate::Machine::to_field`]. A restored
//! snapshot comes back in through [`HField::load`].

use crate::HCell;
use gca_engine::{AdjWord, GcaError, Word, WORD_BITS};
use gca_graphs::AdjacencyMatrix;

/// Reads the adjacency bit of square cell `(row, col)` from a row-aligned
/// packed plane with `wpr` words per row.
#[inline]
pub(crate) fn a_bit(plane: &[AdjWord], wpr: usize, row: usize, col: usize) -> bool {
    (plane[row * wpr + col / WORD_BITS] >> (col % WORD_BITS)) & 1 == 1
}

/// The two planes of one `(n+1) × n` Hirschberg field.
#[derive(Clone, Debug, Default)]
pub(crate) struct HField {
    /// Problem size `n`.
    pub n: usize,
    /// The data plane: `d` of every cell, `n · (n+1)` words.
    pub d: Vec<Word>,
    /// The adjacency plane: `A(row, col)` bit-packed row-aligned over the
    /// `n²` square cells (the `D_N` row carries no adjacency). Written only
    /// by [`HField::fill`] and [`HField::load`]; row-tail bits are always
    /// zero.
    pub a: Vec<AdjWord>,
    /// Packed words per adjacency row: `n.div_ceil(WORD_BITS)`.
    pub words_per_row: usize,
}

impl HField {
    /// An all-zero field for problem size `n`.
    pub fn new(n: usize) -> Self {
        let wpr = n.div_ceil(WORD_BITS);
        HField {
            n,
            d: vec![0; n * (n + 1)],
            a: vec![0; n * wpr],
            words_per_row: wpr,
        }
    }

    /// Loads `graph` in place: zeroes the data plane (generation 0
    /// initializes it) and copies the adjacency rows, which the matrix
    /// already packs row-aligned in `u64` words. The diagonal and row-tail
    /// bits are masked off. Fails with [`GcaError::GraphSizeMismatch`],
    /// leaving the field untouched, if the graph has another size.
    pub fn fill(&mut self, graph: &AdjacencyMatrix) -> Result<(), GcaError> {
        let n = self.n;
        if graph.n() != n {
            return Err(GcaError::GraphSizeMismatch {
                graph_nodes: graph.n(),
                layout_nodes: n,
            });
        }
        self.d.fill(0);
        let wpr = self.words_per_row;
        let tail: AdjWord = match n % WORD_BITS {
            0 => !0,
            r => (1 << r) - 1,
        };
        for (row, words) in self.a.chunks_mut(wpr.max(1)).enumerate() {
            words.copy_from_slice(graph.row_words(row));
            words[wpr - 1] &= tail;
            words[row / WORD_BITS] &= !(1 << (row % WORD_BITS));
        }
        Ok(())
    }

    /// Loads both planes from array-of-structures cell states (a restored
    /// snapshot), `n · (n+1)` of them in field order.
    pub fn load(&mut self, cells: &[HCell]) {
        debug_assert_eq!(cells.len(), self.d.len());
        self.load_d(cells);
        self.a.fill(0);
        let (n, wpr) = (self.n, self.words_per_row);
        for (row, words) in self.a.chunks_mut(wpr.max(1)).enumerate() {
            for (col, c) in cells[row * n..(row + 1) * n].iter().enumerate() {
                if c.a {
                    words[col / WORD_BITS] |= 1 << (col % WORD_BITS);
                }
            }
        }
    }

    /// Writes both planes into array-of-structures cell states — the
    /// engine scratch refill and the on-demand `CellField` copies.
    pub fn store(&self, cells: &mut [HCell]) {
        debug_assert_eq!(cells.len(), self.d.len());
        let n = self.n.max(1);
        for (row, (cells, d)) in cells.chunks_mut(n).zip(self.d.chunks(n)).enumerate() {
            for (col, (c, &d)) in cells.iter_mut().zip(d).enumerate() {
                let a = row < self.n && a_bit(&self.a, self.words_per_row, row, col);
                *c = HCell::with_adjacency(d, a);
            }
        }
    }

    /// Copies the data words of array-of-structures cell states back into
    /// the data plane — the commit of an engine step. Adjacency never
    /// flows back: no generation writes `a`.
    pub fn load_d(&mut self, cells: &[HCell]) {
        for (d, c) in self.d.iter_mut().zip(cells) {
            *d = c.d;
        }
    }

    /// Reads the adjacency bit of square cell `i` (linear `row · n + col`
    /// indexing; the kernels read the packed plane directly via [`a_bit`]).
    pub fn adjacency(&self, i: usize) -> bool {
        a_bit(&self.a, self.words_per_row, i / self.n, i % self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Layout;
    use gca_graphs::generators;

    /// The planes of `graph` as a fresh machine holds them.
    fn filled(graph: &AdjacencyMatrix) -> HField {
        let mut h = HField::new(graph.n());
        h.fill(graph).unwrap();
        h
    }

    #[test]
    fn fill_matches_the_layout_build() {
        // n = 70 spans two adjacency words per row.
        for g in [generators::gnp(9, 0.4, 3), generators::gnp(70, 0.2, 5)] {
            let field = Layout::new(g.n()).unwrap().build_field(&g).unwrap();
            let h = filled(&g);
            let mut cells = vec![HCell::new(7); field.len()];
            h.store(&mut cells);
            assert_eq!(cells, field.states(), "n = {}", g.n());
        }
    }

    #[test]
    fn round_trip_preserves_data_and_adjacency() {
        let g = generators::gnp(9, 0.4, 3);
        let h = filled(&g);
        let mut cells = vec![HCell::new(0); h.d.len()];
        h.store(&mut cells);

        // Data words flow back through `load_d`; adjacency never does.
        for (i, c) in cells.iter_mut().enumerate() {
            c.d = i as Word + 7;
            c.a = !c.a;
        }
        let mut back = h.clone();
        back.load_d(&cells);
        for i in 0..cells.len() {
            assert_eq!(back.d[i], i as Word + 7, "d plane at {i}");
        }
        assert_eq!(back.a, h.a, "adjacency must never change");

        // `load` takes both planes, as a snapshot restore needs.
        h.store(&mut cells);
        let mut restored = HField::new(9);
        restored.load(&cells);
        assert_eq!(restored.d, h.d);
        assert_eq!(restored.a, h.a);
    }

    #[test]
    fn zero_size_field_is_empty() {
        let h = filled(&generators::empty(0));
        assert!(h.d.is_empty());
        assert!(h.a.is_empty());
        h.store(&mut []);
    }

    #[test]
    fn row_tail_bits_stay_zero() {
        // n = 5 leaves WORD_BITS - 5 tail bits per row word; the SWAR
        // zero-word skip relies on them never being set.
        let h = filled(&generators::complete(5));
        assert_eq!(h.words_per_row, 1);
        let tail_mask: AdjWord = !((1 << 5) - 1);
        for (row, &w) in h.a.iter().enumerate() {
            assert_eq!(w & tail_mask, 0, "tail bits of row {row}");
            assert!(!h.adjacency(row * 5 + row), "diagonal of row {row}");
        }
    }
}
