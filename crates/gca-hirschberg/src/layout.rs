use crate::HCell;
use gca_engine::{CellField, FieldShape, GcaError, Word};
use gca_graphs::AdjacencyMatrix;

/// The `(n+1) × n` field layout of the paper (Section 3).
///
/// Three matrices are overlaid on the cell field:
///
/// * `D` — the data matrix, `(n+1) × n`;
/// * `P` — the pointer matrix (computed per generation, not stored);
/// * `A` — the `n × n` adjacency matrix in the square part.
///
/// The **first column** `D[0]` carries the algorithm's `C(i)` / `T(i)`
/// vectors; the **last row** `D<n> = D_N` stores intermediate results
/// (saved copies of `C` and `T`). Linear indices follow the paper:
/// `index = row·n + col`, so `D_N` starts at linear index `n²`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Layout {
    n: usize,
    shape: FieldShape,
}

impl Layout {
    /// Creates the layout for a graph of `n` nodes.
    pub fn new(n: usize) -> Result<Self, GcaError> {
        let shape = FieldShape::new(n + 1, n)?;
        Ok(Layout { n, shape })
    }

    /// Number of graph nodes `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The field shape (`(n+1) × n`).
    #[inline]
    pub fn shape(&self) -> &FieldShape {
        &self.shape
    }

    /// Total number of cells, `n(n+1)`.
    #[inline]
    pub fn cells(&self) -> usize {
        self.shape.len()
    }

    /// Linear index of `D_N[k]` (the extra bottom row), `n² + k`.
    #[inline]
    pub fn dn_index(&self, k: usize) -> usize {
        debug_assert!(k < self.n);
        self.n * self.n + k
    }

    /// Linear index of `D<row>[0]` — the cell carrying `C(row)` / `T(row)`.
    #[inline]
    pub fn c_index(&self, row: usize) -> usize {
        debug_assert!(row < self.n);
        row * self.n
    }

    /// Is `index` in the extra bottom row `D_N`?
    #[inline]
    pub fn is_last_row(&self, index: usize) -> bool {
        self.shape.row(index) == self.n
    }

    /// Is `index` in the first column `D[0]` of the square field?
    #[inline]
    pub fn is_first_col_square(&self, index: usize) -> bool {
        self.shape.col(index) == 0 && !self.is_last_row(index)
    }

    /// Checks that `graph` matches the size this layout was built for.
    ///
    /// Error-vs-panic policy (see also the note on [`CellField`]): graphs
    /// arrive from user inputs (files, CLI flags, generators), so a size
    /// mismatch is an *input* error and surfaces as a typed
    /// [`GcaError::GraphSizeMismatch`], never a panic. `debug_assert!`s in
    /// this module guard internal index arithmetic only — values the
    /// algorithm derives itself, where a violation is a bug in this crate.
    fn check_graph(&self, graph: &AdjacencyMatrix) -> Result<(), GcaError> {
        if graph.n() != self.n {
            return Err(GcaError::GraphSizeMismatch {
                graph_nodes: graph.n(),
                layout_nodes: self.n,
            });
        }
        Ok(())
    }

    /// Builds the initial cell field from an adjacency matrix: square cell
    /// `(j, i)` stores `A(j, i)`; the data parts are zeroed (generation 0
    /// initializes them). Fails with [`GcaError::GraphSizeMismatch`] if the
    /// graph does not match the layout's size.
    pub fn build_field(&self, graph: &AdjacencyMatrix) -> Result<CellField<HCell>, GcaError> {
        self.check_graph(graph)?;
        Ok(CellField::from_fn(*self.shape(), |index| {
            let row = self.shape.row(index);
            let col = self.shape.col(index);
            let a = row < self.n && graph.has_edge_checked(row, col);
            HCell::with_adjacency(0, a)
        }))
    }

    /// Reads the result vector `C` out of the first column.
    pub fn extract_labels(&self, field: &CellField<HCell>) -> Vec<Word> {
        (0..self.n).map(|j| field.get(self.c_index(j)).d).collect()
    }

    /// Reads the saved vector in the last row `D_N`.
    pub fn extract_dn(&self, field: &CellField<HCell>) -> Vec<Word> {
        (0..self.n).map(|k| field.get(self.dn_index(k)).d).collect()
    }
}

/// Bounds-tolerant adjacency probe used while building the field (the
/// diagonal and the last row have no matrix entry).
trait HasEdgeChecked {
    fn has_edge_checked(&self, u: usize, v: usize) -> bool;
}

impl HasEdgeChecked for AdjacencyMatrix {
    fn has_edge_checked(&self, u: usize, v: usize) -> bool {
        u < self.n() && v < self.n() && u != v && self.has_edge(u, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gca_graphs::GraphBuilder;

    #[test]
    fn layout_dimensions() {
        let l = Layout::new(4).unwrap();
        assert_eq!(l.n(), 4);
        assert_eq!(l.cells(), 20);
        assert_eq!(l.shape().rows(), 5);
        assert_eq!(l.shape().cols(), 4);
    }

    #[test]
    fn dn_starts_at_n_squared() {
        let l = Layout::new(4).unwrap();
        assert_eq!(l.dn_index(0), 16);
        assert_eq!(l.dn_index(3), 19);
    }

    #[test]
    fn c_index_is_row_times_n() {
        let l = Layout::new(4).unwrap();
        assert_eq!(l.c_index(0), 0);
        assert_eq!(l.c_index(3), 12);
    }

    #[test]
    fn region_predicates() {
        let l = Layout::new(3).unwrap();
        assert!(l.is_last_row(9)); // row 3 starts at 3·3 = 9
        assert!(!l.is_last_row(8));
        assert!(l.is_first_col_square(0));
        assert!(l.is_first_col_square(6));
        assert!(!l.is_first_col_square(9)); // last row, col 0
        assert!(!l.is_first_col_square(1));
    }

    #[test]
    fn build_field_places_adjacency() {
        let g = GraphBuilder::new(3).edge(0, 2).build().unwrap();
        let l = Layout::new(3).unwrap();
        let f = l.build_field(&g).unwrap();
        assert_eq!(f.len(), 12);
        // Cell (0, 2) and (2, 0) carry the edge.
        assert!(f.at(0, 2).a);
        assert!(f.at(2, 0).a);
        assert!(!f.at(0, 1).a);
        assert!(!f.at(1, 1).a); // diagonal
        // Last row carries no adjacency.
        assert!(!f.at(3, 0).a);
        assert!(!f.at(3, 2).a);
    }

    #[test]
    fn build_field_checks_size() {
        let g = GraphBuilder::new(2).build().unwrap();
        let l = Layout::new(3).unwrap();
        assert_eq!(
            l.build_field(&g).unwrap_err(),
            GcaError::GraphSizeMismatch {
                graph_nodes: 2,
                layout_nodes: 3
            }
        );
    }

    #[test]
    fn extract_labels_reads_first_column() {
        let l = Layout::new(3).unwrap();
        let g = GraphBuilder::new(3).build().unwrap();
        let mut f = l.build_field(&g).unwrap();
        f.set(l.c_index(0), HCell::new(7));
        f.set(l.c_index(1), HCell::new(8));
        f.set(l.c_index(2), HCell::new(9));
        assert_eq!(l.extract_labels(&f), vec![7, 8, 9]);
    }

    #[test]
    fn extract_dn_reads_last_row() {
        let l = Layout::new(2).unwrap();
        let g = GraphBuilder::new(2).build().unwrap();
        let mut f = l.build_field(&g).unwrap();
        f.set(l.dn_index(0), HCell::new(4));
        f.set(l.dn_index(1), HCell::new(5));
        assert_eq!(l.extract_dn(&f), vec![4, 5]);
    }

    #[test]
    fn zero_node_layout() {
        let l = Layout::new(0).unwrap();
        assert_eq!(l.cells(), 0);
    }
}
