use crate::{AdjacencyList, GraphError};

/// A bit-packed symmetric adjacency matrix over `n` nodes.
///
/// This is the paper's input representation: `A = {A(i,j) | i,j = 1..n}` with
/// `A(i,j) = A(j,i) = 1` iff there is a link between node `i` and node `j`.
/// The GCA field stores `A(i,j)` in the `a` register of cell `(i, j)`, so the
/// matrix is the natural hand-off point between the graph substrate and the
/// cell field.
///
/// The diagonal is always zero: self-loops do not affect connectivity and the
/// algorithm's `C(j) != C(i)` condition would filter them anyway.
///
/// Bits are packed row-major into `u64` words, `words_per_row` words per row,
/// so a row is a contiguous `&[u64]` slice — row scans (the dominant access
/// pattern of generation 2) touch memory linearly.
#[derive(Clone, PartialEq, Eq)]
pub struct AdjacencyMatrix {
    n: usize,
    words_per_row: usize,
    bits: Vec<u64>,
}

/// An empty set of `n` nodes, packed like a matrix row: node `v` is bit
/// `v % 64` of word `v / 64`.
pub(crate) fn node_set(n: usize) -> Vec<u64> {
    vec![0; n.div_ceil(64)]
}

/// Inserts node `v` into a [`node_set`]; whether it was absent.
#[inline]
pub(crate) fn insert_node(set: &mut [u64], v: usize) -> bool {
    let bit = 1u64 << (v % 64);
    let absent = set[v / 64] & bit == 0;
    set[v / 64] |= bit;
    absent
}

impl AdjacencyMatrix {
    /// Creates an empty (edge-less) matrix over `n` nodes.
    pub fn new(n: usize) -> Self {
        let words_per_row = n.div_ceil(64);
        AdjacencyMatrix {
            n,
            words_per_row,
            bits: vec![0u64; words_per_row * n],
        }
    }

    /// Creates an empty matrix over `n` nodes, or fails with
    /// [`GraphError::TooLarge`] when its `n · ⌈n/64⌉` words overflow
    /// `usize` or cannot be allocated: the constructor for node counts
    /// that come from input.
    pub fn try_new(n: usize) -> Result<Self, GraphError> {
        let words_per_row = n.div_ceil(64);
        let len = words_per_row
            .checked_mul(n)
            .ok_or(GraphError::TooLarge { n })?;
        // Probe the allocation fallibly, then take the zeroed one `new`
        // makes, whose pages stay untouched until an edge lands in them.
        Vec::<u64>::new()
            .try_reserve_exact(len)
            .map_err(|_| GraphError::TooLarge { n })?;
        Ok(AdjacencyMatrix::new(n))
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        let set: usize = self.bits.iter().map(|w| w.count_ones() as usize).sum();
        set / 2
    }

    /// Returns `true` iff the graph has no edges.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    #[inline]
    fn check_node(&self, v: usize) -> Result<(), GraphError> {
        if v >= self.n {
            Err(GraphError::NodeOutOfRange { node: v, n: self.n })
        } else {
            Ok(())
        }
    }

    /// Inserts the undirected edge `(u, v)`.
    ///
    /// Returns an error if either endpoint is out of range or `u == v`.
    pub fn add_edge(&mut self, u: usize, v: usize) -> Result<(), GraphError> {
        self.check_node(u)?;
        self.check_node(v)?;
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        self.set_bit(u, v, true);
        self.set_bit(v, u, true);
        Ok(())
    }

    /// Removes the undirected edge `(u, v)` if present.
    pub fn remove_edge(&mut self, u: usize, v: usize) -> Result<(), GraphError> {
        self.check_node(u)?;
        self.check_node(v)?;
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        self.set_bit(u, v, false);
        self.set_bit(v, u, false);
        Ok(())
    }

    /// Inserts the undirected edge `(u, v)` whose validity the caller has
    /// already established (both endpoints `< n`, `u != v`). The in-crate
    /// generators and `permute` construct node indices by arithmetic that
    /// keeps them in range, so threading a `Result` through them would
    /// manufacture an error path no input can reach; a genuinely bad index
    /// still fails loudly via the bit-plane bounds check.
    #[inline]
    pub(crate) fn set_edge_unchecked(&mut self, u: usize, v: usize) {
        debug_assert!(u < self.n && v < self.n && u != v);
        self.set_bit(u, v, true);
        self.set_bit(v, u, true);
    }

    /// Removes the undirected edge `(u, v)` under the same already-validated
    /// premise as [`AdjacencyMatrix::set_edge_unchecked`].
    #[inline]
    pub(crate) fn clear_edge_unchecked(&mut self, u: usize, v: usize) {
        debug_assert!(u < self.n && v < self.n && u != v);
        self.set_bit(u, v, false);
        self.set_bit(v, u, false);
    }

    #[inline]
    fn set_bit(&mut self, row: usize, col: usize, value: bool) {
        let word = row * self.words_per_row + col / 64;
        let mask = 1u64 << (col % 64);
        if value {
            self.bits[word] |= mask;
        } else {
            self.bits[word] &= !mask;
        }
    }

    /// Returns `A(u, v)`.
    ///
    /// # Panics
    /// Panics if `u` or `v` is out of range; reading is on the hot path of
    /// every generation-2 evaluation, so the caller is expected to stay in
    /// bounds (the field layout guarantees it).
    #[inline]
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        debug_assert!(u < self.n && v < self.n);
        let word = u * self.words_per_row + v / 64;
        (self.bits[word] >> (v % 64)) & 1 == 1
    }

    /// The raw bit words of row `u` (low bit of word 0 is column 0).
    #[inline]
    pub fn row_words(&self, u: usize) -> &[u64] {
        &self.bits[u * self.words_per_row..(u + 1) * self.words_per_row]
    }

    /// Iterates over the neighbors of `u` in increasing order.
    pub fn neighbors(&self, u: usize) -> impl Iterator<Item = usize> + '_ {
        let words = self.row_words(u);
        words.iter().enumerate().flat_map(|(wi, &w)| {
            BitIter { word: w }.map(move |b| wi * 64 + b)
        })
    }

    /// Adds to `seen`, a node set packed like a row (see [`node_set`]),
    /// the neighbors of `u` it does not hold yet, and pushes each onto
    /// `stack`: `row & !seen`, a word at a time. The row's tail bits are
    /// zero, so no node past `n` is pushed.
    pub(crate) fn push_unseen_neighbors(&self, u: usize, seen: &mut [u64], stack: &mut Vec<usize>) {
        for (wi, (&row, seen)) in self.row_words(u).iter().zip(seen).enumerate() {
            let fresh = row & !*seen;
            *seen |= fresh;
            stack.extend(BitIter { word: fresh }.map(|b| wi * 64 + b));
        }
    }

    /// Degree of node `u`.
    pub fn degree(&self, u: usize) -> usize {
        self.row_words(u)
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Iterates over all undirected edges `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n).flat_map(move |u| {
            self.neighbors(u)
                .filter(move |&v| v > u)
                .map(move |v| (u, v))
        })
    }

    /// Relabels the graph by a permutation: node `v` becomes
    /// `perm[v]`. Used by the permutation-invariance tests (connected
    /// components must commute with relabeling).
    ///
    /// # Panics
    /// Panics unless `perm` is a permutation of `0..n`.
    pub fn permute(&self, perm: &[usize]) -> AdjacencyMatrix {
        assert_eq!(perm.len(), self.n, "permutation must cover all nodes");
        let mut seen = vec![false; self.n];
        for &p in perm {
            assert!(p < self.n && !seen[p], "not a permutation");
            seen[p] = true;
        }
        let mut out = AdjacencyMatrix::new(self.n);
        for (u, v) in self.edges() {
            // perm was just verified to be a permutation of 0..n, and the
            // matrix never stores self-loops, so perm[u] != perm[v].
            out.set_edge_unchecked(perm[u], perm[v]);
        }
        out
    }

    /// Converts to the sparse representation used by sequential baselines.
    pub fn to_adjacency_list(&self) -> AdjacencyList {
        let mut lists = Vec::with_capacity(self.n);
        for u in 0..self.n {
            lists.push(self.neighbors(u).collect());
        }
        AdjacencyList::from_sorted_lists(lists)
    }

    /// Checks the structural invariants (symmetry, zero diagonal, no stray
    /// bits past column `n`). Used by tests and after parsing.
    pub fn validate(&self) -> Result<(), GraphError> {
        for u in 0..self.n {
            if self.has_edge(u, u) {
                return Err(GraphError::SelfLoop { node: u });
            }
            for v in (u + 1)..self.n {
                if self.has_edge(u, v) != self.has_edge(v, u) {
                    return Err(GraphError::Parse {
                        line: 0,
                        message: format!("asymmetric entry at ({u}, {v})"),
                    });
                }
            }
            // No bits at/after column n may be set.
            if !self.n.is_multiple_of(64) {
                let last = self.row_words(u)[self.words_per_row - 1];
                let valid_mask = (1u64 << (self.n % 64)) - 1;
                if last & !valid_mask != 0 {
                    return Err(GraphError::Parse {
                        line: 0,
                        message: format!("stray bits past column {} in row {u}", self.n),
                    });
                }
            }
        }
        Ok(())
    }
}

impl std::fmt::Debug for AdjacencyMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "AdjacencyMatrix(n={}, m={})", self.n, self.edge_count())?;
        if self.n <= 32 {
            for u in 0..self.n {
                for v in 0..self.n {
                    write!(f, "{}", u8::from(self.has_edge(u, v)))?;
                }
                writeln!(f)?;
            }
        }
        Ok(())
    }
}

/// Iterator over set bit positions of a single word.
struct BitIter {
    word: u64,
}

impl Iterator for BitIter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.word == 0 {
            None
        } else {
            let b = self.word.trailing_zeros() as usize;
            self.word &= self.word - 1;
            Some(b)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_matrix() {
        let m = AdjacencyMatrix::new(5);
        assert_eq!(m.n(), 5);
        assert_eq!(m.edge_count(), 0);
        assert!(m.is_empty());
        assert!(m.validate().is_ok());
    }

    #[test]
    fn zero_node_matrix() {
        let m = AdjacencyMatrix::new(0);
        assert_eq!(m.n(), 0);
        assert_eq!(m.edge_count(), 0);
        assert!(m.validate().is_ok());
        assert_eq!(m.edges().count(), 0);
    }

    #[test]
    fn add_and_query_edge() {
        let mut m = AdjacencyMatrix::new(4);
        m.add_edge(1, 3).unwrap();
        assert!(m.has_edge(1, 3));
        assert!(m.has_edge(3, 1));
        assert!(!m.has_edge(1, 2));
        assert_eq!(m.edge_count(), 1);
    }

    #[test]
    fn add_edge_is_idempotent() {
        let mut m = AdjacencyMatrix::new(4);
        m.add_edge(0, 1).unwrap();
        m.add_edge(0, 1).unwrap();
        m.add_edge(1, 0).unwrap();
        assert_eq!(m.edge_count(), 1);
    }

    #[test]
    fn remove_edge() {
        let mut m = AdjacencyMatrix::new(4);
        m.add_edge(0, 1).unwrap();
        m.remove_edge(1, 0).unwrap();
        assert!(!m.has_edge(0, 1));
        assert_eq!(m.edge_count(), 0);
    }

    #[test]
    fn self_loop_rejected() {
        let mut m = AdjacencyMatrix::new(4);
        assert_eq!(m.add_edge(2, 2), Err(GraphError::SelfLoop { node: 2 }));
    }

    #[test]
    fn out_of_range_rejected() {
        let mut m = AdjacencyMatrix::new(4);
        assert_eq!(
            m.add_edge(0, 4),
            Err(GraphError::NodeOutOfRange { node: 4, n: 4 })
        );
        assert_eq!(
            m.add_edge(9, 0),
            Err(GraphError::NodeOutOfRange { node: 9, n: 4 })
        );
    }

    #[test]
    fn neighbors_sorted() {
        let mut m = AdjacencyMatrix::new(8);
        m.add_edge(3, 7).unwrap();
        m.add_edge(3, 0).unwrap();
        m.add_edge(3, 5).unwrap();
        let nb: Vec<usize> = m.neighbors(3).collect();
        assert_eq!(nb, vec![0, 5, 7]);
    }

    #[test]
    fn neighbors_across_word_boundary() {
        let mut m = AdjacencyMatrix::new(130);
        m.add_edge(0, 63).unwrap();
        m.add_edge(0, 64).unwrap();
        m.add_edge(0, 129).unwrap();
        let nb: Vec<usize> = m.neighbors(0).collect();
        assert_eq!(nb, vec![63, 64, 129]);
        assert_eq!(m.degree(0), 3);
        assert!(m.validate().is_ok());
    }

    #[test]
    fn degree_counts() {
        let mut m = AdjacencyMatrix::new(5);
        m.add_edge(2, 0).unwrap();
        m.add_edge(2, 1).unwrap();
        m.add_edge(2, 4).unwrap();
        assert_eq!(m.degree(2), 3);
        assert_eq!(m.degree(0), 1);
        assert_eq!(m.degree(3), 0);
    }

    #[test]
    fn edges_enumerated_once() {
        let mut m = AdjacencyMatrix::new(4);
        m.add_edge(0, 1).unwrap();
        m.add_edge(2, 3).unwrap();
        m.add_edge(0, 3).unwrap();
        let mut es: Vec<(usize, usize)> = m.edges().collect();
        es.sort_unstable();
        assert_eq!(es, vec![(0, 1), (0, 3), (2, 3)]);
    }

    #[test]
    fn to_adjacency_list_round_trip() {
        let mut m = AdjacencyMatrix::new(6);
        m.add_edge(0, 5).unwrap();
        m.add_edge(1, 2).unwrap();
        let l = m.to_adjacency_list();
        assert_eq!(l.n(), 6);
        assert_eq!(l.neighbors(0), &[5]);
        assert_eq!(l.neighbors(5), &[0]);
        assert_eq!(l.neighbors(2), &[1]);
        assert_eq!(l.neighbors(3), &[] as &[usize]);
    }

    #[test]
    fn permute_relabels_edges() {
        let mut m = AdjacencyMatrix::new(4);
        m.add_edge(0, 1).unwrap();
        m.add_edge(2, 3).unwrap();
        // 0→3, 1→2, 2→1, 3→0.
        let p = m.permute(&[3, 2, 1, 0]);
        assert!(p.has_edge(3, 2));
        assert!(p.has_edge(1, 0));
        assert!(!p.has_edge(0, 3));
        assert_eq!(p.edge_count(), 2);
    }

    #[test]
    fn permute_identity_is_noop() {
        let mut m = AdjacencyMatrix::new(5);
        m.add_edge(0, 4).unwrap();
        m.add_edge(1, 3).unwrap();
        assert_eq!(m.permute(&[0, 1, 2, 3, 4]), m);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn permute_rejects_duplicates() {
        let m = AdjacencyMatrix::new(3);
        let _ = m.permute(&[0, 0, 2]);
    }

    #[test]
    #[should_panic(expected = "cover all nodes")]
    fn permute_rejects_wrong_length() {
        let m = AdjacencyMatrix::new(3);
        let _ = m.permute(&[0, 1]);
    }

    #[test]
    fn try_new_rejects_sizes_that_cannot_be_held() {
        assert_eq!(AdjacencyMatrix::try_new(70).unwrap(), AdjacencyMatrix::new(70));
        // usize::MAX overflows the word count; 4·10⁹ nodes need 2·10¹⁸ bytes.
        for n in [usize::MAX, 4_000_000_000] {
            assert_eq!(AdjacencyMatrix::try_new(n).unwrap_err(), GraphError::TooLarge { n });
        }
    }

    #[test]
    fn validate_detects_stray_bits() {
        let mut m = AdjacencyMatrix::new(5);
        // Manually corrupt a word beyond column n.
        m.bits[0] |= 1 << 10;
        assert!(m.validate().is_err());
    }

    #[test]
    fn debug_format_small() {
        let mut m = AdjacencyMatrix::new(3);
        m.add_edge(0, 1).unwrap();
        let s = format!("{m:?}");
        assert!(s.contains("n=3"));
        assert!(s.contains("010"));
    }
}
