//! Active-domain hints: which cells a rule can touch this generation.
//!
//! Most generations of a structured GCA algorithm only *compute* in a small
//! region of the field — a band of rows, the first column, a strided set of
//! tree-reduction cells — while every other cell executes the identity. The
//! paper's Table 1 makes this explicit: per generation it counts the cells
//! that "perform a calculation", and for most generations that is `n` or
//! fewer out of `n(n+1)`. A [`Domain`] lets the rule tell the engine where
//! that region is, so the engine can evaluate only the hinted cells and bulk
//! copy the untouched remainder.

use crate::FieldShape;
use std::ops::Range;

/// Where a rule's work lives in one generation.
///
/// # Contract
///
/// A rule returning anything but [`Domain::All`] promises that every cell
/// **outside** the domain is a *no-op* this generation:
///
/// * its [`access`](crate::GcaRule::access) is [`Access::None`](crate::Access::None),
/// * its [`evolve`](crate::GcaRule::evolve) returns the own state unchanged,
/// * its [`is_active`](crate::GcaRule::is_active) is `false`.
///
/// Under that contract, hinted stepping is **bit-identical** to dense
/// stepping — same next field, same active/read/congestion metrics — because
/// the skipped cells would have contributed nothing. A hinted step does not
/// verify the contract (that would cost the evaluation being skipped);
/// [`Instrumentation::Validate`](crate::Instrumentation::Validate) evaluates
/// the whole field and fails on any out-of-domain cell that breaks it.
///
/// Row/column ranges are half-open and clamped to the field; a
/// [`Domain::Sparse`] list must hold strictly increasing in-range linear
/// indices (duplicates would double-count reads and activity).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Domain {
    /// Every cell may compute; evaluate the full field (the default).
    All,
    /// Only cells in these rows (0-based, end-exclusive) may compute.
    /// Row-major layout makes this a single contiguous index range.
    Rows(Range<usize>),
    /// Only cells in these columns may compute: one short segment per row.
    Cols(Range<usize>),
    /// Only the listed linear cell indices may compute. Meant for small,
    /// scattered sets (e.g. the stride-`2^s` cells of a tree reduction);
    /// the list itself is a per-step allocation, so rules should prefer
    /// `Rows`/`Cols` when the set is dense.
    Sparse(Vec<usize>),
}

impl Domain {
    /// Clamps ranges to the field and drops out-of-range sparse indices, so
    /// the engine can index without bounds anxiety. Debug builds assert the
    /// sparse list is strictly increasing.
    pub fn clamped(self, shape: &FieldShape) -> Domain {
        match self {
            Domain::All => Domain::All,
            Domain::Rows(r) => {
                let end = r.end.min(shape.rows());
                Domain::Rows(r.start.min(end)..end)
            }
            Domain::Cols(c) => {
                let end = c.end.min(shape.cols());
                Domain::Cols(c.start.min(end)..end)
            }
            Domain::Sparse(mut ix) => {
                ix.retain(|&i| i < shape.len());
                debug_assert!(
                    ix.windows(2).all(|w| w[0] < w[1]),
                    "sparse domain indices must be strictly increasing"
                );
                Domain::Sparse(ix)
            }
        }
    }

    /// Number of cells the engine evaluates under this (clamped) domain.
    pub fn cell_count(&self, shape: &FieldShape) -> usize {
        match self {
            Domain::All => shape.len(),
            Domain::Rows(r) => r.len() * shape.cols(),
            Domain::Cols(c) => c.len() * shape.rows(),
            Domain::Sparse(ix) => ix.len(),
        }
    }

    /// Is `index` inside the domain?
    pub fn contains(&self, shape: &FieldShape, index: usize) -> bool {
        match self {
            Domain::All => index < shape.len(),
            Domain::Rows(r) => r.contains(&shape.row(index)),
            Domain::Cols(c) => index < shape.len() && c.contains(&shape.col(index)),
            Domain::Sparse(ix) => ix.binary_search(&index).is_ok(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> FieldShape {
        FieldShape::new(4, 3).unwrap()
    }

    #[test]
    fn cell_counts() {
        let s = shape();
        assert_eq!(Domain::All.cell_count(&s), 12);
        assert_eq!(Domain::Rows(1..3).cell_count(&s), 6);
        assert_eq!(Domain::Cols(0..1).cell_count(&s), 4);
        assert_eq!(Domain::Sparse(vec![0, 5, 11]).cell_count(&s), 3);
    }

    #[test]
    fn clamping() {
        let s = shape();
        assert_eq!(Domain::Rows(2..99).clamped(&s), Domain::Rows(2..4));
        assert_eq!(Domain::Rows(9..99).clamped(&s), Domain::Rows(4..4));
        assert_eq!(Domain::Cols(1..7).clamped(&s), Domain::Cols(1..3));
        assert_eq!(
            Domain::Sparse(vec![3, 11, 12, 40]).clamped(&s),
            Domain::Sparse(vec![3, 11])
        );
        assert_eq!(Domain::All.clamped(&s), Domain::All);
    }

    #[test]
    fn containment() {
        let s = shape();
        assert!(Domain::All.contains(&s, 11));
        assert!(!Domain::All.contains(&s, 12));
        assert!(Domain::Rows(1..2).contains(&s, 3));
        assert!(!Domain::Rows(1..2).contains(&s, 2));
        assert!(Domain::Cols(0..1).contains(&s, 9));
        assert!(!Domain::Cols(0..1).contains(&s, 10));
        assert!(Domain::Sparse(vec![2, 7]).contains(&s, 7));
        assert!(!Domain::Sparse(vec![2, 7]).contains(&s, 6));
    }
}
