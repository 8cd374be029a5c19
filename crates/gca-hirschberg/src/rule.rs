use crate::{Gen, HCell};
use gca_engine::{Access, Domain, FieldShape, GcaRule, Reads, StepCtx, Word, INFINITY};

/// The uniform cell rule of Figure 2: one `(pointer operation, data
/// operation)` pair per generation, selected by [`StepCtx::phase`].
///
/// Every cell executes the same rule; position-dependent behaviour branches
/// on the cell's row/column, distinguishing the square field `D□`, the first
/// column `D[0]` and the extra bottom row `D_N` exactly as the paper's state
/// graph does. Reconstruction notes for the OCR-damaged parts of Figure 2
/// are in DESIGN.md §3:
///
/// * generation 6 points at `D_N[col]` (the member's component `C(i)`), not
///   `D_N[row]` — required by the step-3 predicate `C(i) = j ∧ T(i) ≠ j`;
/// * generation 9 also refreshes `D_N ← T` (the prose demands it;
///   generation 11 reads `T` afterwards);
/// * the generation 3/7 tree reduction only combines when
///   `col + 2^s < n`, so reads never cross a row boundary.
#[derive(Clone, Copy, Debug)]
pub struct HirschbergRule {
    n: usize,
}

impl HirschbergRule {
    /// Rule for a graph of `n` nodes on the `(n+1) × n` field.
    pub fn new(n: usize) -> Self {
        HirschbergRule { n }
    }

    /// Problem size `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Linear index of `D<row>[0]`.
    #[inline]
    fn c_index(&self, row: usize) -> usize {
        row * self.n
    }

    /// Linear index of `D_N[k]`.
    #[inline]
    fn dn_index(&self, k: usize) -> usize {
        self.n * self.n + k
    }

    /// Does the cell at `(row, col)` participate in tree-reduction
    /// sub-generation `s`? (It combines with the cell `2^s` to its right.)
    #[inline]
    fn reduces(&self, row: usize, col: usize, s: u32) -> bool {
        let stride = 1usize << s;
        row < self.n && col.is_multiple_of(stride << 1) && col + stride < self.n
    }

    fn phase(ctx: &StepCtx) -> Gen {
        Gen::from_number(ctx.phase)
            .unwrap_or_else(|| panic!("invalid Hirschberg phase {}", ctx.phase))
    }
}

impl GcaRule for HirschbergRule {
    type State = HCell;

    fn access(&self, ctx: &StepCtx, shape: &FieldShape, index: usize, own: &HCell) -> Access {
        let n = self.n;
        let row = shape.row(index);
        let col = shape.col(index);
        match Self::phase(ctx) {
            // d ← row(index): pure initialization, no global read.
            Gen::Init => Access::None,

            // P<j>[i] = <i>[0] — every cell of column i reads C(i).
            Gen::BroadcastC => Access::One(self.c_index(col)),

            // P<j>[i] = <n>[j] — square cells read C(row) from D_N.
            Gen::FilterNeighbors => {
                if row < n {
                    Access::One(self.dn_index(row))
                } else {
                    Access::None
                }
            }

            // p = index + 2^s, guarded to stay inside the row.
            Gen::MinReduce | Gen::MinReduceMembers => {
                if self.reduces(row, col, ctx.subgeneration) {
                    Access::One(index + (1 << ctx.subgeneration))
                } else {
                    Access::None
                }
            }

            // First-column cells read C(row) from D_N for the ∞ fallback.
            Gen::ResolveIsolated | Gen::ResolveMembers => {
                if col == 0 && row < n {
                    Access::One(self.dn_index(row))
                } else {
                    Access::None
                }
            }

            // Like generation 1, but the last row keeps its saved C.
            Gen::BroadcastT => {
                if row < n {
                    Access::One(self.c_index(col))
                } else {
                    Access::None
                }
            }

            // Square cells read C(col) from D_N (see DESIGN.md §3).
            Gen::FilterMembers => {
                if row < n {
                    Access::One(self.dn_index(col))
                } else {
                    Access::None
                }
            }

            // Square cells copy T(row) from column 0; the last row gathers
            // T(col) so that D_N ← T.
            Gen::CopyAndSaveT => {
                if row == n {
                    Access::One(self.c_index(col))
                } else if col == 0 {
                    Access::None
                } else {
                    Access::One(self.c_index(row))
                }
            }

            // p = d·n — data-dependent pointer: C(row) ← C(C(row)).
            Gen::PointerJump => {
                if col == 0 && row < n {
                    Access::One((own.d as usize) * n)
                } else {
                    Access::None
                }
            }

            // p = d·n + 1 — column 1 of row C still holds the pre-jump
            // T = C_step4, so d* = T(C(row)).
            Gen::FinalMin => {
                if col == 0 && row < n {
                    Access::One((own.d as usize) * n + 1)
                } else {
                    Access::None
                }
            }
        }
    }

    fn evolve(
        &self,
        ctx: &StepCtx,
        shape: &FieldShape,
        index: usize,
        own: &HCell,
        reads: Reads<'_, HCell>,
    ) -> HCell {
        let n = self.n;
        let row = shape.row(index);
        match Self::phase(ctx) {
            Gen::Init => own.with_d(row as Word),

            Gen::BroadcastC => own.with_d(reads.expect_first("gen1").d),

            Gen::FilterNeighbors => {
                if row == n {
                    *own
                } else {
                    let c_row = reads.expect_first("gen2").d;
                    // Keep d = C(col) only where an edge connects `row` to
                    // `col` and the endpoints are in different components.
                    if own.a && own.d != c_row {
                        *own
                    } else {
                        own.with_d(INFINITY)
                    }
                }
            }

            Gen::MinReduce | Gen::MinReduceMembers => match reads.first() {
                Some(neigh) => own.with_d(own.d.min(neigh.d)),
                None => *own,
            },

            Gen::ResolveIsolated | Gen::ResolveMembers => match reads.first() {
                Some(saved_c) if own.d == INFINITY => own.with_d(saved_c.d),
                _ => *own,
            },

            Gen::BroadcastT => match reads.first() {
                Some(t) => own.with_d(t.d),
                None => *own, // last row keeps the saved C
            },

            Gen::FilterMembers => {
                if row == n {
                    *own
                } else {
                    let c_col = reads.expect_first("gen6").d;
                    let j = row as Word;
                    // Keep T(col) only where col is a member of component
                    // `row` and its candidate differs from `row`.
                    if c_col == j && own.d != j {
                        *own
                    } else {
                        own.with_d(INFINITY)
                    }
                }
            }

            Gen::CopyAndSaveT => match reads.first() {
                Some(t) => own.with_d(t.d),
                None => *own, // column 0 already holds T(row)
            },

            Gen::PointerJump => match reads.first() {
                Some(target) => own.with_d(target.d),
                None => *own,
            },

            Gen::FinalMin => match reads.first() {
                Some(t_of_c) => own.with_d(own.d.min(t_of_c.d)),
                None => *own,
            },
        }
    }

    /// The active-domain hints follow Table 1's "cells performing a
    /// calculation" column: most generations only compute in the square
    /// field (`Rows(0..n)`), the first column (`Cols(0..1)`), or the strided
    /// tree-reduction set. Out-of-domain cells are identity / access-free /
    /// inactive in every branch of [`access`](Self::access) and
    /// [`evolve`](Self::evolve) above, so hinted stepping is bit-identical
    /// to dense — `table1::tests` verifies this per generation against a
    /// [`gca_engine::Instrumentation::Validate`] machine, which evaluates
    /// the whole field and checks the hint.
    fn domain(&self, ctx: &StepCtx, _shape: &FieldShape) -> Domain {
        let n = self.n;
        match Self::phase(ctx) {
            // Whole field: init writes everywhere, gen 1 broadcasts into
            // D_N too, and gen 9 computes everywhere except column 0 of the
            // square (not a row/column shape — stay dense).
            Gen::Init | Gen::BroadcastC | Gen::CopyAndSaveT => Domain::All,

            // Square-field generations: the extra row D_N is untouched.
            Gen::FilterNeighbors | Gen::BroadcastT | Gen::FilterMembers => Domain::Rows(0..n),

            // Tree reduction: sub-generation 0 touches every other cell of
            // the square (half the field — a dense band); later strides are
            // genuinely sparse, listed explicitly.
            Gen::MinReduce | Gen::MinReduceMembers => {
                let s = ctx.subgeneration;
                if s == 0 {
                    Domain::Rows(0..n)
                } else {
                    let stride = 1usize << s;
                    let mut indices = Vec::new();
                    for row in 0..n {
                        let mut col = 0;
                        while col + stride < n {
                            indices.push(row * n + col);
                            col += stride << 1;
                        }
                    }
                    Domain::Sparse(indices)
                }
            }

            // First-column generations; cell (n, 0) is inside `Cols(0..1)`
            // but is a no-op for these phases, which is harmless.
            Gen::ResolveIsolated | Gen::ResolveMembers | Gen::PointerJump | Gen::FinalMin => {
                Domain::Cols(0..1)
            }
        }
    }

    fn is_active(&self, ctx: &StepCtx, shape: &FieldShape, index: usize, _own: &HCell) -> bool {
        let n = self.n;
        let row = shape.row(index);
        let col = shape.col(index);
        match Self::phase(ctx) {
            // "Active cells are cells that perform a calculation."
            Gen::Init | Gen::BroadcastC => true,
            Gen::FilterNeighbors | Gen::FilterMembers | Gen::BroadcastT => row < n,
            Gen::MinReduce | Gen::MinReduceMembers => self.reduces(row, col, ctx.subgeneration),
            Gen::ResolveIsolated | Gen::ResolveMembers | Gen::PointerJump | Gen::FinalMin => {
                col == 0 && row < n
            }
            Gen::CopyAndSaveT => row == n || col != 0,
        }
    }

    fn name(&self) -> &str {
        "hirschberg-gca"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Layout;
    use gca_engine::{CellField, Engine};
    use gca_graphs::GraphBuilder;

    /// Builds the field for the 2-component graph {0–1}, {2} and runs
    /// generation 0 and 1.
    fn after_broadcast() -> (Layout, CellField<HCell>, Engine, HirschbergRule) {
        let g = GraphBuilder::new(3).edge(0, 1).build().unwrap();
        let layout = Layout::new(3).unwrap();
        let mut field = layout.build_field(&g).unwrap();
        let rule = HirschbergRule::new(3);
        let mut engine = Engine::sequential();
        engine
            .step(&mut field, &rule, Gen::Init.number(), 0)
            .unwrap();
        engine
            .step(&mut field, &rule, Gen::BroadcastC.number(), 0)
            .unwrap();
        (layout, field, engine, rule)
    }

    #[test]
    fn init_sets_row_numbers() {
        let g = GraphBuilder::new(3).build().unwrap();
        let layout = Layout::new(3).unwrap();
        let mut field = layout.build_field(&g).unwrap();
        let rule = HirschbergRule::new(3);
        let mut engine = Engine::sequential();
        let rep = engine
            .step(&mut field, &rule, Gen::Init.number(), 0)
            .unwrap();
        for idx in 0..field.len() {
            assert_eq!(field.get(idx).d as usize, layout.shape().row(idx));
        }
        // All n(n+1) cells are active, none read (Table 1, generation 0).
        assert_eq!(rep.active_cells, 12);
        assert_eq!(rep.total_reads, 0);
    }

    #[test]
    fn broadcast_copies_c_into_rows_and_dn() {
        let (layout, field, _, _) = after_broadcast();
        // After init C = [0, 1, 2]; after broadcast every row holds C.
        for j in 0..4 {
            for i in 0..3 {
                assert_eq!(field.at(j, i).d, i as Word, "cell ({j}, {i})");
            }
        }
        assert_eq!(layout.extract_dn(&field), vec![0, 1, 2]);
    }

    #[test]
    fn broadcast_congestion_matches_table1() {
        let g = GraphBuilder::new(4).build().unwrap();
        let layout = Layout::new(4).unwrap();
        let mut field = layout.build_field(&g).unwrap();
        let rule = HirschbergRule::new(4);
        let mut engine = Engine::sequential();
        engine
            .step(&mut field, &rule, Gen::Init.number(), 0)
            .unwrap();
        let rep = engine
            .step(&mut field, &rule, Gen::BroadcastC.number(), 0)
            .unwrap();
        // Table 1, generation 1: n cells are read with δ = n + 1 each,
        // n² cells with δ = 0.
        let hist = rep.congestion.unwrap();
        let groups = hist.groups();
        assert_eq!(groups.get(&5), Some(&4)); // n = 4 → δ = 5 on 4 cells
        assert_eq!(groups.get(&0), Some(&16));
        assert_eq!(rep.active_cells, 20); // n(n+1)
    }

    #[test]
    fn filter_neighbors_keeps_only_cross_component_edges() {
        let (layout, mut field, mut engine, rule) = after_broadcast();
        let rep = engine
            .step(&mut field, &rule, Gen::FilterNeighbors.number(), 0)
            .unwrap();
        // Row 0 (node 0): edge to node 1, C(1)=1 ≠ C(0)=0 → keep d=1 at col 1.
        assert_eq!(field.at(0, 0).d, INFINITY); // diagonal-ish: no self edge
        assert_eq!(field.at(0, 1).d, 1);
        assert_eq!(field.at(0, 2).d, INFINITY);
        // Row 2 (node 2): isolated → all ∞.
        assert_eq!(field.at(2, 0).d, INFINITY);
        assert_eq!(field.at(2, 1).d, INFINITY);
        assert_eq!(field.at(2, 2).d, INFINITY);
        // Last row untouched (still C).
        assert_eq!(layout.extract_dn(&field), vec![0, 1, 2]);
        // Table 1, generation 2: n² active cells; D_N read with δ = n.
        assert_eq!(rep.active_cells, 9);
        let hist = rep.congestion.unwrap();
        assert_eq!(hist.reads_of(layout.dn_index(0)), 3);
    }

    #[test]
    fn min_reduce_computes_row_minima() {
        let layout = Layout::new(4).unwrap();
        let g = GraphBuilder::new(4).build().unwrap();
        let mut field = layout.build_field(&g).unwrap();
        // Hand-craft row contents to reduce.
        let rows = [
            [7u32, 3, 9, 1],
            [INFINITY, INFINITY, INFINITY, INFINITY],
            [2, INFINITY, 0, 5],
            [8, 8, 8, 8],
        ];
        for (j, r) in rows.iter().enumerate() {
            for (i, &v) in r.iter().enumerate() {
                field.set(layout.shape().index(j, i), HCell::new(v));
            }
        }
        let rule = HirschbergRule::new(4);
        let mut engine = Engine::sequential();
        for s in 0..2 {
            engine
                .step(&mut field, &rule, Gen::MinReduce.number(), s)
                .unwrap();
        }
        assert_eq!(field.at(0, 0).d, 1);
        assert_eq!(field.at(1, 0).d, INFINITY);
        assert_eq!(field.at(2, 0).d, 0);
        assert_eq!(field.at(3, 0).d, 8);
    }

    #[test]
    fn min_reduce_handles_non_power_of_two() {
        let n = 5;
        let layout = Layout::new(n).unwrap();
        let g = GraphBuilder::new(n).build().unwrap();
        let mut field = layout.build_field(&g).unwrap();
        let values = [9u32, 4, 7, 2, 6];
        for (i, &v) in values.iter().enumerate() {
            field.set(layout.shape().index(0, i), HCell::new(v));
        }
        let rule = HirschbergRule::new(n);
        let mut engine = Engine::sequential();
        for s in 0..crate::complexity::ceil_log2(n) {
            engine
                .step(&mut field, &rule, Gen::MinReduce.number(), s)
                .unwrap();
        }
        assert_eq!(field.at(0, 0).d, 2);
    }

    #[test]
    fn resolve_isolated_falls_back_to_saved_c() {
        let layout = Layout::new(3).unwrap();
        let g = GraphBuilder::new(3).build().unwrap();
        let mut field = layout.build_field(&g).unwrap();
        field.set(layout.c_index(0), HCell::new(INFINITY));
        field.set(layout.c_index(1), HCell::new(0));
        field.set(layout.c_index(2), HCell::new(INFINITY));
        field.set(layout.dn_index(0), HCell::new(0));
        field.set(layout.dn_index(1), HCell::new(1));
        field.set(layout.dn_index(2), HCell::new(2));
        let rule = HirschbergRule::new(3);
        let mut engine = Engine::sequential();
        let rep = engine
            .step(&mut field, &rule, Gen::ResolveIsolated.number(), 0)
            .unwrap();
        assert_eq!(layout.extract_labels(&field), vec![0, 0, 2]);
        assert_eq!(rep.active_cells, 3); // the n first-column cells
    }

    #[test]
    fn pointer_jump_shortcuts() {
        let layout = Layout::new(4).unwrap();
        let g = GraphBuilder::new(4).build().unwrap();
        let mut field = layout.build_field(&g).unwrap();
        // C = [0, 0, 1, 2]: a chain 3 → 2 → 1 → 0.
        for (j, c) in [0u32, 0, 1, 2].into_iter().enumerate() {
            field.set(layout.c_index(j), HCell::new(c));
        }
        let rule = HirschbergRule::new(4);
        let mut engine = Engine::sequential();
        for s in 0..2 {
            engine
                .step(&mut field, &rule, Gen::PointerJump.number(), s)
                .unwrap();
        }
        assert_eq!(layout.extract_labels(&field), vec![0, 0, 0, 0]);
    }

    #[test]
    fn final_min_resolves_two_cycle() {
        let n = 4;
        let layout = Layout::new(n).unwrap();
        let g = GraphBuilder::new(n).build().unwrap();
        let mut field = layout.build_field(&g).unwrap();
        // Pre-jump T (= C after step 4): 0 ↔ 1 two-cycle, 2 → 0, 3 → 1.
        let t = [1u32, 0, 0, 1];
        // Column 1 holds T (as generation 9 leaves it) …
        for (j, &tv) in t.iter().enumerate() {
            field.set(layout.shape().index(j, 1), HCell::new(tv));
        }
        // … and column 0 holds the post-jump C: jumping the 2-cycle an even
        // number of times returns each node's own cycle entry point.
        for (j, c) in [0u32, 1, 0, 1].into_iter().enumerate() {
            field.set(layout.c_index(j), HCell::new(c));
        }
        let rule = HirschbergRule::new(n);
        let mut engine = Engine::sequential();
        engine
            .step(&mut field, &rule, Gen::FinalMin.number(), 0)
            .unwrap();
        // min over the cycle {0, 1} is 0 for everybody.
        assert_eq!(layout.extract_labels(&field), vec![0, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "invalid Hirschberg phase")]
    fn invalid_phase_panics() {
        let layout = Layout::new(2).unwrap();
        let g = GraphBuilder::new(2).build().unwrap();
        let mut field = layout.build_field(&g).unwrap();
        let rule = HirschbergRule::new(2);
        let mut engine = Engine::sequential();
        let _ = engine.step(&mut field, &rule, 42, 0);
    }
}
