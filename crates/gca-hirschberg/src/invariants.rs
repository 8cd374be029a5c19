//! Kernel contract anchors: field-level transfer functions for every
//! schedule generation, and the live [`InvariantChecker`] that replays them
//! against a running machine.
//!
//! This module is the *dynamic mirror* of the symbolic invariant prover in
//! `gca-analysis::invariants`. Both sides share one vocabulary:
//!
//! * [`contract_step`] — the per-generation Hoare-contract transfer
//!   function: given the previous data plane and the (immutable) adjacency
//!   plane, produce the data plane the contract promises for the next
//!   generation. The prover verifies per cell that this transfer is
//!   *exactly* the shipped [`HirschbergRule`](crate::HirschbergRule) (zero
//!   machine executions); the checker replays it against every generation
//!   the engine ticks, on every execution path.
//! * [`InvariantClass`] — the five invariant families of the induction
//!   argument (see DESIGN.md §16).
//!
//! The checker hangs off
//! [`Instrumentation::Validate`](gca_engine::Instrumentation::Validate):
//! whenever a machine validates, every committed generation is also checked
//! against the proof model, and the first broken contract surfaces as a
//! typed [`GcaError::InvariantViolation`]. Where the differential replay
//! harness answers "does the kernel match the reference engine?", this
//! answers "does the machine match the *algorithm*?".

use crate::phase::Gen;
use crate::HCell;
use gca_engine::{GcaError, InvariantCheck, StepCtx, Word, INFINITY};
use std::fmt;

/// The five invariant families of the Hirschberg induction argument.
///
/// Each class names one clause of the inductive invariant set that the
/// symbolic prover discharges for all n = 2^k and the dynamic checker
/// asserts on live runs:
///
/// * `ContractStep` — every committed generation equals the contract
///   transfer function applied to the previous generation;
/// * `LabelRange` — at every iteration boundary all labels lie in `[0, n)`;
/// * `ForestCanonicity` — at every iteration boundary the label map is an
///   idempotent, monotone (`C(v) ≤ v`) pointer forest, which makes every
///   root the minimum of its label class;
/// * `PartitionRefinement` — each iteration only *coarsens* the label
///   partition (classes never split), stays a *refinement* of the true
///   connected components, and strictly merges every unfinished class;
/// * `DepthHalving` — each pointer-jump sub-generation at least halves
///   every cell's remaining pointer-chain distance to its terminal cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InvariantClass {
    /// Committed field equals the contract transfer of the previous field.
    ContractStep,
    /// Labels in `[0, n)` at iteration boundaries.
    LabelRange,
    /// Idempotent monotone pointer forest at iteration boundaries.
    ForestCanonicity,
    /// Partition coarsens monotonically, refines the true components, and
    /// every unfinished class merges.
    PartitionRefinement,
    /// Pointer jumping halves chain depth per sub-generation.
    DepthHalving,
}

impl InvariantClass {
    /// All classes, in proof order.
    pub const ALL: [InvariantClass; 5] = [
        InvariantClass::ContractStep,
        InvariantClass::LabelRange,
        InvariantClass::ForestCanonicity,
        InvariantClass::PartitionRefinement,
        InvariantClass::DepthHalving,
    ];

    /// Stable machine-readable name (used in error payloads and the
    /// `--seed-fault` plumbing).
    pub fn name(self) -> &'static str {
        match self {
            InvariantClass::ContractStep => "contract-step",
            InvariantClass::LabelRange => "label-range",
            InvariantClass::ForestCanonicity => "forest-canonicity",
            InvariantClass::PartitionRefinement => "partition-refinement",
            InvariantClass::DepthHalving => "depth-halving",
        }
    }
}

impl fmt::Display for InvariantClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The Hoare-contract transfer function for one `(generation,
/// sub-generation)` of the schedule, expressed over the data plane alone.
///
/// `d` is the previous generation's data plane in field order (`(n+1)·n`
/// words: square rows first, then `D_N`); `adj` is the immutable adjacency
/// plane (`n·n` booleans). Returns the data plane the contract promises
/// after the generation commits. The transfer reads only the *previous*
/// plane — double buffering is inherent, exactly like the engine.
///
/// Data-dependent pointers (generations 10 and 11) are guarded with
/// "out-of-range target keeps the cell": the schedule's `LabelRange`
/// invariant proves the guard never fires on a real run (the engine would
/// reject such a pointer with `PointerOutOfRange` anyway), and the guard
/// keeps the transfer total so the checker itself cannot panic.
pub fn contract_step(n: usize, gen: Gen, sub: u32, adj: &[bool], d: &[Word]) -> Vec<Word> {
    debug_assert_eq!(d.len(), (n + 1) * n);
    debug_assert_eq!(adj.len(), n * n);
    let mut out = d.to_vec();
    let idx = |r: usize, c: usize| r * n + c;
    let dn = |k: usize| n * n + k;
    match gen {
        // d ← row(index), everywhere (including D_N).
        Gen::Init => {
            for r in 0..=n {
                for c in 0..n {
                    out[idx(r, c)] = r as Word;
                }
            }
        }
        // Every cell of column i (including D_N) reads C(i).
        Gen::BroadcastC => {
            for r in 0..=n {
                for c in 0..n {
                    out[idx(r, c)] = d[idx(c, 0)];
                }
            }
        }
        // Square cells keep d = C(col) only across an edge joining
        // different components; D_N keeps.
        Gen::FilterNeighbors => {
            for r in 0..n {
                for c in 0..n {
                    if !(adj[idx(r, c)] && d[idx(r, c)] != d[dn(r)]) {
                        out[idx(r, c)] = INFINITY;
                    }
                }
            }
        }
        // Strided in-row tree reduction: cells at even multiples of the
        // stride combine with the cell 2^s to their right.
        Gen::MinReduce | Gen::MinReduceMembers => {
            let stride = 1usize << sub;
            for r in 0..n {
                let mut c = 0;
                while c + stride < n {
                    out[idx(r, c)] = d[idx(r, c)].min(d[idx(r, c + stride)]);
                    c += stride << 1;
                }
            }
        }
        // First column: ∞ falls back to the component label saved in D_N.
        Gen::ResolveIsolated | Gen::ResolveMembers => {
            for r in 0..n {
                if d[idx(r, 0)] == INFINITY {
                    out[idx(r, 0)] = d[dn(r)];
                }
            }
        }
        // Square cells read T(col) = C(col)[0]; D_N keeps its saved C.
        Gen::BroadcastT => {
            for r in 0..n {
                for c in 0..n {
                    out[idx(r, c)] = d[idx(c, 0)];
                }
            }
        }
        // Keep T(col) only where col is a member of component `row` and its
        // candidate differs from `row`; D_N keeps.
        Gen::FilterMembers => {
            for r in 0..n {
                for c in 0..n {
                    if !(d[dn(c)] == r as Word && d[idx(r, c)] != r as Word) {
                        out[idx(r, c)] = INFINITY;
                    }
                }
            }
        }
        // Square cells (col ≥ 1) copy T(row) from column 0; D_N gathers
        // T(col) so that D_N ← T; column 0 already holds T(row).
        Gen::CopyAndSaveT => {
            for r in 0..n {
                for c in 1..n {
                    out[idx(r, c)] = d[idx(r, 0)];
                }
            }
            for c in 0..n {
                out[dn(c)] = d[idx(c, 0)];
            }
        }
        // C(row) ← C(C(row)) on the first column.
        Gen::PointerJump => {
            for r in 0..n {
                let t = d[idx(r, 0)] as usize;
                if t < n {
                    out[idx(r, 0)] = d[idx(t, 0)];
                }
            }
        }
        // C(row) ← min(C(row), T(C(row))): column 1 still holds the
        // pre-jump T (generation 9 left it there).
        Gen::FinalMin => {
            for r in 0..n {
                let t = d[idx(r, 0)] as usize;
                if t < n {
                    out[idx(r, 0)] = d[idx(r, 0)].min(d[t * n + 1]);
                }
            }
        }
    }
    out
}

/// Distance of every node to the nearest node lying on a cycle of the
/// functional graph `v → next[v]` (cycle nodes have distance 0).
///
/// Out-of-range pointers are treated as self-loops — the `LabelRange`
/// invariant proves they cannot occur on a live run, and the total
/// function keeps the checker panic-free.
fn cycle_dist(next: &[usize]) -> Vec<u32> {
    let n = next.len();
    let step = |v: usize| if next[v] < n { next[v] } else { v };
    // 0 = unvisited, 1 = on the current path, 2 = resolved.
    let mut state = vec![0u8; n];
    let mut dist = vec![0u32; n];
    let mut path_pos = vec![0usize; n];
    for start in 0..n {
        if state[start] != 0 {
            continue;
        }
        let mut path = Vec::new();
        let mut v = start;
        while state[v] == 0 {
            state[v] = 1;
            path_pos[v] = path.len();
            path.push(v);
            v = step(v);
        }
        let base = if state[v] == 1 {
            // Closed a new cycle: everything from v's position onward is on
            // it at distance 0.
            let pos = path_pos[v];
            for &c in &path[pos..] {
                dist[c] = 0;
                state[c] = 2;
            }
            path.truncate(pos);
            0
        } else {
            dist[v]
        };
        let mut depth = base;
        for &p in path.iter().rev() {
            depth += 1;
            dist[p] = depth;
            state[p] = 2;
        }
    }
    dist
}

/// Minimum-labeled representative of each node's true connected component,
/// computed once by union-find over the adjacency plane.
fn component_minima(n: usize, adj: &[bool]) -> Vec<Word> {
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut v: usize) -> usize {
        while parent[v] != v {
            parent[v] = parent[parent[v]];
            v = parent[v];
        }
        v
    }
    for r in 0..n {
        for c in (r + 1)..n {
            if adj[r * n + c] {
                let (a, b) = (find(&mut parent, r), find(&mut parent, c));
                if a != b {
                    parent[a.max(b)] = a.min(b);
                }
            }
        }
    }
    let mut minima = vec![INFINITY; n];
    for v in 0..n {
        let root = find(&mut parent, v);
        minima[root] = minima[root].min(v as Word);
    }
    (0..n).map(|v| minima[find(&mut parent, v)]).collect()
}

/// Live invariant checker: replays the contract transfer functions against
/// every committed generation of a running machine and asserts the
/// iteration-boundary invariants of the induction argument.
///
/// One checker instance observes one run. It is armed by
/// [`Machine`](crate::Machine) whenever the engine runs under
/// [`Instrumentation::Validate`](gca_engine::Instrumentation::Validate),
/// on *all* execution paths (generic and fused; a validated
/// fused machine ticks the engine) — the proof model is
/// execution-path-agnostic, so one shadow plane checks them all.
#[derive(Clone, Debug)]
pub struct InvariantChecker {
    n: usize,
    adj: Vec<bool>,
    true_min: Vec<Word>,
    /// Shadow data plane advanced by [`contract_step`] per observation.
    spec: Vec<Word>,
    /// Labels at the last iteration boundary (identity after Init).
    iter_labels: Vec<Word>,
    fault: Option<InvariantClass>,
}

impl InvariantChecker {
    /// Build a checker from the machine's current field contents (the
    /// *pre*-state of the next generation to run): the `n²` adjacency bits
    /// of the square and the `n(n+1)` data words, both in row-major field
    /// order. Used both at `init()` and to re-arm after `restore()` — field
    /// snapshots are meaningful at iteration boundaries, where column 0
    /// carries the labels.
    pub fn new(n: usize, adj: Vec<bool>, d: &[Word]) -> Self {
        debug_assert_eq!(adj.len(), n * n);
        debug_assert_eq!(d.len(), (n + 1) * n);
        let true_min = component_minima(n, &adj);
        let spec = d.to_vec();
        let iter_labels: Vec<Word> = (0..n).map(|r| spec[r * n]).collect();
        InvariantChecker {
            n,
            adj,
            true_min,
            spec,
            iter_labels,
            fault: None,
        }
    }

    /// Arm a one-shot planted fault of the given class: the next check site
    /// of that class perturbs its own inputs so the contract *must* report
    /// a violation. Test hook for the failure-injection suite (classes
    /// other than `ContractStep`/`DepthHalving` fire at the next iteration
    /// boundary; `ForestCanonicity`/`PartitionRefinement` need n ≥ 2).
    pub fn seed_fault(&mut self, class: InvariantClass) {
        self.fault = Some(class);
    }

    fn violation(&self, class: InvariantClass, ctx: &StepCtx, cell: usize) -> GcaError {
        GcaError::InvariantViolation {
            invariant: class.name().to_string(),
            generation: ctx.generation,
            phase: ctx.phase,
            cell,
        }
    }

    fn take_fault(&mut self, class: InvariantClass) -> bool {
        if self.fault == Some(class) {
            self.fault = None;
            true
        } else {
            false
        }
    }

    /// Current shadow labels (column 0 of the spec plane).
    fn spec_labels(&self) -> Vec<Word> {
        (0..self.n).map(|r| self.spec[r * self.n]).collect()
    }

    fn check_boundary(&mut self, ctx: &StepCtx) -> Result<(), GcaError> {
        let n = self.n;
        let labels = self.spec_labels();

        // LabelRange: every label in [0, n).
        let mut ranged = labels.clone();
        if self.take_fault(InvariantClass::LabelRange) && n > 0 {
            ranged[0] = n as Word;
        }
        for (v, &l) in ranged.iter().enumerate() {
            if l >= n as Word {
                return Err(self.violation(InvariantClass::LabelRange, ctx, v * n));
            }
        }

        // ForestCanonicity: idempotent and monotone, hence every root is
        // the minimum of its class.
        let mut forest = labels.clone();
        if self.take_fault(InvariantClass::ForestCanonicity) && n > 1 {
            forest[0] = 1;
        }
        for v in 0..n {
            let l = forest[v] as usize;
            if forest[v] > v as Word || (l < n && forest[l] != forest[v]) {
                return Err(self.violation(InvariantClass::ForestCanonicity, ctx, v * n));
            }
        }

        // PartitionRefinement: the iteration only coarsened the partition,
        // the result still refines the true components, and every
        // unfinished class merged with at least one other.
        let (old, new) = if self.take_fault(InvariantClass::PartitionRefinement) && n > 1 {
            ((vec![0; n]), (0..n as Word).collect::<Vec<_>>())
        } else {
            (self.iter_labels.clone(), labels.clone())
        };
        // Coarsening: new labels are constant on old classes.
        let mut fused_to = vec![None; n];
        for v in 0..n {
            let o = old[v] as usize;
            if o >= n {
                continue; // out-of-range old labels were caught above
            }
            match fused_to[o] {
                None => fused_to[o] = Some(new[v]),
                Some(l) if l != new[v] => {
                    return Err(self.violation(InvariantClass::PartitionRefinement, ctx, v * n));
                }
                Some(_) => {}
            }
        }
        // Refinement: new classes never span two true components.
        let mut class_min = vec![None; n];
        for (v, (&l, &min)) in new.iter().zip(&self.true_min).enumerate() {
            let l = l as usize;
            if l >= n {
                continue;
            }
            match class_min[l] {
                None => class_min[l] = Some(min),
                Some(m) if m != min => {
                    return Err(self.violation(InvariantClass::PartitionRefinement, ctx, v * n));
                }
                Some(_) => {}
            }
        }
        // Progress: s_new ≤ finished + ⌊(s_old − finished) / 2⌋ — every
        // class that is not yet a whole component merges with another.
        let mut comp_size = vec![0usize; n];
        for v in 0..n {
            comp_size[self.true_min[v] as usize] += 1;
        }
        let mut old_size = vec![0usize; n];
        for &o in &old {
            let o = o as usize;
            if o < n {
                old_size[o] += 1;
            }
        }
        let finished = (0..n)
            .filter(|&l| old_size[l] > 0 && old_size[l] == comp_size[self.true_min[l] as usize])
            .count();
        let s_old = old_size.iter().filter(|&&s| s > 0).count();
        let mut seen_new = vec![false; n];
        for &l in &new {
            let l = l as usize;
            if l < n {
                seen_new[l] = true;
            }
        }
        let s_new = seen_new.iter().filter(|&&s| s).count();
        if s_new > finished + (s_old - finished.min(s_old)) / 2 {
            return Err(self.violation(InvariantClass::PartitionRefinement, ctx, 0));
        }

        self.iter_labels = labels;
        Ok(())
    }
}

/// The observed states are the engine's cells. Only their data words are
/// judged: no generation writes `a`, so the checker keeps its own copy of
/// the adjacency from [`InvariantChecker::new`].
impl InvariantCheck<HCell> for InvariantChecker {
    fn after_generation(&mut self, ctx: &StepCtx, states: &[HCell]) -> Result<(), GcaError> {
        let n = self.n;
        let Some(gen) = Gen::from_number(ctx.phase) else {
            return Ok(()); // foreign phase tag: not ours to judge
        };

        // Chain-depth pre-image for the halving check.
        let pre_depth = (gen == Gen::PointerJump).then(|| {
            let next: Vec<usize> = self.spec_labels().iter().map(|&l| l as usize).collect();
            cycle_dist(&next)
        });

        // ContractStep: the committed plane is exactly the transfer of the
        // previous plane.
        self.spec = contract_step(n, gen, ctx.subgeneration, &self.adj, &self.spec);
        if self.take_fault(InvariantClass::ContractStep) && !self.spec.is_empty() {
            self.spec[0] = self.spec[0].wrapping_add(1);
        }
        for (i, c) in states.iter().enumerate() {
            if c.d != self.spec[i] {
                return Err(self.violation(InvariantClass::ContractStep, ctx, i));
            }
        }

        if gen == Gen::Init {
            // The induction base: labels are the identity forest.
            self.iter_labels = (0..n as Word).collect();
        }

        if let Some(pre) = pre_depth {
            let next: Vec<usize> = self.spec_labels().iter().map(|&l| l as usize).collect();
            let mut post = cycle_dist(&next);
            if self.take_fault(InvariantClass::DepthHalving) && n > 0 {
                post[0] = pre[0].div_ceil(2) + 1;
            }
            for v in 0..n {
                if post[v] > pre[v].div_ceil(2) {
                    return Err(self.violation(InvariantClass::DepthHalving, ctx, v * n));
                }
            }
        }

        if gen == Gen::FinalMin {
            self.check_boundary(ctx)?;
        }

        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::iteration_schedule;
    use crate::{HirschbergRule, Layout};
    use gca_engine::Engine;
    use gca_graphs::GraphBuilder;

    /// The contract transfer function is the rule: run a full schedule on a
    /// real engine and replay every generation through `contract_step`.
    #[test]
    fn contract_step_tracks_the_engine_exactly() {
        let n = 6;
        let g = GraphBuilder::new(n)
            .edge(0, 3)
            .edge(3, 5)
            .edge(1, 2)
            .build()
            .unwrap();
        let layout = Layout::new(n).unwrap();
        let mut field = layout.build_field(&g).unwrap();
        let rule = HirschbergRule::new(n);
        let mut engine = Engine::sequential();
        let adj: Vec<bool> = (0..n * n).map(|i| field.get(i).a).collect();
        let mut spec: Vec<Word> = (0..field.len()).map(|i| field.get(i).d).collect();

        let mut schedule = vec![(Gen::Init, 0)];
        for _ in 0..crate::complexity::ceil_log2(n) {
            schedule.extend(iteration_schedule(n));
        }
        for (gen, sub) in schedule {
            engine.step(&mut field, &rule, gen.number(), sub).unwrap();
            spec = contract_step(n, gen, sub, &adj, &spec);
            for (i, &want) in spec.iter().enumerate() {
                assert_eq!(
                    field.get(i).d,
                    want,
                    "cell {i} diverged at {gen:?} sub {sub}"
                );
            }
        }
        // And the fixed point is the component minima.
        assert_eq!(layout.extract_labels(&field), vec![0, 1, 1, 0, 4, 0]);
    }

    #[test]
    fn cycle_dist_measures_chain_depth() {
        // 0 ↔ 1 two-cycle; 2 → 1; 3 → 2; 4 → 4 self-loop.
        let next = [1usize, 0, 1, 2, 4];
        assert_eq!(cycle_dist(&next), vec![0, 0, 1, 2, 0]);
    }

    #[test]
    fn cycle_dist_tolerates_out_of_range_pointers() {
        // Out-of-range targets degrade to self-loops instead of panicking.
        assert_eq!(cycle_dist(&[7usize, 0]), vec![0, 1]);
    }

    #[test]
    fn component_minima_match_union_find() {
        let n = 5;
        let mut adj = vec![false; n * n];
        for (a, b) in [(0, 4), (1, 3)] {
            adj[a * n + b] = true;
            adj[b * n + a] = true;
        }
        assert_eq!(component_minima(n, &adj), vec![0, 1, 2, 1, 0]);
    }

    #[test]
    fn class_names_are_stable() {
        let names: Vec<&str> = InvariantClass::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(
            names,
            vec![
                "contract-step",
                "label-range",
                "forest-canonicity",
                "partition-refinement",
                "depth-halving",
            ]
        );
        assert_eq!(InvariantClass::DepthHalving.to_string(), "depth-halving");
    }
}
