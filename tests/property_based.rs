//! Property-based tests over random graphs: the GCA machines, the PRAM
//! reference and the sequential baselines are exercised against each other
//! and against structural invariants of component labelings.

use gca_engine::{
    Access, CellField, Domain, Engine, FieldShape, GcaRule, Instrumentation, Reads,
    StepCtx,
};
use gca_graphs::connectivity::union_find_components_dense;
use gca_graphs::{generators, AdjacencyMatrix, Labeling};
use gca_hirschberg::variants::{low_congestion, n_cells};
use gca_hirschberg::{complexity, Convergence, ExecPath, FusedParallel, HirschbergGca};
use gca_pram::hirschberg_ref;
use proptest::prelude::*;

/// Strategy: a random graph as (n, edge list over pairs).
fn arb_graph(max_n: usize) -> impl Strategy<Value = AdjacencyMatrix> {
    (2usize..=max_n).prop_flat_map(|n| {
        let max_edges = n * (n - 1) / 2;
        proptest::collection::vec((0..n, 0..n), 0..=max_edges.min(60)).prop_map(move |pairs| {
            let mut g = AdjacencyMatrix::new(n);
            for (u, v) in pairs {
                if u != v {
                    g.add_edge(u, v).expect("in range");
                }
            }
            g
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The GCA main machine always equals union-find, label for label.
    #[test]
    fn gca_equals_union_find(g in arb_graph(20)) {
        let expected = union_find_components_dense(&g);
        let run = HirschbergGca::new().run(&g).unwrap();
        prop_assert_eq!(run.labels.as_slice(), expected.as_slice());
    }

    /// All variants and the PRAM reference agree with the main machine.
    #[test]
    fn all_machines_agree(g in arb_graph(14)) {
        let main = HirschbergGca::new().run(&g).unwrap().labels;
        prop_assert_eq!(&n_cells::run(&g).unwrap().labels, &main);
        prop_assert_eq!(&low_congestion::run(&g).unwrap().labels, &main);
        prop_assert_eq!(&hirschberg_ref::connected_components(&g).unwrap().labels, &main);
    }

    /// Labels are canonical: every node's label is the minimum node index
    /// of its component, and labels are fixed points (label(label(v)) ==
    /// label(v)).
    #[test]
    fn labels_are_canonical(g in arb_graph(20)) {
        let run = HirschbergGca::new().run(&g).unwrap();
        prop_assert!(run.labels.is_canonical());
        for v in 0..g.n() {
            let l = run.labels.label(v);
            prop_assert_eq!(run.labels.label(l), l);
            prop_assert!(l <= v);
        }
    }

    /// Adjacent nodes always share a label; the number of distinct labels
    /// equals n minus the rank of the edge set's spanning forest.
    #[test]
    fn adjacent_nodes_share_labels(g in arb_graph(20)) {
        let run = HirschbergGca::new().run(&g).unwrap();
        for (u, v) in g.edges() {
            prop_assert_eq!(run.labels.label(u), run.labels.label(v));
        }
    }

    /// Adding an edge *inside* an existing component never changes the
    /// partition; adding one *between* two components merges exactly them.
    #[test]
    fn edge_addition_monotonicity(g in arb_graph(16), extra in (0usize..16, 0usize..16)) {
        let n = g.n();
        let (u, v) = (extra.0 % n, extra.1 % n);
        prop_assume!(u != v);
        let before = HirschbergGca::new().run(&g).unwrap().labels;
        let mut g2 = g.clone();
        g2.add_edge(u, v).unwrap();
        let after = HirschbergGca::new().run(&g2).unwrap().labels;
        if before.label(u) == before.label(v) {
            prop_assert_eq!(before.as_slice(), after.as_slice());
        } else {
            prop_assert_eq!(after.component_count() + 1, before.component_count());
            prop_assert_eq!(after.label(u), after.label(v));
        }
    }

    /// The generation counter always matches the closed form, regardless
    /// of the input graph.
    #[test]
    fn generation_count_is_input_independent(g in arb_graph(20)) {
        let run = HirschbergGca::new().run(&g).unwrap();
        prop_assert_eq!(run.generations, complexity::total_generations(g.n()));
    }

    /// Congestion bound: no generation's congestion ever exceeds n + 1
    /// (the generation-1 broadcast is the global maximum by Table 1).
    #[test]
    fn congestion_never_exceeds_table1_bound(g in arb_graph(18)) {
        let run = HirschbergGca::new().run(&g).unwrap();
        prop_assert!(run.max_congestion() as usize <= g.n() + 1);
    }

    /// Early exit is purely an optimization: identical labels, no more
    /// generations than the fixed schedule.
    #[test]
    fn early_exit_sound(g in arb_graph(18)) {
        let fixed = HirschbergGca::new().run(&g).unwrap();
        let early = HirschbergGca::new().early_exit(true).run(&g).unwrap();
        prop_assert_eq!(fixed.labels.as_slice(), early.labels.as_slice());
        prop_assert!(early.generations <= fixed.generations);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Planted structures are always recovered exactly.
    #[test]
    fn planted_partitions(n in 4usize..24, k in 1usize..5, seed in 0u64..1000) {
        let k = k.min(n);
        let planted = generators::planted_components(n, k, 0.3, seed);
        let run = HirschbergGca::new().run(&planted.graph).unwrap();
        prop_assert!(run.labels.same_partition(&planted.expected_labels()));
        prop_assert_eq!(run.labels.component_count(), k);
    }

    /// Relabeling invariance: permuting node identities permutes the
    /// partition consistently.
    #[test]
    fn permutation_invariance(seed in 0u64..500) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let n = 12usize;
        let g = generators::gnp(n, 0.25, seed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xabcdef);
        let mut perm: Vec<usize> = (0..n).collect();
        perm.shuffle(&mut rng);
        let permuted = g.permute(&perm);

        let base = HirschbergGca::new().run(&g).unwrap().labels;
        let perm_run = HirschbergGca::new().run(&permuted).unwrap().labels;

        // Nodes u, v connected in g  <=>  perm[u], perm[v] connected.
        let mapped: Vec<usize> = {
            // Build the partition of the permuted graph pulled back to the
            // original ids, then canonicalize for comparison.
            let mut labels = vec![0usize; n];
            for v in 0..n {
                labels[v] = perm_run.label(perm[v]);
            }
            labels
        };
        let pulled_back = Labeling::new(mapped).unwrap();
        prop_assert!(pulled_back.same_partition(&base));
    }
}

// ---------------------------------------------------------------------------
// Engine-knob equivalences: the instrumentation level must never change
// observable behaviour — fields, activity, reads, congestion — and hinted
// domains must agree with the dense `Validate` reference.
// ---------------------------------------------------------------------------

/// A randomly parameterized rule whose work is confined to a declared
/// [`Domain`]: in-domain cells mix their own state with one or two
/// pseudo-randomly addressed global reads; out-of-domain cells honor the
/// domain contract (identity `evolve`, `Access::None`, inactive).
struct DomainConfinedRule {
    domain: Domain,
    mult: u32,
    stride: usize,
}

impl GcaRule for DomainConfinedRule {
    type State = u32;

    fn access(&self, _ctx: &StepCtx, shape: &FieldShape, index: usize, own: &u32) -> Access {
        if !self.domain.contains(shape, index) {
            return Access::None;
        }
        let len = shape.len();
        let a = (index * 31 + self.stride) % len;
        match (index + *own as usize) % 5 {
            0 => Access::None,
            1 | 2 => Access::Two(a, (index + self.stride) % len),
            _ => Access::One(a),
        }
    }

    fn evolve(
        &self,
        _ctx: &StepCtx,
        shape: &FieldShape,
        index: usize,
        own: &u32,
        reads: Reads<'_, u32>,
    ) -> u32 {
        if !self.domain.contains(shape, index) {
            return *own;
        }
        let a = reads.first().copied().unwrap_or(1);
        let b = reads.second().copied().unwrap_or(3);
        own.wrapping_mul(self.mult)
            .wrapping_add(a ^ b.rotate_left(5))
            .wrapping_add(index as u32)
    }

    fn is_active(&self, _ctx: &StepCtx, shape: &FieldShape, index: usize, own: &u32) -> bool {
        self.domain.contains(shape, index) && own % 3 != 2
    }

    fn domain(&self, _ctx: &StepCtx, _shape: &FieldShape) -> Domain {
        self.domain.clone()
    }

    fn name(&self) -> &str {
        "domain-confined"
    }
}

/// Builds one of the four domain shapes from integer parameters.
fn make_domain(kind: usize, a: usize, b: usize, seed: u64, shape: &FieldShape) -> Domain {
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    match kind {
        0 => Domain::All,
        1 => Domain::Rows(lo % (shape.rows() + 1)..hi % (shape.rows() + 1)),
        2 => Domain::Cols(lo % (shape.cols() + 1)..hi % (shape.cols() + 1)),
        _ => {
            // A deterministic pseudo-random ~1/3 subset of the cells.
            let indices = (0..shape.len())
                .filter(|&i| {
                    let mut z = seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    z ^= z >> 29;
                    z.is_multiple_of(3)
                })
                .collect();
            Domain::Sparse(indices)
        }
    }
}

/// Every instrumentation level the engine offers.
fn engine_configs() -> Vec<Engine> {
    [
        Instrumentation::Off,
        Instrumentation::Counts,
        Instrumentation::Trace,
        Instrumentation::Validate,
    ]
    .into_iter()
    .map(|instr| Engine::sequential().with_instrumentation(instr))
    .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Stepping any random domain-confined rule under every
    /// instrumentation level produces bit-identical fields, active-cell
    /// counts, read totals, changed-cell counts and congestion histograms;
    /// hinted stepping never evaluates more cells than the dense `Validate`
    /// reference, and traces no access outside the rule's domain.
    #[test]
    fn engine_knobs_are_observationally_equivalent(
        (rows, cols) in (1usize..7, 1usize..8),
        (kind, a, b) in (0usize..4, 0usize..8, 0usize..8),
        seed in 0u64..1_000,
        steps in 1usize..4,
    ) {
        let shape = FieldShape::new(rows, cols).unwrap();
        let domain = make_domain(kind, a, b, seed, &shape);
        let rule = DomainConfinedRule {
            domain,
            mult: (seed % 13) as u32 + 1,
            stride: (seed % 17) as usize + 1,
        };
        let init = |i: usize| (seed as u32).wrapping_mul(2654435761).wrapping_add(i as u32);

        // Reference: dense, with the domain contract checked.
        let mut ref_engine = Engine::sequential().with_instrumentation(Instrumentation::Validate);
        let mut ref_field = CellField::from_fn(shape, init);

        let mut variants: Vec<(Engine, CellField<u32>)> = engine_configs()
            .into_iter()
            .map(|e| (e, CellField::from_fn(shape, init)))
            .collect();

        for step in 0..steps {
            let ref_rep = ref_engine.step(&mut ref_field, &rule, 0, step as u32).unwrap();
            for (engine, field) in &mut variants {
                let rep = engine.step(field, &rule, 0, step as u32).unwrap();
                prop_assert_eq!(field.states(), ref_field.states(),
                    "fields diverge: {:?}", engine);
                prop_assert_eq!(rep.active_cells, ref_rep.active_cells);
                prop_assert_eq!(rep.total_reads, ref_rep.total_reads);
                prop_assert_eq!(rep.changed_cells, ref_rep.changed_cells);
                prop_assert!(rep.evaluated_cells <= ref_rep.evaluated_cells);
                if let Some(hist) = rep.congestion.as_ref() {
                    prop_assert_eq!(Some(hist), ref_rep.congestion.as_ref());
                }
                if let Some(accesses) = rep.accesses.as_ref() {
                    for (i, acc) in accesses.iter().enumerate() {
                        if !rule.domain.contains(&shape, i) {
                            prop_assert_eq!(*acc, Access::None, "cell {} outside the domain", i);
                        }
                    }
                }
            }
        }
    }

    /// The full Hirschberg run agrees label-for-label, generation-for-
    /// generation, and metric-for-metric across every engine configuration.
    #[test]
    fn hirschberg_engine_knobs_agree(g in arb_graph(12)) {
        // The knobs steer the engine, which only the generic path ticks.
        let generic = || HirschbergGca::new().exec(ExecPath::Generic);
        let reference = generic().run(&g).unwrap();
        for engine in engine_configs() {
            let run = generic().with_engine(engine).run(&g).unwrap();
            prop_assert_eq!(run.labels.as_slice(), reference.labels.as_slice());
            prop_assert_eq!(run.generations, reference.generations);
            if !run.metrics.entries().is_empty() {
                prop_assert_eq!(run.metrics.entries(), reference.metrics.entries());
            }
        }
    }

    /// Convergence detection is purely an optimization: identical labels,
    /// never more generations than the fixed schedule, and the closed-form
    /// bound `1 + log n (3 log n + 8)` always holds.
    #[test]
    fn detect_convergence_sound(g in arb_graph(16)) {
        let fixed = HirschbergGca::new().run(&g).unwrap();
        let detect = HirschbergGca::new()
            .convergence(Convergence::Detect)
            .run(&g)
            .unwrap();
        prop_assert_eq!(detect.labels.as_slice(), fixed.labels.as_slice());
        prop_assert!(detect.generations <= fixed.generations);
        prop_assert!(detect.generations <= complexity::total_generations(g.n()));
        // Detect composed with early exit still agrees.
        let both = HirschbergGca::new()
            .convergence(Convergence::Detect)
            .early_exit(true)
            .run(&g)
            .unwrap();
        prop_assert_eq!(both.labels.as_slice(), fixed.labels.as_slice());
        prop_assert!(both.generations <= detect.generations);
    }
}

/// Strategy: one of the fused-path acceptance families — Gilbert `G(n, p)`,
/// random forest, or a cycle — at `n ∈ {4, 8, 16, 32, 64}`.
fn arb_fused_graph() -> impl Strategy<Value = AdjacencyMatrix> {
    const SIZES: [usize; 5] = [4, 8, 16, 32, 64];
    (0usize..SIZES.len(), 0usize..3, 1u64..1_000_000, 1u32..8).prop_map(
        |(size_idx, family, seed, p_twentieths)| {
            let n = SIZES[size_idx];
            match family {
                0 => generators::gnp(n, f64::from(p_twentieths) / 20.0, seed),
                1 => generators::random_forest(n, (n / 4).max(1), seed),
                _ => generators::ring(n),
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The fused execution path is bit-identical to the generic path: same
    /// labelings and same `Counts` metrics (active cells, total reads,
    /// congestion histograms, generation contexts) on every workload of
    /// [`arb_fused_graph`].
    #[test]
    fn fused_equals_generic(g in arb_fused_graph()) {
        let generic = HirschbergGca::new().exec(ExecPath::Generic).run(&g).unwrap();
        let fused = HirschbergGca::new().exec(ExecPath::Fused).run(&g).unwrap();
        prop_assert_eq!(fused.labels.as_slice(), generic.labels.as_slice());
        prop_assert_eq!(fused.generations, generic.generations);
        prop_assert_eq!(fused.metrics.entries(), generic.metrics.entries());
    }

    /// The same equivalence holds under convergence detection: the sweep's
    /// pointer-jump sequence stops on exactly the same sub-generation, so
    /// generation counts and metrics logs still match entry for entry.
    #[test]
    fn fused_equals_generic_under_detect(g in arb_fused_graph()) {
        let generic = HirschbergGca::new()
            .convergence(Convergence::Detect)
            .exec(ExecPath::Generic)
            .run(&g)
            .unwrap();
        let fused = HirschbergGca::new()
            .convergence(Convergence::Detect)
            .exec(ExecPath::Fused)
            .run(&g)
            .unwrap();
        prop_assert_eq!(fused.labels.as_slice(), generic.labels.as_slice());
        prop_assert_eq!(fused.generations, generic.generations);
        prop_assert_eq!(fused.metrics.entries(), generic.metrics.entries());
    }

    /// The row-partitioned parallel fused path is bit-identical to BOTH the
    /// sequential fused path and the generic path — labels, generation
    /// counts and `Counts` metrics entry for entry — for every worker count
    /// in a small sweep. `threshold: Some(0)` forces the partitioned
    /// neighbour-min even on these small fields (the auto-fallback would
    /// otherwise make this test vacuous below `kernels::MIN_PAR_CELLS`).
    #[test]
    fn parallel_fused_equals_fused_and_generic(g in arb_fused_graph()) {
        let generic = HirschbergGca::new().exec(ExecPath::Generic).run(&g).unwrap();
        let fused = HirschbergGca::new().exec(ExecPath::Fused).run(&g).unwrap();
        for workers in [2usize, 3, 7] {
            let par = HirschbergGca::new()
                .exec(ExecPath::FusedParallel(FusedParallel { workers, threshold: Some(0) }))
                .run(&g)
                .unwrap();
            prop_assert_eq!(par.labels.as_slice(), generic.labels.as_slice());
            prop_assert_eq!(par.generations, generic.generations);
            prop_assert_eq!(par.metrics.entries(), generic.metrics.entries());
            prop_assert_eq!(par.metrics.entries(), fused.metrics.entries());
        }
    }

    /// Same equivalence under convergence detection: the sweep's pointer
    /// jumping must stop on exactly the same sub-generation.
    #[test]
    fn parallel_fused_equals_generic_under_detect(g in arb_fused_graph()) {
        let generic = HirschbergGca::new()
            .convergence(Convergence::Detect)
            .exec(ExecPath::Generic)
            .run(&g)
            .unwrap();
        let par = HirschbergGca::new()
            .convergence(Convergence::Detect)
            .exec(ExecPath::FusedParallel(FusedParallel { workers: 3, threshold: Some(0) }))
            .run(&g)
            .unwrap();
        prop_assert_eq!(par.labels.as_slice(), generic.labels.as_slice());
        prop_assert_eq!(par.generations, generic.generations);
        prop_assert_eq!(par.metrics.entries(), generic.metrics.entries());
    }
}

/// One larger-than-corpus case: at n = 256 the square (n² cells) clears
/// the engine's default amortization threshold, so the partitioned
/// neighbour-min engages without forcing, and the auto worker count path
/// (`workers: 0`) is exercised alongside explicit counts.
#[test]
fn parallel_fused_bit_identical_at_n256() {
    let g = generators::gnp(256, 0.3, 2007);
    let fused = HirschbergGca::new().exec(ExecPath::Fused).run(&g).unwrap();
    for workers in [0usize, 2, 3, 7] {
        let par = HirschbergGca::new()
            .exec(ExecPath::FusedParallel(FusedParallel { workers, threshold: None }))
            .run(&g)
            .unwrap();
        assert_eq!(par.labels.as_slice(), fused.labels.as_slice(), "workers={workers}");
        assert_eq!(par.generations, fused.generations, "workers={workers}");
        assert_eq!(par.metrics.entries(), fused.metrics.entries(), "workers={workers}");
    }
}

// ---------------------------------------------------------------------------
// Symbolic-vs-dynamic bridge: the closed forms `gca_analysis::symbolic`
// derives WITHOUT executing the machine must describe what an instrumented
// run actually measures — activity exactly, congestion δ exactly for the
// statically addressed phases and as an upper bound for the data-dependent
// pointer chases, and phase-execution counts entry for entry.
// ---------------------------------------------------------------------------

use gca_analysis::symbolic::{self, PhaseForms, SymbolicModel};
use gca_hirschberg::table1::{measure_first_iteration, measure_full_run};
use gca_hirschberg::Gen;
use std::sync::OnceLock;

/// Derives the symbolic model once (six exact sample fits plus a held-out
/// size) and shares it across every proptest case.
fn symbolic_model() -> &'static SymbolicModel {
    static MODEL: OnceLock<SymbolicModel> = OnceLock::new();
    MODEL.get_or_init(|| symbolic::derive().expect("symbolic derivation succeeds"))
}

fn forms(model: &SymbolicModel, gen: Gen) -> &PhaseForms {
    model
        .phases
        .iter()
        .find(|p| p.gen == gen)
        .expect("the model carries all twelve phases")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For every power of two up to `2^8` and any graph, the measured
    /// sub-generation-0 rows of the first iteration match the symbolic
    /// activity polynomials exactly; measured congestion equals the δ
    /// polynomial for statically addressed phases and never exceeds it
    /// for the data-dependent ones.
    #[test]
    fn symbolic_forms_describe_measured_first_iteration(
        k in 1u32..=8,
        seed in 0u64..1_000,
        p_twentieths in 0u32..=20,
    ) {
        let n = 1usize << k;
        let g = generators::gnp(n, f64::from(p_twentieths) / 20.0, seed);
        let model = symbolic_model();
        let rows = measure_first_iteration(&g).unwrap();
        for row in rows.iter().filter(|r| r.subgeneration == 0) {
            let f = forms(model, row.generation);
            let active = f.activity.eval_u64(n as u64, k).expect("integral activity");
            prop_assert_eq!(
                row.active as u64, active,
                "activity at {:?}, n = {}", row.generation, n
            );
            let delta = f.congestion.eval_u64(n as u64, k).expect("integral δ");
            if matches!(row.generation, Gen::PointerJump | Gen::FinalMin) {
                prop_assert!(
                    u64::from(row.max_congestion) <= delta,
                    "δ bound at {:?}, n = {}: measured {} > symbolic {}",
                    row.generation, n, row.max_congestion, delta
                );
            } else {
                prop_assert_eq!(
                    u64::from(row.max_congestion), delta,
                    "δ at {:?}, n = {}", row.generation, n
                );
            }
        }
    }

    /// Over a full fixed-schedule run, every phase executes exactly as
    /// often as its symbolic execution-count polynomial predicts, and the
    /// metrics log's length is the total-generations closed form.
    #[test]
    fn symbolic_execution_counts_match_full_run(
        k in 1u32..=5,
        seed in 0u64..1_000,
        p_twentieths in 0u32..=20,
    ) {
        let n = 1usize << k;
        let g = generators::gnp(n, f64::from(p_twentieths) / 20.0, seed);
        let model = symbolic_model();
        let rows = measure_full_run(&g).unwrap();
        let total = model
            .total_generations
            .eval_u64(n as u64, k)
            .expect("integral total");
        prop_assert_eq!(rows.len() as u64, total);
        for gen in Gen::ALL {
            let executed = rows.iter().filter(|r| r.generation == gen).count() as u64;
            let predicted = forms(model, gen)
                .executions
                .eval_u64(n as u64, k)
                .expect("integral executions");
            prop_assert_eq!(executed, predicted, "executions of {:?}, n = {}", gen, n);
        }
    }
}
