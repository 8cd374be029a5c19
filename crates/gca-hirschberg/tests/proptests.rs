//! Property-based tests for the Hirschberg GCA machines: generation-level
//! invariants of the state machine that the integration suite (which treats
//! the machines as black boxes) cannot see.

use gca_engine::{Engine, Instrumentation, INFINITY};
use gca_graphs::connectivity::union_find_components_dense;
use gca_graphs::AdjacencyMatrix;
use gca_hirschberg::variants::{low_congestion, n_cells};
use gca_hirschberg::{
    complexity, iteration_schedule, Convergence, ExecPath, Gen, HirschbergGca, Machine,
};
use proptest::prelude::*;

fn arb_graph(min_n: usize, max_n: usize) -> impl Strategy<Value = AdjacencyMatrix> {
    (min_n..=max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..50).prop_map(move |pairs| {
            let mut g = AdjacencyMatrix::new(n);
            for (u, v) in pairs {
                if u != v {
                    g.add_edge(u, v).unwrap();
                }
            }
            g
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Mid-run invariants of one iteration: after generation 1 every row
    /// holds C and D_N = C; after generation 4 column 0 holds the step-2 T
    /// with no ∞ left; after generation 9, D_N holds T.
    #[test]
    fn generation_postconditions(g in arb_graph(2, 14)) {
        let n = g.n();
        let mut m = Machine::new(&g).unwrap();
        m.init().unwrap();

        // Walk one iteration by hand, checking the documented
        // postconditions at the milestones.
        let c_before: Vec<u32> = m.labels_raw();
        for (gen, sub) in iteration_schedule(n) {
            m.step(gen, sub).unwrap();
            let field = m.to_field();
            match (gen, sub) {
                (Gen::BroadcastC, _) => {
                    // Every row of D (incl. D_N) equals the old C.
                    for j in 0..=n {
                        for (i, &c) in c_before.iter().enumerate() {
                            prop_assert_eq!(field.at(j, i).d, c);
                        }
                    }
                }
                (Gen::ResolveIsolated, _) => {
                    // Column 0 = step-2 T: finite node numbers only.
                    for j in 0..n {
                        let t = field.at(j, 0).d;
                        prop_assert!(t != INFINITY && (t as usize) < n);
                    }
                }
                (Gen::CopyAndSaveT, _) => {
                    // D_N holds T = column 0's current values.
                    let col0: Vec<u32> = (0..n).map(|j| field.at(j, 0).d).collect();
                    let dn = m.layout().extract_dn(&field);
                    prop_assert_eq!(dn, col0);
                }
                _ => {}
            }
        }
    }

    /// Intermediate labels always coarsen monotonically: after every outer
    /// iteration, nodes in the same class stay together, and the component
    /// count never increases.
    #[test]
    fn iterations_coarsen_monotonically(g in arb_graph(2, 14)) {
        let n = g.n();
        let mut m = Machine::new(&g).unwrap();
        m.init().unwrap();
        let mut previous = m.labels().unwrap();
        for _ in 0..complexity::ceil_log2(n) {
            m.run_iteration().unwrap();
            let current = m.labels().unwrap();
            prop_assert!(current.component_count() <= previous.component_count());
            // Once merged, never separated.
            for u in 0..n {
                for v in (u + 1)..n {
                    if previous.label(u) == previous.label(v) {
                        prop_assert_eq!(current.label(u), current.label(v));
                    }
                }
            }
            previous = current;
        }
        // Final result is the true component structure.
        let expected = union_find_components_dense(&g);
        prop_assert_eq!(previous.as_slice(), expected.as_slice());
    }

    /// The paper's convergence argument: every iteration, the *non-final*
    /// components (proper subsets of a true component — exactly those that
    /// can still hook) merge in clusters of at least two, so their number
    /// at least halves.
    #[test]
    fn component_halving(g in arb_graph(2, 16)) {
        let n = g.n();
        let final_labels = union_find_components_dense(&g);
        let final_count = final_labels.component_count();

        // Number of current components that are proper subsets of their
        // true component.
        let non_final = |labels: &gca_graphs::Labeling| {
            labels
                .components()
                .into_iter()
                .filter(|(_, members)| {
                    let true_size = final_labels
                        .components()
                        .into_iter()
                        .find(|(fl, _)| *fl == final_labels.label(members[0]))
                        .map(|(_, m)| m.len())
                        .unwrap();
                    members.len() < true_size
                })
                .count()
        };

        let mut m = Machine::new(&g).unwrap();
        m.init().unwrap();
        let mut prev_non_final = non_final(&m.labels().unwrap());
        for _ in 0..complexity::ceil_log2(n) {
            m.run_iteration().unwrap();
            let labels = m.labels().unwrap();
            let nf = non_final(&labels);
            prop_assert!(
                nf <= prev_non_final / 2,
                "non-final components {} did not halve from {}",
                nf,
                prev_non_final
            );
            prop_assert!(labels.component_count() >= final_count);
            prev_non_final = nf;
        }
        prop_assert_eq!(m.labels().unwrap().component_count(), final_count);
    }

    /// The low-congestion variant's static phases never exceed δ = 1, for
    /// arbitrary graphs (not just the curated suite).
    #[test]
    fn low_congestion_delta_bound(g in arb_graph(2, 12)) {
        let run = low_congestion::run(&g).unwrap();
        prop_assert!(run.static_max_congestion() <= 1);
        let expected = union_find_components_dense(&g);
        prop_assert_eq!(run.labels.as_slice(), expected.as_slice());
    }

    /// The n-cell variant's rotated scans keep δ ≤ 1 in scan phases and
    /// its generation count follows its closed form.
    #[test]
    fn n_cells_scan_delta_and_count(g in arb_graph(2, 12)) {
        let run = n_cells::run(&g).unwrap();
        prop_assert_eq!(run.generations, n_cells::total_generations(g.n()));
        for m in run.metrics.entries() {
            // Phases 2 and 5 are the scans in the n-cell numbering.
            if m.ctx.phase == 2 || m.ctx.phase == 5 {
                prop_assert!(m.max_congestion <= 1);
            }
        }
    }

    /// Execution-path identity: generic and fused agree on labels,
    /// generation counts AND full `Counts` metric logs on arbitrary
    /// graphs up to one word (n ≤ 64 exercises the
    /// packed plane's tail-bit handling). Under both levels the sweep
    /// takes its uniform-label shortcut once the labels converge, which
    /// neither the labels nor the metric log may observe.
    #[test]
    fn exec_paths_agree_on_labels_and_metrics(g in arb_graph(2, 64)) {
        let run = |exec: ExecPath, instrumentation: Instrumentation| {
            HirschbergGca::new()
                .with_engine(
                    Engine::sequential().with_instrumentation(instrumentation),
                )
                .exec(exec)
                .run(&g)
                .unwrap()
        };
        let expected = union_find_components_dense(&g);
        let generic = run(ExecPath::Generic, Instrumentation::Counts);
        prop_assert_eq!(generic.labels.as_slice(), expected.as_slice());
        let counted = run(ExecPath::Fused, Instrumentation::Counts);
        prop_assert_eq!(counted.labels.as_slice(), expected.as_slice());
        prop_assert_eq!(counted.generations, generic.generations);
        prop_assert_eq!(counted.metrics.entries(), generic.metrics.entries());
        let off = run(ExecPath::Fused, Instrumentation::Off);
        prop_assert_eq!(off.labels.as_slice(), expected.as_slice());
    }

    /// The sweep is the engine at every iteration boundary: under both
    /// convergence policies, labels, generation counts, the `Counts` log
    /// and the whole field equal the generic path's after init and after
    /// every iteration.
    #[test]
    fn sweep_fields_equal_generic_at_every_boundary(g in arb_graph(1, 64)) {
        let n = g.n();
        for convergence in [Convergence::Fixed, Convergence::Detect] {
            let build = |exec| {
                Machine::new(&g).unwrap().with_exec(exec).with_convergence(convergence)
            };
            let mut want = build(ExecPath::Generic);
            let mut got = build(ExecPath::Fused);
            want.init().unwrap();
            got.init().unwrap();
            for it in 0..=complexity::ceil_log2(n) {
                if it > 0 {
                    prop_assert_eq!(got.run_iteration().unwrap(), want.run_iteration().unwrap());
                }
                prop_assert_eq!(got.labels_raw(), want.labels_raw());
                prop_assert_eq!(got.generations(), want.generations());
                prop_assert_eq!(got.metrics().entries(), want.metrics().entries());
                prop_assert!(
                    got.to_field().states() == want.to_field().states(),
                    "{:?}: field differs after iteration {}", convergence, it
                );
            }
        }
    }

    /// Instrumentation levels do not change results, only reporting.
    #[test]
    fn instrumentation_transparent(g in arb_graph(2, 12)) {
        let off = HirschbergGca::new()
            .with_engine(Engine::sequential().with_instrumentation(Instrumentation::Off))
            .run(&g)
            .unwrap();
        let trace = HirschbergGca::new()
            .with_engine(Engine::sequential().with_instrumentation(Instrumentation::Trace))
            .run(&g)
            .unwrap();
        prop_assert_eq!(off.labels.as_slice(), trace.labels.as_slice());
        prop_assert_eq!(off.generations, trace.generations);
        prop_assert_eq!(off.metrics.generations(), 0);
        prop_assert_eq!(trace.metrics.generations() as u64, trace.generations);
    }
}
