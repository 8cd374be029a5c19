//! Cross-implementation equivalence: every machine in the workspace — the
//! GCA main machine (fused and generic paths, fixed and early-exit
//! schedules), the n-cell, low-congestion and two-handed
//! variants, the transitive-closure machine, and the PRAM reference — must
//! produce the exact canonical labeling of the sequential baselines, over
//! the whole workload generator zoo. The baseline itself is first checked
//! by the oracle-free verifier.

use gca_algorithms::transitive_closure;
use gca_graphs::connectivity::{bfs_components, dfs_components, union_find_components_dense};
use gca_graphs::verify::verify_components;
use gca_graphs::{generators, AdjacencyMatrix};
use gca_hirschberg::variants::{low_congestion, n_cells, two_handed};
use gca_hirschberg::HirschbergGca;
use gca_pram::hirschberg_ref;

fn check_all(graph: &AdjacencyMatrix, context: &str) {
    let expected = union_find_components_dense(graph);

    let list = graph.to_adjacency_list();
    // The "oracle" itself is verified oracle-free first.
    verify_components(&list, &expected)
        .unwrap_or_else(|e| panic!("union-find failed verification on {context}: {e}"));
    assert_eq!(bfs_components(&list), expected, "BFS deviates: {context}");
    assert_eq!(dfs_components(&list), expected, "DFS deviates: {context}");

    let gca = HirschbergGca::new().run(graph).expect("gca run");
    assert_eq!(gca.labels, expected, "GCA main deviates: {context}");

    let gca_early = HirschbergGca::new()
        .early_exit(true)
        .run(graph)
        .expect("gca early-exit run");
    assert_eq!(gca_early.labels, expected, "GCA early-exit deviates: {context}");

    let ncell = n_cells::run(graph).expect("n-cell run");
    assert_eq!(ncell.labels, expected, "n-cell deviates: {context}");

    let lc = low_congestion::run(graph).expect("low-congestion run");
    assert_eq!(lc.labels, expected, "low-congestion deviates: {context}");

    let th = two_handed::run(graph).expect("two-handed run");
    assert_eq!(th.labels, expected, "two-handed deviates: {context}");

    let pram = hirschberg_ref::connected_components(graph).expect("pram run");
    assert_eq!(pram.labels, expected, "PRAM reference deviates: {context}");

    let tc = transitive_closure::connected_components(graph).expect("closure run");
    assert_eq!(tc, expected, "closure machine deviates: {context}");
}

#[test]
fn structured_families() {
    for n in [2usize, 3, 4, 5, 7, 8, 9, 16, 17] {
        check_all(&generators::empty(n), &format!("empty({n})"));
        check_all(&generators::complete(n), &format!("complete({n})"));
        check_all(&generators::path(n), &format!("path({n})"));
        check_all(&generators::ring(n), &format!("ring({n})"));
        check_all(&generators::star(n), &format!("star({n})"));
    }
}

#[test]
fn grids_and_rings() {
    check_all(&generators::grid(3, 5), "grid(3,5)");
    check_all(&generators::grid(4, 4), "grid(4,4)");
    check_all(&generators::bridged_rings(3, 4), "bridged_rings(3,4)");
    check_all(&generators::clique_islands(3, 4), "clique_islands(3,4)");
}

#[test]
fn random_density_sweep() {
    for (i, p) in [0.02, 0.08, 0.2, 0.5, 0.9].iter().enumerate() {
        for seed in 0..3 {
            let g = generators::gnp(18, *p, 100 * i as u64 + seed);
            check_all(&g, &format!("gnp(18, {p}, seed {seed})"));
        }
    }
}

#[test]
fn random_forests() {
    for k in [1usize, 2, 5, 10] {
        for seed in 0..3 {
            let g = generators::random_forest(20, k, seed);
            check_all(&g, &format!("forest(20, {k}, seed {seed})"));
        }
    }
}

#[test]
fn planted_partitions_recovered() {
    for seed in 0..5 {
        let planted = generators::planted_components(26, 4, 0.4, seed);
        let expected = planted.expected_labels();
        let gca = HirschbergGca::new().run(&planted.graph).expect("run");
        assert_eq!(gca.labels, expected, "seed {seed}");
        check_all(&planted.graph, &format!("planted seed {seed}"));
    }
}

#[test]
fn trivial_sizes() {
    check_all(&generators::empty(0), "empty(0)");
    check_all(&generators::empty(1), "empty(1)");
    let two = gca_graphs::GraphBuilder::new(2).edge(0, 1).build().unwrap();
    check_all(&two, "K2");
}

#[test]
fn single_giant_component() {
    let g = generators::random_tree(33, 5);
    let gca = HirschbergGca::new().run(&g).expect("run");
    assert_eq!(gca.labels.component_count(), 1);
    assert!(gca.labels.as_slice().iter().all(|&l| l == 0));
    check_all(&g, "random_tree(33)");
}
