//! Differential soak test: run every machine on a stream of random graphs,
//! validate each result with the oracle-free verifier, and cross-compare
//! label-for-label. The n² GCA runs on every exec path: generic, and each
//! fused path under `Off`, `Counts` and `Validate` accounting. Exits
//! non-zero on the first divergence or machine error with a reproducer (the
//! offending graph as an edge list).
//!
//! Usage: `differential_soak [iterations] [max_n] [seed]`
//! (defaults: 200 iterations, n ≤ 24, seed 1).

use gca_algorithms::transitive_closure;
use gca_emu::hirschberg_program;
use gca_engine::{Engine, GcaError, Instrumentation};
use gca_graphs::connectivity::union_find_components_dense;
use gca_graphs::verify::verify_components;
use gca_graphs::{generators, io, AdjacencyMatrix, Labeling};
use gca_hirschberg::variants::{low_congestion, n_cells, two_handed};
use gca_hirschberg::{ExecPath, FusedParallel, HirschbergGca};
use gca_pram::hirschberg_ref;
use std::process::ExitCode;

fn random_graph(round: usize, max_n: usize, seed: u64) -> AdjacencyMatrix {
    let r = round as u64;
    let n = 2 + (seed.wrapping_mul(31).wrapping_add(r * 7)) as usize % (max_n - 1);
    match round % 6 {
        0 => generators::gnp(n, 0.08 + 0.84 * ((r % 11) as f64 / 11.0), seed ^ r),
        1 => generators::random_forest(n, 1 + (r as usize % n), seed ^ r),
        2 => generators::planted_components(n, 1 + (r as usize % n.min(5)), 0.4, seed ^ r).graph,
        3 => generators::gnm(n, (r as usize * 13) % (n * (n - 1) / 2 + 1), seed ^ r),
        4 => generators::preferential_attachment(n.max(3), 1 + r as usize % 2, seed ^ r),
        _ => generators::random_tree(n, seed ^ r),
    }
}

/// The fused exec paths, each soaked under every accounting level.
/// `fused-par` forces its partition (threshold 0) so that even the small
/// soak graphs split into two row chunks.
fn fused_gca_runs(g: &AdjacencyMatrix) -> Vec<(String, Result<Labeling, GcaError>)> {
    let paths = [
        ("fused", ExecPath::Fused),
        (
            "fused-par",
            ExecPath::FusedParallel(FusedParallel {
                workers: 2,
                threshold: Some(0),
            }),
        ),
        ("fused-swar", ExecPath::fused_swar()),
    ];
    let levels = [
        ("off", Instrumentation::Off),
        ("counts", Instrumentation::Counts),
        ("validate", Instrumentation::Validate),
    ];
    let mut runs = Vec::new();
    for (path, exec) in paths {
        for (level, instr) in levels {
            let run = HirschbergGca::new()
                .with_engine(Engine::sequential().with_instrumentation(instr))
                .exec(exec)
                .run(g);
            runs.push((format!("gca/{path}/{level}"), run.map(|r| r.labels)));
        }
    }
    runs
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let iterations: usize = args.first().and_then(|a| a.parse().ok()).unwrap_or(200);
    let max_n: usize = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(24);
    let seed: u64 = args.get(2).and_then(|a| a.parse().ok()).unwrap_or(1);

    println!("differential soak: {iterations} rounds, n <= {max_n}, seed {seed}");
    let mut machines = 0;
    for round in 0..iterations {
        let g = random_graph(round, max_n, seed);
        let expected = union_find_components_dense(&g);

        // Oracle-free validation of the baseline itself.
        if let Err(e) = verify_components(&g.to_adjacency_list(), &expected) {
            eprintln!("round {round}: union-find failed verification: {e}");
            eprintln!("{}", io::to_edge_list(&g));
            return ExitCode::FAILURE;
        }

        let mut results: Vec<(String, Result<Labeling, GcaError>)> = vec![
            (
                "gca".into(),
                Ok(HirschbergGca::new().run(&g).unwrap().labels),
            ),
            ("ncells".into(), Ok(n_cells::run(&g).unwrap().labels)),
            (
                "lowcong".into(),
                Ok(low_congestion::run(&g).unwrap().labels),
            ),
            ("twohand".into(), Ok(two_handed::run(&g).unwrap().labels)),
            (
                "closure".into(),
                Ok(transitive_closure::connected_components(&g).unwrap()),
            ),
            (
                "pram".into(),
                Ok(hirschberg_ref::connected_components(&g).unwrap().labels),
            ),
            (
                "emu".into(),
                Ok(hirschberg_program::connected_components(&g).unwrap()),
            ),
        ];
        results.extend(fused_gca_runs(&g));
        machines = results.len();
        for (name, labels) in &results {
            let labels = match labels {
                Ok(labels) => labels,
                Err(e) => {
                    eprintln!("round {round}: machine '{name}' failed: {e}");
                    eprintln!("reproducer graph:\n{}", io::to_edge_list(&g));
                    return ExitCode::FAILURE;
                }
            };
            if labels != &expected {
                eprintln!("round {round}: machine '{name}' diverged");
                eprintln!("expected: {:?}", expected.as_slice());
                eprintln!("got:      {:?}", labels.as_slice());
                eprintln!("reproducer graph:\n{}", io::to_edge_list(&g));
                return ExitCode::FAILURE;
            }
        }
        if (round + 1) % 50 == 0 {
            println!("  {} rounds ok", round + 1);
        }
    }
    println!("all {iterations} rounds passed ({machines} machines x verifier)");
    ExitCode::SUCCESS
}
