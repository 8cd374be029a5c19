//! Differential soak test: run every machine on a stream of random graphs,
//! validate each result with the oracle-free verifier, and cross-compare
//! label-for-label. The n² GCA runs on both exec paths: generic, and
//! fused under `Off`, `Counts` and `Validate` accounting; under `Counts`
//! the fused machine steps in lockstep with the generic one, and its
//! whole field and metrics log must match it after init and at
//! every iteration boundary. Exits non-zero on the first divergence or
//! machine error with a reproducer (the offending graph as an edge list).
//! After the last round it prints each machine's cumulative wall seconds.
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
use gca_hirschberg::{ExecPath, HirschbergGca, Machine};
use gca_pram::hirschberg_ref;
use std::process::ExitCode;
use std::time::{Duration, Instant};

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

/// One machine's name and result.
type Run = (String, Result<Labeling, GcaError>);

/// Each machine's cumulative wall time over the soak, in first-run order.
#[derive(Default)]
struct Clock(Vec<(String, Duration)>);

impl Clock {
    /// Runs `f`, adding its wall time to `name`'s total.
    fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let spent = start.elapsed();
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some((_, total)) => *total += spent,
            None => self.0.push((name.to_string(), spent)),
        }
        out
    }
}

/// The fused path under the accounting levels the lockstep run leaves
/// out: `Off` and `Validate`.
fn fused_gca_runs(g: &AdjacencyMatrix, clock: &mut Clock) -> Vec<Run> {
    let levels = [
        ("gca/fused/off", Instrumentation::Off),
        ("gca/fused/validate", Instrumentation::Validate),
    ];
    let mut runs = Vec::new();
    for (name, instr) in levels {
        let run = clock.time(name, || {
            HirschbergGca::new()
                .with_engine(Engine::sequential().with_instrumentation(instr))
                .exec(ExecPath::Fused)
                .run(g)
        });
        runs.push((name.to_string(), run.map(|r| r.labels)));
    }
    runs
}

/// The generic and the fused machine under `Counts`, one outer iteration
/// at a time: after init and at each iteration boundary the fused
/// machine's field and metrics log must equal the generic one's. Returns
/// each machine's labels, or the first boundary where the fused machine
/// diverged.
fn lockstep_runs(g: &AdjacencyMatrix, clock: &mut Clock) -> Result<Vec<Run>, String> {
    let machines = [
        ("gca".to_string(), ExecPath::Generic),
        ("gca/fused/counts".to_string(), ExecPath::Fused),
    ];
    let mut live: Vec<(String, Machine)> = Vec::new();
    let mut runs = Vec::new();
    for (name, exec) in machines {
        let built = clock.time(&name, || {
            let mut m = Machine::new(g)?.with_exec(exec);
            m.init().map(|_| m)
        });
        match built {
            Ok(m) => live.push((name, m)),
            Err(e) => runs.push((name, Err(e))),
        }
    }
    for iteration in 0..=gca_hirschberg::complexity::ceil_log2(g.n()) {
        if iteration > 0 {
            for (name, m) in &mut live {
                // Errors surface through `labels` below.
                let _ = clock.time(name, || m.run_iteration());
            }
        }
        let Some(((_, reference), fused)) = live.split_first() else {
            break;
        };
        let want = reference.to_field();
        for (name, m) in fused {
            if m.to_field().states() != want.states() {
                return Err(format!("{name}: field differs from generic after iteration {iteration}"));
            }
            if m.metrics().entries() != reference.metrics().entries() {
                return Err(format!("{name}: metrics differ from generic after iteration {iteration}"));
            }
        }
    }
    runs.extend(live.into_iter().map(|(name, m)| (name, m.labels())));
    Ok(runs)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let iterations: usize = args.first().and_then(|a| a.parse().ok()).unwrap_or(200);
    let max_n: usize = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(24);
    let seed: u64 = args.get(2).and_then(|a| a.parse().ok()).unwrap_or(1);

    println!("differential soak: {iterations} rounds, n <= {max_n}, seed {seed}");
    let mut machines = 0;
    let mut clock = Clock::default();
    for round in 0..iterations {
        let g = random_graph(round, max_n, seed);
        let expected = union_find_components_dense(&g);

        // Oracle-free validation of the baseline itself.
        if let Err(e) = verify_components(&g, &expected) {
            eprintln!("round {round}: union-find failed verification: {e}");
            eprintln!("{}", io::to_edge_list(&g));
            return ExitCode::FAILURE;
        }

        let mut results = match lockstep_runs(&g, &mut clock) {
            Ok(runs) => runs,
            Err(e) => {
                eprintln!("round {round}: {e}");
                eprintln!("reproducer graph:\n{}", io::to_edge_list(&g));
                return ExitCode::FAILURE;
            }
        };
        let mut timed = |name: &str, run: &dyn Fn() -> Labeling| -> Run {
            (name.to_string(), Ok(clock.time(name, run)))
        };
        results.extend([
            timed("ncells", &|| n_cells::run(&g).unwrap().labels),
            timed("lowcong", &|| low_congestion::run(&g).unwrap().labels),
            timed("twohand", &|| two_handed::run(&g).unwrap().labels),
            timed("closure", &|| transitive_closure::connected_components(&g).unwrap()),
            timed("pram", &|| hirschberg_ref::connected_components(&g).unwrap().labels),
            timed("emu", &|| hirschberg_program::connected_components(&g).unwrap()),
        ]);
        results.extend(fused_gca_runs(&g, &mut clock));
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
    println!("cumulative seconds per machine:");
    for (name, total) in &clock.0 {
        println!("  {name:<22} {:>8.2}", total.as_secs_f64());
    }
    ExitCode::SUCCESS
}
