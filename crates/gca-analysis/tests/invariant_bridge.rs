//! Bridge between the symbolic invariant prover and the live
//! `InvariantCheck` harness — the two halves of the same contract system.
//!
//! The prover (`gca_analysis::invariants`) discharges the schedule's Hoare
//! contracts for arbitrary `n = 2^k` with zero machine executions; the
//! dynamic harness (`gca_hirschberg::invariants`, armed by
//! `Instrumentation::Validate`) replays the *same* transfer functions
//! against live runs. These tests close the loop from both sides:
//!
//! * random graphs (`n ≤ 64`) run under the armed harness across all three
//!   execution paths (generic, fused, row-parallel fused) — no
//!   `InvariantViolation` may fire, and the final labels must equal the
//!   independent union-find canonical form;
//! * the prover itself must discharge every contract over the same size
//!   range the property corpus draws from;
//! * every planted fault class must be caught by the *dynamic* harness
//!   too (the prover-side seeding is covered by the `exit_codes` suite),
//!   with the typed `InvariantViolation` naming the exact invariant;
//! * every violation class renders an actionable `Display`.

use gca_analysis::invariants as prover;
use gca_engine::{Engine, GcaError, Instrumentation};
use gca_graphs::connectivity::union_find_components_dense;
use gca_graphs::AdjacencyMatrix;
use gca_hirschberg::complexity::outer_iterations;
use gca_hirschberg::{ExecPath, FusedParallel, InvariantClass, Machine};
use proptest::prelude::*;

/// The three execution paths the live harness must agree on.
fn exec_paths() -> [ExecPath; 3] {
    [
        ExecPath::Generic,
        ExecPath::Fused,
        ExecPath::FusedParallel(FusedParallel::with_workers(2)),
    ]
}

/// Runs a full schedule under `Instrumentation::Validate` (which arms the
/// invariant harness) and returns the final labels.
fn run_validated(
    g: &AdjacencyMatrix,
    exec: ExecPath,
    fault: Option<InvariantClass>,
) -> Result<Vec<usize>, GcaError> {
    let engine = Engine::sequential().with_instrumentation(Instrumentation::Validate);
    let mut m = Machine::with_engine(g, engine)?.with_exec(exec);
    if let Some(class) = fault {
        m.seed_invariant_fault(class);
    }
    m.init()?;
    for _ in 0..outer_iterations(g.n()) {
        m.run_iteration()?;
    }
    Ok(m.labels_raw().into_iter().map(|w| w as usize).collect())
}

fn arb_graph(max_n: usize) -> impl Strategy<Value = AdjacencyMatrix> {
    (2usize..=max_n).prop_flat_map(|n| {
        let max_edges = n * (n - 1) / 2;
        proptest::collection::vec((0..n, 0..n), 0..=max_edges.min(96)).prop_map(move |pairs| {
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
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The armed harness accepts every honest run on every exec path, and
    /// the labels are the canonical component minima — i.e. the dynamic
    /// mirror of the proof model never disagrees with a correct machine.
    #[test]
    fn harness_accepts_honest_runs_on_all_paths(g in arb_graph(64)) {
        let expected = union_find_components_dense(&g);
        for exec in exec_paths() {
            let labels = run_validated(&g, exec, None);
            prop_assert!(labels.is_ok(), "{exec:?}: {}", labels.unwrap_err());
            prop_assert_eq!(
                labels.unwrap_or_default().as_slice(),
                expected.as_slice(),
                "{:?} diverged from union-find",
                exec
            );
        }
    }
}

/// The prover discharges every contract over (a superset of) the sizes
/// the property corpus draws from — the static half of the agreement.
#[test]
fn prover_discharges_the_corpus_size_range() {
    let report = prover::prove(6).expect("contracts must hold for n <= 64");
    assert_eq!(report.k_max, 6);
    assert_eq!(report.contracts, 12);
}

/// Every planted fault class is caught by the dynamic harness on every
/// exec path, with the typed error naming the exact invariant.
#[test]
fn every_seeded_fault_class_is_caught_live() {
    let mut g = AdjacencyMatrix::new(8);
    for (u, v) in [(0, 3), (3, 5), (1, 2), (6, 7)] {
        g.add_edge(u, v).expect("in range");
    }
    for class in InvariantClass::ALL {
        for exec in exec_paths() {
            let err = run_validated(&g, exec, Some(class))
                .expect_err("seeded fault must surface");
            match err {
                GcaError::InvariantViolation { ref invariant, .. } => {
                    assert_eq!(
                        invariant,
                        class.name(),
                        "{exec:?} reported the wrong invariant for {class}"
                    );
                }
                other => panic!("{exec:?} seeded {class}: expected InvariantViolation, got {other}"),
            }
        }
    }
}

/// An unseeded machine is untouched by the harness: labels match a
/// validation-off run bit for bit (the checker observes, never steers).
#[test]
fn harness_is_observation_only() {
    let mut g = AdjacencyMatrix::new(16);
    for (u, v) in [(0, 9), (9, 4), (2, 3), (5, 6), (6, 7), (10, 15)] {
        g.add_edge(u, v).expect("in range");
    }
    let mut plain = Machine::new(&g).expect("machine");
    plain.init().expect("init");
    for _ in 0..outer_iterations(g.n()) {
        plain.run_iteration().expect("iteration");
    }
    let validated = run_validated(&g, ExecPath::Generic, None).expect("validated run");
    let plain_labels: Vec<usize> = plain.labels_raw().into_iter().map(|w| w as usize).collect();
    assert_eq!(validated, plain_labels);
}

/// Every `InvariantViolation` class renders a `Display` that names the
/// invariant, the generation, the phase and the cell.
#[test]
fn violation_displays_are_actionable() {
    for (i, class) in InvariantClass::ALL.into_iter().enumerate() {
        let err = GcaError::InvariantViolation {
            invariant: class.name().to_string(),
            generation: 40 + i as u64,
            phase: 11,
            cell: 7 + i,
        };
        let s = err.to_string();
        assert!(s.contains(class.name()), "{s}");
        assert!(s.contains(&format!("generation {}", 40 + i)), "{s}");
        assert!(s.contains("phase 11"), "{s}");
        assert!(s.contains(&format!("cell {}", 7 + i)), "{s}");
    }
}
