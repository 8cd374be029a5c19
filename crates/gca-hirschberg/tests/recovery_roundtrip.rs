//! Snapshot/restore and rollback roundtrip properties across all three
//! execution paths — the state-capture half of the recovery stack.
//!
//! The recovery supervisor's correctness rests on one claim: a machine
//! restored from an iteration-boundary checkpoint and re-run is
//! **bit-identical** — labels, field states and `Counts` metrics — to a
//! machine that never stopped. These properties pin that claim on every
//! execution path, whichever form holds the state: the engine's field
//! (stepped in place by the generic path) and the fused paths' vectors (a
//! restore puts the snapshot's cells in as the engine's field, and the
//! next sweep reads its column 0 and drops it).

use gca_engine::snapshot::FieldSnapshot;
use gca_engine::{Engine, Instrumentation};
use gca_graphs::connectivity::union_find_components_dense;
use gca_graphs::AdjacencyMatrix;
use gca_hirschberg::complexity::ceil_log2;
use gca_hirschberg::{ExecPath, HCell, Machine};
use proptest::prelude::*;
use serde::{Deserialize, Serialize};

fn arb_graph(min_n: usize, max_n: usize) -> impl Strategy<Value = AdjacencyMatrix> {
    (min_n..=max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..60).prop_map(move |pairs| {
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

const PATHS: [ExecPath; 3] = [
    ExecPath::Generic,
    ExecPath::Fused,
    ExecPath::FusedParallel(gca_hirschberg::FusedParallel {
        workers: 3,
        threshold: Some(0),
    }),
];

fn counting_machine(g: &AdjacencyMatrix, exec: ExecPath) -> Machine {
    Machine::with_engine(g, Engine::sequential().with_instrumentation(Instrumentation::Counts))
        .unwrap()
        .with_exec(exec)
}

/// Runs `iters` full iterations (after init) and returns the machine.
fn run_to(g: &AdjacencyMatrix, exec: ExecPath, iters: u32) -> Machine {
    let mut m = counting_machine(g, exec);
    m.init().unwrap();
    for _ in 0..iters {
        m.run_iteration().unwrap();
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Restore into a *fresh* machine continues to the reference
    /// labeling on every path: the snapshot alone (plus the generation
    /// counter) is a complete consistent cut. The fresh machine's vectors
    /// start at zero, so a passing run proves the sweep enters from the
    /// restored plane.
    #[test]
    fn restore_into_fresh_machine_resumes(g in arb_graph(2, 14), cut in 0u32..4) {
        let n = g.n();
        let total = ceil_log2(n);
        let cut = cut.min(total.saturating_sub(1));
        let expected = union_find_components_dense(&g);
        for exec in PATHS {
            let donor = run_to(&g, exec, cut);
            let snapshot = donor.snapshot();

            let mut resumed = counting_machine(&g, exec);
            resumed.restore(&snapshot).unwrap();
            for _ in cut..total {
                resumed.run_iteration().unwrap();
            }
            prop_assert_eq!(
                resumed.labels().unwrap().as_slice(),
                expected.as_slice(),
                "path {:?}, cut {}", exec, cut
            );
        }
    }

    /// `rollback_to` rewinds field, generation counter *and* metrics:
    /// running forward again yields labels, field states and a metrics
    /// log bit-identical to a machine that never rolled back.
    #[test]
    fn rollback_reexecution_is_bit_identical(g in arb_graph(2, 14), cut in 1u32..4) {
        let n = g.n();
        let total = ceil_log2(n).max(1);
        let cut = cut.min(total);
        for exec in PATHS {
            let reference = run_to(&g, exec, total);

            let mut m = counting_machine(&g, exec);
            m.init().unwrap();
            for _ in 0..cut {
                m.run_iteration().unwrap();
            }
            let generation = m.generations();
            let snapshot = m.snapshot();
            // Disturb the future: run to completion, then roll back.
            for _ in cut..total {
                m.run_iteration().unwrap();
            }
            m.rollback_to(generation, &snapshot).unwrap();
            prop_assert_eq!(m.generations(), generation);
            for _ in cut..total {
                m.run_iteration().unwrap();
            }

            prop_assert_eq!(
                m.labels().unwrap().as_slice(),
                reference.labels().unwrap().as_slice(),
                "labels diverged on {:?}", exec
            );
            prop_assert_eq!(
                m.to_field().states(),
                reference.to_field().states(),
                "field states diverged on {:?}", exec
            );
            prop_assert_eq!(
                m.metrics().entries(),
                reference.metrics().entries(),
                "metrics log diverged on {:?}", exec
            );
        }
    }

    /// The snapshot survives a JSON roundtrip bit-exactly (the artifact
    /// form a checkpoint would take on disk), and the deserialized copy
    /// resumes to the same labeling.
    #[test]
    fn snapshot_json_roundtrip_resumes(g in arb_graph(2, 12)) {
        let n = g.n();
        let total = ceil_log2(n);
        let expected = union_find_components_dense(&g);
        let donor = run_to(&g, ExecPath::Fused, 1.min(total));
        let snapshot = donor.snapshot();

        let json = snapshot.to_json_value();
        let back = FieldSnapshot::<HCell>::from_json_value(&json).unwrap();
        prop_assert_eq!(&back, &snapshot);

        let mut resumed = counting_machine(&g, ExecPath::Fused);
        resumed.restore(&back).unwrap();
        for _ in 1.min(total)..total {
            resumed.run_iteration().unwrap();
        }
        prop_assert_eq!(resumed.labels().unwrap().as_slice(), expected.as_slice());
    }
}
