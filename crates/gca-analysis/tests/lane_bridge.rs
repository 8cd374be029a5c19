//! Bridge between the static lane verifier and the live SWAR execution
//! paths, plus fault-injection coverage for every violation class the
//! layer-three analyses can report.
//!
//! The lane verifier ([`gca_analysis::lanes`]) proves its catalog
//! exhaustively at small lane widths and over distinguished full-width
//! values; these tests close the remaining gap from two directions:
//!
//! * random *full-width* lane states are thrown at every accepted catalog
//!   formula and checked against the scalar reference rule — the formulas
//!   must agree off the exhaustively-enumerated grid too;
//! * random graphs (`n ≤ 64`, one adjacency word per row plus a partial
//!   tail) run through every execution path (generic, fused, and
//!   row-parallel fused at two worker counts), asserting
//!   label-for-label agreement with the sequential union-find baseline:
//!   if a lifted formula mis-modeled the live kernels, this is where the
//!   divergence would surface.

use gca_analysis::lanes::{self, LaneState};
use gca_analysis::{occupancy, partition, OccupancyFault, PartitionFault, PlaneState};
use gca_graphs::connectivity::union_find_components_dense;
use gca_graphs::AdjacencyMatrix;
use gca_hirschberg::{ExecPath, FusedParallel, Gen, HirschbergGca};
use proptest::prelude::*;

/// Strategy: a random graph on up to `max_n` nodes as an edge list.
fn arb_graph(max_n: usize) -> impl Strategy<Value = AdjacencyMatrix> {
    (2usize..=max_n).prop_flat_map(|n| {
        let max_edges = n * (n - 1) / 2;
        proptest::collection::vec((0..n, 0..n), 0..=max_edges.min(120)).prop_map(move |pairs| {
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

    /// Every catalog formula the lane verifier accepts agrees with its
    /// scalar reference on random full-width lane states — at the shipped
    /// 32-bit lane width and at the evaluator's maximum width.
    #[test]
    fn catalog_formulas_agree_on_random_full_width_lanes(
        cur in any::<u64>(),
        keep in any::<u64>(),
        lab in any::<u64>(),
        live in 0u64..=1,
        src in any::<u64>(),
    ) {
        for &width in &[32u32, 63] {
            let m = (1u64 << width) - 1;
            let state = LaneState {
                width,
                cur: cur & m,
                keep: keep & m,
                lab: lab & m,
                live,
                src: src & m,
            };
            for formula in lanes::catalog() {
                if !(formula.admissible)(&state) {
                    continue;
                }
                let reference = (formula.reference)(&state);
                prop_assert_eq!(
                    lanes::eval(&formula.value, &state),
                    reference.value,
                    "`{}` value diverged at [{}]",
                    formula.kernel,
                    state
                );
                for ((name, expr), expected) in
                    formula.tallies.iter().zip(reference.tallies.iter())
                {
                    prop_assert_eq!(
                        lanes::eval(expr, &state),
                        *expected,
                        "`{}` tally `{}` diverged at [{}]",
                        formula.kernel,
                        name,
                        state
                    );
                }
                if let (Some(expr), Some(expected)) = (formula.occ.as_ref(), reference.occ) {
                    prop_assert_eq!(
                        lanes::eval(expr, &state),
                        expected,
                        "`{}` occupancy bit diverged at [{}]",
                        formula.kernel,
                        state
                    );
                }
            }
        }
    }

    /// Every execution path, with two row partitionings, produces the
    /// union-find labeling on random graphs spanning full words and
    /// partial tails (`n ≤ 64`).
    #[test]
    fn all_exec_paths_agree_on_random_graphs(g in arb_graph(64)) {
        let expected = union_find_components_dense(&g);
        let paths = [
            ExecPath::Generic,
            ExecPath::Fused,
            ExecPath::FusedParallel(FusedParallel {
                workers: 3,
                threshold: Some(0),
            }),
            ExecPath::FusedParallel(FusedParallel {
                workers: 2,
                threshold: Some(0),
            }),
        ];
        for path in paths {
            let run = HirschbergGca::new().exec(path).run(&g).expect("run");
            prop_assert_eq!(
                run.labels.as_slice(),
                expected.as_slice(),
                "exec path {:?} diverged on n={}",
                path,
                g.n()
            );
        }
    }
}

// --- fault injection: each layer's seeded fault is detected ---

#[test]
fn seeded_lane_fault_is_detected_and_typed() {
    let m = lanes::verify_seeded().expect("the seeded lane fault must be caught");
    assert!(!m.kernel.is_empty());
    assert!(m.expected != m.got);
    assert!(m.to_string().contains("lane mismatch"), "{m}");
}

#[test]
fn seeded_partition_fault_is_detected_and_typed() {
    let f = partition::verify_seeded().expect("the seeded partition fault must be caught");
    match &f {
        PartitionFault::Overlap { a, b, .. } => {
            assert!(a.1 > b.0, "reported intervals must actually intersect: {f}");
        }
        other => panic!("seeded partition fault should be an overlap, got {other}"),
    }
    assert!(f.to_string().contains("overlap"), "{f}");
}

#[test]
fn seeded_occupancy_fault_is_detected_and_typed() {
    let f = occupancy::verify_seeded().expect("the seeded occupancy fault must be caught");
    // Degrading the filter transfer to Superset trips the exactness
    // contract at the first point it is checked: the raised `occ_valid`
    // flag over a non-exact plane, or a reduce consuming one.
    match &f {
        OccupancyFault::StaleConsume { state, .. }
        | OccupancyFault::FlagOverclaim { state, .. } => {
            assert_ne!(*state, PlaneState::Exact, "fault over an Exact plane: {f}");
        }
        other => panic!("degraded filters should trip the abstract walk, got {other}"),
    }
    assert!(f.to_string().contains("occupancy"), "{f}");
}

// --- every violation class renders an actionable location ---

#[test]
fn every_partition_fault_class_renders_its_location() {
    let faults: Vec<PartitionFault> = vec![
        PartitionFault::Overlap {
            kernel: "min_reduce_rows",
            n: 8,
            workers: 2,
            chunks: (0, 1),
            a: (0, 40),
            b: (32, 64),
        },
        PartitionFault::CoverageHole {
            kernel: "min_reduce_rows",
            n: 8,
            covered: 56,
            plane_len: 64,
        },
        PartitionFault::ZipTruncation {
            kernel: "filter_neighbors",
            n: 8,
            chunks: 3,
            slots: 2,
        },
        PartitionFault::Misalignment {
            kernel: "resolve_rows",
            n: 8,
            chunk: 1,
            start: 12,
            row_elems: 8,
        },
        PartitionFault::CompanionSkew {
            kernel: "filter_members",
            plane: "occ",
            n: 8,
            chunk: 1,
            square_rows: (4, 8),
            companion_rows: (4, 7),
        },
        PartitionFault::HistogramAlias {
            kernel: "jump_rows",
            n: 8,
            labels: (2, 3),
            target: 16,
        },
    ];
    for f in faults {
        let msg = f.to_string();
        assert!(msg.starts_with("partition: "), "{msg}");
        assert!(msg.contains("n=8"), "class must name the size: {msg}");
    }
}

#[test]
fn every_occupancy_fault_class_renders_its_location() {
    let faults: Vec<OccupancyFault> = vec![
        OccupancyFault::StaleConsume {
            n: 16,
            at: (Gen::MinReduce, 2),
            state: PlaneState::Superset,
        },
        OccupancyFault::FlagOverclaim {
            n: 16,
            at: (Gen::FilterNeighbors, 0),
            state: PlaneState::Invalid,
        },
        OccupancyFault::Inexact(lanes::LaneMismatch {
            kernel: "min_reduce_rows_occ".into(),
            lane_state: LaneState {
                width: 32,
                cur: 0,
                keep: 0,
                lab: 0,
                live: 1,
                src: 0,
            },
            expected: 1,
            got: 0,
        }),
    ];
    for f in faults {
        let msg = f.to_string();
        assert!(msg.starts_with("occupancy: "), "{msg}");
    }
}
