//! Bounded-exhaustive model checking of the Hirschberg machine.
//!
//! The property-based suite samples random graphs; this module removes the
//! sampling: for every vertex count `n ≤ max_n` it enumerates **all**
//! `2^(n(n-1)/2)` undirected graphs (one bit per vertex pair) and checks,
//! for each one,
//!
//! 1. **termination** — the fixed schedule executes exactly the predicted
//!    `1 + ⌈log₂n⌉·(3⌈log₂n⌉ + 8)` generations
//!    ([`total_generations`]);
//! 2. **label canonicity** — the final `C` vector maps every vertex to the
//!    *minimum vertex id of its component*, cross-checked against the
//!    independent union-find oracle
//!    ([`union_find_components_dense`], whose output is exactly that
//!    canonical form);
//! 3. **fixed-point soundness of [`Convergence::Detect`]** — the
//!    early-exiting machine produces the *identical* labeling in at most
//!    as many generations (sub-generation convergence detection must never
//!    change the result, only skip provably idempotent steps).
//!
//! Runs use the fused execution path with instrumentation off — the fast
//! configuration is precisely the one whose shortcuts need this kind of
//! adversarial coverage (at `n = 6` that is 32 768 graphs, two machine
//! runs each). The first violated graph is reported as a typed
//! [`ModelCheckError`] carrying the vertex count and edge mask, from which
//! the offending graph can be reconstructed bit for bit.
//!
//! From `n = 7` (2 097 152 labeled graphs) the sweep switches to
//! **symmetry reduction**: masks are scanned in increasing order, the
//! first unvisited mask of each isomorphism orbit is its canonical
//! representative, and the whole orbit is marked visited by applying all
//! `n!` vertex permutations to its edge set. Only the 1 044
//! representatives (one per unlabeled 7-vertex graph, OEIS A000088) are
//! run. The orbit scan is self-checking: the orbits must tile the full
//! `2^21` mask space exactly, else the sweep aborts with
//! [`ModelCheckViolation::OrbitCoverage`]. [`ModelCheckReport`] carries
//! both counts — labeled graphs covered vs. representatives executed.

use gca_engine::{Engine, GcaError, Instrumentation};
use gca_graphs::connectivity::union_find_components_dense;
use gca_graphs::{AdjacencyMatrix, GraphError};
use gca_hirschberg::complexity::{outer_iterations, total_generations};
use gca_hirschberg::{Convergence, ExecPath, Machine};
use std::fmt;

/// The vertex pairs `(u, v), u < v` of an `n`-vertex graph, in the bit
/// order [`graph_from_mask`] consumes.
pub fn edge_pairs(n: usize) -> Vec<(usize, usize)> {
    let mut pairs = Vec::with_capacity(n * (n.saturating_sub(1)) / 2);
    for u in 0..n {
        for v in (u + 1)..n {
            pairs.push((u, v));
        }
    }
    pairs
}

/// Materializes the graph encoded by `mask` over [`edge_pairs`]`(n)`
/// (bit `i` set ⇔ pair `i` is an edge).
pub fn graph_from_mask(n: usize, mask: u64) -> Result<AdjacencyMatrix, GraphError> {
    let mut g = AdjacencyMatrix::new(n);
    for (i, &(u, v)) in edge_pairs(n).iter().enumerate() {
        if mask >> i & 1 == 1 {
            g.add_edge(u, v)?;
        }
    }
    Ok(g)
}

/// What a single graph violated.
#[derive(Clone, Debug)]
pub enum ModelCheckViolation {
    /// The fixed run's labels differ from the union-find canonical form.
    Labels {
        /// Labels the machine produced.
        got: Vec<usize>,
        /// The canonical (min vertex id per component) labeling.
        expected: Vec<usize>,
    },
    /// The fixed run executed a different number of generations than the
    /// closed form predicts.
    Generations {
        /// Generations the machine executed.
        got: u64,
        /// The predicted count.
        predicted: u64,
    },
    /// The [`Convergence::Detect`] run's labels differ from the fixed
    /// run's — early exit changed the result.
    DetectLabels {
        /// Labels the detecting machine produced.
        got: Vec<usize>,
        /// The fixed-schedule labels.
        expected: Vec<usize>,
    },
    /// The [`Convergence::Detect`] run executed *more* generations than
    /// the fixed schedule.
    DetectOverrun {
        /// Generations of the detecting run.
        detect: u64,
        /// Generations of the fixed run.
        fixed: u64,
    },
    /// The machine itself failed.
    Engine(GcaError),
    /// The graph could not be built (unreachable for enumerated masks).
    Build(GraphError),
    /// The symmetry-reduced scan's orbits do not tile the labeled-graph
    /// space — the canonical representatives would not cover every graph.
    OrbitCoverage {
        /// Labeled graphs the orbits covered.
        covered: u64,
        /// The full labeled-graph count (`2^(n(n-1)/2)`).
        expected: u64,
    },
}

/// The first counterexample found: the graph (as `n` + edge mask) and what
/// it violated.
#[derive(Clone, Debug)]
pub struct ModelCheckError {
    /// Vertex count of the counterexample.
    pub n: usize,
    /// Edge mask over [`edge_pairs`]`(n)`.
    pub edges_mask: u64,
    /// The violated property.
    pub violation: ModelCheckViolation,
}

impl fmt::Display for ModelCheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let edges: Vec<String> = edge_pairs(self.n)
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.edges_mask >> i & 1 == 1)
            .map(|(_, &(u, v))| format!("{u}-{v}"))
            .collect();
        write!(
            f,
            "graph n = {} mask {:#x} (edges [{}]): ",
            self.n,
            self.edges_mask,
            edges.join(", ")
        )?;
        match &self.violation {
            ModelCheckViolation::Labels { got, expected } => write!(
                f,
                "labels {got:?} are not the canonical min-vertex labeling {expected:?}"
            ),
            ModelCheckViolation::Generations { got, predicted } => write!(
                f,
                "fixed run executed {got} generations, closed form predicts {predicted}"
            ),
            ModelCheckViolation::DetectLabels { got, expected } => write!(
                f,
                "Convergence::Detect changed the labels: {got:?} vs fixed {expected:?}"
            ),
            ModelCheckViolation::DetectOverrun { detect, fixed } => write!(
                f,
                "Convergence::Detect ran {detect} generations, more than the fixed {fixed}"
            ),
            ModelCheckViolation::Engine(e) => write!(f, "engine failure: {e}"),
            ModelCheckViolation::Build(e) => write!(f, "graph build failure: {e}"),
            ModelCheckViolation::OrbitCoverage { covered, expected } => write!(
                f,
                "symmetry orbits cover {covered} labeled graphs, expected {expected}"
            ),
        }
    }
}

impl std::error::Error for ModelCheckError {}

/// Statistics of a successful [`check_all`] sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModelCheckReport {
    /// Largest vertex count checked.
    pub max_n: usize,
    /// Graphs actually run (each twice: fixed and detecting). Above the
    /// symmetry-reduction threshold this counts canonical representatives
    /// only.
    pub graphs_checked: u64,
    /// Labeled graphs covered — directly below the threshold, via their
    /// isomorphism orbit above it. `graphs_checked < graphs_covered`
    /// exactly when symmetry reduction kicked in.
    pub graphs_covered: u64,
    /// Canonical representatives run by the symmetry-reduced sizes
    /// (`0` when `max_n` stays below the threshold).
    pub canonical_representatives: u64,
    /// Generations the detecting runs skipped in total — evidence the
    /// early exit actually fires inside the checked space.
    pub detect_saved_generations: u64,
}

/// A deliberately planted fault, for proving the checker catches each
/// violation class. Not part of the public contract.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Corrupt the fixed run's first label before the canonicity check
    /// (needs `n ≥ 2` to be observable).
    WrongLabel,
    /// Report one generation too many for the fixed run.
    WrongGenerationCount,
    /// Corrupt the detecting run's first label before the soundness check
    /// (needs `n ≥ 2` to be observable).
    DetectMismatch,
    /// Over-report the symmetry-reduced orbit coverage by one (needs
    /// `max_n ≥` [`CANONICAL_MIN_N`] to be observable).
    WrongOrbitSum,
}

/// Vertex count from which the sweep enumerates one canonical
/// representative per isomorphism orbit instead of every labeled graph.
/// Below this, full enumeration is cheap enough to skip the reduction.
pub const CANONICAL_MIN_N: usize = 7;

/// Every permutation of `0..n`, generated by Heap's algorithm.
fn permutations(n: usize) -> Vec<Vec<usize>> {
    let mut perm: Vec<usize> = (0..n).collect();
    let mut out = vec![perm.clone()];
    let mut c = vec![0usize; n];
    let mut i = 0usize;
    while i < n {
        if c[i] < i {
            if i.is_multiple_of(2) {
                perm.swap(0, i);
            } else {
                perm.swap(c[i], i);
            }
            out.push(perm.clone());
            c[i] += 1;
            i = 0;
        } else {
            c[i] = 0;
            i += 1;
        }
    }
    out
}

/// Increasing-order orbit scan: the first unvisited mask of each
/// isomorphism orbit is its canonical representative; the whole orbit is
/// then marked visited by pushing the edge set through every vertex
/// permutation. Returns the representatives and the number of distinct
/// labeled graphs their orbits covered (which the caller self-checks
/// against `2^(n(n-1)/2)`).
fn canonical_representatives(n: usize) -> (Vec<u64>, u64) {
    let pairs = edge_pairs(n);
    let mut pair_index = vec![0usize; n * n];
    for (i, &(u, v)) in pairs.iter().enumerate() {
        pair_index[u * n + v] = i;
        pair_index[v * n + u] = i;
    }
    let perms = permutations(n);
    let total: u64 = 1 << pairs.len();
    let mut visited = vec![false; total as usize];
    let mut reps = Vec::new();
    let mut covered = 0u64;
    for mask in 0..total {
        if visited[mask as usize] {
            continue;
        }
        reps.push(mask);
        for p in &perms {
            let mut permuted: u64 = 0;
            let mut bits = mask;
            while bits != 0 {
                let i = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let (u, v) = pairs[i];
                permuted |= 1 << pair_index[p[u] * n + p[v]];
            }
            if !visited[permuted as usize] {
                visited[permuted as usize] = true;
                covered += 1;
            }
        }
    }
    (reps, covered)
}

/// Checks all graphs on `1..=max_n` vertices. `Err` carries the first
/// counterexample.
pub fn check_all(max_n: usize) -> Result<ModelCheckReport, ModelCheckError> {
    check_all_seeded(max_n, None)
}

/// [`check_all`] with an optional planted [`Fault`] — the seam the
/// failure-injection suite uses to prove each violation class is caught.
#[doc(hidden)]
pub fn check_all_seeded(
    max_n: usize,
    fault: Option<Fault>,
) -> Result<ModelCheckReport, ModelCheckError> {
    check_all_with(max_n, fault, CANONICAL_MIN_N)
}

/// [`check_all_seeded`] with the symmetry-reduction threshold as a
/// parameter, so the unit suite can exercise the canonical path on sizes
/// cheap enough for debug builds.
fn check_all_with(
    max_n: usize,
    fault: Option<Fault>,
    canonical_min_n: usize,
) -> Result<ModelCheckReport, ModelCheckError> {
    let mut graphs_checked = 0u64;
    let mut graphs_covered = 0u64;
    let mut canonical_representatives_run = 0u64;
    let mut detect_saved_generations = 0u64;
    for n in 1..=max_n {
        let pairs = edge_pairs(n).len();
        let err = |edges_mask: u64, violation: ModelCheckViolation| ModelCheckError {
            n,
            edges_mask,
            violation,
        };
        let labeled: u64 = 1 << pairs;
        let masks: Vec<u64> = if n >= canonical_min_n {
            let (reps, mut covered) = canonical_representatives(n);
            if fault == Some(Fault::WrongOrbitSum) {
                covered += 1;
            }
            if covered != labeled {
                return Err(err(
                    0,
                    ModelCheckViolation::OrbitCoverage {
                        covered,
                        expected: labeled,
                    },
                ));
            }
            canonical_representatives_run += reps.len() as u64;
            reps
        } else {
            (0..labeled).collect()
        };
        graphs_covered += labeled;
        // Two machines per n, reused across every mask: same fused + no
        // instrumentation configuration the fast paths ship with.
        let empty = AdjacencyMatrix::new(n);
        let engine = || Engine::sequential().with_instrumentation(Instrumentation::Off);
        let mut fixed = Machine::with_engine(&empty, engine())
            .map_err(|e| err(0, ModelCheckViolation::Engine(e)))?
            .with_exec(ExecPath::Fused);
        let mut detect = Machine::with_engine(&empty, engine())
            .map_err(|e| err(0, ModelCheckViolation::Engine(e)))?
            .with_exec(ExecPath::Fused)
            .with_convergence(Convergence::Detect);
        let iterations = outer_iterations(n);
        let predicted = total_generations(n);

        for mask in masks {
            let engine_err = |e: GcaError| err(mask, ModelCheckViolation::Engine(e));
            let graph = graph_from_mask(n, mask)
                .map_err(|e| err(mask, ModelCheckViolation::Build(e)))?;
            let canonical = union_find_components_dense(&graph);
            let canonical = canonical.as_slice();

            let run = |machine: &mut Machine| -> Result<(Vec<usize>, u64), GcaError> {
                machine.reset_with(&graph)?;
                machine.init()?;
                for _ in 0..iterations {
                    machine.run_iteration()?;
                }
                let labels = machine
                    .labels_raw()
                    .into_iter()
                    .map(|w| w as usize)
                    .collect();
                Ok((labels, machine.generations()))
            };

            let (mut labels, mut generations) = run(&mut fixed).map_err(engine_err)?;
            match fault {
                Some(Fault::WrongLabel) if n > 1 => labels[0] = (labels[0] + 1) % n,
                Some(Fault::WrongGenerationCount) => generations += 1,
                _ => {}
            }
            if labels != canonical {
                return Err(err(
                    mask,
                    ModelCheckViolation::Labels {
                        got: labels,
                        expected: canonical.to_vec(),
                    },
                ));
            }
            if generations != predicted {
                return Err(err(
                    mask,
                    ModelCheckViolation::Generations {
                        got: generations,
                        predicted,
                    },
                ));
            }

            let (mut detect_labels, detect_generations) =
                run(&mut detect).map_err(engine_err)?;
            if matches!(fault, Some(Fault::DetectMismatch)) && n > 1 {
                detect_labels[0] = (detect_labels[0] + 1) % n;
            }
            if detect_labels != labels {
                return Err(err(
                    mask,
                    ModelCheckViolation::DetectLabels {
                        got: detect_labels,
                        expected: labels,
                    },
                ));
            }
            if detect_generations > generations {
                return Err(err(
                    mask,
                    ModelCheckViolation::DetectOverrun {
                        detect: detect_generations,
                        fixed: generations,
                    },
                ));
            }
            detect_saved_generations += generations - detect_generations;
            graphs_checked += 1;
        }
    }
    Ok(ModelCheckReport {
        max_n,
        graphs_checked,
        graphs_covered,
        canonical_representatives: canonical_representatives_run,
        detect_saved_generations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_pairs_cover_the_upper_triangle() {
        assert_eq!(edge_pairs(1), vec![]);
        assert_eq!(edge_pairs(3), vec![(0, 1), (0, 2), (1, 2)]);
        assert_eq!(edge_pairs(6).len(), 15);
    }

    #[test]
    fn graph_from_mask_roundtrips_edges() {
        // mask 0b101 over n = 3: edges (0,1) and (1,2).
        let g = graph_from_mask(3, 0b101).expect("valid mask");
        assert!(g.has_edge(0, 1) && g.has_edge(1, 2) && !g.has_edge(0, 2));
    }

    /// The heavyweight n = 6–7 sweep runs in the release-mode CI gate; the
    /// unit suite keeps debug builds fast with the 1 099 graphs of n ≤ 5.
    #[test]
    fn all_graphs_up_to_five_vertices_pass() {
        let report = check_all(5).expect("model check passes");
        assert_eq!(report.graphs_checked, 1 + 2 + 8 + 64 + 1024);
        assert_eq!(report.graphs_covered, report.graphs_checked);
        assert_eq!(report.canonical_representatives, 0);
        assert!(
            report.detect_saved_generations > 0,
            "Convergence::Detect never fired inside the checked space"
        );
    }

    #[test]
    fn canonical_representatives_match_the_unlabeled_graph_counts() {
        // OEIS A000088: unlabeled graphs on n vertices.
        for (n, classes) in [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34), (6, 156), (7, 1044)] {
            let (reps, covered) = canonical_representatives(n);
            assert_eq!(reps.len(), classes, "n = {n}");
            let labeled: u64 = 1 << edge_pairs(n).len();
            assert_eq!(covered, labeled, "orbits must tile the space at n = {n}");
            // The empty graph is its own (first) canonical representative.
            assert_eq!(reps.first(), Some(&0));
        }
    }

    #[test]
    fn symmetry_reduced_sweep_passes_and_reports_both_counts() {
        // Threshold forced down to 4 so the canonical path runs machines
        // in debug time: n = 4 covers 64 labeled graphs via 11 reps, n = 5
        // covers 1 024 via 34.
        let report = check_all_with(5, None, 4).expect("reduced sweep passes");
        assert_eq!(report.graphs_checked, 1 + 2 + 8 + 11 + 34);
        assert_eq!(report.graphs_covered, 1 + 2 + 8 + 64 + 1024);
        assert_eq!(report.canonical_representatives, 11 + 34);
    }

    #[test]
    fn planted_orbit_sum_fault_is_caught() {
        let e = check_all_with(3, Some(Fault::WrongOrbitSum), 2)
            .expect_err("fault must surface");
        assert!(
            matches!(e.violation, ModelCheckViolation::OrbitCoverage { .. }),
            "{e}"
        );
        assert!(e.to_string().contains("orbits cover"), "{e}");
    }

    #[test]
    fn planted_label_fault_is_caught() {
        let e = check_all_seeded(3, Some(Fault::WrongLabel))
            .expect_err("fault must surface");
        assert!(matches!(e.violation, ModelCheckViolation::Labels { .. }), "{e}");
        assert_eq!(e.n, 2, "first observable size");
    }

    #[test]
    fn planted_generation_fault_is_caught() {
        let e = check_all_seeded(2, Some(Fault::WrongGenerationCount))
            .expect_err("fault must surface");
        assert!(
            matches!(e.violation, ModelCheckViolation::Generations { .. }),
            "{e}"
        );
    }

    #[test]
    fn planted_detect_fault_is_caught() {
        let e = check_all_seeded(3, Some(Fault::DetectMismatch))
            .expect_err("fault must surface");
        assert!(
            matches!(e.violation, ModelCheckViolation::DetectLabels { .. }),
            "{e}"
        );
    }

    #[test]
    fn counterexamples_print_the_offending_graph() {
        let e = ModelCheckError {
            n: 3,
            edges_mask: 0b011,
            violation: ModelCheckViolation::Generations { got: 7, predicted: 19 },
        };
        let s = e.to_string();
        assert!(s.contains("0-1") && s.contains("0-2") && s.contains('7'), "{s}");
    }
}
