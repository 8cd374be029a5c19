//! Independent verification of component labelings.
//!
//! A labeling can be wrong in two directions: *under-merging* (an edge
//! crosses two label classes) and *over-merging* (a label class is not
//! internally connected). Comparing against another CC implementation only
//! shifts trust; this module checks the defining properties directly
//! against the graph, so every machine in the workspace can be validated
//! without a trusted oracle.
//!
//! The check reads the graph through [`NeighborSource`], so it runs on the
//! bit-packed [`AdjacencyMatrix`] a machine was built from as well as on an
//! [`AdjacencyList`], without converting one into the other.
//!
//! A labeling is accepted in one pass: one search per representative over
//! a bitset of seen nodes, which the matrix advances a row word at a time.
//! Only a rejected labeling pays for the ordered scan that names the first
//! violated property.

use crate::adjacency::{insert_node, node_set};
use crate::{AdjacencyList, AdjacencyMatrix, Labeling};
use std::fmt;

/// A graph as [`verify_components`] reads it: its node count, each node's
/// neighbors, and its undirected edges.
pub trait NeighborSource {
    /// Number of nodes.
    fn n(&self) -> usize;

    /// The neighbors of node `u`.
    fn neighbors(&self, u: usize) -> impl Iterator<Item = usize> + '_;

    /// Every undirected edge `(u, v)` once, with `u < v`.
    fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_;

    /// Adds to `seen`, a set of the graph's nodes packed like an
    /// [`AdjacencyMatrix`] row, the neighbors of `u` it does not hold yet,
    /// and pushes each onto `stack`.
    fn push_unseen_neighbors(&self, u: usize, seen: &mut [u64], stack: &mut Vec<usize>) {
        stack.extend(self.neighbors(u).filter(|&v| insert_node(seen, v)));
    }
}

impl NeighborSource for AdjacencyList {
    fn n(&self) -> usize {
        AdjacencyList::n(self)
    }

    fn neighbors(&self, u: usize) -> impl Iterator<Item = usize> + '_ {
        AdjacencyList::neighbors(self, u).iter().copied()
    }

    fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        AdjacencyList::edges(self)
    }
}

impl NeighborSource for AdjacencyMatrix {
    fn n(&self) -> usize {
        AdjacencyMatrix::n(self)
    }

    fn neighbors(&self, u: usize) -> impl Iterator<Item = usize> + '_ {
        AdjacencyMatrix::neighbors(self, u)
    }

    fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        AdjacencyMatrix::edges(self)
    }

    fn push_unseen_neighbors(&self, u: usize, seen: &mut [u64], stack: &mut Vec<usize>) {
        AdjacencyMatrix::push_unseen_neighbors(self, u, seen, stack);
    }
}

/// Why a labeling failed verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// The labeling covers a different number of nodes than the graph.
    SizeMismatch {
        /// Nodes in the graph.
        graph_nodes: usize,
        /// Nodes in the labeling.
        labeling_nodes: usize,
    },
    /// An edge connects two different label classes (under-merging).
    CrossingEdge {
        /// The edge.
        edge: (usize, usize),
        /// The two labels.
        labels: (usize, usize),
    },
    /// A node's label is not the minimum index of its class, or the label
    /// is not itself in the class (non-canonical labeling).
    NotCanonical {
        /// The offending node.
        node: usize,
        /// Its label.
        label: usize,
        /// The true minimum of its class.
        class_min: usize,
    },
    /// A label class is not internally connected (over-merging).
    DisconnectedClass {
        /// The class label.
        label: usize,
        /// A member unreachable from the class representative.
        unreachable: usize,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::SizeMismatch { graph_nodes, labeling_nodes } => write!(
                f,
                "labeling covers {labeling_nodes} nodes but the graph has {graph_nodes}"
            ),
            VerifyError::CrossingEdge { edge, labels } => write!(
                f,
                "edge ({}, {}) crosses components {} and {} (under-merged)",
                edge.0, edge.1, labels.0, labels.1
            ),
            VerifyError::NotCanonical { node, label, class_min } => write!(
                f,
                "node {node} labeled {label} but its class minimum is {class_min}"
            ),
            VerifyError::DisconnectedClass { label, unreachable } => write!(
                f,
                "class {label} is not connected: node {unreachable} is unreachable \
                 from the representative (over-merged)"
            ),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Verifies that `labeling` is exactly the canonical connected-components
/// labeling of `graph`:
///
/// 1. sizes agree;
/// 2. no edge crosses classes;
/// 3. every label is the minimum member of its class;
/// 4. every class is internally connected.
///
/// Together these four properties *uniquely* determine the canonical
/// labeling, so passing verification is equivalent to full correctness.
///
/// The labeling is accepted in one pass of searches; a rejected one is
/// checked again property by property, in the order above, and the first
/// violation is returned.
pub fn verify_components<G: NeighborSource>(
    graph: &G,
    labeling: &Labeling,
) -> Result<(), VerifyError> {
    let n = graph.n();
    if labeling.n() != n {
        return Err(VerifyError::SizeMismatch {
            graph_nodes: n,
            labeling_nodes: labeling.n(),
        });
    }
    if accepts(graph, labeling) {
        return Ok(());
    }
    ordered_scan(graph, labeling)
}

/// Properties 2–4 at once, for a labeling of `graph`'s size: every label
/// is at most its node, a search from each representative `r`
/// (`label(r) = r`) reaches only nodes labeled `r`, and the searches
/// together reach every node.
///
/// Then each search covers exactly its representative's component and
/// that component is exactly the class labeled `r` (properties 2 and 4),
/// and no member is below `r` (property 3). Conversely the canonical
/// labeling passes. A search never starts from a node an earlier one
/// reached: that node carries its own label, so the earlier search
/// already failed. Scratch: an n-bit `seen` set and the search stack.
fn accepts<G: NeighborSource>(graph: &G, labeling: &Labeling) -> bool {
    let n = graph.n();
    if (0..n).any(|v| labeling.label(v) > v) {
        return false;
    }
    let mut seen = node_set(n);
    let mut stack = Vec::new();
    let mut reached = 0;
    for r in (0..n).filter(|&r| labeling.label(r) == r) {
        insert_node(&mut seen, r);
        stack.push(r);
        while let Some(u) = stack.pop() {
            if labeling.label(u) != r {
                return false;
            }
            reached += 1;
            graph.push_unseen_neighbors(u, &mut seen, &mut stack);
        }
    }
    reached == n
}

/// Properties 2–4 checked one after the other: the first violation, in
/// that order, or `Ok` for a labeling of `graph`'s size that has none.
fn ordered_scan<G: NeighborSource>(graph: &G, labeling: &Labeling) -> Result<(), VerifyError> {
    let n = graph.n();

    // 2. No crossing edges.
    for (u, v) in graph.edges() {
        let (lu, lv) = (labeling.label(u), labeling.label(v));
        if lu != lv {
            return Err(VerifyError::CrossingEdge {
                edge: (u, v),
                labels: (lu, lv),
            });
        }
    }

    // 3. Canonical representatives.
    let mut class_min = vec![usize::MAX; n];
    for v in 0..n {
        let l = labeling.label(v);
        if v < class_min[l] {
            class_min[l] = v;
        }
    }
    for v in 0..n {
        let l = labeling.label(v);
        if l != class_min[l] {
            return Err(VerifyError::NotCanonical {
                node: v,
                label: l,
                class_min: class_min[l],
            });
        }
    }

    // 4. Internal connectivity: BFS from each representative restricted to
    //    its class must reach every member.
    let mut reached = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    for v in 0..n {
        if labeling.label(v) == v {
            reached[v] = true;
            queue.push_back(v);
            while let Some(u) = queue.pop_front() {
                for w in graph.neighbors(u) {
                    if !reached[w] {
                        reached[w] = true;
                        queue.push_back(w);
                    }
                }
            }
        }
    }
    if let Some(v) = (0..n).find(|&v| !reached[v]) {
        return Err(VerifyError::DisconnectedClass {
            label: labeling.label(v),
            unreachable: v,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::{bfs_components, union_find_components};
    use crate::{generators, GraphBuilder};

    fn matrix(edges: &[(usize, usize)], n: usize) -> AdjacencyMatrix {
        let mut b = GraphBuilder::new(n);
        for &(u, v) in edges {
            b = b.edge(u, v);
        }
        b.build().unwrap()
    }

    /// Verifies `labeling` against `g` read as a matrix and as a list;
    /// the two inputs must give the same verdict.
    fn verify_both(g: &AdjacencyMatrix, labeling: &Labeling) -> Result<(), VerifyError> {
        let from_matrix = verify_components(g, labeling);
        assert_eq!(
            from_matrix,
            verify_components(&g.to_adjacency_list(), labeling)
        );
        from_matrix
    }

    #[test]
    fn accepts_correct_labelings() {
        for seed in 0..5 {
            let g = generators::gnp(20, 0.15, seed);
            let l = bfs_components(&g.to_adjacency_list());
            verify_both(&g, &l).unwrap();
        }
    }

    #[test]
    fn rejects_size_mismatch() {
        let g = matrix(&[], 3);
        let l = Labeling::new(vec![0, 1]).unwrap();
        assert!(matches!(
            verify_both(&g, &l),
            Err(VerifyError::SizeMismatch { .. })
        ));
    }

    #[test]
    fn rejects_under_merging() {
        // Edge (0,1) but separate labels.
        let g = matrix(&[(0, 1)], 2);
        let l = Labeling::new(vec![0, 1]).unwrap();
        assert_eq!(
            verify_both(&g, &l),
            Err(VerifyError::CrossingEdge {
                edge: (0, 1),
                labels: (0, 1)
            })
        );
    }

    #[test]
    fn rejects_over_merging() {
        // No edge between 0 and 1, yet both labeled 0.
        let g = matrix(&[], 2);
        let l = Labeling::new(vec![0, 0]).unwrap();
        assert_eq!(
            verify_both(&g, &l),
            Err(VerifyError::DisconnectedClass {
                label: 0,
                unreachable: 1
            })
        );
    }

    #[test]
    fn rejects_non_canonical_representative() {
        // Component {0,1} labeled with 1 instead of its minimum 0.
        let g = matrix(&[(0, 1)], 2);
        let l = Labeling::new(vec![1, 1]).unwrap();
        assert_eq!(
            verify_both(&g, &l),
            Err(VerifyError::NotCanonical {
                node: 0,
                label: 1,
                class_min: 0
            })
        );
    }

    #[test]
    fn detects_partial_over_merge_in_larger_graph() {
        // {0,1} and {2,3} are separate components; labeling merges them.
        let g = matrix(&[(0, 1), (2, 3)], 4);
        let l = Labeling::new(vec![0, 0, 0, 0]).unwrap();
        assert!(matches!(
            verify_both(&g, &l),
            Err(VerifyError::DisconnectedClass { label: 0, .. })
        ));
    }

    /// One of the labeling mutations of [`fast_pass_matches_ordered_scan`],
    /// applied to the canonical `labels` with the random `pick`s; it leaves
    /// the labels alone where the graph offers no target.
    fn mutate(labels: &mut Vec<usize>, mutation: u8, pick: (usize, usize)) {
        let n = labels.len();
        let reps: Vec<usize> = (0..n).filter(|&v| labels[v] == v).collect();
        let others: Vec<usize> = (0..n).filter(|&v| labels[v] != v).collect();
        match mutation {
            // Merge two classes into the smaller representative's.
            1 if reps.len() >= 2 => {
                let i = pick.0 % reps.len();
                let (a, b) = (
                    reps[i],
                    reps[(i + 1 + pick.1 % (reps.len() - 1)) % reps.len()],
                );
                let (keep, gone) = (a.min(b), a.max(b));
                labels
                    .iter_mut()
                    .filter(|l| **l == gone)
                    .for_each(|l| *l = keep);
            }
            // Split a non-representative off into a class of its own.
            2 if !others.is_empty() => {
                let v = others[pick.0 % others.len()];
                labels[v] = v;
            }
            // Move a node into the class of the nearest node above or
            // below it that has another label.
            3 if reps.len() >= 2 => {
                let v = pick.0 % n;
                let w = (v + 1..n)
                    .chain((0..v).rev())
                    .find(|&w| labels[w] != labels[v])
                    .expect("two classes");
                labels[v] = labels[w];
            }
            // Rename a class to one of its members other than the minimum.
            4 if !others.is_empty() => {
                let old = labels[others[pick.0 % others.len()]];
                let members: Vec<usize> = (0..n).filter(|&v| labels[v] == old).collect();
                let new = members[1 + pick.1 % (members.len() - 1)];
                labels
                    .iter_mut()
                    .filter(|l| **l == old)
                    .for_each(|l| *l = new);
            }
            // One node too many.
            5 => labels.push(0),
            _ => {}
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The one-pass acceptance gives exactly the verdict and the error
        /// of the size check followed by the ordered scan, on the matrix and
        /// on its adjacency list, and accepts every union-find labeling.
        #[test]
        fn fast_pass_matches_ordered_scan(
            size in 0usize..7,
            forest in 0u8..2,
            density in 1usize..=8,
            seed in 0u64..1000,
            mutation in 0u8..=5,
            pick in (0usize..1000, 0usize..1000),
        ) {
            // Around one and two words per row.
            let n = [0, 1, 2, 63, 64, 65, 130][size];
            let g = if forest == 1 {
                generators::random_forest(n, n.div_ceil(density), seed)
            } else {
                // Mean degree up to about 2·density/3, across the
                // threshold where one component takes over.
                generators::gnp(n, (density as f64 / (1.5 * n.max(1) as f64)).min(1.0), seed)
            };
            let list = g.to_adjacency_list();
            let mut labels = union_find_components(&list).into_vec();
            mutate(&mut labels, mutation, pick);
            let l = Labeling::new(labels).unwrap();
            let expected = if l.n() == n {
                ordered_scan(&g, &l)
            } else {
                Err(VerifyError::SizeMismatch { graph_nodes: n, labeling_nodes: l.n() })
            };
            proptest::prop_assert_eq!(&verify_components(&g, &l), &expected);
            proptest::prop_assert_eq!(&verify_components(&list, &l), &expected);
            if mutation == 0 {
                proptest::prop_assert_eq!(expected, Ok(()));
            }
        }
    }

    #[test]
    fn error_messages_name_entities() {
        let e = VerifyError::CrossingEdge {
            edge: (1, 2),
            labels: (0, 2),
        };
        assert!(e.to_string().contains("(1, 2)"));
        let e = VerifyError::DisconnectedClass {
            label: 3,
            unreachable: 7,
        };
        assert!(e.to_string().contains("node 7"));
    }
}
