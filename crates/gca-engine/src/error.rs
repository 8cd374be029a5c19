use std::fmt;

/// Which clause of the [`Domain`](crate::Domain) contract an
/// out-of-domain cell broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DomainViolationKind {
    /// The cell's next state differs from its previous state — an
    /// effective write outside the declared domain.
    Write,
    /// The cell issued a global read (`Access` other than `None`).
    Read,
    /// The cell reported itself active.
    Active,
}

impl fmt::Display for DomainViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DomainViolationKind::Write => "wrote a new state",
            DomainViolationKind::Read => "issued a global read",
            DomainViolationKind::Active => "reported itself active",
        })
    }
}

/// Errors surfaced by the GCA engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GcaError {
    /// A rule produced a pointer outside the cell field.
    PointerOutOfRange {
        /// Cell whose rule produced the pointer.
        cell: usize,
        /// The out-of-range target.
        target: usize,
        /// Field size.
        len: usize,
        /// Generation counter at the time of the violation.
        generation: u64,
    },
    /// Requested field shape cannot be addressed by the engine's word type.
    FieldTooLarge {
        /// Requested rows.
        rows: usize,
        /// Requested columns.
        cols: usize,
    },
    /// Initial contents handed to [`crate::CellField::from_states`] did not
    /// match the shape.
    ShapeMismatch {
        /// Cells implied by the shape.
        expected: usize,
        /// Cells provided.
        actual: usize,
    },
    /// An input graph's node count does not match the layout a field (or
    /// machine) was built for.
    GraphSizeMismatch {
        /// Nodes in the offered graph.
        graph_nodes: usize,
        /// Nodes the layout was dimensioned for.
        layout_nodes: usize,
    },
    /// A snapshot offered for restore carries adjacency bits that differ
    /// from the graph the machine was built for.
    AdjacencyMismatch {
        /// First cell whose adjacency bit differs.
        cell: usize,
    },
    /// A cell outside the rule's declared [`Domain`](crate::Domain) hint was
    /// not a no-op. Reported by
    /// [`Instrumentation::Validate`](crate::Instrumentation::Validate);
    /// turns the "bit-identical for rules honoring the domain contract"
    /// caveat into an enforced invariant.
    DomainViolation {
        /// The offending rule's [`name`](crate::GcaRule::name).
        rule: String,
        /// The out-of-domain cell that computed.
        cell: usize,
        /// Generation counter at the time of the violation.
        generation: u64,
        /// Phase tag the generation ran under.
        phase: u32,
        /// Which contract clause was broken.
        kind: DomainViolationKind,
    },
    /// A rule's output was not a pure function of the previous-generation
    /// snapshot: re-evaluating the same cell against the same snapshot gave
    /// a different access or state, which is what reading torn
    /// current-generation state looks like from the outside.
    TornRead {
        /// The offending rule's [`name`](crate::GcaRule::name).
        rule: String,
        /// The cell whose re-evaluation diverged.
        cell: usize,
        /// Generation counter at the time of the violation.
        generation: u64,
        /// Phase tag the generation ran under.
        phase: u32,
    },
    /// A fused path's vector sweep diverged from the reference engine
    /// running the same iteration — in a generation's read counts or in
    /// the field at the iteration boundary — detected by the cross-check
    /// that [`Instrumentation::Validate`](crate::Instrumentation::Validate)
    /// arms on fused execution paths.
    KernelDivergence {
        /// First cell whose read count or state differs from the engine's.
        cell: usize,
        /// Generation counter at the time of the divergence.
        generation: u64,
        /// Phase tag the generation ran under.
        phase: u32,
    },
    /// A live generation broke one of the algorithm-level inductive
    /// invariants the schedule's Hoare contracts promise — reported by an
    /// [`InvariantCheck`](crate::InvariantCheck) harness armed under
    /// [`Instrumentation::Validate`](crate::Instrumentation::Validate).
    /// Where [`KernelDivergence`](GcaError::KernelDivergence) says "the
    /// kernel differs from the reference engine", this says "the machine
    /// (kernel *and* reference alike) differs from the proof model".
    InvariantViolation {
        /// Name of the violated invariant class (e.g. `label-range`).
        invariant: String,
        /// Generation counter at the time of the violation.
        generation: u64,
        /// Phase tag the generation ran under.
        phase: u32,
        /// First cell witnessing the violation.
        cell: usize,
    },
    /// A finished run handed back a component label outside the node
    /// range — the machine's final state failed the structural validation
    /// performed when converting it into a graph-layer labeling.
    BadLabel {
        /// The out-of-range label value.
        label: usize,
        /// Number of nodes the labeling covers.
        n: usize,
    },
    /// A stepper's lifecycle call came out of order: `init` on a machine
    /// that is already initialized, or an iteration before `init`.
    OutOfOrder {
        /// The rejected call.
        call: &'static str,
        /// Whether the machine was already initialized.
        initialized: bool,
    },
}

impl fmt::Display for GcaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GcaError::PointerOutOfRange {
                cell,
                target,
                len,
                generation,
            } => write!(
                f,
                "cell {cell} addressed out-of-range cell {target} \
                 (field has {len} cells) in generation {generation}"
            ),
            GcaError::FieldTooLarge { rows, cols } => write!(
                f,
                "field shape {rows}x{cols} exceeds the addressable cell range"
            ),
            GcaError::ShapeMismatch { expected, actual } => write!(
                f,
                "initial state count {actual} does not match field size {expected}"
            ),
            GcaError::GraphSizeMismatch {
                graph_nodes,
                layout_nodes,
            } => write!(
                f,
                "graph has {graph_nodes} nodes but the layout expects {layout_nodes}"
            ),
            GcaError::AdjacencyMismatch { cell } => write!(
                f,
                "snapshot cell {cell} carries an adjacency bit that differs from the machine's graph"
            ),
            GcaError::DomainViolation {
                rule,
                cell,
                generation,
                phase,
                kind,
            } => write!(
                f,
                "rule `{rule}`: cell {cell} outside the declared domain {kind} \
                 in generation {generation} (phase {phase})"
            ),
            GcaError::TornRead {
                rule,
                cell,
                generation,
                phase,
            } => write!(
                f,
                "rule `{rule}`: cell {cell} is not a pure function of the \
                 previous-generation snapshot in generation {generation} \
                 (phase {phase}) — torn current-generation read"
            ),
            GcaError::KernelDivergence {
                cell,
                generation,
                phase,
            } => write!(
                f,
                "fused sweep diverged from the reference engine at cell \
                 {cell} in generation {generation} (phase {phase})"
            ),
            GcaError::InvariantViolation {
                invariant,
                generation,
                phase,
                cell,
            } => write!(
                f,
                "invariant `{invariant}` violated at cell {cell} in \
                 generation {generation} (phase {phase})"
            ),
            GcaError::BadLabel { label, n } => write!(
                f,
                "run produced label {label} outside the node range 0..{n}"
            ),
            GcaError::OutOfOrder {
                call,
                initialized: true,
            } => write!(f, "`{call}` called on an already initialized machine"),
            GcaError::OutOfOrder {
                call,
                initialized: false,
            } => write!(f, "`{call}` called before `init`"),
        }
    }
}

impl std::error::Error for GcaError {}

impl GcaError {
    /// The stable name of the detection layer that raises this error —
    /// recorded in recovery attempt logs (see [`crate::recovery`]) and the
    /// fault-campaign coverage matrix, so a report can say *which* harness
    /// caught an injected fault.
    ///
    /// * `crow-sanitizer` — the engine's own per-generation access/domain
    ///   checks (bad pointers, torn reads, EREW/CROW and domain-hint
    ///   violations), armed by `Instrumentation::Validate` on every path.
    /// * `differential-replay` — the fused-path cross-check of each
    ///   iteration's sweep against the reference engine.
    /// * `invariant-checker` — the algorithm-level Hoare-contract mirror
    ///   running on every execution path.
    /// * `structural` — label/shape validation outside the run loop, and
    ///   lifecycle calls made out of order.
    pub fn detector(&self) -> &'static str {
        match self {
            GcaError::PointerOutOfRange { .. }
            | GcaError::TornRead { .. }
            | GcaError::DomainViolation { .. } => "crow-sanitizer",
            GcaError::KernelDivergence { .. } => "differential-replay",
            GcaError::InvariantViolation { .. } => "invariant-checker",
            GcaError::FieldTooLarge { .. }
            | GcaError::ShapeMismatch { .. }
            | GcaError::GraphSizeMismatch { .. }
            | GcaError::AdjacencyMismatch { .. }
            | GcaError::BadLabel { .. }
            | GcaError::OutOfOrder { .. } => "structural",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_pointer_out_of_range() {
        let e = GcaError::PointerOutOfRange {
            cell: 3,
            target: 99,
            len: 20,
            generation: 7,
        };
        let s = e.to_string();
        assert!(s.contains("cell 3"));
        assert!(s.contains("99"));
        assert!(s.contains("generation 7"));
    }

    #[test]
    fn display_field_too_large() {
        let e = GcaError::FieldTooLarge { rows: 1, cols: 2 };
        assert!(e.to_string().contains("1x2"));
    }

    #[test]
    fn display_shape_mismatch() {
        let e = GcaError::ShapeMismatch {
            expected: 6,
            actual: 5,
        };
        assert!(e.to_string().contains('6'));
        assert!(e.to_string().contains('5'));
    }

    #[test]
    fn display_graph_size_mismatch() {
        let e = GcaError::GraphSizeMismatch {
            graph_nodes: 2,
            layout_nodes: 3,
        };
        let s = e.to_string();
        assert!(s.contains("2 nodes"));
        assert!(s.contains("expects 3"));
    }

    #[test]
    fn display_adjacency_mismatch() {
        let e = GcaError::AdjacencyMismatch { cell: 11 };
        assert!(e.to_string().contains("cell 11"));
        assert_eq!(e.detector(), "structural");
    }

    #[test]
    fn display_domain_violation() {
        let e = GcaError::DomainViolation {
            rule: "liar".into(),
            cell: 17,
            generation: 4,
            phase: 2,
            kind: DomainViolationKind::Write,
        };
        let s = e.to_string();
        assert!(s.contains("liar"));
        assert!(s.contains("cell 17"));
        assert!(s.contains("generation 4"));
        assert!(s.contains("wrote"));
    }

    #[test]
    fn display_torn_read() {
        let e = GcaError::TornRead {
            rule: "sneaky".into(),
            cell: 3,
            generation: 9,
            phase: 1,
        };
        let s = e.to_string();
        assert!(s.contains("sneaky"));
        assert!(s.contains("cell 3"));
        assert!(s.contains("generation 9"));
        assert!(s.contains("torn"));
    }

    #[test]
    fn display_invariant_violation() {
        let e = GcaError::InvariantViolation {
            invariant: "label-range".into(),
            generation: 21,
            phase: 11,
            cell: 5,
        };
        let s = e.to_string();
        assert!(s.contains("label-range"));
        assert!(s.contains("cell 5"));
        assert!(s.contains("generation 21"));
        assert!(s.contains("phase 11"));
    }

    #[test]
    fn display_kernel_divergence() {
        let e = GcaError::KernelDivergence {
            cell: 8,
            generation: 12,
            phase: 10,
        };
        let s = e.to_string();
        assert!(s.contains("cell 8"));
        assert!(s.contains("generation 12"));
        assert!(s.contains("phase 10"));
    }

    #[test]
    fn display_out_of_order() {
        let twice = GcaError::OutOfOrder {
            call: "init",
            initialized: true,
        };
        assert!(twice.to_string().contains("`init` called on an already initialized"));
        let early = GcaError::OutOfOrder {
            call: "run_iterations",
            initialized: false,
        };
        assert!(early.to_string().contains("before `init`"));
        assert_eq!(early.detector(), "structural");
    }
}
