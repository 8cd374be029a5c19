//! Algorithm-level invariant checking hook.
//!
//! [`Instrumentation::Validate`](crate::Instrumentation::Validate) already
//! arms two machine-level sanitizers: the CROW/domain replay inside the
//! engine (stray writes, torn reads) and the differential cross-check on
//! fused execution paths (sweep-vs-reference divergence). Both answer "did
//! the machine execute the rule faithfully?" — neither can say whether the
//! *rule itself* still satisfies the algorithm's inductive invariants.
//!
//! [`InvariantCheck`] is the third tier: an algorithm-aware observer that a
//! machine invokes after every committed generation with the post-state of
//! the cell field. Implementations mirror the statically proven Hoare
//! contracts of their schedule (see `gca-analysis::invariants` for the
//! Hirschberg instance) and report the first broken contract as a typed
//! [`GcaError::InvariantViolation`](crate::GcaError::InvariantViolation).
//! The engine crate only defines the extension point; the algorithm crates
//! own the contracts.

use crate::error::GcaError;
use crate::rule::StepCtx;

/// Observer invoked after each committed generation to assert
/// algorithm-level invariants over the new field contents.
///
/// `states` is the full post-generation state array in row-major field
/// order (the Hirschberg checker observes `HCell`s and judges their data
/// words, keeping its own copy of the read-only adjacency). `ctx`
/// identifies the generation that just committed (its `generation`
/// counter is the value *during* execution, i.e. before the post-step
/// increment). Implementations keep whatever
/// shadow model they need between calls and must be deterministic: the
/// same observation sequence yields the same verdicts, so fused, parallel
/// and generic execution paths can all be checked against one proof
/// model.
pub trait InvariantCheck<S> {
    /// Check the committed generation; return the first violated contract.
    fn after_generation(&mut self, ctx: &StepCtx, states: &[S]) -> Result<(), GcaError>;
}
