use crate::{Access, Domain, FieldShape, Reads};

/// Per-generation control information handed to every rule invocation.
///
/// The paper's algorithm is driven by a state machine (Figure 2) that tells
/// every cell which of the 12 generations — and, inside the iterated
/// generations, which *sub-generation* — is executing. The engine itself is
/// oblivious to algorithm structure; it simply forwards these values from
/// the driver to the rule, plus a monotonically increasing global generation
/// counter for diagnostics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepCtx {
    /// Global generation counter (increases by 1 per [`crate::Engine::step`]).
    pub generation: u64,
    /// Algorithm-defined phase tag (for Hirschberg: which of generations
    /// 0–11 is executing).
    pub phase: u32,
    /// Algorithm-defined sub-generation (the paper's `subGeneration`, used
    /// by the `log n` iterated generations 3, 7 and 10).
    pub subgeneration: u32,
}

impl StepCtx {
    /// A context at the start of time, with the given phase.
    pub fn at_phase(phase: u32) -> Self {
        StepCtx {
            generation: 0,
            phase,
            subgeneration: 0,
        }
    }
}

/// A uniform GCA transition rule.
///
/// One invocation of the pair ([`access`](GcaRule::access),
/// [`evolve`](GcaRule::evolve)) is one cell's work in one synchronous
/// generation:
///
/// * `access` computes the pointer part from the cell's **own** state only —
///   this mirrors the hardware, where the pointer drives the read
///   multiplexer before the data path evaluates;
/// * `evolve` computes the next state from the own state and the addressed
///   cells' **previous-generation** states.
///
/// Rules must be pure functions of their inputs: the engine may evaluate
/// cells in any order. All cells execute the *same* rule
/// (the paper's "uniform" GCA); position-dependent behaviour is expressed by
/// branching on `index` (the paper distinguishes the first column, the last
/// row and the square field exactly this way).
pub trait GcaRule {
    /// The cell state type. `PartialEq` lets the engine count changed cells
    /// during the write-back (the basis of convergence detection) without a
    /// second pass over the field.
    type State: Clone + PartialEq;

    /// Computes which global cells `index` reads this generation.
    fn access(&self, ctx: &StepCtx, shape: &FieldShape, index: usize, own: &Self::State)
        -> Access;

    /// Computes the next state of `index` from its own state and the
    /// resolved global reads.
    fn evolve(
        &self,
        ctx: &StepCtx,
        shape: &FieldShape,
        index: usize,
        own: &Self::State,
        reads: Reads<'_, Self::State>,
    ) -> Self::State;

    /// Does this cell *perform a calculation* this generation?
    ///
    /// Table 1 counts "active cells (modifying cell state)" per generation;
    /// cells whose data operation is the identity (`d ← d`) are not active
    /// even though the uniform rule formally executes everywhere. The
    /// default claims all cells active; algorithms override it to reproduce
    /// the paper's accounting.
    fn is_active(&self, _ctx: &StepCtx, _shape: &FieldShape, _index: usize, _own: &Self::State) -> bool {
        true
    }

    /// Where this generation's work lives (see [`Domain`]).
    ///
    /// The default claims the whole field. A rule that overrides this
    /// promises that every cell *outside* the returned domain is a no-op
    /// this generation (identity `evolve`, [`Access::None`], inactive) —
    /// the engine then evaluates only the hinted cells and bulk-copies the
    /// rest, with bit-identical results and metrics. Like the paper's central state machine, the hint depends
    /// only on the control context, never on cell data.
    fn domain(&self, _ctx: &StepCtx, _shape: &FieldShape) -> Domain {
        Domain::All
    }

    /// A short diagnostic name (used in panics and traces).
    fn name(&self) -> &str {
        "unnamed-rule"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy one-handed rule: every cell copies its left neighbor (wrapping),
    /// i.e. a global rotation — handy because the expected result is exact.
    struct RotateLeft;

    impl GcaRule for RotateLeft {
        type State = u32;

        fn access(&self, _ctx: &StepCtx, shape: &FieldShape, index: usize, _own: &u32) -> Access {
            Access::One((index + 1) % shape.len())
        }

        fn evolve(
            &self,
            _ctx: &StepCtx,
            _shape: &FieldShape,
            _index: usize,
            _own: &u32,
            reads: Reads<'_, u32>,
        ) -> u32 {
            *reads.expect_first("rotate-left")
        }

        fn name(&self) -> &str {
            "rotate-left"
        }
    }

    #[test]
    fn rule_contract_smoke() {
        let shape = FieldShape::new(1, 4).unwrap();
        let rule = RotateLeft;
        let ctx = StepCtx::at_phase(0);
        assert_eq!(rule.access(&ctx, &shape, 3, &0), Access::One(0));
        let v = 9u32;
        assert_eq!(rule.evolve(&ctx, &shape, 0, &0, Reads::one(&v)), 9);
        assert!(rule.is_active(&ctx, &shape, 0, &0));
        assert_eq!(rule.name(), "rotate-left");
    }

    #[test]
    fn step_ctx_constructor() {
        let c = StepCtx::at_phase(7);
        assert_eq!(c.phase, 7);
        assert_eq!(c.generation, 0);
        assert_eq!(c.subgeneration, 0);
    }
}
