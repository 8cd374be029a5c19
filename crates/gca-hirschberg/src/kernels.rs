//! Execution paths of [`crate::Machine`].
//!
//! [`ExecPath::Generic`] ticks the engine's per-cell
//! [`gca_engine::GcaRule`] dispatch over the whole `n(n+1)` field, one
//! generation at a time: the reference semantics, with every
//! [`gca_engine::Instrumentation`] level.
//!
//! [`ExecPath::Fused`] runs each outer iteration as one vector sweep
//! ([`crate::sweep`]) over `C`, `T′` and the rows of the machine's
//! adjacency matrix, in O(n + m) work and O(n) state, and never builds the
//! engine's field. It commits every generation of the schedule in order,
//! with the same `Counts` entries and generation numbers as the engine, so
//! labels, metrics logs and [`crate::Machine::to_field`] are bit-identical
//! to the generic path.
//!
//! **Observed runs go to the engine.** Per-cell access traces
//! (`Instrumentation::Trace`), an armed fault plan, a
//! [`crate::Machine::step`] call and `Instrumentation::Validate` all need
//! every generation to happen cell by cell, so on the fused path they
//! hand the state to the engine's own field and tick it. Under
//! `Validate` the sweep also runs each iteration from that iteration's
//! column 0, and the machine compares its `Counts` footprints with the
//! engine's per generation and its field with the engine's at the
//! iteration boundary: the first differing cell is a
//! [`gca_engine::GcaError::KernelDivergence`].

/// Which implementation executes the state machine's generations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ExecPath {
    /// The engine's generic per-cell `access`/`evolve` dispatch over the
    /// whole field — the reference semantics, supporting every
    /// [`gca_engine::Instrumentation`] level.
    Generic,
    /// One vector sweep per outer iteration ([`crate::sweep`]) in O(n)
    /// state: the default. Bit-identical labelings, `Counts` metrics and
    /// fields at iteration boundaries; observed runs (`Trace`, `Validate`,
    /// an armed fault plan, [`crate::Machine::step`]) tick the generic
    /// engine instead.
    #[default]
    Fused,
    /// An alias of [`ExecPath::Fused`], kept so that callers naming it
    /// keep working. [`crate::Machine::set_exec`] maps it to
    /// [`ExecPath::Fused`].
    FusedParallel(FusedParallel),
}

/// The payload of the [`ExecPath::FusedParallel`] alias. It carries no
/// setting.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub struct FusedParallel;

impl FusedParallel {
    /// The alias. The worker count is accepted for compatibility and
    /// ignored.
    pub fn with_workers(_workers: usize) -> Self {
        FusedParallel
    }
}
