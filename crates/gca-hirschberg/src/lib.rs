//! Hirschberg's connected-components algorithm on a Global Cellular
//! Automaton — the primary contribution of the reproduced paper.
//!
//! The paper expands the six steps of the Hirschberg–Chandra–Sarwate PRAM
//! algorithm (Listing 1) into **twelve GCA generations** (Figure 2) over an
//! `(n+1) × n` cell field:
//!
//! | Gen | Step | Action |
//! |----:|-----:|--------|
//! | 0   | 1    | initialize `d ← row(index)` |
//! | 1   | 2    | broadcast vector `C` (column 0) into every row; save `C` in `D_N` |
//! | 2   | 2    | keep `d` where `A(i,j) = 1 ∧ C(i) ≠ C(j)`, else `∞` |
//! | 3   | 2    | row-wise min by tree reduction (`⌈log₂ n⌉` sub-generations) |
//! | 4   | 2    | `∞` results fall back to `C(i)` (read from `D_N`) |
//! | 5   | 3    | broadcast vector `T` into every row |
//! | 6   | 3    | keep `d` where `C(i) = j ∧ T(i) ≠ j`, else `∞` |
//! | 7   | 3    | = generation 3 |
//! | 8   | 3    | = generation 4 |
//! | 9   | 4    | copy `T` across columns; save `T` in `D_N` |
//! | 10  | 5    | pointer jumping `C(i) ← C(C(i))` (`⌈log₂ n⌉` sub-generations) |
//! | 11  | 6    | `C(i) ← min(C(i), T(C(i)))` — resolves the root 2-cycle |
//!
//! Generations 1–11 repeat for `⌈log₂ n⌉` outer iterations, for a total of
//! `1 + log n · (3·log n + 8)` generations (`O(log² n)` on `n(n+1)` cells).
//!
//! Entry points:
//!
//! * [`connected_components`] — one-call API over an adjacency matrix;
//! * [`Machine`] — the generation-level stepper (drive the state machine
//!   yourself; used by the figure/table binaries);
//! * [`HirschbergGca`] — configurable runner (backend, instrumentation,
//!   early exit, execution path);
//! * [`kernels`] — fused flat-array kernels ([`ExecPath::Fused`]), metrics-
//!   identical to the generic engine path;
//! * [`batch`] — the batched multi-graph runner (aggregate graphs/sec);
//! * [`variants`] — the design-space variants the paper discusses: an
//!   `n`-cell machine (§3's "decide between n and n² cells") and a
//!   low-congestion machine using tree-shaped reads (§4);
//! * [`complexity`] — the closed-form generation counts (Table 2);
//! * [`table1`] — the paper's activity/congestion accounting vs. measurement.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod algorithm;
pub mod batch;
mod cell;
pub mod complexity;
mod hfield;
pub mod invariants;
pub mod kernels;
mod layout;
mod phase;
mod rule;
pub mod supervise;
pub mod swar;
pub mod table1;
pub mod timing;
pub mod variants;

pub use algorithm::{connected_components, Convergence, GcaRun, HirschbergGca, Machine};
pub use batch::{BatchReport, BatchRunner, BatchStats, ContainedReport, GraphFault};
pub use cell::HCell;
pub use invariants::{contract_step, InvariantChecker, InvariantClass};
pub use kernels::{ExecPath, FusedParallel, FusedSwar};
pub use layout::Layout;
pub use supervise::SupervisedMachine;
pub use phase::{iteration_schedule, Gen};
pub use rule::HirschbergRule;

use gca_engine::GcaError;
use gca_graphs::{GraphError, Labeling};

/// Wraps labels read back from a finished machine run, converting the
/// graph layer's range check into a typed engine error instead of a
/// panic. A label `≥ n` coming out of a run means the machine's final
/// state is corrupt — callers surface that as [`GcaError::BadLabel`].
pub(crate) fn machine_labeling(labels: Vec<usize>) -> Result<Labeling, GcaError> {
    let n = labels.len();
    Labeling::new(labels).map_err(|e| match e {
        GraphError::NodeOutOfRange { node, n } => GcaError::BadLabel { label: node, n },
        // `Labeling::new` only performs the range check; other graph
        // errors cannot occur here, but stay typed rather than panic.
        _ => GcaError::BadLabel { label: usize::MAX, n },
    })
}
