//! A simulation engine for the **Global Cellular Automaton** (GCA) model.
//!
//! The GCA model (Hoffmann, Völkmann, Waldschmidt, ACRI 2000) extends the
//! classical cellular automaton: the state of a cell consists of a **data
//! part** and an **access-information part** — one or more *pointers* that may
//! address **any** other cell and may be recomputed by the local rule every
//! generation. All cells step synchronously; a cell may read the cells its
//! pointers address, but only ever writes its own state. The model is thus a
//! hardware-flavoured *concurrent-read owner-write* (CROW) PRAM.
//!
//! The engine in this crate executes one synchronous **generation** at a time
//! over a double-buffered [`CellField`]:
//!
//! 1. every cell evaluates its pointer(s) from its *own* current state
//!    ([`GcaRule::access`]),
//! 2. every cell reads the addressed global cells (previous-generation
//!    values) and computes its next state ([`GcaRule::evolve`]).
//!
//! Because reads always see the previous generation, the result is
//! independent of evaluation order. The engine evaluates cells one by one on
//! the calling thread: it is the reference semantics, kept simple rather
//! than fast.
//!
//! Instrumentation is a first-class citizen: the paper's evaluation (Table 1)
//! is about *activity* (cells that compute per generation) and *congestion*
//! (concurrent reads per target cell), so [`Engine::step`] can record both,
//! plus full access traces for rendering Figure-3-style access patterns.
//!
//! # Choosing the knobs
//!
//! * **[`Instrumentation`]** — `Off` for pure timing (allocation-free steady
//!   state), `Counts` (default) for Table-1 congestion histograms built
//!   incrementally in engine-owned scratch, `Trace` to additionally retain
//!   every cell's [`Access`] (meant for small diagnostic fields),
//!   `Validate` to evaluate the whole field and check the rule's
//!   [`GcaRule::domain`] hint against it. Every other level evaluates only
//!   the hinted cells and bulk-copies the rest, which is bit-identical to
//!   the dense evaluation whenever the rule honours the [`Domain`] contract
//!   (out-of-domain cells are no-ops).
//!
//! Convergence early-exit (skipping sub-generations once a step reports
//! [`StepReport::changed_cells`] `== 0`) is an *algorithm-level* decision
//! layered on the engine's changed-cell counter — see the `gca-hirschberg`
//! crate for where it is sound and where it is not.
//!
//! Supporting theory from the paper's Section 1 is also implemented:
//! [`brent`] (p physical cells simulating N virtual cells round-robin, per
//! Brent's theorem) and [`hashing`] (universal hashing of cells onto memory
//! modules, with measurable congestion).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod access;
pub mod brent;
pub mod combinators;
mod domain;
mod engine;
mod error;
pub mod faults;
mod field;
mod geometry;
pub mod hashing;
mod invariant;
pub mod metrics;
pub mod recovery;
mod rule;
pub mod snapshot;
pub mod trace;
mod word;

pub use access::{Access, Reads};
pub use domain::Domain;
pub use engine::{Engine, Instrumentation, StepReport};
pub use error::{DomainViolationKind, GcaError};
pub use field::CellField;
pub use geometry::FieldShape;
pub use invariant::InvariantCheck;
pub use rule::{GcaRule, StepCtx};
pub use word::{ceil_log2, AdjWord, Word, INFINITY, WORD_BITS};
