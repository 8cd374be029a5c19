//! Static verification of the CROW / read-snapshot / domain contracts the
//! fast paths of this workspace depend on.
//!
//! The engine's hinted stepping and the fused sweep are both justified by
//! the same three promises: cells write
//! only themselves (owner-write), reads observe the previous generation
//! only, and cells outside a rule's declared [`gca_engine::Domain`] are
//! no-ops. The runtime sanitizer ([`gca_engine::Instrumentation::Validate`])
//! checks those promises on the states a run actually visits; this crate
//! checks them *statically*, before anything runs:
//!
//! * [`isa`] — an abstract interpretation of emulated-PRAM programs
//!   ([`gca_emu`]) that proves owner-write for every predicated store,
//!   extracts per-generation read sets, and derives activity/congestion
//!   bounds that [`isa::IsaAnalysis::cross_check`] verifies against the
//!   dynamic metrics of a real run;
//! * [`schedule`] — a re-derivation of the paper's Table 1 from the
//!   shipped [`gca_hirschberg::HirschbergRule`] by exhaustive enumeration,
//!   compared row by row against
//!   [`gca_hirschberg::table1::paper_table1`], plus a static proof of the
//!   rule's domain hints over all admissible cell states;
//! * [`symbolic`] — the same derivation lifted to closed forms: exact
//!   rational polynomials in `n` and `log n` interpolated from the
//!   schedule enumeration and compared coefficient by coefficient against
//!   the paper's activity, congestion-δ and generation-count formulas for
//!   every `n = 2^k, k ≤ 12` — without ever executing the machine;
//! * [`mod@activity`] — the runtime face of the derivation: exact
//!   per-`(n, generation, sub-generation)` activity closed forms
//!   (cross-checked against [`schedule::derive_row`] and the [`symbolic`]
//!   polynomials), and the theorem that no in-schedule sub-generation of
//!   an iterated phase is dead;
//! * [`modelcheck`] — bounded-exhaustive model checking over **all**
//!   graphs on small vertex counts: predicted termination generation,
//!   label canonicity against union-find, and fixed-point soundness of
//!   [`gca_hirschberg::Convergence::Detect`];
//! * [`invariants`] — the algorithm-level capstone: an inductive
//!   invariant prover over an abstract-state domain (label forest,
//!   partition-refinement lattice, pointer-depth bound) that discharges a
//!   Hoare contract per schedule generation for **arbitrary** `n = 2^k` —
//!   per-cell transfer exactness against the shipped rule, an exhaustive
//!   hook/convergence lemma over supervertex quotients, and closed-form
//!   induction arithmetic — mirrored at runtime by the
//!   [`gca_engine::InvariantCheck`] harness in
//!   [`gca_hirschberg::invariants`].
//!
//! The `gca-analyze` binary runs every layer (plus the `gca-lint`
//! workspace linter) over every shipped program and is wired into CI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activity;
pub mod invariants;
pub mod isa;
pub mod modelcheck;
pub mod schedule;
pub mod symbolic;

pub use activity::{activity, live_subgenerations, min_reduce_folds_per_row};

pub use invariants::{contracts, prove, prove_seeded, Contract, Fact, ProofFault, ProofReport};

pub use isa::{analyze, AnalysisError, CrossCheckMismatch, GenPrediction, IsaAnalysis, ReadPrediction, StoreProof};
pub use modelcheck::{check_all, ModelCheckError, ModelCheckReport, ModelCheckViolation};
pub use schedule::{
    check_against_paper, check_claims, derive_first_iteration, derive_row, verify_domain_hints,
    ClaimCheck, HintViolation, ReadSetBound, ScheduleRow,
};
pub use symbolic::{
    derive as derive_symbolic, verify as verify_symbolic, Monomial, PhaseForms, Poly, Quantity,
    Rat, SymbolicError, SymbolicModel, SymbolicReport,
};
