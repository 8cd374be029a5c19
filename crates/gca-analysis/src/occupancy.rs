//! Layer three, part three: the occupancy-plane abstract interpreter.
//!
//! The SWAR filters (generations 2 and 6) write an occupancy bit-plane
//! (`bit (r, c) ⇔ cell (r, c) ≠ ∞`) as a byproduct, and the
//! occupancy-guided tree reduction
//! ([`gca_hirschberg::swar::min_reduce_rows_occ`]) consumes it to skip
//! folds whose source is provably `∞` — the dead-word skip that makes
//! the reduction collapse as labels converge. The skip is *sound* for
//! any superset plane, but the performance claim (and the executor's
//! `occ_valid` lifecycle) rests on the plane being **exact**. This
//! module proves that statically:
//!
//! * an abstract interpreter walks the full fused phase schedule
//!   ([`gca_hirschberg::iteration_schedule`], plus the iteration driver's
//!   fused broadcast+filter variant) over the three-point domain
//!   `Invalid < Superset < Exact`, applying per-kernel transfer
//!   functions justified by the lane proofs in [`crate::lanes`]
//!   (filters establish `Exact`; the guided folds preserve it — the
//!   `min_reduce_rows_occ` catalog entries; every other kernel writes
//!   the value plane without maintaining the bit-plane, hence
//!   `Invalid`);
//! * in lockstep it mirrors the executor's `occ_valid` flag transitions
//!   exactly as `FusedExecutor::step` implements them, and checks the
//!   invariant `occ_valid ⇒ plane Exact` at every step — in particular
//!   at every reduce sub-generation that would consume the plane;
//! * a concrete leg replays the filter → reduce windows with the real
//!   SWAR kernels on word-boundary sizes and asserts bit-for-bit
//!   exactness after every sub-generation (the word-spanning stride
//!   range included).
//!
//! A lifecycle that would consume a stale or merely-superset plane is
//! reported as a typed [`OccupancyFault`].

use crate::lanes::{self, LaneMismatch};
use gca_engine::{AdjWord, Word, INFINITY, WORD_BITS};
use gca_hirschberg::{iteration_schedule, swar, Gen};
use std::fmt;

/// Abstract state of the occupancy bit-plane relative to the square
/// value plane.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum PlaneState {
    /// The plane does not describe the value plane at all (some kernel
    /// wrote values without maintaining bits).
    Invalid,
    /// Every non-`∞` cell has its bit, but spurious bits may exist —
    /// sound for the guided fold, not exact.
    Superset,
    /// Bit `(r, c)` set iff cell `(r, c) ≠ ∞`.
    Exact,
}

/// A lifecycle violation found by the abstract walk or the concrete
/// replay.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OccupancyFault {
    /// A reduce sub-generation would consume the plane while it is not
    /// exact.
    StaleConsume {
        /// Problem size of the walked schedule.
        n: usize,
        /// Schedule position (generation, sub-generation).
        at: (Gen, u32),
        /// The plane's abstract state at the consume.
        state: PlaneState,
    },
    /// The executor's `occ_valid` flag is set while the plane is not
    /// exact — the flag over-claims.
    FlagOverclaim {
        /// Problem size of the walked schedule.
        n: usize,
        /// Schedule position (generation, sub-generation).
        at: (Gen, u32),
        /// The plane's abstract state under the raised flag.
        state: PlaneState,
    },
    /// The concrete replay found an inexact bit.
    Inexact(LaneMismatch),
}

impl fmt::Display for OccupancyFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OccupancyFault::StaleConsume { n, at, state } => write!(
                f,
                "occupancy: {:?}/{} at n={n} would consume a {state:?} plane (needs Exact)",
                at.0, at.1
            ),
            OccupancyFault::FlagOverclaim { n, at, state } => write!(
                f,
                "occupancy: occ_valid raised after {:?}/{} at n={n} over a {state:?} plane",
                at.0, at.1
            ),
            OccupancyFault::Inexact(m) => write!(f, "occupancy: concrete replay diverged: {m}"),
        }
    }
}

impl std::error::Error for OccupancyFault {}

/// Statistics of a completed occupancy verification.
#[derive(Clone, Copy, Debug, Default)]
pub struct OccupancyReport {
    /// Problem sizes walked.
    pub sizes: usize,
    /// Schedule steps interpreted across all sizes and variants.
    pub steps: usize,
    /// Reduce sub-generations proven to consume an exact plane.
    pub consumes_proven: usize,
    /// Concrete filter→reduce windows replayed bit-for-bit.
    pub concrete_windows: usize,
}

/// What a kernel does to the occupancy plane — the abstract transfer
/// function. `filter_exactness` parameterizes what the filters
/// establish: [`PlaneState::Exact`] for the shipped kernels (proven by
/// the lane catalog), downgraded by the seeded fault.
fn transfer(gen: Gen, state: PlaneState, filter_exactness: PlaneState) -> PlaneState {
    match gen {
        // The filters rewrite every square cell and emit its bit from
        // the written value (lane proofs: occ = (value ≠ ∞)).
        Gen::FilterNeighbors | Gen::FilterMembers => filter_exactness,
        // The guided folds preserve the plane's precision class: the
        // `min_reduce_rows_occ` lane entries prove exact-in ⇒ exact-out
        // per fold, and a superset stays a superset. When the plane is
        // Invalid the executor runs the occupancy-free body, which does
        // not touch the bits: still Invalid.
        Gen::MinReduce | Gen::MinReduceMembers => state,
        // Everything else writes the value plane (column 0, D_N, whole
        // rows) without maintaining the bit-plane.
        _ => PlaneState::Invalid,
    }
}

/// Mirrors `FusedExecutor::step`'s `occ_valid` transitions: filters
/// raise it, reduces preserve it, everything else clears it.
fn flag_transfer(gen: Gen, flag: bool) -> bool {
    match gen {
        Gen::FilterNeighbors | Gen::FilterMembers => true,
        Gen::MinReduce | Gen::MinReduceMembers => flag,
        _ => false,
    }
}

/// Walks one problem size's full schedule (`Init` + `⌈log₂ n⌉` outer
/// iterations of generations 1–11), with or without the batched
/// driver's fused broadcast+filter substitution, checking the
/// `occ_valid ⇒ Exact` invariant and every reduce consume.
fn walk(
    n: usize,
    fused_pairs: bool,
    filter_exactness: PlaneState,
    report: &mut OccupancyReport,
) -> Result<(), OccupancyFault> {
    let mut plane = PlaneState::Invalid;
    let mut flag = false;
    let iters = gca_hirschberg::complexity::outer_iterations(n);
    let schedule = iteration_schedule(n);
    let check = |gen: Gen,
                     sub: u32,
                     plane: &mut PlaneState,
                     flag: &mut bool,
                     report: &mut OccupancyReport|
     -> Result<(), OccupancyFault> {
        let consumes = matches!(gen, Gen::MinReduce | Gen::MinReduceMembers) && *flag;
        if consumes && *plane != PlaneState::Exact {
            return Err(OccupancyFault::StaleConsume {
                n,
                at: (gen, sub),
                state: *plane,
            });
        }
        if consumes {
            report.consumes_proven += 1;
        }
        *plane = transfer(gen, *plane, filter_exactness);
        *flag = flag_transfer(gen, *flag);
        if *flag && *plane != PlaneState::Exact {
            return Err(OccupancyFault::FlagOverclaim {
                n,
                at: (gen, sub),
                state: *plane,
            });
        }
        report.steps += 1;
        Ok(())
    };
    check(Gen::Init, 0, &mut plane, &mut flag, report)?;
    for _ in 0..iters.max(1) {
        let mut skip_next_filter: Option<Gen> = None;
        for &(gen, sub) in &schedule {
            if skip_next_filter == Some(gen) {
                skip_next_filter = None;
                continue;
            }
            let fuse_here = fused_pairs
                && sub == 0
                && matches!(gen, Gen::BroadcastC | Gen::BroadcastT);
            if fuse_here {
                // The fused pair executes broadcast+filter in one kernel
                // that ends exactly like the filter (occ written from
                // the filtered values, occ_valid raised) — model it as
                // the filter's transfer and skip the separate filter
                // step that the fused driver never issues.
                let filter = if gen == Gen::BroadcastC {
                    Gen::FilterNeighbors
                } else {
                    Gen::FilterMembers
                };
                check(filter, 0, &mut plane, &mut flag, report)?;
                skip_next_filter = Some(filter);
                continue;
            }
            check(gen, sub, &mut plane, &mut flag, report)?;
        }
    }
    Ok(())
}

/// Concrete leg: replay the filter → reduce window with the real SWAR
/// kernels at word-boundary sizes and assert the plane is exact after
/// every sub-generation. `n > WORD_BITS` sizes drive the word-spanning
/// stride range of the occupancy fold update.
fn concrete_window(n: usize) -> Result<(), OccupancyFault> {
    let wpr = n.div_ceil(WORD_BITS);
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    // A labels vector and adjacency plane with mixed-regime words.
    let labels: Vec<Word> = (0..n)
        .map(|_| match next() % 5 {
            0 => INFINITY,
            x => (x * 17 % 90) as Word,
        })
        .collect();
    let mut a = vec![0 as AdjWord; n * wpr];
    for r in 0..n {
        for c in 0..n {
            let dense_word = c / WORD_BITS == 0;
            let set = if dense_word {
                next() % 3 != 0
            } else {
                next() % 13 == 0
            };
            if set {
                a[r * wpr + c / WORD_BITS] |= 1 << (c % WORD_BITS);
            }
        }
    }
    let mut seg: Vec<Word> = (0..n * n).map(|_| (next() % 100) as Word).collect();
    let mut occ = vec![0 as AdjWord; n * wpr];
    // Filter establishes the plane …
    swar::filter_neighbor_rows(&mut seg, &mut occ, &a, &labels, 0, n, wpr);
    assert_exact("filter_neighbor_rows", n, wpr, &seg, &occ)?;
    // … and every reduce sub-generation must keep it exact.
    let mut s = 0u32;
    while (1usize << s) < n.max(2) {
        let stride = 1usize << s;
        swar::min_reduce_rows_occ(&mut seg, &mut occ, stride, n, wpr);
        assert_exact(&format!("min_reduce_rows_occ(stride {stride})"), n, wpr, &seg, &occ)?;
        s += 1;
    }
    Ok(())
}

fn assert_exact(
    kernel: &str,
    n: usize,
    wpr: usize,
    seg: &[Word],
    occ: &[AdjWord],
) -> Result<(), OccupancyFault> {
    for (i, &cell) in seg.iter().enumerate() {
        let (r, col) = (i / n, i % n);
        let bit = (occ[r * wpr + col / WORD_BITS] >> (col % WORD_BITS)) & 1;
        let want = u64::from(cell != INFINITY);
        if bit != want {
            return Err(OccupancyFault::Inexact(LaneMismatch {
                kernel: format!("{kernel} [n={n}, cell {i}]"),
                lane_state: lanes::LaneState {
                    width: Word::BITS,
                    cur: cell as u64,
                    keep: 0,
                    lab: 0,
                    live: bit,
                    src: 0,
                },
                expected: want,
                got: bit,
            }));
        }
    }
    Ok(())
}

/// Word-boundary sizes for the concrete leg: partial single word, exact
/// word, and multi-word sizes whose reduce strides span words.
const CONCRETE_SIZES: [usize; 5] = [5, 64, 70, 129, 150];

/// Runs the occupancy layer: the abstract walk over every `n = 2^k`
/// (`k ≤ 16`) plus word-boundary odd sizes, both schedule variants, and
/// the concrete replay leg.
pub fn verify() -> Result<OccupancyReport, OccupancyFault> {
    verify_with_exactness(PlaneState::Exact)
}

fn verify_with_exactness(
    filter_exactness: PlaneState,
) -> Result<OccupancyReport, OccupancyFault> {
    let mut report = OccupancyReport::default();
    let sizes: Vec<usize> = (0..=16u32)
        .map(|k| 1usize << k)
        .chain([3, 6, 70, 129])
        .collect();
    for &n in &sizes {
        for fused in [false, true] {
            walk(n, fused, filter_exactness, &mut report)?;
        }
        report.sizes += 1;
    }
    for &n in &CONCRETE_SIZES {
        concrete_window(n)?;
        report.concrete_windows += 1;
    }
    Ok(report)
}

/// Seeded-fault entry: models a filter whose occupancy plane is a
/// strict superset (a spurious bit left behind — the soundness-only
/// plane the docs warn about). The abstract walk must reject the first
/// reduce that consumes it. `Some` carries the fault found; `None`
/// means the seeded fault escaped — a broken interpreter.
pub fn verify_seeded() -> Option<OccupancyFault> {
    verify_with_exactness(PlaneState::Superset).err()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_lifecycle_verifies() {
        let report = verify().expect("occupancy lifecycle must verify");
        assert!(report.sizes >= 17, "sizes: {}", report.sizes);
        assert!(report.consumes_proven > 0, "no consumes proven");
        assert_eq!(report.concrete_windows, CONCRETE_SIZES.len());
    }

    #[test]
    fn seeded_superset_plane_is_rejected() {
        let fault = verify_seeded().expect("seeded superset must be rejected");
        match fault {
            OccupancyFault::StaleConsume { state, at, .. } => {
                assert_eq!(state, PlaneState::Superset);
                assert!(matches!(at.0, Gen::MinReduce | Gen::MinReduceMembers));
            }
            OccupancyFault::FlagOverclaim { state, .. } => {
                assert_eq!(state, PlaneState::Superset);
            }
            other => panic!("unexpected fault class: {other}"),
        }
    }

    #[test]
    fn transfer_matches_executor_lifecycle() {
        // Filters raise, reduces preserve, everything else clears —
        // for both the plane and the flag, in lockstep.
        for gen in Gen::ALL {
            let plane = transfer(gen, PlaneState::Exact, PlaneState::Exact);
            let flag = flag_transfer(gen, true);
            assert_eq!(
                flag,
                plane == PlaneState::Exact,
                "{gen:?}: flag and plane must agree from a valid window"
            );
        }
        // From an invalid plane a reduce must not conjure validity.
        assert_eq!(
            transfer(Gen::MinReduce, PlaneState::Invalid, PlaneState::Exact),
            PlaneState::Invalid
        );
        assert!(!flag_transfer(Gen::MinReduce, false));
    }

    #[test]
    fn fault_display_names_the_site() {
        let f = OccupancyFault::StaleConsume {
            n: 8,
            at: (Gen::MinReduce, 2),
            state: PlaneState::Superset,
        };
        let s = f.to_string();
        assert!(s.contains("MinReduce"), "{s}");
        assert!(s.contains("Superset"), "{s}");
    }
}
