//! Layer three, part one: the lane-level SWAR verifier.
//!
//! The branch-free SWAR bodies in [`gca_hirschberg::swar`] replace the
//! scalar per-cell rules of [`gca_hirschberg::kernels`] with mask
//! arithmetic — the `lab | !((live & (lab != keep)).wrapping_neg())`
//! select family, the occupancy repack masks, the fused broadcast+filter
//! pair and the uniform-label kill shortcut. Their correctness argument
//! used to rest on sampled proptests; this module makes it a proof:
//!
//! 1. every branch-free formula is *lifted* into a symbolic lane
//!    expression over the dependency-free bitvector micro-IR [`Expr`]
//!    (variables: the lane's current value, the filter's `keep` value,
//!    the broadcast label, the live bit and the fold source);
//! 2. each lifted formula is evaluated **exhaustively over all lane
//!    states** at reduced lane widths 1–4 bits (where `∞` is the
//!    all-ones value of the width, exactly as it is at the full
//!    [`Word`] width) and over a distinguished-value cross product at
//!    the full width, and compared against a direct transcription of
//!    the scalar per-cell rule from `kernels.rs`. The formulas are pure
//!    lane functions built from bitwise ops, two's-complement negation
//!    of 0/1 masks, equality tests and unsigned `min` — all of which
//!    commute with the width parameterization, so small-width
//!    exhaustion plus full-width representatives covers the lane space;
//! 3. word-level harness runs ([`verify_word_level`]) drive the *live*
//!    SWAR row functions against the *live* scalar row functions on
//!    shared inputs across word-boundary and partial-tail geometries
//!    (`n` not a multiple of [`WORD_BITS`], multi-word rows, zero
//!    words, sparse words, dense words), checking the value plane, the
//!    `changed` tallies and occupancy-plane **exactness** cell by cell.
//!
//! The first divergence anywhere is reported as a typed
//! [`LaneMismatch`]. [`check_coverage`] closes the loop: it scans the
//! `swar.rs` source and asserts every `.wrapping_neg()` select site and
//! every occupancy mask-accumulation site is claimed by a catalog
//! entry — a new branch-free formula added to `swar.rs` without a lane
//! proof fails the gate, so nothing is silently skipped.

use gca_engine::{AdjWord, Word, INFINITY, WORD_BITS};
use gca_hirschberg::{kernels, swar};
use std::fmt;

/// A lane variable of the micro-IR.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Var {
    /// The lane's current data-plane value.
    Cur,
    /// The filter's kill value (`C(row)` in generation 2, the row index
    /// in generation 6).
    Keep,
    /// The broadcast label for this lane's column.
    Lab,
    /// The lane's live bit from the packed adjacency/membership plane
    /// (always `0` or `1`).
    Live,
    /// The min-fold source value (the cell `stride` to the right).
    Src,
}

/// A symbolic bitvector expression over one SWAR lane.
///
/// Evaluation is parameterized by the lane width: every operation acts
/// on `width`-bit values, `Inf` is the width's all-ones value (exactly
/// what `INFINITY = !0` is at the full [`Word`] width) and `Neg` is
/// two's-complement wrapping negation modulo `2^width` — so the lifted
/// formulas compute at width 4 precisely what the shipped kernels
/// compute at width 32.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expr {
    /// The all-ones value of the lane width (`∞`).
    Inf,
    /// The zero value.
    Zero,
    /// A lane variable.
    Var(Var),
    /// Bitwise complement at the lane width.
    Not(Box<Expr>),
    /// Bitwise AND.
    And(Box<Expr>, Box<Expr>),
    /// Bitwise OR.
    Or(Box<Expr>, Box<Expr>),
    /// Two's-complement wrapping negation at the lane width
    /// (`0 ↦ 0`, `1 ↦ all-ones` — the SWAR mask trick).
    Neg(Box<Expr>),
    /// Inequality test producing `0` or `1`.
    Ne(Box<Expr>, Box<Expr>),
    /// Unsigned minimum.
    Min(Box<Expr>, Box<Expr>),
}

/// Shorthand constructor: a variable reference.
pub fn v(var: Var) -> Expr {
    Expr::Var(var)
}

/// Shorthand constructor: the all-ones (`∞`) constant.
pub fn inf() -> Expr {
    Expr::Inf
}

/// Shorthand constructor: the zero constant.
pub fn zero() -> Expr {
    Expr::Zero
}

/// Shorthand constructor: bitwise complement.
pub fn not(e: Expr) -> Expr {
    Expr::Not(Box::new(e))
}

/// Shorthand constructor: bitwise AND.
pub fn and(a: Expr, b: Expr) -> Expr {
    Expr::And(Box::new(a), Box::new(b))
}

/// Shorthand constructor: bitwise OR.
pub fn or(a: Expr, b: Expr) -> Expr {
    Expr::Or(Box::new(a), Box::new(b))
}

/// Shorthand constructor: wrapping negation.
pub fn neg(e: Expr) -> Expr {
    Expr::Neg(Box::new(e))
}

/// Shorthand constructor: 0/1 inequality test.
pub fn ne(a: Expr, b: Expr) -> Expr {
    Expr::Ne(Box::new(a), Box::new(b))
}

/// Shorthand constructor: unsigned minimum.
pub fn min_e(a: Expr, b: Expr) -> Expr {
    Expr::Min(Box::new(a), Box::new(b))
}

/// One lane state: an assignment to the micro-IR variables at a given
/// lane width. `infinity()` is the width's all-ones value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaneState {
    /// Lane width in bits (1–63; the shipped kernels run at 32).
    pub width: u32,
    /// Assignment of [`Var::Cur`].
    pub cur: u64,
    /// Assignment of [`Var::Keep`].
    pub keep: u64,
    /// Assignment of [`Var::Lab`].
    pub lab: u64,
    /// Assignment of [`Var::Live`] (`0` or `1`).
    pub live: u64,
    /// Assignment of [`Var::Src`].
    pub src: u64,
}

impl LaneState {
    /// The all-ones (`∞`) value at this state's lane width.
    pub fn infinity(&self) -> u64 {
        mask(self.width)
    }
}

impl fmt::Display for LaneState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "width={} cur={:#x} keep={:#x} lab={:#x} live={} src={:#x}",
            self.width, self.cur, self.keep, self.lab, self.live, self.src
        )
    }
}

/// The all-ones value of `width` bits.
fn mask(width: u32) -> u64 {
    debug_assert!((1..64).contains(&width));
    // The micro-IR evaluator reasons over *arbitrary* lane widths (that is
    // the point of the per-width sweep); its shifts are not adjacency-plane
    // lane math. gca-lint: allow(word-width)
    (1u64 << width) - 1
}

/// Evaluates `e` under `state`, truncated to the state's lane width.
pub fn eval(e: &Expr, state: &LaneState) -> u64 {
    let m = mask(state.width);
    match e {
        Expr::Inf => m,
        Expr::Zero => 0,
        Expr::Var(Var::Cur) => state.cur,
        Expr::Var(Var::Keep) => state.keep,
        Expr::Var(Var::Lab) => state.lab,
        Expr::Var(Var::Live) => state.live,
        Expr::Var(Var::Src) => state.src,
        Expr::Not(a) => !eval(a, state) & m,
        Expr::And(a, b) => eval(a, state) & eval(b, state),
        Expr::Or(a, b) => eval(a, state) | eval(b, state),
        Expr::Neg(a) => eval(a, state).wrapping_neg() & m,
        Expr::Ne(a, b) => u64::from(eval(a, state) != eval(b, state)),
        Expr::Min(a, b) => eval(a, state).min(eval(b, state)),
    }
}

/// First divergence between a lifted SWAR formula and the scalar
/// reference rule (or, for the word-level harness, between a live SWAR
/// row function and its live scalar counterpart).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LaneMismatch {
    /// The kernel (and output — value, tally or occupancy bit) that
    /// diverged.
    pub kernel: String,
    /// The lane state exhibiting the divergence.
    pub lane_state: LaneState,
    /// The scalar reference's output.
    pub expected: u64,
    /// The SWAR formula's output.
    pub got: u64,
}

impl fmt::Display for LaneMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "lane mismatch in `{}` at [{}]: expected {:#x}, got {:#x}",
            self.kernel, self.lane_state, self.expected, self.got
        )
    }
}

impl std::error::Error for LaneMismatch {}

/// The scalar reference outcome of one lane: the new value, the 0/1
/// tally contributions (aligned with [`LaneFormula::tallies`]) and the
/// lane's occupancy bit (when the kernel maintains the plane).
pub struct Reference {
    /// New lane value under the scalar per-cell rule.
    pub value: u64,
    /// Tally contributions, one per formula tally.
    pub tallies: Vec<u64>,
    /// Occupancy bit, if the kernel writes the plane.
    pub occ: Option<u64>,
}

/// One catalog entry: a branch-free SWAR lane formula lifted into the
/// micro-IR, the source site it lifts (asserted present in `swar.rs` by
/// [`check_coverage`]), the admissible-state predicate and the scalar
/// reference rule it must equal on every admissible state.
pub struct LaneFormula {
    /// Kernel (or kernel regime) this formula lifts.
    pub kernel: &'static str,
    /// Exact source substring in `gca-hirschberg/src/swar.rs` anchoring
    /// the lifted formula.
    pub site: &'static str,
    /// Variables the formula ranges over (the enumeration domain).
    pub uses: &'static [Var],
    /// Admissibility predicate over lane states (regime preconditions:
    /// e.g. `live = 1` for sparse set-bit lanes, `lab = keep` for the
    /// uniform-label kill shortcut).
    pub admissible: fn(&LaneState) -> bool,
    /// The lifted new-value expression.
    pub value: Expr,
    /// Named 0/1 tally expressions (`changed`, `broadcast_changed`,
    /// `filter_changed`).
    pub tallies: Vec<(&'static str, Expr)>,
    /// The lifted occupancy-bit expression, if the kernel writes the
    /// occupancy plane.
    pub occ: Option<Expr>,
    /// The scalar per-cell rule from `kernels.rs`, transcribed directly.
    pub reference: fn(&LaneState) -> Reference,
}

fn admit_all(_: &LaneState) -> bool {
    true
}

fn admit_live(s: &LaneState) -> bool {
    s.live == 1
}

fn admit_dead(s: &LaneState) -> bool {
    s.live == 0
}

fn admit_uniform(s: &LaneState) -> bool {
    s.lab == s.keep
}

/// Scalar rule of generations 2/6 (`filter_neighbor_rows` /
/// `filter_member_rows` in `kernels.rs`): a live lane keeps its value
/// unless it equals `keep`; everything else becomes `∞`, counting the
/// transition when the old value was not already `∞`.
fn ref_filter(s: &LaneState) -> Reference {
    let infv = s.infinity();
    let kept = s.live == 1 && s.cur != s.keep;
    let value = if kept { s.cur } else { infv };
    let changed = if kept { 0 } else { u64::from(s.cur != infv) };
    Reference {
        value,
        tallies: vec![changed],
        occ: Some(u64::from(value != infv)),
    }
}

/// Scalar rule of the occupancy repack: bit ⇔ value ≠ `∞`; the value
/// plane is untouched.
fn ref_pack(s: &LaneState) -> Reference {
    Reference {
        value: s.cur,
        tallies: Vec::new(),
        occ: Some(u64::from(s.cur != s.infinity())),
    }
}

/// Scalar rule of generations 1/5 (`broadcast_rows`): the lane takes
/// the broadcast label, counting the change.
fn ref_broadcast(s: &LaneState) -> Reference {
    Reference {
        value: s.lab,
        tallies: vec![u64::from(s.cur != s.lab)],
        occ: None,
    }
}

/// Scalar rule of the fused pair: broadcast (`cur → lab`, tallied
/// against the old value) then filter (`lab` survives iff live and
/// `lab ≠ keep`, the kill tallied when `lab ≠ ∞`).
fn ref_broadcast_filter(s: &LaneState) -> Reference {
    let infv = s.infinity();
    let kept = s.live == 1 && s.lab != s.keep;
    let value = if kept { s.lab } else { infv };
    let b_changed = u64::from(s.cur != s.lab);
    let f_changed = if kept { 0 } else { u64::from(s.lab != infv) };
    Reference {
        value,
        tallies: vec![b_changed, f_changed],
        occ: Some(u64::from(value != infv)),
    }
}

/// Scalar rule of generations 3/7 (`min_reduce_rows`): the target takes
/// the minimum with its source, counting strict improvements.
fn ref_min_fold(s: &LaneState) -> Reference {
    let value = s.cur.min(s.src);
    Reference {
        value,
        tallies: vec![u64::from(value != s.cur)],
        occ: None,
    }
}

/// Exactness-preservation rule of the occupancy-guided fold: starting
/// from exact target/source bits, the folded target's bit is exact
/// again (`min ≠ ∞`).
fn ref_min_fold_occ(s: &LaneState) -> Reference {
    let value = s.cur.min(s.src);
    Reference {
        value,
        tallies: Vec::new(),
        occ: Some(u64::from(value != s.infinity())),
    }
}

/// The dense branch-free filter select:
/// `cur | !((live & (cur ≠ keep)).wrapping_neg())`.
fn dense_filter_value() -> Expr {
    or(
        v(Var::Cur),
        not(neg(and(v(Var::Live), ne(v(Var::Cur), v(Var::Keep))))),
    )
}

/// The dense branch-free broadcast+filter select:
/// `lab | !((live & (lab ≠ keep)).wrapping_neg())`.
fn dense_bf_value() -> Expr {
    or(
        v(Var::Lab),
        not(neg(and(v(Var::Live), ne(v(Var::Lab), v(Var::Keep))))),
    )
}

/// The lane-proof catalog: every branch-free SWAR dense-regime formula
/// in `swar.rs`, lifted. [`check_coverage`] asserts the catalog and the
/// source agree on what "every" means.
pub fn catalog() -> Vec<LaneFormula> {
    use Var::*;
    let mut c = Vec::new();

    // filter_word_dense: the wrapping_neg select over adjacency-gated
    // lanes, occupancy repacked by the caller in a second pass.
    let fv = dense_filter_value();
    c.push(LaneFormula {
        kernel: "filter_word_dense",
        site: "(live & Word::from(cur != keep)).wrapping_neg()",
        uses: &[Cur, Keep, Live],
        admissible: admit_all,
        tallies: vec![("changed", ne(fv.clone(), v(Cur)))],
        occ: Some(ne(fv.clone(), inf())),
        value: fv,
        reference: ref_filter,
    });

    // filter_word_sparse, set-bit lane (live = 1): the branchy walk
    // implements the same lane function as the dense select restricted
    // to live lanes; its occupancy accumulation is the per-lane
    // `(cell ≠ ∞) << off` mask.
    let sv = dense_filter_value();
    c.push(LaneFormula {
        kernel: "filter_word_sparse(live lane)",
        site: "occ |= AdjWord::from(*cell != INFINITY) << off;",
        uses: &[Cur, Keep, Live],
        admissible: admit_live,
        tallies: vec![("changed", ne(sv.clone(), v(Cur)))],
        occ: Some(ne(sv.clone(), inf())),
        value: sv,
        reference: ref_filter,
    });

    // Zero-word skip and sparse-gap lanes (live = 0): one count-and-fill
    // of ∞, occupancy word 0.
    c.push(LaneFormula {
        kernel: "filter word-skip (fill_inf)",
        site: "(fill_inf(cells), 0)",
        uses: &[Cur, Live],
        admissible: admit_dead,
        value: inf(),
        tallies: vec![("changed", ne(inf(), v(Cur)))],
        occ: Some(zero()),
        reference: ref_filter,
    });

    // pack_occupancy: the movemask repack — bit lane ⇔ cell ≠ ∞.
    c.push(LaneFormula {
        kernel: "pack_occupancy",
        site: "occ |= AdjWord::from(c != INFINITY) << lane;",
        uses: &[Cur],
        admissible: admit_all,
        value: v(Cur),
        tallies: Vec::new(),
        occ: Some(ne(v(Cur), inf())),
        reference: ref_pack,
    });

    // broadcast_rows, fused count-and-copy lane.
    c.push(LaneFormula {
        kernel: "broadcast_rows",
        site: "changed += usize::from(*cell != v);",
        uses: &[Cur, Lab],
        admissible: admit_all,
        value: v(Lab),
        tallies: vec![("changed", ne(v(Cur), v(Lab)))],
        occ: None,
        reference: ref_broadcast,
    });

    // broadcast_filter_row, dense regime: the filtered value is computed
    // straight from the broadcast label, the two tallies reconstruct the
    // separate passes' counts exactly.
    let bf = dense_bf_value();
    c.push(LaneFormula {
        kernel: "broadcast_filter_row(dense)",
        site: "(live & Word::from(lab != keep)).wrapping_neg()",
        uses: &[Cur, Lab, Keep, Live],
        admissible: admit_all,
        tallies: vec![
            ("broadcast_changed", ne(v(Cur), v(Lab))),
            ("filter_changed", ne(bf.clone(), v(Lab))),
        ],
        occ: Some(ne(bf.clone(), inf())),
        value: bf,
        reference: ref_broadcast_filter,
    });

    // broadcast_filter_row, word-skip regime (live = 0): fill ∞, the
    // filter tally needs only the broadcast labels.
    let bfs = dense_bf_value();
    c.push(LaneFormula {
        kernel: "broadcast_filter_row(word-skip)",
        site: "f_changed += labs.iter().filter(|&&l| l != INFINITY).count();",
        uses: &[Cur, Lab, Live],
        admissible: admit_dead,
        tallies: vec![
            ("broadcast_changed", ne(v(Cur), v(Lab))),
            ("filter_changed", ne(bfs.clone(), v(Lab))),
        ],
        occ: Some(zero()),
        value: bfs,
        reference: ref_broadcast_filter,
    });

    // broadcast_filter_row, sparse regime, set-bit lane (live = 1): the
    // pre-counted ∞-transition is cancelled exactly for survivors.
    let bfl = dense_bf_value();
    c.push(LaneFormula {
        kernel: "broadcast_filter_row(sparse live lane)",
        site: "occ |= AdjWord::from(lab != INFINITY) << lane;",
        uses: &[Cur, Lab, Keep, Live],
        admissible: admit_live,
        tallies: vec![
            ("broadcast_changed", ne(v(Cur), v(Lab))),
            ("filter_changed", ne(bfl.clone(), v(Lab))),
        ],
        occ: Some(ne(bfl.clone(), inf())),
        value: bfl,
        reference: ref_broadcast_filter,
    });

    // broadcast_kill_rows: uniform label vector ⇒ every lane has
    // lab = keep ⇒ nothing survives, live or dead — tally + fill(∞) +
    // zeroed occupancy.
    c.push(LaneFormula {
        kernel: "broadcast_kill_rows",
        site: "row.fill(INFINITY);",
        uses: &[Cur, Lab, Keep, Live],
        admissible: admit_uniform,
        value: inf(),
        tallies: vec![
            ("broadcast_changed", ne(v(Cur), v(Lab))),
            ("filter_changed", ne(v(Lab), inf())),
        ],
        occ: Some(zero()),
        reference: ref_broadcast_filter,
    });

    // fold_row_full, strided body: branch-free min + difference count.
    c.push(LaneFormula {
        kernel: "fold_row_full(strided)",
        site: "let m = cur.min(row[col + stride]);",
        uses: &[Cur, Src],
        admissible: admit_all,
        value: min_e(v(Cur), v(Src)),
        tallies: vec![("changed", ne(min_e(v(Cur), v(Src)), v(Cur)))],
        occ: None,
        reference: ref_min_fold,
    });

    // fold_row_full, stride-1 pair body: same fold through chunks_exact.
    c.push(LaneFormula {
        kernel: "fold_row_full(pairs)",
        site: "let m = pair[0].min(pair[1]);",
        uses: &[Cur, Src],
        admissible: admit_all,
        value: min_e(v(Cur), v(Src)),
        tallies: vec![("changed", ne(min_e(v(Cur), v(Src)), v(Cur)))],
        occ: None,
        reference: ref_min_fold,
    });

    // min_reduce_rows_occ, full-sweep occupancy update: the target's bit
    // ORs in the source's bit. Starting exact (bit ⇔ value ≠ ∞), the
    // result is exact again: `(cur ≠ ∞) | (src ≠ ∞) = (min ≠ ∞)`.
    c.push(LaneFormula {
        kernel: "min_reduce_rows_occ(full-sweep fold)",
        site: "*w |= (*w & mask) >> stride;",
        uses: &[Cur, Src],
        admissible: admit_all,
        value: min_e(v(Cur), v(Src)),
        tallies: Vec::new(),
        occ: Some(or(ne(v(Cur), inf()), ne(v(Src), inf()))),
        reference: ref_min_fold_occ,
    });

    // min_reduce_rows_occ, word-spanning occupancy update: same fold,
    // source bit carried from word `q` to the right.
    c.push(LaneFormula {
        kernel: "min_reduce_rows_occ(word-spanning fold)",
        site: "occ_row[wi - q] |= occ_row[wi] & 1;",
        uses: &[Cur, Src],
        admissible: admit_all,
        value: min_e(v(Cur), v(Src)),
        tallies: Vec::new(),
        occ: Some(or(ne(v(Cur), inf()), ne(v(Src), inf()))),
        reference: ref_min_fold_occ,
    });

    // min_reduce_rows_occ, guided bit-walk: only sources with a set bit
    // are visited, the target's bit turns on upon improvement. Starting
    // exact, the target bit is `(cur ≠ ∞) | (min ≠ cur)` — exact again.
    c.push(LaneFormula {
        kernel: "min_reduce_rows_occ(bit-walk)",
        site: "occ_row[col / WORD_BITS] |= 1 << (col % WORD_BITS);",
        uses: &[Cur, Src],
        admissible: admit_all,
        value: min_e(v(Cur), v(Src)),
        tallies: Vec::new(),
        occ: Some(or(
            ne(v(Cur), inf()),
            ne(min_e(v(Cur), v(Src)), v(Cur)),
        )),
        reference: ref_min_fold_occ,
    });

    c
}

/// Statistics of a completed lane-verification run.
#[derive(Clone, Copy, Debug, Default)]
pub struct LaneReport {
    /// Catalog formulas verified.
    pub formulas: usize,
    /// Admissible lane states evaluated across all widths.
    pub lane_states: usize,
    /// Word-level harness rows compared against the scalar kernels.
    pub word_rows: usize,
}

/// Distinguished full-width values: the lattice extremes, small labels
/// and the neighbors of `∞` — the classes the reduced-width exhaustion
/// cannot distinguish by magnitude alone.
fn distinguished(m: u64) -> [u64; 6] {
    [0, 1, 2, 7 & m, m - 1, m]
}

fn check_state(f: &LaneFormula, s: &LaneState) -> Result<(), LaneMismatch> {
    let r = (f.reference)(s);
    let got = eval(&f.value, s);
    if got != r.value {
        return Err(LaneMismatch {
            kernel: f.kernel.to_string(),
            lane_state: *s,
            expected: r.value,
            got,
        });
    }
    for ((name, t), &want) in f.tallies.iter().zip(r.tallies.iter()) {
        let got = eval(t, s);
        if got != want {
            return Err(LaneMismatch {
                kernel: format!("{} [{name} tally]", f.kernel),
                lane_state: *s,
                expected: want,
                got,
            });
        }
    }
    if let (Some(oe), Some(want)) = (&f.occ, r.occ) {
        let got = eval(oe, s);
        if got != want {
            return Err(LaneMismatch {
                kernel: format!("{} [occupancy bit]", f.kernel),
                lane_state: *s,
                expected: want,
                got,
            });
        }
    }
    Ok(())
}

/// Verifies one formula exhaustively at widths 1–4 and over the
/// distinguished full-width classes, returning the number of admissible
/// states checked.
fn verify_formula(f: &LaneFormula) -> Result<usize, LaneMismatch> {
    let mut states = 0;
    let value_vars: Vec<Var> = f
        .uses
        .iter()
        .copied()
        .filter(|v| !matches!(v, Var::Live))
        .collect();
    let has_live = f.uses.contains(&Var::Live);
    let mut run = |width: u32, values: &[u64]| -> Result<(), LaneMismatch> {
        let combos = values.len().pow(value_vars.len() as u32);
        for ci in 0..combos {
            let mut idx = ci;
            let mut s = LaneState {
                width,
                cur: 0,
                keep: 0,
                lab: 0,
                live: 0,
                src: 0,
            };
            for &var in &value_vars {
                let val = values[idx % values.len()];
                idx /= values.len();
                match var {
                    Var::Cur => s.cur = val,
                    Var::Keep => s.keep = val,
                    Var::Lab => s.lab = val,
                    Var::Src => s.src = val,
                    Var::Live => {}
                }
            }
            let live_domain: &[u64] = if has_live { &[0, 1] } else { &[0] };
            for &live in live_domain {
                s.live = live;
                if !(f.admissible)(&s) {
                    continue;
                }
                check_state(f, &s)?;
                states += 1;
            }
        }
        Ok(())
    };
    for width in 1..=4u32 {
        let m = mask(width);
        let values: Vec<u64> = (0..=m).collect();
        run(width, &values)?;
    }
    // Full Word width: distinguished-value classes.
    let full = Word::BITS;
    run(full, &distinguished(mask(full)))?;
    Ok(states)
}

/// Verifies the whole catalog (exhaustive reduced-width lane states plus
/// full-width representatives), stopping at the first [`LaneMismatch`].
pub fn verify_lane_formulas() -> Result<LaneReport, LaneMismatch> {
    verify_catalog(&catalog())
}

fn verify_catalog(cat: &[LaneFormula]) -> Result<LaneReport, LaneMismatch> {
    let mut report = LaneReport {
        formulas: cat.len(),
        ..LaneReport::default()
    };
    for f in cat {
        report.lane_states += verify_formula(f)?;
    }
    Ok(report)
}

/// Deterministic xorshift generator for the word-level harness (no
/// external RNG dependency; fixed seeds keep the gate reproducible).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// A pseudo-random data row whose values hit the interesting classes:
/// `∞`, the keep value, small labels.
fn random_row(rng: &mut Lcg, n: usize, keep: Word) -> Vec<Word> {
    (0..n)
        .map(|_| match rng.next() % 5 {
            0 => INFINITY,
            1 => keep,
            x => (x * 31 % 97) as Word,
        })
        .collect()
}

/// Packed live bits with per-word regimes forced: word 0 dense, word 1
/// (if any) zero, later words sparse — so every call crosses the
/// word-skip, sparse-walk and dense-select bodies plus the partial tail.
fn regime_bits(rng: &mut Lcg, n: usize, wpr: usize) -> Vec<AdjWord> {
    let mut words = vec![0 as AdjWord; wpr];
    for col in 0..n {
        let wi = col / WORD_BITS;
        let set = match wi {
            0 => !rng.next().is_multiple_of(3), // dense (~2/3 populated)
            1 => false,                      // zero word (skip regime)
            _ => rng.next().is_multiple_of(11), // sparse (≤ SPARSE_BITS-ish)
        };
        if set {
            words[wi] |= 1 << (col % WORD_BITS);
        }
    }
    words
}

fn first_diff(kernel: &str, n: usize, got: &[Word], want: &[Word]) -> Option<LaneMismatch> {
    got.iter().zip(want).enumerate().find_map(|(i, (&g, &w))| {
        (g != w).then(|| LaneMismatch {
            kernel: format!("{kernel} [value plane, n={n}, cell {i}]"),
            lane_state: LaneState {
                width: Word::BITS,
                cur: w as u64,
                keep: 0,
                lab: 0,
                live: 0,
                src: 0,
            },
            expected: w as u64,
            got: g as u64,
        })
    })
}

fn tally_mismatch(kernel: &str, n: usize, got: usize, want: usize) -> LaneMismatch {
    LaneMismatch {
        kernel: format!("{kernel} [changed tally, n={n}]"),
        lane_state: LaneState {
            width: Word::BITS,
            cur: 0,
            keep: 0,
            lab: 0,
            live: 0,
            src: 0,
        },
        expected: want as u64,
        got: got as u64,
    }
}

/// Checks occupancy exactness: bit `(r, c)` set iff the cell is not
/// `∞` — strictly stronger than the superset the reduce contract needs,
/// and exactly what the occupancy abstract interpreter
/// ([`crate::occupancy`]) assumes the filters establish.
fn check_occ_exact(
    kernel: &str,
    n: usize,
    wpr: usize,
    seg: &[Word],
    occ: &[AdjWord],
) -> Result<(), LaneMismatch> {
    for (i, &cell) in seg.iter().enumerate() {
        let (r, col) = (i / n, i % n);
        let bit = (occ[r * wpr + col / WORD_BITS] >> (col % WORD_BITS)) & 1;
        let want = u64::from(cell != INFINITY);
        if bit != want {
            return Err(LaneMismatch {
                kernel: format!("{kernel} [occupancy exactness, n={n}, cell {i}]"),
                lane_state: LaneState {
                    width: Word::BITS,
                    cur: cell as u64,
                    keep: 0,
                    lab: 0,
                    live: bit,
                    src: 0,
                },
                expected: want,
                got: bit,
            });
        }
    }
    // Tail bits beyond column n must stay zero (the guided walk indexes
    // straight off them).
    for (wi, &w) in occ.iter().enumerate() {
        if wi % wpr == wpr - 1 {
            let tail_from = n - (wpr - 1) * WORD_BITS;
            if tail_from < WORD_BITS && w >> tail_from != 0 {
                return Err(LaneMismatch {
                    kernel: format!("{kernel} [occupancy tail bits, n={n}, word {wi}]"),
                    lane_state: LaneState {
                        width: Word::BITS,
                        cur: 0,
                        keep: 0,
                        lab: 0,
                        live: 0,
                        src: 0,
                    },
                    expected: 0,
                    got: w >> tail_from,
                });
            }
        }
    }
    Ok(())
}

/// Word-boundary/partial-tail sizes: single partial word, exact word,
/// word+1, multi-word with tails, and sizes whose reduce strides span
/// words (`stride ≥ WORD_BITS` needs `n > 64`).
const WORD_SIZES: [usize; 10] = [1, 3, 5, 63, 64, 65, 70, 127, 128, 130];

/// Drives every live SWAR row function against its live scalar
/// counterpart in `kernels.rs` on shared inputs across the
/// `WORD_SIZES` geometries, comparing the value plane, the `changed`
/// tallies and occupancy exactness. Returns rows compared.
pub fn verify_word_level() -> Result<usize, LaneMismatch> {
    let mut rows_checked = 0usize;
    let mut rng = Lcg(0x9E37_79B9_7F4A_7C15);
    for &n in &WORD_SIZES {
        let wpr = n.div_ceil(WORD_BITS);
        let rows = 3.min(n);
        let base_row = 1usize; // exercise absolute-row indexing
        let total_rows = base_row + rows;

        // --- filter_neighbor_rows (generation 2) ---
        let dn: Vec<Word> = (0..total_rows).map(|r| (r % 7) as Word).collect();
        let mut a = Vec::new();
        for _ in 0..total_rows {
            a.extend(regime_bits(&mut rng, n, wpr));
        }
        let mut seg: Vec<Word> = Vec::new();
        for r in 0..rows {
            seg.extend(random_row(&mut rng, n, dn[base_row + r]));
        }
        let mut scalar_seg = seg.clone();
        let mut occ = vec![0 as AdjWord; rows * wpr];
        let got = swar::filter_neighbor_rows(&mut seg, &mut occ, &a, &dn, base_row, n, wpr);
        let want = kernels::filter_neighbor_rows(&mut scalar_seg, &a, &dn, base_row, n, wpr);
        if let Some(m) = first_diff("filter_neighbor_rows", n, &seg, &scalar_seg) {
            return Err(m);
        }
        if got != want {
            return Err(tally_mismatch("filter_neighbor_rows", n, got, want));
        }
        check_occ_exact("filter_neighbor_rows", n, wpr, &seg, &occ)?;
        rows_checked += rows;

        // --- filter_member_rows (generation 6) ---
        let member_dn: Vec<Word> = (0..n)
            .map(|_| (rng.next() % (total_rows as u64 + 2)) as Word)
            .collect();
        // The mask plane needs `total_rows` rows (the harness filters
        // rows base_row..base_row+rows); build it by the same rule
        // `bit (r, c) ⇔ dn[c] = r` that build_member_mask implements.
        let mask_rows = total_rows.max(n);
        let mut mask_plane = vec![0 as AdjWord; mask_rows * wpr];
        for (col, &vlab) in member_dn.iter().enumerate() {
            let r = vlab as usize;
            if r < mask_rows {
                mask_plane[r * wpr + col / WORD_BITS] |= 1 << (col % WORD_BITS);
            }
        }
        // Cross-check the builder itself on the square geometry it is
        // actually called with (n rows): identical rule ⇒ identical
        // plane on the first n rows.
        let mut built = Vec::new();
        swar::build_member_mask(&mut built, &member_dn, n, wpr);
        if built[..] != mask_plane[..n * wpr] {
            return Err(tally_mismatch("build_member_mask", n, 1, 0));
        }
        let mut seg: Vec<Word> = Vec::new();
        for r in 0..rows {
            seg.extend(random_row(&mut rng, n, (base_row + r) as Word));
        }
        let mut scalar_seg = seg.clone();
        let mut occ = vec![0 as AdjWord; rows * wpr];
        let got =
            swar::filter_member_rows(&mut seg, &mut occ, &mask_plane, base_row, n, wpr);
        let want = kernels::filter_member_rows(&mut scalar_seg, &member_dn, base_row, n);
        if let Some(m) = first_diff("filter_member_rows", n, &seg, &scalar_seg) {
            return Err(m);
        }
        if got != want {
            return Err(tally_mismatch("filter_member_rows", n, got, want));
        }
        check_occ_exact("filter_member_rows", n, wpr, &seg, &occ)?;
        rows_checked += rows;

        // --- broadcast_rows (generations 1, 5) ---
        let labels: Vec<Word> = (0..n).map(|_| (rng.next() % 61) as Word).collect();
        let mut seg: Vec<Word> = Vec::new();
        for _ in 0..rows {
            seg.extend(random_row(&mut rng, n, labels[0]));
        }
        let mut scalar_seg = seg.clone();
        let got = swar::broadcast_rows(&mut seg, &labels);
        let want = kernels::broadcast_rows(&mut scalar_seg, &labels);
        if let Some(m) = first_diff("broadcast_rows", n, &seg, &scalar_seg) {
            return Err(m);
        }
        if got != want {
            return Err(tally_mismatch("broadcast_rows", n, got, want));
        }
        rows_checked += rows;

        // --- min_reduce_rows: every sub-generation, strides through the
        // word-spanning range for n > WORD_BITS ---
        let mut seg: Vec<Word> = Vec::new();
        for _ in 0..rows {
            seg.extend(random_row(&mut rng, n, 0));
        }
        let mut scalar_seg = seg.clone();
        let mut s = 0u32;
        while (1usize << s) < n.max(2) {
            let stride = 1usize << s;
            let got = swar::min_reduce_rows(&mut seg, stride, n);
            let want = kernels::min_reduce_rows(&mut scalar_seg, stride, n);
            if let Some(m) =
                first_diff(&format!("min_reduce_rows(stride {stride})"), n, &seg, &scalar_seg)
            {
                return Err(m);
            }
            if got != want {
                return Err(tally_mismatch(
                    &format!("min_reduce_rows(stride {stride})"),
                    n,
                    got,
                    want,
                ));
            }
            s += 1;
        }
        rows_checked += rows;

        // --- fused broadcast+filter vs. the separate passes ---
        let mut a = Vec::new();
        for _ in 0..n {
            a.extend(regime_bits(&mut rng, n, wpr));
        }
        let labels: Vec<Word> = (0..n)
            .map(|_| match rng.next() % 6 {
                0 => INFINITY,
                x => (x * 13 % 50) as Word,
            })
            .collect();
        let mut seg: Vec<Word> = Vec::new();
        for _ in 0..n {
            seg.extend(random_row(&mut rng, n, 0));
        }
        let mut occ = vec![0 as AdjWord; n * wpr];
        // Scalar reference: the separate broadcast pass then the scalar
        // filter pass, with `keep = labels[row]` exactly as the fused
        // kernel reads it (after the broadcast, D_N holds `labels`).
        let mut expect = seg.clone();
        let b_want = kernels::broadcast_rows(&mut expect, &labels);
        let f_want = kernels::filter_neighbor_rows(&mut expect, &a, &labels, 0, n, wpr);
        let (b_got, f_got) =
            swar::broadcast_filter_neighbor_rows(&mut seg, &mut occ, &a, &labels, 0, n, wpr);
        if let Some(m) = first_diff("broadcast_filter_neighbor_rows", n, &seg, &expect) {
            return Err(m);
        }
        if b_got != b_want {
            return Err(tally_mismatch(
                "broadcast_filter_neighbor_rows [broadcast]",
                n,
                b_got,
                b_want,
            ));
        }
        if f_got != f_want {
            return Err(tally_mismatch(
                "broadcast_filter_neighbor_rows [filter]",
                n,
                f_got,
                f_want,
            ));
        }
        check_occ_exact("broadcast_filter_neighbor_rows", n, wpr, &seg, &occ)?;
        rows_checked += n;

        // --- fused member variant vs. the separate scalar passes ---
        let mut seg: Vec<Word> = Vec::new();
        for _ in 0..n {
            seg.extend(random_row(&mut rng, n, 0));
        }
        let mut square_mask = Vec::new();
        swar::build_member_mask(&mut square_mask, &member_dn, n, wpr);
        let mut occ = vec![0 as AdjWord; n * wpr];
        let mut expect = seg.clone();
        let b_want = kernels::broadcast_rows(&mut expect, &labels);
        let f_want = kernels::filter_member_rows(&mut expect, &member_dn, 0, n);
        let (b_got, f_got) = swar::broadcast_filter_member_rows(
            &mut seg,
            &mut occ,
            &square_mask,
            &labels,
            0,
            n,
            wpr,
        );
        if let Some(m) = first_diff("broadcast_filter_member_rows", n, &seg, &expect) {
            return Err(m);
        }
        if b_got != b_want {
            return Err(tally_mismatch(
                "broadcast_filter_member_rows [broadcast]",
                n,
                b_got,
                b_want,
            ));
        }
        if f_got != f_want {
            return Err(tally_mismatch(
                "broadcast_filter_member_rows [filter]",
                n,
                f_got,
                f_want,
            ));
        }
        check_occ_exact("broadcast_filter_member_rows", n, wpr, &seg, &occ)?;
        rows_checked += n;

        // --- uniform-label kill shortcut vs. the separate scalar passes ---
        let uniform: Vec<Word> = vec![(4 % n.max(1)) as Word; n];
        let mut seg: Vec<Word> = Vec::new();
        for _ in 0..n {
            seg.extend(random_row(&mut rng, n, uniform[0]));
        }
        let mut occ = vec![0 as AdjWord; n * wpr];
        let mut expect = seg.clone();
        let b_want = kernels::broadcast_rows(&mut expect, &uniform);
        let f_want = kernels::filter_neighbor_rows(&mut expect, &a, &uniform, 0, n, wpr);
        let b_got = swar::broadcast_kill_rows(&mut seg, &mut occ, &uniform, n, wpr);
        // The caller's filter tally for the kill shortcut:
        // rows · |{c : labels[c] ≠ ∞}|.
        let f_got = n * uniform.iter().filter(|&&l| l != INFINITY).count();
        if let Some(m) = first_diff("broadcast_kill_rows", n, &seg, &expect) {
            return Err(m);
        }
        if b_got != b_want {
            return Err(tally_mismatch("broadcast_kill_rows [broadcast]", n, b_got, b_want));
        }
        if f_got != f_want {
            return Err(tally_mismatch("broadcast_kill_rows [filter]", n, f_got, f_want));
        }
        if occ.iter().any(|&w| w != 0) {
            return Err(tally_mismatch("broadcast_kill_rows [occ]", n, 1, 0));
        }
        rows_checked += n;
    }
    Ok(rows_checked)
}

/// Runs the full lane layer: catalog proofs, then the word-level
/// harness. First divergence anywhere is the returned [`LaneMismatch`].
pub fn verify() -> Result<LaneReport, LaneMismatch> {
    let mut report = verify_lane_formulas()?;
    report.word_rows = verify_word_level()?;
    Ok(report)
}

/// Seeded-fault entry: perturbs the first catalog formula (drops the
/// complement from the select mask — the classic sign slip
/// `cur | mask` instead of `cur | !mask`) and runs the verifier, which
/// must detect it. `Some` carries the mismatch the verifier found;
/// `None` means the seeded fault escaped — a broken verifier.
pub fn verify_seeded() -> Option<LaneMismatch> {
    let mut cat = catalog();
    if let Some(first) = cat.first_mut() {
        first.value = or(
            v(Var::Cur),
            neg(and(v(Var::Live), ne(v(Var::Cur), v(Var::Keep)))),
        );
    }
    verify_catalog(&cat).err()
}

/// Coverage statistics of [`check_coverage`].
#[derive(Clone, Copy, Debug, Default)]
pub struct CoverageReport {
    /// Catalog sites found verbatim in the `swar.rs` source.
    pub sites_found: usize,
    /// `.wrapping_neg()` select sites in the source (must all be
    /// cataloged).
    pub dense_sites: usize,
    /// Occupancy mask-accumulation sites in the source (must all be
    /// cataloged).
    pub occ_sites: usize,
}

/// The non-test portion of the `swar.rs` source, captured at compile
/// time so the coverage gate moves with the code.
fn swar_source() -> &'static str {
    let src = include_str!("../../gca-hirschberg/src/swar.rs");
    match src.find("#[cfg(test)]") {
        Some(pos) => &src[..pos],
        None => src,
    }
}

/// Asserts the catalog covers every branch-free dense-regime site in
/// `swar.rs`: each catalog `site` string appears verbatim, every
/// `.wrapping_neg()` select is claimed by a catalog entry, and every
/// occupancy mask accumulation (`≠ INFINITY) <<`) is claimed. A new
/// formula added to `swar.rs` without a lane proof fails here — no
/// silent skips.
pub fn check_coverage() -> Result<CoverageReport, String> {
    let src = swar_source();
    let cat = catalog();
    let mut report = CoverageReport::default();
    for f in &cat {
        if !src.contains(f.site) {
            return Err(format!(
                "lane catalog entry `{}` anchors a site no longer present in swar.rs: `{}`",
                f.kernel, f.site
            ));
        }
        report.sites_found += 1;
    }
    let dense_in_src = src.matches(".wrapping_neg()").count();
    let dense_in_cat = cat
        .iter()
        .filter(|f| f.site.contains("wrapping_neg"))
        .count();
    if dense_in_src != dense_in_cat {
        return Err(format!(
            "swar.rs has {dense_in_src} `.wrapping_neg()` select sites but the lane catalog \
             proves {dense_in_cat} — every branch-free select needs a lane proof"
        ));
    }
    report.dense_sites = dense_in_src;
    let occ_in_src = src.matches("INFINITY) <<").count();
    let occ_in_cat = cat
        .iter()
        .filter(|f| f.site.contains("INFINITY) <<"))
        .count();
    if occ_in_src != occ_in_cat {
        return Err(format!(
            "swar.rs has {occ_in_src} occupancy mask-accumulation sites but the lane catalog \
             proves {occ_in_cat} — every occupancy mask needs a lane proof"
        ));
    }
    report.occ_sites = occ_in_src;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_verifies_clean() {
        let report = verify_lane_formulas().expect("catalog must verify");
        assert!(report.formulas >= 12, "catalog shrank: {}", report.formulas);
        assert!(report.lane_states > 10_000, "too few states: {}", report.lane_states);
    }

    #[test]
    fn word_level_harness_is_clean() {
        let rows = verify_word_level().expect("word-level harness must pass");
        assert!(rows > 0);
    }

    #[test]
    fn coverage_accounts_for_every_dense_site() {
        let report = check_coverage().expect("coverage must close");
        assert_eq!(report.dense_sites, 2, "wrapping_neg sites");
        assert_eq!(report.occ_sites, 3, "occupancy mask sites");
        assert!(report.sites_found >= 12);
    }

    #[test]
    fn seeded_fault_is_detected() {
        let m = verify_seeded().expect("seeded fault must be detected");
        assert!(m.kernel.contains("filter_word_dense"), "kernel: {}", m.kernel);
    }

    #[test]
    fn broken_formula_yields_typed_mismatch() {
        // An off-by-one min (max instead of min) must produce a
        // LaneMismatch naming the kernel and the witness state.
        let mut cat = catalog();
        for f in &mut cat {
            if f.kernel == "fold_row_full(strided)" {
                // max = cur | src is wrong for non-comparable bit sets;
                // or(cur, src) differs from min on e.g. cur=1, src=2.
                f.value = or(v(Var::Cur), v(Var::Src));
            }
        }
        let err = verify_catalog(&cat).expect_err("must diverge");
        assert!(err.kernel.contains("fold_row_full"), "kernel: {}", err.kernel);
        assert_eq!(eval(&v(Var::Cur), &err.lane_state), err.lane_state.cur);
        let shown = err.to_string();
        assert!(shown.contains("expected"), "display: {shown}");
    }

    #[test]
    fn eval_matches_manual_formula() {
        // Spot-check: the dense filter select at full width equals the
        // shipped arithmetic on a live, non-keep lane.
        let s = LaneState {
            width: Word::BITS,
            cur: 5,
            keep: 9,
            lab: 0,
            live: 1,
            src: 0,
        };
        let cur = s.cur as Word;
        let keep = s.keep as Word;
        let live = s.live as Word;
        let mask = (live & Word::from(cur != keep)).wrapping_neg();
        let shipped = cur | !mask;
        assert_eq!(eval(&super::dense_filter_value(), &s), shipped as u64);
    }

    #[test]
    fn lane_state_displays_every_variable() {
        let s = LaneState {
            width: 4,
            cur: 1,
            keep: 2,
            lab: 3,
            live: 1,
            src: 4,
        };
        let shown = s.to_string();
        for needle in ["cur=", "keep=", "lab=", "live=", "src=", "width=4"] {
            assert!(shown.contains(needle), "{shown}");
        }
    }
}
