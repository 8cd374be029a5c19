//! Layer four: inductive invariant prover for the Hirschberg schedule.
//!
//! The partition layer proves the sweep's parallel split; this layer
//! proves the *algorithm*. It discharges, for every n = 2^k up to a
//! caller-chosen k, the induction that Hirschberg/Chandra/Sarwate's
//! correctness argument rests on — with **zero machine executions**. Four
//! cooperating proof obligations:
//!
//! 1. **Transfer exactness** ([`ProofReport::transfer_checks`]): the
//!    field-level Hoare-contract transfer function
//!    [`gca_hirschberg::invariants::contract_step`] — the same function the
//!    dynamic `InvariantCheck` harness replays against live runs — is shown
//!    per cell to be *exactly* the shipped [`HirschbergRule`]: for every
//!    `(generation, sub-generation)` of the schedule, every cell, every
//!    admissible own state and every admissible read value, the rule's
//!    declared access and evolve output equal the transfer's. Two
//!    distinct probe fills for the untouched remainder of the plane make
//!    both phantom reads and missing reads visible as value mismatches.
//! 2. **Hoare chain** ([`contracts`]): each generation's precondition is a
//!    subset of the facts established by its predecessors, walked over the
//!    concrete `iteration_schedule(n)` for every n = 2^k — the
//!    propositional skeleton of the induction. The chain closes: the
//!    facts after `FinalMin` re-establish the iteration entry facts.
//! 3. **Hook/convergence lemma** ([`ProofReport::hook_configs`]): the
//!    supervertex quotient of one iteration is enumerated exhaustively for
//!    every symmetric relation on up to 5 supervertices (1 099
//!    configurations — every minimum-hook shape): merge groups terminate
//!    in `{min, T(min)}` two-cycles, stay inside one true component,
//!    every non-isolated root merges, and `⌈log₂ m⌉` pointer jumps plus
//!    the final min resolve every node (root or pendant) to its group
//!    minimum — stably under extra jumps.
//! 4. **Arithmetic induction** ([`ProofReport::induction_steps`]): the
//!    closed-form bridges for arbitrary n = 2^k — reduction strides cover
//!    a full row, `2^k ≥ n − 1` pointer-jump coverage, and the
//!    supervertex count halving to ≤ 1 (hence, by the no-lone-unfinished
//!    lemma of obligation 3, to 0) within k iterations.
//!
//! The dynamic mirror of this module lives in `gca-hirschberg::invariants`
//! and hangs off `Instrumentation::Validate`; `gca-analyze --invariants`
//! drives [`prove`], and the hidden `--seed-fault invariants` knob plants
//! one broken contract per [`InvariantClass`] via [`prove_seeded`].

use gca_engine::{Access, FieldShape, GcaRule, Reads, Word, INFINITY};
use gca_hirschberg::complexity::{ceil_log2, total_generations};
use gca_hirschberg::invariants::{contract_step, InvariantClass};
use gca_hirschberg::{iteration_schedule, Gen, HCell, HirschbergRule};
use std::fmt;

/// Problem sizes the per-cell transfer-exactness pass enumerates. They
/// cover every structural regime of the rule: the no-iteration degenerate
/// size, the smallest merging sizes, non-powers of two (partial reduction
/// strides), and a size with multi-sub reductions and jumps. The transfer
/// and the rule are both uniform in n beyond these regimes — the symbolic
/// layer's closed forms (verified for all k ≤ 12) certify that no further
/// structural case appears at larger n.
const WITNESS_SIZES: [usize; 6] = [1, 2, 3, 4, 5, 8];

/// Supervertex count bound for the exhaustive hook-lemma enumeration
/// (every symmetric relation on up to this many roots).
const MAX_HOOK_ROOTS: usize = 5;

/// High probe fill: unique per cell, collides with no admissible label and
/// not with `INFINITY`. A transfer reading any undeclared cell leaks a
/// probe value into the comparison.
const PROBE_HIGH: Word = 0x4000_0000;

/// Abstract facts of the invariant domain — which plane region holds what,
/// at generation granularity. The Hoare chain threads a set of these
/// through the schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fact {
    /// Column 0 holds the canonical label forest: in range, idempotent,
    /// monotone (`C(v) ≤ v`) — the iteration entry invariant.
    Labels,
    /// Column 0 values lie in `[0, n)` (weaker than [`Fact::Labels`];
    /// what the data-dependent pointer generations need).
    Col0Range,
    /// The extra row `D_N` holds the labels `C`.
    DnLabels,
    /// Square rows hold the broadcast `C(col)`.
    RowsBcast,
    /// Square cell `(r, c)` holds `C(c)` where an edge crosses components,
    /// else `∞` — possibly partially folded leftward by the reduction.
    RowsCross,
    /// Column 0 holds the resolved per-node hook candidate `t1(v)`.
    HookT1,
    /// Square rows hold the broadcast `t1(col)`.
    RowsTBcast,
    /// Square cell `(r, c)` holds the member candidate (`t1(c)` if
    /// `C(c) = r ∧ t1(c) ≠ r`, else `∞`) — possibly partially folded.
    RowsMembers,
    /// Column 0 holds the resolved supervertex hook target `T`.
    SuperT,
    /// Column 1 and `D_N` hold the pre-jump `T`.
    TSaved,
    /// Column 0 values lie on the terminal `{min, T(min)}` two-cycles —
    /// established by the jump-coverage arithmetic, consumed by `FinalMin`.
    OnCycle,
}

impl fmt::Display for Fact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Fact::Labels => "labels-canonical",
            Fact::Col0Range => "col0-in-range",
            Fact::DnLabels => "dn-holds-labels",
            Fact::RowsBcast => "rows-hold-broadcast-C",
            Fact::RowsCross => "rows-hold-cross-candidates",
            Fact::HookT1 => "col0-holds-t1",
            Fact::RowsTBcast => "rows-hold-broadcast-t1",
            Fact::RowsMembers => "rows-hold-member-candidates",
            Fact::SuperT => "col0-holds-super-T",
            Fact::TSaved => "col1-and-dn-hold-T",
            Fact::OnCycle => "col0-on-terminal-cycles",
        })
    }
}

/// One generation's Hoare contract at fact granularity.
#[derive(Clone, Copy, Debug)]
pub struct Contract {
    /// The generation this contract governs (all its sub-generations).
    pub gen: Gen,
    /// Facts that must hold before the generation runs.
    pub pre: &'static [Fact],
    /// Facts the generation establishes.
    pub adds: &'static [Fact],
    /// Facts the generation destroys (regions it overwrites).
    pub kills: &'static [Fact],
}

/// The schedule's contract table — one row per generation, in phase order.
///
/// The table *is* the induction skeleton: generation 1 moves the labels
/// into `D_N` (column 0 is overwritten by the broadcast), generations 2–4
/// compute per-node hook candidates, 5–8 reduce them per supervertex,
/// 9 saves `T`, 10 jumps and 11 re-establishes [`Fact::Labels`] — closing
/// the loop. [`prove`] walks it over the concrete schedule for every
/// n = 2^k and rejects any pre not implied by the accumulated facts.
pub fn contracts() -> Vec<Contract> {
    use Fact::*;
    vec![
        Contract {
            gen: Gen::Init,
            pre: &[],
            adds: &[Labels, Col0Range],
            kills: &[
                DnLabels, RowsBcast, RowsCross, HookT1, RowsTBcast, RowsMembers, SuperT, TSaved,
                OnCycle,
            ],
        },
        Contract {
            gen: Gen::BroadcastC,
            pre: &[Labels],
            adds: &[DnLabels, RowsBcast],
            // The broadcast writes every cell of every column — including
            // column 0, which afterwards holds C(0) in each row. The labels
            // survive only in D_N.
            kills: &[Labels, Col0Range, OnCycle, TSaved],
        },
        Contract {
            gen: Gen::FilterNeighbors,
            pre: &[RowsBcast, DnLabels],
            adds: &[RowsCross],
            kills: &[RowsBcast],
        },
        Contract {
            gen: Gen::MinReduce,
            pre: &[RowsCross],
            adds: &[RowsCross],
            kills: &[],
        },
        Contract {
            gen: Gen::ResolveIsolated,
            pre: &[RowsCross, DnLabels],
            adds: &[HookT1, Col0Range],
            kills: &[],
        },
        Contract {
            gen: Gen::BroadcastT,
            pre: &[HookT1],
            adds: &[RowsTBcast],
            kills: &[RowsCross, HookT1, Col0Range],
        },
        Contract {
            gen: Gen::FilterMembers,
            pre: &[RowsTBcast, DnLabels],
            adds: &[RowsMembers],
            kills: &[RowsTBcast],
        },
        Contract {
            gen: Gen::MinReduceMembers,
            pre: &[RowsMembers],
            adds: &[RowsMembers],
            kills: &[],
        },
        Contract {
            gen: Gen::ResolveMembers,
            pre: &[RowsMembers, DnLabels],
            adds: &[SuperT, Col0Range],
            kills: &[],
        },
        Contract {
            gen: Gen::CopyAndSaveT,
            pre: &[SuperT],
            adds: &[TSaved],
            // D_N now holds T, not C; the square rows hold T(row).
            kills: &[DnLabels, RowsMembers],
        },
        Contract {
            gen: Gen::PointerJump,
            pre: &[Col0Range],
            adds: &[Col0Range],
            kills: &[SuperT],
        },
        Contract {
            gen: Gen::FinalMin,
            pre: &[OnCycle, TSaved, Col0Range],
            adds: &[Labels],
            kills: &[OnCycle, TSaved],
        },
    ]
}

/// First broken proof obligation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProofFault {
    /// Setup failure (a witness layout could not be built).
    Setup(String),
    /// The contract transfer disagrees with the shipped rule at one cell.
    TransferMismatch {
        /// Witness problem size.
        n: usize,
        /// Generation at which the transfer diverged.
        gen: Gen,
        /// Sub-generation.
        sub: u32,
        /// Diverging cell (field index).
        cell: usize,
        /// The rule's output for the probed state.
        expected: Word,
        /// The transfer's output.
        got: Word,
    },
    /// A generation's precondition is not implied by the accumulated facts.
    ChainBroken {
        /// Problem size whose schedule broke the chain.
        n: u128,
        /// Offending generation.
        gen: Gen,
        /// Human-readable description of the missing fact.
        missing: String,
    },
    /// The hook/convergence lemma failed for one quotient configuration.
    HookLemma {
        /// Number of supervertex roots in the configuration.
        roots: usize,
        /// Edge mask of the symmetric quotient relation.
        mask: u64,
        /// What went wrong.
        detail: String,
    },
    /// A closed-form arithmetic bridge failed at one k.
    Arithmetic {
        /// The exponent (n = 2^k).
        k: u32,
        /// What went wrong.
        detail: String,
    },
}

impl fmt::Display for ProofFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProofFault::Setup(msg) => write!(f, "prover setup failed: {msg}"),
            ProofFault::TransferMismatch {
                n,
                gen,
                sub,
                cell,
                expected,
                got,
            } => write!(
                f,
                "contract transfer mismatch at n={n} {gen:?} sub {sub} cell {cell}: \
                 rule yields {expected}, transfer yields {got}"
            ),
            ProofFault::ChainBroken { n, gen, missing } => write!(
                f,
                "Hoare chain broken at n={n}: {gen:?} requires {missing} \
                 which no predecessor establishes"
            ),
            ProofFault::HookLemma { roots, mask, detail } => write!(
                f,
                "hook lemma failed on {roots} supervertices (relation mask {mask:#b}): {detail}"
            ),
            ProofFault::Arithmetic { k, detail } => {
                write!(f, "induction arithmetic failed at k={k} (n=2^{k}): {detail}")
            }
        }
    }
}

/// Statistics of a successful proof run.
#[derive(Clone, Debug)]
pub struct ProofReport {
    /// Largest exponent proved (n = 2^k for all k ≤ `k_max`).
    pub k_max: u32,
    /// Contract-table rows (one per generation).
    pub contracts: usize,
    /// Witness sizes of the transfer-exactness pass.
    pub witness_sizes: Vec<usize>,
    /// `(cell, own-state, read-value, probe-fill)` combinations compared
    /// between the rule and the transfer.
    pub transfer_checks: u64,
    /// Quotient configurations enumerated by the hook lemma.
    pub hook_configs: u64,
    /// Arithmetic facts checked across the induction chain.
    pub induction_steps: u64,
}

impl fmt::Display for ProofReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} contracts proven for all n = 2^k, k <= {} \
             ({} transfer checks over witness sizes {:?}, {} hook configurations, \
             {} induction steps, zero machine executions)",
            self.contracts,
            self.k_max,
            self.transfer_checks,
            self.witness_sizes,
            self.hook_configs,
            self.induction_steps,
        )
    }
}

/// Seeded-fault knob: which obligation to break (one per invariant class).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Seed {
    /// Perturb one transfer output (breaks `ContractStep`).
    Transfer,
    /// Drop the range clause from generation 8's postcondition (breaks the
    /// `LabelRange` link the pointer jump depends on).
    Range,
    /// Hook toward the *larger* neighbor only (breaks the min-hook
    /// two-cycle lemma behind `ForestCanonicity`).
    Hook,
    /// Plant a merge across two unrelated components (breaks
    /// `PartitionRefinement`).
    Merge,
    /// Claim one fewer jump sub-generation than the schedule runs (breaks
    /// the `DepthHalving` coverage arithmetic).
    Depth,
}

impl Seed {
    fn for_class(class: InvariantClass) -> Seed {
        match class {
            InvariantClass::ContractStep => Seed::Transfer,
            InvariantClass::LabelRange => Seed::Range,
            InvariantClass::ForestCanonicity => Seed::Hook,
            InvariantClass::PartitionRefinement => Seed::Merge,
            InvariantClass::DepthHalving => Seed::Depth,
        }
    }
}

/// Proves every schedule contract for all n = 2^k, k ≤ `k_max`, with zero
/// machine executions. Returns the proof statistics, or the first broken
/// obligation.
pub fn prove(k_max: u32) -> Result<ProofReport, ProofFault> {
    prove_inner(k_max, None)
}

/// Failure-injection entry point: re-runs the proof with one planted
/// broken contract of the given class. Returns the fault the prover
/// reported, or `None` if the planted fault escaped — the exit-code tests
/// assert every class is caught.
pub fn prove_seeded(class: InvariantClass, k_max: u32) -> Option<ProofFault> {
    prove_inner(k_max, Some(Seed::for_class(class))).err()
}

fn prove_inner(k_max: u32, seed: Option<Seed>) -> Result<ProofReport, ProofFault> {
    let transfer_checks = verify_transfers(&WITNESS_SIZES, seed == Some(Seed::Transfer))?;
    let hook_configs = verify_hook_lemma(MAX_HOOK_ROOTS, seed)?;
    let induction_steps = verify_induction(k_max, seed)?;
    Ok(ProofReport {
        k_max,
        contracts: contracts().len(),
        witness_sizes: WITNESS_SIZES.to_vec(),
        transfer_checks,
        hook_configs,
        induction_steps,
    })
}

/// The full schedule of one run at size `n`: generation 0 plus one outer
/// iteration (the transfer functions are iteration-oblivious, so one
/// iteration's worth of `(gen, sub)` pairs covers every case).
fn full_schedule(n: usize) -> Vec<(Gen, u32)> {
    let mut sched = vec![(Gen::Init, 0)];
    sched.extend(iteration_schedule(n));
    sched
}

/// Admissible own states for a cell: every label value, `∞`, with and
/// without the adjacency bit (mirrors `schedule::admissible_states`).
fn admissible(n: usize) -> Vec<HCell> {
    let mut states = Vec::with_capacity(2 * (n + 1));
    for d in (0..n as Word).chain([INFINITY]) {
        states.push(HCell::new(d));
        states.push(HCell::with_adjacency(d, true));
    }
    states
}

/// Does the per-cell enumeration restrict `own.d` to `[0, n)` for this
/// generation/cell? The data-dependent pointer generations (10, 11) derive
/// their read address from `own.d`; their Hoare precondition
/// ([`Fact::Col0Range`], established by generations 4/8 and preserved by
/// 10) guarantees the label range, so states outside it are not part of
/// the proof obligation — the engine rejects them with `PointerOutOfRange`
/// at runtime, and the `LabelRange` invariant proves they never occur.
fn requires_range(gen: Gen, shape: &FieldShape, n: usize, index: usize) -> bool {
    matches!(gen, Gen::PointerJump | Gen::FinalMin)
        && shape.col(index) == 0
        && shape.row(index) < n
}

/// Per-cell transfer-exactness pass: for every witness size, schedule
/// position, cell, admissible own state and admissible read value, the
/// transfer's output for the cell equals the rule's `evolve` under the
/// rule's declared `access`. Two probe fills (unique-high and unique-low)
/// surround the probed cells so any undeclared read — in either direction —
/// perturbs the comparison.
fn verify_transfers(sizes: &[usize], seeded: bool) -> Result<u64, ProofFault> {
    let mut checks = 0u64;
    let mut seed_pending = seeded;
    for &n in sizes {
        let shape = match FieldShape::new(n + 1, n) {
            Ok(s) => s,
            Err(e) => return Err(ProofFault::Setup(format!("shape {n}: {e}"))),
        };
        let rule = HirschbergRule::new(n);
        let cells = (n + 1) * n;
        let reads: Vec<Word> = (0..n as Word).chain([INFINITY]).collect();
        for (gen, sub) in full_schedule(n) {
            let ctx = gca_engine::StepCtx {
                generation: 0,
                phase: gen.number(),
                subgeneration: sub,
            };
            for i in 0..cells {
                for own in admissible(n) {
                    if requires_range(gen, &shape, n, i) && own.d >= n as Word {
                        continue;
                    }
                    let acc = rule.access(&ctx, &shape, i, &own);
                    let probes: Vec<Option<(usize, Word)>> = match acc {
                        Access::None => vec![None],
                        Access::One(t) => reads
                            .iter()
                            .filter(|&&rv| t != i || rv == own.d)
                            .map(|&rv| Some((t, rv)))
                            .collect(),
                        // The Hirschberg rule is single-read by
                        // construction; a two-read access would mean the
                        // contract model no longer describes the rule.
                        Access::Two(a, b) => {
                            return Err(ProofFault::Setup(format!(
                                "rule declares a two-read access ({a}, {b}) at n={n} \
                                 {gen:?} sub {sub} cell {i}; the contract model is single-read"
                            )));
                        }
                    };
                    for probe in probes {
                        let expected = match probe {
                            None => rule.evolve(&ctx, &shape, i, &own, Reads::none()).d,
                            Some((_, rv)) => {
                                let read = HCell::new(rv);
                                rule.evolve(&ctx, &shape, i, &own, Reads::one(&read)).d
                            }
                        };
                        for low_fill in [false, true] {
                            let mut got =
                                transfer_cell(n, gen, sub, i, &own, probe, low_fill);
                            if seed_pending {
                                // Planted ContractStep fault: the first
                                // compared transfer output is off by one.
                                got = got.wrapping_add(1);
                                seed_pending = false;
                            }
                            checks += 1;
                            if got != expected {
                                return Err(ProofFault::TransferMismatch {
                                    n,
                                    gen,
                                    sub,
                                    cell: i,
                                    expected,
                                    got,
                                });
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(checks)
}

/// Applies the contract transfer to a plane holding `own` at cell `i`, the
/// probed read value at its declared target, and unique probe values
/// everywhere else; returns the transfer's output for cell `i`.
fn transfer_cell(
    n: usize,
    gen: Gen,
    sub: u32,
    i: usize,
    own: &HCell,
    probe: Option<(usize, Word)>,
    low_fill: bool,
) -> Word {
    let cells = (n + 1) * n;
    let mut d: Vec<Word> = if low_fill {
        // Unique small values: a phantom min-fold over an undeclared cell
        // would pull one of these below the probed result.
        (0..cells as Word).collect()
    } else {
        (0..cells).map(|j| PROBE_HIGH + j as Word).collect()
    };
    let mut adj = vec![false; n * n];
    if i < n * n {
        adj[i] = own.a;
    }
    d[i] = own.d;
    if let Some((t, rv)) = probe {
        d[t] = rv;
    }
    contract_step(n, gen, sub, &adj, &d)[i]
}

/// Union-find over `m` elements.
struct Dsu(Vec<usize>);

impl Dsu {
    fn new(m: usize) -> Dsu {
        Dsu((0..m).collect())
    }
    fn find(&mut self, mut v: usize) -> usize {
        while self.0[v] != v {
            self.0[v] = self.0[self.0[v]];
            v = self.0[v];
        }
        v
    }
    fn union(&mut self, a: usize, b: usize) {
        let (a, b) = (self.find(a), self.find(b));
        if a != b {
            self.0[a.max(b)] = a.min(b);
        }
    }
}

/// Exhaustive hook/convergence lemma over the supervertex quotient: for
/// every symmetric relation R on `1..=max_roots` canonically labeled roots
/// (labels 0..m−1 — hooking depends only on the label *order*, so the
/// canonical labeling is fully general), with one pendant non-root per
/// root, check:
///
/// * two-cycle: each merge group (weak component of the hook digraph
///   `i → T(i) = min R-neighbor`) terminates in the `{min, T(min)}`
///   two-cycle, or is an R-isolated singleton;
/// * refinement: merge groups never span two R-components;
/// * progress: every root with an R-neighbor lands in a group of size ≥ 2
///   (the no-lone-unfinished lemma the halving arithmetic relies on);
/// * convergence: `⌈log₂ m⌉` simultaneous jumps followed by
///   `min(C, T(C))` resolve every root *and* pendant to its group
///   minimum — and remain there under one extra jump (stability, because
///   the terminal two-cycle alternates rather than fixes).
fn verify_hook_lemma(max_roots: usize, seed: Option<Seed>) -> Result<u64, ProofFault> {
    let mut configs = 0u64;
    for m in 1..=max_roots {
        let pairs: Vec<(usize, usize)> = (0..m)
            .flat_map(|a| ((a + 1)..m).map(move |b| (a, b)))
            .collect();
        let relations: u64 = 1 << pairs.len();
        for mask in 0..relations {
            configs += 1;
            let fault = |detail: String| ProofFault::HookLemma {
                roots: m,
                mask,
                detail,
            };
            let mut rel = vec![false; m * m];
            for (bit, &(a, b)) in pairs.iter().enumerate() {
                if mask & (1 << bit) != 0 {
                    rel[a * m + b] = true;
                    rel[b * m + a] = true;
                }
            }
            // The hook target: min R-neighbor, self if isolated.
            let hook = |i: usize| -> usize {
                let from = if seed == Some(Seed::Hook) { i + 1 } else { 0 };
                (from..m).find(|&j| rel[i * m + j]).unwrap_or(i)
            };
            let t: Vec<usize> = (0..m).map(hook).collect();

            // Merge groups: weak components of i → T(i).
            let mut groups = Dsu::new(m);
            for (i, &ti) in t.iter().enumerate() {
                groups.union(i, ti);
            }
            if seed == Some(Seed::Merge) && m >= 2 {
                // Planted fault: claim roots 0 and m−1 merge regardless of R.
                groups.union(0, m - 1);
            }
            // True R-components.
            let mut comps = Dsu::new(m);
            for &(a, b) in &pairs {
                if rel[a * m + b] {
                    comps.union(a, b);
                }
            }

            for (i, &ti) in t.iter().enumerate() {
                // Refinement: merging stays inside one R-component.
                let g = groups.find(i);
                if comps.find(i) != comps.find(g) {
                    return Err(fault(format!(
                        "root {i} merged into group of {g} across R-components"
                    )));
                }
                // Progress: non-isolated roots never stay alone.
                if ti != i && (0..m).filter(|&j| groups.find(j) == g).count() < 2 {
                    return Err(fault(format!("hooked root {i} is alone in its group")));
                }
            }
            // Two-cycle lemma per group minimum.
            for mn in 0..m {
                if groups.find(mn) != mn {
                    continue; // not a group minimum
                }
                let size = (0..m).filter(|&j| groups.find(j) == mn).count();
                if size == 1 {
                    if t[mn] != mn {
                        return Err(fault(format!("singleton group min {mn} hooks away")));
                    }
                    continue;
                }
                let r = t[mn];
                if r == mn || t[r] != mn {
                    return Err(fault(format!(
                        "group min {mn} does not close a two-cycle (T({mn})={r}, T({r})={})",
                        t[r]
                    )));
                }
            }

            // Convergence: the full pointer vector (roots + one pendant
            // per root) under ⌈log₂ m⌉ jumps and the final min.
            let k = ceil_log2(m);
            let mut c: Vec<usize> = t.iter().copied().chain(0..m).collect();
            let jump = |c: &[usize]| -> Vec<usize> { c.iter().map(|&v| c[v]).collect() };
            for _ in 0..k {
                c = jump(&c);
            }
            for (extra, cv) in [c.clone(), jump(&c)].into_iter().enumerate() {
                for (v, &cvv) in cv.iter().enumerate() {
                    let resolved = cvv.min(t[cvv]);
                    let want = groups.find(v % m);
                    if resolved != want {
                        return Err(fault(format!(
                            "node {v} resolves to {resolved}, group min is {want} \
                             (after {} jumps)",
                            k as usize + extra
                        )));
                    }
                }
            }
        }
    }
    Ok(configs)
}

/// Walks the Hoare chain and the closed-form arithmetic for every
/// n = 2^k, k ≤ `k_max`.
fn verify_induction(k_max: u32, seed: Option<Seed>) -> Result<u64, ProofFault> {
    let mut steps = 0u64;
    let table = contracts();
    let row = |gen: Gen| table.iter().find(|c| c.gen == gen).copied();
    for k in 0..=k_max {
        let n: u128 = 1u128 << k;
        let nn = n as usize; // k ≤ 16 by contract; fits comfortably
        let arith = |detail: String| ProofFault::Arithmetic { k, detail };

        // Schedule shape: the iterated phases run exactly k sub-generations
        // and the total generation count matches the closed form.
        let sched = iteration_schedule(nn);
        let subs = |g: Gen| sched.iter().filter(|&&(sg, _)| sg == g).count() as u128;
        for g in [Gen::MinReduce, Gen::MinReduceMembers, Gen::PointerJump] {
            if subs(g) != u128::from(k) {
                return Err(arith(format!(
                    "{g:?} runs {} sub-generations, expected k={k}",
                    subs(g)
                )));
            }
            steps += 1;
        }
        if u128::from(total_generations(nn)) != 1 + u128::from(k) * (3 * u128::from(k) + 8) {
            return Err(arith("total generations diverge from 1 + k(3k+8)".into()));
        }
        steps += 1;

        // Reduction coverage: k strides fold a full row of n cells.
        if (1u128 << k) < n {
            return Err(arith(format!("2^{k} strides do not cover a row of {n}")));
        }
        steps += 1;

        // Jump coverage: 2^j applications of C∘C reach any chain of depth
        // ≤ n−1 (the longest pointer chain over n cells, pendants
        // included). The seeded DepthHalving fault claims one fewer jump
        // than the schedule runs.
        let jumps = if seed == Some(Seed::Depth) {
            u128::from(k).saturating_sub(1)
        } else {
            u128::from(k)
        };
        if n > 1 && (1u128 << jumps) < n - 1 {
            return Err(arith(format!(
                "2^{jumps} jump coverage misses chains of depth {}",
                n - 1
            )));
        }
        steps += 1;

        // Supervertex halving: unfinished classes at least halve per
        // iteration, so k iterations leave ≤ 1 — and the hook lemma's
        // no-lone-unfinished clause turns ≤ 1 into 0.
        let mut unfinished = n;
        for _ in 0..k {
            unfinished /= 2;
        }
        if unfinished > 1 {
            return Err(arith(format!(
                "{unfinished} unfinished supervertices remain after {k} iterations"
            )));
        }
        steps += 1;

        // The Hoare chain over the concrete schedule.
        let mut facts: Vec<Fact> = Vec::new();
        let apply = |facts: &mut Vec<Fact>, gen: Gen| -> Result<(), ProofFault> {
            let Some(c) = row(gen) else {
                return Err(ProofFault::ChainBroken {
                    n,
                    gen,
                    missing: "a contract-table row".into(),
                });
            };
            for p in c.pre {
                if !facts.contains(p) {
                    return Err(ProofFault::ChainBroken {
                        n,
                        gen,
                        missing: p.to_string(),
                    });
                }
            }
            facts.retain(|f| !c.kills.contains(f));
            for a in c.adds {
                // The seeded LabelRange fault drops the range clause from
                // generation 8's postcondition; the pointer jump's pre
                // then has no justification.
                if seed == Some(Seed::Range)
                    && gen == Gen::ResolveMembers
                    && *a == Fact::Col0Range
                {
                    continue;
                }
                if !facts.contains(a) {
                    facts.push(*a);
                }
            }
            Ok(())
        };

        apply(&mut facts, Gen::Init)?;
        steps += 1;
        let entry = facts.clone();
        for _iter in 0..k.max(1) {
            let mut jumps_seen = 0u128;
            for &(gen, _sub) in &sched {
                apply(&mut facts, gen)?;
                steps += 1;
                if gen == Gen::PointerJump {
                    jumps_seen += 1;
                    // Once the verified coverage bound is met, the chain
                    // may assume the terminal cycles are reached.
                    if (n == 1 || (1u128 << jumps_seen.min(jumps)) >= n - 1)
                        && !facts.contains(&Fact::OnCycle)
                    {
                        facts.push(Fact::OnCycle);
                    }
                }
                if gen == Gen::CopyAndSaveT && nn == 1 {
                    // Degenerate n = 1: no jump sub-generations exist; the
                    // single cell is trivially on its cycle.
                    facts.push(Fact::OnCycle);
                }
            }
            // The iteration must close the induction: entry facts
            // re-established.
            for f in &entry {
                if !facts.contains(f) {
                    return Err(ProofFault::ChainBroken {
                        n,
                        gen: Gen::FinalMin,
                        missing: format!("iteration exit lost entry fact {f}"),
                    });
                }
            }
            steps += 1;
        }
    }
    Ok(steps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prover_discharges_all_contracts() {
        let report = prove(16).unwrap();
        assert_eq!(report.contracts, 12);
        assert_eq!(report.hook_configs, 1 + 2 + 8 + 64 + 1024);
        assert!(report.transfer_checks > 100_000, "{}", report.transfer_checks);
        let s = report.to_string();
        assert!(s.contains("zero machine executions"));
    }

    #[test]
    fn every_seeded_class_is_caught() {
        for class in InvariantClass::ALL {
            let fault = prove_seeded(class, 8);
            assert!(fault.is_some(), "seeded {class} escaped the prover");
        }
    }

    #[test]
    fn seeded_faults_map_to_their_obligation() {
        assert!(matches!(
            prove_seeded(InvariantClass::ContractStep, 4),
            Some(ProofFault::TransferMismatch { .. })
        ));
        assert!(matches!(
            prove_seeded(InvariantClass::LabelRange, 4),
            Some(ProofFault::ChainBroken { .. })
        ));
        assert!(matches!(
            prove_seeded(InvariantClass::ForestCanonicity, 4),
            Some(ProofFault::HookLemma { .. })
        ));
        assert!(matches!(
            prove_seeded(InvariantClass::PartitionRefinement, 4),
            Some(ProofFault::HookLemma { .. })
        ));
        assert!(matches!(
            prove_seeded(InvariantClass::DepthHalving, 4),
            Some(ProofFault::Arithmetic { .. })
        ));
    }

    #[test]
    fn chain_requires_every_table_row() {
        // The contract table covers all twelve generations exactly once.
        let table = contracts();
        assert_eq!(table.len(), Gen::ALL.len());
        for gen in Gen::ALL {
            assert_eq!(table.iter().filter(|c| c.gen == gen).count(), 1);
        }
    }

    #[test]
    fn fault_displays_are_informative() {
        let faults = [
            ProofFault::Setup("no layout".into()),
            ProofFault::TransferMismatch {
                n: 4,
                gen: Gen::BroadcastC,
                sub: 0,
                cell: 7,
                expected: 1,
                got: 2,
            },
            ProofFault::ChainBroken {
                n: 8,
                gen: Gen::PointerJump,
                missing: "col0-in-range".into(),
            },
            ProofFault::HookLemma {
                roots: 3,
                mask: 0b101,
                detail: "boom".into(),
            },
            ProofFault::Arithmetic {
                k: 5,
                detail: "short".into(),
            },
        ];
        for f in faults {
            assert!(!f.to_string().is_empty());
        }
        assert!(faults_contains_key_data());
    }

    fn faults_contains_key_data() -> bool {
        let s = ProofFault::TransferMismatch {
            n: 4,
            gen: Gen::BroadcastC,
            sub: 0,
            cell: 7,
            expected: 1,
            got: 2,
        }
        .to_string();
        s.contains("n=4") && s.contains("cell 7") && s.contains('1') && s.contains('2')
    }

    #[test]
    fn facts_display_uniquely() {
        use std::collections::BTreeSet;
        let all = [
            Fact::Labels,
            Fact::Col0Range,
            Fact::DnLabels,
            Fact::RowsBcast,
            Fact::RowsCross,
            Fact::HookT1,
            Fact::RowsTBcast,
            Fact::RowsMembers,
            Fact::SuperT,
            Fact::TSaved,
            Fact::OnCycle,
        ];
        let names: BTreeSet<String> = all.iter().map(|f| f.to_string()).collect();
        assert_eq!(names.len(), all.len());
    }
}
