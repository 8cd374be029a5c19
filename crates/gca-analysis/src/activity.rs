//! Runtime queries over the symbolic activity derivation — the closed
//! forms [`crate::schedule`] and [`crate::symbolic`] prove, as total
//! functions of `(n, generation, sub-generation)`. The test suite
//! cross-checks every form against [`crate::schedule::derive_row`]'s
//! exhaustive enumeration and the [`crate::symbolic`] polynomials.
//!
//! The headline theorem (verified by the tests): **for the shipped rule
//! there are no in-schedule zero-activity sub-generations**. The tree
//! reductions keep at least one fold per row alive for every
//! `s < ⌈log₂ n⌉`, and pointer jumping is index-active on all `n`
//! column-0 cells regardless of data. So [`live_subgenerations`] equals
//! the structural `⌈log₂ n⌉` bound for every iterated phase, and the
//! machine's iteration driver has nothing to gain from skipping: it walks
//! the structural schedule as the paper's hardware does.

use gca_hirschberg::Gen;

/// Exact number of active cells of one `(generation, sub-generation)` at
/// problem size `n` — the closed form of
/// [`crate::schedule::derive_row`]'s `active` column, valid for every
/// sub-generation index (in or out of the structural schedule).
///
/// Activity is index-only for every generation of the shipped rule
/// (including the data-dependent pointer jump, whose *reads* depend on
/// data but whose active set does not), so this is a total function of
/// `(n, gen, sub)`.
pub fn activity(n: usize, gen: Gen, sub: u32) -> u64 {
    let n64 = n as u64;
    match gen {
        // Generation 0 initializes every cell, D_N row included.
        Gen::Init => n64 * (n64 + 1),
        // Generation 1 fills all n+1 rows; generation 5 leaves D_N alone.
        Gen::BroadcastC => n64 * (n64 + 1),
        Gen::BroadcastT => n64 * n64,
        // The filters and the T copy touch exactly the n² square cells.
        Gen::FilterNeighbors | Gen::FilterMembers | Gen::CopyAndSaveT => n64 * n64,
        // Tree reduction at stride 2^sub: one fold per surviving column
        // pair, per row.
        Gen::MinReduce | Gen::MinReduceMembers => n64 * min_reduce_folds_per_row(n, sub),
        // Column-0 generations: n cells, data-independently.
        Gen::ResolveIsolated | Gen::ResolveMembers | Gen::PointerJump | Gen::FinalMin => n64,
    }
}

/// Folds per row of a tree-reduction sub-generation at stride `2^sub`:
/// cells at columns `c ≡ 0 (mod 2^{sub+1})` with `c + 2^sub < n`. Zero
/// exactly when `2^sub ≥ n`, i.e. for every `sub ≥ ⌈log₂ n⌉`.
pub fn min_reduce_folds_per_row(n: usize, sub: u32) -> u64 {
    let stride = match 1usize.checked_shl(sub) {
        Some(s) if s < n => s,
        _ => return 0,
    };
    ((n - stride - 1) / (stride << 1) + 1) as u64
}

/// The number of leading sub-generations of an iterated phase that have
/// non-zero symbolic activity. Scans past the last non-zero index so an
/// (impossible for the shipped rule, but representable) interior zero
/// would not shorten the count.
pub fn live_subgenerations(n: usize, gen: Gen) -> u32 {
    let structural = gen.subgenerations(n);
    (0..structural)
        .rev()
        .find(|&s| activity(n, gen, s) > 0)
        .map_or(0, |s| s + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::derive_row;
    use gca_engine::{ceil_log2, Engine, Instrumentation};
    use gca_hirschberg::{ExecPath, Machine};
    use gca_graphs::generators;

    #[test]
    fn closed_forms_match_exhaustive_derivation() {
        // Every generation, every structural sub-generation plus two
        // out-of-schedule indices, across a mixed range of sizes (powers of
        // two and not).
        for n in [1usize, 2, 3, 4, 5, 7, 8, 11, 16, 23, 32, 70] {
            for gen in Gen::ALL {
                let bound = gen.subgenerations(n) + 2;
                for sub in 0..bound {
                    let derived = derive_row(n, gen, sub);
                    assert_eq!(
                        activity(n, gen, sub),
                        derived.active,
                        "activity closed form diverges at n={n} {gen:?}/{sub}"
                    );
                }
            }
        }
    }

    #[test]
    fn closed_forms_match_symbolic_polynomials() {
        // The interpolated sub-0 polynomials and the closed forms must
        // agree at every power of two they were fitted (and held out) on.
        let model = crate::symbolic::derive().expect("symbolic model derives");
        for phase in &model.phases {
            for k in 1..=7u32 {
                let n = 1usize << k;
                let poly = phase
                    .activity
                    .eval_u64(n as u64, k)
                    .expect("activity polynomial is integral at powers of two");
                assert_eq!(
                    activity(n, phase.gen, 0),
                    poly,
                    "poly vs closed form at n={n} {:?}",
                    phase.gen
                );
            }
        }
    }

    #[test]
    fn every_in_schedule_subgeneration_is_live() {
        // The module theorem: no in-schedule sub-generation of an iterated
        // phase is symbolically dead, at every small n and every power of
        // two up to 2^16.
        for n in (1..=70).chain((0..=16).map(|k| 1usize << k)) {
            for gen in [Gen::MinReduce, Gen::MinReduceMembers, Gen::PointerJump] {
                assert_eq!(live_subgenerations(n, gen), ceil_log2(n), "n={n} {gen:?}");
                for s in 0..ceil_log2(n) {
                    assert!(
                        activity(n, gen, s) > 0,
                        "in-schedule zero activity at n={n} {gen:?}/{s}"
                    );
                }
            }
        }
    }

    #[test]
    fn symbolic_skips_equal_dynamic_zero_activity() {
        // The closed forms checked dynamically: every sub-generation they
        // mark dead reports zero active and zero changed cells when
        // actually executed, and every live one reports the predicted
        // non-zero activity.
        for n in [2usize, 3, 5, 8, 13] {
            let g = generators::gnp(n, 0.4, n as u64);
            let mut m = Machine::with_engine(
                &g,
                Engine::sequential().with_instrumentation(Instrumentation::Counts),
            )
            .unwrap()
            .with_exec(ExecPath::Fused);
            m.init().unwrap();
            // Bring the field into a representative mid-run state.
            m.step(Gen::BroadcastC, 0).unwrap();
            m.step(Gen::FilterNeighbors, 0).unwrap();
            for gen in [Gen::MinReduce, Gen::MinReduceMembers] {
                for s in 0..gen.subgenerations(n) + 2 {
                    let rep = m.step(gen, s).unwrap();
                    let predicted = activity(n, gen, s);
                    assert_eq!(
                        rep.active_cells as u64, predicted,
                        "dynamic vs symbolic activity at n={n} {gen:?}/{s}"
                    );
                    if predicted == 0 {
                        assert_eq!(
                            rep.changed_cells, 0,
                            "symbolically dead sub-generation changed state at n={n} {gen:?}/{s}"
                        );
                    }
                }
            }
        }
    }
}
