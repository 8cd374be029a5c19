//! Property-based tests for the GCA engine: Brent virtualization
//! equivalence, instrumentation consistency, hashing bounds.

use gca_engine::brent::{step_virtualized, BrentSchedule};
use gca_engine::hashing::{module_congestion, HashedMapping, InterleavedMapping, ModuleMapping};
use gca_engine::{
    Access, CellField, Engine, FieldShape, GcaRule, Instrumentation, Reads, StepCtx,
};
use proptest::prelude::*;

/// A parameterized test rule: cell `i` reads cell `(a·i + b) mod len`
/// (optionally two-handed with a second affine pointer) and mixes the read
/// values into its own with wrapping arithmetic.
#[derive(Clone, Copy, Debug)]
struct AffineRule {
    a: usize,
    b: usize,
    second_hand: bool,
}

impl GcaRule for AffineRule {
    type State = u64;

    fn access(&self, _ctx: &StepCtx, shape: &FieldShape, index: usize, _own: &u64) -> Access {
        let len = shape.len();
        let t1 = (self.a * index + self.b) % len;
        if self.second_hand {
            let t2 = (self.b * index + self.a) % len;
            Access::Two(t1, t2)
        } else {
            Access::One(t1)
        }
    }

    fn evolve(
        &self,
        ctx: &StepCtx,
        _shape: &FieldShape,
        index: usize,
        own: &u64,
        reads: Reads<'_, u64>,
    ) -> u64 {
        let r1 = reads.first().copied().unwrap_or(0);
        let r2 = reads.second().copied().unwrap_or(0);
        own.wrapping_mul(31)
            .wrapping_add(r1)
            .wrapping_add(r2.rotate_left(7))
            .wrapping_add(index as u64)
            .wrapping_add(ctx.generation)
    }
}

fn arb_field() -> impl Strategy<Value = (Vec<u64>, usize, usize)> {
    (1usize..80).prop_flat_map(|len| {
        (
            proptest::collection::vec(any::<u64>(), len..=len),
            1usize..8,
            0usize..8,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Brent virtualization produces identical results for every p, with
    /// `⌈N/p⌉` rounds and per-round congestion ≤ p.
    #[test]
    fn brent_equivalent((init, a, b) in arb_field(), p in 1usize..100) {
        let len = init.len();
        let shape = FieldShape::new(1, len).unwrap();
        let rule = AffineRule { a, b, second_hand: false };

        let mut direct = CellField::from_states(shape, init.clone()).unwrap();
        Engine::sequential().step(&mut direct, &rule, 0, 0).unwrap();

        let mut virt = CellField::from_states(shape, init).unwrap();
        let sched = BrentSchedule::new(len, p);
        let rep = step_virtualized(&mut virt, &rule, &sched, 0, 0, 0).unwrap();
        prop_assert_eq!(direct.states(), virt.states());
        prop_assert_eq!(rep.rounds, len.div_ceil(p));
        prop_assert!(rep.max_congestion() as usize <= p);
    }

    /// Instrumentation accounting is internally consistent: the congestion
    /// histogram's total equals the reported read count, and the trace's
    /// accesses regenerate the histogram.
    #[test]
    fn instrumentation_consistent((init, a, b) in arb_field(), second in any::<bool>()) {
        let len = init.len();
        let shape = FieldShape::new(1, len).unwrap();
        let rule = AffineRule { a, b, second_hand: second };
        let mut f = CellField::from_states(shape, init).unwrap();
        let mut e = Engine::sequential().with_instrumentation(Instrumentation::Trace);
        let rep = e.step(&mut f, &rule, 0, 0).unwrap();
        let hist = rep.congestion.clone().unwrap();
        prop_assert_eq!(hist.total_reads(), rep.total_reads);
        let accesses = rep.accesses.unwrap();
        let rebuilt = gca_engine::metrics::CongestionHistogram::from_accesses(len, accesses.iter());
        prop_assert_eq!(rebuilt, hist);
        let expected_reads = if second { 2 * len as u64 } else { len as u64 };
        prop_assert_eq!(rep.total_reads, expected_reads);
    }

    /// Brent schedules partition the virtual cells exactly once.
    #[test]
    fn brent_schedule_partitions(virtual_cells in 0usize..500, p in 1usize..50) {
        let s = BrentSchedule::new(virtual_cells, p);
        let mut seen = vec![false; virtual_cells];
        for round in 0..s.rounds() {
            for v in s.round_members(round) {
                prop_assert!(!seen[v], "cell {v} scheduled twice");
                seen[v] = true;
                prop_assert_eq!(s.assignment(v), (v % p, round));
            }
        }
        prop_assert!(seen.into_iter().all(|x| x));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Hash values stay below the modulus and are deterministic.
    #[test]
    fn hashing_bounds(seed in any::<u64>(), modulus in 1u64..1000, xs in proptest::collection::vec(0usize..1_000_000, 1..50)) {
        let h1 = HashedMapping::new(modulus as usize, seed);
        let h2 = HashedMapping::new(modulus as usize, seed);
        for &x in &xs {
            let m = h1.module_of(x);
            prop_assert!(m < modulus as usize);
            prop_assert_eq!(m, h2.module_of(x));
        }
    }

    /// Module congestion conserves reads: the per-module counts sum to the
    /// total number of read targets, for every mapping.
    #[test]
    fn module_congestion_conserves(targets in proptest::collection::vec(0usize..200, 0..100), modules in 1usize..20) {
        let accesses: Vec<Access> = targets.iter().map(|&t| Access::One(t)).collect();
        let im = InterleavedMapping::new(modules);
        let hm = HashedMapping::new(modules, 5);
        let ci = module_congestion(&im, &accesses);
        let ch = module_congestion(&hm, &accesses);
        let total = targets.len() as u32;
        prop_assert_eq!(ci.iter().sum::<u32>(), total);
        prop_assert_eq!(ch.iter().sum::<u32>(), total);
    }
}
