//! Active-domain stepping benchmark: dense `Domain::All` walks vs. the
//! hinted row/column/sparse domains of Table 1, and the fixed
//! `log n`-sub-generation schedule vs. detected pointer-jump convergence.
//!
//! The interesting comparisons, per problem size `n ∈ {16, 64, 256, 1024}`:
//!
//! * `pointer_jump` — generation 10 activates only the first column
//!   (`n + 1` of `n(n+1)` cells), so hinted stepping should win by ~`n`;
//! * `min_reduce_s1` — sub-generation 1 of the reduction tree touches a
//!   stride-thinned half of the square, a `Domain::Sparse` hint;
//! * `row_filter` — generation 2 activates the whole square (`Rows(0..n)`);
//!   hinting only trims the extra `D_N` row, so the two paths should be
//!   close (this guards against the hinted path *regressing* dense-like
//!   generations);
//! * `full_run` — end-to-end connected components under dense/fixed,
//!   hinted/fixed and hinted/detect.
//!
//! Every dense/hinted pair first asserts bit-identical step reports (the
//! acceptance criterion for the active-domain protocol).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gca_bench::sparse;
use gca_engine::{DomainPolicy, Engine};
use gca_graphs::generators;
use gca_hirschberg::{Convergence, ExecPath, Gen, HirschbergGca};
use std::hint::black_box;

/// Sizes kept small enough for the CI sample budget; 1024 is exercised by
/// the export binary (same helpers) where one measurement suffices.
const STEP_SIZES: [usize; 3] = [16, 64, 256];

fn bench_generation(c: &mut Criterion, label: &str, gen: Gen, sub: u32) {
    let mut group = c.benchmark_group(format!("sparse_stepping/{label}"));
    for n in STEP_SIZES {
        // Bit-identity gate before timing anything.
        let probe = sparse::time_generation(n, gen, sub, 1).expect("probe step");
        assert!(
            probe.metrics_identical,
            "hinted metrics diverge from dense at n={n} {gen:?} sub {sub}"
        );
        for (policy, name) in [(DomainPolicy::Dense, "dense"), (DomainPolicy::Hinted, "hinted")] {
            let mut m = sparse::machine(n, policy).expect("machine");
            group.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
                b.iter(|| black_box(m.step(gen, sub).expect("step")));
            });
        }
    }
    group.finish();
}

fn bench_pointer_jump(c: &mut Criterion) {
    bench_generation(c, "pointer_jump", Gen::PointerJump, 0);
}

fn bench_min_reduce_sparse(c: &mut Criterion) {
    bench_generation(c, "min_reduce_s1", Gen::MinReduce, 1);
}

fn bench_row_filter(c: &mut Criterion) {
    bench_generation(c, "row_filter", Gen::FilterNeighbors, 0);
}

fn bench_full_run(c: &mut Criterion) {
    let mut group = c.benchmark_group("sparse_stepping/full_run");
    for n in [16usize, 64] {
        let graph = generators::gnp(n, 0.3, sparse::SEED);
        let configs = [
            ("dense_fixed", DomainPolicy::Dense, Convergence::Fixed),
            ("hinted_fixed", DomainPolicy::Hinted, Convergence::Fixed),
            ("hinted_detect", DomainPolicy::Hinted, Convergence::Detect),
        ];
        for (name, policy, convergence) in configs {
            let runner = HirschbergGca::new()
                .with_engine(Engine::sequential().with_domain_policy(policy))
                .exec(ExecPath::Generic)
                .convergence(convergence);
            group.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
                b.iter(|| black_box(runner.run(&graph).expect("run")));
            });
        }
    }
    group.finish();
}

/// Short windows: many benchmark ids, and the pass/fail criteria (metric
/// bit-identity, label agreement) are asserted, not estimated.
fn quick_config() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(200))
        .measurement_time(std::time::Duration::from_millis(800))
        .sample_size(10)
}

criterion_group! {
    name = benches;
    config = quick_config();
    targets = bench_pointer_jump, bench_min_reduce_sparse, bench_row_filter, bench_full_run
}
criterion_main!(benches);
