//! Fused-path benchmark: the generic per-cell engine path (hinted
//! domains) vs. the vector sweep of `ExecPath::Fused`, plus the batched
//! multi-graph runner's throughput scaling.
//!
//! The interesting comparisons, per problem size `n`:
//!
//! * `iteration` — one outer iteration: `3·⌈log₂ n⌉ + 8` engine
//!   generations over the `n(n+1)` field vs. one sweep over O(n) state;
//! * `full_run` — end-to-end connected components, generic vs. fused, under
//!   both `Counts` and `Off` instrumentation;
//! * `batch` — the batched runner at 1 worker vs. all hardware threads.
//!
//! Every generic/fused pair first asserts bit-identical fields and metrics
//! (the equivalence contract); full runs assert identical labelings.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gca_bench::fused;
use gca_engine::Instrumentation;
use gca_graphs::generators;
use gca_hirschberg::{BatchRunner, ExecPath};
use std::hint::black_box;

fn bench_iteration(c: &mut Criterion) {
    let mut group = c.benchmark_group("fused_kernels/iteration");
    for n in [16usize, 64, 256] {
        // Bit-identity gate before timing anything.
        let probe = fused::time_iteration(n, 1).expect("iteration probe");
        assert!(
            probe.metrics_identical,
            "fused field or metrics diverge from generic at n={n}"
        );
        for (exec, name) in [(ExecPath::Generic, "generic"), (ExecPath::Fused, "fused")] {
            let mut m = fused::machine(n, exec, Instrumentation::Counts).expect("machine");
            group.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
                b.iter(|| black_box(m.run_iteration().expect("iteration")));
            });
        }
    }
    group.finish();
}

fn bench_full_run(c: &mut Criterion) {
    let mut group = c.benchmark_group("fused_kernels/full_run");
    for n in [16usize, 64] {
        for instr in [Instrumentation::Counts, Instrumentation::Off] {
            // Label/metrics agreement gate before timing anything.
            let probe = fused::time_full_runs(n, instr).expect("full-run probe");
            assert!(probe.labels_match_union_find && probe.metrics_identical);
            let instr_name = probe.instrumentation;
            for (exec, name) in [(ExecPath::Generic, "generic"), (ExecPath::Fused, "fused")] {
                let graph = generators::gnp(n, 0.3, fused::SEED);
                let runner = gca_hirschberg::HirschbergGca::new()
                    .with_engine(gca_engine::Engine::sequential().with_instrumentation(instr))
                    .exec(exec);
                group.bench_with_input(
                    BenchmarkId::new(format!("{name}_{instr_name}"), n),
                    &n,
                    |b, _| {
                        b.iter(|| black_box(runner.run(&graph).expect("run")));
                    },
                );
            }
        }
    }
    group.finish();
}

fn bench_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("fused_kernels/batch");
    let n = 64;
    let batch = 32;
    let graphs: Vec<_> = (0..batch)
        .map(|i| generators::gnp(n, 0.3, fused::SEED + i as u64))
        .collect();
    for workers in [1usize, 0] {
        let runner = BatchRunner::new().workers(workers);
        let label = if workers == 0 { "auto" } else { "w1" };
        let mut out = Vec::new();
        group.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
            b.iter(|| black_box(runner.run_into(&graphs, &mut out).expect("batch")));
        });
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
    targets = bench_iteration, bench_full_run, bench_batch
}
criterion_main!(benches);
