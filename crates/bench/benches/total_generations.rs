//! Section-3 formula benchmark: full GCA runs across problem sizes. The
//! generation count is asserted against `1 + log n (3 log n + 8)` on every
//! sample, so the bench doubles as a continuous formula check; wall time
//! exposes the `n² log² n` work of simulating the `n(n+1)`-cell field.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gca_engine::{Engine, Instrumentation};
use gca_graphs::generators;
use gca_hirschberg::{complexity, ExecPath, HirschbergGca};
use std::hint::black_box;

fn bench_total(c: &mut Criterion) {
    let mut group = c.benchmark_group("total_generations/full_run");
    group.sample_size(20);
    for n in [8usize, 16, 32, 64, 128] {
        let g = generators::gnp(n, 0.5, 42 + n as u64);
        group.throughput(Throughput::Elements((n * (n + 1)) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            let runner = HirschbergGca::new()
                .with_engine(Engine::sequential().with_instrumentation(Instrumentation::Off))
                .exec(ExecPath::Generic);
            b.iter(|| {
                let run = runner.run(black_box(g)).unwrap();
                assert_eq!(run.generations, complexity::total_generations(g.n()));
                black_box(run.labels)
            });
        });
    }
    group.finish();
}

/// Short measurement windows: the full suite has many benchmark ids and the
/// quantities of interest (counts, shapes) are asserted, not estimated.
fn quick_config() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1200))
        .sample_size(10)
}

criterion_group!{
    name = benches;
    config = quick_config();
    targets = bench_total
}
criterion_main!(benches);
