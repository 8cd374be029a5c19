//! Figure 3 benchmark: capturing and rendering access patterns (the
//! machinery behind the figure binary), across field sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gca_engine::trace::AccessPattern;
use gca_engine::StepCtx;
use gca_graphs::generators;
use gca_hirschberg::{Gen, Machine};
use std::hint::black_box;

fn bench_capture(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig3/capture_broadcast");
    for n in [4usize, 16, 64, 128] {
        let g = generators::gnp(n, 0.5, 7);
        let mut m = Machine::new(&g).unwrap();
        m.init().unwrap();
        let ctx = StepCtx {
            generation: 1,
            phase: Gen::BroadcastC.number(),
            subgeneration: 0,
        };
        let field = m.to_field();
        group.bench_with_input(BenchmarkId::from_parameter(n), &field, |b, field| {
            b.iter(|| {
                black_box(AccessPattern::capture(
                    m.rule(),
                    &ctx,
                    m.layout().shape(),
                    field.states(),
                ))
            });
        });
    }
    group.finish();
}

fn bench_render(c: &mut Criterion) {
    let n = 16usize;
    let g = generators::gnp(n, 0.5, 7);
    let mut m = Machine::new(&g).unwrap();
    m.init().unwrap();
    let ctx = StepCtx {
        generation: 1,
        phase: Gen::BroadcastC.number(),
        subgeneration: 0,
    };
    let pattern = AccessPattern::capture(m.rule(), &ctx, m.layout().shape(), m.to_field().states());
    c.bench_function("fig3/render_n16", |b| {
        b.iter(|| black_box(pattern.render()));
    });
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
    targets = bench_capture, bench_render
}
criterion_main!(benches);
