//! Table 2 benchmark: wall time of one outer iteration (generations 1–11,
//! i.e. `8 + 3·log n` synchronous generations) across problem sizes, split
//! by reference-algorithm step via the phase schedule.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gca_engine::{Engine, Instrumentation};
use gca_graphs::generators;
use gca_hirschberg::{iteration_schedule, ExecPath, Gen, Machine};
use std::hint::black_box;

fn bench_iteration(c: &mut Criterion) {
    let mut group = c.benchmark_group("table2/one_iteration");
    for n in [16usize, 32, 64, 128] {
        let g = generators::gnp(n, 0.5, 2007);
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            b.iter_with_setup(
                || {
                    let engine =
                        Engine::sequential().with_instrumentation(Instrumentation::Off);
                    let mut m = Machine::with_engine(g, engine)
                        .unwrap()
                        .with_exec(ExecPath::Generic);
                    m.init().unwrap();
                    m
                },
                |mut m| {
                    m.run_iteration().unwrap();
                    black_box(m.labels_raw())
                },
            );
        });
    }
    group.finish();
}

/// Per-step wall time: executes only the schedule slice of each reference
/// step (the six rows of Table 2), on a fixed prepared machine state.
fn bench_per_step(c: &mut Criterion) {
    let n = 64usize;
    let g = generators::gnp(n, 0.5, 2007);
    let mut group = c.benchmark_group("table2/per_step_n64");
    for step in 2u32..=6 {
        let schedule: Vec<(Gen, u32)> = iteration_schedule(n)
            .into_iter()
            .filter(|(gen, _)| gen.step() == step)
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(step), &schedule, |b, sched| {
            b.iter_with_setup(
                || {
                    let engine =
                        Engine::sequential().with_instrumentation(Instrumentation::Off);
                    let mut m = Machine::with_engine(&g, engine).unwrap();
                    m.init().unwrap();
                    m
                },
                |mut m| {
                    for &(gen, sub) in sched {
                        m.step(gen, sub).unwrap();
                    }
                    black_box(m.generations())
                },
            );
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
    targets = bench_iteration, bench_per_step
}
criterion_main!(benches);
