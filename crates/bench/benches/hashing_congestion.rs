//! Section-1 universal-hashing benchmark: congestion of the Hirschberg
//! access patterns when cells are mapped onto `m` memory modules directly
//! (interleaved), in blocks (the "unfortunate mapping"), or by universal
//! hashing. The paper's expectation: hashing caps module congestion near
//! `O(log p)` for the hot broadcast patterns.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gca_engine::hashing::{
    module_congestion, BlockMapping, HashedMapping, InterleavedMapping, ModuleMapping,
};
use gca_engine::trace::AccessPattern;
use gca_engine::StepCtx;
use gca_graphs::generators;
use gca_hirschberg::{Gen, Machine};
use std::hint::black_box;

fn broadcast_accesses(n: usize) -> Vec<gca_engine::Access> {
    let g = generators::gnp(n, 0.5, 3);
    let mut m = Machine::new(&g).unwrap();
    m.init().unwrap();
    let ctx = StepCtx {
        generation: 1,
        phase: Gen::BroadcastC.number(),
        subgeneration: 0,
    };
    AccessPattern::capture(m.rule(), &ctx, m.layout().shape(), m.to_field().states())
        .accesses()
        .to_vec()
}

fn bench_mappings(c: &mut Criterion) {
    let n = 64usize;
    let accesses = broadcast_accesses(n);
    let modules = 64usize;
    let mut group = c.benchmark_group("hashing/broadcast_pattern_n64");

    let interleaved = InterleavedMapping::new(modules);
    group.bench_function("interleaved", |b| {
        b.iter(|| black_box(module_congestion(&interleaved, &accesses)));
    });

    let block = BlockMapping::new(n * (n + 1), modules);
    group.bench_function("block", |b| {
        b.iter(|| black_box(module_congestion(&block, &accesses)));
    });

    let hashed = HashedMapping::new(modules, 99);
    group.bench_function("hashed", |b| {
        b.iter(|| black_box(module_congestion(&hashed, &accesses)));
    });
    group.finish();
}

fn bench_hash_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("hashing/hash_eval");
    for modules in [16usize, 256] {
        let h = HashedMapping::new(modules, 7);
        group.bench_with_input(
            BenchmarkId::from_parameter(modules),
            &h,
            |b, h| {
                b.iter(|| {
                    let mut acc = 0usize;
                    for x in 0..4096 {
                        acc = acc.wrapping_add(h.module_of(x));
                    }
                    black_box(acc)
                });
            },
        );
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
    targets = bench_mappings, bench_hash_throughput
}
criterion_main!(benches);
