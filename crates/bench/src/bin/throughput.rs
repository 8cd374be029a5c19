//! Batched multi-graph throughput: sweeps worker counts over a batch of
//! independent same-sized graphs and prints aggregate graphs/sec for the
//! fused and generic execution paths.
//!
//! Usage: `throughput [n] [batch] [--split]` (defaults: n = 64, batch = 64).
//!
//! With `--split`, a second table compares the batch runner with and without
//! `split_idle_workers`: when the batch is smaller than the configured worker
//! count, the split policy upgrades each graph's fused run to parallel fused
//! kernels so idle workers contribute inside single graphs instead of
//! sitting out the batch.
//!
//! Every configuration verifies its labelings against union-find before its
//! throughput is reported — a number from a wrong run would be worthless.

use gca_bench::fused;
use gca_bench::tables::Table;
use gca_graphs::connectivity::union_find_components_dense;
use gca_graphs::generators;
use gca_graphs::AdjacencyMatrix;
use gca_graphs::Labeling;
use gca_hirschberg::{BatchRunner, ExecPath};

fn worker_sweep(max: usize) -> Vec<usize> {
    let mut sweep = vec![1usize];
    let mut w = 2;
    while w < max {
        sweep.push(w);
        w *= 2;
    }
    if max > 1 {
        sweep.push(max);
    }
    sweep
}

fn exec_name(exec: ExecPath) -> String {
    match exec {
        ExecPath::Fused => "fused".to_string(),
        ExecPath::Generic => "generic".to_string(),
        ExecPath::FusedParallel(cfg) => format!("fused-par({})", cfg.workers),
    }
}

fn check_labels(labels: &[Vec<u32>], expected: &[Labeling], what: &str) {
    for (got, want) in labels.iter().zip(expected) {
        assert!(
            got.iter()
                .zip(want.as_slice())
                .all(|(&l, &e)| l as usize == e),
            "labeling mismatch at {what}"
        );
    }
}

fn split_comparison(graphs: &[AdjacencyMatrix], expected: &[Labeling], max_workers: usize) {
    println!(
        "\nsplit-idle-workers comparison: {} graphs, worker sweep to {max_workers}",
        graphs.len()
    );
    let mut table = Table::new(["workers", "split", "effective exec", "graphs/sec", "ms/batch"]);
    for workers in worker_sweep(max_workers) {
        for enabled in [false, true] {
            let runner = BatchRunner::new()
                .exec(ExecPath::Fused)
                .workers(workers)
                .split_idle_workers(enabled);
            let effective = exec_name(runner.effective_exec(graphs.len()));
            let report = runner.run(graphs).expect("batch run");
            check_labels(
                &report.labels,
                expected,
                &format!("split={enabled} workers={workers}"),
            );
            table.row([
                workers.to_string(),
                if enabled { "on" } else { "off" }.to_string(),
                effective,
                format!("{:.1}", report.stats.graphs_per_sec()),
                format!("{:.2}", report.stats.elapsed.as_secs_f64() * 1e3),
            ]);
        }
    }
    print!("{}", table.render());
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let split = args.iter().any(|a| a == "--split");
    args.retain(|a| a != "--split");
    let n: usize = args.first().and_then(|a| a.parse().ok()).unwrap_or(64);
    let batch: usize = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(64);
    let max_workers = gca_bench::workers();

    let graphs: Vec<_> = (0..batch)
        .map(|i| generators::gnp(n, 0.3, fused::SEED + i as u64))
        .collect();
    let expected: Vec<_> = graphs.iter().map(union_find_components_dense).collect();

    println!(
        "batched throughput: {batch} × gnp({n}, 0.3), {max_workers} hardware threads"
    );
    let mut table = Table::new(["exec", "workers", "graphs/sec", "ms/batch", "scaling"]);
    for exec in [ExecPath::Fused, ExecPath::Generic] {
        let name = exec_name(exec);
        let mut base: Option<f64> = None;
        for workers in worker_sweep(max_workers) {
            let runner = BatchRunner::new().exec(exec).workers(workers);
            let report = runner.run(&graphs).expect("batch run");
            check_labels(
                &report.labels,
                &expected,
                &format!("{name} workers={workers}"),
            );
            let gps = report.stats.graphs_per_sec();
            let scaling = gps / *base.get_or_insert(gps);
            table.row([
                name.clone(),
                report.stats.workers.to_string(),
                format!("{gps:.1}"),
                format!("{:.2}", report.stats.elapsed.as_secs_f64() * 1e3),
                format!("{scaling:.2}x"),
            ]);
        }
    }
    print!("{}", table.render());

    if split {
        split_comparison(&graphs, &expected, max_workers);
    }
}
