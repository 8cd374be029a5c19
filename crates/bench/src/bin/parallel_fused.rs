//! Parallel-fused sweep vs. sequential fused: per-iteration and full-run
//! timings with bit-identical-metrics verification on every row.
//!
//! Usage: `parallel_fused [--out <path>] [--sizes a,b,c] [--workers a,b]
//! [--reps k]` (defaults: sizes 256,512,1024; workers 2,4; reps scaled by
//! size). With `--out` the measurements are written as JSON to `<path>`
//! (conventionally `BENCH_parallel_fused.json` at the repo root, so the
//! perf trajectory is tracked across PRs); the document carries a
//! provenance stamp (worker budget, CPU count, commit SHA) because parallel
//! speedups are meaningless without the machine they were measured on — on
//! a 1-CPU runner every honest speedup is ~1.0x.
//!
//! The process exits nonzero if **any** row's metrics or labels diverge
//! between the two paths: a fast wrong kernel is worse than no kernel.

use gca_bench::{fused, parallel};
use gca_bench::tables::Table;
use serde_json::json;

fn parse_list(s: &str, what: &str) -> Vec<usize> {
    s.split(',')
        .map(|p| {
            p.trim()
                .parse()
                .unwrap_or_else(|_| panic!("bad {what} entry '{p}' in '{s}'"))
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .map(|i| {
                args.get(i + 1)
                    .unwrap_or_else(|| panic!("{name} needs a value"))
                    .clone()
            })
    };
    let out = flag("--out");
    let sizes = flag("--sizes")
        .map(|s| parse_list(&s, "size"))
        .unwrap_or_else(|| parallel::SIZES.to_vec());
    let workers = flag("--workers")
        .map(|s| parse_list(&s, "worker count"))
        .unwrap_or_else(|| parallel::WORKER_SWEEP.to_vec());
    let reps_override: Option<u32> = flag("--reps").map(|s| {
        s.parse()
            .unwrap_or_else(|_| panic!("bad rep count '{s}'"))
    });

    let mut all_identical = true;
    let mut check = |label: String, identical: bool, labels_ok: bool| {
        if !identical || !labels_ok {
            all_identical = false;
            eprintln!("DIVERGENCE at {label}: metrics_identical={identical} labels_ok={labels_ok}");
        }
    };

    // --- Per-iteration timings (threshold forced to zero) ------------------
    let mut iter_rows = Vec::new();
    let mut iter_table = Table::new(["n", "workers", "fused ns", "par ns", "speedup", "identical"]);
    for &n in &sizes {
        let reps = reps_override.unwrap_or((1 << 16 >> n.max(2).ilog2()).clamp(2, 64) as u32);
        for &w in &workers {
            let t = parallel::time_iteration(n, w, reps).expect("iteration timing");
            check(format!("n={n} workers={w}"), t.metrics_identical, true);
            iter_table.row([
                n.to_string(),
                w.to_string(),
                format!("{:.0}", t.fused_ns_per_iter.median),
                format!("{:.0}", t.parallel_ns_per_iter.median),
                format!("{:.2}x", t.speedup()),
                t.metrics_identical.to_string(),
            ]);
            iter_rows.push(json!({
                "n": t.n,
                "workers": t.workers,
                "fused_ns_per_iteration": t.fused_ns_per_iter.json(),
                "parallel_ns_per_iteration": t.parallel_ns_per_iter.json(),
                "speedup": t.speedup(),
                "metrics_identical": t.metrics_identical,
            }));
        }
    }
    println!("per-iteration, sequential fused vs parallel fused (threshold forced to 0):");
    print!("{}", iter_table.render());

    // --- Full runs (engine-tunable threshold, the deployment setting) ------
    let mut run_rows = Vec::new();
    let mut run_table = Table::new(["n", "workers", "threshold", "fused ms", "par ms", "speedup", "identical"]);
    for &n in &sizes {
        for &w in &workers {
            for force in [false, true] {
                let t = parallel::time_full_runs(n, w, force).expect("full-run timing");
                check(
                    format!("full run n={n} workers={w} forced={force}"),
                    t.metrics_identical,
                    t.labels_match_union_find,
                );
                run_table.row([
                    n.to_string(),
                    w.to_string(),
                    if force { "forced-0" } else { "engine" }.to_string(),
                    format!("{:.2}", t.fused_ms),
                    format!("{:.2}", t.parallel_ms),
                    format!("{:.2}x", t.speedup()),
                    (t.metrics_identical && t.labels_match_union_find).to_string(),
                ]);
                run_rows.push(json!({
                    "n": t.n,
                    "workers": t.workers,
                    "forced_threshold": t.forced_threshold,
                    "fused_ms": t.fused_ms,
                    "parallel_ms": t.parallel_ms,
                    "speedup": t.speedup(),
                    "labels_match_union_find": t.labels_match_union_find,
                    "metrics_identical": t.metrics_identical,
                }));
            }
        }
    }
    println!("\nfull runs, sequential fused vs parallel fused:");
    print!("{}", run_table.render());

    let mut stamp = gca_bench::stamp();
    stamp["workers_swept"] = json!(workers);
    let doc = json!({
        "workload": format!("gnp(n, 0.3, seed {})", fused::SEED),
        "baseline": "sequential fused exec path, hinted domains, Counts instrumentation",
        "stamp": stamp,
        "iterations": iter_rows,
        "full_runs": run_rows,
    });
    match &out {
        Some(path) => {
            let body = format!("{}\n", serde_json::to_string_pretty(&doc).expect("serializable"));
            std::fs::write(path, body).unwrap_or_else(|e| panic!("writing {path}: {e}"));
            eprintln!("parallel-fused results written to {path}");
        }
        None => println!("{}", serde_json::to_string_pretty(&doc).expect("serializable")),
    }

    if !all_identical {
        eprintln!("FAILED: at least one row diverged from sequential fused");
        std::process::exit(1);
    }
}
