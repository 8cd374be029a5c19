//! Times the three execution paths (`generic`, `fused`, `fused-par{w}`)
//! per iteration, per full run and per batched graph, checking every row
//! against the generic path or union-find before its time is published.
//!
//! Usage: `exec_paths [--out <path>] [--sizes a,b,c] [--workers a,b]
//! [--reps k]` (defaults: sizes 16,64,128,256; workers 2,4; at most 64 timed
//! calls per row, fewer where one call is slow). With `--out` the rows are
//! written as JSON to `<path>` (conventionally `BENCH_exec_paths.json` at
//! the repo root); otherwise the document goes to stdout. The document
//! carries a provenance stamp (worker budget, CPU count, commit), because a
//! parallel speedup means nothing without the machine it was measured on.
//!
//! The process exits non-zero if **any** row has `agrees: false`: a fast
//! wrong path is worse than no path.

use gca_bench::exec_paths::{self, Row};
use gca_bench::tables::Table;

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
        args.iter().position(|a| a == name).map(|i| {
            args.get(i + 1)
                .unwrap_or_else(|| panic!("{name} needs a value"))
                .clone()
        })
    };
    let out = flag("--out");
    let sizes = flag("--sizes")
        .map(|s| parse_list(&s, "size"))
        .unwrap_or_else(|| exec_paths::SIZES.to_vec());
    let workers = flag("--workers")
        .map(|s| parse_list(&s, "worker count"))
        .unwrap_or_else(|| exec_paths::WORKERS.to_vec());
    let max_reps: u32 = flag("--reps")
        .map(|s| s.parse().unwrap_or_else(|_| panic!("bad rep count '{s}'")))
        .unwrap_or(exec_paths::MAX_REPS);

    let execs = exec_paths::paths(&workers);
    let rows: Vec<Row> = sizes
        .iter()
        .flat_map(|&n| exec_paths::rows(n, &execs, max_reps).expect("exec-path timing"))
        .collect();

    let mut table = Table::new([
        "layer",
        "n",
        "exec",
        "workers",
        "instr",
        "median µs",
        "agrees",
    ]);
    for row in &rows {
        let j = row.json();
        table.row([
            j["layer"].as_str().unwrap_or_default().to_string(),
            row.n.to_string(),
            j["exec"].as_str().unwrap_or_default().to_string(),
            row.workers.to_string(),
            j["instrumentation"]
                .as_str()
                .unwrap_or_default()
                .to_string(),
            format!("{:.1}", row.ns.median / 1e3),
            row.agrees.to_string(),
        ]);
    }
    print!("{}", table.render());

    let doc = exec_paths::document(&rows);
    let body = format!(
        "{}\n",
        serde_json::to_string_pretty(&doc).expect("serializable")
    );
    match &out {
        Some(path) => {
            std::fs::write(path, body).unwrap_or_else(|e| panic!("writing {path}: {e}"));
            eprintln!("exec-path results written to {path}");
        }
        None => print!("{body}"),
    }

    let diverged = rows.iter().filter(|r| !r.agrees).count();
    if diverged > 0 {
        eprintln!("FAILED: {diverged} row(s) disagree with their reference");
        std::process::exit(1);
    }
}
