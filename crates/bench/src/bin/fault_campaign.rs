//! Deterministic fault-injection campaign over the fault-class ×
//! exec-path grid, with recovery verification and a coverage-matrix
//! artifact.
//!
//! For every execution path and every fault class that is meaningful on
//! it, the campaign searches the run for an *effective* site — a
//! `(generation, cell)` coordinate where the injected corruption is
//! caught by a detector under `--validate`-grade instrumentation — then
//! re-runs the same site under a recovery policy and checks the
//! recovered run is **bit-identical** (labels *and* `Counts` metrics)
//! to a clean run. Two failure modes flunk the campaign:
//!
//! * an **undetectable class**: no searched site on a path triggers any
//!   detector (the detector matrix has a hole), and
//! * an **undetected divergence**: a searched site corrupts the final
//!   labeling without any detector firing (the worst possible outcome —
//!   wrong answers presented as clean), or a "recovered" run whose
//!   labels/metrics differ from clean.
//!
//! The campaign also exercises the degradation ladder (a sticky fault
//! bound to each upper rung must be walked off by `Degrade`) and one
//! expected-exhaustion row (a sticky fault on `generic` has no rung
//! below it, so `Degrade` must report exhaustion rather than lie).
//!
//! Usage: `fault_campaign [--reduced] [--out <path>]`
//! (`--reduced` shrinks the graph and the site-search budget for CI
//! smoke runs; `--out` writes the coverage matrix as JSON,
//! conventionally `BENCH_fault_campaign.json` at the repo root).

use gca_engine::faults::{FaultKind, FaultPlan};
use gca_engine::recovery::{RecoveryOutcome, RecoveryPolicy, Supervisor};
use gca_engine::{Engine, Instrumentation};
use gca_graphs::connectivity::union_find_components_dense;
use gca_graphs::{generators, AdjacencyMatrix, Labeling};
use gca_hirschberg::complexity::total_generations;
use gca_hirschberg::supervise::rung_name;
use gca_hirschberg::{ExecPath, FusedParallel, Machine, SupervisedMachine};
use serde_json::json;

/// One execution-path rung of the campaign grid.
struct PathRow {
    exec: ExecPath,
    /// Ladder level (0 = generic … 2 = fused-par), mirrored from
    /// `Machine::exec_level` for sticky-fault binding.
    level: u8,
}

fn grid_paths() -> Vec<PathRow> {
    vec![
        PathRow { exec: ExecPath::Generic, level: 0 },
        PathRow { exec: ExecPath::Fused, level: 1 },
        PathRow {
            // threshold 0 forces row partitioning even at campaign sizes.
            exec: ExecPath::FusedParallel(FusedParallel { workers: 3, threshold: Some(0) }),
            level: 2,
        },
    ]
}

/// The fault classes of the campaign: data-plane corruptions, meaningful
/// on every path (a fault plan hands the fused paths' generations to the
/// engine, so they all land on the same materialized plane).
fn classes() -> [FaultKind; 3] {
    [
        FaultKind::BitFlip { bit: 0 },
        FaultKind::TornWrite,
        FaultKind::DroppedGeneration,
    ]
}

fn validated_machine(g: &AdjacencyMatrix, exec: ExecPath) -> Machine {
    Machine::with_engine(
        g,
        Engine::sequential().with_instrumentation(Instrumentation::Validate),
    )
    .expect("campaign machine")
    .with_exec(exec)
}

/// One supervised run with an optional armed plan; returns the report
/// and, when it completed, the final labels.
fn supervised_run(
    g: &AdjacencyMatrix,
    exec: ExecPath,
    plan: Option<FaultPlan>,
    policy: RecoveryPolicy,
) -> (gca_engine::recovery::RecoveryReport, Option<Labeling>, Machine) {
    let mut machine = validated_machine(g, exec);
    machine.set_fault_plan(plan);
    let mut sm = SupervisedMachine::from_machine(machine);
    let report = Supervisor::new(policy).run(&mut sm);
    let machine = sm.into_machine();
    let labels = report
        .completed()
        .then(|| machine.labels().expect("labels of a completed run"));
    (report, labels, machine)
}

/// Candidate injection sites: the last outer iteration first — a
/// corruption there has no later iteration to self-heal behind — then
/// strides back through earlier ones, over column-0 label cells, an
/// interior cell and the plane edges.
fn candidate_sites(n: usize, budget: usize) -> Vec<(u64, usize)> {
    let log = u64::from(gca_hirschberg::complexity::ceil_log2(n));
    let per_iter = 3 * log + 8;
    let len = (n + 1) * n;
    let total = total_generations(n);
    let mut gens: Vec<u64> = (total - per_iter..total).rev().collect();
    let mut g = total - per_iter;
    while g > 1 {
        gens.push(g);
        g = g.saturating_sub(per_iter / 2 + 1);
    }
    let cells = [n, 0, 1, n + 1, (n / 2) * n + n / 2, n * n - 1, len - 1];
    let mut sites: Vec<(u64, usize)> = gens
        .iter()
        .flat_map(|&g| cells.iter().map(move |&c| (g, c)))
        .collect();
    sites.truncate(budget);
    sites
}

struct RowResult {
    path: &'static str,
    class: &'static str,
    site: Option<(u64, usize)>,
    detector: Option<&'static str>,
    searched: usize,
    benign: usize,
    recovered_identical: bool,
    failures: Vec<String>,
    doc: serde_json::Value,
}

/// Runs the detect + recover legs for one (path, class) grid cell.
fn run_cell(
    g: &AdjacencyMatrix,
    expected: &Labeling,
    clean_metrics: &[gca_engine::metrics::GenerationMetrics],
    path: &PathRow,
    kind: FaultKind,
    budget: usize,
) -> RowResult {
    let path_name = rung_name(path.exec);
    let mut failures = Vec::new();
    let mut found: Option<(u64, usize, &'static str)> = None;
    let mut benign = 0usize;
    let mut searched = 0usize;

    for (generation, cell) in candidate_sites(g.n(), budget) {
        searched += 1;
        let plan = FaultPlan::new(kind, generation, cell);
        let (report, labels, _) = supervised_run(g, path.exec, Some(plan), RecoveryPolicy::Fail);
        match (&report.outcome, labels) {
            (RecoveryOutcome::Exhausted(_), _) => {
                // Detected and fail-fast stopped the run: an effective site.
                let detector = report.first_detector().unwrap_or("unknown");
                found = Some((generation, cell, detector));
                break;
            }
            (_, Some(labels)) if labels.as_slice() != expected.as_slice() => {
                failures.push(format!(
                    "{path_name}/{}: UNDETECTED DIVERGENCE at generation {generation} cell \
                     {cell} — labels wrong, no detector fired",
                    kind.name()
                ));
                break;
            }
            _ => benign += 1, // fault self-healed or missed live state
        }
    }

    let mut recovered_identical = false;
    if let Some((generation, cell, _)) = found {
        // Recovery leg: the same site under Retry must complete with
        // labels and metrics bit-identical to a clean run.
        let plan = FaultPlan::new(kind, generation, cell);
        let (report, labels, machine) = supervised_run(
            g,
            path.exec,
            Some(plan),
            RecoveryPolicy::Retry { max_attempts: 4 },
        );
        match (&report.outcome, labels) {
            (RecoveryOutcome::Recovered, Some(labels)) => {
                let labels_ok = labels.as_slice() == expected.as_slice();
                let metrics_ok = machine.metrics().entries() == clean_metrics;
                recovered_identical = labels_ok && metrics_ok;
                if !labels_ok {
                    failures.push(format!(
                        "{path_name}/{}: recovered labels diverge from union-find",
                        kind.name()
                    ));
                }
                if !metrics_ok {
                    failures.push(format!(
                        "{path_name}/{}: recovered metrics not bit-identical to clean",
                        kind.name()
                    ));
                }
            }
            (outcome, _) => failures.push(format!(
                "{path_name}/{}: retry recovery did not complete: {outcome:?}",
                kind.name()
            )),
        }
    } else if failures.is_empty() {
        failures.push(format!(
            "{path_name}/{}: no detectable site in {searched} candidates — detector hole",
            kind.name()
        ));
    }

    let (site, detector) = match found {
        Some((g_, c, d)) => (Some((g_, c)), Some(d)),
        None => (None, None),
    };
    let doc = json!({
        "path": path_name,
        "class": kind.name(),
        "site": site.map(|(g_, c)| json!({ "generation": g_, "cell": c })),
        "detector": detector,
        "sites_searched": searched,
        "benign_sites": benign,
        "recovered_bit_identical": recovered_identical,
        "failures": failures,
    });
    RowResult {
        path: path_name,
        class: kind.name(),
        site,
        detector,
        searched,
        benign,
        recovered_identical,
        failures,
        doc,
    }
}

/// Sticky-fault leg: a fault bound to an upper rung must be walked off
/// by `Degrade` (ending on a lower rung with correct labels); on the
/// bottom rung `Degrade` has nowhere to go and must report exhaustion.
fn run_ladder_leg(
    g: &AdjacencyMatrix,
    expected: &Labeling,
    path: &PathRow,
    site: (u64, usize),
) -> (Vec<String>, serde_json::Value) {
    let path_name = rung_name(path.exec);
    let mut failures = Vec::new();
    let plan =
        FaultPlan::new(FaultKind::BitFlip { bit: 0 }, site.0, site.1).sticky(path.level);
    let (report, labels, _) = supervised_run(g, path.exec, Some(plan), RecoveryPolicy::Degrade);
    if path.level == 0 {
        // Expected-exhaustion row: generic has no rung below it.
        if report.completed() {
            failures.push(format!(
                "{path_name}: sticky fault on the bottom rung must exhaust, got {:?}",
                report.outcome
            ));
        }
    } else {
        match (&report.outcome, labels) {
            (RecoveryOutcome::Recovered, Some(labels)) => {
                if report.degradations == 0 || report.final_rung == path_name {
                    failures.push(format!(
                        "{path_name}: degrade policy never left the faulty rung ({report})"
                    ));
                }
                if labels.as_slice() != expected.as_slice() {
                    failures.push(format!("{path_name}: degraded run produced wrong labels"));
                }
            }
            (outcome, _) => failures.push(format!(
                "{path_name}: sticky fault not recovered by degrade: {outcome:?}"
            )),
        }
    }
    let doc = json!({
        "path": path_name,
        "leg": if path.level == 0 { "sticky-exhausts" } else { "sticky-degrades" },
        "initial_rung": report.initial_rung,
        "final_rung": report.final_rung,
        "degradations": report.degradations,
        "outcome": match &report.outcome {
            RecoveryOutcome::Clean => "clean".to_string(),
            RecoveryOutcome::Recovered => "recovered".to_string(),
            RecoveryOutcome::Exhausted(e) => format!("exhausted: {e}"),
        },
        "failures": failures,
    });
    (failures, doc)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let reduced = args.iter().any(|a| a == "--reduced");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .map(|i| args.get(i + 1).expect("--out needs a path").clone());

    let (n, budget) = if reduced { (16, 40) } else { (32, 120) };
    let g = generators::path(n);
    let expected = union_find_components_dense(&g);
    println!(
        "fault campaign: path:{n} graph, {} exec paths, site budget {budget}{}",
        grid_paths().len(),
        if reduced { " (reduced)" } else { "" }
    );

    let mut rows = Vec::new();
    let mut ladder = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    for path in grid_paths() {
        // Clean reference for this path: labels + Counts metrics under the
        // same instrumentation the faulted runs use.
        let (clean_report, clean_labels, clean_machine) =
            supervised_run(&g, path.exec, None, RecoveryPolicy::Fail);
        assert!(
            matches!(clean_report.outcome, RecoveryOutcome::Clean),
            "clean run failed on {}: {clean_report}",
            rung_name(path.exec)
        );
        let clean_labels = clean_labels.expect("clean labels");
        assert_eq!(
            clean_labels.as_slice(),
            expected.as_slice(),
            "clean {} run disagrees with union-find",
            rung_name(path.exec)
        );
        let clean_metrics = clean_machine.metrics().entries().to_vec();

        let mut flip_site = None;
        for kind in classes() {
            let row = run_cell(&g, &expected, &clean_metrics, &path, kind, budget);
            println!(
                "  {:<10} {:<10} site={:<14} detector={:<19} searched={:<3} benign={:<3} \
                 recovered_identical={}",
                row.path,
                row.class,
                row.site
                    .map(|(g_, c)| format!("g{g_}.c{c}"))
                    .unwrap_or_else(|| "-".into()),
                row.detector.unwrap_or("-"),
                row.searched,
                row.benign,
                row.recovered_identical,
            );
            if matches!(kind, FaultKind::BitFlip { .. }) {
                flip_site = row.site;
            }
            failures.extend(row.failures.iter().cloned());
            rows.push(row.doc);
        }
        // Ladder leg at the bit-flip site found on this rung.
        if let Some(site) = flip_site {
            let (lf, doc) = run_ladder_leg(&g, &expected, &path, site);
            println!(
                "  {:<10} ladder     {}",
                rung_name(path.exec),
                doc["leg"].as_str().unwrap_or("?")
            );
            failures.extend(lf);
            ladder.push(doc);
        }
    }

    let doc = json!({
        "graph": format!("path:{n}"),
        "reduced": reduced,
        "site_budget": budget,
        "instrumentation": "Validate (CROW sanitizer + sweep cross-check + invariant mirror)",
        "stamp": gca_bench::stamp(),
        "coverage": rows,
        "ladder": ladder,
        "failures": failures,
        "all_clear": failures.is_empty(),
    });
    match &out {
        Some(path) => {
            let body =
                format!("{}\n", serde_json::to_string_pretty(&doc).expect("serializable"));
            std::fs::write(path, body).unwrap_or_else(|e| panic!("writing {path}: {e}"));
            eprintln!("fault-campaign coverage matrix written to {path}");
        }
        None => println!("{}", serde_json::to_string_pretty(&doc).expect("serializable")),
    }

    if !failures.is_empty() {
        eprintln!("FAILED: {} campaign failure(s):", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    println!("all grid cells detected and recovered bit-identically");
}
