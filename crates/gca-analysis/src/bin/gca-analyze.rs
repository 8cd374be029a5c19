//! CI gate driver: runs the static-verification layers over every shipped
//! program.
//!
//! ```text
//! gca-analyze [n ...] [--isa] [--schedule] [--symbolic] [--modelcheck]
//!             [--invariants] [--lint]
//!             [--modelcheck-max-n N] [--lint-root DIR]
//! ```
//!
//! With no layer flag, every layer runs (sizes default to 8 16 32):
//!
//! * `--isa`        — owner-write proofs + dynamic cross-check for the
//!   emulated-PRAM programs, per size;
//! * `--schedule`   — Table 1 re-derivation + domain-hint proof, per size;
//! * `--symbolic`   — closed-form derivation over the exact symbolic
//!   domain, coefficient comparison against the paper and a value sweep
//!   over every `n = 2^k, k ≤ 12` (size arguments do not apply — the
//!   check *is* parametric, and never executes the machine);
//! * `--modelcheck` — bounded-exhaustive run over **all** graphs on up to
//!   `--modelcheck-max-n` (default 6) vertices;
//! * `--invariants` — the inductive invariant prover: per-generation
//!   Hoare contracts over the abstract-state domain discharged for
//!   **every** `n = 2^k, k ≤ 16` — per-cell transfer exactness against
//!   the shipped rule, the exhaustive hook/convergence lemma, closed-form
//!   induction arithmetic — with zero machine executions (size arguments
//!   do not apply);
//! * `--lint`       — the `gca-lint` workspace linter over
//!   `--lint-root` (default `.`), honoring its `lint.toml`.
//!
//! Exits non-zero on the first failure in any layer.

use gca_analysis::symbolic::{self, Monomial, Rat};
use gca_analysis::{
    analyze, check_against_paper, check_claims, modelcheck, verify_domain_hints, ReadPrediction,
};
use gca_emu::hirschberg_program;
use gca_emu::programs::prefix_sums_program;
use gca_emu::{PramOnGca, Value};
use gca_graphs::generators;
use gca_hirschberg::table1::paper_table1;
use gca_lint::{lint_workspace, FileClass, LintConfig};
use std::path::{Path, PathBuf};

fn fail(msg: &str) -> ! {
    eprintln!("gca-analyze: FAILED: {msg}");
    std::process::exit(1);
}

fn check_isa_program(
    name: &str,
    program: &gca_emu::Program,
    procs: usize,
    memory: &[Value],
    owners: &[usize],
    cross_check_against_wrong_run: bool,
) {
    let analysis = match analyze(program, procs, owners) {
        Ok(a) => a,
        Err(e) => fail(&format!("{name}: static analysis rejected the program: {e}")),
    };
    let dynamic = analysis.generations.len() - analysis.exact_generations();
    println!(
        "  {name}: owner-write proven for {} stores ({} decided); {} generations \
         ({} exact, {} data-dependent), max congestion bound {}",
        analysis.stores.len(),
        analysis.stores.iter().filter(|s| s.decided).count(),
        analysis.generations.len(),
        analysis.exact_generations(),
        dynamic,
        analysis.max_congestion_bound(),
    );
    let metrics = if cross_check_against_wrong_run {
        // Seeded fault: cross-check against a different program's run.
        let wrong = prefix_sums_program(2);
        let mut machine = match PramOnGca::new(2, &[1, 2], &[0, 1]) {
            Ok(m) => m,
            Err(e) => fail(&format!("{name}: machine construction failed: {e}")),
        };
        match machine.run_program(&wrong) {
            Ok(r) => r.metrics,
            Err(e) => fail(&format!("{name}: dynamic run failed: {e}")),
        }
    } else {
        let mut machine = match PramOnGca::new(procs, memory, owners) {
            Ok(m) => m,
            Err(e) => fail(&format!("{name}: machine construction failed: {e}")),
        };
        match machine.run_program(program) {
            Ok(r) => r.metrics,
            Err(e) => fail(&format!("{name}: dynamic run failed: {e}")),
        }
    };
    if let Err(m) = analysis.cross_check(&metrics) {
        fail(&format!("{name}: static prediction diverged from the run: {m}"));
    }
    println!(
        "  {name}: dynamic cross-check passed over {} generations",
        metrics.generations(),
    );
}

fn run_isa(n: usize, seeded: bool) {
    // ISA layer: prefix sums (n processors, identity owners).
    let owners: Vec<usize> = (0..n).collect();
    let values: Vec<Value> = (1..=n as Value).collect();
    check_isa_program(
        "prefix-sums",
        &prefix_sums_program(n),
        n,
        &values,
        &owners,
        seeded,
    );

    // ISA layer: Listing 1 compiled for a random graph.
    let graph = generators::gnp(n, 0.3, 2007);
    let compiled = hirschberg_program::compile(&graph)
        .unwrap_or_else(|e| fail(&format!("hirschberg-listing1: {e}")));
    check_isa_program(
        "hirschberg-listing1",
        &compiled.program,
        compiled.procs,
        &compiled.memory,
        &compiled.owners,
        false,
    );
    let analysis = analyze(&compiled.program, compiled.procs, &compiled.owners)
        .unwrap_or_else(|e| fail(&format!("hirschberg-listing1: {e}")));
    let chases = analysis
        .generations
        .iter()
        .filter(|g| matches!(g.reads, ReadPrediction::DataDependent { .. }))
        .count();
    println!("  hirschberg-listing1: {chases} data-dependent pointer-chase generations bounded");
}

fn run_schedule(n: usize, seeded: bool) {
    let checks = if seeded {
        // Seeded fault: one paper claim with a perturbed activity count.
        let mut claims = paper_table1(n);
        if let Some(first) = claims.first_mut() {
            first.active += 1;
        }
        check_claims(n, claims)
    } else {
        check_against_paper(n)
    };
    for c in &checks {
        if !c.reconciled() {
            fail(&format!(
                "table1: generation {} derived {:?} vs claim {:?}",
                c.claim.generation, c.derived, c.claim
            ));
        }
    }
    let deviations = checks.iter().filter(|c| c.deviation.is_some()).count();
    println!(
        "  table1: 12 rows re-derived ({} exact, {deviations} with documented deviations)",
        checks.len() - deviations,
    );
    if let Err(v) = verify_domain_hints(n) {
        fail(&format!("domain hints: {v}"));
    }
    println!("  domain hints: no-op contract proven over all admissible states");
}

fn run_symbolic(seeded: bool) {
    println!("symbolic closed forms:");
    let mut model = match symbolic::derive() {
        Ok(m) => m,
        Err(e) => fail(&format!("symbolic derivation: {e}")),
    };
    if seeded {
        // Seeded fault: perturb the total formula's "+ 1" constant.
        model.total_generations.set_coefficient(
            Monomial { n_pow: 0, log_pow: 0 },
            Rat::integer(2),
        );
    }
    match symbolic::verify(&model, 12) {
        Ok(report) => {
            println!(
                "  total generations: {} (verified for {} phases, {} coefficient \
                 checks, n = 2^k up to {})",
                model.total_generations,
                report.phases,
                report.coefficient_checks,
                report.sizes.last().copied().unwrap_or(0),
            );
        }
        Err(e) => fail(&format!("symbolic verification: {e}")),
    }
}

fn run_modelcheck(max_n: usize, seeded: bool) {
    println!("model check (all graphs on up to {max_n} vertices):");
    let fault = seeded.then_some(modelcheck::Fault::WrongGenerationCount);
    match modelcheck::check_all_seeded(max_n, fault) {
        Ok(report) => println!(
            "  {} graphs run covering {} labeled graphs ({} canonical representatives \
             above the symmetry threshold), detect skipped {} generations",
            report.graphs_checked,
            report.graphs_covered,
            report.canonical_representatives,
            report.detect_saved_generations,
        ),
        Err(e) => fail(&format!("model check: {e}")),
    }
}

fn run_invariants(seeded: bool) {
    println!("inductive invariant proof:");
    if seeded {
        // Seeded faults: one broken contract per invariant class. Every
        // one must be caught; detection is still a nonzero exit, which is
        // what the CI contract test asserts.
        for class in gca_hirschberg::InvariantClass::ALL {
            match gca_analysis::invariants::prove_seeded(class, 8) {
                Some(f) => eprintln!("  seeded {class}: detected: {f}"),
                None => fail(&format!("invariants: seeded {class} escaped the prover")),
            }
        }
        fail("invariants: all 5 seeded contract faults detected");
    }
    match gca_analysis::invariants::prove(16) {
        Ok(report) => println!("  {report}"),
        Err(f) => fail(&format!("invariants: {f}")),
    }
}

fn run_lint(root: &Path, seeded: bool) {
    println!("workspace lint ({}):", root.display());
    if seeded {
        // Seeded fault: a snippet violating the no-unwrap rule.
        let class = FileClass { library: true, hot_path: false, word_home: false };
        let (violations, _) =
            gca_lint::lint_source("seeded.rs", "fn f() { x.unwrap(); }", class);
        if let Some(v) = violations.first() {
            fail(&format!("lint: {v}"));
        }
        fail("lint: seeded violation was not detected");
    }
    let config = match LintConfig::load(&root.join("lint.toml")) {
        Ok(c) => c,
        Err(e) => fail(&format!("lint: {e}")),
    };
    match lint_workspace(root, &config) {
        Ok(report) => {
            if !report.clean() {
                for v in &report.violations {
                    eprintln!("  {v}");
                }
                fail(&format!("lint: {} violation(s)", report.violations.len()));
            }
            println!(
                "  {} files clean ({} inline allows, {} config allows)",
                report.files_checked, report.inline_suppressed, report.config_suppressed,
            );
        }
        Err(e) => fail(&format!("lint: {e}")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut sizes: Vec<usize> = Vec::new();
    let mut layers: Vec<String> = Vec::new();
    let mut modelcheck_max_n = 6usize;
    let mut lint_root = PathBuf::from(".");
    let mut seed_fault: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--isa" | "--schedule" | "--symbolic" | "--modelcheck" | "--invariants"
            | "--lint" => {
                layers.push(args[i].trim_start_matches("--").to_string());
            }
            "--modelcheck-max-n" => {
                i += 1;
                modelcheck_max_n = args
                    .get(i)
                    .and_then(|a| a.parse().ok())
                    .unwrap_or_else(|| fail("--modelcheck-max-n needs a number"));
            }
            "--lint-root" => {
                i += 1;
                lint_root = args
                    .get(i)
                    .map(PathBuf::from)
                    .unwrap_or_else(|| fail("--lint-root needs a path"));
            }
            "--seed-fault" => {
                i += 1;
                seed_fault = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| fail("--seed-fault needs a layer name")),
                );
            }
            a => sizes.push(
                a.parse()
                    .unwrap_or_else(|_| fail(&format!("invalid size {a:?}"))),
            ),
        }
        i += 1;
    }
    if sizes.is_empty() {
        sizes = vec![8, 16, 32];
    }
    let all = layers.is_empty();
    let on = |layer: &str| all || layers.iter().any(|l| l == layer);
    let fault_for = |layer: &str| seed_fault.as_deref() == Some(layer);
    if let Some(f) = &seed_fault {
        if !["isa", "schedule", "symbolic", "modelcheck", "invariants", "lint"]
            .contains(&f.as_str())
        {
            fail(&format!("unknown --seed-fault layer {f:?}"));
        }
    }

    if on("isa") || on("schedule") {
        for &n in &sizes {
            println!("n = {n}:");
            if on("isa") {
                run_isa(n, fault_for("isa"));
            }
            if on("schedule") {
                run_schedule(n, fault_for("schedule"));
            }
        }
    }
    if on("symbolic") {
        run_symbolic(fault_for("symbolic"));
    }
    if on("modelcheck") {
        run_modelcheck(modelcheck_max_n, fault_for("modelcheck"));
    }
    if on("invariants") {
        run_invariants(fault_for("invariants"));
    }
    if on("lint") {
        run_lint(&lint_root, fault_for("lint"));
    }
    println!("gca-analyze: all requested checks passed");
}
