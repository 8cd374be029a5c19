//! `gca-cc` — run the workspace's connected-components machines on an
//! edge-list file or a generated workload.
//!
//! ```text
//! gca-cc gnp:64:300 --machine gca --metrics
//! gca-cc mygraph.txt --machine pram --labels --json
//! ```

mod args;
mod report;

use args::{parse, Args, InputSpec, USAGE};
use gca_graphs::{generators, io, AdjacencyMatrix};
use std::io::Read;
use std::process::ExitCode;

/// Checks that a generator's node count fits before generating: a matrix
/// that cannot be held is an error naming the size, not an abort.
fn check_size(n: usize) -> Result<(), String> {
    AdjacencyMatrix::try_new(n)
        .map(drop)
        .map_err(|e| e.to_string())
}

fn load_graph(input: &InputSpec) -> Result<AdjacencyMatrix, String> {
    match input {
        InputSpec::File(path) => {
            let text = if path == "-" {
                let mut buf = String::new();
                std::io::stdin()
                    .read_to_string(&mut buf)
                    .map_err(|e| format!("reading stdin: {e}"))?;
                buf
            } else {
                std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?
            };
            io::from_edge_list(&text).map_err(|e| format!("parsing {path}: {e}"))
        }
        InputSpec::Gnp { n, p_milli, seed } => {
            check_size(*n)?;
            Ok(generators::gnp(*n, f64::from(*p_milli) / 1000.0, *seed))
        }
        InputSpec::Forest { n, k, seed } => {
            if *k == 0 || *k > *n {
                return Err(format!("forest needs 1 <= k <= n, got k={k}, n={n}"));
            }
            check_size(*n)?;
            Ok(generators::random_forest(*n, *k, *seed))
        }
        InputSpec::Family { family, n } => {
            check_size(*n)?;
            Ok(match family.as_str() {
                "path" => generators::path(*n),
                "ring" => generators::ring(*n),
                "star" => generators::star(*n),
                "complete" => generators::complete(*n),
                "empty" => generators::empty(*n),
                other => return Err(format!("unknown family '{other}'")),
            })
        }
    }
}

/// Recovery gave up: the policy's budget ran out before the run
/// completed (every attempt was *detected* — the state never lied).
const EXIT_RECOVERY_EXHAUSTED: u8 = 3;
/// The worst outcome: an injected fault escaped every detector and the
/// final labels diverge from the union-find reference.
const EXIT_UNDETECTED_DIVERGENCE: u8 = 4;

fn run(args: &Args) -> Result<(String, ExitCode), String> {
    let graph = load_graph(&args.input)?;
    let outcome = report::execute(args.machine, &graph, &args.engine, &args.recovery)
        .map_err(|e| e.to_string())?;
    let mut out = if args.json {
        report::render_json(&outcome, &graph, args)
    } else {
        report::render_text(&outcome, &graph, args)
    };
    let exhausted = outcome.recovery.as_ref().is_some_and(|r| !r.completed());
    let diverged = outcome.diverged == Some(true);
    if args.verify && !exhausted && !diverged {
        gca_graphs::verify::verify_components(&graph, &outcome.labels)
            .map_err(|e| format!("verification FAILED: {e}"))?;
        if !args.json {
            out.push_str("verification: ok (no crossing edges, canonical, connected classes)\n");
        }
    }
    let code = if exhausted {
        ExitCode::from(EXIT_RECOVERY_EXHAUSTED)
    } else if diverged {
        ExitCode::from(EXIT_UNDETECTED_DIVERGENCE)
    } else {
        ExitCode::SUCCESS
    };
    Ok((out, code))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) if e.0 == "help" => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}");
            eprint!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok((out, code)) => {
            print!("{out}");
            code
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
