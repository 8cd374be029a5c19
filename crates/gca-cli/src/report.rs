//! Machine dispatch and report rendering for `gca-cc`.

use crate::args::{Args, EngineOpts, MachineKind, RecoveryOpts};
use gca_engine::metrics::MetricsLog;
use gca_engine::recovery::{RecoveryOutcome, RecoveryPolicy, RecoveryReport, Supervisor};
use gca_engine::{Engine, Instrumentation};
use gca_graphs::connectivity::union_find_components_dense;
use gca_graphs::{AdjacencyMatrix, Labeling};
use gca_hirschberg::complexity::total_generations;
use gca_hirschberg::variants::{low_congestion, n_cells, two_handed};
use gca_hirschberg::{HirschbergGca, Machine, SupervisedMachine};
use gca_pram::hirschberg_ref;
use std::fmt::Write as _;

/// What a machine run produced.
pub struct Outcome {
    /// Machine used.
    pub machine: MachineKind,
    /// Component labeling.
    pub labels: Labeling,
    /// Synchronous steps (GCA generations or PRAM steps), if applicable.
    pub steps: Option<u64>,
    /// PRAM work, if applicable.
    pub work: Option<u64>,
    /// Worst observed congestion, if instrumented.
    pub max_congestion: Option<u32>,
    /// Per-generation metrics, when the machine records them.
    pub metrics: Option<MetricsLog>,
    /// Engine configuration, for machines that honor the engine knobs.
    pub engine: Option<String>,
    /// Recovery report of a supervised run (`--inject` / `--recover`).
    pub recovery: Option<RecoveryReport>,
    /// Whether an injected fault escaped every detector: set only when
    /// `--inject` is active and the run completed — `true` means the
    /// final labels differ from the union-find reference without any
    /// detection, the worst outcome a campaign can observe.
    pub diverged: Option<bool>,
    /// Wall-clock milliseconds of the run.
    pub wall_ms: f64,
}

/// Runs the selected machine.
pub fn execute(
    machine: MachineKind,
    graph: &AdjacencyMatrix,
    opts: &EngineOpts,
    recovery: &RecoveryOpts,
) -> Result<Outcome, Box<dyn std::error::Error>> {
    let start = std::time::Instant::now();
    let mut outcome = match machine {
        // The supervised arm: fault injection and/or recovery requested.
        // An empty field has no generations to supervise, so n = 0 falls
        // through to the plain runner.
        MachineKind::Gca if recovery.supervised() && graph.n() > 0 => {
            supervised_gca(graph, opts, recovery)?
        }
        MachineKind::Gca => {
            let mut engine = Engine::sequential();
            if opts.validate {
                engine = engine.with_instrumentation(Instrumentation::Validate);
            }
            let run = HirschbergGca::new()
                .with_engine(engine)
                .convergence(opts.convergence)
                .exec(opts.exec)
                .run(graph)?;
            Outcome {
                machine,
                labels: run.labels,
                steps: Some(run.generations),
                work: None,
                max_congestion: Some(run.metrics.max_congestion()),
                metrics: Some(run.metrics),
                engine: Some(opts.describe()),
                recovery: None,
                diverged: None,
                wall_ms: 0.0,
            }
        }
        MachineKind::NCells => {
            let run = n_cells::run(graph)?;
            Outcome {
                machine,
                labels: run.labels,
                steps: Some(run.generations),
                work: None,
                max_congestion: Some(run.metrics.max_congestion()),
                metrics: Some(run.metrics),
                engine: None,
                recovery: None,
                diverged: None,
                wall_ms: 0.0,
            }
        }
        MachineKind::LowCongestion => {
            let run = low_congestion::run(graph)?;
            Outcome {
                machine,
                labels: run.labels,
                steps: Some(run.generations),
                work: None,
                max_congestion: Some(run.metrics.max_congestion()),
                metrics: Some(run.metrics),
                engine: None,
                recovery: None,
                diverged: None,
                wall_ms: 0.0,
            }
        }
        MachineKind::TwoHanded => {
            let run = two_handed::run(graph)?;
            Outcome {
                machine,
                labels: run.labels,
                steps: Some(run.generations),
                work: None,
                max_congestion: Some(run.metrics.max_congestion()),
                metrics: Some(run.metrics),
                engine: None,
                recovery: None,
                diverged: None,
                wall_ms: 0.0,
            }
        }
        MachineKind::Closure => {
            let run = gca_algorithms::transitive_closure::run(graph)?;
            Outcome {
                machine,
                labels: run.labels,
                steps: Some(run.generations),
                work: None,
                max_congestion: Some(run.max_congestion),
                metrics: None,
                engine: None,
                recovery: None,
                diverged: None,
                wall_ms: 0.0,
            }
        }
        MachineKind::Emulated => {
            let n = graph.n();
            let labels = gca_emu::hirschberg_program::connected_components(graph)?;
            Outcome {
                machine,
                labels,
                steps: Some(gca_emu::hirschberg_program::emulated_generations(n)),
                work: None,
                max_congestion: None,
                metrics: None,
                engine: None,
                recovery: None,
                diverged: None,
                wall_ms: 0.0,
            }
        }
        MachineKind::Pram => {
            let run = hirschberg_ref::connected_components(graph)?;
            Outcome {
                machine,
                labels: run.labels,
                steps: Some(run.time),
                work: Some(run.work),
                max_congestion: Some(run.max_congestion),
                metrics: None,
                engine: None,
                recovery: None,
                diverged: None,
                wall_ms: 0.0,
            }
        }
        MachineKind::Sequential => Outcome {
            machine,
            labels: union_find_components_dense(graph),
            steps: None,
            work: None,
            max_congestion: None,
            metrics: None,
            engine: None,
            recovery: None,
            diverged: None,
            wall_ms: 0.0,
        },
    };
    outcome.wall_ms = start.elapsed().as_secs_f64() * 1e3;
    Ok(outcome)
}

/// Runs the main GCA machine under the checkpointing supervisor,
/// optionally with a planted fault. The machine mirrors the plain arm's
/// configuration (convergence, exec path, sanitizer);
/// the fault spec is resolved against the run geometry, the supervisor
/// drives iteration-granular checkpoints per the policy, and — whenever
/// a fault is armed — the final labels are cross-checked against the
/// union-find reference so a corruption that slips past every detector
/// is still caught at the exit.
fn supervised_gca(
    graph: &AdjacencyMatrix,
    opts: &EngineOpts,
    recovery: &RecoveryOpts,
) -> Result<Outcome, Box<dyn std::error::Error>> {
    let mut engine = Engine::sequential();
    if opts.validate {
        engine = engine.with_instrumentation(Instrumentation::Validate);
    }
    let mut machine = Machine::with_engine(graph, engine)?
        .with_convergence(opts.convergence)
        .with_exec(opts.exec);
    if let Some(spec) = recovery.inject {
        let plan = spec.resolve(
            machine.layout().cells(),
            total_generations(graph.n()),
            machine.exec_level(),
        )?;
        machine.set_fault_plan(Some(plan));
    }

    let mut sm = SupervisedMachine::from_machine(machine);
    let policy = recovery.recover.unwrap_or(RecoveryPolicy::Fail);
    let report = Supervisor::new(policy)
        .with_cadence(recovery.checkpoint_every)
        .run(&mut sm);
    let machine = sm.into_machine();

    let (labels, diverged) = if report.completed() {
        let labels = machine.labels()?;
        let diverged = recovery.inject.map(|_| {
            labels.as_slice() != union_find_components_dense(graph).as_slice()
        });
        (labels, diverged)
    } else {
        // Exhausted: the final state is untrusted — render an empty
        // labeling and let the exit path carry the terminal error.
        (Labeling::empty(), None)
    };
    Ok(Outcome {
        machine: MachineKind::Gca,
        labels,
        steps: Some(machine.generations()),
        work: None,
        max_congestion: Some(machine.metrics().max_congestion()),
        metrics: Some(machine.metrics().clone()),
        engine: Some(opts.describe()),
        recovery: Some(report),
        diverged,
        wall_ms: 0.0,
    })
}

/// Renders the human-readable report.
pub fn render_text(outcome: &Outcome, graph: &AdjacencyMatrix, args: &Args) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "graph: {} nodes, {} edges",
        graph.n(),
        graph.edge_count()
    );
    let _ = writeln!(out, "machine: {}", outcome.machine.name());
    if let Some(engine) = &outcome.engine {
        let _ = writeln!(out, "engine: {engine}");
    }
    let _ = writeln!(out, "components: {}", outcome.labels.component_count());
    if let Some(steps) = outcome.steps {
        let _ = writeln!(out, "synchronous steps: {steps}");
    }
    if let Some(work) = outcome.work {
        let _ = writeln!(out, "work: {work}");
    }
    if let Some(d) = outcome.max_congestion {
        let _ = writeln!(out, "max congestion: {d}");
    }
    let _ = writeln!(out, "wall time: {:.3} ms", outcome.wall_ms);
    if let Some(report) = &outcome.recovery {
        let _ = writeln!(out, "recovery: {report}");
        if report.checkpoints_taken > 0 {
            let _ = writeln!(
                out,
                "checkpoints: {} taken, {} restored{}",
                report.checkpoints_taken,
                report.checkpoints_restored,
                match report.restored_generation {
                    Some(g) => format!(" (last restored at generation {g})"),
                    None => String::new(),
                }
            );
        }
    }
    if let Some(diverged) = outcome.diverged {
        let _ = writeln!(
            out,
            "fault containment: {}",
            if diverged {
                "DIVERGED — the injected fault escaped every detector"
            } else {
                "labels match the union-find reference"
            }
        );
    }

    if args.labels {
        let _ = writeln!(out, "labels:");
        for (node, label) in outcome.labels.as_slice().iter().enumerate() {
            let _ = writeln!(out, "  {node} {label}");
        }
    }

    if args.metrics {
        match &outcome.metrics {
            Some(log) => {
                let _ = writeln!(out, "per-generation metrics (phase sub active reads maxd):");
                for m in log.entries() {
                    let _ = writeln!(
                        out,
                        "  {:>3} {:>3} {:>8} {:>8} {:>5}",
                        m.ctx.phase, m.ctx.subgeneration, m.active_cells, m.total_reads,
                        m.max_congestion
                    );
                }
            }
            None => {
                let _ = writeln!(out, "(per-generation metrics not available for this machine)");
            }
        }
    }
    out
}

/// Renders the JSON report.
pub fn render_json(outcome: &Outcome, graph: &AdjacencyMatrix, args: &Args) -> String {
    let mut root = serde_json::json!({
        "machine": outcome.machine.name(),
        "nodes": graph.n(),
        "edges": graph.edge_count(),
        "components": outcome.labels.component_count(),
        "steps": outcome.steps,
        "work": outcome.work,
        "max_congestion": outcome.max_congestion,
        "engine": outcome.engine,
        "wall_ms": outcome.wall_ms,
    });
    if let Some(report) = &outcome.recovery {
        let attempts: Vec<serde_json::Value> = report
            .attempts
            .iter()
            .map(|a| {
                serde_json::json!({
                    "unit": a.unit,
                    "generation": a.generation,
                    "rung": a.rung,
                    "detector": a.detector,
                    "error": a.error.to_string(),
                })
            })
            .collect();
        root["recovery"] = serde_json::json!({
            "outcome": match &report.outcome {
                RecoveryOutcome::Clean => "clean".to_string(),
                RecoveryOutcome::Recovered => "recovered".to_string(),
                RecoveryOutcome::Exhausted(e) => format!("exhausted: {e}"),
            },
            "attempts": attempts,
            "checkpoints_taken": report.checkpoints_taken,
            "checkpoints_restored": report.checkpoints_restored,
            "restored_generation": report.restored_generation,
            "initial_rung": report.initial_rung,
            "final_rung": report.final_rung,
            "degradations": report.degradations,
        });
    }
    if let Some(diverged) = outcome.diverged {
        root["diverged"] = serde_json::json!(diverged);
    }
    if args.labels {
        root["labels"] = serde_json::json!(outcome.labels.as_slice());
    }
    if args.metrics {
        if let Some(log) = &outcome.metrics {
            let rows: Vec<serde_json::Value> = log
                .entries()
                .iter()
                .map(|m| {
                    serde_json::json!({
                        "phase": m.ctx.phase,
                        "subgeneration": m.ctx.subgeneration,
                        "active": m.active_cells,
                        "reads": m.total_reads,
                        "max_congestion": m.max_congestion,
                    })
                })
                .collect();
            root["metrics"] = serde_json::json!(rows);
        }
    }
    format!("{}\n", serde_json::to_string_pretty(&root).expect("serializable"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::InputSpec;
    use gca_graphs::generators;

    fn args_for(machine: MachineKind) -> Args {
        Args {
            machine,
            input: InputSpec::Family { family: "ring".into(), n: 8 },
            labels: true,
            json: false,
            metrics: true,
            verify: false,
            engine: EngineOpts::default(),
            recovery: RecoveryOpts::default(),
        }
    }

    #[test]
    fn all_machines_execute_and_agree() {
        let g = generators::gnp(12, 0.25, 3);
        let expected = union_find_components_dense(&g);
        for machine in [
            MachineKind::Gca,
            MachineKind::NCells,
            MachineKind::LowCongestion,
            MachineKind::TwoHanded,
            MachineKind::Closure,
            MachineKind::Emulated,
            MachineKind::Pram,
            MachineKind::Sequential,
        ] {
            let outcome = execute(machine, &g, &EngineOpts::default(), &RecoveryOpts::default()).unwrap();
            assert_eq!(
                outcome.labels.as_slice(),
                expected.as_slice(),
                "{machine:?}"
            );
        }
    }

    #[test]
    fn engine_knobs_do_not_change_labels() {
        use gca_hirschberg::{Convergence, ExecPath};
        let g = generators::gnp(10, 0.3, 5);
        let reference = execute(MachineKind::Gca, &g, &EngineOpts::default(), &RecoveryOpts::default()).unwrap();
        let opts = EngineOpts {
            convergence: Convergence::Detect,
            exec: ExecPath::Generic,
            ..EngineOpts::default()
        };
        let tuned = execute(MachineKind::Gca, &g, &opts, &RecoveryOpts::default()).unwrap();
        assert_eq!(tuned.labels.as_slice(), reference.labels.as_slice());
        assert!(tuned.steps.unwrap() <= reference.steps.unwrap());
        assert_eq!(
            tuned.engine.as_deref(),
            Some("convergence=detect exec=generic")
        );
    }

    #[test]
    fn fused_exec_matches_generic_via_cli_path() {
        use gca_hirschberg::ExecPath;
        for g in [generators::gnp(14, 0.2, 9), generators::gnp(17, 0.2, 5)] {
            let generic_opts = EngineOpts {
                exec: ExecPath::Generic,
                ..EngineOpts::default()
            };
            let generic = execute(MachineKind::Gca, &g, &generic_opts, &RecoveryOpts::default()).unwrap();
            let fused = execute(MachineKind::Gca, &g, &EngineOpts::default(), &RecoveryOpts::default()).unwrap();
            assert_eq!(fused.labels.as_slice(), generic.labels.as_slice());
            assert_eq!(fused.steps, generic.steps);
            assert_eq!(fused.max_congestion, generic.max_congestion);
            assert_eq!(
                fused.metrics.as_ref().unwrap().entries(),
                generic.metrics.as_ref().unwrap().entries()
            );
            assert_eq!(
                fused.engine.as_deref(),
                Some("convergence=fixed exec=fused")
            );
        }
    }

    #[test]
    fn validate_knob_is_bit_identical_on_both_exec_paths() {
        use gca_hirschberg::{ExecPath, FusedParallel};
        let g = generators::gnp(16, 0.3, 11);
        let reference = execute(MachineKind::Gca, &g, &EngineOpts::default(), &RecoveryOpts::default()).unwrap();
        for exec in [
            ExecPath::Generic,
            ExecPath::Fused,
            // threshold 0 forces the row-partitioned path even at n = 16.
            ExecPath::FusedParallel(FusedParallel { workers: 2, threshold: Some(0) }),
        ] {
            let opts = EngineOpts {
                exec,
                validate: true,
                ..EngineOpts::default()
            };
            let validated = execute(MachineKind::Gca, &g, &opts, &RecoveryOpts::default()).unwrap();
            assert_eq!(validated.labels.as_slice(), reference.labels.as_slice());
            assert_eq!(
                validated.metrics.as_ref().unwrap().entries(),
                reference.metrics.as_ref().unwrap().entries()
            );
            assert!(validated.engine.as_deref().unwrap().ends_with("validate=on"));
        }
    }

    #[test]
    fn fused_par_exec_matches_generic_via_cli_path() {
        use gca_hirschberg::{ExecPath, FusedParallel};
        let g = generators::gnp(18, 0.25, 13);
        let generic = execute(MachineKind::Gca, &g, &EngineOpts::default(), &RecoveryOpts::default()).unwrap();
        let opts = EngineOpts {
            exec: ExecPath::FusedParallel(FusedParallel { workers: 3, threshold: Some(0) }),
            ..EngineOpts::default()
        };
        let par = execute(MachineKind::Gca, &g, &opts, &RecoveryOpts::default()).unwrap();
        assert_eq!(par.labels.as_slice(), generic.labels.as_slice());
        assert_eq!(par.steps, generic.steps);
        assert_eq!(
            par.metrics.as_ref().unwrap().entries(),
            generic.metrics.as_ref().unwrap().entries()
        );
        assert_eq!(
            par.engine.as_deref(),
            Some("convergence=fixed exec=fused-par workers=3")
        );
    }

    fn transient_flip(generation: u64, cell: usize) -> RecoveryOpts {
        use gca_engine::faults::{FaultAddr, FaultKind, FaultSpec};
        RecoveryOpts {
            inject: Some(FaultSpec {
                kind: FaultKind::BitFlip { bit: 0 },
                addr: FaultAddr::Explicit { generation, cell, bit: 0 },
                sticky: false,
            }),
            recover: Some(RecoveryPolicy::Retry { max_attempts: 3 }),
            checkpoint_every: 1,
        }
    }

    #[test]
    fn supervised_recovery_restores_the_reference_labeling() {
        use gca_hirschberg::ExecPath;
        let g = generators::path(24);
        let reference =
            execute(MachineKind::Gca, &g, &EngineOpts::default(), &RecoveryOpts::default())
                .unwrap();
        let opts = EngineOpts {
            exec: ExecPath::Fused,
            validate: true,
            ..EngineOpts::default()
        };
        // Mid-second-iteration label flip: the armed plan hands the fused
        // path's generations to the engine, where the invariant checker
        // catches it; repaired from the iteration-boundary checkpoint.
        let outcome = execute(MachineKind::Gca, &g, &opts, &transient_flip(27, 5)).unwrap();
        let report = outcome.recovery.as_ref().unwrap();
        assert!(matches!(report.outcome, RecoveryOutcome::Recovered), "{report}");
        assert_eq!(report.first_detector(), Some("invariant-checker"));
        assert!(report.checkpoints_restored >= 1);
        assert_eq!(outcome.diverged, Some(false));
        assert_eq!(outcome.labels.as_slice(), reference.labels.as_slice());
        assert_eq!(
            outcome.metrics.as_ref().unwrap().entries(),
            reference.metrics.as_ref().unwrap().entries(),
            "recovered metrics must be bit-identical to a clean run"
        );
    }

    #[test]
    fn supervised_fail_policy_reports_exhaustion() {
        use gca_hirschberg::ExecPath;
        let g = generators::path(24);
        let opts = EngineOpts {
            exec: ExecPath::Fused,
            validate: true,
            ..EngineOpts::default()
        };
        let rec = RecoveryOpts {
            recover: Some(RecoveryPolicy::Fail),
            ..transient_flip(27, 5)
        };
        let outcome = execute(MachineKind::Gca, &g, &opts, &rec).unwrap();
        let report = outcome.recovery.as_ref().unwrap();
        assert!(!report.completed(), "{report}");
        assert_eq!(report.checkpoints_restored, 0);
        assert_eq!(outcome.diverged, None);
    }

    #[test]
    fn undetected_final_generation_flip_sets_the_divergence_flag() {
        use gca_hirschberg::ExecPath;
        let g = generators::path(24);
        // No sanitizer: a flip of node 1's label cell (row 1, column 0)
        // on the last committed generation reaches the output unseen —
        // only the union-find cross-check catches it.
        let opts = EngineOpts {
            exec: ExecPath::Fused,
            ..EngineOpts::default()
        };
        let last = total_generations(24) - 1;
        let outcome = execute(MachineKind::Gca, &g, &opts, &transient_flip(last, 24)).unwrap();
        let report = outcome.recovery.as_ref().unwrap();
        assert!(matches!(report.outcome, RecoveryOutcome::Clean), "{report}");
        assert_eq!(outcome.diverged, Some(true));
    }

    #[test]
    fn json_report_embeds_the_recovery_report() {
        use gca_hirschberg::ExecPath;
        let g = generators::path(24);
        let opts = EngineOpts {
            exec: ExecPath::Fused,
            validate: true,
            ..EngineOpts::default()
        };
        let outcome = execute(MachineKind::Gca, &g, &opts, &transient_flip(27, 5)).unwrap();
        let mut args = args_for(MachineKind::Gca);
        args.json = true;
        let json = render_json(&outcome, &g, &args);
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["recovery"]["outcome"], "recovered");
        assert_eq!(v["recovery"]["attempts"][0]["detector"], "invariant-checker");
        assert_eq!(v["recovery"]["initial_rung"], "fused");
        assert_eq!(v["diverged"], false);
        let text = render_text(&outcome, &g, &args);
        assert!(text.contains("recovery: recovered"), "{text}");
        assert!(text.contains("fault containment: labels match"), "{text}");
    }

    #[test]
    fn text_report_contains_summary() {
        let g = generators::ring(8);
        let outcome = execute(MachineKind::Gca, &g, &EngineOpts::default(), &RecoveryOpts::default()).unwrap();
        let text = render_text(&outcome, &g, &args_for(MachineKind::Gca));
        assert!(text.contains("graph: 8 nodes, 8 edges"));
        assert!(text.contains("components: 1"));
        assert!(text.contains("engine: convergence=fixed"));
        assert!(text.contains("per-generation metrics"));
        assert!(text.contains("labels:"));
    }

    #[test]
    fn json_report_is_valid() {
        let g = generators::ring(6);
        let outcome = execute(MachineKind::Pram, &g, &EngineOpts::default(), &RecoveryOpts::default()).unwrap();
        let json = render_json(&outcome, &g, &args_for(MachineKind::Pram));
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed["machine"], "pram");
        assert_eq!(parsed["components"], 1);
        assert!(parsed["work"].as_u64().unwrap() > 0);
    }

    #[test]
    fn sequential_has_no_step_counter() {
        let g = generators::path(5);
        let outcome = execute(MachineKind::Sequential, &g, &EngineOpts::default(), &RecoveryOpts::default()).unwrap();
        assert!(outcome.steps.is_none());
        let text = render_text(
            &outcome,
            &g,
            &Args {
                machine: MachineKind::Sequential,
                input: InputSpec::Family { family: "path".into(), n: 5 },
                labels: false,
                json: false,
                metrics: true,
                verify: false,
                engine: EngineOpts::default(),
                recovery: RecoveryOpts::default(),
            },
        );
        assert!(text.contains("not available"));
    }
}
