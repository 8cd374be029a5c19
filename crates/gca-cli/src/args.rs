//! Hand-rolled argument parsing for `gca-cc` (no external CLI dependency).

use gca_engine::faults::FaultSpec;
use gca_engine::recovery::RecoveryPolicy;
use gca_hirschberg::{Convergence, ExecPath, FusedParallel};
use std::fmt;

/// Which machine runs the computation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MachineKind {
    /// The paper's `n²`-cell GCA (default).
    Gca,
    /// The `n`-cell GCA variant.
    NCells,
    /// The low-congestion (tree/replication) GCA variant.
    LowCongestion,
    /// The two-handed GCA variant (n² cells, PRAM-step-count generations).
    TwoHanded,
    /// Connected components via the transitive-closure machine.
    Closure,
    /// Listing 1 on the universal PRAM-on-GCA emulator.
    Emulated,
    /// The PRAM reference algorithm (Listing 1, CROW).
    Pram,
    /// Sequential union-find baseline.
    Sequential,
}

impl MachineKind {
    /// Parses a `--machine` value.
    pub fn parse(s: &str) -> Result<Self, ArgError> {
        match s {
            "gca" => Ok(MachineKind::Gca),
            "ncells" | "n-cells" => Ok(MachineKind::NCells),
            "lowcong" | "low-congestion" => Ok(MachineKind::LowCongestion),
            "twohand" | "two-handed" => Ok(MachineKind::TwoHanded),
            "closure" | "tc" => Ok(MachineKind::Closure),
            "emu" | "emulated" => Ok(MachineKind::Emulated),
            "pram" => Ok(MachineKind::Pram),
            "seq" | "sequential" => Ok(MachineKind::Sequential),
            other => Err(ArgError(format!(
                "unknown machine '{other}' (expected gca|ncells|lowcong|twohand|closure|emu|pram|seq)"
            ))),
        }
    }

    /// Display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            MachineKind::Gca => "gca",
            MachineKind::NCells => "ncells",
            MachineKind::LowCongestion => "lowcong",
            MachineKind::TwoHanded => "twohand",
            MachineKind::Closure => "closure",
            MachineKind::Emulated => "emu",
            MachineKind::Pram => "pram",
            MachineKind::Sequential => "seq",
        }
    }
}

/// Engine knobs forwarded to the main GCA machine (`--machine gca`); the
/// other machines run their fixed reference configurations, and the parser
/// rejects these options for them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct EngineOpts {
    /// Pointer-jump convergence handling (`--convergence`).
    pub convergence: Convergence,
    /// Execution path (`--exec`): vector sweeps (the default) or generic
    /// per-cell dispatch.
    pub exec: ExecPath,
    /// Run under the CROW/domain sanitizer (`--validate`): every generation
    /// is replayed against the read-snapshot and domain contracts on the
    /// engine, and the fused path cross-checks its sweep against it.
    pub validate: bool,
    /// Live invariant checking (`--invariants`): run the algorithm-level
    /// invariant mirror — every generation replayed against the prover's
    /// Hoare-contract transfer functions (label range, forest canonicity,
    /// partition refinement, depth halving), failing with a typed
    /// `InvariantViolation` on first divergence. The mirror hangs off the
    /// sanitizer, so this implies `--validate`.
    pub invariants: bool,
}

impl EngineOpts {
    /// Parses a `--convergence` value.
    pub fn parse_convergence(s: &str) -> Result<Convergence, ArgError> {
        match s {
            "fixed" => Ok(Convergence::Fixed),
            "detect" => Ok(Convergence::Detect),
            other => Err(ArgError(format!(
                "unknown convergence mode '{other}' (expected fixed|detect)"
            ))),
        }
    }

    /// Parses an `--exec` value. `fused-par` is an alias of `fused`.
    pub fn parse_exec(s: &str) -> Result<ExecPath, ArgError> {
        match s {
            "generic" => Ok(ExecPath::Generic),
            "fused" => Ok(ExecPath::Fused),
            "fused-par" | "fused-parallel" => Ok(ExecPath::FusedParallel(FusedParallel)),
            other => Err(ArgError(format!(
                "unknown exec path '{other}' (expected generic|fused|fused-par)"
            ))),
        }
    }

    /// `convergence=… exec=…`, as shown in reports (plus ` validate=on`
    /// when the sanitizer is enabled).
    pub fn describe(&self) -> String {
        let mut s = format!(
            "convergence={} exec={}",
            match self.convergence {
                Convergence::Fixed => "fixed",
                Convergence::Detect => "detect",
            },
            match self.exec {
                ExecPath::Generic => "generic",
                ExecPath::Fused | ExecPath::FusedParallel(_) => "fused",
            }
        );
        if self.validate {
            s.push_str(" validate=on");
        }
        if self.invariants {
            s.push_str(" invariants=on");
        }
        s
    }
}

/// Fault-injection and recovery options (`--machine gca` only). With a
/// fault or a policy set, the run goes through the checkpointing
/// supervisor instead of the plain runner.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryOpts {
    /// Planted fault (`--inject`), resolved against the run geometry
    /// once the graph is known.
    pub inject: Option<FaultSpec>,
    /// Recovery policy (`--recover`). `--inject` without a policy
    /// supervises fail-fast: the first detection ends the run.
    pub recover: Option<RecoveryPolicy>,
    /// Checkpoint cadence in outer iterations (`--checkpoint-every`).
    pub checkpoint_every: u64,
}

impl Default for RecoveryOpts {
    fn default() -> Self {
        RecoveryOpts {
            inject: None,
            recover: None,
            checkpoint_every: 1,
        }
    }
}

impl RecoveryOpts {
    /// Whether the run must go through the supervisor.
    pub fn supervised(&self) -> bool {
        self.inject.is_some() || self.recover.is_some()
    }

    /// Parses a `--recover` value: `fail | retry[:N] | rollback[:D] |
    /// degrade`.
    pub fn parse_policy(s: &str) -> Result<RecoveryPolicy, ArgError> {
        let (head, arg) = match s.split_once(':') {
            Some((h, a)) => (h, Some(a)),
            None => (s, None),
        };
        let count = |a: &str| -> Result<u32, ArgError> {
            a.parse()
                .map_err(|_| ArgError(format!("bad count '{a}' in --recover '{s}'")))
        };
        match (head, arg) {
            ("fail", None) => Ok(RecoveryPolicy::Fail),
            ("retry", None) => Ok(RecoveryPolicy::Retry { max_attempts: 3 }),
            ("retry", Some(a)) => Ok(RecoveryPolicy::Retry { max_attempts: count(a)? }),
            ("rollback", None) => Ok(RecoveryPolicy::Rollback { to_checkpoint: 1 }),
            ("rollback", Some(a)) => Ok(RecoveryPolicy::Rollback {
                to_checkpoint: count(a)? as usize,
            }),
            ("degrade", None) => Ok(RecoveryPolicy::Degrade),
            _ => Err(ArgError(format!(
                "unknown recovery policy '{s}' (expected fail|retry[:N]|rollback[:D]|degrade)"
            ))),
        }
    }
}

/// Where the input graph comes from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InputSpec {
    /// Read an edge-list file (`-` for stdin).
    File(String),
    /// Generate `gnp:<n>:<p>[:seed]`.
    Gnp { n: usize, p_milli: u32, seed: u64 },
    /// Generate `forest:<n>:<k>[:seed]`.
    Forest { n: usize, k: usize, seed: u64 },
    /// Generate a named family `<family>:<n>` (path, ring, star, complete, empty).
    Family { family: String, n: usize },
}

/// Parsed command line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Args {
    /// Machine selection.
    pub machine: MachineKind,
    /// Input source.
    pub input: InputSpec,
    /// Print per-node labels (not just the summary).
    pub labels: bool,
    /// Emit a JSON report instead of text.
    pub json: bool,
    /// Print per-generation congestion metrics (GCA machines only).
    pub metrics: bool,
    /// Independently verify the labeling against the graph (oracle-free).
    pub verify: bool,
    /// Engine knobs for the main GCA machine.
    pub engine: EngineOpts,
    /// Fault-injection and recovery knobs for the main GCA machine.
    pub recovery: RecoveryOpts,
}

/// A user-facing argument error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

/// The usage string printed on `--help` or argument errors.
pub const USAGE: &str = "\
gca-cc — connected components on a Global Cellular Automaton

USAGE:
  gca-cc [OPTIONS] <INPUT>

INPUT:
  <file>                    edge-list file ('n <count>' header, 'u v' lines; '-' = stdin)
  gnp:<n>:<p%o>[:seed]      random G(n, p) with p in permille (e.g. gnp:64:500)
  forest:<n>:<k>[:seed]     random forest with k trees
  path:<n> ring:<n> star:<n> complete:<n> empty:<n>

OPTIONS:
  --machine <m>      gca (default) | ncells | lowcong | twohand | closure | emu | pram | seq
  --convergence <c>  fixed (default) | detect — pointer-jump convergence early exit (gca machine only)
  --exec <e>         fused (default) | generic — one O(n)-state vector sweep per outer
                     iteration over the bit-packed adjacency plane, or the engine's per-cell
                     dispatch over the whole n(n+1) field; --validate, --inject and Trace
                     steps run the engine on every path (gca machine only). fused-par is
                     an alias of fused
  --workers <k>      accepted with --exec fused-par for compatibility, and unused
  --validate         run under the CROW/domain sanitizer: replay every generation against the
                     owner-write / read-snapshot / domain contracts (gca machine only; slower)
  --invariants       run the live invariant mirror: every generation replayed against the
                     prover's Hoare contracts (label range, forest canonicity, partition
                     refinement, depth halving); implies --validate (gca machine only; slower)
  --inject <spec>    plant one deterministic fault and run under the recovery supervisor
                     (gca machine only). Spec grammar:
                       <kind>[@<gen>[.<cell>[.<bit>]]][:seed=<u64>][:sticky]
                     with kind bitflip | torn | drop. An explicit <gen> must lie in 1..G,
                     G the fixed schedule's generation count (also under --convergence
                     detect), and <cell> below the n(n+1) field cells; otherwise exit 1.
                     Detection needs --validate; an undetected label divergence exits 4.
  --recover <p>      recovery policy when a detector fires (implies supervision):
                     fail (default with --inject) | retry[:N] | rollback[:D] | degrade —
                     degrade walks fused -> generic. Exhausted
                     recovery exits 3; a recovered run exits 0 and prints its report.
  --checkpoint-every <N>
                     checkpoint cadence in outer iterations under supervision (default 1)
  --labels           print every node's component label
  --metrics          print per-generation activity/congestion (GCA machines)
  --verify           independently verify the labeling against the graph
  --json             machine-readable report
  --help             this text
";

fn parse_generator(spec: &str) -> Result<InputSpec, ArgError> {
    let parts: Vec<&str> = spec.split(':').collect();
    let int = |s: &str, what: &str| -> Result<usize, ArgError> {
        s.parse()
            .map_err(|_| ArgError(format!("bad {what} '{s}' in '{spec}'")))
    };
    match parts[0] {
        "gnp" => {
            if parts.len() < 3 || parts.len() > 4 {
                return Err(ArgError(format!("expected gnp:<n>:<permille>[:seed], got '{spec}'")));
            }
            let n = int(parts[1], "n")?;
            let p_milli = int(parts[2], "permille")?;
            if p_milli > 1000 {
                return Err(ArgError(format!("permille {p_milli} exceeds 1000")));
            }
            let seed = if parts.len() == 4 { int(parts[3], "seed")? as u64 } else { 1 };
            Ok(InputSpec::Gnp { n, p_milli: p_milli as u32, seed })
        }
        "forest" => {
            if parts.len() < 3 || parts.len() > 4 {
                return Err(ArgError(format!("expected forest:<n>:<k>[:seed], got '{spec}'")));
            }
            let n = int(parts[1], "n")?;
            let k = int(parts[2], "k")?;
            let seed = if parts.len() == 4 { int(parts[3], "seed")? as u64 } else { 1 };
            Ok(InputSpec::Forest { n, k, seed })
        }
        family @ ("path" | "ring" | "star" | "complete" | "empty") => {
            if parts.len() != 2 {
                return Err(ArgError(format!("expected {family}:<n>, got '{spec}'")));
            }
            Ok(InputSpec::Family {
                family: family.to_string(),
                n: int(parts[1], "n")?,
            })
        }
        _ => Ok(InputSpec::File(spec.to_string())),
    }
}

/// Parses a full argument vector (without the program name).
pub fn parse(args: &[String]) -> Result<Args, ArgError> {
    let mut machine = MachineKind::Gca;
    let mut input: Option<InputSpec> = None;
    let mut labels = false;
    let mut json = false;
    let mut metrics = false;
    let mut verify = false;
    let mut engine = EngineOpts::default();
    let mut recovery = RecoveryOpts::default();
    let mut cadence: Option<u64> = None;
    // `--workers` was given: validated, then unused.
    let mut workers = false;
    // The options given that only the gca machine honours.
    let mut gca_only: Vec<&'static str> = Vec::new();

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--machine" => {
                let v = it
                    .next()
                    .ok_or_else(|| ArgError("--machine needs a value".into()))?;
                machine = MachineKind::parse(v)?;
            }
            "--convergence" => {
                let v = it
                    .next()
                    .ok_or_else(|| ArgError("--convergence needs a value".into()))?;
                engine.convergence = EngineOpts::parse_convergence(v)?;
                gca_only.push("--convergence");
            }
            "--exec" => {
                let v = it
                    .next()
                    .ok_or_else(|| ArgError("--exec needs a value".into()))?;
                engine.exec = EngineOpts::parse_exec(v)?;
                gca_only.push("--exec");
            }
            "--workers" => {
                let v = it
                    .next()
                    .ok_or_else(|| ArgError("--workers needs a value".into()))?;
                v.parse::<usize>().map_err(|_| {
                    ArgError(format!("bad worker count '{v}' (expected an integer)"))
                })?;
                workers = true;
            }
            "--inject" => {
                let v = it
                    .next()
                    .ok_or_else(|| ArgError("--inject needs a fault spec".into()))?;
                recovery.inject =
                    Some(FaultSpec::parse(v).map_err(|e| ArgError(e.to_string()))?);
                gca_only.push("--inject");
            }
            "--recover" => {
                let v = it
                    .next()
                    .ok_or_else(|| ArgError("--recover needs a policy".into()))?;
                recovery.recover = Some(RecoveryOpts::parse_policy(v)?);
                gca_only.push("--recover");
            }
            "--checkpoint-every" => {
                let v = it
                    .next()
                    .ok_or_else(|| ArgError("--checkpoint-every needs a value".into()))?;
                let n: u64 = v.parse().map_err(|_| {
                    ArgError(format!("bad cadence '{v}' (expected an integer >= 1)"))
                })?;
                if n == 0 {
                    return Err(ArgError("--checkpoint-every must be >= 1".into()));
                }
                cadence = Some(n);
            }
            "--validate" => {
                engine.validate = true;
                gca_only.push("--validate");
            }
            "--invariants" => {
                engine.invariants = true;
                engine.validate = true;
                gca_only.push("--invariants");
            }
            "--labels" => labels = true,
            "--json" => json = true,
            "--metrics" => metrics = true,
            "--verify" => verify = true,
            "--help" | "-h" => return Err(ArgError("help".into())),
            other if other.starts_with("--") => {
                return Err(ArgError(format!("unknown option '{other}'")));
            }
            other => {
                if input.is_some() {
                    return Err(ArgError(format!("unexpected extra input '{other}'")));
                }
                input = Some(parse_generator(other)?);
            }
        }
    }

    if workers && !matches!(engine.exec, ExecPath::FusedParallel(_)) {
        return Err(ArgError("--workers requires --exec fused-par".into()));
    }

    if let Some(n) = cadence {
        if !recovery.supervised() {
            return Err(ArgError(
                "--checkpoint-every requires --inject or --recover".into(),
            ));
        }
        recovery.checkpoint_every = n;
    }
    if machine != MachineKind::Gca {
        if let Some(opt) = gca_only.first() {
            return Err(ArgError(format!("{opt} requires --machine gca")));
        }
    }

    Ok(Args {
        machine,
        input: input.ok_or_else(|| ArgError("missing input (see --help)".into()))?,
        labels,
        json,
        metrics,
        verify,
        engine,
        recovery,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_defaults() {
        let a = parse(&argv(&["graph.txt"])).unwrap();
        assert_eq!(a.machine, MachineKind::Gca);
        assert_eq!(a.input, InputSpec::File("graph.txt".into()));
        assert!(!a.labels && !a.json && !a.metrics && !a.verify);
    }

    #[test]
    fn parses_machine_choices() {
        for (s, k) in [
            ("gca", MachineKind::Gca),
            ("ncells", MachineKind::NCells),
            ("lowcong", MachineKind::LowCongestion),
            ("closure", MachineKind::Closure),
            ("pram", MachineKind::Pram),
            ("seq", MachineKind::Sequential),
        ] {
            let a = parse(&argv(&["--machine", s, "empty:4"])).unwrap();
            assert_eq!(a.machine, k, "{s}");
        }
        assert!(MachineKind::parse("bogus").is_err());
    }

    #[test]
    fn parses_generators() {
        assert_eq!(
            parse(&argv(&["gnp:64:500:7"])).unwrap().input,
            InputSpec::Gnp { n: 64, p_milli: 500, seed: 7 }
        );
        assert_eq!(
            parse(&argv(&["gnp:10:250"])).unwrap().input,
            InputSpec::Gnp { n: 10, p_milli: 250, seed: 1 }
        );
        assert_eq!(
            parse(&argv(&["forest:20:3"])).unwrap().input,
            InputSpec::Forest { n: 20, k: 3, seed: 1 }
        );
        assert_eq!(
            parse(&argv(&["ring:9"])).unwrap().input,
            InputSpec::Family { family: "ring".into(), n: 9 }
        );
    }

    #[test]
    fn rejects_malformed_generators() {
        assert!(parse(&argv(&["gnp:64"])).is_err());
        assert!(parse(&argv(&["gnp:64:1500"])).is_err());
        // Permilles that wrap to 100 and to 0 in a `u32` are still rejected.
        for permille in ["4294967396", "4294967296"] {
            let err = parse(&argv(&[&format!("gnp:64:{permille}")])).unwrap_err();
            assert_eq!(err, ArgError(format!("permille {permille} exceeds 1000")));
        }
        assert!(parse(&argv(&["forest:x:3"])).is_err());
        assert!(parse(&argv(&["ring:9:9"])).is_err());
    }

    #[test]
    fn rejects_bad_options() {
        assert!(parse(&argv(&["--bogus", "empty:2"])).is_err());
        assert!(parse(&argv(&["--machine"])).is_err());
        assert!(parse(&argv(&[])).is_err());
        assert!(parse(&argv(&["a.txt", "b.txt"])).is_err());
    }

    #[test]
    fn flags_toggle() {
        let a = parse(&argv(&["--labels", "--json", "--metrics", "--verify", "empty:3"])).unwrap();
        assert!(a.labels && a.json && a.metrics && a.verify);
    }

    #[test]
    fn engine_knobs_default_and_parse() {
        let a = parse(&argv(&["empty:3"])).unwrap();
        assert_eq!(a.engine, EngineOpts::default());
        assert_eq!(a.engine.convergence, Convergence::Fixed);
        assert_eq!(a.engine.exec, ExecPath::Fused, "the fast path is the default");
        assert!(!a.engine.validate);

        let a = parse(&argv(&["--convergence", "detect", "--exec", "fused", "ring:5"])).unwrap();
        assert_eq!(a.engine.convergence, Convergence::Detect);
        assert_eq!(a.engine.exec, ExecPath::Fused);
        assert_eq!(a.engine.describe(), "convergence=detect exec=fused");
    }

    #[test]
    fn parses_fused_par_as_an_alias_of_fused() {
        for items in [
            &["--exec", "fused-par", "ring:5"][..],
            &["--exec", "fused-par", "--workers", "4", "ring:5"][..],
            // --workers before --exec works too: it is checked after the loop.
            &["--workers", "2", "--exec", "fused-par", "ring:5"][..],
        ] {
            let a = parse(&argv(items)).unwrap();
            assert_eq!(a.engine.exec, ExecPath::FusedParallel(FusedParallel), "{items:?}");
            assert_eq!(a.engine.describe(), "convergence=fixed exec=fused", "{items:?}");
        }
    }

    #[test]
    fn workers_requires_fused_par() {
        assert!(parse(&argv(&["--workers", "4", "ring:5"])).is_err());
        assert!(parse(&argv(&["--exec", "fused", "--workers", "4", "ring:5"])).is_err());
        assert!(parse(&argv(&["--exec", "fused-par", "--workers", "x", "ring:5"])).is_err());
        assert!(parse(&argv(&["--workers"])).is_err());
    }

    #[test]
    fn fused_swar_is_not_an_exec_path() {
        // `fused-swar` names no exec path: it is rejected like any unknown
        // value, with or without --workers.
        for extra in [&[][..], &["--workers", "4"][..]] {
            let mut items = vec!["--exec", "fused-swar"];
            items.extend_from_slice(extra);
            items.push("ring:5");
            let err = parse(&argv(&items)).unwrap_err();
            assert!(
                err.0.contains("unknown exec path 'fused-swar'"),
                "{}",
                err.0
            );
        }
    }

    #[test]
    fn validate_flag_toggles_sanitizer() {
        let a = parse(&argv(&["--validate", "ring:5"])).unwrap();
        assert!(a.engine.validate);
        assert_eq!(
            a.engine.describe(),
            "convergence=fixed exec=fused validate=on"
        );
    }

    #[test]
    fn invariants_flag_implies_validate() {
        let a = parse(&argv(&["--invariants", "ring:5"])).unwrap();
        assert!(a.engine.invariants && a.engine.validate);
        assert_eq!(
            a.engine.describe(),
            "convergence=fixed exec=fused \
             validate=on invariants=on"
        );
        // --validate alone does not advertise the invariant tier.
        let a = parse(&argv(&["--validate", "ring:5"])).unwrap();
        assert!(!a.engine.invariants && a.engine.validate);
    }

    #[test]
    fn parses_inject_recover_and_cadence() {
        use gca_engine::faults::{FaultAddr, FaultKind};
        let a = parse(&argv(&[
            "--inject", "bitflip@27.5.2", "--recover", "retry:5", "--checkpoint-every", "2",
            "path:24",
        ]))
        .unwrap();
        assert_eq!(
            a.recovery.inject,
            Some(FaultSpec {
                kind: FaultKind::BitFlip { bit: 2 },
                addr: FaultAddr::Explicit { generation: 27, cell: 5, bit: 2 },
                sticky: false,
            })
        );
        assert_eq!(a.recovery.recover, Some(RecoveryPolicy::Retry { max_attempts: 5 }));
        assert_eq!(a.recovery.checkpoint_every, 2);
        assert!(a.recovery.supervised());

        // Defaults: no supervision, cadence 1.
        let a = parse(&argv(&["path:24"])).unwrap();
        assert_eq!(a.recovery, RecoveryOpts::default());
        assert!(!a.recovery.supervised());
    }

    #[test]
    fn parses_recovery_policies() {
        for (s, p) in [
            ("fail", RecoveryPolicy::Fail),
            ("retry", RecoveryPolicy::Retry { max_attempts: 3 }),
            ("retry:7", RecoveryPolicy::Retry { max_attempts: 7 }),
            ("rollback", RecoveryPolicy::Rollback { to_checkpoint: 1 }),
            ("rollback:2", RecoveryPolicy::Rollback { to_checkpoint: 2 }),
            ("degrade", RecoveryPolicy::Degrade),
        ] {
            assert_eq!(RecoveryOpts::parse_policy(s).unwrap(), p, "{s}");
        }
        assert!(RecoveryOpts::parse_policy("panic").is_err());
        assert!(RecoveryOpts::parse_policy("retry:x").is_err());
        assert!(RecoveryOpts::parse_policy("degrade:1").is_err());
    }

    #[test]
    fn rejects_bad_recovery_flags() {
        // Bad fault spec / missing values.
        assert!(parse(&argv(&["--inject", "meltdown", "path:8"])).is_err());
        assert!(parse(&argv(&["--inject"])).is_err());
        assert!(parse(&argv(&["--recover", "never", "path:8"])).is_err());
        // Cadence needs supervision and must be positive.
        assert!(parse(&argv(&["--checkpoint-every", "2", "path:8"])).is_err());
        assert!(parse(&argv(&[
            "--inject", "torn", "--checkpoint-every", "0", "path:8"
        ]))
        .is_err());
        // Supervision is a gca-machine feature.
        assert!(parse(&argv(&["--machine", "pram", "--inject", "torn", "path:8"])).is_err());
        assert!(parse(&argv(&["--machine", "seq", "--recover", "degrade", "path:8"])).is_err());
    }

    #[test]
    fn gca_only_options_reject_other_machines() {
        for (opts, named) in [
            (&["--validate"][..], "--validate"),
            (&["--invariants"][..], "--invariants"),
            (&["--convergence", "detect"][..], "--convergence"),
            (&["--exec", "fused"][..], "--exec"),
            (&["--exec", "generic", "--validate"][..], "--exec"),
        ] {
            for machine in ["seq", "pram", "ncells", "closure"] {
                let mut items = vec!["--machine", machine];
                items.extend_from_slice(opts);
                items.push("path:8");
                let err = parse(&argv(&items)).unwrap_err();
                assert_eq!(
                    err.0,
                    format!("{named} requires --machine gca"),
                    "{items:?}"
                );
            }
            // The same options stand on the gca machine, named or default.
            for machine in [&["--machine", "gca"][..], &[]] {
                let mut items = machine.to_vec();
                items.extend_from_slice(opts);
                items.push("path:8");
                assert!(parse(&argv(&items)).is_ok(), "{items:?}");
            }
        }
        // Without them every machine parses.
        assert!(parse(&argv(&["--machine", "seq", "--verify", "path:8"])).is_ok());
    }

    #[test]
    fn engine_knobs_reject_bad_values() {
        assert!(parse(&argv(&["--convergence", "never", "empty:2"])).is_err());
        assert!(parse(&argv(&["--exec", "simd", "empty:2"])).is_err());
        assert!(parse(&argv(&["--exec"])).is_err());
    }

    #[test]
    fn backend_and_domain_are_not_options() {
        for flag in ["--backend", "--domain"] {
            let err = parse(&argv(&[flag, "seq", "empty:2"])).unwrap_err();
            assert!(err.0.contains(flag), "{}", err.0);
        }
    }
}
