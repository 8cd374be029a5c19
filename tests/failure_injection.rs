//! Failure injection: the simulators must *detect* contract violations,
//! not silently tolerate them — bad pointers in GCA rules, access-policy
//! violations on the PRAM, malformed inputs at the graph layer.

use gca_engine::faults::{FaultKind, FaultPlan};
use gca_engine::{
    Access, CellField, Domain, DomainViolationKind, Engine, FieldShape, GcaError, GcaRule,
    Instrumentation, Reads, StepCtx,
};
use gca_graphs::{generators, io, GraphBuilder, GraphError};
use gca_hirschberg::complexity::{ceil_log2, total_generations};
use gca_hirschberg::{ExecPath, Gen, Machine, SweepFault};
use gca_pram::{AccessPolicy, Pram, PramError};
use std::sync::atomic::{AtomicU32, Ordering};

/// A rule whose pointer walks off the field after a few generations.
struct WalkOff;

impl GcaRule for WalkOff {
    type State = u32;

    fn access(&self, ctx: &StepCtx, shape: &FieldShape, index: usize, _own: &u32) -> Access {
        Access::One(index + shape.len() / 2 + ctx.generation as usize)
    }

    fn evolve(
        &self,
        _ctx: &StepCtx,
        _shape: &FieldShape,
        _index: usize,
        own: &u32,
        reads: Reads<'_, u32>,
    ) -> u32 {
        reads.first().copied().unwrap_or(*own)
    }
}

#[test]
fn engine_reports_out_of_range_pointer_with_context() {
    let shape = FieldShape::new(1, 8).unwrap();
    let mut field = CellField::new(shape, 0u32);
    let mut engine = Engine::sequential();
    // Generation 0: cell 4 reads 4 + 4 + 0 = 8 — out of range already.
    let err = engine.step(&mut field, &WalkOff, 0, 0).unwrap_err();
    match err {
        GcaError::PointerOutOfRange { cell, target, len, generation } => {
            assert_eq!(cell, 4);
            assert_eq!(target, 8);
            assert_eq!(len, 8);
            assert_eq!(generation, 0);
        }
        other => panic!("unexpected error {other:?}"),
    }
}

#[test]
fn pram_detects_erew_read_conflicts() {
    let mut p = Pram::new(AccessPolicy::Erew, 4);
    let err = p
        .step(3, |_i, ctx| ctx.read(2).map(|_| ()))
        .unwrap_err();
    assert_eq!(err, PramError::ReadConflict { addr: 2, readers: 3 });
}

#[test]
fn pram_detects_crew_write_conflicts_and_rolls_back() {
    let mut p = Pram::new(AccessPolicy::Crew, 4);
    p.load(1, 99);
    let err = p.step(2, |i, ctx| ctx.write(1, i as u64)).unwrap_err();
    assert!(matches!(err, PramError::WriteConflict { addr: 1, .. }));
    assert_eq!(p.peek(1), 99, "failed step must not mutate memory");
}

#[test]
fn pram_detects_owner_violations() {
    let mut p = Pram::new(AccessPolicy::Crow, 3).with_owners(vec![0, 1, 2]);
    // Processor 0 writes cell 2 (owned by processor 2).
    let err = p
        .step(1, |_i, ctx| ctx.write(2, 5))
        .unwrap_err();
    assert_eq!(
        err,
        PramError::OwnerViolation { addr: 2, proc: 0, owner: 2 }
    );
}

#[test]
fn pram_detects_common_crcw_disagreement() {
    let mut p = Pram::new(AccessPolicy::CrcwCommon, 2);
    let err = p
        .step(2, |i, ctx| ctx.write(0, 10 + i as u64))
        .unwrap_err();
    assert!(matches!(err, PramError::CommonWriteMismatch { addr: 0, .. }));
}

#[test]
fn pram_rejects_out_of_range_addresses() {
    let mut p = Pram::new(AccessPolicy::Crew, 2);
    let err = p.step(1, |_i, ctx| ctx.read(7).map(|_| ())).unwrap_err();
    assert!(matches!(
        err,
        PramError::AddressOutOfRange { addr: 7, size: 2, proc: 0 }
    ));
}

#[test]
fn graph_layer_rejects_malformed_inputs() {
    assert!(matches!(
        GraphBuilder::new(3).edge(1, 1).build().unwrap_err(),
        GraphError::SelfLoop { node: 1 }
    ));
    assert!(matches!(
        GraphBuilder::new(3).edge(0, 9).build().unwrap_err(),
        GraphError::NodeOutOfRange { node: 9, n: 3 }
    ));
    assert!(io::from_edge_list("garbage").is_err());
    assert!(io::from_edge_list("n 2\n0 1 junk\n").is_err());
}

/// A rule that claims only row 0 does anything, but whose cell 6 (row 1)
/// writes a new state anyway — a stray write outside the declared domain.
struct StrayWrite;

impl GcaRule for StrayWrite {
    type State = u32;

    fn access(&self, _ctx: &StepCtx, _shape: &FieldShape, _index: usize, _own: &u32) -> Access {
        Access::None
    }

    fn evolve(
        &self,
        _ctx: &StepCtx,
        _shape: &FieldShape,
        index: usize,
        own: &u32,
        _reads: Reads<'_, u32>,
    ) -> u32 {
        if index == 6 {
            own + 1
        } else {
            *own
        }
    }

    fn is_active(&self, _ctx: &StepCtx, _shape: &FieldShape, index: usize, _own: &u32) -> bool {
        index < 4
    }

    fn domain(&self, _ctx: &StepCtx, _shape: &FieldShape) -> Domain {
        Domain::Rows(0..1)
    }

    fn name(&self) -> &str {
        "stray-write"
    }
}

#[test]
fn sanitizer_reports_stray_write_with_cell_and_generation() {
    let shape = FieldShape::new(2, 4).unwrap();
    let mut field = CellField::new(shape, 0u32);
    let before: Vec<u32> = field.states().to_vec();
    let mut engine = Engine::sequential().with_instrumentation(Instrumentation::Validate);
    let err = engine.step(&mut field, &StrayWrite, 4, 0).unwrap_err();
    assert_eq!(
        err,
        GcaError::DomainViolation {
            rule: "stray-write".into(),
            cell: 6,
            generation: 0,
            phase: 4,
            kind: DomainViolationKind::Write,
        }
    );
    // A rejected generation must not commit.
    assert_eq!(field.states(), &before[..]);
}

/// A rule that maintains its own mirror of the field and reads the
/// *current* generation from it: evolve(i) publishes its new state to the
/// mirror, then cell i+1 reads that freshly written value — exactly the
/// torn read the double-buffered snapshot contract forbids.
struct CurrentGenRead {
    mirror: Vec<AtomicU32>,
}

impl GcaRule for CurrentGenRead {
    type State = u32;

    fn access(&self, _ctx: &StepCtx, _shape: &FieldShape, _index: usize, _own: &u32) -> Access {
        Access::None
    }

    fn evolve(
        &self,
        _ctx: &StepCtx,
        _shape: &FieldShape,
        index: usize,
        own: &u32,
        _reads: Reads<'_, u32>,
    ) -> u32 {
        // "Read" the left neighbor through the mirror: in evaluation order
        // the mirror already carries this generation's traffic, not the
        // snapshot. The publish accumulates (like a real write port), so
        // the value observed depends on how often the neighbor has fired.
        let new = match index.checked_sub(1) {
            Some(left) => self.mirror[left].load(Ordering::Relaxed) + 1,
            None => own + 1,
        };
        self.mirror[index].fetch_add(new, Ordering::Relaxed);
        new
    }

    fn name(&self) -> &str {
        "current-gen-read"
    }
}

#[test]
fn sanitizer_reports_current_generation_read_with_cell_and_generation() {
    let shape = FieldShape::new(1, 4).unwrap();
    let mut field = CellField::new(shape, 0u32);
    let rule = CurrentGenRead {
        mirror: (0..4).map(|_| AtomicU32::new(0)).collect(),
    };
    let mut engine = Engine::sequential().with_instrumentation(Instrumentation::Validate);
    let err = engine.step(&mut field, &rule, 2, 1).unwrap_err();
    match err {
        GcaError::TornRead { rule, cell, generation, phase } => {
            assert_eq!(rule, "current-gen-read");
            // Cell 0 is pure (reads only `own`); the first torn cell is 1.
            assert_eq!(cell, 1);
            assert_eq!(generation, 0);
            assert_eq!(phase, 2);
        }
        other => panic!("expected TornRead, got {other:?}"),
    }
    assert_eq!(field.states(), &[0, 0, 0, 0]);
}

/// A rule whose domain hint lies by omission: out-of-domain cells keep
/// their state (no stray write) but cell 5 still issues a global read —
/// a cheat hinted stepping would silently reward with a wrong histogram.
struct HintLiar;

impl GcaRule for HintLiar {
    type State = u32;

    fn access(&self, _ctx: &StepCtx, _shape: &FieldShape, index: usize, _own: &u32) -> Access {
        if index == 5 {
            Access::One(0)
        } else {
            Access::None
        }
    }

    fn evolve(
        &self,
        _ctx: &StepCtx,
        _shape: &FieldShape,
        _index: usize,
        own: &u32,
        _reads: Reads<'_, u32>,
    ) -> u32 {
        *own
    }

    fn is_active(&self, _ctx: &StepCtx, _shape: &FieldShape, index: usize, _own: &u32) -> bool {
        index < 4
    }

    fn domain(&self, _ctx: &StepCtx, _shape: &FieldShape) -> Domain {
        Domain::Rows(0..1)
    }

    fn name(&self) -> &str {
        "hint-liar"
    }
}

#[test]
fn sanitizer_reports_out_of_domain_read() {
    // Cell 5 (row 1) reads cell 0 while hinted out of domain.
    let shape = FieldShape::new(2, 4).unwrap();
    let mut field = CellField::new(shape, 0u32);
    let mut engine = Engine::sequential().with_instrumentation(Instrumentation::Validate);
    let err = engine.step(&mut field, &HintLiar, 0, 0).unwrap_err();
    assert_eq!(
        err,
        GcaError::DomainViolation {
            rule: "hint-liar".into(),
            cell: 5,
            generation: 0,
            phase: 0,
            kind: DomainViolationKind::Read,
        }
    );
}

/// A rule honest about writes and reads whose only lie is activity
/// accounting outside its domain.
struct ActiveLiar;

impl GcaRule for ActiveLiar {
    type State = u32;

    fn access(&self, _ctx: &StepCtx, _shape: &FieldShape, _index: usize, _own: &u32) -> Access {
        Access::None
    }

    fn evolve(
        &self,
        _ctx: &StepCtx,
        _shape: &FieldShape,
        _index: usize,
        own: &u32,
        _reads: Reads<'_, u32>,
    ) -> u32 {
        *own
    }

    fn is_active(&self, _ctx: &StepCtx, _shape: &FieldShape, index: usize, _own: &u32) -> bool {
        index == 7
    }

    fn domain(&self, _ctx: &StepCtx, _shape: &FieldShape) -> Domain {
        Domain::Rows(0..1)
    }

    fn name(&self) -> &str {
        "active-liar"
    }
}

#[test]
fn sanitizer_reports_active_lie() {
    let shape = FieldShape::new(2, 4).unwrap();
    let mut field = CellField::new(shape, 0u32);
    let mut engine = Engine::sequential().with_instrumentation(Instrumentation::Validate);
    let err = engine.step(&mut field, &ActiveLiar, 9, 0).unwrap_err();
    assert_eq!(
        err,
        GcaError::DomainViolation {
            rule: "active-liar".into(),
            cell: 7,
            generation: 0,
            phase: 9,
            kind: DomainViolationKind::Active,
        }
    );
}

#[test]
fn fused_replay_catches_seeded_kernel_mutation() {
    // A correct fused run passes the cross-check against the reference
    // engine...
    let g = generators::gnp(10, 0.4, 21);
    let validated = || {
        Machine::with_engine(
            &g,
            Engine::sequential().with_instrumentation(Instrumentation::Validate),
        )
        .unwrap()
        .with_exec(ExecPath::Fused)
    };
    let mut m = validated();
    m.init().unwrap();
    m.run_iteration().unwrap();

    // ...a mutated sweep (one flipped bit in T′(2)) is pinpointed inside
    // the first iteration...
    let mut m = validated();
    m.init().unwrap();
    m.seed_sweep_fault(SweepFault::FlipT(2));
    let last = total_generations(10) / u64::from(ceil_log2(10));
    match m.run_iteration().unwrap_err() {
        GcaError::KernelDivergence { cell, generation, phase } => {
            assert!(cell < 10 * 11, "cell {cell} outside the field");
            assert!(generation <= last, "not in the first iteration: {generation}");
            assert!(phase >= Gen::PointerJump.number(), "caught before the chases: {phase}");
        }
        other => panic!("expected KernelDivergence, got {other:?}"),
    }

    // ...and a corrupted cell in a generation the fused path hands to the
    // engine (an armed fault plan is observation) is pinpointed by the
    // invariant checker in the generation it lands.
    let mut m = validated();
    m.init().unwrap();
    let target = 2;
    m.set_fault_plan(Some(FaultPlan::new(FaultKind::BitFlip { bit: 0 }, 1, target)));
    match m.run_iteration().unwrap_err() {
        GcaError::InvariantViolation { cell, generation, phase, .. } => {
            assert_eq!(cell, target);
            assert_eq!(generation, 1, "fault lands on the first post-init generation");
            assert_eq!(phase, Gen::BroadcastC.number());
        }
        other => panic!("expected InvariantViolation, got {other:?}"),
    }
}

#[test]
fn error_messages_are_actionable() {
    // Every error names the entities involved; spot-check the formats used
    // in logs.
    let e = GcaError::PointerOutOfRange { cell: 1, target: 9, len: 4, generation: 3 };
    let s = e.to_string();
    assert!(s.contains("cell 1") && s.contains('9') && s.contains("generation 3"));

    let e = PramError::OwnerViolation { addr: 2, proc: 0, owner: 1 };
    let s = e.to_string();
    assert!(s.contains("processor 0") && s.contains("address 2"));
}

// --- Static-analysis layers (gca-analysis + gca-lint) -----------------------
//
// The same principle as above, one level up: the verification layers
// themselves must *detect* seeded violations, not vacuously pass.

#[test]
fn symbolic_layer_detects_a_perturbed_coefficient() {
    use gca_analysis::symbolic::{self, Monomial, Quantity, Rat, SymbolicError};

    let mut model = symbolic::derive().expect("derivation succeeds");
    // The paper's total is 1 + log n·(3 log n + 8); bump the "3".
    let sq_log = Monomial { n_pow: 0, log_pow: 2 };
    model.total_generations.set_coefficient(sq_log, Rat::integer(4));
    let err = symbolic::verify(&model, 12).expect_err("perturbation must be caught");
    match err {
        SymbolicError::CoefficientMismatch { quantity, monomial, derived, expected, .. } => {
            assert_eq!(quantity, Quantity::TotalGenerations);
            assert_eq!(monomial, sq_log);
            assert_eq!(derived, Rat::integer(4));
            assert_eq!(expected, Rat::integer(3));
        }
        other => panic!("expected CoefficientMismatch, got {other:?}"),
    }
}

#[test]
fn modelcheck_layer_detects_each_seeded_fault_class() {
    use gca_analysis::modelcheck::{self, Fault, ModelCheckViolation};

    let label = modelcheck::check_all_seeded(2, Some(Fault::WrongLabel))
        .expect_err("label fault must surface");
    assert!(matches!(label.violation, ModelCheckViolation::Labels { .. }), "{label}");

    let gens = modelcheck::check_all_seeded(2, Some(Fault::WrongGenerationCount))
        .expect_err("generation fault must surface");
    assert!(
        matches!(gens.violation, ModelCheckViolation::Generations { .. }),
        "{gens}"
    );

    let detect = modelcheck::check_all_seeded(2, Some(Fault::DetectMismatch))
        .expect_err("detect fault must surface");
    assert!(
        matches!(detect.violation, ModelCheckViolation::DetectLabels { .. }),
        "{detect}"
    );
}

#[test]
fn lint_layer_detects_a_seeded_violation_of_each_rule() {
    use gca_lint::{lint_source, FileClass, RuleId};

    let class = FileClass {
        library: true,
        hot_path: true,
        word_home: false,
    };
    let seeded = [
        (RuleId::NoUnwrap, "fn f() { x.unwrap(); }"),
        (RuleId::TruncatingCast, "fn f(x: u64) -> u32 { x as u32 }"),
        (
            RuleId::RuleFieldAccess,
            "impl GcaRule for R { fn g(&self, f: &F) { f.states_mut(); } }",
        ),
        (RuleId::WordWidth, "fn f(i: usize) -> usize { i / 64 }"),
        (RuleId::WordWidth, "fn f(lane: u32) -> u64 { 1u64 << lane }"),
    ];
    for (rule, src) in seeded {
        let (violations, _) = lint_source("seeded.rs", src, class);
        assert!(
            violations.iter().any(|v| v.rule == rule),
            "rule {rule} missed its seeded violation in {src:?}: {violations:?}"
        );
    }
}

#[test]
fn lint_config_rejects_unknown_rules() {
    use gca_lint::{ConfigError, LintConfig};

    let err = LintConfig::parse("[allow.no-such-rule]\npaths = []\n")
        .expect_err("typo in lint.toml must not silently allow nothing");
    assert!(matches!(err, ConfigError::UnknownRule { .. }), "{err}");
}
