//! The Hirschberg machine as a [`Recoverable`] unit-of-work provider —
//! the algorithm half of the checkpoint/rollback recovery stack.
//!
//! The engine's [`gca_engine::recovery::Supervisor`] is
//! algorithm-agnostic: it drives anything that can re-execute itself in
//! *units* from captured checkpoints. For the Hirschberg schedule the
//! natural unit is one **outer iteration** (generations 1–11 with their
//! sub-generations): every generation reads only the previous
//! generation's committed state, so an iteration boundary is a
//! consistent cut — a snapshot there plus the engine's generation
//! counter reconstructs the machine exactly, including (under counting
//! instrumentation) a metrics log bit-identical to an undisturbed run.
//!
//! [`SupervisedMachine`] also carries the **degradation ladder**: the
//! three execution paths are bit-identical in labels and `Counts`
//! metrics (a property the test suite and the differential replay
//! harness enforce), so when a rung keeps diverging the supervisor can
//! step down
//!
//! ```text
//! fused-par → fused → generic
//! ```
//!
//! and re-execute the faulted span on a less-optimized but
//! semantically identical path. A sticky fault bound to an upper rung
//! (see [`gca_engine::faults::Persistence::Sticky`]) stops firing once
//! the ladder drops below its level — the model of a fault living in
//! an optimized kernel's own machinery.

use crate::complexity::ceil_log2;
use crate::{ExecPath, HCell, Machine};
use gca_engine::recovery::{Checkpoint, Recoverable};
use gca_engine::{Engine, GcaError};
use gca_graphs::{AdjacencyMatrix, Labeling};

/// Stable rung name of an execution path (report vocabulary).
pub fn rung_name(exec: ExecPath) -> &'static str {
    match exec {
        ExecPath::Generic => "generic",
        ExecPath::Fused => "fused",
        ExecPath::FusedParallel(_) => "fused-par",
    }
}

/// The rung one below `exec` on the degradation ladder, or `None` at
/// the bottom.
pub fn degraded(exec: ExecPath) -> Option<ExecPath> {
    match exec {
        ExecPath::FusedParallel(_) => Some(ExecPath::Fused),
        ExecPath::Fused => Some(ExecPath::Generic),
        ExecPath::Generic => None,
    }
}

/// A [`Machine`] packaged as the [`Recoverable`] the engine-level
/// supervisor drives. [`Recoverable::start`] re-seeds the machine from
/// the graph it holds on every (re)start.
pub struct SupervisedMachine {
    machine: Machine,
}

impl SupervisedMachine {
    /// Builds a supervised machine for `graph` with an explicit engine
    /// and execution path.
    pub fn new(graph: &AdjacencyMatrix, engine: Engine, exec: ExecPath) -> Result<Self, GcaError> {
        let machine = Machine::with_engine(graph, engine)?.with_exec(exec);
        Ok(SupervisedMachine { machine })
    }

    /// Wraps an already-configured machine (fault plan, schedule, …).
    pub fn from_machine(machine: Machine) -> Self {
        SupervisedMachine { machine }
    }

    /// The wrapped machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable access to the wrapped machine (arming fault plans,
    /// inspecting metrics between supervised runs).
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// Consumes the wrapper, returning the machine.
    pub fn into_machine(self) -> Machine {
        self.machine
    }

    /// The final labeling of a completed supervised run.
    pub fn labels(&self) -> Result<Labeling, GcaError> {
        self.machine.labels()
    }
}

impl Recoverable for SupervisedMachine {
    type Cell = HCell;

    fn total_units(&self) -> u64 {
        u64::from(ceil_log2(self.machine.n()))
    }

    fn start(&mut self) -> Result<(), GcaError> {
        self.machine.reset();
        self.machine.init()?;
        Ok(())
    }

    fn run_unit(&mut self) -> Result<(), GcaError> {
        self.machine.run_iteration()?;
        Ok(())
    }

    fn generations(&self) -> u64 {
        self.machine.generations()
    }

    fn capture(&self, unit: u64) -> Checkpoint<HCell> {
        Checkpoint {
            unit,
            generation: self.machine.generations(),
            snapshot: self.machine.snapshot(),
        }
    }

    fn rollback(&mut self, checkpoint: &Checkpoint<HCell>) -> Result<(), GcaError> {
        self.machine
            .rollback_to(checkpoint.generation, &checkpoint.snapshot)
    }

    fn rung(&self) -> &'static str {
        rung_name(self.machine.exec())
    }

    fn degrade(&mut self) -> Option<&'static str> {
        let next = degraded(self.machine.exec())?;
        self.machine.set_exec(next);
        Some(rung_name(next))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gca_engine::faults::{FaultKind, FaultPlan, FaultSpec};
    use gca_engine::recovery::{RecoveryOutcome, RecoveryPolicy, Supervisor};
    use gca_engine::Instrumentation;
    use gca_graphs::connectivity::union_find_components_dense;
    use gca_graphs::generators;

    fn validate_engine() -> Engine {
        Engine::sequential().with_instrumentation(Instrumentation::Validate)
    }

    #[test]
    fn ladder_walks_all_three_rungs() {
        let mut exec = ExecPath::fused_parallel(0);
        let mut names = vec![rung_name(exec)];
        while let Some(next) = degraded(exec) {
            names.push(rung_name(next));
            exec = next;
        }
        assert_eq!(names, ["fused-par", "fused", "generic"]);
    }

    #[test]
    fn clean_supervised_run_matches_union_find() {
        let g = generators::gnp(24, 0.15, 11);
        let expected = union_find_components_dense(&g);
        let mut sm =
            SupervisedMachine::new(&g, validate_engine(), ExecPath::fused_parallel(2)).unwrap();
        let report = Supervisor::default().run(&mut sm);
        assert!(matches!(report.outcome, RecoveryOutcome::Clean), "{report}");
        assert_eq!(sm.labels().unwrap().as_slice(), expected.as_slice());
        assert_eq!(report.final_rung, "fused-par");
    }

    #[test]
    fn transient_fault_recovers_under_retry_with_identical_labels() {
        let g = generators::path(24);
        let expected = union_find_components_dense(&g);
        // A clean run's metrics are the bit-identity reference.
        let mut clean =
            SupervisedMachine::new(&g, validate_engine(), ExecPath::Fused).unwrap();
        let clean_report = Supervisor::default().run(&mut clean);
        assert!(matches!(clean_report.outcome, RecoveryOutcome::Clean));

        let mut sm = SupervisedMachine::new(&g, validate_engine(), ExecPath::Fused).unwrap();
        // Flip a label bit in the middle of the second iteration.
        let gens_per_iter = (clean.machine().generations() - 1) / 5;
        let target = 1 + gens_per_iter + 3;
        sm.machine_mut()
            .set_fault_plan(Some(FaultPlan::new(FaultKind::BitFlip { bit: 0 }, target, 5)));
        let report = Supervisor::new(RecoveryPolicy::Retry { max_attempts: 3 }).run(&mut sm);
        assert!(matches!(report.outcome, RecoveryOutcome::Recovered), "{report}");
        // The fault plan routes the fused path to the engine, whose
        // generations the invariant checker judges.
        assert_eq!(report.first_detector(), Some("invariant-checker"));
        assert!(report.checkpoints_restored >= 1);
        assert_eq!(sm.labels().unwrap().as_slice(), expected.as_slice());
        assert_eq!(
            sm.machine().metrics().entries(),
            clean.machine().metrics().entries(),
            "recovered metrics must be bit-identical to a clean run"
        );
    }

    #[test]
    fn from_machine_recovers_bit_identically() {
        // The wrapper holds nothing but the machine: every (re)start
        // re-seeds it from its own graph, so a recovered run ends exactly
        // where a clean one does.
        let g = generators::gnp(20, 0.15, 4);
        let machine = || {
            Machine::with_engine(&g, validate_engine())
                .unwrap()
                .with_exec(ExecPath::Fused)
        };
        let mut clean = SupervisedMachine::from_machine(machine());
        let clean_report = Supervisor::default().run(&mut clean);
        assert!(matches!(clean_report.outcome, RecoveryOutcome::Clean));
        let mut faulted = machine();
        faulted.set_fault_plan(Some(FaultPlan::new(FaultKind::BitFlip { bit: 0 }, 9, 4)));
        let mut sm = SupervisedMachine::from_machine(faulted);
        let report = Supervisor::new(RecoveryPolicy::Retry { max_attempts: 3 }).run(&mut sm);
        assert!(matches!(report.outcome, RecoveryOutcome::Recovered), "{report}");
        let (got, want) = (sm.into_machine(), clean.into_machine());
        assert_eq!(got.labels(), want.labels());
        assert_eq!(got.generations(), want.generations());
        assert_eq!(got.metrics().entries(), want.metrics().entries());
        assert_eq!(got.to_field().states(), want.to_field().states());
    }

    #[test]
    fn sticky_fault_degrades_off_the_faulty_rung() {
        let g = generators::path(20);
        let expected = union_find_components_dense(&g);
        let mut sm =
            SupervisedMachine::new(&g, validate_engine(), ExecPath::fused_parallel(2)).unwrap();
        // Sticky at the top rung: fires on every re-execution until the
        // ladder drops below fused-par.
        let plan = FaultSpec::parse("bitflip@5.3.1:sticky")
            .unwrap()
            .resolve(sm.machine().layout().cells(), 100, sm.machine().exec_level())
            .unwrap();
        sm.machine_mut().set_fault_plan(Some(plan));
        let report = Supervisor::new(RecoveryPolicy::Degrade).run(&mut sm);
        assert!(matches!(report.outcome, RecoveryOutcome::Recovered), "{report}");
        assert_eq!(report.initial_rung, "fused-par");
        assert_eq!(report.final_rung, "fused");
        assert_eq!(report.degradations, 1);
        assert_eq!(sm.labels().unwrap().as_slice(), expected.as_slice());
    }

    #[test]
    fn generic_path_detects_via_invariant_checker() {
        let g = generators::path(16);
        let expected = union_find_components_dense(&g);
        let mut sm =
            SupervisedMachine::new(&g, validate_engine(), ExecPath::Generic).unwrap();
        sm.machine_mut()
            .set_fault_plan(Some(FaultPlan::new(FaultKind::BitFlip { bit: 2 }, 7, 9)));
        let report = Supervisor::new(RecoveryPolicy::Retry { max_attempts: 3 }).run(&mut sm);
        assert!(matches!(report.outcome, RecoveryOutcome::Recovered), "{report}");
        assert_eq!(report.first_detector(), Some("invariant-checker"));
        assert_eq!(sm.labels().unwrap().as_slice(), expected.as_slice());
    }

    #[test]
    fn fail_policy_propagates_the_detection() {
        let g = generators::path(16);
        let mut sm = SupervisedMachine::new(&g, validate_engine(), ExecPath::Fused).unwrap();
        sm.machine_mut()
            .set_fault_plan(Some(FaultPlan::new(FaultKind::BitFlip { bit: 0 }, 7, 9)));
        let report = Supervisor::new(RecoveryPolicy::Fail).run(&mut sm);
        assert!(matches!(report.outcome, RecoveryOutcome::Exhausted(_)), "{report}");
        assert_eq!(report.checkpoints_restored, 0);
    }
}
