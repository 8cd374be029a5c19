//! Checkpoint/rollback recovery: a generation-granular checkpoint ring
//! and a [`Supervisor`] run loop that turns the detectors built in the
//! validation layers into a detect → rollback → retry → degrade pipeline.
//!
//! The engine dies on first detection by design — a detected divergence
//! means the machine state can no longer be trusted. What *can* be
//! trusted is an earlier checkpoint: Hirschberg's schedule only ever
//! reads the previous generation, so restoring a committed iteration
//! boundary and re-executing from there is semantically invisible (the
//! re-executed generations recompute bit-identical state, metrics
//! included). The supervisor drives that loop over any [`Recoverable`]
//! machine: it takes checkpoints on a cadence into a bounded ring, and
//! on failure applies a [`RecoveryPolicy`] — retry the latest
//! checkpoint, walk further back, or degrade the execution path one rung
//! down the ladder (fused → generic) when the
//! same frontier keeps diverging, which routes around a persistently
//! broken functional unit.
//!
//! The concrete machine lives one crate up (`gca-hirschberg`); the
//! supervisor only needs the small [`Recoverable`] surface, so the
//! recovery semantics stay engine-level and testable against a stub.

use crate::snapshot::FieldSnapshot;
use crate::GcaError;
use serde::{Serialize, Value};
use std::collections::VecDeque;
use std::fmt;

/// One committed recovery point: the full field state at a unit (outer
/// iteration) boundary, plus the coordinates needed to rewind bookkeeping.
#[derive(Clone, Debug)]
pub struct Checkpoint<S> {
    /// Completed units (outer iterations) at capture time.
    pub unit: u64,
    /// Engine generation counter at capture time.
    pub generation: u64,
    /// The complete field state.
    pub snapshot: FieldSnapshot<S>,
}

/// What the supervisor does when a detector reports a failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Propagate the first failure unchanged (the pre-supervisor
    /// behavior).
    Fail,
    /// Roll back to the latest checkpoint and re-execute, up to
    /// `max_attempts` consecutive failures without forward progress.
    Retry {
        /// Consecutive no-progress failures tolerated before giving up.
        max_attempts: u32,
    },
    /// Roll back `to_checkpoint` ring entries behind the newest (1 =
    /// the latest checkpoint, 2 = one older, …, clamped to the oldest
    /// retained) on each failure. Gives a transient fault that keeps
    /// hitting the same frontier a chance to land in re-executed —
    /// hence differently timed — territory.
    Rollback {
        /// How many ring entries back to restore from.
        to_checkpoint: usize,
    },
    /// Retry the latest checkpoint once; on repeated divergence at the
    /// same frontier, degrade the execution path one rung down the
    /// ladder and re-execute. A machine at the bottom rung (generic)
    /// that still diverges is exhausted.
    Degrade,
}

/// Consecutive no-progress failures tolerated by
/// [`RecoveryPolicy::Rollback`] before the run is declared exhausted
/// (each one restores a checkpoint, so unbounded retries could loop
/// forever on a sticky fault).
pub const MAX_ROLLBACK_ATTEMPTS: u32 = 8;

/// Failures at the same frontier before [`RecoveryPolicy::Degrade`]
/// steps down a rung: the first failure gets one clean retry (a
/// transient fault heals), the second proves the rung itself is broken.
pub const FAILURES_PER_RUNG: u32 = 2;

/// The minimal machine surface the [`Supervisor`] drives.
///
/// A unit is the machine's natural re-executable quantum — for the
/// Hirschberg machine, one outer iteration (the schedule only reads the
/// previous generation, so iteration boundaries are consistent cuts).
pub trait Recoverable {
    /// Cell state stored in checkpoints.
    type Cell: Clone;

    /// Units a complete run executes.
    fn total_units(&self) -> u64;

    /// (Re)initializes the machine from scratch: after this, unit 0 has
    /// completed nothing and generation 0 (init) has run.
    fn start(&mut self) -> Result<(), GcaError>;

    /// Executes the next unit from the machine's current state.
    fn run_unit(&mut self) -> Result<(), GcaError>;

    /// Generations committed so far (for attempt logging).
    fn generations(&self) -> u64;

    /// Captures the current state as a checkpoint for `unit` completed
    /// units. Only called at unit boundaries.
    fn capture(&self, unit: u64) -> Checkpoint<Self::Cell>;

    /// Restores a checkpoint: field state, generation counter and
    /// per-generation bookkeeping (metrics) all rewind to capture time.
    fn rollback(&mut self, checkpoint: &Checkpoint<Self::Cell>) -> Result<(), GcaError>;

    /// The current execution rung's stable name (for reports).
    fn rung(&self) -> &'static str;

    /// Steps the execution path one rung down the ladder; returns the
    /// new rung's name, or `None` when already at the bottom.
    fn degrade(&mut self) -> Option<&'static str>;
}

/// One detected failure, as recorded in the attempt log.
#[derive(Clone, Debug)]
pub struct FaultEvent {
    /// Units completed when the failure surfaced.
    pub unit: u64,
    /// Engine generation counter at failure time (committed generations).
    pub generation: u64,
    /// Execution rung the machine ran on.
    pub rung: &'static str,
    /// Which detector caught it (see [`GcaError::detector`]).
    pub detector: &'static str,
    /// The full error text.
    pub error: String,
}

/// How a supervised run ended.
#[derive(Clone, Debug)]
pub enum RecoveryOutcome {
    /// No detector fired; the run completed on the first attempt.
    Clean,
    /// At least one failure was detected and recovered from; the run
    /// completed.
    Recovered,
    /// The policy's budget was exhausted (or the policy was
    /// [`RecoveryPolicy::Fail`]); carries the final error.
    Exhausted(GcaError),
}

/// The typed record of a supervised run: every detected fault, every
/// restored checkpoint, the degradation trail and the final state.
#[derive(Clone, Debug)]
pub struct RecoveryReport {
    /// Every detected failure, in order.
    pub attempts: Vec<FaultEvent>,
    /// Checkpoints captured over the run (re-captures after rollback
    /// included).
    pub checkpoints_taken: u32,
    /// Checkpoints restored (= rollbacks performed).
    pub checkpoints_restored: u32,
    /// Generation counter of the last restored checkpoint, if any.
    pub restored_generation: Option<u64>,
    /// Execution rung the run started on.
    pub initial_rung: &'static str,
    /// Execution rung the run finished (or gave up) on.
    pub final_rung: &'static str,
    /// Rungs stepped down by [`RecoveryPolicy::Degrade`].
    pub degradations: u32,
    /// How the run ended.
    pub outcome: RecoveryOutcome,
}

impl RecoveryReport {
    /// Whether the run produced trustworthy final state (clean or
    /// recovered).
    pub fn completed(&self) -> bool {
        !matches!(self.outcome, RecoveryOutcome::Exhausted(_))
    }

    /// The terminal error of an exhausted run.
    pub fn failure(&self) -> Option<&GcaError> {
        match &self.outcome {
            RecoveryOutcome::Exhausted(e) => Some(e),
            _ => None,
        }
    }

    /// The detector that caught the first fault, if any fired.
    pub fn first_detector(&self) -> Option<&'static str> {
        self.attempts.first().map(|a| a.detector)
    }
}

impl fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.outcome {
            RecoveryOutcome::Clean => write!(f, "clean run on {}", self.final_rung)?,
            RecoveryOutcome::Recovered => write!(
                f,
                "recovered: {} fault(s) detected, {} checkpoint(s) restored, final path {}",
                self.attempts.len(),
                self.checkpoints_restored,
                self.final_rung
            )?,
            RecoveryOutcome::Exhausted(e) => write!(
                f,
                "recovery exhausted after {} fault(s) on {}: {e}",
                self.attempts.len(),
                self.final_rung
            )?,
        }
        for a in &self.attempts {
            write!(
                f,
                "\n  fault at unit {} generation {} on {} caught by {}: {}",
                a.unit, a.generation, a.rung, a.detector, a.error
            )?;
        }
        Ok(())
    }
}

// Hand-written for the vendored offline serde (no derive macros); the
// CLI embeds the report in its JSON output and the campaign exporter
// stores one per grid cell.
impl Serialize for RecoveryReport {
    fn to_json_value(&self) -> Value {
        let attempts: Vec<Value> = self
            .attempts
            .iter()
            .map(|a| {
                Value::Object(vec![
                    ("unit".to_string(), a.unit.to_json_value()),
                    ("generation".to_string(), a.generation.to_json_value()),
                    ("rung".to_string(), a.rung.to_json_value()),
                    ("detector".to_string(), a.detector.to_json_value()),
                    ("error".to_string(), a.error.to_json_value()),
                ])
            })
            .collect();
        let outcome = match &self.outcome {
            RecoveryOutcome::Clean => "clean".to_string(),
            RecoveryOutcome::Recovered => "recovered".to_string(),
            RecoveryOutcome::Exhausted(e) => format!("exhausted: {e}"),
        };
        Value::Object(vec![
            ("outcome".to_string(), outcome.to_json_value()),
            ("attempts".to_string(), Value::Array(attempts)),
            (
                "checkpoints_taken".to_string(),
                self.checkpoints_taken.to_json_value(),
            ),
            (
                "checkpoints_restored".to_string(),
                self.checkpoints_restored.to_json_value(),
            ),
            (
                "restored_generation".to_string(),
                match self.restored_generation {
                    Some(g) => g.to_json_value(),
                    None => Value::Null,
                },
            ),
            (
                "initial_rung".to_string(),
                self.initial_rung.to_json_value(),
            ),
            ("final_rung".to_string(), self.final_rung.to_json_value()),
            (
                "degradations".to_string(),
                self.degradations.to_json_value(),
            ),
        ])
    }
}

/// The recovery run loop: checkpoints on a cadence into a bounded ring,
/// rolls back and/or degrades on detected failures per the configured
/// [`RecoveryPolicy`].
#[derive(Clone, Copy, Debug)]
pub struct Supervisor {
    /// What to do on a detected failure.
    pub policy: RecoveryPolicy,
    /// Checkpoint every `cadence` completed units (≥ 1).
    pub cadence: u64,
    /// Checkpoints retained in the ring (≥ 1; older ones are evicted).
    pub ring: usize,
}

impl Default for Supervisor {
    fn default() -> Self {
        Supervisor {
            policy: RecoveryPolicy::Retry { max_attempts: 3 },
            cadence: 1,
            ring: 4,
        }
    }
}

impl Supervisor {
    /// A supervisor with the given policy and default cadence/ring.
    pub fn new(policy: RecoveryPolicy) -> Self {
        Supervisor {
            policy,
            ..Supervisor::default()
        }
    }

    /// Sets the checkpoint cadence in units (clamped to ≥ 1).
    #[must_use]
    pub fn with_cadence(mut self, cadence: u64) -> Self {
        self.cadence = cadence.max(1);
        self
    }

    /// Sets the checkpoint ring size (clamped to ≥ 1).
    #[must_use]
    pub fn with_ring(mut self, ring: usize) -> Self {
        self.ring = ring.max(1);
        self
    }

    /// Drives `machine` to completion under this supervisor's policy.
    ///
    /// The machine is (re)initialized via [`Recoverable::start`], a
    /// checkpoint of the post-init state anchors the ring (so even a
    /// unit-0 failure has somewhere to roll back to), and units execute
    /// until [`Recoverable::total_units`] complete or the policy's
    /// budget runs out. The report records every detected fault, which
    /// detector caught it, every restored checkpoint and the final
    /// execution rung.
    pub fn run<M: Recoverable>(&self, machine: &mut M) -> RecoveryReport {
        let initial_rung = machine.rung();
        let mut report = RecoveryReport {
            attempts: Vec::new(),
            checkpoints_taken: 0,
            checkpoints_restored: 0,
            restored_generation: None,
            initial_rung,
            final_rung: initial_rung,
            degradations: 0,
            outcome: RecoveryOutcome::Clean,
        };
        let fail = |mut report: RecoveryReport, e: GcaError, rung: &'static str| {
            report.final_rung = rung;
            report.outcome = RecoveryOutcome::Exhausted(e);
            report
        };
        if let Err(e) = machine.start() {
            // Initialization reads only the input graph; a fault there has
            // no earlier consistent state to roll back to.
            return fail(report, e, machine.rung());
        }
        let cadence = self.cadence.max(1);
        let ring_cap = self.ring.max(1);
        let mut ring: VecDeque<Checkpoint<M::Cell>> = VecDeque::with_capacity(ring_cap);
        ring.push_back(machine.capture(0));
        report.checkpoints_taken += 1;
        let total = machine.total_units();
        let mut unit = 0u64;
        // Highest unit ever completed: finishing a new one is forward
        // progress and resets the no-progress failure counter.
        let mut best = 0u64;
        let mut failures = 0u32;
        while unit < total {
            match machine.run_unit() {
                Ok(()) => {
                    unit += 1;
                    if unit > best {
                        best = unit;
                        failures = 0;
                    }
                    if unit.is_multiple_of(cadence) && unit < total {
                        if ring.len() == ring_cap {
                            ring.pop_front();
                        }
                        ring.push_back(machine.capture(unit));
                        report.checkpoints_taken += 1;
                    }
                }
                Err(e) => {
                    failures += 1;
                    report.attempts.push(FaultEvent {
                        unit,
                        generation: machine.generations(),
                        rung: machine.rung(),
                        detector: e.detector(),
                        error: e.to_string(),
                    });
                    let back = match self.policy {
                        RecoveryPolicy::Fail => return fail(report, e, machine.rung()),
                        RecoveryPolicy::Retry { max_attempts } => {
                            if failures > max_attempts {
                                return fail(report, e, machine.rung());
                            }
                            1
                        }
                        RecoveryPolicy::Rollback { to_checkpoint } => {
                            if failures > MAX_ROLLBACK_ATTEMPTS {
                                return fail(report, e, machine.rung());
                            }
                            to_checkpoint.max(1)
                        }
                        RecoveryPolicy::Degrade => {
                            if failures >= FAILURES_PER_RUNG {
                                match machine.degrade() {
                                    Some(_) => {
                                        report.degradations += 1;
                                        failures = 0;
                                    }
                                    None => return fail(report, e, machine.rung()),
                                }
                            }
                            1
                        }
                    };
                    // `back` entries behind the newest, clamped to the
                    // oldest retained; the post-init anchor is never
                    // evicted before a later checkpoint replaces it.
                    let idx = ring.len().saturating_sub(back);
                    let cp = &ring[idx];
                    if let Err(e) = machine.rollback(cp) {
                        // A checkpoint that cannot be restored is a bug in
                        // the machine, not a recoverable fault.
                        return fail(report, e, machine.rung());
                    }
                    report.checkpoints_restored += 1;
                    report.restored_generation = Some(cp.generation);
                    unit = cp.unit;
                    // Checkpoints past the restored frontier describe a
                    // timeline that no longer exists.
                    ring.truncate(idx + 1);
                }
            }
        }
        report.final_rung = machine.rung();
        if !report.attempts.is_empty() {
            report.outcome = RecoveryOutcome::Recovered;
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CellField, FieldShape};

    /// A stub machine: `units` counters that each increment one cell per
    /// unit, with a scripted failure pattern.
    struct Stub {
        field: CellField<u32>,
        generation: u64,
        unit: u64,
        units: u64,
        rung: usize,
        /// `(unit, rung_min)` pairs: running `unit` fails while the rung
        /// index is ≥ `rung_min`, consuming one entry per failure for
        /// transient scripting (`u32::MAX` count = sticky).
        failures: Vec<(u64, usize, u32)>,
    }

    const RUNGS: [&str; 2] = ["fused", "generic"];

    impl Stub {
        fn new(units: u64) -> Self {
            let shape = FieldShape::new(1, 4).unwrap();
            Stub {
                field: CellField::new(shape, 0),
                generation: 0,
                unit: 0,
                units,
                rung: 0,
                failures: Vec::new(),
            }
        }
    }

    impl Recoverable for Stub {
        type Cell = u32;

        fn total_units(&self) -> u64 {
            self.units
        }

        fn start(&mut self) -> Result<(), GcaError> {
            self.field.states_mut().fill(0);
            self.generation = 1;
            self.unit = 0;
            Ok(())
        }

        fn run_unit(&mut self) -> Result<(), GcaError> {
            let unit = self.unit;
            for (fu, rung_min, count) in self.failures.iter_mut() {
                if *fu == unit && self.rung >= *rung_min && *count > 0 {
                    if *count != u32::MAX {
                        *count -= 1;
                    }
                    return Err(GcaError::KernelDivergence {
                        cell: 0,
                        generation: self.generation,
                        phase: 0,
                    });
                }
            }
            self.field.states_mut()[0] += 1;
            self.generation += 1;
            self.unit += 1;
            Ok(())
        }

        fn generations(&self) -> u64 {
            self.generation
        }

        fn capture(&self, unit: u64) -> Checkpoint<u32> {
            Checkpoint {
                unit,
                generation: self.generation,
                snapshot: FieldSnapshot::capture(&self.field),
            }
        }

        fn rollback(&mut self, cp: &Checkpoint<u32>) -> Result<(), GcaError> {
            self.field = cp.snapshot.restore()?;
            self.generation = cp.generation;
            self.unit = cp.unit;
            Ok(())
        }

        fn rung(&self) -> &'static str {
            RUNGS[self.rung]
        }

        fn degrade(&mut self) -> Option<&'static str> {
            if self.rung + 1 < RUNGS.len() {
                self.rung += 1;
                Some(RUNGS[self.rung])
            } else {
                None
            }
        }
    }

    #[test]
    fn clean_run_takes_checkpoints_only() {
        let mut m = Stub::new(5);
        let report = Supervisor::default().run(&mut m);
        assert!(matches!(report.outcome, RecoveryOutcome::Clean));
        assert_eq!(report.checkpoints_restored, 0);
        // Post-init anchor + one per completed unit except the last.
        assert_eq!(report.checkpoints_taken, 5);
        assert_eq!(m.field.states()[0], 5);
    }

    #[test]
    fn transient_fault_heals_under_retry() {
        let mut m = Stub::new(5);
        m.failures.push((3, 0, 1));
        let report = Supervisor::new(RecoveryPolicy::Retry { max_attempts: 3 }).run(&mut m);
        assert!(matches!(report.outcome, RecoveryOutcome::Recovered));
        assert_eq!(report.attempts.len(), 1);
        assert_eq!(report.attempts[0].detector, "differential-replay");
        assert_eq!(report.checkpoints_restored, 1);
        assert_eq!(m.field.states()[0], 5, "recovered state is bit-identical");
    }

    #[test]
    fn sticky_fault_exhausts_retry() {
        let mut m = Stub::new(5);
        m.failures.push((3, 0, u32::MAX));
        let report = Supervisor::new(RecoveryPolicy::Retry { max_attempts: 2 }).run(&mut m);
        assert!(matches!(report.outcome, RecoveryOutcome::Exhausted(_)));
        assert_eq!(report.attempts.len(), 3);
        assert!(report.failure().is_some());
    }

    #[test]
    fn fail_policy_propagates_first_error() {
        let mut m = Stub::new(5);
        m.failures.push((1, 0, 1));
        let report = Supervisor::new(RecoveryPolicy::Fail).run(&mut m);
        assert!(matches!(report.outcome, RecoveryOutcome::Exhausted(_)));
        assert_eq!(report.attempts.len(), 1);
        assert_eq!(report.checkpoints_restored, 0);
    }

    #[test]
    fn degrade_walks_the_ladder_and_clears_sticky_faults() {
        let mut m = Stub::new(5);
        // A broken functional unit on the top rung: unit 2 fails exactly
        // as long as the machine stays there (FAILURES_PER_RUNG charges —
        // the supervisor degrades after the second), then runs clean on
        // the rung below.
        m.failures.push((2, 0, FAILURES_PER_RUNG));
        let report = Supervisor::new(RecoveryPolicy::Degrade).run(&mut m);
        assert!(matches!(report.outcome, RecoveryOutcome::Recovered));
        assert_eq!(report.degradations, 1);
        assert_eq!(report.initial_rung, "fused");
        assert_eq!(report.final_rung, "generic");
        assert_eq!(m.field.states()[0], 5);
    }

    #[test]
    fn degrade_exhausts_at_the_bottom_rung() {
        let mut m = Stub::new(5);
        m.failures.push((2, 0, u32::MAX)); // fails on every rung
        let report = Supervisor::new(RecoveryPolicy::Degrade).run(&mut m);
        assert!(matches!(report.outcome, RecoveryOutcome::Exhausted(_)));
        assert_eq!(report.degradations, 1);
        assert_eq!(report.final_rung, "generic");
    }

    #[test]
    fn rollback_walks_deeper_into_the_ring() {
        let mut m = Stub::new(6);
        m.failures.push((4, 0, 1));
        let report = Supervisor::new(RecoveryPolicy::Rollback { to_checkpoint: 2 })
            .with_ring(8)
            .run(&mut m);
        assert!(matches!(report.outcome, RecoveryOutcome::Recovered));
        // Restored two entries behind the newest: unit 4's checkpoint is
        // newest at failure time, so the restore lands on unit 3 (whose
        // generation counter is 4 — the stub starts counting at init).
        assert_eq!(report.restored_generation, Some(4));
        assert_eq!(m.field.states()[0], 6);
    }

    #[test]
    fn cadence_and_ring_bound_checkpoint_count() {
        let mut m = Stub::new(8);
        let report = Supervisor::default()
            .with_cadence(3)
            .with_ring(2)
            .run(&mut m);
        assert!(matches!(report.outcome, RecoveryOutcome::Clean));
        // Anchor + units 3 and 6.
        assert_eq!(report.checkpoints_taken, 3);
    }

    #[test]
    fn report_serializes() {
        let mut m = Stub::new(4);
        m.failures.push((1, 0, 1));
        let report = Supervisor::default().run(&mut m);
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("\"outcome\":\"recovered\""));
        assert!(json.contains("differential-replay"));
    }
}
