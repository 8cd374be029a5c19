use crate::complexity::{ceil_log2, total_generations};
use crate::invariants::{InvariantChecker, InvariantClass};
use crate::sweep::{static_footprint, Sweep, SweepFault};
use crate::{iteration_schedule, ExecPath, Gen, HCell, HirschbergRule, Layout};
use gca_engine::faults::{FaultKind, FaultPlan};
use gca_engine::metrics::{GenerationMetrics, MetricsLog, ReadFootprint};
use gca_engine::snapshot::FieldSnapshot;
use gca_engine::{
    CellField, Engine, GcaError, Instrumentation, InvariantCheck, StepCtx, StepReport, Word,
};
use gca_graphs::{AdjacencyMatrix, Labeling};

/// Mask of the low half of a data word — the half a torn write leaves on
/// its pre-generation value (see [`FaultKind::TornWrite`]).
const TORN_LO_MASK: Word = (1 << (Word::BITS / 2)) - 1;

/// When to stop the iterated pointer-jumping sub-generations.
///
/// The paper's central state machine always runs `⌈log₂ n⌉` sub-generations
/// of generation 10 (pointer jumping) — the worst case for a path-shaped
/// pointer chain. Most graphs converge earlier, and the engine counts
/// changed cells for free during write-back
/// ([`gca_engine::StepReport::changed_cells`]), so the stepper can detect
/// the fixed point and skip the remaining sub-generations.
///
/// Detection is applied **only** to pointer jumping, where it is sound:
/// `C ← C(C)` at a fixed point (`C(i) = C(C(i))` for all `i`) stays fixed
/// under further applications. The min tree reductions (generations 3 and 7)
/// must always run their full `⌈log₂ n⌉` schedule: a zero-change
/// sub-generation there does *not* imply completion — for the row
/// `[2, 9, 1, 7]`, stride-1 reduction changes nothing at cell 0
/// (`min(2, 9) = 2`) yet the stride-2 sub-generation still must fold in the
/// `1` (`min(2, 1) = 1`). See DESIGN.md.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Convergence {
    /// Always run the full fixed schedule — the paper's hardware behavior
    /// and the default. Total generations match `1 + log n · (3 log n + 8)`.
    #[default]
    Fixed,
    /// Skip the remaining pointer-jump sub-generations of an iteration once
    /// one of them reports zero changed cells. Labelings are identical to
    /// [`Convergence::Fixed`]; only the generation count (and the metrics
    /// log) shrinks.
    Detect,
}

/// The generation-level stepper for the Hirschberg GCA.
///
/// [`Machine`] owns the cell state, the rule and an [`Engine`], and exposes
/// the state machine one generation at a time — the figure/table binaries
/// drive it manually to capture access patterns, while
/// [`HirschbergGca::run`] drives it to completion.
///
/// The machine keeps the [`AdjacencyMatrix`] it was built from: the
/// paper's read-only `a` registers. The data words live in one of two
/// places. On the fused path an unobserved run keeps them as the sweep's
/// O(n) vectors (`C`, `T′`; see [`crate::sweep`]), which reads the
/// matrix's rows directly. Whenever the engine ticks — the generic path,
/// and on the fused path [`Machine::step`], `Instrumentation::Trace`,
/// `Instrumentation::Validate` or an armed fault plan — the engine holds
/// the state in its own `CellField<HCell>`, built from the vectors and the
/// matrix when first needed and stepped in place from then on. The next
/// unobserved sweep reads its column 0 and drops it again.
///
/// A sweep that ends with the `C` it started from is recorded, and every
/// later sweep that starts from that `C` replays it instead of computing
/// it (fixed-point replay, see [`Machine::run_iterations`]).
pub struct Machine {
    layout: Layout,
    rule: HirschbergRule,
    engine: Engine,
    metrics: MetricsLog,
    convergence: Convergence,
    exec: ExecPath,
    /// The graph the machine runs.
    graph: AdjacencyMatrix,
    /// The state while the engine does not hold it; under
    /// [`Instrumentation::Validate`] on the fused path, the cross-check's
    /// expected iteration.
    sweep: Sweep,
    /// The last sweep iteration that left `C` unchanged, if any.
    settled: Settled,
    /// Sweep iterations computed rather than replayed.
    #[cfg(test)]
    computed: u64,
    /// The engine's field: `Some` exactly while the engine holds the state.
    cells: Option<CellField<HCell>>,
    initialized: bool,
    /// The generations the cross-check expects from the engine in the
    /// current iteration: context, active cells and read footprint, as
    /// the sweep committed them. Empty outside a validated fused
    /// iteration.
    expected: Vec<(StepCtx, usize, ReadFootprint)>,
    /// The algorithm-level invariant checker, armed by
    /// [`Instrumentation::Validate`] on *every* execution path. Replays
    /// the schedule's Hoare-contract transfers (see
    /// [`crate::invariants`]) against each committed generation and
    /// asserts the iteration-boundary invariants of the induction
    /// argument. Rebuilt lazily from the cell state after a reset or
    /// restore.
    inv: Option<InvariantChecker>,
    /// Test-only pending invariant fault, installed into the checker once
    /// it exists (see [`Machine::seed_invariant_fault`]).
    inv_fault: Option<InvariantClass>,
    /// The armed fault plan (see [`gca_engine::faults`]). `None` on clean
    /// runs — every hook starts with this check, keeping injection
    /// zero-cost when off.
    inject: Option<FaultPlan>,
    /// Pre-generation capture of the engine's data words for
    /// dropped-generation faults.
    drop_words: Vec<Word>,
    /// Pre-generation value of a torn-write target word.
    torn_pre: Option<Word>,
}

/// A sweep iteration that ended with the `C` it started from. An
/// iteration's output and its `Counts` entries depend only on `C` at its
/// start and on the graph, so this is the output of every later sweep
/// iteration that starts from the same `C`.
#[derive(Debug, Default)]
struct Settled {
    /// Whether the fields below hold such an iteration.
    valid: bool,
    /// `C` at the iteration's start and end (while an iteration computes,
    /// its start).
    c: Vec<Word>,
    /// `T′` as the iteration left it.
    t: Vec<Word>,
    /// The generations the iteration committed.
    generations: u64,
    /// Its `Counts` entries, numbered from generation 0. Owned copies:
    /// [`Machine::rollback_to`] truncates the log they were taken from.
    entries: Vec<GenerationMetrics>,
}

/// The field the sweep's vectors stand for, with `graph`'s adjacency in
/// the square cells.
fn sweep_field(layout: &Layout, graph: &AdjacencyMatrix, sweep: &Sweep) -> CellField<HCell> {
    let (n, shape) = (layout.n(), *layout.shape());
    CellField::from_fn(shape, |i| {
        let (row, col) = (shape.row(i), shape.col(i));
        HCell::with_adjacency(sweep.word(row, col), row < n && graph.has_edge(row, col))
    })
}

impl Machine {
    /// Builds a machine for `graph` with a default (sequential, counting)
    /// engine on the default ([`ExecPath::Fused`]) path.
    pub fn new(graph: &AdjacencyMatrix) -> Result<Self, GcaError> {
        Machine::with_engine(graph, Engine::sequential())
    }

    /// Builds a machine with an explicit engine configuration.
    pub fn with_engine(graph: &AdjacencyMatrix, engine: Engine) -> Result<Self, GcaError> {
        let layout = Layout::new(graph.n())?;
        Ok(Machine {
            layout,
            rule: HirschbergRule::new(graph.n()),
            engine,
            metrics: MetricsLog::new(),
            convergence: Convergence::Fixed,
            exec: ExecPath::default(),
            graph: graph.clone(),
            sweep: Sweep::new(graph.n()),
            settled: Settled::default(),
            #[cfg(test)]
            computed: 0,
            cells: None,
            initialized: false,
            expected: Vec::new(),
            inv: None,
            inv_fault: None,
            inject: None,
            drop_words: Vec::new(),
            torn_pre: None,
        })
    }

    /// Sets the sub-generation convergence policy (see [`Convergence`]).
    #[must_use]
    pub fn with_convergence(mut self, convergence: Convergence) -> Self {
        self.convergence = convergence;
        // A settled iteration's generation count depends on the policy.
        self.settled.valid = false;
        self
    }

    /// Sets the execution path (see [`ExecPath`]).
    #[must_use]
    pub fn with_exec(mut self, exec: ExecPath) -> Self {
        self.set_exec(exec);
        self
    }

    /// The configured convergence policy.
    pub fn convergence(&self) -> Convergence {
        self.convergence
    }

    /// The configured execution path.
    pub fn exec(&self) -> ExecPath {
        self.exec
    }

    /// Problem size `n`.
    pub fn n(&self) -> usize {
        self.layout.n()
    }

    /// The field layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The uniform cell rule.
    pub fn rule(&self) -> &HirschbergRule {
        &self.rule
    }

    /// A copy of the current field: the engine's, or the one the sweep's
    /// vectors stand for.
    pub fn to_field(&self) -> CellField<HCell> {
        match &self.cells {
            Some(cells) => cells.clone(),
            None => sweep_field(&self.layout, &self.graph, &self.sweep),
        }
    }

    /// Generations executed so far.
    pub fn generations(&self) -> u64 {
        self.engine.generation()
    }

    /// The per-generation metrics recorded so far.
    pub fn metrics(&self) -> &MetricsLog {
        &self.metrics
    }

    /// Executes generation 0 (initialization). Must run exactly once,
    /// before any iteration; a second call is [`GcaError::OutOfOrder`].
    /// An unobserved fused machine initializes its vectors in O(n) and
    /// reports no congestion histogram; otherwise the engine ticks.
    pub fn init(&mut self) -> Result<StepReport, GcaError> {
        if self.initialized {
            return Err(GcaError::OutOfOrder {
                call: "init",
                initialized: true,
            });
        }
        let rep = if self.sweeping() {
            self.cells = None;
            self.sweep.init();
            let n = self.n();
            let ctx = StepCtx {
                generation: self.engine.generation(),
                phase: Gen::Init.number(),
                subgeneration: 0,
            };
            let (active, grid) = static_footprint(Gen::Init, 0, n).unwrap_or_default();
            self.engine.advance_generation();
            if self.counting() {
                let mut fp = ReadFootprint::new();
                fp.set_grid(self.layout.cells(), grid);
                self.metrics
                    .push(GenerationMetrics::from_footprint(ctx, active, &fp));
            }
            StepReport {
                ctx,
                active_cells: active,
                total_reads: 0,
                // Every cell below row 0 leaves the all-zero state.
                changed_cells: n * n,
                evaluated_cells: active,
                congestion: None,
                accesses: None,
            }
        } else {
            self.step(Gen::Init, 0)?
        };
        self.initialized = true;
        Ok(rep)
    }

    /// Executes a single `(generation, sub-generation)` of the state
    /// machine on the engine, on every exec path: single-stepping is
    /// observation, so the engine takes the state first. Fires the armed
    /// fault plan, records the metrics entry and, under
    /// [`Instrumentation::Validate`], checks the generation against the
    /// invariant checker.
    pub fn step(&mut self, gen: Gen, subgeneration: u32) -> Result<StepReport, GcaError> {
        let mut cells = match self.cells.take() {
            Some(cells) => cells,
            None => sweep_field(&self.layout, &self.graph, &self.sweep),
        };
        let result = self.tick(&mut cells, gen, subgeneration);
        self.cells = Some(cells);
        result
    }

    /// The body of [`Machine::step`] on the engine's field, taken out of
    /// the machine while the engine steps it in place.
    fn tick(
        &mut self,
        cells: &mut CellField<HCell>,
        gen: Gen,
        subgeneration: u32,
    ) -> Result<StepReport, GcaError> {
        self.ensure_invariant_checker(cells.states());
        let generation = self.engine.generation();
        self.arm_fault(generation, cells.states());
        let rep = self
            .engine
            .step(cells, &self.rule, gen.number(), subgeneration)?;
        self.apply_fault(generation, cells.states_mut());
        if let Some(hist) = rep.congestion.as_ref() {
            self.metrics
                .push(GenerationMetrics::new(rep.ctx, rep.active_cells, hist));
        }
        // The checker exists only on a validating machine.
        if let Some(inv) = self.inv.as_mut() {
            inv.after_generation(&rep.ctx, cells.states())?;
        }
        Ok(rep)
    }

    /// Whether the configured path is the fused one.
    fn fused(&self) -> bool {
        self.exec == ExecPath::Fused
    }

    /// Whether iterations run as vector sweeps: the fused path when nothing
    /// observes cell by cell — no access traces, no validation and no
    /// armed fault plan.
    fn sweeping(&self) -> bool {
        self.fused()
            && matches!(
                self.engine.instrumentation(),
                Instrumentation::Off | Instrumentation::Counts
            )
            && self.inject.is_none()
    }

    /// Whether a step should account reads (mirrors the engine's `counting`).
    fn counting(&self) -> bool {
        !matches!(self.engine.instrumentation(), Instrumentation::Off)
    }

    /// Whether the CROW sanitizer and the invariant checker are armed.
    fn validating(&self) -> bool {
        matches!(self.engine.instrumentation(), Instrumentation::Validate)
    }

    /// Test-only hook for the failure-injection suite: arms a one-shot
    /// planted contract break of the given [`InvariantClass`] inside the
    /// invariant checker, which must then report it as
    /// [`GcaError::InvariantViolation`]. No effect unless the machine runs
    /// under [`Instrumentation::Validate`].
    #[doc(hidden)]
    pub fn seed_invariant_fault(&mut self, class: InvariantClass) {
        match self.inv.as_mut() {
            Some(inv) => inv.seed_fault(class),
            None => self.inv_fault = Some(class),
        }
    }

    /// Test-only hook: plants a one-shot bug in the vector sweep (see
    /// [`SweepFault`]), which the `Validate` cross-check must report as
    /// [`GcaError::KernelDivergence`].
    #[doc(hidden)]
    pub fn seed_sweep_fault(&mut self, fault: SweepFault) {
        self.sweep.seed_fault(fault);
        // The next sweep must compute, so that the fault fires.
        self.settled.valid = false;
    }

    /// Arms (or clears) a deterministic fault plan. An armed plan injects
    /// its fault into the addressed committed generation (see
    /// [`gca_engine::faults`] for the per-kind semantics). It is
    /// observation: on the fused path every generation then ticks the
    /// engine on its own field, so that each one is an injection site; a
    /// `None` plan restores the sweep and costs nothing per iteration.
    /// The plan survives [`Machine::reset_with`] and
    /// [`Machine::rollback_to`] on purpose: recovery re-executes the
    /// faulted span, and whether the fault re-fires is the plan's
    /// [`gca_engine::faults::Persistence`] decision, not the machine's.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.inject = plan;
        self.torn_pre = None;
    }

    /// The armed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.inject.as_ref()
    }

    /// The degradation-ladder level of the configured execution path —
    /// the coordinate sticky faults compare against (see
    /// [`gca_engine::faults::Persistence::Sticky`]). Higher is more
    /// optimized: generic 0, fused 1.
    pub fn exec_level(&self) -> u8 {
        match self.exec {
            ExecPath::Generic => 0,
            ExecPath::Fused | ExecPath::FusedParallel(_) => 1,
        }
    }

    /// Switches the execution path in place — the degradation ladder's
    /// rung change. Unlike [`Machine::with_exec`] this is callable
    /// mid-run; the paths are bit-identical in labels, metrics and
    /// iteration-boundary fields, so a switch at any generation boundary
    /// is semantically invisible. [`ExecPath::FusedParallel`] is taken as
    /// its alias, [`ExecPath::Fused`], which [`Machine::exec`] then
    /// reports.
    pub fn set_exec(&mut self, exec: ExecPath) {
        self.exec = match exec {
            ExecPath::FusedParallel(_) => ExecPath::Fused,
            exec => exec,
        };
    }

    /// Rewinds the machine to a checkpoint: restores the field snapshot,
    /// resets the engine's generation counter to `generation`, and
    /// truncates the metrics log to match (under counting instrumentation
    /// the log holds exactly one entry per committed generation, so the
    /// re-executed span appends over a clean suffix and a recovered run's
    /// log is bit-identical to an undisturbed one).
    pub fn rollback_to(
        &mut self,
        generation: u64,
        snapshot: &FieldSnapshot<HCell>,
    ) -> Result<(), GcaError> {
        self.restore(snapshot)?;
        self.engine.rewind_to(generation);
        self.metrics.truncate(generation as usize);
        self.torn_pre = None;
        Ok(())
    }

    /// Pre-generation half of the injection hook: captures whatever
    /// pre-state the armed fault needs. `generation` is the number the
    /// generation will commit as (the pre-step counter).
    fn arm_fault(&mut self, generation: u64, cells: &[HCell]) {
        let Some(plan) = self.inject.as_ref() else {
            return;
        };
        match plan.peek(generation, self.exec_level()) {
            Some(FaultKind::DroppedGeneration) => {
                self.drop_words.clear();
                self.drop_words.extend(cells.iter().map(|c| c.d));
            }
            Some(FaultKind::TornWrite) => {
                self.torn_pre = cells.get(plan.cell()).map(|c| c.d);
            }
            _ => {}
        }
    }

    /// Post-generation half of the injection hook: fires the plan and
    /// corrupts the committed data words *before* the invariant checker
    /// looks at it — exactly where a hardware fault between compute and
    /// commit would land. Detection under [`Instrumentation::Validate`] is
    /// the invariant checker's contract-step mirror, on every path.
    fn apply_fault(&mut self, generation: u64, cells: &mut [HCell]) {
        let level = self.exec_level();
        let Some(plan) = self.inject.as_mut() else {
            return;
        };
        let Some(kind) = plan.fire(generation, level) else {
            return;
        };
        let cell = cells.get_mut(plan.cell());
        match kind {
            FaultKind::BitFlip { bit } => {
                if let Some(c) = cell {
                    c.d ^= 1 << (bit % Word::BITS);
                }
            }
            FaultKind::TornWrite => {
                if let (Some(pre), Some(c)) = (self.torn_pre.take(), cell) {
                    c.d = (c.d & !TORN_LO_MASK) | (pre & TORN_LO_MASK);
                }
            }
            FaultKind::DroppedGeneration => {
                if self.drop_words.len() == cells.len() {
                    for (c, &d) in cells.iter_mut().zip(&self.drop_words) {
                        c.d = d;
                    }
                }
            }
        }
    }

    /// Lazily (re)builds the invariant checker from the engine's field —
    /// the pre-state of the next generation to run. Called before every
    /// engine step; a checker dropped by `reset_with`/`restore` re-arms
    /// here (at an iteration boundary, where column 0 carries the labels
    /// the boundary invariants need). No-op unless validating.
    fn ensure_invariant_checker(&mut self, cells: &[HCell]) {
        if !self.validating() || self.inv.is_some() {
            return;
        }
        let n = self.n();
        let adj = (0..n * n).map(|i| self.graph.has_edge(i / n, i % n)).collect();
        let d: Vec<Word> = cells.iter().map(|c| c.d).collect();
        let mut inv = InvariantChecker::new(n, adj, &d);
        if let Some(class) = self.inv_fault.take() {
            inv.seed_fault(class);
        }
        self.inv = Some(inv);
    }

    /// Executes one full outer iteration — [`Machine::run_iterations`]
    /// with a count of one.
    pub fn run_iteration(&mut self) -> Result<u64, GcaError> {
        self.run_iterations(1)
    }

    /// Executes `count` full outer iterations (generations 1–11 with their
    /// sub-generations) and returns the number of generations executed —
    /// `count · iteration_schedule(n).len()` under [`Convergence::Fixed`],
    /// possibly fewer under [`Convergence::Detect`] (skipped pointer-jump
    /// sub-generations are not executed at all and record no metrics).
    /// Iterating before [`Machine::init`] is [`GcaError::OutOfOrder`]. A
    /// failed generation never commits.
    ///
    /// This is the iteration driver. An unobserved fused machine runs each
    /// iteration as one vector sweep, entered from column 0 of whatever
    /// state the machine is in; every other configuration ticks the
    /// engine through the schedule, and a validated fused one also
    /// cross-checks the engine against the sweep.
    ///
    /// **Fixed-point replay.** A sweep that ends with the `C` it started
    /// from is recorded with its `T′`, its generation count and its
    /// `Counts` entries. A later sweep whose `C` equals the recorded one
    /// is that iteration again, so it is replayed: the generation counter
    /// advances, the entries are appended renumbered, and `T′` is written
    /// back. Comparing `C` is the only guard, so the replay holds after
    /// [`Machine::step`], [`Machine::restore`] and [`Machine::rollback_to`]
    /// too. [`Machine::reset_with`] and [`Machine::seed_sweep_fault`]
    /// clear the record, and engine iterations, the cross-check's sweep
    /// included, never use it.
    pub fn run_iterations(&mut self, count: u64) -> Result<u64, GcaError> {
        if !self.initialized {
            return Err(GcaError::OutOfOrder {
                call: "run_iterations",
                initialized: false,
            });
        }
        let start = self.engine.generation();
        for _ in 0..count {
            if self.sweeping() {
                self.sweep_iteration()?;
            } else {
                self.engine_iteration()?;
            }
        }
        Ok(self.engine.generation() - start)
    }

    /// One iteration as a vector sweep, committing every generation, or
    /// the replay of a settled one.
    fn sweep_iteration(&mut self) -> Result<(), GcaError> {
        if let Some(cells) = self.cells.take() {
            self.sweep.load_column(cells.states());
        }
        let start = self.engine.generation();
        if self.settled.valid && self.settled.c == self.sweep.labels() {
            self.replay(start);
            return Ok(());
        }
        #[cfg(test)]
        {
            self.computed += 1;
        }
        // An iteration with a planted fault is not the iteration of its `C`.
        let record = !self.sweep.faulted();
        self.settled.valid = false;
        self.settled.c.clear();
        self.settled.c.extend_from_slice(self.sweep.labels());
        let logged = self.metrics.generations();
        let detect = self.convergence == Convergence::Detect;
        let counting = self.counting();
        let Machine {
            sweep,
            graph,
            engine,
            metrics,
            ..
        } = self;
        sweep.iterate(
            graph,
            start,
            detect,
            counting,
            &mut |ctx, active, fp| {
                engine.advance_generation();
                if counting {
                    metrics.push(GenerationMetrics::from_footprint(ctx, active, fp));
                }
            },
        )?;
        if record && self.settled.c == self.sweep.labels() {
            let settled = &mut self.settled;
            settled.t.clear();
            settled.t.extend_from_slice(self.sweep.t());
            settled.generations = self.engine.generation() - start;
            settled.entries.clear();
            settled
                .entries
                .extend(self.metrics.entries()[logged..].iter().map(|e| {
                    let mut e = e.clone();
                    e.ctx.generation -= start;
                    e
                }));
            settled.valid = true;
        }
        Ok(())
    }

    /// Replays the settled iteration from generation `start`: what
    /// computing it would commit and leave, `C` being unchanged.
    fn replay(&mut self, start: u64) {
        for _ in 0..self.settled.generations {
            self.engine.advance_generation();
        }
        for e in &self.settled.entries {
            let mut e = e.clone();
            e.ctx.generation += start;
            self.metrics.push(e);
        }
        self.sweep.settle(&self.settled.t);
    }

    /// One iteration ticked on the engine. On the fused path under
    /// validation, the sweep first runs the same iteration from column 0,
    /// and every engine generation is checked against it.
    fn engine_iteration(&mut self) -> Result<(), GcaError> {
        let cross_check = self.fused() && self.validating();
        if cross_check {
            self.expect_iteration();
        }
        let result = self.tick_schedule(cross_check);
        self.expected.clear();
        result
    }

    /// The engine half of [`Machine::engine_iteration`].
    fn tick_schedule(&mut self, cross_check: bool) -> Result<(), GcaError> {
        let detect = self.convergence == Convergence::Detect;
        let mut jumping = true;
        let mut k = 0;
        for (gen, sub) in iteration_schedule(self.n()) {
            if gen == Gen::PointerJump && !jumping {
                continue;
            }
            let rep = self.step(gen, sub)?;
            if cross_check {
                self.check_expected(k, &rep)?;
                k += 1;
            }
            if detect && gen == Gen::PointerJump && rep.changed_cells == 0 {
                jumping = false;
            }
            self.engine.recycle(rep);
        }
        if cross_check {
            self.check_boundary(k)?;
        }
        Ok(())
    }

    /// Runs the sweep from column 0 of the engine's field and records what
    /// it commits as the generations the engine must reproduce. A sweep
    /// that fails records the generations before the failure only.
    fn expect_iteration(&mut self) {
        if let Some(cells) = &self.cells {
            self.sweep.load_column(cells.states());
        }
        self.expected.clear();
        let start = self.engine.generation();
        let detect = self.convergence == Convergence::Detect;
        let Machine {
            sweep,
            graph,
            expected,
            ..
        } = self;
        // A failing sweep is judged where the engine goes on without it.
        let _ = sweep.iterate(
            graph,
            start,
            detect,
            true,
            &mut |ctx, active, fp| expected.push((ctx, active, fp.clone())),
        );
    }

    /// The per-generation half of the cross-check: the engine's `k`-th
    /// generation of the iteration must be the sweep's, with the same
    /// active cell count and the same read count on every cell. The first
    /// differing cell is a [`GcaError::KernelDivergence`] (cell 0 when the
    /// generation itself or its active count differs).
    fn check_expected(&self, k: usize, rep: &StepReport) -> Result<(), GcaError> {
        let diverged = |cell| GcaError::KernelDivergence {
            cell,
            generation: rep.ctx.generation,
            phase: rep.ctx.phase,
        };
        let Some((ctx, active, fp)) = self.expected.get(k) else {
            return Err(diverged(0));
        };
        if *ctx != rep.ctx {
            return Err(diverged(0));
        }
        if let Some(hist) = rep.congestion.as_ref() {
            if let Some(cell) = (0..hist.len()).find(|&i| hist.reads_of(i) != fp.reads_of(i)) {
                return Err(diverged(cell));
            }
        }
        if *active != rep.active_cells {
            return Err(diverged(0));
        }
        Ok(())
    }

    /// The boundary half of the cross-check: the sweep committed no
    /// generation the engine skipped, and its vectors stand for exactly
    /// the engine's field. The first differing cell is a
    /// [`GcaError::KernelDivergence`] of the iteration's last generation.
    fn check_boundary(&self, ticked: usize) -> Result<(), GcaError> {
        if let Some((ctx, _, _)) = self.expected.get(ticked) {
            return Err(GcaError::KernelDivergence {
                cell: 0,
                generation: ctx.generation,
                phase: ctx.phase,
            });
        }
        let n = self.n();
        let states = self.cells.as_ref().map_or(&[][..], |cells| cells.states());
        let cell = states
            .iter()
            .enumerate()
            .position(|(i, c)| c.d != self.sweep.word(i / n, i % n));
        match cell {
            Some(cell) => Err(GcaError::KernelDivergence {
                cell,
                generation: self.engine.generation().saturating_sub(1),
                phase: Gen::FinalMin.number(),
            }),
            None => Ok(()),
        }
    }

    /// Captures the complete field state for checkpointing. Meaningful at
    /// iteration boundaries (mid-iteration snapshots additionally require
    /// the caller to remember the schedule position).
    pub fn snapshot(&self) -> FieldSnapshot<HCell> {
        FieldSnapshot::capture(&self.to_field())
    }

    /// Restores a previously captured field state: the snapshot's cells
    /// become the engine's field. The snapshot must match the machine's
    /// field shape ([`GcaError::ShapeMismatch`]) and carry its graph's
    /// adjacency bits ([`GcaError::AdjacencyMismatch`]); either error
    /// leaves the machine as it was. The machine is marked initialized
    /// (snapshots are taken after generation 0 by construction).
    pub fn restore(&mut self, snapshot: &FieldSnapshot<HCell>) -> Result<(), GcaError> {
        let cells = snapshot.restore()?;
        if cells.shape() != self.layout.shape() {
            return Err(GcaError::ShapeMismatch {
                expected: self.layout.cells(),
                actual: cells.len(),
            });
        }
        let n = self.n();
        let foreign = cells
            .states()
            .iter()
            .enumerate()
            .position(|(i, c)| c.a != (i < n * n && self.graph.has_edge(i / n, i % n)));
        if let Some(cell) = foreign {
            return Err(GcaError::AdjacencyMismatch { cell });
        }
        self.cells = Some(cells);
        self.initialized = true;
        // The invariant checker's shadow plane no longer matches the state;
        // it re-arms lazily from the restored state (an iteration boundary).
        self.inv = None;
        Ok(())
    }

    /// The current `C` vector (column 0).
    pub fn labels_raw(&self) -> Vec<Word> {
        let mut out = Vec::new();
        self.labels_into(&mut out);
        out
    }

    /// Writes the current `C` vector (column 0) into `out`, reusing its
    /// allocation — the steady-state extraction path of the batched runner.
    pub fn labels_into(&self, out: &mut Vec<Word>) {
        out.clear();
        match &self.cells {
            Some(cells) => out.extend((0..self.n()).map(|j| cells.at(j, 0).d)),
            None => out.extend_from_slice(self.sweep.labels()),
        }
    }

    /// Reloads the machine with a new graph of the **same size**, reusing
    /// its buffers. The machine returns to its pre-[`Machine::init`]
    /// state; configuration (engine, convergence, exec path) is kept. A
    /// graph of another size is [`GcaError::GraphSizeMismatch`] and leaves
    /// the machine as it was.
    pub fn reset_with(&mut self, graph: &AdjacencyMatrix) -> Result<(), GcaError> {
        if graph.n() != self.n() {
            return Err(GcaError::GraphSizeMismatch {
                graph_nodes: graph.n(),
                layout_nodes: self.n(),
            });
        }
        self.graph.clone_from(graph);
        self.reset();
        Ok(())
    }

    /// Returns the machine to its pre-[`Machine::init`] state on the graph
    /// it holds, keeping its configuration.
    pub(crate) fn reset(&mut self) {
        self.cells = None;
        self.sweep.reset();
        // Another graph's settled `C` may be this one's first.
        self.settled.valid = false;
        self.engine.reset();
        self.metrics.clear();
        self.initialized = false;
        self.inv = None;
        self.inv_fault = None;
    }

    /// The current `C` vector as a [`Labeling`]. An out-of-range label —
    /// impossible on a clean run, but exactly what an undetected data
    /// fault can produce — surfaces as [`GcaError::BadLabel`] instead of
    /// a panic.
    pub fn labels(&self) -> Result<Labeling, GcaError> {
        let raw = self.labels_raw();
        crate::machine_labeling(raw.into_iter().map(|w| w as usize).collect())
    }
}

/// The result of a complete GCA run.
#[derive(Clone, Debug)]
pub struct GcaRun {
    /// Component labeling (canonical: every node labeled with the minimum
    /// node index of its component).
    pub labels: Labeling,
    /// Total generations executed (including generation 0).
    pub generations: u64,
    /// Outer iterations executed.
    pub iterations: u32,
    /// Per-generation activity/congestion metrics (empty when the engine
    /// ran with [`gca_engine::Instrumentation::Off`]).
    pub metrics: MetricsLog,
}

impl GcaRun {
    /// Worst congestion observed over the whole run.
    pub fn max_congestion(&self) -> u32 {
        self.metrics.max_congestion()
    }
}

/// Configurable front-end for running the algorithm.
///
/// ```
/// use gca_graphs::generators;
/// use gca_hirschberg::HirschbergGca;
///
/// let g = generators::gnp(24, 0.2, 7);
/// let run = HirschbergGca::new().run(&g).unwrap();
/// assert_eq!(run.labels.n(), 24);
/// ```
#[derive(Clone, Debug, Default)]
pub struct HirschbergGca {
    engine: Engine,
    early_exit: bool,
    convergence: Convergence,
    exec: ExecPath,
}

impl HirschbergGca {
    /// Default configuration: sequential engine, congestion counting,
    /// fixed `⌈log₂ n⌉` iterations (the paper's schedule), the default
    /// ([`ExecPath::Fused`]) execution path.
    pub fn new() -> Self {
        HirschbergGca {
            engine: Engine::sequential(),
            early_exit: false,
            convergence: Convergence::Fixed,
            exec: ExecPath::default(),
        }
    }

    /// Uses an explicit engine (its instrumentation level).
    #[must_use]
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Sets the sub-generation convergence policy (see [`Convergence`]).
    /// Orthogonal to [`HirschbergGca::early_exit`], which stops whole outer
    /// iterations.
    #[must_use]
    pub fn convergence(mut self, convergence: Convergence) -> Self {
        self.convergence = convergence;
        self
    }

    /// Sets the execution path (see [`ExecPath`]).
    #[must_use]
    pub fn exec(mut self, exec: ExecPath) -> Self {
        self.exec = exec;
        self
    }

    /// Stops as soon as an iteration leaves `C` unchanged, instead of
    /// always running `⌈log₂ n⌉` iterations. An extension over the paper
    /// (the fixed schedule is what the hardware implements); useful in the
    /// ablation benchmarks.
    #[must_use]
    pub fn early_exit(mut self, enabled: bool) -> Self {
        self.early_exit = enabled;
        self
    }

    /// Runs the algorithm to completion on `graph`.
    pub fn run(&self, graph: &AdjacencyMatrix) -> Result<GcaRun, GcaError> {
        let n = graph.n();
        if n == 0 {
            return Ok(GcaRun {
                labels: Labeling::empty(),
                generations: 0,
                iterations: 0,
                metrics: MetricsLog::new(),
            });
        }

        let mut machine = Machine::with_engine(graph, self.engine.clone())?
            .with_convergence(self.convergence)
            .with_exec(self.exec);
        machine.init()?;
        let max_iterations = ceil_log2(n);
        let mut iterations = 0;
        if self.early_exit {
            let mut previous = machine.labels_raw();
            for _ in 0..max_iterations {
                machine.run_iteration()?;
                iterations += 1;
                let current = machine.labels_raw();
                if current == previous {
                    break;
                }
                previous = current;
            }
        } else {
            machine.run_iterations(u64::from(max_iterations))?;
            iterations = max_iterations;
        }

        let generations = machine.generations();
        if !self.early_exit && self.convergence == Convergence::Fixed {
            debug_assert_eq!(
                generations,
                total_generations(n),
                "generation count must match the paper's formula"
            );
        }
        Ok(GcaRun {
            labels: machine.labels()?,
            generations,
            iterations,
            metrics: std::mem::take(&mut machine.metrics),
        })
    }
}

/// One-call API: connected components of `graph` via the GCA algorithm.
///
/// Returns the canonical min-index labeling, identical (as a partition and
/// representative choice) to [`gca_graphs::connectivity::bfs_components`].
pub fn connected_components(graph: &AdjacencyMatrix) -> Result<Labeling, GcaError> {
    Ok(HirschbergGca::new().run(graph)?.labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BatchRunner, FusedParallel, SupervisedMachine};
    use gca_graphs::connectivity::union_find_components_dense;
    use gca_graphs::{generators, GraphBuilder};

    fn check(graph: &AdjacencyMatrix) {
        let expected = union_find_components_dense(graph);
        let run = HirschbergGca::new().run(graph).unwrap();
        assert_eq!(
            run.labels.as_slice(),
            expected.as_slice(),
            "GCA disagrees with union-find on {graph:?}"
        );
    }

    #[test]
    fn single_edge() {
        check(&GraphBuilder::new(2).edge(0, 1).build().unwrap());
    }

    #[test]
    fn two_isolated_nodes() {
        check(&generators::empty(2));
    }

    #[test]
    fn paper_scale_n4() {
        check(&GraphBuilder::new(4).edge(0, 2).edge(1, 3).build().unwrap());
    }

    #[test]
    fn path_graphs() {
        for n in [2usize, 3, 5, 8, 13] {
            check(&generators::path(n));
        }
    }

    #[test]
    fn rings_and_stars() {
        for n in [3usize, 4, 7, 16] {
            check(&generators::ring(n));
            check(&generators::star(n));
        }
    }

    #[test]
    fn complete_graphs() {
        for n in [2usize, 3, 9, 16] {
            check(&generators::complete(n));
        }
    }

    #[test]
    fn empty_graphs_label_identity() {
        for n in [1usize, 2, 6, 10] {
            let run = HirschbergGca::new().run(&generators::empty(n)).unwrap();
            let expect: Vec<usize> = (0..n).collect();
            assert_eq!(run.labels.as_slice(), &expect[..]);
        }
    }

    #[test]
    fn zero_node_graph() {
        let run = HirschbergGca::new().run(&generators::empty(0)).unwrap();
        assert_eq!(run.labels.n(), 0);
        assert_eq!(run.generations, 0);
    }

    #[test]
    fn single_node_graph() {
        let run = HirschbergGca::new().run(&generators::empty(1)).unwrap();
        assert_eq!(run.labels.as_slice(), &[0]);
        assert_eq!(run.generations, 1); // init only: log₂ 1 = 0 iterations
    }

    #[test]
    fn random_graphs_match_union_find() {
        for seed in 0..8 {
            let g = generators::gnp(21, 0.12, seed);
            check(&g);
        }
    }

    #[test]
    fn planted_components_recovered() {
        for seed in 0..4 {
            let p = generators::planted_components(24, 5, 0.5, seed);
            let run = HirschbergGca::new().run(&p.graph).unwrap();
            assert!(run.labels.same_partition(&p.expected_labels()));
        }
    }

    #[test]
    fn forests_match() {
        for seed in 0..4 {
            check(&generators::random_forest(18, 4, seed));
        }
    }

    #[test]
    fn generation_count_matches_formula() {
        for n in [2usize, 3, 4, 7, 8, 16, 20] {
            let g = generators::gnp(n, 0.3, 1);
            let run = HirschbergGca::new().run(&g).unwrap();
            assert_eq!(run.generations, total_generations(n), "n = {n}");
            assert_eq!(run.iterations, ceil_log2(n));
        }
    }

    #[test]
    fn early_exit_still_correct() {
        for seed in 0..4 {
            let g = generators::gnp(17, 0.3, seed);
            let expected = union_find_components_dense(&g);
            let run = HirschbergGca::new().early_exit(true).run(&g).unwrap();
            assert_eq!(run.labels.as_slice(), expected.as_slice());
        }
    }

    #[test]
    fn early_exit_saves_iterations_on_complete_graph() {
        // K_n merges everything in one iteration; one more detects the
        // fixpoint.
        let g = generators::complete(16);
        let run = HirschbergGca::new().early_exit(true).run(&g).unwrap();
        assert!(run.iterations <= 2, "took {} iterations", run.iterations);
    }

    #[test]
    fn detect_convergence_matches_union_find_on_all_generators() {
        // The acceptance workload: every generator family, labelings equal
        // the union-find ground truth, generation count within the paper's
        // 1 + log n · (3 log n + 8) bound.
        let graphs: Vec<AdjacencyMatrix> = vec![
            generators::path(13),
            generators::ring(16),
            generators::star(11),
            generators::complete(12),
            generators::empty(9),
            generators::gnp(20, 0.15, 2),
            generators::gnp(20, 0.4, 3),
            generators::random_forest(17, 3, 1),
            generators::planted_components(18, 4, 0.6, 5).graph,
        ];
        for g in &graphs {
            let expected = union_find_components_dense(g);
            let run = HirschbergGca::new()
                .convergence(Convergence::Detect)
                .run(g)
                .unwrap();
            assert_eq!(run.labels.as_slice(), expected.as_slice());
            assert!(
                run.generations <= total_generations(g.n()),
                "detect exceeded the fixed schedule on n = {}",
                g.n()
            );
        }
    }

    #[test]
    fn detect_convergence_saves_generations_on_star() {
        // A star's pointer chains have depth 1: one jump reaches the fixed
        // point, the next detects it, the rest of the log n schedule is
        // skipped.
        let g = generators::star(16);
        let fixed = HirschbergGca::new().run(&g).unwrap();
        let detect = HirschbergGca::new()
            .convergence(Convergence::Detect)
            .run(&g)
            .unwrap();
        assert_eq!(fixed.labels, detect.labels);
        assert!(
            detect.generations < fixed.generations,
            "detect: {} vs fixed: {}",
            detect.generations,
            fixed.generations
        );
    }

    #[test]
    fn detect_convergence_composes_with_early_exit() {
        for seed in 0..4 {
            let g = generators::gnp(15, 0.25, seed);
            let expected = union_find_components_dense(&g);
            let run = HirschbergGca::new()
                .convergence(Convergence::Detect)
                .early_exit(true)
                .run(&g)
                .unwrap();
            assert_eq!(run.labels.as_slice(), expected.as_slice());
        }
    }

    #[test]
    fn detect_convergence_skips_metrics_of_skipped_generations() {
        let g = generators::star(16);
        let run = HirschbergGca::new()
            .convergence(Convergence::Detect)
            .run(&g)
            .unwrap();
        // Every executed generation still records exactly one metrics entry.
        assert_eq!(run.metrics.generations() as u64, run.generations);
    }

    #[test]
    fn machine_stepwise_equals_runner() {
        let g = generators::gnp(12, 0.2, 3);
        let mut m = Machine::new(&g).unwrap();
        m.init().unwrap();
        for _ in 0..ceil_log2(12) {
            m.run_iteration().unwrap();
        }
        let run = HirschbergGca::new().run(&g).unwrap();
        assert_eq!(m.labels().unwrap(), run.labels);
        assert_eq!(m.generations(), run.generations);
    }

    #[test]
    fn double_init_is_out_of_order() {
        let g = generators::empty(2);
        let mut m = Machine::new(&g).unwrap();
        m.init().unwrap();
        let err = m.init().unwrap_err();
        assert_eq!(
            err,
            GcaError::OutOfOrder {
                call: "init",
                initialized: true
            }
        );
        assert_eq!(m.generations(), 1, "the rejected init ran nothing");
    }

    #[test]
    fn iterate_before_init_is_out_of_order() {
        let g = generators::empty(2);
        let mut m = Machine::new(&g).unwrap();
        let expected = GcaError::OutOfOrder {
            call: "run_iterations",
            initialized: false,
        };
        assert_eq!(m.run_iteration().unwrap_err(), expected);
        assert_eq!(m.run_iterations(3).unwrap_err(), expected);
        assert_eq!(m.generations(), 0);
    }

    #[test]
    fn metrics_recorded_per_generation() {
        let g = generators::gnp(8, 0.4, 5);
        let run = HirschbergGca::new().run(&g).unwrap();
        assert_eq!(run.metrics.generations() as u64, run.generations);
        assert!(run.max_congestion() >= 1);
    }

    #[test]
    fn checkpoint_and_resume() {
        let g = generators::gnp(14, 0.2, 8);
        let reference = HirschbergGca::new().run(&g).unwrap();

        // Run one iteration, checkpoint, resume in a fresh machine.
        let mut first = Machine::new(&g).unwrap();
        first.init().unwrap();
        first.run_iteration().unwrap();
        let snap = first.snapshot();

        let mut resumed = Machine::new(&g).unwrap();
        resumed.restore(&snap).unwrap();
        for _ in 1..ceil_log2(14) {
            resumed.run_iteration().unwrap();
        }
        assert_eq!(resumed.labels().unwrap(), reference.labels);
    }

    #[test]
    fn checkpoint_survives_serialization() {
        let g = generators::ring(9);
        let mut m = Machine::new(&g).unwrap();
        m.init().unwrap();
        m.run_iteration().unwrap();
        let snap = m.snapshot();
        // The snapshot is plain data: clone-equivalence stands in for a
        // serde round trip here (the JSON round trip is tested in the
        // engine crate; HCell's serde derive is exercised by it).
        let copied = snap.clone();
        let mut restored = Machine::new(&g).unwrap();
        restored.restore(&copied).unwrap();
        assert_eq!(restored.labels_raw(), m.labels_raw());
    }

    #[test]
    fn restore_rejects_wrong_shape() {
        let g9 = generators::ring(9);
        let g8 = generators::ring(8);
        let m9 = Machine::new(&g9).unwrap();
        let snap = m9.snapshot();
        let mut m8 = Machine::new(&g8).unwrap();
        assert!(m8.restore(&snap).is_err());
    }

    #[test]
    fn convenience_function() {
        let g = generators::path(6);
        let l = connected_components(&g).unwrap();
        assert_eq!(l.as_slice(), &[0, 0, 0, 0, 0, 0]);
    }

    fn fused_test_corpus() -> Vec<AdjacencyMatrix> {
        vec![
            generators::empty(1),
            generators::empty(5),
            generators::path(7),
            generators::ring(16),
            generators::star(9),
            generators::complete(8),
            generators::gnp(20, 0.15, 2),
            generators::gnp(13, 0.45, 11),
            generators::random_forest(18, 4, 3),
            generators::planted_components(15, 3, 0.7, 1).graph,
        ]
    }

    /// The reference configuration: the engine ticking every cell.
    fn generic() -> HirschbergGca {
        HirschbergGca::new().exec(ExecPath::Generic)
    }

    #[test]
    fn fused_is_the_default_path() {
        let g = generators::ring(6);
        assert_eq!(ExecPath::default(), ExecPath::Fused);
        assert_eq!(Machine::new(&g).unwrap().exec(), ExecPath::Fused);
        assert_eq!(HirschbergGca::new().exec, ExecPath::Fused);
    }

    #[test]
    fn fused_parallel_is_an_alias_of_fused() {
        use gca_engine::recovery::{RecoveryOutcome, Supervisor};
        let alias = ExecPath::FusedParallel(FusedParallel::with_workers(2));
        let graphs = fused_test_corpus();
        let fused = HirschbergGca::new().exec(ExecPath::Fused);
        for g in &graphs {
            let want = fused.run(g).unwrap();
            let got = HirschbergGca::new().exec(alias).run(g).unwrap();
            assert_eq!(got.labels, want.labels, "{g:?}");
            assert_eq!(got.generations, want.generations, "{g:?}");
            assert_eq!(got.metrics.entries(), want.metrics.entries(), "{g:?}");
            if g.n() == 0 {
                continue;
            }

            let mut m = Machine::new(g).unwrap().with_exec(alias);
            assert_eq!(m.exec(), ExecPath::Fused);
            m.init().unwrap();
            m.run_iterations(u64::from(ceil_log2(g.n()))).unwrap();
            assert_eq!(m.labels().unwrap(), want.labels, "{g:?}");
            assert_eq!(m.generations(), want.generations, "{g:?}");
            assert_eq!(m.metrics().entries(), want.metrics.entries(), "{g:?}");

            let mut sm = SupervisedMachine::new(g, Engine::sequential(), alias).unwrap();
            assert_eq!(sm.machine().exec(), ExecPath::Fused);
            let report = Supervisor::default().run(&mut sm);
            assert!(matches!(report.outcome, RecoveryOutcome::Clean), "{report}");
            assert_eq!(report.initial_rung, "fused");
            assert_eq!(sm.labels().unwrap(), want.labels, "{g:?}");
            assert_eq!(sm.machine().generations(), want.generations, "{g:?}");
            assert_eq!(sm.machine().metrics().entries(), want.metrics.entries(), "{g:?}");
        }
        let batch: Vec<_> = graphs.into_iter().filter(|g| g.n() > 0).collect();
        let want = BatchRunner::new().run(&batch).unwrap();
        let got = BatchRunner::new().exec(alias).run(&batch).unwrap();
        assert_eq!(got.labels, want.labels);
    }

    #[test]
    fn fused_matches_generic_labels_and_metrics() {
        for g in &fused_test_corpus() {
            let generic = generic().run(g).unwrap();
            let fused = HirschbergGca::new().exec(ExecPath::Fused).run(g).unwrap();
            assert_eq!(fused.labels, generic.labels, "labels diverge on {g:?}");
            assert_eq!(fused.generations, generic.generations);
            assert_eq!(
                fused.metrics.entries(),
                generic.metrics.entries(),
                "metrics diverge on {g:?}"
            );
        }
    }

    #[test]
    fn fused_matches_generic_under_detect() {
        for g in &fused_test_corpus() {
            let generic = generic().convergence(Convergence::Detect).run(g).unwrap();
            let fused = HirschbergGca::new()
                .convergence(Convergence::Detect)
                .exec(ExecPath::Fused)
                .run(g)
                .unwrap();
            assert_eq!(fused.labels, generic.labels, "labels diverge on {g:?}");
            assert_eq!(fused.generations, generic.generations, "detect skipped differently");
            assert_eq!(fused.metrics.entries(), generic.metrics.entries());
        }
    }

    /// Runs `g` on the fused and the generic path in lockstep, one
    /// iteration at a time, and asserts identical labels, generation
    /// counts, `Counts` logs and fields after init and at every iteration
    /// boundary.
    fn assert_boundaries_match_generic(g: &AdjacencyMatrix, convergence: Convergence) {
        let iterations = ceil_log2(g.n());
        assert_lockstep(g, convergence, Instrumentation::Counts, iterations);
    }

    /// [`assert_boundaries_match_generic`] under `instr`, over `iterations`
    /// iterations. Returns the sweep iterations the fused machine computed
    /// rather than replayed.
    fn assert_lockstep(
        g: &AdjacencyMatrix,
        convergence: Convergence,
        instr: Instrumentation,
        iterations: u32,
    ) -> u64 {
        let n = g.n();
        let machine = |exec| {
            Machine::with_engine(g, Engine::sequential().with_instrumentation(instr))
                .unwrap()
                .with_exec(exec)
                .with_convergence(convergence)
        };
        let mut want = machine(ExecPath::Generic);
        let mut got = machine(ExecPath::Fused);
        want.init().unwrap();
        got.init().unwrap();
        for it in 0..=iterations {
            let at = format!("n = {n} {convergence:?} {instr:?} iteration {it} on {g:?}");
            if it > 0 {
                assert_eq!(got.run_iteration().unwrap(), want.run_iteration().unwrap(), "{at}");
            }
            assert_eq!(got.labels_raw(), want.labels_raw(), "{at}");
            assert_eq!(got.generations(), want.generations(), "{at}");
            assert_eq!(got.metrics().entries(), want.metrics().entries(), "{at}");
            assert_eq!(got.to_field().states(), want.to_field().states(), "{at}");
        }
        got.computed
    }

    #[test]
    fn sweep_matches_generic_at_every_boundary_on_corner_sizes() {
        // n = 0 and 1 run no iteration; n = 2 has one tree partner per row;
        // n = 63, 64, 65, 128 and 129 put rows just inside, on and just
        // past one adjacency word boundary, and on and just past two.
        for n in [0usize, 1, 2, 63, 64, 65, 128, 129] {
            let graphs = [
                generators::empty(n),
                generators::path(n),
                generators::gnp(n, 0.06, n as u64 + 7),
            ];
            for g in &graphs {
                for convergence in [Convergence::Fixed, Convergence::Detect] {
                    assert_boundaries_match_generic(g, convergence);
                }
            }
        }
    }

    #[test]
    fn word_exact_rows_match_generic_at_every_boundary() {
        // Rows of exactly one (n = 64) and exactly two (n = 128) adjacency
        // words, no tail bits: the shapes of the benchmark's small-graph
        // CLI and library batch workloads, gnp(64, 0.04) and
        // gnp(128, 0.01), on the seeds of their first 30 inputs.
        for (n, p) in [(64, 0.04), (128, 0.01)] {
            for i in 0..30 {
                let g = generators::gnp(n, p, 1_000_003 + i);
                for convergence in [Convergence::Fixed, Convergence::Detect] {
                    assert_boundaries_match_generic(&g, convergence);
                }
            }
        }
    }

    #[test]
    fn sweep_enters_from_an_arbitrary_restored_plane() {
        // A plane no run produces — every cell a different word, labels
        // out of order, D_N unrelated to either — restored into a fused and
        // a generic machine: the next iteration reads column 0 only, so
        // both must agree on everything from there on.
        let n = 20;
        let g = generators::gnp(n, 0.15, 5);
        let mut cells = Machine::new(&g).unwrap().with_exec(ExecPath::Generic).to_field();
        for (i, c) in cells.states_mut().iter_mut().enumerate() {
            c.d = ((i * 7 + 3) % n) as Word;
        }
        let snap = FieldSnapshot::capture(&cells);
        let mut fused = Machine::new(&g).unwrap().with_exec(ExecPath::Fused);
        let mut want = Machine::new(&g).unwrap().with_exec(ExecPath::Generic);
        fused.restore(&snap).unwrap();
        want.restore(&snap).unwrap();
        assert_eq!(fused.to_field().states(), want.to_field().states());
        for _ in 0..ceil_log2(n) {
            fused.run_iteration().unwrap();
            want.run_iteration().unwrap();
            assert_eq!(fused.to_field().states(), want.to_field().states());
            assert_eq!(fused.metrics().entries(), want.metrics().entries());
        }
        assert!(fused.cells.is_none(), "the sweep dropped the restored cells");
    }

    #[test]
    fn run_iterations_after_single_steps_enters_the_sweep() {
        // Five single steps leave the machine mid-iteration in the engine's
        // field; the driver then starts whole iterations from
        // its column 0, exactly as the generic path does — including when
        // that column holds a partial minimum (∞ on gnp) that ends in a
        // pointer out of the field.
        let n = 24;
        for g in [generators::complete(n), generators::gnp(n, 0.12, 3)] {
            let mut fused = Machine::new(&g).unwrap();
            let mut want = Machine::new(&g).unwrap().with_exec(ExecPath::Generic);
            for m in [&mut fused, &mut want] {
                m.init().unwrap();
                for (gen, sub) in iteration_schedule(n).into_iter().take(5) {
                    m.step(gen, sub).unwrap();
                }
            }
            assert!(fused.cells.is_some(), "single steps hand the state to the engine");
            assert_eq!(fused.to_field().states(), want.to_field().states());
            let count = u64::from(ceil_log2(n));
            assert_eq!(fused.run_iterations(count), want.run_iterations(count));
            assert!(fused.cells.is_none());
            assert_eq!(fused.generations(), want.generations());
            assert_eq!(fused.to_field().states(), want.to_field().states());
            assert_eq!(fused.metrics().entries(), want.metrics().entries());
        }
    }

    #[test]
    fn step_driver_matches_run_iterations_on_every_exec_path() {
        // The single-step API over the schedule and the iteration driver are
        // two walks of the same state machine: on every exec path they must
        // agree on labels, generation count and the full `Counts` log (and
        // both with the generic reference), and every single step — an
        // engine tick on every path — reports the generic step's full
        // congestion histogram. n = 70 spans two adjacency words.
        let n = 70;
        let g = generators::gnp(n, 0.08, 21);
        let reference = generic().run(&g).unwrap();
        for exec in [ExecPath::Generic, ExecPath::Fused] {
            let mut want = Machine::new(&g).unwrap().with_exec(ExecPath::Generic);
            let mut stepped = Machine::new(&g).unwrap().with_exec(exec);
            want.init().unwrap();
            let rep = stepped.init().unwrap();
            assert_eq!(rep.active_cells, n * (n + 1), "{exec:?} init");
            for _ in 0..ceil_log2(n) {
                for (gen, sub) in iteration_schedule(n) {
                    let want = want.step(gen, sub).unwrap();
                    let rep = stepped.step(gen, sub).unwrap();
                    assert!(rep.congestion.is_some(), "{exec:?} {gen:?}/{sub} histogram");
                    assert_eq!(rep.congestion, want.congestion, "{exec:?} {gen:?}/{sub}");
                }
            }
            let mut driven = Machine::new(&g).unwrap().with_exec(exec);
            driven.init().unwrap();
            driven.run_iterations(u64::from(ceil_log2(n))).unwrap();
            for m in [&stepped, &driven] {
                assert_eq!(m.labels().unwrap(), reference.labels, "{exec:?}");
                assert_eq!(m.generations(), reference.generations, "{exec:?}");
                assert_eq!(m.metrics().entries(), reference.metrics.entries(), "{exec:?}");
            }
            assert_eq!(
                stepped.to_field().states(),
                driven.to_field().states(),
                "{exec:?}"
            );
        }
    }

    #[test]
    fn sweep_accounting_memory_is_linear_in_n() {
        // Counting keeps a compact footprint per generation, and an
        // unobserved fused run never builds the engine's n(n + 1) field.
        let n = 256;
        let g = generators::gnp(n, 0.05, 3);
        let mut m = Machine::new(&g).unwrap().with_exec(ExecPath::Fused);
        m.init().unwrap();
        m.run_iterations(u64::from(ceil_log2(n))).unwrap();
        assert_eq!(m.metrics().generations() as u64, total_generations(n));
        assert!(m.cells.is_none(), "the sweep built the engine's field");
        let held = m.sweep.accounting_capacity();
        assert!(held <= n + 1, "the footprint holds {held} counters");
    }

    #[test]
    fn fused_with_instrumentation_off_still_labels_correctly() {
        for g in &fused_test_corpus() {
            let expected = union_find_components_dense(g);
            let run = HirschbergGca::new()
                .with_engine(Engine::sequential().with_instrumentation(Instrumentation::Off))
                .exec(ExecPath::Fused)
                .run(g)
                .unwrap();
            assert_eq!(run.labels.as_slice(), expected.as_slice());
            assert_eq!(run.metrics.generations(), 0);
        }
    }

    #[test]
    fn observation_routes_fused_runs_to_the_engine() {
        let g = generators::gnp(9, 0.3, 6);
        let engine = |i| Engine::sequential().with_instrumentation(i);
        let m = Machine::new(&g).unwrap().with_exec(ExecPath::Fused);
        assert!(m.sweeping(), "Counts instrumentation sweeps");
        for instr in [Instrumentation::Trace, Instrumentation::Validate] {
            let m = Machine::with_engine(&g, engine(instr)).unwrap();
            assert!(!m.sweeping(), "{instr:?} ticks the engine");
        }
        let mut armed = Machine::new(&g).unwrap();
        armed.set_fault_plan(Some(FaultPlan::new(FaultKind::BitFlip { bit: 0 }, 99, 0)));
        assert!(!armed.sweeping(), "an armed fault plan ticks the engine");
        let mut traced = Machine::with_engine(&g, engine(Instrumentation::Trace)).unwrap();
        let rep = traced.init().unwrap();
        // The generic evaluator recorded per-cell accesses.
        assert!(rep.accesses.is_some());
    }

    #[test]
    fn fused_early_exit_composes() {
        for seed in 0..4 {
            let g = generators::gnp(15, 0.25, seed);
            let expected = union_find_components_dense(&g);
            let run = HirschbergGca::new()
                .exec(ExecPath::Fused)
                .convergence(Convergence::Detect)
                .early_exit(true)
                .run(&g)
                .unwrap();
            assert_eq!(run.labels.as_slice(), expected.as_slice());
        }
    }

    #[test]
    fn validated_fused_runs_cross_check_cleanly() {
        // A correct sweep passes the cross-check, with labels and metrics
        // identical to a plain Counts run on generic.
        for g in &fused_test_corpus() {
            let reference = generic().run(g).unwrap();
            let validated = HirschbergGca::new()
                .with_engine(Engine::sequential().with_instrumentation(Instrumentation::Validate))
                .exec(ExecPath::Fused)
                .run(g)
                .unwrap();
            assert_eq!(validated.labels, reference.labels, "on {g:?}");
            assert_eq!(validated.generations, reference.generations);
            assert_eq!(validated.metrics.entries(), reference.metrics.entries());
        }
    }

    #[test]
    fn validate_generic_path_runs_clean() {
        // The sanitizer on the generic path: HirschbergRule's domain hints
        // are honest, so a Validate run must succeed with Counts metrics.
        let g = generators::gnp(16, 0.3, 9);
        let reference = generic().run(&g).unwrap();
        let validated = generic()
            .with_engine(Engine::sequential().with_instrumentation(Instrumentation::Validate))
            .run(&g)
            .unwrap();
        assert_eq!(validated.labels, reference.labels);
        assert_eq!(validated.metrics.entries(), reference.metrics.entries());
    }

    #[test]
    fn seeded_sweep_fault_is_caught_by_the_cross_check() {
        let g = generators::gnp(12, 0.3, 5);
        let mut m = Machine::with_engine(
            &g,
            Engine::sequential().with_instrumentation(Instrumentation::Validate),
        )
        .unwrap();
        m.init().unwrap();
        m.seed_sweep_fault(SweepFault::FlipT(0));
        let err = m.run_iteration().unwrap_err();
        // The flipped T′(0) first shows in the reads of the pointer chases
        // (generations 10 and 11) or, failing that, in the boundary field.
        let last = total_generations(12) / u64::from(ceil_log2(12));
        match err {
            GcaError::KernelDivergence {
                cell,
                generation,
                phase,
            } => {
                assert!(cell < 12 * 13, "cell {cell} outside the field");
                assert!(generation <= last, "not in the first iteration: {generation}");
                assert!(
                    phase == Gen::PointerJump.number() || phase == Gen::FinalMin.number(),
                    "phase {phase}"
                );
            }
            other => panic!("expected KernelDivergence, got {other:?}"),
        }
    }

    #[test]
    fn fault_plans_on_fused_paths_are_caught_by_the_invariant_checker() {
        // An armed plan routes the fused path to the engine, whose every
        // generation the invariant checker judges, exactly as on generic.
        let g = generators::gnp(12, 0.3, 5);
        let mut m = Machine::with_engine(
            &g,
            Engine::sequential().with_instrumentation(Instrumentation::Validate),
        )
        .unwrap();
        m.init().unwrap();
        let target = 3; // a square-field cell every iteration writes
        m.set_fault_plan(Some(FaultPlan::new(FaultKind::BitFlip { bit: 0 }, 1, target)));
        match m.run_iteration().unwrap_err() {
            GcaError::InvariantViolation {
                cell,
                generation,
                phase,
                ..
            } => {
                assert_eq!(cell, target);
                assert_eq!(generation, 1, "fault seeded on the first post-init generation");
                assert_eq!(phase, Gen::BroadcastC.number());
            }
            other => panic!("expected InvariantViolation, got {other:?}"),
        }
    }

    #[test]
    fn validate_detect_convergence_matches_generic() {
        for seed in 0..3 {
            let g = generators::gnp(14, 0.25, seed);
            let reference = generic().convergence(Convergence::Detect).run(&g).unwrap();
            let validated = HirschbergGca::new()
                .with_engine(Engine::sequential().with_instrumentation(Instrumentation::Validate))
                .convergence(Convergence::Detect)
                .exec(ExecPath::Fused)
                .run(&g)
                .unwrap();
            assert_eq!(validated.labels, reference.labels);
            assert_eq!(validated.generations, reference.generations);
            assert_eq!(validated.metrics.entries(), reference.metrics.entries());
        }
    }

    #[test]
    fn fused_snapshot_restore_roundtrip_agrees_with_cellfield() {
        // A snapshot is a CellField copy of the state, whatever path wrote
        // it: one taken mid-fused-run must restore into both a fresh fused
        // machine and a generic machine, and all three must finish in the
        // same state, adjacency included.
        let g = generators::gnp(20, 0.2, 6);
        let mut fused = Machine::new(&g).unwrap().with_exec(ExecPath::Fused);
        fused.init().unwrap();
        fused.run_iteration().unwrap();
        let snap = fused.snapshot();
        let mut resumed_fused = Machine::new(&g).unwrap().with_exec(ExecPath::Fused);
        resumed_fused.restore(&snap).unwrap();
        let mut resumed_generic = Machine::new(&g).unwrap().with_exec(ExecPath::Generic);
        resumed_generic.restore(&snap).unwrap();
        for _ in 1..ceil_log2(20) {
            fused.run_iteration().unwrap();
            resumed_fused.run_iteration().unwrap();
            resumed_generic.run_iteration().unwrap();
        }
        assert_eq!(fused.labels().unwrap(), resumed_fused.labels().unwrap());
        assert_eq!(fused.labels().unwrap(), resumed_generic.labels().unwrap());
        assert_eq!(
            fused.to_field().states(),
            resumed_generic.to_field().states()
        );
    }

    #[test]
    fn exec_path_switches_between_iterations_are_invisible() {
        // Flipping the exec path between iterations: generic iterations
        // build the engine's field from the vectors, fused ones read its
        // column 0 and drop it again.
        let n = 14;
        let g = generators::gnp(n, 0.25, 9);
        let mut m = Machine::new(&g).unwrap();
        let mut reference = Machine::new(&g).unwrap().with_exec(ExecPath::Generic);
        m.init().unwrap();
        reference.init().unwrap();
        for it in 0..ceil_log2(n) {
            m.set_exec(if it % 2 == 0 {
                ExecPath::Fused
            } else {
                ExecPath::Generic
            });
            m.run_iteration().unwrap();
            reference.run_iteration().unwrap();
            assert_eq!(m.to_field().states(), reference.to_field().states(), "iter {it}");
        }
        assert_eq!(m.labels().unwrap(), reference.labels().unwrap());
        assert_eq!(m.metrics().entries(), reference.metrics().entries());
    }

    #[test]
    fn fields_match_the_layout_build_and_agree_after_init() {
        // n = 70 spans two adjacency words per row.
        for g in [generators::gnp(9, 0.4, 3), generators::gnp(70, 0.2, 5)] {
            let built = Layout::new(g.n()).unwrap().build_field(&g).unwrap();
            let mut generic = Machine::new(&g).unwrap().with_exec(ExecPath::Generic);
            let mut fused = Machine::new(&g).unwrap();
            assert_eq!(fused.to_field().states(), built.states(), "n = {}", g.n());
            generic.init().unwrap();
            fused.init().unwrap();
            assert!(generic.cells.is_some() && fused.cells.is_none());
            assert_eq!(fused.to_field().states(), generic.to_field().states(), "n = {}", g.n());
        }
    }

    #[test]
    fn zero_size_machine_has_an_empty_field() {
        let g = generators::empty(0);
        let mut m = Machine::new(&g).unwrap();
        assert!(m.to_field().is_empty());
        m.init().unwrap();
        let snap = m.snapshot();
        m.restore(&snap).unwrap();
        assert!(m.to_field().is_empty());
        assert!(m.labels_raw().is_empty());
    }

    #[test]
    fn restore_takes_data_words_and_rejects_foreign_adjacency() {
        let n = 9;
        let g = generators::gnp(n, 0.4, 3);
        let mut m = Machine::new(&g).unwrap();
        m.init().unwrap();
        m.run_iteration().unwrap();
        let before = m.to_field();

        // Any data words come back as they were captured.
        let mut cells = before.clone();
        for (i, c) in cells.states_mut().iter_mut().enumerate() {
            c.d = (i % n) as Word;
        }
        let mut restored = Machine::new(&g).unwrap();
        restored.restore(&FieldSnapshot::capture(&cells)).unwrap();
        assert_eq!(restored.to_field().states(), cells.states());

        // A flipped adjacency bit, in the square or in D_N, or another
        // graph's adjacency is a typed error that leaves the machine as
        // it was.
        let flipped = |cell: usize| {
            let mut cells = before.clone();
            cells.states_mut()[cell].a ^= true;
            (cell, cells)
        };
        let other = generators::ring(n);
        let differs = |i: usize| g.has_edge(i / n, i % n) != other.has_edge(i / n, i % n);
        let foreign = ((0..n * n).find(|&i| differs(i)).unwrap(), Machine::new(&other).unwrap().to_field());
        for (cell, cells) in [flipped(5), flipped(n * n + 2), foreign] {
            let err = m.restore(&FieldSnapshot::capture(&cells)).unwrap_err();
            assert_eq!(err, GcaError::AdjacencyMismatch { cell });
            assert_eq!(m.to_field().states(), before.states(), "cell {cell}");
        }
        m.run_iterations(u64::from(ceil_log2(n)) - 1).unwrap();
        let expected = union_find_components_dense(&g);
        assert_eq!(m.labels().unwrap().as_slice(), expected.as_slice());
    }

    #[test]
    fn reset_with_reuses_machine() {
        let g1 = generators::gnp(12, 0.3, 1);
        let g2 = generators::ring(12);
        let mut m = Machine::new(&g1).unwrap().with_exec(ExecPath::Fused);
        m.init().unwrap();
        for _ in 0..ceil_log2(12) {
            m.run_iteration().unwrap();
        }
        m.reset_with(&g2).unwrap();
        assert_eq!(m.generations(), 0);
        assert_eq!(m.metrics().generations(), 0);
        m.init().unwrap();
        for _ in 0..ceil_log2(12) {
            m.run_iteration().unwrap();
        }
        let expected = union_find_components_dense(&g2);
        assert_eq!(m.labels().unwrap().as_slice(), expected.as_slice());
    }

    #[test]
    fn reset_with_rejects_wrong_size() {
        // A wrong-size graph is a typed error that leaves the machine as it
        // was; a matching one reproduces a freshly built machine's field.
        let g = generators::gnp(8, 0.4, 2);
        for exec in [ExecPath::Generic, ExecPath::Fused] {
            let mut m = Machine::new(&generators::ring(8)).unwrap().with_exec(exec);
            assert_eq!(
                m.reset_with(&generators::ring(9)).unwrap_err(),
                GcaError::GraphSizeMismatch {
                    graph_nodes: 9,
                    layout_nodes: 8
                }
            );
            m.init().unwrap();
            m.run_iteration().unwrap();
            m.reset_with(&g).unwrap();
            let fresh = Machine::new(&g).unwrap();
            assert_eq!(m.to_field().states(), fresh.to_field().states(), "{exec:?}");
            m.init().unwrap();
            m.run_iterations(u64::from(ceil_log2(8))).unwrap();
            let expected = union_find_components_dense(&g);
            assert_eq!(m.labels().unwrap().as_slice(), expected.as_slice());
        }
    }

    #[test]
    fn engine_cells_exist_only_while_the_engine_holds_the_state() {
        // The sweep's vectors and the graph are the whole state of an
        // unobserved fused run; the engine's field exists only once an
        // engine step (generic path, Trace, Validate) has needed it, and
        // the next unobserved sweep drops it again.
        let g = generators::gnp(12, 0.3, 4);
        let engine = |i| Engine::sequential().with_instrumentation(i);
        let cases = [
            (ExecPath::Fused, Instrumentation::Off, false),
            (ExecPath::Fused, Instrumentation::Counts, false),
            (ExecPath::Generic, Instrumentation::Off, true),
            (ExecPath::Generic, Instrumentation::Counts, true),
            (ExecPath::Fused, Instrumentation::Trace, true),
            (ExecPath::Fused, Instrumentation::Validate, true),
        ];
        for (exec, instr, allocates) in cases {
            let mut m = Machine::with_engine(&g, engine(instr)).unwrap().with_exec(exec);
            assert!(m.cells.is_none(), "{exec:?} {instr:?} at build");
            m.init().unwrap();
            m.run_iterations(u64::from(ceil_log2(12)) - 1).unwrap();
            assert_eq!(m.cells.is_some(), allocates, "{exec:?} {instr:?}");
            m.set_exec(ExecPath::Fused);
            m.run_iteration().unwrap();
            let sweeps = matches!(instr, Instrumentation::Off | Instrumentation::Counts);
            assert_eq!(m.cells.is_none(), sweeps, "{exec:?} {instr:?} then fused");
            let expected = union_find_components_dense(&g);
            assert_eq!(m.labels().unwrap().as_slice(), expected.as_slice());
        }
    }

    /// A fused machine settled on `g`: `⌈log₂ n⌉` iterations in.
    fn settled_machine(g: &AdjacencyMatrix) -> Machine {
        let mut m = Machine::new(g).unwrap();
        m.init().unwrap();
        m.run_iterations(u64::from(ceil_log2(g.n()))).unwrap();
        assert!(m.settled.valid, "did not settle on {g:?}");
        m
    }

    #[test]
    fn replay_skips_the_iterations_after_the_fixed_point() {
        // A forest of 16 trees on 256 nodes settles well before the
        // eighth iteration; the rest are replays.
        let n = 256;
        let g = generators::random_forest(n, 16, 1);
        let reference = generic().run(&g).unwrap();
        let mut m = Machine::new(&g).unwrap().with_exec(ExecPath::Fused);
        m.init().unwrap();
        m.run_iterations(u64::from(ceil_log2(n))).unwrap();
        assert!(
            m.computed < u64::from(ceil_log2(n)),
            "computed all {} iterations",
            m.computed
        );
        assert_eq!(m.labels().unwrap(), reference.labels);
        assert_eq!(m.generations(), reference.generations);
        assert_eq!(m.metrics().entries(), reference.metrics.entries());
    }

    #[test]
    fn replay_matches_generic_at_every_boundary() {
        // Two iterations past the schedule, so that every graph replays
        // more than once, under both convergence
        // policies and with and without accounting.
        let n = 40;
        let graphs = [
            generators::empty(n),
            generators::path(n),
            generators::star(n),
            generators::random_forest(n, 5, 2),
            generators::gnp(n, 0.04, 9),
            generators::planted_components(n, 4, 0.5, 3).graph,
        ];
        let iterations = ceil_log2(n) + 2;
        let mut computed = 0;
        for g in &graphs {
            for convergence in [Convergence::Fixed, Convergence::Detect] {
                for instr in [Instrumentation::Off, Instrumentation::Counts] {
                    computed += assert_lockstep(g, convergence, instr, iterations);
                }
            }
        }
        let swept = graphs.len() as u64 * 2 * 2 * u64::from(iterations);
        assert!(
            computed < swept / 2,
            "{computed} of {swept} sweeps computed"
        );
    }

    #[test]
    fn replay_after_single_steps_matches_generic() {
        // A settled machine single-stepped k generations into an
        // iteration, then driven by whole iterations: column 0 may or may
        // not equal the settled `C`, and both cases must match generic.
        let n = 24;
        let graphs = [
            generators::random_forest(n, 4, 6),
            generators::empty(n),
            generators::complete(n),
        ];
        let schedule = iteration_schedule(n);
        let mut replayed = 0;
        for g in &graphs {
            for k in 0..=schedule.len() {
                let mut fused = settled_machine(g);
                let mut want = Machine::new(g).unwrap().with_exec(ExecPath::Generic);
                want.init().unwrap();
                want.run_iterations(u64::from(ceil_log2(n))).unwrap();
                for m in [&mut fused, &mut want] {
                    for &(gen, sub) in &schedule[..k] {
                        m.step(gen, sub).unwrap();
                    }
                }
                let before = fused.computed;
                assert_eq!(
                    fused.run_iterations(2),
                    want.run_iterations(2),
                    "k = {k} on {g:?}"
                );
                replayed += 2 - (fused.computed - before);
                assert_eq!(fused.generations(), want.generations(), "k = {k} on {g:?}");
                assert_eq!(
                    fused.metrics().entries(),
                    want.metrics().entries(),
                    "k = {k} on {g:?}"
                );
                assert_eq!(
                    fused.to_field().states(),
                    want.to_field().states(),
                    "k = {k} on {g:?}"
                );
            }
        }
        assert!(replayed > 0, "no stepped machine replayed");
    }

    #[test]
    fn replay_after_restoring_the_settled_labels_with_another_t_prime() {
        // A boundary snapshot whose column 0 is the settled `C` but whose
        // other words are not its `T′`: the next iteration reads column 0
        // only, so it is a replay, and it must write the settled `T′`
        // back over the restored words.
        let n = 20;
        let g = generators::random_forest(n, 3, 4);
        let mut fused = settled_machine(&g);
        let mut want = Machine::new(&g).unwrap().with_exec(ExecPath::Generic);
        want.init().unwrap();
        want.run_iterations(u64::from(ceil_log2(n))).unwrap();
        let generation = fused.generations();
        let mut cells = fused.to_field();
        for (i, c) in cells.states_mut().iter_mut().enumerate() {
            if i % n != 0 || i >= n * n {
                c.d = ((i * 7 + 3) % n) as Word;
            }
        }
        assert_ne!(cells.states(), fused.to_field().states());
        let snap = FieldSnapshot::capture(&cells);
        for rollback in [false, true] {
            for m in [&mut fused, &mut want] {
                if rollback {
                    m.rollback_to(generation, &snap).unwrap();
                } else {
                    m.restore(&snap).unwrap();
                }
                assert_eq!(m.to_field().states(), cells.states());
            }
            // Nor may the replay lean on the `T′` the dormant vectors
            // still hold.
            fused.sweep.settle(&vec![0; n]);
            let before = fused.computed;
            fused.run_iteration().unwrap();
            want.run_iteration().unwrap();
            let at = format!("rollback = {rollback}");
            assert_eq!(fused.computed, before, "{at}: not replayed");
            assert_eq!(fused.generations(), want.generations(), "{at}");
            assert_eq!(fused.metrics().entries(), want.metrics().entries(), "{at}");
            assert_eq!(fused.to_field().states(), want.to_field().states(), "{at}");
        }
    }

    #[test]
    fn replay_follows_a_convergence_change() {
        // A star settled under `Fixed` runs every pointer jump; under
        // `Detect` the same `C` stops after the first one, so the record
        // taken under `Fixed` must not be replayed.
        let n = 16;
        let g = generators::star(n);
        let mut fused = settled_machine(&g).with_convergence(Convergence::Detect);
        let mut want = Machine::new(&g).unwrap().with_exec(ExecPath::Generic);
        want.init().unwrap();
        want.run_iterations(u64::from(ceil_log2(n))).unwrap();
        let mut want = want.with_convergence(Convergence::Detect);
        assert_eq!(fused.run_iterations(2), want.run_iterations(2));
        assert_eq!(fused.generations(), want.generations());
        assert_eq!(fused.metrics().entries(), want.metrics().entries());
        assert_eq!(fused.to_field().states(), want.to_field().states());
    }

    #[test]
    fn replay_does_not_swallow_a_sweep_fault_seeded_after_settling() {
        let n = 20;
        let g = generators::random_forest(n, 3, 5);
        let mut clean = settled_machine(&g);
        let mut faulty = settled_machine(&g);
        faulty.seed_sweep_fault(SweepFault::FlipT(0));
        let before = faulty.computed;
        clean.run_iteration().unwrap();
        faulty.run_iteration().unwrap();
        assert_eq!(
            faulty.computed,
            before + 1,
            "the faulted iteration was replayed"
        );
        assert_ne!(faulty.to_field().states(), clean.to_field().states());
        assert!(!faulty.settled.valid, "a faulted iteration was recorded");
    }

    #[test]
    fn labels_into_matches_labels_raw() {
        let g = generators::gnp(10, 0.3, 2);
        for exec in [ExecPath::Generic, ExecPath::Fused] {
            let mut m = Machine::new(&g).unwrap().with_exec(exec);
            m.init().unwrap();
            m.run_iteration().unwrap();
            let mut out = vec![99; 3];
            m.labels_into(&mut out);
            assert_eq!(out, m.labels_raw());
            assert_eq!(out.len(), 10);
        }
    }
}
