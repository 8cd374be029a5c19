use crate::complexity::{ceil_log2, total_generations};
use crate::hfield::HField;
use crate::invariants::{InvariantChecker, InvariantClass};
use crate::kernels::{FusedExecutor, ParPolicy};
use crate::{iteration_schedule, ExecPath, Gen, HCell, HirschbergRule, Layout};
use gca_engine::faults::{FaultKind, FaultPlan};
use gca_engine::metrics::{GenerationMetrics, MetricsLog};
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
/// The cell state is one struct-of-arrays `HField` on every exec path: a
/// 4-byte data plane plus the packed adjacency plane, the paper's `(d, a)`
/// registers. The fused kernels run on it in place; an engine step (the
/// generic path, the `Trace` fallback, the `Validate` replay) runs on a
/// lazily allocated `CellField<HCell>` scratch that is refilled from the
/// planes first, and the generic path copies the data words back.
pub struct Machine {
    layout: Layout,
    rule: HirschbergRule,
    engine: Engine,
    metrics: MetricsLog,
    convergence: Convergence,
    exec: ExecPath,
    /// The fused kernels, and in them the machine's cell state
    /// ([`FusedExecutor::field`]).
    fused: FusedExecutor,
    /// The engine scratch: allocated on the first engine step (or
    /// validated fused step) and refilled from the cell state before each.
    /// Under [`Instrumentation::Validate`] on the fused paths it is also
    /// the replay shadow. Never read as state.
    scratch: Option<CellField<HCell>>,
    initialized: bool,
    /// The differential harness armed by [`Instrumentation::Validate`] on
    /// the fused paths: a sequential reference engine (itself running the
    /// CROW sanitizer) that replays every fused generation on the scratch.
    replay: Option<Engine>,
    /// The algorithm-level invariant checker, also armed by
    /// [`Instrumentation::Validate`] — on *every* execution path. Replays
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
    /// Pre-generation capture of the data plane for dropped-generation
    /// faults.
    drop_words: Vec<Word>,
    /// Pre-generation value of a torn-write target word.
    torn_pre: Option<Word>,
}

/// Refills the engine scratch from the cell state, allocating it on first
/// use. A free function so that the caller can keep borrowing the engine
/// and the rule while it holds the scratch.
fn refill<'a>(
    scratch: &'a mut Option<CellField<HCell>>,
    layout: &Layout,
    state: &HField,
) -> &'a mut CellField<HCell> {
    let field = scratch.get_or_insert_with(|| CellField::new(*layout.shape(), HCell::new(0)));
    state.store(field.states_mut());
    field
}

impl Machine {
    /// Builds a machine for `graph` with a default (sequential, counting)
    /// engine.
    pub fn new(graph: &AdjacencyMatrix) -> Result<Self, GcaError> {
        Machine::with_engine(graph, Engine::sequential())
    }

    /// Builds a machine with an explicit engine configuration.
    pub fn with_engine(graph: &AdjacencyMatrix, engine: Engine) -> Result<Self, GcaError> {
        let layout = Layout::new(graph.n())?;
        let mut fused = FusedExecutor::new(graph.n());
        fused.field_mut().fill(graph)?;
        Ok(Machine {
            layout,
            rule: HirschbergRule::new(graph.n()),
            engine,
            metrics: MetricsLog::new(),
            convergence: Convergence::Fixed,
            exec: ExecPath::Generic,
            fused,
            scratch: None,
            initialized: false,
            replay: None,
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

    /// An array-of-structures copy of the current field, built on each
    /// call (the machine keeps its state in split planes).
    pub fn to_field(&self) -> CellField<HCell> {
        let mut field = CellField::new(*self.layout.shape(), HCell::new(0));
        self.fused.field().store(field.states_mut());
        field
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
    pub fn init(&mut self) -> Result<StepReport, GcaError> {
        if self.initialized {
            return Err(GcaError::OutOfOrder {
                call: "init",
                initialized: true,
            });
        }
        let rep = self.step(Gen::Init, 0)?;
        self.initialized = true;
        Ok(rep)
    }

    /// Executes a single `(generation, sub-generation)` of the state
    /// machine and records its metrics: one tick of the iteration driver,
    /// plus, on the fused paths under counting, the report's congestion
    /// histogram, expanded from the kernel's read footprint.
    pub fn step(&mut self, gen: Gen, subgeneration: u32) -> Result<StepReport, GcaError> {
        let mut rep = self.tick(gen, subgeneration)?;
        if self.fused_active() && self.counting() {
            rep.congestion = Some(self.fused.footprint().to_histogram());
        }
        Ok(rep)
    }

    /// One `(generation, sub-generation)` on the configured path: the
    /// engine's per-cell evaluator over the scratch, or the fused kernels
    /// over the cell state. Fires the armed fault plan, records the
    /// metrics entry and, under [`Instrumentation::Validate`], checks the
    /// generation. A fused tick reports no congestion histogram.
    fn tick(&mut self, gen: Gen, subgeneration: u32) -> Result<StepReport, GcaError> {
        self.ensure_invariant_checker();
        let generation = self.engine.generation();
        if !self.fused_active() {
            self.arm_fault(generation);
            let scratch = refill(&mut self.scratch, &self.layout, self.fused.field());
            let rep = self
                .engine
                .step(scratch, &self.rule, gen.number(), subgeneration)?;
            self.fused.field_mut().load_d(scratch.states());
            self.apply_fault(generation);
            if let Some(hist) = rep.congestion.as_ref() {
                self.metrics
                    .push(GenerationMetrics::new(rep.ctx, rep.active_cells, hist));
            }
            self.check_invariants(&rep.ctx)?;
            return Ok(rep);
        }
        let ctx = self.fused_ctx(gen, subgeneration);
        let counting = self.counting();
        let par = self.par_policy();
        self.begin_fused_validation();
        self.arm_fault(generation);
        let rep = self.fused.step(gen, &ctx, counting, par)?;
        self.apply_fault(generation);
        if self.validating() {
            self.check_fused_generation(&ctx)?;
            self.check_invariants(&ctx)?;
        }
        self.fused_commit(ctx, rep.active);
        Ok(StepReport {
            ctx,
            active_cells: rep.active,
            total_reads: rep.reads,
            changed_cells: rep.changed,
            evaluated_cells: rep.evaluated,
            workers: rep.workers,
            congestion: None,
            accesses: None,
        })
    }

    /// Fused kernels reproduce `Counts` metrics exactly, but per-cell
    /// access traces exist only in the generic evaluator — `Trace` steps
    /// fall back to it. `Validate` stays fused on purpose: that is what
    /// arms the differential replay harness against the kernels.
    fn fused_active(&self) -> bool {
        matches!(self.exec, ExecPath::Fused | ExecPath::FusedParallel(_))
            && !matches!(self.engine.instrumentation(), Instrumentation::Trace)
    }

    /// Resolves [`ExecPath::FusedParallel`]'s knob into the per-step policy
    /// the kernels consume: auto worker counts default to the hardware
    /// thread count, an unset threshold inherits the engine's shared
    /// tunable, and anything that resolves below two workers runs the
    /// plain sequential fused path.
    fn par_policy(&self) -> Option<ParPolicy> {
        let ExecPath::FusedParallel(cfg) = self.exec else {
            return None;
        };
        let workers = if cfg.workers == 0 {
            rayon::current_num_threads()
        } else {
            cfg.workers
        };
        (workers >= 2).then(|| ParPolicy {
            workers,
            threshold: cfg
                .threshold
                .unwrap_or_else(|| self.engine.min_parallel_cells()),
            explicit: cfg.workers != 0,
        })
    }

    /// Whether a step should account reads (mirrors the engine's `counting`).
    fn counting(&self) -> bool {
        !matches!(self.engine.instrumentation(), Instrumentation::Off)
    }

    /// Whether the CROW sanitizer / fused replay harness is armed.
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

    /// Arms (or clears) a deterministic fault plan. An armed plan injects
    /// its fault into the addressed committed generation on whichever
    /// execution path runs it (see [`gca_engine::faults`] for the per-kind
    /// semantics and which paths each kind applies to). Arming also
    /// disables the driver's broadcast+filter and pointer-jump fusions
    /// so that every scheduled generation materializes as an injection
    /// site; a `None` plan restores full fusion and costs nothing per
    /// step. The plan survives [`Machine::reset_with`] and
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
    /// optimized: generic 0, fused 1, fused-par 2.
    pub fn exec_level(&self) -> u8 {
        match self.exec {
            ExecPath::Generic => 0,
            ExecPath::Fused => 1,
            ExecPath::FusedParallel(_) => 2,
        }
    }

    /// Switches the execution path in place — the degradation ladder's
    /// rung change. Unlike [`Machine::with_exec`] this is callable
    /// mid-run; the paths share one cell state and are bit-identical in
    /// labels and metrics, so a switch at any generation boundary is
    /// semantically invisible.
    pub fn set_exec(&mut self, exec: ExecPath) {
        self.exec = exec;
    }

    /// Rewinds the machine to a checkpoint: restores the field snapshot,
    /// resets the engine's generation counter to `generation`, and
    /// truncates the metrics log to match (under counting instrumentation
    /// the log holds exactly one entry per committed generation, so the
    /// re-executed span appends over a clean suffix and a recovered run's
    /// log is bit-identical to an undisturbed one). The fused replay
    /// engine is dropped and re-arms in lockstep on the next validated
    /// generation.
    pub fn rollback_to(
        &mut self,
        generation: u64,
        snapshot: &FieldSnapshot<HCell>,
    ) -> Result<(), GcaError> {
        self.restore(snapshot)?;
        self.engine.rewind_to(generation);
        self.metrics.truncate(generation as usize);
        self.replay = None;
        self.torn_pre = None;
        Ok(())
    }

    /// Pre-generation half of the injection hook, shared by every path:
    /// captures whatever pre-state the armed fault needs. `generation` is
    /// the number the generation will commit as (the pre-step counter).
    /// Duplicated-chunk-row faults arm the fused kernels here (the overlap
    /// fires *inside* a partitioned counting broadcast).
    fn arm_fault(&mut self, generation: u64) {
        let Some(plan) = self.inject.as_ref() else {
            return;
        };
        match plan.peek(generation, self.exec_level()) {
            Some(FaultKind::DroppedGeneration) => {
                self.fused.save_plane(&mut self.drop_words);
            }
            Some(FaultKind::TornWrite) => {
                self.torn_pre = self.fused.word_at(plan.cell());
            }
            Some(FaultKind::DuplicatedChunkRow) if self.fused_active() => {
                self.fused.seed_partition_fault();
            }
            _ => {}
        }
    }

    /// Post-generation half of the injection hook: fires the plan and
    /// corrupts the committed state *before* the differential replay and
    /// the invariant checker look at it — exactly where a hardware fault
    /// between compute and commit would land. Detection under
    /// [`Instrumentation::Validate`] is the replay harness
    /// ([`GcaError::KernelDivergence`]) on the fused paths and the
    /// invariant checker's contract-step mirror on the generic path.
    /// Kinds whose surface lives in the fused kernels (stale occupancy
    /// bits, duplicated chunk rows, histogram merges) consume their charge
    /// without effect on the generic path: an engine step leaves no
    /// occupancy plane, no partition and no kernel histogram.
    fn apply_fault(&mut self, generation: u64) {
        let level = self.exec_level();
        let kernel_hist = self.fused_active() && self.counting();
        let Some(plan) = self.inject.as_mut() else {
            return;
        };
        let Some(kind) = plan.fire(generation, level) else {
            return;
        };
        let cell = plan.cell();
        match kind {
            FaultKind::BitFlip { bit } => {
                if let Some(w) = self.fused.word_at(cell) {
                    self.fused.set_word(cell, w ^ (1 << (bit % Word::BITS)));
                }
            }
            FaultKind::TornWrite => {
                if let (Some(pre), Some(w)) = (self.torn_pre.take(), self.fused.word_at(cell)) {
                    self.fused
                        .set_word(cell, (w & !TORN_LO_MASK) | (pre & TORN_LO_MASK));
                }
            }
            FaultKind::DroppedGeneration => {
                self.fused.load_plane(&self.drop_words);
            }
            FaultKind::StaleOccupancy => {
                self.fused.clear_occ_bit(cell);
            }
            FaultKind::CorruptHistogramMerge => {
                if kernel_hist {
                    self.fused.bump_read(cell);
                }
            }
            // Armed pre-generation; the overlap already fired inside the
            // partitioned broadcast (or expired unobserved if this
            // generation ran sequentially).
            FaultKind::DuplicatedChunkRow => {}
        }
    }

    /// Lazily (re)builds the invariant checker from the cell state — the
    /// pre-state of the next generation to run. Called before every
    /// generation executes; a checker dropped by `reset_with`/`restore`
    /// re-arms here (at an iteration boundary, where column 0 carries the
    /// labels the boundary invariants need). No-op unless validating.
    fn ensure_invariant_checker(&mut self) {
        if !self.validating() || self.inv.is_some() {
            return;
        }
        let n = self.n();
        let state = self.fused.field();
        let adj = (0..n * n).map(|i| state.adjacency(i)).collect();
        let mut inv = InvariantChecker::new(n, adj, &state.d);
        if let Some(class) = self.inv_fault.take() {
            inv.seed_fault(class);
        }
        self.inv = Some(inv);
    }

    /// Replays the committed generation through the contract transfer
    /// functions and asserts the invariant set. No-op unless validating
    /// (`ensure_invariant_checker` arms the checker in that case, so a
    /// validating machine always has one here).
    fn check_invariants(&mut self, ctx: &StepCtx) -> Result<(), GcaError> {
        if !self.validating() {
            return Ok(());
        }
        match self.inv.as_mut() {
            Some(inv) => inv.after_generation(ctx, &self.fused.field().d),
            None => Ok(()),
        }
    }

    /// Refills the scratch with the pre-generation state so the replay
    /// engine can re-run the generation the fused kernel is about to run.
    /// No-op unless validating.
    fn begin_fused_validation(&mut self) {
        if !self.validating() {
            return;
        }
        let engine = self.replay.get_or_insert_with(|| {
            Engine::sequential().with_instrumentation(Instrumentation::Validate)
        });
        // Keep the replay engine's generation counter in lockstep (it may
        // lag when the machine was restored from a snapshot).
        while engine.generation() < self.engine.generation() {
            engine.advance_generation();
        }
        refill(&mut self.scratch, &self.layout, self.fused.field());
    }

    /// The differential check: replays the generation the fused kernel just
    /// executed through the reference engine (running the CROW sanitizer)
    /// on the scratch, then compares data words and per-cell read counts
    /// (the replay's histogram against the kernel's read footprint) cell
    /// by cell. The first disagreeing cell is reported as
    /// [`GcaError::KernelDivergence`]. Runs only under validation, after
    /// [`Machine::begin_fused_validation`].
    fn check_fused_generation(&mut self, ctx: &StepCtx) -> Result<(), GcaError> {
        let (Some(engine), Some(shadow)) = (self.replay.as_mut(), self.scratch.as_mut()) else {
            return Ok(());
        };
        let rep = engine.step(shadow, &self.rule, ctx.phase, ctx.subgeneration)?;
        let diverged = |cell: usize| GcaError::KernelDivergence {
            cell,
            generation: ctx.generation,
            phase: ctx.phase,
        };
        let plane = &self.fused.field().d;
        if let Some(cell) = shadow
            .states()
            .iter()
            .zip(plane)
            .position(|(replayed, &fused)| replayed.d != fused)
        {
            return Err(diverged(cell));
        }
        if let Some(hist) = rep.congestion.as_ref() {
            let kernel = self.fused.footprint();
            if let Some(cell) = (0..plane.len()).find(|&i| hist.reads_of(i) != kernel.reads_of(i)) {
                return Err(diverged(cell));
            }
        }
        Ok(())
    }

    fn fused_ctx(&self, gen: Gen, subgeneration: u32) -> StepCtx {
        StepCtx {
            generation: self.engine.generation(),
            phase: gen.number(),
            subgeneration,
        }
    }

    /// Books one successfully executed fused generation: advances the
    /// engine's generation counter and appends the metrics entry, built
    /// from the kernel's read footprint, exactly as an engine-executed step
    /// would.
    fn fused_commit(&mut self, ctx: StepCtx, active: usize) {
        self.engine.advance_generation();
        if self.counting() {
            self.metrics.push(GenerationMetrics::from_footprint(
                ctx,
                active,
                self.fused.footprint(),
            ));
        }
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
    /// This is the iteration driver: it walks `iteration_schedule(n)`
    /// `count` times with one `Machine::tick` per entry. Two fused special
    /// cases run several entries in one call: the broadcast+filter
    /// pair (gated by `Machine::fuse_broadcast_filter`) and the
    /// pointer-jump ping-pong (`Machine::fused_pointer_jump`).
    pub fn run_iterations(&mut self, count: u64) -> Result<u64, GcaError> {
        if !self.initialized {
            return Err(GcaError::OutOfOrder {
                call: "run_iterations",
                initialized: false,
            });
        }
        let schedule = iteration_schedule(self.n());
        let fuse_pair = self.fuse_broadcast_filter();
        // The ping-pong keeps labels in private buffers between
        // sub-generations. The replay harness needs every generation's
        // writes in the data plane, and an armed fault plan needs every
        // generation as an injection site, so both tick each jump instead.
        let ping_pong = self.fused_active() && !self.validating() && self.inject.is_none();
        let detect = self.convergence == Convergence::Detect;
        let mut executed = 0;
        for _ in 0..count {
            // A generation whose remaining entries this iteration already
            // ran (a fused filter) or skips (converged pointer jumps).
            let mut done = None;
            for &(gen, sub) in &schedule {
                if done == Some(gen) {
                    continue;
                }
                match gen {
                    Gen::BroadcastC | Gen::BroadcastT if fuse_pair => {
                        done = Some(self.broadcast_filter_ticks(gen));
                        executed += 2;
                    }
                    Gen::PointerJump if ping_pong => {
                        executed += self.fused_pointer_jump()?;
                        done = Some(gen);
                    }
                    _ => {
                        let rep = self.tick(gen, sub)?;
                        executed += 1;
                        if detect && gen == Gen::PointerJump && rep.changed_cells == 0 {
                            done = Some(gen);
                        }
                        self.engine.recycle(rep);
                    }
                }
            }
        }
        Ok(executed)
    }

    /// Whether the driver may fuse each broadcast with the filter that
    /// immediately follows it (generations 1+2 and 5+6). Requires a fused
    /// path *and* an unobservable intermediate state: under
    /// validation the replay harness compares the field after every
    /// generation, so it must see the broadcast materialized. An armed
    /// fault plan also disables the fusion: fault coordinates address
    /// individual committed generations, so every generation must
    /// materialize as an injection site. Counting does not: both halves
    /// have static read footprints, committed one per generation.
    fn fuse_broadcast_filter(&self) -> bool {
        self.fused_active() && !self.validating() && self.inject.is_none()
    }

    /// Runs one fused broadcast+filter pair (generations 1+2 for
    /// [`Gen::BroadcastC`], 5+6 for [`Gen::BroadcastT`]) and commits both
    /// generations, each with its own read footprint, exactly as two
    /// separate ticks would have. Returns the filter generation it ran.
    fn broadcast_filter_ticks(&mut self, broadcast: Gen) -> Gen {
        let members = broadcast == Gen::BroadcastT;
        let filter = if members {
            Gen::FilterMembers
        } else {
            Gen::FilterNeighbors
        };
        let par = self.par_policy();
        let (bcast, filtered) = self.fused.broadcast_filter(members, par);
        for (gen, rep) in [(broadcast, bcast), (filter, filtered)] {
            // Each ctx is built after the previous commit so its generation
            // number advances exactly as under separate ticks.
            let ctx = self.fused_ctx(gen, 0);
            self.fused.record_footprint(&rep);
            self.fused_commit(ctx, rep.active);
        }
        filter
    }

    /// All pointer-jump sub-generations in one fused call: gather column 0
    /// once, ping-pong the two label buffers per sub-generation, scatter
    /// once at the end (also on error, so committed sub-generations stay
    /// visible exactly as the generic engine leaves them).
    fn fused_pointer_jump(&mut self) -> Result<u64, GcaError> {
        let counting = self.counting();
        let par = self.par_policy();
        self.fused.gather_labels();
        let mut executed = 0u64;
        let mut failure = None;
        for s in 0..ceil_log2(self.n()) {
            let ctx = self.fused_ctx(Gen::PointerJump, s);
            match self.fused.jump_once(&ctx, counting, par) {
                Ok(rep) => {
                    self.fused_commit(ctx, rep.active);
                    executed += 1;
                    if self.convergence == Convergence::Detect && rep.changed == 0 {
                        break;
                    }
                }
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        self.fused.scatter_labels();
        match failure {
            None => Ok(executed),
            Some(e) => Err(e),
        }
    }

    /// Captures the complete field state for checkpointing. Meaningful at
    /// iteration boundaries (mid-iteration snapshots additionally require
    /// the caller to remember the schedule position).
    pub fn snapshot(&self) -> FieldSnapshot<HCell> {
        FieldSnapshot::capture(&self.to_field())
    }

    /// Restores a previously captured field state into this machine. The
    /// snapshot must match the machine's field shape; the machine is marked
    /// initialized (snapshots are taken after generation 0 by construction).
    pub fn restore(&mut self, snapshot: &FieldSnapshot<HCell>) -> Result<(), GcaError> {
        let field = snapshot.restore()?;
        if field.shape() != self.layout.shape() {
            return Err(GcaError::ShapeMismatch {
                expected: self.layout.cells(),
                actual: field.len(),
            });
        }
        self.fused.field_mut().load(field.states());
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
        let d = &self.fused.field().d;
        out.clear();
        out.extend((0..self.n()).map(|j| d[self.layout.c_index(j)]));
    }

    /// Reloads the machine with a new graph of the **same size**, reusing
    /// every buffer (cell state, scratch, metrics log, kernel scratch) —
    /// no allocation. The machine returns to its pre-[`Machine::init`]
    /// state; configuration (engine, convergence, exec path) is kept. A
    /// graph of another size is [`GcaError::GraphSizeMismatch`] and leaves
    /// the machine as it was.
    pub fn reset_with(&mut self, graph: &AdjacencyMatrix) -> Result<(), GcaError> {
        self.fused.field_mut().fill(graph)?;
        self.engine.reset();
        self.metrics.clear();
        self.initialized = false;
        if let Some(engine) = self.replay.as_mut() {
            engine.reset();
        }
        self.inv = None;
        self.inv_fault = None;
        Ok(())
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
    /// fixed `⌈log₂ n⌉` iterations (the paper's schedule), generic
    /// execution path.
    pub fn new() -> Self {
        HirschbergGca {
            engine: Engine::sequential(),
            early_exit: false,
            convergence: Convergence::Fixed,
            exec: ExecPath::Generic,
        }
    }

    /// Uses an explicit engine (backend / instrumentation).
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
    fn parallel_backend_matches_sequential() {
        for seed in 0..3 {
            let g = generators::gnp(19, 0.15, seed);
            let seq = HirschbergGca::new().run(&g).unwrap();
            let par = HirschbergGca::new()
                .with_engine(Engine::parallel())
                .run(&g)
                .unwrap();
            assert_eq!(seq.labels, par.labels);
            assert_eq!(seq.generations, par.generations);
        }
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

    #[test]
    fn fused_matches_generic_labels_and_metrics() {
        for g in &fused_test_corpus() {
            let generic = HirschbergGca::new().run(g).unwrap();
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
            let generic = HirschbergGca::new()
                .convergence(Convergence::Detect)
                .run(g)
                .unwrap();
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

    #[test]
    fn step_driver_matches_run_iterations_on_every_exec_path() {
        // The single-step API over the schedule and the iteration driver are
        // two walks of the same state machine: on every exec path they must
        // agree on labels, generation count and the full `Counts` log (and
        // both with the generic reference), and every single step's full
        // congestion histogram must equal the generic step's. n = 70 spans
        // two adjacency words.
        use crate::kernels::FusedParallel;
        let n = 70;
        let g = generators::gnp(n, 0.08, 21);
        let paths = [
            (ExecPath::Generic, 1),
            (ExecPath::Fused, 1),
            (
                ExecPath::FusedParallel(FusedParallel {
                    workers: 3,
                    threshold: Some(0),
                }),
                3,
            ),
        ];
        let reference = HirschbergGca::new().run(&g).unwrap();
        for (exec, init_workers) in paths {
            let mut generic = Machine::new(&g).unwrap();
            let mut stepped = Machine::new(&g).unwrap().with_exec(exec);
            let want = generic.init().unwrap();
            let rep = stepped.init().unwrap();
            assert_eq!(rep.workers, init_workers, "{exec:?} init chunking");
            assert_eq!(rep.congestion, want.congestion, "{exec:?} init histogram");
            for _ in 0..ceil_log2(n) {
                for (gen, sub) in iteration_schedule(n) {
                    let want = generic.step(gen, sub).unwrap();
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
    fn counts_logs_agree_on_every_exec_path_at_corner_sizes() {
        // n = 1 runs generation 0 alone over a two-cell field, whose D_N
        // row is one cell; n = 2 and 3 have one tree partner per row in
        // every sub-generation; n = 64, 65 and 70 put rows on, just past
        // and well past an adjacency word boundary.
        use crate::kernels::FusedParallel;
        let par = FusedParallel {
            workers: 3,
            threshold: Some(0),
        };
        let paths = [ExecPath::Fused, ExecPath::FusedParallel(par)];
        for n in [1usize, 2, 3, 64, 65, 70] {
            let graphs = [
                generators::empty(n),
                generators::path(n),
                generators::gnp(n, 0.1, n as u64),
            ];
            for g in &graphs {
                for convergence in [Convergence::Fixed, Convergence::Detect] {
                    let reference = HirschbergGca::new()
                        .convergence(convergence)
                        .run(g)
                        .unwrap();
                    for exec in paths {
                        let run = HirschbergGca::new()
                            .convergence(convergence)
                            .exec(exec)
                            .run(g)
                            .unwrap();
                        assert_eq!(run.labels, reference.labels, "n = {n} {exec:?}");
                        assert_eq!(
                            run.metrics.entries(),
                            reference.metrics.entries(),
                            "n = {n} {exec:?} {convergence:?} on {g:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn ragged_parallel_broadcast_filter_sweeps_match_generic() {
        // The broadcast+filter pair under row partitioning: three workers
        // take ⌈n/3⌉ rows each, which leaves a shorter last chunk at
        // n = 2, 64 and 65, and n = 63, 64, 65 and 129 put rows just
        // inside, on, just past one and just past two adjacency word
        // boundaries. Every pair commits two Counts entries that must
        // equal the generic path's two ticks.
        use crate::kernels::FusedParallel;
        let exec = ExecPath::FusedParallel(FusedParallel {
            workers: 3,
            threshold: Some(0),
        });
        for n in [1usize, 2, 3, 63, 64, 65, 129] {
            let g = generators::gnp(n, 0.06, n as u64 + 7);
            let m = Machine::new(&g).unwrap().with_exec(exec);
            assert!(m.fuse_broadcast_filter(), "n = {n}: the pair must run");
            for convergence in [Convergence::Fixed, Convergence::Detect] {
                let reference = HirschbergGca::new()
                    .convergence(convergence)
                    .run(&g)
                    .unwrap();
                let run = HirschbergGca::new()
                    .convergence(convergence)
                    .exec(exec)
                    .run(&g)
                    .unwrap();
                assert_eq!(run.labels, reference.labels, "n = {n} {convergence:?}");
                assert_eq!(
                    run.metrics.entries(),
                    reference.metrics.entries(),
                    "n = {n} {convergence:?}"
                );
            }
        }
    }

    #[test]
    fn accounting_memory_is_linear_in_n() {
        // Counting keeps a compact footprint per generation: no buffer the
        // executor holds for read accounting may outgrow n + 1 counters per
        // chunk, let alone the n(n + 1)-cell field.
        let n = 256;
        let g = generators::gnp(n, 0.05, 3);
        let par = ExecPath::FusedParallel(crate::kernels::FusedParallel {
            workers: 2,
            threshold: Some(0),
        });
        for exec in [ExecPath::Fused, par] {
            let mut m = Machine::new(&g).unwrap().with_exec(exec);
            m.init().unwrap();
            m.run_iterations(u64::from(ceil_log2(n))).unwrap();
            assert_eq!(m.metrics().generations() as u64, total_generations(n));
            let buffers = m.fused.accounting_capacities();
            assert!(!buffers.is_empty());
            for held in buffers {
                assert!(
                    held <= n + 1,
                    "{exec:?}: an accounting buffer holds {held} counters"
                );
            }
        }
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
    fn fused_trace_falls_back_to_generic() {
        let g = generators::gnp(9, 0.3, 6);
        let m = Machine::new(&g).unwrap().with_exec(ExecPath::Fused);
        assert!(m.fused_active(), "Counts instrumentation stays fused");
        let mut traced = Machine::with_engine(
            &g,
            Engine::sequential().with_instrumentation(Instrumentation::Trace),
        )
        .unwrap()
        .with_exec(ExecPath::Fused);
        assert!(!traced.fused_active(), "Trace falls back to generic");
        let rep = traced.init().unwrap();
        // The generic evaluator materialized per-cell accesses.
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
    fn validate_stays_fused_and_runs_clean() {
        // The replay harness must be armed (Validate does NOT fall back to
        // the generic path) and a correct kernel set must pass it with
        // labels and metrics identical to a plain Counts run.
        for g in &fused_test_corpus() {
            let m = Machine::with_engine(
                g,
                Engine::sequential().with_instrumentation(Instrumentation::Validate),
            )
            .unwrap()
            .with_exec(ExecPath::Fused);
            assert!(m.fused_active(), "Validate must stay fused");
            let reference = HirschbergGca::new().run(g).unwrap();
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
        let reference = HirschbergGca::new().run(&g).unwrap();
        let validated = HirschbergGca::new()
            .with_engine(Engine::sequential().with_instrumentation(Instrumentation::Validate))
            .run(&g)
            .unwrap();
        assert_eq!(validated.labels, reference.labels);
        assert_eq!(validated.metrics.entries(), reference.metrics.entries());
    }

    #[test]
    fn seeded_kernel_fault_is_caught_by_replay() {
        let g = generators::gnp(12, 0.3, 5);
        let mut m = Machine::with_engine(
            &g,
            Engine::sequential().with_instrumentation(Instrumentation::Validate),
        )
        .unwrap()
        .with_exec(ExecPath::Fused);
        m.init().unwrap();
        let target = 3; // a square-field cell every iteration writes
        m.set_fault_plan(Some(FaultPlan::new(FaultKind::BitFlip { bit: 0 }, 1, target)));
        let err = m.run_iteration().unwrap_err();
        match err {
            GcaError::KernelDivergence {
                cell,
                generation,
                phase,
            } => {
                assert_eq!(cell, target);
                assert_eq!(generation, 1, "fault seeded on the first post-init generation");
                assert_eq!(phase, Gen::BroadcastC.number());
            }
            other => panic!("expected KernelDivergence, got {other:?}"),
        }
    }

    #[test]
    fn validate_detect_convergence_matches_generic() {
        for seed in 0..3 {
            let g = generators::gnp(14, 0.25, seed);
            let generic = HirschbergGca::new()
                .convergence(Convergence::Detect)
                .run(&g)
                .unwrap();
            let validated = HirschbergGca::new()
                .with_engine(Engine::sequential().with_instrumentation(Instrumentation::Validate))
                .convergence(Convergence::Detect)
                .exec(ExecPath::Fused)
                .run(&g)
                .unwrap();
            assert_eq!(validated.labels, generic.labels);
            assert_eq!(validated.generations, generic.generations);
            assert_eq!(validated.metrics.entries(), generic.metrics.entries());
        }
    }

    #[test]
    fn parallel_fused_matches_fused_labels_and_metrics() {
        use crate::kernels::FusedParallel;
        // Threshold 0 forces the parallel drivers even on tiny corpus
        // graphs; workers 0 resolves to the hardware thread count (which
        // may legitimately be 1 → sequential fallback).
        for workers in [0usize, 2, 3, 7] {
            let exec = ExecPath::FusedParallel(FusedParallel {
                workers,
                threshold: Some(0),
            });
            for g in &fused_test_corpus() {
                let fused = HirschbergGca::new().exec(ExecPath::Fused).run(g).unwrap();
                let par = HirschbergGca::new().exec(exec).run(g).unwrap();
                assert_eq!(par.labels, fused.labels, "workers={workers} on {g:?}");
                assert_eq!(par.generations, fused.generations, "workers={workers}");
                assert_eq!(
                    par.metrics.entries(),
                    fused.metrics.entries(),
                    "metrics diverge at workers={workers} on {g:?}"
                );
            }
        }
    }

    #[test]
    fn parallel_fused_auto_threshold_falls_back_on_small_fields() {
        // Default threshold (engine tunable, 16 Ki cells): an n=12 field
        // never parallelizes, and the report says so.
        let g = generators::gnp(12, 0.3, 7);
        let expected = union_find_components_dense(&g);
        let mut m = Machine::new(&g)
            .unwrap()
            .with_exec(ExecPath::fused_parallel(4));
        let rep = m.init().unwrap();
        assert_eq!(rep.workers, 1, "below threshold must fall back");
        for _ in 0..ceil_log2(12) {
            m.run_iteration().unwrap();
        }
        assert_eq!(m.labels().unwrap().as_slice(), expected.as_slice());
    }

    #[test]
    fn validate_stays_fused_parallel_and_runs_clean() {
        use crate::kernels::FusedParallel;
        let exec = ExecPath::FusedParallel(FusedParallel {
            workers: 2,
            threshold: Some(0),
        });
        for g in &fused_test_corpus() {
            let m = Machine::with_engine(
                g,
                Engine::sequential().with_instrumentation(Instrumentation::Validate),
            )
            .unwrap()
            .with_exec(exec);
            assert!(m.fused_active(), "Validate must stay fused-parallel");
            let reference = HirschbergGca::new().run(g).unwrap();
            let validated = HirschbergGca::new()
                .with_engine(Engine::sequential().with_instrumentation(Instrumentation::Validate))
                .exec(exec)
                .run(g)
                .unwrap();
            assert_eq!(validated.labels, reference.labels, "on {g:?}");
            assert_eq!(validated.generations, reference.generations);
            assert_eq!(validated.metrics.entries(), reference.metrics.entries());
        }
    }

    #[test]
    fn parallel_fused_composes_with_detect_and_early_exit() {
        use crate::kernels::FusedParallel;
        let exec = ExecPath::FusedParallel(FusedParallel {
            workers: 2,
            threshold: Some(0),
        });
        for seed in 0..4 {
            let g = generators::gnp(15, 0.25, seed);
            let expected = union_find_components_dense(&g);
            let run = HirschbergGca::new()
                .exec(exec)
                .convergence(Convergence::Detect)
                .early_exit(true)
                .run(&g)
                .unwrap();
            assert_eq!(run.labels.as_slice(), expected.as_slice());
        }
    }

    #[test]
    fn fused_snapshot_restore_roundtrip_agrees_with_cellfield() {
        // A snapshot is a CellField copy of the split planes, whatever path
        // wrote them: one taken mid-fused-run must restore into both a fresh
        // fused machine and a generic machine, and all three must finish in
        // the same state, adjacency included.
        let g = generators::gnp(20, 0.2, 6);
        let mut fused = Machine::new(&g).unwrap().with_exec(ExecPath::Fused);
        fused.init().unwrap();
        fused.run_iteration().unwrap();
        let snap = fused.snapshot();
        let mut resumed_fused = Machine::new(&g).unwrap().with_exec(ExecPath::Fused);
        resumed_fused.restore(&snap).unwrap();
        let mut resumed_generic = Machine::new(&g).unwrap();
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
    fn fused_survives_generic_steps_mid_run() {
        // Flipping the exec path between iterations: generic steps run on
        // the engine scratch and commit their data words behind the fused
        // kernels' back, which must drop the occupancy plane and leave the
        // adjacency plane intact for the next fused step.
        let g = generators::gnp(14, 0.25, 9);
        let mut m = Machine::new(&g).unwrap();
        let mut reference = Machine::new(&g).unwrap();
        m = m.with_exec(ExecPath::Fused);
        m.init().unwrap();
        reference.init().unwrap();
        for it in 0..ceil_log2(14) {
            m = m.with_exec(if it % 2 == 0 {
                ExecPath::Fused
            } else {
                ExecPath::Generic
            });
            for (gen, sub) in iteration_schedule(14) {
                let ra = m.step(gen, sub).unwrap();
                let rb = reference.step(gen, sub).unwrap();
                assert_eq!(ra.active_cells, rb.active_cells, "{gen:?}/{sub} at iter {it}");
                assert_eq!(ra.changed_cells, rb.changed_cells, "{gen:?}/{sub} at iter {it}");
                assert_eq!(ra.total_reads, rb.total_reads, "{gen:?}/{sub} at iter {it}");
            }
        }
        assert_eq!(m.labels().unwrap(), reference.labels().unwrap());
        assert_eq!(m.to_field().states(), reference.to_field().states());
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
        let mut m = Machine::new(&generators::ring(8)).unwrap();
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
        assert_eq!(m.to_field().states(), fresh.to_field().states());
        m.init().unwrap();
        m.run_iterations(u64::from(ceil_log2(8))).unwrap();
        let expected = union_find_components_dense(&g);
        assert_eq!(m.labels().unwrap().as_slice(), expected.as_slice());
    }

    #[test]
    fn engine_scratch_is_allocated_only_by_engine_steps() {
        // The split planes are the only state; the AoS scratch exists only
        // once an engine step (generic path, Trace fallback, Validate
        // replay) has needed one.
        let g = generators::gnp(12, 0.3, 4);
        let engine = |i| Engine::sequential().with_instrumentation(i);
        let cases = [
            (ExecPath::Fused, Instrumentation::Off, false),
            (ExecPath::Fused, Instrumentation::Counts, false),
            (ExecPath::fused_parallel(2), Instrumentation::Counts, false),
            (ExecPath::Generic, Instrumentation::Off, true),
            (ExecPath::Generic, Instrumentation::Counts, true),
            (ExecPath::Fused, Instrumentation::Trace, true),
            (ExecPath::Fused, Instrumentation::Validate, true),
            (ExecPath::fused_parallel(2), Instrumentation::Validate, true),
        ];
        for (exec, instr, allocates) in cases {
            let mut m = Machine::with_engine(&g, engine(instr)).unwrap().with_exec(exec);
            assert!(m.scratch.is_none(), "{exec:?} {instr:?} at build");
            m.init().unwrap();
            m.run_iterations(u64::from(ceil_log2(12))).unwrap();
            assert_eq!(m.scratch.is_some(), allocates, "{exec:?} {instr:?}");
            let expected = union_find_components_dense(&g);
            assert_eq!(m.labels().unwrap().as_slice(), expected.as_slice());
        }
    }

    #[test]
    fn labels_into_matches_labels_raw() {
        let g = generators::gnp(10, 0.3, 2);
        let mut m = Machine::new(&g).unwrap();
        m.init().unwrap();
        m.run_iteration().unwrap();
        let mut out = vec![99; 3];
        m.labels_into(&mut out);
        assert_eq!(out, m.labels_raw());
        assert_eq!(out.len(), 10);
    }
}
