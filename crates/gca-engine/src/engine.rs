use crate::metrics::CongestionHistogram;
use crate::{Access, CellField, Domain, FieldShape, GcaError, GcaRule, Reads, StepCtx};

/// How much accounting a step performs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Instrumentation {
    /// Fastest: only active/read/changed counters. The steady-state step
    /// performs no accounting allocation at all.
    Off,
    /// Additionally build the per-target [`CongestionHistogram`]
    /// (Table 1's δ columns). Accumulated incrementally into engine-owned
    /// scratch — no per-cell access list is materialized.
    #[default]
    Counts,
    /// Additionally retain every cell's [`Access`] (needed to render
    /// Figure-3-style access patterns). The trace buffer is engine-owned
    /// and reused across steps.
    Trace,
    /// Everything [`Instrumentation::Counts`] does, plus the CROW/domain
    /// sanitizer. The step evaluates the **whole** field (the domain hint is
    /// checked, not trusted), records every cell's [`Access`], and then
    /// shadows the generation with a second evaluation against the same
    /// previous-generation snapshot:
    ///
    /// * a cell whose replayed access or state differs is not a pure
    ///   function of the snapshot — the observable signature of a torn
    ///   current-generation read ([`GcaError::TornRead`]);
    /// * a cell **outside** the rule's declared [`Domain`] hint that writes
    ///   a new state, issues a read, or reports itself active breaks the
    ///   domain contract ([`GcaError::DomainViolation`]) that hinted
    ///   stepping and the fused kernels depend on.
    ///
    /// Validation always runs densely; reports carry the
    /// same congestion histograms as `Counts` (and no access trace), so
    /// downstream metrics consumers see a `Counts`-shaped report.
    Validate,
}

/// The outcome of one synchronous generation.
#[derive(Clone, Debug)]
pub struct StepReport {
    /// The control context the generation ran under.
    pub ctx: StepCtx,
    /// Cells that performed a calculation (see [`GcaRule::is_active`]).
    pub active_cells: usize,
    /// Total global reads issued by all cells.
    pub total_reads: u64,
    /// Cells whose next state differs from their previous state. Counted in
    /// every instrumentation mode during the write-back (out-of-domain cells
    /// are copied unchanged and can never contribute). Zero means the
    /// generation was a fixed point — the signal convergence detection keys
    /// on.
    pub changed_cells: usize,
    /// Cells the engine actually evaluated: the hint size, or the whole
    /// field under [`Instrumentation::Validate`].
    pub evaluated_cells: usize,
    /// Per-target read counts; present under
    /// [`Instrumentation::Counts`] and [`Instrumentation::Trace`].
    pub congestion: Option<CongestionHistogram>,
    /// Every cell's access; present under [`Instrumentation::Trace`].
    pub accesses: Option<Vec<Access>>,
}

impl StepReport {
    /// Maximum congestion δ of the generation (0 when not instrumented).
    pub fn max_congestion(&self) -> u32 {
        self.congestion
            .as_ref()
            .map(CongestionHistogram::max_congestion)
            .unwrap_or(0)
    }
}

/// Per-evaluation counters, folded cell by cell.
#[derive(Clone, Copy, Debug, Default)]
struct Tally {
    active: usize,
    reads: u64,
    changed: usize,
    evaluated: usize,
}

impl Tally {
    #[inline]
    fn bump(&mut self, acc: &Access, active: bool, changed: bool) {
        self.evaluated += 1;
        self.active += usize::from(active);
        self.reads += acc.arity() as u64;
        self.changed += usize::from(changed);
    }
}

/// Reusable per-step buffers, owned by the engine so steady-state stepping
/// does not allocate for accounting (the only steady-state allocation under
/// `Counts`/`Trace` is the report's owned copy of the result).
#[derive(Clone, Debug, Default)]
struct StepScratch {
    /// Per-target read counts of the current step.
    reads: Vec<u32>,
    /// Full-field access trace, reused across [`Instrumentation::Trace`]
    /// steps.
    accesses: Vec<Access>,
}

/// Executes GCA generations over a [`CellField`].
///
/// The engine owns a global generation counter, the execution configuration
/// ([`Instrumentation`]) and reusable
/// accounting scratch, and exposes a single operation — [`Engine::step`] —
/// that advances a field by exactly one synchronous generation under a
/// caller-supplied rule and phase tag. Algorithm structure (which rule runs
/// when, how many sub-generations, when to stop) lives in the algorithm
/// crates, mirroring the paper's split between the per-cell data path and
/// the central state machine.
///
/// Cells are evaluated one by one on the calling thread. The paper's
/// cell-level parallelism is simulated, not exploited: the reference engine
/// is kept simple, and the throughput paths live in the algorithm crates.
///
/// ```
/// use gca_engine::combinators::FnRule;
/// use gca_engine::{Access, CellField, Engine, FieldShape, Reads, StepCtx};
///
/// // A one-handed rule: every cell copies its right neighbor (wrapping).
/// let rotate = FnRule::new(
///     "rotate",
///     |_c: &StepCtx, shape: &FieldShape, i: usize, _own: &u32| {
///         Access::One((i + 1) % shape.len())
///     },
///     |_c: &StepCtx, _s: &FieldShape, _i: usize, _own: &u32, r: Reads<'_, u32>| {
///         *r.expect_first("rotate")
///     },
/// );
///
/// let shape = FieldShape::new(1, 4)?;
/// let mut field = CellField::from_states(shape, vec![10u32, 20, 30, 40])?;
/// let mut engine = Engine::sequential();
/// let report = engine.step(&mut field, &rotate, 0, 0)?;
/// assert_eq!(field.states(), &[20, 30, 40, 10]);
/// assert_eq!(report.total_reads, 4);
/// assert_eq!(report.changed_cells, 4);
/// # Ok::<(), gca_engine::GcaError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct Engine {
    instrumentation: Instrumentation,
    generation: u64,
    scratch: StepScratch,
}

impl Engine {
    /// An engine with congestion counting (the default).
    pub fn sequential() -> Self {
        Engine::default()
    }

    /// Sets the instrumentation level.
    #[must_use]
    pub fn with_instrumentation(mut self, instrumentation: Instrumentation) -> Self {
        self.instrumentation = instrumentation;
        self
    }

    /// The configured instrumentation level.
    pub fn instrumentation(&self) -> Instrumentation {
        self.instrumentation
    }

    /// Number of generations executed so far.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Resets the generation counter (e.g. between experiment repetitions).
    pub fn reset(&mut self) {
        self.generation = 0;
    }

    /// Executes one synchronous generation of `rule` over `field`.
    ///
    /// `phase` and `subgeneration` are forwarded to the rule via [`StepCtx`];
    /// the engine neither interprets nor constrains them. The rule's
    /// [`GcaRule::domain`] hint decides which cells are evaluated (the whole
    /// field under [`Instrumentation::Validate`]); the rest of the field is
    /// copied forward in bulk. On error the field is left on its previous
    /// generation.
    pub fn step<R: GcaRule>(
        &mut self,
        field: &mut CellField<R::State>,
        rule: &R,
        phase: u32,
        subgeneration: u32,
    ) -> Result<StepReport, GcaError> {
        let ctx = StepCtx {
            generation: self.generation,
            phase,
            subgeneration,
        };
        let shape = *field.shape();
        let instrumentation = self.instrumentation;
        let counting = !matches!(instrumentation, Instrumentation::Off);
        let tracing = matches!(instrumentation, Instrumentation::Trace);
        let validating = matches!(instrumentation, Instrumentation::Validate);
        // The sanitizer never trusts the hint it is checking: it evaluates
        // the whole field and compares against the declared domain after.
        let domain = if validating {
            Domain::All
        } else {
            rule.domain(&ctx, &shape).clamped(&shape)
        };

        let (prev, next) = field.buffers();
        let len = prev.len();
        let StepScratch { reads, accesses } = &mut self.scratch;
        if counting {
            reads.clear();
            reads.resize(len, 0);
        }
        // Validation borrows the trace buffer to remember each cell's
        // first-pass access; the buffer stays engine-owned either way.
        let recording = tracing || validating;
        if recording {
            accesses.clear();
            accesses.resize(len, Access::None);
        }

        let tally = step_sequential(
            rule,
            &ctx,
            &shape,
            &domain,
            prev,
            next,
            counting.then_some(reads.as_mut_slice()),
            recording.then_some(accesses.as_mut_slice()),
        )?;

        if validating {
            let hint = rule.domain(&ctx, &shape).clamped(&shape);
            validate_generation(rule, &ctx, &shape, &hint, prev, next, accesses)?;
        }

        field.commit();
        self.generation += 1;
        Ok(StepReport {
            ctx,
            active_cells: tally.active,
            total_reads: tally.reads,
            changed_cells: tally.changed,
            evaluated_cells: tally.evaluated,
            // Swap the accumulation buffers into the report instead of
            // cloning them; [`Engine::recycle`] hands them back.
            congestion: counting
                .then(|| CongestionHistogram::from_reads(std::mem::take(&mut self.scratch.reads))),
            accesses: tracing.then(|| std::mem::take(&mut self.scratch.accesses)),
        })
    }

    /// Returns a consumed report's owned buffers to the engine scratch.
    ///
    /// [`Engine::step`] hands out its accumulation buffers by swap, never by
    /// clone, so each instrumented step would otherwise grow one fresh
    /// histogram (and trace) allocation. Hot loops that are done with a
    /// report can recycle it to make steady-state stepping allocation-free;
    /// dropping the report instead is always correct, just slower.
    pub fn recycle(&mut self, report: StepReport) {
        if let Some(hist) = report.congestion {
            let reads = hist.into_reads();
            if reads.capacity() > self.scratch.reads.capacity() {
                self.scratch.reads = reads;
            }
        }
        if let Some(accesses) = report.accesses {
            if accesses.capacity() > self.scratch.accesses.capacity() {
                self.scratch.accesses = accesses;
            }
        }
    }

    /// Rewinds the generation counter to `generation` without touching
    /// anything else — the bookkeeping half of restoring a checkpoint
    /// (see [`crate::recovery`]): the field state comes back from the
    /// snapshot, the counter comes back from here, and the re-executed
    /// generations then replay with identical [`StepCtx`] values.
    pub fn rewind_to(&mut self, generation: u64) {
        self.generation = generation;
    }

    /// Advances the generation counter by one without executing a step.
    ///
    /// External executors (e.g. the vector sweep in `gca-hirschberg`) that
    /// bypass [`Engine::step`] call this after each generation they execute
    /// themselves, so that [`Engine::generation`] — and the
    /// [`StepCtx::generation`] values recorded in metrics logs — stay in
    /// lockstep with engine-executed runs.
    pub fn advance_generation(&mut self) {
        self.generation += 1;
    }
}

/// Resolves an [`Access`] against the previous-generation buffer.
#[inline]
fn resolve<'a, S>(
    acc: Access,
    prev: &'a [S],
    cell: usize,
    ctx: &StepCtx,
) -> Result<Reads<'a, S>, GcaError> {
    let fetch = |t: usize| -> Result<&'a S, GcaError> {
        prev.get(t).ok_or(GcaError::PointerOutOfRange {
            cell,
            target: t,
            len: prev.len(),
            generation: ctx.generation,
        })
    };
    Ok(match acc {
        Access::None => Reads::none(),
        Access::One(t) => Reads::one(fetch(t)?),
        Access::Two(t, u) => Reads::two(fetch(t)?, fetch(u)?),
    })
}

/// The CROW/domain sanitizer pass behind [`Instrumentation::Validate`].
///
/// Runs after a dense first pass has produced `next` and recorded each
/// cell's access in `accesses`, but before the commit. Re-evaluates every
/// cell against the same previous-generation snapshot (`prev`) and checks:
///
/// * **snapshot purity** — the replayed access and state must equal the
///   first pass's; a divergence means the rule's output depends on
///   something other than the snapshot (interior mutability standing in
///   for a torn current-generation read) → [`GcaError::TornRead`];
/// * **the domain contract** — every cell outside the rule's declared
///   (clamped) `hint` must be a no-op: unchanged state, `Access::None`,
///   inactive → [`GcaError::DomainViolation`] with the broken clause.
fn validate_generation<R: GcaRule>(
    rule: &R,
    ctx: &StepCtx,
    shape: &FieldShape,
    hint: &Domain,
    prev: &[R::State],
    next: &[R::State],
    accesses: &[Access],
) -> Result<(), GcaError> {
    let torn = |cell: usize| GcaError::TornRead {
        rule: rule.name().to_string(),
        cell,
        generation: ctx.generation,
        phase: ctx.phase,
    };
    let broken = |cell: usize, kind: crate::DomainViolationKind| GcaError::DomainViolation {
        rule: rule.name().to_string(),
        cell,
        generation: ctx.generation,
        phase: ctx.phase,
        kind,
    };
    for index in 0..prev.len() {
        let own = &prev[index];
        let recorded = accesses[index];
        let replayed_acc = rule.access(ctx, shape, index, own);
        if replayed_acc != recorded {
            return Err(torn(index));
        }
        let reads = resolve(recorded, prev, index, ctx)?;
        if rule.evolve(ctx, shape, index, own, reads) != next[index] {
            return Err(torn(index));
        }
        if !hint.contains(shape, index) {
            use crate::DomainViolationKind as K;
            if next[index] != prev[index] {
                return Err(broken(index, K::Write));
            }
            if recorded != Access::None {
                return Err(broken(index, K::Read));
            }
            if rule.is_active(ctx, shape, index, own) {
                return Err(broken(index, K::Active));
            }
        }
    }
    Ok(())
}

/// Evaluates one cell into `slot`, returning its access and whether it was
/// active / changed. The changed-bit comparison happens here, during the
/// write-back, so convergence detection costs one `PartialEq` per evaluated
/// cell and no extra pass.
#[inline]
fn eval_cell<R: GcaRule>(
    rule: &R,
    ctx: &StepCtx,
    shape: &FieldShape,
    prev: &[R::State],
    slot: &mut R::State,
    index: usize,
) -> Result<(Access, bool, bool), GcaError> {
    let own = &prev[index];
    let acc = rule.access(ctx, shape, index, own);
    let reads = resolve(acc, prev, index, ctx)?;
    let new = rule.evolve(ctx, shape, index, own, reads);
    let changed = new != *own;
    let active = rule.is_active(ctx, shape, index, own);
    *slot = new;
    Ok((acc, active, changed))
}

/// Evaluates the contiguous cells `start..start + seg.len()` into `seg`
/// (which is `next[start..start + seg.len()]`), folding accounting into
/// `tally`, the optional full-field histogram, and the optional
/// segment-aligned trace slice.
#[allow(clippy::too_many_arguments)]
fn eval_segment<R: GcaRule>(
    rule: &R,
    ctx: &StepCtx,
    shape: &FieldShape,
    prev: &[R::State],
    seg: &mut [R::State],
    start: usize,
    mut hist: Option<&mut [u32]>,
    mut trace: Option<&mut [Access]>,
    tally: &mut Tally,
) -> Result<(), GcaError> {
    for (offset, slot) in seg.iter_mut().enumerate() {
        let index = start + offset;
        let (acc, active, changed) = eval_cell(rule, ctx, shape, prev, slot, index)?;
        tally.bump(&acc, active, changed);
        if let Some(h) = hist.as_deref_mut() {
            for t in acc.targets() {
                h[t] += 1;
            }
        }
        if let Some(t) = trace.as_deref_mut() {
            t[offset] = acc;
        }
    }
    Ok(())
}

/// The evaluator: walks only the domain, copying the untouched remainder
/// with bulk `clone_from_slice`.
#[allow(clippy::too_many_arguments)]
fn step_sequential<R: GcaRule>(
    rule: &R,
    ctx: &StepCtx,
    shape: &FieldShape,
    domain: &Domain,
    prev: &[R::State],
    next: &mut [R::State],
    mut hist: Option<&mut [u32]>,
    mut trace: Option<&mut [Access]>,
) -> Result<Tally, GcaError> {
    let cols = shape.cols();
    let mut tally = Tally::default();
    match domain {
        Domain::All => {
            eval_segment(
                rule,
                ctx,
                shape,
                prev,
                next,
                0,
                hist.as_deref_mut(),
                trace.as_deref_mut(),
                &mut tally,
            )?;
        }
        Domain::Rows(r) => {
            let (a, b) = (r.start * cols, r.end * cols);
            next[..a].clone_from_slice(&prev[..a]);
            next[b..].clone_from_slice(&prev[b..]);
            eval_segment(
                rule,
                ctx,
                shape,
                prev,
                &mut next[a..b],
                a,
                hist.as_deref_mut(),
                trace.as_deref_mut().map(|t| &mut t[a..b]),
                &mut tally,
            )?;
        }
        Domain::Cols(c) => {
            for row in 0..shape.rows() {
                let base = row * cols;
                let (s, e) = (base + c.start, base + c.end);
                next[base..s].clone_from_slice(&prev[base..s]);
                next[e..base + cols].clone_from_slice(&prev[e..base + cols]);
                eval_segment(
                    rule,
                    ctx,
                    shape,
                    prev,
                    &mut next[s..e],
                    s,
                    hist.as_deref_mut(),
                    trace.as_deref_mut().map(|t| &mut t[s..e]),
                    &mut tally,
                )?;
            }
        }
        Domain::Sparse(indices) => {
            next.clone_from_slice(prev);
            for &i in indices {
                let (acc, active, changed) = eval_cell(rule, ctx, shape, prev, &mut next[i], i)?;
                tally.bump(&acc, active, changed);
                if let Some(h) = hist.as_deref_mut() {
                    for t in acc.targets() {
                        h[t] += 1;
                    }
                }
                if let Some(t) = trace.as_deref_mut() {
                    t[i] = acc;
                }
            }
        }
    }
    Ok(tally)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rotation rule: cell i takes the value of cell i+1 (wrapping).
    struct Rotate;

    impl GcaRule for Rotate {
        type State = u32;

        fn access(&self, _ctx: &StepCtx, shape: &FieldShape, index: usize, _own: &u32) -> Access {
            Access::One((index + 1) % shape.len())
        }

        fn evolve(
            &self,
            _ctx: &StepCtx,
            _shape: &FieldShape,
            _index: usize,
            _own: &u32,
            reads: Reads<'_, u32>,
        ) -> u32 {
            *reads.expect_first("rotate")
        }

        fn name(&self) -> &str {
            "rotate"
        }
    }

    /// Two-handed rule: cell i sums cells 0 and the last cell.
    struct SumEnds;

    impl GcaRule for SumEnds {
        type State = u32;

        fn access(&self, _ctx: &StepCtx, shape: &FieldShape, _index: usize, _own: &u32) -> Access {
            Access::Two(0, shape.len() - 1)
        }

        fn evolve(
            &self,
            _ctx: &StepCtx,
            _shape: &FieldShape,
            _index: usize,
            _own: &u32,
            reads: Reads<'_, u32>,
        ) -> u32 {
            reads.first().unwrap() + reads.second().unwrap()
        }
    }

    /// Rule with a deliberately out-of-range pointer at cell 2.
    struct Broken;

    impl GcaRule for Broken {
        type State = u32;

        fn access(&self, _ctx: &StepCtx, shape: &FieldShape, index: usize, _own: &u32) -> Access {
            if index == 2 {
                Access::One(shape.len() + 10)
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
    }

    /// Identity rule that reports only even cells as active.
    struct EvenActive;

    impl GcaRule for EvenActive {
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
            index.is_multiple_of(2)
        }
    }

    /// Increments only the cells of one hinted row band; everything outside
    /// is identity / inactive / access-free — exactly the domain contract.
    struct BandIncrement {
        rows: std::ops::Range<usize>,
    }

    impl BandIncrement {
        fn in_band(&self, shape: &FieldShape, index: usize) -> bool {
            self.rows.contains(&shape.row(index))
        }
    }

    impl GcaRule for BandIncrement {
        type State = u32;

        fn access(&self, _ctx: &StepCtx, shape: &FieldShape, index: usize, _own: &u32) -> Access {
            if self.in_band(shape, index) {
                Access::One(index)
            } else {
                Access::None
            }
        }

        fn evolve(
            &self,
            _ctx: &StepCtx,
            shape: &FieldShape,
            index: usize,
            own: &u32,
            reads: Reads<'_, u32>,
        ) -> u32 {
            if self.in_band(shape, index) {
                reads.expect_first("band") + 1
            } else {
                *own
            }
        }

        fn is_active(&self, _ctx: &StepCtx, shape: &FieldShape, index: usize, _own: &u32) -> bool {
            self.in_band(shape, index)
        }

        fn domain(&self, _ctx: &StepCtx, _shape: &FieldShape) -> Domain {
            Domain::Rows(self.rows.clone())
        }
    }

    fn field(values: &[u32]) -> CellField<u32> {
        let shape = FieldShape::new(1, values.len()).unwrap();
        CellField::from_states(shape, values.to_vec()).unwrap()
    }

    #[test]
    fn rotate_one_step() {
        let mut f = field(&[10, 20, 30, 40]);
        let mut e = Engine::sequential();
        let r = e.step(&mut f, &Rotate, 0, 0).unwrap();
        assert_eq!(f.states(), &[20, 30, 40, 10]);
        assert_eq!(r.active_cells, 4);
        assert_eq!(r.total_reads, 4);
        assert_eq!(r.changed_cells, 4);
        assert_eq!(r.evaluated_cells, 4);
        assert_eq!(e.generation(), 1);
    }

    #[test]
    fn rotate_full_cycle_restores() {
        let init = [1u32, 2, 3, 4, 5];
        let mut f = field(&init);
        let mut e = Engine::sequential();
        for _ in 0..5 {
            e.step(&mut f, &Rotate, 0, 0).unwrap();
        }
        assert_eq!(f.states(), &init);
    }

    #[test]
    fn synchronous_semantics_not_in_place() {
        // If updates leaked within a generation, a rotate would smear one
        // value across the field instead of rotating.
        let mut f = field(&[1, 2, 3]);
        let mut e = Engine::sequential();
        e.step(&mut f, &Rotate, 0, 0).unwrap();
        assert_eq!(f.states(), &[2, 3, 1]);
    }

    #[test]
    fn two_handed_rule() {
        let mut f = field(&[5, 0, 0, 7]);
        let mut e = Engine::sequential();
        let r = e.step(&mut f, &SumEnds, 0, 0).unwrap();
        assert_eq!(f.states(), &[12, 12, 12, 12]);
        assert_eq!(r.total_reads, 8);
        let h = r.congestion.unwrap();
        assert_eq!(h.reads_of(0), 4);
        assert_eq!(h.reads_of(3), 4);
        assert_eq!(h.max_congestion(), 4);
    }

    #[test]
    fn out_of_range_pointer_is_reported() {
        let mut f = field(&[0, 0, 0, 0]);
        let mut e = Engine::sequential();
        let err = e.step(&mut f, &Broken, 3, 0).unwrap_err();
        assert_eq!(
            err,
            GcaError::PointerOutOfRange {
                cell: 2,
                target: 14,
                len: 4,
                generation: 0
            }
        );
    }

    #[test]
    fn instrumentation_off_skips_histogram() {
        let mut f = field(&[1, 2, 3]);
        let mut e = Engine::sequential().with_instrumentation(Instrumentation::Off);
        let r = e.step(&mut f, &Rotate, 0, 0).unwrap();
        assert!(r.congestion.is_none());
        assert!(r.accesses.is_none());
        assert_eq!(r.total_reads, 3);
        assert_eq!(r.max_congestion(), 0);
    }

    #[test]
    fn trace_records_accesses() {
        let mut f = field(&[1, 2, 3]);
        let mut e = Engine::sequential().with_instrumentation(Instrumentation::Trace);
        let r = e.step(&mut f, &Rotate, 0, 0).unwrap();
        let acc = r.accesses.unwrap();
        assert_eq!(acc, vec![Access::One(1), Access::One(2), Access::One(0)]);
    }

    #[test]
    fn counts_mode_drops_trace_keeps_histogram() {
        let mut f = field(&[1, 2, 3]);
        let mut e = Engine::sequential().with_instrumentation(Instrumentation::Counts);
        let r = e.step(&mut f, &Rotate, 0, 0).unwrap();
        assert!(r.congestion.is_some());
        assert!(r.accesses.is_none());
    }

    #[test]
    fn active_cell_counting_respects_rule() {
        let mut f = field(&[1, 2, 3, 4, 5]);
        let mut e = Engine::sequential();
        let r = e.step(&mut f, &EvenActive, 0, 0).unwrap();
        assert_eq!(r.active_cells, 3); // cells 0, 2, 4
    }

    #[test]
    fn changed_cells_zero_on_fixed_point() {
        let mut f = field(&[9, 9, 9]);
        let mut e = Engine::sequential();
        // Rotating a constant field changes nothing.
        let r = e.step(&mut f, &Rotate, 0, 0).unwrap();
        assert_eq!(r.changed_cells, 0);
        // The identity rule never changes anything either.
        let r = e.step(&mut f, &EvenActive, 0, 0).unwrap();
        assert_eq!(r.changed_cells, 0);
    }

    #[test]
    fn phase_and_subgeneration_forwarded() {
        let mut f = field(&[0]);
        let mut e = Engine::sequential();
        let r = e.step(&mut f, &EvenActive, 9, 4).unwrap();
        assert_eq!(r.ctx.phase, 9);
        assert_eq!(r.ctx.subgeneration, 4);
        assert_eq!(r.ctx.generation, 0);
        let r2 = e.step(&mut f, &EvenActive, 9, 5).unwrap();
        assert_eq!(r2.ctx.generation, 1);
    }

    #[test]
    fn reset_clears_counter() {
        let mut f = field(&[0]);
        let mut e = Engine::sequential();
        e.step(&mut f, &EvenActive, 0, 0).unwrap();
        assert_eq!(e.generation(), 1);
        e.reset();
        assert_eq!(e.generation(), 0);
    }

    #[test]
    fn empty_field_step() {
        let shape = FieldShape::new(0, 3).unwrap();
        let mut f: CellField<u32> = CellField::new(shape, 0);
        let mut e = Engine::sequential();
        let r = e.step(&mut f, &Rotate, 0, 0).unwrap();
        assert_eq!(r.active_cells, 0);
        assert_eq!(r.total_reads, 0);
        assert_eq!(r.changed_cells, 0);
    }

    /// Steps `rule` once hinted (under `instrumentation`) and once under
    /// `Validate` (dense, hint checked) on identical fields, asserts the
    /// fields and all metrics are bit-identical, and returns both reports
    /// (dense, hinted) for evaluated-cell assertions. A hinted trace must
    /// hold no access outside the hint.
    fn assert_hinted_equals_dense<R: GcaRule<State = u32>>(
        rule: &R,
        shape: FieldShape,
        init: impl Fn(usize) -> u32,
        instrumentation: Instrumentation,
    ) -> (StepReport, StepReport) {
        let mut dense_field = CellField::from_fn(shape, &init);
        let mut hinted_field = CellField::from_fn(shape, &init);
        let mut dense = Engine::sequential().with_instrumentation(Instrumentation::Validate);
        let mut hinted = Engine::sequential().with_instrumentation(instrumentation);
        let rd = dense.step(&mut dense_field, rule, 0, 0).unwrap();
        let rh = hinted.step(&mut hinted_field, rule, 0, 0).unwrap();
        assert_eq!(dense_field.states(), hinted_field.states());
        assert_eq!(rd.active_cells, rh.active_cells);
        assert_eq!(rd.total_reads, rh.total_reads);
        assert_eq!(rd.changed_cells, rh.changed_cells);
        if rh.congestion.is_some() {
            assert_eq!(rd.congestion, rh.congestion);
        }
        if let Some(accesses) = &rh.accesses {
            let hint = rule.domain(&rh.ctx, &shape).clamped(&shape);
            for (i, acc) in accesses.iter().enumerate() {
                if !hint.contains(&shape, i) {
                    assert_eq!(*acc, Access::None, "cell {i} outside the hint");
                }
            }
        }
        (rd, rh)
    }

    #[test]
    fn hinted_rows_bit_identical_to_dense() {
        let shape = FieldShape::new(8, 6).unwrap();
        for instr in [
            Instrumentation::Off,
            Instrumentation::Counts,
            Instrumentation::Trace,
        ] {
            let (rd, rh) = assert_hinted_equals_dense(
                &BandIncrement { rows: 2..5 },
                shape,
                |i| i as u32,
                instr,
            );
            assert_eq!(rd.evaluated_cells, 48);
            assert_eq!(rh.evaluated_cells, 18); // 3 rows × 6 cols
            assert_eq!(rh.changed_cells, 18);
        }
    }

    /// Doubles column 0 only; exercises the `Cols` domain.
    struct FirstColDouble;

    impl GcaRule for FirstColDouble {
        type State = u32;

        fn access(&self, _ctx: &StepCtx, shape: &FieldShape, index: usize, _own: &u32) -> Access {
            if shape.col(index) == 0 {
                Access::One(index)
            } else {
                Access::None
            }
        }

        fn evolve(
            &self,
            _ctx: &StepCtx,
            shape: &FieldShape,
            index: usize,
            own: &u32,
            reads: Reads<'_, u32>,
        ) -> u32 {
            if shape.col(index) == 0 {
                reads.expect_first("col0") * 2
            } else {
                *own
            }
        }

        fn is_active(&self, _ctx: &StepCtx, shape: &FieldShape, index: usize, _own: &u32) -> bool {
            shape.col(index) == 0
        }

        fn domain(&self, _ctx: &StepCtx, _shape: &FieldShape) -> Domain {
            Domain::Cols(0..1)
        }
    }

    #[test]
    fn hinted_cols_bit_identical_to_dense() {
        let shape = FieldShape::new(9, 5).unwrap();
        let (rd, rh) = assert_hinted_equals_dense(
            &FirstColDouble,
            shape,
            |i| i as u32 + 1,
            Instrumentation::Counts,
        );
        assert_eq!(rd.evaluated_cells, 45);
        assert_eq!(rh.evaluated_cells, 9);
        assert_eq!(rh.active_cells, 9);
    }

    /// Rotates every eighth cell toward its successor.
    struct SparseStride;

    impl SparseStride {
        fn hits(index: usize) -> bool {
            index.is_multiple_of(8)
        }
    }

    impl GcaRule for SparseStride {
        type State = u32;

        fn access(&self, _ctx: &StepCtx, shape: &FieldShape, index: usize, _own: &u32) -> Access {
            if Self::hits(index) {
                Access::One((index + 1) % shape.len())
            } else {
                Access::None
            }
        }

        fn evolve(
            &self,
            _ctx: &StepCtx,
            _shape: &FieldShape,
            index: usize,
            own: &u32,
            reads: Reads<'_, u32>,
        ) -> u32 {
            if Self::hits(index) {
                *reads.expect_first("stride")
            } else {
                *own
            }
        }

        fn is_active(&self, _ctx: &StepCtx, _shape: &FieldShape, index: usize, _own: &u32) -> bool {
            Self::hits(index)
        }

        fn domain(&self, _ctx: &StepCtx, shape: &FieldShape) -> Domain {
            Domain::Sparse((0..shape.len()).step_by(8).collect())
        }
    }

    #[test]
    fn hinted_sparse_bit_identical_to_dense() {
        let shape = FieldShape::new(1, 64).unwrap();
        for instr in [Instrumentation::Counts, Instrumentation::Trace] {
            let (rd, rh) = assert_hinted_equals_dense(
                &SparseStride,
                shape,
                |i| i as u32 * 3,
                instr,
            );
            assert_eq!(rd.evaluated_cells, 64);
            assert_eq!(rh.evaluated_cells, 8);
        }
    }

    #[test]
    fn empty_domain_copies_field_forward() {
        let shape = FieldShape::new(4, 4).unwrap();
        let mut f = CellField::from_fn(shape, |i| i as u32);
        let before: Vec<u32> = f.states().to_vec();
        let mut e = Engine::sequential();
        let r = e.step(&mut f, &BandIncrement { rows: 2..2 }, 0, 0).unwrap();
        assert_eq!(f.states(), &before[..]);
        assert_eq!(r.evaluated_cells, 0);
        assert_eq!(r.active_cells, 0);
        assert_eq!(r.changed_cells, 0);
        assert_eq!(r.congestion.unwrap().max_congestion(), 0);
    }

    #[test]
    fn recycle_returns_buffers_to_scratch() {
        let mut f = field(&[5, 0, 0, 7]);
        let mut e = Engine::sequential();
        let r1 = e.step(&mut f, &SumEnds, 0, 0).unwrap();
        e.recycle(r1);
        // The recycled buffer's capacity must be back in the scratch so the
        // next step can reuse it instead of allocating.
        assert!(e.scratch.reads.capacity() >= 4);
        let r2 = e.step(&mut f, &Rotate, 0, 0).unwrap();
        assert_eq!(r2.congestion.unwrap().reads_of(1), 1);
    }

    #[test]
    fn advance_generation_matches_stepping() {
        let mut f = field(&[0]);
        let mut stepped = Engine::sequential();
        let mut advanced = Engine::sequential();
        stepped.step(&mut f, &EvenActive, 0, 0).unwrap();
        advanced.advance_generation();
        assert_eq!(stepped.generation(), advanced.generation());
    }

    #[test]
    fn states_mut_edits_current_generation() {
        let mut f = field(&[1, 2, 3]);
        f.states_mut()[1] = 99;
        assert_eq!(f.states(), &[1, 99, 3]);
    }

    /// Claims a `Rows` domain but computes (reads + writes + reports
    /// active) on one cell outside it — a domain-hint lie.
    struct DomainLiar;

    impl GcaRule for DomainLiar {
        type State = u32;

        fn access(&self, _ctx: &StepCtx, _shape: &FieldShape, index: usize, _own: &u32) -> Access {
            if index == 10 {
                Access::One(0)
            } else {
                Access::None
            }
        }

        fn evolve(
            &self,
            _ctx: &StepCtx,
            _shape: &FieldShape,
            index: usize,
            own: &u32,
            reads: Reads<'_, u32>,
        ) -> u32 {
            if index == 10 {
                reads.expect_first("liar") + 1
            } else {
                *own
            }
        }

        fn is_active(&self, _ctx: &StepCtx, _shape: &FieldShape, index: usize, _own: &u32) -> bool {
            index == 10
        }

        fn domain(&self, _ctx: &StepCtx, _shape: &FieldShape) -> Domain {
            Domain::Rows(0..1) // cell 10 is in row 2 of a 4x4 field
        }
    }

    /// Simulates a torn current-generation read with interior mutability:
    /// evolve for cell 2 returns a counter that ticks on every call, so the
    /// replay against the same snapshot sees a different value.
    struct TornCounter {
        calls: std::sync::atomic::AtomicU32,
    }

    impl GcaRule for TornCounter {
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
            if index == 2 {
                self.calls
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            } else {
                *own
            }
        }

        fn name(&self) -> &str {
            "torn-counter"
        }
    }

    #[test]
    fn validate_passes_honest_rule() {
        let shape = FieldShape::new(4, 4).unwrap();
        let mut f = CellField::from_fn(shape, |i| i as u32);
        let mut e = Engine::sequential().with_instrumentation(Instrumentation::Validate);
        let r = e.step(&mut f, &BandIncrement { rows: 1..3 }, 0, 0).unwrap();
        // Validate reports are Counts-shaped: histogram present, no trace.
        assert!(r.congestion.is_some());
        assert!(r.accesses.is_none());
        assert_eq!(r.active_cells, 8);
        assert_eq!(r.evaluated_cells, 16); // dense, hint not trusted
    }

    #[test]
    fn validate_matches_counts_metrics() {
        let shape = FieldShape::new(4, 4).unwrap();
        let rule = BandIncrement { rows: 1..3 };
        let mut fc = CellField::from_fn(shape, |i| i as u32);
        let mut fv = CellField::from_fn(shape, |i| i as u32);
        let mut ec = Engine::sequential();
        let mut ev = Engine::sequential().with_instrumentation(Instrumentation::Validate);
        let rc = ec.step(&mut fc, &rule, 0, 0).unwrap();
        let rv = ev.step(&mut fv, &rule, 0, 0).unwrap();
        assert_eq!(fc.states(), fv.states());
        assert_eq!(rc.active_cells, rv.active_cells);
        assert_eq!(rc.total_reads, rv.total_reads);
        assert_eq!(rc.changed_cells, rv.changed_cells);
        assert_eq!(rc.congestion, rv.congestion);
    }

    #[test]
    fn validate_reports_domain_lie_with_cell_and_generation() {
        let shape = FieldShape::new(4, 4).unwrap();
        let mut f = CellField::from_fn(shape, |i| i as u32);
        let before: Vec<u32> = f.states().to_vec();
        let mut e = Engine::sequential().with_instrumentation(Instrumentation::Validate);
        e.step(&mut f, &EvenActive, 7, 0).unwrap(); // advance a generation
        let err = e.step(&mut f, &DomainLiar, 7, 0).unwrap_err();
        assert_eq!(
            err,
            GcaError::DomainViolation {
                rule: "unnamed-rule".into(),
                cell: 10,
                generation: 1,
                phase: 7,
                kind: crate::DomainViolationKind::Write,
            }
        );
        // On error the field stays on its previous generation.
        assert_eq!(f.states(), &before[..]);
    }

    #[test]
    fn validate_reports_torn_read_with_cell_and_generation() {
        let mut f = field(&[1, 2, 3, 4]);
        let mut e = Engine::sequential().with_instrumentation(Instrumentation::Validate);
        let rule = TornCounter {
            calls: std::sync::atomic::AtomicU32::new(100),
        };
        let err = e.step(&mut f, &rule, 3, 1).unwrap_err();
        assert_eq!(
            err,
            GcaError::TornRead {
                rule: "torn-counter".into(),
                cell: 2,
                generation: 0,
                phase: 3,
            }
        );
        assert_eq!(f.states(), &[1, 2, 3, 4]);
    }

    #[test]
    fn validate_forces_dense() {
        // A hinted engine under Validate must still evaluate the whole field
        // (and agree with the default hinted engine).
        let shape = FieldShape::new(30, 30).unwrap();
        let rule = BandIncrement { rows: 10..20 };
        let mut fv = CellField::from_fn(shape, |i| (i % 97) as u32);
        let mut fd = CellField::from_fn(shape, |i| (i % 97) as u32);
        let mut ev = Engine::sequential().with_instrumentation(Instrumentation::Validate);
        let mut ed = Engine::sequential();
        let rv = ev.step(&mut fv, &rule, 0, 0).unwrap();
        let rd = ed.step(&mut fd, &rule, 0, 0).unwrap();
        assert_eq!(fv.states(), fd.states());
        assert_eq!(rv.evaluated_cells, 30 * 30);
        assert_eq!(rv.congestion, rd.congestion);
    }

    #[test]
    fn scratch_reuse_keeps_reports_independent() {
        // Two consecutive instrumented steps must not alias each other's
        // histograms even though the engine reuses its scratch buffers.
        let mut f = field(&[5, 0, 0, 7]);
        let mut e = Engine::sequential();
        let r1 = e.step(&mut f, &SumEnds, 0, 0).unwrap();
        let h1 = r1.congestion.clone().unwrap();
        let r2 = e.step(&mut f, &Rotate, 0, 0).unwrap();
        let h2 = r2.congestion.unwrap();
        assert_eq!(h1.reads_of(0), 4);
        assert_eq!(h2.reads_of(0), 1);
        assert_eq!(r1.congestion.unwrap().reads_of(0), 4);
    }
}
