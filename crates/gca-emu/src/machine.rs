//! The GCA realization of the emulated PRAM.
//!
//! One cell field hosts both processor cells (indices `0..P`) and memory
//! cells (indices `P..P+M`; address `a` lives at `P + a`). Every
//! instruction becomes one or two synchronous generations:
//!
//! * `Load` — processor cells point at memory cells (one-handed,
//!   data-dependent pointers) and copy the value into a register;
//! * `Const`/`Alu`/`Select` — purely local;
//! * `StoreIf` — generation 1: processors publish an *outbox*
//!   `(valid, addr, value)`; generation 2: each **memory cell reads its
//!   owner processor** and commits the outbox if it addresses this cell.
//!   The CROW owner-write discipline is thereby structural: a memory cell
//!   physically cannot be written by anyone but its owner.

use crate::isa::{AluOp, Cond, Instr, Operand, Program, Rel};
use crate::{Value, NUM_REGS};
use gca_engine::metrics::{GenerationMetrics, MetricsLog};
use gca_engine::{Access, CellField, Engine, FieldShape, GcaError, GcaRule, Reads, StepCtx};
use std::fmt;
use std::sync::Arc;

/// One cell of the emulation field.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EmuCell {
    /// A processor with its register file and store outbox.
    Proc {
        /// Register file.
        regs: [Value; NUM_REGS],
        /// Outbox valid flag.
        out_valid: bool,
        /// Outbox target address.
        out_addr: Value,
        /// Outbox value.
        out_value: Value,
    },
    /// A shared-memory cell and its owning processor.
    Mem {
        /// Stored value.
        value: Value,
        /// Owner processor index.
        owner: u32,
    },
}

/// Emulation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmuError {
    /// Engine-level failure (e.g. a load from an out-of-range address).
    Gca(GcaError),
    /// A processor issued a store to an address it does not own — the
    /// write would be silently dropped by the pull protocol, so the
    /// machine flags the program bug instead.
    OwnerViolation {
        /// The offending processor.
        proc: usize,
        /// The address it tried to write.
        addr: usize,
        /// The registered owner.
        owner: usize,
    },
    /// A `Const` table does not cover every processor.
    ConstTableSize {
        /// Table length.
        table: usize,
        /// Processor count.
        procs: usize,
    },
    /// The owner map does not have one entry per memory cell.
    OwnerMapSize {
        /// Owner-map length.
        owners: usize,
        /// Memory size.
        memory: usize,
    },
    /// A machine needs at least one processor.
    NoProcessors,
    /// An owner-map entry names a processor the machine does not have.
    OwnerOutOfRange {
        /// The memory address.
        addr: usize,
        /// Its registered owner.
        owner: usize,
        /// Processor count.
        procs: usize,
    },
    /// Listing 1 needs a graph with at least one node.
    EmptyGraph,
}

impl fmt::Display for EmuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmuError::Gca(e) => write!(f, "engine failure: {e}"),
            EmuError::OwnerViolation { proc, addr, owner } => write!(
                f,
                "processor {proc} stored to address {addr} owned by processor {owner}"
            ),
            EmuError::ConstTableSize { table, procs } => {
                write!(f, "const table has {table} entries for {procs} processors")
            }
            EmuError::OwnerMapSize { owners, memory } => {
                write!(f, "owner map has {owners} entries for {memory} memory cells")
            }
            EmuError::NoProcessors => write!(f, "the machine needs at least one processor"),
            EmuError::OwnerOutOfRange { addr, owner, procs } => write!(
                f,
                "address {addr} is owned by processor {owner}, but there are {procs} processors"
            ),
            EmuError::EmptyGraph => write!(f, "the program needs a graph with at least one node"),
        }
    }
}

impl std::error::Error for EmuError {}

impl From<GcaError> for EmuError {
    fn from(e: GcaError) -> Self {
        EmuError::Gca(e)
    }
}

fn resolve(op: Operand, regs: &[Value; NUM_REGS]) -> Value {
    match op {
        Operand::Reg(r) => regs[r as usize],
        Operand::Imm(v) => v,
    }
}

fn eval_cond(c: &Cond, regs: &[Value; NUM_REGS]) -> bool {
    let l = resolve(c.lhs, regs);
    let r = resolve(c.rhs, regs);
    match c.rel {
        Rel::Eq => l == r,
        Rel::Ne => l != r,
        Rel::Lt => l < r,
    }
}

/// The uniform rule driving one instruction of the program.
struct EmuRule {
    program: Arc<Program>,
    procs: usize,
}

impl EmuRule {
    fn instr<'a>(&'a self, ctx: &StepCtx) -> &'a Instr {
        &self.program.instrs()[ctx.phase as usize]
    }
}

impl GcaRule for EmuRule {
    type State = EmuCell;

    fn access(&self, ctx: &StepCtx, _shape: &FieldShape, _index: usize, own: &EmuCell) -> Access {
        match own {
            EmuCell::Proc { regs, .. } => match self.instr(ctx) {
                Instr::Load { addr, .. } if ctx.subgeneration == 0 => {
                    let a = resolve(*addr, regs) as usize;
                    Access::One(self.procs + a)
                }
                _ => Access::None,
            },
            EmuCell::Mem { owner, .. } => match self.instr(ctx) {
                // The pull generation of a store.
                Instr::StoreIf { .. } if ctx.subgeneration == 1 => {
                    debug_assert!((*owner as usize) < self.procs);
                    Access::One(*owner as usize)
                }
                _ => Access::None,
            },
        }
    }

    fn evolve(
        &self,
        ctx: &StepCtx,
        _shape: &FieldShape,
        index: usize,
        own: &EmuCell,
        reads: Reads<'_, EmuCell>,
    ) -> EmuCell {
        match own {
            EmuCell::Proc {
                regs,
                out_valid,
                out_addr,
                out_value,
            } => {
                let mut regs = *regs;
                let (mut ov, mut oa, mut oval) = (*out_valid, *out_addr, *out_value);
                match self.instr(ctx) {
                    Instr::Const { reg, table } => {
                        regs[*reg as usize] = table[index];
                    }
                    Instr::Load { reg, .. } => {
                        if ctx.subgeneration == 0 {
                            match reads.expect_first("emu-load") {
                                EmuCell::Mem { value, .. } => regs[*reg as usize] = *value,
                                EmuCell::Proc { .. } => {
                                    unreachable!("load targets are memory cells by construction")
                                }
                            }
                        }
                    }
                    Instr::Alu { reg, op, a, b } => {
                        let x = resolve(*a, &regs);
                        let y = resolve(*b, &regs);
                        regs[*reg as usize] = match op {
                            AluOp::Add => x.wrapping_add(y),
                            AluOp::Sub => x.wrapping_sub(y),
                            AluOp::Min => x.min(y),
                            AluOp::Mul => x.wrapping_mul(y),
                        };
                    }
                    Instr::Select {
                        reg,
                        cond,
                        if_true,
                        if_false,
                    } => {
                        regs[*reg as usize] = if eval_cond(cond, &regs) {
                            resolve(*if_true, &regs)
                        } else {
                            resolve(*if_false, &regs)
                        };
                    }
                    Instr::StoreIf { cond, addr, value } => {
                        if ctx.subgeneration == 0 {
                            ov = eval_cond(cond, &regs);
                            oa = resolve(*addr, &regs);
                            oval = resolve(*value, &regs);
                        } else {
                            ov = false; // outbox consumed
                        }
                    }
                }
                EmuCell::Proc {
                    regs,
                    out_valid: ov,
                    out_addr: oa,
                    out_value: oval,
                }
            }
            EmuCell::Mem { value, owner } => {
                let mut value = *value;
                if let Instr::StoreIf { .. } = self.instr(ctx) {
                    if ctx.subgeneration == 1 {
                        if let EmuCell::Proc {
                            out_valid: true,
                            out_addr,
                            out_value,
                            ..
                        } = reads.expect_first("emu-pull")
                        {
                            let my_addr = (index - self.procs) as Value;
                            if *out_addr == my_addr {
                                value = *out_value;
                            }
                        }
                    }
                }
                EmuCell::Mem {
                    value,
                    owner: *owner,
                }
            }
        }
    }

    fn name(&self) -> &str {
        "pram-on-gca"
    }
}

/// Result of an emulated program run.
#[derive(Clone, Debug)]
pub struct EmuRun {
    /// Final shared-memory contents.
    pub memory: Vec<Value>,
    /// GCA generations executed.
    pub generations: u64,
    /// Worst congestion observed (concurrent loads of hot memory cells,
    /// and owners pulled by many of their cells).
    pub max_congestion: u32,
    /// Per-generation activity/congestion metrics, one entry per executed
    /// GCA generation (the `phase` of each entry is the instruction index,
    /// the `subgeneration` distinguishes a store's publish/pull halves).
    /// Empty when the engine ran with
    /// [`gca_engine::Instrumentation::Off`]. This is the dynamic side of
    /// the static ISA analysis' activity/congestion cross-check.
    pub metrics: MetricsLog,
}

/// The emulated PRAM machine.
pub struct PramOnGca {
    procs: usize,
    owners: Vec<usize>,
    field: CellField<EmuCell>,
    engine: Engine,
}

impl PramOnGca {
    /// Builds a machine with `procs` processors, initial memory contents
    /// and the owner map (`owners[a]` = processor allowed to write `a`).
    pub fn new(procs: usize, memory: &[Value], owners: &[usize]) -> Result<Self, EmuError> {
        if memory.len() != owners.len() {
            return Err(EmuError::OwnerMapSize {
                owners: owners.len(),
                memory: memory.len(),
            });
        }
        if procs == 0 {
            return Err(EmuError::NoProcessors);
        }
        if let Some((addr, &owner)) = owners.iter().enumerate().find(|&(_, &o)| o >= procs) {
            return Err(EmuError::OwnerOutOfRange { addr, owner, procs });
        }
        let shape = FieldShape::new(1, procs + memory.len())?;
        let field = CellField::from_fn(shape, |i| {
            if i < procs {
                EmuCell::Proc {
                    regs: [0; NUM_REGS],
                    out_valid: false,
                    out_addr: 0,
                    out_value: 0,
                }
            } else {
                EmuCell::Mem {
                    value: memory[i - procs],
                    owner: owners[i - procs] as u32,
                }
            }
        });
        Ok(PramOnGca {
            procs,
            owners: owners.to_vec(),
            field,
            engine: Engine::sequential(),
        })
    }

    /// Replaces the engine configuration. The default is a sequential
    /// engine with `Counts` instrumentation; pass one with
    /// [`gca_engine::Instrumentation::Validate`] to run every emulated
    /// generation under the CROW/domain sanitizer, or `Off` to skip
    /// congestion accounting.
    #[must_use]
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Number of processors.
    pub fn procs(&self) -> usize {
        self.procs
    }

    /// Current shared-memory contents.
    pub fn memory(&self) -> Vec<Value> {
        self.field.states()[self.procs..]
            .iter()
            .map(|c| match c {
                EmuCell::Mem { value, .. } => *value,
                EmuCell::Proc { .. } => unreachable!("memory region holds memory cells"),
            })
            .collect()
    }

    /// Runs `program` to completion.
    pub fn run_program(&mut self, program: &Program) -> Result<EmuRun, EmuError> {
        // Validate const tables up front.
        for instr in program.instrs() {
            if let Instr::Const { table, .. } = instr {
                if table.len() != self.procs {
                    return Err(EmuError::ConstTableSize {
                        table: table.len(),
                        procs: self.procs,
                    });
                }
            }
        }
        let rule = EmuRule {
            program: Arc::new(program.clone()),
            procs: self.procs,
        };
        let mut max_congestion = 0;
        let mut metrics = MetricsLog::new();
        fn record(metrics: &mut MetricsLog, rep: &gca_engine::StepReport) {
            if let Some(hist) = rep.congestion.as_ref() {
                metrics.push(GenerationMetrics::new(rep.ctx, rep.active_cells, hist));
            }
        }
        for (idx, instr) in program.instrs().iter().enumerate() {
            let rep = self.engine.step(&mut self.field, &rule, idx as u32, 0)?;
            max_congestion = max_congestion.max(rep.max_congestion());
            record(&mut metrics, &rep);
            if let Instr::StoreIf { .. } = instr {
                // Owner check between publish and pull: a valid outbox must
                // target an owned address.
                for (p, cell) in self.field.states()[..self.procs].iter().enumerate() {
                    if let EmuCell::Proc {
                        out_valid: true,
                        out_addr,
                        ..
                    } = cell
                    {
                        let addr = *out_addr as usize;
                        if addr >= self.owners.len() {
                            return Err(EmuError::Gca(GcaError::PointerOutOfRange {
                                cell: p,
                                target: self.procs + addr,
                                len: self.field.len(),
                                generation: self.engine.generation(),
                            }));
                        }
                        if self.owners[addr] != p {
                            return Err(EmuError::OwnerViolation {
                                proc: p,
                                addr,
                                owner: self.owners[addr],
                            });
                        }
                    }
                }
                let rep = self.engine.step(&mut self.field, &rule, idx as u32, 1)?;
                max_congestion = max_congestion.max(rep.max_congestion());
                record(&mut metrics, &rep);
            }
        }
        Ok(EmuRun {
            memory: self.memory(),
            generations: self.engine.generation(),
            max_congestion,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::INFINITY;

    fn owners_identity(m: usize, procs: usize) -> Vec<usize> {
        (0..m).map(|a| a % procs).collect()
    }

    #[test]
    fn const_load_alu_store_round_trip() {
        // 2 procs, 2 cells; each proc doubles its cell.
        let mut m = PramOnGca::new(2, &[10, 20], &[0, 1]).unwrap();
        let mut p = Program::new();
        p.push(Instr::Const {
            reg: 0,
            table: Arc::new(vec![0, 1]), // own address
        });
        p.push(Instr::Load {
            reg: 1,
            addr: Operand::Reg(0),
        });
        p.push(Instr::Alu {
            reg: 2,
            op: AluOp::Add,
            a: Operand::Reg(1),
            b: Operand::Reg(1),
        });
        p.push(Instr::StoreIf {
            cond: Cond::always(),
            addr: Operand::Reg(0),
            value: Operand::Reg(2),
        });
        let run = m.run_program(&p).unwrap();
        assert_eq!(run.memory, vec![20, 40]);
        assert_eq!(run.generations, 1 + 1 + 1 + 2);
    }

    #[test]
    fn select_and_predicated_store() {
        // Only processors with id < 2 write 7 to their cell.
        let mut m = PramOnGca::new(4, &[0, 0, 0, 0], &owners_identity(4, 4)).unwrap();
        let mut p = Program::new();
        p.push(Instr::Const {
            reg: 0,
            table: Arc::new(vec![0, 1, 2, 3]),
        });
        p.push(Instr::StoreIf {
            cond: Cond {
                lhs: Operand::Reg(0),
                rel: Rel::Lt,
                rhs: Operand::Imm(2),
            },
            addr: Operand::Reg(0),
            value: Operand::Imm(7),
        });
        let run = m.run_program(&p).unwrap();
        assert_eq!(run.memory, vec![7, 7, 0, 0]);
    }

    #[test]
    fn synchronous_semantics_rotation() {
        // Every proc reads its right neighbor's cell, then writes its own:
        // a rotation, exact only if loads observe pre-store memory.
        let n = 5;
        let init: Vec<Value> = (0..n as Value).collect();
        let mut m = PramOnGca::new(n, &init, &owners_identity(n, n)).unwrap();
        let mut p = Program::new();
        p.push(Instr::Const {
            reg: 0,
            table: Arc::new((0..n as Value).collect()),
        });
        p.push(Instr::Const {
            reg: 1,
            table: Arc::new((0..n).map(|i| ((i + 1) % n) as Value).collect()),
        });
        p.push(Instr::Load {
            reg: 2,
            addr: Operand::Reg(1),
        });
        p.push(Instr::StoreIf {
            cond: Cond::always(),
            addr: Operand::Reg(0),
            value: Operand::Reg(2),
        });
        let run = m.run_program(&p).unwrap();
        assert_eq!(run.memory, vec![1, 2, 3, 4, 0]);
    }

    #[test]
    fn owner_violation_detected() {
        let mut m = PramOnGca::new(2, &[0, 0], &[0, 0]).unwrap(); // proc 0 owns all
        let mut p = Program::new();
        p.push(Instr::Const {
            reg: 0,
            table: Arc::new(vec![0, 1]),
        });
        // Both procs write their own id'd address — proc 1 violates.
        p.push(Instr::StoreIf {
            cond: Cond::always(),
            addr: Operand::Reg(0),
            value: Operand::Imm(9),
        });
        let err = m.run_program(&p).unwrap_err();
        assert_eq!(
            err,
            EmuError::OwnerViolation {
                proc: 1,
                addr: 1,
                owner: 0
            }
        );
    }

    #[test]
    fn load_out_of_range_detected() {
        let mut m = PramOnGca::new(1, &[0], &[0]).unwrap();
        let mut p = Program::new();
        p.push(Instr::Load {
            reg: 0,
            addr: Operand::Imm(99),
        });
        assert!(matches!(m.run_program(&p), Err(EmuError::Gca(_))));
    }

    #[test]
    fn const_table_size_checked() {
        let mut m = PramOnGca::new(3, &[0], &[0]).unwrap();
        let mut p = Program::new();
        p.push(Instr::Const {
            reg: 0,
            table: Arc::new(vec![1, 2]), // only 2 entries for 3 procs
        });
        assert_eq!(
            m.run_program(&p).unwrap_err(),
            EmuError::ConstTableSize { table: 2, procs: 3 }
        );
    }

    #[test]
    fn owner_map_must_cover_memory() {
        assert_eq!(
            PramOnGca::new(2, &[0, 0, 0], &[0, 1]).err(),
            Some(EmuError::OwnerMapSize { owners: 2, memory: 3 })
        );
    }

    #[test]
    fn zero_processors_rejected() {
        assert_eq!(PramOnGca::new(0, &[], &[]).err(), Some(EmuError::NoProcessors));
    }

    #[test]
    fn owner_out_of_range_rejected() {
        assert_eq!(
            PramOnGca::new(2, &[0, 0, 0], &[0, 1, 2]).err(),
            Some(EmuError::OwnerOutOfRange { addr: 2, owner: 2, procs: 2 })
        );
    }

    #[test]
    fn concurrent_reads_measured() {
        // All 8 procs load address 0: congestion 8 on that cell.
        let mut m = PramOnGca::new(8, &[42, 0], &owners_identity(2, 8)).unwrap();
        let mut p = Program::new();
        p.push(Instr::Load {
            reg: 0,
            addr: Operand::Imm(0),
        });
        let run = m.run_program(&p).unwrap();
        assert_eq!(run.max_congestion, 8);
    }

    #[test]
    fn per_generation_metrics_recorded() {
        let mut m = PramOnGca::new(8, &[42, 0], &owners_identity(2, 8)).unwrap();
        let mut p = Program::new();
        p.push(Instr::Const {
            reg: 1,
            table: Arc::new((0..8).collect()),
        });
        p.push(Instr::Load {
            reg: 0,
            addr: Operand::Imm(0),
        });
        // Only the owner of address 0 stores.
        p.push(Instr::StoreIf {
            cond: Cond {
                lhs: Operand::Reg(1),
                rel: Rel::Eq,
                rhs: Operand::Imm(0),
            },
            addr: Operand::Imm(0),
            value: Operand::Reg(0),
        });
        let run = m.run_program(&p).unwrap();
        // One entry per generation: const, load, publish, pull.
        assert_eq!(run.metrics.generations() as u64, run.generations);
        // The const generation is purely local.
        assert_eq!(run.metrics.entries()[0].total_reads, 0);
        // The load fans every processor into address 0.
        assert_eq!(run.metrics.entries()[1].max_congestion, 8);
        assert_eq!(run.metrics.entries()[1].total_reads, 8);
        // The publish generation is local: no reads.
        assert_eq!(run.metrics.entries()[2].total_reads, 0);
        // The pull generation: every memory cell reads its owner.
        assert_eq!(run.metrics.entries()[3].total_reads, 2);
        assert_eq!(run.metrics.max_congestion(), run.max_congestion);
    }

    #[test]
    fn metrics_empty_with_instrumentation_off() {
        use gca_engine::Instrumentation;
        let mut m = PramOnGca::new(2, &[1, 2], &[0, 1])
            .unwrap()
            .with_engine(Engine::sequential().with_instrumentation(Instrumentation::Off));
        let mut p = Program::new();
        p.push(Instr::Load {
            reg: 0,
            addr: Operand::Imm(0),
        });
        let run = m.run_program(&p).unwrap();
        assert_eq!(run.metrics.generations(), 0);
        assert_eq!(run.max_congestion, 0);
    }

    #[test]
    fn sanitizer_passes_emulated_programs() {
        use gca_engine::Instrumentation;
        // The emulation rule is a pure snapshot function with an honest
        // (trivial) domain, so Validate must agree with Counts exactly.
        let values = [5 as Value, 3, 8, 1, 9, 2];
        let mut counts = PramOnGca::new(
            values.len(),
            &values,
            &owners_identity(values.len(), values.len()),
        )
        .unwrap();
        let mut validate = PramOnGca::new(
            values.len(),
            &values,
            &owners_identity(values.len(), values.len()),
        )
        .unwrap()
        .with_engine(Engine::sequential().with_instrumentation(Instrumentation::Validate));
        let p = crate::programs::prefix_sums_program(values.len());
        let rc = counts.run_program(&p).unwrap();
        let rv = validate.run_program(&p).unwrap();
        assert_eq!(rc.memory, rv.memory);
        assert_eq!(rc.metrics.entries(), rv.metrics.entries());
    }

    #[test]
    fn min_alu_and_infinity() {
        let mut m = PramOnGca::new(1, &[0], &[0]).unwrap();
        let mut p = Program::new();
        p.push(Instr::Alu {
            reg: 0,
            op: AluOp::Min,
            a: Operand::Imm(INFINITY),
            b: Operand::Imm(17),
        });
        p.push(Instr::StoreIf {
            cond: Cond::always(),
            addr: Operand::Imm(0),
            value: Operand::Reg(0),
        });
        let run = m.run_program(&p).unwrap();
        assert_eq!(run.memory, vec![17]);
    }
}
