//! Listing 1 compiled to the emulated PRAM's ISA.
//!
//! The reference algorithm, expressed as a SIMD program over `n²`
//! processors (processor `p = i·n + j`), with the same memory layout as
//! the native PRAM simulator: `C` at `[0, n)`, `T` at `[n, 2n)`, the `n²`
//! reduction temporaries at `[2n, 2n + n²)` and the adjacency matrix at
//! `[2n + n², 2n + 2n²)`. Host-side control flow (the `log n` loops) is
//! unrolled into the instruction stream, exactly as a SIMD front end
//! would issue it.
//!
//! The point of the exercise is the cost comparison: the emulated run
//! needs `9 + 32·L + 18·L²` GCA generations (`L = ⌈log₂ n⌉`) against the
//! hand-mapped machine's `1 + 8·L + 3·L²` — the factor the paper predicts
//! when it notes that *"the configurability of a GCA can provide better
//! performance than a universal PRAM emulation"*.

use crate::isa::{AluOp, Cond, Instr, Operand, Program, Rel};
use crate::machine::{EmuError, PramOnGca};
use crate::{Value, INFINITY};
use gca_engine::ceil_log2;
use gca_graphs::{AdjacencyMatrix, Labeling};
use std::sync::Arc;

// Register allocation (constants r0–r6, scratch r8–r13).
const R_I: u8 = 0; // row index i == address of C[i]
const R_J: u8 = 1; // column index j == address of C[j]
const R_A: u8 = 2; // address of A(i, j)
const R_TEMP: u8 = 3; // address of temp(i, j)
const R_TEMP0: u8 = 4; // address of temp(i, 0)
const R_TI: u8 = 5; // address of T[i]
const R_TJ: u8 = 6; // address of T[j]
const R_V: u8 = 8; // scratch
const R_W: u8 = 9;
const R_X: u8 = 10;
const R_Y: u8 = 11;
const R_MASK: u8 = 12; // reduction active mask
const R_PARTNER: u8 = 13; // reduction partner address

/// A compiled instance: program plus machine configuration.
pub struct CompiledHirschberg {
    /// The SIMD program.
    pub program: Program,
    /// Processor count (`n²`).
    pub procs: usize,
    /// Initial memory image.
    pub memory: Vec<Value>,
    /// Owner map.
    pub owners: Vec<usize>,
    /// Problem size.
    pub n: usize,
}

/// Closed-form GCA generations of the emulated run:
/// `9 + 32·L + 18·L²` with `L = ⌈log₂ n⌉`.
pub fn emulated_generations(n: usize) -> u64 {
    let l = u64::from(ceil_log2(n));
    9 + 32 * l + 18 * l * l
}

fn always_if_col0() -> Cond {
    Cond {
        lhs: Operand::Reg(R_J),
        rel: Rel::Eq,
        rhs: Operand::Imm(0),
    }
}

/// Compiles Listing 1 for `graph`, which needs at least one node.
pub fn compile(graph: &AdjacencyMatrix) -> Result<CompiledHirschberg, EmuError> {
    let n = graph.n();
    if n == 0 {
        return Err(EmuError::EmptyGraph);
    }
    let procs = n * n;
    let t_base = n;
    let temp_base = 2 * n;
    let a_base = 2 * n + n * n;
    let mem_size = 2 * n + 2 * n * n;

    // Memory image: C and T zeroed, temps zeroed, A loaded.
    let mut memory = vec![0 as Value; mem_size];
    for i in 0..n {
        for j in 0..n {
            memory[a_base + i * n + j] = Value::from(i != j && graph.has_edge(i, j));
        }
    }
    // Owners: C[i], T[i] → processor (i, 0); temp(i,j) → processor (i, j);
    // the read-only A region nominally belongs to processor 0.
    let mut owners = vec![0usize; mem_size];
    for i in 0..n {
        owners[i] = i * n;
        owners[t_base + i] = i * n;
    }
    for p in 0..procs {
        owners[temp_base + p] = p;
    }

    let mut prog = Program::new();
    let row = |p: usize| (p / n) as Value;
    let col = |p: usize| (p % n) as Value;
    let table = |f: &dyn Fn(usize) -> Value| -> Arc<Vec<Value>> {
        Arc::new((0..procs).map(f).collect())
    };

    // Constant registers.
    prog.push(Instr::Const { reg: R_I, table: table(&row) });
    prog.push(Instr::Const { reg: R_J, table: table(&col) });
    prog.push(Instr::Const {
        reg: R_A,
        table: table(&|p| (a_base + p) as Value),
    });
    prog.push(Instr::Const {
        reg: R_TEMP,
        table: table(&|p| (temp_base + p) as Value),
    });
    prog.push(Instr::Const {
        reg: R_TEMP0,
        table: table(&|p| (temp_base + (p / n) * n) as Value),
    });
    prog.push(Instr::Const {
        reg: R_TI,
        table: table(&|p| (t_base + p / n) as Value),
    });
    prog.push(Instr::Const {
        reg: R_TJ,
        table: table(&|p| (t_base + p % n) as Value),
    });

    // Step 1: C(i) ← i (first-column processors own C).
    prog.push(Instr::StoreIf {
        cond: always_if_col0(),
        addr: Operand::Reg(R_I),
        value: Operand::Reg(R_I),
    });

    let l = ceil_log2(n);
    for _ in 0..l {
        // Step 2: temp(i,j) ← A(i,j)=1 ∧ C(j)≠C(i) ? C(j) : ∞.
        prog.push(Instr::Load { reg: R_V, addr: Operand::Reg(R_A) });
        prog.push(Instr::Load { reg: R_W, addr: Operand::Reg(R_J) });
        prog.push(Instr::Load { reg: R_X, addr: Operand::Reg(R_I) });
        prog.push(Instr::Select {
            reg: R_Y,
            cond: Cond { lhs: Operand::Reg(R_V), rel: Rel::Eq, rhs: Operand::Imm(1) },
            if_true: Operand::Reg(R_W),
            if_false: Operand::Imm(INFINITY),
        });
        prog.push(Instr::Select {
            reg: R_Y,
            cond: Cond { lhs: Operand::Reg(R_W), rel: Rel::Ne, rhs: Operand::Reg(R_X) },
            if_true: Operand::Reg(R_Y),
            if_false: Operand::Imm(INFINITY),
        });
        prog.push(Instr::StoreIf {
            cond: Cond::always(),
            addr: Operand::Reg(R_TEMP),
            value: Operand::Reg(R_Y),
        });
        push_reduction(&mut prog, n, temp_base, procs);
        push_resolve(&mut prog);

        // Step 3: temp(i,j) ← C(j)=i ∧ T(j)≠i ? T(j) : ∞.
        prog.push(Instr::Load { reg: R_V, addr: Operand::Reg(R_J) });
        prog.push(Instr::Load { reg: R_W, addr: Operand::Reg(R_TJ) });
        prog.push(Instr::Select {
            reg: R_Y,
            cond: Cond { lhs: Operand::Reg(R_V), rel: Rel::Eq, rhs: Operand::Reg(R_I) },
            if_true: Operand::Reg(R_W),
            if_false: Operand::Imm(INFINITY),
        });
        prog.push(Instr::Select {
            reg: R_Y,
            cond: Cond { lhs: Operand::Reg(R_W), rel: Rel::Ne, rhs: Operand::Reg(R_I) },
            if_true: Operand::Reg(R_Y),
            if_false: Operand::Imm(INFINITY),
        });
        prog.push(Instr::StoreIf {
            cond: Cond::always(),
            addr: Operand::Reg(R_TEMP),
            value: Operand::Reg(R_Y),
        });
        push_reduction(&mut prog, n, temp_base, procs);
        push_resolve(&mut prog);

        // Step 4: C(i) ← T(i).
        prog.push(Instr::Load { reg: R_V, addr: Operand::Reg(R_TI) });
        prog.push(Instr::StoreIf {
            cond: always_if_col0(),
            addr: Operand::Reg(R_I),
            value: Operand::Reg(R_V),
        });

        // Step 5: C(i) ← C(C(i)), ⌈log₂ n⌉ times (C's base address is 0,
        // so a C value is its own address).
        for _ in 0..l {
            prog.push(Instr::Load { reg: R_V, addr: Operand::Reg(R_I) });
            prog.push(Instr::Load { reg: R_W, addr: Operand::Reg(R_V) });
            prog.push(Instr::StoreIf {
                cond: always_if_col0(),
                addr: Operand::Reg(R_I),
                value: Operand::Reg(R_W),
            });
        }

        // Step 6: C(i) ← min(C(i), T(C(i))).
        prog.push(Instr::Load { reg: R_V, addr: Operand::Reg(R_I) });
        prog.push(Instr::Alu {
            reg: R_W,
            op: AluOp::Add,
            a: Operand::Reg(R_V),
            b: Operand::Imm(t_base as Value),
        });
        prog.push(Instr::Load { reg: R_X, addr: Operand::Reg(R_W) });
        prog.push(Instr::Alu {
            reg: R_Y,
            op: AluOp::Min,
            a: Operand::Reg(R_V),
            b: Operand::Reg(R_X),
        });
        prog.push(Instr::StoreIf {
            cond: always_if_col0(),
            addr: Operand::Reg(R_I),
            value: Operand::Reg(R_Y),
        });
    }

    Ok(CompiledHirschberg {
        program: prog,
        procs,
        memory,
        owners,
        n,
    })
}

/// The `⌈log₂ n⌉` tree-reduction rounds over the temp rows.
fn push_reduction(prog: &mut Program, n: usize, temp_base: usize, procs: usize) {
    for s in 0..ceil_log2(n) {
        let stride = 1usize << s;
        let mask: Arc<Vec<Value>> = Arc::new(
            (0..procs)
                .map(|p| {
                    let j = p % n;
                    Value::from(j.is_multiple_of(stride << 1) && j + stride < n)
                })
                .collect(),
        );
        let partner: Arc<Vec<Value>> = Arc::new(
            (0..procs)
                .map(|p| {
                    let j = p % n;
                    if j.is_multiple_of(stride << 1) && j + stride < n {
                        (temp_base + p + stride) as Value
                    } else {
                        (temp_base + p) as Value // harmless self-read
                    }
                })
                .collect(),
        );
        prog.push(Instr::Const { reg: R_MASK, table: mask });
        prog.push(Instr::Const { reg: R_PARTNER, table: partner });
        prog.push(Instr::Load { reg: R_V, addr: Operand::Reg(R_TEMP) });
        prog.push(Instr::Load { reg: R_W, addr: Operand::Reg(R_PARTNER) });
        prog.push(Instr::Alu {
            reg: R_X,
            op: AluOp::Min,
            a: Operand::Reg(R_V),
            b: Operand::Reg(R_W),
        });
        prog.push(Instr::StoreIf {
            cond: Cond { lhs: Operand::Reg(R_MASK), rel: Rel::Eq, rhs: Operand::Imm(1) },
            addr: Operand::Reg(R_TEMP),
            value: Operand::Reg(R_X),
        });
    }
}

/// `T(i) ← temp(i,0) = ∞ ? C(i) : temp(i,0)` on the first-column procs.
fn push_resolve(prog: &mut Program) {
    prog.push(Instr::Load { reg: R_V, addr: Operand::Reg(R_TEMP0) });
    prog.push(Instr::Load { reg: R_W, addr: Operand::Reg(R_I) });
    prog.push(Instr::Select {
        reg: R_X,
        cond: Cond { lhs: Operand::Reg(R_V), rel: Rel::Eq, rhs: Operand::Imm(INFINITY) },
        if_true: Operand::Reg(R_W),
        if_false: Operand::Reg(R_V),
    });
    prog.push(Instr::StoreIf {
        cond: always_if_col0(),
        addr: Operand::Reg(R_TI),
        value: Operand::Reg(R_X),
    });
}

/// Connected components via the emulated PRAM running Listing 1.
pub fn connected_components(graph: &AdjacencyMatrix) -> Result<Labeling, EmuError> {
    let n = graph.n();
    if n == 0 {
        return Ok(Labeling::empty());
    }
    let compiled = compile(graph)?;
    let mut machine = PramOnGca::new(compiled.procs, &compiled.memory, &compiled.owners)?;
    let run = machine.run_program(&compiled.program)?;
    Labeling::new(run.memory[..n].iter().map(|&v| v as usize).collect()).map_err(|e| {
        EmuError::Gca(match e {
            gca_graphs::GraphError::NodeOutOfRange { node, n } => {
                gca_engine::GcaError::BadLabel { label: node, n }
            }
            _ => gca_engine::GcaError::BadLabel { label: usize::MAX, n },
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gca_graphs::connectivity::union_find_components_dense;
    use gca_graphs::{generators, GraphBuilder};

    fn check(graph: &AdjacencyMatrix) {
        let expected = union_find_components_dense(graph);
        let labels = connected_components(graph).unwrap();
        assert_eq!(labels.as_slice(), expected.as_slice(), "on {graph:?}");
    }

    #[test]
    fn basic_graphs() {
        check(&GraphBuilder::new(2).edge(0, 1).build().unwrap());
        check(&generators::path(6));
        check(&generators::ring(7));
        check(&generators::star(6));
        check(&generators::complete(5));
        check(&generators::empty(4));
    }

    #[test]
    fn random_graphs() {
        for seed in 0..5 {
            check(&generators::gnp(11, 0.25, seed));
        }
    }

    #[test]
    fn non_power_of_two() {
        for n in [3usize, 5, 6, 9] {
            check(&generators::gnp(n, 0.4, n as u64));
        }
    }

    #[test]
    fn single_node() {
        check(&generators::empty(1));
    }

    #[test]
    fn compile_rejects_the_empty_graph() {
        assert_eq!(compile(&generators::empty(0)).err(), Some(EmuError::EmptyGraph));
    }

    #[test]
    fn generation_formula_matches_execution() {
        for n in [2usize, 4, 8, 11] {
            let g = generators::gnp(n, 0.3, 3);
            let compiled = compile(&g).unwrap();
            let mut m = PramOnGca::new(compiled.procs, &compiled.memory, &compiled.owners)
                .unwrap();
            let run = m.run_program(&compiled.program).unwrap();
            assert_eq!(run.generations, emulated_generations(n), "n = {n}");
            assert_eq!(run.generations, compiled.program.total_generations());
        }
    }

    #[test]
    fn emulation_costs_more_than_the_hand_mapping() {
        // The paper's claim: compiled (hand-mapped) GCA beats universal
        // PRAM emulation. Quantified: ~6× in the leading term.
        for n in [4usize, 16, 64, 256] {
            let emu = emulated_generations(n);
            let native = gca_hirschberg::complexity::total_generations(n);
            assert!(
                emu > 4 * native,
                "n = {n}: emulated {emu} vs native {native}"
            );
        }
    }

    #[test]
    fn matches_native_gca_labels() {
        for seed in 0..3 {
            let g = generators::gnp(9, 0.3, seed);
            let emu = connected_components(&g).unwrap();
            let native = gca_hirschberg::connected_components(&g).unwrap();
            assert_eq!(emu, native);
        }
    }
}
