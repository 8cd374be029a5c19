//! Table 1: per-generation active cells, read targets and congestion δ —
//! the paper's claims as closed forms in `n`, plus measurement on real runs.
//!
//! The paper's table lists, for every generation, how many cells *modify
//! their state* and how many cells are read with which congestion
//! (`δ = number of concurrent read accesses`). The claims are workload-
//! independent for the statically-addressed generations (0–9) and worst-case
//! bounds for the data-dependent ones (10, 11). [`measure_first_iteration`]
//! instruments an actual run so the table binary can print *claimed vs.
//! measured*; [`static_row`] gives the statically addressed rows in closed
//! form, from the same footprints the fused path commits. Small
//! definitional deviations in the paper's own rows (e.g.
//! generation 5 listed as `n(n+1)` active although its text says the last
//! row stays unchanged) are documented in EXPERIMENTS.md.

use crate::sweep::static_footprint;
use crate::{ExecPath, Gen, HirschbergGca, Machine};
use gca_engine::metrics::{GenerationMetrics, ReadFootprint};
use gca_engine::{Engine, GcaError, Instrumentation, StepCtx};
use gca_graphs::AdjacencyMatrix;
use std::collections::BTreeMap;

/// One claimed row of Table 1 (formulas evaluated at `n`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PaperClaim {
    /// Generation number (0–11).
    pub generation: u32,
    /// Reference-algorithm step (Table 1, left column).
    pub step: u32,
    /// Claimed number of active cells.
    pub active: u64,
    /// Claimed `(number of cells, δ)` read groups.
    pub groups: Vec<(u64, u64)>,
    /// `true` for the data-dependent generations where δ is a worst-case
    /// bound rather than an exact count.
    pub worst_case: bool,
}

/// The paper's Table 1 evaluated at problem size `n`.
pub fn paper_table1(n: usize) -> Vec<PaperClaim> {
    let n = n as u64;
    let sq = n * n;
    vec![
        PaperClaim {
            generation: 0,
            step: 1,
            active: n * (n + 1),
            groups: vec![],
            worst_case: false,
        },
        PaperClaim {
            generation: 1,
            step: 2,
            active: n * (n + 1),
            groups: vec![(sq, 0), (n, n + 1)],
            worst_case: false,
        },
        PaperClaim {
            generation: 2,
            step: 2,
            active: sq,
            groups: vec![(sq, 0), (n, n)],
            worst_case: false,
        },
        PaperClaim {
            generation: 3,
            step: 2,
            active: sq / 2,
            groups: vec![((n.saturating_sub(1)).pow(2), 1), (n + n, 0)],
            worst_case: false,
        },
        PaperClaim {
            generation: 4,
            step: 2,
            active: n,
            groups: vec![(n, 1), (sq, 0)],
            worst_case: false,
        },
        PaperClaim {
            generation: 5,
            step: 3,
            active: n * (n + 1),
            groups: vec![(sq, 0), (n, n + 1)],
            worst_case: false,
        },
        PaperClaim {
            generation: 6,
            step: 3,
            active: sq,
            groups: vec![(sq, 0), (n, n)],
            worst_case: false,
        },
        PaperClaim {
            generation: 7,
            step: 3,
            active: sq / 2,
            groups: vec![((n.saturating_sub(1)).pow(2), 1), (n + n, 0)],
            worst_case: false,
        },
        PaperClaim {
            generation: 8,
            step: 3,
            active: n,
            groups: vec![(n, 1), (sq, 0)],
            worst_case: false,
        },
        PaperClaim {
            generation: 9,
            step: 4,
            active: (n.saturating_sub(1)).pow(2),
            groups: vec![(n, n.saturating_sub(1)), (sq, 0)],
            worst_case: false,
        },
        PaperClaim {
            generation: 10,
            step: 5,
            active: n,
            groups: vec![(n, n), (sq, 0)],
            worst_case: true,
        },
        PaperClaim {
            generation: 11,
            step: 6,
            active: n,
            groups: vec![(n, n), (sq, 0)],
            worst_case: true,
        },
    ]
}

/// One measured row: activity and congestion of a single executed
/// `(generation, sub-generation)`.
#[derive(Clone, Debug, PartialEq)]
pub struct MeasuredRow {
    /// The generation (0–11).
    pub generation: Gen,
    /// Sub-generation index (0 for non-iterated generations).
    pub subgeneration: u32,
    /// Cells that performed a calculation.
    pub active: usize,
    /// Distinct cells read at least once.
    pub cells_read: usize,
    /// Maximum concurrent reads on a single cell.
    pub max_congestion: u32,
    /// Full δ grouping (δ → number of cells).
    pub groups: BTreeMap<u32, usize>,
}

/// Converts one instrumented generation into a measured row. The machine
/// stamps every step with a schedule phase, so an unknown tag can only
/// mean the recorded context is corrupt — surfaced as a typed error
/// rather than a panic.
fn measured_row(m: &gca_engine::metrics::GenerationMetrics) -> Result<MeasuredRow, GcaError> {
    let generation = Gen::from_number(m.ctx.phase).ok_or(GcaError::InvariantViolation {
        invariant: "schedule-phase".to_string(),
        generation: m.ctx.generation,
        phase: m.ctx.phase,
        cell: 0,
    })?;
    Ok(MeasuredRow {
        generation,
        subgeneration: m.ctx.subgeneration,
        active: m.active_cells,
        cells_read: m.cells_read,
        max_congestion: m.max_congestion,
        groups: m.congestion_groups.clone(),
    })
}

/// The row of a statically addressed generation (0–9) at sub-generation
/// `sub` on an `n`-node field, without running anything; `None` for the
/// pointer chases (10, 11), whose reads depend on the labels. Every run
/// measures exactly this row for such a generation.
pub fn static_row(gen: Gen, sub: u32, n: usize) -> Option<MeasuredRow> {
    let (active, grid) = static_footprint(gen, sub, n)?;
    let mut fp = ReadFootprint::new();
    fp.set_grid(n * (n + 1), grid);
    let ctx = StepCtx {
        generation: 0,
        phase: gen.number(),
        subgeneration: sub,
    };
    measured_row(&GenerationMetrics::from_footprint(ctx, active, &fp)).ok()
}

/// Runs generation 0 plus the first outer iteration on `graph` and returns
/// one measured row per executed `(generation, sub-generation)`, counted
/// cell by cell by the generic engine.
pub fn measure_first_iteration(graph: &AdjacencyMatrix) -> Result<Vec<MeasuredRow>, GcaError> {
    if graph.n() == 0 {
        return Ok(Vec::new());
    }
    let engine = Engine::sequential().with_instrumentation(Instrumentation::Counts);
    let mut machine = Machine::with_engine(graph, engine)?.with_exec(ExecPath::Generic);
    machine.init()?;
    if graph.n() > 1 {
        machine.run_iteration()?;
    }
    machine.metrics().entries().iter().map(measured_row).collect()
}

/// Measures the whole run (all `⌈log₂ n⌉` iterations) on the generic
/// engine — used by the congestion benchmarks to locate the overall hot
/// spots.
pub fn measure_full_run(graph: &AdjacencyMatrix) -> Result<Vec<MeasuredRow>, GcaError> {
    let engine = Engine::sequential().with_instrumentation(Instrumentation::Counts);
    let run = HirschbergGca::new()
        .with_engine(engine)
        .exec(ExecPath::Generic)
        .run(graph)?;
    run.metrics.entries().iter().map(measured_row).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gca_graphs::generators;

    #[test]
    fn paper_table_has_twelve_rows() {
        let t = paper_table1(16);
        assert_eq!(t.len(), 12);
        assert_eq!(t[0].active, 16 * 17);
        assert_eq!(t[1].groups, vec![(256, 0), (16, 17)]);
        assert!(t[10].worst_case);
    }

    #[test]
    fn measured_static_generations_match_claims_n8() {
        // Statically-addressed generations must match the paper's formulas
        // exactly (independent of the workload).
        let n = 8usize;
        let g = generators::gnp(n, 0.5, 3);
        let rows = measure_first_iteration(&g).unwrap();
        let by_gen = |gen: Gen, sub: u32| {
            rows.iter()
                .find(|r| r.generation == gen && r.subgeneration == sub)
                .unwrap()
                .clone()
        };

        // Generation 0: n(n+1) active, no reads.
        let g0 = by_gen(Gen::Init, 0);
        assert_eq!(g0.active, n * (n + 1));
        assert_eq!(g0.cells_read, 0);

        // Generation 1: n cells read with δ = n + 1.
        let g1 = by_gen(Gen::BroadcastC, 0);
        assert_eq!(g1.active, n * (n + 1));
        assert_eq!(g1.cells_read, n);
        assert_eq!(g1.max_congestion as usize, n + 1);
        assert_eq!(g1.groups.get(&((n + 1) as u32)), Some(&n));

        // Generation 2: n² active; D_N read with δ = n.
        let g2 = by_gen(Gen::FilterNeighbors, 0);
        assert_eq!(g2.active, n * n);
        assert_eq!(g2.cells_read, n);
        assert_eq!(g2.max_congestion as usize, n);

        // Generation 3, first sub-generation: n²/2 active, δ = 1.
        let g3 = by_gen(Gen::MinReduce, 0);
        assert_eq!(g3.active, n * n / 2);
        assert_eq!(g3.max_congestion, 1);
        assert_eq!(g3.cells_read, n * n / 2);

        // Generation 4: n active, n cells read with δ = 1.
        let g4 = by_gen(Gen::ResolveIsolated, 0);
        assert_eq!(g4.active, n);
        assert_eq!(g4.cells_read, n);
        assert_eq!(g4.max_congestion, 1);

        // Generation 10: n active; δ bounded by n.
        let g10 = by_gen(Gen::PointerJump, 0);
        assert_eq!(g10.active, n);
        assert!(g10.max_congestion as usize <= n);
    }

    #[test]
    fn static_rows_equal_the_measured_rows() {
        // n = 1, 2 and 3 are degenerate field shapes; 64, 65 and 70 put
        // rows on, just past and well past an adjacency word.
        for n in [1usize, 2, 3, 8, 64, 65, 70] {
            let rows = measure_first_iteration(&generators::gnp(n, 0.2, n as u64)).unwrap();
            let mut statics = 0;
            for row in &rows {
                if let Some(want) = static_row(row.generation, row.subgeneration, n) {
                    assert_eq!(*row, want, "n = {n}");
                    statics += 1;
                }
            }
            let log = crate::complexity::ceil_log2(n) as usize;
            assert_eq!(rows.len() - statics, if n > 1 { log + 1 } else { 0 }, "n = {n}");
        }
    }

    #[test]
    fn pointer_jump_congestion_hits_worst_case_on_star() {
        // In a star all nodes hook onto node 0; every jump then reads C(0),
        // realizing the paper's worst-case δ = n.
        let n = 8usize;
        let rows = measure_full_run(&generators::star(n)).unwrap();
        let max_jump = rows
            .iter()
            .filter(|r| r.generation == Gen::PointerJump)
            .map(|r| r.max_congestion)
            .max()
            .unwrap();
        assert_eq!(max_jump as usize, n);
    }

    #[test]
    fn measure_handles_trivial_sizes() {
        assert_eq!(measure_first_iteration(&generators::empty(0)).unwrap().len(), 0);
        let one = measure_first_iteration(&generators::empty(1)).unwrap();
        assert_eq!(one.len(), 1); // init only
        assert_eq!(one[0].generation, Gen::Init);
    }

    #[test]
    fn hinted_domains_bit_identical_to_dense_per_generation() {
        // The domain hints of HirschbergRule must not change *anything*
        // observable: run two machines in lockstep — one trusting the hints
        // (the default), one under `Validate`, which evaluates the whole
        // field and checks the hints — and compare fields and every metric
        // after every single (generation, sub-generation).
        use crate::complexity::ceil_log2;
        use crate::iteration_schedule;
        use gca_engine::Instrumentation;

        for (n, p, seed) in [(5usize, 0.5, 1u64), (8, 0.3, 2), (9, 0.2, 7)] {
            let g = generators::gnp(n, p, seed);
            let mut dense = Machine::with_engine(
                &g,
                Engine::sequential().with_instrumentation(Instrumentation::Validate),
            )
            .unwrap()
            .with_exec(ExecPath::Generic);
            let mut hinted = Machine::with_engine(&g, Engine::sequential())
                .unwrap()
                .with_exec(ExecPath::Generic);

            let compare = |rd: &gca_engine::StepReport,
                           rh: &gca_engine::StepReport,
                           md: &Machine,
                           mh: &Machine| {
                let at = format!("n = {n}, gen {} / sub {}", rd.ctx.phase, rd.ctx.subgeneration);
                assert_eq!(md.to_field().states(), mh.to_field().states(), "{at}");
                assert_eq!(rd.active_cells, rh.active_cells, "{at}");
                assert_eq!(rd.total_reads, rh.total_reads, "{at}");
                assert_eq!(rd.changed_cells, rh.changed_cells, "{at}");
                assert_eq!(rd.congestion, rh.congestion, "{at}");
                assert!(
                    rh.evaluated_cells <= rd.evaluated_cells,
                    "{at}: hinted evaluated more cells than dense"
                );
            };

            let rd = dense.init().unwrap();
            let rh = hinted.init().unwrap();
            compare(&rd, &rh, &dense, &hinted);
            for _ in 0..ceil_log2(n) {
                for (gen, sub) in iteration_schedule(n) {
                    let rd = dense.step(gen, sub).unwrap();
                    let rh = hinted.step(gen, sub).unwrap();
                    compare(&rd, &rh, &dense, &hinted);
                }
            }
            assert_eq!(dense.labels().unwrap(), hinted.labels().unwrap());
        }
    }

    #[test]
    fn hinted_domains_skip_work() {
        // The point of the hints: the first-column generations evaluate n+1
        // cells instead of n(n+1).
        let n = 8usize;
        let g = generators::ring(n);
        let mut m = Machine::with_engine(&g, Engine::sequential())
            .unwrap()
            .with_exec(ExecPath::Generic);
        m.init().unwrap();
        let rep = m.step(Gen::BroadcastC, 0).unwrap();
        assert_eq!(rep.evaluated_cells, n * (n + 1)); // gen 1 is dense
        let rep = m.step(Gen::FilterNeighbors, 0).unwrap();
        assert_eq!(rep.evaluated_cells, n * n); // square only
        let rep = m.step(Gen::MinReduce, 0).unwrap();
        assert_eq!(rep.evaluated_cells, n * n); // stride 1: dense rows
        let rep = m.step(Gen::MinReduce, 1).unwrap();
        assert_eq!(rep.evaluated_cells, n * n / 4); // stride 2: sparse
        let rep = m.step(Gen::ResolveIsolated, 0).unwrap();
        assert_eq!(rep.evaluated_cells, n + 1); // first column
    }

    #[test]
    fn first_iteration_row_count_matches_schedule() {
        let n = 8usize;
        let g = generators::ring(n);
        let rows = measure_first_iteration(&g).unwrap();
        // 1 (init) + 8 + 3·log₂ 8 = 1 + 17.
        assert_eq!(rows.len(), 18);
    }
}
