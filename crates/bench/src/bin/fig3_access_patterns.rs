//! Regenerates **Figure 3**: the access patterns for `n = 4`.
//!
//! For every generation of the first outer iteration, prints the cell grid
//! (linear indices; *active cells shaded with `*`*) and the read relation —
//! the same information the paper's shaded diagrams convey. The first four
//! rows form `D□`, the last row is `D_N`.
//!
//! Usage: `fig3_access_patterns [n]` (default 4, as in the paper).

use gca_engine::trace::AccessPattern;
use gca_engine::StepCtx;
use gca_graphs::generators;
use gca_hirschberg::{iteration_schedule, Gen, Machine};

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(4);

    // The concrete graph only affects the data values, not the static
    // access patterns; use the paper-scale example graph.
    let graph = generators::gnp(n, 0.5, 7);
    let mut machine = Machine::new(&graph).expect("field construction failed");

    println!("Figure 3 — access patterns for n = {n}");
    println!("(cells numbered by linear index; '*' marks active cells; last row is D_N)");
    println!();

    let show = |machine: &Machine, gen: Gen, sub: u32| {
        let ctx = StepCtx {
            generation: machine.generations(),
            phase: gen.number(),
            subgeneration: sub,
        };
        let pattern = AccessPattern::capture(
            machine.rule(),
            &ctx,
            machine.layout().shape(),
            machine.to_field().states(),
        );
        let sub_label = if gen.is_iterated() {
            format!(", sub-generation {sub}")
        } else {
            String::new()
        };
        println!("generation {}{} (step {}):", gen.number(), sub_label, gen.step());
        println!("{}", pattern.render());
    };

    show(&machine, Gen::Init, 0);
    machine.init().expect("init failed");

    for (gen, sub) in iteration_schedule(n) {
        show(&machine, gen, sub);
        machine.step(gen, sub).expect("step failed");
    }

    println!(
        "C after one iteration: {:?}",
        machine.labels_raw()
    );
}
