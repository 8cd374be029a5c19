//! Pedagogical walkthrough: prints the `D` matrix after every generation of
//! a full run on a small graph, so the algorithm can be followed — and
//! checked against the paper's generation-by-generation prose — by eye.
//!
//! `∞` is rendered as `-`; the last row is `D_N`; the first column carries
//! the `C`/`T` vectors.
//!
//! Usage: `walkthrough [n] [seed]` (default n = 4, the paper's Figure-3
//! scale).

use gca_engine::INFINITY;
use gca_graphs::generators;
use gca_hirschberg::{complexity, iteration_schedule, Machine};

fn render_field(machine: &Machine) -> String {
    let layout = machine.layout();
    let n = layout.n();
    let field = machine.to_field();
    let mut out = String::new();
    for j in 0..=n {
        out.push_str("    ");
        for i in 0..n {
            let d = field.at(j, i).d;
            if d == INFINITY {
                out.push_str("   -");
            } else {
                out.push_str(&format!("{d:>4}"));
            }
        }
        if j == n {
            out.push_str("   <- D_N");
        }
        out.push('\n');
    }
    out
}

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(4);
    let seed: u64 = std::env::args()
        .nth(2)
        .and_then(|a| a.parse().ok())
        .unwrap_or(2007);

    let graph = generators::gnp(n, 0.5, seed);
    println!("graph: {} nodes, {} edges", graph.n(), graph.edge_count());
    println!("adjacency matrix:");
    for i in 0..n {
        print!("    ");
        for j in 0..n {
            print!("{}", u8::from(graph.has_edge(i, j)));
        }
        println!();
    }
    println!();

    let mut machine = Machine::new(&graph).expect("machine");
    machine.init().expect("init");
    println!("generation 0 (init: d <- row):");
    print!("{}", render_field(&machine));

    for iteration in 0..complexity::outer_iterations(n) {
        println!();
        println!("=== outer iteration {} ===", iteration + 1);
        for (gen, sub) in iteration_schedule(n) {
            machine.step(gen, sub).expect("step");
            let sub_label = if gen.is_iterated() {
                format!(".{sub}")
            } else {
                String::new()
            };
            println!(
                "generation {}{} (step {}): {}",
                gen.number(),
                sub_label,
                gen.step(),
                gen.data_op()
            );
            print!("{}", render_field(&machine));
        }
        println!("C after iteration {}: {:?}", iteration + 1, machine.labels_raw());
    }

    println!();
    let labels = machine.labels().expect("final labels");
    println!("final labels: {:?}", labels.as_slice());
    println!(
        "components: {} in {} generations",
        labels.component_count(),
        machine.generations()
    );
}
