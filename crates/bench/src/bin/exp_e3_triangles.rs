//! Experiment E3 — Theorem 3: Camelot triangle counting with proof size
//! `O(n^ω / m)` and per-node time `Õ(m)`.
//!
//! Sweep density m at fixed n: the proof must SHRINK as the input grows
//! denser (the paper's signature sparsity-awareness), while per-node
//! evaluation work stays `Õ(m + n^ω/m)`.

use camelot_bench::{fmt_duration, time, Table};
use camelot_core::{CamelotProblem, Engine};
use camelot_graph::{count_triangles, gen};
use camelot_triangles::TriangleCount;

fn main() {
    let n = 32usize;
    let mut table = Table::new(&[
        "m",
        "triangles",
        "proof size d",
        "parts R/m'",
        "part len ~m",
        "per-node evals",
        "prepare",
    ]);
    for m in [40usize, 80, 160, 320] {
        let g = gen::gnm(n, m, 9);
        let expect = count_triangles(&g);
        let problem = TriangleCount::new(&g);
        let spec = problem.spec();
        let (outcome, t) = time(|| Engine::sequential(8, 4).run(&problem).unwrap());
        assert_eq!(outcome.output, expect);
        table.row(&[
            m.to_string(),
            expect.to_string(),
            spec.degree_bound.to_string(),
            problem.split().part_count().to_string(),
            problem.split().part_len().to_string(),
            outcome.report.max_node_evaluations.to_string(),
            fmt_duration(t),
        ]);
    }
    table.print("E3: triangle proof size vs density (n = 32 fixed)");
    println!("paper claim: proof size O(n^ω/m) — rows must shrink as m grows;");
    println!("part length tracks m (per-node space Õ(m)).");
}
