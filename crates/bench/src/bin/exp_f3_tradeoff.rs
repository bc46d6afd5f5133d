//! Experiment F3 — the optimal speedup tradeoff (§1.4).
//!
//! Claim: per-node work `E ≈ T/K` for `K` up to `T^{1/2}`, with intrinsic
//! workload balance (slices differ by at most one evaluation), and
//! verification costs what one node contributes.

use camelot_bench::Table;
use camelot_core::{CamelotProblem, Engine};
use camelot_graph::gen;
use camelot_triangles::TriangleCount;

fn main() {
    let g = gen::gnm(16, 24, 3); // sparse: long proof, wide K range
    let problem = TriangleCount::new(&g);
    let spec = problem.spec();
    let mut table =
        Table::new(&["K nodes", "total evals T", "per-node E", "E*K", "verify evals", "balanced"]);
    let mut t_ref = 0usize;
    for k in [1usize, 2, 4, 8, 16, 32] {
        let outcome = Engine::sequential(k, 4).run(&problem).unwrap();
        let total = outcome.report.total_evaluations;
        let per_node = outcome.report.max_node_evaluations;
        if k == 1 {
            t_ref = total;
        }
        table.row(&[
            k.to_string(),
            total.to_string(),
            per_node.to_string(),
            (per_node * k).to_string(),
            outcome.report.verification_evaluations.to_string(),
            (per_node * k <= total + k).to_string(),
        ]);
    }
    table.print("F3: K-sweep on a fixed triangle instance");
    println!("paper claim: E = T/K (here T = {t_ref} evaluations per full run; E*K stays ~T)");
    println!(
        "proof degree d = {}, so K <= T^(1/2) ~ {}",
        spec.degree_bound,
        (t_ref as f64).sqrt() as usize
    );
}
