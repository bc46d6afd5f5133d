//! Ablation A1 — tensor decomposition choice.
//!
//! Theorem 1's proof size is `O(R)` for any rank-`R` decomposition of
//! `⟨N,N,N⟩`. Swapping Strassen (`R0 = 7`, `ω = 2.807`) for the naive
//! rank-8 base (`ω = 3`) changes proof size, per-node time, AND the
//! modulus floor — the clean ablation of the fast-matrix-multiplication
//! dependence the paper highlights for Theorems 1, 7, 12.

use camelot_bench::{fmt_duration, time, Table};
use camelot_cliques::{count_cliques_circuit, KCliqueCount};
use camelot_core::{CamelotProblem, Engine};
use camelot_graph::{count_k_cliques, gen};
use camelot_linalg::MatMulTensor;

fn main() {
    let mut table = Table::new(&[
        "tensor",
        "omega",
        "n",
        "rank R",
        "proof size d",
        "count time",
        "camelot time",
        "agree",
    ]);
    for n in [7usize, 8] {
        let g = gen::planted_clique(n, (n * (n - 1) / 2 - 15).min(n), 6, n as u64);
        let expect = count_k_cliques(&g, 6);
        for (name, tensor) in
            [("strassen", MatMulTensor::strassen()), ("naive-2", MatMulTensor::naive(2))]
        {
            let (circ, t_circ) = time(|| count_cliques_circuit(&g, 6, &tensor));
            let problem = KCliqueCount::with_tensor(g.clone(), 6, tensor.clone());
            let (outcome, t_cam) = time(|| Engine::sequential(8, 2).run(&problem).unwrap());
            table.row(&[
                name.to_string(),
                format!("{:.3}", tensor.omega()),
                n.to_string(),
                problem.rank().to_string(),
                problem.spec().degree_bound.to_string(),
                fmt_duration(t_circ),
                fmt_duration(t_cam),
                (circ.to_u64() == Some(expect) && outcome.output.to_u64() == Some(expect))
                    .to_string(),
            ]);
        }
    }
    table.print("A1: Strassen vs naive tensor in Theorem 1");
    println!("ablation: rank 7^t vs 8^t drives proof size and per-node time —");
    println!("the paper's entire ω-dependence isolated to one swap.");
}
