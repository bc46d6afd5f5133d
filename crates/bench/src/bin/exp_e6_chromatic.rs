//! Experiment E6 — Theorem 6: the chromatic polynomial at `O*(2^{n/2})`.
//!
//! Claim: proof size and per-node time `O*(2^{n/2})` against the best
//! sequential `O*(2^n)` — an optimal-tradeoff Camelot algorithm. We sweep
//! n, comparing the Camelot per-value cost against the inclusion–
//! exclusion baseline, and validating values.

use camelot_bench::{fmt_duration, time, Table};
use camelot_core::{CamelotProblem, Engine};
use camelot_ff::PrimeField;
use camelot_graph::{chromatic::chromatic_value_mod, gen};
use camelot_partition::ChromaticValue;

fn main() {
    let field = PrimeField::new(1_000_000_007).unwrap();
    let mut table = Table::new(&[
        "n",
        "proof size d=2^(B-1)|B|",
        "2^n baseline",
        "camelot x(3)",
        "seq x(3)",
        "agree",
    ]);
    for n in [8usize, 10, 12, 14] {
        let g = gen::gnm(n, 2 * n, n as u64);
        let problem = ChromaticValue::new(g.clone(), 3);
        let spec = problem.spec();
        let (outcome, t_cam) = time(|| Engine::sequential(8, 3).run(&problem).unwrap());
        let (seq, t_seq) = time(|| chromatic_value_mod(&g, 3, &field));
        let agree = outcome.output.rem_u64(field.modulus()) == seq;
        table.row(&[
            n.to_string(),
            spec.degree_bound.to_string(),
            (1u64 << n).to_string(),
            fmt_duration(t_cam),
            fmt_duration(t_seq),
            agree.to_string(),
        ]);
    }
    table.print("E6: chromatic value x_G(3), Camelot vs O*(2^n) sequential");
    println!("paper claim: proof size 2^(n/2)*n/2 — note d quadrupling every n += 2");
    println!("while the sequential baseline's 2^n state quadruples too, but the");
    println!("per-NODE Camelot share is d/K (optimal tradeoff at K <= sqrt(T)).");
}
