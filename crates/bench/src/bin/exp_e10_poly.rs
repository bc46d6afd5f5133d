//! Experiment E10 — Theorem 11: polynomial-time Camelot algorithms.
//!
//! Claim: proof size and per-node time `Õ(n t^c)` with `c = 1` for
//! orthogonal vectors, `c = 2` for the Hamming distribution and
//! Convolution3SUM. We sweep n at fixed t and fit the linear shape.

use camelot_algebraic::{BoolMatrix, Convolution3Sum, HammingDistribution, OrthogonalVectors};
use camelot_bench::{fmt_duration, time, Table};
use camelot_core::{CamelotProblem, Engine};

fn main() {
    let mut table = Table::new(&["problem", "n", "t", "proof size d", "d/(n t^c)", "time"]);
    let t_dim = 6usize;
    for n in [8usize, 16, 32] {
        let a = BoolMatrix::random(n, t_dim, 40, 1);
        let b = BoolMatrix::random(n, t_dim, 40, 2);
        let problem = OrthogonalVectors::new(a, b);
        let spec = problem.spec();
        let (outcome, t) = time(|| Engine::sequential(8, 3).run(&problem).unwrap());
        assert_eq!(outcome.output, problem.reference_counts());
        table.row(&[
            "OV (c=1)".into(),
            n.to_string(),
            t_dim.to_string(),
            spec.degree_bound.to_string(),
            format!("{:.2}", spec.degree_bound as f64 / (n * t_dim) as f64),
            fmt_duration(t),
        ]);
    }
    for n in [6usize, 10, 14] {
        let a = BoolMatrix::random(n, t_dim, 50, 3);
        let b = BoolMatrix::random(n, t_dim, 50, 4);
        let problem = HammingDistribution::new(a, b);
        let spec = problem.spec();
        let (outcome, t) = time(|| Engine::sequential(8, 3).run(&problem).unwrap());
        assert_eq!(outcome.output, problem.reference_distribution());
        table.row(&[
            "Hamming (c=2)".into(),
            n.to_string(),
            t_dim.to_string(),
            spec.degree_bound.to_string(),
            format!("{:.2}", spec.degree_bound as f64 / (n * t_dim * t_dim) as f64),
            fmt_duration(t),
        ]);
    }
    for n in [8usize, 12, 16] {
        let problem = Convolution3Sum::random(n, 4, 5);
        let spec = problem.spec();
        let (outcome, t) = time(|| Engine::sequential(8, 3).run(&problem).unwrap());
        assert_eq!(outcome.output, problem.reference_counts());
        table.row(&[
            "Conv3SUM (c=2)".into(),
            n.to_string(),
            "4".into(),
            spec.degree_bound.to_string(),
            format!("{:.2}", spec.degree_bound as f64 / (n * 16) as f64),
            fmt_duration(t),
        ]);
    }
    table.print("E10: polynomial-time designs (Theorem 11)");
    println!("paper claim: d/(n t^c) stays bounded as n grows (c = 1, 2, 2).");
}
