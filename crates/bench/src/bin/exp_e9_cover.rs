//! Experiment E9 — Theorems 9 and 10: counting set covers (polynomial
//! family) and exact set partitions (family up to `O*(2^{n/2})`) at
//! `O*(2^{n/2})` proof size and time.

use camelot_algebraic::SetCovers;
use camelot_bench::{fmt_duration, time, Table};
use camelot_core::{CamelotProblem, Engine};
use camelot_ff::{RngLike, SplitMix64};
use camelot_partition::SetPartitions;

fn main() {
    let mut table = Table::new(&["problem", "n", "|F|", "t", "proof size d", "count", "time"]);
    let mut rng = SplitMix64::new(77);
    for n in [8usize, 10, 12] {
        let family: Vec<u64> = (0..n).map(|_| 1 + rng.next_u64() % ((1 << n) - 1)).collect();
        let problem = SetCovers::new(n, family.clone(), 3);
        let spec = problem.spec();
        let (outcome, t) = time(|| Engine::sequential(6, 3).run(&problem).unwrap());
        assert_eq!(outcome.output.to_u128(), Some(problem.reference_count()));
        table.row(&[
            "set covers (Thm 9)".into(),
            n.to_string(),
            family.len().to_string(),
            "3".into(),
            spec.degree_bound.to_string(),
            outcome.output.to_string(),
            fmt_duration(t),
        ]);
    }
    for n in [6usize, 8, 10] {
        // Exponential-size family: all nonempty subsets (2^n - 1 sets).
        let family: Vec<u64> = (1..1u64 << n).collect();
        let problem = SetPartitions::new(n, family.clone(), 3);
        let spec = problem.spec();
        let (outcome, t) = time(|| Engine::sequential(6, 3).run(&problem).unwrap());
        table.row(&[
            "set partitions (Thm 10)".into(),
            n.to_string(),
            family.len().to_string(),
            "3".into(),
            spec.degree_bound.to_string(),
            format!("{} = S({n},3)", outcome.output),
            fmt_duration(t),
        ]);
    }
    table.print("E9: covers and partitions");
    println!("paper claim: proof size 2^(n/2)-scale even for 2^n-sized families");
    println!("(the Thm 10 rows take an exponential family yet keep the small proof).");
}
