//! Counting Hamiltonian cycles (Theorem 8(3), §A.5 remark).
//!
//! Karp-style inclusion–exclusion: for `S ⊆ V∖{0}`, let `W(S)` count the
//! closed walks of length `n` from vertex 0 that stay inside `S ∪ {0}`;
//! then `Σ_S (-1)^{n-1-|S|} W(S)` counts directed Hamiltonian cycles
//! based at 0 (each undirected cycle twice). As with the permanent, the
//! indicator variables of the first half of `V∖{0}` are carried by the
//! point-enumerating polynomials `D(x)` and the second half is summed
//! explicitly, giving proof size and per-node time `O*(2^{n/2})`.

use camelot_core::{CamelotError, CamelotProblem, Evaluate, PrimeProof, ProofSpec};
use camelot_ff::{crt_i, PrimeField, Residue, UBig};
use camelot_graph::Graph;
use camelot_poly::ConsecutiveBasis;

/// The Hamiltonian-cycle-counting Camelot problem.
#[derive(Clone, Debug)]
pub struct HamiltonianCycles {
    graph: Graph,
}

impl HamiltonianCycles {
    /// Creates the problem.
    ///
    /// # Panics
    ///
    /// Panics for graphs with fewer than 3 vertices (no cycles exist;
    /// counting them needs no proof).
    #[must_use]
    pub fn new(graph: Graph) -> Self {
        assert!(graph.vertex_count() >= 3, "Hamiltonian cycles need at least 3 vertices");
        HamiltonianCycles { graph }
    }

    /// The underlying graph.
    #[must_use]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// First-half variable count `⌈(n-1)/2⌉`.
    fn h1(&self) -> usize {
        (self.graph.vertex_count() - 1).div_ceil(2)
    }

    /// Walk polynomial `W(z)`: closed walks of length `n` from 0, each
    /// intermediate visit to vertex `u != 0` weighted by `z[u-1]`.
    fn walk_sum(&self, f: &PrimeField, z: &[u64]) -> u64 {
        let n = self.graph.vertex_count();
        let mut w = vec![0u64; n];
        w[0] = 1;
        for _ in 1..n {
            let mut next = vec![0u64; n];
            for (u, slot) in next.iter_mut().enumerate() {
                let mut nb = self.graph.neighbors(u);
                let mut sum = 0u64;
                while nb != 0 {
                    let v = nb.trailing_zeros() as usize;
                    nb &= nb - 1;
                    sum = f.add(sum, w[v]);
                }
                *slot = if u == 0 { sum } else { f.mul(sum, z[u - 1]) };
            }
            w = next;
        }
        let mut nb = self.graph.neighbors(0);
        let mut closed = 0u64;
        while nb != 0 {
            let v = nb.trailing_zeros() as usize;
            nb &= nb - 1;
            closed = f.add(closed, w[v]);
        }
        closed
    }
}

impl CamelotProblem for HamiltonianCycles {
    type Output = UBig;

    fn spec(&self) -> ProofSpec {
        let n = self.graph.vertex_count() as u64;
        let h1 = self.h1() as u64;
        let points = 1u64 << h1;
        let degree = ((points - 1) * (h1 + n - 1)) as usize;
        // Directed count <= (n-1)!.
        let mut bits = 3.0f64;
        for i in 1..n {
            bits += (i as f64).log2();
        }
        ProofSpec {
            degree_bound: degree,
            min_modulus: (degree as u64 + 2).max(points + 1),
            value_bits: bits.ceil() as u64,
        }
    }

    fn evaluator<'a>(&'a self, field: &PrimeField) -> Box<dyn Evaluate + 'a> {
        let f = *field;
        let n = self.graph.vertex_count();
        let h1 = self.h1();
        let h2 = n - 1 - h1;
        let points = 1usize << h1;
        let lagrange = ConsecutiveBasis::new(field, points);
        Box::new(move |x0: u64| {
            let mut scratch = vec![0u64; points + n - 1];
            let (basis, z) = scratch.split_at_mut(points);
            lagrange.basis_at(x0, basis);
            // First-half indicators (vertices 1..h1).
            for (i, &w) in basis.iter().enumerate() {
                if w == 0 {
                    continue;
                }
                for (j, zj) in z.iter_mut().enumerate().take(h1) {
                    if i >> j & 1 == 1 {
                        *zj = f.add(*zj, w);
                    }
                }
            }
            let mut sign_first = 1u64;
            for zj in z.iter().take(h1) {
                sign_first = f.mul(sign_first, f.sub(1, f.add(*zj, *zj)));
            }
            let mut acc = 0u64;
            for mask in 0u64..1 << h2 {
                for j in 0..h2 {
                    z[h1 + j] = mask >> j & 1;
                }
                let walks = self.walk_sum(&f, z);
                let mut term = f.mul(sign_first, walks);
                // (-1)^{|mask|} for the explicit half, (-1)^{n-1} overall.
                let flips = mask.count_ones() as usize + (n - 1) % 2;
                if flips % 2 == 1 {
                    term = f.neg(term);
                }
                acc = f.add(acc, term);
            }
            acc
        })
    }

    fn recover(&self, proofs: &[PrimeProof]) -> Result<UBig, CamelotError> {
        let points = 1u64 << self.h1();
        let residues: Vec<Residue> = proofs.iter().map(|p| p.sum_residue(1, points)).collect();
        let directed = crt_i(&residues);
        if directed.is_negative() {
            return Err(CamelotError::RecoveryFailed {
                reason: "negative directed cycle count".into(),
            });
        }
        let (half, rem) = directed.magnitude().div_rem_u64(2);
        if rem != 0 {
            return Err(CamelotError::RecoveryFailed {
                reason: "directed cycle count was odd".into(),
            });
        }
        Ok(half)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camelot_core::{arthur_verify, merlin_prove, Engine};
    use camelot_graph::{count_hamiltonian_cycles, gen};

    fn check(graph: Graph) {
        let expect = count_hamiltonian_cycles(&graph);
        let problem = HamiltonianCycles::new(graph);
        let outcome = Engine::sequential(4, 2).run(&problem).unwrap();
        assert_eq!(outcome.output.to_u64(), Some(expect));
    }

    #[test]
    fn known_graphs() {
        check(gen::cycle(5));
        check(gen::cycle(6));
        check(gen::complete(5)); // 12
        check(gen::complete(6)); // 60
        check(gen::path(5)); // 0
        check(gen::complete_bipartite(3, 3)); // 6
    }

    #[test]
    fn random_graphs_match_reference() {
        for seed in 0..4 {
            check(gen::gnm(7, 13, seed));
        }
    }

    #[test]
    fn petersen_has_no_hamiltonian_cycle() {
        // The classic non-Hamiltonian vertex-transitive graph. n = 10 is
        // the largest test here (2^5 interpolation points per half).
        check(gen::petersen());
    }

    #[test]
    fn merlin_arthur_roundtrip() {
        let problem = HamiltonianCycles::new(gen::complete(5));
        let proofs = merlin_prove(&problem).unwrap();
        arthur_verify(&problem, &proofs, 3, 5).unwrap();
        assert_eq!(problem.recover(&proofs).unwrap().to_u64(), Some(12));
    }
}
