//! The Camelot triangle-counting proof polynomial (Theorem 3, §6.3).
//!
//! Replace the split/sparse outer loop by the indeterminate `z` (§3.3):
//! the part polynomials `A_{r'}(z), B_{r'}(z), C_{r'}(z)` have degree
//! `< R/m'` each, and
//!
//! ```text
//! P(z) = Σ_{r'=1}^{m'} A_{r'}(z) B_{r'}(z) C_{r'}(z),
//! Σ_{z0 ∈ [R/m']} P(z0) = trace(A³) = 6 · #triangles.
//! ```
//!
//! Proof size `Õ(R/m) = Õ(n^ω/m)`, per-node evaluation `Õ(m + R/m)`.

use crate::trace::TriangleSplit;
use camelot_core::{CamelotError, CamelotProblem, Evaluate, PrimeProof, ProofSpec};
use camelot_ff::{crt_u, PrimeField, Residue};
use camelot_graph::Graph;
use camelot_linalg::MatMulTensor;

/// The Camelot triangle-counting problem.
#[derive(Clone, Debug)]
pub struct TriangleCount {
    split: TriangleSplit,
    n: usize,
}

impl TriangleCount {
    /// Creates the problem with the Strassen tensor.
    ///
    /// # Panics
    ///
    /// Panics if the graph has no edges.
    #[must_use]
    pub fn new(graph: &Graph) -> Self {
        Self::with_tensor(graph, &MatMulTensor::strassen())
    }

    /// Creates the problem with a caller-chosen tensor.
    ///
    /// # Panics
    ///
    /// Panics if the graph has no edges.
    #[must_use]
    pub fn with_tensor(graph: &Graph, tensor: &MatMulTensor) -> Self {
        TriangleCount { split: TriangleSplit::new(graph, tensor), n: graph.vertex_count() }
    }

    /// The underlying split geometry.
    #[must_use]
    pub fn split(&self) -> &TriangleSplit {
        &self.split
    }
}

impl CamelotProblem for TriangleCount {
    type Output = u64;

    fn spec(&self) -> ProofSpec {
        let parts = self.split.part_count() as u64;
        ProofSpec {
            // Each part polynomial has degree <= parts - 1.
            degree_bound: (3 * (parts - 1)) as usize,
            // q must dominate the degree, the part nodes, and trace(A³)
            // <= n³ for faithful single-prime recovery.
            min_modulus: (3 * parts + 2).max((self.n as u64).pow(3) + 1),
            value_bits: 3 * (64 - (self.n as u64).leading_zeros() as u64),
        }
    }

    fn evaluator<'a>(&'a self, field: &PrimeField) -> Box<dyn Evaluate + 'a> {
        let f = *field;
        let basis = self.split.part_basis(field);
        Box::new(move |z0: u64| self.split.part_product_at(&f, &basis, z0))
    }

    fn recover(&self, proofs: &[PrimeProof]) -> Result<u64, CamelotError> {
        let parts = self.split.part_count() as u64;
        let residues: Vec<Residue> = proofs.iter().map(|p| p.sum_residue(1, parts)).collect();
        let trace = crt_u(&residues)
            .to_u64()
            .ok_or_else(|| CamelotError::RecoveryFailed { reason: "trace exceeded u64".into() })?;
        if trace % 6 != 0 {
            return Err(CamelotError::RecoveryFailed {
                reason: "trace(A³) not divisible by 6".into(),
            });
        }
        Ok(trace / 6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camelot_cluster::{FaultKind, FaultPlan};
    use camelot_core::{arthur_verify, merlin_prove, Engine, EngineConfig};
    use camelot_graph::{count_triangles, gen};

    #[test]
    fn camelot_counts_triangles_on_known_graphs() {
        for g in [gen::complete(5), gen::complete(8), gen::petersen(), gen::cycle(7)] {
            let expect = count_triangles(&g);
            let problem = TriangleCount::new(&g);
            let outcome = Engine::sequential(6, 2).run(&problem).unwrap();
            assert_eq!(outcome.output, expect, "graph {g}");
        }
    }

    #[test]
    fn camelot_counts_triangles_on_random_graphs() {
        for seed in 0..4 {
            let g = gen::gnm(10, 24, seed);
            let expect = count_triangles(&g);
            let problem = TriangleCount::new(&g);
            let outcome = Engine::sequential(4, 2).run(&problem).unwrap();
            assert_eq!(outcome.output, expect, "seed {seed}");
        }
    }

    #[test]
    fn proof_size_shrinks_as_density_grows() {
        // Theorem 3: proof size O(n^ω / m) — denser graph, shorter proof.
        let sparse = TriangleCount::new(&gen::gnm(16, 20, 1));
        let dense = TriangleCount::new(&gen::gnm(16, 100, 1));
        assert!(
            sparse.spec().degree_bound >= dense.spec().degree_bound,
            "sparse {} vs dense {}",
            sparse.spec().degree_bound,
            dense.spec().degree_bound
        );
    }

    #[test]
    fn byzantine_nodes_tolerated_and_identified() {
        let g = gen::gnm(9, 18, 7);
        let expect = count_triangles(&g);
        let problem = TriangleCount::new(&g);
        let plan = FaultPlan::with_faults(
            6,
            &[(1, FaultKind::Corrupt { seed: 5 }), (4, FaultKind::Crash)],
        );
        // Two of six nodes are faulty, so each owns ~e/6 symbols; budget
        // the code for a whole corrupted slice (2 per error) plus a whole
        // erased slice (1 per erasure): f = 90 covers it comfortably.
        let config = EngineConfig::sequential(6, 90).with_plan(plan).with_full_decoding();
        let outcome = Engine::new(config).run(&problem).unwrap();
        assert_eq!(outcome.output, expect);
        assert_eq!(outcome.certificate.identified_faulty_nodes, vec![1]);
        assert_eq!(outcome.certificate.crashed_nodes, vec![4]);
    }

    #[test]
    fn merlin_arthur_roundtrip() {
        let g = gen::petersen();
        let problem = TriangleCount::new(&g);
        let proofs = merlin_prove(&problem).unwrap();
        arthur_verify(&problem, &proofs, 4, 13).unwrap();
        assert_eq!(problem.recover(&proofs).unwrap(), 0);
    }
}
