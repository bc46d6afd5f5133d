//! The chromatic polynomial (Theorem 6, §9).
//!
//! `χ_G(t)` equals the partitioning sum-product with `f` the
//! independent-set indicator: proper `t`-colorings are exactly the
//! ordered partitions of `V(G)` into `t` (possibly empty) independent
//! sets. The family has up to `2^n` members, so the node function `g` is
//! computed *implicitly* (§9.2): independent sets in `B` are swept by a
//! zeta transform, glued to each independent `X ⊆ E` through the
//! compatible set `B ∖ Γ(X)`, and swept again over `E` — `O*(2^{n/2})`
//! per evaluation, proof size `O*(2^{n/2})`, against the best known
//! sequential `O*(2^n)`.

use crate::ipoly::interpolate_integer;
use crate::template::{
    alternating_power_coefficient, subset_powers, zeta_in_place, Split, POWER_SCRATCH,
};
use camelot_core::{
    CamelotError, CamelotProblem, Certificate, Engine, Evaluate, PrimeProof, ProofSpec,
};
use camelot_ff::{crt_u, IBig, PrimeField, Residue, UBig};
use camelot_graph::Graph;

/// The Camelot problem computing the single value `χ_G(t)`.
#[derive(Clone, Debug)]
pub struct ChromaticValue {
    graph: Graph,
    split: Split,
    colors: u64,
    /// `b_independent[X]`: is `X ⊆ B` (re-based to bit 0) independent?
    b_independent: Vec<bool>,
    /// For independent `X ⊆ E`, the compatible set `B ∖ Γ(X)` (re-based);
    /// `None` when `X` spans an edge.
    e_compatible: Vec<Option<u32>>,
}

impl ChromaticValue {
    /// Creates the problem for `t = colors`.
    ///
    /// # Panics
    ///
    /// Panics for the empty graph or `colors == 0`.
    #[must_use]
    pub fn new(graph: Graph, colors: u64) -> Self {
        assert!(graph.vertex_count() > 0, "empty graph");
        assert!(colors > 0, "need at least one color");
        let split = Split::balanced(graph.vertex_count());
        let (e_size, b_size) = (split.e_size, split.b_size);
        let b_independent =
            (0..1u64 << b_size).map(|x| graph.is_independent(x << e_size)).collect();
        let full_b = (1u64 << b_size) - 1;
        let e_compatible = (0..1u64 << e_size)
            .map(|x| {
                graph.is_independent(x).then(|| {
                    let gamma = (0..e_size)
                        .filter(|&v| x >> v & 1 == 1)
                        .fold(0u64, |acc, v| acc | graph.neighbors(v) >> e_size);
                    (full_b & !gamma) as u32
                })
            })
            .collect();
        ChromaticValue { graph, split, colors, b_independent, e_compatible }
    }

    /// The universe split in use.
    #[must_use]
    pub fn split(&self) -> &Split {
        &self.split
    }
}

impl CamelotProblem for ChromaticValue {
    type Output = UBig;

    fn spec(&self) -> ProofSpec {
        let n = self.graph.vertex_count() as u64;
        let bits = n as f64 * ((self.colors + 1) as f64).log2() + 2.0;
        ProofSpec {
            degree_bound: self.split.degree_bound(),
            min_modulus: self.split.degree_bound() as u64 + 2,
            value_bits: bits.ceil() as u64,
        }
    }

    fn evaluator<'a>(&'a self, field: &PrimeField) -> Box<dyn Evaluate + 'a> {
        let f = *field;
        let split = self.split;
        let shape = split.shape();
        let (stride, cols) = (shape.stride(), shape.cols());
        let (b_entries, e_entries) = (1usize << split.b_size, 1usize << split.e_size);
        Box::new(move |x0: u64| {
            let mut scratch =
                vec![0u64; b_entries * (1 + cols) + (e_entries + POWER_SCRATCH) * stride];
            let (weights, rest) = scratch.split_at_mut(b_entries);
            let (g_b, rest) = rest.split_at_mut(b_entries * cols);
            let (g_e, power_scratch) = rest.split_at_mut(e_entries * stride);
            // f_B, then ζ over B: g_B[Y] = Σ_{X ⊆ Y independent} w_B^{|X|} x0^X
            // — polynomials in w_B alone, |B|+1 coefficients each.
            subset_powers(&f, f.reduce(x0), weights);
            for (x, (&weight, &independent)) in weights.iter().zip(&self.b_independent).enumerate()
            {
                if independent {
                    g_b[x * cols + x.count_ones() as usize] = weight;
                }
            }
            zeta_in_place(&f, g_b, cols);
            // f̂_E(X) = [X independent] w_E^{|X|} g_B(B ∖ Γ(X)), then ζ over E.
            for (x, compatible) in self.e_compatible.iter().enumerate() {
                if let Some(compatible) = *compatible {
                    let row = x * stride + shape.index(x.count_ones() as usize, 0);
                    g_e[row..row + cols]
                        .copy_from_slice(&g_b[compatible as usize * cols..][..cols]);
                }
            }
            zeta_in_place(&f, g_e, stride);
            alternating_power_coefficient(&f, g_e, &split, self.colors, power_scratch)
        })
    }

    fn recover(&self, proofs: &[PrimeProof]) -> Result<UBig, CamelotError> {
        let target = self.split.target_coefficient();
        let residues: Vec<Residue> = proofs.iter().map(|p| p.coefficient_residue(target)).collect();
        Ok(crt_u(&residues))
    }
}

/// Result of the full chromatic-polynomial pipeline.
#[derive(Clone, Debug)]
pub struct ChromaticOutcome {
    /// Monomial coefficients of `χ_G` (little-endian, exact integers).
    pub coefficients: Vec<IBig>,
    /// The recovered values `χ_G(1), …, χ_G(n+1)`.
    pub values: Vec<UBig>,
    /// One certificate per evaluation point `t`.
    pub certificates: Vec<Certificate>,
}

/// Computes the full chromatic polynomial: one Camelot run per color
/// count `t = 1..n+1`, then exact integer interpolation.
///
/// # Errors
///
/// Propagates any engine failure from the per-`t` runs.
pub fn chromatic_polynomial(
    graph: &Graph,
    engine: &Engine,
) -> Result<ChromaticOutcome, CamelotError> {
    let n = graph.vertex_count();
    let mut values = Vec::with_capacity(n + 1);
    let mut certificates = Vec::with_capacity(n + 1);
    for t in 1..=n as u64 + 1 {
        let problem = ChromaticValue::new(graph.clone(), t);
        let outcome = engine.run(&problem)?;
        values.push(outcome.output);
        certificates.push(outcome.certificate);
    }
    let signed: Vec<IBig> = values.iter().map(|v| IBig::from_parts(false, v.clone())).collect();
    let coefficients = interpolate_integer(&signed, 1);
    Ok(ChromaticOutcome { coefficients, values, certificates })
}

#[cfg(test)]
mod tests {
    use super::*;
    use camelot_core::{arthur_verify, merlin_prove};
    use camelot_graph::chromatic::chromatic_value_mod;
    use camelot_graph::gen;

    fn engine() -> Engine {
        Engine::sequential(4, 2)
    }

    #[test]
    fn values_match_reference_on_small_graphs() {
        let field = PrimeField::new(1_000_000_007).unwrap();
        for g in [gen::cycle(5), gen::path(6), gen::complete(4), gen::star(5)] {
            for t in 1..=4u64 {
                let problem = ChromaticValue::new(g.clone(), t);
                let outcome = engine().run(&problem).unwrap();
                assert_eq!(
                    outcome.output.rem_u64(field.modulus()),
                    chromatic_value_mod(&g, t, &field),
                    "graph {g}, t = {t}"
                );
            }
        }
    }

    #[test]
    fn petersen_values() {
        let problem = ChromaticValue::new(gen::petersen(), 3);
        let outcome = engine().run(&problem).unwrap();
        assert_eq!(outcome.output.to_u64(), Some(120));
        let problem2 = ChromaticValue::new(gen::petersen(), 2);
        assert_eq!(engine().run(&problem2).unwrap().output.to_u64(), Some(0));
    }

    #[test]
    fn full_polynomial_cycle4() {
        // χ_{C4}(t) = (t-1)^4 + (t-1) = t^4 - 4t³ + 6t² - 3t.
        let outcome = chromatic_polynomial(&gen::cycle(4), &engine()).unwrap();
        let expect: Vec<i64> = vec![0, -3, 6, -4, 1];
        assert_eq!(
            outcome.coefficients.iter().map(|c| c.to_i64().unwrap()).collect::<Vec<_>>(),
            expect
        );
    }

    #[test]
    fn full_polynomial_tree_and_complete() {
        // Star S4 (a tree on 4 vertices): t(t-1)^3 = t^4 - 3t³ + 3t² - t.
        let outcome = chromatic_polynomial(&gen::star(4), &engine()).unwrap();
        assert_eq!(
            outcome.coefficients.iter().map(|c| c.to_i64().unwrap()).collect::<Vec<_>>(),
            vec![0, -1, 3, -3, 1]
        );
        // K4: t(t-1)(t-2)(t-3) = t^4 - 6t³ + 11t² - 6t.
        let outcome = chromatic_polynomial(&gen::complete(4), &engine()).unwrap();
        assert_eq!(
            outcome.coefficients.iter().map(|c| c.to_i64().unwrap()).collect::<Vec<_>>(),
            vec![0, -6, 11, -6, 1]
        );
    }

    #[test]
    fn proof_size_is_2_to_half_n() {
        let problem = ChromaticValue::new(gen::gnm(10, 20, 1), 3);
        // |B| = 5: degree bound 2^4 * 5 = 80 = O*(2^{n/2}).
        assert_eq!(problem.spec().degree_bound, 80);
    }

    #[test]
    fn merlin_arthur_roundtrip() {
        let problem = ChromaticValue::new(gen::cycle(5), 3);
        let proofs = merlin_prove(&problem).unwrap();
        arthur_verify(&problem, &proofs, 4, 31).unwrap();
        // χ_{C5}(3) = 2^5 - 2 = 30.
        assert_eq!(problem.recover(&proofs).unwrap().to_u64(), Some(30));
    }
}
