//! The Hamming distance distribution (Theorem 11(2), §A.3).
//!
//! For `n × t` Boolean matrices `A`, `B`, compute for every row `i` of
//! `A` and every distance `h ∈ {0..t}` the count `c_ih` of rows of `B` at
//! Hamming distance exactly `h`. The trick (the “technical gist” of
//! §A.3): supply the *roots* of a degree-`t` factor polynomial through
//! separate interpolated indeterminates `w_1..w_t`, so that at the point
//! `x = i(t+1) + h` the product `Π_ℓ (dist_i(z) - w_ℓ)` vanishes unless
//! the distance equals `h`, leaving `(Π_{ℓ≠h}(h-ℓ)) · c_ih`.

use crate::ov::BoolMatrix;
use camelot_core::{CamelotError, CamelotProblem, Evaluate, PrimeProof, ProofSpec};
use camelot_ff::PrimeField;
use camelot_poly::ConsecutiveBasis;

/// The Hamming-distribution Camelot problem.
#[derive(Clone, Debug)]
pub struct HammingDistribution {
    a: BoolMatrix,
    b: BoolMatrix,
}

impl HammingDistribution {
    /// Creates the problem.
    ///
    /// # Panics
    ///
    /// Panics if the matrices differ in shape or are empty.
    #[must_use]
    pub fn new(a: BoolMatrix, b: BoolMatrix) -> Self {
        assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "matrices must share a shape");
        assert!(a.rows() > 0 && a.cols() > 0, "matrices must be nonempty");
        HammingDistribution { a, b }
    }

    /// Ground truth by brute force: `counts[i][h]`.
    #[must_use]
    pub fn reference_distribution(&self) -> Vec<Vec<u64>> {
        let (n, t) = (self.a.rows(), self.a.cols());
        (0..n)
            .map(|i| {
                let mut row = vec![0u64; t + 1];
                for k in 0..n {
                    let h = (0..t).filter(|&j| self.a.get(i, j) != self.b.get(k, j)).count();
                    row[h] += 1;
                }
                row
            })
            .collect()
    }

    /// Number of interpolation nodes `n(t+1)`; nodes are the consecutive
    /// integers `t+1 ..= n(t+1)+t`, with node `i(t+1)+h` carrying row `i`
    /// and distance slot `h`.
    fn node_count(&self) -> usize {
        self.a.rows() * (self.a.cols() + 1)
    }

    /// The prescribed value of `H_ℓ` at distance slot `h`: the ℓ-th
    /// smallest element of `{0..t} \ {h}` (1-based ℓ).
    fn h_value(ell: usize, h: usize) -> u64 {
        if ell - 1 < h {
            (ell - 1) as u64
        } else {
            ell as u64
        }
    }
}

impl CamelotProblem for HammingDistribution {
    type Output = Vec<Vec<u64>>;

    fn spec(&self) -> ProofSpec {
        let (n, t) = (self.a.rows() as u64, self.a.cols() as u64);
        let nodes = n * (t + 1);
        let degree = (t * (nodes - 1)) as usize;
        ProofSpec {
            degree_bound: degree,
            min_modulus: (degree as u64 + 2).max(nodes + t + 2),
            value_bits: 64 - n.leading_zeros() as u64 + 8,
        }
    }

    fn evaluator<'a>(&'a self, field: &PrimeField) -> Box<dyn Evaluate + 'a> {
        let f = *field;
        let (n, t) = (self.a.rows(), self.a.cols());
        let nodes = self.node_count();
        let a = self.a.clone();
        let b = self.b.clone();
        let lagrange = ConsecutiveBasis::new(field, nodes);
        Box::new(move |x0: u64| {
            // Nodes are t+1 ..= nodes+t; shift into 1..=nodes for the
            // consecutive-point Lagrange basis.
            let shifted = f.sub(f.reduce(x0), f.reduce(t as u64));
            let mut scratch = vec![0u64; nodes + 2 * t];
            let (basis, rest) = scratch.split_at_mut(nodes);
            // z_j = A_j(x0), w_ℓ = H_ℓ(x0).
            let (z, w) = rest.split_at_mut(t);
            lagrange.basis_at(shifted, basis);
            for (r, &weight) in basis.iter().enumerate() {
                if weight == 0 {
                    continue;
                }
                let point = r + 1 + t; // actual node value
                let i = point / (t + 1) - 1; // row index, 0-based
                let h = point % (t + 1);
                debug_assert!(i < n);
                for (j, zj) in z.iter_mut().enumerate().take(t) {
                    if a.get(i, j) {
                        *zj = f.add(*zj, weight);
                    }
                }
                for ell in 1..=t {
                    let hv = Self::h_value(ell, h);
                    if hv != 0 {
                        w[ell - 1] = f.mul_add(w[ell - 1], f.reduce(hv), weight);
                    }
                }
            }
            // P(x0) = Σ_i Π_ℓ (dist_i(z) - w_ℓ).
            let mut acc = 0u64;
            for i in 0..n {
                let mut dist = 0u64;
                for (j, &zj) in z.iter().enumerate() {
                    let term = if b.get(i, j) { f.sub(1, zj) } else { zj };
                    dist = f.add(dist, term);
                }
                let mut prod = 1u64;
                for &wl in w.iter() {
                    prod = f.mul(prod, f.sub(dist, wl));
                    if prod == 0 {
                        break;
                    }
                }
                acc = f.add(acc, prod);
            }
            acc
        })
    }

    fn recover(&self, proofs: &[PrimeProof]) -> Result<Vec<Vec<u64>>, CamelotError> {
        let proof = proofs
            .first()
            .ok_or_else(|| CamelotError::MalformedProof { reason: "no prime proofs".into() })?;
        let field = PrimeField::new_unchecked(proof.modulus);
        let (n, t) = (self.a.rows(), self.a.cols());
        let mut out = Vec::with_capacity(n);
        for i in 1..=n {
            let mut row = Vec::with_capacity(t + 1);
            for h in 0..=t {
                let x = (i * (t + 1) + h) as u64;
                let value = proof.eval(x);
                // value = c_ih * Π_{ℓ ∈ {0..t}\{h}} (h - ℓ)
                //       = c_ih * h! * (t-h)! * (-1)^{t-h}.
                let mut factor = 1u64;
                for ell in 0..=t {
                    if ell != h {
                        factor = f_mul_signed(&field, factor, h as i64 - ell as i64);
                    }
                }
                let c = field.mul(value, field.inv(factor));
                if c > n as u64 {
                    return Err(CamelotError::RecoveryFailed {
                        reason: format!("count c[{i}][{h}] = {c} exceeds n"),
                    });
                }
                row.push(c);
            }
            if row.iter().sum::<u64>() != n as u64 {
                return Err(CamelotError::RecoveryFailed {
                    reason: format!("row {i} distribution does not sum to n"),
                });
            }
            out.push(row);
        }
        Ok(out)
    }
}

fn f_mul_signed(field: &PrimeField, acc: u64, v: i64) -> u64 {
    field.mul(acc, field.from_i64(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use camelot_core::{arthur_verify, merlin_prove, Engine};

    #[test]
    fn matches_reference_on_random_instances() {
        for seed in 0..3 {
            let a = BoolMatrix::random(6, 4, 50, seed);
            let b = BoolMatrix::random(6, 4, 50, seed + 50);
            let problem = HammingDistribution::new(a, b);
            let outcome = Engine::sequential(4, 2).run(&problem).unwrap();
            assert_eq!(outcome.output, problem.reference_distribution(), "seed {seed}");
        }
    }

    #[test]
    fn identical_matrices_concentrate_at_zero() {
        let a = BoolMatrix::random(5, 3, 60, 1);
        let problem = HammingDistribution::new(a.clone(), a);
        let dist = Engine::sequential(3, 1).run(&problem).unwrap().output;
        for (i, row) in dist.iter().enumerate() {
            assert!(row[0] >= 1, "row {i} must be at distance 0 from itself");
            assert_eq!(row.iter().sum::<u64>(), 5);
        }
    }

    #[test]
    fn complementary_matrices_concentrate_at_t() {
        let a = BoolMatrix::new(4, 3, vec![false; 12]);
        let b = BoolMatrix::new(4, 3, vec![true; 12]);
        let problem = HammingDistribution::new(a, b);
        let dist = Engine::sequential(2, 1).run(&problem).unwrap().output;
        for row in &dist {
            assert_eq!(row[3], 4);
            assert_eq!(row[0] + row[1] + row[2], 0);
        }
    }

    #[test]
    fn distribution_is_consistent_with_ov() {
        // c_i0 with B complemented equals t-distance counts... simpler:
        // row sums are n and the h-moments match brute force.
        let a = BoolMatrix::random(7, 5, 30, 9);
        let b = BoolMatrix::random(7, 5, 70, 10);
        let problem = HammingDistribution::new(a, b);
        let expect = problem.reference_distribution();
        let got = Engine::sequential(3, 2).run(&problem).unwrap().output;
        assert_eq!(got, expect);
    }

    #[test]
    fn merlin_arthur_roundtrip() {
        let a = BoolMatrix::random(4, 3, 50, 2);
        let b = BoolMatrix::random(4, 3, 50, 3);
        let problem = HammingDistribution::new(a, b);
        let proofs = merlin_prove(&problem).unwrap();
        arthur_verify(&problem, &proofs, 4, 8).unwrap();
        assert_eq!(problem.recover(&proofs).unwrap(), problem.reference_distribution());
    }
}
