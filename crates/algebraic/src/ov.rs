//! Counting Boolean orthogonal vectors (Theorem 11(1), §A.1).
//!
//! Given `n × t` Boolean matrices `A`, `B`, count for each row `i` of `A`
//! the number of rows of `B` orthogonal to it. The proof polynomial is
//!
//! ```text
//! P(x) = B(A_1(x), …, A_t(x)),    B(z) = Σ_i Π_j (1 - b_ij z_j),
//! ```
//!
//! where `A_j` interpolates column `j` of `A` over the points `1..n`.
//! Then `P(i) = c_i`, `deg P <= (n-1) t`, and one evaluation costs
//! `Õ(nt)` — proof size and per-node time `Õ(nt)` as the theorem states.

use camelot_core::{CamelotError, CamelotProblem, Evaluate, PrimeProof, ProofSpec};
use camelot_ff::PrimeField;
use camelot_poly::ConsecutiveBasis;

/// A Boolean matrix given as rows of bits.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BoolMatrix {
    rows: usize,
    cols: usize,
    bits: Vec<bool>,
}

impl BoolMatrix {
    /// Creates from a row-major bit vector.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != rows * cols`.
    #[must_use]
    pub fn new(rows: usize, cols: usize, bits: Vec<bool>) -> Self {
        assert_eq!(bits.len(), rows * cols, "bit count must match shape");
        BoolMatrix { rows, cols, bits }
    }

    /// Deterministic pseudo-random instance.
    #[must_use]
    pub fn random(rows: usize, cols: usize, density_percent: u64, seed: u64) -> Self {
        use camelot_ff::{RngLike, SplitMix64};
        let mut rng = SplitMix64::new(seed);
        let bits = (0..rows * cols).map(|_| rng.next_u64() % 100 < density_percent).collect();
        BoolMatrix { rows, cols, bits }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Entry `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[must_use]
    pub fn get(&self, i: usize, j: usize) -> bool {
        assert!(i < self.rows && j < self.cols);
        self.bits[i * self.cols + j]
    }
}

/// The orthogonal-vectors Camelot problem.
///
/// # Examples
///
/// ```
/// use camelot_algebraic::{BoolMatrix, OrthogonalVectors};
/// use camelot_core::Engine;
///
/// let a = BoolMatrix::random(8, 5, 40, 1);
/// let b = BoolMatrix::random(8, 5, 40, 2);
/// let problem = OrthogonalVectors::new(a, b);
/// let outcome = Engine::sequential(4, 2).run(&problem).unwrap();
/// assert_eq!(outcome.output, problem.reference_counts());
/// ```
#[derive(Clone, Debug)]
pub struct OrthogonalVectors {
    a: BoolMatrix,
    b: BoolMatrix,
}

impl OrthogonalVectors {
    /// Creates the problem.
    ///
    /// # Panics
    ///
    /// Panics if the matrices have different shapes or are empty.
    #[must_use]
    pub fn new(a: BoolMatrix, b: BoolMatrix) -> Self {
        assert_eq!((a.rows, a.cols), (b.rows, b.cols), "matrices must share a shape");
        assert!(a.rows > 0 && a.cols > 0, "matrices must be nonempty");
        OrthogonalVectors { a, b }
    }

    /// Ground truth by brute force (`O(n² t)`).
    #[must_use]
    pub fn reference_counts(&self) -> Vec<u64> {
        let (n, t) = (self.a.rows, self.a.cols);
        (0..n)
            .map(|i| {
                (0..n).filter(|&k| (0..t).all(|j| !(self.a.get(i, j) && self.b.get(k, j)))).count()
                    as u64
            })
            .collect()
    }
}

impl CamelotProblem for OrthogonalVectors {
    type Output = Vec<u64>;

    fn spec(&self) -> ProofSpec {
        let (n, t) = (self.a.rows as u64, self.a.cols as u64);
        ProofSpec {
            degree_bound: ((n - 1) * t) as usize,
            // q must exceed both the proof degree and the recovery points
            // 1..n, and the counts (<= n) must embed faithfully.
            min_modulus: ((n - 1) * t + 2).max(n + 1),
            value_bits: 64 - n.leading_zeros() as u64,
        }
    }

    fn evaluator<'a>(&'a self, field: &PrimeField) -> Box<dyn Evaluate + 'a> {
        let f = *field;
        let (n, t) = (self.a.rows, self.a.cols);
        let a = self.a.clone();
        let b = self.b.clone();
        let lagrange = ConsecutiveBasis::new(field, n);
        Box::new(move |x0: u64| {
            // Barycentric evaluation of the interpolants A_j at x0:
            // A_j(x0) = Σ_i a_ij Λ_i(x0) over the nodes 1..n, in O(nt)
            // total — no coefficient-form interpolation, so the per-node
            // cost stays linear in the input (§A.1/§A.2 of the paper).
            let mut scratch = vec![0u64; n + t];
            let (basis, z) = scratch.split_at_mut(n);
            lagrange.basis_at(x0, basis);
            for (i, &w) in basis.iter().enumerate() {
                if w == 0 {
                    continue;
                }
                for (j, zj) in z.iter_mut().enumerate() {
                    if a.get(i, j) {
                        *zj = f.add(*zj, w);
                    }
                }
            }
            let mut acc = 0u64;
            for i in 0..n {
                let mut prod = 1u64;
                for (j, &zj) in z.iter().enumerate() {
                    if b.get(i, j) {
                        prod = f.mul(prod, f.sub(1, zj));
                        if prod == 0 {
                            break;
                        }
                    }
                }
                acc = f.add(acc, prod);
            }
            acc
        })
    }

    fn recover(&self, proofs: &[PrimeProof]) -> Result<Vec<u64>, CamelotError> {
        let proof = proofs
            .first()
            .ok_or_else(|| CamelotError::MalformedProof { reason: "no prime proofs".into() })?;
        let n = self.a.rows as u64;
        let counts: Vec<u64> = (1..=n).map(|i| proof.eval(i)).collect();
        if counts.iter().any(|&c| c > n) {
            return Err(CamelotError::RecoveryFailed {
                reason: "a count exceeded the number of rows".into(),
            });
        }
        Ok(counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camelot_core::{arthur_verify, merlin_prove, spot_check, Engine};

    #[test]
    fn matches_reference_on_random_instances() {
        for seed in 0..4 {
            let a = BoolMatrix::random(10, 6, 35, seed);
            let b = BoolMatrix::random(10, 6, 35, seed + 100);
            let problem = OrthogonalVectors::new(a, b);
            let outcome = Engine::sequential(5, 2).run(&problem).unwrap();
            assert_eq!(outcome.output, problem.reference_counts(), "seed {seed}");
        }
    }

    #[test]
    fn all_zero_b_is_orthogonal_to_everything() {
        let a = BoolMatrix::random(6, 4, 50, 9);
        let b = BoolMatrix::new(6, 4, vec![false; 24]);
        let problem = OrthogonalVectors::new(a, b);
        let outcome = Engine::sequential(3, 1).run(&problem).unwrap();
        assert_eq!(outcome.output, vec![6; 6]);
    }

    #[test]
    fn dense_matrices_have_no_orthogonal_pairs() {
        let a = BoolMatrix::new(5, 3, vec![true; 15]);
        let b = BoolMatrix::new(5, 3, vec![true; 15]);
        let problem = OrthogonalVectors::new(a, b);
        let outcome = Engine::sequential(2, 1).run(&problem).unwrap();
        assert_eq!(outcome.output, vec![0; 5]);
    }

    #[test]
    fn merlin_arthur_roundtrip() {
        let a = BoolMatrix::random(7, 5, 40, 3);
        let b = BoolMatrix::random(7, 5, 40, 4);
        let problem = OrthogonalVectors::new(a, b);
        let proofs = merlin_prove(&problem).unwrap();
        arthur_verify(&problem, &proofs, 4, 11).unwrap();
        assert_eq!(problem.recover(&proofs).unwrap(), problem.reference_counts());
    }

    #[test]
    fn tampered_proof_is_caught() {
        let a = BoolMatrix::random(6, 4, 50, 5);
        let b = BoolMatrix::random(6, 4, 50, 6);
        let problem = OrthogonalVectors::new(a, b);
        let mut proofs = merlin_prove(&problem).unwrap();
        let f = PrimeField::new_unchecked(proofs[0].modulus);
        proofs[0].coefficients[1] = f.add(proofs[0].coefficients[1], 1);
        let report = spot_check(&problem, &proofs[0], 6, 77).unwrap();
        assert!(!report.accepted);
    }

    #[test]
    fn proof_size_matches_theorem_11_bound() {
        // Proof size (degree) is Õ(nt) with c = 1.
        let (n, t) = (16usize, 8usize);
        let problem = OrthogonalVectors::new(
            BoolMatrix::random(n, t, 50, 1),
            BoolMatrix::random(n, t, 50, 2),
        );
        let spec = problem.spec();
        assert!(spec.degree_bound <= n * t);
        assert!(spec.degree_bound >= (n - 1) * t);
    }
}
