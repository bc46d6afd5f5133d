//! The permanent of an integer matrix (Theorem 8(2), §A.5).
//!
//! Starting from Ryser's formula
//! `per A = Σ_{S ⊆ [n]} (-1)^{n-|S|} Π_i Σ_{j ∈ S} a_ij`,
//! the subsets are split into two halves: the first `n/2` indicator
//! variables are interpolated through the point sequence `D(x)` (so that
//! `D(1), …, D(2^{n/2})` ranges over all of `{0,1}^{n/2}`), and the second
//! half is summed explicitly inside each evaluation. The proof polynomial
//!
//! ```text
//! P(x) = Q(D(x)),
//! Q(z) = Σ_{z_{h+1..n} ∈ {0,1}} (-1)^n Π_j (1 - 2 z_j) Π_i Σ_j a_ij z_j
//! ```
//!
//! has degree `O*(2^{n/2})`, each evaluation costs `O*(2^{n/2})`, and
//! `per A = Σ_{x=1}^{2^{n/2}} P(x)`, reconstructed over the integers from
//! `O(1)` primes by the CRT.

use camelot_core::{CamelotError, CamelotProblem, Evaluate, PrimeProof, ProofSpec};
use camelot_ff::{crt_i, IBig, PrimeField, Residue};
use camelot_poly::ConsecutiveBasis;

/// The permanent Camelot problem for an `n × n` integer matrix.
#[derive(Clone, Debug)]
pub struct Permanent {
    /// Row-major entries, padded to an even dimension.
    entries: Vec<i64>,
    /// Padded dimension (even).
    n: usize,
    /// Original dimension.
    n_orig: usize,
}

impl Permanent {
    /// Creates the problem from a row-major `n × n` integer matrix.
    ///
    /// Odd `n` is padded with an extra row/column that is zero except for
    /// a 1 on the diagonal, which leaves the permanent unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `entries.len() != n * n` or `n == 0`.
    #[must_use]
    pub fn new(n: usize, entries: Vec<i64>) -> Self {
        assert!(n > 0, "matrix must be nonempty");
        assert_eq!(entries.len(), n * n, "entry count must match n^2");
        let n_orig = n;
        let (n, entries) = if n.is_multiple_of(2) {
            (n, entries)
        } else {
            let np = n + 1;
            let mut padded = vec![0i64; np * np];
            for i in 0..n {
                padded[i * np..i * np + n].copy_from_slice(&entries[i * n..(i + 1) * n]);
            }
            padded[np * np - 1] = 1;
            (np, padded)
        };
        Permanent { entries, n, n_orig }
    }

    /// Deterministic random matrix with entries in `[-spread, spread]`.
    #[must_use]
    pub fn random(n: usize, spread: u64, seed: u64) -> Self {
        use camelot_ff::{RngLike, SplitMix64};
        let mut rng = SplitMix64::new(seed);
        let width = 2 * spread + 1;
        let entries = (0..n * n).map(|_| (rng.next_u64() % width) as i64 - spread as i64).collect();
        Permanent::new(n, entries)
    }

    /// Original matrix dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.n_orig
    }

    fn half(&self) -> usize {
        self.n / 2
    }

    fn max_abs(&self) -> u64 {
        self.entries.iter().map(|&v| v.unsigned_abs()).max().unwrap_or(0)
    }

    /// Ground truth by Ryser's `O(2^n n)` formula with Gray-code updates.
    ///
    /// # Panics
    ///
    /// Panics if `n > 20` or intermediate values overflow `i128`.
    #[must_use]
    pub fn reference_permanent(&self) -> IBig {
        let n = self.n;
        assert!(n <= 20, "Ryser reference limited to n <= 20");
        let mut rows = vec![0i128; n];
        let mut total = IBig::zero();
        let mut prev_gray = 0u64;
        for s in 1u64..1 << n {
            let gray = s ^ (s >> 1);
            let flipped = (gray ^ prev_gray).trailing_zeros() as usize;
            if gray & (1 << flipped) != 0 {
                for (i, row) in rows.iter_mut().enumerate() {
                    *row += i128::from(self.entries[i * n + flipped]);
                }
            } else {
                for (i, row) in rows.iter_mut().enumerate() {
                    *row -= i128::from(self.entries[i * n + flipped]);
                }
            }
            prev_gray = gray;
            let mut prod = IBig::from_i64(1);
            for &row in &rows {
                prod = prod.mul(&IBig::from_i128(row));
                if prod.is_zero() {
                    break;
                }
            }
            let popcount = gray.count_ones() as usize;
            if (n - popcount) % 2 == 1 {
                prod = prod.neg();
            }
            total = total.add(&prod);
        }
        total
    }
}

impl CamelotProblem for Permanent {
    type Output = IBig;

    fn spec(&self) -> ProofSpec {
        let h = self.half();
        let points = 1u64 << h;
        let degree = (points - 1) as usize * (self.n + h);
        // |per A| <= n! * max^n.
        let mut bits = 2.0f64;
        for i in 1..=self.n as u64 {
            bits += (i as f64).log2();
        }
        bits += self.n as f64 * ((self.max_abs() + 1) as f64).log2();
        ProofSpec {
            degree_bound: degree,
            min_modulus: (degree as u64 + 2).max(points + 1),
            value_bits: bits.ceil() as u64 + 1,
        }
    }

    fn evaluator<'a>(&'a self, field: &PrimeField) -> Box<dyn Evaluate + 'a> {
        let f = *field;
        let n = self.n;
        let h = self.half();
        let points = 1usize << h;
        let a: Vec<u64> = self.entries.iter().map(|&v| f.from_i64(v)).collect();
        let lagrange = ConsecutiveBasis::new(field, points);
        Box::new(move |x0: u64| {
            let mut scratch = vec![0u64; points + h + n];
            let (basis, rest) = scratch.split_at_mut(points);
            let (z, rows) = rest.split_at_mut(h);
            // z = D(x0): bit polynomials evaluated barycentrically.
            lagrange.basis_at(x0, basis);
            for (i, &w) in basis.iter().enumerate() {
                if w == 0 {
                    continue;
                }
                for (j, zj) in z.iter_mut().enumerate() {
                    if i >> j & 1 == 1 {
                        *zj = f.add(*zj, w);
                    }
                }
            }
            // First-half contributions.
            let mut sign_first = 1u64;
            for &zj in z.iter() {
                sign_first = f.mul(sign_first, f.sub(1, f.add(zj, zj)));
            }
            for (i, row) in rows.iter_mut().enumerate() {
                *row = f.dot(&a[i * n..i * n + h], z);
            }
            // Second half: Gray-code sweep over 2^h subsets.
            let mut acc = 0u64;
            let mut prev_gray = 0u64;
            for s in 0u64..1 << h {
                let gray = s ^ (s >> 1);
                if s > 0 {
                    let flipped = (gray ^ prev_gray).trailing_zeros() as usize;
                    let col = h + flipped;
                    if gray & (1 << flipped) != 0 {
                        for (i, row) in rows.iter_mut().enumerate() {
                            *row = f.add(*row, a[i * n + col]);
                        }
                    } else {
                        for (i, row) in rows.iter_mut().enumerate() {
                            *row = f.sub(*row, a[i * n + col]);
                        }
                    }
                }
                prev_gray = gray;
                // Π_i row_i as four interleaved chains: one serial chain
                // of n Barrett products is bound by their latency.
                let mut lanes = [sign_first, 1, 1, 1];
                for block in rows.chunks(4) {
                    for (lane, &row) in lanes.iter_mut().zip(block) {
                        *lane = f.mul(*lane, row);
                    }
                }
                let prod = f.mul(f.mul(lanes[0], lanes[1]), f.mul(lanes[2], lanes[3]));
                // (-1)^n (1-2z)-product over the second half = (-1)^{|s|}
                // (and (-1)^n = 1 since n is even after padding).
                if gray.count_ones() % 2 == 1 {
                    acc = f.sub(acc, prod);
                } else {
                    acc = f.add(acc, prod);
                }
            }
            acc
        })
    }

    fn recover(&self, proofs: &[PrimeProof]) -> Result<IBig, CamelotError> {
        let points = 1u64 << self.half();
        let residues: Vec<Residue> = proofs.iter().map(|p| p.sum_residue(1, points)).collect();
        Ok(crt_i(&residues))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camelot_core::{arthur_verify, merlin_prove, Engine};

    fn brute_permanent(n: usize, a: &[i64]) -> i128 {
        // Direct permutation expansion for tiny n.
        fn rec(n: usize, a: &[i64], row: usize, used: &mut Vec<bool>) -> i128 {
            if row == n {
                return 1;
            }
            let mut acc = 0i128;
            for col in 0..n {
                if !used[col] && a[row * n + col] != 0 {
                    used[col] = true;
                    acc += i128::from(a[row * n + col]) * rec(n, a, row + 1, used);
                    used[col] = false;
                }
            }
            acc
        }
        rec(n, a, 0, &mut vec![false; n])
    }

    #[test]
    fn ryser_matches_brute_force() {
        for seed in 0..5 {
            let p = Permanent::random(5, 3, seed);
            let brute = brute_permanent(p.n, &p.entries);
            assert_eq!(p.reference_permanent().to_i128(), Some(brute), "seed {seed}");
        }
    }

    #[test]
    fn identity_and_all_ones() {
        let id = Permanent::new(4, vec![1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1]);
        assert_eq!(id.reference_permanent().to_i64(), Some(1));
        let ones = Permanent::new(4, vec![1; 16]);
        assert_eq!(ones.reference_permanent().to_i64(), Some(24)); // 4!
    }

    #[test]
    fn camelot_matches_ryser_zero_one() {
        for seed in 0..3 {
            let p = Permanent::random(6, 0, seed); // entries in {0}: permanent 0
            let outcome = Engine::sequential(4, 2).run(&p).unwrap();
            assert_eq!(outcome.output, p.reference_permanent(), "seed {seed}");
        }
        // 0/1 matrices via density trick: use random with spread 1 then map.
        for seed in 10..13 {
            use camelot_ff::{RngLike, SplitMix64};
            let mut rng = SplitMix64::new(seed);
            let n = 6;
            let entries: Vec<i64> = (0..n * n).map(|_| (rng.next_u64() % 2) as i64).collect();
            let p = Permanent::new(n, entries);
            let outcome = Engine::sequential(4, 2).run(&p).unwrap();
            assert_eq!(outcome.output, p.reference_permanent(), "seed {seed}");
        }
    }

    #[test]
    fn camelot_matches_ryser_signed_entries() {
        for seed in 0..3 {
            let p = Permanent::random(6, 4, seed);
            let outcome = Engine::sequential(5, 2).run(&p).unwrap();
            assert_eq!(outcome.output, p.reference_permanent(), "seed {seed}");
            assert!(
                outcome.certificate.identified_faulty_nodes.is_empty(),
                "clean run must identify nobody"
            );
        }
    }

    #[test]
    fn odd_dimension_is_padded_transparently() {
        for seed in 0..3 {
            let p = Permanent::random(5, 3, seed);
            // Recover the original 5x5 block from the padded matrix.
            let mut orig = vec![0i64; 25];
            for i in 0..5 {
                for j in 0..5 {
                    orig[i * 5 + j] = p.entries[i * p.n + j];
                }
            }
            let brute = brute_permanent(5, &orig);
            let outcome = Engine::sequential(3, 1).run(&p).unwrap();
            assert_eq!(outcome.output.to_i128(), Some(brute), "seed {seed}");
        }
    }

    #[test]
    fn merlin_arthur_roundtrip() {
        let p = Permanent::random(4, 2, 7);
        let proofs = merlin_prove(&p).unwrap();
        arthur_verify(&p, &proofs, 3, 1).unwrap();
        assert_eq!(p.recover(&proofs).unwrap(), p.reference_permanent());
    }

    #[test]
    fn spec_scales_as_2_to_half_n() {
        let p = Permanent::random(8, 1, 1);
        let spec = p.spec();
        // 2^4 - 1 = 15 points, degree (n + h) * 15 = 12 * 15.
        assert_eq!(spec.degree_bound, 15 * 12);
    }
}
