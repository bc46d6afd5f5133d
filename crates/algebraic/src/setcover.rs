//! Counting `t`-element set covers (Theorem 9, §A.6).
//!
//! Given a family `F` of subsets of `[n]` and `t`, count the ordered
//! `t`-tuples `(X_1, …, X_t) ∈ F^t` with `X_1 ∪ … ∪ X_t = [n]`, via the
//! inclusion–exclusion formula of Björklund–Husfeldt–Koivisto:
//! `c_t(F) = Σ_{Y ⊆ [n]} (-1)^{n-|Y|} |{X ∈ F : X ⊆ Y}|^t`.
//!
//! The first `⌈n/2⌉` membership indicators ride the point-enumerating
//! polynomials `D(x)`; the rest are summed explicitly per evaluation.
//! Proof size and per-node time are `O*(2^{n/2})` for polynomial-size
//! families.

use camelot_core::{CamelotError, CamelotProblem, Evaluate, PrimeProof, ProofSpec};
use camelot_ff::{crt_i, PrimeField, Residue, UBig};
use camelot_poly::ConsecutiveBasis;

/// The set-cover-counting Camelot problem.
#[derive(Clone, Debug)]
pub struct SetCovers {
    universe: usize,
    family: Vec<u64>,
    tuple_len: u64,
}

impl SetCovers {
    /// Creates the problem for subsets of `[universe]` given as bitmasks.
    ///
    /// # Panics
    ///
    /// Panics if `universe` is 0 or exceeds 32, if a set spills outside
    /// the universe, or if `tuple_len` is 0.
    #[must_use]
    pub fn new(universe: usize, family: Vec<u64>, tuple_len: u64) -> Self {
        assert!(universe > 0 && universe <= 32, "universe must have 1..=32 elements");
        assert!(tuple_len > 0, "tuple length must be positive");
        let full = (1u64 << universe) - 1;
        assert!(family.iter().all(|&x| x & !full == 0), "set outside the universe");
        SetCovers { universe, family, tuple_len }
    }

    /// Ground truth by direct inclusion–exclusion with `u128` arithmetic.
    ///
    /// # Panics
    ///
    /// Panics if `|F|^t` overflows `u128`.
    #[must_use]
    pub fn reference_count(&self) -> u128 {
        let n = self.universe;
        let mut total: i128 = 0;
        for y in 0u64..1 << n {
            let inside = self.family.iter().filter(|&&x| x & !y == 0).count() as u128;
            let mut power: u128 = 1;
            for _ in 0..self.tuple_len {
                power = power.checked_mul(inside).expect("reference overflow");
            }
            let sign = if (n - y.count_ones() as usize).is_multiple_of(2) { 1 } else { -1 };
            total += sign * i128::try_from(power).expect("reference overflow");
        }
        u128::try_from(total).expect("cover count must be nonnegative")
    }

    fn h1(&self) -> usize {
        self.universe.div_ceil(2)
    }
}

impl CamelotProblem for SetCovers {
    type Output = UBig;

    fn spec(&self) -> ProofSpec {
        let h1 = self.h1() as u64;
        let points = 1u64 << h1;
        let degree = ((points - 1) * h1 * (self.tuple_len + 1)) as usize;
        let bits = (self.tuple_len as f64) * ((self.family.len().max(2)) as f64).log2() + 2.0;
        ProofSpec {
            degree_bound: degree,
            min_modulus: (degree as u64 + 2).max(points + 1),
            value_bits: bits.ceil() as u64 + self.universe as u64,
        }
    }

    fn evaluator<'a>(&'a self, field: &PrimeField) -> Box<dyn Evaluate + 'a> {
        let f = *field;
        let n = self.universe;
        let h1 = self.h1();
        let h2 = n - h1;
        let points = 1usize << h1;
        let first_mask = (1u64 << h1) - 1;
        let lagrange = ConsecutiveBasis::new(field, points);
        let second_need: Vec<u64> = self.family.iter().map(|&x| x >> h1).collect();
        Box::new(move |x0: u64| {
            let mut scratch = vec![0u64; points + h1 + self.family.len()];
            let (basis, rest) = scratch.split_at_mut(points);
            let (y, first_prod) = rest.split_at_mut(h1);
            lagrange.basis_at(x0, basis);
            for (i, &w) in basis.iter().enumerate() {
                if w == 0 {
                    continue;
                }
                for (j, yj) in y.iter_mut().enumerate() {
                    if i >> j & 1 == 1 {
                        *yj = f.add(*yj, w);
                    }
                }
            }
            let mut sign_first = 1u64;
            for &yj in y.iter() {
                sign_first = f.mul(sign_first, f.sub(1, f.add(yj, yj)));
            }
            // Per set X: Π_{j ∈ X ∩ first} y_j (field value); its
            // second-half membership mask is `second_need`.
            for (slot, &x) in first_prod.iter_mut().zip(&self.family) {
                let mut prod = 1u64;
                let mut bits = x & first_mask;
                while bits != 0 {
                    let j = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    prod = f.mul(prod, y[j]);
                }
                *slot = prod;
            }
            let mut acc = 0u64;
            for mask in 0u64..1 << h2 {
                let mut inner = 0u64;
                for (p, need) in first_prod.iter().zip(&second_need) {
                    if need & !mask == 0 {
                        inner = f.add(inner, *p);
                    }
                }
                let mut term = f.mul(sign_first, f.pow(inner, self.tuple_len));
                let flips = mask.count_ones() as usize + n % 2;
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
        let value = crt_i(&residues);
        if value.is_negative() {
            return Err(CamelotError::RecoveryFailed { reason: "negative cover count".into() });
        }
        Ok(value.magnitude().clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camelot_core::{arthur_verify, merlin_prove, Engine};

    #[test]
    fn hand_checked_tiny_instance() {
        // Universe {0,1}, F = {{0},{1},{0,1}}, t = 2: ordered pairs whose
        // union is {0,1}: ({0},{1}),({1},{0}), ({0,1},*): 3 ways, (*,{0,1}):
        // 3 ways, minus double-counted ({0,1},{0,1}) = 2 + 3 + 3 - 1 = 7? —
        // enumerate: pairs (X,Y) with X∪Y = {0,1}: (01,01),(01,0),(01,1),
        // (0,01),(1,01),(0,1),(1,0) = 7.
        let problem = SetCovers::new(2, vec![0b01, 0b10, 0b11], 2);
        assert_eq!(problem.reference_count(), 7);
        let outcome = Engine::sequential(3, 1).run(&problem).unwrap();
        assert_eq!(outcome.output.to_u64(), Some(7));
    }

    #[test]
    fn random_families_match_reference() {
        use camelot_ff::{RngLike, SplitMix64};
        for seed in 0..4 {
            let mut rng = SplitMix64::new(seed);
            let n = 7;
            let family: Vec<u64> = (0..6).map(|_| rng.next_u64() & ((1 << n) - 1)).collect();
            for t in [1u64, 2, 3] {
                let problem = SetCovers::new(n, family.clone(), t);
                let expect = problem.reference_count();
                let outcome = Engine::sequential(4, 2).run(&problem).unwrap();
                assert_eq!(outcome.output.to_u128(), Some(expect), "seed {seed} t {t}");
            }
        }
    }

    #[test]
    fn uncoverable_universe_counts_zero() {
        // No set contains element 4.
        let problem = SetCovers::new(5, vec![0b0011, 0b0101, 0b1100], 3);
        assert_eq!(problem.reference_count(), 0);
        let outcome = Engine::sequential(2, 1).run(&problem).unwrap();
        assert_eq!(outcome.output.to_u64(), Some(0));
    }

    #[test]
    fn single_full_set_covers_once_per_tuple() {
        let problem = SetCovers::new(4, vec![0b1111, 0b0001], 2);
        // tuples: (full,full),(full,{0}),({0},full) = 3.
        assert_eq!(problem.reference_count(), 3);
        let outcome = Engine::sequential(2, 1).run(&problem).unwrap();
        assert_eq!(outcome.output.to_u64(), Some(3));
    }

    #[test]
    fn merlin_arthur_roundtrip() {
        let problem = SetCovers::new(5, vec![0b00111, 0b11000, 0b10101, 0b01010], 2);
        let proofs = merlin_prove(&problem).unwrap();
        arthur_verify(&problem, &proofs, 4, 3).unwrap();
        assert_eq!(problem.recover(&proofs).unwrap().to_u128(), Some(problem.reference_count()));
    }
}
