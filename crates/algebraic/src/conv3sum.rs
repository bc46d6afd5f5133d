//! Counting Convolution3SUM solutions (Theorem 11(3), §A.4).
//!
//! Given an array `A[1..n]` of `t`-bit integers, count the pairs
//! `i1, i2 ∈ [n/2]` with `A[i1] + A[i2] = A[i1 + i2]`. The design point
//! of §A.4: a simple Boolean circuit — a `t`-bit ripple-carry adder —
//! is extended into a polynomial over `Z_q` (the sum/majority gadgets
//! `S`, `M` and the carry recurrence), then composed with polynomials
//! interpolating the input bits, giving proof size `Õ(n t²)`.

use camelot_core::{CamelotError, CamelotProblem, Evaluate, PrimeProof, ProofSpec};
use camelot_ff::PrimeField;
use camelot_poly::ConsecutiveBasis;

/// The Convolution3SUM Camelot problem.
#[derive(Clone, Debug)]
pub struct Convolution3Sum {
    values: Vec<u64>,
    bit_width: usize,
}

impl Convolution3Sum {
    /// Creates the problem for the 1-indexed array `values` of
    /// `bit_width`-bit integers. The array length must be even.
    ///
    /// # Panics
    ///
    /// Panics if a value exceeds the bit width, the length is odd or
    /// zero, or `bit_width` is 0 or above 62.
    #[must_use]
    pub fn new(values: Vec<u64>, bit_width: usize) -> Self {
        assert!(!values.is_empty() && values.len().is_multiple_of(2), "array length must be even");
        assert!(bit_width > 0 && bit_width <= 62, "bit width must be 1..=62");
        let cap = if bit_width == 62 { u64::MAX >> 2 } else { (1 << bit_width) - 1 };
        assert!(values.iter().all(|&v| v <= cap), "value exceeds bit width");
        Convolution3Sum { values, bit_width }
    }

    /// Deterministic random instance.
    #[must_use]
    pub fn random(n: usize, bit_width: usize, seed: u64) -> Self {
        use camelot_ff::{RngLike, SplitMix64};
        let mut rng = SplitMix64::new(seed);
        let cap = 1u64 << bit_width;
        Convolution3Sum::new((0..n).map(|_| rng.next_u64() % cap).collect(), bit_width)
    }

    /// Ground truth: the per-index counts
    /// `c_i = |{ℓ ∈ [n/2] : A[i] + A[ℓ] = A[i+ℓ]}|` for `i ∈ [n/2]`,
    /// where sums are exact (overflow beyond `t` bits never matches a
    /// `t`-bit array entry).
    #[must_use]
    pub fn reference_counts(&self) -> Vec<u64> {
        let half = self.values.len() / 2;
        (1..=half)
            .map(|i| {
                (1..=half).filter(|&l| self.value(i) + self.value(l) == self.value(i + l)).count()
                    as u64
            })
            .collect()
    }

    /// Total solution count `Σ_i c_i`.
    #[must_use]
    pub fn reference_total(&self) -> u64 {
        self.reference_counts().iter().sum()
    }

    fn value(&self, i: usize) -> u64 {
        self.values[i - 1]
    }

    fn n(&self) -> usize {
        self.values.len()
    }
}

/// Ripple-carry adder comparison `[y + z = w]` over field values of the
/// bit vectors (equation (42) of the paper); exact on 0/1 inputs and a
/// polynomial of degree `O(t²)` in general.
fn adder_indicator(f: &PrimeField, y: &[u64], z: &[u64], w: &[u64]) -> u64 {
    let t = y.len();
    debug_assert_eq!(z.len(), t);
    debug_assert_eq!(w.len(), t);
    let mut carry = 0u64;
    let mut prod = 1u64;
    for j in 0..t {
        let s = sum_gadget(f, y[j], z[j], carry);
        let m = majority_gadget(f, y[j], z[j], carry);
        // (1 - w_j)(1 - s) + w_j s
        let match_j = f.add(f.mul(f.sub(1, w[j]), f.sub(1, s)), f.mul(w[j], s));
        prod = f.mul(prod, match_j);
        carry = m;
    }
    f.mul(prod, f.sub(1, carry))
}

/// 3-variate sum polynomial `S(b1,b2,b3)`: parity on 0/1 inputs.
fn sum_gadget(f: &PrimeField, b1: u64, b2: u64, b3: u64) -> u64 {
    let n1 = f.sub(1, b1);
    let n2 = f.sub(1, b2);
    let n3 = f.sub(1, b3);
    let mut acc = f.mul(f.mul(n1, n2), b3);
    acc = f.add(acc, f.mul(f.mul(n1, b2), n3));
    acc = f.add(acc, f.mul(f.mul(b1, n2), n3));
    f.add(acc, f.mul(f.mul(b1, b2), b3))
}

/// 3-variate majority polynomial `M(b1,b2,b3)`.
fn majority_gadget(f: &PrimeField, b1: u64, b2: u64, b3: u64) -> u64 {
    let n1 = f.sub(1, b1);
    let n2 = f.sub(1, b2);
    let n3 = f.sub(1, b3);
    let mut acc = f.mul(f.mul(n1, b2), b3);
    acc = f.add(acc, f.mul(f.mul(b1, n2), b3));
    acc = f.add(acc, f.mul(f.mul(b1, b2), n3));
    f.add(acc, f.mul(f.mul(b1, b2), b3))
}

impl CamelotProblem for Convolution3Sum {
    type Output = Vec<u64>;

    fn spec(&self) -> ProofSpec {
        let n = self.n() as u64;
        let t = self.bit_width as u64;
        // Degree bookkeeping (see module docs): carries grow by the
        // y-degree (n-1) per stage (z is constant), each bit factor costs
        // deg w + deg S, and the final (1 - c_t) adds one carry degree.
        let dy = n - 1;
        let mut dc = 0u64; // carry degree
        let mut total = 0u64;
        for _ in 0..t {
            let ds = dy + dc; // S(y_j, z_j, c_{j-1}), z constant
            total += dy + ds; // factor: w_j degree + S degree
            dc += dy; // M has the same degree profile as S
        }
        total += dc; // (1 - c_t)
        let degree = total as usize;
        ProofSpec {
            degree_bound: degree,
            min_modulus: (degree as u64 + 2).max(n + 2),
            value_bits: 2 * (64 - n.leading_zeros() as u64) + 2,
        }
    }

    fn evaluator<'a>(&'a self, field: &PrimeField) -> Box<dyn Evaluate + 'a> {
        let f = *field;
        let n = self.n();
        let t = self.bit_width;
        let half = n / 2;
        // Bits of each array entry, fixed (exact) — used for A(ℓ) and for
        // the barycentric combination.
        let bits: Vec<Vec<u64>> =
            self.values.iter().map(|&v| (0..t).map(|j| v >> j & 1).collect()).collect();
        let lagrange = ConsecutiveBasis::new(field, n);
        Box::new(move |x0: u64| {
            let mut scratch = vec![0u64; n + 2 * t];
            let (basis, rest) = scratch.split_at_mut(n);
            let (y, w) = rest.split_at_mut(t);
            // A(x) by barycentric evaluation over nodes 1..n.
            let mut eval_at = |x: u64, out: &mut [u64]| {
                lagrange.basis_at(x, basis);
                out.fill(0);
                for (row, &wgt) in bits.iter().zip(basis.iter()) {
                    if wgt == 0 {
                        continue;
                    }
                    for (slot, &bit) in out.iter_mut().zip(row) {
                        if bit == 1 {
                            *slot = f.add(*slot, wgt);
                        }
                    }
                }
            };
            eval_at(x0, y);
            let mut acc = 0u64;
            for l in 1..=half as u64 {
                let z = &bits[(l - 1) as usize];
                eval_at(f.add(f.reduce(x0), f.reduce(l)), w);
                acc = f.add(acc, adder_indicator(&f, y, z, w));
            }
            acc
        })
    }

    fn recover(&self, proofs: &[PrimeProof]) -> Result<Vec<u64>, CamelotError> {
        let proof = proofs
            .first()
            .ok_or_else(|| CamelotError::MalformedProof { reason: "no prime proofs".into() })?;
        let half = self.n() as u64 / 2;
        let counts: Vec<u64> = (1..=half).map(|i| proof.eval(i)).collect();
        if counts.iter().any(|&c| c > half) {
            return Err(CamelotError::RecoveryFailed { reason: "a count exceeded n/2".into() });
        }
        Ok(counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camelot_core::{arthur_verify, merlin_prove, Engine};

    #[test]
    fn adder_indicator_is_exact_on_bits() {
        let f = PrimeField::new(1_000_003).unwrap();
        let t = 4;
        let to_bits = |v: u64| -> Vec<u64> { (0..t).map(|j| v >> j & 1).collect() };
        for y in 0..16u64 {
            for z in 0..16u64 {
                for w in 0..16u64 {
                    let expect = u64::from(y + z == w);
                    assert_eq!(
                        adder_indicator(&f, &to_bits(y), &to_bits(z), &to_bits(w)),
                        expect,
                        "{y} + {z} =? {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn gadgets_match_truth_tables() {
        let f = PrimeField::new(97).unwrap();
        for b in 0..8u64 {
            let (b1, b2, b3) = (b & 1, b >> 1 & 1, b >> 2 & 1);
            assert_eq!(sum_gadget(&f, b1, b2, b3), (b1 + b2 + b3) % 2);
            assert_eq!(majority_gadget(&f, b1, b2, b3), u64::from(b1 + b2 + b3 >= 2));
        }
    }

    #[test]
    fn matches_reference_on_random_instances() {
        for seed in 0..3 {
            let problem = Convolution3Sum::random(8, 3, seed);
            let outcome = Engine::sequential(4, 2).run(&problem).unwrap();
            assert_eq!(outcome.output, problem.reference_counts(), "seed {seed}");
        }
    }

    #[test]
    fn crafted_instance_with_known_solutions() {
        // A[i] = i: A[i1] + A[i2] = i1 + i2 = A[i1+i2] always — every pair
        // counts, c_i = n/2.
        let n = 8;
        let problem = Convolution3Sum::new((1..=n as u64).collect(), 5);
        assert_eq!(problem.reference_counts(), vec![4, 4, 4, 4]);
        let outcome = Engine::sequential(3, 1).run(&problem).unwrap();
        assert_eq!(outcome.output, vec![4, 4, 4, 4]);
    }

    #[test]
    fn no_solutions_when_values_constant_nonzero() {
        // A[i] = 5: 5 + 5 = 10 != 5.
        let problem = Convolution3Sum::new(vec![5; 6], 4);
        assert_eq!(problem.reference_total(), 0);
        let outcome = Engine::sequential(2, 1).run(&problem).unwrap();
        assert_eq!(outcome.output, vec![0, 0, 0]);
    }

    #[test]
    fn overflow_does_not_fake_matches() {
        // A[i1] + A[i2] overflows t bits; truncation must NOT count as a
        // match (the (1 - c_t) factor).
        let problem = Convolution3Sum::new(vec![7, 7, 6, 7], 3);
        // 7+7 = 14 = 0b1110 truncated to 0b110 = 6 = A[2]... but with the
        // carry-out factor it must not count.
        assert_eq!(problem.reference_total(), 0);
        let outcome = Engine::sequential(2, 1).run(&problem).unwrap();
        assert_eq!(outcome.output, vec![0, 0]);
    }

    #[test]
    fn merlin_arthur_roundtrip() {
        let problem = Convolution3Sum::random(6, 3, 11);
        let proofs = merlin_prove(&problem).unwrap();
        arthur_verify(&problem, &proofs, 4, 2).unwrap();
        assert_eq!(problem.recover(&proofs).unwrap(), problem.reference_counts());
    }
}
