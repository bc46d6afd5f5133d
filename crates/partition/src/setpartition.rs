//! Counting exact set covers / set partitions (Theorem 10, §8).
//!
//! Given a family `F` of nonempty subsets of `[n]` (possibly of size
//! `O*(2^{n/2})`) and `t`, count the unordered partitions of `[n]` into
//! exactly `t` sets from `F`. The template instantiation: `f` is the
//! indicator of `F`, and the node function `g` is computed within the
//! `O*(2^{n/2})` budget by bucketing the family on `X ∩ E` and running
//! one zeta transform — §8.2's dedicated algorithm.

use crate::template::{
    alternating_power_coefficient, subset_powers, zeta_in_place, Split, POWER_SCRATCH,
};
use camelot_core::{CamelotError, CamelotProblem, Evaluate, PrimeProof, ProofSpec};
use camelot_ff::{crt_u, PrimeField, Residue, UBig};

/// The set-partition-counting Camelot problem.
#[derive(Clone, Debug)]
pub struct SetPartitions {
    split: Split,
    family: Vec<u64>,
    tuple_len: u64,
}

impl SetPartitions {
    /// Creates the problem for subsets of `[universe]` given as bitmasks.
    ///
    /// # Panics
    ///
    /// Panics if the universe is empty or exceeds 32 elements, the family
    /// contains the empty set or out-of-range sets, or `tuple_len == 0`.
    #[must_use]
    pub fn new(universe: usize, family: Vec<u64>, tuple_len: u64) -> Self {
        assert!(universe > 0 && universe <= 32, "universe must have 1..=32 elements");
        assert!(tuple_len > 0, "tuple length must be positive");
        let full = if universe == 64 { u64::MAX } else { (1u64 << universe) - 1 };
        for &x in &family {
            assert!(x != 0, "the family must not contain the empty set");
            assert!(x & !full == 0, "set outside the universe");
        }
        SetPartitions { split: Split::balanced(universe), family, tuple_len }
    }

    /// Ground truth by backtracking over ordered tuples (tiny inputs).
    #[must_use]
    pub fn reference_count(&self) -> u128 {
        let full = (1u64 << self.split.n) - 1;
        fn rec(family: &[u64], covered: u64, full: u64, left: u64) -> u128 {
            if left == 0 {
                return u128::from(covered == full);
            }
            let mut acc = 0u128;
            for &x in family {
                if x & covered == 0 {
                    acc += rec(family, covered | x, full, left - 1);
                }
            }
            acc
        }
        let ordered = rec(&self.family, 0, full, self.tuple_len);
        let mut fact = 1u128;
        for i in 1..=u128::from(self.tuple_len) {
            fact *= i;
        }
        debug_assert_eq!(ordered % fact, 0);
        ordered / fact
    }
}

impl CamelotProblem for SetPartitions {
    type Output = UBig;

    fn spec(&self) -> ProofSpec {
        let bits = (self.tuple_len as f64) * ((self.family.len().max(2)) as f64).log2() + 4.0;
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
        let stride = shape.stride();
        let (b_entries, e_entries) = (1usize << split.b_size, 1usize << split.e_size);
        // Where each family member lands: its table slot (bucketed on
        // X ∩ E, the §8.2 iteration) and its B-side bit set.
        let slots: Vec<(usize, usize)> = self
            .family
            .iter()
            .map(|&x| {
                let (me, mb) = split.split_mask(x);
                let slot = me as usize * stride
                    + shape.index(me.count_ones() as usize, mb.count_ones() as usize);
                (slot, mb as usize)
            })
            .collect();
        Box::new(move |x0: u64| {
            let mut scratch = vec![0u64; b_entries + (e_entries + POWER_SCRATCH) * stride];
            let (weights, rest) = scratch.split_at_mut(b_entries);
            let (g, power_scratch) = rest.split_at_mut(e_entries * stride);
            subset_powers(&f, f.reduce(x0), weights); // x0^{Σ bits of X ∩ B}
            for &(slot, mb) in &slots {
                g[slot] = f.add(g[slot], weights[mb]);
            }
            zeta_in_place(&f, g, stride);
            alternating_power_coefficient(&f, g, &split, self.tuple_len, power_scratch)
        })
    }

    fn recover(&self, proofs: &[PrimeProof]) -> Result<UBig, CamelotError> {
        // The answer is the proof coefficient p_{2^{|B|}-1}, divided by t!.
        let target = self.split.target_coefficient();
        let residues: Vec<Residue> = proofs.iter().map(|p| p.coefficient_residue(target)).collect();
        let ordered = crt_u(&residues);
        let mut value = ordered;
        for i in 1..=self.tuple_len {
            let (q, r) = value.div_rem_u64(i);
            if r != 0 {
                return Err(CamelotError::RecoveryFailed {
                    reason: "ordered partition count not divisible by t!".into(),
                });
            }
            value = q;
        }
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camelot_core::{arthur_verify, merlin_prove, Engine};

    #[test]
    fn perfect_matchings_of_a_four_set() {
        // Family: all 2-subsets of {0..3}; t = 2: partitions into two
        // pairs — the 3 perfect matchings of K4.
        let family: Vec<u64> = vec![0b0011, 0b0101, 0b1001, 0b0110, 0b1010, 0b1100];
        let problem = SetPartitions::new(4, family, 2);
        assert_eq!(problem.reference_count(), 3);
        let outcome = Engine::sequential(3, 2).run(&problem).unwrap();
        assert_eq!(outcome.output.to_u64(), Some(3));
    }

    #[test]
    fn random_families_match_reference() {
        use camelot_ff::{RngLike, SplitMix64};
        for seed in 0..4 {
            let mut rng = SplitMix64::new(seed);
            let n = 6;
            let family: Vec<u64> = (0..8)
                .map(|_| 1 + rng.next_u64() % ((1 << n) - 1))
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect();
            for t in [2u64, 3] {
                let problem = SetPartitions::new(n, family.clone(), t);
                let expect = problem.reference_count();
                let outcome = Engine::sequential(4, 2).run(&problem).unwrap();
                assert_eq!(outcome.output.to_u128(), Some(expect), "seed {seed} t {t}");
            }
        }
    }

    #[test]
    fn exponential_family_all_subsets() {
        // F = all nonempty subsets of [5]; t = 2: unordered partitions of
        // a 5-set into 2 nonempty parts = S(5,2) = 15.
        let family: Vec<u64> = (1..32).collect();
        let problem = SetPartitions::new(5, family, 2);
        assert_eq!(problem.reference_count(), 15);
        let outcome = Engine::sequential(4, 2).run(&problem).unwrap();
        assert_eq!(outcome.output.to_u64(), Some(15));
    }

    #[test]
    fn stirling_numbers_via_all_subsets() {
        // S(6, 3) = 90.
        let family: Vec<u64> = (1..64).collect();
        let problem = SetPartitions::new(6, family, 3);
        let outcome = Engine::sequential(4, 2).run(&problem).unwrap();
        assert_eq!(outcome.output.to_u64(), Some(90));
    }

    #[test]
    fn impossible_partition_counts_zero() {
        // Only one set, can't partition a 4-universe into 2 parts.
        let problem = SetPartitions::new(4, vec![0b1111], 2);
        assert_eq!(problem.reference_count(), 0);
        let outcome = Engine::sequential(2, 1).run(&problem).unwrap();
        assert_eq!(outcome.output.to_u64(), Some(0));
    }

    #[test]
    fn merlin_arthur_roundtrip() {
        let family: Vec<u64> = vec![0b00011, 0b11100, 0b00111, 0b11000, 0b10101];
        let problem = SetPartitions::new(5, family, 2);
        let proofs = merlin_prove(&problem).unwrap();
        arthur_verify(&problem, &proofs, 4, 21).unwrap();
        assert_eq!(problem.recover(&proofs).unwrap().to_u128(), Some(problem.reference_count()));
    }
}
