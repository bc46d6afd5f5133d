//! Independent randomized proof verification (§1.3, step 3).
//!
//! Any entity with the common input and a putative proof
//! `p̃_0, …, p̃_d` can check it: draw `x0` uniformly from `Z_q`, evaluate
//! `P(x0)` with the same algorithm the nodes used, and compare against
//! Horner on the coefficients. A wrong proof survives one trial with
//! probability at most `d/q` (fundamental theorem of algebra), and the
//! verifier drives this down by independent repetition.
//!
//! The Horner side is [`PrimeProof::eval`], which runs the four-chain
//! [`PrimeField::horner`] kernel: four Shoup chains in `x⁴`, bound by
//! the multiplier rather than by the latency of one `mul_add` chain. The
//! kernel takes the coefficients as field elements, so [`spot_check`]
//! refuses a proof with a coefficient `≥ q` as malformed before any trial
//! — `c + q` is congruent to `c`, but it is not what a decode produces or
//! what the wire accepts. The recovery sums of the "sum the evaluations"
//! designs ([`PrimeProof::sum_eval_consecutive`]) run it only below their
//! crossover or on a modulus without a long enough transform; past it
//! they are one dot product with the run's power sums, computed by
//! Faulhaber's formula in one transform and cached.

use crate::error::CamelotError;
use crate::problem::{CamelotProblem, Evaluate, PrimeProof};
use camelot_ff::{PrimeField, SplitMix64};

/// Outcome of a spot-check session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VerifyReport {
    /// Trials performed (may stop early on rejection).
    pub trials_run: usize,
    /// Whether every trial accepted.
    pub accepted: bool,
}

/// Spot-checks one prime proof with `trials` random evaluations.
///
/// # Errors
///
/// Returns [`CamelotError::MalformedProof`] if the proof's degree exceeds
/// the spec bound, its modulus is below the spec minimum, or a
/// coefficient is not reduced (`p_k ≥ q`) — those are structural failures
/// no amount of randomness should excuse. A proof need not have come
/// through [`crate::Certificate::from_wire`], and Horner on the
/// coefficients presumes them reduced.
pub fn spot_check<P: CamelotProblem>(
    problem: &P,
    proof: &PrimeProof,
    trials: usize,
    seed: u64,
) -> Result<VerifyReport, CamelotError> {
    let spec = problem.spec();
    if proof.coefficients.len() > spec.degree_bound + 1 {
        return Err(CamelotError::MalformedProof {
            reason: format!(
                "degree {} exceeds bound {}",
                proof.coefficients.len() - 1,
                spec.degree_bound
            ),
        });
    }
    if proof.modulus < spec.min_modulus {
        return Err(CamelotError::MalformedProof {
            reason: format!("modulus {} below spec minimum {}", proof.modulus, spec.min_modulus),
        });
    }
    if let Some(&c) = proof.coefficients.iter().find(|&&c| c >= proof.modulus) {
        return Err(CamelotError::MalformedProof {
            reason: format!("coefficient {c} not reduced mod {}", proof.modulus),
        });
    }
    let field = PrimeField::new_unchecked(proof.modulus);
    Ok(run_trials(&field, problem.evaluator(&field).as_ref(), proof, trials, seed))
}

/// The spot-check trials themselves, for a proof already known to be
/// well-formed: up to `trials` points `x0` drawn from
/// `SplitMix64::new(seed ^ q)`, each comparing `evaluator` against Horner
/// on the coefficients, stopping at the first rejection.
pub(crate) fn run_trials(
    field: &PrimeField,
    evaluator: &dyn Evaluate,
    proof: &PrimeProof,
    trials: usize,
    seed: u64,
) -> VerifyReport {
    let mut rng = SplitMix64::new(seed ^ proof.modulus);
    for trial in 0..trials {
        let x0 = field.sample(&mut rng);
        if evaluator.eval(x0) != proof.eval(x0) {
            return VerifyReport { trials_run: trial + 1, accepted: false };
        }
    }
    VerifyReport { trials_run: trials, accepted: true }
}

/// Upper bound on the probability that a *wrong* proof survives `trials`
/// independent spot checks: `(d/q)^trials`.
#[must_use]
pub fn soundness_error(degree_bound: usize, modulus: u64, trials: usize) -> f64 {
    let per_trial = degree_bound as f64 / modulus as f64;
    per_trial.min(1.0).powi(i32::try_from(trials).unwrap_or(i32::MAX))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Evaluate, ProofSpec};

    /// P(x) = 7 + 5x over any modulus; answer = 7.
    struct Affine;

    impl CamelotProblem for Affine {
        type Output = u64;

        fn spec(&self) -> ProofSpec {
            ProofSpec::new(1, 1 << 20, 20)
        }

        fn evaluator<'a>(&'a self, field: &PrimeField) -> Box<dyn Evaluate + 'a> {
            let f = *field;
            Box::new(move |x: u64| f.add(7, f.mul(5, f.reduce(x))))
        }

        fn recover(&self, proofs: &[PrimeProof]) -> Result<u64, CamelotError> {
            Ok(proofs[0].eval(0))
        }
    }

    /// P(x) = 5x over any modulus, a zero constant term; answer = 0.
    struct Slope;

    impl CamelotProblem for Slope {
        type Output = u64;

        fn spec(&self) -> ProofSpec {
            ProofSpec::new(1, 1 << 20, 20)
        }

        fn evaluator<'a>(&'a self, field: &PrimeField) -> Box<dyn Evaluate + 'a> {
            let f = *field;
            Box::new(move |x: u64| f.mul(5, f.reduce(x)))
        }

        fn recover(&self, proofs: &[PrimeProof]) -> Result<u64, CamelotError> {
            Ok(proofs[0].eval(0))
        }
    }

    #[test]
    fn correct_proof_always_accepts() {
        let proof = PrimeProof { modulus: 1_048_583, coefficients: vec![7, 5] };
        let report = spot_check(&Affine, &proof, 16, 1).unwrap();
        assert!(report.accepted);
        assert_eq!(report.trials_run, 16);
    }

    /// An accepted proof ran every trial it reports: the evaluator is
    /// asked once per trial.
    #[test]
    fn an_accepted_proof_runs_every_trial() {
        let calls = std::sync::atomic::AtomicUsize::new(0);
        let field = PrimeField::new(1_048_583).unwrap();
        let counted = |x: u64| {
            calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Affine.evaluator(&field).eval(x)
        };
        let proof = PrimeProof { modulus: field.modulus(), coefficients: vec![7, 5] };
        let report = run_trials(&field, &counted, &proof, 16, 1);
        assert_eq!(report, VerifyReport { trials_run: 16, accepted: true });
        assert_eq!(calls.into_inner(), 16);
    }

    #[test]
    fn wrong_proof_rejects_quickly() {
        let proof = PrimeProof { modulus: 1_048_583, coefficients: vec![7, 6] };
        let report = spot_check(&Affine, &proof, 16, 1).unwrap();
        assert!(!report.accepted);
        // d/q is tiny here, so the very first trial should already reject.
        assert_eq!(report.trials_run, 1);
    }

    #[test]
    fn structural_violations_are_malformed() {
        let too_long = PrimeProof { modulus: 1_048_583, coefficients: vec![1, 2, 3] };
        assert!(matches!(
            spot_check(&Affine, &too_long, 1, 0),
            Err(CamelotError::MalformedProof { .. })
        ));
        let small_modulus = PrimeProof { modulus: 101, coefficients: vec![7, 5] };
        assert!(matches!(
            spot_check(&Affine, &small_modulus, 1, 0),
            Err(CamelotError::MalformedProof { .. })
        ));
        // `7 + q` is congruent to `7`, so every trial would agree, but it
        // is not a field element: refused before any evaluation.
        let q = 1_048_583;
        for unreduced in [vec![7 + q, 5], vec![7, 5 + q], vec![7, u64::MAX]] {
            let proof = PrimeProof { modulus: q, coefficients: unreduced };
            assert!(matches!(
                spot_check(&Affine, &proof, 16, 1),
                Err(CamelotError::MalformedProof { .. })
            ));
        }
        // A zero coefficient lifted to exactly `q`: the smallest
        // unreduced value.
        let slope = PrimeProof { modulus: q, coefficients: vec![0, 5] };
        assert!(spot_check(&Slope, &slope, 16, 1).unwrap().accepted);
        let lifted = PrimeProof { modulus: q, coefficients: vec![q, 5] };
        assert!(matches!(
            spot_check(&Slope, &lifted, 16, 1),
            Err(CamelotError::MalformedProof { .. })
        ));
    }

    #[test]
    fn soundness_error_shrinks_with_trials() {
        let one = soundness_error(1000, 1 << 40, 1);
        let three = soundness_error(1000, 1 << 40, 3);
        assert!(one < 1e-9);
        assert!(three < one * one);
        assert_eq!(soundness_error(10, 5, 2), 1.0); // degenerate d >= q caps at 1
    }
}
