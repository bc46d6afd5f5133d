//! The Merlin–Arthur reading of a Camelot algorithm (§1.5).
//!
//! *“Each Camelot algorithm defines, as is, a Merlin–Arthur protocol”*:
//! should Merlin materialize, he supplies the proof coefficients
//! directly — here by evaluating `P` at `d + 1` points and interpolating,
//! i.e. what a single all-powerful prover would broadcast — and Arthur
//! verifies with the same randomized spot check each Knight would run,
//! at the cost of one evaluation of `P` per trial.

use crate::engine::{accumulate_primes, code_length};
use crate::error::CamelotError;
use crate::problem::{CamelotProblem, PrimeProof};
use crate::verify::spot_check;
use camelot_ff::PrimeField;
use camelot_poly::interpolate_consecutive;

/// Merlin's side: produces the per-prime proofs a correct prover would
/// send (sequentially, no cluster, no redundancy — Merlin does not fail).
///
/// # Errors
///
/// Returns [`CamelotError::BadConfiguration`] if the spec admits no
/// prime walk or demands more interpolation points than a modulus
/// admits.
pub fn merlin_prove<P: CamelotProblem>(problem: &P) -> Result<Vec<PrimeProof>, CamelotError> {
    let spec = problem.spec();
    let primes = accumulate_primes(&spec, code_length(&spec, 0))?;
    let mut proofs = Vec::with_capacity(primes.len());
    for &q in &primes {
        if spec.degree_bound as u64 + 1 > q {
            return Err(CamelotError::BadConfiguration {
                reason: format!(
                    "degree bound {} needs more points than Z_{q} has",
                    spec.degree_bound
                ),
            });
        }
        let field = PrimeField::new_unchecked(q);
        let evaluator = problem.evaluator(&field);
        let values: Vec<u64> = (0..=spec.degree_bound as u64).map(|x| evaluator.eval(x)).collect();
        let poly = interpolate_consecutive(&field, &values);
        proofs.push(PrimeProof { modulus: q, coefficients: poly.into_coeffs() });
    }
    Ok(proofs)
}

/// Arthur's side: structural checks plus `trials` random spot checks per
/// prime proof.
///
/// # Errors
///
/// * [`CamelotError::BadConfiguration`] if the spec admits no prime walk;
/// * [`CamelotError::MalformedProof`] if the proof set does not match the
///   spec's deterministic prime schedule, or a proof fails
///   [`spot_check`]'s structural checks (degree, modulus, a coefficient
///   not reduced mod its modulus);
/// * [`CamelotError::VerificationFailed`] if any spot check rejects.
pub fn arthur_verify<P: CamelotProblem>(
    problem: &P,
    proofs: &[PrimeProof],
    trials: usize,
    seed: u64,
) -> Result<(), CamelotError> {
    let spec = problem.spec();
    let expected_primes = accumulate_primes(&spec, code_length(&spec, 0))?;
    let got: Vec<u64> = proofs.iter().map(|p| p.modulus).collect();
    if got != expected_primes {
        return Err(CamelotError::MalformedProof {
            reason: format!("prime schedule mismatch: expected {expected_primes:?}, got {got:?}"),
        });
    }
    for proof in proofs {
        let report = spot_check(problem, proof, trials, seed)?;
        if !report.accepted {
            return Err(CamelotError::VerificationFailed { modulus: proof.modulus });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Evaluate, ProofSpec};
    use camelot_ff::{crt_u, Residue};

    /// P(x) = Σ_{i<4} (c_i + x)^2: degree 2, answer Σ c_i^2 at x = 0.
    struct SumSquares {
        cs: Vec<u64>,
    }

    impl CamelotProblem for SumSquares {
        type Output = u128;

        fn spec(&self) -> ProofSpec {
            ProofSpec::new(2, 1 << 20, 80)
        }

        fn evaluator<'a>(&'a self, field: &PrimeField) -> Box<dyn Evaluate + 'a> {
            let f = *field;
            let cs: Vec<u64> = self.cs.iter().map(|&c| f.reduce(c)).collect();
            Box::new(move |x: u64| {
                let x = f.reduce(x);
                cs.iter().fold(0u64, |acc, &c| {
                    let s = f.add(c, x);
                    f.add(acc, f.mul(s, s))
                })
            })
        }

        fn recover(&self, proofs: &[PrimeProof]) -> Result<u128, CamelotError> {
            let residues: Vec<Residue> =
                proofs.iter().map(|p| Residue { modulus: p.modulus, value: p.eval(0) }).collect();
            crt_u(&residues)
                .to_u128()
                .ok_or_else(|| CamelotError::RecoveryFailed { reason: "overflow".into() })
        }
    }

    #[test]
    fn merlin_supplies_a_proof_arthur_accepts() {
        let problem = SumSquares { cs: vec![1 << 20, 3, 5, 1 << 19] };
        let proofs = merlin_prove(&problem).unwrap();
        arthur_verify(&problem, &proofs, 8, 42).unwrap();
        let expect: u128 = problem.cs.iter().map(|&c| (c as u128) * (c as u128)).sum();
        assert_eq!(problem.recover(&proofs).unwrap(), expect);
    }

    #[test]
    fn arthur_rejects_a_lying_merlin() {
        let problem = SumSquares { cs: vec![10, 20] };
        let mut proofs = merlin_prove(&problem).unwrap();
        // Merlin fudges one coefficient of one prime proof.
        let f = PrimeField::new_unchecked(proofs[0].modulus);
        proofs[0].coefficients[0] = f.add(proofs[0].coefficients[0], 1);
        assert!(matches!(
            arthur_verify(&problem, &proofs, 8, 42),
            Err(CamelotError::VerificationFailed { .. })
        ));
    }

    #[test]
    fn arthur_rejects_wrong_prime_schedule() {
        let problem = SumSquares { cs: vec![1] };
        let mut proofs = merlin_prove(&problem).unwrap();
        proofs.pop();
        assert!(matches!(
            arthur_verify(&problem, &proofs, 1, 0),
            Err(CamelotError::MalformedProof { .. })
        ));
    }
}
