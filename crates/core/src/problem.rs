//! The problem contract: what it takes to be a Camelot algorithm.
//!
//! §1.6 of the paper: *“To design a Camelot algorithm, all it takes is to
//! come up with the proof polynomial `P` and a fast evaluation algorithm
//! for `P`.”* A [`CamelotProblem`] supplies exactly those two things plus
//! the bookkeeping the engine needs (degree bound, modulus constraints,
//! value bound for CRT) and the problem-specific *recovery* map from
//! decoded proof coefficients back to the combinatorial answer.

use crate::error::CamelotError;
use camelot_ff::PrimeField;

/// Static parameters of a proof polynomial, derivable by every node from
/// the common input (§1.3 of the paper assumes `d` and `q` are easy to
/// compute from the input).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProofSpec {
    /// Upper bound `d` on the degree of `P(x)`.
    pub degree_bound: usize,
    /// Lower bound on usable prime moduli (e.g. `q > 3R` for the clique
    /// polynomial, `q > n(t+1)` for Hamming, …).
    pub min_modulus: u64,
    /// The recovered integer quantities are bounded in magnitude by
    /// `2^value_bits`; the engine provisions enough distinct primes for
    /// Chinese Remainder reconstruction (footnote 5 of the paper).
    pub value_bits: u64,
}

impl ProofSpec {
    /// Convenience constructor.
    #[must_use]
    pub fn new(degree_bound: usize, min_modulus: u64, value_bits: u64) -> Self {
        ProofSpec { degree_bound, min_modulus, value_bits }
    }
}

/// A per-prime evaluation oracle for the proof polynomial: the node-side
/// workhorse.
///
/// One `Evaluate` value is built per prime modulus, and then `eval` is
/// called once per assigned evaluation point. The verifier calls the
/// *same* oracle for its spot checks, which is the paper's guarantee that
/// verification costs what one node contributes.
///
/// The contract every catalogue evaluator keeps, and the per-layer
/// benchmark (`problem.evaluator_build_s`, `*.eval_point_us`) holds them
/// to — work is done at the outermost place it can be:
///
/// * **the problem** owns whatever depends on neither the modulus nor the
///   point (compiled Yates plans, index maps, 0/1 matrices, independence
///   tables, split sparse supports) — paid once per problem, outside
///   every timed path but set-up;
/// * **[`CamelotProblem::evaluator`]** does the `mod q` set-up (reduced
///   coefficients and matrices, the prepared Lagrange basis) and costs
///   less than one evaluation: the engine builds an evaluator per prime
///   per run, and `redeem` builds one to evaluate two points;
/// * **`eval`** touches only state that depends on `x0`, and allocates at
///   most one scratch buffer per call. It takes `&self` from several
///   threads at once, so scratch is per call, never shared behind a lock.
pub trait Evaluate: Sync {
    /// Computes `P(x0) mod q`.
    fn eval(&self, x0: u64) -> u64;

    /// A wire-expressible description of this oracle, when one exists
    /// ([`camelot_cluster::EvalProgram`]): what a process-spanning
    /// broadcast backend ships to its `camelot-node` workers so each
    /// reconstructs the evaluation from the task message alone. The
    /// default `None` restricts rounds to in-process backends — most
    /// proof polynomials are exactly what the cluster is computing, so
    /// no coordinator could serialize them upfront. A round whose
    /// polynomials all have programs evaluates the programs on every
    /// backend, the in-process one included, so a program must describe
    /// exactly the polynomial `eval` computes.
    fn program(&self) -> Option<camelot_cluster::EvalProgram> {
        None
    }
}

impl<F: Fn(u64) -> u64 + Sync> Evaluate for F {
    fn eval(&self, x0: u64) -> u64 {
        self(x0)
    }
}

/// A decoded proof for one prime modulus: the message the Reed–Solomon
/// codeword carried.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PrimeProof {
    /// The prime modulus `q`.
    pub modulus: u64,
    /// Little-endian coefficients `p_0, …, p_d` of `P(x) mod q` (trailing
    /// zeros may be trimmed).
    pub coefficients: Vec<u64>,
}

impl PrimeProof {
    /// Evaluates the proof polynomial at `x` by Horner's rule — the
    /// right-hand side of the verification identity (2) in the paper.
    #[must_use]
    pub fn eval(&self, x: u64) -> u64 {
        let field = PrimeField::new_unchecked(self.modulus);
        let x = field.reduce(x);
        let mut acc = 0u64;
        for &c in self.coefficients.iter().rev() {
            acc = field.mul_add(c, acc, x);
        }
        acc
    }

    /// `Σ_{x=start}^{start+count-1} P(x) (mod q)` — the recovery map used
    /// by every "sum the evaluations" design (Theorems 1, 3, 8, 9, 12:
    /// the answer is `Σ_{x ∈ [R]} P(x)` or `Σ_{x < 2^{n/2}} P(x)`).
    #[must_use]
    pub fn sum_eval_consecutive(&self, start: u64, count: u64) -> u64 {
        let field = PrimeField::new_unchecked(self.modulus);
        let mut acc = 0u64;
        for i in 0..count {
            acc = field.add(acc, self.eval(start.wrapping_add(i)));
        }
        acc
    }

    /// The residue `Σ_{x=start}^{start+count-1} P(x) mod q` packaged for
    /// Chinese Remainder reconstruction.
    #[must_use]
    pub fn sum_residue(&self, start: u64, count: u64) -> camelot_ff::Residue {
        camelot_ff::Residue {
            modulus: self.modulus,
            value: self.sum_eval_consecutive(start, count),
        }
    }

    /// The residue of a single coefficient `p_k` (zero beyond the stored
    /// degree) — the recovery map for designs whose answer *is* one proof
    /// coefficient (Theorems 6, 7, 10).
    #[must_use]
    pub fn coefficient_residue(&self, k: usize) -> camelot_ff::Residue {
        camelot_ff::Residue {
            modulus: self.modulus,
            value: self.coefficients.get(k).copied().unwrap_or(0),
        }
    }
}

/// A problem expressed in the Camelot framework.
pub trait CamelotProblem {
    /// The recovered combinatorial answer (a count, a coefficient vector,
    /// a distribution…).
    type Output;

    /// Proof-polynomial parameters.
    fn spec(&self) -> ProofSpec;

    /// Builds the per-prime evaluation oracle (performing any `mod q`
    /// precomputation once; see [`Evaluate`] for what belongs where).
    fn evaluator<'a>(&'a self, field: &PrimeField) -> Box<dyn Evaluate + 'a>;

    /// Maps decoded per-prime proofs back to the answer (Chinese
    /// Remainder reconstruction plus any problem-specific
    /// postprocessing).
    ///
    /// # Errors
    ///
    /// Returns [`CamelotError::MalformedProof`] or
    /// [`CamelotError::RecoveryFailed`] when the proofs cannot encode any
    /// valid answer.
    fn recover(&self, proofs: &[PrimeProof]) -> Result<Self::Output, CamelotError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prime_proof_horner_matches_manual() {
        let p = PrimeProof { modulus: 97, coefficients: vec![3, 0, 1] }; // 3 + x^2
        assert_eq!(p.eval(0), 3);
        assert_eq!(p.eval(5), 28);
        assert_eq!(p.eval(96), (3 + 96u64 * 96) % 97);
        assert_eq!(p.eval(97), 3); // reduced input
    }

    #[test]
    fn empty_proof_is_zero() {
        let p = PrimeProof { modulus: 101, coefficients: vec![] };
        assert_eq!(p.eval(55), 0);
    }

    #[test]
    fn closures_are_evaluators() {
        let field = PrimeField::new(13).unwrap();
        let ev: Box<dyn Evaluate> = Box::new(move |x: u64| field.mul(x, x));
        assert_eq!(ev.eval(5), 12);
    }
}
