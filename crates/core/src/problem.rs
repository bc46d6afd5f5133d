//! The problem contract: what it takes to be a Camelot algorithm.
//!
//! §1.6 of the paper: *“To design a Camelot algorithm, all it takes is to
//! come up with the proof polynomial `P` and a fast evaluation algorithm
//! for `P`.”* A [`CamelotProblem`] supplies exactly those two things plus
//! the bookkeeping the engine needs (degree bound, modulus constraints,
//! value bound for CRT) and the problem-specific *recovery* map from
//! decoded proof coefficients back to the combinatorial answer.

use crate::error::CamelotError;
use camelot_cluster::{EvalProgram, PreparedProgram};
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
    /// ([`EvalProgram`]): what a process-spanning
    /// broadcast backend ships to its `camelot-node` workers so each
    /// reconstructs the evaluation from the task message alone. The
    /// default `None` restricts rounds to in-process backends — most
    /// proof polynomials are exactly what the cluster is computing, so
    /// no coordinator could serialize them upfront. A round whose
    /// polynomials all have programs evaluates the programs on every
    /// backend, the in-process one included, so a program must describe
    /// exactly the polynomial `eval` computes.
    fn program(&self) -> Option<EvalProgram> {
        None
    }
}

impl<F: Fn(u64) -> u64 + Sync> Evaluate for F {
    fn eval(&self, x0: u64) -> u64 {
        self(x0)
    }
}

/// An explicit polynomial with its coefficients reduced once: Horner on
/// the coefficients, shippable to workers as its own program.
impl Evaluate for PreparedProgram {
    fn eval(&self, x0: u64) -> u64 {
        PreparedProgram::eval(self, x0)
    }

    fn program(&self) -> Option<EvalProgram> {
        Some(PreparedProgram::program(self))
    }
}

/// A decoded proof for one prime modulus: the message the Reed–Solomon
/// codeword carried.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PrimeProof {
    /// The prime modulus `q`.
    pub modulus: u64,
    /// Little-endian coefficients `p_0, …, p_d` of `P(x) mod q` (trailing
    /// zeros may be trimmed). Every coefficient is reduced, `p_k < q`:
    /// a decode produces reduced coefficients, [`Certificate::from_wire`]
    /// and [`crate::spot_check`] refuse any other, and [`PrimeProof::eval`]
    /// is only defined on them.
    ///
    /// [`Certificate::from_wire`]: crate::Certificate::from_wire
    pub coefficients: Vec<u64>,
}

impl PrimeProof {
    /// Evaluates the proof polynomial at `x` (which may be unreduced) by
    /// Horner's rule — the right-hand side of the verification identity
    /// (2) in the paper — through the four-chain
    /// [`PrimeField::horner`] kernel.
    #[must_use]
    pub fn eval(&self, x: u64) -> u64 {
        PrimeField::new_unchecked(self.modulus).horner(&self.coefficients, x)
    }

    /// `Σ_{x=start}^{start+count-1} P(x) (mod q)` — the recovery map used
    /// by every "sum the evaluations" design (Theorems 1, 3, 8, 9, 12:
    /// the answer is `Σ_{x ∈ [R]} P(x)` or `Σ_{x < 2^{n/2}} P(x)`). The
    /// points are consecutive in `Z_q`: `x` starts at `start mod q` and
    /// steps by one modulo `q`.
    #[must_use]
    pub fn sum_eval_consecutive(&self, start: u64, count: u64) -> u64 {
        let field = PrimeField::new_unchecked(self.modulus);
        let mut x = field.reduce(start);
        let mut acc = 0u64;
        for _ in 0..count {
            acc = field.add(acc, field.horner(&self.coefficients, x));
            x = field.add(x, 1);
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

    /// The serial Horner chain the kernel replaced: one Barrett
    /// `mul_add` per coefficient.
    fn serial_eval(p: &PrimeProof, x: u64) -> u64 {
        let field = PrimeField::new_unchecked(p.modulus);
        let x = field.reduce(x);
        p.coefficients.iter().rev().fold(0, |acc, &c| field.mul_add(c, acc, x))
    }

    /// The first prime above `2^61`, an NTT prime there, and the largest
    /// prime below `MAX_MODULUS` — the last leaves the lazy adds the
    /// least headroom.
    fn moduli() -> [u64; 3] {
        let mut top = camelot_ff::MAX_MODULUS - 1;
        while !camelot_ff::is_prime_u64(top) {
            top -= 2;
        }
        [camelot_ff::next_prime(1 << 61), camelot_ff::ntt_prime(1 << 61, 12).0, top]
    }

    fn random_proof(modulus: u64, len: usize, seed: u64) -> PrimeProof {
        let field = PrimeField::new_unchecked(modulus);
        let mut rng = camelot_ff::SplitMix64::new(seed);
        PrimeProof { modulus, coefficients: (0..len).map(|_| field.sample(&mut rng)).collect() }
    }

    /// Every ragged top block of the four chains (0–9 coefficients), the
    /// catalogue's proof sizes, points at and around the field's ends,
    /// and runs of consecutive points that cross `q` or `2^64`, against
    /// points reduced in `u128`.
    #[test]
    fn eval_and_sums_match_the_serial_chain() {
        for q in moduli() {
            let field = PrimeField::new_unchecked(q);
            for len in (0..=9).chain([757, 1027, 2049]) {
                let p = random_proof(q, len, q ^ len as u64);
                for x in [0, 1, q - 1, q, q + 1, u64::MAX - 2, u64::MAX] {
                    assert_eq!(p.eval(x), serial_eval(&p, x), "q = {q}, len = {len}, x = {x}");
                    let expect = (0..5).fold(0, |acc, i| {
                        let point = ((u128::from(x) + i) % u128::from(q)) as u64;
                        field.add(acc, serial_eval(&p, point))
                    });
                    assert_eq!(
                        p.sum_eval_consecutive(x, 5),
                        expect,
                        "q = {q}, len = {len}, x = {x}"
                    );
                }
            }
        }
    }

    #[test]
    fn closures_are_evaluators() {
        let field = PrimeField::new(13).unwrap();
        let ev: Box<dyn Evaluate> = Box::new(move |x: u64| field.mul(x, x));
        assert_eq!(ev.eval(5), 12);
    }
}
