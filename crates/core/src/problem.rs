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
use camelot_poly::PowerSumRoute;

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

/// [`PrimeProof::sum_eval_consecutive`] builds a run's power sums by
/// transform when Horner's `count · len` steps exceed this many per
/// transform point ([`camelot_poly::sum_transform_len`], about `2·len`):
/// what a first sum over a run costs. The `consecutive_sum` rows of
/// `BENCH_algebra.json` put the breakeven, `breakeven_count · (d + 1) /
/// transform_len`, at 18–32 steps (median 26) for degrees `2^8` to
/// `2^14`; inside `catalogue_inproc`'s recovery, where node evaluation
/// has evicted the tables and twiddles, it was 24–28 (triangles,
/// permanent and cliques at 145, 757 and 1027 coefficients; 2-core
/// x86-64 VM).
const SUM_STEPS_PER_TRANSFORM_POINT: u128 = 28;

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
    ///
    /// Past a crossover, and on the second sighting of a run below it,
    /// the sum is [`camelot_poly::sum_by_power_sums`]: the dot product
    /// of the coefficients with the run's power sums, built the first
    /// time they pay over the modulus, and cached. Where the modulus has
    /// a transform of the length needed (every prime of the engine's
    /// walk has), they cost one forward and one inverse transform by
    /// Faulhaber's formula, and the crossover is Horner's `count · len`
    /// steps against 28 per transform point, 55–110 points by the proof
    /// length. Elsewhere (certificates from before the walk kept only
    /// NTT-friendly primes) they cost the telescoping recurrence's
    /// `len²/2` multiply-adds, and the crossover is `count > len/2`.
    /// Below the crossover, and on a modulus not above `len + 1`, the
    /// sum is one [`PrimeField::horner`] pass per point. So on every
    /// modulus above `len + 1` a sum costs at most a bounded multiple of
    /// `len²` steps, whatever the count. All paths return the same field
    /// element.
    #[must_use]
    pub fn sum_eval_consecutive(&self, start: u64, count: u64) -> u64 {
        self.sum_by_power_sums(start, count).unwrap_or_else(|| self.sum_by_horner(start, count))
    }

    /// The power-sum path of [`PrimeProof::sum_eval_consecutive`], or
    /// `None` where the dispatch runs Horner.
    fn sum_by_power_sums(&self, start: u64, count: u64) -> Option<u64> {
        let field = PrimeField::new_unchecked(self.modulus);
        let build = self.power_sums_pay(&field, count)?;
        camelot_poly::sum_by_power_sums(&field, &self.coefficients, start, count, build)
    }

    /// Whether a first sum over a `count`-point run is past the
    /// crossover, where building the run's power sums costs less than
    /// Horner; `None` where the modulus admits no power sums.
    fn power_sums_pay(&self, field: &PrimeField, count: u64) -> Option<bool> {
        let len = self.coefficients.len() as u128;
        let first = match camelot_poly::power_sum_route(field, self.coefficients.len())? {
            PowerSumRoute::Transform(n) => SUM_STEPS_PER_TRANSFORM_POINT * n as u128,
            // Its `len²/2` dot-product steps took 0.85–1.27 × as long as
            // `len²/2` Horner steps at 65 to 2049 coefficients (2-core
            // x86-64 VM).
            PowerSumRoute::Recurrence => len * len / 2,
        };
        Some(u128::from(count) * len > first)
    }

    /// The Horner path: one four-chain pass per point.
    fn sum_by_horner(&self, start: u64, count: u64) -> u64 {
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

    /// The first prime `q ≥ 2^61` with `q − 1` divisible by `2^k` and
    /// by no higher power of two: transforms up to length `2^k`, none
    /// longer.
    fn prime_of_order(k: u32) -> u64 {
        (0u64..)
            .map(|m| (((1u64 << 61) >> k) + 2 * m + 1) << k | 1)
            .find(|&q| camelot_ff::is_prime_u64(q))
            .expect("a prime of every order below 2^61")
    }

    /// A proof of `len` coefficients mod `q` and its value at any point.
    /// Over the small primes and up to 9 coefficients it is random and
    /// valued by the serial chain. Past that it is `c·(x − r)^(len−1)`
    /// plus a random 9-coefficient tail: dense, but valued in
    /// `O(log len)`, so runs of `4·len` points stay cheap to sum in an
    /// unoptimised build.
    fn sum_case(q: u64, len: usize) -> (PrimeProof, Box<dyn Fn(u64) -> u64>) {
        if len <= 9 || q < 1 << 61 {
            let p = random_proof(q, len, q ^ len as u64);
            return (p.clone(), Box::new(move |x| serial_eval(&p, x)));
        }
        let field = PrimeField::new_unchecked(q);
        let tail = random_proof(q, 9, q ^ len as u64);
        let mut rng = camelot_ff::SplitMix64::new(q.rotate_left(7) ^ len as u64);
        let (c, r) = (field.sample(&mut rng).max(1), field.sample(&mut rng));
        let e = len as u64 - 1;
        // c·C(e, k)·(−r)^(e−k), from the top coefficient down.
        let mut inverses: Vec<u64> = (1..=e).collect();
        field.inv_batch(&mut inverses);
        let mut binom = vec![1u64; len];
        for k in 0..e as usize {
            binom[k + 1] = field.mul(field.mul(binom[k], e - k as u64), inverses[k]);
        }
        let neg_r = field.neg(r);
        let mut coefficients = vec![0u64; len];
        let mut power = c;
        for k in (0..len).rev() {
            coefficients[k] = field.mul(power, binom[k]);
            power = field.mul(power, neg_r);
        }
        for (k, &t) in tail.coefficients.iter().enumerate() {
            coefficients[k] = field.add(coefficients[k], t);
        }
        let value = move |x: u64| {
            let top = field.mul(c, field.pow(field.sub(field.reduce(x), r), e));
            field.add(top, serial_eval(&tail, x))
        };
        (PrimeProof { modulus: q, coefficients }, Box::new(value))
    }

    /// The power-sum paths and the Horner loop return the same field
    /// element at every proof length, count and start: on primes whose
    /// transforms serve the length, where the dispatch must take the
    /// transform once the count is past the crossover; on primes whose
    /// transforms are too short and on the first prime above `2^61`,
    /// which has none, where it must take the recurrence instead; and on
    /// primes at most the proof length, where the factorials are not
    /// invertible and only Horner applies. The reference sums the proof's
    /// values along runs of consecutive points that cross `q` and
    /// `2^64`, and at every start the proof's Horner value is checked
    /// against them. Starts `0` and `q`, `1` and `q + 1` begin the same
    /// runs, so every run below the crossover is summed twice, the
    /// second time from its power sums. Where the recurrence serves 1027
    /// coefficients or more, only counts up to 5 are summed (its
    /// `len²/2` steps take seconds in an unoptimised build); at 257 it
    /// sums every count.
    #[test]
    fn transform_sums_match_horner_sums() {
        let ntt = (11..=14).map(|k| (prime_of_order(k), k));
        let big = ntt.chain([(camelot_ff::next_prime(1 << 61), 0)]);
        let lens = (0..=9usize).chain([257, 1027, 2049, 4097]);
        let cases = big.flat_map(|(q, order)| lens.clone().map(move |len| (q, order, len))).chain(
            [97u64, 101].into_iter().flat_map(|q| {
                let q1 = q as usize - 1;
                (q1..q1 + 3).map(move |len| (q, 0, len))
            }),
        );
        for (q, order, len) in cases {
            let field = PrimeField::new_unchecked(q);
            let (p, value) = sum_case(q, len);
            // The transform length each listed size needs: 2^11 up to
            // 1027 coefficients (five of them wrap and are repaired),
            // 2^12 at 2049, 2^13 at 4097.
            let needed = match len {
                0..=1027 => 11,
                2049 => 12,
                _ => 13,
            };
            let invertible = q > len as u64 + 1;
            let served = order >= needed && invertible;
            let route = camelot_poly::power_sum_route(&field, len);
            if len >= 257 {
                let expect = match (served, invertible) {
                    (true, _) => {
                        Some(PowerSumRoute::Transform(camelot_poly::sum_transform_len(len)))
                    }
                    (false, true) => Some(PowerSumRoute::Recurrence),
                    (false, false) => None,
                };
                assert_eq!(route, expect, "q = {q}, len = {len}");
            }
            let n = len as u64;
            let all_counts = [0, 1, 5, n / 3, n, 4 * n];
            let counts = if served || len < 1027 { &all_counts[..] } else { &all_counts[..3] };
            let max = counts.iter().copied().max().unwrap_or(0);
            // Values along two runs; every start below is one of their
            // first three points.
            let runs: Vec<(u64, Vec<u64>)> = [q - 1, u64::MAX - 2]
                .iter()
                .map(|&base| {
                    let run = (0..max + 2)
                        .map(|i| value(((u128::from(base) + u128::from(i)) % u128::from(q)) as u64))
                        .collect();
                    (base % q, run)
                })
                .collect();
            for start in [0, 1, q - 1, q, q + 1, u64::MAX - 2, u64::MAX] {
                let (base, run) = runs
                    .iter()
                    .find(|(base, _)| (start % q + q - base) % q <= 2)
                    .expect("start lies on a run");
                let offset = ((start % q + q - base) % q) as usize;
                assert_eq!(p.eval(start), run[offset], "q = {q}, len = {len}, x = {start}");
                for &count in counts {
                    let expect = run[offset..offset + count as usize]
                        .iter()
                        .fold(0, |s, &v| field.add(s, v));
                    let at = format!("q = {q}, len = {len}, start = {start}, count = {count}");
                    assert_eq!(p.sum_eval_consecutive(start, count), expect, "{at}");
                    let pays = p.power_sums_pay(&field, count);
                    assert_eq!(pays.is_some(), invertible, "{at}");
                    if invertible && len >= 257 && count >= n {
                        assert_eq!(pays, Some(true), "power sums not built: {at}");
                    }
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
