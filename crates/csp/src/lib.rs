//! # camelot-csp — enumerating 2-CSP assignments by satisfied count
//!
//! Theorem 12 / Appendix B of *“How Proofs are Prepared at Camelot”*.
//! Partition the `n` variables into six blocks `Z_1..Z_6` of `n/6` each;
//! every binary constraint has a unique *type* `(s, t)` (the
//! lexicographically least pair of blocks covering its variables). With
//! `χ^{(s,t)}_{a_s a_t}(w) = w^{f^{(s,t)}(a_s, a_t)}` counting satisfied
//! constraints of each type, the `(6 2)`-linear form over these 15
//! matrices is the generating polynomial
//!
//! ```text
//! X_{(6 2)}(w) = Σ_k (#assignments satisfying exactly k constraints) w^k,
//! ```
//!
//! recovered by evaluating the Camelot clique machinery of §5 at `m + 1`
//! integer points `w_0` and interpolating over the integers. Proof size
//! and per-node time are `O*(σ^{(ω+ε)n/6})`.

mod weighted;

pub use weighted::{enumerate_by_satisfied_weight, WeightedCsp2};

use camelot_cliques::{pair_index, Form62, ProofPlan};
use camelot_core::{CamelotError, CamelotProblem, Engine, Evaluate, PrimeProof, ProofSpec};
use camelot_ff::{crt_u, IBig, PrimeField, Residue, UBig};
use camelot_linalg::{MatMulTensor, Matrix};
use camelot_partition::interpolate_integer;

/// A binary constraint over two distinct variables with an explicit
/// allowed-pairs relation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Constraint {
    /// First variable (must be `< v`).
    pub u: usize,
    /// Second variable.
    pub v: usize,
    /// Row-major `σ × σ` table: `allowed[a * σ + b]` is true iff the
    /// assignment `(u ← a, v ← b)` satisfies the constraint.
    pub allowed: Vec<bool>,
}

/// A 2-CSP instance with `n` variables over an alphabet of size `sigma`.
#[derive(Clone, Debug)]
pub struct Csp2 {
    n: usize,
    sigma: usize,
    constraints: Vec<Constraint>,
}

impl Csp2 {
    /// Creates an instance.
    ///
    /// # Panics
    ///
    /// Panics unless `n` is a positive multiple of 6, `sigma >= 2`, every
    /// constraint has `u < v < n` and a `σ²`-sized table.
    #[must_use]
    pub fn new(n: usize, sigma: usize, constraints: Vec<Constraint>) -> Self {
        assert!(n > 0 && n.is_multiple_of(6), "variable count must be a positive multiple of 6");
        assert!(sigma >= 2, "alphabet needs at least two symbols");
        for c in &constraints {
            assert!(c.u < c.v && c.v < n, "constraint variables out of order/range");
            assert_eq!(c.allowed.len(), sigma * sigma, "relation table must be σ²");
        }
        Csp2 { n, sigma, constraints }
    }

    /// Deterministic random instance with `density_percent`% allowed
    /// pairs per constraint.
    #[must_use]
    pub fn random(n: usize, sigma: usize, m: usize, density_percent: u64, seed: u64) -> Self {
        use camelot_ff::{RngLike, SplitMix64};
        let mut rng = SplitMix64::new(seed);
        let mut constraints = Vec::with_capacity(m);
        for _ in 0..m {
            let u = (rng.next_u64() % n as u64) as usize;
            let mut v = (rng.next_u64() % n as u64) as usize;
            while v == u {
                v = (rng.next_u64() % n as u64) as usize;
            }
            let (u, v) = (u.min(v), u.max(v));
            let allowed =
                (0..sigma * sigma).map(|_| rng.next_u64() % 100 < density_percent).collect();
            constraints.push(Constraint { u, v, allowed });
        }
        Csp2::new(n, sigma, constraints)
    }

    /// Number of constraints.
    #[must_use]
    pub fn constraint_count(&self) -> usize {
        self.constraints.len()
    }

    /// Number of variables.
    #[must_use]
    pub fn vars(&self) -> usize {
        self.n
    }

    /// Alphabet size.
    #[must_use]
    pub fn sigma(&self) -> usize {
        self.sigma
    }

    /// Per-constraint satisfaction flags for a full assignment.
    #[must_use]
    pub fn satisfied_flags(&self, assignment: &[usize]) -> Vec<bool> {
        self.constraints
            .iter()
            .map(|c| c.allowed[assignment[c.u] * self.sigma + assignment[c.v]])
            .collect()
    }

    /// Number of constraints the full assignment satisfies.
    #[must_use]
    pub fn satisfied_count(&self, assignment: &[usize]) -> usize {
        self.constraints
            .iter()
            .filter(|c| c.allowed[assignment[c.u] * self.sigma + assignment[c.v]])
            .count()
    }

    /// Ground truth histogram: entry `k` counts assignments satisfying
    /// exactly `k` constraints (brute force over `σ^n`).
    ///
    /// # Panics
    ///
    /// Panics if `σ^n > 2^24`.
    #[must_use]
    pub fn reference_histogram(&self) -> Vec<u64> {
        let total = (self.sigma as u64).pow(self.n as u32);
        assert!(total <= 1 << 24, "brute force space too large");
        let mut hist = vec![0u64; self.constraints.len() + 1];
        let mut assignment = vec![0usize; self.n];
        for code in 0..total {
            let mut c = code;
            for slot in assignment.iter_mut() {
                *slot = (c % self.sigma as u64) as usize;
                c /= self.sigma as u64;
            }
            hist[self.satisfied_count(&assignment)] += 1;
        }
        hist
    }

    /// Block of a variable (`n/6` variables per block).
    fn block_of(&self, var: usize) -> usize {
        var / (self.n / 6)
    }

    /// The unique type `(s, t)` (1-based, `s < t`) of a constraint.
    fn type_of(&self, c: &Constraint) -> (usize, usize) {
        let (gu, gv) = (self.block_of(c.u), self.block_of(c.v));
        if gu != gv {
            (gu.min(gv) + 1, gu.max(gv) + 1)
        } else if gu == 0 {
            (1, 2)
        } else {
            (1, gu + 1)
        }
    }

    /// Per-block assignment count `N = σ^{n/6}`.
    fn block_assignments(&self) -> usize {
        self.sigma.pow((self.n / 6) as u32)
    }

    /// Value of variable `var` under the pair of block assignments
    /// `(s, a_s)` and `(t, a_t)` (1-based block labels).
    fn var_value(&self, var: usize, s: usize, a_s: usize, t: usize, a_t: usize) -> usize {
        let block = self.block_of(var);
        let width = self.n / 6;
        let offset = var - block * width;
        let a = if block + 1 == s {
            a_s
        } else {
            debug_assert_eq!(block + 1, t, "variable outside its constraint type");
            a_t
        };
        a / self.sigma.pow(offset as u32) % self.sigma
    }

    /// `f^{(s,t)}(a_s, a_t)`: total weight of satisfied constraints of
    /// type `(s,t)` (unit weights give the plain count).
    fn satisfied_of_type(
        &self,
        weights: &[u64],
        s: usize,
        t: usize,
        a_s: usize,
        a_t: usize,
    ) -> u64 {
        self.constraints
            .iter()
            .zip(weights)
            .filter(|(c, _)| self.type_of(c) == (s, t))
            .filter(|(c, _)| {
                let va = self.var_value(c.u, s, a_s, t, a_t);
                let vb = self.var_value(c.v, s, a_s, t, a_t);
                c.allowed[va * self.sigma + vb]
            })
            .map(|(_, &w)| w)
            .sum()
    }
}

/// The Camelot problem computing `X_{(6 2)}(w_0)` for one integer weight
/// `w_0`.
#[derive(Clone, Debug)]
pub struct CspWeightValue {
    csp: Csp2,
    weights: Vec<u64>,
    w0: u64,
    tensor: MatMulTensor,
    t_pow: usize,
    padded: usize,
    /// `exponents[pair_index(s, t)][a * padded + b] = f^{(s,t)}(a, b)`,
    /// `None` on the zero padding — the modulus-independent half of the
    /// 15 matrices `χ^{(s,t)} = w0^{f^{(s,t)}}`.
    exponents: Vec<Vec<Option<u64>>>,
    plan: ProofPlan,
}

impl CspWeightValue {
    /// Creates the problem (Strassen tensor, unit weights).
    #[must_use]
    pub fn new(csp: Csp2, w0: u64) -> Self {
        let weights = vec![1; csp.constraint_count()];
        Self::with_weights(csp, weights, w0)
    }

    /// Creates the problem with per-constraint nonnegative integer
    /// weights (the remark after Theorem 12): the generating polynomial
    /// tracks total satisfied *weight*.
    ///
    /// # Panics
    ///
    /// Panics if the weight count does not match the constraint count.
    #[must_use]
    pub fn with_weights(csp: Csp2, weights: Vec<u64>, w0: u64) -> Self {
        assert_eq!(weights.len(), csp.constraint_count(), "one weight per constraint");
        let tensor = MatMulTensor::strassen();
        let real = csp.block_assignments();
        let mut padded = 1usize;
        let mut t_pow = 0usize;
        while padded < real {
            padded *= tensor.n0();
            t_pow += 1;
        }
        let mut exponents = vec![Vec::new(); 15];
        for s in 1..6 {
            for t in s + 1..=6 {
                exponents[pair_index(s, t)] = (0..padded * padded)
                    .map(|ab| {
                        let (a, b) = (ab / padded, ab % padded);
                        (a < real && b < real).then(|| csp.satisfied_of_type(&weights, s, t, a, b))
                    })
                    .collect();
            }
        }
        let plan = ProofPlan::new(&tensor, t_pow);
        CspWeightValue { csp, weights, w0, tensor, t_pow, padded, exponents, plan }
    }

    fn rank(&self) -> usize {
        self.tensor.r0().pow(self.t_pow as u32)
    }

    fn value_bits(&self) -> u64 {
        let total_weight = self.weights.iter().sum::<u64>() as f64;
        let assignments = (self.csp.n as f64) * (self.csp.sigma as f64).log2();
        (assignments + total_weight * ((self.w0 + 1) as f64).log2() + 2.0).ceil() as u64
    }
}

impl CamelotProblem for CspWeightValue {
    type Output = UBig;

    fn spec(&self) -> ProofSpec {
        let degree = Form62::proof_degree_bound(&self.tensor, self.t_pow);
        ProofSpec {
            degree_bound: degree,
            min_modulus: (degree as u64 + 2).max(self.rank() as u64 + 1),
            value_bits: self.value_bits(),
        }
    }

    fn evaluator<'a>(&'a self, field: &PrimeField) -> Box<dyn Evaluate + 'a> {
        let f = *field;
        let w0 = f.reduce(self.w0);
        // One matrix per pair: χ^{(s,t)}[a_s][a_t] = w0^{f^{(s,t)}},
        // zero-padded (padding zeroes the whole product for any tuple
        // touching a padded index).
        let mats = self
            .exponents
            .iter()
            .map(|exps| {
                Matrix::from_fn(self.padded, self.padded, |a, b| {
                    exps[a * self.padded + b].map_or(0, |e| f.pow(w0, e))
                })
            })
            .collect();
        let form = Form62::new(mats);
        let basis = self.plan.basis(field);
        Box::new(move |x0: u64| form.proof_at(&f, &self.plan, &basis, x0))
    }

    fn recover(&self, proofs: &[PrimeProof]) -> Result<UBig, CamelotError> {
        let r_total = self.rank() as u64;
        let residues: Vec<Residue> = proofs.iter().map(|p| p.sum_residue(1, r_total)).collect();
        Ok(crt_u(&residues))
    }
}

/// The full Theorem 12 pipeline: the histogram of assignments by number
/// of satisfied constraints.
///
/// # Errors
///
/// Propagates engine failures from the per-weight runs.
pub fn enumerate_by_satisfied(csp: &Csp2, engine: &Engine) -> Result<Vec<UBig>, CamelotError> {
    let m = csp.constraint_count();
    let mut values = Vec::with_capacity(m + 1);
    for w0 in 0..=m as u64 {
        let problem = CspWeightValue::new(csp.clone(), w0);
        values.push(IBig::from_parts(false, engine.run(&problem)?.output));
    }
    let coeffs = interpolate_integer(&values, 0);
    let mut hist: Vec<UBig> = coeffs
        .into_iter()
        .map(|c| {
            debug_assert!(!c.is_negative(), "histogram entries are counts");
            c.magnitude().clone()
        })
        .collect();
    hist.resize(m + 1, UBig::zero());
    Ok(hist)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> Engine {
        Engine::sequential(4, 2)
    }

    fn hist_u64(h: &[UBig]) -> Vec<u64> {
        h.iter().map(|v| v.to_u64().unwrap()).collect()
    }

    #[test]
    fn histogram_matches_brute_force_binary() {
        for seed in 0..3 {
            let csp = Csp2::random(6, 2, 4, 50, seed);
            let expect = csp.reference_histogram();
            let hist = enumerate_by_satisfied(&csp, &engine()).unwrap();
            assert_eq!(hist_u64(&hist), expect, "seed {seed}");
        }
    }

    #[test]
    fn histogram_matches_brute_force_ternary() {
        let csp = Csp2::random(6, 3, 3, 40, 7);
        let expect = csp.reference_histogram();
        let hist = enumerate_by_satisfied(&csp, &engine()).unwrap();
        assert_eq!(hist_u64(&hist), expect);
    }

    #[test]
    fn no_constraints_everything_satisfies_zero() {
        let csp = Csp2::new(6, 2, vec![]);
        let hist = enumerate_by_satisfied(&csp, &engine()).unwrap();
        assert_eq!(hist_u64(&hist), vec![64]);
    }

    #[test]
    fn always_true_constraint_shifts_histogram() {
        let allowed = vec![true; 4];
        let csp = Csp2::new(6, 2, vec![Constraint { u: 0, v: 3, allowed }]);
        let hist = enumerate_by_satisfied(&csp, &engine()).unwrap();
        assert_eq!(hist_u64(&hist), vec![0, 64]);
    }

    #[test]
    fn same_block_constraints_are_typed_correctly() {
        // 12 variables: blocks of 2; a constraint inside block 0 and one
        // inside block 3 exercise both same-block branches. Use brute
        // force histogram as the oracle.
        let eq = |sigma: usize| {
            (0..sigma * sigma).map(|i| i / sigma == i % sigma).collect::<Vec<bool>>()
        };
        let csp = Csp2::new(
            12,
            2,
            vec![
                Constraint { u: 0, v: 1, allowed: eq(2) },
                Constraint { u: 6, v: 7, allowed: eq(2) },
                Constraint { u: 2, v: 9, allowed: eq(2) },
            ],
        );
        let expect = csp.reference_histogram();
        let hist = enumerate_by_satisfied(&csp, &engine()).unwrap();
        assert_eq!(hist_u64(&hist), expect);
    }

    #[test]
    fn total_mass_is_sigma_to_n() {
        let csp = Csp2::random(6, 2, 5, 60, 11);
        let hist = enumerate_by_satisfied(&csp, &engine()).unwrap();
        let total: u64 = hist_u64(&hist).iter().sum();
        assert_eq!(total, 64);
    }
}
