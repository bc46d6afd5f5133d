//! Counting CNF-SAT solutions (Theorem 8(1), §A.2).
//!
//! Split the `v` variables into two halves. For each half-assignment `i`
//! and clause `j`, set `a_ij = 1` (resp. `b_ij = 1`) iff the assignment
//! satisfies *no* literal of the clause within its half. A full
//! assignment `(i1, i2)` satisfies the formula iff rows `i1` of `A` and
//! `i2` of `B` are orthogonal — so #CNFSAT reduces to counting orthogonal
//! pairs over `n = 2^{v/2}` rows and `t = m` columns, giving a Camelot
//! algorithm with proof size and per-node time `O*(2^{v/2})`.

use camelot_core::{CamelotError, CamelotProblem, Evaluate, PrimeProof, ProofSpec};
use camelot_ff::{crt_u, PrimeField, Residue, UBig};
use camelot_poly::ConsecutiveBasis;

/// A CNF formula. Literals are nonzero integers: `+k` is variable `k`,
/// `-k` its negation (variables are 1-based, DIMACS style).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CnfFormula {
    vars: usize,
    clauses: Vec<Vec<i32>>,
}

impl CnfFormula {
    /// Creates a formula.
    ///
    /// # Panics
    ///
    /// Panics on a zero literal or a variable index out of range.
    #[must_use]
    pub fn new(vars: usize, clauses: Vec<Vec<i32>>) -> Self {
        for clause in &clauses {
            for &lit in clause {
                assert!(lit != 0, "literal 0 is invalid");
                assert!(lit.unsigned_abs() as usize <= vars, "literal {lit} out of range");
            }
        }
        CnfFormula { vars, clauses }
    }

    /// Deterministic random k-CNF.
    #[must_use]
    pub fn random_ksat(vars: usize, clauses: usize, k: usize, seed: u64) -> Self {
        use camelot_ff::{RngLike, SplitMix64};
        let mut rng = SplitMix64::new(seed);
        let mut out = Vec::with_capacity(clauses);
        for _ in 0..clauses {
            let mut clause = Vec::with_capacity(k);
            while clause.len() < k {
                let var = (rng.next_u64() % vars as u64) as i32 + 1;
                if clause.iter().any(|&l: &i32| l.abs() == var) {
                    continue;
                }
                let lit = if rng.next_u64().is_multiple_of(2) { var } else { -var };
                clause.push(lit);
            }
            out.push(clause);
        }
        CnfFormula::new(vars, out)
    }

    /// Number of variables.
    #[must_use]
    pub fn vars(&self) -> usize {
        self.vars
    }

    /// Number of clauses.
    #[must_use]
    pub fn clauses(&self) -> &[Vec<i32>] {
        &self.clauses
    }

    /// True if the assignment (bit `k-1` of `assignment` = variable `k`)
    /// satisfies every clause.
    #[must_use]
    pub fn satisfied_by(&self, assignment: u64) -> bool {
        self.clauses.iter().all(|clause| {
            clause.iter().any(|&lit| {
                let var = lit.unsigned_abs() as usize;
                let value = assignment >> (var - 1) & 1 == 1;
                (lit > 0) == value
            })
        })
    }

    /// Ground truth by brute force over all `2^v` assignments.
    ///
    /// # Panics
    ///
    /// Panics if `v > 24`.
    #[must_use]
    pub fn count_solutions_brute(&self) -> u64 {
        assert!(self.vars <= 24, "brute force limited to 24 variables");
        (0u64..1 << self.vars).filter(|&a| self.satisfied_by(a)).count() as u64
    }
}

/// The #CNFSAT Camelot problem.
#[derive(Clone, Debug)]
pub struct CountCnfSat {
    formula: CnfFormula,
    /// Variables after padding the split to an even count.
    padded_vars: usize,
}

impl CountCnfSat {
    /// Creates the problem. An odd variable count is padded with one
    /// unconstrained variable (the doubled count is halved on recovery).
    #[must_use]
    pub fn new(formula: CnfFormula) -> Self {
        let padded_vars = formula.vars + formula.vars % 2;
        CountCnfSat { formula, padded_vars }
    }

    fn half(&self) -> usize {
        self.padded_vars / 2
    }

    /// `true` iff half-assignment `i` satisfies no literal of `clause`
    /// within `[lo, hi)` (1-based variables).
    fn blind_in_half(&self, clause: &[i32], i: u64, lo: usize, hi: usize) -> bool {
        !clause.iter().any(|&lit| {
            let var = lit.unsigned_abs() as usize;
            if var <= lo || var > hi {
                return false;
            }
            let value = i >> (var - 1 - lo) & 1 == 1;
            (lit > 0) == value
        })
    }
}

impl CamelotProblem for CountCnfSat {
    type Output = UBig;

    fn spec(&self) -> ProofSpec {
        let n = 1u64 << self.half();
        let m = self.formula.clauses.len().max(1) as u64;
        ProofSpec {
            degree_bound: ((n - 1) * m) as usize,
            min_modulus: ((n - 1) * m + 2).max(n + 1),
            value_bits: self.padded_vars as u64 + 1,
        }
    }

    fn evaluator<'a>(&'a self, field: &PrimeField) -> Box<dyn Evaluate + 'a> {
        let f = *field;
        let half = self.half();
        let n = 1usize << half;
        let m = self.formula.clauses.len();
        let lagrange = ConsecutiveBasis::new(field, n);
        Box::new(move |x0: u64| {
            // z_j = A_j(x0) by barycentric evaluation over nodes 1..n,
            // with A_j(i) = [assignment i-1 satisfies no first-half
            // literal of clause j].
            let mut scratch = vec![0u64; n + m];
            let (basis, z) = scratch.split_at_mut(n);
            lagrange.basis_at(x0, basis);
            for (i, &w) in basis.iter().enumerate() {
                if w == 0 {
                    continue;
                }
                for (j, clause) in self.formula.clauses.iter().enumerate() {
                    if self.blind_in_half(clause, i as u64, 0, half) {
                        z[j] = f.add(z[j], w);
                    }
                }
            }
            // P(x0) = Σ_{i2} Π_j (1 - b_{i2,j} z_j).
            let mut acc = 0u64;
            for i2 in 0..n as u64 {
                let mut prod = 1u64;
                for (j, clause) in self.formula.clauses.iter().enumerate() {
                    if self.blind_in_half(clause, i2, half, 2 * half) {
                        prod = f.mul(prod, f.sub(1, z[j]));
                        if prod == 0 {
                            break;
                        }
                    }
                }
                acc = f.add(acc, prod);
            }
            acc
        })
    }

    fn recover(&self, proofs: &[PrimeProof]) -> Result<UBig, CamelotError> {
        let n = 1u64 << self.half();
        let residues: Vec<Residue> = proofs.iter().map(|p| p.sum_residue(1, n)).collect();
        let mut total = crt_u(&residues);
        if self.padded_vars != self.formula.vars {
            // The padding variable doubled every solution.
            let (halved, rem) = total.div_rem_u64(2);
            if rem != 0 {
                return Err(CamelotError::RecoveryFailed {
                    reason: "padded solution count was odd".into(),
                });
            }
            total = halved;
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camelot_core::{arthur_verify, merlin_prove, Engine};

    #[test]
    fn counts_match_brute_force_random_3sat() {
        for seed in 0..4 {
            let formula = CnfFormula::random_ksat(8, 12, 3, seed);
            let expect = formula.count_solutions_brute();
            let problem = CountCnfSat::new(formula);
            let outcome = Engine::sequential(4, 2).run(&problem).unwrap();
            assert_eq!(outcome.output.to_u64(), Some(expect), "seed {seed}");
        }
    }

    #[test]
    fn odd_variable_count_is_padded() {
        for seed in 0..3 {
            let formula = CnfFormula::random_ksat(7, 10, 3, seed);
            let expect = formula.count_solutions_brute();
            let problem = CountCnfSat::new(formula);
            let outcome = Engine::sequential(3, 1).run(&problem).unwrap();
            assert_eq!(outcome.output.to_u64(), Some(expect), "seed {seed}");
        }
    }

    #[test]
    fn tautology_and_contradiction() {
        // (x1 ∨ ¬x1) is always satisfied: 2^4 solutions.
        let taut = CnfFormula::new(4, vec![vec![1, -1]]);
        let problem = CountCnfSat::new(taut);
        let outcome = Engine::sequential(2, 1).run(&problem).unwrap();
        assert_eq!(outcome.output.to_u64(), Some(16));
        // (x1)(¬x1) is unsatisfiable.
        let contra = CnfFormula::new(4, vec![vec![1], vec![-1]]);
        let problem = CountCnfSat::new(contra);
        let outcome = Engine::sequential(2, 1).run(&problem).unwrap();
        assert_eq!(outcome.output.to_u64(), Some(0));
    }

    #[test]
    fn empty_clause_set_counts_everything() {
        let formula = CnfFormula::new(6, vec![]);
        let expect = formula.count_solutions_brute();
        assert_eq!(expect, 64);
        let problem = CountCnfSat::new(formula);
        let outcome = Engine::sequential(2, 1).run(&problem).unwrap();
        assert_eq!(outcome.output.to_u64(), Some(64));
    }

    #[test]
    fn merlin_arthur_roundtrip() {
        let formula = CnfFormula::random_ksat(6, 9, 3, 5);
        let expect = formula.count_solutions_brute();
        let problem = CountCnfSat::new(formula);
        let proofs = merlin_prove(&problem).unwrap();
        arthur_verify(&problem, &proofs, 4, 9).unwrap();
        assert_eq!(problem.recover(&proofs).unwrap().to_u64(), Some(expect));
    }

    #[test]
    fn proof_size_is_2_to_half_v_scale() {
        let problem = CountCnfSat::new(CnfFormula::random_ksat(10, 20, 3, 1));
        let spec = problem.spec();
        // n = 2^5 = 32 rows, m = 20: degree (n-1)m = 620 — Õ(2^{v/2}).
        assert_eq!(spec.degree_bound, 31 * 20);
    }
}
