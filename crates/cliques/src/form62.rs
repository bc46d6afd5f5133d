//! The `(6 2)`-linear form and its evaluation circuits (§4 of the paper).
//!
//! For matrices `χ^{(s,t)}` (one per pair `1 ≤ s < t ≤ 6`; a single
//! matrix used 15 times in the clique application, 15 distinct ones in
//! the 2-CSP application of Appendix B), the form is
//!
//! ```text
//! X = Σ_{a,b,c,d,e,f} Π_{1≤s<t≤6} χ^{(s,t)}_{v_s v_t},
//! (v_1..v_6) = (a,b,c,d,e,f).
//! ```
//!
//! Three evaluators are provided:
//!
//! * [`Form62::eval_naive`] — the `O(N^6)` definition (ground truth);
//! * [`Form62::eval_nesetril_poljak`] — the `O(N^{2ω})`-time,
//!   **`O(N^4)`-space** baseline of Nešetřil–Poljak (§4.1);
//! * [`Form62::eval_circuit`] — the paper's new `O(N^{2ω})`-time,
//!   **`O(N^2)`-space** circuit (Theorem 13), which additionally
//!   parallelizes over the `R` rank-one terms and extends to a proof
//!   polynomial ([`Form62::eval_proof_at`], §5.2–5.3).

use camelot_ff::PrimeField;
use camelot_linalg::{mul_transposed_into, MatMulTensor, Matrix, YatesPlan};
use camelot_poly::ConsecutiveBasis;

/// Flat index of the pair `(s, t)`, `1 <= s < t <= 6`, in the fixed order
/// `(1,2), (1,3), …, (5,6)`.
///
/// # Panics
///
/// Panics unless `1 <= s < t <= 6`.
#[must_use]
pub fn pair_index(s: usize, t: usize) -> usize {
    assert!(1 <= s && s < t && t <= 6, "need 1 <= s < t <= 6");
    let mut idx = 0;
    for ss in 1..6 {
        for tt in ss + 1..=6 {
            if (ss, tt) == (s, t) {
                return idx;
            }
            idx += 1;
        }
    }
    unreachable!()
}

/// A `(6 2)`-linear form instance: 15 square matrices of equal size.
#[derive(Clone, Debug)]
pub struct Form62 {
    size: usize,
    mats: Vec<Matrix>,
}

/// Space accounting for the evaluation circuits (in field elements,
/// counting the inputs and the peak simultaneous workspace).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpaceStats {
    /// Peak number of simultaneously live field elements.
    pub peak_field_elements: usize,
}

impl Form62 {
    /// Builds a form with 15 distinct matrices, indexed by
    /// [`pair_index`].
    ///
    /// # Panics
    ///
    /// Panics unless exactly 15 square matrices of equal size are given.
    #[must_use]
    pub fn new(mats: Vec<Matrix>) -> Self {
        assert_eq!(mats.len(), 15, "a (6 2)-linear form needs 15 matrices");
        let size = mats[0].rows();
        for m in &mats {
            assert!(m.rows() == size && m.cols() == size, "matrices must be square, equal size");
        }
        Form62 { size, mats }
    }

    /// Builds the uniform form (all 15 slots the same matrix) — the
    /// clique-counting case.
    #[must_use]
    pub fn uniform(chi: Matrix) -> Self {
        assert_eq!(chi.rows(), chi.cols(), "χ must be square");
        Form62 { size: chi.rows(), mats: vec![chi; 15] }
    }

    /// Matrix size `N`.
    #[must_use]
    pub fn size(&self) -> usize {
        self.size
    }

    fn chi(&self, s: usize, t: usize) -> &Matrix {
        &self.mats[pair_index(s, t)]
    }

    /// Direct `O(N^6)` evaluation of the form (ground truth for tests).
    #[must_use]
    pub fn eval_naive(&self, field: &PrimeField) -> u64 {
        let n = self.size;
        let mut total = 0u64;
        let v = |s: usize, t: usize, i: usize, j: usize| self.chi(s, t).get(i, j);
        for a in 0..n {
            for b in 0..n {
                let x_ab = v(1, 2, a, b);
                if x_ab == 0 {
                    continue;
                }
                for c in 0..n {
                    let x_abc = field.mul(x_ab, field.mul(v(1, 3, a, c), v(2, 3, b, c)));
                    if x_abc == 0 {
                        continue;
                    }
                    for d in 0..n {
                        let x_d = field.mul(v(1, 4, a, d), field.mul(v(2, 4, b, d), v(3, 4, c, d)));
                        if x_d == 0 {
                            continue;
                        }
                        for e in 0..n {
                            let x_e = field.mul(
                                v(4, 5, d, e),
                                field.mul(v(1, 5, a, e), field.mul(v(2, 5, b, e), v(3, 5, c, e))),
                            );
                            if x_e == 0 {
                                continue;
                            }
                            let pre = field.mul(x_abc, field.mul(x_d, x_e));
                            for f in 0..n {
                                let x_f = field.mul(
                                    field.mul(v(1, 6, a, f), v(2, 6, b, f)),
                                    field.mul(
                                        v(3, 6, c, f),
                                        field.mul(v(4, 6, d, f), v(5, 6, e, f)),
                                    ),
                                );
                                total = field.mul_add(total, pre, x_f);
                            }
                        }
                    }
                }
            }
        }
        total
    }

    /// The Nešetřil–Poljak evaluation (§4.1): three `N² × N²` matrices
    /// and one fast matrix product — `O(N^{2ω})` operations but `O(N^4)`
    /// space.
    #[must_use]
    pub fn eval_nesetril_poljak(&self, field: &PrimeField) -> (u64, SpaceStats) {
        let n = self.size;
        let n2 = n * n;
        // U_{ab,cd} = χ12_ab χ13_ac χ14_ad χ23_bc χ24_bd
        let u = Matrix::from_fn(n2, n2, |ab, cd| {
            let (a, b) = (ab / n, ab % n);
            let (c, d) = (cd / n, cd % n);
            field.mul(
                field.mul(self.chi(1, 2).get(a, b), self.chi(1, 3).get(a, c)),
                field.mul(
                    self.chi(1, 4).get(a, d),
                    field.mul(self.chi(2, 3).get(b, c), self.chi(2, 4).get(b, d)),
                ),
            )
        });
        // S_{ab,ef} = χ15_ae χ16_af χ25_be χ26_bf χ56_ef
        let s = Matrix::from_fn(n2, n2, |ab, ef| {
            let (a, b) = (ab / n, ab % n);
            let (e, f) = (ef / n, ef % n);
            field.mul(
                field.mul(self.chi(1, 5).get(a, e), self.chi(1, 6).get(a, f)),
                field.mul(
                    self.chi(2, 5).get(b, e),
                    field.mul(self.chi(2, 6).get(b, f), self.chi(5, 6).get(e, f)),
                ),
            )
        });
        // T_{cd,ef} = χ34_cd χ35_ce χ36_cf χ45_de χ46_df
        let t = Matrix::from_fn(n2, n2, |cd, ef| {
            let (c, d) = (cd / n, cd % n);
            let (e, f) = (ef / n, ef % n);
            field.mul(
                field.mul(self.chi(3, 4).get(c, d), self.chi(3, 5).get(c, e)),
                field.mul(
                    self.chi(3, 6).get(c, f),
                    field.mul(self.chi(4, 5).get(d, e), self.chi(4, 6).get(d, f)),
                ),
            )
        });
        // V = S T^T (fast product), then X = Σ U ∘ V.
        let v = s.mul(field, &t.transpose());
        let total = u.hadamard(field, &v).sum(field);
        let peak = 15 * n2 + 4 * n2 * n2; // inputs + U, S, T, V
        (total, SpaceStats { peak_field_elements: peak })
    }

    /// The paper's new circuit (Theorem 13): `X = Σ_{r=1}^R P(r)` where
    /// each term costs a constant number of `N × N` fast matrix products
    /// and `O(N²)` space. `t_pow` is the Kronecker power: the matrices
    /// must have size `tensor.n0()^t_pow`.
    ///
    /// # Panics
    ///
    /// Panics if the size does not equal `n0^t_pow`.
    #[must_use]
    pub fn eval_circuit(
        &self,
        field: &PrimeField,
        tensor: &MatMulTensor,
        t_pow: usize,
    ) -> (u64, SpaceStats) {
        let n = self.size;
        assert_eq!(n, tensor.n0().pow(t_pow as u32), "size must be n0^t_pow");
        let r_total = tensor.r0().pow(t_pow as u32);
        let mut total = 0u64;
        let mut workspace = vec![0u64; TERM_WORKSPACE * n * n];
        for r in 0..r_total {
            let alpha =
                Matrix::from_fn(n, n, |d, e| field.from_i64(tensor.alpha_power(t_pow, d, e, r)));
            let beta =
                Matrix::from_fn(n, n, |e, f| field.from_i64(tensor.beta_power(t_pow, e, f, r)));
            let gamma =
                Matrix::from_fn(n, n, |d, f| field.from_i64(tensor.gamma_power(t_pow, d, f, r)));
            let term = self.term(field, alpha.data(), beta.data(), gamma.data(), &mut workspace);
            total = field.add(total, term);
        }
        // Inputs + the three coefficient matrices + the term workspace —
        // all N².
        let peak = (15 + 3 + TERM_WORKSPACE) * n * n;
        (total, SpaceStats { peak_field_elements: peak })
    }

    /// One term of the circuit: equations (11)–(12) of the paper with
    /// row-major coefficient matrices `alpha[d][e']`, `beta[e][f']`,
    /// `gamma[d'][f]`, computed in the caller's `workspace` of
    /// [`TERM_WORKSPACE`]` · N²` elements. Six of the seven products are
    /// against a transposed operand and the seventh is arranged to be, so
    /// all run as row-by-row dot products with no transposed copies.
    /// (Schoolbook on purpose: the proof polynomial has `R0^t` nodes, so
    /// an `N = n0^t` this code can be run at stays far below the size
    /// where [`Matrix::mul`] would switch to Strassen.)
    fn term(
        &self,
        field: &PrimeField,
        alpha: &[u64],
        beta: &[u64],
        gamma: &[u64],
        workspace: &mut [u64],
    ) -> u64 {
        let n = self.size;
        let chi = |s: usize, t: usize| self.chi(s, t).data();
        let (w, rest) = workspace.split_at_mut(n * n);
        let (h, rest) = rest.split_at_mut(n * n);
        let (a, rest) = rest.split_at_mut(n * n);
        let (b, rest) = rest.split_at_mut(n * n);
        let c = &mut rest[..n * n];
        // H_ad = Σ_{e'} χ15_{ae'} (α_{de'} χ45_{de'}):  H = χ15 · (α∘χ45)^T
        w.copy_from_slice(alpha);
        field.mul_slice(w, chi(4, 5));
        mul_transposed_into(field, chi(1, 5), w, n, h);
        // A_ab = Σ_d χ14_{ad} H_ad χ24_{bd}:  A = (χ14 ∘ H) · χ24^T
        field.mul_slice(h, chi(1, 4));
        mul_transposed_into(field, h, chi(2, 4), n, a);
        // K_be = Σ_{f'} χ26_{bf'} (β_{ef'} χ56_{ef'}):  K = χ26 · (β∘χ56)^T
        w.copy_from_slice(beta);
        field.mul_slice(w, chi(5, 6));
        mul_transposed_into(field, chi(2, 6), w, n, h);
        // B_bc = Σ_e χ25_{be} K_be χ35_{ce}:  B = (χ25 ∘ K) · χ35^T
        field.mul_slice(h, chi(2, 5));
        mul_transposed_into(field, h, chi(3, 5), n, b);
        // L_cf = Σ_{d'} χ34_{cd'} (γ_{d'f} χ46_{d'f}):  L = χ34 · W^T with
        // W = (γ∘χ46)^T built directly.
        let chi46 = chi(4, 6);
        for d in 0..n {
            for f in 0..n {
                w[f * n + d] = field.mul(gamma[d * n + f], chi46[d * n + f]);
            }
        }
        mul_transposed_into(field, chi(3, 4), w, n, h);
        // C_ac = Σ_f χ16_{af} (χ36_{cf} L_cf):  C = χ16 · (χ36 ∘ L)^T
        field.mul_slice(h, chi(3, 6));
        mul_transposed_into(field, chi(1, 6), h, n, c);
        // Q_ab = Σ_c (χ13_{ac} C_ac)(χ23_{bc} B_bc):  Q = (χ13∘C) · (χ23∘B)^T
        field.mul_slice(c, chi(1, 3));
        field.mul_slice(b, chi(2, 3));
        mul_transposed_into(field, c, b, n, h);
        // P = Σ_ab χ12_ab A_ab Q_ab
        field.mul_slice(a, chi(1, 2));
        field.dot(a, h)
    }

    /// Evaluates the proof polynomial `P(x)` of §5.2 at `x0`: the
    /// coefficient matrices `α(x)`, `β(x)`, `γ(x)` interpolate the rank-one
    /// terms over `x = 1..R` (computed with Yates's algorithm over the
    /// Kronecker structure plus the `O(R)` Lagrange scaffolding of §5.3),
    /// and one circuit term is evaluated. `deg P <= 3(R-1)` and
    /// `Σ_{r=1}^R P(r) = X`.
    ///
    /// `plan` and `basis` carry everything that does not depend on `x0`
    /// ([`ProofPlan::new`] once per problem, [`ProofPlan::basis`] once per
    /// prime); the call itself allocates one scratch buffer.
    ///
    /// # Panics
    ///
    /// Panics if the form's size is not the plan's, or `basis` is not
    /// over the plan's `R` nodes.
    #[must_use]
    pub fn proof_at(
        &self,
        field: &PrimeField,
        plan: &ProofPlan,
        basis: &ConsecutiveBasis,
        x0: u64,
    ) -> u64 {
        let n = self.size;
        assert_eq!(n * n, plan.unflatten.len(), "size must be n0^t_pow");
        // The three factors share one shape, hence one scratch size.
        let yates_len = plan.families[0].scratch_len();
        let mut scratch = vec![0u64; plan.rank + yates_len + (3 + TERM_WORKSPACE) * n * n];
        let (lambda, rest) = scratch.split_at_mut(plan.rank);
        let (yates_scratch, rest) = rest.split_at_mut(yates_len);
        let (coefficients, workspace) = rest.split_at_mut(3 * n * n);
        // Λ_r(x0) over nodes 1..R, then one Yates transform per
        // coefficient family: the N² × R Kronecker-power matrix applied
        // to the Λ vector (equation (18) of the paper), read back into
        // row-major order through the plan's index map.
        basis.basis_at(x0, lambda);
        for (family, matrix) in plan.families.iter().zip(coefficients.chunks_exact_mut(n * n)) {
            let flat = family.apply(field, lambda, yates_scratch);
            for (slot, &index) in matrix.iter_mut().zip(&plan.unflatten) {
                *slot = flat[index as usize];
            }
        }
        let (alpha, rest) = coefficients.split_at(n * n);
        let (beta, gamma) = rest.split_at(n * n);
        self.term(field, alpha, beta, gamma, workspace)
    }

    /// One-shot form of [`Form62::proof_at`] (tests and single-point
    /// callers): compiles the plan and prepares the basis for this call.
    ///
    /// # Panics
    ///
    /// Panics if the size does not equal `n0^t_pow` or `R >= q`.
    #[must_use]
    pub fn eval_proof_at(
        &self,
        field: &PrimeField,
        tensor: &MatMulTensor,
        t_pow: usize,
        x0: u64,
    ) -> u64 {
        let plan = ProofPlan::new(tensor, t_pow);
        self.proof_at(field, &plan, &plan.basis(field), x0)
    }

    /// Degree bound of the proof polynomial: `3(R - 1)` for `R = R0^t`.
    #[must_use]
    pub fn proof_degree_bound(tensor: &MatMulTensor, t_pow: usize) -> usize {
        3 * (tensor.r0().pow(t_pow as u32) - 1)
    }
}

/// `N²`-element buffers [`Form62::term`] works in.
const TERM_WORKSPACE: usize = 5;

/// Everything about evaluating a `(6 2)` proof polynomial that depends
/// only on the tensor and the Kronecker power — not on the modulus, the
/// matrices or the point: the three coefficient families' compiled Yates
/// plans (`R → N²`) and the map from row-major `(i, j)` to the
/// interleaved Kronecker index the transforms produce.
#[derive(Clone, Debug)]
pub struct ProofPlan {
    rank: usize,
    /// `α`, `β`, `γ`.
    families: [YatesPlan; 3],
    /// `unflatten[i * N + j] = interleave(i, j, n0, t_pow)`.
    unflatten: Vec<u32>,
}

impl ProofPlan {
    /// Compiles the plan for matrices of size `n0^t_pow`.
    #[must_use]
    pub fn new(tensor: &MatMulTensor, t_pow: usize) -> Self {
        let n0 = tensor.n0();
        let n = n0.pow(t_pow as u32);
        let unflatten = (0..n * n)
            .map(|ij| u32::try_from(interleave(ij / n, ij % n, n0, t_pow)).expect("N² fits u32"))
            .collect();
        ProofPlan {
            rank: tensor.r0().pow(t_pow as u32),
            families: [tensor.alpha0(), tensor.beta0(), tensor.gamma0()]
                .map(|factor| YatesPlan::new(factor, t_pow)),
            unflatten,
        }
    }

    /// The rank `R = R0^t`: the number of interpolation nodes.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The Lagrange basis over the nodes `1..=R` for one field.
    ///
    /// # Panics
    ///
    /// Panics if `R >= q`.
    #[must_use]
    pub fn basis(&self, field: &PrimeField) -> ConsecutiveBasis {
        ConsecutiveBasis::new(field, self.rank)
    }
}

/// Flattens the index pair `(i, j)` (each `t` digits in base `n0`) into
/// the interleaved base-`n0²` index whose digit `ℓ` is
/// `i_ℓ * n0 + j_ℓ` — the row indexing of the Kronecker-power coefficient
/// matrices.
#[must_use]
pub fn interleave(mut i: usize, mut j: usize, n0: usize, t_pow: usize) -> usize {
    let mut out = 0usize;
    let mut scale = 1usize;
    for _ in 0..t_pow {
        out += ((i % n0) * n0 + (j % n0)) * scale;
        i /= n0;
        j /= n0;
        scale *= n0 * n0;
    }
    debug_assert_eq!(i, 0);
    debug_assert_eq!(j, 0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use camelot_ff::{RngLike, SplitMix64};

    fn f() -> PrimeField {
        PrimeField::new(1_000_000_007).unwrap()
    }

    fn random_form(n: usize, distinct: bool, seed: u64) -> Form62 {
        let field = f();
        let mut rng = SplitMix64::new(seed);
        if distinct {
            Form62::new(
                (0..15)
                    .map(|_| Matrix::from_fn(n, n, |_, _| rng.next_u64() % field.modulus()))
                    .collect(),
            )
        } else {
            Form62::uniform(Matrix::from_fn(n, n, |_, _| rng.next_u64() % 5))
        }
    }

    #[test]
    fn pair_index_is_a_bijection() {
        let mut seen = [false; 15];
        for s in 1..6 {
            for t in s + 1..=6 {
                let idx = pair_index(s, t);
                assert!(!seen[idx], "duplicate index for ({s},{t})");
                seen[idx] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
        assert_eq!(pair_index(1, 2), 0);
        assert_eq!(pair_index(5, 6), 14);
    }

    #[test]
    fn nesetril_poljak_matches_naive() {
        let field = f();
        for (n, distinct, seed) in
            [(2usize, false, 1u64), (3, false, 2), (2, true, 3), (3, true, 4)]
        {
            let form = random_form(n, distinct, seed);
            let naive = form.eval_naive(&field);
            let (np, stats) = form.eval_nesetril_poljak(&field);
            assert_eq!(np, naive, "n={n} distinct={distinct}");
            assert!(stats.peak_field_elements >= 4 * n * n * n * n);
        }
    }

    #[test]
    fn circuit_matches_naive_strassen() {
        let field = f();
        let tensor = MatMulTensor::strassen();
        for (t_pow, distinct, seed) in
            [(1usize, false, 5u64), (1, true, 6), (2, false, 7), (2, true, 8)]
        {
            let n = 2usize.pow(t_pow as u32);
            let form = random_form(n, distinct, seed);
            let naive = form.eval_naive(&field);
            let (circ, stats) = form.eval_circuit(&field, &tensor, t_pow);
            assert_eq!(circ, naive, "t={t_pow} distinct={distinct}");
            // O(N²) space: nowhere near the N⁴ of Nešetřil–Poljak.
            assert!(stats.peak_field_elements <= 24 * n * n);
        }
    }

    #[test]
    fn circuit_matches_naive_naive_tensor() {
        let field = f();
        let tensor = MatMulTensor::naive(3);
        let form = random_form(3, true, 9);
        let naive = form.eval_naive(&field);
        let (circ, _) = form.eval_circuit(&field, &tensor, 1);
        assert_eq!(circ, naive);
    }

    #[test]
    fn proof_at_integer_nodes_sums_to_form() {
        let field = f();
        let tensor = MatMulTensor::strassen();
        for (t_pow, seed) in [(1usize, 10u64), (2, 11)] {
            let n = 2usize.pow(t_pow as u32);
            let form = random_form(n, false, seed);
            let r_total = 7usize.pow(t_pow as u32);
            let mut sum = 0u64;
            for r in 1..=r_total as u64 {
                sum = field.add(sum, form.eval_proof_at(&field, &tensor, t_pow, r));
            }
            assert_eq!(sum, form.eval_naive(&field), "t={t_pow}");
        }
    }

    #[test]
    fn proof_is_a_low_degree_polynomial() {
        // Interpolate P from 3(R-1)+1 generic evaluations; it must then
        // reproduce evaluations anywhere.
        let field = f();
        let tensor = MatMulTensor::strassen();
        let t_pow = 1;
        let form = random_form(2, true, 12);
        let d = Form62::proof_degree_bound(&tensor, t_pow);
        let pts: Vec<(u64, u64)> = (0..=d as u64)
            .map(|i| {
                let x = 1000 + i;
                (x, form.eval_proof_at(&field, &tensor, t_pow, x))
            })
            .collect();
        let poly = camelot_poly::interpolate(&field, &pts);
        for x in [0u64, 3, 500, 123_456] {
            assert_eq!(
                poly.eval(&field, x),
                form.eval_proof_at(&field, &tensor, t_pow, x),
                "x = {x}"
            );
        }
    }
}
