//! Yates's algorithm and its split/sparse and polynomial extensions (§3).
//!
//! Yates's algorithm multiplies an `s^k`-vector by the `t^k × s^k`
//! Kronecker power `A^{⊗k}` of a small `t × s` matrix in `O((s^{k+1} +
//! t^{k+1}) k)` operations. The paper's §3.2 *split/sparse* variant
//! accepts a sparse input (support `D`) and produces the output in
//! `~t^{k-ℓ}` independent parts of `t^ℓ` entries each — the source of
//! parallelism in the triangle algorithms — and §3.3 replaces the outer
//! part index by a polynomial indeterminate `z`, which is what turns the
//! parallel algorithm into a Camelot proof polynomial.

use camelot_ff::PrimeField;

/// A small dense integer matrix (the Kronecker factor `A`).
///
/// Entries are plain `i64` so that a single description serves every prime
/// modulus; they are embedded into a field on use.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SmallMatrix {
    rows: usize,
    cols: usize,
    entries: Vec<i64>,
}

impl SmallMatrix {
    /// Creates from row-major entries.
    ///
    /// # Panics
    ///
    /// Panics if `entries.len() != rows * cols`.
    #[must_use]
    pub fn new(rows: usize, cols: usize, entries: Vec<i64>) -> Self {
        assert_eq!(entries.len(), rows * cols, "entry count must match shape");
        SmallMatrix { rows, cols, entries }
    }

    /// Number of rows (`t`, the output radix).
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (`s`, the input radix).
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Entry at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[must_use]
    pub fn get(&self, i: usize, j: usize) -> i64 {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        self.entries[i * self.cols + j]
    }

    /// Transposed copy.
    #[must_use]
    pub fn transpose(&self) -> SmallMatrix {
        let mut entries = vec![0i64; self.entries.len()];
        for i in 0..self.rows {
            for j in 0..self.cols {
                entries[j * self.rows + i] = self.entries[i * self.cols + j];
            }
        }
        SmallMatrix { rows: self.cols, cols: self.rows, entries }
    }

    /// Entries embedded into a field.
    #[must_use]
    pub fn to_field(&self, field: &PrimeField) -> Vec<u64> {
        self.entries.iter().map(|&v| field.from_i64(v)).collect()
    }
}

/// How a nonzero entry of the Kronecker factor accumulates: the Strassen
/// factors (and every 0/1 tensor) are all `±1`, which needs no multiplier.
/// Ordered so that sorting a row's entries puts a `+1` first when it has
/// one — the first entry of a row initialises the output run, and a copy
/// is the cheapest initialisation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Coefficient {
    Plus,
    Minus,
    General(i64),
}

/// One nonzero `a[row][col]` of the Kronecker factor.
#[derive(Clone, Copy, Debug)]
struct Term {
    row: usize,
    col: usize,
    coefficient: Coefficient,
    /// The first term of its row overwrites the output run instead of
    /// accumulating into it, so no level zero-fills what it then adds to.
    first: bool,
}

/// One level of a [`YatesPlan`]: the factor applied along one axis of the
/// `outer × s × inner` view of the current vector.
#[derive(Clone, Copy, Debug)]
struct Level {
    outer: usize,
    inner: usize,
}

impl Level {
    /// `dst_run[w] = op(dst_run[w], src_run[w])` over every run of this
    /// level that `term` connects. Generic over `op` so each kind of term
    /// gets its own loop with the field operation inlined — measured
    /// faster at every run length than calling the `camelot-ff` slice
    /// kernels per run (they do not inline across the crate boundary, and
    /// without a 64-bit unsigned vector minimum they do not vectorise
    /// either).
    #[inline]
    fn sweep(
        &self,
        plan: &YatesPlan,
        term: &Term,
        cur: &[u64],
        dst: &mut [u64],
        op: impl Fn(u64, u64) -> u64,
    ) {
        let Level { outer, inner } = *self;
        // lint:hot-begin(yates-sweep) — every element of every level
        // passes through here; no `%`, no clones, no allocation.
        for o in 0..outer {
            let src_run = &cur[(o * plan.s + term.col) * inner..][..inner];
            let dst_run = &mut dst[(o * plan.t + term.row) * inner..][..inner];
            for (d, &v) in dst_run.iter_mut().zip(src_run) {
                *d = op(*d, v);
            }
        }
        // lint:hot-end
    }
}

/// Yates's algorithm for `y = A^{⊗k} x` (§3.1), compiled once per
/// `(A, k)`: the nonzeros of `A` classified as `+1`, `−1` or general, and
/// the level schedule fixed.
///
/// The Kronecker factors along different axes commute, so the axes may be
/// transformed in any order. An expanding factor (`t > s`) is applied to
/// the **last** axis first and a contracting one to the **first** axis
/// first: either way the levels that move the most data are the ones whose
/// innermost contiguous run is longest, instead of the run shrinking to 1
/// exactly where the vector is largest. The result is the same vector of
/// field elements in any order.
///
/// Indices are mixed-radix with the **first** digit most significant:
/// `x` has length `s^k`, `y` has length `t^k`, and
/// `y_{i_1 i_2 … i_k} = Σ_j Π_ℓ a_{i_ℓ j_ℓ} x_{j_1 j_2 … j_k}`.
#[derive(Clone, Debug)]
pub struct YatesPlan {
    t: usize,
    s: usize,
    /// The nonzeros of `A`, row by row.
    terms: Vec<Term>,
    /// Rows of `A` with no nonzero: their output runs are zero.
    zero_rows: Vec<usize>,
    levels: Vec<Level>,
    in_len: usize,
    out_len: usize,
}

impl YatesPlan {
    /// Compiles the plan for `A^{⊗k}`.
    ///
    /// # Panics
    ///
    /// Panics if `s^k` or `t^k` overflows `usize`.
    #[must_use]
    pub fn new(a: &SmallMatrix, k: usize) -> Self {
        let (t, s) = (a.rows(), a.cols());
        let pow = |base: usize, e: usize| {
            base.checked_pow(u32::try_from(e).expect("k fits u32"))
                .expect("radix^k overflows usize")
        };
        let (in_len, out_len) = (pow(s, k), pow(t, k));
        let (mut terms, mut zero_rows) = (Vec::new(), Vec::new());
        for row in 0..t {
            let mut entries: Vec<(Coefficient, usize)> = (0..s)
                .filter_map(|col| match a.get(row, col) {
                    0 => None,
                    1 => Some((Coefficient::Plus, col)),
                    -1 => Some((Coefficient::Minus, col)),
                    c => Some((Coefficient::General(c), col)),
                })
                .collect();
            entries.sort_unstable();
            if entries.is_empty() {
                zero_rows.push(row);
            }
            terms.extend(entries.iter().enumerate().map(|(position, &(coefficient, col))| Term {
                row,
                col,
                coefficient,
                first: position == 0,
            }));
        }
        // Axis `p` (0 = most significant) sees `outer` untouched-or-done
        // digits before it and `inner` after it; which of those are
        // already transformed depends on the direction.
        let levels = (0..k)
            .map(|step| {
                if t > s {
                    let p = k - 1 - step;
                    Level { outer: pow(s, p), inner: pow(t, step) }
                } else {
                    Level { outer: pow(t, step), inner: pow(s, k - 1 - step) }
                }
            })
            .collect();
        YatesPlan { t, s, terms, zero_rows, levels, in_len, out_len }
    }

    /// Input length `s^k`.
    #[must_use]
    pub fn input_len(&self) -> usize {
        self.in_len
    }

    /// Output length `t^k`.
    #[must_use]
    pub fn output_len(&self) -> usize {
        self.out_len
    }

    /// Scratch length [`YatesPlan::apply`] needs: two buffers of the
    /// larger of the input and output lengths (intermediate shapes lie
    /// between the two).
    #[must_use]
    pub fn scratch_len(&self) -> usize {
        2 * self.in_len.max(self.out_len)
    }

    /// Number of scalar term applications one [`YatesPlan::apply`]
    /// performs (`nnz(A)` per run element per level; one per row of them
    /// is a plain store) — the operation count the benchmarks report
    /// beside the wall time.
    #[must_use]
    pub fn accumulations(&self) -> usize {
        self.levels.iter().map(|l| l.outer * l.inner * self.terms.len()).sum()
    }

    /// Computes `A^{⊗k} x`, ping-ponging between the two halves of the
    /// caller's `scratch`; the result is a sub-slice of it. No
    /// allocation; `±1` entries cost a copy, an add or a subtract per
    /// element, general entries a multiplication.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != s^k` or `scratch` is shorter than
    /// [`YatesPlan::scratch_len`].
    pub fn apply<'s>(&self, field: &PrimeField, x: &[u64], scratch: &'s mut [u64]) -> &'s [u64] {
        assert_eq!(x.len(), self.in_len, "input length must be s^k");
        assert!(scratch.len() >= self.scratch_len(), "scratch shorter than scratch_len()");
        let half = scratch.len() / 2;
        let (mut cur, mut next) = scratch.split_at_mut(half);
        cur[..x.len()].copy_from_slice(x);
        let t = self.t;
        // lint:hot-begin(yates-levels) — the level schedule around the
        // sweeps.
        for level in &self.levels {
            let Level { outer, inner } = *level;
            let dst = &mut next[..outer * t * inner];
            for &row in &self.zero_rows {
                for o in 0..outer {
                    dst[(o * t + row) * inner..][..inner].fill(0);
                }
            }
            for term in &self.terms {
                // Every run of the level under one operation: the match
                // is outside the sweep and the field op inlines into it.
                match (term.coefficient, term.first) {
                    (Coefficient::Plus, true) => level.sweep(self, term, cur, dst, |_, v| v),
                    (Coefficient::Plus, false) => {
                        level.sweep(self, term, cur, dst, |d, v| field.add(d, v));
                    }
                    (Coefficient::Minus, true) => {
                        level.sweep(self, term, cur, dst, |_, v| field.neg(v));
                    }
                    (Coefficient::Minus, false) => {
                        level.sweep(self, term, cur, dst, |d, v| field.sub(d, v));
                    }
                    (Coefficient::General(c), true) => {
                        let c = field.from_i64(c);
                        level.sweep(self, term, cur, dst, |_, v| field.mul(c, v));
                    }
                    (Coefficient::General(c), false) => {
                        let c = field.from_i64(c);
                        level.sweep(self, term, cur, dst, |d, v| field.mul_add(d, c, v));
                    }
                }
            }
            std::mem::swap(&mut cur, &mut next);
        }
        // lint:hot-end
        &cur[..self.out_len]
    }
}

/// Classical Yates: computes `y = A^{⊗k} x` (§3.1) — the
/// allocate-and-apply form of [`YatesPlan`] for one-shot callers.
///
/// # Panics
///
/// Panics if `x.len() != s^k`.
#[must_use]
pub fn yates(field: &PrimeField, a: &SmallMatrix, k: usize, x: &[u64]) -> Vec<u64> {
    let plan = YatesPlan::new(a, k);
    let mut scratch = vec![0u64; plan.scratch_len()];
    plan.apply(field, x, &mut scratch).to_vec()
}

/// Naive reference for `A^{⊗k} x` in `O(s^k t^k k)` (tests/baselines).
#[must_use]
pub fn kronecker_apply_naive(field: &PrimeField, a: &SmallMatrix, k: usize, x: &[u64]) -> Vec<u64> {
    let (t, s) = (a.rows(), a.cols());
    let in_len = s.pow(k as u32);
    let out_len = t.pow(k as u32);
    assert_eq!(x.len(), in_len, "input length must be s^k");
    let af = a.to_field(field);
    let mut y = vec![0u64; out_len];
    for (i, yi) in y.iter_mut().enumerate() {
        for (j, &xj) in x.iter().enumerate() {
            if xj == 0 {
                continue;
            }
            // Product of base-matrix entries over paired digits.
            let (mut ii, mut jj) = (i, j);
            let mut coeff = 1u64;
            for _ in 0..k {
                coeff = field.mul(coeff, af[(ii % t) * s + (jj % s)]);
                ii /= t;
                jj /= s;
            }
            *yi = field.mul_add(*yi, coeff, xj);
        }
    }
    y
}

/// A sparse input vector: `(index, value)` pairs with distinct indices in
/// `[0, s^k)`.
pub type SparseVec = Vec<(usize, u64)>;

/// The split/sparse variant of Yates's algorithm (§3.2).
///
/// For `y = A^{⊗k} x` with sparse `x`, produces `y` in `t^{k-ℓ}`
/// independent parts: part `o` (for `o ∈ [0, t^{k-ℓ})`) is the slice of
/// outputs whose **trailing** `k-ℓ` digits equal `o`, i.e.
/// `part(o)[p] = y[p * t^{k-ℓ} + o]` for `p ∈ [0, t^ℓ)`.
///
/// Each part costs `O(t^{ℓ+1} ℓ + |D|(k-ℓ))` operations and `O(t^ℓ + |D|)`
/// space, and the parts can be computed by different nodes in parallel.
#[derive(Clone, Debug)]
pub struct SplitSparseYates {
    a: SmallMatrix,
    k: usize,
    ell: usize,
    /// `A^{⊗ℓ}` on the leading digits (step (c) of §3.2).
    inner: YatesPlan,
    /// `(Aᵀ)^{⊗(k-ℓ)}`: spreads the part-index Lagrange basis over the
    /// trailing input digits (equation (8) of the paper).
    tail: YatesPlan,
}

/// A sparse input split at a splitter's `ℓ`-digit boundary:
/// `(leading digits, trailing digits, value)` per entry. Independent of
/// the modulus and of the evaluation point, so it is built once per input
/// ([`SplitSparseYates::split_support`]).
#[derive(Clone, Debug)]
pub struct SplitSupport {
    entries: Vec<(u32, u32, u64)>,
}

impl SplitSparseYates {
    /// Creates the splitter; `ell` is the number of leading digits handled
    /// by the inner classical Yates.
    ///
    /// # Panics
    ///
    /// Panics if `ell > k`.
    #[must_use]
    pub fn new(a: SmallMatrix, k: usize, ell: usize) -> Self {
        assert!(ell <= k, "inner digit count cannot exceed k");
        let inner = YatesPlan::new(&a, ell);
        let tail = YatesPlan::new(&a.transpose(), k - ell);
        SplitSparseYates { a, k, ell, inner, tail }
    }

    /// Chooses `ℓ = ceil(log_t |D|)` as in the paper, so each part has at
    /// least `|D|` entries.
    #[must_use]
    pub fn with_support_size(a: SmallMatrix, k: usize, support: usize) -> Self {
        let t = a.rows().max(2);
        let mut ell = 0usize;
        let mut cap = 1usize;
        while cap < support && ell < k {
            cap *= t;
            ell += 1;
        }
        Self::new(a, k, ell)
    }

    /// The inner digit count `ℓ`.
    #[must_use]
    pub fn ell(&self) -> usize {
        self.ell
    }

    /// Number of independent parts `t^{k-ℓ}`.
    #[must_use]
    pub fn part_count(&self) -> usize {
        self.tail.input_len()
    }

    /// Entries per part, `t^ℓ`.
    #[must_use]
    pub fn part_len(&self) -> usize {
        self.inner.output_len()
    }

    /// Computes part `outer` of the output (see the type-level docs for
    /// the indexing convention).
    ///
    /// # Panics
    ///
    /// Panics if `outer >= part_count()` or a sparse index is out of range.
    #[must_use]
    pub fn part(&self, field: &PrimeField, sparse: &[(usize, u64)], outer: usize) -> Vec<u64> {
        assert!(outer < self.part_count(), "part index out of range");
        let (t, s) = (self.a.rows(), self.a.cols());
        let af = self.a.to_field(field);
        let tail = self.k - self.ell;
        let tail_size = self.tail.output_len();
        let s_total = self.inner.input_len() * tail_size;
        // Project the sparse input onto its leading ℓ digits, weighting by
        // the trailing-digit coefficients against `outer` (steps (a)-(b)).
        let mut x_inner = vec![0u64; self.inner.input_len()];
        for &(j, v) in sparse {
            assert!(j < s_total, "sparse index out of range");
            let (j_head, mut j_tail) = (j / tail_size, j % tail_size);
            let mut o = outer;
            let mut coeff = 1u64;
            for _ in 0..tail {
                coeff = field.mul(coeff, af[(o % t) * s + (j_tail % s)]);
                o /= t;
                j_tail /= s;
            }
            if coeff != 0 {
                x_inner[j_head] = field.mul_add(x_inner[j_head], coeff, v);
            }
        }
        // Step (c): classical Yates on the ℓ leading digits.
        let mut scratch = vec![0u64; self.inner.scratch_len()];
        self.inner.apply(field, &x_inner, &mut scratch).to_vec()
    }

    /// Convenience: assembles the full output from all parts (tests and
    /// sequential baselines; `O(t^k)` like the dense algorithm).
    #[must_use]
    pub fn full_output(&self, field: &PrimeField, sparse: &[(usize, u64)]) -> Vec<u64> {
        let parts: Vec<Vec<u64>> =
            (0..self.part_count()).map(|o| self.part(field, sparse, o)).collect();
        let mut y = vec![0u64; self.part_len() * self.part_count()];
        let stride = self.part_count();
        for (o, part) in parts.iter().enumerate() {
            for (p, &v) in part.iter().enumerate() {
                y[p * stride + o] = v;
            }
        }
        y
    }

    /// Splits a sparse input at the `ℓ`-digit boundary (once per input).
    ///
    /// # Panics
    ///
    /// Panics if a sparse index is out of range.
    #[must_use]
    pub fn split_support(&self, sparse: &[(usize, u64)]) -> SplitSupport {
        let tail_size = self.tail.output_len();
        let s_total = self.inner.input_len() * tail_size;
        let narrow =
            |v: usize| u32::try_from(v).expect("digit blocks of an in-memory input fit u32");
        let entries = sparse
            .iter()
            .map(|&(j, v)| {
                assert!(j < s_total, "sparse index out of range");
                (narrow(j / tail_size), narrow(j % tail_size), v)
            })
            .collect();
        SplitSupport { entries }
    }

    /// Scratch length [`SplitSparseYates::part_poly_eval`] needs.
    #[must_use]
    pub fn poly_scratch_len(&self) -> usize {
        self.tail.scratch_len() + self.inner.input_len() + self.inner.scratch_len()
    }

    /// The polynomial extension (§3.3): evaluates the part polynomials
    /// `u^{(ℓ)}_{i_1…i_ℓ}(z)` at the point whose Lagrange basis over the
    /// part nodes `1..=t^{k-ℓ}` is `phi` (`Φ_i(z0)`, from a
    /// [`camelot_poly::ConsecutiveBasis`] the caller prepared; several
    /// splitters over the same geometry share one `phi` per point). The
    /// result is a sub-slice of `scratch`; nothing is allocated.
    ///
    /// For `z0 ∈ {1, …, t^{k-ℓ}}` this returns exactly
    /// `part(z0 - 1)`; each component is a polynomial in `z` of degree at
    /// most `t^{k-ℓ} - 1`.
    ///
    /// # Panics
    ///
    /// Panics if `phi.len() != part_count()` or `scratch` is shorter than
    /// [`SplitSparseYates::poly_scratch_len`].
    pub fn part_poly_eval<'s>(
        &self,
        field: &PrimeField,
        support: &SplitSupport,
        phi: &[u64],
        scratch: &'s mut [u64],
    ) -> &'s [u64] {
        assert!(
            scratch.len() >= self.poly_scratch_len(),
            "scratch shorter than poly_scratch_len()"
        );
        let (tail_scratch, rest) = scratch.split_at_mut(self.tail.scratch_len());
        let (x_inner, inner_scratch) = rest.split_at_mut(self.inner.input_len());
        // α_{j_tail}(z0) for every trailing pattern: the transposed
        // Kronecker power applied to Φ (equation (8) of the paper).
        let alpha_tail = self.tail.apply(field, phi, tail_scratch);
        x_inner.fill(0);
        for &(j_head, j_tail, v) in &support.entries {
            let coeff = alpha_tail[j_tail as usize];
            let slot = &mut x_inner[j_head as usize];
            // Adjacency inputs are all ones: no multiplier needed.
            *slot = if v == 1 { field.add(*slot, coeff) } else { field.mul_add(*slot, coeff, v) };
        }
        self.inner.apply(field, x_inner, inner_scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camelot_ff::{RngLike, SplitMix64};

    fn f() -> PrimeField {
        PrimeField::new(1_000_000_007).unwrap()
    }

    fn zeta_matrix() -> SmallMatrix {
        // Subset-zeta kernel [[1,0],[1,1]].
        SmallMatrix::new(2, 2, vec![1, 0, 1, 1])
    }

    fn random_small(rows: usize, cols: usize, rng: &mut SplitMix64) -> SmallMatrix {
        SmallMatrix::new(
            rows,
            cols,
            (0..rows * cols).map(|_| (rng.next_u64() % 7) as i64 - 3).collect(),
        )
    }

    /// The polynomial extension at `z0`, set up the way an evaluator
    /// does: prepared basis, split support, one scratch buffer.
    fn poly_eval(
        splitter: &SplitSparseYates,
        field: &PrimeField,
        sparse: &[(usize, u64)],
        z0: u64,
    ) -> Vec<u64> {
        let basis = camelot_poly::ConsecutiveBasis::new(field, splitter.part_count());
        let mut phi = vec![0u64; splitter.part_count()];
        basis.basis_at(z0, &mut phi);
        let mut scratch = vec![0u64; splitter.poly_scratch_len()];
        splitter.part_poly_eval(field, &splitter.split_support(sparse), &phi, &mut scratch).to_vec()
    }

    #[test]
    fn plan_matches_naive_on_strassen_factors_and_reuses_scratch() {
        let field = f();
        let mut rng = SplitMix64::new(9);
        let tensor = crate::MatMulTensor::strassen();
        let factors = [tensor.alpha0(), tensor.beta0(), tensor.gamma0()];
        for a in factors.iter().flat_map(|&m| [m.clone(), m.transpose()]) {
            for k in 0..=4 {
                let plan = YatesPlan::new(&a, k);
                assert_eq!(plan.input_len(), a.cols().pow(k as u32));
                assert_eq!(plan.output_len(), a.rows().pow(k as u32));
                // Dirty scratch, used twice: apply must not depend on
                // what a previous call left behind.
                let mut scratch = vec![u64::MAX; plan.scratch_len()];
                for _ in 0..2 {
                    let x: Vec<u64> =
                        (0..plan.input_len()).map(|_| field.sample(&mut rng)).collect();
                    assert_eq!(
                        plan.apply(&field, &x, &mut scratch),
                        kronecker_apply_naive(&field, &a, k, &x),
                        "{}x{} k={k}",
                        a.rows(),
                        a.cols()
                    );
                }
            }
        }
        // The benchmark's triangle shape: 4^4 -> 7^4, all ±1.
        let plan = YatesPlan::new(&tensor.alpha0().transpose(), 4);
        assert_eq!(plan.accumulations(), 8580);
    }

    #[test]
    fn yates_matches_naive_square() {
        let field = f();
        let mut rng = SplitMix64::new(1);
        for k in 1..=4 {
            let a = random_small(3, 3, &mut rng);
            let x: Vec<u64> =
                (0..3usize.pow(k)).map(|_| rng.next_u64() % field.modulus()).collect();
            assert_eq!(
                yates(&field, &a, k as usize, &x),
                kronecker_apply_naive(&field, &a, k as usize, &x),
                "k = {k}"
            );
        }
    }

    #[test]
    fn yates_matches_naive_rectangular() {
        let field = f();
        let mut rng = SplitMix64::new(2);
        for (t, s, k) in [(2usize, 3usize, 3usize), (4, 2, 3), (7, 4, 2), (1, 3, 3)] {
            let a = random_small(t, s, &mut rng);
            let x: Vec<u64> =
                (0..s.pow(k as u32)).map(|_| rng.next_u64() % field.modulus()).collect();
            assert_eq!(
                yates(&field, &a, k, &x),
                kronecker_apply_naive(&field, &a, k, &x),
                "t={t} s={s} k={k}"
            );
        }
    }

    #[test]
    fn yates_zeta_transform_is_subset_sum() {
        // A^{⊗k} with the zeta kernel computes g(Y) = Σ_{X ⊆ Y} x(X),
        // with set bits read most-significant-digit-first.
        let field = f();
        let k = 5;
        let mut rng = SplitMix64::new(3);
        let x: Vec<u64> = (0..1 << k).map(|_| rng.next_u64() % 1000).collect();
        let y = yates(&field, &zeta_matrix(), k, &x);
        for (mask, &yv) in y.iter().enumerate() {
            let mut expect = 0u64;
            let mut sub = mask;
            loop {
                expect = field.add(expect, x[sub]);
                if sub == 0 {
                    break;
                }
                sub = (sub - 1) & mask;
            }
            assert_eq!(yv, expect, "mask {mask:b}");
        }
    }

    #[test]
    fn split_sparse_matches_dense_all_parts() {
        let field = f();
        let mut rng = SplitMix64::new(4);
        for (t, s, k, ell) in [
            (2usize, 2usize, 5usize, 2usize),
            (3, 2, 4, 1),
            (7, 4, 3, 2),
            (2, 2, 4, 0),
            (2, 2, 4, 4),
        ] {
            let a = random_small(t, s, &mut rng);
            let n_in = s.pow(k as u32);
            // sparse input with ~25% support
            let mut sparse = Vec::new();
            let mut dense = vec![0u64; n_in];
            for (j, dj) in dense.iter_mut().enumerate() {
                if rng.next_u64().is_multiple_of(4) {
                    let v = rng.next_u64() % field.modulus();
                    sparse.push((j, v));
                    *dj = v;
                }
            }
            let expected = yates(&field, &a, k, &dense);
            let splitter = SplitSparseYates::new(a, k, ell);
            assert_eq!(
                splitter.full_output(&field, &sparse),
                expected,
                "t={t} s={s} k={k} ell={ell}"
            );
        }
    }

    #[test]
    fn with_support_size_picks_log_t() {
        let a = zeta_matrix();
        let sp = SplitSparseYates::with_support_size(a.clone(), 10, 9);
        assert_eq!(sp.ell(), 4); // 2^4 = 16 >= 9 > 2^3
        let sp1 = SplitSparseYates::with_support_size(a.clone(), 10, 1);
        assert_eq!(sp1.ell(), 0);
        let cap = SplitSparseYates::with_support_size(a, 3, 1000);
        assert_eq!(cap.ell(), 3); // clamped at k
    }

    #[test]
    fn polynomial_extension_agrees_on_integer_nodes() {
        let field = f();
        let mut rng = SplitMix64::new(5);
        let a = random_small(3, 2, &mut rng);
        let (k, ell) = (4usize, 2usize);
        let n_in = 2usize.pow(k as u32);
        let sparse: SparseVec = (0..n_in)
            .filter_map(|j| {
                if rng.next_u64().is_multiple_of(3) {
                    Some((j, rng.next_u64() % field.modulus()))
                } else {
                    None
                }
            })
            .collect();
        let splitter = SplitSparseYates::new(a, k, ell);
        for o in 0..splitter.part_count() {
            let via_poly = poly_eval(&splitter, &field, &sparse, o as u64 + 1);
            let direct = splitter.part(&field, &sparse, o);
            assert_eq!(via_poly, direct, "outer = {o}");
        }
    }

    #[test]
    fn polynomial_extension_has_bounded_degree() {
        // Each component of u(z) is a polynomial of degree < t^{k-ℓ}:
        // interpolating from t^{k-ℓ} generic evaluations must reproduce
        // evaluations elsewhere.
        let field = f();
        let mut rng = SplitMix64::new(6);
        let a = random_small(2, 2, &mut rng);
        let (k, ell) = (5usize, 2usize);
        let sparse: SparseVec = (0..32)
            .filter_map(|j| {
                if rng.next_u64().is_multiple_of(2) {
                    Some((j, rng.next_u64() % field.modulus()))
                } else {
                    None
                }
            })
            .collect();
        let splitter = SplitSparseYates::new(a, k, ell);
        let outer_count = splitter.part_count() as u64; // 8

        // Sample at z = 101..101+outer_count-1 and interpolate component 3.
        let comp = 3usize;
        let pts: Vec<(u64, u64)> = (0..outer_count)
            .map(|i| {
                let z = 101 + i;
                (z, poly_eval(&splitter, &field, &sparse, z)[comp])
            })
            .collect();
        let poly = camelot_poly::interpolate(&field, &pts);
        for z in [0u64, 7, 55, 1_000_000] {
            assert_eq!(
                poly.eval(&field, z),
                poly_eval(&splitter, &field, &sparse, z)[comp],
                "z = {z}"
            );
        }
    }

    #[test]
    fn small_matrix_transpose() {
        let m = SmallMatrix::new(2, 3, vec![1, 2, 3, 4, 5, 6]);
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.get(0, 1), 4);
        assert_eq!(t.get(2, 0), 3);
    }
}
