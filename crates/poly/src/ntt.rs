//! Number-theoretic transforms for NTT-friendly prime moduli.
//!
//! When `q ≡ 1 (mod 2^k)` the field has a primitive `2^k`-th root of
//! unity and degree-`< 2^{k-1}` polynomials multiply in `O(n log n)`
//! operations — the `M(d) = d log d log log d` toolbox of §2.2 of the
//! paper. The engine's deterministic prime schedule does not require
//! NTT-friendly primes, so this is an opt-in fast path: build an
//! [`NttPlan`] when the modulus admits one (e.g. from
//! [`camelot_ff::ntt_prime`]) and use [`NttPlan::multiply`].
//!
//! A plan precomputes the full per-round twiddle tables (with their Shoup
//! companions) at construction, so the butterfly loops run with two word
//! multiplications per twiddle application and no chained root powering.
//!
//! The butterfly rounds themselves run through the lazy-reduction slice
//! kernels of `camelot-ff` (Harvey-style: values ride in `[0, 4q)`
//! through Cooley–Tukey rounds and `[0, 2q)` through Gentleman–Sande
//! rounds, with one conditional correction per butterfly instead of
//! three), and [`NttPlan::multiply`] skips all bit-reversal permutations
//! by pairing a decimation-in-frequency forward with a
//! decimation-in-time inverse.

use crate::dense::Poly;
use camelot_ff::{primitive_root, PrimeField};

/// One butterfly round's twiddles `w^0, …, w^{span-1}` with their Shoup
/// companions for [`PrimeField::mul_shoup`].
#[derive(Clone, Debug)]
struct TwiddleTable {
    w: Vec<u64>,
    shoup: Vec<u64>,
}

impl TwiddleTable {
    /// Powers `w_span^0 .. w_span^{span-1}` plus Shoup companions.
    fn new(field: &PrimeField, w_span: u64, span: usize) -> Self {
        let mut w = Vec::with_capacity(span);
        let mut acc = 1u64;
        for _ in 0..span {
            w.push(acc);
            acc = field.mul(acc, w_span);
        }
        let shoup = w.iter().map(|&c| field.shoup_precompute(c)).collect();
        TwiddleTable { w, shoup }
    }
}

/// A radix-2 NTT execution plan for transforms of length `2^k` over a
/// fixed prime field.
#[derive(Clone, Debug)]
pub struct NttPlan {
    field: PrimeField,
    log_len: u32,
    /// Primitive `2^k`-th root of unity.
    root: u64,
    /// `(2^k)^{-1} mod q` with its Shoup companion.
    len_inv: u64,
    len_inv_shoup: u64,
    /// Per-round twiddle tables, round `r` having span `2^r`.
    fwd: Vec<TwiddleTable>,
    inv: Vec<TwiddleTable>,
}

impl NttPlan {
    /// Builds a plan for transforms of length `2^log_len`, if the field
    /// supports one (`2^log_len` must divide `q - 1`).
    #[must_use]
    pub fn new(field: &PrimeField, log_len: u32) -> Option<Self> {
        let q = field.modulus();
        let len = 1u64 << log_len;
        if !(q - 1).is_multiple_of(len) {
            return None;
        }
        let g = primitive_root(q);
        let root = field.pow(g, (q - 1) >> log_len);
        Some(Self::from_root(field, log_len, root))
    }

    /// Builds a plan from a known primitive `2^log_len`-th root of unity,
    /// skipping the primitive-root search. Used to derive the plans for
    /// every smaller transform length from one top-level plan (see
    /// [`NttPlan::halved`]).
    ///
    /// # Panics
    ///
    /// Panics if `root` does not have multiplicative order exactly
    /// `2^log_len` (a wrong order would silently produce incorrect
    /// transforms; the two `pow` checks are negligible next to the
    /// twiddle-table construction).
    #[must_use]
    pub fn from_root(field: &PrimeField, log_len: u32, root: u64) -> Self {
        let len = 1u64 << log_len;
        assert_eq!(field.pow(root, len), 1, "root order mismatch");
        assert!(log_len == 0 || field.pow(root, len / 2) != 1, "root order mismatch");
        let root_inv = if log_len == 0 { 1 } else { field.inv(root) };
        let len_inv = field.inv(field.reduce(len));
        let build = |base: u64| {
            (0..log_len)
                .map(|r| {
                    let span = 1usize << r;
                    let w_span = field.pow(base, len >> (r + 1));
                    TwiddleTable::new(field, w_span, span)
                })
                .collect()
        };
        NttPlan {
            field: *field,
            log_len,
            root,
            len_inv,
            len_inv_shoup: field.shoup_precompute(len_inv),
            fwd: build(root),
            inv: build(root_inv),
        }
    }

    /// The plan for transforms of half this length (squares the root), or
    /// `None` for a length-1 plan.
    #[must_use]
    pub fn halved(&self) -> Option<NttPlan> {
        let log = self.log_len.checked_sub(1)?;
        Some(Self::from_root(&self.field, log, self.field.mul(self.root, self.root)))
    }

    /// Transform length `2^log_len`.
    #[must_use]
    pub fn len(&self) -> usize {
        1 << self.log_len
    }

    /// The primitive `2^log_len`-th root of unity the plan transforms
    /// with: `forward` output index `j` is the input polynomial evaluated
    /// at `root^j`.
    #[must_use]
    pub fn root(&self) -> u64 {
        self.root
    }

    /// Always false (a plan has positive length); provided alongside
    /// [`NttPlan::len`] per API convention.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// In-place forward transform (natural order in, natural order out,
    /// fully reduced `[0, q)` outputs).
    ///
    /// # Panics
    ///
    /// Panics unless `values.len() == self.len()`.
    pub fn forward(&self, values: &mut [u64]) {
        assert_eq!(values.len(), self.len(), "transform length mismatch");
        self.bit_reverse(values);
        self.ct_rounds(values, &self.fwd);
        self.field.reduce_lazy_slice(values);
    }

    /// In-place inverse transform (includes the `1/n` scaling; fully
    /// reduced `[0, q)` outputs).
    ///
    /// # Panics
    ///
    /// Panics unless `values.len() == self.len()`.
    pub fn inverse(&self, values: &mut [u64]) {
        assert_eq!(values.len(), self.len(), "transform length mismatch");
        self.bit_reverse(values);
        self.ct_rounds(values, &self.inv);
        // The Shoup scaling pass fully reduces the lazy `[0, 4q)` state.
        self.field.mul_const_shoup_slice(values, self.len_inv, self.len_inv_shoup);
    }

    /// Forward transform into **bit-reversed** order with lazy `[0, 2q)`
    /// outputs: Gentleman–Sande (decimation-in-frequency) rounds, no
    /// permutation pass. Paired with [`NttPlan::inverse_from_rev`] this
    /// skips all three bit-reversals of a permuted product; pointwise
    /// stages between the two must tolerate `[0, 2q)` operands (the
    /// `camelot-ff` slice kernels do).
    pub(crate) fn forward_lazy_rev(&self, values: &mut [u64]) {
        assert_eq!(values.len(), self.len(), "transform length mismatch");
        self.gs_rounds(values, &self.fwd);
    }

    /// Inverse transform consuming **bit-reversed** input (any values in
    /// `[0, 4q)`): Cooley–Tukey (decimation-in-time) rounds — whose
    /// permutation pass is exactly absorbed by the bit-reversed input
    /// order — plus the `1/n` scaling. Fully reduced `[0, q)` outputs in
    /// natural order.
    pub(crate) fn inverse_from_rev(&self, values: &mut [u64]) {
        assert_eq!(values.len(), self.len(), "transform length mismatch");
        self.ct_rounds(values, &self.inv);
        self.field.mul_const_shoup_slice(values, self.len_inv, self.len_inv_shoup);
    }

    /// In-place bit-reversal permutation.
    fn bit_reverse(&self, values: &mut [u64]) {
        if self.log_len == 0 {
            return;
        }
        let shift = u32::BITS - self.log_len;
        for i in 0..values.len() {
            let j = ((i as u32).reverse_bits() >> shift) as usize;
            if i < j {
                values.swap(i, j);
            }
        }
    }

    // lint:hot-begin(ntt-butterfly) — the butterfly rounds dominate
    // every fast-path product; the inner loops run through the
    // lazy-reduction slice kernels of `camelot-ff` (one conditional
    // correction per butterfly, bounds-check-free fixed-width blocks).
    // No `%`, no clones, no allocation; `tests/hot_regions.rs` enforces
    // this region.

    /// Cooley–Tukey rounds over bit-reversed input: spans `1, 2, …`
    /// reading `tables[r]` for span `2^r`. `values.len()` must be a power
    /// of two at least `2^tables.len()` (blocks of `2·span` tile the
    /// slice). Values ride lazily in `[0, 4q)`; callers reduce or scale
    /// after.
    fn ct_rounds(&self, values: &mut [u64], tables: &[TwiddleTable]) {
        let f = &self.field;
        for table in tables {
            let span = table.w.len();
            for block in values.chunks_exact_mut(2 * span) {
                let (lo, hi) = block.split_at_mut(span);
                f.butterfly_ct_lazy_slice(lo, hi, &table.w, &table.shoup);
            }
        }
    }

    /// Gentleman–Sande rounds from natural-order input: the same tables
    /// iterated in reverse span order (`tables.last()` first). Values
    /// ride lazily in `[0, 2q)`; output is in bit-reversed order.
    fn gs_rounds(&self, values: &mut [u64], tables: &[TwiddleTable]) {
        let f = &self.field;
        for table in tables.iter().rev() {
            let span = table.w.len();
            for block in values.chunks_exact_mut(2 * span) {
                let (lo, hi) = block.split_at_mut(span);
                f.butterfly_gs_lazy_slice(lo, hi, &table.w, &table.shoup);
            }
        }
    }

    // lint:hot-end

    /// Multiplies two polynomials through the transform.
    ///
    /// Runs permutation-free: a decimation-in-frequency forward for each
    /// operand (bit-reversed, lazy `[0, 2q)` outputs), an order-agnostic
    /// pointwise [`PrimeField::mul_slice`], and a decimation-in-time
    /// inverse that absorbs the bit-reversed order — saving all three
    /// bit-reversal passes of the permuted route while producing
    /// bit-identical coefficients (the arithmetic is exact mod `q`).
    ///
    /// # Panics
    ///
    /// Panics if the product degree does not fit the transform length.
    #[must_use]
    pub fn multiply(&self, a: &Poly, b: &Poly) -> Poly {
        if a.is_zero() || b.is_zero() {
            return Poly::zero();
        }
        let out_len = a.coeffs().len() + b.coeffs().len() - 1;
        assert!(out_len <= self.len(), "product degree exceeds the transform length");
        let mut fa = a.coeffs().to_vec();
        let mut fb = b.coeffs().to_vec();
        fa.resize(self.len(), 0);
        fb.resize(self.len(), 0);
        self.forward_lazy_rev(&mut fa);
        self.forward_lazy_rev(&mut fb);
        self.field.mul_slice(&mut fa, &fb);
        self.inverse_from_rev(&mut fa);
        fa.truncate(out_len);
        Poly::from_reduced(fa)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camelot_ff::{ntt_prime, SplitMix64};

    fn plan(k: u32) -> (PrimeField, NttPlan) {
        let (q, _) = ntt_prime(1 << 20, k);
        let field = PrimeField::new(q).unwrap();
        let plan = NttPlan::new(&field, k).expect("prime was built for this length");
        (field, plan)
    }

    #[test]
    fn unfriendly_modulus_is_refused() {
        // 1_000_000_007 - 1 = 2 * 500000003: only one factor of two.
        let field = PrimeField::new(1_000_000_007).unwrap();
        assert!(NttPlan::new(&field, 1).is_some());
        assert!(NttPlan::new(&field, 2).is_none());
    }

    #[test]
    fn forward_inverse_roundtrip() {
        let (field, plan) = plan(10);
        let mut rng = SplitMix64::new(5);
        let original: Vec<u64> = (0..1024).map(|_| field.sample(&mut rng)).collect();
        let mut values = original.clone();
        plan.forward(&mut values);
        assert_ne!(values, original, "transform must move the data");
        plan.inverse(&mut values);
        assert_eq!(values, original);
    }

    #[test]
    fn multiply_matches_karatsuba() {
        let (field, plan) = plan(11);
        let mut rng = SplitMix64::new(6);
        for (da, db) in [(0usize, 0usize), (5, 9), (300, 500), (1023, 1000)] {
            let a = Poly::from_reduced(
                (0..=da).map(|i| if i == da { 1 } else { field.sample(&mut rng) }).collect(),
            );
            let b = Poly::from_reduced(
                (0..=db).map(|i| if i == db { 1 } else { field.sample(&mut rng) }).collect(),
            );
            assert_eq!(plan.multiply(&a, &b), a.mul(&field, &b), "degrees {da},{db}");
        }
    }

    #[test]
    fn multiply_handles_zero() {
        let (field, plan) = plan(4);
        let a = Poly::from_coeffs(&field, [1, 2, 3]);
        assert!(plan.multiply(&a, &Poly::zero()).is_zero());
        assert!(plan.multiply(&Poly::zero(), &a).is_zero());
    }

    #[test]
    #[should_panic(expected = "exceeds the transform length")]
    fn oversize_product_rejected() {
        let (field, plan) = plan(3);
        let a = Poly::from_coeffs(&field, (1..=6).collect::<Vec<u64>>());
        let _ = plan.multiply(&a, &a); // degree 10 > 7
    }

    #[test]
    fn convolution_theorem_spot_check() {
        // Forward transform of a delta at position p is the geometric
        // sequence root^(p*i).
        let (field, plan) = plan(5);
        let mut values = vec![0u64; 32];
        values[1] = 1;
        plan.forward(&mut values);
        let w = values[1];
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(v, field.pow(w, i as u64), "index {i}");
        }
    }

    #[test]
    fn halved_plans_agree_with_fresh_plans() {
        let (field, plan) = plan(9);
        let mut rng = SplitMix64::new(7);
        let mut current = plan;
        for k in (0..9).rev() {
            current = current.halved().expect("can halve down to length 1");
            assert_eq!(current.len(), 1 << k);
            let fresh = NttPlan::new(&field, k).expect("field supports all smaller lengths");
            let original: Vec<u64> = (0..1 << k).map(|_| field.sample(&mut rng)).collect();
            let mut a = original.clone();
            let mut b = original.clone();
            current.forward(&mut a);
            fresh.forward(&mut b);
            assert_eq!(a, b, "length 2^{k}");
            current.inverse(&mut a);
            assert_eq!(a, original);
        }
        assert!(current.halved().is_none());
    }

    #[test]
    fn lazy_rev_forward_agrees_with_permuted_forward() {
        // forward_lazy_rev + full reduction + un-bit-reversal must equal
        // the public natural-order forward for every length down to 1.
        for k in 0..=10u32 {
            let (field, plan) = plan(k);
            let n = 1usize << k;
            let mut rng = SplitMix64::new(11 + u64::from(k));
            let original: Vec<u64> = (0..n).map(|_| field.sample(&mut rng)).collect();
            let q = field.modulus();

            let mut reference = original.clone();
            plan.forward(&mut reference);

            let mut lazy = original.clone();
            plan.forward_lazy_rev(&mut lazy);
            for &v in &lazy {
                assert!(v < 2 * q, "lazy output out of [0, 2q)");
            }
            let mut unscrambled = vec![0u64; n];
            let shift = u32::BITS - k.max(1);
            for (i, &v) in lazy.iter().enumerate() {
                let j = if k == 0 { 0 } else { ((i as u32).reverse_bits() >> shift) as usize };
                unscrambled[j] = v.min(v.wrapping_sub(q));
            }
            assert_eq!(unscrambled, reference, "length 2^{k}");

            // And the permutation-free inverse round-trips the pair.
            plan.inverse_from_rev(&mut lazy);
            assert_eq!(lazy, original, "length 2^{k} roundtrip");
        }
    }
}
