//! Cached NTT plans, transform-backed products and Newton division.
//!
//! The `M(d) = d log d log log d` fast-arithmetic toolbox of §2.2 of the
//! paper, as the decoder and the recovery sums use it: every polynomial
//! product is routed through [`NttPlan::multiply`] when the modulus is
//! NTT-friendly at the required transform length, and falls back to the
//! Karatsuba path in [`Poly::mul`] otherwise. Long divisions use Newton
//! iteration on the reversed divisor (power-series inversion), so
//! [`div_rem_fast`] costs `O(M(n))` rather than the classical `O(n²)`,
//! and [`vanishing_poly`] multiplies balanced halves, `O(M(n) log n)`.
//!
//! Multipoint evaluation and interpolation on arbitrary points stay
//! quadratic ([`crate::eval_many`], [`crate::interpolate`]): the
//! engine's codes live on a root-of-unity orbit, where both are one
//! transform.

use crate::dense::Poly;
use crate::ntt::NttPlan;
use camelot_ff::PrimeField;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Points per leaf of [`vanishing_poly`]'s balanced product: below this
/// size one linear factor at a time beats transform bookkeeping.
const LEAF_SIZE: usize = 32;

/// Minimum operand length for routing a product through the NTT; shorter
/// products stay on the schoolbook/Karatsuba path.
const NTT_MUL_THRESHOLD: usize = 32;

/// Divisor length at which Euclidean division switches from the classical
/// `O(n·m)` loop to Newton iteration on the reversed divisor.
const FAST_DIV_THRESHOLD: usize = 32;

/// `ceil(log2 n)` for `n >= 1`.
fn ceil_log2(n: usize) -> u32 {
    n.next_power_of_two().trailing_zeros()
}

/// Multiplication strategy for one field: NTT plans for every transform
/// length the modulus supports (capped at the requested maximum product
/// length), with [`Poly::mul`] as the fallback.
pub(crate) struct MulContext {
    field: PrimeField,
    /// `plans[k]` runs transforms of length `2^k`; empty when the modulus
    /// has no two-adic structure.
    plans: PlanChain,
}

/// Plans for transform lengths `2^0 .. 2^k` over one modulus.
type PlanChain = Arc<Vec<Arc<NttPlan>>>;

/// Bound on the plan cache: one engine run touches a handful of primes,
/// so this is generous, but it keeps a long-lived process that walks
/// many prime schedules from accumulating twiddle tables forever.
const PLAN_CACHE_CAPACITY: usize = 64;

/// Process-wide cache of NTT plan chains keyed by modulus, so repeated
/// products and divisions over the same field (one field per engine prime) pay
/// the primitive-root search and twiddle-table construction once.
fn plan_chain(field: &PrimeField, log_len: u32) -> PlanChain {
    static CACHE: OnceLock<Mutex<HashMap<u64, PlanChain>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = cache.lock().expect("NTT plan cache poisoned");
    if let Some(chain) = map.get(&field.modulus()) {
        if chain.len() > log_len as usize {
            return Arc::clone(chain);
        }
    }
    if map.len() >= PLAN_CACHE_CAPACITY {
        // Wholesale reset beats per-entry LRU bookkeeping here: hitting
        // the bound at all means the workload churns through moduli, and
        // rebuilding a chain is cheap relative to using it.
        map.clear();
    }
    let mut chain = Vec::with_capacity(log_len as usize + 1);
    let mut cur = NttPlan::new(field, log_len);
    while let Some(plan) = cur {
        cur = plan.halved();
        chain.push(Arc::new(plan));
    }
    chain.reverse();
    let chain = Arc::new(chain);
    map.insert(field.modulus(), Arc::clone(&chain));
    chain
}

/// A shared, process-cached NTT plan of length `2^log_len` over `field`,
/// or `None` when the modulus does not admit one (`2^log_len` must
/// divide `q - 1`). Repeated callers (one Reed–Solomon code per engine
/// prime, every transform-backed product) reuse the same twiddle tables.
#[must_use]
pub fn cached_ntt_plan(field: &PrimeField, log_len: u32) -> Option<Arc<NttPlan>> {
    if !(field.modulus() - 1).is_multiple_of(1u64 << log_len) {
        return None;
    }
    plan_chain(field, log_len).get(log_len as usize).cloned()
}

impl MulContext {
    /// Builds a strategy for products of up to `max_product_len`
    /// coefficients over `field`.
    pub(crate) fn new(field: &PrimeField, max_product_len: usize) -> Self {
        let need = ceil_log2(max_product_len.max(1));
        let supported = (field.modulus() - 1).trailing_zeros();
        let k = need.min(supported);
        // Transforms shorter than the NTT threshold would never be used.
        let plans = if (1u64 << k) >= NTT_MUL_THRESHOLD as u64 {
            plan_chain(field, k)
        } else {
            Arc::new(Vec::new())
        };
        MulContext { field: *field, plans }
    }

    /// The field this context multiplies over.
    pub(crate) fn field(&self) -> &PrimeField {
        &self.field
    }

    /// `a * b`, through the NTT when both operands are long enough and a
    /// plan of the required length exists.
    pub(crate) fn mul(&self, a: &Poly, b: &Poly) -> Poly {
        if a.is_zero() || b.is_zero() {
            return Poly::zero();
        }
        let (alen, blen) = (a.coeffs().len(), b.coeffs().len());
        if alen.min(blen) >= NTT_MUL_THRESHOLD {
            let k = ceil_log2(alen + blen - 1) as usize;
            if let Some(plan) = self.plans.get(k) {
                return plan.multiply(a, b);
            }
        }
        a.mul(&self.field, b)
    }

    /// Index of the plan covering `out_len`-coefficient products, when
    /// the modulus supports a transform that long.
    pub(crate) fn spectral_plan(&self, out_len: usize) -> Option<usize> {
        let k = ceil_log2(out_len.max(1)) as usize;
        if self.plans.get(k).is_some() {
            Some(k)
        } else {
            None
        }
    }

    /// Forward-transforms `p` under plan `k`. The returned [`Spectrum`]
    /// is the transform-sharing currency: a polynomial transformed once
    /// multiplies pointwise against every partner spectrum, so a matrix
    /// product pays one forward per distinct entry instead of one per
    /// product it appears in.
    pub(crate) fn spectrum(&self, p: &Poly, k: usize) -> Spectrum {
        let plan = &self.plans[k];
        let mut data = p.coeffs().to_vec();
        data.resize(plan.len(), 0);
        plan.forward_lazy_rev(&mut data);
        Spectrum { k, data }
    }

    /// `a·b` (plus `c·d` when given) back in the coefficient domain,
    /// truncated to `out_len` coefficients: one pointwise pass per
    /// product and a single inverse transform, against two full
    /// multiplies and an add pass. All spectra must come from plan `a.k`
    /// and both products must fit `out_len`.
    pub(crate) fn spectral_mul_add(
        &self,
        a: &Spectrum,
        b: &Spectrum,
        cd: Option<(&Spectrum, &Spectrum)>,
        out_len: usize,
    ) -> Poly {
        let plan = &self.plans[a.k];
        debug_assert!(out_len <= plan.len(), "product exceeds the shared transform length");
        let mut acc = a.data.clone();
        self.field.mul_slice(&mut acc, &b.data);
        if let Some((c, d)) = cd {
            debug_assert!(a.k == b.k && a.k == c.k && a.k == d.k, "mixed-plan spectra");
            self.field.mul_add_slice(&mut acc, &c.data, &d.data);
        }
        plan.inverse_from_rev(&mut acc);
        acc.truncate(out_len);
        Poly::from_reduced(acc)
    }

    /// Plan index for transform-sharing a family of products: engages
    /// only when *every* operand clears the NTT threshold (short
    /// operands multiply faster classically) and a plan covers the
    /// longest product. `None` means the caller should fall back to its
    /// [`MulContext::mul`]-based formula.
    pub(crate) fn shared_plan(&self, operand_lens: &[usize], out_len: usize) -> Option<usize> {
        if operand_lens.iter().all(|&l| l >= NTT_MUL_THRESHOLD) {
            self.spectral_plan(out_len)
        } else {
            None
        }
    }
}

/// The frequency-domain image of a polynomial under the plan of index
/// `k` in a [`MulContext`]: `forward_lazy_rev` output — bit-reversed
/// order, lazy `[0, 2q)` values — consumable by the order-agnostic
/// pointwise slice kernels.
pub(crate) struct Spectrum {
    k: usize,
    data: Vec<u64>,
}

/// Maximum number of wrapped-around coefficients [`low_product`]
/// corrects by direct convolution; past this the next transform size is
/// cheaper than the scalar correction.
const WRAP_CORRECT_MAX: usize = 64;

/// The low `m` coefficients of `a·b` — `mul(a, b).truncated(m)` — with
/// one transform-size reduction where it matters: when the full product
/// length only *just* exceeds the power of two covering the operands
/// (the systematic shape in Newton division, where operand lengths sit a
/// few coefficients past `2^k`), the plain product pays for a `2^(k+1)`
/// transform to carry a handful of top coefficients. Instead, multiply
/// cyclically at `2^k` and repair the few low coefficients polluted by
/// the wrap-around with a direct `O(wrapped²)` convolution of the
/// operand tops. Bit-identical to the plain truncated product (exact
/// arithmetic mod `q`; the true coefficients are unique).
fn low_product(ctx: &MulContext, a: &Poly, b: &Poly, m: usize) -> Poly {
    let (alen, blen) = (a.coeffs().len(), b.coeffs().len());
    if alen == 0 || blen == 0 {
        return Poly::zero();
    }
    let full = alen + blen - 1;
    let n = alen.max(blen).max(m).next_power_of_two();
    let wrapped = full.saturating_sub(n);
    if wrapped == 0 || wrapped > WRAP_CORRECT_MAX || alen.min(blen) < NTT_MUL_THRESHOLD {
        return ctx.mul(a, b).truncated(m);
    }
    let Some(k) = ctx.spectral_plan(n) else {
        return ctx.mul(a, b).truncated(m);
    };
    let sa = ctx.spectrum(a, k);
    let sb = ctx.spectrum(b, k);
    let mut w = ctx.spectral_mul_add(&sa, &sb, None, n).into_coeffs();
    w.resize(n, 0);
    // Coefficient `n + j` of the true product wrapped onto `w[j]`;
    // recompute it directly from the operand tops and subtract.
    let f = ctx.field();
    let (ac, bc) = (a.coeffs(), b.coeffs());
    for (j, wj) in w.iter_mut().enumerate().take(wrapped) {
        let cj = n + j;
        let lo = cj + 1 - blen;
        let hi = alen - 1;
        let mut s = 0u64;
        for i in lo..=hi {
            s = f.mul_add(s, ac[i], bc[cj - i]);
        }
        *wj = f.sub(*wj, s);
    }
    w.truncate(m);
    Poly::from_reduced(w)
}

/// `a - q·b` when the difference is known to have degree below `db` —
/// the remainder of an exact Euclidean division. The product is needed
/// only modulo `x^N - 1` for any `N > deg r`, so fold `q`, `b`, and `a`
/// into the smallest transform covering `db` and multiply cyclically —
/// typically a quarter of the full linear product's transform work.
/// `None` when the cyclic route does not apply (short operands, no
/// plan); bit-identical to the linear formula otherwise (the remainder
/// is unique and its degree bound is a theorem, not a guess).
fn cyclic_remainder(ctx: &MulContext, a: &Poly, q: &Poly, b: &Poly, db: usize) -> Option<Poly> {
    let n = db.max(1).next_power_of_two();
    if q.coeffs().len().min(b.coeffs().len()) < NTT_MUL_THRESHOLD {
        return None;
    }
    // Only profitable when the fold actually shrinks the transform.
    if n >= (q.coeffs().len() + b.coeffs().len() - 1).next_power_of_two() {
        return None;
    }
    let k = ctx.spectral_plan(n)?;
    let field = ctx.field();
    let fold = |p: &Poly| {
        let mut out = vec![0u64; n];
        for (i, &c) in p.coeffs().iter().enumerate() {
            let slot = i % n;
            out[slot] = field.add(out[slot], c);
        }
        Poly::from_reduced(out)
    };
    let sq = ctx.spectrum(&fold(q), k);
    let sb = ctx.spectrum(&fold(b), k);
    let qb = ctx.spectral_mul_add(&sq, &sb, None, n);
    Some(fold(a).sub(field, &qb))
}

/// Power-series inverse of `f` modulo `x^n` by Newton iteration with
/// the middle-product refinement: since `g` entering a step *is* the
/// unique inverse mod `x^p`, the product `f·g mod x^k` is `1` in its
/// low `p` coefficients, so `g·(2 − fg) mod x^k` collapses to
/// `g − x^p·(g·e mod x^{k−p})` with `e` the coefficients `[p, k)` of
/// `f·g` — two products at half the naive step's operand sizes, both
/// routed through [`low_product`] (transform-size-exact, shared cached
/// plans). Bit-identical to the textbook step: the inverse series mod
/// `x^k` is unique.
///
/// `f.coeff(0)` must be invertible (nonzero).
pub(crate) fn inv_series(ctx: &MulContext, f: &Poly, n: usize) -> Poly {
    let field = &ctx.field;
    let mut g = Poly::constant(field.inv(f.coeff(0)));
    let mut k = 1usize;
    while k < n {
        let p = k;
        k = (2 * k).min(n);
        let f_k = f.truncated(k);
        let fg = low_product(ctx, &f_k, &g, k);
        let fgc = fg.coeffs();
        debug_assert!(
            fgc.first().is_none_or(|&c| c == 1) && fgc.iter().take(p).skip(1).all(|&c| c == 0),
            "Newton invariant violated: f·g must be 1 mod x^p"
        );
        let e = Poly::from_reduced(fgc.iter().skip(p).copied().collect());
        if e.is_zero() {
            // g is already exact to the higher precision.
            continue;
        }
        let delta = low_product(ctx, &g, &e, k - p);
        let mut coeffs = g.coeffs().to_vec();
        coeffs.resize(p, 0);
        coeffs.extend(delta.coeffs().iter().map(|&c| field.neg(c)));
        g = Poly::from_reduced(coeffs);
    }
    g
}

/// Euclidean division `(quotient, remainder)` dispatching to Newton
/// iteration past [`FAST_DIV_THRESHOLD`], classical [`Poly::div_rem`]
/// below it.
///
/// # Panics
///
/// Panics if `b` is the zero polynomial.
pub(crate) fn div_rem_ctx(ctx: &MulContext, a: &Poly, b: &Poly) -> (Poly, Poly) {
    let db = b.degree().expect("polynomial division by zero");
    let Some(da) = a.degree() else {
        return (Poly::zero(), Poly::zero());
    };
    if da < db {
        return (Poly::zero(), a.clone());
    }
    if b.coeffs().len() < FAST_DIV_THRESHOLD {
        return a.div_rem(&ctx.field, b);
    }
    let n_q = da - db + 1;
    // rev(a) = rev(b) · rev(q) mod x^{n_q}, so q is the length-n_q
    // reversal of rev(a) · rev(b)^{-1}.
    let inv_rb = inv_series(ctx, &b.reversed(db + 1), n_q);
    let ra = a.reversed(da + 1).truncated(n_q);
    let q = low_product(ctx, &ra, &inv_rb, n_q).reversed(n_q);
    // r = a - q·b has degree < db, so the product is needed only modulo
    // x^N - 1 for the smallest transform N covering db.
    let r =
        cyclic_remainder(ctx, a, &q, b, db).unwrap_or_else(|| a.sub(&ctx.field, &ctx.mul(&q, b)));
    debug_assert!(r.degree().is_none_or(|dr| dr < db), "fast division remainder too large");
    (q, r)
}

/// Euclidean division `(quotient, remainder)` through the cached-plan
/// fast path: Newton inverse-series division with NTT products past the
/// internal thresholds, classical [`Poly::div_rem`] below them.
/// Bit-identical to the classical routine (the field quotient and
/// remainder are unique) — a drop-in replacement for long divisions on
/// hot paths such as the Gao decoder's `g / v` step.
///
/// # Panics
///
/// Panics if `b` is the zero polynomial.
#[must_use]
pub fn div_rem_fast(field: &PrimeField, a: &Poly, b: &Poly) -> (Poly, Poly) {
    let ctx = MulContext::new(field, a.coeffs().len() + 2);
    div_rem_ctx(&ctx, a, b)
}

/// `Π_i (x - x_i)`: the products over the two halves of the points
/// multiplied through the NTT when the modulus allows, down to 32-point
/// leaves multiplied out one linear factor at a time — `O(M(n) log n)`.
#[must_use]
pub fn vanishing_poly(field: &PrimeField, points: &[u64]) -> Poly {
    let reduced: Vec<u64> = points.iter().map(|&x| field.reduce(x)).collect();
    let ctx = MulContext::new(field, reduced.len() + 1);
    vanishing_product(&ctx, &reduced)
}

/// [`vanishing_poly`] on reduced points.
fn vanishing_product(ctx: &MulContext, points: &[u64]) -> Poly {
    if points.len() > LEAF_SIZE {
        let (left, right) = points.split_at(points.len() / 2);
        return ctx.mul(&vanishing_product(ctx, left), &vanishing_product(ctx, right));
    }
    let field = &ctx.field;
    let mut g = Poly::constant(1);
    for &x in points {
        g = g.mul(field, &Poly::from_reduced(vec![field.neg(x), 1]));
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use camelot_ff::{ntt_prime, RngLike, SplitMix64};

    fn ntt_field() -> PrimeField {
        // 2^14-smooth prime: full NTT coverage for every size used here.
        let (q, _) = ntt_prime(1 << 20, 14);
        PrimeField::new(q).unwrap()
    }

    fn plain_field() -> PrimeField {
        // 1e9+7 has two-adicity 1: every product falls back to
        // Karatsuba.
        PrimeField::new(1_000_000_007).unwrap()
    }

    fn random_poly(field: &PrimeField, deg: usize, rng: &mut SplitMix64) -> Poly {
        Poly::from_reduced(
            (0..=deg).map(|i| if i == deg { 1 } else { field.sample(rng) }).collect(),
        )
    }

    fn distinct_points(field: &PrimeField, n: usize, rng: &mut SplitMix64) -> Vec<u64> {
        let mut set = std::collections::BTreeSet::new();
        while set.len() < n {
            set.insert(field.sample(rng));
        }
        let mut v: Vec<u64> = set.into_iter().collect();
        // Shuffle so point order is unrelated to value order.
        for i in (1..v.len()).rev() {
            v.swap(i, (rng.next_u64() as usize) % (i + 1));
        }
        v
    }

    #[test]
    fn inv_series_is_inverse() {
        let field = ntt_field();
        let mut rng = SplitMix64::new(21);
        let ctx = MulContext::new(&field, 1 << 10);
        for n in [1usize, 2, 7, 64, 200] {
            let mut f = random_poly(&field, 150, &mut rng);
            if f.coeff(0) == 0 {
                f = f.add(&field, &Poly::constant(1));
            }
            let g = inv_series(&ctx, &f, n);
            let prod = ctx.mul(&f, &g).truncated(n);
            assert_eq!(prod, Poly::constant(1), "f * f^-1 != 1 mod x^{n}");
        }
    }

    #[test]
    fn fast_division_matches_classical() {
        for field in [ntt_field(), plain_field()] {
            let mut rng = SplitMix64::new(22);
            let ctx = MulContext::new(&field, 1 << 10);
            for (da, db) in [(300usize, 40usize), (200, 200), (500, 33), (40, 100)] {
                let a = random_poly(&field, da, &mut rng);
                let b = random_poly(&field, db, &mut rng);
                let (qf, rf) = div_rem_ctx(&ctx, &a, &b);
                let (qc, rc) = a.div_rem(&field, &b);
                assert_eq!(qf, qc, "quotient for degrees {da}/{db}");
                assert_eq!(rf, rc, "remainder for degrees {da}/{db}");
            }
        }
    }

    /// Division shapes whose operand lengths straddle powers of two —
    /// the regime where [`low_product`] multiplies cyclically and
    /// repairs the wrapped coefficients, and [`cyclic_remainder`] folds
    /// the remainder product into a smaller transform (the Gao decode
    /// division `g / v` has exactly this shape). Exact divisions pin the
    /// `r = 0` path the decoder relies on.
    #[test]
    fn fast_division_matches_classical_at_power_of_two_boundaries() {
        let field = ntt_field();
        let mut rng = SplitMix64::new(24);
        let ctx = MulContext::new(&field, 1 << 12);
        for (da, db) in [
            (769usize, 256usize), // n_q = 514: wrapped quotient product
            (768, 256),           // n_q = 513: single wrapped coefficient
            (1023, 255),          // no wrap, cyclic remainder at 256
            (1025, 513),          // both lengths just past a power of two
            (511, 257),           // quotient shorter than the divisor
        ] {
            let a = random_poly(&field, da, &mut rng);
            let b = random_poly(&field, db, &mut rng);
            let (qf, rf) = div_rem_ctx(&ctx, &a, &b);
            let (qc, rc) = a.div_rem(&field, &b);
            assert_eq!((qf, rf), (qc, rc), "degrees {da}/{db}");
            // Exact division: the remainder must come out identically zero.
            let exact = ctx.mul(&b, &random_poly(&field, da - db, &mut rng));
            let (qe, re) = div_rem_ctx(&ctx, &exact, &b);
            assert!(re.is_zero(), "exact division left a remainder at {da}/{db}");
            assert_eq!(ctx.mul(&qe, &b), exact, "exact quotient reconstructs the dividend");
        }
    }

    #[test]
    fn cached_plans_are_shared_and_correct() {
        let field = ntt_field();
        let a = cached_ntt_plan(&field, 9).expect("field supports 2^9");
        let b = cached_ntt_plan(&field, 9).expect("field supports 2^9");
        assert!(Arc::ptr_eq(&a, &b), "same plan instance must be reused");
        assert_eq!(a.len(), 512);
        // Evaluation semantics: forward output j = poly(root^j).
        let poly = Poly::from_coeffs(&field, [3, 1, 4, 1, 5]);
        let mut vals = poly.coeffs().to_vec();
        vals.resize(a.len(), 0);
        a.forward(&mut vals);
        let mut x = 1u64;
        for (j, &v) in vals.iter().enumerate() {
            assert_eq!(v, poly.eval(&field, x), "index {j}");
            x = field.mul(x, a.root());
        }
        // Unfriendly modulus refuses.
        assert!(cached_ntt_plan(&plain_field(), 2).is_none());
    }

    #[test]
    fn vanishing_poly_matches_incremental() {
        for field in [ntt_field(), plain_field()] {
            let mut rng = SplitMix64::new(27);
            for n in [1usize, 40, 600] {
                let xs = distinct_points(&field, n, &mut rng);
                let mut expect = Poly::constant(1);
                for &x in &xs {
                    expect = expect.mul(&field, &Poly::from_reduced(vec![field.neg(x), 1]));
                }
                assert_eq!(vanishing_poly(&field, &xs), expect, "{n} points");
            }
        }
    }

    #[test]
    fn vanishing_poly_of_empty_set_is_one() {
        let field = ntt_field();
        assert_eq!(vanishing_poly(&field, &[]), Poly::constant(1));
    }
}
