//! Subproduct-tree multipoint evaluation and fast interpolation.
//!
//! The remaining pieces of the `M(d) = d log d log log d` fast-arithmetic
//! toolbox of §2.2 of the paper: [`PointTree::eval_many`] evaluates a degree-`d`
//! polynomial at `n` points in `O(M(n) log n)` instead of Horner's
//! `O(d·n)`, and [`interpolate_fast`] inverts that map in the same bound
//! instead of Newton's `O(n²)`. Both walk a *subproduct tree* over the
//! evaluation points; every polynomial product along the way is routed
//! through [`NttPlan::multiply`] when the modulus is NTT-friendly at the
//! required transform length, and falls back to the Karatsuba path in
//! [`Poly::mul`] otherwise. Divisions use Newton iteration on the
//! reversed divisor (power-series inversion), so a full tree descent
//! costs `O(M(n) log n)` rather than the `O(n²)` a classical remainder
//! sequence would pay at the root.
//!
//! The quadratic routines ([`crate::eval_many`], [`crate::interpolate`])
//! are the oracles; [`PointTree`] and [`interpolate_fast`] dispatch to
//! them below a crossover size, so callers can use the fast paths
//! unconditionally.

use crate::dense::Poly;
use crate::interp::{eval_many, interpolate, interpolate_reduced};
use crate::ntt::NttPlan;
use camelot_ff::PrimeField;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Evaluation points per subproduct-tree leaf. Below this size quadratic
/// Horner/synthetic-division work beats transform bookkeeping, so the
/// tree bottoms out in chunks instead of single points.
const LEAF_SIZE: usize = 32;

/// Minimum operand length for routing a product through the NTT; shorter
/// products stay on the schoolbook/Karatsuba path.
const NTT_MUL_THRESHOLD: usize = 32;

/// Divisor length at which Euclidean division switches from the classical
/// `O(n·m)` loop to Newton iteration on the reversed divisor.
const FAST_DIV_THRESHOLD: usize = 32;

/// Minimum point count for subproduct-tree evaluation. Horner costs
/// `O(d·n)` while the tree costs `~EVAL_DEGREE_FACTOR·n·log²n` field
/// operations, so the tree also needs the degree gate below; both
/// constants are fitted on the committed `BENCH_algebra.json` trajectory
/// (the tree's Newton divisions carry a large constant, so quadratic
/// Horner stays competitive surprisingly long).
const EVAL_MIN_POINTS: usize = 1024;

/// Degree gate for tree evaluation: tree only when
/// `poly_len >= EVAL_DEGREE_FACTOR · log2(n)²` (e.g. degree ≥ n at
/// n = 2^12, degree ≥ n/2 at 2^13 — below that the trajectory shows the
/// tree at or under parity with Horner).
const EVAL_DEGREE_FACTOR: usize = 17;

/// Point count at which tree interpolation overtakes Newton divided
/// differences with NTT products. Re-measured against the in-place
/// [`interpolate`] and unchanged: at 2048 consecutive points a cached
/// [`PointTree`] takes 1.4 ms against the quadratic routine's 3.8 ms
/// (26.7 ms on points that are no progression). A one-shot
/// [`interpolate_fast`], which builds its tree per call, takes 6.1 ms
/// there — behind the quadratic routine on a progression, far ahead of
/// it on any other point set, level with it at 4096 (13.9 vs 14.9 ms).
const INTERP_CROSSOVER_NTT: usize = 2048;

/// Crossover when products can only use Karatsuba (NTT-unfriendly
/// modulus): the tree's constant factor is much larger, so the quadratic
/// routines stay competitive far longer. Re-measured against the
/// in-place [`interpolate`] and unchanged: at 4096 consecutive points
/// mod 1048583 the cached tree takes 12.3 ms, the quadratic routine
/// 15.6 ms (105 ms off a progression); at 8192, 37 against 64 ms.
const TREE_CROSSOVER_KARATSUBA: usize = 4096;

/// Point count past which [`vanishing_poly`] builds by tree; incremental
/// multiplication below (the tree also wins earlier here, since no
/// divisions are involved).
const VANISH_CROSSOVER: usize = 128;

/// `ceil(log2 n)` for `n >= 1`.
fn ceil_log2(n: usize) -> u32 {
    n.next_power_of_two().trailing_zeros()
}

/// Multiplication strategy for one field: NTT plans for every transform
/// length the modulus supports (capped at the requested maximum product
/// length), with [`Poly::mul`] as the fallback.
#[derive(Clone)]
pub(crate) struct MulContext {
    field: PrimeField,
    /// `plans[k]` runs transforms of length `2^k`; empty when the modulus
    /// has no two-adic structure.
    plans: Arc<Vec<Arc<NttPlan>>>,
    /// Whether the plans cover the maximum product length this context
    /// was built for (false forces Karatsuba for the large products).
    covers_max: bool,
}

/// Plans for transform lengths `2^0 .. 2^k` over one modulus.
type PlanChain = Arc<Vec<Arc<NttPlan>>>;

/// Bound on the plan cache: one engine run touches a handful of primes,
/// so this is generous, but it keeps a long-lived process that walks
/// many prime schedules from accumulating twiddle tables forever.
const PLAN_CACHE_CAPACITY: usize = 64;

/// Process-wide cache of NTT plan chains keyed by modulus, so repeated
/// tree operations over the same field (one field per engine prime) pay
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
/// prime, every subproduct-tree product) reuse the same twiddle tables.
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
        MulContext { field: *field, plans, covers_max: k == need }
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

    /// `a·b + c·d` with shared transforms (4 forwards + 1 inverse
    /// instead of 4 + 2 and an add pass) when the spectral route
    /// applies, falling back to two [`MulContext::mul`]s otherwise.
    /// Bit-identical either way: the arithmetic is exact mod `q`.
    pub(crate) fn mul2_add(&self, a: &Poly, b: &Poly, c: &Poly, d: &Poly) -> Poly {
        let lens = [a, b, c, d].map(|p| p.coeffs().len());
        let out_len = (lens[0] + lens[1]).max(lens[2] + lens[3]).saturating_sub(1);
        if let Some(k) = self.shared_plan(&lens, out_len) {
            let (sa, sb) = (self.spectrum(a, k), self.spectrum(b, k));
            let (sc, sd) = (self.spectrum(c, k), self.spectrum(d, k));
            return self.spectral_mul_add(&sa, &sb, Some((&sc, &sd)), out_len);
        }
        self.mul(a, b).add(&self.field, &self.mul(c, d))
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

/// Quotient of `l` by the linear factor `(x - xi)` via synthetic
/// division, discarding the remainder (exact when `xi` is a root of `l`).
fn synthetic_div_linear(field: &PrimeField, l: &Poly, xi: u64) -> Poly {
    let cs = l.coeffs();
    debug_assert!(cs.len() > 1, "dividend must have positive degree");
    let d = cs.len() - 1;
    let mut out = vec![0u64; d];
    let mut acc = 0u64;
    // lint:hot-begin(synthetic-division) — one fused mul-add per
    // coefficient; every leaf of a tree interpolation runs through here.
    for k in (0..d).rev() {
        acc = field.mul_add(cs[k + 1], acc, xi);
        out[k] = acc;
    }
    // lint:hot-end
    Poly::from_reduced(out)
}

/// A subproduct tree over a list of (reduced, distinct-or-not) points:
/// level 0 holds the products `Π (x - x_i)` over [`LEAF_SIZE`]-point
/// chunks, and each higher level pairwise-multiplies the one below (an
/// odd tail node is carried up unchanged). The root is the vanishing
/// polynomial of the whole point set.
struct SubproductTree {
    points: Vec<u64>,
    levels: Vec<Vec<Poly>>,
}

impl SubproductTree {
    fn build(ctx: &MulContext, points: &[u64]) -> Self {
        debug_assert!(!points.is_empty(), "subproduct tree needs at least one point");
        let field = &ctx.field;
        let leaves: Vec<Poly> = points
            .chunks(LEAF_SIZE)
            .map(|chunk| {
                let mut g = Poly::constant(1);
                for &x in chunk {
                    g = g.mul(field, &Poly::from_reduced(vec![field.neg(x), 1]));
                }
                g
            })
            .collect();
        let mut levels = vec![leaves];
        while levels.last().expect("nonempty tree").len() > 1 {
            let next: Vec<Poly> = levels
                .last()
                .expect("nonempty tree")
                .chunks(2)
                .map(|pair| if let [l, r] = pair { ctx.mul(l, r) } else { pair[0].clone() })
                .collect();
            levels.push(next);
        }
        SubproductTree { points: points.to_vec(), levels }
    }

    /// The vanishing polynomial `Π_i (x - x_i)`.
    fn root(&self) -> &Poly {
        &self.levels.last().expect("nonempty tree")[0]
    }

    fn top_level(&self) -> usize {
        self.levels.len() - 1
    }

    /// Point-index bounds `[start, end)` of node `(level, idx)`: it spans
    /// `2^level` leaves of [`LEAF_SIZE`] points, clipped to the point count.
    fn node_bounds(&self, level: usize, idx: usize) -> (usize, usize) {
        let span = LEAF_SIZE << level;
        (idx * span, ((idx + 1) * span).min(self.points.len()))
    }

    /// The chunk of points owned by leaf `idx`.
    fn leaf_points(&self, idx: usize) -> &[u64] {
        let (start, end) = self.node_bounds(0, idx);
        &self.points[start..end]
    }

    /// Number of points below node `(level, idx)`.
    fn count_points(&self, level: usize, idx: usize) -> usize {
        let (start, end) = self.node_bounds(level, idx);
        end - start
    }
}

/// A reusable subproduct tree over a fixed point set, with memoized
/// per-node inverse series (the Newton-division scaffolding of every
/// tree descent) and Lagrange weights. Callers that evaluate or
/// interpolate over the *same* points repeatedly — a Reed–Solomon code
/// encodes, re-encodes, and interpolates per decode, at every deciding
/// node — pay the tree construction once instead of per call.
///
/// Its entry points dispatch at measured crossovers — [`eval_many`] and
/// [`interpolate_fast`]'s below them — and return bit-identical results
/// to those oracles; the cache only removes rebuilding.
pub struct PointTree {
    ctx: MulContext,
    tree: SubproductTree,
    /// Per `(level, idx)` memo of the inverse series of the node
    /// polynomial reversed, to the maximum precision any descent
    /// division against the node can need (its sibling's degree).
    inv: Vec<Vec<OnceLock<Poly>>>,
    /// Inverted Lagrange denominators `1 / M'(x_i)`.
    weights: OnceLock<Vec<u64>>,
}

impl std::fmt::Debug for PointTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PointTree({} points mod {})", self.len(), self.ctx.field.modulus())
    }
}

impl PointTree {
    /// Builds the tree over `points` (reduced mod `q`; need not be
    /// distinct — interpolation will reject duplicates, evaluation does
    /// not care).
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty.
    #[must_use]
    pub fn new(field: &PrimeField, points: &[u64]) -> Self {
        let reduced: Vec<u64> = points.iter().map(|&x| field.reduce(x)).collect();
        let ctx = MulContext::new(field, reduced.len() + 1);
        Self::with_ctx(ctx, reduced)
    }

    /// Builds over already-reduced points with a caller-supplied
    /// multiplication strategy.
    fn with_ctx(ctx: MulContext, reduced: Vec<u64>) -> Self {
        let tree = SubproductTree::build(&ctx, &reduced);
        let inv = tree
            .levels
            .iter()
            .map(|level| level.iter().map(|_| OnceLock::new()).collect())
            .collect();
        PointTree { ctx, tree, inv, weights: OnceLock::new() }
    }

    /// Number of points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tree.points.len()
    }

    /// True when the tree holds no points (never constructible).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tree.points.is_empty()
    }

    /// The (reduced) points.
    #[must_use]
    pub fn points(&self) -> &[u64] {
        &self.tree.points
    }

    /// The modulus the tree was built over.
    #[must_use]
    pub fn modulus(&self) -> u64 {
        self.ctx.field.modulus()
    }

    /// The vanishing polynomial `Π_i (x - x_i)` (the tree root).
    #[must_use]
    pub fn vanishing(&self) -> &Poly {
        self.tree.root()
    }

    /// Evaluates `poly` at every point — output identical to
    /// [`eval_many`], reusing the cached tree when the tree path
    /// engages.
    #[must_use]
    pub fn eval_many(&self, poly: &Poly) -> Vec<u64> {
        let n = self.len();
        let lg = ceil_log2(n.max(2)) as usize;
        if n < EVAL_MIN_POINTS
            || poly.coeffs().len() < EVAL_DEGREE_FACTOR * lg * lg
            || !tree_pays_off(&self.ctx, n, EVAL_MIN_POINTS)
        {
            return eval_many(&self.ctx.field, poly, self.points());
        }
        self.eval_core(poly)
    }

    /// Interpolates the unique polynomial of degree `< n` with
    /// `value[i]` at point `i` — identical dispatch and output to
    /// [`interpolate_fast`], reusing the cached tree and Lagrange
    /// weights when the tree path engages.
    ///
    /// # Panics
    ///
    /// Panics if `values` is not point-count-sized or two points share
    /// an abscissa (mod `q`).
    #[must_use]
    pub fn interpolate(&self, values: &[u64]) -> Poly {
        assert_eq!(values.len(), self.len(), "one value per point");
        let n = self.len();
        if n < INTERP_CROSSOVER_NTT || !tree_pays_off(&self.ctx, n, INTERP_CROSSOVER_NTT) {
            let field = &self.ctx.field;
            let ys = values.iter().map(|&y| field.reduce(y)).collect();
            return interpolate_reduced(field, self.points(), ys);
        }
        self.interpolate_core(values)
    }

    /// The tree descent without crossover dispatch.
    fn eval_core(&self, poly: &Poly) -> Vec<u64> {
        let n = self.len();
        // Reduce once modulo the vanishing polynomial; a no-op whenever
        // deg poly < n (always true for Reed–Solomon encoding).
        let rem = if poly.degree().is_some_and(|d| d >= n) {
            div_rem_ctx(&self.ctx, poly, self.tree.root()).1
        } else {
            poly.clone()
        };
        let mut out = Vec::with_capacity(n);
        self.eval_down(&rem, self.tree.top_level(), 0, &mut out);
        out
    }

    /// Tree interpolation without crossover dispatch.
    fn interpolate_core(&self, values: &[u64]) -> Poly {
        let field = &self.ctx.field;
        let weights = self.lagrange_weights();
        let c: Vec<u64> =
            values.iter().zip(weights).map(|(&y, &w)| field.mul(field.reduce(y), w)).collect();
        self.combine_up(&c, self.tree.top_level(), 0)
    }

    /// `1 / M'(x_i)` per point, computed once per tree.
    ///
    /// # Panics
    ///
    /// Panics if two points coincide (a Lagrange denominator vanishes).
    fn lagrange_weights(&self) -> &[u64] {
        self.weights.get_or_init(|| {
            let field = &self.ctx.field;
            // M' has degree n - 1 < n, so it is already reduced modulo
            // the root and descends directly.
            let m_prime = self.tree.root().derivative(field);
            let mut weights = Vec::with_capacity(self.len());
            self.eval_down(&m_prime, self.tree.top_level(), 0, &mut weights);
            assert!(
                weights.iter().all(|&w| w != 0),
                "interpolation points must be distinct (mod q)"
            );
            field.inv_batch_blocked(&mut weights);
            weights
        })
    }

    /// The maximum quotient length any in-tree division against node
    /// `(level, idx)` can need: descents divide a remainder of degree
    /// below the parent's, so the quotient length is bounded by the
    /// sibling's degree. Zero when the node has no sibling (carried-up
    /// odd nodes are never divisors).
    fn max_quotient_len(&self, level: usize, idx: usize) -> usize {
        let sibling = idx ^ 1;
        match self.tree.levels[level].get(sibling) {
            Some(poly) => poly.degree().unwrap_or(0),
            None => 0,
        }
    }

    /// The inverse series of the reversed node polynomial, memoized at
    /// the node's maximum useful precision.
    fn node_inv(&self, level: usize, idx: usize) -> &Poly {
        self.inv[level][idx].get_or_init(|| {
            let b = &self.tree.levels[level][idx];
            let db = b.degree().expect("tree node polynomials are nonzero");
            inv_series(&self.ctx, &b.reversed(db + 1), self.max_quotient_len(level, idx))
        })
    }

    /// Euclidean division of `a` by tree node `(level, idx)`, through
    /// the memoized inverse series when Newton division engages.
    /// Bit-identical to [`div_rem_ctx`] (the inverse series mod `x^k`
    /// is unique, so a truncated longer series is the series).
    fn div_rem_node(&self, a: &Poly, level: usize, idx: usize) -> (Poly, Poly) {
        let b = &self.tree.levels[level][idx];
        let db = b.degree().expect("tree node polynomials are nonzero");
        let Some(da) = a.degree() else {
            return (Poly::zero(), Poly::zero());
        };
        if da < db {
            return (Poly::zero(), a.clone());
        }
        if b.coeffs().len() < FAST_DIV_THRESHOLD {
            return a.div_rem(&self.ctx.field, b);
        }
        let n_q = da - db + 1;
        if n_q > self.max_quotient_len(level, idx) {
            return div_rem_ctx(&self.ctx, a, b);
        }
        let inv_rb = self.node_inv(level, idx).truncated(n_q);
        let ra = a.reversed(da + 1).truncated(n_q);
        let q = low_product(&self.ctx, &ra, &inv_rb, n_q).reversed(n_q);
        let r = cyclic_remainder(&self.ctx, a, &q, b, db)
            .unwrap_or_else(|| a.sub(&self.ctx.field, &self.ctx.mul(&q, b)));
        debug_assert!(r.degree().is_none_or(|dr| dr < db), "cached division remainder too large");
        (q, r)
    }

    /// Pushes `rem(x_i)` for every point below node `(level, idx)`, in
    /// point order. `rem` must already be reduced modulo the node's
    /// polynomial.
    fn eval_down(&self, rem: &Poly, level: usize, idx: usize, out: &mut Vec<u64>) {
        if level == 0 {
            for &x in self.tree.leaf_points(idx) {
                out.push(rem.eval(&self.ctx.field, x));
            }
            return;
        }
        let child = level - 1;
        let (li, ri) = (2 * idx, 2 * idx + 1);
        if ri >= self.tree.levels[child].len() {
            self.eval_down(rem, child, li, out);
            return;
        }
        let (_, rl) = self.div_rem_node(rem, child, li);
        let (_, rr) = self.div_rem_node(rem, child, ri);
        self.eval_down(&rl, child, li, out);
        self.eval_down(&rr, child, ri, out);
    }

    /// The linear combination `Σ_i c_i · Π_{j≠i} (x - x_j)` over the
    /// points below node `(level, idx)`, where `c` covers exactly those
    /// points — the combination step of fast Lagrange interpolation.
    fn combine_up(&self, c: &[u64], level: usize, idx: usize) -> Poly {
        let field = &self.ctx.field;
        if level == 0 {
            let leaf = &self.tree.levels[0][idx];
            let mut acc = Poly::zero();
            for (i, &xi) in self.tree.leaf_points(idx).iter().enumerate() {
                let partial = synthetic_div_linear(field, leaf, xi).scale(field, c[i]);
                acc = acc.add(field, &partial);
            }
            return acc;
        }
        let child = level - 1;
        let (li, ri) = (2 * idx, 2 * idx + 1);
        if ri >= self.tree.levels[child].len() {
            return self.combine_up(c, child, li);
        }
        let (cl, cr) = c.split_at(self.tree.count_points(child, li));
        let left = self.combine_up(cl, child, li);
        let right = self.combine_up(cr, child, ri);
        self.ctx.mul2_add(&left, &self.tree.levels[child][ri], &right, &self.tree.levels[child][li])
    }
}

/// True when the tree machinery should be used for `n` points with the
/// given context: past the supplied NTT crossover when transforms cover
/// the products, past the (much larger) Karatsuba crossover otherwise.
fn tree_pays_off(ctx: &MulContext, n: usize, ntt_crossover: usize) -> bool {
    if ctx.covers_max {
        n >= ntt_crossover
    } else {
        n >= TREE_CROSSOVER_KARATSUBA
    }
}

/// Subproduct-tree interpolation with no crossover dispatch (testable
/// directly at any size); builds a transient [`PointTree`].
fn interpolate_tree(ctx: &MulContext, points: &[(u64, u64)]) -> Poly {
    let field = &ctx.field;
    let xs: Vec<u64> = points.iter().map(|&(x, _)| field.reduce(x)).collect();
    let ys: Vec<u64> = points.iter().map(|&(_, y)| y).collect();
    PointTree::with_ctx(ctx.clone(), xs).interpolate_core(&ys)
}

/// Interpolates the unique polynomial of degree `< points.len()` through
/// the given `(x, y)` pairs in `O(M(n) log n)` via a subproduct tree
/// (Lagrange weights from the derivative of the vanishing polynomial),
/// falling back to Newton interpolation ([`interpolate`]) below the
/// crossover size.
///
/// Always returns exactly what [`interpolate`] returns.
///
/// # Panics
///
/// Panics if two points share an abscissa (mod `q`).
#[must_use]
pub fn interpolate_fast(field: &PrimeField, points: &[(u64, u64)]) -> Poly {
    let n = points.len();
    if n < INTERP_CROSSOVER_NTT {
        return interpolate(field, points);
    }
    let ctx = MulContext::new(field, n + 1);
    if !tree_pays_off(&ctx, n, INTERP_CROSSOVER_NTT) {
        return interpolate(field, points);
    }
    interpolate_tree(&ctx, points)
}

/// `Π_i (x - x_i)`, by subproduct tree past the crossover size and by
/// incremental multiplication below it.
#[must_use]
pub fn vanishing_poly(field: &PrimeField, points: &[u64]) -> Poly {
    let reduced: Vec<u64> = points.iter().map(|&x| field.reduce(x)).collect();
    if reduced.len() >= VANISH_CROSSOVER {
        let ctx = MulContext::new(field, reduced.len() + 1);
        return SubproductTree::build(&ctx, &reduced).root().clone();
    }
    let mut g = Poly::constant(1);
    for &x in &reduced {
        g = g.mul(field, &Poly::from_reduced(vec![field.neg(x), 1]));
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use camelot_ff::{ntt_prime, RngLike, SplitMix64};

    /// Subproduct-tree evaluation with no crossover dispatch (testable
    /// directly at any size); builds a transient [`PointTree`].
    fn eval_many_tree(ctx: &MulContext, poly: &Poly, xs: &[u64]) -> Vec<u64> {
        let field = &ctx.field;
        let reduced: Vec<u64> = xs.iter().map(|&x| field.reduce(x)).collect();
        PointTree::with_ctx(ctx.clone(), reduced).eval_core(poly)
    }

    fn ntt_field() -> PrimeField {
        // 2^14-smooth prime: full NTT coverage for every size used here.
        let (q, _) = ntt_prime(1 << 20, 14);
        PrimeField::new(q).unwrap()
    }

    fn plain_field() -> PrimeField {
        // 1e9+7 has two-adicity 1: every tree product falls back to
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

    /// The tree internals (no crossover dispatch) must match the Horner
    /// oracle at every size and shape, for NTT-friendly and unfriendly
    /// primes alike.
    #[test]
    fn eval_many_tree_matches_naive() {
        for (field, sizes) in [
            (ntt_field(), vec![(5usize, 100usize), (100, 70), (200, 300), (511, 600)]),
            (plain_field(), vec![(100, 80), (600, 600)]),
        ] {
            let mut rng = SplitMix64::new(23);
            for (deg, npts) in sizes {
                let poly = random_poly(&field, deg, &mut rng);
                let xs = distinct_points(&field, npts, &mut rng);
                let ctx = MulContext::new(&field, npts.max(deg + 1) + 1);
                assert_eq!(
                    eval_many_tree(&ctx, &poly, &xs),
                    eval_many(&field, &poly, &xs),
                    "deg {deg}, {npts} points, q = {}",
                    field.modulus()
                );
            }
        }
    }

    #[test]
    fn eval_many_tree_consecutive_points_and_high_degree() {
        let field = ntt_field();
        let mut rng = SplitMix64::new(24);
        // Consecutive points (the Reed–Solomon schedule) and a dividend
        // whose degree exceeds the point count (forces the root
        // reduction).
        let xs: Vec<u64> = (0..257u64).collect();
        for deg in [80usize, 256, 700] {
            let poly = random_poly(&field, deg, &mut rng);
            let ctx = MulContext::new(&field, 257.max(deg + 1) + 1);
            assert_eq!(
                eval_many_tree(&ctx, &poly, &xs),
                eval_many(&field, &poly, &xs),
                "deg {deg}"
            );
        }
    }

    #[test]
    fn interpolate_tree_matches_naive() {
        for (field, ns) in [(ntt_field(), vec![70usize, 129, 300]), (plain_field(), vec![600])] {
            let mut rng = SplitMix64::new(25);
            for n in ns {
                let xs = distinct_points(&field, n, &mut rng);
                let pts: Vec<(u64, u64)> =
                    xs.iter().map(|&x| (x, field.sample(&mut rng))).collect();
                let ctx = MulContext::new(&field, n + 1);
                assert_eq!(
                    interpolate_tree(&ctx, &pts),
                    interpolate(&field, &pts),
                    "{n} points, q = {}",
                    field.modulus()
                );
            }
        }
    }

    #[test]
    fn interpolate_fast_matches_naive_across_crossover() {
        let field = ntt_field();
        let mut rng = SplitMix64::new(29);
        for n in [200usize, INTERP_CROSSOVER_NTT + 30] {
            let xs: Vec<u64> = (0..n as u64).collect();
            let pts: Vec<(u64, u64)> = xs.iter().map(|&x| (x, field.sample(&mut rng))).collect();
            assert_eq!(interpolate_fast(&field, &pts), interpolate(&field, &pts), "{n} points");
        }
    }

    #[test]
    fn interpolate_tree_roundtrips_evaluation() {
        let field = ntt_field();
        let mut rng = SplitMix64::new(26);
        for n in [64usize, 200] {
            let poly = random_poly(&field, n - 1, &mut rng);
            let xs = distinct_points(&field, n, &mut rng);
            let ctx = MulContext::new(&field, n + 1);
            let ys = eval_many_tree(&ctx, &poly, &xs);
            let pts: Vec<(u64, u64)> = xs.iter().copied().zip(ys).collect();
            assert_eq!(interpolate_tree(&ctx, &pts), poly, "{n} points");
        }
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn interpolate_tree_rejects_repeated_nodes() {
        let field = ntt_field();
        let mut pts: Vec<(u64, u64)> = (0..100u64).map(|x| (x, x + 1)).collect();
        pts[77] = (5, 99); // duplicate abscissa 5
        let ctx = MulContext::new(&field, pts.len() + 1);
        let _ = interpolate_tree(&ctx, &pts);
    }

    /// A kept [`PointTree`] must return the oracle answers on repeated
    /// evaluation and interpolation calls — the warm inverse-series and
    /// weight caches change nothing but the rebuild cost.
    #[test]
    fn point_tree_reuse_is_stable_and_matches_oracles() {
        for field in [ntt_field(), plain_field()] {
            let mut rng = SplitMix64::new(31);
            let n = 300;
            let xs = distinct_points(&field, n, &mut rng);
            let tree = PointTree::new(&field, &xs);
            assert_eq!(tree.len(), n);
            assert_eq!(tree.vanishing(), &vanishing_poly(&field, &xs));
            for deg in [40usize, 299, 500] {
                let poly = random_poly(&field, deg, &mut rng);
                let expect = eval_many(&field, &poly, &xs);
                // Twice: the second call runs on warm caches.
                assert_eq!(tree.eval_core(&poly), expect, "deg {deg} cold");
                assert_eq!(tree.eval_core(&poly), expect, "deg {deg} warm");
            }
            for trial in 0..2 {
                let ys: Vec<u64> = (0..n).map(|_| field.sample(&mut rng)).collect();
                let pts: Vec<(u64, u64)> = xs.iter().copied().zip(ys.iter().copied()).collect();
                assert_eq!(tree.interpolate_core(&ys), interpolate(&field, &pts), "trial {trial}");
            }
        }
    }

    /// The gated public entry points must agree with the free-function
    /// dispatch on both sides of the crossovers.
    #[test]
    fn point_tree_dispatch_matches_free_functions() {
        let field = ntt_field();
        let mut rng = SplitMix64::new(32);
        for (deg, n) in [(300usize, 400usize), (2100, 2150)] {
            let xs: Vec<u64> = (0..n as u64).collect();
            let tree = PointTree::new(&field, &xs);
            let poly = random_poly(&field, deg, &mut rng);
            assert_eq!(tree.eval_many(&poly), eval_many(&field, &poly, &xs), "eval n={n}");
            let ys: Vec<u64> = (0..n).map(|_| field.sample(&mut rng)).collect();
            let pts: Vec<(u64, u64)> = xs.iter().copied().zip(ys.iter().copied()).collect();
            assert_eq!(tree.interpolate(&ys), interpolate_fast(&field, &pts), "interp n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn point_tree_interpolation_rejects_repeated_nodes() {
        let field = ntt_field();
        let mut xs: Vec<u64> = (0..100).collect();
        xs[77] = 5; // duplicate abscissa 5
        let tree = PointTree::new(&field, &xs);
        let _ = tree.interpolate_core(&vec![1u64; 100]);
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

    /// `mul2_add` must equal the two-products-plus-add formula on both
    /// sides of its spectral gate (short operands fall back, long ones
    /// share transforms) and for degenerate operands.
    #[test]
    fn mul2_add_matches_separate_products() {
        for field in [ntt_field(), plain_field()] {
            let mut rng = SplitMix64::new(36);
            let ctx = MulContext::new(&field, 1 << 11);
            let shapes = [
                (3usize, 5usize, 4usize, 2usize), // all short: fallback
                (100, 90, 80, 110),               // all long: spectral
                (200, 3, 150, 160),               // mixed: fallback
                (0, 90, 80, 110),                 // zero operand
            ];
            for (da, db, dc, dd) in shapes {
                let p = |d: usize, rng: &mut SplitMix64| {
                    if d == 0 {
                        Poly::zero()
                    } else {
                        random_poly(&field, d, rng)
                    }
                };
                let (a, b) = (p(da, &mut rng), p(db, &mut rng));
                let (c, d) = (p(dc, &mut rng), p(dd, &mut rng));
                let expect = ctx.mul(&a, &b).add(&field, &ctx.mul(&c, &d));
                assert_eq!(
                    ctx.mul2_add(&a, &b, &c, &d),
                    expect,
                    "shape {da}/{db}/{dc}/{dd}, q = {}",
                    field.modulus()
                );
            }
        }
    }
}
