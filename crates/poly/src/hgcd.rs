//! Half-GCD structured partial extended Euclid.
//!
//! [`Poly::partial_xgcd`] walks the Euclidean remainder sequence one
//! division at a time — quadratic in the degree, and the committed
//! `BENCH_algebra.json` trajectory shows it dominating Gao decoding past
//! 2^12. This module computes the *same prefix of the same remainder
//! sequence* by the divide-and-conquer half-GCD: quotients are
//! speculated from the top coefficients of the pair, accumulated in a
//! 2×2 matrix of cofactor polynomials, and applied in bulk through the
//! cached [`crate::NttPlan`] products of the multipoint machinery
//! (Karatsuba below the transform threshold or for moduli without
//! two-adic structure) — `O(M(e) log e)` end to end.
//!
//! Speculation is *defensively verified*: a matrix computed from
//! truncated operands is applied to the full pair and accepted only if
//! the resulting degrees certify it as a genuine quotient prefix. A
//! regular matrix (a product of Euclidean step matrices with
//! positive-degree quotients) whose image keeps strictly decreasing
//! degrees *is* the Euclidean prefix of the pair — continued-fraction
//! uniqueness — so a rejected window simply falls back to classical
//! division steps for that stretch. The output is therefore
//! bit-identical to [`Poly::partial_xgcd`] on every input: the
//! remainder, quotient, and cofactor sequences of a pair are unique and
//! no normalization is applied anywhere.

use crate::dense::Poly;
use crate::multipoint::{div_rem_ctx, MulContext};
use camelot_ff::PrimeField;

/// Degree gap (current head degree minus the target) below which
/// [`reduce`] steps classically instead of recursing: a handful of
/// short-quotient divisions is cheaper than matrix bookkeeping.
const HGCD_BASE_GAP: usize = 16;

/// A 2×2 matrix of cofactor polynomials acting on a remainder pair:
/// `(r0'; r1') = M · (r0; r1)`. Row 0 holds the Bézout cofactors of the
/// current head `r0'`, row 1 those of `r1'` — exactly the
/// `(u0, v0) / (u1, v1)` state of the classical loop.
#[derive(Clone)]
struct Mat22 {
    m: [[Poly; 2]; 2],
    /// Euclidean quotient steps folded into this matrix (0 ⇔ identity).
    steps: usize,
}

impl Mat22 {
    fn identity() -> Self {
        Mat22 {
            m: [[Poly::constant(1), Poly::zero()], [Poly::zero(), Poly::constant(1)]],
            steps: 0,
        }
    }

    fn row(&self, i: usize) -> (Poly, Poly) {
        (self.m[i][0].clone(), self.m[i][1].clone())
    }

    /// Folds one Euclidean step with quotient `q`: `self ← Q·self` with
    /// `Q = [[0, 1], [1, -q]]` — row swap plus one row update, cheaper
    /// than a general product. The two `q`-products share `q`'s forward
    /// transform (3 forwards + 2 inverses instead of 4 + 2) when the
    /// spectral route applies.
    fn push_step(&mut self, ctx: &MulContext, q: &Poly) {
        let f = ctx.field();
        self.m.swap(0, 1);
        let lens = [q.coeffs().len(), self.m[0][0].coeffs().len(), self.m[0][1].coeffs().len()];
        let out = (lens[0] + lens[1]).max(lens[0] + lens[2]).saturating_sub(1);
        let (q0, q1) = match ctx.shared_plan(&lens, out) {
            Some(k) => {
                let sq = ctx.spectrum(q, k);
                let s0 = ctx.spectrum(&self.m[0][0], k);
                let s1 = ctx.spectrum(&self.m[0][1], k);
                (
                    ctx.spectral_mul_add(&sq, &s0, None, out),
                    ctx.spectral_mul_add(&sq, &s1, None, out),
                )
            }
            None => (ctx.mul(q, &self.m[0][0]), ctx.mul(q, &self.m[0][1])),
        };
        let r10 = self.m[1][0].sub(f, &q0);
        let r11 = self.m[1][1].sub(f, &q1);
        self.m[1] = [r10, r11];
        self.steps += 1;
    }

    /// `later · earlier` (the matrix applied second multiplies from the
    /// left). Each of the eight entry polynomials is forward-transformed
    /// once and reused across the two products it appears in (8 forwards
    /// plus 4 inverses instead of 16 + 8 plus four add passes) when the
    /// spectral route applies; the fallback formula and the shared route
    /// produce bit-identical entries (exact arithmetic mod `q`).
    fn compose(ctx: &MulContext, later: &Mat22, earlier: &Mat22) -> Mat22 {
        if earlier.steps == 0 {
            return later.clone();
        }
        if later.steps == 0 {
            return earlier.clone();
        }
        let f = ctx.field();
        let lens: Vec<usize> =
            later.m.iter().chain(earlier.m.iter()).flatten().map(|p| p.coeffs().len()).collect();
        let pair_out = |a: usize, b: usize| (lens[a] + lens[4 + b]).saturating_sub(1);
        let out = (0..2)
            .flat_map(|i| (0..2).map(move |j| pair_out(2 * i, j).max(pair_out(2 * i + 1, 2 + j))))
            .max()
            .unwrap_or(0);
        let m = match ctx.shared_plan(&lens, out) {
            Some(k) => {
                let sl = later.m.each_ref().map(|row| row.each_ref().map(|p| ctx.spectrum(p, k)));
                let se = earlier.m.each_ref().map(|row| row.each_ref().map(|p| ctx.spectrum(p, k)));
                let entry = |i: usize, j: usize| {
                    ctx.spectral_mul_add(&sl[i][0], &se[0][j], Some((&sl[i][1], &se[1][j])), out)
                };
                [[entry(0, 0), entry(0, 1)], [entry(1, 0), entry(1, 1)]]
            }
            None => {
                let entry = |i: usize, j: usize| {
                    ctx.mul(&later.m[i][0], &earlier.m[0][j])
                        .add(f, &ctx.mul(&later.m[i][1], &earlier.m[1][j]))
                };
                [[entry(0, 0), entry(0, 1)], [entry(1, 0), entry(1, 1)]]
            }
        };
        Mat22 { m, steps: later.steps + earlier.steps }
    }
}

/// Reconstructs the full-size image of a matrix speculated on the top
/// `2·gap` coefficients and accepts it only when the resulting degrees
/// certify a genuine, non-overshooting quotient prefix: the image head
/// must be nonzero with degree in `[target, deg r1]` and strictly above
/// the image tail. Any regular matrix passing this check is *the*
/// Euclidean prefix of `(s0, s1)` (continued-fraction uniqueness), and
/// `deg ≥ target` rules out skipping past the straddle point.
///
/// `(th, tl)` is the recursion's image of the truncated pair, so with
/// `s_i = top_i·x^l + low_i` the full image is `M·(s0; s1) =
/// (th; tl)·x^l + M·(low0; low1)` — four products on half-size operands
/// instead of full-size ones.
#[allow(clippy::too_many_arguments)]
fn reconstruct_verified(
    ctx: &MulContext,
    rm: &Mat22,
    s0: &Poly,
    s1: &Poly,
    th: &Poly,
    tl: &Poly,
    l: usize,
    target: usize,
    d1: usize,
) -> Option<(Poly, Poly)> {
    if rm.steps == 0 {
        return None;
    }
    let f = ctx.field();
    let low0 = s0.truncated(l);
    let low1 = s1.truncated(l);
    // The two matrix-vector rows share the forward transforms of the
    // vector (and each matrix entry transforms once): 6 forwards + 2
    // inverses instead of 8 + 4 when the spectral route applies.
    let lens = [
        rm.m[0][0].coeffs().len(),
        rm.m[0][1].coeffs().len(),
        rm.m[1][0].coeffs().len(),
        rm.m[1][1].coeffs().len(),
        low0.coeffs().len(),
        low1.coeffs().len(),
    ];
    let out = (0..4).map(|e| lens[e] + lens[4 + (e & 1)]).max().unwrap_or(1).saturating_sub(1);
    // When only `low0` or the entries it multiplies fall short — at the
    // top level on an orbit, `low0` of `x^n − 1` is the constant `−1` —
    // its two products go classical and the two long ones share `low1`'s
    // transform: 3 forwards + 2 inverses instead of two full products'
    // 4 + 2.
    let long = [lens[1], lens[3], lens[5]];
    let long_out = (lens[1].max(lens[3]) + lens[5]).saturating_sub(1);
    let (ra, rb) = match (ctx.shared_plan(&lens, out), ctx.shared_plan(&long, long_out)) {
        (Some(k), _) => {
            let v0 = ctx.spectrum(&low0, k);
            let v1 = ctx.spectrum(&low1, k);
            let row = |i: usize| {
                let m0 = ctx.spectrum(&rm.m[i][0], k);
                let m1 = ctx.spectrum(&rm.m[i][1], k);
                ctx.spectral_mul_add(&m0, &v0, Some((&m1, &v1)), out)
            };
            (row(0), row(1))
        }
        (None, Some(k)) => {
            let v1 = ctx.spectrum(&low1, k);
            let row = |i: usize| {
                let m1 = ctx.spectrum(&rm.m[i][1], k);
                let long = ctx.spectral_mul_add(&m1, &v1, None, long_out);
                ctx.mul(&rm.m[i][0], &low0).add(f, &long)
            };
            (row(0), row(1))
        }
        (None, None) => (
            ctx.mul(&rm.m[0][0], &low0).add(f, &ctx.mul(&rm.m[0][1], &low1)),
            ctx.mul(&rm.m[1][0], &low0).add(f, &ctx.mul(&rm.m[1][1], &low1)),
        ),
    };
    let a2 = ra.add(f, &th.shift(l));
    let b2 = rb.add(f, &tl.shift(l));
    let da = a2.degree()?;
    if da < target || da > d1 || b2.degree().is_some_and(|db| db >= da) {
        return None;
    }
    Some((a2, b2))
}

/// Advances the genuine remainder pair `(r0, r1)` (requires
/// `deg r0 > deg r1`, `r1` may be zero) until `r1` is zero or
/// `deg r1 < target`, returning the regular transition matrix `M` with
/// `(s0; s1) = M · (r0; r1)`. The returned pair straddles the target:
/// `deg s0 >= target` whenever `deg r0 >= target` on entry.
fn reduce(ctx: &MulContext, r0: &Poly, r1: &Poly, target: usize) -> (Mat22, Poly, Poly) {
    let mut m = Mat22::identity();
    let (mut s0, mut s1) = (r0.clone(), r1.clone());
    loop {
        let Some(d1) = s1.degree() else { return (m, s0, s1) };
        if d1 < target {
            return (m, s0, s1);
        }
        let d0 = s0.degree().expect("remainder pair head is nonzero");
        debug_assert!(d0 > d1, "remainder pair degrees must strictly decrease");
        let gap = d0 - target;
        if gap >= HGCD_BASE_GAP {
            if d0 > 2 * gap {
                // Safe window: the quotient sequence down to degree
                // `target` is determined by the top `2·gap` coefficients
                // alone, so speculate there and verify on the full pair.
                let l = d0 - 2 * gap;
                let (rm, th, tl) = reduce(ctx, &s0.shift_down(l), &s1.shift_down(l), gap);
                if let Some((a2, b2)) =
                    reconstruct_verified(ctx, &rm, &s0, &s1, &th, &tl, l, target, d1)
                {
                    m = Mat22::compose(ctx, &rm, &m);
                    (s0, s1) = (a2, b2);
                    continue;
                }
            } else {
                // The pair is not long enough to truncate: close half the
                // gap by exact recursion on the same pair (which *can*
                // truncate internally), then loop for the rest.
                let mid = d0 - gap.div_ceil(2);
                if d1 >= mid {
                    let (rm, a2, b2) = reduce(ctx, &s0, &s1, mid);
                    m = Mat22::compose(ctx, &rm, &m);
                    (s0, s1) = (a2, b2);
                    continue;
                }
            }
        }
        // Base gap, rejected speculation, or a quotient already spanning
        // the recursion window: one classical step (genuine by
        // construction; the quotient here is short in all three cases,
        // so the Newton division is cheap).
        let (q, r) = div_rem_ctx(ctx, &s0, &s1);
        m.push_step(ctx, &q);
        (s0, s1) = (s1, r);
    }
}

/// Drop-in fast version of [`Poly::partial_xgcd`]: identical
/// `(u, v, r)` contract and stop-degree semantics, bit-identical output,
/// by the structured half-GCD path at every operand size (on the Gao
/// decode shape it beats the classical loop at every measured size; the
/// classical loop stays as the reference the tests hold it to).
///
/// # Panics
///
/// Panics if both inputs are zero.
#[must_use]
pub fn partial_xgcd_fast(
    field: &PrimeField,
    a: &Poly,
    b: &Poly,
    stop_degree: usize,
) -> (Poly, Poly, Poly) {
    assert!(!(a.is_zero() && b.is_zero()), "partial_xgcd of two zero polynomials");
    // The longest product formed is an operand times a cofactor, and a
    // cofactor's degree is bounded by the degree the sequence drops —
    // not the product of the two operands, which is never formed (and
    // whose plan chain, for `x^n − 1` against a degree-`< n` partner, is
    // a power of two longer). Anything past the bound would still
    // multiply correctly, through `Poly::mul`.
    let longest = a.coeffs().len().max(b.coeffs().len());
    let ctx = MulContext::new(field, longest + longest.saturating_sub(stop_degree) + 2);
    let mut m = Mat22::identity();
    let (mut r0, mut r1) = (a.clone(), b.clone());
    loop {
        if r1.is_zero() {
            break;
        }
        let Some(d0) = r0.degree() else { break };
        if d0 < stop_degree {
            break;
        }
        let d1 = r1.degree().expect("checked nonzero");
        if d1 >= d0 {
            // Irregular head (`deg b >= deg a` on entry — never inside a
            // genuine sequence): one classical step restores the
            // invariant.
            let (q, r) = div_rem_ctx(&ctx, &r0, &r1);
            m.push_step(&ctx, &q);
            (r0, r1) = (r1, r);
            continue;
        }
        if d1 < stop_degree {
            // The classical loop's final iteration only promotes r1 and
            // its cofactor row; no division result is ever used.
            let (u, v) = m.row(1);
            return (u, v, r1);
        }
        let (rm, s0, s1) = reduce(&ctx, &r0, &r1, stop_degree);
        m = Mat22::compose(&ctx, &rm, &m);
        (r0, r1) = (s0, s1);
    }
    let (u, v) = m.row(0);
    (u, v, r0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use camelot_ff::{ntt_prime, SplitMix64};

    fn ntt_field() -> PrimeField {
        let (q, _) = ntt_prime(1 << 20, 14);
        PrimeField::new(q).unwrap()
    }

    fn plain_field() -> PrimeField {
        PrimeField::new(1_000_000_007).unwrap()
    }

    fn random_poly(field: &PrimeField, deg: usize, rng: &mut SplitMix64) -> Poly {
        Poly::from_reduced(
            (0..=deg).map(|i| if i == deg { 1 } else { field.sample(rng) }).collect(),
        )
    }

    fn assert_matches_classical(field: &PrimeField, a: &Poly, b: &Poly, stop: usize) {
        let classical = a.partial_xgcd(field, b, stop);
        let structured = partial_xgcd_fast(field, a, b, stop);
        assert_eq!(
            structured,
            classical,
            "deg a = {:?}, deg b = {:?}, stop = {stop}, q = {}",
            a.degree(),
            b.degree(),
            field.modulus()
        );
    }

    /// Randomized pairs from toy to transform-sized degrees,
    /// with every stop-degree regime (0 = full gcd, middle, above both
    /// degrees), against the classical loop — for an NTT-friendly prime
    /// and one with no two-adic structure.
    #[test]
    fn structured_matches_classical_on_random_pairs() {
        for field in [ntt_field(), plain_field()] {
            let mut rng = SplitMix64::new(41);
            for (da, db) in [
                (20usize, 11usize),
                (30, 23),
                (64, 63),
                (200, 100),
                (257, 255),
                (400, 399),
                (900, 500),
            ] {
                let a = random_poly(&field, da, &mut rng);
                let b = random_poly(&field, db, &mut rng);
                for stop in [0usize, 1, db / 2, db, da / 2 + db / 2, da, da + 5] {
                    assert_matches_classical(&field, &a, &b, stop);
                }
            }
        }
    }

    /// Planted common factors produce degenerate remainder sequences
    /// (large quotients, early termination); the structured path must
    /// track them exactly down to the gcd.
    #[test]
    fn structured_matches_classical_with_planted_gcd() {
        let field = ntt_field();
        let mut rng = SplitMix64::new(42);
        let g = random_poly(&field, 40, &mut rng);
        let a = g.mul(&field, &random_poly(&field, 160, &mut rng));
        let b = g.mul(&field, &random_poly(&field, 120, &mut rng));
        for stop in [0usize, 20, 41, 100, 170] {
            assert_matches_classical(&field, &a, &b, stop);
        }
        // Exact multiples: the sequence ends after a single division.
        let k = random_poly(&field, 90, &mut rng);
        let a = g.mul(&field, &k);
        for stop in [0usize, 40, 95] {
            assert_matches_classical(&field, &a, &g, stop);
        }
    }

    /// Edge cases the classical loop defines behaviour for: one zero
    /// operand (either side), equal degrees, `deg b > deg a`, constants.
    #[test]
    fn structured_matches_classical_on_edge_cases() {
        let field = ntt_field();
        let mut rng = SplitMix64::new(43);
        let p = random_poly(&field, 300, &mut rng);
        let q = random_poly(&field, 300, &mut rng);
        let small = random_poly(&field, 3, &mut rng);
        for stop in [0usize, 5, 150, 301] {
            assert_matches_classical(&field, &p, &Poly::zero(), stop);
            assert_matches_classical(&field, &Poly::zero(), &p, stop);
            assert_matches_classical(&field, &p, &q, stop); // equal degrees
            assert_matches_classical(&field, &small, &p, stop); // deg b > deg a
            assert_matches_classical(&field, &p, &Poly::constant(7), stop);
            assert_matches_classical(&field, &Poly::constant(7), &p, stop);
        }
    }

    #[test]
    #[should_panic(expected = "two zero polynomials")]
    fn structured_rejects_two_zeros() {
        let field = ntt_field();
        let _ = partial_xgcd_fast(&field, &Poly::zero(), &Poly::zero(), 3);
    }

    /// The decoder's operands on a roots-of-unity code: `a = x^n − 1`
    /// and `b = Λ·g`, with `Λ` the locator of the absent positions (a
    /// few erasures on a full orbit, the unused tail besides on a
    /// partial one) and the stop degree raised by `deg Λ`.
    #[test]
    fn structured_matches_classical_on_orbit_and_locator_operands() {
        for field in [ntt_field(), plain_field()] {
            let mut rng = SplitMix64::new(46);
            for (n, absent) in [(256usize, 0usize), (256, 5), (512, 197), (1024, 389)] {
                let a = Poly::monomial(1, n).sub(&field, &Poly::constant(1));
                let survivors = n - absent;
                let locator = random_poly(&field, absent, &mut rng);
                let b = locator.mul(&field, &random_poly(&field, survivors - 1, &mut rng));
                let gao_stop = (survivors + survivors / 2 + 2) / 2 + absent;
                for stop in [0usize, absent, n / 2, gao_stop, n] {
                    assert_matches_classical(&field, &a, &b, stop);
                }
            }
        }
    }

    /// The Gao-shaped call on general points: `a` is a vanishing
    /// polynomial, `b` an interpolation of corrupted values, stop just
    /// past half.
    #[test]
    fn structured_matches_classical_on_gao_shape() {
        let field = ntt_field();
        let mut rng = SplitMix64::new(45);
        let e = 512usize;
        let d = 255usize;
        let xs: Vec<u64> = (0..e as u64).collect();
        let g0 = crate::multipoint::vanishing_poly(&field, &xs);
        let pts: Vec<(u64, u64)> = xs.iter().map(|&x| (x, field.sample(&mut rng))).collect();
        let g1 = crate::interp::interpolate(&field, &pts);
        let stop = (e + d + 2) / 2;
        assert_matches_classical(&field, &g0, &g1, stop);
    }
}
