//! Dense univariate polynomials over a prime field.
//!
//! The fast-arithmetic toolbox of §2.2 of the paper: addition, subtraction,
//! multiplication (schoolbook for short operands, Karatsuba above a
//! threshold), Euclidean division, GCD, and the *partial* extended
//! Euclidean algorithm with an early degree stop — the exact primitive the
//! Gao Reed–Solomon decoder needs (footnote 14 of the paper).

use camelot_ff::PrimeField;

/// Operand length above which multiplication switches to Karatsuba.
const KARATSUBA_THRESHOLD: usize = 32;

/// A dense polynomial `p_0 + p_1 x + ... + p_d x^d` over `Z_q`.
///
/// Coefficients are stored little-endian with no trailing zeros; the zero
/// polynomial has an empty coefficient vector. All operations take the
/// [`PrimeField`] explicitly — a polynomial does not remember its field,
/// which keeps values plain data and mirrors how Camelot nodes rerun the
/// same computation modulo several primes.
#[derive(Clone, Debug, PartialEq, Eq, Default, Hash)]
pub struct Poly {
    coeffs: Vec<u64>,
}

impl Poly {
    /// The zero polynomial.
    #[must_use]
    pub fn zero() -> Self {
        Poly { coeffs: Vec::new() }
    }

    /// The constant polynomial `c` (pass a reduced value).
    #[must_use]
    pub fn constant(c: u64) -> Self {
        if c == 0 {
            Self::zero()
        } else {
            Poly { coeffs: vec![c] }
        }
    }

    /// The monomial `c x^k`.
    #[must_use]
    pub fn monomial(c: u64, k: usize) -> Self {
        if c == 0 {
            return Self::zero();
        }
        let mut coeffs = vec![0; k + 1];
        coeffs[k] = c;
        Poly { coeffs }
    }

    /// Builds a polynomial from little-endian coefficients, reducing each
    /// into the field and trimming trailing zeros.
    #[must_use]
    pub fn from_coeffs(field: &PrimeField, coeffs: impl IntoIterator<Item = u64>) -> Self {
        let mut p = Poly { coeffs: coeffs.into_iter().map(|c| field.reduce(c)).collect() };
        p.normalize();
        p
    }

    /// Builds from already-reduced coefficients without re-reduction.
    #[must_use]
    pub fn from_reduced(coeffs: Vec<u64>) -> Self {
        let mut p = Poly { coeffs };
        p.normalize();
        p
    }

    /// Little-endian coefficients (no trailing zeros).
    #[must_use]
    pub fn coeffs(&self) -> &[u64] {
        &self.coeffs
    }

    /// Consumes the polynomial, returning its coefficients.
    #[must_use]
    pub fn into_coeffs(self) -> Vec<u64> {
        self.coeffs
    }

    /// Coefficient of `x^k` (zero beyond the degree).
    #[must_use]
    pub fn coeff(&self, k: usize) -> u64 {
        self.coeffs.get(k).copied().unwrap_or(0)
    }

    /// True for the zero polynomial.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Degree, or `None` for the zero polynomial.
    #[must_use]
    pub fn degree(&self) -> Option<usize> {
        self.coeffs.len().checked_sub(1)
    }

    fn normalize(&mut self) {
        while self.coeffs.last() == Some(&0) {
            self.coeffs.pop();
        }
    }

    /// `self + other`.
    #[must_use]
    pub fn add(&self, field: &PrimeField, other: &Poly) -> Poly {
        let n = self.coeffs.len().max(other.coeffs.len());
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            out.push(field.add(self.coeff(i), other.coeff(i)));
        }
        Poly::from_reduced(out)
    }

    /// `self - other`.
    #[must_use]
    pub fn sub(&self, field: &PrimeField, other: &Poly) -> Poly {
        let n = self.coeffs.len().max(other.coeffs.len());
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            out.push(field.sub(self.coeff(i), other.coeff(i)));
        }
        Poly::from_reduced(out)
    }

    /// `c * self` for a scalar `c`.
    #[must_use]
    pub fn scale(&self, field: &PrimeField, c: u64) -> Poly {
        Poly::from_reduced(self.coeffs.iter().map(|&a| field.mul(a, c)).collect())
    }

    /// `self mod x^n`: the low `n` coefficients.
    #[must_use]
    pub fn truncated(&self, n: usize) -> Poly {
        if self.coeffs.len() <= n {
            return self.clone();
        }
        Poly::from_reduced(self.coeffs[..n].to_vec())
    }

    /// The length-`len` coefficient reversal `rev_len(f)`: coefficient
    /// `k` of the result is the coefficient of `x^{len-1-k}` in `self`
    /// (zero beyond the stored degree). For `len = deg + 1` this is the
    /// classical reversal `x^deg · f(1/x)` used by Newton-iteration
    /// division.
    #[must_use]
    pub fn reversed(&self, len: usize) -> Poly {
        Poly::from_reduced((0..len).map(|k| self.coeff(len - 1 - k)).collect())
    }

    /// `self quo x^k`: drops the `k` low-order coefficients (the
    /// truncation the half-GCD speculates on).
    #[must_use]
    pub fn shift_down(&self, k: usize) -> Poly {
        if k == 0 {
            return self.clone();
        }
        if self.coeffs.len() <= k {
            return Poly::zero();
        }
        Poly::from_reduced(self.coeffs[k..].to_vec())
    }

    /// `self * x^k`.
    #[must_use]
    pub fn shift(&self, k: usize) -> Poly {
        if self.is_zero() {
            return Poly::zero();
        }
        let mut coeffs = vec![0; k];
        coeffs.extend_from_slice(&self.coeffs);
        Poly { coeffs }
    }

    /// `self * other` (schoolbook for short operands, Karatsuba above an
    /// internal threshold).
    #[must_use]
    pub fn mul(&self, field: &PrimeField, other: &Poly) -> Poly {
        if self.is_zero() || other.is_zero() {
            return Poly::zero();
        }
        let out = mul_rec(field, &self.coeffs, &other.coeffs);
        Poly::from_reduced(out)
    }

    /// Evaluates at `x0` by Horner's rule (this is the verifier's
    /// right-hand side of check (2) in the paper).
    #[must_use]
    pub fn eval(&self, field: &PrimeField, x0: u64) -> u64 {
        field.horner(&self.coeffs, x0)
    }

    /// Formal derivative.
    #[must_use]
    pub fn derivative(&self, field: &PrimeField) -> Poly {
        if self.coeffs.len() <= 1 {
            return Poly::zero();
        }
        let out = self.coeffs[1..]
            .iter()
            .enumerate()
            .map(|(i, &c)| field.mul(c, field.reduce(i as u64 + 1)))
            .collect();
        Poly::from_reduced(out)
    }

    /// Euclidean division: returns `(quotient, remainder)` with
    /// `self = q * other + r` and `deg r < deg other`.
    ///
    /// # Panics
    ///
    /// Panics if `other` is the zero polynomial.
    #[must_use]
    pub fn div_rem(&self, field: &PrimeField, other: &Poly) -> (Poly, Poly) {
        assert!(!other.is_zero(), "polynomial division by zero");
        let d = other.coeffs.len() - 1;
        if self.coeffs.len() <= d {
            return (Poly::zero(), self.clone());
        }
        let lead_inv = field.inv(*other.coeffs.last().expect("nonzero divisor"));
        let mut rem = self.coeffs.clone();
        let mut quot = vec![0u64; self.coeffs.len() - d];
        for i in (d..rem.len()).rev() {
            let c = field.mul(rem[i], lead_inv);
            if c == 0 {
                continue;
            }
            quot[i - d] = c;
            for (j, &oc) in other.coeffs.iter().enumerate() {
                let idx = i - d + j;
                rem[idx] = field.sub(rem[idx], field.mul(c, oc));
            }
        }
        rem.truncate(d);
        (Poly::from_reduced(quot), Poly::from_reduced(rem))
    }

    /// Monic greatest common divisor.
    #[must_use]
    pub fn gcd(&self, field: &PrimeField, other: &Poly) -> Poly {
        let (mut a, mut b) = (self.clone(), other.clone());
        while !b.is_zero() {
            let (_, r) = a.div_rem(field, &b);
            a = b;
            b = r;
        }
        a.monic(field)
    }

    /// Scales so the leading coefficient is 1 (zero stays zero).
    #[must_use]
    pub fn monic(&self, field: &PrimeField) -> Poly {
        match self.coeffs.last() {
            None => Poly::zero(),
            Some(&lead) => self.scale(field, field.inv(lead)),
        }
    }

    /// Partial extended Euclidean algorithm with an early stop: runs the
    /// remainder sequence of `(self, other)` and returns `(u, v, g)` with
    /// `u * self + v * other = g`, stopping as soon as
    /// `deg g < stop_degree`.
    ///
    /// This is exactly the primitive the Gao decoder consumes (§2.3 of the
    /// paper): stop once the remainder drops below `(e + d + 1) / 2`.
    ///
    /// # Panics
    ///
    /// Panics if both inputs are zero.
    #[must_use]
    pub fn partial_xgcd(
        &self,
        field: &PrimeField,
        other: &Poly,
        stop_degree: usize,
    ) -> (Poly, Poly, Poly) {
        assert!(!(self.is_zero() && other.is_zero()), "partial_xgcd of two zero polynomials");
        let (mut r0, mut r1) = (self.clone(), other.clone());
        let (mut u0, mut u1) = (Poly::constant(1), Poly::zero());
        let (mut v0, mut v1) = (Poly::zero(), Poly::constant(1));
        while !r1.is_zero() && r0.degree().is_some_and(|d| d >= stop_degree) {
            let (k, r) = r0.div_rem(field, &r1);
            let nu = u0.sub(field, &k.mul(field, &u1));
            let nv = v0.sub(field, &k.mul(field, &v1));
            (r0, r1) = (r1, r);
            (u0, u1) = (u1, nu);
            (v0, v1) = (v1, nv);
        }
        (u0, v0, r0)
    }

    /// Drop-in fast version of [`Poly::partial_xgcd`]: identical
    /// contract and bit-identical output, by the structured half-GCD of
    /// [`crate::partial_xgcd_fast`] at every operand size.
    ///
    /// # Panics
    ///
    /// Panics if both inputs are zero.
    #[must_use]
    pub fn partial_xgcd_fast(
        &self,
        field: &PrimeField,
        other: &Poly,
        stop_degree: usize,
    ) -> (Poly, Poly, Poly) {
        crate::hgcd::partial_xgcd_fast(field, self, other, stop_degree)
    }
}

/// Recursive multiplication dispatcher on raw coefficient slices.
fn mul_rec(field: &PrimeField, a: &[u64], b: &[u64]) -> Vec<u64> {
    if a.len().min(b.len()) <= KARATSUBA_THRESHOLD {
        return mul_schoolbook(field, a, b);
    }
    mul_karatsuba(field, a, b)
}

fn mul_schoolbook(field: &PrimeField, a: &[u64], b: &[u64]) -> Vec<u64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let mut out = vec![0u64; a.len() + b.len() - 1];
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        for (j, &bj) in b.iter().enumerate() {
            out[i + j] = field.mul_add(out[i + j], ai, bj);
        }
    }
    out
}

fn mul_karatsuba(field: &PrimeField, a: &[u64], b: &[u64]) -> Vec<u64> {
    let half = a.len().max(b.len()).div_ceil(2);
    let (a0, a1) = a.split_at(a.len().min(half));
    let (b0, b1) = b.split_at(b.len().min(half));
    let z0 = mul_rec(field, a0, b0);
    let z2 = if a1.is_empty() || b1.is_empty() { Vec::new() } else { mul_rec(field, a1, b1) };
    let asum = slice_add(field, a0, a1);
    let bsum = slice_add(field, b0, b1);
    let mut z1 = mul_rec(field, &asum, &bsum);
    // z1 -= z0 + z2
    for (i, &c) in z0.iter().enumerate() {
        z1[i] = field.sub(z1[i], c);
    }
    for (i, &c) in z2.iter().enumerate() {
        z1[i] = field.sub(z1[i], c);
    }
    // z1/z2 may carry trailing zero coefficients past the true product
    // degree for unbalanced operands; size the buffer for the largest
    // placement and let the caller trim.
    let len = (a.len() + b.len() - 1).max(half + z1.len()).max(if z2.is_empty() {
        0
    } else {
        2 * half + z2.len()
    });
    let mut out = vec![0u64; len];
    for (i, &c) in z0.iter().enumerate() {
        out[i] = field.add(out[i], c);
    }
    for (i, &c) in z1.iter().enumerate() {
        out[i + half] = field.add(out[i + half], c);
    }
    for (i, &c) in z2.iter().enumerate() {
        out[i + 2 * half] = field.add(out[i + 2 * half], c);
    }
    out
}

fn slice_add(field: &PrimeField, a: &[u64], b: &[u64]) -> Vec<u64> {
    let n = a.len().max(b.len());
    (0..n)
        .map(|i| field.add(a.get(i).copied().unwrap_or(0), b.get(i).copied().unwrap_or(0)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use camelot_ff::{RngLike, SplitMix64};

    fn f() -> PrimeField {
        PrimeField::new(1_000_000_007).unwrap()
    }

    fn random_poly(field: &PrimeField, deg: usize, rng: &mut SplitMix64) -> Poly {
        Poly::from_reduced(
            (0..=deg)
                .map(|i| {
                    if i == deg {
                        1 + rng.next_u64() % (field.modulus() - 1)
                    } else {
                        rng.next_u64() % field.modulus()
                    }
                })
                .collect(),
        )
    }

    #[test]
    fn normalization_and_degree() {
        let field = f();
        assert!(Poly::zero().is_zero());
        assert_eq!(Poly::zero().degree(), None);
        assert_eq!(Poly::from_coeffs(&field, [1, 2, 0, 0]).degree(), Some(1));
        assert_eq!(Poly::constant(0), Poly::zero());
        assert_eq!(Poly::monomial(5, 3).degree(), Some(3));
    }

    #[test]
    fn add_sub_inverse() {
        let field = f();
        let mut rng = SplitMix64::new(1);
        let a = random_poly(&field, 17, &mut rng);
        let b = random_poly(&field, 9, &mut rng);
        assert_eq!(a.add(&field, &b).sub(&field, &b), a);
        assert!(a.sub(&field, &a).is_zero());
    }

    #[test]
    fn karatsuba_matches_schoolbook() {
        let field = f();
        let mut rng = SplitMix64::new(2);
        for (da, db) in [(70, 70), (100, 33), (33, 100), (65, 1), (200, 199)] {
            let a = random_poly(&field, da, &mut rng);
            let b = random_poly(&field, db, &mut rng);
            let fast = a.mul(&field, &b);
            let slow = Poly::from_reduced(mul_schoolbook(&field, a.coeffs(), b.coeffs()));
            assert_eq!(fast, slow, "degrees {da},{db}");
        }
    }

    #[test]
    fn mul_degree_and_identity() {
        let field = f();
        let mut rng = SplitMix64::new(3);
        let a = random_poly(&field, 12, &mut rng);
        assert_eq!(a.mul(&field, &Poly::constant(1)), a);
        assert!(a.mul(&field, &Poly::zero()).is_zero());
        let b = random_poly(&field, 7, &mut rng);
        assert_eq!(a.mul(&field, &b).degree(), Some(19));
    }

    #[test]
    fn eval_is_ring_homomorphism() {
        let field = f();
        let mut rng = SplitMix64::new(4);
        let a = random_poly(&field, 20, &mut rng);
        let b = random_poly(&field, 15, &mut rng);
        for _ in 0..10 {
            let x = field.sample(&mut rng);
            assert_eq!(
                a.mul(&field, &b).eval(&field, x),
                field.mul(a.eval(&field, x), b.eval(&field, x))
            );
            assert_eq!(
                a.add(&field, &b).eval(&field, x),
                field.add(a.eval(&field, x), b.eval(&field, x))
            );
        }
    }

    #[test]
    fn div_rem_reconstructs() {
        let field = f();
        let mut rng = SplitMix64::new(5);
        for (da, db) in [(25, 7), (7, 25), (10, 10), (40, 1)] {
            let a = random_poly(&field, da, &mut rng);
            let b = random_poly(&field, db, &mut rng);
            let (q, r) = a.div_rem(&field, &b);
            assert!(r.degree().is_none_or(|dr| dr < db));
            assert_eq!(q.mul(&field, &b).add(&field, &r), a);
        }
    }

    #[test]
    fn gcd_of_products_contains_common_factor() {
        let field = f();
        let mut rng = SplitMix64::new(6);
        let g = random_poly(&field, 5, &mut rng).monic(&field);
        let a = g.mul(&field, &random_poly(&field, 8, &mut rng));
        let b = g.mul(&field, &random_poly(&field, 6, &mut rng));
        let d = a.gcd(&field, &b);
        // g divides gcd(a, b)
        let (_, r) = d.div_rem(&field, &g);
        assert!(r.is_zero(), "gcd must be divisible by the planted factor");
    }

    #[test]
    fn derivative_product_rule() {
        let field = f();
        let mut rng = SplitMix64::new(7);
        let a = random_poly(&field, 6, &mut rng);
        let b = random_poly(&field, 5, &mut rng);
        let lhs = a.mul(&field, &b).derivative(&field);
        let rhs =
            a.derivative(&field).mul(&field, &b).add(&field, &a.mul(&field, &b.derivative(&field)));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn partial_xgcd_bezout_and_stop_degree() {
        let field = f();
        let mut rng = SplitMix64::new(8);
        let a = random_poly(&field, 30, &mut rng);
        let b = random_poly(&field, 24, &mut rng);
        for stop in [0usize, 5, 12, 20] {
            let (u, v, g) = a.partial_xgcd(&field, &b, stop);
            let lhs = u.mul(&field, &a).add(&field, &v.mul(&field, &b));
            assert_eq!(lhs, g, "Bezout identity at stop {stop}");
            if stop > 0 {
                assert!(g.degree().is_none_or(|d| d < stop + 25), "degree dropped");
            }
        }
        // Full run (stop 0 means run while deg >= 0, i.e. until r1 = 0):
        let (_, _, g) = a.partial_xgcd(&field, &b, 0);
        let reference = a.gcd(&field, &b);
        assert_eq!(g.monic(&field), reference);
    }

    #[test]
    fn shift_multiplies_by_monomial() {
        let field = f();
        let a = Poly::from_coeffs(&field, [3, 1, 4]);
        assert_eq!(a.shift(2), Poly::from_coeffs(&field, [0, 0, 3, 1, 4]));
        assert_eq!(Poly::zero().shift(5), Poly::zero());
    }
}
