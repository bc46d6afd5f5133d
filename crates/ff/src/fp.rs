//! Arithmetic in the prime field `Z_q` for a word-sized prime `q`.
//!
//! The Camelot framework (§1.3 of the paper) works with proof polynomials
//! over `Z_q` for primes `q` that every node can derive from the common
//! input. We represent a field as a lightweight [`PrimeField`] descriptor
//! holding the modulus; field elements are raw `u64` values in `[0, q)`.
//! All products go through `u128` widening so any `q < 2^62` is safe even
//! for sums of a few products.
//!
//! Reduction uses Barrett's method: the descriptor carries
//! `⌊2^128 / q⌋`, so [`PrimeField::mul`] / [`PrimeField::mul_add`] /
//! [`PrimeField::pow`] cost a handful of word multiplications instead of
//! a 128-bit hardware division. For loops that multiply by one fixed
//! constant many times (NTT twiddles), [`PrimeField::shoup_precompute`] /
//! [`PrimeField::mul_shoup`] shave this further to two multiplications.

use crate::prime::is_prime_u64;

/// High 128 bits of the 256-bit product `x * y`, by 64-bit limbs.
#[inline]
pub(crate) fn mulhi_u128(x: u128, y: u128) -> u128 {
    let (x0, x1) = (x & u128::from(u64::MAX), x >> 64);
    let (y0, y1) = (y & u128::from(u64::MAX), y >> 64);
    let lo = x0 * y0;
    let m1 = x1 * y0;
    let m2 = x0 * y1;
    let carry = ((lo >> 64) + (m1 & u128::from(u64::MAX)) + (m2 & u128::from(u64::MAX))) >> 64;
    x1 * y1 + (m1 >> 64) + (m2 >> 64) + carry
}

/// Maximum supported modulus (exclusive). Keeping two bits of headroom
/// allows `a + b` and the lazy accumulation patterns used in the linear
/// algebra kernels without overflow checks.
pub const MAX_MODULUS: u64 = 1 << 62;

/// A prime field `Z_q` with `q < 2^62`.
///
/// # Examples
///
/// ```
/// use camelot_ff::PrimeField;
///
/// let f = PrimeField::new(101).unwrap();
/// let a = f.add(70, 40);
/// assert_eq!(a, 9);
/// assert_eq!(f.mul(f.inv(7), 7), 1);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PrimeField {
    pub(crate) q: u64,
    /// Barrett reciprocal `⌊(2^128 - 1) / q⌋` (equal to `⌊2^128 / q⌋` for
    /// every odd `q`; off by one for `q = 2`, absorbed by the correction
    /// loop in [`PrimeField::barrett_reduce`]).
    pub(crate) barrett: u128,
}

/// Error returned by [`PrimeField::new`] for invalid moduli.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FieldError {
    /// The modulus is not a prime number.
    NotPrime(u64),
    /// The modulus is too large (`>= 2^62`).
    TooLarge(u64),
}

impl std::fmt::Display for FieldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldError::NotPrime(q) => write!(f, "modulus {q} is not prime"),
            FieldError::TooLarge(q) => write!(f, "modulus {q} exceeds 2^62"),
        }
    }
}

impl std::error::Error for FieldError {}

impl PrimeField {
    /// Creates the field `Z_q`.
    ///
    /// # Errors
    ///
    /// Returns [`FieldError::NotPrime`] if `q` is composite or `< 2`, and
    /// [`FieldError::TooLarge`] if `q >= 2^62`.
    pub fn new(q: u64) -> Result<Self, FieldError> {
        if q >= MAX_MODULUS {
            return Err(FieldError::TooLarge(q));
        }
        if !is_prime_u64(q) {
            return Err(FieldError::NotPrime(q));
        }
        Ok(Self::descriptor(q))
    }

    #[inline]
    fn descriptor(q: u64) -> Self {
        PrimeField { q, barrett: u128::MAX / u128::from(q) }
    }

    /// Creates the field without checking primality.
    ///
    /// Intended for hot paths that re-create a descriptor from a modulus
    /// already validated by [`PrimeField::new`]. Arithmetic is still
    /// well-defined for composite `q` (it is `Z/qZ`), but inverses may not
    /// exist.
    #[must_use]
    pub fn new_unchecked(q: u64) -> Self {
        debug_assert!((2..MAX_MODULUS).contains(&q));
        Self::descriptor(q)
    }

    /// The modulus `q`.
    #[inline]
    #[must_use]
    pub fn modulus(&self) -> u64 {
        self.q
    }

    // lint:hot-begin(barrett-shoup) — the scalar reduction kernels every
    // NTT butterfly, Horner loop, and tree pass bottoms out in. No `%`
    // (PR 3 replaced the `u128 %` reduction), no clones, no allocation;
    // `tests/hot_regions.rs` enforces this region.

    /// Barrett reduction of an arbitrary `u128` into `[0, q)`.
    ///
    /// The quotient estimate `⌊a · ⌊2^128/q⌋ / 2^128⌋` undershoots the
    /// true quotient by at most 2, so the remainder lands in `[0, 3q)`
    /// (`3q < 2^64`, so the wrapping low-word arithmetic is exact) and at
    /// most two conditional subtractions finish the job.
    #[inline]
    fn barrett_reduce(&self, a: u128) -> u64 {
        let q_hat = mulhi_u128(a, self.barrett);
        let mut r = (a as u64).wrapping_sub((q_hat as u64).wrapping_mul(self.q));
        while r >= self.q {
            r -= self.q;
        }
        r
    }

    /// Reduces an arbitrary `u64` into `[0, q)`.
    #[inline]
    #[must_use]
    pub fn reduce(&self, a: u64) -> u64 {
        if a < self.q {
            a
        } else {
            self.barrett_reduce(u128::from(a))
        }
    }

    /// Reduces an `u128` into `[0, q)`.
    #[inline]
    #[must_use]
    pub fn reduce_u128(&self, a: u128) -> u64 {
        self.barrett_reduce(a)
    }

    /// Embeds a signed integer, mapping negatives to `q - |a| mod q`.
    #[inline]
    #[must_use]
    pub fn from_i64(&self, a: i64) -> u64 {
        if a >= 0 {
            self.reduce(a as u64)
        } else {
            let m = self.reduce(a.unsigned_abs());
            self.neg(m)
        }
    }

    /// `a + b mod q`. Inputs must already be reduced.
    ///
    /// Branchless: the candidate `s - q` wraps past `u64::MAX` exactly
    /// when no reduction is needed, so `min` selects the reduced value —
    /// a predictable `cmov` instead of a data-dependent branch in the
    /// butterfly and Horner hot loops.
    #[inline]
    #[must_use]
    pub fn add(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q);
        let s = a + b;
        s.min(s.wrapping_sub(self.q))
    }

    /// `a - b mod q`. Inputs must already be reduced (branchless; see
    /// [`PrimeField::add`]).
    #[inline]
    #[must_use]
    pub fn sub(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q);
        let d = a.wrapping_sub(b);
        d.min(d.wrapping_add(self.q))
    }

    /// `-a mod q`. Input must already be reduced.
    #[inline]
    #[must_use]
    pub fn neg(&self, a: u64) -> u64 {
        debug_assert!(a < self.q);
        if a == 0 {
            0
        } else {
            self.q - a
        }
    }

    /// `a * b mod q`. Inputs must already be reduced.
    #[inline]
    #[must_use]
    pub fn mul(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q);
        self.barrett_reduce(u128::from(a) * u128::from(b))
    }

    /// Fused multiply-add `acc + a * b mod q`.
    #[inline]
    #[must_use]
    pub fn mul_add(&self, acc: u64, a: u64, b: u64) -> u64 {
        self.barrett_reduce(u128::from(a) * u128::from(b) + u128::from(acc))
    }

    /// Precomputes the Shoup companion `⌊c · 2^64 / q⌋` for a fixed
    /// multiplicand `c`, enabling [`PrimeField::mul_shoup`].
    #[inline]
    #[must_use]
    pub fn shoup_precompute(&self, c: u64) -> u64 {
        debug_assert!(c < self.q);
        ((u128::from(c) << 64) / u128::from(self.q)) as u64
    }

    /// `a * c mod q` where `c_shoup = shoup_precompute(c)`: two word
    /// multiplications, no wide reduction. This is the classic Shoup
    /// butterfly multiplication used when one operand is a loop-invariant
    /// constant (NTT twiddle factors).
    #[inline]
    #[must_use]
    pub fn mul_shoup(&self, a: u64, c: u64, c_shoup: u64) -> u64 {
        debug_assert!(a < self.q && c < self.q);
        let q_hat = ((u128::from(a) * u128::from(c_shoup)) >> 64) as u64;
        let r = a.wrapping_mul(c).wrapping_sub(q_hat.wrapping_mul(self.q));
        r.min(r.wrapping_sub(self.q))
    }

    // lint:hot-end

    /// `a^e mod q` by square-and-multiply.
    #[must_use]
    pub fn pow(&self, a: u64, mut e: u64) -> u64 {
        debug_assert!(a < self.q);
        let mut base = a;
        let mut acc = 1u64 % self.q;
        while e > 0 {
            if e & 1 == 1 {
                acc = self.mul(acc, base);
            }
            base = self.mul(base, base);
            e >>= 1;
        }
        acc
    }

    /// Multiplicative inverse of `a`.
    ///
    /// # Panics
    ///
    /// Panics if `a == 0` (zero has no inverse).
    #[must_use]
    pub fn inv(&self, a: u64) -> u64 {
        assert!(a != 0, "attempted to invert zero in Z_{}", self.q);
        // Extended binary-free Euclid on signed i128 accumulators.
        let (mut r0, mut r1) = (i128::from(self.q), i128::from(a));
        let (mut s0, mut s1) = (0i128, 1i128);
        while r1 != 0 {
            let k = r0 / r1;
            (r0, r1) = (r1, r0 - k * r1);
            (s0, s1) = (s1, s0 - k * s1);
        }
        debug_assert_eq!(r0, 1, "gcd({a}, {}) != 1", self.q);
        let q = i128::from(self.q);
        (((s0 % q) + q) % q) as u64
    }

    /// Batch inversion via Montgomery's trick: one inversion plus `3n`
    /// multiplications.
    ///
    /// # Panics
    ///
    /// Panics if any element is zero.
    pub fn inv_batch(&self, values: &mut [u64]) {
        if values.is_empty() {
            return;
        }
        let mut prefix = Vec::with_capacity(values.len());
        let mut acc = 1u64;
        for &v in values.iter() {
            assert!(v != 0, "attempted to batch-invert zero in Z_{}", self.q);
            prefix.push(acc);
            acc = self.mul(acc, v);
        }
        let mut inv_acc = self.inv(acc);
        for i in (0..values.len()).rev() {
            let v = values[i];
            values[i] = self.mul(inv_acc, prefix[i]);
            inv_acc = self.mul(inv_acc, v);
        }
    }

    /// Uniformly random field element from the given generator.
    #[must_use]
    pub fn sample<R: rand_like::RngLike>(&self, rng: &mut R) -> u64 {
        // Rejection sampling for exact uniformity.
        let zone = u64::MAX - u64::MAX % self.q;
        loop {
            let v = rng.next_u64();
            if v < zone {
                return v % self.q;
            }
        }
    }
}

/// Minimal RNG abstraction so `camelot-ff` itself stays dependency-free;
/// `rand` RNGs implement it through the blanket impl in downstream crates
/// or via the adapter here.
pub mod rand_like {
    /// A source of random `u64`s.
    pub trait RngLike {
        /// Returns the next random word.
        fn next_u64(&mut self) -> u64;
    }

    /// A tiny deterministic split-mix generator, useful for tests and for
    /// reproducible fault injection.
    #[derive(Clone, Debug)]
    pub struct SplitMix64 {
        state: u64,
    }

    impl SplitMix64 {
        /// Creates a generator from a seed.
        #[must_use]
        pub fn new(seed: u64) -> Self {
            SplitMix64 { state: seed }
        }
    }

    impl RngLike for SplitMix64 {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rand_like::{RngLike, SplitMix64};
    use super::*;

    #[test]
    fn new_rejects_composites_and_large() {
        assert_eq!(PrimeField::new(1), Err(FieldError::NotPrime(1)));
        assert_eq!(PrimeField::new(91), Err(FieldError::NotPrime(91)));
        assert!(matches!(PrimeField::new(MAX_MODULUS + 1), Err(FieldError::TooLarge(_))));
        assert!(PrimeField::new(2).is_ok());
        assert!(PrimeField::new((1 << 61) - 1).is_ok()); // Mersenne prime
    }

    #[test]
    fn add_sub_neg_roundtrip() {
        let f = PrimeField::new(97).unwrap();
        for a in 0..97 {
            for b in 0..97 {
                let s = f.add(a, b);
                assert_eq!(f.sub(s, b), a);
                assert_eq!(f.add(f.neg(a), a), 0);
            }
        }
    }

    #[test]
    fn mul_matches_naive() {
        let f = PrimeField::new(1_000_000_007).unwrap();
        let mut rng = SplitMix64::new(7);
        for _ in 0..1000 {
            let a = f.sample(&mut rng);
            let b = f.sample(&mut rng);
            assert_eq!(f.mul(a, b), ((a as u128 * b as u128) % 1_000_000_007) as u64);
        }
    }

    #[test]
    fn fermat_little_theorem() {
        let f = PrimeField::new(65_537).unwrap();
        for a in [1u64, 2, 3, 12345, 65_536] {
            assert_eq!(f.pow(a, 65_536), 1);
        }
    }

    #[test]
    fn inverse_is_correct_everywhere_small() {
        let f = PrimeField::new(251).unwrap();
        for a in 1..251 {
            assert_eq!(f.mul(a, f.inv(a)), 1);
        }
    }

    #[test]
    #[should_panic(expected = "invert zero")]
    fn inverse_of_zero_panics() {
        let f = PrimeField::new(7).unwrap();
        let _ = f.inv(0);
    }

    #[test]
    fn batch_inversion_matches_scalar() {
        let f = PrimeField::new(1_000_003).unwrap();
        let mut rng = SplitMix64::new(42);
        let vals: Vec<u64> = (0..257).map(|_| 1 + f.sample(&mut rng) % (f.modulus() - 1)).collect();
        let mut batch = vals.clone();
        f.inv_batch(&mut batch);
        for (v, b) in vals.iter().zip(&batch) {
            assert_eq!(f.inv(*v), *b);
        }
    }

    /// Exhaustive cross-check of the Barrett reduction paths against
    /// hardware division, over every residue pair of several small primes
    /// (including the edge modulus 2, where the stored reciprocal is off
    /// by one and must be absorbed by the correction loop).
    #[test]
    fn barrett_matches_hardware_division_exhaustive_small() {
        for q in [2u64, 3, 5, 7, 97, 251] {
            let f = PrimeField::new(q).unwrap();
            for a in 0..q {
                for b in 0..q {
                    assert_eq!(f.mul(a, b), a * b % q, "mul {a}*{b} mod {q}");
                    let shoup = f.shoup_precompute(b);
                    assert_eq!(f.mul_shoup(a, b, shoup), a * b % q, "shoup {a}*{b} mod {q}");
                    assert_eq!(f.mul_add(b, a, a), (a * a + b) % q, "mul_add mod {q}");
                }
                assert_eq!(f.reduce(a + q), a, "reduce mod {q}");
            }
        }
    }

    /// Randomized cross-check against `u128` hardware division for large
    /// primes, including the largest prime below the 2^62 modulus cap.
    #[test]
    fn barrett_matches_hardware_division_random_large() {
        let top = {
            let mut q = (1u64 << 62) - 1;
            while !is_prime_u64(q) {
                q -= 2;
            }
            q
        };
        let mut rng = SplitMix64::new(99);
        let mid = {
            let mut q = (1u64 << 52) + 1;
            while !is_prime_u64(q) {
                q += 2;
            }
            q
        };
        for q in [(1u64 << 61) - 1, 1_000_000_007, mid, top] {
            let f = PrimeField::new(q).unwrap();
            let wq = u128::from(q);
            for _ in 0..2000 {
                let a = f.sample(&mut rng);
                let b = f.sample(&mut rng);
                assert_eq!(f.mul(a, b), (u128::from(a) * u128::from(b) % wq) as u64);
                let shoup = f.shoup_precompute(b);
                assert_eq!(f.mul_shoup(a, b, shoup), (u128::from(a) * u128::from(b) % wq) as u64);
                assert_eq!(
                    f.mul_add(b, a, a),
                    ((u128::from(a) * u128::from(a) + u128::from(b)) % wq) as u64
                );
                let wide = u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64());
                assert_eq!(f.reduce_u128(wide), (wide % wq) as u64);
                assert_eq!(f.reduce(a.wrapping_mul(b)), a.wrapping_mul(b) % q);
            }
            // pow against iterated naive multiplication.
            let base = f.sample(&mut rng);
            let mut acc = 1u64;
            for e in 0..40u64 {
                assert_eq!(f.pow(base, e), acc, "pow e={e} mod {q}");
                acc = (u128::from(acc) * u128::from(base) % wq) as u64;
            }
        }
    }

    #[test]
    fn from_i64_handles_negatives() {
        let f = PrimeField::new(101).unwrap();
        assert_eq!(f.from_i64(-1), 100);
        assert_eq!(f.from_i64(-101), 0);
        assert_eq!(f.from_i64(-202), 0);
        assert_eq!(f.from_i64(5), 5);
    }

    #[test]
    fn mul_add_matches_separate_ops() {
        let f = PrimeField::new((1 << 61) - 1).unwrap();
        let mut rng = SplitMix64::new(3);
        for _ in 0..200 {
            let acc = f.sample(&mut rng);
            let a = f.sample(&mut rng);
            let b = f.sample(&mut rng);
            assert_eq!(f.mul_add(acc, a, b), f.add(acc, f.mul(a, b)));
        }
    }

    #[test]
    fn sampling_is_in_range() {
        let f = PrimeField::new(11).unwrap();
        let mut rng = SplitMix64::new(1);
        let mut seen = [false; 11];
        for _ in 0..500 {
            let v = f.sample(&mut rng);
            assert!(v < 11);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }
}
