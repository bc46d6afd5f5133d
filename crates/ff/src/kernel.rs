//! Chunked slice kernels over [`PrimeField`] — the data-parallel layer.
//!
//! Every fast path in the stack (NTT butterflies, subproduct-tree level
//! passes, batch inversions, pointwise transform products) is a loop of
//! identical, independent field operations. The scalar methods in
//! [`crate::fp`] are already branchless, but calling them one element at
//! a time leaves instruction-level parallelism on the table: each
//! Barrett/Shoup reduction is a short dependency chain, and eight such
//! chains run concurrently on a modern core. The kernels here process
//! slices in fixed-width blocks of [`LANES`] lanes — no branches, no `%`,
//! no allocation inside the loops — so the compiler can unroll,
//! autovectorize the add/sub/min lanes, and keep the multiplier saturated
//! on the widening lanes.
//!
//! Two families live here:
//!
//! * **Fully-reduced kernels** (`add_slice`, `mul_slice`,
//!   `mul_const_shoup_slice`, `mul_add_slice`, `reduce_slice`,
//!   `inv_batch_blocked`) — drop-in slice versions of the
//!   scalar ops, bit-identical element-for-element — and the two
//!   reductions over a slice the evaluators are built on: `dot` (one
//!   Barrett reduction per eight products) and `horner` (four
//!   interleaved Shoup chains).
//! * **Lazy-reduction butterfly kernels** (`butterfly_ct_lazy_slice`,
//!   `butterfly_gs_lazy_slice`, `reduce_lazy_slice`) — Harvey-style NTT
//!   lanes that carry values in a redundant `[0, 4q)` / `[0, 2q)`
//!   representation across butterfly rounds and reduce once at the end,
//!   cutting the per-butterfly correction chain from three conditional
//!   subtractions to one. Callers (the `camelot-poly` transforms) must
//!   fully reduce before handing values back out; the transform outputs
//!   are then bit-identical to the scalar-butterfly path.
//!
//! The headroom argument: `q < 2^62` ([`crate::MAX_MODULUS`]), so
//! `4q < 2^64` and every redundant representative fits a `u64`; the Shoup
//! product `a·c - ⌊a·c_shoup/2^64⌋·q` lands in `[0, 2q)` for *any*
//! `a < 2^64` when `c < q`, which is what lets the lazy lanes skip input
//! corrections entirely.

use crate::fp::{mulhi_u128, PrimeField};

/// Fixed inner-block width of every slice kernel. Eight 64-bit lanes is
/// one AVX-512 register or two AVX2 registers for the add/sub/min lanes,
/// and eight independent dependency chains for the widening multiplies.
pub const LANES: usize = 8;

/// Minimum length at which [`PrimeField::inv_batch_blocked`] uses the
/// multi-chain layout; shorter inputs delegate to the scalar
/// [`PrimeField::inv_batch`] (the chain bookkeeping costs more than it
/// saves below this).
const INV_BLOCK_MIN: usize = 4 * LANES;

// lint:hot-begin(slice-kernels) — the data-parallel lanes every NTT
// butterfly, tree level pass, and batch inversion routes through. No `%`,
// no clones, no allocation; `tests/hot_regions.rs` enforces this region.

/// Branchless Barrett reduction of an arbitrary `u128` into `[0, q)`:
/// the quotient estimate undershoots by at most 2, so two conditional
/// subtractions finish the job (bit-identical to the scalar correction
/// loop, which runs at most twice for the same reason).
#[inline]
fn barrett_lane(q: u64, barrett: u128, a: u128) -> u64 {
    let q_hat = mulhi_u128(a, barrett);
    let r = (a as u64).wrapping_sub((q_hat as u64).wrapping_mul(q));
    let r = r.min(r.wrapping_sub(q));
    r.min(r.wrapping_sub(q))
}

/// Shoup product `a · c mod q` left in the redundant range `[0, 2q)`:
/// two word multiplications and no correction. Valid for *any* `a`
/// (reduced or lazy) as long as `c < q` and `c_shoup` is its companion.
#[inline]
fn shoup_lane_lazy(q: u64, a: u64, c: u64, c_shoup: u64) -> u64 {
    let q_hat = ((u128::from(a) * u128::from(c_shoup)) >> 64) as u64;
    a.wrapping_mul(c).wrapping_sub(q_hat.wrapping_mul(q))
}

impl PrimeField {
    /// `acc[i] ← acc[i] + rhs[i] mod q` lane-wise. Inputs must be
    /// reduced; bit-identical to a loop of [`PrimeField::add`].
    ///
    /// # Panics
    ///
    /// Panics unless the slices have equal length.
    pub fn add_slice(&self, acc: &mut [u64], rhs: &[u64]) {
        assert_eq!(acc.len(), rhs.len(), "slice kernel length mismatch");
        let q = self.q;
        let mut a_it = acc.chunks_exact_mut(LANES);
        let mut b_it = rhs.chunks_exact(LANES);
        for (xa, xb) in (&mut a_it).zip(&mut b_it) {
            for i in 0..LANES {
                let s = xa[i] + xb[i];
                xa[i] = s.min(s.wrapping_sub(q));
            }
        }
        for (x, &y) in a_it.into_remainder().iter_mut().zip(b_it.remainder()) {
            let s = *x + y;
            *x = s.min(s.wrapping_sub(q));
        }
    }

    /// `acc[i] ← acc[i] · rhs[i] mod q` lane-wise through Barrett
    /// reduction. Bit-identical to a loop of [`PrimeField::mul`] on
    /// reduced inputs; also accepts lazy (`< 4q`) operands — any pair
    /// whose product fits `u128` reduces fully into `[0, q)`.
    ///
    /// # Panics
    ///
    /// Panics unless the slices have equal length.
    pub fn mul_slice(&self, acc: &mut [u64], rhs: &[u64]) {
        assert_eq!(acc.len(), rhs.len(), "slice kernel length mismatch");
        let (q, barrett) = (self.q, self.barrett);
        let mut a_it = acc.chunks_exact_mut(LANES);
        let mut b_it = rhs.chunks_exact(LANES);
        for (xa, xb) in (&mut a_it).zip(&mut b_it) {
            for i in 0..LANES {
                xa[i] = barrett_lane(q, barrett, u128::from(xa[i]) * u128::from(xb[i]));
            }
        }
        for (x, &y) in a_it.into_remainder().iter_mut().zip(b_it.remainder()) {
            *x = barrett_lane(q, barrett, u128::from(*x) * u128::from(y));
        }
    }

    /// `acc[i] ← acc[i] + a[i] · b[i] mod q` lane-wise (fused multiply-
    /// add through one widened Barrett reduction per lane). Bit-identical
    /// to a loop of [`PrimeField::mul_add`] on reduced inputs; `a`/`b`
    /// may also be lazy (`< 4q`) operands from the transform-domain
    /// kernels.
    ///
    /// # Panics
    ///
    /// Panics unless the slices have equal length.
    pub fn mul_add_slice(&self, acc: &mut [u64], a: &[u64], b: &[u64]) {
        assert_eq!(acc.len(), a.len(), "slice kernel length mismatch");
        assert_eq!(acc.len(), b.len(), "slice kernel length mismatch");
        let (q, barrett) = (self.q, self.barrett);
        let mut acc_it = acc.chunks_exact_mut(LANES);
        let mut a_it = a.chunks_exact(LANES);
        let mut b_it = b.chunks_exact(LANES);
        for ((xs, ys), zs) in (&mut acc_it).zip(&mut a_it).zip(&mut b_it) {
            for i in 0..LANES {
                let wide = u128::from(ys[i]) * u128::from(zs[i]) + u128::from(xs[i]);
                xs[i] = barrett_lane(q, barrett, wide);
            }
        }
        let tail = acc_it.into_remainder();
        for ((x, &y), &z) in tail.iter_mut().zip(a_it.remainder()).zip(b_it.remainder()) {
            *x = barrett_lane(q, barrett, u128::from(y) * u128::from(z) + u128::from(*x));
        }
    }

    /// `values[i] ← values[i] · c mod q` for one fixed constant `c` with
    /// Shoup companion `c_shoup` — the inverse-NTT scaling pass.
    /// Bit-identical to a loop of [`PrimeField::mul_shoup`] on reduced
    /// inputs; lazy (`< 4q`) inputs reduce fully into `[0, q)` as well
    /// (the Shoup product lands in `[0, 2q)` for any `u64` input, so one
    /// correction always suffices).
    pub fn mul_const_shoup_slice(&self, values: &mut [u64], c: u64, c_shoup: u64) {
        let q = self.q;
        let mut it = values.chunks_exact_mut(LANES);
        for xs in &mut it {
            for x in xs.iter_mut() {
                let r = shoup_lane_lazy(q, *x, c, c_shoup);
                *x = r.min(r.wrapping_sub(q));
            }
        }
        for x in it.into_remainder() {
            let r = shoup_lane_lazy(q, *x, c, c_shoup);
            *x = r.min(r.wrapping_sub(q));
        }
    }

    /// Reduces arbitrary `u64` values into `[0, q)` lane-wise.
    /// Bit-identical to a loop of [`PrimeField::reduce`].
    pub fn reduce_slice(&self, values: &mut [u64]) {
        let (q, barrett) = (self.q, self.barrett);
        let mut it = values.chunks_exact_mut(LANES);
        for xs in &mut it {
            for x in xs.iter_mut() {
                *x = barrett_lane(q, barrett, u128::from(*x));
            }
        }
        for x in it.into_remainder() {
            *x = barrett_lane(q, barrett, u128::from(*x));
        }
    }

    /// One Cooley–Tukey butterfly round segment in the lazy `[0, 4q)`
    /// representation: for each lane,
    /// `t = hi·w (mod q, in [0,2q)); lo' = lo↓ + t; hi' = lo↓ + 2q - t`
    /// with `lo↓` the input corrected once into `[0, 2q)`. Inputs and
    /// outputs are lazy; congruent mod `q` to the classical butterfly, so
    /// a final [`PrimeField::reduce_lazy_slice`] yields transforms
    /// bit-identical to the fully-reduced path.
    ///
    /// # Panics
    ///
    /// Panics unless all four slices have equal length.
    pub fn butterfly_ct_lazy_slice(&self, lo: &mut [u64], hi: &mut [u64], w: &[u64], ws: &[u64]) {
        assert_eq!(lo.len(), hi.len(), "slice kernel length mismatch");
        assert_eq!(lo.len(), w.len(), "slice kernel length mismatch");
        assert_eq!(lo.len(), ws.len(), "slice kernel length mismatch");
        let q = self.q;
        let twoq = q << 1;
        let mut lo_it = lo.chunks_exact_mut(LANES);
        let mut hi_it = hi.chunks_exact_mut(LANES);
        let mut w_it = w.chunks_exact(LANES);
        let mut s_it = ws.chunks_exact(LANES);
        for (((ls, hs), cs), ss) in (&mut lo_it).zip(&mut hi_it).zip(&mut w_it).zip(&mut s_it) {
            for i in 0..LANES {
                let x = ls[i].min(ls[i].wrapping_sub(twoq));
                let t = shoup_lane_lazy(q, hs[i], cs[i], ss[i]);
                ls[i] = x + t;
                hs[i] = x + twoq - t;
            }
        }
        let lo_tail = lo_it.into_remainder();
        let hi_tail = hi_it.into_remainder();
        let w_tail = w_it.remainder();
        let s_tail = s_it.remainder();
        for (((l, h), &cv), &sv) in
            lo_tail.iter_mut().zip(hi_tail.iter_mut()).zip(w_tail).zip(s_tail)
        {
            let x = (*l).min(l.wrapping_sub(twoq));
            let t = shoup_lane_lazy(q, *h, cv, sv);
            *l = x + t;
            *h = x + twoq - t;
        }
    }

    /// One Gentleman–Sande (decimation-in-frequency) butterfly round
    /// segment in the lazy `[0, 2q)` representation: for each lane,
    /// `lo' = (lo + hi)↓; hi' = (lo + 2q - hi)·w (mod q, in [0,2q))`
    /// with `↓` one correction into `[0, 2q)`. Preserves the `[0, 2q)`
    /// invariant, so a full set of rounds needs no input permutation and
    /// leaves values one correction away from reduced.
    ///
    /// # Panics
    ///
    /// Panics unless all four slices have equal length.
    pub fn butterfly_gs_lazy_slice(&self, lo: &mut [u64], hi: &mut [u64], w: &[u64], ws: &[u64]) {
        assert_eq!(lo.len(), hi.len(), "slice kernel length mismatch");
        assert_eq!(lo.len(), w.len(), "slice kernel length mismatch");
        assert_eq!(lo.len(), ws.len(), "slice kernel length mismatch");
        let q = self.q;
        let twoq = q << 1;
        let mut lo_it = lo.chunks_exact_mut(LANES);
        let mut hi_it = hi.chunks_exact_mut(LANES);
        let mut w_it = w.chunks_exact(LANES);
        let mut s_it = ws.chunks_exact(LANES);
        for (((ls, hs), cs), ss) in (&mut lo_it).zip(&mut hi_it).zip(&mut w_it).zip(&mut s_it) {
            for i in 0..LANES {
                let s = ls[i] + hs[i];
                let d = ls[i] + twoq - hs[i];
                ls[i] = s.min(s.wrapping_sub(twoq));
                hs[i] = shoup_lane_lazy(q, d, cs[i], ss[i]);
            }
        }
        let lo_tail = lo_it.into_remainder();
        let hi_tail = hi_it.into_remainder();
        let w_tail = w_it.remainder();
        let s_tail = s_it.remainder();
        for (((l, h), &cv), &sv) in
            lo_tail.iter_mut().zip(hi_tail.iter_mut()).zip(w_tail).zip(s_tail)
        {
            let s = *l + *h;
            let d = *l + twoq - *h;
            *l = s.min(s.wrapping_sub(twoq));
            *h = shoup_lane_lazy(q, d, cv, sv);
        }
    }

    /// Reduces lazy `[0, 4q)` representatives into `[0, q)` lane-wise —
    /// the closing pass after a run of lazy butterfly rounds.
    pub fn reduce_lazy_slice(&self, values: &mut [u64]) {
        let q = self.q;
        let twoq = q << 1;
        let mut it = values.chunks_exact_mut(LANES);
        for xs in &mut it {
            for x in xs.iter_mut() {
                let r = (*x).min(x.wrapping_sub(twoq));
                *x = r.min(r.wrapping_sub(q));
            }
        }
        for x in it.into_remainder() {
            let r = (*x).min(x.wrapping_sub(twoq));
            *x = r.min(r.wrapping_sub(q));
        }
    }

    /// `Σ a[i]·b[i] mod q` with one Barrett reduction per [`LANES`]
    /// products instead of one per product: `q < 2^62`, so eight
    /// unreduced products plus a reduced carry stay below `2^128`. The
    /// sum is a field element, so this equals any chain of
    /// [`PrimeField::mul_add`] over the same pairs. Inputs must be
    /// reduced.
    ///
    /// # Panics
    ///
    /// Panics unless the slices have equal length.
    #[must_use]
    pub fn dot(&self, a: &[u64], b: &[u64]) -> u64 {
        assert_eq!(a.len(), b.len(), "slice kernel length mismatch");
        let (q, barrett) = (self.q, self.barrett);
        let mut acc = 0u64;
        for (xa, xb) in a.chunks(LANES).zip(b.chunks(LANES)) {
            let mut wide = u128::from(acc);
            for (&x, &y) in xa.iter().zip(xb) {
                wide += u128::from(x) * u128::from(y);
            }
            acc = barrett_lane(q, barrett, wide);
        }
        acc
    }

    /// Horner evaluation `Σ coeffs[i]·x^i mod q` (little-endian, reduced
    /// coefficients; `x` may be unreduced) as four interleaved chains in
    /// `x⁴`, each step a Shoup product by the per-call constant `x⁴` —
    /// a serial Barrett `mul_add` chain is bound by its latency, four
    /// Shoup chains by the multiplier. The chains are recombined with
    /// `1, x, x², x³`; the value is the same field element.
    #[must_use]
    pub fn horner(&self, coeffs: &[u64], x: u64) -> u64 {
        let x = self.reduce(x);
        let x2 = self.mul(x, x);
        let x4 = self.mul(x2, x2);
        let x4_shoup = self.shoup_precompute(x4);
        let q = self.q;
        let mut lanes = [0u64; 4];
        let blocks = coeffs.chunks_exact(4);
        // The ragged top block (fewer than four coefficients) seeds the
        // low lanes; every block below it is one step of all four.
        let top = blocks.remainder();
        lanes[..top.len()].copy_from_slice(top);
        for block in blocks.rev() {
            for (lane, &c) in lanes.iter_mut().zip(block) {
                let r = shoup_lane_lazy(q, *lane, x4, x4_shoup);
                let s = r.min(r.wrapping_sub(q)) + c;
                *lane = s.min(s.wrapping_sub(q));
            }
        }
        let odd = self.mul_add(lanes[1], lanes[3], x2);
        let even = self.mul_add(lanes[0], lanes[2], x2);
        self.mul_add(even, odd, x)
    }

    // lint:hot-end

    /// Batch inversion in the blocked multi-chain layout: [`LANES`]
    /// independent Montgomery prefix-product chains over contiguous
    /// segments, one field inversion for the chain totals, then
    /// [`LANES`] independent backward sweeps — the same `3n + O(1)`
    /// multiplications as [`PrimeField::inv_batch`] but with eight
    /// dependency chains in flight instead of one. Inverses are unique,
    /// so the output is bit-identical to `inv_batch`.
    ///
    /// # Panics
    ///
    /// Panics if any element is zero.
    pub fn inv_batch_blocked(&self, values: &mut [u64]) {
        let n = values.len();
        if n < INV_BLOCK_MIN {
            return self.inv_batch(values);
        }
        let m = n / LANES;
        let mut prefix = vec![0u64; n];
        let mut acc = [1u64; LANES];
        let (q, barrett) = (self.q, self.barrett);
        // lint:hot-begin(batch-inverse-chains) — the forward/backward
        // multiply sweeps; the only allocation (the prefix buffer) and
        // the single field inversion sit outside the marked passes.
        for k in 0..m {
            for (j, a) in acc.iter_mut().enumerate() {
                let i = j * m + k;
                let v = values[i];
                assert!(v != 0, "attempted to batch-invert zero in Z_{q}");
                prefix[i] = *a;
                *a = barrett_lane(q, barrett, u128::from(*a) * u128::from(v));
            }
        }
        // lint:hot-end
        // The ragged tail rides on the last chain.
        for i in LANES * m..n {
            let v = values[i];
            assert!(v != 0, "attempted to batch-invert zero in Z_{q}");
            prefix[i] = acc[LANES - 1];
            acc[LANES - 1] = self.mul(acc[LANES - 1], v);
        }
        // One extended Euclid for all chains: invert the totals together.
        let mut inv_acc = acc;
        self.inv_batch(&mut inv_acc);
        for i in (LANES * m..n).rev() {
            let v = values[i];
            values[i] = self.mul(inv_acc[LANES - 1], prefix[i]);
            inv_acc[LANES - 1] = self.mul(inv_acc[LANES - 1], v);
        }
        // lint:hot-begin(batch-inverse-chains-backward)
        for k in (0..m).rev() {
            for (j, a) in inv_acc.iter_mut().enumerate() {
                let i = j * m + k;
                let v = values[i];
                values[i] = barrett_lane(q, barrett, u128::from(*a) * u128::from(prefix[i]));
                *a = barrett_lane(q, barrett, u128::from(*a) * u128::from(v));
            }
        }
        // lint:hot-end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fp::rand_like::{RngLike, SplitMix64};

    fn fields() -> Vec<PrimeField> {
        // Small, NTT-friendly mid-size, and the largest prime below the
        // modulus cap — the lazy-range arithmetic has the least headroom
        // at the top.
        let mut top = (1u64 << 62) - 1;
        while !crate::prime::is_prime_u64(top) {
            top -= 2;
        }
        vec![
            PrimeField::new(97).unwrap(),
            PrimeField::new(1_000_000_007).unwrap(),
            PrimeField::new((1 << 61) - 1).unwrap(),
            PrimeField::new(top).unwrap(),
        ]
    }

    /// Lengths covering the degenerate shapes the kernels must handle:
    /// empty, single lane, exactly one block, and non-power-of-two tails.
    const SHAPES: [usize; 8] = [0, 1, 7, 8, 9, 64, 100, 257];

    fn randoms(f: &PrimeField, n: usize, rng: &mut SplitMix64) -> Vec<u64> {
        (0..n).map(|_| f.sample(rng)).collect()
    }

    #[test]
    fn add_sub_mul_slices_match_scalar() {
        for f in fields() {
            let mut rng = SplitMix64::new(f.modulus());
            for n in SHAPES {
                let a = randoms(&f, n, &mut rng);
                let b = randoms(&f, n, &mut rng);
                let mut s = a.clone();
                f.add_slice(&mut s, &b);
                assert_eq!(s, a.iter().zip(&b).map(|(&x, &y)| f.add(x, y)).collect::<Vec<_>>());
                let mut p = a.clone();
                f.mul_slice(&mut p, &b);
                assert_eq!(p, a.iter().zip(&b).map(|(&x, &y)| f.mul(x, y)).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn mul_add_slice_matches_scalar() {
        for f in fields() {
            let mut rng = SplitMix64::new(f.modulus() ^ 1);
            for n in SHAPES {
                let acc = randoms(&f, n, &mut rng);
                let a = randoms(&f, n, &mut rng);
                let b = randoms(&f, n, &mut rng);
                let mut out = acc.clone();
                f.mul_add_slice(&mut out, &a, &b);
                let expect: Vec<u64> =
                    acc.iter().zip(&a).zip(&b).map(|((&x, &y), &z)| f.mul_add(x, y, z)).collect();
                assert_eq!(out, expect, "n = {n}, q = {}", f.modulus());
            }
        }
    }

    #[test]
    fn dot_and_horner_match_mul_add_chains() {
        for f in fields() {
            let mut rng = SplitMix64::new(f.modulus() ^ 7);
            for n in SHAPES.into_iter().chain([2, 3, 4, 5, 6]) {
                // All-(q-1) operands put the lazy accumulator at its
                // least headroom.
                let top = vec![f.modulus() - 1; n];
                for (a, b) in
                    [(randoms(&f, n, &mut rng), randoms(&f, n, &mut rng)), (top.clone(), top)]
                {
                    let dot = a.iter().zip(&b).fold(0, |acc, (&x, &y)| f.mul_add(acc, x, y));
                    assert_eq!(f.dot(&a, &b), dot, "dot, n = {n}, q = {}", f.modulus());
                    for x in [0, 1, f.modulus() - 1, f.sample(&mut rng), rng.next_u64()] {
                        let xr = f.reduce(x);
                        let chain = a.iter().rev().fold(0, |acc, &c| f.mul_add(c, acc, xr));
                        assert_eq!(f.horner(&a, x), chain, "horner, n = {n}, x = {x}");
                    }
                }
            }
        }
    }

    #[test]
    fn shoup_slices_match_scalar() {
        for f in fields() {
            let mut rng = SplitMix64::new(f.modulus() ^ 2);
            for n in SHAPES {
                let a = randoms(&f, n, &mut rng);
                let k = f.sample(&mut rng);
                let ks = f.shoup_precompute(k);
                let mut out = a.clone();
                f.mul_const_shoup_slice(&mut out, k, ks);
                let expect: Vec<u64> = a.iter().map(|&x| f.mul_shoup(x, k, ks)).collect();
                assert_eq!(out, expect, "n = {n}, q = {}", f.modulus());
            }
        }
    }

    #[test]
    fn reduce_slice_matches_scalar_on_arbitrary_words() {
        for f in fields() {
            let mut rng = SplitMix64::new(f.modulus() ^ 3);
            for n in SHAPES {
                let raw: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
                let mut out = raw.clone();
                f.reduce_slice(&mut out);
                assert_eq!(out, raw.iter().map(|&x| f.reduce(x)).collect::<Vec<_>>());
            }
        }
    }

    /// The lazy CT butterfly lane must be congruent to the classical
    /// butterfly on every lane and stay inside the `[0, 4q)` range —
    /// checked on reduced inputs and on maximally-lazy inputs.
    #[test]
    fn lazy_ct_butterfly_is_congruent_and_bounded() {
        for f in fields() {
            let q = f.modulus();
            let mut rng = SplitMix64::new(q ^ 4);
            for n in SHAPES {
                let w = randoms(&f, n, &mut rng);
                let ws: Vec<u64> = w.iter().map(|&x| f.shoup_precompute(x)).collect();
                for lazy in [false, true] {
                    let bound = if lazy { 4 * q } else { q }; // exclusive; 4q < 2^64
                    let lo0: Vec<u64> = (0..n).map(|_| rng.next_u64() % bound).collect();
                    let hi0: Vec<u64> = (0..n).map(|_| rng.next_u64() % bound).collect();
                    let (mut lo, mut hi) = (lo0.clone(), hi0.clone());
                    f.butterfly_ct_lazy_slice(&mut lo, &mut hi, &w, &ws);
                    for i in 0..n {
                        assert!(lo[i] < 4 * q && hi[i] < 4 * q, "lazy range violated");
                        let a = lo0[i] % q; // scalar oracle on the reduced residues
                        let b = hi0[i] % q;
                        let t = f.mul_shoup(b, w[i], ws[i]);
                        assert_eq!(lo[i] % q, f.add(a, t), "lane {i} lo, q = {q}");
                        assert_eq!(hi[i] % q, f.sub(a, t), "lane {i} hi, q = {q}");
                    }
                }
            }
        }
    }

    /// The lazy GS butterfly lane must be congruent to the classical
    /// decimation-in-frequency butterfly and preserve the `[0, 2q)`
    /// invariant.
    #[test]
    fn lazy_gs_butterfly_is_congruent_and_bounded() {
        for f in fields() {
            let q = f.modulus();
            let mut rng = SplitMix64::new(q ^ 5);
            for n in SHAPES {
                let w = randoms(&f, n, &mut rng);
                let ws: Vec<u64> = w.iter().map(|&x| f.shoup_precompute(x)).collect();
                let lo0: Vec<u64> = (0..n).map(|_| rng.next_u64() % (2 * q)).collect();
                let hi0: Vec<u64> = (0..n).map(|_| rng.next_u64() % (2 * q)).collect();
                let (mut lo, mut hi) = (lo0.clone(), hi0.clone());
                f.butterfly_gs_lazy_slice(&mut lo, &mut hi, &w, &ws);
                for i in 0..n {
                    assert!(lo[i] < 2 * q && hi[i] < 2 * q, "lazy range violated");
                    let a = lo0[i] % q;
                    let b = hi0[i] % q;
                    assert_eq!(lo[i] % q, f.add(a, b), "lane {i} lo");
                    assert_eq!(hi[i] % q, f.mul(f.sub(a, b), w[i]), "lane {i} hi");
                }
            }
        }
    }

    #[test]
    fn reduce_lazy_slice_reduces_the_full_lazy_range() {
        for f in fields() {
            let q = f.modulus();
            let mut rng = SplitMix64::new(q ^ 6);
            for n in SHAPES {
                let raw: Vec<u64> = (0..n).map(|_| rng.next_u64() % (4 * q)).collect();
                let mut out = raw.clone();
                f.reduce_lazy_slice(&mut out);
                assert_eq!(out, raw.iter().map(|&x| x % q).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn blocked_batch_inversion_matches_scalar() {
        for f in fields() {
            let mut rng = SplitMix64::new(f.modulus() ^ 7);
            for n in SHAPES {
                let vals: Vec<u64> =
                    (0..n).map(|_| 1 + rng.next_u64() % (f.modulus() - 1)).collect();
                let mut blocked = vals.clone();
                f.inv_batch_blocked(&mut blocked);
                let mut scalar = vals.clone();
                f.inv_batch(&mut scalar);
                assert_eq!(blocked, scalar, "n = {n}, q = {}", f.modulus());
                for (v, inv) in vals.iter().zip(&blocked) {
                    assert_eq!(f.mul(*v, *inv), 1 % f.modulus());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "batch-invert zero")]
    fn blocked_batch_inversion_rejects_zero() {
        let f = PrimeField::new(1_000_003).unwrap();
        let mut vals = vec![1u64; 100];
        vals[63] = 0;
        f.inv_batch_blocked(&mut vals);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn slice_kernels_reject_mismatched_lengths() {
        let f = PrimeField::new(97).unwrap();
        let mut a = vec![1u64; 8];
        f.add_slice(&mut a, &[1, 2, 3]);
    }
}
