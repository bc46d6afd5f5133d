//! The §7 proof template for partitioning sum-products.
//!
//! Universe `U = E ∪ B`: subsets of the *explicit* set `E` are tracked by
//! table index, while membership in the *bit* set `B` is encoded through
//! Kronecker substitution — element `i` of `B` carries the bit value
//! `2^i`, and a part `X` contributes the factor `x^{Σ bits(X ∩ B)}`.
//! Selecting `|B|` bits (with repetition) sums to `2^{|B|} - 1` **iff**
//! each bit was chosen exactly once, so the proof coefficient
//!
//! ```text
//! p_{2^{|B|}-1}  =  Σ_{(X_1..X_t) partitions U} f(X_1)···f(X_t)
//! ```
//!
//! is the partitioning sum-product (22). The proof polynomial has degree
//! `d = 2^{|B|-1} |B|`, and each node evaluates `P(x_0)` as the
//! coefficient of `w_E^{|E|} w_B^{|B|}` in
//! `a(w) = Σ_{Y ⊆ E} (-1)^{|E∖Y|} g(Y)^t` (equation (28)).

use crate::bipoly::Shape;
use camelot_ff::PrimeField;

/// The universe split `U = E ∪ B` with `E` the low `e_size` elements.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Split {
    /// `|U|`.
    pub n: usize,
    /// `|E|` (elements `0..e_size`).
    pub e_size: usize,
    /// `|B|` (elements `e_size..n`).
    pub b_size: usize,
}

impl Split {
    /// Balanced split `|E| = ⌈n/2⌉` (the §7.4 optimum `|E| = |B|`).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > 40` (the `2^{|E|}` table must fit).
    #[must_use]
    pub fn balanced(n: usize) -> Self {
        Self::with_explicit(n, n.div_ceil(2))
    }

    /// Split with a chosen explicit size (`|E| = 2|B|` for the Tutte
    /// design of §10).
    ///
    /// # Panics
    ///
    /// Panics if sizes are inconsistent or `b_size > 20`.
    #[must_use]
    pub fn with_explicit(n: usize, e_size: usize) -> Self {
        assert!(n > 0, "empty universe");
        assert!(e_size <= n, "explicit part exceeds the universe");
        let b_size = n - e_size;
        assert!(e_size <= 24 && b_size <= 20, "split too large for in-memory tables");
        Split { n, e_size, b_size }
    }

    /// Degree bound of the proof polynomial: `2^{|B|-1} |B|` (the largest
    /// achievable bit-multiset sum).
    #[must_use]
    pub fn degree_bound(&self) -> usize {
        if self.b_size == 0 {
            0
        } else {
            (1usize << (self.b_size - 1)) * self.b_size
        }
    }

    /// The proof coefficient index carrying the answer: `2^{|B|} - 1`.
    #[must_use]
    pub fn target_coefficient(&self) -> usize {
        (1usize << self.b_size) - 1
    }

    /// Mask of `E` inside `U`.
    #[must_use]
    pub fn e_mask(&self) -> u64 {
        (1u64 << self.e_size) - 1
    }

    /// The truncation shape `(|E|, |B|)` of the node polynomials.
    #[must_use]
    pub fn shape(&self) -> Shape {
        Shape::new(self.e_size, self.b_size)
    }

    /// Splits a universe subset into `(X ∩ E, X ∩ B)` with the `B` part
    /// re-based to bits `0..b_size`.
    #[must_use]
    pub fn split_mask(&self, x: u64) -> (u64, u64) {
        (x & self.e_mask(), x >> self.e_size)
    }
}

/// `out[mask] = x0^mask` for every `mask < out.len()` (a power of two):
/// the Kronecker weights `x0^{Σ bits(X ∩ B)}` of all `2^{|B|}` bit sets at
/// once, by doubling — one multiplication per mask instead of one
/// exponentiation. `x0` must be reduced.
///
/// # Panics
///
/// Panics unless `out.len()` is a power of two.
pub fn subset_powers(field: &PrimeField, x0: u64, out: &mut [u64]) {
    assert!(out.len().is_power_of_two(), "one weight per subset");
    out[0] = 1;
    let mut bit_power = x0; // x0^{2^j}
    let mut filled = 1;
    while filled < out.len() {
        let (low, high) = out.split_at_mut(filled);
        for (h, &l) in high.iter_mut().zip(low.iter()) {
            *h = field.mul(l, bit_power);
        }
        bit_power = field.mul(bit_power, bit_power);
        filled *= 2;
    }
}

/// In-place zeta transform of a flat table of `2^k` entries of `stride`
/// coefficients each: `g[Y] = Σ_{Z ⊆ Y} g0[Z]` (Yates's algorithm
/// specialised to the subset lattice).
///
/// # Panics
///
/// Panics unless `table.len() / stride` is a power of two.
pub fn zeta_in_place(field: &PrimeField, table: &mut [u64], stride: usize) {
    let entries = table.len() / stride;
    assert!(
        entries * stride == table.len() && entries.is_power_of_two(),
        "table must have 2^k entries"
    );
    for j in 0..entries.trailing_zeros() {
        for y in (0..entries).filter(|y| y >> j & 1 == 1) {
            let (lo, hi) = table.split_at_mut(y * stride);
            field.add_slice(&mut hi[..stride], &lo[(y & !(1 << j)) * stride..][..stride]);
        }
    }
}

/// Scratch [`alternating_power_coefficient`] needs, in polynomials of the
/// split's shape.
pub const POWER_SCRATCH: usize = 4;

/// Equation (28): `a(w) = Σ_{Y ⊆ E} (-1)^{|E∖Y|} g(Y)^t`, returning the
/// target coefficient `a_{|E|,|B|} = P(x_0) (mod q)`.
///
/// Per table entry this computes `g^{t-1}` truncated and then only the
/// target coefficient of `g^{t-1} · g` (a dot product), and skips entries
/// whose `w_E`-degree is too small for `g^t` to reach `w_E^{|E|}` at all.
/// `g` is the flat table of `2^{|E|}` polynomials of [`Split::shape`];
/// `scratch` holds [`POWER_SCRATCH`] more.
///
/// # Panics
///
/// Panics if `g` does not have `2^{|E|}` entries, `t == 0`, or `scratch`
/// is too short.
#[must_use]
pub fn alternating_power_coefficient(
    field: &PrimeField,
    g: &[u64],
    split: &Split,
    t: u64,
    scratch: &mut [u64],
) -> u64 {
    let shape = split.shape();
    let stride = shape.stride();
    assert_eq!(g.len(), stride << split.e_size, "table must have 2^|E| entries");
    assert!(t > 0, "a partition has at least one part");
    let (reversed, power_scratch) = scratch.split_at_mut(stride);
    let mut acc = 0u64;
    for (y, poly) in g.chunks_exact(stride).enumerate() {
        let rows = shape.live_rows(poly);
        // deg_{w_E} g^t <= t · deg_{w_E} g.
        if (rows as u64).saturating_sub(1).saturating_mul(t) < split.e_size as u64 {
            continue;
        }
        let coeff = if t == 1 {
            poly[stride - 1]
        } else {
            let (power, _) = shape.pow_into(field, (poly, rows), t - 1, power_scratch);
            shape.top_coefficient_of_product(field, power, poly, reversed)
        };
        if (split.e_size - (y as u64).count_ones() as usize).is_multiple_of(2) {
            acc = field.add(acc, coeff);
        } else {
            acc = field.sub(acc, coeff);
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f() -> PrimeField {
        PrimeField::new(1_000_000_007).unwrap()
    }

    #[test]
    fn split_geometry() {
        let s = Split::balanced(7);
        assert_eq!((s.e_size, s.b_size), (4, 3));
        assert_eq!(s.degree_bound(), 4 * 3);
        assert_eq!(s.target_coefficient(), 7);
        assert_eq!(s.split_mask(0b101_1010), (0b1010, 0b101));
        let t = Split::with_explicit(9, 6);
        assert_eq!((t.e_size, t.b_size), (6, 3));
    }

    #[test]
    fn zeta_is_subset_sum() {
        let field = f();
        let stride = 3;
        // Entry i holds (i + 1, 0, 2i).
        let mut table: Vec<u64> = (0..8u64).flat_map(|i| [i + 1, 0, 2 * i]).collect();
        let original = table.clone();
        zeta_in_place(&field, &mut table, stride);
        for y in 0..8usize {
            for k in 0..stride {
                let mut expect = 0u64;
                let mut sub = y;
                loop {
                    expect += original[sub * stride + k];
                    if sub == 0 {
                        break;
                    }
                    sub = (sub - 1) & y;
                }
                assert_eq!(table[y * stride + k], expect, "Y = {y:b}, k = {k}");
            }
        }
    }

    #[test]
    fn subset_powers_are_powers() {
        let field = f();
        for x0 in [0u64, 1, 2, 999_999_999] {
            let mut powers = vec![0u64; 32];
            subset_powers(&field, x0, &mut powers);
            for (mask, &p) in powers.iter().enumerate() {
                assert_eq!(p, field.pow(x0, mask as u64), "x0 = {x0}, mask = {mask}");
            }
        }
    }

    #[test]
    fn template_counts_ordered_set_partitions_brute() {
        // Tiny end-to-end sanity check of the machinery itself: count
        // ordered pairs of disjoint sets covering U = {0,1,2} drawn from
        // the family of ALL nonempty subsets, with |E| = 2, |B| = 1.
        // Expected: each of the 2^3 - 2 = 6 proper bipartitions ordered:
        // ({0},{1,2}),({1},{0,2}),({2},{0,1}) and swaps = 6... plus
        // nothing else (parts nonempty, exactly cover).
        let field = f();
        let split = Split::with_explicit(3, 2);
        let shape = split.shape();
        let family: Vec<u64> = (1..8).collect();
        // b_size = 1: degree bound 1, target coefficient 1, so
        // P(x) = p0 + p1 x and p1 is the answer. Interpolate from
        // x = 0, 1.
        let eval = |x0: u64| -> u64 {
            let mut g0 = vec![0u64; 4 * shape.stride()];
            for &x in &family {
                let (me, mb) = split.split_mask(x);
                let c = field.pow(field.reduce(x0), mb);
                let slot = &mut g0[me as usize * shape.stride()
                    + shape.index(me.count_ones() as usize, mb.count_ones() as usize)];
                *slot = field.add(*slot, c);
            }
            zeta_in_place(&field, &mut g0, shape.stride());
            let mut scratch = vec![0u64; POWER_SCRATCH * shape.stride()];
            alternating_power_coefficient(&field, &g0, &split, 2, &mut scratch)
        };
        let p0 = eval(0);
        let p1 = field.sub(eval(1), p0);
        assert_eq!(p1, 6, "ordered bipartitions of a 3-set");
    }
}
