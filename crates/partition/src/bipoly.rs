//! Truncated bivariate polynomials in the weight-tracking indeterminates
//! `w_E, w_B` of the §7 template.
//!
//! Every node computes with polynomials in `Z_q[w_E, w_B]` truncated at
//! degrees `(|E|, |B|)` — higher powers can never contribute to the
//! target coefficient `a_{|E|,|B|}`, so the truncation is lossless for
//! the template's purposes.
//!
//! A polynomial is a row-major coefficient slice of a [`Shape`]: the
//! evaluators keep whole tables of them (`2^{|E|}` entries) in one flat
//! buffer, so the arithmetic here works on borrowed slices and allocates
//! nothing.

use camelot_ff::PrimeField;

/// Truncation degrees of a polynomial in `Z_q[w_E, w_B]`: a polynomial of
/// this shape is a slice of [`Shape::stride`] coefficients with the
/// coefficient of `w_E^i w_B^j` at [`Shape::index`]`(i, j)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shape {
    rows: usize,
    cols: usize,
}

impl Shape {
    /// Polynomials truncated at `w_E^{we_deg} w_B^{wb_deg}`.
    #[must_use]
    pub fn new(we_deg: usize, wb_deg: usize) -> Self {
        Shape { rows: we_deg + 1, cols: wb_deg + 1 }
    }

    /// Coefficients per polynomial, `(we_deg + 1)(wb_deg + 1)`: the
    /// distance between consecutive entries of a flat table.
    #[must_use]
    pub fn stride(&self) -> usize {
        self.rows * self.cols
    }

    /// Coefficients per `w_E`-row, `wb_deg + 1`.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Position of the coefficient of `w_E^i w_B^j`.
    ///
    /// # Panics
    ///
    /// Panics beyond the truncation.
    #[must_use]
    pub fn index(&self, i: usize, j: usize) -> usize {
        assert!(i < self.rows && j < self.cols, "monomial beyond the truncation");
        i * self.cols + j
    }

    /// Number of leading `w_E`-rows of `poly` up to its last nonzero one
    /// (its `w_E`-degree plus one; 0 for the zero polynomial).
    #[must_use]
    pub fn live_rows(&self, poly: &[u64]) -> usize {
        poly.iter().rposition(|&c| c != 0).map_or(0, |last| last / self.cols + 1)
    }

    /// `out = a · b`, truncated. `a_rows` and `b_rows` bound the operands'
    /// live rows ([`Shape::live_rows`]; rows from there on must be zero),
    /// which the table entries of the template know cheaply — the product
    /// then skips the rows that cannot contribute instead of testing
    /// every coefficient. Returns the bound on `out`'s live rows.
    ///
    /// # Panics
    ///
    /// Panics unless all three slices have this shape.
    pub fn mul_into(
        &self,
        field: &PrimeField,
        (a, a_rows): (&[u64], usize),
        (b, b_rows): (&[u64], usize),
        out: &mut [u64],
    ) -> usize {
        let Shape { rows, cols } = *self;
        assert!(a.len() == self.stride() && b.len() == self.stride() && out.len() == self.stride());
        out.fill(0);
        // lint:hot-begin(bipoly-mul) — the truncated product every power
        // of a table entry is made of: Barrett `mul_add`, no `%`, no
        // clones, no allocation.
        for i1 in 0..a_rows.min(rows) {
            for j1 in 0..cols {
                let c = a[i1 * cols + j1];
                if c == 0 {
                    continue;
                }
                for i2 in 0..b_rows.min(rows - i1) {
                    let src = &b[i2 * cols..][..cols - j1];
                    let dst = &mut out[(i1 + i2) * cols + j1..][..cols - j1];
                    for (d, &v) in dst.iter_mut().zip(src) {
                        *d = field.mul_add(*d, c, v);
                    }
                }
            }
        }
        // lint:hot-end
        (a_rows + b_rows).saturating_sub(1).min(rows)
    }

    /// `base^exp` truncated, for `exp >= 1`, by square-and-multiply in the
    /// caller's `scratch` (three polynomials); returns the power (a
    /// sub-slice of `scratch`) with its live-row bound.
    ///
    /// # Panics
    ///
    /// Panics if `exp == 0` or `scratch` is shorter than `3 * stride()`.
    pub fn pow_into<'s>(
        &self,
        field: &PrimeField,
        (base, base_rows): (&[u64], usize),
        mut exp: u64,
        scratch: &'s mut [u64],
    ) -> (&'s [u64], usize) {
        assert!(exp >= 1, "the zeroth power needs no arithmetic");
        let stride = self.stride();
        let (mut acc, rest) = scratch.split_at_mut(stride);
        let (mut square, rest) = rest.split_at_mut(stride);
        let mut spare = &mut rest[..stride];
        square.copy_from_slice(base);
        let mut square_rows = base_rows;
        // The lowest set bit seeds the accumulator with a copy rather
        // than a multiplication by one.
        let mut acc_rows = None;
        loop {
            if exp & 1 == 1 {
                acc_rows = Some(match acc_rows {
                    None => {
                        acc.copy_from_slice(square);
                        square_rows
                    }
                    Some(rows) => {
                        let rows = self.mul_into(field, (acc, rows), (square, square_rows), spare);
                        std::mem::swap(&mut acc, &mut spare);
                        rows
                    }
                });
            }
            exp >>= 1;
            if exp == 0 {
                break;
            }
            square_rows = self.mul_into(field, (square, square_rows), (square, square_rows), spare);
            std::mem::swap(&mut square, &mut spare);
        }
        (acc, acc_rows.expect("exp >= 1 has a set bit"))
    }

    /// The top coefficient (of `w_E^{we_deg} w_B^{wb_deg}`) of `a · b`:
    /// the one entry of the product the template reads, as a single dot
    /// product of `a` against `b` reversed (`reversed` is scratch of one
    /// polynomial) instead of a whole truncated product.
    ///
    /// # Panics
    ///
    /// Panics unless all three slices have this shape.
    #[must_use]
    pub fn top_coefficient_of_product(
        &self,
        field: &PrimeField,
        a: &[u64],
        b: &[u64],
        reversed: &mut [u64],
    ) -> u64 {
        assert!(
            a.len() == self.stride() && b.len() == self.stride() && reversed.len() == self.stride()
        );
        for (slot, &v) in reversed.iter_mut().zip(b.iter().rev()) {
            *slot = v;
        }
        field.dot(a, reversed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camelot_ff::{RngLike, SplitMix64};

    fn f() -> PrimeField {
        PrimeField::new(1_000_000_007).unwrap()
    }

    /// Schoolbook product with no shortcuts.
    fn mul_reference(field: &PrimeField, shape: Shape, a: &[u64], b: &[u64]) -> Vec<u64> {
        let mut out = vec![0u64; shape.stride()];
        for i1 in 0..shape.rows {
            for j1 in 0..shape.cols {
                for i2 in 0..shape.rows - i1 {
                    for j2 in 0..shape.cols - j1 {
                        let idx = shape.index(i1 + i2, j1 + j2);
                        out[idx] =
                            field.mul_add(out[idx], a[shape.index(i1, j1)], b[shape.index(i2, j2)]);
                    }
                }
            }
        }
        out
    }

    /// A random polynomial whose rows from `rows` on are zero.
    fn random_poly(shape: Shape, rows: usize, rng: &mut SplitMix64) -> Vec<u64> {
        let field = f();
        (0..shape.stride())
            .map(|k| {
                if k / shape.cols < rows && !rng.next_u64().is_multiple_of(4) {
                    field.sample(rng)
                } else {
                    0
                }
            })
            .collect()
    }

    #[test]
    fn shape_geometry() {
        let shape = Shape::new(3, 2);
        assert_eq!((shape.stride(), shape.cols()), (12, 3));
        assert_eq!(shape.index(1, 2), 5);
        assert_eq!(shape.live_rows(&[0; 12]), 0);
        assert_eq!(shape.live_rows(&[0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0]), 2);
    }

    #[test]
    fn multiplication_truncates() {
        let field = f();
        // (w_E + w_B)^2 truncated at (1, 1): only the cross term 2 w_E w_B
        // survives; w_E² and w_B² are cut.
        let shape = Shape::new(1, 1);
        let p = [0, 1, 1, 0];
        let mut sq = [9u64; 4];
        assert_eq!(shape.mul_into(&field, (&p, 2), (&p, 2), &mut sq), 2);
        assert_eq!(sq, [0, 0, 0, 2]);
    }

    #[test]
    fn row_bounded_product_matches_reference() {
        let field = f();
        let mut rng = SplitMix64::new(3);
        for (we, wb) in [(0usize, 0usize), (4, 3), (6, 6), (2, 9)] {
            let shape = Shape::new(we, wb);
            for a_rows in 0..=we + 1 {
                for b_rows in [0, 1, we / 2 + 1, we + 1] {
                    let a = random_poly(shape, a_rows, &mut rng);
                    let b = random_poly(shape, b_rows, &mut rng);
                    let mut out = vec![u64::MAX; shape.stride()];
                    let rows = shape.mul_into(
                        &field,
                        (&a, shape.live_rows(&a)),
                        (&b, shape.live_rows(&b)),
                        &mut out,
                    );
                    assert_eq!(out, mul_reference(&field, shape, &a, &b), "({we},{wb})");
                    assert!(shape.live_rows(&out) <= rows, "live-row bound");
                }
            }
        }
    }

    #[test]
    fn pow_matches_iterated_mul_and_top_coefficient_matches_product() {
        let field = f();
        let mut rng = SplitMix64::new(4);
        let shape = Shape::new(4, 3);
        for rows in [1usize, 2, 5] {
            let p = random_poly(shape, rows, &mut rng);
            let live = shape.live_rows(&p);
            let mut iter = p.clone();
            let mut scratch = vec![u64::MAX; 3 * shape.stride()];
            let mut reversed = vec![0u64; shape.stride()];
            for e in 1..=6u64 {
                let (pow, pow_rows) = shape.pow_into(&field, (&p, live), e, &mut scratch);
                assert_eq!(pow, iter, "exponent {e}");
                assert!(shape.live_rows(pow) <= pow_rows);
                iter = mul_reference(&field, shape, &iter, &p);
                assert_eq!(
                    shape.top_coefficient_of_product(&field, pow, &p, &mut reversed),
                    iter[shape.stride() - 1],
                    "top coefficient of p^{e} · p"
                );
            }
        }
    }
}
