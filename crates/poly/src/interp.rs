//! Interpolation and multipoint evaluation.
//!
//! Camelot proof polynomials are repeatedly moved between *evaluation
//! form* (the Reed–Solomon codeword the nodes produce) and *coefficient
//! form* (the proof the verifier spot-checks). This module provides Newton
//! interpolation at arbitrary distinct points, plus the special-cased
//! `O(R)` evaluation of all Lagrange basis polynomials
//! `Λ_r(x_0)` over the consecutive points `1..=R` used by the clique and
//! triangle evaluation algorithms (§5.3 and §3.3 of the paper).
//!
//! [`interpolate`] is one routine in two stages, each in place in the
//! buffer the values arrive in:
//!
//! 1. *The Newton triangle* turns values into divided-difference
//!    coefficients. When the abscissae are in arithmetic progression mod
//!    `q` — the paper's schedule (1), `0, 1, …, e−1`, and every
//!    [`interpolate_consecutive`] caller — every node difference of level
//!    `k` is the same number `k·step`, so the triangle is the plain
//!    forward-difference table (`n²/2` subtractions, no multiplication)
//!    and `c_k = Δ^k y_0 / (k!·step^k)` takes one batch inversion of `n`
//!    running products at the end. Any other point set pays a batch
//!    inversion of the level's node differences and one multiplication
//!    per cell.
//! 2. *The expansion* `p ← p·(x − x_i) + c_i` from the last node down
//!    overwrites the consumed coefficients `c_i …` with `p` itself
//!    (`n²/2` multiply-adds by a per-node constant).
//!
//! The forward-difference table and the expansion allocate nothing (the
//! general triangle still collects and batch-inverts one vector of node
//! differences per level), and the result is the unique interpolant
//! either way.

use crate::dense::Poly;
use camelot_ff::PrimeField;
use std::cell::Cell;

/// The panic message of both distinctness checks.
const DISTINCT: &str = "interpolation points must be distinct (mod q)";

/// Interpolates the unique polynomial of degree `< points.len()` through
/// the given `(x, y)` pairs: Newton's divided differences expanded to
/// monomial coefficients, `O(n²)` — on abscissae in arithmetic
/// progression mod `q` (any start, any nonzero step, wrap-around
/// included) `n²/2` subtractions and `n²/2` multiply-adds with a single
/// batch inversion; on any other point set `n²/2` further multiplications
/// and a batch inversion per level (see the module docs).
///
/// # Panics
///
/// Panics if two points share an abscissa.
#[must_use]
pub fn interpolate(field: &PrimeField, points: &[(u64, u64)]) -> Poly {
    let xs: Vec<u64> = points.iter().map(|&(x, _)| field.reduce(x)).collect();
    let ys = points.iter().map(|&(_, y)| field.reduce(y)).collect();
    interpolate_reduced(field, &xs, ys)
}

/// [`interpolate`] on already-reduced abscissae `xs` and values `coef`
/// (one per abscissa), which become first the Newton coefficients and
/// then the result.
pub(crate) fn interpolate_reduced(field: &PrimeField, xs: &[u64], mut coef: Vec<u64>) -> Poly {
    let n = xs.len();
    assert_eq!(coef.len(), n, "one value per point");
    // The x_i are x_0 + i·step exactly when consecutive differences agree;
    // they are then distinct iff step != 0 and n <= q.
    let step = match xs {
        [x0, x1, ..] => field.sub(*x1, *x0),
        _ => 1,
    };
    if xs.windows(2).all(|w| field.sub(w[1], w[0]) == step) {
        assert!(step != 0 && u64::try_from(n).is_ok_and(|n| n <= field.modulus()), "{DISTINCT}");
        // 1 / (k!·step^k) for every k, from one inversion.
        let mut inv_den = Vec::with_capacity(n);
        let (mut den, mut k_step) = (1u64, 0u64);
        for _ in 0..n {
            inv_den.push(den);
            k_step = field.add(k_step, step);
            den = field.mul(den, k_step);
        }
        field.inv_batch_blocked(&mut inv_den);
        // lint:hot-begin(newton-table) — the forward-difference triangle:
        // level k leaves Δ^k y_{i-k} in coef[i].
        for level in 1..n {
            for i in (level..n).rev() {
                coef[i] = field.sub(coef[i], coef[i - 1]);
            }
        }
        for (c, &inv) in coef.iter_mut().zip(&inv_den) {
            *c = field.mul(*c, inv);
        }
        // lint:hot-end
    } else {
        // Divided differences proper. The node differences of each level
        // are inverted together with Montgomery's trick — one extended
        // Euclid per level instead of one per cell.
        for level in 1..n {
            let mut inv_dx: Vec<u64> =
                (level..n).map(|i| field.sub(xs[i], xs[i - level])).collect();
            assert!(inv_dx.iter().all(|&dx| dx != 0), "{DISTINCT}");
            field.inv_batch_blocked(&mut inv_dx);
            for i in (level..n).rev() {
                coef[i] = field.mul(field.sub(coef[i], coef[i - 1]), inv_dx[i - level]);
            }
        }
    }
    // Expand Newton form to monomial coefficients by Horner on the nodes,
    // p(x) = c_0 + (x - x_0)(c_1 + (x - x_1)(...)): before step i,
    // coef[i+1..] holds p and coef[..=i] the coefficients still to come;
    // p ← p·(x - x_i) + c_i is coef[j] ← coef[j] - x_i·coef[j+1] upwards
    // from j = i, the top coefficient carried; -x_i is constant along a
    // sweep, so the product is a Shoup multiplication.
    // lint:hot-begin(newton-table)
    for i in (0..n.saturating_sub(1)).rev() {
        let neg_x = field.neg(xs[i]);
        let neg_x_shoup = field.shoup_precompute(neg_x);
        let p = Cell::from_mut(&mut coef[i..]).as_slice_of_cells();
        for w in p.windows(2) {
            w[0].set(field.add(w[0].get(), field.mul_shoup(w[1].get(), neg_x, neg_x_shoup)));
        }
    }
    // lint:hot-end
    Poly::from_reduced(coef)
}

/// The routine [`interpolate`] replaced — a fresh batch inversion per
/// triangle level whatever the points, four temporary polynomials per
/// expansion step — kept verbatim as the oracle the tests compare with.
#[cfg(test)]
fn interpolate_reference(field: &PrimeField, points: &[(u64, u64)]) -> Poly {
    if points.is_empty() {
        return Poly::zero();
    }
    let n = points.len();
    // Divided-difference coefficients c_i (Newton form). The node
    // differences of each level are inverted together with Montgomery's
    // trick — one extended Euclid per level instead of one per cell.
    let mut coef: Vec<u64> = points.iter().map(|&(_, y)| field.reduce(y)).collect();
    let xs: Vec<u64> = points.iter().map(|&(x, _)| field.reduce(x)).collect();
    for level in 1..n {
        let mut inv_dx: Vec<u64> = (level..n).map(|i| field.sub(xs[i], xs[i - level])).collect();
        assert!(inv_dx.iter().all(|&dx| dx != 0), "interpolation points must be distinct (mod q)");
        field.inv_batch_blocked(&mut inv_dx);
        for i in (level..n).rev() {
            coef[i] = field.mul(field.sub(coef[i], coef[i - 1]), inv_dx[i - level]);
        }
    }
    // Expand Newton form to monomial coefficients by Horner on the nodes:
    // p(x) = c_0 + (x - x_0)(c_1 + (x - x_1)(...)).
    let mut poly = Poly::zero();
    for i in (0..n).rev() {
        let xi = field.reduce(points[i].0);
        // poly = poly * (x - x_i) + c_i
        let shifted = poly.shift(1);
        let scaled = poly.scale(field, field.neg(xi));
        poly = shifted.add(field, &scaled).add(field, &Poly::constant(coef[i]));
    }
    poly
}

/// Evaluates `poly` at each point (Horner per point, `O(d·n)`).
#[must_use]
pub fn eval_many(field: &PrimeField, poly: &Poly, xs: &[u64]) -> Vec<u64> {
    xs.iter().map(|&x| poly.eval(field, x)).collect()
}

/// The Lagrange basis over the consecutive nodes `1, 2, ..., R`, prepared
/// for one field: everything that depends only on `(q, R)` is computed
/// once, so [`ConsecutiveBasis::basis_at`] pays per point only for the
/// `O(R)` products that involve the point.
///
/// `Λ_r(x) = Π_{j != r} (x - j) / (r - j)`; the denominator is
/// `(-1)^{R-r} F_{r-1} F_{R-r}` with `F_j = j!` (§5.3 of the paper), and
/// this type holds its inverse for every `r`.
#[derive(Clone, Debug)]
pub struct ConsecutiveBasis {
    field: PrimeField,
    /// `inv_denominators[r - 1] = 1 / ((-1)^{R-r} F_{r-1} F_{R-r})`.
    inv_denominators: Vec<u64>,
}

impl ConsecutiveBasis {
    /// Prepares the basis over `1..=r_count`: one pass of factorials and
    /// a single field inversion.
    ///
    /// # Panics
    ///
    /// Panics if `r_count == 0` or `r_count >= q` (the nodes `1..=R` must
    /// be distinct field elements).
    #[must_use]
    pub fn new(field: &PrimeField, r_count: usize) -> Self {
        assert!(r_count > 0, "need at least one interpolation node");
        let r64 = u64::try_from(r_count).expect("node count fits u64");
        assert!(r64 < field.modulus(), "nodes 1..=R must be distinct mod q");
        // F_0..F_{R-1}, then 1/F_j downwards from the one inversion.
        let mut fact = vec![1u64; r_count];
        for j in 1..r_count {
            fact[j] = field.mul(fact[j - 1], field.reduce(j as u64));
        }
        let mut inv_fact = vec![0u64; r_count];
        inv_fact[r_count - 1] = field.inv(fact[r_count - 1]);
        for j in (1..r_count).rev() {
            inv_fact[j - 1] = field.mul(inv_fact[j], field.reduce(j as u64));
        }
        let inv_denominators = (1..=r_count)
            .map(|r| {
                let v = field.mul(inv_fact[r - 1], inv_fact[r_count - r]);
                if (r_count - r) % 2 == 1 {
                    field.neg(v)
                } else {
                    v
                }
            })
            .collect();
        ConsecutiveBasis { field: *field, inv_denominators }
    }

    /// Number of nodes `R`.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.inv_denominators.len()
    }

    /// Writes `Λ_1(x0), …, Λ_R(x0)` into `out` (indexed by `r - 1`):
    /// `Λ_r(x0)` is the prepared inverse denominator times
    /// `Π_{j<r}(x0 - j) · Π_{j>r}(x0 - j)`, so one prefix sweep and one
    /// suffix sweep produce all of them — `4R` multiplications, no
    /// inversion, no allocation. Inside the node range the basis is an
    /// indicator vector and no arithmetic runs at all.
    ///
    /// # Panics
    ///
    /// Panics unless `out.len() == R`.
    pub fn basis_at(&self, x0: u64, out: &mut [u64]) {
        let field = &self.field;
        let r_count = self.node_count();
        assert_eq!(out.len(), r_count, "output must hold one value per node");
        let x0 = field.reduce(x0);
        if (1..=r_count as u64).contains(&x0) {
            out.fill(0);
            out[(x0 - 1) as usize] = 1;
            return;
        }
        // lint:hot-begin(lagrange-basis) — the per-point sweeps.
        // Forward: out[r-1] = Π_{j<r} (x0 - j), with x0 - r kept as a
        // running difference.
        let mut diff = x0;
        let mut prefix = 1u64;
        for slot in out.iter_mut() {
            diff = field.sub(diff, 1);
            *slot = prefix;
            prefix = field.mul(prefix, diff);
        }
        // Backward: fold in Π_{j>r} (x0 - j) and the denominator.
        let mut suffix = 1u64;
        for (slot, &inv_den) in out.iter_mut().zip(&self.inv_denominators).rev() {
            *slot = field.mul(field.mul(*slot, inv_den), suffix);
            suffix = field.mul(suffix, diff);
            diff = field.add(diff, 1);
        }
        // lint:hot-end
    }
}

/// Evaluates all `R` Lagrange basis polynomials over the consecutive nodes
/// `1, 2, ..., R` at the point `x0`: the one-shot form of
/// [`ConsecutiveBasis`], for callers that evaluate a single point. Anything
/// that evaluates many points over one field prepares the basis once.
///
/// # Panics
///
/// Panics if `r_count == 0` or `r_count >= q`.
#[must_use]
pub fn lagrange_basis_at(field: &PrimeField, r_count: usize, x0: u64) -> Vec<u64> {
    let mut out = vec![0u64; r_count];
    ConsecutiveBasis::new(field, r_count).basis_at(x0, &mut out);
    out
}

/// Interpolates a polynomial from its values at the consecutive points
/// `0, 1, ..., n-1` — the recovery step of every Camelot problem. The
/// points are an arithmetic progression, so this is [`interpolate`] on
/// its forward-difference table: no inversion and no multiplication
/// inside the triangle, one batch inversion of `n` factorials after it.
///
/// # Panics
///
/// Panics if `n > q` (the points wrap around and repeat).
#[must_use]
pub fn interpolate_consecutive(field: &PrimeField, values: &[u64]) -> Poly {
    let xs: Vec<u64> = (0..values.len() as u64).map(|x| field.reduce(x)).collect();
    let ys = values.iter().map(|&y| field.reduce(y)).collect();
    interpolate_reduced(field, &xs, ys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use camelot_ff::{RngLike, SplitMix64};

    fn f() -> PrimeField {
        PrimeField::new(1_000_000_007).unwrap()
    }

    #[test]
    fn interpolation_roundtrip_random() {
        let field = f();
        let mut rng = SplitMix64::new(11);
        for deg in [0usize, 1, 2, 7, 33] {
            let poly = Poly::from_reduced(
                (0..=deg)
                    .map(|i| if i == deg { 1 } else { rng.next_u64() % field.modulus() })
                    .collect(),
            );
            let xs: Vec<u64> = (0..=deg as u64).collect();
            let pts: Vec<(u64, u64)> = xs.iter().map(|&x| (x, poly.eval(&field, x))).collect();
            assert_eq!(interpolate(&field, &pts), poly, "degree {deg}");
        }
    }

    #[test]
    fn interpolation_arbitrary_nodes() {
        let field = f();
        let mut rng = SplitMix64::new(12);
        let poly = Poly::from_coeffs(&field, [5, 0, 3, 9, 1]);
        let mut xs = std::collections::BTreeSet::new();
        while xs.len() < 5 {
            xs.insert(field.sample(&mut rng));
        }
        let pts: Vec<(u64, u64)> = xs.iter().map(|&x| (x, poly.eval(&field, x))).collect();
        assert_eq!(interpolate(&field, &pts), poly);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn repeated_nodes_rejected() {
        let field = f();
        let _ = interpolate(&field, &[(1, 2), (1, 3)]);
    }

    /// `interpolate` against the routine it replaced, bit for bit.
    fn assert_matches_reference(field: &PrimeField, xs: &[u64], rng: &mut SplitMix64, what: &str) {
        let pts: Vec<(u64, u64)> = xs.iter().map(|&x| (x, rng.next_u64())).collect();
        assert_eq!(interpolate(field, &pts), interpolate_reference(field, &pts), "{what}");
    }

    fn progression(field: &PrimeField, start: u64, step: u64, n: usize) -> Vec<u64> {
        let (mut x, step) = (field.reduce(start), field.reduce(step));
        (0..n)
            .map(|_| {
                let here = x;
                x = field.add(x, step);
                here
            })
            .collect()
    }

    #[test]
    fn matches_the_reference_on_random_point_sets() {
        let field = f();
        let mut rng = SplitMix64::new(21);
        assert_eq!(interpolate(&field, &[]), interpolate_reference(&field, &[]));
        for n in 1..=70usize {
            let mut xs = std::collections::BTreeSet::new();
            while xs.len() < n {
                xs.insert(rng.next_u64() >> 1);
            }
            // Rotated so the abscissae are not even monotone; values
            // above q exercise the reduction.
            let mut xs: Vec<u64> = xs.into_iter().collect();
            xs.rotate_left(n / 3);
            assert_matches_reference(&field, &xs, &mut rng, &format!("{n} random points"));
        }
    }

    #[test]
    fn matches_the_reference_on_progressions() {
        let mut rng = SplitMix64::new(22);
        for q in [97u64, 1_048_583, 1_000_000_007] {
            let field = PrimeField::new(q).unwrap();
            for n in [1usize, 2, 3, 4, 17, 64, 70] {
                for _ in 0..4 {
                    let (start, step) = (rng.next_u64(), 1 + rng.next_u64() % (q - 1));
                    let xs = progression(&field, start, step, n);
                    assert_matches_reference(&field, &xs, &mut rng, &format!("q {q} n {n}"));
                }
                // Wrap-around through zero, and descending.
                assert_matches_reference(
                    &field,
                    &progression(&field, q - 2, 1, n),
                    &mut rng,
                    &format!("q {q}: q-2, q-1, 0, 1, … ({n})"),
                );
                assert_matches_reference(
                    &field,
                    &progression(&field, 5, q - 1, n),
                    &mut rng,
                    &format!("q {q}: step q-1 ({n})"),
                );
            }
        }
        // The whole field: n = q is the longest progression there is.
        let field = PrimeField::new(97).unwrap();
        for (start, step) in [(0, 1), (40, 1), (3, 5), (96, 96)] {
            let xs = progression(&field, start, step, 97);
            assert_matches_reference(&field, &xs, &mut rng, &format!("all of Z_97 from {start}"));
        }
    }

    #[test]
    fn a_progression_with_two_points_swapped_takes_the_general_triangle_and_agrees() {
        let mut rng = SplitMix64::new(23);
        for q in [97u64, 1_048_583] {
            let field = PrimeField::new(q).unwrap();
            for n in [3usize, 4, 9, 64] {
                let mut pts: Vec<(u64, u64)> = progression(&field, q - 2, 3, n)
                    .into_iter()
                    .map(|x| (x, rng.next_u64() % q))
                    .collect();
                let straight = interpolate(&field, &pts);
                pts.swap(0, n - 1);
                assert_eq!(interpolate(&field, &pts), straight, "q {q} n {n}: ends swapped");
                assert_eq!(interpolate(&field, &pts), interpolate_reference(&field, &pts));
                pts.swap(1, n / 2 + 1);
                assert_eq!(interpolate(&field, &pts), straight, "q {q} n {n}: inner swap");
            }
        }
    }

    #[test]
    fn matches_the_reference_on_the_engine_shapes() {
        // Code lengths and primes of the `Smallest` schedule on the
        // catalogue workload.
        let mut rng = SplitMix64::new(24);
        for (q, e) in [(1_048_583u64, 149usize), (1_048_589, 1031), (1_048_601, 1139)] {
            let field = PrimeField::new(q).unwrap();
            let values: Vec<u64> = (0..e).map(|_| rng.next_u64()).collect();
            let pts: Vec<(u64, u64)> = (0..e as u64).zip(values.iter().copied()).collect();
            let expect = interpolate_reference(&field, &pts);
            assert_eq!(interpolate(&field, &pts), expect, "q {q} e {e}");
            assert_eq!(interpolate_consecutive(&field, &values), expect, "q {q} e {e}: wrapper");
        }
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn repeated_node_outside_a_progression_rejected() {
        let field = f();
        let _ = interpolate(&field, &[(1, 2), (5, 3), (2, 9), (5, 4)]);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn zero_step_progression_rejected() {
        let field = f();
        let _ = interpolate(&field, &[(7, 2), (7, 3), (7, 4)]);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn progression_longer_than_the_field_rejected() {
        let field = PrimeField::new(97).unwrap();
        let _ = interpolate_consecutive(&field, &[1; 98]);
    }

    #[test]
    fn lagrange_basis_matches_definition() {
        let field = f();
        let r_count = 9;
        // Reference: build each Λ_r explicitly by interpolation of the
        // indicator values.
        let mut rng = SplitMix64::new(13);
        for _ in 0..5 {
            let x0 = field.sample(&mut rng);
            let fast = lagrange_basis_at(&field, r_count, x0);
            for r in 1..=r_count {
                let pts: Vec<(u64, u64)> =
                    (1..=r_count as u64).map(|j| (j, u64::from(j == r as u64))).collect();
                let basis = interpolate(&field, &pts);
                assert_eq!(fast[r - 1], basis.eval(&field, x0), "r = {r}");
            }
        }
    }

    #[test]
    fn prepared_basis_matches_the_product_definition_at_edge_points() {
        // Λ_r(x) = Π_{j≠r} (x − j)/(r − j), term by term, under a prime
        // just above the largest R and under a large one; the prepared
        // basis is reused across points, as the evaluators use it.
        for q in [347u64, 1_000_000_007] {
            let field = PrimeField::new(q).unwrap();
            let mut rng = SplitMix64::new(q);
            for r_count in [1usize, 2, 7, 49, 343] {
                let r64 = r_count as u64;
                let basis = ConsecutiveBasis::new(&field, r_count);
                let mut points = vec![0, 1, r64 / 2 + 1, r64, r64 + 1, q - 1, q, q + 2, u64::MAX];
                points.extend((0..32).map(|_| rng.next_u64()));
                let mut got = vec![u64::MAX; r_count];
                for x in points {
                    basis.basis_at(x, &mut got);
                    let x = field.reduce(x);
                    for r in 1..=r64 {
                        let (mut num, mut den) = (1u64, 1u64);
                        for j in (1..=r64).filter(|&j| j != r) {
                            num = field.mul(num, field.sub(x, j));
                            den = field.mul(den, field.sub(r, j));
                        }
                        let expect = field.mul(num, field.inv(den));
                        assert_eq!(got[(r - 1) as usize], expect, "q {q} R {r_count} x {x} r {r}");
                    }
                    assert_eq!(got, lagrange_basis_at(&field, r_count, x), "one-shot wrapper");
                }
            }
        }
    }

    #[test]
    fn lagrange_basis_partition_of_unity() {
        let field = f();
        let mut rng = SplitMix64::new(14);
        for r_count in [1usize, 2, 8, 100] {
            let x0 = field.sample(&mut rng);
            let basis = lagrange_basis_at(&field, r_count, x0);
            let sum = basis.iter().fold(0u64, |a, &b| field.add(a, b));
            assert_eq!(sum, 1, "Σ_r Λ_r(x) = 1 for R = {r_count}");
        }
    }

    #[test]
    fn lagrange_basis_indicator_inside_range() {
        let field = f();
        let basis = lagrange_basis_at(&field, 6, 4);
        assert_eq!(basis, vec![0, 0, 0, 1, 0, 0]);
        let basis0 = lagrange_basis_at(&field, 6, 0);
        // x0 = 0 is outside 1..=6; check against the definition instead.
        let sum = basis0.iter().fold(0u64, |a, &b| field.add(a, b));
        assert_eq!(sum, 1);
    }

    #[test]
    fn consecutive_interpolation_matches_general() {
        let field = f();
        let values = [3u64, 1, 4, 1, 5, 9, 2, 6];
        let a = interpolate_consecutive(&field, &values);
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(a.eval(&field, i as u64), v);
        }
        assert!(a.degree().unwrap() < values.len());
    }
}
