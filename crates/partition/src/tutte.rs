//! The Tutte polynomial (Theorem 7, §10).
//!
//! Fortuin–Kasteleyn: `Z_G(t, r) = Σ_{σ: V→[t]} Π_{e} (1 + r [σ(e₁)=σ(e₂)])`
//! is the partitioning sum-product with `f(X) = (1+r)^{|E(G[X])|}`. Unlike
//! the chromatic case, `f` couples the `E`- and `B`-sides of the split, so
//! the node function is computed with the **tripartite decomposition**
//! (Williams): split `E = E₁ ∪ E₂` with `|E₁| = |E₂| ≈ |B|`, factor
//!
//! ```text
//! f(X ∪ Y₁ ∪ Y₂) = f̂_{B,E₁}(X∪Y₁) · f̂_{B,E₂}(X∪Y₂) · f_{E₁,E₂}(Y₁∪Y₂),
//! ```
//!
//! and absorb the sum over `X ⊆ B` into `|B|+1` matrix products (one per
//! `|X|`), which is where fast matrix multiplication enters the per-node
//! time `O*(2^{(ω+ε)n/3})`. Proof size is `O*(2^{n/3})`, per-node space
//! `O*(2^{2n/3})`.

use crate::ipoly::{eval_integer_2d, interpolate_integer_2d};
use crate::template::{
    alternating_power_coefficient, subset_powers, zeta_in_place, Split, POWER_SCRATCH,
};
use camelot_core::{CamelotError, CamelotProblem, Engine, Evaluate, PrimeProof, ProofSpec};
use camelot_ff::{crt_u, IBig, PrimeField, Residue, UBig};
use camelot_graph::MultiGraph;
use camelot_linalg::Matrix;

/// The Camelot problem computing the single Potts value `Z_G(t, r)`.
#[derive(Clone, Debug)]
pub struct PottsValue {
    graph: MultiGraph,
    split: Split,
    e1_size: usize,
    states: u64,
    weight: u64,
}

impl PottsValue {
    /// Creates the problem for integer `t = states >= 1` and
    /// `r = weight >= 1`.
    ///
    /// # Panics
    ///
    /// Panics for an empty vertex set or zero parameters.
    #[must_use]
    pub fn new(graph: MultiGraph, states: u64, weight: u64) -> Self {
        assert!(graph.vertex_count() > 0, "empty graph");
        assert!(states > 0 && weight > 0, "need t, r >= 1");
        let n = graph.vertex_count();
        // |B| = ⌊n/3⌋ (capped at 1 minimum when possible), |E| = n - |B|.
        let b_size = (n / 3).max(usize::from(n >= 2));
        let split = Split::with_explicit(n, n - b_size);
        let e1_size = split.e_size.div_ceil(2);
        PottsValue { graph, split, e1_size, states, weight }
    }

    /// The universe split in use (`|E| ≈ 2|B|`).
    #[must_use]
    pub fn split(&self) -> &Split {
        &self.split
    }

    /// Edges with both endpoints inside `mask` (loops at members count).
    fn edges_within(&self, mask: u64) -> u64 {
        self.graph
            .edges()
            .iter()
            .filter(|&&(u, v)| mask >> u & 1 == 1 && mask >> v & 1 == 1)
            .count() as u64
    }

    /// Edges with one endpoint in `a` and the other in `b` (disjoint).
    fn edges_between(&self, a: u64, b: u64) -> u64 {
        self.graph
            .edges()
            .iter()
            .filter(|&&(u, v)| {
                (a >> u & 1 == 1 && b >> v & 1 == 1) || (b >> u & 1 == 1 && a >> v & 1 == 1)
            })
            .count() as u64
    }
}

impl CamelotProblem for PottsValue {
    type Output = UBig;

    fn spec(&self) -> ProofSpec {
        let n = self.graph.vertex_count() as f64;
        let m = self.graph.edge_count() as f64;
        let bits =
            m + n * ((self.states + 1) as f64).log2() + m * ((self.weight + 1) as f64).log2() + 2.0;
        ProofSpec {
            degree_bound: self.split.degree_bound(),
            min_modulus: self.split.degree_bound() as u64 + 2,
            value_bits: bits.ceil() as u64,
        }
    }

    fn evaluator<'a>(&'a self, field: &PrimeField) -> Box<dyn Evaluate + 'a> {
        let f = *field;
        let split = self.split;
        let (e1, e2, b) = (self.e1_size, split.e_size - self.e1_size, split.b_size);
        let e_size = split.e_size;
        // Vertex masks: E1 = bits 0..e1, E2 = bits e1..e1+e2, B = rest.
        let y1_of = |y1: u64| y1;
        let y2_of = |y2: u64| y2 << e1;
        let x_of = |x: u64| x << e_size;
        let one_plus_r = f.reduce(1 + self.weight);
        // x0-independent tables. The κ-th product's right factor V_κ
        // keeps the rows X with |X| = κ.
        let v_kappa: Vec<Matrix> = (0..=b)
            .map(|kappa| {
                Matrix::from_fn(1 << b, 1 << e2, |x, y2| {
                    if x.count_ones() as usize != kappa {
                        return 0;
                    }
                    let (x, y2) = (x_of(x as u64), y2_of(y2 as u64));
                    f.pow(one_plus_r, self.edges_between(x, y2) + self.edges_within(y2))
                })
            })
            .collect();
        let u_base: Vec<Vec<u64>> = (0..1u64 << e1)
            .map(|y1| {
                (0..1u64 << b)
                    .map(|x| {
                        let exp =
                            self.edges_between(x_of(x), y1_of(y1)) + self.edges_within(x_of(x));
                        f.pow(one_plus_r, exp)
                    })
                    .collect()
            })
            .collect();
        let pair_factor: Vec<Vec<u64>> = (0..1u64 << e1)
            .map(|y1| {
                (0..1u64 << e2)
                    .map(|y2| {
                        let exp =
                            self.edges_between(y1_of(y1), y2_of(y2)) + self.edges_within(y1_of(y1));
                        f.pow(one_plus_r, exp)
                    })
                    .collect()
            })
            .collect();
        let states = self.states;
        let shape = split.shape();
        let stride = shape.stride();
        Box::new(move |x0: u64| {
            let mut scratch = vec![0u64; (1 << b) + ((1 << e_size) + POWER_SCRATCH) * stride];
            let (weights, rest) = scratch.split_at_mut(1 << b);
            let (g, power_scratch) = rest.split_at_mut(stride << e_size);
            subset_powers(&f, f.reduce(x0), weights);
            // |B|+1 matrix products, one per κ = |X| (the w_B-degree),
            // assembled into g0 over E = E1 × E2.
            for (kappa, v) in v_kappa.iter().enumerate() {
                let u = Matrix::from_fn(1 << e1, 1 << b, |y1, x| {
                    if x.count_ones() as usize == kappa {
                        f.mul(u_base[y1][x], weights[x])
                    } else {
                        0
                    }
                });
                let m = u.mul(&f, v);
                for y in 0..1usize << e_size {
                    let (y1, y2) = (y & ((1 << e1) - 1), y >> e1);
                    g[y * stride + shape.index(y.count_ones() as usize, kappa)] =
                        f.mul(pair_factor[y1][y2], m.get(y1, y2));
                }
            }
            zeta_in_place(&f, g, stride);
            alternating_power_coefficient(&f, g, &split, states, power_scratch)
        })
    }

    fn recover(&self, proofs: &[PrimeProof]) -> Result<UBig, CamelotError> {
        let target = self.split.target_coefficient();
        let residues: Vec<Residue> = proofs.iter().map(|p| p.coefficient_residue(target)).collect();
        Ok(crt_u(&residues))
    }
}

/// Result of the full Tutte pipeline.
#[derive(Clone, Debug)]
pub struct TutteOutcome {
    /// `coefficients[i][j]` is the coefficient of `x^i y^j` in `T_G`.
    pub coefficients: Vec<Vec<IBig>>,
    /// The interpolated Potts coefficients `z_ij` of `t^i r^j` (kept for
    /// inspection).
    pub potts_coefficients: Vec<Vec<IBig>>,
}

/// Computes the full Tutte polynomial: one Camelot run per grid point
/// `(t, r) ∈ [1, n+1] × [1, m+1]`, exact bivariate interpolation of
/// `Z_G`, then the change of variables (34).
///
/// # Errors
///
/// Propagates engine failures; fails recovery if the change of variables
/// does not divide exactly (impossible for faithful values).
pub fn tutte_polynomial(graph: &MultiGraph, engine: &Engine) -> Result<TutteOutcome, CamelotError> {
    let n = graph.vertex_count();
    let m = graph.edge_count();
    let mut grid: Vec<Vec<IBig>> = Vec::with_capacity(n + 1);
    for t in 1..=n as u64 + 1 {
        let mut row = Vec::with_capacity(m + 1);
        for r in 1..=m as u64 + 1 {
            let problem = PottsValue::new(graph.clone(), t, r);
            let outcome = engine.run(&problem)?;
            row.push(IBig::from_parts(false, outcome.output));
        }
        grid.push(row);
    }
    let z = interpolate_integer_2d(&grid, 1, 1);
    // T(x, y) = (x-1)^{-c(E)} (y-1)^{-|V|} Z((x-1)(y-1), y-1):
    // in u = x-1, v = y-1:  N(u, v) = Σ z_ij u^i v^{i+j}, then divide by
    // u^{c} v^{n} and expand the binomials back to x, y.
    let c_e = graph.component_count();
    let mut nuv: Vec<Vec<IBig>> = Vec::new();
    for (i, row) in z.iter().enumerate() {
        for (j, coeff) in row.iter().enumerate() {
            if coeff.is_zero() {
                continue;
            }
            let (a, b) = (i, i + j);
            while nuv.len() <= a {
                nuv.push(Vec::new());
            }
            while nuv[a].len() <= b {
                nuv[a].push(IBig::zero());
            }
            nuv[a][b] = nuv[a][b].add(coeff);
        }
    }
    // Divide by u^{c_e} v^{n}: all lower-order coefficients must vanish.
    let mut shifted: Vec<Vec<IBig>> = Vec::new();
    for (a, row) in nuv.iter().enumerate() {
        for (b, coeff) in row.iter().enumerate() {
            if coeff.is_zero() {
                continue;
            }
            if a < c_e || b < n {
                return Err(CamelotError::RecoveryFailed {
                    reason: format!("nonzero coefficient u^{a} v^{b} below (x-1)^{c_e}(y-1)^{n}"),
                });
            }
            let (a2, b2) = (a - c_e, b - n);
            while shifted.len() <= a2 {
                shifted.push(Vec::new());
            }
            while shifted[a2].len() <= b2 {
                shifted[a2].push(IBig::zero());
            }
            shifted[a2][b2] = coeff.clone();
        }
    }
    // Substitute u = x - 1, v = y - 1 by binomial expansion.
    let x_deg = shifted.len();
    let y_deg = shifted.iter().map(Vec::len).max().unwrap_or(0);
    let mut coefficients: Vec<Vec<IBig>> = vec![vec![IBig::zero(); y_deg.max(1)]; x_deg.max(1)];
    for (a, row) in shifted.iter().enumerate() {
        for (b, coeff) in row.iter().enumerate() {
            if coeff.is_zero() {
                continue;
            }
            for (p, ca) in binomial_signed(a).into_iter().enumerate() {
                for (q, cb) in binomial_signed(b).iter().enumerate() {
                    let term = coeff.mul_i64(ca).mul_i64(*cb);
                    coefficients[p][q] = coefficients[p][q].add(&term);
                }
            }
        }
    }
    // Trim empty high rows/cols.
    while coefficients.len() > 1 && coefficients.last().is_some_and(|r| r.iter().all(IBig::is_zero))
    {
        coefficients.pop();
    }
    Ok(TutteOutcome { coefficients, potts_coefficients: z })
}

/// Coefficients of `(x - 1)^a` (little-endian in `x`).
fn binomial_signed(a: usize) -> Vec<i64> {
    let mut row = vec![0i64; a + 1];
    row[0] = 1;
    for _ in 0..a {
        for i in (0..row.len()).rev() {
            let below = if i > 0 { row[i - 1] } else { 0 };
            row[i] = below - row[i];
        }
    }
    row
}

/// Evaluates a Tutte coefficient table at integer `(x, y)`.
#[must_use]
pub fn eval_tutte(coeffs: &[Vec<IBig>], x: i64, y: i64) -> IBig {
    eval_integer_2d(coeffs, x, y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use camelot_graph::gen;
    use camelot_graph::tutte::{potts_value_mod, tutte_coefficients};

    fn engine() -> Engine {
        Engine::sequential(3, 2)
    }

    #[test]
    fn binomial_signed_rows() {
        assert_eq!(binomial_signed(0), vec![1]);
        assert_eq!(binomial_signed(1), vec![-1, 1]);
        assert_eq!(binomial_signed(2), vec![1, -2, 1]);
        assert_eq!(binomial_signed(3), vec![-1, 3, -3, 1]);
    }

    #[test]
    fn potts_values_match_brute_force() {
        let field = PrimeField::new(1_000_000_007).unwrap();
        for g in [
            MultiGraph::from_graph(&gen::cycle(4)),
            MultiGraph::from_graph(&gen::complete(4)),
            MultiGraph::from_edges(3, [(0, 1), (0, 1), (1, 1), (1, 2)]),
        ] {
            for (t, r) in [(1u64, 1u64), (2, 1), (2, 2), (3, 2), (4, 3)] {
                let problem = PottsValue::new(g.clone(), t, r);
                let outcome = engine().run(&problem).unwrap();
                assert_eq!(
                    outcome.output.rem_u64(field.modulus()),
                    potts_value_mod(&g, t, r, &field),
                    "graph m={} t={t} r={r}",
                    g.edge_count()
                );
            }
        }
    }

    #[test]
    fn tutte_triangle() {
        let mg = MultiGraph::from_graph(&gen::complete(3));
        let outcome = tutte_polynomial(&mg, &engine()).unwrap();
        // T = x² + x + y.
        let reference = tutte_coefficients(&mg);
        compare(&outcome.coefficients, &reference);
    }

    #[test]
    fn tutte_k4_and_cycle() {
        for g in [gen::complete(4), gen::cycle(5)] {
            let mg = MultiGraph::from_graph(&g);
            let outcome = tutte_polynomial(&mg, &engine()).unwrap();
            compare(&outcome.coefficients, &tutte_coefficients(&mg));
        }
    }

    #[test]
    fn tutte_multigraph_with_loop_and_parallel() {
        let mg = MultiGraph::from_edges(4, [(0, 1), (0, 1), (1, 2), (2, 2), (2, 3), (3, 0)]);
        let outcome = tutte_polynomial(&mg, &engine()).unwrap();
        compare(&outcome.coefficients, &tutte_coefficients(&mg));
    }

    #[test]
    fn tutte_disconnected() {
        let mg = MultiGraph::from_edges(5, [(0, 1), (1, 2), (3, 4)]);
        let outcome = tutte_polynomial(&mg, &engine()).unwrap();
        compare(&outcome.coefficients, &tutte_coefficients(&mg));
    }

    fn compare(got: &[Vec<IBig>], reference: &[Vec<u128>]) {
        for i in 0..got.len().max(reference.len()) {
            for j in 0..8 {
                let g = got.get(i).and_then(|r| r.get(j)).cloned().unwrap_or_else(IBig::zero);
                let r = reference.get(i).and_then(|r| r.get(j)).copied().unwrap_or(0);
                assert_eq!(
                    g.to_i128(),
                    Some(i128::try_from(r).unwrap()),
                    "coefficient x^{i} y^{j}"
                );
            }
        }
    }
}
