//! Parallel sparse triangle counting (Theorem 4, §6.1–6.2).
//!
//! Itai–Rodeh: the triangle count is `trace(A³)/6` for the adjacency
//! matrix `A`. Via the trilinear decomposition (19),
//! `trace(ABC) = Σ_{r=1}^R A_r B_r C_r` with
//! `A_r = Σ_{ij} α_{ij}(r) a_ij` — and because the coefficient matrices
//! are Kronecker powers, the `R` values `A_r` can be produced from the
//! `O(m)` nonzero entries by the split/sparse Yates algorithm (§3.2) in
//! `O(R/m)` independent parts of `~m` values each: per-node time and
//! space `Õ(m)` on `O(n^ω/m)` nodes.

use camelot_ff::PrimeField;
use camelot_graph::Graph;
use camelot_linalg::{MatMulTensor, SparseVec, SplitSparseYates, SplitSupport};
use camelot_poly::ConsecutiveBasis;

/// Geometry of a split/sparse triangle-count run: the three family
/// splitters (one per coefficient matrix of the trilinear decomposition,
/// same `k` and `ℓ`) and the adjacency input, all independent of the
/// modulus and built once.
#[derive(Clone, Debug)]
pub struct TriangleSplit {
    rank: usize,
    t_pow: usize,
    /// Indexed by [`Family`] in declaration order.
    splitters: [SplitSparseYates; 3],
    sparse: SparseVec,
    /// `sparse` split at the splitters' common `ℓ`-digit boundary.
    support: SplitSupport,
    n_padded: usize,
}

impl TriangleSplit {
    /// Prepares the split for a graph: pads `n` to a power of `n0`,
    /// interleaves the adjacency support, and picks `ℓ = ⌈log_t 2m⌉` so
    /// each part holds at least the input size.
    ///
    /// # Panics
    ///
    /// Panics if the graph has no edges (nothing to split).
    #[must_use]
    pub fn new(g: &Graph, tensor: &MatMulTensor) -> Self {
        assert!(g.edge_count() > 0, "triangle split needs at least one edge");
        let n0 = tensor.n0();
        let mut n_padded = 1usize;
        let mut t_pow = 0usize;
        while n_padded < g.vertex_count() {
            n_padded *= n0;
            t_pow += 1;
        }
        let sparse = adjacency_sparse(g, n0, t_pow);
        // One Yates factor per Kronecker level, transposed: rows = R0,
        // cols = n0² (input is indexed by interleaved (i,j) digits).
        let alpha =
            SplitSparseYates::with_support_size(tensor.alpha0().transpose(), t_pow, sparse.len());
        let ell = alpha.ell();
        let beta = SplitSparseYates::new(tensor.beta0().transpose(), t_pow, ell);
        let gamma = SplitSparseYates::new(tensor.gamma0().transpose(), t_pow, ell);
        let support = alpha.split_support(&sparse);
        TriangleSplit {
            rank: tensor.r0().pow(t_pow as u32),
            t_pow,
            splitters: [alpha, beta, gamma],
            sparse,
            support,
            n_padded,
        }
    }

    /// Number of independent parts (`= number of parallel nodes`).
    #[must_use]
    pub fn part_count(&self) -> usize {
        self.splitters[0].part_count()
    }

    /// Values per part (`Θ(m)` by the choice of `ℓ`).
    #[must_use]
    pub fn part_len(&self) -> usize {
        self.splitters[0].part_len()
    }

    /// Total rank `R = R0^t`.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Padded matrix dimension.
    #[must_use]
    pub fn padded_size(&self) -> usize {
        self.n_padded
    }

    /// Support size of the sparse adjacency vector (`2m`).
    #[must_use]
    pub fn support(&self) -> usize {
        self.sparse.len()
    }

    /// The Kronecker power `t`.
    #[must_use]
    pub fn t_pow(&self) -> usize {
        self.t_pow
    }

    /// Computes one part of the `A_r` (resp. `B_r`, `C_r`) family; parts
    /// are what individual nodes produce in parallel. For the symmetric
    /// adjacency input all three families share the sparse vector, so
    /// `family` selects only the coefficient matrix.
    ///
    /// # Panics
    ///
    /// Panics if `outer` is out of range.
    #[must_use]
    pub fn family_part(&self, field: &PrimeField, family: Family, outer: usize) -> Vec<u64> {
        self.splitters[family as usize].part(field, &self.sparse, outer)
    }

    /// Polynomial-extension evaluation of a family's part polynomials at
    /// `z0` (§3.3), one-shot: the building block of the Theorem 3 proof
    /// polynomial, which shares the per-point work between the families
    /// ([`TriangleSplit::part_product_at`]).
    #[must_use]
    pub fn family_part_poly(&self, field: &PrimeField, family: Family, z0: u64) -> Vec<u64> {
        let splitter = &self.splitters[family as usize];
        let mut phi = vec![0u64; self.part_count()];
        self.part_basis(field).basis_at(z0, &mut phi);
        let mut scratch = vec![0u64; splitter.poly_scratch_len()];
        splitter.part_poly_eval(field, &self.support, &phi, &mut scratch).to_vec()
    }

    /// The Lagrange basis over the part nodes `1..=part_count()` for one
    /// field: what [`TriangleSplit::part_product_at`] needs prepared.
    ///
    /// # Panics
    ///
    /// Panics if `part_count() >= q`.
    #[must_use]
    pub fn part_basis(&self, field: &PrimeField) -> ConsecutiveBasis {
        ConsecutiveBasis::new(field, self.part_count())
    }

    /// `Σ_{r'} A_{r'}(z0) B_{r'}(z0) C_{r'}(z0)` — the Theorem 3 proof
    /// polynomial at `z0`. The part-node basis is evaluated once and
    /// shared by the three families, which also share one scratch buffer
    /// (the call's only allocation).
    #[must_use]
    pub fn part_product_at(&self, field: &PrimeField, basis: &ConsecutiveBasis, z0: u64) -> u64 {
        // The three splitters share one geometry, hence one scratch size.
        let poly_len = self.splitters[0].poly_scratch_len();
        let mut scratch = vec![0u64; self.part_count() + self.part_len() + poly_len];
        let (phi, rest) = scratch.split_at_mut(self.part_count());
        let (product, poly_scratch) = rest.split_at_mut(self.part_len());
        basis.basis_at(z0, phi);
        let [alpha, beta, gamma] = &self.splitters;
        product.copy_from_slice(alpha.part_poly_eval(field, &self.support, phi, poly_scratch));
        field.mul_slice(product, beta.part_poly_eval(field, &self.support, phi, poly_scratch));
        field.dot(product, gamma.part_poly_eval(field, &self.support, phi, poly_scratch))
    }

    /// `trace(A³) mod q` assembled from all parts (what the community
    /// jointly computes; sequential reference for the parallel layout).
    #[must_use]
    pub fn trace_mod(&self, field: &PrimeField) -> u64 {
        let mut acc = 0u64;
        for outer in 0..self.part_count() {
            let a = self.family_part(field, Family::Alpha, outer);
            let b = self.family_part(field, Family::Beta, outer);
            let c = self.family_part(field, Family::Gamma, outer);
            for i in 0..a.len() {
                acc = field.add(acc, field.mul(field.mul(a[i], b[i]), c[i]));
            }
        }
        acc
    }

    /// Triangle count via the split (exact, single modulus `q > n³`).
    #[must_use]
    pub fn count_triangles(&self, field: &PrimeField) -> u64 {
        let trace = self.trace_mod(field);
        debug_assert!(field.modulus() > (self.n_padded as u64).pow(3));
        debug_assert_eq!(trace % 6, 0, "trace(A^3) is always divisible by 6");
        trace / 6
    }
}

/// Which coefficient family of the trilinear decomposition to apply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// `α` (the `u`/first operand).
    Alpha,
    /// `β` (the `v`/second operand).
    Beta,
    /// `γ` (the `w`/third operand) — receives the *transposed* third
    /// matrix; for symmetric adjacency this is the same sparse input.
    Gamma,
}

/// The adjacency support of `g` in the interleaved Kronecker index space
/// (both orientations of every edge; value 1).
#[must_use]
pub fn adjacency_sparse(g: &Graph, n0: usize, t_pow: usize) -> SparseVec {
    let mut out = Vec::with_capacity(2 * g.edge_count());
    for &(u, v) in g.edges() {
        out.push((camelot_cliques::interleave(u, v, n0, t_pow), 1u64));
        out.push((camelot_cliques::interleave(v, u, n0, t_pow), 1u64));
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use camelot_graph::{count_triangles, gen};

    fn field_for(n: usize) -> PrimeField {
        let q = camelot_ff::next_prime(((n as u64).pow(3) + 10).max(1 << 20));
        PrimeField::new(q).unwrap()
    }

    #[test]
    fn split_counts_triangles_on_known_graphs() {
        let tensor = MatMulTensor::strassen();
        for g in [gen::complete(4), gen::complete(7), gen::cycle(5), gen::petersen()] {
            let split = TriangleSplit::new(&g, &tensor);
            let f = field_for(split.padded_size());
            assert_eq!(split.count_triangles(&f), count_triangles(&g), "graph {g}");
        }
    }

    #[test]
    fn split_counts_triangles_on_random_graphs() {
        let tensor = MatMulTensor::strassen();
        for seed in 0..4 {
            let g = gen::gnm(12, 30, seed);
            let split = TriangleSplit::new(&g, &tensor);
            let f = field_for(split.padded_size());
            assert_eq!(split.count_triangles(&f), count_triangles(&g), "seed {seed}");
        }
    }

    #[test]
    fn part_geometry_scales_with_support() {
        let tensor = MatMulTensor::strassen();
        // Sparse graph: few edges -> small parts, many of them.
        let sparse = TriangleSplit::new(&gen::cycle(16), &tensor);
        // Dense graph: many edges -> bigger parts, fewer of them.
        let dense = TriangleSplit::new(&gen::complete(16), &tensor);
        assert_eq!(sparse.rank(), dense.rank());
        assert!(sparse.part_len() <= dense.part_len());
        assert!(sparse.part_count() >= dense.part_count());
        // Each part holds at least the support (ℓ chosen per §3.2) unless
        // capped by k.
        assert!(dense.part_len() >= dense.support() || dense.part_count() == 1);
    }

    #[test]
    fn parts_are_consistent_with_poly_extension() {
        let tensor = MatMulTensor::strassen();
        let g = gen::gnm(8, 14, 3);
        let split = TriangleSplit::new(&g, &tensor);
        let f = field_for(split.padded_size());
        for family in [Family::Alpha, Family::Beta, Family::Gamma] {
            for outer in [0usize, 1, split.part_count() - 1] {
                assert_eq!(
                    split.family_part_poly(&f, family, outer as u64 + 1),
                    split.family_part(&f, family, outer),
                    "family {family:?} outer {outer}"
                );
            }
        }
    }

    #[test]
    fn trace_is_six_times_triangles() {
        let tensor = MatMulTensor::strassen();
        let g = gen::complete(5);
        let split = TriangleSplit::new(&g, &tensor);
        let f = field_for(split.padded_size());
        assert_eq!(split.trace_mod(&f), 6 * 10);
    }
}
