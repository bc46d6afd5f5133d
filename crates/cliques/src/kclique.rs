//! Camelot k-clique counting (Theorems 1 and 2, §5).
//!
//! For `k` divisible by 6, index the `(6 2)`-linear form by the
//! `k/6`-subsets of `V(G)`: `χ_{AB} = [A ∪ B is a clique and A ∩ B = ∅]`.
//! The form then counts each `k`-clique exactly
//! `k! / ((k/6)!)^6` times (ordered partitions into six parts), so
//!
//! * Theorem 2: the new circuit evaluates the count in `O(N^{2ω+ε})`
//!   time and `O(N²)` space for `N = C(n, k/6)`;
//! * Theorem 1: the proof polynomial of §5.2 has degree `≤ 3R` and each
//!   node evaluates it in `O(N^{ω+ε})` time — proof size and per-node
//!   time `O(n^{(ω+ε)k/6})`, matching the Nešetřil–Poljak total.

use crate::form62::{Form62, ProofPlan};
use camelot_core::{CamelotError, CamelotProblem, Evaluate, PrimeProof, ProofSpec};
use camelot_ff::{crt_u, PrimeField, Residue, UBig};
use camelot_graph::Graph;
use camelot_linalg::{MatMulTensor, Matrix};

/// Enumerates all `size`-subsets of `[n]` as bitmasks, in lexicographic
/// order of their sorted element lists.
#[must_use]
pub fn subsets_of_size(n: usize, size: usize) -> Vec<u64> {
    let mut out = Vec::new();
    if size > n {
        return out;
    }
    if size == 0 {
        return vec![0];
    }
    let mut stack: Vec<(u64, usize, usize)> = vec![(0, 0, size)];
    while let Some((mask, next, left)) = stack.pop() {
        if left == 0 {
            out.push(mask);
            continue;
        }
        // Push in reverse so lexicographically smaller choices pop first.
        for v in (next..=n - left).rev() {
            stack.push((mask | 1 << v, v + 1, left - 1));
        }
    }
    out
}

/// Builds the clique indicator matrix `χ` over the `k/6`-subsets,
/// zero-padded to `padded` rows/columns (padding cannot create spurious
/// form contributions because every index occurs in some factor).
#[must_use]
pub fn clique_chi(g: &Graph, part_size: usize, padded: usize) -> Matrix {
    let subsets = subsets_of_size(g.vertex_count(), part_size);
    let real = subsets.len();
    assert!(padded >= real, "padding must not truncate");
    Matrix::from_fn(padded, padded, |i, j| {
        if i >= real || j >= real {
            return 0;
        }
        let (a, b) = (subsets[i], subsets[j]);
        u64::from(a & b == 0 && g.is_clique(a | b))
    })
}

/// Number of times the `(6 2)` form counts each `k`-clique:
/// `k! / ((k/6)!)^6`.
#[must_use]
pub fn clique_multiplicity(k: usize) -> UBig {
    let part = k / 6;
    let mut numer = UBig::one();
    for i in 1..=k as u64 {
        numer = numer.mul_u64(i);
    }
    let mut part_fact = 1u64;
    for i in 1..=part as u64 {
        part_fact *= i;
    }
    let mut value = numer;
    for _ in 0..6 {
        let (q, r) = value.div_rem_u64(part_fact);
        assert_eq!(r, 0, "multinomial must divide exactly");
        value = q;
    }
    value
}

/// The k-clique-counting Camelot problem (Theorem 1).
#[derive(Clone, Debug)]
pub struct KCliqueCount {
    graph: Graph,
    k: usize,
    tensor: MatMulTensor,
    t_pow: usize,
    padded: usize,
    /// The uniform form over `χ` — 0/1 entries, so one copy serves every
    /// modulus.
    form: Form62,
    plan: ProofPlan,
}

impl KCliqueCount {
    /// Creates the problem with the Strassen tensor.
    ///
    /// # Panics
    ///
    /// Panics unless `k` is a positive multiple of 6 with `k <= n`.
    #[must_use]
    pub fn new(graph: Graph, k: usize) -> Self {
        Self::with_tensor(graph, k, MatMulTensor::strassen())
    }

    /// Creates the problem with a caller-chosen tensor decomposition.
    ///
    /// # Panics
    ///
    /// Panics unless `k` is a positive multiple of 6 with `k <= n`.
    #[must_use]
    pub fn with_tensor(graph: Graph, k: usize, tensor: MatMulTensor) -> Self {
        assert!(k > 0 && k.is_multiple_of(6), "k must be a positive multiple of 6");
        assert!(k <= graph.vertex_count(), "k exceeds the vertex count");
        let real = binomial(graph.vertex_count(), k / 6);
        let n0 = tensor.n0();
        let mut padded = 1usize;
        let mut t_pow = 0usize;
        while padded < real {
            padded *= n0;
            t_pow += 1;
        }
        let form = Form62::uniform(clique_chi(&graph, k / 6, padded));
        let plan = ProofPlan::new(&tensor, t_pow);
        KCliqueCount { graph, k, tensor, t_pow, padded, form, plan }
    }

    /// The matrix size `N` after padding.
    #[must_use]
    pub fn padded_size(&self) -> usize {
        self.padded
    }

    /// The rank `R = R0^t` driving proof size.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.tensor.r0().pow(self.t_pow as u32)
    }
}

fn binomial(n: usize, k: usize) -> usize {
    if k > n {
        return 0;
    }
    let mut acc = 1u128;
    for i in 0..k {
        acc = acc * (n - i) as u128 / (i + 1) as u128;
    }
    usize::try_from(acc).expect("binomial fits usize")
}

impl CamelotProblem for KCliqueCount {
    type Output = UBig;

    fn spec(&self) -> ProofSpec {
        let degree = Form62::proof_degree_bound(&self.tensor, self.t_pow);
        // X <= multiplicity * C(n, k) <= n^k.
        let bits = (self.k as f64) * (self.graph.vertex_count().max(2) as f64).log2() + 2.0;
        ProofSpec {
            degree_bound: degree,
            min_modulus: (degree as u64 + 2).max(self.rank() as u64 + 1),
            value_bits: bits.ceil() as u64,
        }
    }

    fn evaluator<'a>(&'a self, field: &PrimeField) -> Box<dyn Evaluate + 'a> {
        let f = *field;
        let basis = self.plan.basis(field);
        Box::new(move |x0: u64| self.form.proof_at(&f, &self.plan, &basis, x0))
    }

    fn recover(&self, proofs: &[PrimeProof]) -> Result<UBig, CamelotError> {
        let r_total = self.rank() as u64;
        let residues: Vec<Residue> = proofs.iter().map(|p| p.sum_residue(1, r_total)).collect();
        let form_value = crt_u(&residues);
        let multiplicity = clique_multiplicity(self.k);
        let d = multiplicity.to_u64().ok_or_else(|| CamelotError::RecoveryFailed {
            reason: "clique multiplicity exceeds u64 (k too large)".into(),
        })?;
        let (value, rem) = form_value.div_rem_u64(d);
        if rem != 0 {
            return Err(CamelotError::RecoveryFailed {
                reason: "form value not divisible by the clique multiplicity".into(),
            });
        }
        Ok(value)
    }
}

/// Theorem 2 as a standalone sequential algorithm: counts `k`-cliques
/// with the new `O(N²)`-space circuit, reconstructing the count over the
/// integers from enough primes.
///
/// # Panics
///
/// Panics unless `k` is a positive multiple of 6 with `k <= n`.
#[must_use]
pub fn count_cliques_circuit(g: &Graph, k: usize, tensor: &MatMulTensor) -> UBig {
    let problem = KCliqueCount::with_tensor(g.clone(), k, tensor.clone());
    let spec = problem.spec();
    let primes = camelot_core::choose_primes(&spec, 0);
    let residues: Vec<Residue> = primes
        .iter()
        .map(|&q| {
            let field = PrimeField::new_unchecked(q);
            let (value, _) = problem.form.eval_circuit(&field, tensor, problem.t_pow);
            Residue { modulus: q, value }
        })
        .collect();
    let form_value = crt_u(&residues);
    exact_div(form_value, &clique_multiplicity(k))
}

/// The Nešetřil–Poljak sequential baseline: counts `k`-cliques (for `k`
/// divisible by 3) as triangles of the auxiliary graph on `k/3`-subsets,
/// via one fast `N × N` matrix product chain — `O(N^ω)` time, `O(N²)`
/// space for `N = C(n, k/3)` (total time `O(n^{(ω+ε)k/3})`).
///
/// # Panics
///
/// Panics unless `k` is a positive multiple of 3 with `k <= n`.
#[must_use]
pub fn count_cliques_nesetril_poljak(g: &Graph, k: usize) -> UBig {
    assert!(k > 0 && k.is_multiple_of(3), "k must be a positive multiple of 3");
    assert!(k <= g.vertex_count(), "k exceeds the vertex count");
    let part = k / 3;
    let subsets = subsets_of_size(g.vertex_count(), part);
    let real = subsets.len();
    let mut padded = 1usize;
    while padded < real {
        padded *= 2;
    }
    // Aux adjacency: disjoint subsets whose union is a clique.
    let adj = Matrix::from_fn(padded, padded, |i, j| {
        if i >= real || j >= real || i == j {
            return 0;
        }
        let (a, b) = (subsets[i], subsets[j]);
        u64::from(a & b == 0 && g.is_clique(a | b))
    });
    // trace(M³) = 6 * (ordered triangles / ... ) — counts each k-clique
    // k!/((k/3)!)³ times as an ordered triple.
    let mut bits = (k as f64) * (g.vertex_count().max(2) as f64).log2() + 3.0;
    bits = bits.ceil();
    let spec_primes = {
        let mut primes = Vec::new();
        let mut covered = 0f64;
        let mut cursor = 1u64 << 40;
        while covered <= bits {
            let p = camelot_ff::primes_above(cursor, 1)[0];
            covered += 40.0;
            cursor = p + 1;
            primes.push(p);
        }
        primes
    };
    let residues: Vec<Residue> = spec_primes
        .iter()
        .map(|&q| {
            let field = PrimeField::new_unchecked(q);
            let m2 = adj.mul(&field, &adj);
            let m3 = m2.mul(&field, &adj);
            Residue { modulus: q, value: m3.trace(&field) }
        })
        .collect();
    let trace = crt_u(&residues);
    // multiplicity = k! / ((k/3)!)³ (ordered triples of parts).
    let mut mult = UBig::one();
    for i in 1..=k as u64 {
        mult = mult.mul_u64(i);
    }
    let mut pf = 1u64;
    for i in 1..=part as u64 {
        pf *= i;
    }
    for _ in 0..3 {
        let (q, r) = mult.div_rem_u64(pf);
        assert_eq!(r, 0);
        mult = q;
    }
    exact_div(trace, &mult)
}

/// Exact division of `UBig` by a word-sized divisor.
///
/// Clique multiplicities `k!/((k/6)!)^6` and `k!/((k/3)!)^3` fit `u64`
/// for every `k <= 30`, far beyond what any in-memory instance reaches.
fn exact_div(value: UBig, divisor: &UBig) -> UBig {
    let d = divisor.to_u64().expect("divisor exceeds u64; unsupported k");
    let (q, r) = value.div_rem_u64(d);
    assert_eq!(r, 0, "division must be exact");
    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use camelot_core::Engine;
    use camelot_graph::{count_k_cliques, gen};

    #[test]
    fn subsets_enumeration() {
        assert_eq!(subsets_of_size(4, 2).len(), 6);
        assert_eq!(subsets_of_size(5, 0), vec![0]);
        assert_eq!(subsets_of_size(3, 3), vec![0b111]);
        assert_eq!(subsets_of_size(2, 3), Vec::<u64>::new());
        let s = subsets_of_size(5, 2);
        assert_eq!(s[0], 0b00011);
        assert!(s.iter().all(|m| m.count_ones() == 2));
    }

    #[test]
    fn multiplicity_values() {
        assert_eq!(clique_multiplicity(6).to_u64(), Some(720)); // 6!/1
        assert_eq!(clique_multiplicity(12).to_u64(), Some(479_001_600 / 64)); // 12!/2^6
    }

    #[test]
    fn circuit_counts_k6_on_complete_graphs() {
        let tensor = MatMulTensor::strassen();
        for n in [6usize, 7, 8] {
            let g = gen::complete(n);
            let expect = count_k_cliques(&g, 6);
            let got = count_cliques_circuit(&g, 6, &tensor);
            assert_eq!(got.to_u64(), Some(expect), "K_{n}");
        }
    }

    #[test]
    fn circuit_counts_k6_on_random_graphs() {
        let tensor = MatMulTensor::strassen();
        for seed in 0..3 {
            let g = gen::gnp(8, u32::MAX / 5 * 4, seed); // dense-ish
            let expect = count_k_cliques(&g, 6);
            let got = count_cliques_circuit(&g, 6, &tensor);
            assert_eq!(got.to_u64(), Some(expect), "seed {seed}");
        }
    }

    #[test]
    fn nesetril_poljak_baseline_agrees() {
        for n in [6usize, 7, 8, 9] {
            let g = gen::gnp(n, u32::MAX / 4 * 3, n as u64);
            assert_eq!(
                count_cliques_nesetril_poljak(&g, 6).to_u64(),
                Some(count_k_cliques(&g, 6)),
                "n = {n}"
            );
            assert_eq!(
                count_cliques_nesetril_poljak(&g, 3).to_u64(),
                Some(count_k_cliques(&g, 3)),
                "triangles n = {n}"
            );
        }
    }

    #[test]
    fn camelot_kclique_end_to_end() {
        let g = gen::planted_clique(7, 6, 6, 42);
        let expect = count_k_cliques(&g, 6);
        assert!(expect >= 1);
        let problem = KCliqueCount::new(g, 6);
        let outcome = Engine::sequential(8, 2).run(&problem).unwrap();
        assert_eq!(outcome.output.to_u64(), Some(expect));
        // Proof size is Θ(R) = Θ(N^ω) per prime.
        assert!(outcome.certificate.degree_bound <= 3 * problem.rank());
    }

    #[test]
    fn camelot_kclique_zero_cliques() {
        // Bipartite graphs have no 6-cliques (no triangles even).
        let g = gen::complete_bipartite(3, 4);
        let problem = KCliqueCount::new(g, 6);
        let outcome = Engine::sequential(4, 1).run(&problem).unwrap();
        assert_eq!(outcome.output.to_u64(), Some(0));
    }
}
