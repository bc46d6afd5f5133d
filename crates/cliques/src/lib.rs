//! # camelot-cliques — k-clique counting via the `(6 2)`-linear form
//!
//! The paper's main technical result (§4–§5): a new arithmetic circuit
//! for the `(6 2)`-linear form that matches the Nešetřil–Poljak operation
//! count while reducing space from `O(N⁴)` to `O(N²)` ([`Form62`],
//! Theorem 13), its extension to a Camelot proof polynomial with
//! `O(N^{ω+ε})`-time per-node evaluation (Theorem 1), and the k-clique
//! reduction `χ_{AB} = [A ∪ B is a clique, A ∩ B = ∅]` over
//! `k/6`-subsets ([`KCliqueCount`], Theorems 1–2), plus the sequential
//! baselines for the benchmarks.

mod form62;
mod kclique;

pub use form62::{interleave, pair_index, Form62, ProofPlan, SpaceStats};
pub use kclique::{
    clique_chi, clique_multiplicity, count_cliques_circuit, count_cliques_nesetril_poljak,
    subsets_of_size, KCliqueCount,
};
