//! # camelot-graph — graph substrate and sequential baselines
//!
//! Graphs are the common input of most Camelot problems in the paper
//! (cliques §5, triangles §6, chromatic polynomial §9, Tutte polynomial
//! §10). This crate provides the input types ([`Graph`], [`MultiGraph`]),
//! deterministic workload generators ([`gen`]), and — crucially — the
//! *sequential reference algorithms* every Camelot algorithm is measured
//! against and tested for agreement with: brute-force clique/triangle
//! counts, the `O*(2^n)` inclusion–exclusion chromatic baseline, Potts /
//! deletion–contraction Tutte oracles, and Hamiltonian-cycle counting.

pub mod chromatic;
mod count;
pub mod gen;
mod graph;
pub mod tutte;

pub use count::{
    count_hamiltonian_cycles, count_hamiltonian_cycles_brute, count_k_cliques, count_triangles,
    independent_set_table,
};
pub use graph::{Dsu, Graph, MultiGraph};
