//! # camelot-algebraic — the Appendix A proof polynomials
//!
//! The “inventory of earlier polynomials” of *“How Proofs are Prepared at
//! Camelot”* (Appendix A), each cast as a [`camelot_core::CamelotProblem`]
//! with a sequential reference oracle:
//!
//! | Problem | Theorem | Proof size / per-node time |
//! |---|---|---|
//! | [`OrthogonalVectors`] | 11(1) | `Õ(nt)` |
//! | [`HammingDistribution`] | 11(2) | `Õ(nt²)` |
//! | [`Convolution3Sum`] | 11(3) | `Õ(nt²)` |
//! | [`CountCnfSat`] | 8(1) | `O*(2^{v/2})` |
//! | [`Permanent`] | 8(2) | `O*(2^{n/2})` |
//! | [`HamiltonianCycles`] | 8(3) | `O*(2^{n/2})` |
//! | [`SetCovers`] | 9 | `O*(2^{n/2})` |

mod cnf;
mod conv3sum;
mod hamilton;
mod hamming;
mod ov;
mod permanent;
mod setcover;

pub use cnf::{CnfFormula, CountCnfSat};
pub use conv3sum::Convolution3Sum;
pub use hamilton::HamiltonianCycles;
pub use hamming::HammingDistribution;
pub use ov::{BoolMatrix, OrthogonalVectors};
pub use permanent::Permanent;
pub use setcover::SetCovers;
