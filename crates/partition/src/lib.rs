//! # camelot-partition — the §7 partitioning sum-product template
//!
//! Proof polynomials for problems of the form
//! `Σ f(X_1) ··· f(X_t)` over ordered partitions of a universe, via
//! Kronecker substitution over a bit-set `B` and weight tracking in the
//! `w_E, w_B` indeterminates (§7 of *“How Proofs are Prepared at
//! Camelot”*):
//!
//! * [`SetPartitions`] — exact covers from an explicit (possibly
//!   `O*(2^{n/2})`-sized) family (Theorem 10, §8);
//! * [`ChromaticValue`] / [`chromatic_polynomial`] — the chromatic
//!   polynomial with `O*(2^{n/2})` proof size and time (Theorem 6, §9);
//! * [`PottsValue`] / [`tutte_polynomial`] — the Tutte polynomial through
//!   the Potts partition function and the tripartite decomposition with
//!   fast matrix multiplication (Theorem 7, §10).

mod bipoly;
mod chromatic;
mod ipoly;
mod setpartition;
mod template;
mod tutte;

pub use bipoly::Shape;
pub use chromatic::{chromatic_polynomial, ChromaticOutcome, ChromaticValue};
pub use ipoly::{eval_integer, eval_integer_2d, interpolate_integer, interpolate_integer_2d};
pub use setpartition::SetPartitions;
pub use template::{
    alternating_power_coefficient, subset_powers, zeta_in_place, Split, POWER_SCRATCH,
};
pub use tutte::{eval_tutte, tutte_polynomial, PottsValue, TutteOutcome};
