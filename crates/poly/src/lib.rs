//! # camelot-poly — polynomial arithmetic for the Camelot framework
//!
//! The fast polynomial toolbox of §2.2 of *“How Proofs are Prepared at
//! Camelot”*: dense polynomials over `Z_q` with multiplication, Euclidean
//! division, (partial, early-stopping) extended Euclid, Horner evaluation,
//! Newton interpolation, and the `O(R)` consecutive-node Lagrange basis
//! evaluation of §5.3 that the clique/triangle evaluation algorithms use.
//!
//! Past measured crossover sizes, [`PointTree::eval_many`] and
//! [`interpolate_fast`] switch to subproduct-tree algorithms
//! (`O(M(n) log n)`) whose products run through cached [`NttPlan`]s when
//! the modulus is NTT-friendly; the naive routines are retained as
//! oracles.
//!
//! Every routine runs on the calling thread. The paper's parallelism is
//! its `K` nodes, each evaluating and decoding sequentially, so threads
//! split work only at that level: the in-process transport's node
//! groups and the engine's batch lanes (`camelot_ff::split_map`).
//!
//! ## Example
//!
//! ```
//! use camelot_ff::PrimeField;
//! use camelot_poly::{interpolate, Poly};
//!
//! let f = PrimeField::new(101)?;
//! let p = Poly::from_coeffs(&f, [2, 0, 1]); // 2 + x^2
//! let pts: Vec<(u64, u64)> = (0..3).map(|x| (x, p.eval(&f, x))).collect();
//! assert_eq!(interpolate(&f, &pts), p);
//! # Ok::<(), camelot_ff::FieldError>(())
//! ```

mod dense;
mod hgcd;
mod interp;
mod multipoint;
mod ntt;

pub use dense::Poly;
pub use hgcd::partial_xgcd_fast;
pub use interp::{
    eval_many, interpolate, interpolate_consecutive, lagrange_basis_at, ConsecutiveBasis,
};
pub use multipoint::{cached_ntt_plan, div_rem_fast, interpolate_fast, vanishing_poly, PointTree};
pub use ntt::NttPlan;
