//! # camelot-linalg — matrices, tensors, and Yates transforms
//!
//! The linear-algebra substrate of *“How Proofs are Prepared at Camelot”*:
//!
//! * [`Matrix`] — dense matrices over `Z_q` with naive and Strassen
//!   multiplication (our stand-in for fast matrix multiplication, giving
//!   `ω = log2 7 ≈ 2.807`);
//! * [`MatMulTensor`] — trilinear decompositions of `⟨n,n,n⟩` (identity
//!   (10) of the paper) with Kronecker-power coefficient access, the
//!   backbone of the `(6 2)`-linear-form circuit (§4) and the sparse
//!   triangle algorithms (§6);
//! * [`YatesPlan`] / [`yates`], [`SplitSparseYates`] — Yates's algorithm
//!   (§3.1, compiled once per Kronecker factor), its split/sparse variant
//!   (§3.2), and the polynomial extension (§3.3) that turns the split
//!   into a Camelot proof polynomial.

mod matrix;
mod tensor;
mod yates;

pub use matrix::{mul_transposed_into, Matrix};
pub use tensor::MatMulTensor;
pub use yates::{
    kronecker_apply_naive, yates, SmallMatrix, SparseVec, SplitSparseYates, SplitSupport, YatesPlan,
};
