//! # camelot-triangles — sparsity-aware Camelot triangle counting
//!
//! §6 of *“How Proofs are Prepared at Camelot”*:
//!
//! * [`TriangleSplit`] — the Itai–Rodeh trace `trace(A³)` decomposed into
//!   `R` rank-one terms and produced in `O(R/m)` independent parts of
//!   `Õ(m)` work each by the split/sparse Yates algorithm (Theorem 4);
//! * [`TriangleCount`] — the proof polynomial obtained by substituting an
//!   indeterminate for the part index (Theorem 3): proof size
//!   `Õ(n^ω/m)`, per-node time `Õ(m)`;
//! * [`count_triangles_ayz`] — the high/low-degree split matching the
//!   Alon–Yuster–Zwick bound `O(m^{2ω/(ω+1)})` with `Õ(m)` per-node work
//!   (Theorem 5).

mod ayz;
mod proof;
mod trace;

pub use ayz::{count_triangles_ayz, AyzRun};
pub use proof::TriangleCount;
pub use trace::{adjacency_sparse, Family, TriangleSplit};
