//! # camelot-ff — finite fields for the Camelot framework
//!
//! Substrate crate for the reproduction of *“How Proofs are Prepared at
//! Camelot”* (Björklund–Kaski, PODC 2016). Camelot proof polynomials are
//! univariate polynomials over prime fields `Z_q`; this crate provides
//!
//! * [`PrimeField`] — word-sized prime-field arithmetic (`q < 2^62`);
//! * [`is_prime_u64`], [`next_prime`], [`primes_above`], [`ntt_prime`] —
//!   deterministic primality and prime search, so every node derives the
//!   same moduli from the common input (§1.3 of the paper);
//! * [`UBig`] / [`IBig`] — minimal arbitrary-precision integers;
//! * [`crt_u`] / [`crt_i`] — Chinese Remainder reconstruction of counts
//!   from the per-prime proofs (footnote 5 of the paper).
//!
//! ## Example
//!
//! ```
//! use camelot_ff::{crt_u, primes_above, PrimeField, Residue};
//!
//! // Reconstruct 2^80 from its residues modulo two 61-bit primes.
//! let x: u128 = 1 << 80;
//! let residues: Vec<Residue> = primes_above(1 << 61, 2)
//!     .into_iter()
//!     .map(|q| Residue { modulus: q, value: (x % u128::from(q)) as u64 })
//!     .collect();
//! assert_eq!(crt_u(&residues).to_u128(), Some(x));
//! ```

mod crt;
mod fp;
mod kernel;
mod prime;
mod threads;
mod ubig;

pub use crt::{crt_i, crt_u, primes_needed, Residue};
pub use fp::{
    rand_like::{RngLike, SplitMix64},
    FieldError, PrimeField, MAX_MODULUS,
};
pub use kernel::LANES;
pub use prime::{is_prime_u64, next_prime, ntt_prime, primes_above, primitive_root};
pub use threads::{set_thread_budget, split_map, thread_budget, worker_count};
pub use ubig::{IBig, UBig};
