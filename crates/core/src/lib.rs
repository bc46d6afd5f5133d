//! # camelot-core — the Camelot framework
//!
//! The primary contribution of *“How Proofs are Prepared at Camelot”*
//! (Björklund–Kaski, PODC 2016), as a reusable engine:
//!
//! * a problem is a proof polynomial `P(x) mod q` plus a fast evaluation
//!   algorithm ([`CamelotProblem`] / [`Evaluate`]);
//! * proof preparation is distributed Reed–Solomon encoding: `K` nodes
//!   jointly evaluate `P` at `e` points — the first `e` powers of a
//!   root of unity of order `2^k ≥ e`, which every prime of the walk
//!   has ([`Engine::run`], over the simulated byzantine cluster of
//!   `camelot-cluster`);
//! * robustness is intrinsic: each node Gao-decodes its received word,
//!   recovering the proof and *identifying* the failed nodes
//!   ([`Certificate`]);
//! * verification is a randomized spot check costing one evaluation of
//!   `P` per trial ([`spot_check`], soundness error `<= d/q` per trial);
//! * every Camelot algorithm is, as is, a Merlin–Arthur protocol
//!   ([`merlin_prove`] / [`arthur_verify`]).

#![deny(clippy::let_underscore_must_use)]

mod engine;
mod error;
mod merlin;
mod problem;
mod verify;
mod wire;

pub use engine::{
    choose_primes, code_length, ntt_log_len, prime_floor, CamelotOutcome, Certificate, Engine,
    EngineConfig, PrimeSchedule, RecoveryPolicy, RunReport,
};
pub use error::CamelotError;
pub use merlin::{arthur_verify, merlin_prove};
pub use problem::{CamelotProblem, Evaluate, PrimeProof, ProofSpec};
pub use verify::{soundness_error, spot_check, VerifyReport};

// Transport-facing vocabulary, re-exported so problem implementers can
// offer wire-expressible evaluators ([`Evaluate::program`]) and engine
// users can pick a broadcast backend — or hand [`Engine::with_transport`]
// a shared persistent one — without naming `camelot-cluster`.
pub use camelot_cluster::{
    Backend, ChaosEffect, ChaosPlan, Deadline, Demotion, EvalProgram, FailureCause,
    SocketTransport, Transport, TransportTuning, WorkerMode,
};

// The one thread budget (`CAMELOT_THREADS`): both splits across OS
// threads — the in-process bus's node groups and the engine's batched
// lane decodes — go through `camelot_ff::split_map`, which reads it;
// re-exported here as the engine-facing configuration surface.
pub use camelot_ff::{set_thread_budget, thread_budget, worker_count};
