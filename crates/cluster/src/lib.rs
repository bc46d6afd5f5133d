//! # camelot-cluster — a byzantine compute cluster with pluggable transports
//!
//! The paper's setting (§1.1–§1.3): `K` equally capable nodes share a
//! common input, are collectively tasked with the evaluations
//! `P(0), P(1), …, P(e-1) (mod q)`, and broadcast their symbols. Some
//! nodes are enchanted by Morgana — they crash, corrupt their symbols
//! pseudo-randomly, lie adversarially, or *equivocate* (send different
//! values to different receivers, footnote 7 of the paper).
//!
//! Since PR 5 the broadcast medium is a [`Transport`] trait with two
//! backends — the historical zero-overhead in-process bus
//! ([`InProcess`], its node slices split across the `CAMELOT_THREADS`
//! budget), and a pool of long-lived
//! loopback TCP workers speaking a line-oriented frame format
//! ([`SocketTransport`], optionally as spawned `camelot-node` processes
//! so a round really spans OS processes). Fault injection happens **sender-side**
//! ([`compute_node_frames`]): an equivocator genuinely unicasts a
//! different frame to every receiver. All backends are bit-identical:
//! same consensus word, same per-receiver views, same traffic
//! accounting ([`RoundTraffic`]). Under a [`ChaosPlan`] both backends
//! decide which replies a round takes and which nodes it demotes with
//! the pool's one reply drain, the in-process bus on a virtual clock.
//!
//! The framework claims being exercised are about per-node *work*, code
//! distance, and decoding — all transport-independent, which is why the
//! in-process bus preserves the paper's behaviour exactly and the other
//! backends must (and do) reproduce it bit for bit.

#![deny(clippy::let_underscore_must_use)]

mod chaos;
mod fault;
pub mod frame;
mod retry;
mod round;
mod transport;

pub use chaos::{garble_reply, ChaosEffect, ChaosPlan, Demotion, FailureCause};
pub use fault::{
    adversarial_symbol, corrupt_symbol, equivocated_symbol, fault_lane, FaultKind, FaultPlan,
};
pub use retry::{env_io_deadline, Deadline, TransportTuning, SOCKET_TIMEOUT_ENV};
pub use round::{
    assemble_round, assign_points, compute_node_frames, node_slice, Broadcast, FrameBody,
    NodeFrames, NodeStats, ProgramEval, RoundEval, RoundOutcome, RoundSpec, RoundTraffic,
    SingleEval,
};
pub use transport::{
    control_frame, encode_reply, execute_task, frame_wire_cost, parse_reply, serve_worker_loop,
    sibling_binary, sibling_worker_binary, Backend, ClusterConfig, EvalProgram, InProcess,
    PreparedProgram, SocketTransport, Task, Transport, TransportError, WorkerMode, WorkerPool,
    REPLY_HEADER, SHUTDOWN_HEADER, TASK_HEADER,
};
