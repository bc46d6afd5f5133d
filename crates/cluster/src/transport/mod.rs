//! Pluggable broadcast transports.
//!
//! A [`Transport`] moves one round's frames between the `K` nodes and
//! hands back the assembled [`RoundOutcome`]. Two backends ship:
//!
//! * [`InProcess`](crate::InProcess) — the historical in-process bus:
//!   node slices run in the coordinator (split across the
//!   `CAMELOT_THREADS` budget), zero serialization overhead,
//!   bit-identical to the seed;
//!   a chaos plan runs through the pool's reply drain on a virtual
//!   clock;
//! * [`SocketTransport`](crate::SocketTransport) — a pool of long-lived
//!   loopback TCP workers speaking the line-oriented v1 frame format
//!   below, either as in-process threads or as spawned `camelot-node`
//!   worker processes, so a round really spans OS processes.
//!
//! ## The v1 frame format
//!
//! Task and reply messages are frames in the grammar of
//! [`crate::frame`]; their records:
//!
//! ```text
//! camelot-task v1          camelot-reply v1
//! field <q>                node <i>
//! cluster <K>              evals <n>
//! node <i>                 nanos <t>
//! width <w>                frame all <sym|-> ...
//! fault <kind...>          frame <r> <sym|-> ...
//! program <p> poly <c...>  end
//! points <lo> <x> ...
//! end
//! ```
//!
//! A task also carries `deadline <ms>` and `chaos <effect...>` when they
//! differ from the quiet default. `program <p>` and `frame <r>` repeat,
//! numbered from 0 in frame order; every other record is scalar. `-`
//! marks an erased symbol. A uniform sender replies with a single
//! `frame all` line; an equivocator replies with `frame all` (its
//! truthful base, diagnostic) followed by one `frame <r>` line per
//! receiver.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::disallowed_macros,
        clippy::disallowed_methods
    )
)]

mod drain;
mod inproc;
mod pool;
mod socket;

pub use inproc::InProcess;
pub use pool::WorkerPool;
pub use socket::{serve_worker_loop, SocketTransport, WorkerMode};

use crate::chaos::{ChaosEffect, ChaosPlan};
use crate::fault::FaultKind;
use crate::frame::{Frame, FrameError, FrameWriter, Record};
use crate::retry::TransportTuning;
use crate::round::{FrameBody, NodeFrames, RoundEval, RoundOutcome, RoundSpec};
use camelot_ff::PrimeField;
use camelot_poly::{cached_ntt_plan, NttPlan};
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// A broadcast backend: runs one round and returns the assembled
/// per-polynomial broadcasts plus traffic accounting.
pub trait Transport {
    /// Backend name for reports and error messages.
    fn name(&self) -> &'static str;

    /// Runs one round.
    ///
    /// # Errors
    ///
    /// [`TransportError::NotWireExpressible`] when a process-spanning
    /// backend is asked to run closures it cannot ship, and I/O or
    /// protocol failures for the socket backend. The in-process backends
    /// are infallible.
    fn run(
        &self,
        spec: &RoundSpec<'_>,
        eval: &dyn RoundEval,
    ) -> Result<RoundOutcome, TransportError>;
}

/// Transport failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransportError {
    /// The round's polynomials have no wire-expressible program, so a
    /// process-spanning backend cannot ship them.
    NotWireExpressible,
    /// An I/O failure on the socket backend.
    Io {
        /// Human-readable description.
        reason: String,
    },
    /// A malformed task or reply message.
    Protocol {
        /// Human-readable description.
        reason: String,
    },
    /// A worker exited or misbehaved.
    WorkerFailed {
        /// The node whose worker failed.
        node: usize,
        /// Human-readable description.
        reason: String,
    },
    /// An operation exceeded its configured I/O deadline.
    TimedOut {
        /// Human-readable description.
        reason: String,
    },
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::NotWireExpressible => {
                write!(f, "round polynomials are not wire-expressible (no EvalProgram)")
            }
            TransportError::Io { reason } => write!(f, "transport I/O failed: {reason}"),
            TransportError::Protocol { reason } => write!(f, "malformed frame: {reason}"),
            TransportError::WorkerFailed { node, reason } => {
                write!(f, "worker for node {node} failed: {reason}")
            }
            TransportError::TimedOut { reason } => {
                write!(f, "transport deadline exceeded: {reason}")
            }
        }
    }
}

impl std::error::Error for TransportError {}

/// A wire-expressible evaluation program: what a `camelot-node` worker
/// process can execute on its own, reconstructed from the task message
/// alone (the paper's "common input" made literal).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EvalProgram {
    /// Horner evaluation of an explicit coefficient vector
    /// (little-endian, reduced mod `q`).
    Poly(Vec<u64>),
}

impl EvalProgram {
    /// Reduces the program's constants modulo `field` once, for repeated
    /// evaluation. Programs arrive with arbitrary `u64` coefficients
    /// (the wire does not promise reduced ones).
    #[must_use]
    pub fn prepare(&self, field: &PrimeField) -> PreparedProgram {
        match self {
            EvalProgram::Poly(coeffs) => PreparedProgram::poly(field, coeffs),
        }
    }

    /// Evaluates the program at `x0` over `field`: the one-shot form of
    /// [`EvalProgram::prepare`]; a round prepares each program once.
    #[must_use]
    pub fn eval(&self, field: &PrimeField, x0: u64) -> u64 {
        self.prepare(field).eval(x0)
    }
}

/// Weight of one transform step against one Horner step in
/// [`PreparedProgram::eval_slice`]: a run of `m` orbit points takes the
/// length-`n = 2^k` transform when Horner's `m·(d+1)` steps exceed
/// `ORBIT_NTT_WEIGHT·n·k` plus the `2·(d+1)` of the scaling and the fold.
/// The measured break-even weight is 1.1–1.5 at `n = 2^8 … 2^14`; at 1
/// the transform is taken a little early, where the two paths are within
/// a third of each other.
const ORBIT_NTT_WEIGHT: usize = 1;

/// An [`EvalProgram`] bound to one field with its constants reduced:
/// what a node evaluates on its slice of the points.
#[derive(Clone, Debug)]
pub struct PreparedProgram {
    field: PrimeField,
    coeffs: Vec<u64>,
}

impl PreparedProgram {
    /// The polynomial with the given little-endian coefficients (any
    /// `u64`s), reduced into `field`.
    #[must_use]
    pub fn poly(field: &PrimeField, coefficients: &[u64]) -> Self {
        let mut coeffs = coefficients.to_vec();
        field.reduce_slice(&mut coeffs);
        PreparedProgram { field: *field, coeffs }
    }

    /// `P(x0) mod q` ([`PrimeField::horner`]).
    #[must_use]
    pub fn eval(&self, x0: u64) -> u64 {
        self.field.horner(&self.coeffs, x0)
    }

    /// `P` at each of `points`, in order: one node's slice. When the
    /// slice is a run `a, a·ω, …, a·ω^{m−1}` with `ω` the root of the
    /// cached NTT plan of its order `n = 2^k` — a node's slice of a
    /// roots-of-unity code — and the run is long enough to pay for it,
    /// `P(a·ω^j)` is output `j` of one forward transform of
    /// `Q(x) = P(a·x)` folded modulo `x^n − 1` (exact: `ω^n = 1`).
    /// Anywhere else it is Horner per point. The values are the same
    /// either way.
    #[must_use]
    pub fn eval_slice(&self, points: &[u64]) -> Vec<u64> {
        match self.orbit_run(points) {
            Some((a, plan)) => self.eval_on_orbit(a, &plan, points.len()),
            None => points.iter().map(|&x| self.eval(x)).collect(),
        }
    }

    /// The start `a` and the plan of the ratio `ω` when `points` is a run
    /// `a·ω^j` the transform evaluates for less than Horner does. The
    /// size checks come first, so a slice that cannot pay costs a few
    /// comparisons, and one whose ratio has no power-of-two order (every
    /// consecutive slice) twice as many squarings as 2 divides `q − 1`.
    fn orbit_run(&self, points: &[u64]) -> Option<(u64, Arc<NttPlan>)> {
        let field = &self.field;
        let q = field.modulus();
        let m = points.len();
        // The orbit holds the whole run: no transform is shorter than m.
        if m < 2 || !self.transform_pays(m, m.next_power_of_two()) {
            return None;
        }
        let (&a, &b) = (points.first()?, points.get(1)?);
        if a == 0 || a >= q || b >= q {
            return None;
        }
        // `b/a` has a power-of-two order exactly when `a` and `b` agree
        // after `s` squarings, `2^s` the largest power of two dividing
        // `q − 1`; only then is the inversion worth paying.
        let s = (q - 1).trailing_zeros();
        let (mut x, mut y) = (a, b);
        for _ in 0..s {
            (x, y) = (field.mul(x, x), field.mul(y, y));
        }
        if x != y {
            return None;
        }
        let ratio = field.mul(b, field.inv(a));
        // Its order `2^k`: square until 1, at most `s` times.
        let mut k = 0;
        let mut power = ratio;
        while power != 1 {
            if k == s {
                return None;
            }
            power = field.mul(power, power);
            k += 1;
        }
        // A run longer than its orbit repeats points.
        let n = 1usize << k;
        if m > n || !self.transform_pays(m, n) {
            return None;
        }
        // Another root of the same order would need a discrete log to
        // place the run on the transform's outputs.
        let plan = cached_ntt_plan(field, k).filter(|plan| plan.root() == ratio)?;
        let mut x = a;
        for &point in points.iter().skip(1) {
            x = field.mul(x, ratio);
            if point != x {
                return None;
            }
        }
        Some((a, plan))
    }

    /// Whether one forward transform of length `n` costs less than Horner
    /// on `m` points, and allocates no more than a few words per word of
    /// the slice and the program.
    fn transform_pays(&self, m: usize, n: usize) -> bool {
        let len = self.coeffs.len();
        let transform = (n.trailing_zeros() as usize).saturating_mul(n);
        n <= 4 * (m + len)
            && m.saturating_mul(len) > ORBIT_NTT_WEIGHT.saturating_mul(transform) + 2 * len
    }

    /// `P(a·ω^j)` for `j < m`, `ω` the plan's root: coefficient `i`
    /// scaled by `a^i` and added into slot `i mod n`, then one forward
    /// transform.
    fn eval_on_orbit(&self, a: u64, plan: &NttPlan, m: usize) -> Vec<u64> {
        let field = &self.field;
        let a_shoup = field.shoup_precompute(a);
        let mut values = vec![0; plan.len()];
        let mut power = 1;
        for chunk in self.coeffs.chunks(plan.len()) {
            for (value, &c) in values.iter_mut().zip(chunk) {
                *value = field.mul_add(*value, c, power);
                power = field.mul_shoup(power, a, a_shoup);
            }
        }
        plan.forward(&mut values);
        values.truncate(m);
        values
    }

    /// The program with reduced constants, as shipped to workers.
    #[must_use]
    pub fn program(&self) -> EvalProgram {
        EvalProgram::Poly(self.coeffs.clone())
    }
}

/// Which backend a [`ClusterConfig`] builds.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub enum Backend {
    /// The in-process simulated bus (default; zero overhead).
    #[default]
    InProcess,
    /// A pool of loopback TCP workers speaking the v1 frame format.
    Socket(WorkerMode),
}

/// Execution configuration for a proof-preparation round.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of compute nodes `K`.
    pub nodes: usize,
    /// Which broadcast backend rounds run on.
    pub backend: Backend,
    /// Deadline and demotion knobs for the socket-flavoured backends
    /// (the in-process bus runs a chaos round's drain against
    /// `io_deadline` on a virtual clock).
    pub tuning: TransportTuning,
    /// Optional transport-level fault injection, applied identically by
    /// every backend.
    pub chaos: Option<ChaosPlan>,
}

impl ClusterConfig {
    /// In-process simulation with `K` nodes, whose node slices split
    /// across the thread budget (`CAMELOT_THREADS`).
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0`.
    #[must_use]
    #[expect(
        clippy::disallowed_macros,
        reason = "ClusterConfig constructors are coordinator-side configuration API, not a frame \
                  path; the documented panic guards local programmer misuse and no untrusted \
                  input can reach it"
    )]
    pub fn sequential(nodes: usize) -> Self {
        assert!(nodes > 0, "a cluster needs at least one node");
        ClusterConfig {
            nodes,
            backend: Backend::InProcess,
            tuning: TransportTuning::default(),
            chaos: None,
        }
    }

    /// Switches the broadcast backend.
    #[must_use]
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Overrides the transport tuning (deadlines, demotion).
    #[must_use]
    pub fn with_tuning(mut self, tuning: TransportTuning) -> Self {
        self.tuning = tuning;
        self
    }

    /// Installs a chaos plan, injected identically by every backend.
    #[must_use]
    pub fn with_chaos(mut self, chaos: Option<ChaosPlan>) -> Self {
        self.chaos = chaos;
        self
    }

    /// Builds the configured transport. A socket transport starts its
    /// worker pool on its first round, reuses it for every later one
    /// and shuts it down when dropped.
    #[must_use]
    pub fn transport(&self) -> Box<dyn Transport> {
        let tuning = self.tuning.clone();
        let chaos = self.chaos.clone();
        match &self.backend {
            Backend::InProcess => Box::new(InProcess::new().with_tuning(tuning).with_chaos(chaos)),
            Backend::Socket(mode) => Box::new(
                SocketTransport::persistent(mode.clone()).with_tuning(tuning).with_chaos(chaos),
            ),
        }
    }
}

/// Resolves a sibling workspace binary next to the current executable
/// (all workspace binaries land in the same target directory) — e.g.
/// `camelot-node` for process-spanning socket rounds, `camelot-serve`
/// for daemon experiments.
#[must_use]
pub fn sibling_binary(name: &str) -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let dir = exe.parent()?;
    for dir in [dir, dir.parent()?] {
        let candidate = dir.join(name);
        if candidate.is_file() {
            return Some(candidate);
        }
    }
    None
}

/// Resolves the `camelot-node` worker binary next to the current
/// executable, for process-spanning socket rounds.
#[must_use]
pub fn sibling_worker_binary() -> Option<PathBuf> {
    sibling_binary("camelot-node")
}

// ---------------------------------------------------------------------
// The v1 frame format: task, reply, and control messages.
// ---------------------------------------------------------------------

/// Magic header of a task message.
pub const TASK_HEADER: &str = "camelot-task v1";
/// Magic header of a reply message.
pub const REPLY_HEADER: &str = "camelot-reply v1";
/// Control frame: the coordinator tells a persistent worker to exit
/// cleanly (replaces best-effort process kill as the teardown path).
pub const SHUTDOWN_HEADER: &str = "camelot-shutdown v1";
/// Control frame: health-check probe to a persistent worker.
pub const PING_HEADER: &str = "camelot-ping v1";
/// Control frame: a live worker's answer to a ping.
pub const PONG_HEADER: &str = "camelot-pong v1";

/// The record-less frame (`<header>\nend\n`) of the shutdown/ping/pong
/// messages of the persistent worker protocol.
#[must_use]
pub fn control_frame(header: &str) -> String {
    FrameWriter::new(header).end()
}

/// One node's work order for a round, as shipped to a worker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Task {
    /// The round's prime modulus.
    pub modulus: u64,
    /// Cluster size `K`.
    pub nodes: usize,
    /// The node this task is for.
    pub node: usize,
    /// The node's behaviour this round.
    pub fault: FaultKind,
    /// One program per polynomial in the round.
    pub programs: Vec<EvalProgram>,
    /// Global index of the first assigned point.
    pub lo: usize,
    /// The node's assigned evaluation points.
    pub points: Vec<u64>,
    /// Transport-level chaos the worker must inflict on its own reply
    /// (sender-side injection, like the algebraic faults). Absent from
    /// the wire when `None`, so chaos-free tasks are byte-identical to
    /// the historical format.
    pub chaos: Option<ChaosEffect>,
    /// The coordinator's I/O deadline in milliseconds, shipped with the
    /// task so the worker resolves delay-versus-demotion by comparing
    /// configured numbers (never wall clock). On the wire only when it
    /// differs from the 60 s default.
    pub deadline_ms: u64,
}

/// Deadline shipped in tasks when none is configured (the historical
/// 60 s socket timeout).
pub(crate) const DEFAULT_TASK_DEADLINE_MS: u64 = 60_000;

fn protocol_error(err: FrameError) -> TransportError {
    TransportError::Protocol { reason: err.to_string() }
}

fn parse_fault(mut record: Record<'_>) -> Result<FaultKind, FrameError> {
    let kind = match record.word()? {
        "honest" => FaultKind::Honest,
        "crash" => FaultKind::Crash,
        "corrupt" => FaultKind::Corrupt { seed: record.number()? },
        "adversarial" => FaultKind::Adversarial { offset: record.number()? },
        "equivocate" => FaultKind::Equivocate { seed: record.number()? },
        _ => return Err(record.bad()),
    };
    record.end()?;
    Ok(kind)
}

fn parse_chaos(mut record: Record<'_>) -> Result<ChaosEffect, FrameError> {
    let effect = match record.word()? {
        "delay" => ChaosEffect::Delay { millis: record.number()? },
        "drop" => ChaosEffect::DropFrame,
        "truncate" => ChaosEffect::Truncate { seed: record.number()? },
        "garble" => ChaosEffect::Garble { seed: record.number()? },
        "duplicate" => ChaosEffect::Duplicate,
        "reset" => ChaosEffect::Reset,
        "hang" => ChaosEffect::Hang,
        _ => return Err(record.bad()),
    };
    record.end()?;
    Ok(effect)
}

impl Task {
    /// Serializes to the v1 task format.
    #[must_use]
    pub fn to_wire(&self) -> String {
        let mut w = FrameWriter::new(TASK_HEADER);
        w.record("field", self.modulus)
            .record("cluster", self.nodes)
            .record("node", self.node)
            .record("width", self.programs.len());
        match self.fault {
            FaultKind::Honest => w.record("fault", "honest"),
            FaultKind::Crash => w.record("fault", "crash"),
            FaultKind::Corrupt { seed } => w.record("fault corrupt", seed),
            FaultKind::Adversarial { offset } => w.record("fault adversarial", offset),
            FaultKind::Equivocate { seed } => w.record("fault equivocate", seed),
        };
        // Neither line appears on a default quiet task, keeping the
        // historical wire byte-identical; each is emitted independently
        // so every Task value round-trips exactly.
        if self.deadline_ms != DEFAULT_TASK_DEADLINE_MS {
            w.record("deadline", self.deadline_ms);
        }
        match self.chaos {
            None => &mut w,
            Some(ChaosEffect::Delay { millis }) => w.record("chaos delay", millis),
            Some(ChaosEffect::DropFrame) => w.record("chaos", "drop"),
            Some(ChaosEffect::Truncate { seed }) => w.record("chaos truncate", seed),
            Some(ChaosEffect::Garble { seed }) => w.record("chaos garble", seed),
            Some(ChaosEffect::Duplicate) => w.record("chaos", "duplicate"),
            Some(ChaosEffect::Reset) => w.record("chaos", "reset"),
            Some(ChaosEffect::Hang) => w.record("chaos", "hang"),
        };
        for (p, EvalProgram::Poly(coeffs)) in self.programs.iter().enumerate() {
            w.numbers(format_args!("program {p} poly"), coeffs);
        }
        w.numbers(format_args!("points {}", self.lo), &self.points);
        w.end()
    }

    /// Parses the v1 task format.
    ///
    /// # Errors
    ///
    /// [`TransportError::Protocol`] for any structural violation (never
    /// panics on malformed input).
    pub fn from_wire(text: &str) -> Result<Task, TransportError> {
        Task::decode(text).map_err(protocol_error)
    }

    fn decode(text: &str) -> Result<Task, FrameError> {
        let mut frame = Frame::parse(text, TASK_HEADER)?;
        let modulus: u64 = frame.require("field")?;
        let nodes: usize = frame.require("cluster")?;
        let node: usize = frame.require("node")?;
        let width: usize = frame.require("width")?;
        let fault = parse_fault(frame.required("fault")?)?;
        let chaos = frame.scalar("chaos")?.map(parse_chaos).transpose()?;
        let deadline_ms = frame.number("deadline")?.unwrap_or(DEFAULT_TASK_DEADLINE_MS);
        let programs = frame
            .repeated("program")
            .zip(0..)
            .map(|(mut record, i)| {
                if record.number::<usize>()? != i || record.word()? != "poly" {
                    return Err(record.bad());
                }
                Ok(EvalProgram::Poly(record.numbers()?))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut points = frame.required("points")?;
        let lo: usize = points.number()?;
        let points = points.numbers()?;
        frame.finish()?;
        // A point's global index `lo + k` must exist.
        if lo.checked_add(points.len()).is_none() {
            return Err(FrameError::Bad("points"));
        }
        if width == 0 || programs.len() != width {
            return Err(FrameError::Bad("program"));
        }
        // Only a modulus the field layer carries: the worker builds its
        // field unchecked, and a composite one would reach the primality
        // assert behind the orbit transforms.
        if PrimeField::new(modulus).is_err() {
            return Err(FrameError::Bad("field"));
        }
        if nodes == 0 || node >= nodes {
            return Err(FrameError::Bad("node"));
        }
        Ok(Task { modulus, nodes, node, fault, programs, lo, points, chaos, deadline_ms })
    }
}

/// Serializes one node's reply (its [`NodeFrames`]) to the v1 format.
#[must_use]
pub fn encode_reply(frames: &NodeFrames) -> String {
    let mut w = FrameWriter::new(REPLY_HEADER);
    w.record("node", frames.node)
        .record("evals", frames.evaluations)
        .record("nanos", frames.elapsed.as_nanos());
    let (base, per_receiver) = match &frames.body {
        FrameBody::Uniform(symbols) => (symbols, [].as_slice()),
        FrameBody::PerReceiver { base, per_receiver } => (base, per_receiver.as_slice()),
    };
    w.symbols("frame all", base);
    for (r, frame) in per_receiver.iter().enumerate() {
        w.symbols(format_args!("frame {r}"), frame);
    }
    w.end()
}

/// Parses one node's reply from the v1 format.
///
/// # Errors
///
/// [`TransportError::Protocol`] for any structural violation (never
/// panics on malformed input).
pub fn parse_reply(text: &str) -> Result<NodeFrames, TransportError> {
    decode_reply(text).map_err(protocol_error)
}

fn decode_reply(text: &str) -> Result<NodeFrames, FrameError> {
    let mut frame = Frame::parse(text, REPLY_HEADER)?;
    let node = frame.require("node")?;
    let evaluations = frame.require("evals")?;
    let nanos = frame.require("nanos")?;
    let mut base = None;
    let mut per_receiver = Vec::new();
    for mut record in frame.repeated("frame") {
        match record.word()? {
            "all" if base.is_some() => return Err(FrameError::Repeated("frame all")),
            "all" => base = Some(record.symbols()?),
            r if r.parse() == Ok(per_receiver.len()) => per_receiver.push(record.symbols()?),
            _ => return Err(record.bad()),
        }
    }
    frame.finish()?;
    let base = base.ok_or(FrameError::Missing("frame all"))?;
    let body = if per_receiver.is_empty() {
        FrameBody::Uniform(base)
    } else if per_receiver.iter().all(|f| f.len() == base.len()) {
        FrameBody::PerReceiver { base, per_receiver }
    } else {
        return Err(FrameError::Bad("frame"));
    };
    Ok(NodeFrames { node, evaluations, elapsed: Duration::from_nanos(nanos), body })
}

/// Executes a parsed [`Task`]: the worker side of a round, shared by
/// the `camelot-node` process and the in-process socket workers.
#[must_use]
pub fn execute_task(task: &Task) -> NodeFrames {
    let field = PrimeField::new_unchecked(task.modulus);
    let eval = crate::round::ProgramEval::new(&field, task.programs.clone());
    crate::round::compute_node_frames(
        &field,
        task.fault,
        task.nodes,
        task.node,
        task.lo,
        &task.points,
        &eval,
    )
}

/// Rejects a chaos plan sized for a different cluster.
pub(crate) fn check_chaos(chaos: Option<&ChaosPlan>, nodes: usize) -> Result<(), TransportError> {
    match chaos {
        Some(plan) if plan.nodes() != nodes => Err(TransportError::Protocol {
            reason: format!("chaos plan covers {} nodes but the cluster has {nodes}", plan.nodes()),
        }),
        _ => Ok(()),
    }
}

/// The (symbols broadcast, frame bytes) cost of one node's frames in
/// the v1 encoding — the shared traffic model: uniform senders
/// broadcast their `frame all` line once, equivocators pay one
/// `frame <r>` line per receiver, crashed senders put nothing on the
/// medium (their explicit erasure frame is simulation bookkeeping).
#[must_use]
pub fn frame_wire_cost(kind: FaultKind, body: &FrameBody) -> (usize, u64) {
    let digits = |v: u64| v.checked_ilog10().map_or(1, |d| u64::from(d) + 1);
    // The key, then a space and a number or `-` per symbol, then a newline.
    let line = |key: usize, symbols: &[Option<u64>]| {
        key as u64 + 1 + symbols.iter().map(|s| 1 + s.map_or(1, digits)).sum::<u64>()
    };
    match (kind, body) {
        (FaultKind::Crash, _) => (0, 0),
        (_, FrameBody::Uniform(symbols)) => (symbols.len(), line("frame all".len(), symbols)),
        (_, FrameBody::PerReceiver { per_receiver, .. }) => {
            per_receiver.iter().zip(0..).fold((0, 0), |(count, bytes), (frame, r)| {
                (count + frame.len(), bytes + line("frame ".len() + digits(r) as usize, frame))
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camelot_ff::{ntt_prime, RngLike, SplitMix64};

    #[test]
    fn task_roundtrips() {
        let task = Task {
            modulus: 1_000_003,
            nodes: 5,
            node: 2,
            fault: FaultKind::Equivocate { seed: 42 },
            programs: vec![EvalProgram::Poly(vec![1, 2, 3]), EvalProgram::Poly(vec![0])],
            lo: 8,
            points: vec![8, 9, 10, 11],
            chaos: None,
            deadline_ms: DEFAULT_TASK_DEADLINE_MS,
        };
        assert_eq!(Task::from_wire(&task.to_wire()).unwrap(), task);
    }

    #[test]
    fn chaos_lines_roundtrip_and_stay_off_the_quiet_wire() {
        let quiet = Task {
            modulus: 97,
            nodes: 2,
            node: 0,
            fault: FaultKind::Honest,
            programs: vec![EvalProgram::Poly(vec![1])],
            lo: 0,
            points: vec![0, 1],
            chaos: None,
            deadline_ms: DEFAULT_TASK_DEADLINE_MS,
        };
        assert!(
            !quiet.to_wire().contains("chaos") && !quiet.to_wire().contains("deadline"),
            "chaos-free tasks must stay byte-identical to the historical format"
        );
        for effect in [
            ChaosEffect::Delay { millis: 7 },
            ChaosEffect::DropFrame,
            ChaosEffect::Truncate { seed: 99 },
            ChaosEffect::Garble { seed: 123 },
            ChaosEffect::Duplicate,
            ChaosEffect::Reset,
            ChaosEffect::Hang,
        ] {
            let task = Task { chaos: Some(effect), deadline_ms: 250, ..quiet.clone() };
            assert_eq!(Task::from_wire(&task.to_wire()).unwrap(), task, "{effect:?}");
        }
        assert!(Task::from_wire(
            "camelot-task v1\nfield 97\ncluster 2\nnode 0\nwidth 1\nfault honest\n\
             chaos nonsense\nprogram 0 poly 1\npoints 0 1\nend\n"
        )
        .is_err());
    }

    #[test]
    fn reply_roundtrips_uniform_and_per_receiver() {
        let uniform = NodeFrames {
            node: 1,
            evaluations: 3,
            elapsed: Duration::from_nanos(123_456),
            body: FrameBody::Uniform(vec![Some(5), None, Some(0)]),
        };
        assert_eq!(parse_reply(&encode_reply(&uniform)).unwrap(), uniform);

        let equivocating = NodeFrames {
            node: 0,
            evaluations: 2,
            elapsed: Duration::ZERO,
            body: FrameBody::PerReceiver {
                base: vec![Some(1), Some(2)],
                per_receiver: vec![vec![Some(3), Some(4)], vec![Some(5), Some(6)]],
            },
        };
        assert_eq!(parse_reply(&encode_reply(&equivocating)).unwrap(), equivocating);
    }

    #[test]
    fn malformed_messages_error_out() {
        for text in [
            "",
            "nonsense",
            "camelot-task v1\nend\n",
            "camelot-task v1\nfield abc\nend\n",
            "camelot-task v1\nfield 97\ncluster 2\nnode 5\nwidth 1\nfault honest\nprogram 0 poly 1\npoints 0 1\nend\n",
            "camelot-task v1\nfield 97\ncluster 2\nnode 0\nwidth 2\nfault honest\nprogram 0 poly 1\npoints 0 1\nend\n",
            "camelot-task v1\nfield 97\ncluster 2\nnode 0\nwidth 1\nfault corrupt\nprogram 0 poly 1\npoints 0 1\nend\n",
            "camelot-task v1\nfield 4611686018427387904\ncluster 2\nnode 0\nwidth 1\nfault honest\nprogram 0 poly 1\npoints 0 1\nend\n",
            "camelot-task v1\nfield 1000001\ncluster 2\nnode 0\nwidth 1\nfault honest\nprogram 0 poly 1\npoints 0 1\nend\n",
            "camelot-task v1\nfield 97\ncluster 2\nnode 0\nwidth 1\nfault corrupt 1\nprogram 0 poly 1\npoints 18446744073709551615 1 2\nend\n",
            "camelot-reply v1\nend\n",
            "camelot-reply v1\nnode 0\nevals 1\nnanos 5\nframe all 1\nframe 1 2\nend\n",
            "camelot-reply v1\nnode 0\nevals 1\nnanos 5\nframe all 1 2\nframe 0 9\nframe 1 8\nend\n",
        ] {
            let refused = if text.starts_with(TASK_HEADER) {
                Task::from_wire(text).is_err()
            } else {
                parse_reply(text).is_err()
            };
            assert!(refused, "{text:?}");
        }
        // `program <p>` and `frame <r>` lines come in index order.
        assert!(Task::from_wire(
            "camelot-task v1\nfield 97\ncluster 2\nnode 0\nwidth 2\nfault honest\n\
             program 1 poly 1\nprogram 0 poly 2\npoints 0 1\nend\n"
        )
        .is_err());
        assert!(parse_reply(
            "camelot-reply v1\nnode 0\nevals 1\nnanos 5\nframe all 1\nframe 1 2\nframe 0 3\nend\n"
        )
        .is_err());
    }

    /// The traffic model prices exactly the `frame` lines `encode_reply`
    /// writes: `frame all` for a uniform sender, the `frame <r>` lines
    /// (not the diagnostic base) for an equivocator.
    #[test]
    fn frame_wire_cost_is_the_bytes_of_the_written_frame_lines() {
        let bodies = [
            FrameBody::Uniform(vec![Some(5), None, Some(1_000_002), Some(0)]),
            FrameBody::Uniform(vec![None; 4]),
            FrameBody::Uniform(vec![]),
            FrameBody::PerReceiver {
                base: vec![Some(1), Some(2)],
                per_receiver: (0..12u64).map(|r| vec![Some(r * 99_991), None]).collect(),
            },
        ];
        for body in bodies {
            let frames =
                NodeFrames { node: 3, evaluations: 2, elapsed: Duration::from_nanos(7), body };
            let equivocating = matches!(frames.body, FrameBody::PerReceiver { .. });
            let wire = encode_reply(&frames);
            let written: Vec<&str> = wire
                .lines()
                .filter(|line| line.starts_with("frame "))
                .filter(|line| !(equivocating && line.split(' ').nth(1) == Some("all")))
                .collect();
            let bytes: usize = written.iter().map(|line| line.len() + 1).sum();
            let symbols: usize = written.iter().map(|line| line.split(' ').count() - 2).sum();
            assert_eq!(
                frame_wire_cost(FaultKind::Honest, &frames.body),
                (symbols, bytes as u64),
                "{written:?}"
            );
        }
    }

    #[test]
    fn execute_task_applies_the_fault() {
        let task = Task {
            modulus: 1_000_003,
            nodes: 3,
            node: 1,
            fault: FaultKind::Crash,
            programs: vec![EvalProgram::Poly(vec![7, 1])], // 7 + x
            lo: 4,
            points: vec![4, 5, 6, 7],
            chaos: None,
            deadline_ms: DEFAULT_TASK_DEADLINE_MS,
        };
        let frames = execute_task(&task);
        assert_eq!(frames.evaluations, 4);
        assert_eq!(frames.body, FrameBody::Uniform(vec![None; 4]));
        let honest = execute_task(&Task { fault: FaultKind::Honest, ..task });
        assert_eq!(honest.body, FrameBody::Uniform(vec![Some(11), Some(12), Some(13), Some(14)]));
    }

    #[test]
    fn program_eval_matches_horner() {
        let field = PrimeField::new(97).unwrap();
        let program = EvalProgram::Poly(vec![3, 0, 1]); // 3 + x^2
        assert_eq!(program.eval(&field, 0), 3);
        assert_eq!(program.eval(&field, 5), 28);
        assert_eq!(program.eval(&field, 97 + 5), 28);
    }

    /// The two moduli the orbit tests run over: the small NTT test prime
    /// and a word-sized one like the engine's, both with `2^12 | q − 1`.
    fn orbit_fields() -> [PrimeField; 2] {
        [1 << 20, 1 << 61].map(|floor| PrimeField::new(ntt_prime(floor, 12).0).unwrap())
    }

    /// `a, a·r, …, a·r^{m−1}`.
    fn geometric(field: &PrimeField, a: u64, r: u64, m: usize) -> Vec<u64> {
        std::iter::successors(Some(a), |&x| Some(field.mul(x, r))).take(m).collect()
    }

    /// `ω^lo, …, ω^{lo+m−1}` for `ω` the cached plan's root of order
    /// `2^k`: a node's slice of a roots-of-unity code.
    fn orbit_slice(field: &PrimeField, k: u32, lo: usize, m: usize) -> Vec<u64> {
        let root = cached_ntt_plan(field, k).unwrap().root();
        geometric(field, field.pow(root, lo as u64), root, m)
    }

    /// A program of the given degree with unreduced coefficients.
    fn random_program(field: &PrimeField, degree: usize, rng: &mut SplitMix64) -> PreparedProgram {
        let coeffs: Vec<u64> = (0..=degree).map(|_| rng.next_u64()).collect();
        PreparedProgram::poly(field, &coeffs)
    }

    fn horner(program: &PreparedProgram, points: &[u64]) -> Vec<u64> {
        points.iter().map(|&x| program.eval(x)).collect()
    }

    /// `eval_slice` is per-point Horner on full- and partial-orbit slices
    /// of one to `n` points, at degrees below, at and above the orbit
    /// length (the last two fold coefficients), and takes the transform
    /// exactly where its cost model says so.
    #[test]
    fn eval_slice_matches_horner_on_orbit_slices() {
        for field in orbit_fields() {
            let mut rng = SplitMix64::new(field.modulus());
            let (mut transforms, mut horners) = (0, 0);
            for k in [6u32, 9] {
                let n = 1usize << k;
                for degree in [n / 2, n, 2 * n + 3] {
                    let program = random_program(&field, degree, &mut rng);
                    for (lo, m) in [(0, n), (n / 2, n / 2), (n / 3, n / 4), (5, 2), (n - 1, 1)] {
                        let points = orbit_slice(&field, k, lo, m);
                        let transform = m >= 2 && program.transform_pays(m, n);
                        let what = format!(
                            "q {}, n {n}, degree {degree}, slice {lo}+{m}",
                            field.modulus()
                        );
                        assert_eq!(program.orbit_run(&points).is_some(), transform, "{what}");
                        assert_eq!(
                            program.eval_slice(&points),
                            horner(&program, &points),
                            "{what}"
                        );
                        *if transform { &mut transforms } else { &mut horners } += 1;
                    }
                }
            }
            assert!(transforms >= 12 && horners >= 12, "{transforms} transforms, {horners} Horner");
        }
    }

    /// Slices that are no run along the plan's orbit, or repeat points,
    /// take Horner and still get its values.
    #[test]
    fn eval_slice_takes_horner_off_the_plan_orbit() {
        for field in orbit_fields() {
            let mut rng = SplitMix64::new(field.modulus() ^ 1);
            let (k, n) = (8, 256usize);
            let program = random_program(&field, 2 * n, &mut rng);
            let root = cached_ntt_plan(&field, k).unwrap().root();
            let a = field.pow(root, 3);
            let mut off_run = orbit_slice(&field, k, 0, 64);
            off_run[40] = field.add(off_run[40], 1);
            let mut unreduced = orbit_slice(&field, k, 0, 64);
            unreduced[0] += field.modulus();
            let cases = [
                ("r = 1", geometric(&field, a, 1, 16)),
                ("r of order 4 < m", geometric(&field, a, field.pow(root, n as u64 / 4), 16)),
                ("a = 0", vec![0; 16]),
                ("r = ω³", geometric(&field, a, field.pow(root, 3), 64)),
                ("consecutive", (1..=64).collect()),
                ("longer than the orbit", orbit_slice(&field, k, 7, 2 * n)),
                ("off the run", off_run),
                ("unreduced", unreduced),
            ];
            for (name, points) in cases {
                assert!(program.orbit_run(&points).is_none(), "{name}");
                assert_eq!(program.eval_slice(&points), horner(&program, &points), "{name}");
            }
        }
    }
}
