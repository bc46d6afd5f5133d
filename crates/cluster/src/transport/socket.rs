//! The socket backend: loopback TCP workers speaking the v1 frame
//! format, so a round genuinely crosses process (or just thread)
//! boundaries with nothing shared but the wire.
//!
//! The coordinator keeps a [`WorkerPool`] of `K` long-lived workers,
//! one loopback connection each; every round respawns the lanes that
//! are down, writes one [`Task`] down every lane and takes back one
//! reply per worker. Workers are either in-process threads (always
//! available; still full TCP + text frames) or spawned `camelot-node`
//! processes ([`WorkerMode::Process`]), in which case every node runs
//! in its own OS process and reconstructs the round from the task
//! message alone — the paper's "common input" made literal.
//!
//! This module holds the worker side of the protocol
//! ([`serve_worker_loop`], which inflicts a task's chaos effect on its
//! own reply), the message reader both sides share, and the process
//! plumbing: accepting a worker's connection under a deadline and
//! reaping a worker that was told to exit. How a round's replies are
//! waited for and judged is the pool's and its drain's business.
//!
//! Socket rounds require wire-expressible polynomials
//! ([`RoundEval::programs`]); closures cannot cross a process boundary.

use crate::chaos::{worker_action, ChaosEffect, ChaosPlan, WorkerAction};
use crate::frame::read_frame;
use crate::retry::{Deadline, TransportTuning};
use crate::round::{assemble_round, node_slice, RoundEval, RoundOutcome, RoundSpec};
use crate::transport::drain::Read;
use crate::transport::pool::WorkerPool;
use crate::transport::{
    check_chaos, encode_reply, execute_task, EvalProgram, Task, Transport, TransportError,
    SHUTDOWN_HEADER,
};
use std::io::{BufRead, BufReader, ErrorKind, Read as _, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, ExitStatus};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// How socket workers are started.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WorkerMode {
    /// In-process worker threads serving real loopback TCP connections.
    Threads,
    /// One spawned worker process per node, running the given
    /// `camelot-node` binary.
    Process(PathBuf),
}

/// The loopback-socket backend.
///
/// The first round lazily starts a [`WorkerPool`] whose workers outlive
/// rounds ([`serve_worker_loop`]), and every later round reuses the
/// same connections until an explicit
/// [`SocketTransport::shutdown_pool`] or the last clone is dropped.
#[derive(Clone, Debug)]
pub struct SocketTransport {
    mode: WorkerMode,
    /// Shared pool state (`None` means "not started yet").
    pool: Arc<Mutex<Option<WorkerPool>>>,
    tuning: TransportTuning,
    chaos: Option<ChaosPlan>,
}

impl SocketTransport {
    /// Overrides the transport tuning (I/O deadline, demotion).
    #[must_use]
    pub fn with_tuning(mut self, tuning: TransportTuning) -> Self {
        self.tuning = tuning;
        self
    }

    /// Installs a chaos plan: each afflicted worker sabotages its own
    /// reply sender-side (over real TCP), and the coordinator demotes
    /// senders whose sabotage makes them unreadable.
    #[must_use]
    pub fn with_chaos(mut self, chaos: Option<ChaosPlan>) -> Self {
        self.chaos = chaos;
        self
    }

    /// Whether dead/unreadable remotes are demoted to crash instead of
    /// failing the round: explicit opt-in, or implied by a chaos plan
    /// (injected faults are meant to be survived).
    fn demote(&self) -> bool {
        self.chaos.is_some() || self.tuning.demote_dead_nodes
    }

    /// A socket transport: the first round starts a [`WorkerPool`]
    /// sized to the round's cluster, and later rounds reuse its
    /// long-lived workers. Clones share the same pool.
    #[must_use]
    pub fn persistent(mode: WorkerMode) -> Self {
        SocketTransport {
            mode,
            pool: Arc::new(Mutex::new(None)),
            tuning: TransportTuning::default(),
            chaos: None,
        }
    }

    /// Locks the pool state (`None` before the first round).
    fn pool_state(&self) -> MutexGuard<'_, Option<WorkerPool>> {
        self.pool.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Gracefully shuts the pool down: every worker receives an
    /// explicit shutdown frame and is joined/reaped, the workers of
    /// lanes retired earlier included; only a worker process that is
    /// still running one I/O deadline later is killed, so the call
    /// always returns. A no-op for an unstarted pool.
    ///
    /// # Errors
    ///
    /// The first teardown failure (a worker that exited uncleanly or
    /// had to be killed).
    pub fn shutdown_pool(&self) -> Result<(), TransportError> {
        match self.pool_state().take() {
            Some(mut pool) => pool.shutdown(),
            None => Ok(()),
        }
    }

    /// Lifetime count of pool worker respawns at round start (0 without
    /// a pool).
    #[must_use]
    pub fn pool_respawns(&self) -> usize {
        self.pool_state().as_ref().map_or(0, WorkerPool::respawns)
    }

    /// Number of currently live pool workers (0 without a pool).
    #[must_use]
    pub fn pool_live_workers(&self) -> usize {
        self.pool_state().as_ref().map_or(0, WorkerPool::live_workers)
    }

    /// The pool nodes that ran out the previous round's deadline and are
    /// waited for only as long as the trusted lanes, until they answer
    /// again (empty without a pool).
    #[must_use]
    pub fn pool_suspects(&self) -> Vec<usize> {
        self.pool_state().as_ref().map_or_else(Vec::new, WorkerPool::suspects)
    }

    /// Chaos hook: forcibly takes down pool worker `node` (hard-kills a
    /// process worker, disconnects a thread worker), simulating a crash.
    /// The next round respawns it before its tasks go out.
    ///
    /// # Errors
    ///
    /// [`TransportError::Protocol`] when no pool is running or the node
    /// is out of range.
    pub fn kill_pool_worker(&self, node: usize) -> Result<(), TransportError> {
        match self.pool_state().as_mut() {
            Some(pool) => pool.kill_worker(node),
            None => Err(TransportError::Protocol {
                reason: "no persistent worker pool is running".to_string(),
            }),
        }
    }
}

/// Capacity of the buffered reader at either end of a lane. A frame is
/// read a line at a time into a `String` of its own, so the buffer only
/// batches reads; a small one keeps a lane's two readers (the worker's
/// and the coordinator's reader thread) from holding 8 KiB each.
pub(crate) const LANE_BUFFER: usize = 1024;

pub(crate) fn io_err(what: &str, err: &std::io::Error) -> TransportError {
    TransportError::Io { reason: format!("{what}: {err}") }
}

/// Reads one v1 message (through its `end` line) from a buffered
/// stream; `Ok(None)` on a clean EOF at a message boundary.
pub(crate) fn read_message_or_eof<R: BufRead>(
    reader: &mut R,
) -> Result<Option<String>, TransportError> {
    read_frame(reader).map_err(|e| match e.kind() {
        // A message cut short, or one past the frame cap or not UTF-8,
        // is the sender's protocol violation.
        ErrorKind::UnexpectedEof | ErrorKind::InvalidData => {
            TransportError::Protocol { reason: e.to_string() }
        }
        _ => io_err("reading message", &e),
    })
}

/// Reads lane `node`'s next message as the coordinator's reader does. A
/// clean close at a message boundary is an I/O failure: the worker
/// dropped its frame, reset the connection, or exited.
pub(crate) fn read_reply<R: BufRead>(reader: &mut R, node: usize) -> Read {
    read_message_or_eof(reader)?.ok_or_else(|| TransportError::Io {
        reason: format!("worker {node} closed before replying"),
    })
}

/// Performs a resolved [`WorkerAction`] on the worker's stream: the
/// sender-side sabotage over real TCP. Returns `false` when the action
/// ends with the connection closed (mute, drop/reset, truncation).
fn perform_action(stream: &mut TcpStream, action: WorkerAction) -> Result<bool, TransportError> {
    match action {
        WorkerAction::Deliver { text, copies, delay_ms } => {
            if delay_ms > 0 {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "the simulated slow worker of ChaosEffect::Delay: the sleep is the \
                              injected fault itself, worker-side, bounded by the configured \
                              deadline (a longer delay resolves to Mute, which waits on its \
                              connection)"
                )]
                std::thread::sleep(Duration::from_millis(delay_ms));
            }
            for _ in 0..copies {
                stream.write_all(text.as_bytes()).map_err(|e| io_err("writing reply", &e))?;
            }
            stream.flush().map_err(|e| io_err("writing reply", &e))?;
            Ok(true)
        }
        WorkerAction::Mute { sleep_ms } => {
            // Hold the connection open silently — the hang, as the
            // coordinator's deadline observes it — until the coordinator
            // gives up on this connection (its shutdown frame or EOF
            // wakes the read), at most `sleep_ms`. The worker exits
            // right after, so the timer outlives nothing.
            let timeout = Some(Duration::from_millis(sleep_ms));
            stream.set_read_timeout(timeout).map_err(|e| io_err("set timeout", &e))?;
            while stream.read(&mut [0u8; 1]).is_err_and(|e| e.kind() == ErrorKind::Interrupted) {}
            Ok(false)
        }
        WorkerAction::Close => Ok(false),
        WorkerAction::Partial { text } => {
            stream
                .write_all(text.as_bytes())
                .and_then(|()| stream.flush())
                .map_err(|e| io_err("writing partial reply", &e))?;
            Ok(false)
        }
    }
}

impl WorkerAction {
    /// What node `node`'s lane reader hands the drain when the worker
    /// performs this action, and when, in milliseconds after the task
    /// went out: the bytes the worker puts on the wire, read as the
    /// reader reads them. A delivery arrives after its delay (a spare
    /// copy is never taken), a close or a cut at once, and a mute worker
    /// never.
    pub(crate) fn arrival(self, node: usize) -> Option<(u64, usize, Read)> {
        let (at, bytes) = match self {
            WorkerAction::Deliver { text, delay_ms, .. } => (delay_ms, text),
            WorkerAction::Mute { .. } => return None,
            WorkerAction::Close => (0, String::new()),
            WorkerAction::Partial { text } => (0, text),
        };
        Some((at, node, read_reply(&mut bytes.as_bytes(), node)))
    }
}

/// Serves tasks on one connection until the coordinator sends an
/// explicit `camelot-shutdown v1` frame or closes the connection at a
/// message boundary (both are clean exits). Each task is executed and
/// answered with the task's chaos effect (if any) inflicted on the
/// reply sender-side, exactly like the algebraic faults. The entire
/// worker side of the protocol; `camelot-node` is a thin wrapper around
/// this.
///
/// # Errors
///
/// I/O failures, malformed tasks, and mid-message disconnects.
pub fn serve_worker_loop(stream: TcpStream) -> Result<(), TransportError> {
    let read_half = stream.try_clone().map_err(|e| io_err("clone stream", &e))?;
    let mut reader = BufReader::with_capacity(LANE_BUFFER, read_half);
    let mut stream = stream;
    loop {
        let Some(text) = read_message_or_eof(&mut reader)? else {
            return Ok(());
        };
        if text.lines().next() == Some(SHUTDOWN_HEADER) {
            return Ok(());
        }
        let task = Task::from_wire(&text)?;
        let frames = execute_task(&task);
        let action =
            worker_action(task.chaos, task.deadline_ms, task.modulus, encode_reply(&frames));
        if !perform_action(&mut stream, action)? {
            // Chaos ended with the connection closed; this lane dies
            // with it and the coordinator demotes the node. A clean
            // worker exit, by design.
            return Ok(());
        }
    }
}

/// Builds node `node`'s work order for one round: its balanced slice of
/// the evaluation points plus the round-wide parameters.
pub(crate) fn task_for_node(
    spec: &RoundSpec<'_>,
    programs: &[EvalProgram],
    nodes: usize,
    node: usize,
    chaos: Option<ChaosEffect>,
    deadline_ms: u64,
) -> Task {
    let (lo, hi) = node_slice(spec.points.len(), nodes, node);
    Task {
        modulus: spec.field.modulus(),
        nodes,
        node,
        fault: spec.plan.try_kind(node).unwrap_or(crate::FaultKind::Honest),
        programs: programs.to_vec(),
        lo,
        points: spec.points.get(lo..hi).unwrap_or(&[]).to_vec(),
        chaos,
        deadline_ms,
    }
}

/// Ceiling of the exponential poll backoff in [`accept_with_deadline`]
/// and [`reap_child`].
const POLL_CAP: Duration = Duration::from_millis(16);

/// Reaps a worker process that has been told to exit (shutdown frame,
/// closed connection): it gets until `grace` to go on its own, then it
/// is killed — a worker that ignores both must not hold the coordinator
/// hostage.
pub(crate) fn reap_child(child: &mut Child, grace: Deadline) -> std::io::Result<ExitStatus> {
    let mut pause = Duration::from_micros(200);
    loop {
        if let Some(status) = child.try_wait()? {
            return Ok(status);
        }
        if grace.expired() {
            child.kill()?;
            return child.wait();
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "std has no wait timeout, so the bounded grace before a stuck worker process \
                      is killed polls try_wait; it runs only in pool shutdown/Drop and in the \
                      retired-lane sweep, which calls it once the grace has run out so it kills \
                      without sleeping; never between a task and its reply"
        )]
        std::thread::sleep(pause);
        pause = (pause * 2).min(POLL_CAP);
    }
}

impl Transport for SocketTransport {
    fn name(&self) -> &'static str {
        match self.mode {
            WorkerMode::Threads => "socket",
            WorkerMode::Process(_) => "socket-process",
        }
    }

    fn run(
        &self,
        spec: &RoundSpec<'_>,
        eval: &dyn RoundEval,
    ) -> Result<RoundOutcome, TransportError> {
        let programs = eval.programs().ok_or(TransportError::NotWireExpressible)?;
        let nodes = spec.plan.nodes();
        check_chaos(self.chaos.as_ref(), nodes)?;

        // Lazily start (or resize) the shared pool and run the round
        // over its long-lived workers.
        let mut guard = self.pool_state();
        let stale = match guard.as_ref() {
            Some(pool) => pool.nodes() != nodes,
            None => false,
        };
        if stale {
            if let Some(mut old) = guard.take() {
                old.shutdown()?;
            }
        }
        let pool = match guard.as_mut() {
            Some(pool) => pool,
            None => guard.insert(WorkerPool::start(self.mode.clone(), nodes, self.tuning.clone())?),
        };
        let (frames, demotions) =
            pool.run_round(spec, &programs, self.chaos.as_ref(), self.demote())?;
        Ok(assemble_round(spec, programs.len(), frames, demotions))
    }
}

/// Accepts worker `node`'s connection with a deadline — `accept` itself
/// must not hang when a worker dies before connecting (a spawned binary
/// that exits at startup, a thread whose connect failed). Polls in
/// non-blocking mode and fails fast when the worker's process, if it
/// has one, has already exited with a failure status.
pub(crate) fn accept_with_deadline(
    listener: &TcpListener,
    node: usize,
    mut child: Option<&mut Child>,
    io_deadline: Duration,
) -> Result<TcpStream, TransportError> {
    listener.set_nonblocking(true).map_err(|e| io_err("set nonblocking", &e))?;
    let deadline = Deadline::after(io_deadline);
    // Exponential poll backoff: tight while a worker is expected any
    // microsecond (the common loopback case), relaxed toward a 16 ms
    // cap while genuinely waiting — replaces the old fixed 2 ms sleep.
    let mut poll = Duration::from_micros(500);
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false).map_err(|e| io_err("set blocking", &e))?;
                return Ok(stream);
            }
            Err(err) if err.kind() == ErrorKind::WouldBlock => {
                // A worker that exited nonzero before connecting will
                // never connect; report it instead of running out the
                // clock. (A worker exits zero only once it has served a
                // connection.)
                let exited = child.as_mut().and_then(|child| child.try_wait().ok().flatten());
                if let Some(status) = exited.filter(|status| !status.success()) {
                    let reason = format!("exit status {status} before connecting");
                    return Err(TransportError::WorkerFailed { node, reason });
                }
                if deadline.expired() {
                    return Err(TransportError::TimedOut {
                        reason: "timed out waiting for a worker to connect".to_string(),
                    });
                }
                #[expect(
                    clippy::disallowed_methods,
                    reason = "std has no accept timeout, so a worker handshake polls a \
                              non-blocking listener with exponential backoff against its \
                              deadline; it runs at pool start and lane respawn, once per worker, \
                              not per reply"
                )]
                std::thread::sleep(poll);
                poll = (poll * 2).min(POLL_CAP);
            }
            Err(err) => return Err(io_err("accepting worker", &err)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round::ProgramEval;
    use crate::transport::EvalProgram;
    use crate::{ClusterConfig, FaultKind, FaultPlan};
    use camelot_ff::PrimeField;

    /// The historical hardcoded coordinator timeout, the reference point
    /// for fast-failure assertions.
    const SOCKET_TIMEOUT: Duration = Duration::from_secs(60);

    /// A socket round over loopback TCP must be bit-identical to the
    /// in-process bus on a mixed fault plan, multi-polynomial included.
    #[test]
    fn socket_round_matches_in_process() {
        let field = PrimeField::new(1_000_003).unwrap();
        let points: Vec<u64> = (0..31).collect();
        let plan = FaultPlan::with_faults(
            7,
            &[
                (1, FaultKind::Crash),
                (2, FaultKind::Corrupt { seed: 11 }),
                (3, FaultKind::Adversarial { offset: 4 }),
                (5, FaultKind::Equivocate { seed: 12 }),
            ],
        );
        let spec = RoundSpec { field: &field, points: &points, plan: &plan };
        let eval = ProgramEval::new(
            &field,
            vec![EvalProgram::Poly(vec![3, 1, 4]), EvalProgram::Poly(vec![9, 0, 0, 2])],
        );
        let reference = ClusterConfig::sequential(7).transport().run(&spec, &eval).unwrap();
        let socket = SocketTransport::persistent(WorkerMode::Threads).run(&spec, &eval).unwrap();
        assert_eq!(socket.broadcasts.len(), 2);
        for (s, r) in socket.broadcasts.iter().zip(&reference.broadcasts) {
            assert!(s.same_word(r), "socket round diverged from the in-process bus");
            for receiver in 0..7 {
                assert_eq!(s.view_for(receiver), r.view_for(receiver));
            }
        }
        assert_eq!(socket.traffic, reference.traffic);
    }

    /// Closures cannot cross the socket boundary.
    #[test]
    fn socket_rejects_closures() {
        let field = PrimeField::new(97).unwrap();
        let points: Vec<u64> = (0..8).collect();
        let plan = FaultPlan::all_honest(2);
        let spec = RoundSpec { field: &field, points: &points, plan: &plan };
        let transport = SocketTransport::persistent(WorkerMode::Threads);
        let err = transport.run(&spec, &crate::round::SingleEval(|x| x)).unwrap_err();
        assert_eq!(err, TransportError::NotWireExpressible);
    }

    /// A missing worker binary surfaces as a worker failure, not a hang.
    #[test]
    fn missing_worker_binary_fails_fast() {
        let field = PrimeField::new(97).unwrap();
        let points: Vec<u64> = (0..4).collect();
        let plan = FaultPlan::all_honest(2);
        let spec = RoundSpec { field: &field, points: &points, plan: &plan };
        let eval = ProgramEval::new(&field, vec![EvalProgram::Poly(vec![1])]);
        let binary = PathBuf::from("/nonexistent/camelot-node");
        let transport = SocketTransport::persistent(WorkerMode::Process(binary));
        assert!(matches!(transport.run(&spec, &eval), Err(TransportError::WorkerFailed { .. })));
    }

    /// A persistent transport starts its worker pool once, reuses it
    /// across rounds bit-identically, and shuts it down gracefully.
    #[test]
    fn persistent_pool_reuses_workers_across_rounds() {
        let field = PrimeField::new(1_000_003).unwrap();
        let points: Vec<u64> = (0..31).collect();
        let plan = FaultPlan::with_faults(
            5,
            &[(1, FaultKind::Crash), (3, FaultKind::Corrupt { seed: 7 })],
        );
        let spec = RoundSpec { field: &field, points: &points, plan: &plan };
        let eval = ProgramEval::new(&field, vec![EvalProgram::Poly(vec![3, 1, 4])]);
        let reference = ClusterConfig::sequential(5).transport().run(&spec, &eval).unwrap();
        let transport = SocketTransport::persistent(WorkerMode::Threads);
        assert_eq!(transport.name(), "socket");
        assert_eq!(transport.pool_live_workers(), 0, "pool starts lazily");
        for _ in 0..3 {
            let outcome = transport.run(&spec, &eval).unwrap();
            assert!(outcome.broadcasts[0].same_word(&reference.broadcasts[0]));
            assert_eq!(outcome.traffic, reference.traffic);
        }
        assert_eq!(transport.pool_live_workers(), 5, "workers outlive rounds");
        assert_eq!(transport.pool_respawns(), 0);
        transport.shutdown_pool().unwrap();
        assert_eq!(transport.pool_live_workers(), 0);
        // Idempotent: a second shutdown is a no-op.
        transport.shutdown_pool().unwrap();
    }

    /// A killed pool worker is respawned by the next round, which
    /// succeeds with the word from before the kill.
    #[test]
    fn a_killed_pool_worker_is_respawned_by_the_next_round() {
        let field = PrimeField::new(1_000_003).unwrap();
        let points: Vec<u64> = (0..16).collect();
        let plan = FaultPlan::all_honest(3);
        let spec = RoundSpec { field: &field, points: &points, plan: &plan };
        let eval = ProgramEval::new(&field, vec![EvalProgram::Poly(vec![1, 2])]);
        let transport = SocketTransport::persistent(WorkerMode::Threads);
        let first = transport.run(&spec, &eval).unwrap();
        transport.kill_pool_worker(1).unwrap();
        assert_eq!(transport.pool_live_workers(), 2);
        let again = transport.run(&spec, &eval).unwrap();
        assert!(again.broadcasts[0].same_word(&first.broadcasts[0]));
        assert_eq!(transport.pool_respawns(), 1);
        assert_eq!(transport.pool_live_workers(), 3);
        transport.shutdown_pool().unwrap();
    }

    /// A worker that spawns but exits (nonzero) without ever connecting
    /// must be reported promptly — the accept loop may not run out the
    /// full socket timeout.
    #[test]
    fn worker_dying_before_connecting_fails_fast() {
        let field = PrimeField::new(97).unwrap();
        let points: Vec<u64> = (0..4).collect();
        let plan = FaultPlan::all_honest(2);
        let spec = RoundSpec { field: &field, points: &points, plan: &plan };
        let eval = ProgramEval::new(&field, vec![EvalProgram::Poly(vec![1])]);
        // `false` spawns fine and exits 1 immediately, never connecting.
        let binary = PathBuf::from("/bin/false");
        let transport = SocketTransport::persistent(WorkerMode::Process(binary));
        let start = std::time::Instant::now();
        let err = transport.run(&spec, &eval).unwrap_err();
        assert!(matches!(err, TransportError::WorkerFailed { .. }), "{err}");
        assert!(start.elapsed() < SOCKET_TIMEOUT / 2, "must fail fast, not run out the clock");
    }
}
