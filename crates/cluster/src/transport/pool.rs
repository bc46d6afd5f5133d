//! The persistent worker pool behind [`SocketTransport::persistent`]:
//! long-lived loopback workers that outlive individual rounds.
//!
//! Each lane is one worker (thread or spawned `camelot-node` process)
//! holding one TCP connection for its whole life. Rounds write
//! a [`Task`] frame down every lane and read one reply back; between
//! rounds the lanes idle inside [`serve_worker_loop`]. Health checks
//! use `camelot-ping v1`/`camelot-pong v1`, and teardown is always an
//! explicit `camelot-shutdown v1` frame plus a closed connection. A
//! retired lane's worker is reaped *off the round's critical path*:
//! its handle waits on a pool-owned list that is swept without blocking
//! at round boundaries and drained in [`WorkerPool::shutdown`]; a
//! worker process that has ignored both signals for a whole I/O
//! deadline by then is killed. The only other hard kill is the
//! [`WorkerPool::kill_worker`] chaos hook, whose entire purpose is
//! simulating a crashed node.
//!
//! # A deadline is spent once
//!
//! The pool keeps one bit per node, *suspect*: "this lane ran out the
//! previous round's deadline". It changes only the order and the
//! patience of the reply drain in [`WorkerPool::run_round`]:
//!
//! 1. *When a node becomes a suspect.* Only where the drain demotes its
//!    lane with [`FailureCause::Timeout`]. `Reset`, `Protocol` and
//!    `RespawnExhausted` demotions cost the round no wait and set
//!    nothing. A lane whose reply is collected and validated is trusted
//!    again. A failed fail-fast round, which scraps every lane, clears
//!    every bit, and a pool restarted for another cluster size starts
//!    clean.
//! 2. *What stays as it is.* Everything up to the flush of the last
//!    task: down lanes get their one respawn attempt, suspects still
//!    get their task (a recovered node must be able to rejoin), and the
//!    round's one deadline starts when the last task is flushed.
//! 3. *The drain.* Trusted lanes first, in node order, under the
//!    round's deadline; then the suspects, in node order. Once a
//!    trusted lane has delivered, a suspect is read with what has
//!    arrived — no wait, no socket timer. If no trusted lane delivered
//!    (every lane is a suspect, or every trusted lane failed) the
//!    suspects are read under the round's deadline like anyone else:
//!    there is nothing to measure them against, and a round must never
//!    demote every node in zero time.
//! 4. *Why it is safe.* A suspect's demotion is an erasure like any
//!    other. A node that recovered but was still slower than every
//!    trusted lane costs its share of the symbols for one more round
//!    and is tried again in the next; it is read after every trusted
//!    reply has been read and parsed, so it rejoins unless it is the
//!    slowest by more than that. Too many erasures is a decode failure
//!    and escalation as ever — never a different answer, and never a
//!    wait past one deadline.
//!
//! So a node that stays silent costs one deadline in the round it goes
//! silent, and every later round costs what its answering nodes take.
//!
//! [`SocketTransport::persistent`]: crate::transport::SocketTransport::persistent
//! [`Task`]: crate::transport::Task

use crate::chaos::{ChaosEffect, ChaosPlan, Demotion, FailureCause};
use crate::retry::{Deadline, TransportTuning};
use crate::round::{NodeFrames, RoundSpec};
use crate::transport::socket::{
    accept_with_deadline, arm, io_err, read_message, read_message_or_eof, reap_child,
    serve_worker_loop, task_for_node, DeadlineStream, LaneReader, Patience, ReplyDrain, WorkerMode,
};
use crate::transport::{
    control_frame, EvalProgram, TransportError, PING_HEADER, PONG_HEADER, SHUTDOWN_HEADER,
};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;

/// What it takes to reap a worker, per mode.
#[derive(Debug)]
enum WorkerHandle {
    Process(Child),
    Thread(JoinHandle<Result<(), TransportError>>),
}

impl WorkerHandle {
    /// Reaps the worker if it has already exited — or is a process that
    /// has overstayed its `grace`, which is killed; hands the handle
    /// back if it is still running. Never waits for a worker to exit
    /// on its own.
    fn reap_if_finished(mut self, grace: Deadline) -> Option<WorkerHandle> {
        let finished = match &mut self {
            WorkerHandle::Process(child) if grace.expired() => reap_child(child, grace).is_ok(),
            // A child that cannot be polled cannot be waited for either.
            WorkerHandle::Process(child) => !matches!(child.try_wait(), Ok(None)),
            WorkerHandle::Thread(thread) => thread.is_finished(),
        };
        if !finished {
            return Some(self);
        }
        if let WorkerHandle::Thread(thread) = self {
            // Retired means its failure is already booked.
            let _joined = thread.join();
        }
        None
    }

    /// Blocks until the worker is gone and says how it went. A process
    /// gets until `grace` to exit on its own and is then killed. A
    /// thread is joined: it runs [`serve_worker_loop`], which returns
    /// once its connection is closed.
    fn reap(self, grace: Deadline) -> Result<(), String> {
        match self {
            WorkerHandle::Process(mut child) => match reap_child(&mut child, grace) {
                Ok(status) if status.success() => Ok(()),
                Ok(status) => Err(format!("exit status {status}")),
                Err(e) => Err(format!("waiting for worker: {e}")),
            },
            WorkerHandle::Thread(thread) => match thread.join() {
                Ok(Ok(())) => Ok(()),
                Ok(Err(e)) => Err(e.to_string()),
                Err(_) => Err("worker thread panicked".to_string()),
            },
        }
    }
}

/// One long-lived worker: its task/reply connection plus the handle
/// needed to reap it.
#[derive(Debug)]
struct PoolLane {
    stream: TcpStream,
    reader: LaneReader,
    worker: WorkerHandle,
}

impl PoolLane {
    /// Writes one frame down the lane.
    fn send(&mut self, frame: &str) -> std::io::Result<()> {
        self.stream.write_all(frame.as_bytes()).and_then(|()| self.stream.flush())
    }

    /// The second half of a health check: the pong for a ping already
    /// sent, read under `deadline`.
    fn pong(&mut self, deadline: Deadline) -> bool {
        arm(&mut self.reader, Patience::Until(deadline));
        match read_message(&mut self.reader) {
            Ok(text) => text.lines().next() == Some(PONG_HEADER),
            Err(_) => false,
        }
    }

    /// Tells the worker to exit — shutdown frame, then the closed
    /// connection — and hands back what is needed to reap it, without
    /// waiting for it. There is no error channel here by design: a
    /// worker that cannot take the frame is already gone or will see
    /// EOF, an equally valid shutdown signal.
    fn retire(mut self) -> WorkerHandle {
        let _delivered = self.send(&control_frame(SHUTDOWN_HEADER));
        self.worker
    }
}

/// A pool of `K` persistent socket workers sharing one coordinator
/// listener. Started lazily by [`SocketTransport::persistent`] on the
/// first round; every later round reuses the same connections until an
/// explicit shutdown.
///
/// [`SocketTransport::persistent`]: crate::transport::SocketTransport::persistent
#[derive(Debug)]
pub struct WorkerPool {
    listener: TcpListener,
    addr: SocketAddr,
    mode: WorkerMode,
    /// One slot per node; `None` marks a lane that is down (killed or
    /// scrapped) and awaiting [`WorkerPool::ensure_ready`].
    lanes: Vec<Option<PoolLane>>,
    /// One bit per node: its lane ran out the previous round's deadline
    /// (see the module docs).
    suspect: Vec<bool>,
    /// Workers of retired lanes that have been told to exit and not yet
    /// been reaped, each with the grace it has left before it is
    /// killed. Swept at every round boundary, so it holds no more than
    /// the workers retired within the last I/O deadline.
    retired: Vec<(WorkerHandle, Deadline)>,
    respawns: usize,
    tuning: TransportTuning,
}

impl WorkerPool {
    /// Starts a pool of `nodes` persistent workers in the given mode,
    /// with `tuning` governing handshake and per-round I/O deadlines.
    ///
    /// # Errors
    ///
    /// Worker spawn/handshake failures; workers already started are
    /// shut down gracefully before the error returns.
    pub fn start(
        mode: WorkerMode,
        nodes: usize,
        tuning: TransportTuning,
    ) -> Result<WorkerPool, TransportError> {
        let listener =
            TcpListener::bind("127.0.0.1:0").map_err(|e| io_err("binding listener", &e))?;
        let addr = listener.local_addr().map_err(|e| io_err("local addr", &e))?;
        let mut pool = WorkerPool {
            listener,
            addr,
            mode,
            lanes: Vec::new(),
            suspect: vec![false; nodes],
            retired: Vec::new(),
            respawns: 0,
            tuning,
        };
        for node in 0..nodes {
            // On failure the partial pool is dropped, and Drop shuts
            // the already-started lanes down gracefully.
            let lane = pool.spawn_lane(node)?;
            pool.lanes.push(Some(lane));
        }
        Ok(pool)
    }

    /// The cluster size this pool was started for.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.lanes.len()
    }

    /// Lifetime count of lanes respawned by [`WorkerPool::ensure_ready`].
    #[must_use]
    pub fn respawns(&self) -> usize {
        self.respawns
    }

    /// Number of lanes currently holding a live worker.
    #[must_use]
    pub fn live_workers(&self) -> usize {
        self.lanes.iter().filter(|slot| slot.is_some()).count()
    }

    /// The nodes whose lanes ran out the previous round's deadline, in
    /// node order: the next drain reads them last, without a wait of
    /// their own.
    #[must_use]
    pub fn suspects(&self) -> Vec<usize> {
        let marked = self.suspect.iter().enumerate();
        marked.filter_map(|(node, &suspect)| suspect.then_some(node)).collect()
    }

    /// Spawns one worker and completes its handshake (the worker
    /// connects back to the pool listener).
    fn spawn_lane(&self, node: usize) -> Result<PoolLane, TransportError> {
        let addr = self.addr;
        let mut worker = match &self.mode {
            WorkerMode::Threads => WorkerHandle::Thread(std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).map_err(|e| io_err("worker connect", &e))?;
                serve_worker_loop(stream)
            })),
            WorkerMode::Process(bin) => WorkerHandle::Process(
                Command::new(bin)
                    .arg("--connect")
                    .arg(addr.to_string())
                    .stdin(Stdio::null())
                    .spawn()
                    .map_err(|err| TransportError::WorkerFailed {
                        node,
                        reason: format!("spawning {}: {err}", bin.display()),
                    })?,
            ),
        };
        let children: &mut [Child] = match &mut worker {
            WorkerHandle::Process(child) => std::slice::from_mut(child),
            WorkerHandle::Thread(_) => &mut [],
        };
        let accepted = accept_with_deadline(&self.listener, children, self.tuning.io_deadline)
            .map_err(|err| match err {
                // accept_with_deadline indexes into its slice of one.
                TransportError::WorkerFailed { reason, .. } => {
                    TransportError::WorkerFailed { node, reason }
                }
                other => other,
            });
        let stream = match accepted {
            Ok(stream) => stream,
            Err(err) => {
                if let WorkerHandle::Process(mut child) = worker {
                    // The worker failed its handshake, so there is no
                    // connection to send a shutdown frame down; a hard
                    // kill is the only way to avoid leaking it (best
                    // effort — it is most likely already gone).
                    let _killed = child.kill();
                    let _reaped = child.wait();
                }
                return Err(err);
            }
        };
        let reader =
            DeadlineStream::reader(stream.try_clone().map_err(|e| io_err("clone stream", &e))?);
        Ok(PoolLane { stream, reader, worker })
    }

    /// Respawns lane `node` into its (empty) slot.
    fn respawn_lane(&mut self, node: usize) -> Result<(), TransportError> {
        let lane = self.spawn_lane(node)?;
        if let Some(slot) = self.lanes.get_mut(node) {
            *slot = Some(lane);
            self.respawns += 1;
        }
        Ok(())
    }

    /// Health-checks every lane and respawns the dead ones. Returns how
    /// many lanes were respawned. All lanes are pinged first and the
    /// pongs collected under one I/O deadline, so the check costs one
    /// deadline however many workers are hung.
    ///
    /// # Errors
    ///
    /// A respawn failure (e.g. the worker binary disappeared); lanes
    /// already respawned stay live.
    pub fn ensure_ready(&mut self) -> Result<usize, TransportError> {
        self.reap_finished();
        let ping = control_frame(PING_HEADER);
        for node in 0..self.lanes.len() {
            let lane = self.lanes.get_mut(node).and_then(Option::as_mut);
            if lane.is_some_and(|lane| lane.send(&ping).is_err()) {
                self.retire_lane(node);
            }
        }
        let deadline = Deadline::after(self.tuning.io_deadline);
        let mut dead = Vec::new();
        for node in 0..self.lanes.len() {
            let alive =
                self.lanes.get_mut(node).and_then(Option::as_mut).is_some_and(|l| l.pong(deadline));
            if !alive {
                self.retire_lane(node);
                dead.push(node);
            }
        }
        for node in dead.iter().copied() {
            self.respawn_lane(node)?;
        }
        Ok(dead.len())
    }

    /// Runs one broadcast round over the persistent lanes: writes every
    /// node's task first (workers compute concurrently), then drains
    /// and validates the replies — trusted lanes in node order, then
    /// last round's silent ones — under one deadline that starts when
    /// the last task has been flushed. A round costs at most one I/O
    /// deadline however many nodes hang, drop or trickle, and a node
    /// that stays silent costs it once, not once a round (see the
    /// module docs). Chaos effects ride in the tasks; the afflicted
    /// workers sabotage their own replies.
    ///
    /// # Errors
    ///
    /// Without demotion (`demote == false`, the legacy fail-fast mode),
    /// a down lane or a worker I/O/protocol failure surfaces as
    /// [`TransportError::WorkerFailed`] naming the node, and any
    /// failure scraps *all* lanes — survivors may hold undelivered
    /// tasks or unread replies, so their streams are no longer at a
    /// frame boundary — until the next [`WorkerPool::ensure_ready`]
    /// brings the pool back byte-aligned.
    ///
    /// With demotion enabled, per-node failures retire *only* the
    /// failed lane (every survivor is still at a frame boundary) and
    /// book a [`Demotion`] with the structured cause; down lanes get
    /// one respawn attempt at round start, and a lane that cannot come
    /// back is demoted with [`FailureCause::RespawnExhausted`]. The
    /// round then completes via erasure decoding. Retiring never waits
    /// for the worker: it is reaped at a later round boundary.
    pub fn run_round(
        &mut self,
        spec: &RoundSpec<'_>,
        programs: &[EvalProgram],
        chaos: Option<&ChaosPlan>,
        demote: bool,
    ) -> Result<(Vec<NodeFrames>, Vec<Demotion>), TransportError> {
        let nodes = self.lanes.len();
        let deadline_ms = self.tuning.deadline_ms();
        let mut drain = ReplyDrain::new(nodes, spec.points.len(), programs.len(), demote);
        self.reap_finished();

        // With demotion enabled, give every down lane one respawn
        // attempt before the round starts.
        if demote {
            for node in 0..nodes {
                if self.lanes.get(node).is_some_and(Option::is_none)
                    && self.respawn_lane(node).is_err()
                {
                    drain.demote_node(node, FailureCause::RespawnExhausted);
                }
            }
        }

        for node in 0..nodes {
            if drain.is_demoted(node) {
                continue;
            }
            let effect = chaos.and_then(|plan| plan.effect(node));
            let wire = task_for_node(spec, programs, nodes, node, effect, deadline_ms).to_wire();
            let delivered = match self.lanes.get_mut(node).and_then(Option::as_mut) {
                None => Err(TransportError::WorkerFailed {
                    node,
                    reason: "lane is down (awaiting respawn)".to_string(),
                }),
                Some(lane) => lane.send(&wire).map_err(|err| TransportError::WorkerFailed {
                    node,
                    reason: format!("writing task: {err}"),
                }),
            };
            if let Err(err) = delivered {
                if !demote {
                    return Err(self.fail_round(err));
                }
                self.retire_lane(node);
                drain.demote_node(node, FailureCause::from_transport(&err));
            }
        }

        let deadline = Deadline::after(self.tuning.io_deadline);
        // A stable partition: trusted lanes in node order, then suspects.
        let mut order: Vec<usize> = (0..nodes).collect();
        order.sort_by_key(|&node| self.suspect.get(node) == Some(&true));
        let mut yardstick = false;
        for node in order {
            // Every lane still in the round took its task above.
            let Some(lane) = self.lanes.get_mut(node).and_then(Option::as_mut) else { continue };
            let Some(suspect) = self.suspect.get_mut(node) else { continue };
            // A suspect gets no wait of its own once a trusted lane has
            // shown how long an answer takes this round.
            let patience =
                if *suspect && yardstick { Patience::Arrived } else { Patience::Until(deadline) };
            let demoted = match drain.collect(node, &mut lane.reader, patience) {
                Ok(demoted) => demoted,
                Err(err) => return Err(self.fail_round(err)),
            };
            let delivered = demoted.is_none();
            yardstick |= delivered && !*suspect;
            *suspect = match demoted {
                None => false,
                Some(FailureCause::Timeout) => true,
                Some(_) => *suspect,
            };
            // A Duplicate-chaos worker sent its reply twice; drain the
            // copy so the lane stays at a frame boundary for the next
            // round. (The copy was written back-to-back with the
            // original, so a failed drain means the lane is broken.)
            let duplicated =
                chaos.and_then(|plan| plan.effect(node)) == Some(ChaosEffect::Duplicate);
            let usable =
                delivered && (!duplicated || read_message_or_eof(&mut lane.reader).is_ok());
            if !usable {
                self.retire_lane(node);
            }
        }
        Ok(drain.finish())
    }

    /// Retires exactly one lane, leaving its slot empty for a later
    /// respawn; its worker joins the retired list to be reaped off the
    /// critical path. Survivor lanes are untouched — they are still at
    /// a frame boundary.
    fn retire_lane(&mut self, node: usize) {
        if let Some(lane) = self.lanes.get_mut(node).and_then(Option::take) {
            self.retired.push((lane.retire(), Deadline::after(self.tuning.io_deadline)));
        }
    }

    /// Reaps the retired workers that have exited and kills the worker
    /// processes that have outlived their grace; never waits.
    fn reap_finished(&mut self) {
        let retired = std::mem::take(&mut self.retired);
        self.retired = retired
            .into_iter()
            .filter_map(|(worker, grace)| Some((worker.reap_if_finished(grace)?, grace)))
            .collect();
    }

    /// A round failed mid-flight: scrap every lane (graceful retire) so
    /// no stale buffered reply can desynchronise a later round — and
    /// with the lanes, what was known about them — and pass the failure
    /// through.
    fn fail_round(&mut self, err: TransportError) -> TransportError {
        for node in 0..self.lanes.len() {
            self.retire_lane(node);
        }
        self.suspect.fill(false);
        err
    }

    /// Chaos hook: forcibly takes down worker `node` — a hard kill for
    /// a process worker, a disconnect for a thread worker (which then
    /// exits on EOF). The slot stays empty, so the next round reports
    /// [`TransportError::WorkerFailed`] until
    /// [`WorkerPool::ensure_ready`] respawns the lane.
    ///
    /// # Errors
    ///
    /// [`TransportError::Protocol`] for an out-of-range node, I/O
    /// failures from the kill/reap.
    pub fn kill_worker(&mut self, node: usize) -> Result<(), TransportError> {
        let Some(slot) = self.lanes.get_mut(node) else {
            return Err(TransportError::Protocol { reason: format!("pool has no worker {node}") });
        };
        let Some(PoolLane { stream, reader, worker }) = slot.take() else {
            return Ok(()); // already down
        };
        match worker {
            WorkerHandle::Process(mut child) => {
                // The one intentional hard kill: this hook simulates a
                // crashed node, so graceful shutdown is off the table.
                child.kill().map_err(|e| io_err("killing worker", &e))?;
                child.wait().map_err(|e| io_err("reaping worker", &e))?;
            }
            WorkerHandle::Thread(thread) => {
                // A thread worker unblocks promptly: its connection is gone.
                drop((stream, reader));
                let _joined = thread.join();
            }
        }
        Ok(())
    }

    /// Shuts every lane down gracefully — explicit shutdown frame,
    /// closed connection — then reaps every worker, the previously
    /// retired ones included. All workers are told first and share one
    /// I/O deadline of grace (retired ones keep what is left of
    /// theirs); a worker process still running after it is killed, so
    /// shutdown always returns. Idempotent.
    ///
    /// # Errors
    ///
    /// The first teardown failure among the lanes live at the call — a
    /// worker that exited uncleanly or had to be killed; the remaining
    /// workers are still reaped. Retired workers' exits are not
    /// reported: their failures were booked when they were retired.
    pub fn shutdown(&mut self) -> Result<(), TransportError> {
        let live: Vec<(usize, WorkerHandle)> = self
            .lanes
            .iter_mut()
            .enumerate()
            .filter_map(|(node, slot)| slot.take().map(|lane| (node, lane.retire())))
            .collect();
        let grace = Deadline::after(self.tuning.io_deadline);
        let mut first_err = None;
        for (node, worker) in live {
            if let Err(reason) = worker.reap(grace) {
                first_err.get_or_insert(TransportError::WorkerFailed { node, reason });
            }
        }
        for (worker, grace) in self.retired.drain(..) {
            let _booked_at_retirement = worker.reap(grace);
        }
        first_err.map_or(Ok(()), Err)
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Last-resort teardown for pools dropped without an explicit
        // shutdown (e.g. a failed start); errors have nowhere to go.
        let _teardown = self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{encode_reply, execute_task, Task};
    use crate::{FaultPlan, RoundSpec};
    use camelot_ff::PrimeField;
    use std::time::{Duration, Instant};

    const NODES: usize = 4;
    const IMPOSTOR: usize = 2;

    fn tuning(io_deadline: Duration) -> TransportTuning {
        TransportTuning::default().with_io_deadline(io_deadline).with_demotion(true)
    }

    /// A thread-worker pool whose lane `IMPOSTOR` is a raw TCP peer
    /// instead: `peer` gets the worker end of the connection, `worker`
    /// is what the pool believes it has to reap.
    fn pool_with_impostor(
        io_deadline: Duration,
        peer: impl FnOnce(TcpStream) -> Result<(), TransportError> + Send + 'static,
        worker: impl FnOnce(JoinHandle<Result<(), TransportError>>) -> WorkerHandle,
    ) -> WorkerPool {
        let mut pool = WorkerPool::start(WorkerMode::Threads, NODES, tuning(io_deadline)).unwrap();
        pool.retire_lane(IMPOSTOR);
        let addr = pool.addr;
        let peer = std::thread::spawn(move || peer(TcpStream::connect(addr).unwrap()));
        let stream = accept_with_deadline(&pool.listener, &mut [], io_deadline).unwrap();
        let reader = DeadlineStream::reader(stream.try_clone().unwrap());
        pool.lanes[IMPOSTOR] = Some(PoolLane { stream, reader, worker: worker(peer) });
        pool
    }

    /// One round of a small polynomial over `pool`.
    fn round(
        pool: &mut WorkerPool,
        chaos: Option<&ChaosPlan>,
        demote: bool,
    ) -> Result<(Vec<NodeFrames>, Vec<Demotion>), TransportError> {
        let field = PrimeField::new(1_000_003).unwrap();
        let points: Vec<u64> = (0..16).collect();
        let plan = FaultPlan::all_honest(NODES);
        let spec = RoundSpec { field: &field, points: &points, plan: &plan };
        pool.run_round(&spec, &[EvalProgram::Poly(vec![3, 1, 4])], chaos, demote)
    }

    /// One demoting round over `pool` under `chaos`: its demotions and
    /// how long it took. Every node hands in frames, its own or crash
    /// frames.
    fn timed_round(pool: &mut WorkerPool, chaos: Option<&ChaosPlan>) -> (Vec<Demotion>, Duration) {
        let started = Instant::now();
        let (frames, demotions) = round(pool, chaos, true).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(frames.len(), NODES);
        (demotions, elapsed)
    }

    /// One demoting round over `pool`: everyone but the impostor
    /// delivers, the impostor is demoted with `Timeout`, and the round
    /// costs one deadline, not one per misbehaviour.
    fn round_demotes_the_impostor(pool: &mut WorkerPool, io_deadline: Duration) {
        let (demotions, elapsed) = timed_round(pool, None);
        assert_eq!(demotions, vec![Demotion { node: IMPOSTOR, cause: FailureCause::Timeout }]);
        assert!(elapsed >= io_deadline, "the impostor gets its whole deadline ({elapsed:?})");
        assert!(elapsed < io_deadline * 3 / 2, "the round must cost one deadline ({elapsed:?})");
        assert_eq!(pool.live_workers(), NODES - 1);
    }

    /// A pool after one round in which lane `IMPOSTOR` took its task
    /// and said nothing until the coordinator hung up on it: demoted
    /// with `Timeout`, and a suspect.
    fn pool_with_a_suspect(io_deadline: Duration) -> WorkerPool {
        let silent = |mut stream: TcpStream| {
            let _until_eof = std::io::copy(&mut stream, &mut std::io::sink());
            Ok(())
        };
        let mut pool = pool_with_impostor(io_deadline, silent, WorkerHandle::Thread);
        round_demotes_the_impostor(&mut pool, io_deadline);
        assert_eq!(pool.suspects(), vec![IMPOSTOR]);
        pool
    }

    /// A recovered node rejoins by answering no later than the others:
    /// the suspect's slot is respawned with an honest worker, which has
    /// its reply in by the time the slowest trusted lane (30 ms late)
    /// has been read — delivered without a wait of its own, and trusted
    /// again.
    #[test]
    fn a_recovered_suspect_rejoins_without_a_wait_of_its_own() {
        let io_deadline = Duration::from_millis(300);
        let mut pool = pool_with_a_suspect(io_deadline);
        let slow = ChaosPlan::with_effects(NODES, &[(0, ChaosEffect::Delay { millis: 30 })]);
        let (demotions, elapsed) = timed_round(&mut pool, Some(&slow.unwrap()));
        assert_eq!(demotions, vec![]);
        assert!(pool.suspects().is_empty(), "an answer makes a lane trusted again");
        assert!(elapsed < io_deadline / 2, "nobody ran out the deadline ({elapsed:?})");
        assert_eq!(pool.live_workers(), NODES);
        pool.shutdown().unwrap();
    }

    /// No yardstick, no shortcut: when every lane is a suspect there is
    /// no trusted reply to measure them against, so a silent lane still
    /// gets its whole deadline and the punctual ones are delivered.
    #[test]
    fn suspects_with_no_trusted_lane_beside_them_keep_the_whole_deadline() {
        let io_deadline = Duration::from_millis(300);
        let mut pool = WorkerPool::start(WorkerMode::Threads, NODES, tuning(io_deadline)).unwrap();
        let everyone: Vec<(usize, ChaosEffect)> =
            (0..NODES).map(|node| (node, ChaosEffect::Hang)).collect();
        let (demotions, elapsed) =
            timed_round(&mut pool, Some(&ChaosPlan::with_effects(NODES, &everyone).unwrap()));
        assert_eq!(demotions.len(), NODES);
        assert!(elapsed < io_deadline * 3 / 2, "all of them share one deadline ({elapsed:?})");
        assert_eq!(pool.suspects(), (0..NODES).collect::<Vec<_>>());

        let one = ChaosPlan::with_effects(NODES, &[(IMPOSTOR, ChaosEffect::Hang)]).unwrap();
        let (demotions, elapsed) = timed_round(&mut pool, Some(&one));
        assert_eq!(demotions, vec![Demotion { node: IMPOSTOR, cause: FailureCause::Timeout }]);
        assert!(elapsed >= io_deadline, "a round never demotes in zero time ({elapsed:?})");
        assert!(elapsed < io_deadline * 3 / 2, "the round must cost one deadline ({elapsed:?})");
        assert_eq!(pool.suspects(), vec![IMPOSTOR]);
        pool.shutdown().unwrap();
    }

    /// A failed fail-fast round scraps every lane, and what was known
    /// about them with it.
    #[test]
    fn a_failed_round_forgets_its_suspects() {
        let mut pool = pool_with_a_suspect(Duration::from_millis(300));
        // Without demotion the impostor's empty slot fails the round.
        let failed = round(&mut pool, None, false);
        assert!(matches!(failed, Err(TransportError::WorkerFailed { node: IMPOSTOR, .. })));
        assert_eq!(pool.live_workers(), 0);
        assert!(pool.suspects().is_empty());
        pool.shutdown().unwrap();
    }

    /// A peer that trickles a *valid* reply one byte per half deadline
    /// never lets a single read time out; only the round's absolute
    /// deadline catches it.
    #[test]
    fn a_trickling_worker_is_demoted_within_one_deadline() {
        let io_deadline = Duration::from_millis(300);
        let trickle = move |mut stream: TcpStream| {
            let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
            let task = Task::from_wire(&read_message(&mut reader)?)?;
            for byte in encode_reply(&execute_task(&task)).bytes() {
                std::thread::sleep(io_deadline / 2);
                if stream.write_all(&[byte]).is_err() {
                    break; // the coordinator gave up on us
                }
            }
            Ok(())
        };
        let mut pool = pool_with_impostor(io_deadline, trickle, WorkerHandle::Thread);
        round_demotes_the_impostor(&mut pool, io_deadline);
        pool.shutdown().unwrap();
        assert!(pool.retired.is_empty(), "shutdown reaps every retired worker");
    }

    /// A pool after one round in which lane `IMPOSTOR` was a worker
    /// process that never answers, never closes and ignores the
    /// shutdown frame and EOF (`sleep` does not even know about the
    /// connection): demoted, retired, and not waited for.
    fn pool_with_a_stuck_process(io_deadline: Duration) -> (WorkerPool, impl FnOnce()) {
        let (hold, release) = std::sync::mpsc::channel::<()>();
        let silent = move |stream: TcpStream| {
            // Keep the connection open and silent until the test ends.
            let _until_released = release.recv();
            drop(stream);
            Ok(())
        };
        let stuck = Command::new("/bin/sleep").arg("60").spawn().unwrap();
        let mut peer = None;
        let mut pool = pool_with_impostor(io_deadline, silent, |handle| {
            peer = Some(handle);
            WorkerHandle::Process(stuck)
        });
        round_demotes_the_impostor(&mut pool, io_deadline);
        assert_eq!(pool.retired.len(), 1, "retired, not yet reaped: the round did not wait");
        let release_peer = move || {
            drop(hold);
            peer.unwrap().join().unwrap().unwrap();
        };
        (pool, release_peer)
    }

    /// Shutdown gives a stuck worker process what is left of its grace,
    /// then kills it; nothing waits for it to end on its own.
    #[test]
    fn a_stuck_worker_process_is_killed_at_shutdown() {
        let (mut pool, release_peer) = pool_with_a_stuck_process(Duration::from_millis(300));
        let started = Instant::now();
        pool.shutdown().unwrap();
        assert!(started.elapsed() < Duration::from_secs(10), "shutdown must not wait for `sleep`");
        assert!(pool.retired.is_empty());
        assert_eq!(pool.live_workers(), 0);
        release_peer();
    }

    /// A pool that keeps running sweeps the stuck process out at the
    /// first round boundary past its grace, so the retired list cannot
    /// grow with the number of stuck workers ever seen.
    #[test]
    fn a_stuck_worker_process_is_killed_at_the_first_sweep_past_its_grace() {
        let io_deadline = Duration::from_millis(300);
        let (mut pool, release_peer) = pool_with_a_stuck_process(io_deadline);
        std::thread::sleep(io_deadline);
        pool.reap_finished();
        assert!(pool.retired.is_empty(), "past its grace it is killed and reaped");
        pool.shutdown().unwrap();
        release_peer();
    }

    /// A simulated hang waits on its own connection, so the worker is
    /// gone the moment the coordinator gives up on it — the hang's
    /// configured length (here a minute) is an upper bound, not a cost.
    #[test]
    fn a_muted_worker_exits_when_the_coordinator_hangs_up() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let worker =
            std::thread::spawn(move || serve_worker_loop(TcpStream::connect(addr).unwrap()));
        let (mut stream, _) = listener.accept().unwrap();
        let field = PrimeField::new(97).unwrap();
        let points: Vec<u64> = (0..4).collect();
        let plan = FaultPlan::all_honest(1);
        let spec = RoundSpec { field: &field, points: &points, plan: &plan };
        let programs = [EvalProgram::Poly(vec![1, 2])];
        let task = task_for_node(&spec, &programs, 1, 0, Some(ChaosEffect::Hang), 60_000);
        stream.write_all(task.to_wire().as_bytes()).unwrap();
        let started = Instant::now();
        drop(stream);
        worker.join().unwrap().unwrap();
        assert!(started.elapsed() < Duration::from_secs(10), "the hang must end at EOF");
    }
}
