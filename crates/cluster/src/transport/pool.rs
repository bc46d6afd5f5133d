//! The persistent worker pool behind [`SocketTransport::persistent`]:
//! long-lived loopback workers that outlive individual rounds.
//!
//! Each lane is one worker (thread or spawned `camelot-node` process)
//! holding one TCP connection for its whole life, plus a reader thread
//! on the coordinator's side that sends every message read off that
//! connection, numbered, down the pool's one channel. A round writes a
//! [`Task`] frame down every lane, then waits on the channel alone —
//! one `recv_timeout` at a time, bounded by the round's one deadline —
//! while the [`Drain`] state machine decides which replies count, who is
//! demoted and why, and when the round is over. No socket carries a read
//! timer. Health checks (`camelot-ping v1`/`camelot-pong v1`) are
//! answered through the same channel; teardown is always an explicit
//! `camelot-shutdown v1` frame plus the connection shut down both ways,
//! which also ends the lane's reader.
//!
//! A message is matched to the request it answers by its lane's
//! generation and its number on the lane, never by when it arrives:
//! what a retired lane's reader still delivers, and a duplicating
//! worker's spare copy, are counted out, so one round's reply is never
//! taken for the next round's.
//!
//! A retired lane's worker and reader are reaped *off the round's
//! critical path*: they wait on a pool-owned list that is swept without
//! blocking at round boundaries and drained in [`WorkerPool::shutdown`];
//! a worker process that has ignored both signals for a whole I/O
//! deadline by then is killed. The only other hard kill is the
//! [`WorkerPool::kill_worker`] chaos hook, whose entire purpose is
//! simulating a crashed node.
//!
//! [`SocketTransport::persistent`]: crate::transport::SocketTransport::persistent
//! [`Task`]: crate::transport::Task

use crate::chaos::{ChaosEffect, ChaosPlan, Demotion, FailureCause};
use crate::retry::{Deadline, TransportTuning};
use crate::round::{NodeFrames, RoundSpec};
use crate::transport::drain::{Drain, Read, Wait};
use crate::transport::socket::{
    accept_with_deadline, io_err, read_reply, reap_child, serve_worker_loop, task_for_node,
    WorkerMode, LANE_BUFFER,
};
use crate::transport::{
    control_frame, EvalProgram, TransportError, PING_HEADER, PONG_HEADER, SHUTDOWN_HEADER,
};
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Duration;

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

/// One message off lane `node`'s connection number `generation`: the
/// `seq`-th read there, or how the connection ended.
#[derive(Debug)]
struct Arrival {
    node: usize,
    generation: u64,
    seq: u64,
    read: Read,
}

/// The reader thread of lane `node`: reads `stream` for the life of the
/// connection and sends every message down `inbox`, the connection's
/// end last. Returns at that end, or once the pool is gone.
fn read_lane(stream: TcpStream, node: usize, generation: u64, inbox: &Sender<Arrival>) {
    let mut reader = BufReader::with_capacity(LANE_BUFFER, stream);
    for seq in 0.. {
        let read = read_reply(&mut reader, node);
        let ended = read.is_err();
        if inbox.send(Arrival { node, generation, seq, read }).is_err() || ended {
            return;
        }
    }
}

/// One long-lived worker: its task/reply connection, its reader thread
/// and the handle needed to reap the worker.
#[derive(Debug)]
struct PoolLane {
    stream: TcpStream,
    /// Tells this lane's messages from those of earlier lanes in its slot.
    generation: u64,
    /// Messages numbered below this one were taken or are spare copies.
    next_seq: u64,
    /// How many messages answer the request in flight (two from a
    /// duplicating worker, the second a spare copy); zero when nothing
    /// is awaited.
    owed: u64,
    reader: JoinHandle<()>,
    worker: WorkerHandle,
}

impl PoolLane {
    /// Writes one frame down the lane.
    fn send(&mut self, frame: &str) -> std::io::Result<()> {
        self.stream.write_all(frame.as_bytes()).and_then(|()| self.stream.flush())
    }

    /// Tells the worker to exit — shutdown frame, then the connection
    /// shut down both ways, which also ends the reader — and hands back
    /// what is needed to reap both, without waiting. There is no error
    /// channel here by design: a worker that cannot take the frame is
    /// already gone or will see EOF, an equally valid shutdown signal.
    fn retire(mut self) -> (WorkerHandle, JoinHandle<()>) {
        let _delivered = self.send(&control_frame(SHUTDOWN_HEADER));
        let _closed = self.stream.shutdown(Shutdown::Both);
        (self.worker, self.reader)
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
    /// (see the [`Drain`] docs).
    suspect: Vec<bool>,
    /// Workers and readers of retired lanes not yet reaped, each with
    /// the grace a worker has left before it is killed. Swept at every
    /// round boundary, so it holds no more than the lanes retired within
    /// the last I/O deadline.
    retired: Vec<(WorkerHandle, JoinHandle<()>, Deadline)>,
    respawns: usize,
    tuning: TransportTuning,
    /// Every lane's reader sends down a clone of `outbox`; rounds and
    /// health checks wait on `inbox`.
    outbox: Sender<Arrival>,
    inbox: Receiver<Arrival>,
    /// Lanes connected so far: the next lane's generation.
    connected: u64,
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
        let (outbox, inbox) = mpsc::channel();
        let mut pool = WorkerPool {
            listener,
            addr,
            mode,
            lanes: Vec::new(),
            suspect: vec![false; nodes],
            retired: Vec::new(),
            respawns: 0,
            tuning,
            outbox,
            inbox,
            connected: 0,
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
    /// node order: the next drain waits for them only as long as for
    /// the trusted lanes.
    #[must_use]
    pub fn suspects(&self) -> Vec<usize> {
        let marked = self.suspect.iter().enumerate();
        marked.filter_map(|(node, &suspect)| suspect.then_some(node)).collect()
    }

    /// Spawns one worker and completes its handshake (the worker
    /// connects back to the pool listener).
    fn spawn_lane(&mut self, node: usize) -> Result<PoolLane, TransportError> {
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
        let child = match &mut worker {
            WorkerHandle::Process(child) => Some(child),
            WorkerHandle::Thread(_) => None,
        };
        let accepted = accept_with_deadline(&self.listener, node, child, self.tuning.io_deadline);
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
        self.connect(node, stream, worker)
    }

    /// Makes `stream` lane `node`'s connection to `worker` and starts
    /// the lane's reader thread.
    fn connect(
        &mut self,
        node: usize,
        stream: TcpStream,
        worker: WorkerHandle,
    ) -> Result<PoolLane, TransportError> {
        let read_half = stream.try_clone().map_err(|e| io_err("clone stream", &e))?;
        let generation = self.connected;
        self.connected += 1;
        let inbox = self.outbox.clone();
        let reader = std::thread::spawn(move || read_lane(read_half, node, generation, &inbox));
        Ok(PoolLane { stream, generation, next_seq: 0, owed: 0, reader, worker })
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

    /// Writes `frame` down lane `node` and awaits `owed` messages in
    /// answer.
    fn request(&mut self, node: usize, frame: &str, owed: u64) -> Result<(), TransportError> {
        let Some(lane) = self.lanes.get_mut(node).and_then(Option::as_mut) else {
            let reason = "lane is down (awaiting respawn)".to_string();
            return Err(TransportError::WorkerFailed { node, reason });
        };
        lane.send(frame).map_err(|err| TransportError::WorkerFailed {
            node,
            reason: format!("writing to the worker: {err}"),
        })?;
        lane.owed = owed;
        Ok(())
    }

    /// The next message that answers a request in flight, with its
    /// node: one that has already arrived ([`Wait::Arrived`]), or the
    /// next to arrive before `deadline` ([`Wait::Deadline`]). What a
    /// retired lane's reader delivers belongs to no lane, and a message
    /// numbered below its lane's next is the spare copy of a duplicating
    /// worker: both are discarded. The end of a connection answers the
    /// request in flight whatever its number, and retires a lane that
    /// had none.
    fn next_reply(&mut self, wait: Wait, deadline: Deadline) -> Option<(usize, Read)> {
        loop {
            let Arrival { node, generation, seq, read } = match wait {
                Wait::Arrived => self.inbox.try_recv().ok()?,
                Wait::Deadline => {
                    let left = deadline.remaining().unwrap_or(Duration::MAX);
                    self.inbox.recv_timeout(left).ok()?
                }
            };
            let slot = self.lanes.get_mut(node).and_then(Option::as_mut);
            let Some(lane) = slot.filter(|lane| lane.generation == generation) else { continue };
            if lane.owed > 0 && (seq >= lane.next_seq || read.is_err()) {
                lane.next_seq = seq + lane.owed;
                lane.owed = 0;
                return Some((node, read));
            }
            if read.is_err() {
                self.retire_lane(node);
            }
        }
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
            if self.request(node, &ping, 1).is_err() {
                self.retire_lane(node);
            }
        }
        let deadline = Deadline::after(self.tuning.io_deadline);
        while self.lanes.iter().flatten().any(|lane| lane.owed > 0) {
            let Some((node, read)) = self.next_reply(Wait::Deadline, deadline) else { break };
            if !read.is_ok_and(|text| text.lines().next() == Some(PONG_HEADER)) {
                self.retire_lane(node);
            }
        }
        let before = self.respawns;
        for node in 0..self.lanes.len() {
            // Down, or no pong by the deadline.
            if self.lanes.get(node).and_then(Option::as_ref).is_none_or(|lane| lane.owed > 0) {
                self.retire_lane(node);
                self.respawn_lane(node)?;
            }
        }
        Ok(self.respawns - before)
    }

    /// Runs one broadcast round over the persistent lanes: writes every
    /// node's task first (workers compute concurrently), then takes the
    /// replies as they arrive under one deadline that starts when the
    /// last task has been flushed, by the rules of the reply drain
    /// (`transport/drain.rs`). A round costs at most one I/O deadline
    /// however many nodes hang, drop or trickle, and a node that stays
    /// silent costs it once, not once a round. Chaos effects ride in the
    /// tasks; the afflicted workers sabotage their own replies.
    ///
    /// # Errors
    ///
    /// Without demotion (`demote == false`, the legacy fail-fast mode),
    /// a down lane or a worker I/O/protocol failure surfaces as
    /// [`TransportError::WorkerFailed`] naming the node, and any
    /// failure scraps *all* lanes — survivors may hold undelivered
    /// tasks or untaken replies — until the next
    /// [`WorkerPool::ensure_ready`] brings the pool back.
    ///
    /// With demotion enabled, per-node failures retire *only* the
    /// failed lane and book a [`Demotion`] with the structured cause;
    /// down lanes get one respawn attempt at round start, and a lane
    /// that cannot come back is demoted with
    /// [`FailureCause::RespawnExhausted`]. The round then completes via
    /// erasure decoding. Retiring never waits for the worker: it is
    /// reaped at a later round boundary.
    pub fn run_round(
        &mut self,
        spec: &RoundSpec<'_>,
        programs: &[EvalProgram],
        chaos: Option<&ChaosPlan>,
        demote: bool,
    ) -> Result<(Vec<NodeFrames>, Vec<Demotion>), TransportError> {
        let nodes = self.lanes.len();
        let deadline_ms = self.tuning.deadline_ms();
        let mut drain = Drain::new(spec.points.len(), programs.len(), demote, self.suspect.clone());
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

        // A lane that could not come back keeps its cause: its task fails
        // to go out, and a drain keeps a node's first cause.
        for node in 0..nodes {
            let effect = chaos.and_then(|plan| plan.effect(node));
            let wire = task_for_node(spec, programs, nodes, node, effect, deadline_ms).to_wire();
            let owed = if effect == Some(ChaosEffect::Duplicate) { 2 } else { 1 };
            if let Err(err) = self.request(node, &wire, owed) {
                if !demote {
                    return Err(self.fail_round(err));
                }
                self.retire_lane(node);
                drain.demote_node(node, FailureCause::from_transport(&err));
            }
        }

        let deadline = Deadline::after(self.tuning.io_deadline);
        let drained = match drain.drive(|wait| self.next_reply(wait, deadline)) {
            Ok(drained) => drained,
            Err(err) => return Err(self.fail_round(err)),
        };
        for demotion in &drained.demotions {
            self.retire_lane(demotion.node);
        }
        self.suspect = drained.suspect;
        Ok((drained.frames, drained.demotions))
    }

    /// Retires exactly one lane, leaving its slot empty for a later
    /// respawn; its worker and reader join the retired list to be reaped
    /// off the critical path. Survivor lanes are untouched.
    fn retire_lane(&mut self, node: usize) {
        if let Some(lane) = self.lanes.get_mut(node).and_then(Option::take) {
            let (worker, reader) = lane.retire();
            self.retired.push((worker, reader, Deadline::after(self.tuning.io_deadline)));
        }
    }

    /// Reaps the retired workers that have exited, with their readers
    /// (which ended with the connection, before the worker did), and
    /// kills the worker processes that have outlived their grace; never
    /// waits for a worker.
    fn reap_finished(&mut self) {
        for (worker, reader, grace) in std::mem::take(&mut self.retired) {
            match worker.reap_if_finished(grace) {
                Some(worker) => self.retired.push((worker, reader, grace)),
                None => {
                    let _joined = reader.join();
                }
            }
        }
    }

    /// A round failed mid-flight: scrap every lane (graceful retire) so
    /// no stale reply can be taken by a later round — and with the
    /// lanes, what was known about them — and pass the failure through.
    fn fail_round(&mut self, err: TransportError) -> TransportError {
        for node in 0..self.lanes.len() {
            self.retire_lane(node);
        }
        self.suspect.fill(false);
        err
    }

    /// Chaos hook: forcibly takes down worker `node` — a hard kill for
    /// a process worker, a disconnect for a thread worker (which then
    /// exits on EOF) — and retires its lane. The slot stays empty, so the
    /// next round reports [`TransportError::WorkerFailed`] until
    /// [`WorkerPool::ensure_ready`] respawns the lane.
    ///
    /// # Errors
    ///
    /// [`TransportError::Protocol`] for an out-of-range node, an I/O
    /// failure from the kill.
    pub fn kill_worker(&mut self, node: usize) -> Result<(), TransportError> {
        let Some(slot) = self.lanes.get_mut(node) else {
            return Err(TransportError::Protocol { reason: format!("pool has no worker {node}") });
        };
        if let Some(WorkerHandle::Process(child)) = slot.as_mut().map(|lane| &mut lane.worker) {
            // The one intentional hard kill: this hook simulates a
            // crashed node, so graceful shutdown is off the table.
            child.kill().map_err(|e| io_err("killing worker", &e))?;
        }
        self.retire_lane(node);
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
        let live: Vec<(usize, (WorkerHandle, JoinHandle<()>))> = self
            .lanes
            .iter_mut()
            .enumerate()
            .filter_map(|(node, slot)| slot.take().map(|lane| (node, lane.retire())))
            .collect();
        let grace = Deadline::after(self.tuning.io_deadline);
        let mut first_err = None;
        for (node, (worker, reader)) in live {
            let _joined = reader.join();
            if let Err(reason) = worker.reap(grace) {
                first_err.get_or_insert(TransportError::WorkerFailed { node, reason });
            }
        }
        for (worker, reader, grace) in self.retired.drain(..) {
            let _joined = reader.join();
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
    use crate::transport::socket::read_message_or_eof;
    use crate::transport::{encode_reply, execute_task, Task};
    use crate::{FaultPlan, RoundSpec};
    use camelot_ff::PrimeField;
    use std::time::Instant;

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
        // The displaced thread worker ends with its connection. Reap it
        // here, however slow the host, so the retired list holds only
        // what the test itself retires.
        for (worker, reader, grace) in pool.retired.drain(..) {
            reader.join().unwrap();
            worker.reap(grace).unwrap();
        }
        let addr = pool.addr;
        let peer = std::thread::spawn(move || peer(TcpStream::connect(addr).unwrap()));
        let stream = accept_with_deadline(&pool.listener, IMPOSTOR, None, io_deadline).unwrap();
        let lane = pool.connect(IMPOSTOR, stream, worker(peer)).unwrap();
        pool.lanes[IMPOSTOR] = Some(lane);
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
    /// delivers and the impostor is demoted with `Timeout`. Returns how
    /// long the round took; when it ends is asserted on virtual time by
    /// the drain's tests.
    fn round_demotes_the_impostor(pool: &mut WorkerPool) -> Duration {
        let (demotions, elapsed) = timed_round(pool, None);
        assert_eq!(demotions, vec![Demotion { node: IMPOSTOR, cause: FailureCause::Timeout }]);
        assert_eq!(pool.live_workers(), NODES - 1);
        elapsed
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
        round_demotes_the_impostor(&mut pool);
        assert_eq!(pool.suspects(), vec![IMPOSTOR]);
        pool
    }

    /// A recovered node rejoins: the suspect's slot is respawned with an
    /// honest worker, which has its reply in by the time the slowest
    /// trusted lane (30 ms late) has answered — delivered, and trusted
    /// again.
    #[test]
    fn a_recovered_suspect_rejoins_without_a_wait_of_its_own() {
        let mut pool = pool_with_a_suspect(Duration::from_millis(300));
        let slow = ChaosPlan::with_effects(NODES, &[(0, ChaosEffect::Delay { millis: 30 })]);
        let (demotions, _) = timed_round(&mut pool, Some(&slow.unwrap()));
        assert_eq!(demotions, vec![]);
        assert!(pool.suspects().is_empty(), "an answer makes a lane trusted again");
        assert_eq!(pool.live_workers(), NODES);
        pool.shutdown().unwrap();
    }

    /// No yardstick, no shortcut: when every lane is a suspect there is
    /// no trusted reply to measure them against, so a silent lane is
    /// demoted for running out the deadline and the punctual ones are
    /// delivered.
    #[test]
    fn suspects_with_no_trusted_lane_beside_them_keep_the_whole_deadline() {
        let io_deadline = Duration::from_millis(300);
        let mut pool = WorkerPool::start(WorkerMode::Threads, NODES, tuning(io_deadline)).unwrap();
        let everyone: Vec<(usize, ChaosEffect)> =
            (0..NODES).map(|node| (node, ChaosEffect::Hang)).collect();
        let (demotions, _) =
            timed_round(&mut pool, Some(&ChaosPlan::with_effects(NODES, &everyone).unwrap()));
        assert_eq!(demotions.len(), NODES);
        assert_eq!(pool.suspects(), (0..NODES).collect::<Vec<_>>());

        let one = ChaosPlan::with_effects(NODES, &[(IMPOSTOR, ChaosEffect::Hang)]).unwrap();
        let (demotions, _) = timed_round(&mut pool, Some(&one));
        assert_eq!(demotions, vec![Demotion { node: IMPOSTOR, cause: FailureCause::Timeout }]);
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

    /// The wall-clock smoke of "a trickler cannot stretch a round": a
    /// peer that trickles a *valid* reply one byte per half deadline is
    /// demoted when the round's one deadline passes, and the round ends
    /// then.
    #[test]
    fn a_trickling_worker_is_demoted_within_one_deadline() {
        let io_deadline = Duration::from_millis(300);
        let trickle = move |mut stream: TcpStream| {
            let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
            let task = read_message_or_eof(&mut reader)?.unwrap_or_default();
            for byte in encode_reply(&execute_task(&Task::from_wire(&task)?)).bytes() {
                std::thread::sleep(io_deadline / 2);
                if stream.write_all(&[byte]).is_err() {
                    break; // the coordinator gave up on us
                }
            }
            Ok(())
        };
        let mut pool = pool_with_impostor(io_deadline, trickle, WorkerHandle::Thread);
        let elapsed = round_demotes_the_impostor(&mut pool);
        assert!(elapsed >= io_deadline, "the impostor gets its whole deadline ({elapsed:?})");
        assert!(elapsed < io_deadline * 3 / 2, "the round must cost one deadline ({elapsed:?})");
        pool.shutdown().unwrap();
        assert!(pool.retired.is_empty(), "shutdown reaps every retired worker");
    }

    /// A message is matched to its request by its lane's generation and
    /// its number, never by when it arrives: a duplicating worker's spare
    /// copy and a retired lane's late reply are counted out even when
    /// they reach the channel after the round that caused them.
    #[test]
    fn a_reply_is_matched_to_its_request_by_generation_and_number() {
        let io_deadline = Duration::from_secs(60);
        let mut pool = WorkerPool::start(WorkerMode::Threads, NODES, tuning(io_deadline)).unwrap();
        let deadline = Deadline::after(io_deadline);
        let generation = pool.lanes[1].as_ref().unwrap().generation;
        let arrive = |pool: &WorkerPool, generation, seq, read: Read| {
            pool.outbox.send(Arrival { node: 1, generation, seq, read }).unwrap();
        };
        let text = |text: &str| -> Read { Ok(text.to_string()) };

        // A duplicating worker owes its reply twice.
        pool.lanes[1].as_mut().unwrap().owed = 2;
        arrive(&pool, generation, 0, text("reply"));
        assert_eq!(pool.next_reply(Wait::Arrived, deadline), Some((1, text("reply"))));
        // The next request: the spare copy and a reply from a connection
        // the slot no longer holds arrive before the answer.
        pool.lanes[1].as_mut().unwrap().owed = 1;
        arrive(&pool, generation, 1, text("spare copy"));
        arrive(&pool, generation + 100, 7, text("late"));
        arrive(&pool, generation, 2, text("next reply"));
        assert_eq!(pool.next_reply(Wait::Arrived, deadline), Some((1, text("next reply"))));
        // Nothing awaited: a message is dropped, and the connection's end
        // retires the lane.
        arrive(&pool, generation, 3, text("unsolicited"));
        arrive(&pool, generation, 4, Err(TransportError::Io { reason: "closed".to_string() }));
        assert_eq!(pool.next_reply(Wait::Arrived, deadline), None);
        assert_eq!(pool.live_workers(), NODES - 1);
        pool.shutdown().unwrap();
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
        round_demotes_the_impostor(&mut pool);
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
