//! The proof service: a persistent engine + worker pool behind an
//! admission queue and a certificate store.
//!
//! Requests meet the cluster the way §1 of the paper prescribes for a
//! court that serves many petitioners at once:
//!
//! * **Coalescing** — concurrent [`Service::prepare`] calls are queued,
//!   and the request whose arrival opened the queue becomes the batch
//!   *leader*: it waits one admission window, drains the queue, and
//!   runs every queued problem through [`Engine::run_batch`] — one
//!   broadcast round per prime for the whole batch, so `n` concurrent
//!   strangers pay the rounds of one.
//! * **Caching** — prepared certificates land in a content-addressed
//!   [`CertStore`]; a repeat query redeems the cached certificate
//!   through [`Engine::redeem`] (spot checks, no trust) and is served
//!   with **zero** rounds.
//! * **Fault handling** — a dead pool worker is just `Crash` with a
//!   cause: the pool respawns it when the next round starts, and a batch
//!   whose round fails on a lost worker is retried once by the engine's
//!   [`RecoveryPolicy`], whose retry respawns the pool.

#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

use crate::wire::{read_frame, PolyRequest, Request, Response};
use camelot_cluster::{PreparedProgram, SocketTransport};
use camelot_core::{
    CamelotError, CamelotOutcome, CamelotProblem, Certificate, ChaosPlan, Engine, EngineConfig,
    Evaluate, PrimeProof, ProofSpec, RecoveryPolicy, Transport, TransportTuning, WorkerMode,
};
use camelot_ff::{crt_u, PrimeField, Residue};
use camelot_store::{cert_key, CertKey, CertStore};
use std::io::{BufReader, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::Duration;

/// How long a connection may sit idle before the daemon (or the client
/// helper) gives up on it. Generous: a prepare holds its connection for
/// the admission window plus the rounds.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(120);

/// Configuration of one [`Service`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Compute nodes in the worker pool.
    pub nodes: usize,
    /// Fault budget `f` (code length `e = d + 1 + 2f`).
    pub fault_tolerance: usize,
    /// How pool workers run (threads or `camelot-node` processes).
    pub workers: WorkerMode,
    /// The admission window: how long a batch leader waits for
    /// strangers to coalesce with before running the shared rounds.
    pub batch_window: Duration,
    /// In-memory certificate-store capacity (LRU).
    pub store_capacity: usize,
    /// Optional directory mirror for the certificate store.
    pub store_dir: Option<PathBuf>,
    /// Spot-check trials per prime proof.
    pub verification_trials: usize,
    /// Verification randomness seed.
    pub seed: u64,
    /// Coordinator–worker I/O deadline; `None` defers to the
    /// `CAMELOT_SOCKET_TIMEOUT_MS` environment variable (60 s fallback).
    pub io_deadline: Option<Duration>,
    /// How long a client connection may sit idle before the daemon (or
    /// the client helper) gives up on it.
    pub client_timeout: Duration,
    /// Optional transport-level chaos plan injected into every round.
    pub chaos: Option<ChaosPlan>,
    /// Engine recovery policy (transport retries, redundancy
    /// escalation); the default retries a batch once after a transport
    /// failure.
    pub recovery: RecoveryPolicy,
    /// Demote a dead/slow/hung pool worker to an erasure mid-round
    /// instead of failing the round (the round then completes via
    /// erasure decoding; by default the round fails and the engine's
    /// retry runs it again on a respawned pool).
    pub demote_dead_workers: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            nodes: 4,
            fault_tolerance: 1,
            workers: WorkerMode::Threads,
            batch_window: Duration::from_millis(40),
            store_capacity: 64,
            store_dir: None,
            verification_trials: 2,
            seed: 0x00CA_110C_A11E,
            io_deadline: None,
            client_timeout: CLIENT_TIMEOUT,
            chaos: None,
            recovery: RecoveryPolicy { max_retries: 1, ..RecoveryPolicy::none() },
            demote_dead_workers: false,
        }
    }
}

/// The service-side problem wrapper: a [`PolyRequest`] as a
/// [`CamelotProblem`] whose answer is `Σ_{x=0}^{sum_count-1} P(x)` over
/// the integers. Wire-expressible by construction (the polynomial *is*
/// the canonical input), so rounds can run on process-spanning
/// transports.
#[derive(Clone, Debug)]
pub struct ServicePoly(pub PolyRequest);

impl CamelotProblem for ServicePoly {
    type Output = u128;

    fn spec(&self) -> ProofSpec {
        ProofSpec::new(
            self.0.coefficients.len().saturating_sub(1),
            self.0.min_modulus,
            self.0.value_bits,
        )
    }

    fn evaluator<'a>(&'a self, field: &PrimeField) -> Box<dyn Evaluate + 'a> {
        Box::new(PreparedProgram::poly(field, &self.0.coefficients))
    }

    fn recover(&self, proofs: &[PrimeProof]) -> Result<u128, CamelotError> {
        let residues: Vec<Residue> =
            proofs.iter().map(|p| p.sum_residue(0, self.0.sum_count)).collect();
        crt_u(&residues).to_u128().ok_or_else(|| CamelotError::RecoveryFailed {
            reason: "recovered value exceeded u128".into(),
        })
    }
}

/// A queued prepare request awaiting its batch.
struct Pending {
    problem: ServicePoly,
    reply: Sender<Result<CamelotOutcome<u128>, CamelotError>>,
}

/// The long-lived proof service. Shared across connection handler
/// threads behind an [`Arc`]; all interior state is synchronized.
pub struct Service {
    config: ServiceConfig,
    /// The persistent transport; its clone inside the engine shares the
    /// same worker pool.
    transport: SocketTransport,
    /// The engine every request is prepared and redeemed on, whichever
    /// prime schedule it names: the engine decodes every prime on its
    /// orbit, and the certificate is the same either way.
    engine: Engine,
    store: Mutex<CertStore>,
    /// The admission queue; the request that makes it non-empty is the
    /// leader of the next batch.
    queue: Mutex<Vec<Pending>>,
    requests: AtomicUsize,
    worker_failures: AtomicUsize,
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Service {
    /// Builds the service: a persistent socket transport (the pool
    /// starts lazily with the first round), an engine running on it,
    /// and the certificate store.
    ///
    /// # Errors
    ///
    /// Certificate-store directory trouble.
    pub fn new(config: ServiceConfig) -> Result<Service, String> {
        let mut tuning = TransportTuning::default().with_demotion(config.demote_dead_workers);
        if let Some(io_deadline) = config.io_deadline {
            tuning = tuning.with_io_deadline(io_deadline);
        }
        let transport = SocketTransport::persistent(config.workers.clone())
            .with_tuning(tuning)
            .with_chaos(config.chaos.clone());
        let mut engine_config = EngineConfig::sequential(config.nodes, config.fault_tolerance);
        engine_config.verification_trials = config.verification_trials;
        engine_config.seed = config.seed;
        engine_config.recovery = config.recovery;
        let shared: Arc<dyn Transport + Send + Sync> = Arc::new(transport.clone());
        let engine = Engine::with_transport(engine_config, shared);
        let store = match &config.store_dir {
            Some(dir) => CertStore::with_dir(config.store_capacity, dir.clone())
                .map_err(|e| e.to_string())?,
            None => CertStore::in_memory(config.store_capacity),
        };
        Ok(Service {
            config,
            transport,
            engine,
            store: Mutex::new(store),
            queue: Mutex::new(Vec::new()),
            requests: AtomicUsize::new(0),
            worker_failures: AtomicUsize::new(0),
        })
    }

    /// The content address of a request: problem family, canonical
    /// input, and the engine parameters that change the prepared
    /// certificate. The prime schedule is not among them: both walk the
    /// same primes, and the engine decodes on the same orbit for both.
    fn cache_key(&self, poly: &PolyRequest) -> CertKey {
        let mut coefficients = Vec::with_capacity(poly.coefficients.len() * 8);
        for &c in &poly.coefficients {
            coefficients.extend_from_slice(&c.to_le_bytes());
        }
        cert_key(&[
            b"service-poly-sum",
            &coefficients,
            &poly.sum_count.to_le_bytes(),
            &poly.value_bits.to_le_bytes(),
            &poly.min_modulus.to_le_bytes(),
            &(self.config.nodes as u64).to_le_bytes(),
            &(self.config.fault_tolerance as u64).to_le_bytes(),
        ])
    }

    /// Prepares (or redeems) a certificate and the answer for `poly`.
    ///
    /// Cache hit → [`Engine::redeem`], zero rounds. Miss → the request
    /// joins the admission queue and shares one batch of broadcast
    /// rounds with every other request admitted in the same window; the
    /// prepared certificate is stored for the next petitioner.
    ///
    /// # Errors
    ///
    /// Engine failures ([`CamelotError`]), a transport failure once the
    /// configured [`RecoveryPolicy`] has spent its retries. A request whose
    /// answer cannot fit a `u128` is refused before it reaches the store
    /// or the admission queue.
    pub fn prepare(&self, poly: &PolyRequest) -> Result<CamelotOutcome<u128>, CamelotError> {
        self.requests.fetch_add(1, Ordering::SeqCst);
        check_answer_bits(poly)?;
        let problem = ServicePoly(poly.clone());
        let key = self.cache_key(poly);
        let cached = lock(&self.store).get(&key);
        if let Some(certificate) = cached {
            if let Ok(outcome) = self.engine.redeem(&problem, &certificate) {
                return Ok(outcome);
            }
            // A cached certificate that no longer spot-checks is
            // ignored (never served unverified) — prepare freshly.
        }
        let (reply, receipt) = channel();
        let leader = {
            let mut queue = lock(&self.queue);
            queue.push(Pending { problem, reply });
            queue.len() == 1
        };
        if leader {
            // Let strangers coalesce, then run the batch and hand every
            // member (ourselves included) its outcome.
            #[expect(
                clippy::disallowed_methods,
                reason = "the admission window is the product feature: the batch leader \
                          deliberately waits one configured window for strangers to coalesce \
                          with before running the shared rounds"
            )]
            thread::sleep(self.config.batch_window);
            let batch = std::mem::take(&mut *lock(&self.queue));
            self.run_batch_for(batch);
        }
        match receipt.recv() {
            Ok(result) => {
                if let Ok(outcome) = &result {
                    // In-memory store always succeeds; a directory
                    // mirror failure only costs persistence.
                    let _persisted = lock(&self.store).put(&key, &outcome.certificate);
                }
                result
            }
            Err(_) => {
                Err(CamelotError::TransportFailed { reason: "service dropped the request".into() })
            }
        }
    }

    /// Runs one admitted batch — one shared batch of rounds, whatever
    /// prime schedules its requests name — and distributes the results.
    /// A batch the engine had to retry, or gave up on, after a transport
    /// failure counts as a worker failure.
    fn run_batch_for(&self, batch: Vec<Pending>) {
        let problems: Vec<ServicePoly> = batch.iter().map(|p| p.problem.clone()).collect();
        let result = self.engine.run_batch(&problems);
        let failed = match &result {
            Ok(outcomes) => outcomes.iter().any(|outcome| outcome.report.retries > 0),
            Err(err) => matches!(err, CamelotError::TransportFailed { .. }),
        };
        if failed {
            self.worker_failures.fetch_add(1, Ordering::SeqCst);
        }
        match result {
            Ok(outcomes) => {
                for (pending, outcome) in batch.into_iter().zip(outcomes) {
                    // A requester that gave up just misses its answer.
                    let _delivered = pending.reply.send(Ok(outcome));
                }
            }
            Err(err) => {
                for pending in batch {
                    let _delivered = pending.reply.send(Err(err.clone()));
                }
            }
        }
    }

    /// Verifies a client-supplied certificate against `poly` by spot
    /// checks (no rounds) and recovers the answer — the Arthur side.
    ///
    /// # Errors
    ///
    /// Malformed certificates, failed spot checks, and requests whose
    /// answer cannot fit a `u128`.
    pub fn verify(
        &self,
        poly: &PolyRequest,
        certificate_text: &str,
    ) -> Result<CamelotOutcome<u128>, CamelotError> {
        self.requests.fetch_add(1, Ordering::SeqCst);
        check_answer_bits(poly)?;
        let certificate = Certificate::from_wire(certificate_text)?;
        self.engine.redeem(&ServicePoly(poly.clone()), &certificate)
    }

    /// Chaos hook: forcibly takes down pool worker `node`.
    ///
    /// # Errors
    ///
    /// No running pool, or the kill itself failing.
    pub fn crash_worker(&self, node: usize) -> Result<(), String> {
        self.transport.kill_pool_worker(node).map_err(|e| e.to_string())
    }

    /// Service counters as a status response.
    #[must_use]
    pub fn status(&self) -> Response {
        let stats = lock(&self.store).stats();
        Response {
            ok: true,
            workers: self.transport.pool_live_workers(),
            respawns: self.transport.pool_respawns(),
            worker_failures: self.worker_failures.load(Ordering::SeqCst),
            requests: self.requests.load(Ordering::SeqCst),
            store_hits: stats.hits,
            store_misses: stats.misses,
            ..Response::default()
        }
    }

    /// Shuts the worker pool down gracefully (shutdown frames, then
    /// join/reap; a worker process still running one I/O deadline
    /// later is killed). Idempotent.
    ///
    /// # Errors
    ///
    /// A worker that exited uncleanly or had to be killed.
    pub fn shutdown(&self) -> Result<(), String> {
        self.transport.shutdown_pool().map_err(|e| e.to_string())
    }
}

/// Refuses a request that asks for more than the `u128` answer holds.
fn check_answer_bits(poly: &PolyRequest) -> Result<(), CamelotError> {
    if poly.value_bits > u64::from(u128::BITS) {
        return Err(CamelotError::BadConfiguration {
            reason: format!("value-bits {} exceeds the 128-bit answer", poly.value_bits),
        });
    }
    Ok(())
}

/// Builds the response for a prepare/verify outcome.
fn outcome_response(result: Result<CamelotOutcome<u128>, CamelotError>) -> Response {
    match result {
        Ok(outcome) => Response {
            ok: true,
            output: Some(outcome.output),
            rounds: outcome.report.rounds,
            coalesced: outcome.report.coalesced_requests,
            cache_hit: outcome.report.cache_hits > 0,
            symbols: outcome.report.symbols_broadcast,
            bytes: outcome.report.bytes_on_wire,
            certificate: Some(outcome.certificate.to_wire()),
            ..Response::default()
        },
        Err(err) => Response::failure(&err.to_string()),
    }
}

/// How a handler stops the daemon: the accept loop blocks in `accept`
/// with no timeout, so raising the flag is followed by a throwaway
/// connection to the listener that wakes it.
struct StopSignal {
    raised: AtomicBool,
    /// The listener's own address, as reachable from this host.
    wake: SocketAddr,
}

impl StopSignal {
    fn for_listener(listener: &TcpListener) -> Result<StopSignal, String> {
        let mut wake = listener.local_addr().map_err(|e| format!("listener address: {e}"))?;
        // A listener bound to "any address" is reached over loopback.
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        Ok(StopSignal { raised: AtomicBool::new(false), wake })
    }

    fn raise(&self) {
        self.raised.store(true, Ordering::SeqCst);
        // A failed wake-up means the listener is not blocked on an
        // empty queue; the loop meets the flag at its next connection.
        let _woken = TcpStream::connect_timeout(&self.wake, Duration::from_secs(1));
    }

    fn is_raised(&self) -> bool {
        self.raised.load(Ordering::SeqCst)
    }
}

/// The daemon's connection handler threads. Finished handlers are
/// joined whenever a new one starts, so under any load the set holds
/// the requests in flight and no more — an unjoined finished thread
/// would keep its stack.
#[derive(Default)]
struct Handlers {
    live: Vec<thread::JoinHandle<()>>,
}

impl Handlers {
    fn spawn(&mut self, work: impl FnOnce() + Send + 'static) {
        let (finished, live) =
            std::mem::take(&mut self.live).into_iter().partition(|handle| handle.is_finished());
        self.live = live;
        Self::join(finished);
        self.live.push(thread::spawn(work));
    }

    fn join(handlers: Vec<thread::JoinHandle<()>>) {
        for handle in handlers {
            // Handlers report to their client, not to the daemon.
            let _joined = handle.join();
        }
    }
}

/// Serves one client connection: one request frame in, one response
/// frame out.
fn try_handle(stream: TcpStream, service: &Service, stop: &StopSignal) -> Result<(), String> {
    stream.set_read_timeout(Some(service.config.client_timeout)).map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut stream = stream;
    let Some(text) = read_frame(&mut reader)? else {
        return Ok(());
    };
    let response = match Request::from_wire(&text) {
        Err(err) => Response::failure(&format!("bad request: {err}")),
        Ok(Request::Prepare(poly)) => outcome_response(service.prepare(&poly)),
        Ok(Request::Verify { poly, certificate }) => {
            let mut response = outcome_response(service.verify(&poly, &certificate));
            // The client supplied the certificate; no need to echo it.
            response.certificate = None;
            response
        }
        Ok(Request::Status) => service.status(),
        Ok(Request::CrashWorker { node }) => match service.crash_worker(node) {
            Ok(()) => Response { ok: true, ..Response::default() },
            Err(err) => Response::failure(&err),
        },
        Ok(Request::Shutdown) => {
            stop.raise();
            Response { ok: true, ..Response::default() }
        }
    };
    stream
        .write_all(response.to_wire().as_bytes())
        .and_then(|()| stream.flush())
        .map_err(|e| format!("writing response: {e}"))
}

/// The daemon accept loop: blocks in `accept` (a request is picked up
/// the moment it connects) and serves each connection on its own
/// handler thread until a `shutdown` request arrives — its handler
/// wakes the blocked `accept` with a loopback connection to the
/// listener — then joins every handler and shuts the worker pool down
/// gracefully. Returns only after all workers are reaped — a clean exit
/// means no orphans.
///
/// # Errors
///
/// Listener failures, and pool-teardown failures at the end.
pub fn run_daemon(listener: &TcpListener, service: &Arc<Service>) -> Result<(), String> {
    listener.set_nonblocking(false).map_err(|e| format!("blocking listener: {e}"))?;
    let stop = Arc::new(StopSignal::for_listener(listener)?);
    let mut handlers = Handlers::default();
    loop {
        let (stream, _) = listener.accept().map_err(|e| format!("accepting client: {e}"))?;
        if stop.is_raised() {
            break; // the wake-up connection, or a client too late to serve
        }
        let (service, stop) = (Arc::clone(service), Arc::clone(&stop));
        handlers.spawn(move || {
            // A client that vanishes mid-request only costs us this
            // handler; the error has nowhere useful to go.
            let _handled = try_handle(stream, &service, &stop);
        });
    }
    // Handlers are bounded by CLIENT_TIMEOUT; joining keeps the pool
    // alive until the last in-flight request is answered.
    Handlers::join(handlers.live);
    service.shutdown()
}

/// Client helper: one request frame to `addr`, one response frame back,
/// with the default 120 s idle timeout and no retries.
///
/// # Errors
///
/// Connection trouble, malformed frames, a daemon that hung up early.
pub fn request(addr: &str, request: &Request) -> Result<Response, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    stream.set_read_timeout(Some(CLIENT_TIMEOUT)).map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    writer
        .write_all(request.to_wire().as_bytes())
        .and_then(|()| writer.flush())
        .map_err(|e| format!("sending request: {e}"))?;
    let mut reader = BufReader::new(stream);
    match read_frame(&mut reader)? {
        Some(text) => Response::from_wire(&text),
        None => Err("server closed the connection without responding".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    /// Sustained load with no idle gap: each handler is over before the
    /// next starts, and starting the next joins it — the set never
    /// grows with the number of requests served.
    #[test]
    fn finished_handlers_are_joined_as_new_ones_start() {
        let mut handlers = Handlers::default();
        let (done, finished) = channel();
        for _ in 0..500 {
            let done = done.clone();
            handlers.spawn(move || done.send(()).unwrap());
            assert_eq!(handlers.live.len(), 1, "a finished handler was not joined");
            finished.recv().unwrap();
            // A handler is finished a moment after its last statement;
            // wait for that here, so the next spawn must find it so.
            let deadline = Instant::now() + Duration::from_secs(10);
            while !handlers.live.iter().all(thread::JoinHandle::is_finished) {
                assert!(Instant::now() < deadline, "a handler never finished");
                thread::yield_now();
            }
        }
        Handlers::join(handlers.live);
    }

    #[test]
    fn an_any_address_listener_is_woken_over_loopback() {
        let listener = TcpListener::bind("0.0.0.0:0").unwrap();
        let stop = StopSignal::for_listener(&listener).unwrap();
        assert_eq!(stop.wake.ip(), IpAddr::V4(Ipv4Addr::LOCALHOST));
        assert_eq!(stop.wake.port(), listener.local_addr().unwrap().port());
        stop.raise();
        assert!(stop.is_raised());
        listener.accept().expect("the wake-up connection");
    }
}
