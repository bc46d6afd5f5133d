//! `daemon_socket_mix`: a spawned `camelot-serve` with `camelot-node`
//! worker processes, driven over TCP by closed-loop client threads.
//!
//! One session is one fresh `prepare` (a miss), three repeat `prepare`s
//! of keys drawn from the clients' recent keys — more keys than the
//! daemon's store holds, so some repeats were evicted and are prepared
//! again beside the hits — and one `verify` of the certificate the
//! client holds.

use crate::inproc::{self, ms, Traced};
use crate::inputs::{self, Digest, Rng, Size};
use crate::layers::{self, time_median};
use crate::metrics::{set_up_repeatedly, summarize, OpRecord, Resources, RunResult};
use crate::procstat::Family;
use crate::stats::{median, tail};
use crate::trace::Tracer;
use camelot::cluster::{sibling_binary, WorkerMode};
use camelot::core::{Certificate, PrimeSchedule};
use camelot::server::{request, PolyRequest, Request, Response, Service, ServiceConfig};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

const NODES: usize = 4;
const FAULT_TOLERANCE: usize = 16;
const BATCH_WINDOW_MS: u64 = 1;
const STORE_CAPACITY: usize = 64;
/// Degree of every request: small enough that a round is about a
/// millisecond of algebra and the codecs, sockets and store carry the
/// latency.
const DEGREE: usize = 64;
/// Keys repeats are drawn from, over all clients: 1.5 × the store.
const WORKING_SET: usize = 96;
const REPEATS: usize = 3;
/// Every this many sessions a client also submits a tampered copy of
/// its certificate, which `verify` must reject.
const TAMPER_EVERY: u64 = 8;
const WARM_UP_SESSIONS: usize = 24;

/// A sibling workspace binary, or the instruction that produces it.
pub fn sibling(name: &str) -> Result<PathBuf, String> {
    sibling_binary(name).ok_or_else(|| {
        format!("{name} not found next to bench_e2e: run `cargo build --release` first")
    })
}

/// A running `camelot-serve`; killed and reaped on drop, on every path.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn spawn() -> Result<Daemon, String> {
        let serve = sibling("camelot-serve")?;
        sibling("camelot-node")?;
        let mut child = Command::new(&serve)
            .args(["--listen", "127.0.0.1:0", "--workers", "process"])
            .args(["--nodes", &NODES.to_string()])
            .args(["--fault-tolerance", &FAULT_TOLERANCE.to_string()])
            .args(["--batch-window-ms", &BATCH_WINDOW_MS.to_string()])
            .args(["--store-capacity", &STORE_CAPACITY.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", serve.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        // The daemon owns the port choice; its first line names it.
        let (sender, receiver) = mpsc::channel();
        std::thread::spawn(move || {
            let mut line = String::new();
            let _read = BufReader::new(stdout).read_line(&mut line);
            let _sent = sender.send(line);
        });
        let mut daemon = Daemon { child, addr: String::new() };
        let line = receiver
            .recv_timeout(Duration::from_secs(10))
            .map_err(|_| "camelot-serve did not announce its port within 10 s".to_string())?;
        daemon.addr = line
            .trim()
            .strip_prefix("camelot-serve listening on ")
            .ok_or_else(|| format!("unexpected camelot-serve greeting {line:?}"))?
            .to_string();
        Ok(daemon)
    }

    /// Asks the daemon to stop, which reaps its workers, and waits.
    fn shut_down(mut self) -> Result<(), String> {
        request(&self.addr, &Request::Shutdown)?;
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("camelot-serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Ok(None) => return Err("camelot-serve ignored the shutdown request".to_string()),
                Err(e) => return Err(format!("waiting for camelot-serve: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Already reaped after a clean shut-down; otherwise the workers
        // see their connections close and exit with the daemon.
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _killed = self.child.kill();
            let _reaped = self.child.wait();
        }
    }
}

struct Held {
    poly: PolyRequest,
    certificate: String,
    output: u128,
}

/// What a client saw beyond its operation log.
#[derive(Default)]
struct Seen {
    coalesced: Vec<f64>,
    last_miss: Option<(PolyRequest, Response)>,
}

struct Client {
    addr: String,
    rng: Rng,
    held: VecDeque<Held>,
    window: usize,
    sessions: u64,
    seen: Seen,
}

/// A successful answer with the expected output and a certificate.
fn answered(response: &Response, expect: u128) -> Result<&str, String> {
    if !response.ok {
        return Err(format!("daemon refused: {}", response.error.as_deref().unwrap_or("?")));
    }
    if response.output != Some(expect) {
        return Err(format!("daemon answered {:?}, reference says {expect}", response.output));
    }
    response.certificate.as_deref().ok_or_else(|| "answer without a certificate".to_string())
}

/// `certificate` with one coefficient of its first proof changed.
fn tampered(certificate: &str) -> Result<String, String> {
    let mut parsed = Certificate::from_wire(certificate).map_err(|e| e.to_string())?;
    let proof = parsed.proofs.first_mut().ok_or("certificate without proofs")?;
    let modulus = proof.modulus;
    let coefficient = proof.coefficients.first_mut().ok_or("proof without coefficients")?;
    *coefficient = (*coefficient + 1) % modulus;
    Ok(parsed.to_wire())
}

impl Client {
    fn new(addr: &str, seed: u64, index: usize, clients: usize) -> Client {
        Client {
            addr: addr.to_string(),
            rng: Rng::new(seed, &format!("daemon_socket_mix client {index}")),
            held: VecDeque::new(),
            window: (WORKING_SET / clients.max(1)).max(REPEATS),
            sessions: 0,
            seen: Seen::default(),
        }
    }

    fn fresh(&mut self) -> PolyRequest {
        inputs::poly_request(&mut self.rng, DEGREE, 60, PrimeSchedule::Smallest)
    }

    fn session(&mut self, record: &mut OpRecord) -> Result<(), String> {
        self.sessions += 1;
        let poly = self.fresh();
        let expect = inputs::poly_sum(&poly);

        record.requests += 1;
        let started = Instant::now();
        let response = request(&self.addr, &Request::Prepare(poly.clone()))?;
        let elapsed = ms(started.elapsed());
        let certificate = answered(&response, expect)?.to_string();
        if response.cache_hit || response.rounds == 0 {
            return Err("a never-seen request was answered from the store".to_string());
        }
        record.prepare_ms.push(elapsed);
        self.seen.coalesced.push(response.coalesced as f64);
        self.seen.last_miss = Some((poly.clone(), response));
        self.held.push_back(Held {
            poly: poly.clone(),
            certificate: certificate.clone(),
            output: expect,
        });
        if self.held.len() > self.window {
            self.held.pop_front();
        }

        for _ in 0..REPEATS {
            let pick = self.rng.below(self.held.len() as u64) as usize;
            let held = &self.held[pick];
            record.requests += 1;
            let started = Instant::now();
            let response = request(&self.addr, &Request::Prepare(held.poly.clone()))?;
            let elapsed = ms(started.elapsed());
            if answered(&response, held.output)? != held.certificate {
                return Err("a repeat returned a certificate other than the first".to_string());
            }
            match (response.cache_hit, response.rounds) {
                (true, 0) => record.hit_ms.push(elapsed),
                // Evicted in the meantime: prepared again, a miss.
                (false, rounds) if rounds > 0 => record.prepare_ms.push(elapsed),
                (hit, rounds) => {
                    return Err(format!("repeat answered cache-hit {hit} with {rounds} rounds"));
                }
            }
        }

        record.requests += 1;
        let started = Instant::now();
        let verify = Request::Verify { poly: poly.clone(), certificate: certificate.clone() };
        let response = request(&self.addr, &verify)?;
        let elapsed = ms(started.elapsed());
        if !response.ok || response.output != Some(expect) {
            return Err(format!("verify rejected a prepared certificate: {:?}", response.error));
        }
        record.verify_ms.push(elapsed);

        if self.sessions % TAMPER_EVERY == 1 {
            record.requests += 1;
            let forged = Request::Verify { poly, certificate: tampered(&certificate)? };
            if request(&self.addr, &forged)?.ok {
                return Err("verify accepted a tampered certificate".to_string());
            }
        }
        Ok(())
    }
}

fn client_count() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Spawns the daemon and warms it up (pool start, first rounds).
fn start(seed: u64) -> Result<Daemon, String> {
    let daemon = Daemon::spawn()?;
    let mut client = Client::new(&daemon.addr, seed, usize::MAX, 1);
    for _ in 0..WARM_UP_SESSIONS {
        client.session(&mut OpRecord::default()).map_err(|e| format!("warm-up: {e}"))?;
    }
    Ok(daemon)
}

struct Drive {
    ops: Vec<OpRecord>,
    wall_s: f64,
    seen: Seen,
}

/// `seconds` of closed-loop sessions from one client thread per core.
fn drive(daemon: &Daemon, seed: u64, seconds: f64) -> Drive {
    let clients = client_count();
    let clock = Instant::now();
    let per_client: Vec<(Vec<OpRecord>, Seen)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|index| {
                let mut client = Client::new(&daemon.addr, seed, index, clients);
                scope.spawn(move || {
                    let mut ops = Vec::new();
                    while clock.elapsed().as_secs_f64() < seconds {
                        let mut record = OpRecord::default();
                        record.failure = client.session(&mut record).err();
                        record.end_s = clock.elapsed().as_secs_f64();
                        ops.push(record);
                    }
                    (ops, client.seen)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let wall_s = clock.elapsed().as_secs_f64();
    let mut ops = Vec::new();
    let mut seen = Seen::default();
    for (client_ops, client_seen) in per_client {
        ops.extend(client_ops);
        seen.coalesced.extend(client_seen.coalesced);
        seen.last_miss = client_seen.last_miss.or(seen.last_miss);
    }
    ops.sort_by(|a, b| a.end_s.total_cmp(&b.end_s));
    Drive { ops, wall_s, seen }
}

/// The workload's digest: its shape and the start of every client's
/// request stream.
fn digest(seed: u64) -> u64 {
    let mut digest = Digest::default();
    digest.bytes(b"daemon_socket_mix");
    for v in [NODES, FAULT_TOLERANCE, STORE_CAPACITY, DEGREE, WORKING_SET, REPEATS] {
        digest.u64(v as u64);
    }
    for index in 0..client_count() {
        let mut client = Client::new("", seed, index, client_count());
        for _ in 0..4 {
            digest.bytes(&inputs::poly_input_bytes(&client.fresh()));
        }
    }
    digest.0
}

pub fn run_end_to_end(
    seed: u64,
    seconds: f64,
    setups: usize,
    family: &mut Family,
) -> Result<RunResult, String> {
    let (daemon, setups_s) = set_up_repeatedly(setups, || start(seed), Daemon::shut_down)?;

    let before = family.sample();
    let drive = drive(&daemon, seed, seconds);
    let after = family.sample();
    let mut violations = Vec::new();
    if let Err(e) = daemon.shut_down() {
        violations.push(e);
    }
    let resources = Resources::between(setups_s, drive.wall_s, before, after);
    Ok(summarize("daemon_socket_mix", digest(seed), &drive.ops, &resources, violations))
}

/// Milliseconds of `Service::prepare` misses in this process, on the
/// daemon's configuration: the daemon's work without TCP.
fn service_prepare_ms(
    seed: u64,
    size: Size,
    node_bin: &Path,
    family: &mut Family,
    violations: &mut Vec<String>,
) -> Result<Vec<f64>, String> {
    let config = ServiceConfig {
        nodes: NODES,
        fault_tolerance: FAULT_TOLERANCE,
        workers: WorkerMode::Process(node_bin.to_path_buf()),
        batch_window: Duration::from_millis(BATCH_WINDOW_MS),
        store_capacity: STORE_CAPACITY,
        ..ServiceConfig::default()
    };
    let service = Service::new(config)?;
    let mut rng = Rng::new(seed, "daemon_socket_mix in-process");
    let mut inproc_ms = Vec::new();
    let samples = if size == Size::Full { 40 } else { 8 };
    for i in 0..samples + 2 {
        let poly = inputs::poly_request(&mut rng, DEGREE, 60, PrimeSchedule::Smallest);
        let started = Instant::now();
        let outcome = service.prepare(&poly).map_err(|e| format!("Service::prepare: {e}"))?;
        // The first two start the pool and warm the caches.
        if i >= 2 {
            inproc_ms.push(ms(started.elapsed()));
        }
        if outcome.output != inputs::poly_sum(&poly) {
            violations.push("Service::prepare returned a wrong sum".to_string());
        }
    }
    family.sample();
    service.shutdown()?;
    Ok(inproc_ms)
}

/// The traced run: the daemon's own numbers over TCP, `Service::prepare`
/// in this process, and the stage-by-stage replay of a miss on the
/// engine the daemon builds.
pub fn run_traced(
    seed: u64,
    size: Size,
    seconds: f64,
    tracer: &mut Tracer,
    family: &mut Family,
) -> Result<Traced, String> {
    let node_bin = sibling("camelot-node")?;

    let daemon = start(seed)?;
    let before = family.sample();
    let drive = drive(&daemon, seed, seconds * 0.3);
    let after = family.sample();
    let status = request(&daemon.addr, &Request::Status)?;
    let mut violations = Vec::new();
    if let Err(e) = daemon.shut_down() {
        violations.push(e);
    }

    let inproc_ms = service_prepare_ms(seed, size, &node_bin, family, &mut violations)?;

    let twin =
        || inproc::daemon_engine_twin(seed, DEGREE, NODES, FAULT_TOLERANCE, node_bin.clone());
    let mut traced = inproc::run_traced(&twin, None, seconds * 0.5, tracer, family)?;
    traced.digest = digest(seed);
    traced.violations.extend(violations);

    let layers = &mut traced.layers;
    let misses: Vec<f64> = drive.ops.iter().flat_map(|op| op.prepare_ms.iter().copied()).collect();
    let miss_s = median(&misses) / 1e3;
    let inproc_s = median(&inproc_ms) / 1e3;
    layers.set("server.inproc_prepare_s", inproc_s);
    layers.set("server.tcp_overhead_s", miss_s - inproc_s);
    let window = Duration::from_millis(BATCH_WINDOW_MS);
    layers.set("server.admission_window_s", time_median(21, || std::thread::sleep(window)));
    layers.set(
        "server.coalescing_factor",
        drive.seen.coalesced.iter().sum::<f64>() / drive.seen.coalesced.len().max(1) as f64,
    );
    let (pct, value) = tail(&misses);
    layers.set("server.prepare_tail_ms", value);
    layers.set("server.prepare_tail_pct", pct);
    // Harness, daemon and workers together: the clients are part of what
    // a session costs.
    let sessions = drive.ops.len().max(1) as f64;
    let user_ms = after.user_ms - before.user_ms;
    layers.set("server.cpu_user_ms", user_ms / sessions);
    layers.set("server.cpu_sys_ms", (after.cpu_ms - before.cpu_ms - user_ms) / sessions);
    layers.set("server.respawns", status.respawns as f64);
    layers.set("server.worker_failures", status.worker_failures as f64);
    layers.set(
        "store.hit_ratio",
        status.store_hits as f64 / (status.store_hits + status.store_misses).max(1) as f64,
    );
    if let Some((poly, response)) = &drive.seen.last_miss {
        layers::server_codecs(poly, response, layers);
    }
    let failed_sessions = drive.ops.iter().filter(|op| op.failure.is_some()).count() as u64;
    traced.attempted += drive.ops.len() as u64;
    traced.failed += failed_sessions;
    traced.violations.extend(drive.ops.iter().filter_map(|op| op.failure.clone()).take(3));
    Ok(traced)
}
