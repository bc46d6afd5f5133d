//! The three workloads that call the engine in this process:
//! `catalogue_inproc`, `poly_faulted_fulldecode` and `poly_chaos_socket`.
//!
//! One operation prepares every case of the workload (`Engine::run`),
//! verifies each certificate in hand (`Engine::redeem`), and serves each
//! again from a certificate store (address, `CertStore::get`, redeem) —
//! what `Service::prepare` does on a cache hit.

use crate::cases::{Case, Prepared};
use crate::inputs::{self, Digest, Rng, Size};
use crate::layers::{self, RoundInputs};
use crate::metrics::{set_up_repeatedly, summarize, Layers, OpRecord, Resources, RunResult};
use crate::procstat::Family;
use crate::replay::{build_code, ReplayCounts};
use crate::stats::{median, tail};
use crate::trace::Tracer;
use camelot::cluster::{
    ChaosEffect, ChaosPlan, FaultKind, FaultPlan, SocketTransport, Transport, TransportTuning,
    WorkerMode, WorkerPool,
};
use camelot::core::{
    code_length, Certificate, Engine, EngineConfig, PrimeSchedule, RecoveryPolicy,
};
use camelot::ff::PrimeField;
use camelot::store::CertStore;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; the median is reported as `setup_s`.
pub const SETUPS: usize = 5;

/// Share of a traced run's seconds spent replaying; the rest is kept
/// for the stage probes that follow.
const REPLAY_SHARE: f64 = 0.75;

pub fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// The fault findings every prepare of a workload must report.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Findings {
    faulty: Vec<usize>,
    crashed: Vec<usize>,
    demoted: Vec<usize>,
}

pub struct Inproc {
    name: &'static str,
    cases: Vec<Box<dyn Case>>,
    config: EngineConfig,
    /// The persistent socket pool rounds run on; `None` runs them on the
    /// in-process backend the config names.
    socket: Option<SocketTransport>,
    /// How the socket pool's workers run.
    workers: WorkerMode,
    chaos: Option<ChaosPlan>,
    expect: Findings,
    /// Operations a set-up runs before it counts as warm: enough of them
    /// that `setup_s` is not one operation's luck.
    warm_up: usize,
    digest: u64,
}

impl Drop for Inproc {
    fn drop(&mut self) {
        if let Some(socket) = &self.socket {
            // Worker threads of a chaos plan exit on their own after the
            // hang grace; a teardown error leaves nothing to clean up.
            let _shut = socket.shutdown_pool();
        }
    }
}

pub fn catalogue_inproc(seed: u64, size: Size) -> Inproc {
    let mut digest = Digest::default();
    digest.bytes(b"catalogue_inproc");
    let cases = inputs::catalogue(seed, size, &mut digest);
    Inproc {
        name: "catalogue_inproc",
        cases,
        config: EngineConfig::sequential(8, 2),
        socket: None,
        workers: WorkerMode::Threads,
        chaos: None,
        expect: Findings::default(),
        warm_up: 3,
        digest: digest.0,
    }
}

pub fn poly_faulted_fulldecode(seed: u64, size: Size) -> Inproc {
    let (degree, fault_tolerance) = if size == Size::Full { (2048, 250) } else { (64, 20) };
    let mut digest = Digest::default();
    digest.bytes(b"poly_faulted_fulldecode");
    let mut rng = Rng::new(seed, "poly_faulted_fulldecode");
    let request = inputs::poly_request(&mut rng, degree, 60, PrimeSchedule::NttFriendly);
    let corrupt_seed = rng.next();
    digest.u64(corrupt_seed);
    let plan = FaultPlan::with_faults(
        16,
        &[(3, FaultKind::Corrupt { seed: corrupt_seed }), (9, FaultKind::Crash)],
    );
    Inproc {
        name: "poly_faulted_fulldecode",
        cases: vec![inputs::poly_case(request, &mut digest)],
        config: EngineConfig::sequential(16, fault_tolerance)
            .with_ntt_primes()
            .with_full_decoding()
            .with_plan(plan),
        socket: None,
        workers: WorkerMode::Threads,
        chaos: None,
        expect: Findings { faulty: vec![3], crashed: vec![9], demoted: vec![] },
        warm_up: 3,
        digest: digest.0,
    }
}

/// `poly_chaos_socket`, or with `quiet` its twin without the chaos plan.
pub fn poly_chaos_socket(seed: u64, size: Size, quiet: bool) -> Inproc {
    const NODES: usize = 12;
    let (degree, fault_tolerance, value_bits, deadline_ms, delay_ms) =
        if size == Size::Full { (255, 64, 60, 100, 25) } else { (15, 8, 15, 20, 5) };
    let mut digest = Digest::default();
    digest.bytes(b"poly_chaos_socket");
    let mut rng = Rng::new(seed, "poly_chaos_socket");
    let request = inputs::poly_request(&mut rng, degree, value_bits, PrimeSchedule::Smallest);
    // The standard chaos plan. The seed picks the four nodes; the effects
    // go to them in ascending order, because the pool drains replies in
    // node order and a delayed node ahead of the hung one adds its delay
    // to the round while one behind it does not — a fixed order keeps a
    // round's time a function of the configured numbers alone.
    let nodes = inputs::pick_nodes(&mut rng, NODES, 4);
    let garble_seed = rng.next();
    let effects = [
        (nodes[0], ChaosEffect::Delay { millis: delay_ms }),
        (nodes[1], ChaosEffect::Garble { seed: garble_seed }),
        (nodes[2], ChaosEffect::DropFrame),
        (nodes[3], ChaosEffect::Hang),
    ];
    digest.debug(&effects);
    let plan = ChaosPlan::with_effects(NODES, &effects).expect("picked nodes are in range");
    let chaos = (!quiet).then_some(plan);
    let tuning = TransportTuning::default()
        .with_io_deadline(Duration::from_millis(deadline_ms))
        .with_demotion(true);
    let socket = SocketTransport::persistent(WorkerMode::Threads)
        .with_tuning(tuning.clone())
        .with_chaos(chaos.clone());
    let expect = if quiet {
        Findings::default()
    } else {
        Findings {
            faulty: vec![nodes[1]],
            crashed: vec![nodes[2], nodes[3]],
            demoted: vec![nodes[2], nodes[3]],
        }
    };
    Inproc {
        name: "poly_chaos_socket",
        cases: vec![inputs::poly_case(request, &mut digest)],
        config: EngineConfig::sequential(NODES, fault_tolerance)
            .with_recovery(RecoveryPolicy::escalating(2))
            .with_tuning(tuning),
        socket: Some(socket),
        workers: WorkerMode::Threads,
        chaos,
        expect,
        // Its time is set by configured deadlines; one is as good as three.
        warm_up: 1,
        digest: digest.0,
    }
}

/// The engine `camelot-serve` builds for `daemon_socket_mix`, in this
/// process: the same cluster size, fault budget and persistent pool of
/// `camelot-node` worker processes, preparing one request of the
/// workload's shape. The daemon workload replays its misses on it.
pub fn daemon_engine_twin(
    seed: u64,
    degree: usize,
    nodes: usize,
    f: usize,
    node_bin: PathBuf,
) -> Inproc {
    let mut digest = Digest::default();
    digest.bytes(b"daemon_socket_mix");
    let mut rng = Rng::new(seed, "daemon_socket_mix twin");
    let request = inputs::poly_request(&mut rng, degree, 60, PrimeSchedule::Smallest);
    let workers = WorkerMode::Process(node_bin);
    Inproc {
        name: "daemon_socket_mix",
        cases: vec![inputs::poly_case(request, &mut digest)],
        config: EngineConfig::sequential(nodes, f),
        socket: Some(SocketTransport::persistent(workers.clone())),
        workers,
        chaos: None,
        expect: Findings::default(),
        warm_up: 3,
        digest: digest.0,
    }
}

impl Inproc {
    fn engine(&self) -> Engine {
        match &self.socket {
            Some(socket) => Engine::with_transport(self.config.clone(), Arc::new(socket.clone())),
            None => Engine::new(self.config.clone()),
        }
    }

    fn check_findings(&self, prepared: &Prepared) -> Result<(), String> {
        let mut demoted: Vec<usize> = prepared.report.demotions.iter().map(|d| d.node).collect();
        demoted.sort_unstable();
        let found = Findings {
            faulty: prepared.certificate.identified_faulty_nodes.clone(),
            crashed: prepared.certificate.crashed_nodes.clone(),
            demoted,
        };
        if found == self.expect {
            Ok(())
        } else {
            Err(format!("fault findings {found:?}, the plan says {:?}", self.expect))
        }
    }

    /// One closed-loop operation; fills `record` as far as it gets.
    fn operate(
        &self,
        engine: &Engine,
        store: &mut CertStore,
        record: &mut OpRecord,
    ) -> Result<Vec<Prepared>, String> {
        let started = Instant::now();
        let mut prepared = Vec::with_capacity(self.cases.len());
        for case in &self.cases {
            record.requests += 1;
            let one = case.prepare(engine)?;
            self.check_findings(&one)?;
            prepared.push(one);
        }
        record.prepare_ms.push(ms(started.elapsed()));

        for (case, one) in self.cases.iter().zip(&prepared) {
            store
                .put(&case.key(&self.config), &one.certificate)
                .map_err(|e| format!("filing the certificate: {e}"))?;
        }

        let started = Instant::now();
        for (case, one) in self.cases.iter().zip(&prepared) {
            record.requests += 1;
            case.redeem(engine, &one.certificate)?;
        }
        record.verify_ms.push(ms(started.elapsed()));

        let started = Instant::now();
        let mut served = Vec::with_capacity(self.cases.len());
        for case in &self.cases {
            record.requests += 1;
            let certificate = store
                .get(&case.key(&self.config))
                .ok_or_else(|| format!("{}: the store lost a filed certificate", case.family()))?;
            case.redeem(engine, &certificate)?;
            served.push(certificate);
        }
        record.hit_ms.push(ms(started.elapsed()));
        if served.iter().zip(&prepared).any(|(s, p)| *s != p.certificate) {
            return Err("the store served a certificate other than the one filed".to_string());
        }
        Ok(prepared)
    }
}

/// Builds the workload `setups` times (inputs, reference answers, pool
/// start, warm-up operations), keeping the last.
fn set_up(build: &dyn Fn() -> Inproc, setups: usize) -> Result<(Inproc, Vec<f64>), String> {
    let warm = || {
        let workload = build();
        let engine = workload.engine();
        let mut store = CertStore::in_memory(64);
        for _ in 0..workload.warm_up {
            workload
                .operate(&engine, &mut store, &mut OpRecord::default())
                .map_err(|e| format!("warm-up: {e}"))?;
        }
        Ok(workload)
    };
    set_up_repeatedly(setups, warm, |previous| {
        drop(previous);
        Ok(())
    })
}

/// The untraced run: end-to-end metrics of `seconds` of closed-loop
/// operations.
pub fn run_end_to_end(
    build: &dyn Fn() -> Inproc,
    seconds: f64,
    setups: usize,
    family: &mut Family,
) -> Result<RunResult, String> {
    let (workload, setups_s) = set_up(build, setups)?;
    let engine = workload.engine();
    let mut store = CertStore::in_memory(64);
    let mut ops = Vec::new();
    let before = family.sample();
    let clock = Instant::now();
    while clock.elapsed().as_secs_f64() < seconds {
        let mut record = OpRecord::default();
        record.failure = workload.operate(&engine, &mut store, &mut record).err();
        record.end_s = clock.elapsed().as_secs_f64();
        ops.push(record);
    }
    let wall_s = clock.elapsed().as_secs_f64();
    let after = family.sample();
    let (name, digest) = (workload.name, workload.digest);
    drop(workload);
    let resources = Resources::between(setups_s, wall_s, before, after);
    Ok(summarize(name, digest, &ops, &resources, Vec::new()))
}

/// What the replays of a traced run add up to.
#[derive(Default)]
struct ReplayTotals {
    replays: usize,
    /// Wall time of each operation's replays, and of the engine's own
    /// prepare of the same operation, in milliseconds.
    replay_ms: Vec<f64>,
    engine_ms: Vec<f64>,
    verify_ms: Vec<f64>,
    counts: ReplayCounts,
    /// The engine's prepares and the replays' counts, per case family.
    family_ms: BTreeMap<&'static str, Vec<f64>>,
    family_counts: BTreeMap<&'static str, ReplayCounts>,
    /// The last operation's certificates.
    certificates: Vec<Certificate>,
    failed: u64,
    mismatches: Vec<String>,
}

/// Writes the layer metrics every workload derives the same way from
/// its spans and replay counts. Seconds and counts are per operation.
fn replay_layers(
    tracer: &Tracer,
    totals: &ReplayTotals,
    io_deadline: Option<Duration>,
    layers: &mut Layers,
    violations: &mut Vec<String>,
) {
    let ops = totals.replay_ms.len().max(1) as f64;
    let per_op = |d: Duration| d.as_secs_f64() / ops;
    let own = tracer.self_times();
    let stage = |name: &str| own.get(name).map_or(0.0, |d| per_op(*d));
    layers.set("core.primes_s", stage("core.primes"));
    layers.set("core.recover_s", stage("core.recover"));
    layers.set("core.spot_check_s", stage("core.spot_check"));
    layers.set("rscode.build_s", stage("rscode.build"));
    layers.set("rscode.decode_s", stage("rscode.decode"));
    layers.set("problem.evaluator_build_s", stage("problem.evaluator_build"));
    layers.set("cluster.round_s", stage("cluster.round"));

    let counts = &totals.counts;
    let count = |n: usize| n as f64 / ops;
    layers.set("core.verification_evals", count(counts.verification_evals));
    layers.set("rscode.decode_first_s", per_op(counts.decode_first));
    layers.set("rscode.decode_repeat_s", per_op(counts.decode_repeat));
    layers.set("rscode.decode_interpolate_s", per_op(counts.decode_interpolate));
    layers.set("rscode.decode_xgcd_s", per_op(counts.decode_xgcd));
    layers.set("rscode.decode_reencode_s", per_op(counts.decode_reencode));
    layers.set("rscode.decodes", count(counts.decodes));
    layers.set("rscode.erasures", count(counts.erasures));
    layers.set("rscode.errors_corrected", count(counts.errors_corrected));
    layers.set("cluster.evaluate_s", per_op(counts.evaluate_total));
    layers.set("cluster.evaluate_critical_s", per_op(counts.evaluate_critical));
    layers.set(
        "cluster.balance_ratio",
        (counts.nodes * counts.evaluations_max) as f64 / counts.evaluations_total.max(1) as f64,
    );
    layers.set("cluster.bytes_modelled", counts.bytes_modelled as f64 / ops);
    layers.set("cluster.symbols", count(counts.symbols));
    layers.set("cluster.rounds", count(counts.rounds));
    layers.set("cluster.demotions", counts.demoted_nodes.len() as f64);
    layers.set("cluster.retries", f64::from(counts.retries) / ops);
    layers.set("cluster.escalations", f64::from(counts.escalations) / ops);
    if let Some(deadline) = io_deadline {
        layers.set(
            "cluster.deadline_waits",
            per_op(counts.round_time) / deadline.as_secs_f64().max(f64::EPSILON),
        );
    }
    // A sequential in-process round is its nodes' evaluations back to
    // back; a socket round waits for the busiest worker.
    let blocking =
        if io_deadline.is_some() { counts.evaluate_critical } else { counts.evaluate_total };
    layers.set(
        "cluster.transport_overhead_s",
        per_op(counts.round_time) - per_op(blocking) - layers::codec_seconds(layers),
    );

    for (family, samples) in totals.family_ms.iter().filter(|(family, _)| **family != "poly") {
        layers.set(&format!("{family}.prepare_p50_ms"), median(samples));
        let counts = &totals.family_counts[family];
        layers.set(
            &format!("{family}.eval_point_us"),
            counts.evaluate_total.as_secs_f64() * 1e6 / counts.evaluations_total.max(1) as f64,
        );
    }

    let replay = median(&totals.replay_ms);
    let engine = median(&totals.engine_ms);
    let verify = median(&totals.verify_ms);
    // Each replay against the engine's prepare right before it: on a
    // shared machine neighbours in time share the machine's mood.
    let ratios: Vec<f64> = totals
        .replay_ms
        .iter()
        .zip(&totals.engine_ms)
        .map(|(replay, engine)| replay / engine.max(f64::EPSILON))
        .collect();
    let gap = (median(&ratios) - 1.0).abs();
    layers.set("core.replay_gap_ratio", gap);
    layers.set("core.prepare_to_verify_ratio", engine / verify.max(f64::EPSILON));
    let (pct, value) = tail(&totals.engine_ms);
    layers.set("core.prepare_tail_ms", value);
    layers.set("core.prepare_tail_pct", pct);
    let (wall, covered) = tracer.coverage();
    let cover = covered.as_secs_f64() / wall.as_secs_f64().max(f64::EPSILON);
    layers.set("trace.span_cover_ratio", cover);
    layers.set("trace.replays", totals.replays as f64);

    if cover < 0.95 {
        violations.push(format!("layer spans cover {cover:.3} of the replays' wall time (< 0.95)"));
    }
    if gap > 0.20 {
        violations.push(format!(
            "replays (median {replay:.3} ms) are {gap:.3} away from the engine's prepares \
             (median {engine:.3} ms), more than 0.20"
        ));
    }
    violations.extend(totals.mismatches.iter().cloned());
}

/// A traced run's result before it is frozen into a [`RunResult`]; the
/// daemon workload adds its server layers to it first.
pub struct Traced {
    pub name: &'static str,
    pub digest: u64,
    pub attempted: u64,
    pub failed: u64,
    pub layers: Layers,
    pub violations: Vec<String>,
    pub prepare_tail: (f64, f64),
}

impl Traced {
    pub fn finish(self) -> RunResult {
        RunResult {
            workload: self.name,
            traced: true,
            digest: self.digest,
            attempted: self.attempted,
            failed: self.failed,
            violations: self.violations,
            metrics: self.layers.into_metrics(),
            spreads: BTreeMap::new(),
            prepare_tail: self.prepare_tail,
            cpu_ms_per_prepare: 0.0,
            steal_share: 0.0,
        }
    }
}

/// Alternates the engine's own prepare of an operation with the
/// stage-by-stage replay of the same operation until the replay share of
/// `seconds` is spent.
fn replay_operations(workload: &Inproc, seconds: f64, tracer: &mut Tracer) -> ReplayTotals {
    let engine = workload.engine();
    let fresh;
    let transport: &dyn Transport = match &workload.socket {
        Some(socket) => socket,
        None => {
            fresh = workload.config.cluster.transport();
            &*fresh
        }
    };
    let mut totals = ReplayTotals::default();
    let clock = Instant::now();
    while totals.replay_ms.len() < 2 || clock.elapsed().as_secs_f64() < seconds * REPLAY_SHARE {
        let mut operation = || -> Result<(), String> {
            let mut engine_ms = 0.0;
            totals.certificates.clear();
            for case in &workload.cases {
                let started = Instant::now();
                let prepared = case.prepare(&engine)?;
                let elapsed = ms(started.elapsed());
                workload.check_findings(&prepared)?;
                engine_ms += elapsed;
                totals.family_ms.entry(case.family()).or_default().push(elapsed);
                totals.certificates.push(prepared.certificate);
            }
            let started = Instant::now();
            for (case, certificate) in workload.cases.iter().zip(&totals.certificates) {
                case.redeem(&engine, certificate)?;
            }
            totals.verify_ms.push(ms(started.elapsed()));
            totals.engine_ms.push(engine_ms);

            let mut replay_ms = 0.0;
            for (case, certificate) in workload.cases.iter().zip(&totals.certificates) {
                let (replayed, counts) = case.replay(&workload.config, transport, tracer)?;
                replay_ms += ms(counts.wall);
                totals.replays += 1;
                if replayed != *certificate || replayed.to_wire() != certificate.to_wire() {
                    totals.mismatches.push(format!(
                        "{}: the replayed certificate differs from Engine::run's",
                        case.family()
                    ));
                }
                totals.counts.add(&counts);
                totals.family_counts.entry(case.family()).or_default().add(&counts);
            }
            totals.replay_ms.push(replay_ms);
            Ok(())
        };
        if let Err(message) = operation() {
            totals.failed += 1;
            totals.mismatches.push(message);
            if totals.failed > 3 {
                break;
            }
        }
    }
    totals
}

/// Times the pure stage functions on the workload's real inputs: the
/// first case's first prime is the round its transport really carries.
fn probe_stages(
    workload: &Inproc,
    totals: &ReplayTotals,
    layers: &mut Layers,
) -> Result<(), String> {
    let first = &workload.cases[0];
    let config = &workload.config;
    let spec = first.spec();
    let e = code_length(&spec, config.fault_tolerance);
    let field = PrimeField::new_unchecked(config.primes_for(&spec, e)[0]);
    if let (Some(_), Some(programs)) = (&workload.socket, first.programs(&field)) {
        let code = build_code(config, &field, e);
        let nodes = config.cluster.nodes;
        let plan = config.plan.clone().unwrap_or_else(|| FaultPlan::all_honest(nodes));
        let inputs = RoundInputs {
            field: &field,
            points: code.points(),
            plan: &plan,
            programs: &programs,
            chaos: workload.chaos.as_ref(),
            deadline_ms: config.cluster.tuning.deadline_ms(),
        };
        let operations = totals.replay_ms.len().max(1);
        layers::round_codecs(&inputs, totals.counts.rounds / operations, layers);

        let started = Instant::now();
        let pool =
            WorkerPool::start(workload.workers.clone(), nodes, config.cluster.tuning.clone());
        layers.set("cluster.pool_start_s", started.elapsed().as_secs_f64());
        pool.and_then(|mut pool| pool.shutdown()).map_err(|e| format!("probe pool: {e}"))?;
    }
    layers::certificate_codec(&totals.certificates, layers);
    if let Some(certificate) = totals.certificates.first() {
        let key_parts = [first.family().as_bytes(), &spec.degree_bound.to_le_bytes()[..]];
        layers::store_ops(certificate, &key_parts, layers);
    }
    layers::yardsticks(&field, e, layers);
    Ok(())
}

/// Median prepare of `poly_chaos_socket` without its chaos plan.
fn quiet_twin_ms(build: &dyn Fn() -> Inproc) -> Result<f64, String> {
    let (twin, _) = set_up(build, 1)?;
    let engine = twin.engine();
    let mut samples = Vec::new();
    for _ in 0..9 {
        let started = Instant::now();
        for case in &twin.cases {
            twin.check_findings(&case.prepare(&engine)?)?;
        }
        samples.push(ms(started.elapsed()));
    }
    Ok(median(&samples))
}

/// The traced run: replays, then the stage probes, then the layers.
pub fn run_traced(
    build: &dyn Fn() -> Inproc,
    quiet_twin: Option<&dyn Fn() -> Inproc>,
    seconds: f64,
    tracer: &mut Tracer,
    family: &mut Family,
) -> Result<Traced, String> {
    let (workload, _) = set_up(build, 1)?;
    let totals = replay_operations(&workload, seconds, tracer);
    // While the pool's workers are up, so the end-of-run check knows them.
    family.sample();

    let mut layers = Layers::default();
    let mut violations = Vec::new();
    probe_stages(&workload, &totals, &mut layers)?;
    if let Some(build_quiet) = quiet_twin {
        layers.set("cluster.quiet_twin_prepare_ms", quiet_twin_ms(build_quiet)?);
    }
    let io_deadline = workload.socket.as_ref().map(|_| workload.config.cluster.tuning.io_deadline);
    replay_layers(tracer, &totals, io_deadline, &mut layers, &mut violations);
    Ok(Traced {
        name: workload.name,
        digest: workload.digest,
        attempted: (totals.replay_ms.len() as u64 + totals.failed).max(1),
        failed: totals.failed,
        layers,
        violations,
        prepare_tail: tail(&totals.engine_ms),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_inputs_follow_the_seed() {
        let digests = |seed: u64| {
            [
                catalogue_inproc(seed, Size::Smoke).digest,
                poly_faulted_fulldecode(seed, Size::Smoke).digest,
                poly_chaos_socket(seed, Size::Smoke, false).digest,
            ]
        };
        assert_eq!(digests(11), digests(11));
        let (a, b) = (digests(11), digests(12));
        assert!(a.iter().zip(&b).all(|(x, y)| x != y), "{a:?} vs {b:?}");
    }

    #[test]
    fn chaos_plan_keeps_its_effects_in_node_order_and_in_radius() {
        for seed in 0..16 {
            let workload = poly_chaos_socket(seed, Size::Full, false);
            let plan = workload.chaos.as_ref().expect("not the quiet twin");
            let nodes = plan.affected_nodes();
            assert_eq!(nodes.len(), 4);
            assert!(matches!(plan.effect(nodes[0]), Some(ChaosEffect::Delay { millis: 25 })));
            assert!(matches!(plan.effect(nodes[1]), Some(ChaosEffect::Garble { .. })));
            assert_eq!(plan.effect(nodes[2]), Some(ChaosEffect::DropFrame));
            assert_eq!(plan.effect(nodes[3]), Some(ChaosEffect::Hang));
            // 384 points on 12 nodes: one garbled node is 32 errors, two
            // demoted nodes are 64 erasures, and 2·32 + 64 = 2f exactly.
            assert_eq!(workload.expect.crashed, vec![nodes[2], nodes[3]]);
            assert_eq!(workload.expect.faulty, vec![nodes[1]]);
        }
    }
}
