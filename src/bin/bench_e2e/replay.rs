//! The traced replay: one prepare re-executed stage by stage from
//! outside the engine, through the same public functions `Engine::run`
//! calls in the same order, with a span around each call into a layer.
//!
//! primes → per prime: build code, build evaluator, `Transport::run`,
//! decode per decider, spot-check → recover. The result must be the
//! certificate `Engine::run` produces, bit for bit; the callers check.

use crate::trace::Tracer;
use camelot::cluster::{EvalProgram, FaultPlan, RoundEval, RoundSpec, Transport};
use camelot::core::{
    code_length, CamelotError, CamelotProblem, Certificate, EngineConfig, Evaluate, PrimeProof,
    PrimeSchedule, ProofSpec,
};
use camelot::ff::{PrimeField, SplitMix64};
use camelot::rscode::RsCode;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// What one replay measured besides its spans, summed over its primes.
#[derive(Clone, Debug, Default)]
pub struct ReplayCounts {
    /// The replay's wall time: its root span.
    pub wall: Duration,
    /// Σ over nodes of the evaluation time each node reported.
    pub evaluate_total: Duration,
    /// Σ over rounds of the busiest node's evaluation time.
    pub evaluate_critical: Duration,
    pub evaluations_total: usize,
    /// Σ over rounds of the busiest node's evaluation count.
    pub evaluations_max: usize,
    pub nodes: usize,
    pub round_time: Duration,
    pub rounds: usize,
    pub symbols: usize,
    pub bytes_modelled: u64,
    pub decodes: usize,
    pub decode_interpolate: Duration,
    pub decode_xgcd: Duration,
    pub decode_reencode: Duration,
    /// First decider's decode on each prime's freshly built code.
    pub decode_first: Duration,
    /// The same word decoded once more on the same code, after the
    /// replay's wall time ended: the first decode minus this is what a
    /// fresh code's cold trees cost.
    pub decode_repeat: Duration,
    pub erasures: usize,
    pub errors_corrected: usize,
    pub verification_evals: usize,
    pub demoted_nodes: BTreeSet<usize>,
    pub retries: u32,
    pub escalations: u32,
}

impl ReplayCounts {
    /// Adds another replay's measurements to these.
    pub fn add(&mut self, other: &ReplayCounts) {
        self.wall += other.wall;
        self.evaluate_total += other.evaluate_total;
        self.evaluate_critical += other.evaluate_critical;
        self.evaluations_total += other.evaluations_total;
        self.evaluations_max += other.evaluations_max;
        self.nodes = other.nodes;
        self.round_time += other.round_time;
        self.rounds += other.rounds;
        self.symbols += other.symbols;
        self.bytes_modelled += other.bytes_modelled;
        self.decodes += other.decodes;
        self.decode_interpolate += other.decode_interpolate;
        self.decode_xgcd += other.decode_xgcd;
        self.decode_reencode += other.decode_reencode;
        self.decode_first += other.decode_first;
        self.decode_repeat += other.decode_repeat;
        self.erasures += other.erasures;
        self.errors_corrected += other.errors_corrected;
        self.verification_evals += other.verification_evals;
        self.demoted_nodes.extend(&other.demoted_nodes);
        self.retries += other.retries;
        self.escalations += other.escalations;
    }
}

/// The code the engine builds for one prime under `config`'s schedule.
pub fn build_code(config: &EngineConfig, field: &PrimeField, e: usize) -> RsCode {
    match config.prime_schedule {
        PrimeSchedule::Smallest => RsCode::consecutive(field, e),
        PrimeSchedule::NttFriendly => {
            RsCode::roots_of_unity(field, e).unwrap_or_else(|| RsCode::consecutive(field, e))
        }
    }
}

pub struct Replayed<T> {
    pub output: T,
    pub certificate: Certificate,
    pub counts: ReplayCounts,
}

/// A problem's evaluator as the width-1 round the engine runs for it.
struct SoloRound<'a>(&'a dyn Evaluate);

impl RoundEval for SoloRound<'_> {
    fn width(&self) -> usize {
        1
    }

    fn eval(&self, _poly: usize, x: u64) -> u64 {
        self.0.eval(x)
    }

    fn programs(&self) -> Option<Vec<EvalProgram>> {
        self.0.program().map(|program| vec![program])
    }
}

/// Replays `Engine::run(problem)` for an engine built from `config` on
/// `transport`, including the engine's recovery loop.
pub fn replay_prepare<P: CamelotProblem>(
    config: &EngineConfig,
    transport: &dyn Transport,
    problem: &P,
    tracer: &mut Tracer,
) -> Result<Replayed<P::Output>, CamelotError> {
    tracer.next_request();
    let started = Instant::now();
    let root = tracer.open("prepare");
    let spec = problem.spec();
    let policy = config.recovery;
    let (mut retries, mut escalations) = (0u32, 0u32);
    let mut keep = Vec::new();
    let result = loop {
        let span = tracer.open("core.primes");
        let f = config.fault_tolerance + escalations as usize * policy.escalation_step;
        let e = code_length(&spec, f);
        let primes = config.primes_for(&spec, e);
        tracer.close(span);
        keep.clear();
        match replay_rounds(config, transport, problem, &spec, &primes, e, tracer, &mut keep) {
            Ok(mut replayed) => {
                replayed.counts.retries = retries;
                replayed.counts.escalations = escalations;
                break Ok(replayed);
            }
            Err(CamelotError::TransportFailed { .. }) if retries < policy.max_retries => {
                retries += 1;
            }
            Err(
                CamelotError::DecodeFailed { .. }
                | CamelotError::DecodeDisagreement { .. }
                | CamelotError::VerificationFailed { .. },
            ) if escalations < policy.max_escalations && policy.escalation_step > 0 => {
                escalations += 1;
            }
            Err(err) => break Err(err),
        }
    };
    tracer.close(root);
    let wall = started.elapsed();
    let mut replayed = result?;
    replayed.counts.wall = wall;
    // Outside the replay's wall time: each prime's first word again, on
    // the code that has just decoded it.
    for (code, field, view) in &keep {
        let started = Instant::now();
        let again = code.decode_profiled(field, view, spec.degree_bound);
        replayed.counts.decode_repeat += started.elapsed();
        debug_assert!(again.is_ok(), "a word that decoded once decodes again");
    }
    Ok(replayed)
}

/// One attempt at fixed primes and code length: `Engine::run_rounds` for
/// a single problem.
#[allow(clippy::too_many_arguments)]
fn replay_rounds<P: CamelotProblem>(
    config: &EngineConfig,
    transport: &dyn Transport,
    problem: &P,
    spec: &ProofSpec,
    primes: &[u64],
    e: usize,
    tracer: &mut Tracer,
    keep: &mut Vec<(RsCode, PrimeField, Vec<Option<u64>>)>,
) -> Result<Replayed<P::Output>, CamelotError> {
    let nodes = config.cluster.nodes;
    let plan = config.plan.clone().unwrap_or_else(|| FaultPlan::all_honest(nodes));
    let honest: Vec<usize> = (0..nodes).filter(|&n| !plan.kind(n).is_faulty()).collect();
    let mut counts = ReplayCounts { nodes, ..ReplayCounts::default() };
    let mut proofs = Vec::with_capacity(primes.len());
    let mut faulty = BTreeSet::new();
    let mut crashed = BTreeSet::new();

    for &q in primes {
        let field = PrimeField::new_unchecked(q);
        let span = tracer.open("rscode.build");
        let code = build_code(config, &field, e);
        tracer.close(span);
        let points = code.points().to_vec();

        let span = tracer.open("problem.evaluator_build");
        let evaluator = problem.evaluator(&field);
        tracer.close(span);

        let span = tracer.open("cluster.round");
        let started = Instant::now();
        let round_spec = RoundSpec { field: &field, points: &points, plan: &plan };
        let round = transport.run(&round_spec, &SoloRound(evaluator.as_ref()));
        counts.round_time += started.elapsed();
        tracer.close(span);
        let round = round.map_err(|err| CamelotError::TransportFailed {
            reason: format!("{} backend: {err}", transport.name()),
        })?;
        let broadcast = round.broadcasts.first().ok_or_else(|| CamelotError::TransportFailed {
            reason: "round returned no broadcast".to_string(),
        })?;
        counts.rounds += 1;
        counts.symbols += round.traffic.symbols_broadcast;
        counts.bytes_modelled += round.traffic.bytes_on_wire;
        counts.evaluate_total += broadcast.stats.iter().map(|s| s.elapsed).sum::<Duration>();
        counts.evaluate_critical +=
            broadcast.stats.iter().map(|s| s.elapsed).max().unwrap_or_default();
        counts.evaluations_total += broadcast.total_evaluations();
        counts.evaluations_max += broadcast.max_node_evaluations();
        counts.demoted_nodes.extend(round.demotions.iter().map(|d| d.node));

        let deciding: Vec<usize> = honest
            .iter()
            .copied()
            .filter(|&n| !round.demotions.iter().any(|d| d.node == n))
            .collect();
        let deciders: &[usize] =
            if config.decode_at_all_nodes { &deciding } else { deciding.get(..1).unwrap_or(&[]) };
        if deciders.is_empty() {
            return Err(CamelotError::TransportFailed {
                reason: "every honest node was demoted".to_string(),
            });
        }
        let mut agreed: Option<PrimeProof> = None;
        let mut first_view = Vec::new();
        for &node in deciders {
            let span = tracer.open("rscode.decode");
            let started = Instant::now();
            let view = broadcast.view_for(node);
            let decoded = code.decode_profiled(&field, &view, spec.degree_bound);
            let elapsed = started.elapsed();
            tracer.close(span);
            let (decoded, profile) = decoded.map_err(|source| CamelotError::DecodeFailed {
                modulus: q,
                node,
                source,
            })?;
            counts.decodes += 1;
            counts.decode_interpolate += profile.interpolate;
            counts.decode_xgcd += profile.xgcd;
            counts.decode_reencode += profile.reencode;
            if agreed.is_none() {
                counts.decode_first += elapsed;
                counts.erasures += decoded.erasure_positions.len();
                counts.errors_corrected += decoded.error_positions.len();
            }
            faulty.extend(decoded.error_positions.iter().map(|&pos| broadcast.assignment[pos]));
            crashed.extend(decoded.erasure_positions.iter().map(|&pos| broadcast.assignment[pos]));
            let proof = PrimeProof { modulus: q, coefficients: decoded.poly.into_coeffs() };
            match &agreed {
                None => {
                    agreed = Some(proof);
                    first_view = view;
                }
                Some(prev) if *prev != proof => {
                    return Err(CamelotError::DecodeDisagreement { modulus: q });
                }
                Some(_) => {}
            }
        }
        let proof = agreed.expect("at least one decider ran");

        let span = tracer.open("core.spot_check");
        let mut rng = SplitMix64::new(config.seed ^ q);
        let mut accepted = true;
        for _ in 0..config.verification_trials {
            let x0 = field.sample(&mut rng);
            counts.verification_evals += 1;
            accepted &= evaluator.eval(x0) == proof.eval(x0);
        }
        tracer.close(span);
        if !accepted {
            return Err(CamelotError::VerificationFailed { modulus: q });
        }
        proofs.push(proof);
        keep.push((code, field, first_view));
    }

    let span = tracer.open("core.recover");
    let output = problem.recover(&proofs);
    tracer.close(span);
    let certificate = Certificate {
        proofs,
        code_length: e,
        degree_bound: spec.degree_bound,
        identified_faulty_nodes: faulty.into_iter().collect(),
        crashed_nodes: crashed.into_iter().collect(),
    };
    Ok(Replayed { output: output?, certificate, counts })
}
