//! The Camelot engine: distributed proof preparation, error correction,
//! and checking (§1.3 of the paper, steps 1–3).
//!
//! One [`Engine::run`] call executes the whole pipeline for a problem:
//!
//! 1. derive the proof parameters and the prime moduli from the spec
//!    (every node could do this independently from the common input);
//! 2. for each prime, have the simulated cluster evaluate
//!    `P(1), P(ω), …, P(ω^{e-1}) (mod q)` — the first `e` points of the
//!    orbit of a root of unity `ω` of order `2^k ≥ e`, which every prime
//!    of the walk has — with faults injected per the plan;
//! 3. have every honest node Gao-decode its received word, recovering the
//!    proof *and the identities of the failed nodes*;
//! 4. spot-check the decoded proof against fresh evaluations of `P` at
//!    random points (identity (2) of the paper);
//! 5. reconstruct the integer answer by the Chinese Remainder Theorem.

use crate::error::CamelotError;
use crate::problem::{CamelotProblem, Evaluate, PrimeProof, ProofSpec};
use camelot_cluster::{
    Backend, Broadcast, ChaosPlan, ClusterConfig, Demotion, EvalProgram, FaultPlan, RoundEval,
    RoundSpec, Transport, TransportTuning,
};
use camelot_ff::{is_prime_u64, split_map, PrimeField, MAX_MODULUS};
use camelot_rscode::RsCode;
use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A point schedule a configuration (or a service request) may name.
/// The engine ignores it: both schedules take the same primes, the
/// first `q ≡ 1 (mod 2^k)` above the floor with `2^k` at least twice the
/// code length ([`choose_primes`]), and every prime's code is the
/// root-of-unity orbit code, whatever is configured. A certificate
/// carries no points, so it is the same either way. Only a replay that
/// rebuilds a prepare outside the engine reads the schedule, to choose
/// the code it decodes on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PrimeSchedule {
    /// Consecutive points `0, 1, …, e − 1` — the paper's schedule (1).
    #[default]
    Smallest,
    /// The first `e` powers of a root of unity of order `2^k`, so
    /// encoding is one forward transform and decoding interpolates on
    /// the orbit.
    NttFriendly,
}

/// How the engine recovers when a run fails: transient transport
/// failures are retried wholesale, and decode-radius overruns are
/// *escalated* — the run is repeated with a larger fault budget `f`
/// (hence a longer code and fresh primes), trading redundancy for
/// success. The default is all-zero: no recovery, the historical
/// fail-fast behaviour.
///
/// Escalation converges whenever the faulty fraction is below 1/2:
/// each step adds `2 * escalation_step` codeword symbols but only
/// `escalation_step` of them can be newly faulty. Note that *simulated*
/// chaos ([`ChaosPlan`]) is deterministic, so a bare retry replays the
/// identical failure — retries serve genuinely transient faults (a
/// crashed worker process, a dropped connection); escalation is the
/// lever that makes chaos runs succeed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Whole-run retries granted for [`CamelotError::TransportFailed`].
    pub max_retries: u32,
    /// Redundancy escalations granted for decode/verification failures.
    pub max_escalations: u32,
    /// How much the fault budget `f` grows per escalation.
    pub escalation_step: usize,
}

impl RecoveryPolicy {
    /// No recovery: fail fast (the historical behaviour).
    #[must_use]
    pub fn none() -> Self {
        RecoveryPolicy::default()
    }

    /// A balanced default: one transport retry, up to `escalations`
    /// redundancy escalations of one fault-budget step each.
    #[must_use]
    pub fn escalating(escalations: u32) -> Self {
        RecoveryPolicy { max_retries: 1, max_escalations: escalations, escalation_step: 1 }
    }
}

/// Engine configuration for one run.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// The simulated cluster (node count, backend).
    pub cluster: ClusterConfig,
    /// Evaluation-point schedule (default: consecutive points). The
    /// engine ignores it and decodes every prime on its orbit; only a
    /// replay outside the engine reads it.
    pub prime_schedule: PrimeSchedule,
    /// Fault budget `f`: the code length is `e = d + 1 + 2f`, so up to
    /// `f` corrupted symbols (or any mix of errors and twice as many
    /// erasures) are tolerated.
    pub fault_tolerance: usize,
    /// Behaviour assignment; `None` means all honest.
    pub plan: Option<FaultPlan>,
    /// Decode at every honest node and require agreement (the collective
    /// conclusion of footnote 7); otherwise only the lowest-indexed
    /// honest node decodes.
    pub decode_at_all_nodes: bool,
    /// Number of random spot checks per prime proof.
    pub verification_trials: usize,
    /// Seed for verification randomness.
    pub seed: u64,
    /// Retry/escalation behaviour when a run fails (default: none).
    pub recovery: RecoveryPolicy,
}

impl EngineConfig {
    /// A quiet in-process cluster of `nodes` nodes with fault budget `f`,
    /// its node slices split across the thread budget
    /// (`CAMELOT_THREADS`).
    #[must_use]
    pub fn sequential(nodes: usize, fault_tolerance: usize) -> Self {
        EngineConfig {
            cluster: ClusterConfig::sequential(nodes),
            prime_schedule: PrimeSchedule::default(),
            fault_tolerance,
            plan: None,
            decode_at_all_nodes: false,
            verification_trials: 2,
            seed: 0x00CA_110C_A11E,
            recovery: RecoveryPolicy::none(),
        }
    }

    /// Installs a fault plan.
    #[must_use]
    pub fn with_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Requires decoding (and agreement) at every honest node.
    #[must_use]
    pub fn with_full_decoding(mut self) -> Self {
        self.decode_at_all_nodes = true;
        self
    }

    /// Names [`PrimeSchedule::NttFriendly`]. The engine's codes are on
    /// roots-of-unity points under either schedule, so this changes no
    /// run; only a replay outside the engine reads it.
    #[must_use]
    pub fn with_ntt_primes(mut self) -> Self {
        self.prime_schedule = PrimeSchedule::NttFriendly;
        self
    }

    /// Switches the broadcast backend rounds run on (the in-process
    /// simulated bus by default; [`Backend::Socket`] for a pool of
    /// loopback TCP workers, started once per run and shared by its
    /// rounds — it needs wire-expressible problems, see
    /// [`Evaluate::program`]).
    #[must_use]
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.cluster.backend = backend;
        self
    }

    /// Installs a transport-level chaos plan, injected identically by
    /// every backend (orthogonal to the algebraic [`FaultPlan`]).
    #[must_use]
    pub fn with_chaos(mut self, chaos: ChaosPlan) -> Self {
        self.cluster = self.cluster.with_chaos(Some(chaos));
        self
    }

    /// Overrides the transport tuning (I/O deadline, dead-node
    /// demotion).
    #[must_use]
    pub fn with_tuning(mut self, tuning: TransportTuning) -> Self {
        self.cluster = self.cluster.with_tuning(tuning);
        self
    }

    /// Installs a recovery policy (whole-run retries for transport
    /// failures, redundancy escalation for decode-radius overruns).
    #[must_use]
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// The prime moduli this configuration derives for a spec and code
    /// length: [`choose_primes`], whichever schedule is configured.
    ///
    /// # Panics
    ///
    /// As [`choose_primes`].
    #[must_use]
    pub fn primes_for(&self, spec: &ProofSpec, code_len: usize) -> Vec<u64> {
        choose_primes(spec, code_len)
    }
}

/// The static, independently verifiable artefact of a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Certificate {
    /// One decoded proof per prime modulus.
    pub proofs: Vec<PrimeProof>,
    /// Code length `e` used for each prime round.
    pub code_length: usize,
    /// Degree bound `d` the proofs were decoded against.
    pub degree_bound: usize,
    /// Nodes whose broadcast symbols disagreed with the decoded codeword
    /// (byzantine corruption, identified via the error locations).
    pub identified_faulty_nodes: Vec<usize>,
    /// Nodes that contributed nothing (crashes; identified via erasures).
    pub crashed_nodes: Vec<usize>,
}

impl Certificate {
    /// Proof size: total number of field-element coefficients across all
    /// prime proofs (the paper's `K`-comparable quantity).
    #[must_use]
    pub fn proof_size(&self) -> usize {
        self.proofs.iter().map(|p| p.coefficients.len()).sum()
    }
}

/// Work accounting for a run.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Prime moduli used.
    pub primes: Vec<u64>,
    /// Code length per prime.
    pub code_length: usize,
    /// Total `P`-evaluations across nodes and primes.
    pub total_evaluations: usize,
    /// Maximum per-node evaluation count (per prime, summed over primes)
    /// — the wall-clock-critical path, the paper's `E`.
    pub max_node_evaluations: usize,
    /// Spot-check evaluations spent on verification.
    pub verification_evaluations: usize,
    /// Broadcast rounds this run took part in — exactly one per prime.
    /// A batched run shares each round across all its problems: every
    /// outcome of the batch records the *same* shared round counters
    /// (`rounds`, `symbols_broadcast`, `bytes_on_wire`), which is how
    /// the one-broadcast-per-prime-per-batch property is observable.
    pub rounds: usize,
    /// Symbols put on the broadcast medium across all rounds (a batched
    /// round carries one symbol per problem per point; equivocators pay
    /// one unicast copy per receiver, crashed senders contribute
    /// nothing) — the per-node-bandwidth quantity of the broadcast
    /// congested clique literature.
    pub symbols_broadcast: usize,
    /// Bytes the rounds' *payload* frame lines occupy in the v1 frame
    /// encoding — a deterministic traffic model computed identically on
    /// every backend (protocol headers, per-node bookkeeping lines, and
    /// crash/diagnostic frames are excluded, so a socket transport's
    /// raw byte count is somewhat higher).
    pub bytes_on_wire: u64,
    /// Wall-clock time spent inside `RsCode::decode` across all deciding
    /// nodes and primes — attributes round time to decode vs transport.
    /// A decider whose view the code certified against an earlier
    /// decider's codeword counts here too, with its `O(e)` comparison.
    pub decode_time: Duration,
    /// Portion of `decode_time` spent in the partial-xgcd phase of the
    /// Gao decoder (the half-GCD-accelerated step): only the decodes
    /// that ran Gao's algorithm, not the certified ones.
    pub xgcd_time: Duration,
    /// Runs served from a prepared certificate instead of fresh rounds:
    /// 1 for an [`Engine::redeem`] outcome (a `camelot-store` cache
    /// hit — `rounds == 0`), 0 for a freshly prepared one.
    pub cache_hits: usize,
    /// How many requests shared this run's broadcast rounds: the batch
    /// size for [`Engine::run_batch`] (every member records the same
    /// count), 1 for a solo [`Engine::run`], 0 when no round ran at all
    /// (a cache hit).
    pub coalesced_requests: usize,
    /// Erasure positions the first decider saw, summed over primes —
    /// crashed *and* transport-demoted nodes show up here.
    pub erasures_seen: usize,
    /// Error positions the Gao decoder corrected at the first decider,
    /// summed over primes (byzantine symbols and garbled frames).
    pub errors_corrected: usize,
    /// Whole-run transport retries the recovery policy spent.
    pub retries: u32,
    /// Redundancy escalations the recovery policy spent; nonzero means
    /// the run *degraded* — it succeeded only at a larger-than-requested
    /// fault budget (and therefore code length).
    pub degraded: u32,
    /// Nodes the transport demoted to erasures this run, with their
    /// structured causes (deduplicated by node, first cause wins).
    pub demotions: Vec<Demotion>,
}

/// Result of a successful run.
#[derive(Clone, Debug)]
pub struct CamelotOutcome<T> {
    /// The recovered answer.
    pub output: T,
    /// The static proof and fault findings.
    pub certificate: Certificate,
    /// Work accounting.
    pub report: RunReport,
}

/// Derives the code length `e = d + 1 + 2f`.
#[must_use]
pub fn code_length(spec: &ProofSpec, fault_tolerance: usize) -> usize {
    spec.degree_bound + 1 + 2 * fault_tolerance
}

/// The smallest modulus either prime schedule may pick, and the smallest
/// a certificate may carry: `max(min_modulus, e + 1, 2^61)`.
///
/// The field layer costs the same for every `q < MAX_MODULUS = 2^62`, so
/// the walk starts at the top of that range: each prime then covers 61
/// bits of the answer, a prepare pays its per-prime round, evaluation
/// pass, decode and spot checks once per 61 bits, and a wrong proof
/// survives a spot check with probability at most `d/2^61`. The prover
/// ([`choose_primes`]) and the verifier
/// ([`Engine::redeem`]) both read the floor here, so they cannot drift.
#[must_use]
pub fn prime_floor(spec: &ProofSpec, code_len: usize) -> u64 {
    spec.min_modulus.max((code_len as u64).saturating_add(1)).max(1 << 61)
}

/// Bits of coverage every modulus of the walk counts: [`prime_floor`]
/// is at least `2^61` and the range ends at `MAX_MODULUS = 2^62`, so
/// each modulus `q` has `⌊log₂ q⌋ = 61`, and being odd, `q > 2^61`.
const WALK_PRIME_BITS: u64 = 61;

/// The most primes a walk takes; a spec that needs more is refused
/// before any search. Every prime costs a broadcast round, an
/// evaluation pass, a decode per deciding node and its spot checks, so
/// the cap bounds what one spec can make a prepare or a redeem spend.
/// 1024 primes cover answers of up to 62,463 bits, far beyond what any
/// catalogue spec asks for, and the walk finds them in milliseconds.
/// Without a cap, a spec of `u64::MAX − 2` value bits searched for
/// primes without end.
const MAX_WALK_PRIMES: u64 = 1024;

/// What the prover's walk and the verifier both enforce: every modulus
/// lies in `prime_floor..MAX_MODULUS` (the field layer's headroom), and
/// there are at least the returned count of distinct ones,
/// `n = ⌈(value_bits + 1)/61⌉`. Each exceeds `2^61`, so their product
/// exceeds `2^(61·n) ≥ 2^(value_bits + 1)`: values below
/// `2^value_bits`, with one guard bit for symmetric signed lifts. A spec
/// whose range is empty, or whose `n` exceeds [`MAX_WALK_PRIMES`],
/// admits no walk.
fn prime_walk(spec: &ProofSpec, code_len: usize) -> Result<(Range<u64>, usize), String> {
    let floor = prime_floor(spec, code_len);
    if floor >= MAX_MODULUS {
        return Err(format!("modulus floor {floor} is not below MAX_MODULUS = {MAX_MODULUS}"));
    }
    // `⌈(v + 1)/61⌉ = ⌊v/61⌋ + 1`, which cannot overflow.
    let primes = spec.value_bits / WALK_PRIME_BITS + 1;
    if primes > MAX_WALK_PRIMES {
        return Err(format!(
            "{} value bits need {primes} primes, above the walk's cap of {MAX_WALK_PRIMES}",
            spec.value_bits
        ));
    }
    Ok((floor..MAX_MODULUS, primes as usize))
}

/// The prime walk of both schedules: upward through [`prime_walk`]'s
/// range, taking the first prime `q ≡ 1 (mod 2^k)` at or above the
/// cursor, `k = `[`ntt_log_len`]`(code_len)`, until it holds the count
/// [`prime_walk`] asks for.
pub(crate) fn accumulate_primes(
    spec: &ProofSpec,
    code_len: usize,
) -> Result<Vec<u64>, CamelotError> {
    let bad = |reason| CamelotError::BadConfiguration { reason };
    let (range, count) = prime_walk(spec, code_len).map_err(bad)?;
    let step = 1u64 << ntt_log_len(code_len);
    let mut primes = Vec::with_capacity(count);
    let mut cursor = range.start;
    while primes.len() < count {
        // The first `m·step + 1 >= cursor`; `cursor < 2^62` and
        // `step <= 2^63` keep it inside a u64. The search stops at
        // `MAX_MODULUS`, where `ntt_prime` and `next_prime` would panic.
        let first = cursor.saturating_sub(1).div_ceil(step).max(1) * step + 1;
        let Some(p) = (first..range.end).step_by(step as usize).find(|&q| is_prime_u64(q)) else {
            return Err(bad(format!(
                "no prime q = 1 mod {step} in {cursor}..{} for {count} primes",
                range.end
            )));
        };
        cursor = p + 1;
        primes.push(p);
    }
    Ok(primes)
}

/// Deterministically selects prime moduli for a spec: the fewest
/// primes of at least [`prime_floor`] whose product exceeds
/// `2^(value_bits + 1)` (one guard bit for symmetric signed lifts).
/// Every walk prime lies in `[2^61, 2^62)` and counts 61 bits, so that
/// is `⌈(value_bits + 1)/61⌉` primes — one for up to 60 value bits —
/// and every prime is `q ≡ 1 (mod 2^k)` for
/// `k = `[`ntt_log_len`]`(code_len)`, so codeword products and recovery
/// sums run through the number-theoretic transform whichever points the
/// codes use. A spec needing more than 1024 primes (62,463 value bits)
/// is refused before any search.
///
/// # Panics
///
/// Panics when the spec admits no prime walk (its floor is at or above
/// `MAX_MODULUS`, or it needs more than 1024 primes); the engine reports
/// such a spec as [`CamelotError::BadConfiguration`] instead.
#[must_use]
pub fn choose_primes(spec: &ProofSpec, code_len: usize) -> Vec<u64> {
    accumulate_primes(spec, code_len).unwrap_or_else(|e| panic!("{e}"))
}

/// Transform-length exponent of the prime walk: `2^k` at least twice
/// the code length, covering products of two codeword-degree
/// polynomials in the Gao decoder.
#[must_use]
pub fn ntt_log_len(code_len: usize) -> u32 {
    (2 * code_len.max(1)).next_power_of_two().trailing_zeros()
}

/// The Camelot engine.
#[derive(Clone)]
pub struct Engine {
    config: EngineConfig,
    /// A shared transport overriding `config.cluster.transport()` —
    /// how a long-lived service reuses one persistent worker pool
    /// across runs. `None` builds a fresh backend per run (the
    /// historical behaviour).
    transport: Option<Arc<dyn Transport + Send + Sync>>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("config", &self.config)
            .field("transport", &self.transport.as_ref().map(|t| t.name()))
            .finish()
    }
}

impl Engine {
    /// Creates an engine with the given configuration.
    #[must_use]
    pub fn new(config: EngineConfig) -> Self {
        Engine { config, transport: None }
    }

    /// Creates an engine whose rounds run on `transport` instead of a
    /// backend built fresh from the cluster config — the hook that lets
    /// `camelot-serve` share one persistent worker pool across all
    /// requests (and clones of this engine).
    #[must_use]
    pub fn with_transport(
        config: EngineConfig,
        transport: Arc<dyn Transport + Send + Sync>,
    ) -> Self {
        Engine { config, transport: Some(transport) }
    }

    /// Convenience: the [`EngineConfig::sequential`] engine with `nodes`
    /// nodes and fault budget `f`.
    #[must_use]
    pub fn sequential(nodes: usize, fault_tolerance: usize) -> Self {
        Engine::new(EngineConfig::sequential(nodes, fault_tolerance))
    }

    /// Runs the full prepare → correct → check → recover pipeline.
    ///
    /// # Errors
    ///
    /// * [`CamelotError::BadConfiguration`] for impossible parameters;
    /// * [`CamelotError::DecodeFailed`] / [`CamelotError::DecodeDisagreement`]
    ///   when the fault plan exceeds the decoding radius;
    /// * [`CamelotError::VerificationFailed`] if a spot check rejects;
    /// * recovery errors from the problem itself.
    pub fn run<P: CamelotProblem>(
        &self,
        problem: &P,
    ) -> Result<CamelotOutcome<P::Output>, CamelotError> {
        let spec = problem.spec();
        let mut outcomes = self.prepare(&[problem], &[spec], &spec)?;
        Ok(outcomes.pop().expect("one problem yields one outcome"))
    }

    /// Runs a batch of problems through the pipeline, amortizing the
    /// shared setup — prime selection and code-length derivation happen
    /// once for the whole batch, against the *joint* proof spec (maximum
    /// degree bound, value bits, and modulus floor across the batch) —
    /// and sharing the cluster rounds: for each prime, **one**
    /// multi-polynomial broadcast round evaluates every problem of the
    /// batch at every point (one symbol per problem per point per
    /// frame), so a batch of `n` problems costs exactly one broadcast
    /// round per prime, not `n`.
    ///
    /// Every problem is decoded (against its own degree bound, from its
    /// own lane of the shared round), spot-checked, and recovered
    /// exactly as in [`Engine::run`]; the recovered outputs are
    /// identical to per-problem runs. The certificates may use larger
    /// moduli / code length than a solo run would, since the parameters
    /// cover the whole batch. Each outcome's [`RunReport`] records the
    /// shared round counters (see [`RunReport::rounds`]).
    ///
    /// # Errors
    ///
    /// The same failure modes as [`Engine::run`]; the first failure
    /// aborts the batch.
    pub fn run_batch<P: CamelotProblem>(
        &self,
        problems: &[P],
    ) -> Result<Vec<CamelotOutcome<P::Output>>, CamelotError> {
        if problems.is_empty() {
            return Ok(Vec::new());
        }
        let specs: Vec<ProofSpec> = problems.iter().map(CamelotProblem::spec).collect();
        let joint = ProofSpec::new(
            specs.iter().map(|s| s.degree_bound).max().expect("nonempty batch"),
            specs.iter().map(|s| s.min_modulus).max().expect("nonempty batch"),
            specs.iter().map(|s| s.value_bits).max().expect("nonempty batch"),
        );
        let refs: Vec<&P> = problems.iter().collect();
        self.prepare(&refs, &specs, &joint)
    }

    /// The recovery wrapper around [`Engine::run_rounds`]: derives the
    /// code length and primes from the joint spec and the *current*
    /// fault budget, then applies the configured [`RecoveryPolicy`] —
    /// transport failures are retried wholesale, decode-radius overruns
    /// escalate the fault budget (fresh code length and primes) up to
    /// the policy bound. Each successful outcome's report records the
    /// retries and escalations it took.
    fn prepare<P: CamelotProblem>(
        &self,
        problems: &[&P],
        specs: &[ProofSpec],
        joint: &ProofSpec,
    ) -> Result<Vec<CamelotOutcome<P::Output>>, CamelotError> {
        let policy = self.config.recovery;
        let mut retries = 0u32;
        let mut escalations = 0u32;
        loop {
            let f = self.config.fault_tolerance + escalations as usize * policy.escalation_step;
            let e = code_length(joint, f);
            let primes = accumulate_primes(joint, e)?;
            match self.run_rounds(problems, specs, &primes, e) {
                Ok(mut outcomes) => {
                    for outcome in &mut outcomes {
                        outcome.report.retries = retries;
                        outcome.report.degraded = escalations;
                    }
                    return Ok(outcomes);
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
                Err(err) => return Err(err),
            }
        }
    }

    /// Redeems a previously prepared certificate for `problem` without
    /// running any broadcast round — the cache-hit path of
    /// `camelot-store`. The certificate is *not* trusted: every prime
    /// proof is structurally validated and spot-checked against fresh
    /// evaluations of `P` (the configured `verification_trials` per
    /// prime, exactly as after a live decode), and only then is the
    /// answer recovered by CRT. The outcome's report records
    /// `rounds == 0` and `cache_hits == 1`.
    ///
    /// # Errors
    ///
    /// * [`CamelotError::MalformedProof`] when the certificate does not
    ///   structurally fit the problem's spec (wrong degree bound, no or
    ///   duplicate moduli, a modulus below [`prime_floor`], at or above
    ///   `MAX_MODULUS` or not prime, insufficient CRT coverage, a
    ///   coefficient not reduced mod its modulus, a spec the prime walk
    ///   refuses);
    /// * [`CamelotError::VerificationFailed`] if a spot check rejects;
    /// * recovery errors from the problem itself.
    pub fn redeem<P: CamelotProblem>(
        &self,
        problem: &P,
        certificate: &Certificate,
    ) -> Result<CamelotOutcome<P::Output>, CamelotError> {
        let spec = problem.spec();
        if certificate.degree_bound != spec.degree_bound {
            return Err(CamelotError::MalformedProof {
                reason: format!(
                    "certificate decoded against degree bound {}, problem requires {}",
                    certificate.degree_bound, spec.degree_bound
                ),
            });
        }
        if certificate.proofs.is_empty() {
            return Err(CamelotError::MalformedProof {
                reason: "certificate carries no prime proofs".into(),
            });
        }
        let mut moduli: Vec<u64> = certificate.proofs.iter().map(|p| p.modulus).collect();
        moduli.sort_unstable();
        moduli.dedup();
        if moduli.len() != certificate.proofs.len() {
            return Err(CamelotError::MalformedProof {
                reason: "certificate repeats a prime modulus".into(),
            });
        }
        // A certificate need not have come through `from_wire`: check the
        // range here too, before a modulus counts toward CRT coverage
        // below or reaches a `PrimeField` (Barrett headroom).
        // The d/q soundness bound presumes a field, so a composite
        // modulus is rejected as well, however well it spot-checks.
        let (admissible, needed) = prime_walk(&spec, certificate.code_length)
            .map_err(|reason| CamelotError::MalformedProof { reason })?;
        if let Some(&q) = moduli.iter().find(|q| !admissible.contains(q)) {
            return Err(CamelotError::MalformedProof {
                reason: format!("modulus {q} outside {admissible:?}"),
            });
        }
        if let Some(&q) = moduli.iter().find(|&&q| !is_prime_u64(q)) {
            return Err(CamelotError::MalformedProof {
                reason: format!("modulus {q} is not prime"),
            });
        }
        // Distinct admissible moduli each exceed `2^61`: the count is the
        // coverage. A certificate with more than the walk takes today
        // (an earlier walk's) covers more, and redeems.
        if moduli.len() < needed {
            return Err(CamelotError::MalformedProof {
                reason: format!(
                    "certificate carries {} moduli, spec needs {needed} for CRT coverage",
                    moduli.len()
                ),
            });
        }

        let mut report = RunReport {
            primes: certificate.proofs.iter().map(|p| p.modulus).collect(),
            code_length: certificate.code_length,
            cache_hits: 1,
            ..RunReport::default()
        };
        for proof in &certificate.proofs {
            let verdict = crate::verify::spot_check(
                problem,
                proof,
                self.config.verification_trials,
                self.config.seed,
            )?;
            report.verification_evaluations += verdict.trials_run;
            if !verdict.accepted {
                return Err(CamelotError::VerificationFailed { modulus: proof.modulus });
            }
        }
        let output = problem.recover(&certificate.proofs)?;
        Ok(CamelotOutcome { output, certificate: certificate.clone(), report })
    }

    /// The prepare → correct → check → recover pipeline, with the prime
    /// moduli and code length already derived: one broadcast round per
    /// prime carries all problems' evaluations through the configured
    /// transport, then every problem decodes, spot-checks, and recovers
    /// from its own lane of the shared rounds.
    fn run_rounds<P: CamelotProblem>(
        &self,
        problems: &[&P],
        specs: &[ProofSpec],
        primes: &[u64],
        e: usize,
    ) -> Result<Vec<CamelotOutcome<P::Output>>, CamelotError> {
        let plan = self
            .config
            .plan
            .clone()
            .unwrap_or_else(|| FaultPlan::all_honest(self.config.cluster.nodes));
        if plan.nodes() != self.config.cluster.nodes {
            return Err(CamelotError::BadConfiguration {
                reason: format!(
                    "fault plan covers {} nodes, cluster has {}",
                    plan.nodes(),
                    self.config.cluster.nodes
                ),
            });
        }
        if primes.iter().any(|&q| (e as u64) > q) {
            return Err(CamelotError::BadConfiguration {
                reason: format!("code length {e} exceeds a modulus"),
            });
        }

        let honest: Vec<usize> = (0..plan.nodes()).filter(|&n| !plan.kind(n).is_faulty()).collect();
        if honest.is_empty() {
            return Err(CamelotError::BadConfiguration {
                reason: "no honest node left to decode".into(),
            });
        }

        // The engine-level shared transport (a service's persistent
        // worker pool) wins over a backend built fresh for this run.
        let fallback;
        let transport: &dyn Transport = match &self.transport {
            Some(shared) => &**shared,
            None => {
                fallback = self.config.cluster.transport();
                &*fallback
            }
        };
        let mut accs: Vec<ProblemAcc> = specs
            .iter()
            .map(|_| ProblemAcc {
                proofs: Vec::with_capacity(primes.len()),
                faulty: BTreeSet::new(),
                crashed: BTreeSet::new(),
                report: RunReport {
                    primes: primes.to_vec(),
                    code_length: e,
                    coalesced_requests: specs.len(),
                    ..RunReport::default()
                },
            })
            .collect();

        for &q in primes {
            let field = PrimeField::new_unchecked(q);
            // The first `e` powers of a root of unity of order
            // `2^k >= e`: every prime of the walk is `1 mod 2^k`, so
            // encode and decode are transform-backed. Every node derives
            // the same points from the common input.
            let code = RsCode::roots_of_unity(&field, e).ok_or_else(|| {
                CamelotError::BadConfiguration {
                    reason: format!(
                        "modulus {q} has no root of unity of order {}",
                        e.next_power_of_two()
                    ),
                }
            })?;
            let evaluators: Vec<Box<dyn Evaluate + '_>> =
                problems.iter().map(|p| p.evaluator(&field)).collect();
            let round_eval = ProblemRound { evaluators: &evaluators };
            let spec = RoundSpec { field: &field, points: code.points(), plan: &plan };
            // One broadcast round per prime for the whole batch.
            let round =
                transport.run(&spec, &round_eval).map_err(|err| CamelotError::TransportFailed {
                    reason: format!("{} backend: {err}", transport.name()),
                })?;
            debug_assert_eq!(round.broadcasts.len(), problems.len());
            // Transport-demoted nodes contributed only synthesized
            // erasure frames — they cannot decide (they may not even be
            // alive). Their symbols are recovered as erasures exactly
            // like algebraic crashes.
            let deciding: Vec<usize> = honest
                .iter()
                .copied()
                .filter(|&n| !round.demotions.iter().any(|d| d.node == n))
                .collect();
            if deciding.is_empty() {
                return Err(CamelotError::TransportFailed {
                    reason: format!(
                        "{} backend: every honest node was demoted ({})",
                        transport.name(),
                        round
                            .demotions
                            .iter()
                            .map(Demotion::to_string)
                            .collect::<Vec<_>>()
                            .join("; ")
                    ),
                });
            }
            for (i, broadcast) in round.broadcasts.iter().enumerate() {
                let acc = &mut accs[i];
                acc.report.total_evaluations += broadcast.total_evaluations();
                acc.report.max_node_evaluations += broadcast.max_node_evaluations();
                acc.report.rounds += 1;
                acc.report.symbols_broadcast += round.traffic.symbols_broadcast;
                acc.report.bytes_on_wire += round.traffic.bytes_on_wire;
                for demotion in &round.demotions {
                    if !acc.report.demotions.iter().any(|d| d.node == demotion.node) {
                        acc.report.demotions.push(*demotion);
                    }
                }
            }
            // Per-problem lane decodes are independent (each touches only
            // its own accumulator): they split across the thread budget.
            // Results come back in batch order, so the surfaced error (if
            // any) is the one a sequential loop would have hit first.
            let lanes: Vec<_> = round.broadcasts.iter().zip(accs.iter_mut()).enumerate().collect();
            let proofs = split_map(lanes, |(i, (broadcast, acc))| {
                self.decode_and_check(
                    &code,
                    &field,
                    broadcast,
                    specs[i].degree_bound,
                    &deciding,
                    evaluators[i].as_ref(),
                    acc,
                )
            });
            for (acc, proof) in accs.iter_mut().zip(proofs) {
                acc.proofs.push(proof?);
            }
        }

        problems
            .iter()
            .zip(specs)
            .zip(accs)
            .map(|((problem, spec), acc)| {
                let certificate = Certificate {
                    proofs: acc.proofs.clone(),
                    code_length: e,
                    degree_bound: spec.degree_bound,
                    identified_faulty_nodes: acc.faulty.into_iter().collect(),
                    crashed_nodes: acc.crashed.into_iter().collect(),
                };
                let output = problem.recover(&acc.proofs)?;
                Ok(CamelotOutcome { output, certificate, report: acc.report })
            })
            .collect()
    }

    /// Decode (at every deciding node), agree, and spot-check one
    /// problem's lane of one prime's broadcast (§1.3 steps 2–3).
    #[allow(clippy::too_many_arguments)]
    fn decode_and_check(
        &self,
        code: &RsCode,
        field: &PrimeField,
        broadcast: &Broadcast,
        degree_bound: usize,
        deciding: &[usize],
        evaluator: &dyn Evaluate,
        acc: &mut ProblemAcc,
    ) -> Result<PrimeProof, CamelotError> {
        let q = field.modulus();
        // Every deciding node (honest minus transport-demoted) decodes
        // its own view: Gao's algorithm once, and a view within the
        // radius of a codeword the code already accepted is certified
        // against it.
        let deciders: &[usize] =
            if self.config.decode_at_all_nodes { deciding } else { &deciding[..1] };
        let mut agreed: Option<PrimeProof> = None;
        for &node in deciders {
            let view = broadcast.view_for(node);
            let decode_started = Instant::now();
            let (decoded, profile) = code
                .decode_profiled(field, &view, degree_bound)
                .map_err(|source| CamelotError::DecodeFailed { modulus: q, node, source })?;
            acc.report.decode_time += decode_started.elapsed();
            acc.report.xgcd_time += profile.xgcd;
            // Recovery counters attribute to the first decider only —
            // with full decoding every honest node sees (roughly) the
            // same noise and the counters would multiply by `K`.
            if agreed.is_none() {
                acc.report.erasures_seen += decoded.erasure_positions.len();
                acc.report.errors_corrected += decoded.error_positions.len();
            }
            for &pos in &decoded.error_positions {
                acc.faulty.insert(broadcast.assignment[pos]);
            }
            for &pos in &decoded.erasure_positions {
                acc.crashed.insert(broadcast.assignment[pos]);
            }
            let proof = PrimeProof { modulus: q, coefficients: decoded.poly.into_coeffs() };
            match &agreed {
                None => agreed = Some(proof),
                Some(prev) if *prev != proof => {
                    return Err(CamelotError::DecodeDisagreement { modulus: q })
                }
                Some(_) => {}
            }
        }
        let proof = agreed.expect("at least one decider ran");

        // Spot-check verification (§1.3 step 3).
        let verdict = crate::verify::run_trials(
            field,
            evaluator,
            &proof,
            self.config.verification_trials,
            self.config.seed,
        );
        acc.report.verification_evaluations += verdict.trials_run;
        if !verdict.accepted {
            return Err(CamelotError::VerificationFailed { modulus: q });
        }
        Ok(proof)
    }
}

/// Per-problem accumulator across the shared rounds.
struct ProblemAcc {
    proofs: Vec<PrimeProof>,
    faulty: BTreeSet<usize>,
    crashed: BTreeSet<usize>,
    report: RunReport,
}

/// One prime's round for a slate of problems: polynomial `i` of the
/// round is problem `i`'s proof polynomial mod `q`.
struct ProblemRound<'a> {
    evaluators: &'a [Box<dyn Evaluate + 'a>],
}

impl RoundEval for ProblemRound<'_> {
    fn width(&self) -> usize {
        self.evaluators.len()
    }

    fn eval(&self, poly: usize, x: u64) -> u64 {
        self.evaluators[poly].eval(x)
    }

    fn programs(&self) -> Option<Vec<EvalProgram>> {
        self.evaluators.iter().map(|e| e.program()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Evaluate;
    use camelot_cluster::{FaultKind, InProcess, RoundOutcome, TransportError};
    use camelot_ff::{crt_i, crt_u, Residue, UBig};

    /// Toy problem: P(x) = (c + x)^3 mod q for a hidden constant c; the
    /// "answer" is P(0) = c^3 recovered over the integers.
    struct Cube {
        c: u64,
    }

    impl CamelotProblem for Cube {
        type Output = u128;

        fn spec(&self) -> ProofSpec {
            ProofSpec::new(3, 1 << 20, 96)
        }

        fn evaluator<'a>(&'a self, field: &PrimeField) -> Box<dyn Evaluate + 'a> {
            let f = *field;
            let c = f.reduce(self.c);
            Box::new(move |x: u64| {
                let s = f.add(c, f.reduce(x));
                f.mul(f.mul(s, s), s)
            })
        }

        fn recover(&self, proofs: &[PrimeProof]) -> Result<u128, CamelotError> {
            let residues: Vec<Residue> =
                proofs.iter().map(|p| Residue { modulus: p.modulus, value: p.eval(0) }).collect();
            crt_u(&residues).to_u128().ok_or_else(|| CamelotError::RecoveryFailed {
                reason: "value exceeded u128".into(),
            })
        }
    }

    #[test]
    fn clean_run_recovers_answer() {
        let problem = Cube { c: 1 << 30 };
        let outcome = Engine::sequential(4, 3).run(&problem).unwrap();
        assert_eq!(outcome.output, 1u128 << 90);
        assert!(outcome.certificate.identified_faulty_nodes.is_empty());
        assert!(outcome.certificate.crashed_nodes.is_empty());
        assert_eq!(outcome.certificate.code_length, 3 + 1 + 6);
        // A 96-bit value needs two 61-bit primes.
        assert_eq!(outcome.report.primes.len(), 2);
    }

    #[test]
    fn byzantine_nodes_are_identified_and_tolerated() {
        let problem = Cube { c: 12345 };
        let plan = FaultPlan::with_faults(
            10,
            &[(2, FaultKind::Corrupt { seed: 1 }), (7, FaultKind::Crash)],
        );
        let config = EngineConfig::sequential(10, 4).with_plan(plan).with_full_decoding();
        let outcome = Engine::new(config).run(&problem).unwrap();
        assert_eq!(outcome.output, 12345u128.pow(3));
        assert_eq!(outcome.certificate.identified_faulty_nodes, vec![2]);
        assert_eq!(outcome.certificate.crashed_nodes, vec![7]);
    }

    #[test]
    fn too_many_faults_fail_decoding() {
        let problem = Cube { c: 5 };
        // e = 4 + 2: radius (6-4)/2 = 1 error; corrupt 5 of 6 nodes'
        // slices (each node owns one point).
        let plan = FaultPlan::random_corrupt(6, 5, 3);
        let config = EngineConfig::sequential(6, 1).with_plan(plan);
        let err = Engine::new(config).run(&problem).unwrap_err();
        match err {
            CamelotError::DecodeFailed { .. } | CamelotError::VerificationFailed { .. } => {}
            other => panic!("expected decode/verification failure, got {other}"),
        }
    }

    #[test]
    fn escalation_recovers_beyond_the_requested_radius() {
        let problem = Cube { c: 31 };
        // f = 1: e = 3 + 1 + 2 = 6, slices (2,2,1,1) — two crashed
        // nodes own 4 erasures, over the erasure radius e - d - 1 = 2.
        let plan = FaultPlan::with_faults(4, &[(0, FaultKind::Crash), (1, FaultKind::Crash)]);
        let strict = EngineConfig::sequential(4, 1).with_plan(plan.clone());
        assert!(matches!(
            Engine::new(strict.clone()).run(&problem),
            Err(CamelotError::DecodeFailed { .. })
        ));
        // One escalation step: f = 2, e = 8, slices (2,2,2,2) — the
        // same 4 erasures now fit the radius e - d - 1 = 4.
        let outcome =
            Engine::new(strict.with_recovery(RecoveryPolicy::escalating(2))).run(&problem).unwrap();
        assert_eq!(outcome.output, 31u128.pow(3));
        assert_eq!(outcome.report.degraded, 1, "one escalation spent");
        assert_eq!(outcome.report.retries, 0);
        assert_eq!(outcome.certificate.code_length, 3 + 1 + 4);
        assert_eq!(outcome.certificate.crashed_nodes, vec![0, 1]);
        assert_eq!(outcome.report.erasures_seen, 4 * outcome.report.primes.len());
    }

    /// A transport whose first round fails as a lost worker's does and
    /// whose later rounds run on the in-process bus.
    struct FailsOnce {
        failed: std::sync::atomic::AtomicBool,
        bus: InProcess,
    }

    impl Transport for FailsOnce {
        fn name(&self) -> &'static str {
            "fails-once"
        }

        fn run(
            &self,
            spec: &RoundSpec<'_>,
            eval: &dyn RoundEval,
        ) -> Result<RoundOutcome, TransportError> {
            if !self.failed.swap(true, std::sync::atomic::Ordering::SeqCst) {
                return Err(TransportError::WorkerFailed { node: 1, reason: "killed".into() });
            }
            self.bus.run(spec, eval)
        }
    }

    /// The one retry a transport failure gets is the engine's: it runs
    /// the whole prepare again, into the certificate a clean run makes.
    #[test]
    fn a_transport_failure_is_retried_into_the_clean_certificate() {
        let problem = Cube { c: 17 };
        let fails_once = || -> Arc<dyn Transport + Send + Sync> {
            Arc::new(FailsOnce { failed: false.into(), bus: InProcess::new() })
        };
        let config = EngineConfig::sequential(4, 1);
        let clean = Engine::new(config.clone()).run(&problem).unwrap();
        let retry_once = RecoveryPolicy { max_retries: 1, ..RecoveryPolicy::none() };
        let retried =
            Engine::with_transport(config.clone().with_recovery(retry_once), fails_once())
                .run(&problem)
                .unwrap();
        assert_eq!(retried.report.retries, 1);
        assert_eq!(retried.output, clean.output);
        assert_eq!(retried.certificate, clean.certificate);

        let failed = Engine::with_transport(config, fails_once()).run(&problem).unwrap_err();
        assert!(matches!(failed, CamelotError::TransportFailed { .. }), "{failed}");
    }

    #[test]
    fn recovery_counters_flow_into_the_report() {
        let problem = Cube { c: 3 };
        let outcome = Engine::sequential(4, 1).run(&problem).unwrap();
        let report = &outcome.report;
        assert_eq!(
            (report.erasures_seen, report.errors_corrected, report.retries, report.degraded),
            (0, 0, 0, 0),
            "clean run: all recovery counters zero"
        );
    }

    #[test]
    fn equivocating_node_cannot_split_honest_consensus() {
        let problem = Cube { c: 999 };
        let plan = FaultPlan::with_faults(8, &[(3, FaultKind::Equivocate { seed: 9 })]);
        let config = EngineConfig::sequential(8, 2).with_plan(plan).with_full_decoding();
        let outcome = Engine::new(config).run(&problem).unwrap();
        assert_eq!(outcome.output, 999u128.pow(3));
        // Every honest node sees node 3's (different) lies as errors.
        assert_eq!(outcome.certificate.identified_faulty_nodes, vec![3]);
    }

    #[test]
    fn plan_size_mismatch_is_rejected() {
        let problem = Cube { c: 1 };
        let config = EngineConfig::sequential(4, 1).with_plan(FaultPlan::all_honest(5));
        assert!(matches!(
            Engine::new(config).run(&problem),
            Err(CamelotError::BadConfiguration { .. })
        ));
    }

    #[test]
    fn report_accounts_for_all_work() {
        let problem = Cube { c: 2 };
        let outcome = Engine::sequential(5, 2).run(&problem).unwrap();
        let e = outcome.report.code_length;
        let primes = outcome.report.primes.len();
        assert_eq!(outcome.report.total_evaluations, e * primes);
        assert_eq!(outcome.report.verification_evaluations, 2 * primes);
        assert!(outcome.report.max_node_evaluations >= e.div_ceil(5) * primes);
    }

    /// [`Cube`] counting every evaluation of its polynomial.
    struct Counted {
        cube: Cube,
        calls: std::sync::atomic::AtomicUsize,
    }

    impl CamelotProblem for Counted {
        type Output = u128;

        fn spec(&self) -> ProofSpec {
            self.cube.spec()
        }

        fn evaluator<'a>(&'a self, field: &PrimeField) -> Box<dyn Evaluate + 'a> {
            let cube = self.cube.evaluator(field);
            Box::new(move |x: u64| {
                self.calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                cube.eval(x)
            })
        }

        fn recover(&self, proofs: &[PrimeProof]) -> Result<u128, CamelotError> {
            self.cube.recover(proofs)
        }
    }

    /// A run reports `verification_trials` spot checks per prime, and
    /// runs every one it reports: the problem sees the node evaluations
    /// and those, nothing more and nothing less.
    #[test]
    fn a_run_reports_every_spot_check_it_ran() {
        let problem = Counted { cube: Cube { c: 1 << 30 }, calls: Default::default() };
        let mut config = EngineConfig::sequential(4, 1);
        config.verification_trials = 5;
        let report = Engine::new(config).run(&problem).unwrap().report;
        let primes = report.primes.len();
        assert_eq!(primes, 2);
        assert_eq!(report.verification_evaluations, 5 * primes);
        assert_eq!(
            problem.calls.into_inner(),
            report.total_evaluations + report.verification_evaluations
        );
    }

    #[test]
    fn redeem_serves_certificate_with_zero_rounds() {
        let problem = Cube { c: 4321 };
        let engine = Engine::sequential(4, 2);
        let prepared = engine.run(&problem).unwrap();
        assert_eq!(prepared.report.cache_hits, 0);
        assert_eq!(prepared.report.coalesced_requests, 1);
        assert!(prepared.report.rounds > 0);

        let redeemed = engine.redeem(&problem, &prepared.certificate).unwrap();
        assert_eq!(redeemed.output, prepared.output);
        assert_eq!(redeemed.certificate, prepared.certificate);
        assert_eq!(redeemed.report.rounds, 0);
        assert_eq!(redeemed.report.cache_hits, 1);
        assert_eq!(redeemed.report.coalesced_requests, 0);
        assert_eq!(redeemed.report.verification_evaluations, 2 * prepared.certificate.proofs.len());
    }

    #[test]
    fn redeem_rejects_tampered_and_misfit_certificates() {
        let problem = Cube { c: 99 };
        let engine = Engine::sequential(4, 2);
        let prepared = engine.run(&problem).unwrap();

        // A flipped coefficient must fail the spot check.
        let mut tampered = prepared.certificate.clone();
        tampered.proofs[0].coefficients[0] ^= 1;
        assert!(matches!(
            engine.redeem(&problem, &tampered),
            Err(CamelotError::VerificationFailed { .. })
        ));

        // A certificate for a different degree bound is structurally
        // rejected before any randomness is spent.
        let mut misfit = prepared.certificate.clone();
        misfit.degree_bound += 1;
        assert!(matches!(
            engine.redeem(&problem, &misfit),
            Err(CamelotError::MalformedProof { .. })
        ));

        // Dropping proofs breaks CRT coverage.
        let mut thin = prepared.certificate.clone();
        thin.proofs.truncate(1);
        assert!(matches!(engine.redeem(&problem, &thin), Err(CamelotError::MalformedProof { .. })));
    }

    /// A modulus outside `prime_floor..MAX_MODULUS` is a structural
    /// rejection, in debug and release alike: `0` used to underflow the
    /// bit count, `MAX_MODULUS` and up used to reach an unchecked field,
    /// and `floor - 1 = 2^61 - 1` is a prime the prover would never pick.
    #[test]
    fn redeem_rejects_moduli_outside_the_field_range() {
        let problem = Cube { c: 99 };
        let engine = Engine::sequential(4, 2);
        let prepared = engine.run(&problem).unwrap();
        let floor = prime_floor(&problem.spec(), prepared.certificate.code_length);
        assert!(is_prime_u64(floor - 1));
        for (modulus, coefficients) in [
            (0, vec![]),
            (1, vec![0]),
            (floor - 1, vec![1]),
            (MAX_MODULUS, vec![1]),
            (u64::MAX, vec![1]),
        ] {
            let mut forged = prepared.certificate.clone();
            forged.proofs[0] = PrimeProof { modulus, coefficients };
            assert!(
                matches!(
                    engine.redeem(&problem, &forged),
                    Err(CamelotError::MalformedProof { .. })
                ),
                "modulus {modulus}"
            );
        }
    }

    /// [`Cube`] posed under another spec.
    struct Posed(ProofSpec);

    impl CamelotProblem for Posed {
        type Output = u128;

        fn spec(&self) -> ProofSpec {
            self.0
        }

        fn evaluator<'a>(&'a self, field: &PrimeField) -> Box<dyn Evaluate + 'a> {
            Cube { c: 99 }.evaluator(field)
        }

        fn recover(&self, proofs: &[PrimeProof]) -> Result<u128, CamelotError> {
            Cube { c: 99 }.recover(proofs)
        }
    }

    /// Specs no prime walk can serve: a coverage target that wrapped
    /// (`u64::MAX` bits used to walk one prime and return a wrong
    /// answer) or that needs more primes than the walk's cap
    /// (`u64::MAX - 1` and `u64::MAX - 2` bits used to walk without
    /// end), a floor at or above `MAX_MODULUS` (`2^62` used to prepare
    /// over moduli `redeem` refuses, `u64::MAX` to panic in the prime
    /// search), and a floor with no prime left below `MAX_MODULUS`.
    fn inadmissible_specs() -> [ProofSpec; 6] {
        [
            ProofSpec::new(3, 1 << 20, u64::MAX),
            ProofSpec::new(3, 1 << 20, u64::MAX - 1),
            ProofSpec::new(3, 1 << 20, u64::MAX - 2),
            ProofSpec::new(3, MAX_MODULUS, 96),
            ProofSpec::new(3, u64::MAX, 96),
            ProofSpec::new(3, MAX_MODULUS - 1, 96),
        ]
    }

    #[test]
    fn inadmissible_specs_are_bad_configurations() {
        for spec in inadmissible_specs() {
            let problem = Posed(spec);
            for config in
                [EngineConfig::sequential(4, 1), EngineConfig::sequential(4, 1).with_ntt_primes()]
            {
                let schedule = config.prime_schedule;
                assert!(
                    matches!(
                        Engine::new(config).run(&problem),
                        Err(CamelotError::BadConfiguration { .. })
                    ),
                    "{spec:?} under {schedule:?}"
                );
            }
            assert!(
                matches!(crate::merlin_prove(&problem), Err(CamelotError::BadConfiguration { .. })),
                "merlin, {spec:?}"
            );
            assert!(
                matches!(
                    crate::arthur_verify(&problem, &[], 1, 0),
                    Err(CamelotError::BadConfiguration { .. })
                ),
                "arthur, {spec:?}"
            );
        }
    }

    #[test]
    fn redeem_rejects_specs_no_prime_walk_serves() {
        let engine = Engine::sequential(4, 2);
        let prepared = engine.run(&Cube { c: 99 }).unwrap();
        for spec in inadmissible_specs() {
            assert!(
                matches!(
                    engine.redeem(&Posed(spec), &prepared.certificate),
                    Err(CamelotError::MalformedProof { .. })
                ),
                "{spec:?}"
            );
        }
    }

    /// The composite-modulus hole. Over `Z/2^61`, the proof
    /// `P mod 2^61 + 2^60·(x² + x)` agrees with `P = (99 + x)³` at every
    /// point, because `x² + x` is even, so no number of spot checks
    /// catches it; and `2^61` is in range and at the floor. Only the
    /// primality check turns it away.
    #[test]
    fn redeem_rejects_a_composite_modulus_that_passes_every_spot_check() {
        let problem = Cube { c: 99 };
        let engine = Engine::sequential(4, 2);
        let prepared = engine.run(&problem).unwrap();
        let mut coefficients = vec![99u64.pow(3), 3 * 99 * 99, 3 * 99, 1];
        coefficients[1] += 1 << 60;
        coefficients[2] += 1 << 60;
        let composite = PrimeProof { modulus: 1 << 61, coefficients };
        let verdict = crate::verify::spot_check(&problem, &composite, 64, 7).unwrap();
        assert!(verdict.accepted, "the forgery survives every spot check");

        let mut forged = prepared.certificate.clone();
        forged.proofs[0] = composite;
        assert!(matches!(
            engine.redeem(&problem, &forged),
            Err(CamelotError::MalformedProof { .. })
        ));
    }

    /// A certificate built in memory, not parsed by `from_wire`, whose
    /// coefficient `c + q` is congruent to `c`: every spot check would
    /// agree with it, but Horner takes field elements, so it is refused
    /// as malformed before any evaluation — without a panic in debug.
    #[test]
    fn redeem_rejects_unreduced_coefficients() {
        let problem = Cube { c: 99 };
        let engine = Engine::sequential(4, 2);
        let prepared = engine.run(&problem).unwrap();
        // Lift by `q`, and by as many `q` as fit below `2^64`.
        for (k, lift) in [(0, 1), (3, 1), (0, u64::MAX)] {
            let mut forged = prepared.certificate.clone();
            let proof = &mut forged.proofs[0];
            let (q, c) = (proof.modulus, proof.coefficients[k]);
            proof.coefficients[k] = c + lift.min((u64::MAX - c) / q) * q;
            assert!(
                matches!(
                    engine.redeem(&problem, &forged),
                    Err(CamelotError::MalformedProof { .. })
                ),
                "coefficient {k} lifted by up to {lift}·q"
            );
        }
    }

    #[test]
    fn batch_reports_coalesced_requests() {
        let problems = vec![Cube { c: 11 }, Cube { c: 22 }, Cube { c: 33 }];
        let outcomes = Engine::sequential(4, 2).run_batch(&problems).unwrap();
        for outcome in &outcomes {
            assert_eq!(outcome.report.coalesced_requests, 3);
            assert_eq!(outcome.report.cache_hits, 0);
        }
    }

    /// Both schedules, not only the NTT one, recover on primes
    /// `1 mod 2^ntt_log_len(e)`.
    #[test]
    fn ntt_schedule_recovers_answer_with_friendly_primes() {
        let problem = Cube { c: 777 };
        let base = EngineConfig::sequential(4, 3);
        for config in [base.clone(), base.with_ntt_primes()] {
            let outcome = Engine::new(config).run(&problem).unwrap();
            assert_eq!(outcome.output, 777u128.pow(3));
            let k = ntt_log_len(outcome.report.code_length);
            for &q in &outcome.report.primes {
                assert_eq!((q - 1) % (1u64 << k), 0, "prime {q} is not 1 mod 2^{k}");
            }
            let bits: u64 =
                outcome.report.primes.iter().map(|q| 63 - u64::from(q.leading_zeros())).sum();
            assert!(bits > 97);
        }
    }

    #[test]
    fn choose_primes_is_deterministic_and_admissible() {
        let spec = ProofSpec::new(10, 1 << 22, 150);
        let primes = choose_primes(&spec, 300);
        assert_eq!(primes, choose_primes(&spec, 300));
        let k = ntt_log_len(300); // 2^k = 1024
        assert_eq!(1u64 << k, 1024);
        for &q in &primes {
            assert!(q > 1 << 22);
            assert!(camelot_ff::is_prime_u64(q));
            assert_eq!((q - 1) % (1 << k), 0);
        }
        let mut sorted = primes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), primes.len(), "moduli must be distinct");
    }

    #[test]
    fn choose_primes_respects_floor_and_bits() {
        let spec = ProofSpec::new(10, 1 << 30, 200);
        assert_eq!(prime_floor(&spec, 100), 1 << 61);
        let primes = choose_primes(&spec, 100);
        assert!(primes.iter().all(|&q| (1 << 61..MAX_MODULUS).contains(&q)));
        let bits: u64 = primes.iter().map(|q| 63 - u64::from(q.leading_zeros())).sum();
        assert!(bits > 201);
        // Deterministic.
        assert_eq!(primes, choose_primes(&spec, 100));
        // A spec floor above 2^61 wins.
        let high = ProofSpec::new(10, (1 << 61) + (1 << 40), 200);
        assert!(choose_primes(&high, 100).iter().all(|&q| q >= high.min_modulus));
    }

    /// Both schedules pick exactly as many primes as `primes_needed`
    /// says 61-bit primes need for a signed `value_bits` answer,
    /// `value_bits + 1` bits (the walk's `61·n ≥ value_bits + 1`), all in
    /// `[floor, 2^62)`, and both walk `1 mod 2^ntt_log_len(e)`.
    #[test]
    fn prime_count_is_what_61_bit_primes_need() {
        let e = 100;
        let step = 1u64 << ntt_log_len(e);
        for value_bits in [0, 1, 59, 60, 61, 120, 121, 200] {
            let spec = ProofSpec::new(10, 1 << 20, value_bits);
            let floor = prime_floor(&spec, e);
            let needed = camelot_ff::primes_needed(value_bits + 1, 61);
            for (schedule, config) in [
                ("smallest", EngineConfig::sequential(4, 1)),
                ("ntt", EngineConfig::sequential(4, 1).with_ntt_primes()),
            ] {
                let primes = config.primes_for(&spec, e);
                assert_eq!(primes, choose_primes(&spec, e), "{schedule}");
                assert_eq!(primes.len(), needed, "{schedule}, {value_bits} bits");
                for q in primes {
                    assert!((floor..MAX_MODULUS).contains(&q), "{schedule}: {q}");
                    assert!(is_prime_u64(q), "{schedule}: {q}");
                    assert_eq!((q - 1) % step, 0, "{schedule}: {q} is not 1 mod {step}");
                }
            }
        }
    }

    /// `2^bits` as a big integer.
    fn power_of_two(bits: u64) -> UBig {
        let words = (0..bits / 63).fold(UBig::one(), |acc, _| acc.mul_u64(1 << 63));
        words.mul_u64(1 << (bits % 63))
    }

    /// The walk takes the fewest primes that cover the signed range:
    /// their product exceeds `2^(value_bits + 1)`, and without the last
    /// prime it does not, at every width up to 400 bits and at both
    /// edges of the cap, where the next width is refused.
    #[test]
    fn the_walk_covers_exactly() {
        let cap_bits = 61 * MAX_WALK_PRIMES - 1;
        for value_bits in (0..=400).chain([cap_bits - 61, cap_bits]) {
            let primes = choose_primes(&ProofSpec::new(3, 1 << 20, value_bits), 8);
            let (last, rest) = primes.split_last().expect("at least one prime");
            let without_last = rest.iter().fold(UBig::one(), |acc, &q| acc.mul_u64(q));
            let bound = power_of_two(value_bits + 1);
            assert!(without_last.mul_u64(*last) > bound, "{value_bits} bits");
            assert!(without_last <= bound, "{value_bits} bits: a prime too many");
        }
        let over = ProofSpec::new(3, 1 << 20, cap_bits + 1);
        assert!(matches!(accumulate_primes(&over, 8), Err(CamelotError::BadConfiguration { .. })));
    }

    /// A 60-bit answer, signed or unsigned, at its extremes, recovers
    /// from one prime, and a 60-bit run takes one round.
    #[test]
    fn sixty_bits_recover_on_one_prime_in_one_round() {
        let spec = ProofSpec::new(3, 1 << 20, 60);
        let primes = choose_primes(&spec, 8);
        assert_eq!(primes.len(), 1);
        let q = primes[0];
        let residue = |v: i128| [Residue { modulus: q, value: v.rem_euclid(i128::from(q)) as u64 }];
        let top = (1i128 << 60) - 1;
        for v in [0, top] {
            assert_eq!(crt_u(&residue(v)).to_u128(), Some(v as u128), "unsigned {v}");
        }
        for v in [-top, 0, top] {
            assert_eq!(crt_i(&residue(v)).to_i128(), Some(v), "signed {v}");
        }
        let outcome = Engine::sequential(4, 1).run(&Posed(spec)).unwrap();
        assert_eq!(outcome.output, 99u128.pow(3));
        assert_eq!((outcome.report.rounds, outcome.certificate.proofs.len()), (1, 1));
    }

    /// The walk counts its primes before it searches: the widest specs
    /// are refused at once by the prover and the verifier alike, where
    /// `u64::MAX - 2` bits used to search without end.
    #[test]
    fn the_widest_specs_are_refused_before_any_search() {
        let engine = Engine::sequential(4, 2);
        let prepared = engine.run(&Cube { c: 99 }).unwrap();
        for value_bits in [u64::MAX - 1, u64::MAX - 2] {
            let spec = ProofSpec::new(3, 1 << 20, value_bits);
            let start = Instant::now();
            assert!(matches!(engine.run(&Posed(spec)), Err(CamelotError::BadConfiguration { .. })));
            assert!(matches!(
                engine.redeem(&Posed(spec), &prepared.certificate),
                Err(CamelotError::MalformedProof { .. })
            ));
            assert!(start.elapsed() < Duration::from_secs(1), "{value_bits} bits");
        }
    }
}
