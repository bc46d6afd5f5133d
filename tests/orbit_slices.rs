//! Orbit-slice evaluation across backends: on a roots-of-unity code a
//! node evaluates an explicit polynomial on its slice with one forward
//! transform, on every backend, and every symbol, view, certificate and
//! worker frame equals what per-point Horner gives on the node-by-node
//! reference.

mod common;

use camelot::cluster::{
    compute_node_frames, execute_task, node_slice, EvalProgram, FaultKind, FaultPlan, InProcess,
    PreparedProgram, ProgramEval, RoundEval, RoundSpec, SocketTransport, Task, Transport,
};
use camelot::core::{
    code_length, Backend, CamelotError, CamelotProblem, Engine, EngineConfig, Evaluate, PrimeProof,
    ProofSpec, WorkerMode,
};
use camelot::ff::{crt_u, ntt_prime, PrimeField, Residue, RngLike, SplitMix64};
use camelot::rscode::RsCode;
use common::{node_loop_round, NodeLoop};
use std::sync::Arc;

const NODES: usize = 16;
const DEGREE: usize = 512;
/// `e = 913` on a 1024-point orbit: 57 points a node, past the
/// transform's crossover at degree 512, and the three faulty nodes'
/// 2 · 114 errors + 57 erasures within the 400 the budget corrects.
const BUDGET: usize = 200;

/// A corrupt, a crashed and an equivocating node.
fn plan() -> FaultPlan {
    FaultPlan::with_faults(
        NODES,
        &[
            (3, FaultKind::Corrupt { seed: 17 }),
            (9, FaultKind::Crash),
            (12, FaultKind::Equivocate { seed: 29 }),
        ],
    )
}

fn random_coeffs(degree: usize, rng: &mut SplitMix64) -> Vec<u64> {
    (0..=degree).map(|_| rng.next_u64() >> 4).collect()
}

/// The programs of a round, evaluated point by point: no wire programs,
/// so every backend that runs it calls `eval` once per point.
struct PerPoint(Vec<PreparedProgram>);

impl RoundEval for PerPoint {
    fn width(&self) -> usize {
        self.0.len()
    }

    fn eval(&self, poly: usize, x: u64) -> u64 {
        self.0[poly].eval(x)
    }
}

/// A width-2 round on the code's points — degree 512, and degree 1500,
/// whose coefficients fold onto the 1024-point orbit — is the same on
/// the in-process bus and the socket pool, and equal to per-point
/// evaluation node by node; each worker's frames equal a per-point
/// node's.
#[test]
fn orbit_rounds_equal_per_point_rounds_on_every_backend() {
    let e = code_length(&ProofSpec::new(DEGREE, 0, 0), BUDGET);
    let field = PrimeField::new(ntt_prime(1 << 61, 10).0).unwrap();
    let code = RsCode::roots_of_unity(&field, e).expect("prime admits the orbit");
    let mut rng = SplitMix64::new(0x0B17);
    let programs: Vec<EvalProgram> =
        [DEGREE, 1500].map(|degree| EvalProgram::Poly(random_coeffs(degree, &mut rng))).to_vec();
    let plan = plan();
    let spec = RoundSpec { field: &field, points: code.points(), plan: &plan };
    let per_point = PerPoint(programs.iter().map(|p| p.prepare(&field)).collect());
    let eval = ProgramEval::new(&field, programs.clone());

    let reference = node_loop_round(&spec, &per_point);
    let backends: Vec<(&str, Box<dyn Transport>)> = vec![
        ("inproc", Box::new(InProcess::new())),
        ("socket", Box::new(SocketTransport::persistent(WorkerMode::Threads))),
    ];
    for (name, transport) in backends {
        let outcome = transport.run(&spec, &eval).unwrap_or_else(|err| panic!("{name}: {err}"));
        assert_eq!(outcome.traffic, reference.traffic, "{name}");
        for (poly, (got, want)) in outcome.broadcasts.iter().zip(&reference.broadcasts).enumerate()
        {
            assert!(got.same_word(want), "{name}: polynomial {poly}");
            for receiver in 0..NODES {
                assert_eq!(got.view_for(receiver), want.view_for(receiver), "{name}: {receiver}");
            }
        }
    }

    for node in 0..NODES {
        let (lo, hi) = node_slice(e, NODES, node);
        let points = code.points()[lo..hi].to_vec();
        let task = Task {
            modulus: field.modulus(),
            nodes: NODES,
            node,
            fault: plan.kind(node),
            programs: programs.clone(),
            lo,
            points,
            chaos: None,
            deadline_ms: 60_000,
        };
        let want =
            compute_node_frames(&field, task.fault, NODES, node, lo, &task.points, &per_point);
        assert_eq!(execute_task(&task).body, want.body, "node {node}");
    }
}

/// `P(0)` of an explicit polynomial over the integers, with or without a
/// wire program: without one, every backend evaluates it point by point.
struct OrbitPoly {
    coeffs: Vec<u64>,
    wire: bool,
}

struct OrbitPolyEval {
    program: PreparedProgram,
    wire: bool,
}

impl Evaluate for OrbitPolyEval {
    fn eval(&self, x0: u64) -> u64 {
        self.program.eval(x0)
    }

    fn program(&self) -> Option<EvalProgram> {
        self.wire.then(|| self.program.program())
    }
}

impl CamelotProblem for OrbitPoly {
    type Output = u128;

    fn spec(&self) -> ProofSpec {
        ProofSpec::new(self.coeffs.len() - 1, 0, 64)
    }

    fn evaluator<'a>(&'a self, field: &PrimeField) -> Box<dyn Evaluate + 'a> {
        let program = PreparedProgram::poly(field, &self.coeffs);
        Box::new(OrbitPolyEval { program, wire: self.wire })
    }

    fn recover(&self, proofs: &[PrimeProof]) -> Result<u128, CamelotError> {
        let residues: Vec<Residue> =
            proofs.iter().map(|p| Residue { modulus: p.modulus, value: p.eval(0) }).collect();
        crt_u(&residues)
            .to_u128()
            .ok_or_else(|| CamelotError::RecoveryFailed { reason: "value exceeded u128".into() })
    }
}

/// The engine on the `NttFriendly` schedule with full decoding gives one
/// certificate on the in-process bus and the socket pool, and it is the
/// certificate of per-point evaluation node by node.
#[test]
fn orbit_certificates_are_identical_across_backends() {
    let mut coeffs = random_coeffs(DEGREE, &mut SplitMix64::new(0xCE27));
    coeffs[0] = 123_456_789;
    let config = || EngineConfig::sequential(NODES, BUDGET).with_ntt_primes();
    let faulty = |config: EngineConfig| config.with_plan(plan()).with_full_decoding();
    let run = |engine: Engine, wire: bool| {
        let problem = OrbitPoly { coeffs: coeffs.clone(), wire };
        engine.run(&problem).expect("the faults are within the budget")
    };

    let reference = run(Engine::with_transport(faulty(config()), Arc::new(NodeLoop)), false);
    assert_eq!(reference.output, 123_456_789);
    assert_eq!(reference.certificate.identified_faulty_nodes, vec![3, 12]);
    assert_eq!(reference.certificate.crashed_nodes, vec![9]);
    let configs = [
        ("inproc", config()),
        ("socket", config().with_backend(Backend::Socket(WorkerMode::Threads))),
    ];
    for (name, config) in configs {
        let outcome = run(Engine::new(faulty(config)), true);
        assert_eq!(outcome.certificate, reference.certificate, "{name}");
        assert_eq!(outcome.report.symbols_broadcast, reference.report.symbols_broadcast, "{name}");
    }
}
