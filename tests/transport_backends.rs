//! Cross-backend transport regressions: every broadcast backend must
//! produce bit-identical rounds on the full fault matrix — honest,
//! crash, corrupt, adversarial, equivocate — and the engine must run
//! end to end on each of them. The in-process bus is held to the
//! node-by-node reference, which reads no thread budget.

mod common;

use camelot::cluster::{
    ChaosEffect, ChaosPlan, Demotion, EvalProgram, FailureCause, FaultKind, FaultPlan, InProcess,
    ProgramEval, RoundSpec, SocketTransport, Transport, TransportError, TransportTuning,
};
use camelot::core::{
    Backend, CamelotError, CamelotOutcome, CamelotProblem, Engine, EngineConfig, PrimeSchedule,
    WorkerMode,
};
use camelot::ff::PrimeField;
use camelot::server::{PolyRequest, ServicePoly};
use camelot::triangles::TriangleCount;
use common::{node_loop_round, NodeLoop};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One of each behaviour over 10 nodes — the full fault matrix.
fn full_matrix_plan(nodes: usize) -> FaultPlan {
    FaultPlan::with_faults(
        nodes,
        &[
            (1, FaultKind::Crash),
            (3, FaultKind::Corrupt { seed: 21 }),
            (5, FaultKind::Adversarial { offset: 9 }),
            (7, FaultKind::Equivocate { seed: 33 }),
        ],
    )
}

fn all_backends() -> Vec<(&'static str, Box<dyn Transport>)> {
    vec![
        ("inproc", Box::new(InProcess::new())),
        ("socket", Box::new(SocketTransport::persistent(WorkerMode::Threads))),
    ]
}

/// The engine configurations every engine-level test holds to its
/// reference: the in-process bus and the socket pool, each built from
/// the config alone.
fn engine_backends(nodes: usize, budget: usize) -> Vec<(&'static str, EngineConfig)> {
    vec![
        ("inproc", EngineConfig::sequential(nodes, budget)),
        (
            "socket",
            EngineConfig::sequential(nodes, budget)
                .with_backend(Backend::Socket(WorkerMode::Threads)),
        ),
    ]
}

/// The acceptance criterion of the transport refactor: all backends,
/// same multi-polynomial round, bit-identical broadcasts — consensus
/// word, assignment, every receiver's view, and traffic accounting.
#[test]
fn all_backends_produce_bit_identical_broadcasts() {
    let nodes = 10;
    let field = PrimeField::new(1_048_583).unwrap();
    let points: Vec<u64> = (0..64).collect();
    let plan = full_matrix_plan(nodes);
    let spec = RoundSpec { field: &field, points: &points, plan: &plan };
    let eval = ProgramEval::new(
        &field,
        vec![EvalProgram::Poly(vec![5, 0, 3, 1]), EvalProgram::Poly(vec![1_000_000, 999])],
    );

    let reference = node_loop_round(&spec, &eval);
    for (name, transport) in all_backends() {
        let outcome = transport.run(&spec, &eval).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(outcome.broadcasts.len(), 2, "{name}");
        for (poly, (got, want)) in outcome.broadcasts.iter().zip(&reference.broadcasts).enumerate()
        {
            assert!(got.same_word(want), "{name}: polynomial {poly} word diverged");
            for receiver in 0..nodes {
                assert_eq!(
                    got.view_for(receiver),
                    want.view_for(receiver),
                    "{name}: polynomial {poly}, receiver {receiver}"
                );
            }
            let evals: Vec<usize> = got.stats.iter().map(|s| s.evaluations).collect();
            let want_evals: Vec<usize> = want.stats.iter().map(|s| s.evaluations).collect();
            assert_eq!(evals, want_evals, "{name}: polynomial {poly} work accounting");
        }
        assert_eq!(outcome.traffic, reference.traffic, "{name}: traffic accounting");
    }
}

/// Closure rounds (no wire program) on the in-process bus must agree with
/// the reference; the socket backend must refuse them rather than guess.
#[test]
fn closure_rounds_agree_where_supported() {
    let field = PrimeField::new(1_000_003).unwrap();
    let points: Vec<u64> = (0..40).collect();
    let plan = full_matrix_plan(8);
    let spec = RoundSpec { field: &field, points: &points, plan: &plan };
    let eval = camelot::cluster::SingleEval(|x: u64| field.mul(x, field.add(x, 3)));

    let reference = node_loop_round(&spec, &eval);
    let outcome = InProcess::new().run(&spec, &eval).unwrap();
    assert!(outcome.broadcasts[0].same_word(&reference.broadcasts[0]));
    assert!(SocketTransport::persistent(WorkerMode::Threads).run(&spec, &eval).is_err());
}

/// A wire-expressible problem: the proof polynomial `P` as explicit
/// coefficients, so socket workers rebuild it from the task message
/// alone; the answer is `P(0)` over the integers.
fn wire_poly(coefficients: Vec<u64>) -> ServicePoly {
    ServicePoly(PolyRequest {
        coefficients,
        sum_count: 1,
        value_bits: 64,
        min_modulus: 1 << 20,
        schedule: PrimeSchedule::Smallest,
    })
}

/// The engine pipeline — prepare, decode at all nodes, spot-check,
/// recover — must produce identical outcomes on every backend,
/// including real loopback sockets, under the full fault matrix.
#[test]
fn engine_outcomes_are_identical_across_backends() {
    let problem = wire_poly(vec![123_456_789, 7, 0, 5]);
    // One point per node: 4 faulty nodes = 2 errors + 1 erasure + 1
    // equivocated error per view, well within f = 6.
    let d = problem.spec().degree_bound;
    let budget = 6;
    let nodes = d + 1 + 2 * budget;

    let faulty =
        |config: EngineConfig| config.with_plan(full_matrix_plan(nodes)).with_full_decoding();
    let outcome_on =
        |engine: Engine| engine.run(&problem).expect("run must tolerate the fault matrix");

    let config = faulty(EngineConfig::sequential(nodes, budget));
    let reference = outcome_on(Engine::with_transport(config, Arc::new(NodeLoop)));
    assert_eq!(reference.output, 123_456_789);
    assert_eq!(reference.certificate.identified_faulty_nodes, vec![3, 5, 7]);
    assert_eq!(reference.certificate.crashed_nodes, vec![1]);
    assert_eq!(reference.report.rounds, reference.report.primes.len());
    assert!(reference.report.symbols_broadcast > 0);
    assert!(reference.report.bytes_on_wire > 0);

    for (name, config) in engine_backends(nodes, budget) {
        let outcome = outcome_on(Engine::new(faulty(config)));
        assert_eq!(outcome.output, reference.output, "{name}");
        assert_eq!(outcome.certificate, reference.certificate, "{name}");
        assert_eq!(outcome.report.symbols_broadcast, reference.report.symbols_broadcast, "{name}");
        assert_eq!(outcome.report.bytes_on_wire, reference.report.bytes_on_wire, "{name}");
    }
}

/// A crash-fault plan pins the erasure set: every decider sees the same
/// positions erased and decodes them through the same locator, first
/// decode and repeats alike. The decoded proof must be bit-identical
/// across deciders (the engine's disagreement check runs on every pair)
/// and across every transport backend, and the decode/xgcd
/// observability counters must attribute nonzero time.
#[test]
fn crash_fault_erasure_decoding_is_identical_across_backends() {
    let problem = wire_poly(vec![987_654_321, 11, 3, 0, 2]);
    let d = problem.spec().degree_bound;
    let budget = 5;
    let nodes = d + 1 + 2 * budget;
    // Crashes only: the erasure set is fixed and identical in every
    // decider's view.
    let crashes: Vec<(usize, FaultKind)> =
        [2, 6, 9].iter().map(|&n| (n, FaultKind::Crash)).collect();
    let plan = FaultPlan::with_faults(nodes, &crashes);

    let faulty = |config: EngineConfig| config.with_plan(plan.clone()).with_full_decoding();
    let outcome_on =
        |engine: Engine| engine.run(&problem).expect("crash plan within budget must decode");

    let config = faulty(EngineConfig::sequential(nodes, budget));
    let reference = outcome_on(Engine::with_transport(config, Arc::new(NodeLoop)));
    assert_eq!(reference.output, 987_654_321);
    assert_eq!(reference.certificate.crashed_nodes, vec![2, 6, 9]);
    assert!(reference.certificate.identified_faulty_nodes.is_empty());
    assert!(
        reference.report.decode_time >= reference.report.xgcd_time,
        "xgcd time is a sub-phase of decode time"
    );
    assert!(
        reference.report.decode_time.as_nanos() > 0,
        "full decoding across deciders must accumulate decode time"
    );

    for (name, config) in engine_backends(nodes, budget) {
        let outcome = outcome_on(Engine::new(faulty(config)));
        assert_eq!(outcome.output, reference.output, "{name}");
        assert_eq!(outcome.certificate, reference.certificate, "{name}");
    }
}

/// One of each transport-level chaos effect over 10 honest nodes. The
/// I/O deadline is far below the historical 60 s so hangs and oversize
/// delays resolve quickly (and identically: the delivery-versus-
/// demotion decision compares configured numbers, never wall clock).
fn full_chaos_plan(nodes: usize) -> ChaosPlan {
    ChaosPlan::with_effects(
        nodes,
        &[
            (0, ChaosEffect::Delay { millis: 5 }),
            (1, ChaosEffect::DropFrame),
            (2, ChaosEffect::Truncate { seed: 7 }),
            (3, ChaosEffect::Garble { seed: 9 }),
            (4, ChaosEffect::Duplicate),
            (5, ChaosEffect::Reset),
            (6, ChaosEffect::Hang),
        ],
    )
    .expect("all nodes in range")
}

fn chaos_tuning() -> TransportTuning {
    TransportTuning::default().with_io_deadline(Duration::from_millis(300))
}

/// A seeded chaos plan is injected *identically* by every backend: the
/// in-process simulation demotes exactly the expected nodes for their
/// structured causes, and the socket pool over real loopback TCP
/// delivers bit-identical broadcasts, the same demotion list and the
/// same traffic accounting.
#[test]
fn chaos_rounds_are_bit_identical_across_all_backends() {
    let nodes = 10;
    let field = PrimeField::new(1_048_583).unwrap();
    let points: Vec<u64> = (0..nodes as u64).collect();
    let plan = FaultPlan::all_honest(nodes);
    let spec = RoundSpec { field: &field, points: &points, plan: &plan };
    let eval = ProgramEval::new(
        &field,
        vec![EvalProgram::Poly(vec![5, 0, 3, 1]), EvalProgram::Poly(vec![1_000_000, 999])],
    );
    let chaos = full_chaos_plan(nodes);
    let tuning = chaos_tuning();

    let reference = InProcess::new()
        .with_tuning(tuning.clone())
        .with_chaos(Some(chaos.clone()))
        .run(&spec, &eval)
        .expect("reference chaos round");
    // Dropped, reset, hung, and truncated senders are demoted with
    // their structured causes; garble and within-deadline delay are not
    // demotions (their frames arrive and parse).
    let expected: Vec<(usize, FailureCause)> =
        reference.demotions.iter().map(|demotion| (demotion.node, demotion.cause)).collect();
    assert_eq!(
        expected,
        vec![
            (1, FailureCause::Reset),
            (2, FailureCause::Protocol),
            (5, FailureCause::Reset),
            (6, FailureCause::Timeout),
        ]
    );

    let outcome = SocketTransport::persistent(WorkerMode::Threads)
        .with_tuning(tuning)
        .with_chaos(Some(chaos))
        .run(&spec, &eval)
        .expect("socket chaos round");
    assert_eq!(outcome.demotions, reference.demotions, "demotion list diverged");
    assert_eq!(outcome.traffic, reference.traffic, "traffic accounting diverged");
    for (poly, (got, want)) in outcome.broadcasts.iter().zip(&reference.broadcasts).enumerate() {
        assert!(got.same_word(want), "polynomial {poly} word diverged");
        for receiver in 0..nodes {
            assert_eq!(
                got.view_for(receiver),
                want.view_for(receiver),
                "polynomial {poly}, receiver {receiver}"
            );
        }
    }
}

/// Three hung nodes, a dropped frame and a punctual straggler on the
/// persistent pool: the wall-clock smoke of "one deadline per round" —
/// the silent nodes share the round's one deadline instead of queueing
/// for one each — and what the coordinator sees is still exactly what
/// the in-process simulation of the same plan reports. The hung nodes
/// are suspects from then on (when each round ends is asserted on
/// virtual time by the pool's drain tests). Over several rounds every
/// demoted lane is respawned once, and shutdown leaves nothing behind.
#[test]
fn silent_nodes_share_one_deadline_on_the_socket_pool() {
    let nodes = 10;
    let field = PrimeField::new(1_048_583).unwrap();
    let points: Vec<u64> = (0..40).collect();
    let plan = FaultPlan::all_honest(nodes);
    let spec = RoundSpec { field: &field, points: &points, plan: &plan };
    let eval = ProgramEval::new(&field, vec![EvalProgram::Poly(vec![5, 0, 3, 1])]);
    let chaos = ChaosPlan::with_effects(
        nodes,
        &[
            (1, ChaosEffect::Hang),
            (2, ChaosEffect::Delay { millis: 30 }),
            (4, ChaosEffect::Hang),
            (6, ChaosEffect::DropFrame),
            (8, ChaosEffect::Hang),
        ],
    )
    .expect("all nodes in range");
    let tuning = TransportTuning::default().with_io_deadline(Duration::from_millis(400));
    let reference = InProcess::new()
        .with_tuning(tuning.clone())
        .with_chaos(Some(chaos.clone()))
        .run(&spec, &eval)
        .expect("reference chaos round");
    let demoted: Vec<(usize, FailureCause)> =
        reference.demotions.iter().map(|demotion| (demotion.node, demotion.cause)).collect();
    assert_eq!(
        demoted,
        vec![
            (1, FailureCause::Timeout),
            (4, FailureCause::Timeout),
            (6, FailureCause::Reset),
            (8, FailureCause::Timeout),
        ],
        "the delayed node is delivered, not demoted"
    );

    let pool = SocketTransport::persistent(WorkerMode::Threads)
        .with_tuning(tuning.clone())
        .with_chaos(Some(chaos));
    for round in 0..3 {
        let started = Instant::now();
        let outcome = pool.run(&spec, &eval).expect("the round survives by demotion");
        let elapsed = started.elapsed();
        assert!(
            elapsed < tuning.io_deadline * 3 / 2,
            "round {round}: three hangs must cost one deadline, took {elapsed:?}"
        );
        // The dropped frame (node 6) closes at once: a reset costs the
        // round no wait and makes no suspect.
        assert_eq!(pool.pool_suspects(), vec![1, 4, 8], "round {round}");
        assert_eq!(outcome.demotions, reference.demotions, "round {round}");
        assert_eq!(outcome.traffic, reference.traffic, "round {round}");
        assert!(outcome.broadcasts[0].same_word(&reference.broadcasts[0]), "round {round}");
        for receiver in 0..nodes {
            assert_eq!(
                outcome.broadcasts[0].view_for(receiver),
                reference.broadcasts[0].view_for(receiver),
                "round {round}, receiver {receiver}"
            );
        }
        // The lanes demoted in one round come back at the start of the
        // next, each exactly once.
        assert_eq!(pool.pool_respawns(), demoted.len() * round, "round {round}");
        assert_eq!(pool.pool_live_workers(), nodes - demoted.len(), "round {round}");
    }
    pool.shutdown_pool().expect("every worker, retired ones included, exits cleanly");
    assert_eq!(pool.pool_live_workers(), 0);
}

/// Within the decoding radius, chaos costs nothing but redundancy: the
/// decoded proofs and the recovered output are bit-identical to the
/// chaos-free run, the garbled node is identified as faulty, demoted
/// nodes land among the crashed, and the recovery counters account for
/// the noise — identically on every backend, an engine-shared pool
/// included.
#[test]
fn engine_absorbs_chaos_within_radius_identically_across_backends() {
    let problem = wire_poly(vec![123_456_789, 7, 0, 5]);
    let d = problem.spec().degree_bound;
    let budget = 6;
    let nodes = d + 1 + 2 * budget; // 16 nodes, one point each
    let chaos = ChaosPlan::with_effects(
        nodes,
        &[
            (3, ChaosEffect::Garble { seed: 11 }),  // 1 error
            (5, ChaosEffect::Truncate { seed: 4 }), // erasure (Protocol)
            (7, ChaosEffect::Hang),                 // erasure (Timeout)
            (9, ChaosEffect::DropFrame),            // erasure (Reset)
        ],
    )
    .expect("nodes in range");
    // 2 errors + 3 erasures = 5 <= e - d - 1 = 12: inside the radius.

    let sequential = || EngineConfig::sequential(nodes, budget);
    let clean = Engine::with_transport(sequential(), Arc::new(NodeLoop))
        .run(&problem)
        .expect("chaos-free run");
    let expected_demotions = vec![
        Demotion { node: 5, cause: FailureCause::Protocol },
        Demotion { node: 7, cause: FailureCause::Timeout },
        Demotion { node: 9, cause: FailureCause::Reset },
    ];
    let check = |name: &str, outcome: &CamelotOutcome<u128>| {
        // The certificate proves the same statement the chaos-free run
        // proved — same proofs, same output, same code parameters.
        assert_eq!(outcome.output, clean.output, "{name}");
        assert_eq!(outcome.certificate.proofs, clean.certificate.proofs, "{name}");
        assert_eq!(outcome.certificate.code_length, clean.certificate.code_length, "{name}");
        assert_eq!(outcome.certificate.degree_bound, clean.certificate.degree_bound, "{name}");
        // The noise is identified, not tolerated silently.
        assert_eq!(outcome.certificate.identified_faulty_nodes, vec![3], "{name}");
        assert_eq!(outcome.certificate.crashed_nodes, vec![5, 7, 9], "{name}");
        let primes = outcome.report.primes.len();
        assert_eq!(outcome.report.erasures_seen, 3 * primes, "{name}");
        assert_eq!(outcome.report.errors_corrected, primes, "{name}");
        assert_eq!(outcome.report.demotions, expected_demotions, "{name}");
    };

    for (name, config) in engine_backends(nodes, budget) {
        let config = config.with_tuning(chaos_tuning()).with_chaos(chaos.clone());
        check(name, &Engine::new(config).run(&problem).expect("chaos within the radius decodes"));
    }

    // A pool shared through `Engine::with_transport` (how the daemon
    // runs) sees the same rounds.
    let pool = SocketTransport::persistent(WorkerMode::Threads)
        .with_tuning(chaos_tuning())
        .with_chaos(Some(chaos));
    let engine =
        Engine::with_transport(EngineConfig::sequential(nodes, budget), Arc::new(pool.clone()));
    check("shared socket", &engine.run(&problem).expect("pool absorbs chaos"));
    pool.shutdown_pool().expect("clean pool shutdown");
}

/// Problems whose evaluators are opaque closures cannot run on the
/// socket backend — the engine must say so, not hang or mis-evaluate.
#[test]
fn socket_engine_rejects_closure_problems() {
    let g = camelot::graph::gen::petersen();
    let problem = TriangleCount::new(&g);
    let config = EngineConfig::sequential(4, 2).with_backend(Backend::Socket(WorkerMode::Threads));
    match Engine::new(config).run(&problem) {
        Err(CamelotError::TransportFailed { reason }) => {
            assert!(reason.contains("wire-expressible"), "unexpected reason: {reason}");
        }
        other => panic!("expected TransportFailed, got {other:?}"),
    }
}

/// A panicking evaluation closure must surface as a reported
/// `WorkerFailed` refusal naming the node on the in-process bus, at any
/// thread budget (one worker included), never abort the coordinator —
/// the same guarantee the socket worker gives for hostile frames, kept
/// panic-free end to end by camelot-lint's `panic-path` rule.
#[test]
fn threaded_backends_report_a_panicked_node_as_worker_failure() {
    let field = PrimeField::new(1_048_583).expect("prime");
    let points: Vec<u64> = (0..24).collect();
    let plan = FaultPlan::all_honest(4);
    let spec = RoundSpec { field: &field, points: &points, plan: &plan };
    let eval = camelot::cluster::SingleEval(|x: u64| {
        assert!(x != 13, "injected node failure");
        x
    });
    // Point 13 lies in node 2's slice, 12..18.
    match InProcess::new().run(&spec, &eval) {
        Err(TransportError::WorkerFailed { node: 2, .. }) => {}
        other => panic!("inproc: expected WorkerFailed for node 2, got {other:?}"),
    }
}

/// An engine over a config-built socket backend (no `with_transport`)
/// runs every round of the run on one pool, so a hung node costs the
/// run one deadline, not one a round: the certificate and demotions are
/// the in-process ones, and the whole run — pool start and shutdown
/// included — stays under two deadlines. The wall-clock smoke of "a
/// deadline is spent once".
#[test]
fn a_config_built_socket_engine_spends_a_deadline_once() {
    let problem = wire_poly(vec![123_456_789, 7, 0, 5]);
    let d = problem.spec().degree_bound;
    let budget = 6;
    let nodes = d + 1 + 2 * budget;
    let chaos = ChaosPlan::with_effects(nodes, &[(7, ChaosEffect::Hang)]).expect("node in range");
    let tuning = chaos_tuning();
    let run = |backend: Backend| {
        let config = EngineConfig::sequential(nodes, budget)
            .with_backend(backend)
            .with_tuning(tuning.clone())
            .with_chaos(chaos.clone());
        let started = Instant::now();
        let outcome = Engine::new(config).run(&problem).expect("a hung node is an erasure");
        (outcome, started.elapsed())
    };

    let (reference, _) = run(Backend::InProcess);
    assert!(reference.report.rounds >= 2, "the contract is about later rounds");
    assert_eq!(
        reference.report.demotions,
        vec![Demotion { node: 7, cause: FailureCause::Timeout }]
    );
    let (outcome, elapsed) = run(Backend::Socket(WorkerMode::Threads));
    assert_eq!(outcome.certificate, reference.certificate);
    assert_eq!(outcome.report.demotions, reference.report.demotions);
    assert_eq!(outcome.report.rounds, reference.report.rounds);
    assert!(
        elapsed < tuning.io_deadline * 2,
        "{} rounds with a hung node took {elapsed:?}: a deadline is spent once per run",
        outcome.report.rounds
    );
}
