//! Engine-level execution-mode regressions: the in-process bus, its node
//! slices split across the thread budget, must be observationally
//! identical to the node-by-node reference under fault injection,
//! batched runs must recover exactly what per-problem runs recover, and
//! a batch must share one broadcast round per prime across its problems.

mod common;

use camelot::cluster::{FaultKind, FaultPlan};
use camelot::core::{CamelotProblem, Engine, EngineConfig};
use camelot::graph::{count_triangles, gen};
use camelot::triangles::TriangleCount;
use common::NodeLoop;
use std::sync::Arc;

fn faulty_config(nodes: usize, budget: usize) -> EngineConfig {
    let plan = FaultPlan::with_faults(
        nodes,
        &[(1, FaultKind::Corrupt { seed: 42 }), (4, FaultKind::Crash)],
    );
    EngineConfig::sequential(nodes, budget).with_plan(plan).with_full_decoding()
}

/// The same engine over the node-by-node reference transport.
fn reference_engine(config: EngineConfig) -> Engine {
    Engine::with_transport(config, Arc::new(NodeLoop))
}

/// Full `Engine::run` (not just one round) must agree between the
/// in-process bus at any thread budget and the node-by-node reference:
/// same recovered output, same certificate, and the byzantine + crashed
/// nodes identified identically.
#[test]
fn parallel_engine_matches_sequential_under_faults() {
    let g = gen::gnm(12, 30, 11);
    let problem = TriangleCount::new(&g);
    let budget = problem.spec().degree_bound.max(16);

    let seq = reference_engine(faulty_config(8, budget)).run(&problem).expect("reference");
    let par = Engine::new(faulty_config(8, budget)).run(&problem).expect("in-process");

    assert_eq!(seq.output, count_triangles(&g));
    assert_eq!(seq.output, par.output);
    assert_eq!(seq.certificate, par.certificate);
    assert_eq!(seq.certificate.identified_faulty_nodes, vec![1]);
    assert_eq!(seq.certificate.crashed_nodes, vec![4]);
    assert_eq!(seq.report.total_evaluations, par.report.total_evaluations);
    assert_eq!(seq.report.max_node_evaluations, par.report.max_node_evaluations);
}

/// `Engine::run_batch` recovers exactly the per-problem `Engine::run`
/// outputs, while sharing one prime/code-length derivation per batch.
#[test]
fn batch_output_matches_individual_runs() {
    let graphs = [gen::gnm(10, 20, 3), gen::gnm(14, 40, 5), gen::petersen()];
    let problems: Vec<TriangleCount> = graphs.iter().map(TriangleCount::new).collect();
    let engine = Engine::sequential(6, 8);

    let batched = engine.run_batch(&problems).expect("batch run");
    assert_eq!(batched.len(), problems.len());
    for ((problem, outcome), graph) in problems.iter().zip(&batched).zip(&graphs) {
        let solo = engine.run(problem).expect("solo run");
        assert_eq!(outcome.output, solo.output);
        assert_eq!(outcome.output, count_triangles(graph));
        assert!(outcome.certificate.identified_faulty_nodes.is_empty());
        assert!(outcome.certificate.crashed_nodes.is_empty());
    }
    // The amortized setup is shared: one prime set, one code length.
    assert!(batched.windows(2).all(|w| w[0].report.primes == w[1].report.primes));
    assert!(batched.windows(2).all(|w| w[0].report.code_length == w[1].report.code_length));
}

/// The batch-shared-rounds acceptance criterion: `run_batch` performs
/// exactly one broadcast round per prime for the whole batch (observed
/// via the `RunReport` round counters), while still recovering outputs
/// identical to per-problem runs.
#[test]
fn batch_shares_one_broadcast_round_per_prime() {
    let graphs = [gen::gnm(10, 22, 2), gen::gnm(12, 30, 4), gen::petersen()];
    let problems: Vec<TriangleCount> = graphs.iter().map(TriangleCount::new).collect();
    let engine = Engine::sequential(6, 8);

    let batched = engine.run_batch(&problems).expect("batch run");
    let shared = &batched[0].report;
    // One round per prime — for the batch, not per problem: every
    // outcome records the same shared counters.
    assert_eq!(shared.rounds, shared.primes.len());
    for outcome in &batched {
        assert_eq!(outcome.report.rounds, shared.rounds);
        assert_eq!(outcome.report.symbols_broadcast, shared.symbols_broadcast);
        assert_eq!(outcome.report.bytes_on_wire, shared.bytes_on_wire);
    }
    // The shared round carries one symbol per problem per point: on an
    // all-honest plan that is exactly `batch size × e` per prime.
    assert_eq!(shared.symbols_broadcast, problems.len() * shared.code_length * shared.primes.len());
    // A solo run of the first problem over the same parameters
    // broadcasts a third of the symbols in the same number of rounds.
    let solo = engine.run(&problems[0]).expect("solo run");
    assert_eq!(solo.report.rounds, solo.report.primes.len());
    assert_eq!(solo.report.symbols_broadcast, solo.report.code_length * solo.report.primes.len());
    assert_eq!(solo.output, batched[0].output);
}

/// The engine over the in-process bus (node slices split across the
/// thread budget) must be observationally identical to the node-by-node
/// reference, faults and traffic accounting included.
#[test]
fn parallel_bus_engine_matches_in_process() {
    let g = gen::gnm(11, 26, 17);
    let problem = TriangleCount::new(&g);
    let budget = problem.spec().degree_bound.max(16);

    let inproc = reference_engine(faulty_config(8, budget)).run(&problem).expect("reference");
    let parallel = Engine::new(faulty_config(8, budget)).run(&problem).expect("in-process");

    assert_eq!(inproc.output, parallel.output);
    assert_eq!(inproc.certificate, parallel.certificate);
    assert_eq!(inproc.report.total_evaluations, parallel.report.total_evaluations);
    assert_eq!(inproc.report.symbols_broadcast, parallel.report.symbols_broadcast);
    assert_eq!(inproc.report.bytes_on_wire, parallel.report.bytes_on_wire);
}

/// Batched runs identify faulty nodes exactly like per-problem runs:
/// three lanes of one spec (so one code length and one prime set), a
/// corrupt, a crashed and an equivocating node, every honest node
/// decoding. The lanes decode on one shared code per prime, split across
/// the thread budget, and each lane's whole certificate must equal its
/// solo run's.
#[test]
fn batch_identifies_faults_like_individual_runs() {
    let problems: Vec<TriangleCount> =
        [gen::gnm(11, 16, 7), gen::gnm(11, 24, 9), gen::gnm(11, 20, 3)]
            .iter()
            .map(TriangleCount::new)
            .collect();
    assert!(problems.iter().all(|p| p.spec() == problems[0].spec()), "one code length");
    let budget = problems[0].spec().degree_bound.max(16);
    let plan = FaultPlan::with_faults(
        8,
        &[
            (1, FaultKind::Corrupt { seed: 42 }),
            (4, FaultKind::Crash),
            (6, FaultKind::Equivocate { seed: 7 }),
        ],
    );
    let config = EngineConfig::sequential(8, budget).with_plan(plan).with_full_decoding();
    let engine = Engine::new(config);

    let batched = engine.run_batch(&problems).expect("batch run");
    assert_eq!(batched.len(), problems.len());
    for (problem, outcome) in problems.iter().zip(&batched) {
        let solo = engine.run(problem).expect("solo run");
        assert_eq!(outcome.output, solo.output);
        assert_eq!(outcome.certificate, solo.certificate);
        assert_eq!(outcome.certificate.identified_faulty_nodes, vec![1, 6]);
        assert_eq!(outcome.certificate.crashed_nodes, vec![4]);
    }
}

/// An empty batch is a no-op, not an error.
#[test]
fn empty_batch_is_ok() {
    let engine = Engine::sequential(4, 2);
    let outcomes = engine.run_batch::<TriangleCount>(&[]).expect("empty batch");
    assert!(outcomes.is_empty());
}
