//! Cross-crate integration: the full prepare → corrupt → decode → verify
//! → recover pipeline for each theorem family, under fault injection.

mod common;

use camelot::algebraic::{BoolMatrix, CnfFormula, CountCnfSat, OrthogonalVectors, Permanent};
use camelot::cliques::KCliqueCount;
use camelot::cluster::{FaultKind, FaultPlan};
use camelot::core::{CamelotError, CamelotProblem, Engine, EngineConfig};
use camelot::graph::{count_k_cliques, count_triangles, gen};
use camelot::partition::{ChromaticValue, SetPartitions};
use camelot::triangles::TriangleCount;
use common::NodeLoop;
use std::sync::Arc;

/// Generic byzantine round-trip driver: runs with a crash and a corrupt
/// node at generous redundancy and checks the verdicts.
fn byzantine_roundtrip<P: CamelotProblem>(problem: &P, budget: usize) -> P::Output {
    let nodes = 8usize;
    let plan = FaultPlan::with_faults(
        nodes,
        &[(1, FaultKind::Corrupt { seed: 99 }), (6, FaultKind::Crash)],
    );
    let config = EngineConfig::sequential(nodes, budget).with_plan(plan).with_full_decoding();
    let outcome = Engine::new(config).run(problem).expect("within radius");
    assert_eq!(outcome.certificate.identified_faulty_nodes, vec![1]);
    assert_eq!(outcome.certificate.crashed_nodes, vec![6]);
    outcome.output
}

#[test]
fn triangles_survive_byzantine_round() {
    let g = gen::gnm(12, 28, 5);
    let problem = TriangleCount::new(&g);
    // Each of 8 nodes owns ~e/8 symbols; budget for 2 whole slices.
    let d = problem.spec().degree_bound;
    let out = byzantine_roundtrip(&problem, d.max(16));
    assert_eq!(out, count_triangles(&g));
}

#[test]
fn orthogonal_vectors_survive_byzantine_round() {
    let a = BoolMatrix::random(9, 5, 40, 1);
    let b = BoolMatrix::random(9, 5, 40, 2);
    let problem = OrthogonalVectors::new(a, b);
    let d = problem.spec().degree_bound;
    let out = byzantine_roundtrip(&problem, d.max(16));
    assert_eq!(out, problem.reference_counts());
}

#[test]
fn permanent_survives_byzantine_round() {
    let problem = Permanent::random(6, 3, 31);
    let d = problem.spec().degree_bound;
    let out = byzantine_roundtrip(&problem, d.max(16));
    assert_eq!(out, problem.reference_permanent());
}

#[test]
fn chromatic_survives_byzantine_round() {
    let g = gen::gnm(8, 14, 2);
    let problem = ChromaticValue::new(g.clone(), 3);
    let d = problem.spec().degree_bound;
    let out = byzantine_roundtrip(&problem, d.max(16));
    let field = camelot::ff::PrimeField::new(1_000_000_007).unwrap();
    assert_eq!(
        out.rem_u64(field.modulus()),
        camelot::graph::chromatic::chromatic_value_mod(&g, 3, &field)
    );
}

#[test]
fn kclique_survives_byzantine_round() {
    let g = gen::planted_clique(7, 6, 6, 4);
    let expect = count_k_cliques(&g, 6);
    let problem = KCliqueCount::new(g, 6);
    let d = problem.spec().degree_bound;
    let out = byzantine_roundtrip(&problem, d.max(16));
    assert_eq!(out.to_u64(), Some(expect));
}

#[test]
fn cnf_survives_byzantine_round() {
    let formula = CnfFormula::random_ksat(8, 12, 3, 17);
    let expect = formula.count_solutions_brute();
    let problem = CountCnfSat::new(formula);
    let d = problem.spec().degree_bound;
    let out = byzantine_roundtrip(&problem, d.max(16));
    assert_eq!(out.to_u64(), Some(expect));
}

#[test]
fn setpartitions_survive_byzantine_round() {
    let family: Vec<u64> = (1..64).collect();
    let problem = SetPartitions::new(6, family, 3);
    let d = problem.spec().degree_bound;
    let out = byzantine_roundtrip(&problem, d.max(16));
    assert_eq!(out.to_u64(), Some(90)); // S(6,3)
}

#[test]
fn overwhelming_faults_are_detected_not_miscomputed() {
    // Corrupt 7 of 8 nodes: decoding MUST fail (never silently wrong).
    let g = gen::gnm(10, 20, 3);
    let problem = TriangleCount::new(&g);
    let plan = FaultPlan::random_corrupt(8, 7, 1);
    let config = EngineConfig::sequential(8, 2).with_plan(plan);
    match Engine::new(config).run(&problem) {
        Err(
            CamelotError::DecodeFailed { .. }
            | CamelotError::VerificationFailed { .. }
            | CamelotError::DecodeDisagreement { .. },
        ) => {}
        Err(other) => panic!("unexpected error class: {other}"),
        Ok(outcome) => {
            // Unique decoding can only return the true codeword within
            // radius; if it decoded, the answer must still be right.
            assert_eq!(outcome.output, count_triangles(&g));
        }
    }
}

/// The in-process bus, whatever the thread budget, proves what the
/// node-by-node reference proves.
#[test]
fn parallel_cluster_agrees_with_sequential() {
    let g = gen::gnm(10, 25, 9);
    let problem = TriangleCount::new(&g);
    let config = EngineConfig::sequential(4, 2);
    let seq = Engine::with_transport(config.clone(), Arc::new(NodeLoop)).run(&problem).unwrap();
    let par = Engine::new(config).run(&problem).unwrap();
    assert_eq!(seq.output, count_triangles(&g));
    assert_eq!(seq.output, par.output);
    assert_eq!(seq.certificate, par.certificate);
}
