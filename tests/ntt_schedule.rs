//! Engine-level regressions for the two point schedules: they walk the
//! same NTT-friendly primes, must recover identical answers, and the
//! proofs produced under either schedule must pass independent
//! spot-check verification — the verifier never needs to know which
//! schedule prepared a proof. The engine decodes every prime on its
//! orbit, and a prepare rebuilt outside it on consecutive points must
//! still give its certificate.

use camelot::cluster::{FaultKind, FaultPlan, InProcess, RoundEval, RoundSpec, Transport};
use camelot::core::{
    code_length, ntt_log_len, spot_check, CamelotProblem, Certificate, Engine, EngineConfig,
    Evaluate, PrimeProof, ProofSpec,
};
use camelot::ff::PrimeField;
use camelot::graph::{count_triangles, gen};
use camelot::rscode::RsCode;
use camelot::triangles::TriangleCount;
use std::collections::BTreeSet;

/// Default-schedule and NTT-schedule runs of the same problem recover
/// the same answer on the same primes, and each mode's verifier accepts
/// the other mode's proofs (spot checks are schedule-agnostic: they only
/// see a modulus and coefficients).
#[test]
fn schedules_accept_each_others_proofs() {
    let g = gen::gnm(14, 38, 21);
    let problem = TriangleCount::new(&g);

    let default_run = Engine::sequential(6, 8).run(&problem).expect("default schedule");
    let ntt_run = Engine::new(EngineConfig::sequential(6, 8).with_ntt_primes())
        .run(&problem)
        .expect("NTT schedule");

    assert_eq!(default_run.output, count_triangles(&g));
    assert_eq!(default_run.output, ntt_run.output);

    // Both schedules walk the same NTT-friendly moduli; only the points
    // differ, so the decoded proofs (`P mod q`) are the same too…
    let k = ntt_log_len(ntt_run.report.code_length);
    for &q in &ntt_run.report.primes {
        assert_eq!((q - 1) % (1u64 << k), 0, "prime {q} is not 1 mod 2^{k}");
    }
    assert_eq!(default_run.report.primes, ntt_run.report.primes);
    assert_eq!(default_run.certificate.proofs, ntt_run.certificate.proofs);

    // …and proofs from either schedule verify independently: cross-check
    // every proof of each run with the spot-check verifier.
    for proof in default_run.certificate.proofs.iter().chain(&ntt_run.certificate.proofs) {
        let report = spot_check(&problem, proof, 8, 0xA11CE).expect("well-formed proof");
        assert!(report.accepted, "proof mod {} rejected", proof.modulus);
    }
}

/// Batched runs honour the configured schedule exactly like solo runs.
#[test]
fn batch_uses_the_configured_schedule() {
    let graphs = [gen::gnm(10, 22, 3), gen::petersen()];
    let problems: Vec<TriangleCount> = graphs.iter().map(TriangleCount::new).collect();
    let engine = Engine::new(EngineConfig::sequential(5, 6).with_ntt_primes());

    let batched = engine.run_batch(&problems).expect("batch run");
    for (outcome, graph) in batched.iter().zip(&graphs) {
        assert_eq!(outcome.output, count_triangles(graph));
        let k = ntt_log_len(outcome.report.code_length);
        for &q in &outcome.report.primes {
            assert_eq!((q - 1) % (1u64 << k), 0);
        }
    }
    // Same joint spec ⇒ same shared schedule across the batch.
    assert!(batched.windows(2).all(|w| w[0].report.primes == w[1].report.primes));
}

/// A problem's evaluator as a width-1 round.
struct Solo<'a>(&'a dyn Evaluate);

impl RoundEval for Solo<'_> {
    fn width(&self) -> usize {
        1
    }

    fn eval(&self, _poly: usize, x: u64) -> u64 {
        self.0.eval(x)
    }
}

/// `problem`'s certificate rebuilt outside the engine, the way the
/// end-to-end benchmark's traced replay rebuilds a prepare: the primes
/// of `config.primes_for` for the batch's `joint` spec, a code on the
/// consecutive points `0..e`, one in-process round per prime, and the
/// first honest node's decode under the problem's own degree bound.
fn replayed_certificate(
    config: &EngineConfig,
    problem: &TriangleCount,
    joint: &ProofSpec,
) -> Certificate {
    let spec = problem.spec();
    let e = code_length(joint, config.fault_tolerance);
    let plan = config.plan.clone().unwrap_or_else(|| FaultPlan::all_honest(config.cluster.nodes));
    let decider = (0..config.cluster.nodes).find(|&n| !plan.kind(n).is_faulty()).unwrap();
    let (mut proofs, mut faulty, mut crashed) = (Vec::new(), BTreeSet::new(), BTreeSet::new());
    for q in config.primes_for(joint, e) {
        let field = PrimeField::new(q).unwrap();
        let code = RsCode::consecutive(&field, e);
        let evaluator = problem.evaluator(&field);
        let round_spec = RoundSpec { field: &field, points: code.points(), plan: &plan };
        let round = InProcess::new().run(&round_spec, &Solo(evaluator.as_ref())).unwrap();
        let broadcast = &round.broadcasts[0];
        let decoded = code.decode(&field, &broadcast.view_for(decider), spec.degree_bound).unwrap();
        faulty.extend(decoded.error_positions.iter().map(|&pos| broadcast.assignment[pos]));
        crashed.extend(decoded.erasure_positions.iter().map(|&pos| broadcast.assignment[pos]));
        proofs.push(PrimeProof { modulus: q, coefficients: decoded.poly.into_coeffs() });
    }
    Certificate {
        proofs,
        code_length: e,
        degree_bound: spec.degree_bound,
        identified_faulty_nodes: faulty.into_iter().collect(),
        crashed_nodes: crashed.into_iter().collect(),
    }
}

/// The engine's certificates, prepared on orbit codes, equal the ones a
/// consecutive-point rebuild gives: solo and batched, under both
/// schedules, quiet and with a corrupt, a crashed and an equivocating
/// node.
#[test]
fn consecutive_point_replays_give_the_engine_certificates() {
    let graphs = [gen::gnm(14, 38, 21), gen::petersen()];
    let problems: Vec<TriangleCount> = graphs.iter().map(TriangleCount::new).collect();
    let degree = problems.iter().map(|p| p.spec().degree_bound).max().unwrap();
    let nodes = 16;
    // Each faulty node holds at most ceil(e/16) of the e symbols; with
    // f = d + 1, e = 3(d + 1) and three faulty nodes cost at most
    // 5·ceil(e/16) of the 2f the code corrects.
    let budget = degree + 1;
    let faults = FaultPlan::with_faults(
        nodes,
        &[
            (2, FaultKind::Corrupt { seed: 5 }),
            (7, FaultKind::Crash),
            (11, FaultKind::Equivocate { seed: 9 }),
        ],
    );
    let quiet = EngineConfig::sequential(nodes, budget);
    for config in [
        quiet.clone(),
        quiet.clone().with_ntt_primes(),
        quiet.clone().with_plan(faults.clone()),
        quiet.with_ntt_primes().with_plan(faults),
    ] {
        let what = format!("{:?}, plan {:?}", config.prime_schedule, config.plan.is_some());
        let engine = Engine::new(config.clone());
        for problem in &problems {
            let solo = engine.run(problem).unwrap();
            let replayed = replayed_certificate(&config, problem, &problem.spec());
            assert_eq!(solo.certificate, replayed, "solo, {what}");
            if config.plan.is_some() {
                assert_eq!(solo.certificate.identified_faulty_nodes, vec![2, 11], "{what}");
                assert_eq!(solo.certificate.crashed_nodes, vec![7], "{what}");
            }
        }
        let joint = ProofSpec::new(
            degree,
            problems.iter().map(|p| p.spec().min_modulus).max().unwrap(),
            problems.iter().map(|p| p.spec().value_bits).max().unwrap(),
        );
        let batched = engine.run_batch(&problems).unwrap();
        for (outcome, problem) in batched.iter().zip(&problems) {
            let replayed = replayed_certificate(&config, problem, &joint);
            assert_eq!(outcome.certificate, replayed, "batch, {what}");
        }
    }
}
