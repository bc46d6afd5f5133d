//! Engine-level regressions for the two point schedules: they walk the
//! same NTT-friendly primes, must recover identical answers, and the
//! proofs produced under either schedule must pass independent
//! spot-check verification — the verifier never needs to know which
//! schedule prepared a proof.

use camelot::core::{ntt_log_len, spot_check, Engine, EngineConfig};
use camelot::graph::{count_triangles, gen};
use camelot::triangles::TriangleCount;

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
