//! Evaluator regression tests: every catalogue evaluator keeps producing
//! the same bits, is a polynomial of the promised degree at every kind of
//! point, and is safe to call from several threads.
//!
//! The golden digests below were recorded by running this file's
//! `certificates_match_recorded_digests` body on the parent commit
//! (de19c2e, before the evaluators were restructured to hoist their
//! x-independent work): a 64-bit FNV-1a of `Certificate::to_wire()` from
//! `Engine::sequential(4, 2)`, one small fixed instance per proof
//! polynomial in the workspace. Evaluation results are field elements, so
//! any correct re-association of the arithmetic reproduces them exactly.
//! Everything here goes through the public problem API only, so the file
//! compiles and passes unchanged on the parent commit.

use camelot::algebraic::{
    BoolMatrix, CnfFormula, Convolution3Sum, CountCnfSat, HamiltonianCycles, HammingDistribution,
    OrthogonalVectors, Permanent, SetCovers,
};
use camelot::cliques::KCliqueCount;
use camelot::core::{choose_primes, CamelotProblem, Engine};
use camelot::csp::{Csp2, CspWeightValue};
use camelot::ff::{PrimeField, RngLike, SplitMix64};
use camelot::graph::{gen, MultiGraph};
use camelot::partition::{ChromaticValue, PottsValue, SetPartitions};
use camelot::poly::interpolate;
use camelot::server::{PolyRequest, ServicePoly};
use camelot::triangles::TriangleCount;

fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn triangles() -> TriangleCount {
    TriangleCount::new(&gen::gnm(12, 26, 3))
}

fn cliques() -> KCliqueCount {
    KCliqueCount::new(gen::planted_clique(7, 5, 6, 11), 6)
}

fn chromatic() -> ChromaticValue {
    ChromaticValue::new(gen::gnm(8, 13, 5), 3)
}

fn permanent() -> Permanent {
    Permanent::random(6, 3, 17)
}

fn csp() -> CspWeightValue {
    CspWeightValue::new(Csp2::random(6, 2, 5, 50, 23), 2)
}

fn potts() -> PottsValue {
    let graph = MultiGraph::from_edges(6, [(0, 1), (0, 1), (1, 2), (2, 3), (3, 3), (3, 4), (4, 5)]);
    PottsValue::new(graph, 3, 2)
}

fn set_partitions() -> SetPartitions {
    SetPartitions::new(6, (1..64).collect(), 3)
}

fn orthogonal_vectors() -> OrthogonalVectors {
    OrthogonalVectors::new(BoolMatrix::random(9, 5, 35, 1), BoolMatrix::random(9, 5, 35, 2))
}

fn hamming() -> HammingDistribution {
    HammingDistribution::new(BoolMatrix::random(5, 3, 50, 3), BoolMatrix::random(5, 3, 50, 4))
}

fn conv3sum() -> Convolution3Sum {
    Convolution3Sum::random(8, 3, 9)
}

fn cnf() -> CountCnfSat {
    CountCnfSat::new(CnfFormula::random_ksat(7, 9, 3, 13))
}

fn hamilton() -> HamiltonianCycles {
    HamiltonianCycles::new(gen::gnm(7, 15, 21))
}

fn set_covers() -> SetCovers {
    SetCovers::new(6, vec![0b000111, 0b111000, 0b010101, 0b101010, 0b001100, 0b110011], 3)
}

/// Unreduced coefficients on purpose: the explicit-polynomial evaluator
/// must keep accepting them.
fn explicit_poly() -> ServicePoly {
    let mut rng = SplitMix64::new(77);
    ServicePoly(PolyRequest {
        coefficients: (0..=41).map(|_| rng.next_u64() >> 20).collect(),
        sum_count: 2,
        value_bits: 60,
        min_modulus: 1 << 20,
        schedule: camelot::core::PrimeSchedule::Smallest,
    })
}

fn certificate_digest<P: CamelotProblem>(problem: &P) -> u64 {
    let outcome = Engine::sequential(4, 2).run(problem).expect("a fault-free run succeeds");
    fnv64(outcome.certificate.to_wire().as_bytes())
}

#[test]
fn certificates_match_recorded_digests() {
    let actual = [
        ("triangles", certificate_digest(&triangles())),
        ("cliques", certificate_digest(&cliques())),
        ("chromatic", certificate_digest(&chromatic())),
        ("permanent", certificate_digest(&permanent())),
        ("csp", certificate_digest(&csp())),
        ("potts", certificate_digest(&potts())),
        ("set_partitions", certificate_digest(&set_partitions())),
        ("orthogonal_vectors", certificate_digest(&orthogonal_vectors())),
        ("hamming", certificate_digest(&hamming())),
        ("conv3sum", certificate_digest(&conv3sum())),
        ("cnf", certificate_digest(&cnf())),
        ("hamilton", certificate_digest(&hamilton())),
        ("set_covers", certificate_digest(&set_covers())),
        ("explicit_poly", certificate_digest(&explicit_poly())),
    ];
    let recorded: [(&str, u64); 14] = [
        ("triangles", 0xb0c4_a0af_76a9_aa82),
        ("cliques", 0x175f_1270_8bf7_770b),
        ("chromatic", 0x68e6_4e1b_6631_35f0),
        ("permanent", 0xad78_07f1_9b4a_a0c8),
        ("csp", 0x88ab_ff3b_95d4_472c),
        ("potts", 0xe056_83a8_d622_8629),
        ("set_partitions", 0xd766_b915_9025_e731),
        ("orthogonal_vectors", 0x704d_5bbb_d9e9_7077),
        ("hamming", 0x7dcd_3ac6_7367_6bab),
        ("conv3sum", 0xd522_c83a_0418_b627),
        ("cnf", 0x129b_620f_2218_c93f),
        ("hamilton", 0x5563_75c4_6244_1052),
        ("set_covers", 0x5527_9f90_5a0f_b73f),
        ("explicit_poly", 0x1e72_f5a9_c603_4e5a),
    ];
    assert_eq!(
        actual.map(|(name, digest)| format!("(\"{name}\", {digest:#018x}),")),
        recorded.map(|(name, digest)| format!("(\"{name}\", {digest:#018x}),")),
    );
}

/// The evaluator is the polynomial of degree `≤ d` its own `d + 1`
/// values determine — at 0, inside the interpolation-node range
/// `1..=nodes` (where prepared Lagrange bases take their indicator
/// shortcut), just past it, at `q − 1`, at unreduced `x ≥ q`, and at 32
/// random points.
fn agrees_with_own_interpolant<P: CamelotProblem>(name: &str, problem: &P, nodes: u64) {
    let spec = problem.spec();
    let q = choose_primes(&spec, spec.degree_bound + 1)[0];
    let field = PrimeField::new(q).expect("the engine's modulus is prime");
    let eval = problem.evaluator(&field);
    // Sample away from the node range so the interpolant is built from
    // the general branch and then checked against the shortcut.
    let base = nodes + 7;
    assert!(base + spec.degree_bound as u64 + 1 < q, "{name}: modulus too small for the samples");
    let samples: Vec<(u64, u64)> =
        (0..=spec.degree_bound as u64).map(|i| (base + i, eval.eval(base + i))).collect();
    let poly = interpolate(&field, &samples);
    assert!(poly.degree().unwrap_or(0) <= spec.degree_bound, "{name}: degree bound violated");

    let mut points = vec![0, 1, 2, nodes / 2 + 1, nodes, nodes + 1, q - 1, q, q + 3, u64::MAX];
    let mut rng = SplitMix64::new(0xE7A1 ^ nodes);
    points.extend((0..32).map(|_| rng.next_u64() % q));
    for x in points {
        assert_eq!(eval.eval(x), poly.eval(&field, x), "{name}: x = {x} (q = {q})");
    }
}

#[test]
fn evaluators_agree_with_their_own_interpolants() {
    let t = triangles();
    agrees_with_own_interpolant("triangles", &t, t.split().part_count() as u64);
    let c = cliques();
    agrees_with_own_interpolant("cliques", &c, c.rank() as u64);
    agrees_with_own_interpolant("chromatic", &chromatic(), 4);
    agrees_with_own_interpolant("permanent", &permanent(), 8);
    agrees_with_own_interpolant("csp", &csp(), 49);
    agrees_with_own_interpolant("potts", &potts(), 4);
    agrees_with_own_interpolant("set_partitions", &set_partitions(), 4);
    agrees_with_own_interpolant("orthogonal_vectors", &orthogonal_vectors(), 9);
    agrees_with_own_interpolant("hamming", &hamming(), 23);
    agrees_with_own_interpolant("conv3sum", &conv3sum(), 8);
    agrees_with_own_interpolant("cnf", &cnf(), 16);
    agrees_with_own_interpolant("hamilton", &hamilton(), 8);
    agrees_with_own_interpolant("set_covers", &set_covers(), 8);
    agrees_with_own_interpolant("explicit_poly", &explicit_poly(), 4);
}

/// `Evaluate` is `Sync` and the parallel backends share one evaluator
/// between node threads: four threads released together must each see
/// what a single thread sees.
fn concurrent_calls_match_sequential<P: CamelotProblem + Sync>(name: &str, problem: &P) {
    let spec = problem.spec();
    let q = choose_primes(&spec, spec.degree_bound + 1)[0];
    let field = PrimeField::new(q).expect("the engine's modulus is prime");
    let eval = problem.evaluator(&field);
    let points: Vec<u64> =
        (0..24).map(|i| if i % 3 == 0 { i / 3 + 1 } else { q - 1 - i }).collect();
    let expect: Vec<u64> = points.iter().map(|&x| eval.eval(x)).collect();
    let barrier = std::sync::Barrier::new(4);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    points.iter().map(|&x| eval.eval(x)).collect::<Vec<u64>>()
                })
            })
            .collect();
        for handle in handles {
            assert_eq!(handle.join().expect("evaluation does not panic"), expect, "{name}");
        }
    });
}

#[test]
fn evaluators_are_safe_to_share_between_threads() {
    concurrent_calls_match_sequential("triangles", &triangles());
    concurrent_calls_match_sequential("cliques", &cliques());
    concurrent_calls_match_sequential("chromatic", &chromatic());
    concurrent_calls_match_sequential("permanent", &permanent());
    concurrent_calls_match_sequential("csp", &csp());
    concurrent_calls_match_sequential("potts", &potts());
    concurrent_calls_match_sequential("set_partitions", &set_partitions());
    concurrent_calls_match_sequential("orthogonal_vectors", &orthogonal_vectors());
    concurrent_calls_match_sequential("explicit_poly", &explicit_poly());
}
