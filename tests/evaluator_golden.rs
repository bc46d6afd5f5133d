//! Evaluator regression tests: every catalogue evaluator keeps producing
//! the same bits, is a polynomial of the promised degree at every kind of
//! point and at both ends of the modulus range, is safe to call from
//! several threads, and the engine recovers the answer its sequential
//! oracle computes.
//!
//! The golden digests below are a 64-bit FNV-1a of
//! `Certificate::to_wire()` from `Engine::sequential(4, 2)`, one small
//! fixed instance per proof polynomial in the workspace, recorded with
//! the prime walk starting at `2^61` and taking only primes
//! `q ≡ 1 (mod 2^k)`, `2^k` at least twice the code length, for both
//! point schedules, and taking the fewest that cover `value_bits + 1`
//! bits (one for `explicit_poly`'s 60 bits, where the walk used to take
//! two; no other instance's count changed). Beside each digest is the recovered answer, recorded
//! on the commit before the floor moved (27d9e89, first primes above
//! `2^20`): the certificates changed with each walk, the answers did not.
//! Evaluation results are field elements, so any correct re-association
//! of the arithmetic reproduces the digests exactly. Everything here goes
//! through the public problem API only.

use camelot::algebraic::{
    BoolMatrix, CnfFormula, Convolution3Sum, CountCnfSat, HamiltonianCycles, HammingDistribution,
    OrthogonalVectors, Permanent, SetCovers,
};
use camelot::cliques::KCliqueCount;
use camelot::core::{choose_primes, merlin_prove, CamelotProblem, Certificate, Engine, PrimeProof};
use camelot::csp::{Csp2, CspWeightValue};
use camelot::ff::{is_prime_u64, IBig, PrimeField, RngLike, SplitMix64, UBig, MAX_MODULUS};
use camelot::graph::{
    chromatic::chromatic_value_brute, count_hamiltonian_cycles, count_k_cliques, count_triangles,
    gen, tutte::potts_value_mod, Graph, MultiGraph,
};
use camelot::partition::{ChromaticValue, PottsValue, SetPartitions};
use camelot::poly::{interpolate, power_sum_route, PowerSumRoute};
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

/// An answer as decimal text, so answers of different types (a count, a
/// big integer, a histogram) compare with their oracles and print in
/// one table.
trait Shown {
    fn shown(&self) -> String;
}

macro_rules! shown_by_display {
    ($($t:ty),*) => {$(
        impl Shown for $t {
            fn shown(&self) -> String {
                self.to_string()
            }
        }
    )*};
}
shown_by_display!(u64, u128, UBig, IBig);

impl<T: std::fmt::Debug> Shown for Vec<T> {
    fn shown(&self) -> String {
        format!("{self:?}")
    }
}

fn triangles_graph() -> Graph {
    gen::gnm(12, 26, 3)
}

fn triangles() -> TriangleCount {
    TriangleCount::new(&triangles_graph())
}

fn cliques_graph() -> Graph {
    gen::planted_clique(7, 5, 6, 11)
}

fn cliques() -> KCliqueCount {
    KCliqueCount::new(cliques_graph(), 6)
}

fn chromatic_graph() -> Graph {
    gen::gnm(8, 13, 5)
}

fn chromatic() -> ChromaticValue {
    ChromaticValue::new(chromatic_graph(), 3)
}

fn permanent() -> Permanent {
    Permanent::random(6, 3, 17)
}

fn csp_instance() -> Csp2 {
    Csp2::random(6, 2, 5, 50, 23)
}

fn csp() -> CspWeightValue {
    CspWeightValue::new(csp_instance(), 2)
}

fn potts_graph() -> MultiGraph {
    MultiGraph::from_edges(6, [(0, 1), (0, 1), (1, 2), (2, 3), (3, 3), (3, 4), (4, 5)])
}

fn potts() -> PottsValue {
    PottsValue::new(potts_graph(), 3, 2)
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

fn cnf_formula() -> CnfFormula {
    CnfFormula::random_ksat(7, 9, 3, 13)
}

fn cnf() -> CountCnfSat {
    CountCnfSat::new(cnf_formula())
}

fn hamilton_graph() -> Graph {
    gen::gnm(7, 15, 21)
}

fn hamilton() -> HamiltonianCycles {
    HamiltonianCycles::new(hamilton_graph())
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

/// The largest prime below `MAX_MODULUS = 2^62`: the top of the range the
/// field layer admits, where an unreduced sum has the least headroom.
fn top_prime() -> u64 {
    (2..MAX_MODULUS).rev().find(|&q| is_prime_u64(q)).expect("a prime below 2^62")
}

/// The moduli every evaluator is audited at: the first one the engine
/// picks for the problem, and the top of the range.
fn audit_moduli<P: CamelotProblem>(problem: &P) -> [u64; 2] {
    let spec = problem.spec();
    [choose_primes(&spec, spec.degree_bound + 1)[0], top_prime()]
}

/// One fault-free run: the certificate's digest and the recovered answer.
fn digest_and_answer<P: CamelotProblem>(problem: &P) -> (u64, String)
where
    P::Output: Shown,
{
    let outcome = Engine::sequential(4, 2).run(problem).expect("a fault-free run succeeds");
    (fnv64(outcome.certificate.to_wire().as_bytes()), outcome.output.shown())
}

#[test]
fn certificates_match_recorded_digests() {
    let actual = [
        ("triangles", digest_and_answer(&triangles())),
        ("cliques", digest_and_answer(&cliques())),
        ("chromatic", digest_and_answer(&chromatic())),
        ("permanent", digest_and_answer(&permanent())),
        ("csp", digest_and_answer(&csp())),
        ("potts", digest_and_answer(&potts())),
        ("set_partitions", digest_and_answer(&set_partitions())),
        ("orthogonal_vectors", digest_and_answer(&orthogonal_vectors())),
        ("hamming", digest_and_answer(&hamming())),
        ("conv3sum", digest_and_answer(&conv3sum())),
        ("cnf", digest_and_answer(&cnf())),
        ("hamilton", digest_and_answer(&hamilton())),
        ("set_covers", digest_and_answer(&set_covers())),
        ("explicit_poly", digest_and_answer(&explicit_poly())),
    ];
    let recorded: [(&str, u64, &str); 14] = [
        ("triangles", 0x89f0_0d61_0e56_b2b6, "13"),
        ("cliques", 0x28a7_cb0a_0b26_9f34, "2"),
        ("chromatic", 0x27dd_825e_4e1c_3581, "24"),
        ("permanent", 0xf773_4efd_33e4_211f, "-707"),
        ("csp", 0x90bb_e5d2_a3f5_76a8, "792"),
        ("potts", 0x0138_dd5b_88ed_bdbd, "61875"),
        ("set_partitions", 0xdbf6_fe64_c02a_dac0, "90"),
        ("orthogonal_vectors", 0x5913_3bb2_f793_66e8, "[5, 5, 5, 6, 9, 3, 5, 9, 5]"),
        (
            "hamming",
            0x08b5_717a_27ad_714a,
            "[[1, 3, 1, 0], [1, 2, 2, 0], [1, 3, 1, 0], [0, 3, 2, 0], [2, 1, 1, 1]]",
        ),
        ("conv3sum", 0xd0c6_666b_5eb5_5966, "[1, 1, 0, 0]"),
        ("cnf", 0x4db5_cbd3_8eab_79f3, "41"),
        ("hamilton", 0x1b18_e51f_b37a_687e, "22"),
        ("set_covers", 0xa865_56b3_57ab_8f24, "102"),
        ("explicit_poly", 0xf3ae_5181_dd5b_b0ac, "307327293097594"),
    ];
    let row = |name: &str, digest: u64, answer: &str| {
        format!("(\"{name}\", {digest:#018x}, \"{answer}\"),")
    };
    assert_eq!(
        actual.map(|(name, (digest, answer))| row(name, digest, &answer)),
        recorded.map(|(name, digest, answer)| row(name, digest, answer)),
    );
}

/// The evaluator is the polynomial of degree `≤ d` its own `d + 1`
/// values determine — at 0, inside the interpolation-node range
/// `1..=nodes` (where prepared Lagrange bases take their indicator
/// shortcut), just past it, at `q − 1`, at unreduced `x ≥ q`, and at 32
/// random points — over the engine's first modulus and the top one.
fn agrees_with_own_interpolant<P: CamelotProblem>(name: &str, problem: &P, nodes: u64) {
    let spec = problem.spec();
    for q in audit_moduli(problem) {
        let field = PrimeField::new(q).expect("an audit modulus is prime");
        let eval = problem.evaluator(&field);
        // Sample away from the node range so the interpolant is built
        // from the general branch and then checked against the shortcut.
        let base = nodes + 7;
        assert!(
            base + spec.degree_bound as u64 + 1 < q,
            "{name}: modulus too small for the samples"
        );
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
/// what a single thread sees, over the engine's first modulus and the
/// top one.
fn concurrent_calls_match_sequential<P: CamelotProblem + Sync>(name: &str, problem: &P) {
    for q in audit_moduli(problem) {
        let field = PrimeField::new(q).expect("an audit modulus is prime");
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
    concurrent_calls_match_sequential("hamming", &hamming());
    concurrent_calls_match_sequential("conv3sum", &conv3sum());
    concurrent_calls_match_sequential("cnf", &cnf());
    concurrent_calls_match_sequential("hamilton", &hamilton());
    concurrent_calls_match_sequential("set_covers", &set_covers());
    concurrent_calls_match_sequential("explicit_poly", &explicit_poly());
}

/// `Engine::run` over word-sized primes, Merlin's sequential proof and
/// the family's own sequential oracle give one answer.
fn answers_agree<P: CamelotProblem>(name: &str, problem: &P, oracle: String)
where
    P::Output: Shown,
{
    let run = Engine::sequential(4, 2).run(problem).expect("a fault-free run succeeds");
    let merlin = merlin_prove(problem).expect("Merlin proves");
    let merlin = problem.recover(&merlin).expect("Merlin's proof recovers");
    assert_eq!(run.output.shown(), oracle, "{name}: engine vs oracle");
    assert_eq!(merlin.shown(), oracle, "{name}: Merlin vs oracle");
}

#[test]
fn answers_match_sequential_oracles_and_merlin() {
    // X(w0 = 2) = Σ_k (assignments satisfying k constraints) · 2^k.
    let csp_value: u128 = csp_instance()
        .reference_histogram()
        .iter()
        .rev()
        .fold(0, |acc, &n| 2 * acc + u128::from(n));
    // Z(3, 2) is far below the modulus, so the brute-force residue is
    // the value itself.
    let potts_field = PrimeField::new(top_prime()).expect("prime");
    let poly = explicit_poly();
    let poly_sum: u128 = poly.0.coefficients.iter().map(|&c| u128::from(c)).sum::<u128>()
        + u128::from(poly.0.coefficients[0]);

    answers_agree("triangles", &triangles(), count_triangles(&triangles_graph()).shown());
    answers_agree("cliques", &cliques(), count_k_cliques(&cliques_graph(), 6).shown());
    answers_agree("chromatic", &chromatic(), chromatic_value_brute(&chromatic_graph(), 3).shown());
    answers_agree("permanent", &permanent(), permanent().reference_permanent().shown());
    answers_agree("csp", &csp(), csp_value.shown());
    answers_agree("potts", &potts(), potts_value_mod(&potts_graph(), 3, 2, &potts_field).shown());
    answers_agree("set_partitions", &set_partitions(), set_partitions().reference_count().shown());
    let ov = orthogonal_vectors();
    answers_agree("orthogonal_vectors", &ov, ov.reference_counts().shown());
    answers_agree("hamming", &hamming(), hamming().reference_distribution().shown());
    answers_agree("conv3sum", &conv3sum(), conv3sum().reference_counts().shown());
    answers_agree("cnf", &cnf(), cnf_formula().count_solutions_brute().shown());
    answers_agree("hamilton", &hamilton(), count_hamiltonian_cycles(&hamilton_graph()).shown());
    answers_agree("set_covers", &set_covers(), set_covers().reference_count().shown());
    answers_agree("explicit_poly", &poly, poly_sum.shown());
}

/// A certificate on the primes the walk took before it kept only
/// `q ≡ 1 (mod 2^k)` — consecutive primes from `2^61`, as store files
/// written then hold — still redeems, with the right answer: those
/// moduli have no transform of the length the recovery sum needs, so its
/// power sums come from the recurrence. The proofs are the cliques
/// evaluator interpolated at
/// `d + 1` points mod each prime, which is what a decode produced.
#[test]
fn certificates_on_the_earlier_prime_walk_still_redeem() {
    let problem = cliques();
    let spec = problem.spec();
    let d = spec.degree_bound;
    let mut moduli = vec![camelot::ff::next_prime(1 << 61)];
    while 61 * (moduli.len() as u64) < spec.value_bits + 2 {
        moduli.push(camelot::ff::next_prime(moduli[moduli.len() - 1] + 1));
    }
    let proofs: Vec<PrimeProof> = moduli
        .iter()
        .map(|&q| {
            let field = PrimeField::new(q).expect("prime");
            let evaluator = problem.evaluator(&field);
            let points: Vec<(u64, u64)> = (0..=d as u64).map(|x| (x, evaluator.eval(x))).collect();
            let coefficients = interpolate(&field, &points).coeffs().to_vec();
            // The recovery sum (from 1, over the form's rank) cannot take
            // the transform here.
            let route = power_sum_route(&field, coefficients.len());
            assert_eq!(route, Some(PowerSumRoute::Recurrence), "mod {q}");
            PrimeProof { modulus: q, coefficients }
        })
        .collect();
    assert_ne!(moduli, choose_primes(&spec, d + 1), "the walk has moved on");
    let certificate = Certificate {
        proofs,
        code_length: d + 1,
        degree_bound: d,
        identified_faulty_nodes: Vec::new(),
        crashed_nodes: Vec::new(),
    };
    let outcome = Engine::sequential(4, 2).redeem(&problem, &certificate).expect("redeems");
    assert_eq!(outcome.output.shown(), count_k_cliques(&cliques_graph(), 6).shown());
    assert_eq!(outcome.output.shown(), "2");
}
