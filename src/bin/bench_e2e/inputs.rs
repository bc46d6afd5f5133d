//! Seeded input generation, the input digest, and the reference answers.
//!
//! Everything a workload feeds the program derives from `--seed`; the
//! digest folds in the generated inputs and their reference answers, so
//! "same seed ⇒ same inputs" is a comparison of one number.

use crate::cases::{Case, Checked};
use camelot::algebraic::Permanent;
use camelot::cliques::KCliqueCount;
use camelot::core::PrimeSchedule;
use camelot::csp::{Csp2, CspWeightValue};
use camelot::ff::{RngLike, SplitMix64, UBig};
use camelot::graph::chromatic::chromatic_value_brute;
use camelot::graph::{count_k_cliques, count_triangles, gen, Graph};
use camelot::partition::ChromaticValue;
use camelot::server::{PolyRequest, ServicePoly};
use camelot::triangles::TriangleCount;
use std::fmt::Debug;

/// Input sizes: the benchmark's own, or tiny ones for `--smoke`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

pub struct Rng(SplitMix64);

impl Rng {
    /// A stream for `purpose` under `seed`; streams do not overlap in
    /// practice because the purpose is hashed into the starting state.
    pub fn new(seed: u64, purpose: &str) -> Self {
        let mut digest = Digest::default();
        digest.u64(seed);
        digest.bytes(purpose.as_bytes());
        Rng(SplitMix64::new(digest.0))
    }

    pub fn next(&mut self) -> u64 {
        self.0.next_u64()
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// 64-bit FNV-1a over length-prefixed sections.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn absorb(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        self.absorb(&(bytes.len() as u64).to_le_bytes());
        self.absorb(bytes);
    }

    pub fn u64(&mut self, value: u64) {
        self.absorb(&value.to_le_bytes());
    }

    pub fn debug(&mut self, value: &impl Debug) {
        self.bytes(format!("{value:?}").as_bytes());
    }
}

fn graph_bytes(graph: &Graph) -> Vec<u8> {
    let mut out = (graph.vertex_count() as u64).to_le_bytes().to_vec();
    for &(u, v) in graph.edges() {
        out.extend_from_slice(&(u as u32).to_le_bytes());
        out.extend_from_slice(&(v as u32).to_le_bytes());
    }
    out
}

/// Files a case's input and reference answer in the digest and boxes it.
fn case<P>(digest: &mut Digest, checked: Checked<P>) -> Box<dyn Case>
where
    P: camelot::core::CamelotProblem + 'static,
    P::Output: PartialEq + Debug,
{
    digest.bytes(checked.family.as_bytes());
    digest.bytes(&checked.input);
    digest.debug(&checked.expect);
    Box::new(checked)
}

/// The five catalogue problems of `catalogue_inproc`, each with the
/// answer of a brute-force or combinatorial counter.
pub fn catalogue(seed: u64, size: Size, digest: &mut Digest) -> Vec<Box<dyn Case>> {
    let mut rng = Rng::new(seed, "catalogue");
    let full = size == Size::Full;

    let (n, m) = if full { (64, 400) } else { (16, 40) };
    let graph = gen::gnm(n, m, rng.next());
    let triangles = Checked {
        family: "triangles",
        expect: count_triangles(&graph),
        input: graph_bytes(&graph),
        problem: TriangleCount::new(&graph),
    };

    let (n, extra) = if full { (8, 8) } else { (7, 4) };
    let graph = gen::planted_clique(n, extra, 6, rng.next());
    let cliques = Checked {
        family: "cliques",
        expect: UBig::from_u64(count_k_cliques(&graph, 6)),
        input: graph_bytes(&graph),
        problem: KCliqueCount::new(graph, 6),
    };

    let (n, m) = if full { (12, 24) } else { (6, 8) };
    let graph = gen::gnm(n, m, rng.next());
    let partition = Checked {
        family: "partition",
        expect: UBig::from_u64(chromatic_value_brute(&graph, 3)),
        input: graph_bytes(&graph),
        problem: ChromaticValue::new(graph, 3),
    };

    let n = if full { 12 } else { 4 };
    let entries: Vec<i64> = (0..n * n).map(|_| rng.below(7) as i64 - 3).collect();
    let problem = Permanent::new(n, entries.clone());
    let algebraic = Checked {
        family: "algebraic",
        expect: problem.reference_permanent(),
        input: entries.iter().flat_map(|e| e.to_le_bytes()).collect(),
        problem,
    };

    let (sigma, m) = if full { (3, 8) } else { (2, 3) };
    let (csp_seed, w0) = (rng.next(), 2u64);
    let csp = Csp2::random(6, sigma, m, 50, csp_seed);
    // X(w0) = Σ_k #{assignments satisfying exactly k constraints} · w0^k.
    let mut expect = UBig::zero();
    let mut power = UBig::one();
    for count in csp.reference_histogram() {
        expect = expect.add(&power.mul_u64(count));
        power = power.mul_u64(w0);
    }
    let csp = Checked {
        family: "csp",
        expect,
        input: [6, sigma as u64, m as u64, 50, csp_seed, w0]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect(),
        problem: CspWeightValue::new(csp, w0),
    };

    vec![
        case(digest, triangles),
        case(digest, cliques),
        case(digest, partition),
        case(digest, algebraic),
        case(digest, csp),
    ]
}

/// A random explicit polynomial whose answer `Σ_{x<2} P(x)` stays below
/// `2^value_bits`.
pub fn poly_request(
    rng: &mut Rng,
    degree: usize,
    value_bits: u64,
    schedule: PrimeSchedule,
) -> PolyRequest {
    // P(0) + P(1) = 2·c_0 + Σ_{i>0} c_i < (degree + 2) · 2^coefficient_bits.
    let headroom = u64::from((degree + 2).next_power_of_two().trailing_zeros()) + 1;
    let coefficient_bits = value_bits.saturating_sub(headroom).clamp(1, 48);
    let coefficients = (0..=degree).map(|_| rng.next() >> (64 - coefficient_bits)).collect();
    PolyRequest { coefficients, sum_count: 2, value_bits, min_modulus: 1 << 20, schedule }
}

/// `Σ_{x < sum_count} P(x)` by Horner's rule over big integers — the
/// reference answer for every `poly_*` and daemon operation.
pub fn poly_sum(request: &PolyRequest) -> u128 {
    let mut total = UBig::zero();
    for x in 0..request.sum_count {
        let mut acc = UBig::zero();
        for &c in request.coefficients.iter().rev() {
            acc = acc.mul_u64(x).add(&UBig::from_u64(c));
        }
        total = total.add(&acc);
    }
    total.to_u128().expect("generated polynomials keep their answer below 2^value_bits")
}

pub fn poly_input_bytes(request: &PolyRequest) -> Vec<u8> {
    let mut out: Vec<u8> = request.coefficients.iter().flat_map(|c| c.to_le_bytes()).collect();
    for v in [request.sum_count, request.value_bits, request.min_modulus] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.push(u8::from(request.schedule == PrimeSchedule::NttFriendly));
    out
}

/// One `ServicePoly` case with its big-integer reference sum.
pub fn poly_case(request: PolyRequest, digest: &mut Digest) -> Box<dyn Case> {
    case(
        digest,
        Checked {
            family: "poly",
            expect: poly_sum(&request),
            input: poly_input_bytes(&request),
            problem: ServicePoly(request),
        },
    )
}

/// `count` distinct node indices below `nodes`, ascending.
pub fn pick_nodes(rng: &mut Rng, nodes: usize, count: usize) -> Vec<usize> {
    let mut all: Vec<usize> = (0..nodes).collect();
    for i in 0..count.min(nodes) {
        let j = i + rng.below((nodes - i) as u64) as usize;
        all.swap(i, j);
    }
    all.truncate(count.min(nodes));
    all.sort_unstable();
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalogue_digest(seed: u64) -> u64 {
        let mut digest = Digest::default();
        catalogue(seed, Size::Smoke, &mut digest);
        digest.0
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(catalogue_digest(1), catalogue_digest(1));
        assert_ne!(catalogue_digest(1), catalogue_digest(2));

        let poly = |seed: u64| {
            let mut rng = Rng::new(seed, "poly");
            poly_request(&mut rng, 64, 60, PrimeSchedule::Smallest)
        };
        assert_eq!(poly(5), poly(5));
        assert_ne!(poly(5), poly(6));
        assert_eq!(
            pick_nodes(&mut Rng::new(3, "n"), 12, 4),
            pick_nodes(&mut Rng::new(3, "n"), 12, 4)
        );
    }

    #[test]
    fn streams_differ_by_purpose() {
        assert_ne!(Rng::new(1, "a").next(), Rng::new(1, "b").next());
    }

    #[test]
    fn poly_answers_fit_their_declared_bound() {
        let mut rng = Rng::new(9, "poly");
        for (degree, bits) in [(2048, 60), (255, 60), (64, 60), (15, 15)] {
            let request = poly_request(&mut rng, degree, bits, PrimeSchedule::Smallest);
            assert_eq!(request.coefficients.len(), degree + 1);
            assert!(poly_sum(&request) < 1u128 << bits);
        }
        let tiny = PolyRequest {
            coefficients: vec![3, 1, 4],
            sum_count: 16,
            value_bits: 60,
            min_modulus: 1 << 20,
            schedule: PrimeSchedule::Smallest,
        };
        let direct: u128 = (0..16u128).map(|x| 3 + x + 4 * x * x).sum();
        assert_eq!(poly_sum(&tiny), direct);
    }

    #[test]
    fn picked_nodes_are_distinct_sorted_and_in_range() {
        for seed in 0..20 {
            let nodes = pick_nodes(&mut Rng::new(seed, "nodes"), 12, 4);
            assert_eq!(nodes.len(), 4);
            assert!(nodes.windows(2).all(|w| w[0] < w[1]));
            assert!(nodes.iter().all(|&n| n < 12));
        }
    }
}
