//! # camelot-rscode — nonsystematic Reed–Solomon codes and the Gao decoder
//!
//! §2.3 of *“How Proofs are Prepared at Camelot”*. A Camelot proof in
//! preparation **is** a Reed–Solomon codeword: the message is the
//! coefficient vector `(p_0, ..., p_d)` of the proof polynomial and the
//! codeword is the evaluation vector `(P(x_1), ..., P(x_e))` the compute
//! nodes produce. Decoding with the algorithm of Gao both recovers the
//! proof **and identifies the failed nodes** (the error locations), which
//! is what gives the framework its byzantine robustness.
//!
//! * [`RsCode::encode`] — message polynomial → codeword (what honest nodes
//!   jointly compute, each contributing a slice); one forward NTT for a
//!   [`RsCode::roots_of_unity`] code, Horner per point otherwise;
//! * [`RsCode::decode`] — received word (with erasures for crashed nodes
//!   and errors for corrupted ones) → proof polynomial + error locations,
//!   correct whenever `#errors <= (e' - d - 1) / 2` over the `e'` symbols
//!   actually received.
//!
//! ## One decode path: an erasure is an error whose locator is known
//!
//! Every code transforms over one fixed *domain* `D`: its own points, or
//! — for a [`RsCode::roots_of_unity`] code — the whole `2^k` orbit of
//! `ω`, of which the code uses the first `e` elements. `G0 = Π_{t∈D}
//! (x − t)` is fixed per code (`x^{2^k} − 1` on an orbit). A decode never
//! leaves `D`; what changes from word to word is the set `A ⊆ D` of
//! *absent* positions — the erased symbols, plus on a partial orbit the
//! unused tail `ω^e … ω^{2^k−1}`, which is a set of erasures that never
//! arrive — and its locator `Λ = Π_{a∈A} (x − a)`:
//!
//! 1. Let `y` be the received word with zeros at `A`, and `G1` the
//!    interpolant of the survivors' symbols. The interpolant over **all
//!    of `D`** of `y_i·Λ(x_i)` is `h = Λ·G1` (both sides have degree
//!    below `|D|` and agree on `D`), and `G0 = Λ·G0'` with `G0'` the
//!    survivors' vanishing polynomial.
//! 2. Run the partial extended Euclid on `(G0, h)` with the stop degree
//!    raised by `|A|`. Dividing `Λ·a` by `Λ·b` gives the quotient of
//!    `a / b` and `Λ` times its remainder, so every quotient and cofactor
//!    is that of Gao's algorithm on the survivors' code `(G0', G1)`,
//!    every remainder is `Λ` times it, and the loop stops on the same
//!    step: it returns the same `v` and `g' = Λ·g`.
//! 3. The message is `p = g' / (v·Λ)`, with the same quotient as `g / v`
//!    and a remainder that vanishes exactly when that one does, so the
//!    result — `Ok` or `Err`, inside the decoding radius or beyond it —
//!    is that of decoding the survivors' symbols on the code over the
//!    survivors' points. On an orbit the division is pointwise on a
//!    coset `c·⟨ω⟩` that shares no element with the orbit, so `Λ` has no
//!    root on it and, inside the radius, neither has `v`. One scaled
//!    forward NTT each of `g'`, `v` and the erased symbols' factor of
//!    `Λ`, a batch inversion and one inverse NTT give the `P*` of degree
//!    below `2^k` with `P*·v·Λ ≡ g'` modulo `x^{2^k} − c^{2^k}`, and
//!    `v·Λ` divides `g'` exactly when `deg P* ≤ deg g' − deg(v·Λ)`, with
//!    quotient `P*`. A zero among the divisor's coset values — a `v` with
//!    a root off the orbit, which only a word beyond the radius has — and
//!    every code on points divide by Newton instead.
//!
//! `Λ`'s values over `D` are one domain evaluation of the erased symbols'
//! factor (one forward NTT on an orbit) times the tail factor's values,
//! which a partial orbit computes once at construction, on the orbit and
//! on the coset. With nothing absent `Λ = 1` and the three steps are
//! Gao's algorithm verbatim.
//!
//! ## Decode once, certify the rest
//!
//! Every honest node decodes its own view of a round (footnote 7 of the
//! paper), and honest views differ only where a byzantine node sent
//! different symbols to different receivers. Unique decoding makes a
//! second view cheap to settle. Let `p` have degree `<= d` with codeword
//! `c`, and let a view have `E` erasures and differ from `c` at `t'` of
//! its `e' = e − E` received positions. If `2t' + E <= e − d − 1`, the
//! view is within the survivors' radius `(e' − d − 1) / 2` of `c`; no
//! other codeword of degree `<= d` is that near, so Gao's algorithm
//! returns exactly `p`, its error positions are the `t'` mismatches and
//! its erasures are the view's own.
//!
//! So a code keeps the last decode it accepted: the modulus, the degree
//! bound, the codeword and the message. After its length and
//! [`DecodeError::TooFewSymbols`] checks, a decode under the same
//! modulus and degree bound counts the received positions that disagree
//! with that codeword, and stops counting once they pass the radius.
//! Within it, the decode returns the stored message with those
//! positions, in `O(e)`; otherwise it runs Gao's algorithm, which stores
//! its result. Either way the result is bit-identical to a fresh code's,
//! `Ok` or `Err`. The entry is filled only where the codeword costs
//! nothing more: from the re-encode that locates errors, and from a
//! decode that located nothing and saw no erasure, whose received word
//! is its codeword. The lanes of a batch share a code and may evict each
//! other's entry, which only sends a view back to Gao. A clone starts
//! empty.
//!
//! Real Knights could do the same: one node broadcasts its decoded proof,
//! `d + 1` coefficients; every other node re-encodes it and counts the
//! mismatches against its own view. An honest node accepts only what
//! Gao's algorithm would have returned on that view, and a byzantine
//! candidate only sends the others back to it.
//!
//! ## One domain per `(q, e)`
//!
//! An orbit code's domain — its points, `G0 = x^{2^k} − 1`, the tail
//! locator's values on the orbit and on the coset, and the coset's
//! powers — follows from the modulus and the code length alone, as the
//! paper's Knights derive their evaluation points from the common
//! input. [`RsCode::roots_of_unity`] builds it once per `(q, e)` into a
//! small process-wide cache, beside the NTT plans of
//! [`camelot_poly::cached_ntt_plan`] and bounded the same way, and every
//! code of that pair holds the same tables by reference: a hit copies
//! nothing. [`RsCode::consecutive`] does the same with its points and
//! their `G0`. The accepted decode is not part of the domain. Every
//! code starts with its own, empty, so a certification never crosses
//! from one code to another.
//!
//! ## Example
//!
//! ```
//! use camelot_ff::PrimeField;
//! use camelot_poly::Poly;
//! use camelot_rscode::RsCode;
//!
//! let f = PrimeField::new(97)?;
//! let proof = Poly::from_coeffs(&f, [7, 3, 1]); // degree d = 2
//! let code = RsCode::consecutive(&f, 11);       // e = 11 evaluations
//! let mut word: Vec<Option<u64>> = code.encode(&f, &proof).into_iter().map(Some).collect();
//! word[4] = Some(55);                            // a byzantine node lies...
//! word[9] = None;                                // ...and another crashes
//! let decoded = code.decode(&f, &word, 2).unwrap();
//! assert_eq!(decoded.poly, proof);
//! assert_eq!(decoded.error_positions, vec![4]);  // the liar is identified
//! # Ok::<(), camelot_ff::FieldError>(())
//! ```

use camelot_ff::PrimeField;
use camelot_poly::{
    cached_ntt_plan, div_rem_fast, eval_many, interpolate, vanishing_poly, NttPlan, Poly,
};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A nonsystematic Reed–Solomon code: `e` distinct evaluation points in
/// `Z_q`.
#[derive(Debug)]
pub struct RsCode {
    domain: Domain,
    /// The last decode this code accepted whose codeword it had at hand,
    /// which later views are certified against (see the crate docs). A
    /// lock, because the lanes of a batch decode on one code from
    /// several threads; each takes the entry out and compares unlocked.
    accepted: Mutex<Option<Arc<Accepted>>>,
}

/// One accepted decode: the message, its codeword and the key a later
/// decode must match to be certified against them.
#[derive(Debug)]
struct Accepted {
    modulus: u64,
    degree_bound: usize,
    /// The message's codeword, reduced, one symbol per point.
    codeword: Vec<u64>,
    message: Poly,
}

impl Clone for RsCode {
    /// A clone is the same code, with no accepted decode of its own.
    fn clone(&self) -> Self {
        RsCode { domain: self.domain.clone(), accepted: Mutex::default() }
    }
}

/// The set `D ⊇ points` a code evaluates and interpolates over (see the
/// crate docs).
#[derive(Clone, Debug)]
enum Domain {
    /// The orbit of a [`RsCode::roots_of_unity`] code, shared by every
    /// code of its `(q, e)`.
    Orbit(Arc<Orbit>),
    /// The code's own points, shared by every [`RsCode::consecutive`]
    /// code of its `(q, e)`.
    Points(Arc<PointSet>),
}

/// A code's own points: `G0` is their vanishing polynomial, and the
/// code evaluates by Horner per point and interpolates by Newton's
/// divided differences.
#[derive(Debug, PartialEq, Eq)]
struct PointSet {
    points: Vec<u64>,
    /// `G_0(x) = Π_i (x - x_i)`, precomputed for decoding.
    g0: Poly,
}

impl PointSet {
    /// `points` with their vanishing polynomial.
    fn new(field: &PrimeField, points: Vec<u64>) -> Self {
        PointSet { g0: vanishing_poly(field, &points), points }
    }
}

/// The orbit `ω^0, …, ω^{2^k-1}` of a [`RsCode::roots_of_unity`] code,
/// whose points are its first `e` elements: evaluation and
/// interpolation are one transform of `plan`. Everything here follows
/// from `(q, e)` alone, so [`ORBITS`] builds it once per pair.
#[derive(Debug)]
struct Orbit {
    plan: Arc<NttPlan>,
    /// `ω^0, …, ω^{e-1}`.
    points: Vec<u64>,
    /// `x^{2^k} − 1`, on which the whole orbit vanishes.
    g0: Poly,
    /// `Π_{j>=e} (ω^i - ω^j)` per orbit index `i` — the values of the
    /// locator of the tail no symbol is ever received for. `None` when
    /// `e` fills the orbit.
    tail: Option<Vec<u64>>,
    /// Where the final division runs.
    coset: Coset,
}

impl Orbit {
    /// The orbit domain of a length-`e` code over `field`, or `None`
    /// when the modulus has no root of unity of order `2^k >= e`.
    fn build(field: &PrimeField, e: usize) -> Option<Self> {
        let k = e.next_power_of_two().trailing_zeros();
        let plan = cached_ntt_plan(field, k)?;
        let n = plan.len();
        // The ω^i are distinct (ω has order 2^k >= e).
        let mut points = Vec::with_capacity(n);
        let mut x = 1u64;
        for _ in 0..n {
            points.push(x);
            x = field.mul(x, plan.root());
        }
        let tail_locator = (e < n).then(|| vanishing_poly(field, &points[e..]));
        let coset = Coset::new(field, &plan, tail_locator.as_ref());
        let tail = tail_locator.map(|locator| {
            let mut values = locator.into_coeffs();
            values.resize(n, 0);
            plan.forward(&mut values);
            values
        });
        points.truncate(e);
        points.shrink_to_fit();
        let g0 = Poly::monomial(1, n).sub(field, &Poly::constant(1));
        Some(Orbit { plan, points, g0, tail, coset })
    }
}

/// Bound on each domain cache. A run touches one `(q, e)` per prime
/// and a daemon a handful of request shapes, so this is generous. An
/// orbit entry holds five tables of `N = 2^k` words and the `e`
/// points, at most 48 B per orbit point — about 0.2 MB at `N = 4096` —
/// and shares its twiddle tables with [`cached_ntt_plan`]; a
/// consecutive entry holds 16 B per point.
const DOMAIN_CACHE_CAPACITY: usize = 8;

/// The process-wide orbit domains: every [`RsCode::roots_of_unity`]
/// code of one `(q, e)` shares one [`Orbit`].
static ORBITS: DomainCache<Orbit> = DomainCache::new();

/// The process-wide points `0, …, e − 1` and their `G0`: every
/// [`RsCode::consecutive`] code of one `(q, e)` shares one [`PointSet`].
static CONSECUTIVE: DomainCache<PointSet> = DomainCache::new();

/// A bounded map from `(q, e)` to a domain.
struct DomainCache<T>(Mutex<Vec<Entry<T>>>);

/// One cached domain with its `(q, e)`.
type Entry<T> = ((u64, usize), Arc<T>);

impl<T> DomainCache<T> {
    const fn new() -> Self {
        DomainCache(Mutex::new(Vec::new()))
    }

    /// The domain of `(q, e)`, built by `build` on a miss. The build runs
    /// unlocked; two racing builders make bit-identical domains, and
    /// the later one takes the entry the earlier one inserted.
    fn get(&self, key: (u64, usize), build: impl FnOnce() -> Option<T>) -> Option<Arc<T>> {
        let lookup = |entries: &[Entry<T>]| {
            entries.iter().find(|(k, _)| *k == key).map(|(_, domain)| Arc::clone(domain))
        };
        if let Some(domain) = lookup(&self.lock()) {
            return Some(domain);
        }
        let built = Arc::new(build()?);
        let mut entries = self.lock();
        if let Some(domain) = lookup(&entries) {
            return Some(domain);
        }
        if entries.len() >= DOMAIN_CACHE_CAPACITY {
            // A wholesale reset, as the plan cache does: reaching the
            // bound at all means the process churns through shapes.
            entries.clear();
        }
        entries.push((key, Arc::clone(&built)));
        Some(built)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Entry<T>>> {
        self.0.lock().expect("domain cache poisoned")
    }
}

/// The coset `c·⟨ω⟩` of an orbit, for `c` the first of `2, 3, …` with
/// `c^{2^k} ≠ 1`: it shares no element with the orbit, so no root of the
/// tail's or the erased symbols' locator lies on it.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Coset {
    /// `c^i` for `i < 2^k`: coefficient `i` scaled by it, a forward NTT
    /// evaluates at `c·ω^j`.
    powers: Vec<u64>,
    /// `c^{-i}`, undoing that scaling after an inverse NTT.
    inv_powers: Vec<u64>,
    /// The tail locator's values on the coset, `None` when `e` fills the
    /// orbit.
    tail: Option<Vec<u64>>,
}

impl Coset {
    /// The coset of `plan`'s orbit, with the values on it of the tail's
    /// locator when there is one.
    fn new(field: &PrimeField, plan: &NttPlan, tail: Option<&Poly>) -> Self {
        let n = plan.len();
        // When 2^k = q - 1 the orbit is the whole group and no such `c`
        // exists; `c = 1` then makes the coset the orbit itself, where
        // every divisor with a root on it takes the Newton fallback.
        let c = if n as u64 == field.modulus() - 1 {
            1
        } else {
            (2..).find(|&c| field.pow(c, n as u64) != 1).expect("2^k < q - 1")
        };
        let powers_of = |base: u64| {
            std::iter::successors(Some(1), |&x| Some(field.mul(x, base))).take(n).collect()
        };
        let mut coset =
            Coset { powers: powers_of(c), inv_powers: powers_of(field.inv(c)), tail: None };
        coset.tail = tail.map(|locator| coset.evaluate(field, plan, locator));
        coset
    }

    /// `poly` (of degree below `2^k`) at `c·ω^j` for every `j`.
    fn evaluate(&self, field: &PrimeField, plan: &NttPlan, poly: &Poly) -> Vec<u64> {
        let mut values = poly.coeffs().to_vec();
        let len = values.len();
        field.mul_slice(&mut values, &self.powers[..len]);
        values.resize(plan.len(), 0);
        plan.forward(&mut values);
        values
    }

    /// The polynomial of degree below `2^k` taking `values` at the
    /// `c·ω^j`.
    fn interpolate(&self, field: &PrimeField, plan: &NttPlan, mut values: Vec<u64>) -> Poly {
        plan.inverse(&mut values);
        field.mul_slice(&mut values, &self.inv_powers);
        Poly::from_reduced(values)
    }
}

/// The locator `Λ` of one decode's absent positions.
struct Locator {
    /// `Λ(t)` per domain element `t`: zero exactly at the absent ones.
    values: Vec<u64>,
    /// The erased symbols' factor `Π (x - x_i)` of `Λ` — all of it,
    /// except on a partial orbit.
    erased: Poly,
}

impl PartialEq for RsCode {
    fn eq(&self, other: &Self) -> bool {
        // `g0` and the domain are derived from the points and the kind
        // of code; the accepted decode changes no result.
        self.points() == other.points()
            && std::mem::discriminant(&self.domain) == std::mem::discriminant(&other.domain)
    }
}

impl Eq for RsCode {}

/// Successful decode: the recovered message polynomial and the identified
/// corruption pattern.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Decoded {
    /// The recovered message polynomial (degree `<= degree_bound`).
    pub poly: Poly,
    /// Positions (indices into the code's point list) whose received
    /// symbol disagreed with the decoded codeword — the byzantine nodes'
    /// contributions.
    pub error_positions: Vec<usize>,
    /// Positions that were erased (crashed nodes); informational.
    pub erasure_positions: Vec<usize>,
}

/// Per-phase wall-clock breakdown of one [`RsCode::decode_profiled`]
/// call, for attributing round time to algebra phases (the engine's
/// `RunReport` aggregates these across deciding nodes).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DecodeProfile {
    /// Syndrome interpolation (zero for a certified decode): the
    /// locator of the absent positions, its values over the domain, and
    /// one domain interpolation of the received values scaled by them
    /// (with nothing absent, just the interpolation).
    pub interpolate: Duration,
    /// The partial extended Euclid on `(G0, Λ·G1)` — structured half-GCD
    /// past the crossover (zero for a certified decode).
    pub xgcd: Duration,
    /// Root finding: dividing the message out of `g'` by `v·Λ` —
    /// pointwise on the coset for an orbit code, by Newton on points —
    /// and re-encoding it to identify the error positions (skipped when
    /// the Euclid made no step: the message is then the survivors' own
    /// interpolant and no position can disagree with it). Also the
    /// comparison with the code's accepted codeword that opens every
    /// decode, and all of a decode that comparison certifies: the error
    /// positions are then located without Gao's algorithm, and the
    /// other two phases read zero.
    pub reencode: Duration,
}

impl DecodeProfile {
    /// Sum of the tracked phases (slightly under the caller's wall
    /// clock — symbol marshalling is untimed).
    #[must_use]
    pub fn total(&self) -> Duration {
        self.interpolate + self.xgcd + self.reencode
    }
}

/// Decoding failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Fewer than `degree_bound + 1` symbols were received.
    TooFewSymbols {
        /// Number of non-erased symbols available.
        received: usize,
        /// Number of symbols needed to pin down the message.
        needed: usize,
    },
    /// The Gao decoder asserted failure: the received word is further from
    /// every codeword than the unique-decoding radius.
    BeyondRadius,
    /// The received word length did not match the code length.
    LengthMismatch {
        /// Symbols supplied by the caller.
        got: usize,
        /// Code length `e`.
        expected: usize,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::TooFewSymbols { received, needed } => {
                write!(f, "too few symbols: received {received}, need {needed}")
            }
            DecodeError::BeyondRadius => {
                write!(f, "received word is beyond the unique-decoding radius")
            }
            DecodeError::LengthMismatch { got, expected } => {
                write!(f, "received word has {got} symbols, code length is {expected}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

impl RsCode {
    /// Code over the consecutive points `0, 1, ..., e-1` — the evaluation
    /// schedule (1) of the paper. Encoding is Horner per point and every
    /// decode interpolates by Newton, both `O(e²)`; the engine's codes
    /// are [`RsCode::roots_of_unity`] codes. Every code of one `(q, e)`
    /// shares the points and `G0` the first such call built.
    ///
    /// # Panics
    ///
    /// Panics if `e > q` (points must be distinct field elements) or
    /// `e == 0`.
    #[must_use]
    pub fn consecutive(field: &PrimeField, e: usize) -> Self {
        assert!(e > 0, "code length must be positive");
        assert!(
            u64::try_from(e).is_ok_and(|e| e <= field.modulus()),
            "code length exceeds field size"
        );
        let points = CONSECUTIVE
            .get((field.modulus(), e), || Some(PointSet::new(field, (0..e as u64).collect())));
        let points = points.expect("consecutive points always build");
        RsCode { domain: Domain::Points(points), accepted: Mutex::default() }
    }

    /// Code over caller-chosen distinct points.
    ///
    /// # Panics
    ///
    /// Panics if the list is empty; repeated points are caught in debug
    /// builds.
    #[must_use]
    pub fn with_points(field: &PrimeField, points: Vec<u64>) -> Self {
        assert!(!points.is_empty(), "code needs at least one point");
        debug_assert!(
            {
                let mut s = points.clone();
                s.sort_unstable();
                s.windows(2).all(|w| w[0] != w[1])
            },
            "evaluation points must be distinct"
        );
        let points = Arc::new(PointSet::new(field, points));
        RsCode { domain: Domain::Points(points), accepted: Mutex::default() }
    }

    /// Code over the first `e` powers `ω^0, …, ω^{e-1}` of a primitive
    /// `2^k`-th root of unity `ω`, with `2^k` the smallest power of two
    /// `>= e` — the accelerated point schedule of the engine's
    /// NTT-friendly prime mode. Encoding is a single forward transform
    /// (`O(e log e)`) and every decode interpolates with a single
    /// inverse one: the code's domain is the whole orbit, and when `e`
    /// falls short of `2^k` the unused tail counts as erased.
    ///
    /// Every code of one `(q, e)` shares the domain the first such call
    /// in the process built, and starts with no accepted decode of its
    /// own (see the crate docs).
    ///
    /// Returns `None` when the modulus has no root of the required order
    /// (`2^k` must divide `q - 1`).
    ///
    /// # Panics
    ///
    /// Panics if `e == 0`.
    #[must_use]
    pub fn roots_of_unity(field: &PrimeField, e: usize) -> Option<Self> {
        assert!(e > 0, "code length must be positive");
        let orbit = ORBITS.get((field.modulus(), e), || Orbit::build(field, e))?;
        Some(RsCode { domain: Domain::Orbit(orbit), accepted: Mutex::default() })
    }

    /// Code length `e`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points().len()
    }

    /// True if the code has no points (never constructible; kept for API
    /// completeness alongside [`RsCode::len`]).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points().is_empty()
    }

    /// The evaluation points.
    #[must_use]
    pub fn points(&self) -> &[u64] {
        match &self.domain {
            Domain::Orbit(orbit) => &orbit.points,
            Domain::Points(set) => &set.points,
        }
    }

    /// `G_0(x) = Π_{t∈D} (x - t)` over the whole domain.
    fn g0(&self) -> &Poly {
        match &self.domain {
            Domain::Orbit(orbit) => &orbit.g0,
            Domain::Points(set) => &set.g0,
        }
    }

    /// Maximum number of symbol errors correctable when all `e` symbols
    /// arrive, for messages of degree `<= degree_bound`:
    /// `(e - d - 1) / 2`.
    #[must_use]
    pub fn correction_radius(&self, degree_bound: usize) -> usize {
        self.len().saturating_sub(degree_bound + 1) / 2
    }

    /// `poly` (of degree below the domain size) at every domain element:
    /// one forward NTT on an orbit, Horner per point otherwise.
    fn evaluate_domain(&self, field: &PrimeField, poly: &Poly) -> Vec<u64> {
        match &self.domain {
            Domain::Orbit(orbit) => {
                let mut values = poly.coeffs().to_vec();
                values.resize(orbit.plan.len(), 0);
                orbit.plan.forward(&mut values);
                values
            }
            Domain::Points(set) => eval_many(field, poly, &set.points),
        }
    }

    /// The polynomial of degree below the domain size taking `values`
    /// (reduced, one per domain element): one inverse NTT on an orbit,
    /// Newton's [`interpolate`] otherwise.
    fn interpolate_domain(&self, field: &PrimeField, mut values: Vec<u64>) -> Poly {
        match &self.domain {
            Domain::Orbit(orbit) => {
                orbit.plan.inverse(&mut values);
                Poly::from_reduced(values)
            }
            Domain::Points(set) => {
                let pairs: Vec<(u64, u64)> = set.points.iter().copied().zip(values).collect();
                interpolate(field, &pairs)
            }
        }
    }

    /// The locator of the absent positions — the erased symbols and, on
    /// a partial orbit, the tail — or `None` when there are none
    /// (`Λ = 1`).
    fn locator(&self, field: &PrimeField, erased: &[usize]) -> Option<Locator> {
        let tail = match &self.domain {
            Domain::Orbit(orbit) => orbit.tail.as_ref(),
            Domain::Points(_) => None,
        };
        if erased.is_empty() {
            return tail.map(|t| Locator { values: t.clone(), erased: Poly::constant(1) });
        }
        let roots: Vec<u64> = erased.iter().map(|&i| self.points()[i]).collect();
        let poly = vanishing_poly(field, &roots);
        let mut values = self.evaluate_domain(field, &poly);
        if let Some(t) = tail {
            field.mul_slice(&mut values, t);
        }
        Some(Locator { values, erased: poly })
    }

    /// `v·Λ`. On an orbit the product has degree below `2^k` — `deg v` is
    /// at most the degree the remainder sequence dropped from `G0` — so
    /// it is the interpolant of its own values, one more pointwise
    /// product with `Λ`'s; elsewhere `Λ` is the erased symbols' factor.
    fn times_locator(&self, field: &PrimeField, v: Poly, locator: Option<&Locator>) -> Poly {
        match (locator, &self.domain) {
            (None, _) => v,
            (Some(locator), Domain::Orbit(_)) => {
                let mut values = self.evaluate_domain(field, &v);
                field.mul_slice(&mut values, &locator.values);
                self.interpolate_domain(field, values)
            }
            (Some(locator), Domain::Points(_)) => v.mul(field, &locator.erased),
        }
    }

    /// `g / (v·Λ)` when `v·Λ` divides `g`, `None` when it does not — the
    /// quotient and the zero-remainder test of
    /// `div_rem_fast(g, v·Λ)`: pointwise on an orbit's coset when that
    /// decides, by Newton otherwise.
    fn divide(
        &self,
        field: &PrimeField,
        g: &Poly,
        v: Poly,
        locator: Option<&Locator>,
    ) -> Option<Poly> {
        self.divide_on_coset(field, g, &v, locator).unwrap_or_else(|| {
            let (p, r) = div_rem_fast(field, g, &self.times_locator(field, v, locator));
            r.is_zero().then_some(p)
        })
    }

    /// [`RsCode::divide`] on an orbit code, for `deg g < 2^k` and
    /// `v ≠ 0`, or `None` when the coset cannot decide: on a code on
    /// points, or when `v` has a root on the coset.
    ///
    /// `D = v·Λ` has degree `deg v + |A|`. Let `P*` be the polynomial of
    /// degree below `2^k` taking `g/D` at every coset element `c·ω^j`
    /// (none is a root of `D`). Then `P*·D ≡ g` modulo `x^{2^k} − c^{2^k}`,
    /// the coset's vanishing polynomial, so `D | g` exactly when
    /// `deg P* ≤ deg g − deg D`, and `P*` is then the quotient. Every
    /// root of `Λ` is on the orbit, and so is every root of a `v` that
    /// locates errors within the radius, so only a word beyond it can
    /// put a zero among `D`'s coset values.
    fn divide_on_coset(
        &self,
        field: &PrimeField,
        g: &Poly,
        v: &Poly,
        locator: Option<&Locator>,
    ) -> Option<Option<Poly>> {
        let Domain::Orbit(orbit) = &self.domain else { return None };
        let Orbit { plan, coset, points, .. } = &**orbit;
        let erased = locator.map(|l| &l.erased).filter(|erased| erased.degree() > Some(0));
        let absent = plan.len() - points.len() + erased.and_then(Poly::degree).unwrap_or(0);
        let divisor_degree = v.degree().expect("a nonzero cofactor") + absent;
        let Some(dg) = g.degree() else { return Some(Some(Poly::zero())) };
        if divisor_degree > dg {
            return Some(None);
        }
        // Every factor has degree at most deg g < 2^k.
        let mut divisor = coset.evaluate(field, plan, v);
        if let Some(erased) = erased {
            field.mul_slice(&mut divisor, &coset.evaluate(field, plan, erased));
        }
        if let Some(tail) = &coset.tail {
            field.mul_slice(&mut divisor, tail);
        }
        if divisor.contains(&0) {
            return None;
        }
        field.inv_batch_blocked(&mut divisor);
        let mut values = coset.evaluate(field, plan, g);
        field.mul_slice(&mut values, &divisor);
        let p = coset.interpolate(field, plan, values);
        Some(p.degree().is_some_and(|dp| dp <= dg - divisor_degree).then_some(p))
    }

    /// Encodes a message polynomial into the codeword
    /// `(P(x_1), ..., P(x_e))`.
    ///
    /// For a [`RsCode::roots_of_unity`] code this is one forward NTT of
    /// the zero-padded coefficients (`O(e log e)`); otherwise Horner per
    /// point (`O(d·e)`). The output is bit-identical either way.
    ///
    /// # Panics
    ///
    /// Panics if `deg P >= e` (such a message is not uniquely decodable).
    #[must_use]
    pub fn encode(&self, field: &PrimeField, message: &Poly) -> Vec<u64> {
        assert!(
            message.degree().is_none_or(|d| d < self.len()),
            "message degree must be below the code length"
        );
        let mut values = self.evaluate_domain(field, message);
        values.truncate(self.len());
        values
    }

    /// Decodes a received word. `None` entries are erasures (symbols never
    /// received, e.g. from crashed nodes); `Some` entries may be corrupted.
    ///
    /// Succeeds whenever the number of *errors* among the `e'` received
    /// symbols is at most `(e' - degree_bound - 1) / 2` (Gao's unique
    /// decoding bound on the code over the surviving points).
    ///
    /// # Errors
    ///
    /// [`DecodeError::LengthMismatch`] for a wrong-size word,
    /// [`DecodeError::TooFewSymbols`] if fewer than `degree_bound + 1`
    /// symbols survive, [`DecodeError::BeyondRadius`] if Gao's algorithm
    /// asserts failure. An `Ok` lies within `(e' - degree_bound - 1) / 2`
    /// of the received symbols: the decoder checks that it does.
    pub fn decode(
        &self,
        field: &PrimeField,
        received: &[Option<u64>],
        degree_bound: usize,
    ) -> Result<Decoded, DecodeError> {
        self.decode_profiled(field, received, degree_bound).map(|(decoded, _)| decoded)
    }

    /// [`RsCode::decode`] with a per-phase wall-clock breakdown
    /// alongside the result — same output, same errors; the profile is
    /// what the engine's `RunReport` aggregates to attribute round time
    /// to decode phases vs transport.
    ///
    /// # Errors
    ///
    /// Exactly those of [`RsCode::decode`].
    pub fn decode_profiled(
        &self,
        field: &PrimeField,
        received: &[Option<u64>],
        degree_bound: usize,
    ) -> Result<(Decoded, DecodeProfile), DecodeError> {
        let mut profile = DecodeProfile::default();
        let e = self.len();
        if received.len() != e {
            return Err(DecodeError::LengthMismatch { got: received.len(), expected: e });
        }
        // The received word with zeros at the erasures, reduced in one
        // bulk Barrett pass — bit-identical to `field.reduce` per symbol.
        let mut word: Vec<u64> = received.iter().map(|sym| sym.unwrap_or(0)).collect();
        field.reduce_slice(&mut word);
        let erasure_positions: Vec<usize> = (0..e).filter(|&i| received[i].is_none()).collect();
        let e_prime = e - erasure_positions.len();
        if e_prime < degree_bound + 1 {
            return Err(DecodeError::TooFewSymbols { received: e_prime, needed: degree_bound + 1 });
        }
        let radius = (e_prime - degree_bound - 1) / 2;
        // Within the survivors' radius of the accepted codeword, Gao
        // would return its message.
        let certify_start = Instant::now();
        let certified = self.certify(field, received, &word, radius, degree_bound);
        profile.reencode = certify_start.elapsed();
        if let Some((poly, error_positions)) = certified {
            return Ok((Decoded { poly, error_positions, erasure_positions }, profile));
        }
        // h = Λ·G1: the interpolant over the whole domain of the received
        // values scaled by Λ's (zero at every absent position).
        let interp_start = Instant::now();
        let n = self.g0().coeffs().len() - 1; // |D| = deg G0
        let locator = self.locator(field, &erasure_positions);
        let mut scaled = word.clone();
        scaled.resize(n, 0);
        if let Some(locator) = &locator {
            field.mul_slice(&mut scaled, &locator.values);
        }
        let h = self.interpolate_domain(field, scaled);
        profile.interpolate = interp_start.elapsed();
        if h.is_zero() {
            // All received symbols are zero: the unique closest codeword is
            // the zero polynomial (the Euclid below would divide by v = 0).
            let decoded =
                Decoded { poly: Poly::zero(), error_positions: Vec::new(), erasure_positions };
            return Ok((decoded, profile));
        }
        // Partial extended Euclid, stopping when deg g < (e' + d + 1)/2 —
        // |A| higher here, every remainder carrying the factor Λ — by the
        // structured half-GCD past the crossover operand length.
        let stop = (e_prime + degree_bound + 2) / 2 + (n - e_prime); // ceil((e'+d+1)/2) + |A|
        let xgcd_start = Instant::now();
        let (_, v, g) = self.g0().partial_xgcd_fast(field, &h, stop);
        profile.xgcd = xgcd_start.elapsed();
        if v.is_zero() {
            return Err(DecodeError::BeyondRadius);
        }
        let reencode_start = Instant::now();
        let nothing_located = v.degree() == Some(0);
        let p = self
            .divide(field, &g, v, locator.as_ref())
            .filter(|p| p.degree().is_none_or(|d| d <= degree_bound))
            .ok_or(DecodeError::BeyondRadius)?;
        // Unless the Euclid made no step, which leaves nothing to find.
        // Its first quotient G0 div h has degree >= 1 (deg G0 > deg h) and
        // cofactor degrees only grow, so a constant v is the initial
        // cofactor 1 beside g' = h. Then p = g'/(v·Λ) = h/Λ = G1, the
        // survivors' own interpolant: it takes every received symbol by
        // construction, and the checks above have bounded its degree.
        // With no erasure the received word is then its whole codeword.
        let error_positions = if nothing_located {
            debug_assert!(
                mismatches(received, &word, &self.encode(field, &p), 0).is_some(),
                "a constant cofactor located an error"
            );
            if erasure_positions.is_empty() {
                self.accept(field, degree_bound, word, &p);
            }
            Vec::new()
        } else {
            // Identify error locations by re-encoding the decoded message
            // (one NTT for a roots-of-unity code, multipoint evaluation
            // otherwise) and comparing with the reduced received symbols.
            // They are roots of `v`, whose degree the stop bounds by the
            // radius, so Gao's output is never farther away: one that is
            // is refused here, whatever the Euclid did.
            let codeword = self.encode(field, &p);
            let located =
                mismatches(received, &word, &codeword, radius).ok_or(DecodeError::BeyondRadius)?;
            self.accept(field, degree_bound, codeword, &p);
            located
        };
        profile.reencode += reencode_start.elapsed();
        Ok((Decoded { poly: p, error_positions, erasure_positions }, profile))
    }

    /// The accepted decode's message and the received positions that
    /// disagree with its codeword, when the key matches and the view is
    /// within the survivors' radius `(e' - d - 1) / 2` of it: the one
    /// codeword of degree `<= degree_bound` so near, which Gao's
    /// algorithm returns. `None` sends the decode to Gao.
    fn certify(
        &self,
        field: &PrimeField,
        received: &[Option<u64>],
        word: &[u64],
        radius: usize,
        degree_bound: usize,
    ) -> Option<(Poly, Vec<usize>)> {
        let accepted = self.accepted.lock().expect("accepted-decode lock poisoned").clone()?;
        if accepted.modulus != field.modulus() || accepted.degree_bound != degree_bound {
            return None;
        }
        let errors = mismatches(received, word, &accepted.codeword, radius)?;
        Some((accepted.message.clone(), errors))
    }

    /// Makes `message`, with its `codeword`, the decode later views are
    /// certified against.
    fn accept(&self, field: &PrimeField, degree_bound: usize, codeword: Vec<u64>, message: &Poly) {
        let accepted =
            Accepted { modulus: field.modulus(), degree_bound, codeword, message: message.clone() };
        *self.accepted.lock().expect("accepted-decode lock poisoned") = Some(Arc::new(accepted));
    }
}

/// The received positions whose reduced symbol in `word` differs from
/// `codeword`, in order, or `None` as soon as there are more than
/// `limit`.
fn mismatches(
    received: &[Option<u64>],
    word: &[u64],
    codeword: &[u64],
    limit: usize,
) -> Option<Vec<usize>> {
    let mut positions = Vec::new();
    for (i, ((sym, y), c)) in received.iter().zip(word).zip(codeword).enumerate() {
        if sym.is_some() && y != c {
            if positions.len() == limit {
                return None;
            }
            positions.push(i);
        }
    }
    Some(positions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use camelot_ff::{RngLike, SplitMix64};

    fn f() -> PrimeField {
        PrimeField::new(1_000_000_007).unwrap()
    }

    fn random_message(field: &PrimeField, d: usize, rng: &mut SplitMix64) -> Poly {
        Poly::from_reduced(
            (0..=d)
                .map(|i| {
                    if i == d {
                        1 + rng.next_u64() % (field.modulus() - 1)
                    } else {
                        rng.next_u64() % field.modulus()
                    }
                })
                .collect(),
        )
    }

    #[test]
    fn encode_then_decode_clean() {
        let field = f();
        let mut rng = SplitMix64::new(1);
        let msg = random_message(&field, 6, &mut rng);
        let code = RsCode::consecutive(&field, 20);
        let word: Vec<Option<u64>> = code.encode(&field, &msg).into_iter().map(Some).collect();
        let out = code.decode(&field, &word, 6).unwrap();
        assert_eq!(out.poly, msg);
        assert!(out.error_positions.is_empty());
        assert!(out.erasure_positions.is_empty());
    }

    #[test]
    fn corrects_up_to_radius_and_identifies_errors() {
        let field = f();
        let mut rng = SplitMix64::new(2);
        let d = 5;
        let e = 24;
        let code = RsCode::consecutive(&field, e);
        let radius = code.correction_radius(d);
        assert_eq!(radius, (e - d - 1) / 2);
        let msg = random_message(&field, d, &mut rng);
        let clean = code.encode(&field, &msg);
        for errors in 0..=radius {
            let mut word: Vec<Option<u64>> = clean.iter().copied().map(Some).collect();
            let mut expected = Vec::new();
            for k in 0..errors {
                let pos = (k * 5 + 1) % e;
                word[pos] = Some(field.add(clean[pos], 1 + k as u64));
                expected.push(pos);
            }
            expected.sort_unstable();
            expected.dedup();
            let out = code.decode(&field, &word, d).unwrap();
            assert_eq!(out.poly, msg, "errors = {errors}");
            assert_eq!(out.error_positions, expected);
        }
    }

    #[test]
    fn fails_beyond_radius() {
        let field = f();
        let mut rng = SplitMix64::new(3);
        let d = 4;
        let e = 13;
        let code = RsCode::consecutive(&field, e);
        let radius = code.correction_radius(d); // 4
        let msg = random_message(&field, d, &mut rng);
        let clean = code.encode(&field, &msg);
        let mut word: Vec<Option<u64>> = clean.iter().copied().map(Some).collect();
        for pos in 0..radius + 2 {
            word[pos] = Some(field.add(clean[pos], 7));
        }
        match code.decode(&field, &word, d) {
            Err(DecodeError::BeyondRadius) => {}
            Ok(out) => assert_ne!(out.poly, msg, "if it decodes at all, it must miscorrect"),
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn erasures_reduce_but_do_not_break_decoding() {
        let field = f();
        let mut rng = SplitMix64::new(4);
        let d = 5;
        let e = 30;
        let code = RsCode::consecutive(&field, e);
        let msg = random_message(&field, d, &mut rng);
        let clean = code.encode(&field, &msg);
        let mut word: Vec<Option<u64>> = clean.iter().copied().map(Some).collect();
        // 8 crashes + 5 corruptions: e' = 22, radius (22-6)/2 = 8 >= 5.
        for pos in [0, 3, 6, 9, 12, 15, 18, 21] {
            word[pos] = None;
        }
        for pos in [1, 4, 7, 10, 13] {
            word[pos] = Some(field.add(clean[pos], 99));
        }
        let out = code.decode(&field, &word, d).unwrap();
        assert_eq!(out.poly, msg);
        assert_eq!(out.error_positions, vec![1, 4, 7, 10, 13]);
        assert_eq!(out.erasure_positions, vec![0, 3, 6, 9, 12, 15, 18, 21]);
    }

    #[test]
    fn too_few_symbols_is_reported() {
        let field = f();
        let code = RsCode::consecutive(&field, 8);
        let word: Vec<Option<u64>> = (0..8).map(|i| if i < 3 { Some(1) } else { None }).collect();
        assert_eq!(
            code.decode(&field, &word, 5),
            Err(DecodeError::TooFewSymbols { received: 3, needed: 6 })
        );
    }

    #[test]
    fn length_mismatch_is_reported() {
        let field = f();
        let code = RsCode::consecutive(&field, 8);
        assert_eq!(
            code.decode(&field, &[Some(1); 7], 2),
            Err(DecodeError::LengthMismatch { got: 7, expected: 8 })
        );
    }

    #[test]
    fn arbitrary_points_roundtrip() {
        let field = f();
        let mut rng = SplitMix64::new(5);
        let mut pts = std::collections::BTreeSet::new();
        while pts.len() < 16 {
            pts.insert(field.sample(&mut rng));
        }
        let code = RsCode::with_points(&field, pts.into_iter().collect());
        let msg = random_message(&field, 7, &mut rng);
        let mut word: Vec<Option<u64>> = code.encode(&field, &msg).into_iter().map(Some).collect();
        word[2] = Some(0);
        word[11] = Some(1);
        let out = code.decode(&field, &word, 7).unwrap();
        assert_eq!(out.poly, msg);
        assert_eq!(out.error_positions.len(), 2);
    }

    #[test]
    fn zero_message_decodes() {
        let field = f();
        let code = RsCode::consecutive(&field, 9);
        let word: Vec<Option<u64>> = vec![Some(0); 9];
        let out = code.decode(&field, &word, 3).unwrap();
        assert!(out.poly.is_zero());
    }

    /// `encode` must equal the Horner-per-point oracle on both sides of
    /// the multipoint-evaluation crossover, for an NTT-friendly prime and
    /// for one with no two-adic structure.
    #[test]
    fn encode_matches_horner_oracle_across_crossover() {
        let (ntt_q, _) = camelot_ff::ntt_prime(1 << 20, 12);
        for q in [ntt_q, 1_000_000_007] {
            let field = PrimeField::new(q).unwrap();
            let mut rng = SplitMix64::new(8);
            for e in [8usize, 63, 64, 100, 600] {
                let code = RsCode::consecutive(&field, e);
                let msg = random_message(&field, e - 1, &mut rng);
                let horner: Vec<u64> = code.points().iter().map(|&x| msg.eval(&field, x)).collect();
                assert_eq!(code.encode(&field, &msg), horner, "e = {e}, q = {q}");
            }
        }
    }

    /// Large-code decode (fast interpolation + fast re-encoding check)
    /// still corrects errors and erasures and identifies them exactly.
    #[test]
    fn large_code_decode_corrects_and_identifies() {
        let (q, _) = camelot_ff::ntt_prime(1 << 20, 12);
        let field = PrimeField::new(q).unwrap();
        let mut rng = SplitMix64::new(9);
        let d = 127;
        let e = 300;
        let code = RsCode::consecutive(&field, e);
        let msg = random_message(&field, d, &mut rng);
        let clean = code.encode(&field, &msg);
        let mut word: Vec<Option<u64>> = clean.iter().copied().map(Some).collect();
        let mut expected_errors = std::collections::BTreeSet::new();
        let mut expected_erasures = std::collections::BTreeSet::new();
        // 40 erasures and 50 corruptions: e' = 260, radius (260-128)/2 = 66.
        while expected_erasures.len() < 40 {
            expected_erasures.insert((rng.next_u64() as usize) % e);
        }
        while expected_errors.len() < 50 {
            let pos = (rng.next_u64() as usize) % e;
            if !expected_erasures.contains(&pos) {
                expected_errors.insert(pos);
            }
        }
        for &pos in &expected_erasures {
            word[pos] = None;
        }
        for &pos in &expected_errors {
            word[pos] = Some(field.add(clean[pos], 1 + rng.next_u64() % 1000));
        }
        let out = code.decode(&field, &word, d).unwrap();
        assert_eq!(out.poly, msg);
        assert_eq!(out.error_positions, expected_errors.into_iter().collect::<Vec<_>>());
        assert_eq!(out.erasure_positions, expected_erasures.into_iter().collect::<Vec<_>>());
    }

    /// A roots-of-unity code's NTT encode must agree with the
    /// Horner-per-point oracle, for full and partial transform lengths.
    #[test]
    fn roots_of_unity_encode_matches_horner_oracle() {
        let (q, _) = camelot_ff::ntt_prime(1 << 20, 12);
        let field = PrimeField::new(q).unwrap();
        let mut rng = SplitMix64::new(10);
        for e in [16usize, 100, 256, 1000, 1024] {
            let code = RsCode::roots_of_unity(&field, e).expect("NTT-friendly prime");
            assert_eq!(code.len(), e);
            let msg = random_message(&field, e - 1, &mut rng);
            let horner: Vec<u64> = code.points().iter().map(|&x| msg.eval(&field, x)).collect();
            assert_eq!(code.encode(&field, &msg), horner, "e = {e}");
        }
        // An NTT-unfriendly modulus has no such code.
        let plain = PrimeField::new(1_000_000_007).unwrap();
        assert!(RsCode::roots_of_unity(&plain, 16).is_none());
    }

    /// Clean full-transform decode (single inverse NTT) and faulted
    /// decode (general path) both recover the message and the fault
    /// pattern on a roots-of-unity code.
    #[test]
    fn roots_of_unity_decode_roundtrips_and_identifies_faults() {
        let (q, _) = camelot_ff::ntt_prime(1 << 20, 12);
        let field = PrimeField::new(q).unwrap();
        let mut rng = SplitMix64::new(11);
        for e in [256usize, 300] {
            let d = 100;
            let code = RsCode::roots_of_unity(&field, e).expect("NTT-friendly prime");
            let msg = random_message(&field, d, &mut rng);
            let clean = code.encode(&field, &msg);
            // Clean word: exercises the inverse-NTT interpolation when
            // e == 256 fills the transform exactly.
            let word: Vec<Option<u64>> = clean.iter().copied().map(Some).collect();
            let out = code.decode(&field, &word, d).unwrap();
            assert_eq!(out.poly, msg, "clean decode, e = {e}");
            assert!(out.error_positions.is_empty());
            // Errors + erasures: the general subset path.
            let mut word: Vec<Option<u64>> = clean.iter().copied().map(Some).collect();
            word[3] = None;
            word[77] = None;
            word[10] = Some(field.add(clean[10], 5));
            word[200] = Some(field.add(clean[200], 9));
            let out = code.decode(&field, &word, d).unwrap();
            assert_eq!(out.poly, msg, "faulted decode, e = {e}");
            assert_eq!(out.error_positions, vec![10, 200]);
            assert_eq!(out.erasure_positions, vec![3, 77]);
        }
    }

    /// A code on general points keeps its last accepted decode: repeated
    /// encodes and decodes (the
    /// `decode_at_all_nodes` pattern — every deciding node decodes the
    /// same code, and the repeat is certified against the first) must
    /// return identical results on warm caches, equal to a fresh code's.
    #[test]
    fn cached_tree_is_stable_across_repeated_encode_decode() {
        let field = f();
        let mut rng = SplitMix64::new(12);
        let d = 40;
        let e = 200;
        let code = RsCode::consecutive(&field, e);
        let msg = random_message(&field, d, &mut rng);
        let clean = code.encode(&field, &msg);
        assert_eq!(code.encode(&field, &msg), clean, "second encode on warm cache");
        let fresh = RsCode::consecutive(&field, e);
        assert_eq!(fresh.encode(&field, &msg), clean);
        assert_eq!(code, fresh);

        let mut word: Vec<Option<u64>> = clean.iter().copied().map(Some).collect();
        word[7] = Some(field.add(clean[7], 3));
        word[100] = None;
        let first = code.decode(&field, &word, d).unwrap();
        let second = code.decode(&field, &word, d).unwrap();
        assert_eq!(first, second);
        assert_eq!(first.poly, msg);
        assert_eq!(first.error_positions, vec![7]);
        assert_eq!(first.erasure_positions, vec![100]);
    }

    /// Whatever state a code keeps changes no result: the first decode,
    /// a repeat certified against it, a fresh code and a cloned code
    /// must all produce identical results (a clone starts with no
    /// accepted decode), and a second erasure pattern on
    /// the same code decodes to the same message.
    #[test]
    fn erasure_decode_repeat_fresh_and_cloned_codes_agree() {
        let field = f();
        let mut rng = SplitMix64::new(13);
        let d = 60;
        let e = 400;
        let code = RsCode::consecutive(&field, e);
        let msg = random_message(&field, d, &mut rng);
        let clean = code.encode(&field, &msg);
        let mut word: Vec<Option<u64>> = clean.iter().copied().map(Some).collect();
        let erasures = [3usize, 31, 32, 100, 101, 250, 399];
        for &pos in &erasures {
            word[pos] = None;
        }
        for pos in [7usize, 77, 200] {
            word[pos] = Some(field.add(clean[pos], 5));
        }
        let first = code.decode(&field, &word, d).unwrap();
        let repeat = code.decode(&field, &word, d).unwrap();
        assert_eq!(first, repeat, "repeating a decode changed the result");
        assert_eq!(first.poly, msg);
        assert_eq!(first.error_positions, vec![7, 77, 200]);
        assert_eq!(first.erasure_positions, erasures.to_vec());
        let fresh = RsCode::consecutive(&field, e).decode(&field, &word, d).unwrap();
        assert_eq!(first, fresh, "used code diverged from a fresh one");
        let cloned = code.clone().decode(&field, &word, d).unwrap();
        assert_eq!(first, cloned, "cloned code diverged");
        // A second erasure pattern owes nothing to the first.
        let mut other: Vec<Option<u64>> = clean.iter().copied().map(Some).collect();
        for pos in [0usize, 1, 2] {
            other[pos] = None;
        }
        let out = code.decode(&field, &other, d).unwrap();
        assert_eq!(out.poly, msg);
        assert_eq!(out.erasure_positions, vec![0, 1, 2]);
    }

    /// On a roots-of-unity code erasure decodes run on transforms over
    /// the whole orbit, and first, certified repeat
    /// and fresh code agree — for a full and for a partial orbit.
    #[test]
    fn roots_of_unity_erasure_decode_repeat_and_fresh_code_agree() {
        let (q, _) = camelot_ff::ntt_prime(1 << 20, 12);
        let field = PrimeField::new(q).unwrap();
        let mut rng = SplitMix64::new(14);
        let d = 100;
        for e in [512usize, 400] {
            let code = RsCode::roots_of_unity(&field, e).expect("NTT-friendly prime");
            let msg = random_message(&field, d, &mut rng);
            let clean = code.encode(&field, &msg);
            let mut word: Vec<Option<u64>> = clean.iter().copied().map(Some).collect();
            for pos in [5usize, 64, 300] {
                word[pos] = None;
            }
            word[9] = Some(field.add(clean[9], 1));
            let first = code.decode(&field, &word, d).unwrap();
            let repeat = code.decode(&field, &word, d).unwrap();
            assert_eq!(first, repeat, "e = {e}");
            assert_eq!(first.poly, msg, "e = {e}");
            assert_eq!(first.error_positions, vec![9]);
            assert_eq!(first.erasure_positions, vec![5, 64, 300]);
            let fresh =
                RsCode::roots_of_unity(&field, e).unwrap().decode(&field, &word, d).unwrap();
            assert_eq!(first, fresh, "e = {e}");
        }
    }

    /// The definition as oracle: decoding `word` on `code` must equal —
    /// `Ok` and `Err` alike, positions mapped back — decoding the
    /// survivors' symbols on the code over the survivors' points.
    fn assert_decodes_like_the_survivors_code(
        field: &PrimeField,
        code: &RsCode,
        word: &[Option<u64>],
        d: usize,
        what: &str,
    ) {
        let survivors: Vec<usize> = (0..word.len()).filter(|&i| word[i].is_some()).collect();
        let erased: Vec<usize> = (0..word.len()).filter(|&i| word[i].is_none()).collect();
        let oracle_code =
            RsCode::with_points(field, survivors.iter().map(|&i| code.points()[i]).collect());
        let oracle_word: Vec<Option<u64>> = survivors.iter().map(|&i| word[i]).collect();
        let expected = oracle_code.decode(field, &oracle_word, d).map(|out| Decoded {
            poly: out.poly,
            error_positions: out.error_positions.iter().map(|&j| survivors[j]).collect(),
            erasure_positions: erased,
        });
        assert_eq!(code.decode(field, word, d), expected, "{what}");
    }

    /// The engine's modulus range: the first prime `≡ 1 mod 2^12` above
    /// `2^61`.
    fn word_field() -> PrimeField {
        PrimeField::new(camelot_ff::ntt_prime(1 << 61, 12).0).unwrap()
    }

    /// Every kind of code against the oracle above: consecutive points
    /// at three lengths, the longest past 2048, a full orbit and
    /// four partial ones, one of them over a word-sized prime, and a full
    /// and a partial orbit filling the group of `Z_257`; no erasure, one,
    /// a node's contiguous slice, and as many as leave `d + 1` symbols;
    /// errors at the radius, one past it, and far past it. The oracle's
    /// code is on points, so it divides by Newton: the orbits' coset
    /// division is held to it on both sides of the radius.
    #[test]
    fn decode_equals_decoding_the_survivors_on_their_own_code() {
        let plain = f();
        let (q, _) = camelot_ff::ntt_prime(1 << 20, 12);
        let ntt = PrimeField::new(q).unwrap();
        let word = word_field();
        let fermat = PrimeField::new(257).unwrap();
        let roots = |e: usize| RsCode::roots_of_unity(&ntt, e).expect("NTT-friendly prime");
        let codes = [
            ("consecutive", plain, RsCode::consecutive(&plain, 30)),
            ("consecutive", plain, RsCode::consecutive(&plain, 200)),
            ("consecutive", ntt, RsCode::consecutive(&ntt, 2049)),
            ("orbit", ntt, roots(256)),
            ("orbit", ntt, roots(255)), // 2^k - 1
            ("orbit", ntt, roots(129)), // 2^(k-1) + 1
            ("orbit", ntt, roots(160)), // 5/8 of the orbit, the end-to-end benchmark's shape
            ("word-prime orbit", word, RsCode::roots_of_unity(&word, 160).unwrap()),
            // 2^8 = q - 1: no coset off the orbit.
            ("Fermat orbit", fermat, RsCode::roots_of_unity(&fermat, 256).unwrap()),
            ("Fermat orbit", fermat, RsCode::roots_of_unity(&fermat, 160).unwrap()),
        ];
        let mut rng = SplitMix64::new(16);
        for (kind, field, code) in &codes {
            let e = code.len();
            let d = e / 2;
            let msg = random_message(field, d, &mut rng);
            let clean = code.encode(field, &msg);
            let mut shuffled: Vec<usize> = (0..e).collect();
            for i in (1..e).rev() {
                shuffled.swap(i, (rng.next_u64() as usize) % (i + 1));
            }
            let erasure_sets = [
                Vec::new(),
                vec![shuffled[0]],
                (e / 3..e / 3 + e / 16).collect(),
                shuffled[..e - d - 1].to_vec(),
            ];
            for erased in &erasure_sets {
                let survivors: Vec<usize> =
                    shuffled.iter().copied().filter(|i| !erased.contains(i)).collect();
                let radius = (survivors.len() - d - 1) / 2;
                let far = (radius + survivors.len()) / 2 + 1;
                for errors in [radius, radius + 1, far] {
                    let mut word: Vec<Option<u64>> = clean.iter().copied().map(Some).collect();
                    for &pos in erased {
                        word[pos] = None;
                    }
                    for &pos in &survivors[..errors] {
                        let shift = 1 + rng.next_u64() % 1000.min(field.modulus() - 1);
                        word[pos] = Some(field.add(clean[pos], shift));
                    }
                    let what = format!(
                        "{kind} e = {e}: {} erased, {errors} errors (radius {radius})",
                        erased.len()
                    );
                    assert_decodes_like_the_survivors_code(field, code, &word, d, &what);
                }
            }
        }
    }

    /// `RsCode::divide` on an orbit against Newton's division by
    /// `v·Λ`: the same quotient exactly when the remainder is zero, for
    /// exact multiples, non-multiples, `g = 0`, `deg(v·Λ) > deg g`, and
    /// a `v` with a root planted on the coset, which the coset cannot
    /// decide and hands to Newton — on a full and a partial orbit, with
    /// and without erasures, at a small and at a word-sized prime.
    #[test]
    fn coset_division_matches_newton_division() {
        let (q, _) = camelot_ff::ntt_prime(1 << 20, 12);
        for field in [PrimeField::new(q).unwrap(), word_field()] {
            let mut rng = SplitMix64::new(20);
            for e in [256usize, 160] {
                let code = RsCode::roots_of_unity(&field, e).unwrap();
                let Domain::Orbit(orbit) = &code.domain else { unreachable!() };
                let Orbit { plan, coset, .. } = &**orbit;
                let n = plan.len();
                for erased in [Vec::new(), (3..e).step_by(17).collect::<Vec<usize>>()] {
                    let locator = code.locator(&field, &erased);
                    let locator = locator.as_ref();
                    let divisor = |v: &Poly| code.times_locator(&field, v.clone(), locator);
                    let check = |g: &Poly, v: &Poly, what: &str| {
                        let (p, r) = div_rem_fast(&field, g, &divisor(v));
                        let expected = r.is_zero().then_some(p);
                        let q = field.modulus();
                        let what = format!("q = {q}, e = {e}, {} erased: {what}", erased.len());
                        assert_eq!(code.divide(&field, g, v.clone(), locator), expected, "{what}");
                        expected
                    };
                    let coset_decides =
                        |g: &Poly, v: &Poly| code.divide_on_coset(&field, g, v, locator).is_some();
                    let v = random_message(&field, 12, &mut rng);
                    let room = n - 1 - divisor(&v).degree().unwrap();
                    let p = random_message(&field, room, &mut rng);
                    let g = p.mul(&field, &divisor(&v));
                    assert_eq!(check(&g, &v, "exact multiple"), Some(p));
                    assert!(coset_decides(&g, &v));
                    let off = g.add(&field, &Poly::constant(1));
                    assert_eq!(check(&off, &v, "non-multiple"), None);
                    assert_eq!(check(&Poly::zero(), &v, "g = 0"), Some(Poly::zero()));
                    let low = random_message(&field, divisor(&v).degree().unwrap() - 1, &mut rng);
                    assert_eq!(check(&low, &v, "deg D > deg g"), None);
                    // A root at c·ω^j: v vanishes on the coset.
                    let j = rng.next_u64() % n as u64;
                    let root = field.mul(coset.powers[1], field.pow(plan.root(), j));
                    let planted = v.mul(&field, &Poly::from_reduced(vec![field.neg(root), 1]));
                    let g =
                        random_message(&field, room - 1, &mut rng).mul(&field, &divisor(&planted));
                    assert!(!coset_decides(&g, &planted), "planted root not seen");
                    assert!(check(&g, &planted, "planted root, exact").is_some());
                    let off = g.add(&field, &Poly::constant(1));
                    assert!(!coset_decides(&off, &planted));
                    assert_eq!(check(&off, &planted, "planted root, non-multiple"), None);
                }
            }
        }
    }

    /// The codes the shortcut tests run on — consecutive points, a full
    /// orbit and a partial one — each with its field.
    fn shortcut_codes() -> Vec<(&'static str, PrimeField, RsCode)> {
        let plain = f();
        let (q, _) = camelot_ff::ntt_prime(1 << 20, 12);
        let ntt = PrimeField::new(q).unwrap();
        vec![
            ("consecutive", plain, RsCode::consecutive(&plain, 200)),
            ("orbit", ntt, RsCode::roots_of_unity(&ntt, 256).unwrap()),
            ("partial orbit", ntt, RsCode::roots_of_unity(&ntt, 160).unwrap()),
        ]
    }

    /// No erasure, scattered ones, and one node's contiguous slice.
    fn shortcut_erasures(e: usize) -> [Vec<usize>; 3] {
        [Vec::new(), (3..e).step_by(17).collect(), (e / 3..e / 3 + e / 16).collect()]
    }

    /// The error positions a re-encode of `out.poly` reports, whatever
    /// the decoder itself skipped.
    fn reencoded_errors(
        field: &PrimeField,
        code: &RsCode,
        word: &[Option<u64>],
        out: &Decoded,
    ) -> Vec<usize> {
        let codeword = code.encode(field, &out.poly);
        (0..word.len())
            .filter(|&i| word[i].is_some_and(|y| field.reduce(y) != codeword[i]))
            .collect()
    }

    /// A clean word never reaches the re-encode (the Euclid makes no
    /// step), and its result is what a re-encode would have said.
    #[test]
    fn clean_words_locate_nothing_and_agree_with_a_reencode() {
        let mut rng = SplitMix64::new(17);
        for (kind, field, code) in &shortcut_codes() {
            let e = code.len();
            let d = e / 2;
            let msg = random_message(field, d, &mut rng);
            let clean = code.encode(field, &msg);
            for erased in shortcut_erasures(e) {
                let mut word: Vec<Option<u64>> = clean.iter().copied().map(Some).collect();
                for &pos in &erased {
                    word[pos] = None;
                }
                let what = format!("{kind} e = {e}: clean, {} erased", erased.len());
                let out = code.decode(field, &word, d).unwrap();
                assert_eq!(out.poly, msg, "{what}");
                assert!(out.error_positions.is_empty(), "{what}");
                assert!(reencoded_errors(field, code, &word, &out).is_empty(), "{what}");
                assert_eq!(out.erasure_positions, erased, "{what}");
                assert_decodes_like_the_survivors_code(field, code, &word, d, &what);
            }
        }
    }

    /// One wrong symbol makes the Euclid step (`deg v = 1`), so the
    /// shortcut must not apply: the position is reported, alone.
    #[test]
    fn one_wrong_symbol_is_still_reported_at_its_position() {
        let mut rng = SplitMix64::new(18);
        for (kind, field, code) in &shortcut_codes() {
            let e = code.len();
            let d = e / 2;
            let msg = random_message(field, d, &mut rng);
            let clean = code.encode(field, &msg);
            for erased in shortcut_erasures(e) {
                let mut positions = vec![0, 1, e / 2, e - 1];
                positions.extend((0..6).map(|_| (rng.next_u64() as usize) % e));
                for pos in positions {
                    if erased.contains(&pos) {
                        continue;
                    }
                    let mut word: Vec<Option<u64>> = clean.iter().copied().map(Some).collect();
                    for &gone in &erased {
                        word[gone] = None;
                    }
                    word[pos] = Some(field.add(clean[pos], 1 + rng.next_u64() % 1000));
                    let what = format!("{kind} e = {e}: {} erased, wrong at {pos}", erased.len());
                    let out = code.decode(field, &word, d).unwrap();
                    assert_eq!(out.poly, msg, "{what}");
                    assert_eq!(out.error_positions, vec![pos], "{what}");
                    assert_eq!(reencoded_errors(field, code, &word, &out), vec![pos], "{what}");
                }
            }
        }
    }

    /// The shortcut's edge words keep their results: all zeros; exactly
    /// `d + 1` survivors, clean and with a wrong symbol nothing is left
    /// to contradict; and a clean codeword of a message one degree past
    /// the bound, which the kept degree check must still refuse.
    #[test]
    fn shortcut_edge_words_keep_their_results() {
        let mut rng = SplitMix64::new(19);
        for (kind, field, code) in &shortcut_codes() {
            let e = code.len();
            let d = e / 2;
            let zeros = code.decode(field, &vec![Some(0); e], d).unwrap();
            assert!(zeros.poly.is_zero() && zeros.error_positions.is_empty(), "{kind}: zeros");

            let msg = random_message(field, d, &mut rng);
            let clean = code.encode(field, &msg);
            let mut word: Vec<Option<u64>> = clean.iter().copied().map(Some).collect();
            let erased: Vec<usize> = (0..e).filter(|i| i % 2 == 1).take(e - d - 1).collect();
            for &pos in &erased {
                word[pos] = None;
            }
            let out = code.decode(field, &word, d).unwrap();
            assert_eq!((out.poly, out.error_positions), (msg, vec![]), "{kind}: d + 1 survivors");
            // Radius 0: a wrong symbol moves the interpolant, unnoticed.
            word[0] = Some(field.add(clean[0], 5));
            let out = code.decode(field, &word, d).unwrap();
            assert!(out.poly.degree().is_some_and(|deg| deg <= d), "{kind}");
            assert!(out.error_positions.is_empty(), "{kind}: nothing left to contradict");
            assert!(reencoded_errors(field, code, &word, &out).is_empty(), "{kind}");
            assert_eq!(out.erasure_positions, erased, "{kind}");

            let too_high = code.encode(field, &random_message(field, d + 1, &mut rng));
            let word: Vec<Option<u64>> = too_high.into_iter().map(Some).collect();
            assert_eq!(code.decode(field, &word, d), Err(DecodeError::BeyondRadius), "{kind}");
        }
    }

    /// The same code, with nothing accepted yet.
    fn fresh_code(field: &PrimeField, code: &RsCode) -> RsCode {
        match &code.domain {
            Domain::Orbit(_) => RsCode::roots_of_unity(field, code.len()).unwrap(),
            Domain::Points(_) => RsCode::with_points(field, code.points().to_vec()),
        }
    }

    /// Words of `msg`'s codeword `clean` at every distance that matters
    /// to a certificate, under each erasure set: clean, half the
    /// survivors' radius, at it, one past it and far past it.
    fn words_around(
        field: &PrimeField,
        clean: &[u64],
        d: usize,
        rng: &mut SplitMix64,
    ) -> Vec<Vec<Option<u64>>> {
        let e = clean.len();
        let mut words = Vec::new();
        for erased in shortcut_erasures(e) {
            let survivors: Vec<usize> = (0..e).filter(|i| !erased.contains(i)).collect();
            let radius = (survivors.len() - d - 1) / 2;
            let far = (radius + survivors.len()) / 2 + 1;
            for errors in [0, radius / 2, radius, radius + 1, far] {
                let mut word: Vec<Option<u64>> = clean.iter().copied().map(Some).collect();
                for &pos in &erased {
                    word[pos] = None;
                }
                for _ in 0..errors {
                    // Distinct survivors, in no particular order.
                    let pick = loop {
                        let pos = survivors[(rng.next_u64() as usize) % survivors.len()];
                        if word[pos] == Some(clean[pos]) {
                            break pos;
                        }
                    };
                    word[pick] = Some(field.add(clean[pick], 1 + rng.next_u64() % 1000));
                }
                words.push(word);
            }
        }
        words
    }

    /// Any sequence of decodes on one code equals decoding each word on
    /// a fresh code — `Ok` or `Err`, message, error and erasure
    /// positions — whatever the code accepted before: words of two
    /// messages at every distance from their codewords, with erasures,
    /// the zero word, a changed degree bound, each word twice in a
    /// shuffled order (so a view meets a memo of its own codeword, of
    /// the other message's, or of what Gao made of a word past the
    /// radius), and two
    /// lanes decoding on the shared code in lockstep on two threads,
    /// each evicting the other's memo. Consecutive points, a full orbit
    /// and a partial one.
    #[test]
    fn decode_sequences_on_one_code_equal_fresh_decodes() {
        let mut rng = SplitMix64::new(21);
        for (kind, field, code) in &shortcut_codes() {
            let e = code.len();
            let d = e / 2;
            let fresh = |word: &[Option<u64>], bound: usize| {
                fresh_code(field, code).decode(field, word, bound)
            };
            let messages = [random_message(field, d, &mut rng), random_message(field, d, &mut rng)];
            let lanes: Vec<Vec<Vec<Option<u64>>>> = messages
                .iter()
                .map(|msg| words_around(field, &code.encode(field, msg), d, &mut rng))
                .collect();
            let mut slate: Vec<(Vec<Option<u64>>, usize)> =
                lanes.iter().flatten().map(|word| (word.clone(), d)).collect();
            slate.push((vec![Some(0); e], d));
            slate.push((lanes[0][1].clone(), d - 1));
            slate.push((lanes[0][1].clone(), d + 1));
            slate.extend(slate.clone());
            for i in (1..slate.len()).rev() {
                slate.swap(i, (rng.next_u64() as usize) % (i + 1));
            }
            let mut certified = 0;
            for (step, (word, bound)) in slate.iter().enumerate() {
                let what = format!("{kind} e = {e}, step {step}, degree bound {bound}");
                let out = code.decode_profiled(field, word, *bound);
                if let Ok((_, profile)) = &out {
                    if profile.interpolate.is_zero() && profile.xgcd.is_zero() {
                        certified += 1;
                    }
                }
                assert_eq!(out.map(|(out, _)| out), fresh(word, *bound), "{what}");
            }
            assert!(certified > 0, "{kind}: no decode was certified");
            // The other message's word within the radius of its own
            // codeword, right after this one's: Gao, not the memo.
            for (mine, theirs) in [(&lanes[0][2], &lanes[1][2]), (&lanes[1][2], &lanes[0][2])] {
                assert_eq!(code.decode(field, mine, d), fresh(mine, d), "{kind}: memo");
                assert_eq!(code.decode(field, theirs, d), fresh(theirs, d), "{kind}: other");
            }
            // Two lanes in lockstep on one shared code; a lane asserts
            // nothing itself, so a wrong result cannot strand the other
            // at the barrier.
            let barrier = std::sync::Barrier::new(lanes.len());
            let results: Vec<Vec<_>> = std::thread::scope(|scope| {
                let handles: Vec<_> = lanes
                    .iter()
                    .map(|lane| {
                        let barrier = &barrier;
                        scope.spawn(move || {
                            let mut results = Vec::new();
                            for word in lane {
                                barrier.wait();
                                results.push((code.decode(field, word, d), fresh(word, d)));
                            }
                            results
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("lane panicked")).collect()
            });
            for (lane, (got, expected)) in results.iter().flatten().enumerate() {
                assert_eq!(got, expected, "{kind}: lane decode {lane}");
            }
        }
    }

    /// `decode_profiled` returns exactly what `decode` returns, with a
    /// breakdown whose phases are populated on the paths that ran.
    #[test]
    fn decode_profiled_matches_decode_and_times_phases() {
        let field = f();
        let mut rng = SplitMix64::new(15);
        let d = 40;
        let e = 200;
        let code = RsCode::consecutive(&field, e);
        let msg = random_message(&field, d, &mut rng);
        let clean = code.encode(&field, &msg);
        let mut word: Vec<Option<u64>> = clean.iter().copied().map(Some).collect();
        word[3] = Some(field.add(clean[3], 2));
        word[50] = None;
        let (decoded, profile) = code.decode_profiled(&field, &word, d).unwrap();
        assert_eq!(decoded, code.decode(&field, &word, d).unwrap());
        assert!(profile.total() >= profile.xgcd);
        // The zero word short-circuits before the Euclid phase.
        let zeros: Vec<Option<u64>> = vec![Some(0); e];
        let (z, zp) = code.decode_profiled(&field, &zeros, d).unwrap();
        assert!(z.poly.is_zero());
        assert_eq!(zp.xgcd, std::time::Duration::ZERO);
    }

    #[test]
    fn random_error_patterns_within_radius_always_decode() {
        let field = f();
        let mut rng = SplitMix64::new(6);
        for trial in 0..40 {
            let d = 1 + (rng.next_u64() % 8) as usize;
            let e = d + 3 + (rng.next_u64() % 20) as usize;
            let code = RsCode::consecutive(&field, e);
            let radius = code.correction_radius(d);
            let errors = (rng.next_u64() as usize) % (radius + 1);
            let msg = random_message(&field, d, &mut rng);
            let clean = code.encode(&field, &msg);
            let mut word: Vec<Option<u64>> = clean.iter().copied().map(Some).collect();
            let mut corrupted = std::collections::BTreeSet::new();
            while corrupted.len() < errors {
                corrupted.insert((rng.next_u64() as usize) % e);
            }
            for &pos in &corrupted {
                word[pos] = Some(field.add(clean[pos], 1 + rng.next_u64() % 1000));
            }
            let out = code.decode(&field, &word, d).unwrap();
            assert_eq!(out.poly, msg, "trial {trial}: d={d} e={e} errors={errors}");
            assert_eq!(out.error_positions, corrupted.into_iter().collect::<Vec<_>>());
        }
    }

    /// Gao's radius as a postcondition: every `Ok` lies within
    /// `(e' - d - 1) / 2` of its received word and names exactly the
    /// positions where it differs. Full and partial orbits and points,
    /// with and without erasures, at both parities of `e' + d + 1`;
    /// words at the radius, one past it and far past it, of a message
    /// at the degree bound and of one a degree under it. That last
    /// message one past the radius is what a stop degree one too low
    /// would decode.
    #[test]
    fn every_decode_lies_within_the_radius_of_its_word() {
        let mut rng = SplitMix64::new(22);
        for (kind, field, code) in &shortcut_codes() {
            let e = code.len();
            for d in [e / 2, e / 2 + 1] {
                for degree in [d, d - 1] {
                    let msg = random_message(field, degree, &mut rng);
                    let clean = code.encode(field, &msg);
                    for erased in shortcut_erasures(e) {
                        let mut survivors: Vec<usize> =
                            (0..e).filter(|i| !erased.contains(i)).collect();
                        for i in (1..survivors.len()).rev() {
                            survivors.swap(i, (rng.next_u64() as usize) % (i + 1));
                        }
                        let radius = (survivors.len() - d - 1) / 2;
                        let far = (radius + survivors.len()) / 2 + 1;
                        for errors in [radius, radius + 1, far] {
                            let mut word: Vec<Option<u64>> =
                                clean.iter().copied().map(Some).collect();
                            for &pos in &erased {
                                word[pos] = None;
                            }
                            for &pos in &survivors[..errors] {
                                word[pos] = Some(field.add(clean[pos], 1 + rng.next_u64() % 1000));
                            }
                            let what = format!(
                                "{kind} e = {e}, d = {d}, message degree {degree}: {} erased, \
                                 {errors} errors (radius {radius})",
                                erased.len()
                            );
                            match code.decode(field, &word, d) {
                                Ok(out) => {
                                    let located = reencoded_errors(field, code, &word, &out);
                                    assert!(located.len() <= radius, "{what}: {located:?}");
                                    assert_eq!(out.error_positions, located, "{what}");
                                    if errors <= radius {
                                        assert_eq!(out.poly, msg, "{what}");
                                    }
                                }
                                Err(err) => {
                                    assert_eq!(err, DecodeError::BeyondRadius, "{what}");
                                    assert!(errors > radius, "{what}: refused within the radius");
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// The orbit domain `code` shares.
    fn orbit_of(code: &RsCode) -> &Arc<Orbit> {
        let Domain::Orbit(orbit) = &code.domain else { panic!("not an orbit code") };
        orbit
    }

    /// The orbit domain of `(q, e)` from `cache`.
    fn orbit_from(cache: &DomainCache<Orbit>, field: &PrimeField, e: usize) -> Arc<Orbit> {
        cache.get((field.modulus(), e), || Orbit::build(field, e)).unwrap()
    }

    /// `a` and `b` are the same orbit domain, table by table.
    fn assert_same_orbit(a: &Orbit, b: &Orbit, what: &str) {
        assert_eq!((a.plan.len(), a.plan.root()), (b.plan.len(), b.plan.root()), "{what}: plan");
        assert_eq!(a.points, b.points, "{what}: points");
        assert_eq!(a.g0, b.g0, "{what}: g0");
        assert_eq!(a.tail, b.tail, "{what}: tail");
        assert_eq!(a.coset, b.coset, "{what}: coset");
    }

    /// A cached code's domain equals one built afresh, on the first call
    /// for its `(q, e)` and on every later one: a full orbit, partial
    /// ones, `e = 1`, `e = N/2 + 1`, a word-sized prime and the group of
    /// `Z_257`; and consecutive points, up to all of `Z_257`.
    #[test]
    fn cached_orbits_equal_fresh_builds() {
        let (q, _) = camelot_ff::ntt_prime(1 << 20, 12);
        let ntt = PrimeField::new(q).unwrap();
        let fermat = PrimeField::new(257).unwrap();
        let shapes = [
            (ntt, 256),
            (ntt, 255),
            (ntt, 160),
            (ntt, 129),
            (ntt, 1),
            (ntt, 2),
            (word_field(), 160),
            (fermat, 256),
            (fermat, 129),
        ];
        for (field, e) in shapes {
            let what = format!("q = {}, e = {e}", field.modulus());
            let fresh = Orbit::build(&field, e).unwrap();
            for _ in 0..2 {
                let code = RsCode::roots_of_unity(&field, e).unwrap();
                assert_same_orbit(orbit_of(&code), &fresh, &what);
                assert_eq!(fresh.points.len(), e, "{what}");
            }
        }
        let plain = f();
        assert!(RsCode::roots_of_unity(&plain, 8).is_none());
        for (field, e) in [(plain, 1), (plain, 30), (ntt, 200), (fermat, 257)] {
            let fresh = PointSet::new(&field, (0..e as u64).collect());
            for _ in 0..2 {
                let Domain::Points(set) = &RsCode::consecutive(&field, e).domain else {
                    panic!("not a code on points")
                };
                assert_eq!(**set, fresh, "consecutive q = {}, e = {e}", field.modulus());
            }
        }
    }

    /// Codes share a domain, never a memo: a decode on one cached code,
    /// on an orbit or on consecutive points, leaves every other code of
    /// its `(q, e)` — built by the cache or cloned — with nothing
    /// accepted. A clone shares its domain, and the cache hands the one
    /// domain it built to every later caller.
    #[test]
    fn cached_codes_share_the_domain_and_not_the_memo() {
        let (q, _) = camelot_ff::ntt_prime(1 << 20, 12);
        let field = PrimeField::new(q).unwrap();
        let memo_is_empty = |code: &RsCode| code.accepted.lock().unwrap().is_none();
        let codes = |e: usize| {
            if e == 200 {
                [RsCode::consecutive(&field, e), RsCode::consecutive(&field, e)]
            } else {
                [
                    RsCode::roots_of_unity(&field, e).unwrap(),
                    RsCode::roots_of_unity(&field, e).unwrap(),
                ]
            }
        };
        for e in [256, 160, 200] {
            let [decoder, other] = codes(e);
            let clone = decoder.clone();
            assert_eq!(clone.points().as_ptr(), decoder.points().as_ptr(), "e = {e}");
            let msg = random_message(&field, e / 2, &mut SplitMix64::new(23));
            let word: Vec<Option<u64>> =
                decoder.encode(&field, &msg).into_iter().map(Some).collect();
            assert_eq!(decoder.decode(&field, &word, e / 2).unwrap().poly, msg);
            assert!(!memo_is_empty(&decoder), "e = {e}: a clean word is its own codeword");
            assert!(memo_is_empty(&other) && memo_is_empty(&clone), "e = {e}");
            assert_eq!(other, decoder);
        }
        let cache = DomainCache::new();
        let first = orbit_from(&cache, &field, 160);
        assert!(Arc::ptr_eq(&first, &orbit_from(&cache, &field, 160)));
    }

    /// Past its capacity the cache resets, and a key seen before the
    /// reset is built again, equal to a fresh build.
    #[test]
    fn a_rehit_after_the_cache_resets_equals_a_fresh_build() {
        let (q, _) = camelot_ff::ntt_prime(1 << 20, 12);
        let field = PrimeField::new(q).unwrap();
        let cache = DomainCache::new();
        let first = orbit_from(&cache, &field, 1);
        for e in 2..=DOMAIN_CACHE_CAPACITY + 1 {
            orbit_from(&cache, &field, e);
            assert!(cache.lock().len() <= DOMAIN_CACHE_CAPACITY, "e = {e}");
        }
        let again = orbit_from(&cache, &field, 1);
        assert!(!Arc::ptr_eq(&first, &again), "the reset dropped the first entry");
        assert_same_orbit(&again, &Orbit::build(&field, 1).unwrap(), "e = 1 after a reset");
        let last = DOMAIN_CACHE_CAPACITY + 1;
        let code = RsCode::roots_of_unity(&field, last).unwrap();
        assert_same_orbit(orbit_of(&code), &Orbit::build(&field, last).unwrap(), "global");
    }

    /// Four threads that ask for one `(q, e)` at once all get equal
    /// codes, from the process cache and from a cold one; the cold one
    /// hands all four the entry it kept.
    #[test]
    fn racing_builders_get_equal_codes() {
        let (q, _) = camelot_ff::ntt_prime(1 << 20, 12);
        let field = PrimeField::new(q).unwrap();
        let e = 200;
        let fresh = Orbit::build(&field, e).unwrap();
        let cache = DomainCache::new();
        let barrier = std::sync::Barrier::new(4);
        let results: Vec<(RsCode, Arc<Orbit>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        let code = RsCode::roots_of_unity(&field, e).unwrap();
                        (code, orbit_from(&cache, &field, e))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("builder panicked")).collect()
        });
        let kept = orbit_from(&cache, &field, e);
        for (code, orbit) in &results {
            assert_same_orbit(orbit_of(code), &fresh, "process cache");
            assert_eq!(code, &results[0].0);
            assert!(Arc::ptr_eq(orbit, &kept), "cold cache");
        }
        assert_same_orbit(&kept, &fresh, "cold cache");
    }
}
