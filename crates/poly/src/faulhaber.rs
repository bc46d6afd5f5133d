//! Sums of a polynomial over a run of consecutive points in one
//! transform, by Faulhaber's formula.
//!
//! For integers `a` and `N`, `Σ_{x=a}^{a+N-1} e^{xt} = F(t)·B(t)` with
//! `F(t) = (e^{(a+N)t} − e^{at}) / t` and `B(t) = t/(e^t − 1)`, so the
//! power sums are `Σ_x x^m = m!·[t^m] F(t)·B(t)` with
//! `[t^m] F = ((a+N)^{m+1} − a^{m+1}) / (m+1)!`, and a polynomial
//! `P = Σ p_m x^m` sums to `Σ_m p_m · m! · [t^m] F·B`. Every denominator
//! divides some `k!` with `k ≤ len`, so the identity holds in `Z_q` for
//! any prime `q > len`, whatever `a` and `N` are: they enter only as
//! `a mod q` and `(a + N) mod q`. This is the series toolbox of Bostan
//! and Schost (*Polynomial evaluation and interpolation on special sets
//! of points*, J. Complexity 2005) applied to the sum the "sum the
//! evaluations" recoveries need: `O(len)` field operations plus one
//! forward and one inverse transform, against `count` Horner passes.
//!
//! `F` depends on the run alone, so `Σ_m p_m · m! · [t^m] F·B` is a dot
//! product of the proof with the run's power sums
//! `W_m = Σ_x x^m = m! · [t^m] F·B`. The Bernoulli series `B` (one
//! [`inv_series`]), the factorials, their inverses and `B`'s forward
//! spectrum depend on the modulus alone, and `W` on the modulus, the run
//! and the length: all are cached process-wide, so only the first sum
//! over a modulus builds the tables, only the first over a run pays the
//! transform, and a run summed again — the same problem shape verified
//! twice, on the primes its spec fixes — costs one dot product.
//!
//! A modulus without a transform of the length needed gets the same
//! power sums from the telescoping recurrence
//! `Σ_{i≤j} C(j+1, i)·W_i = b^{j+1} − a^{j+1}`, in `len²/2`
//! multiply-adds and no transform, so a sum over any run costs a bounded
//! amount on every prime above `len + 1`.

use crate::multipoint::{cached_ntt_plan, inv_series, MulContext};
use crate::ntt::NttPlan;
use crate::Poly;
use camelot_ff::PrimeField;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Bound on the words the cache holds across all moduli (32 MiB). The
/// cliques recovery's entry is ~6k words, so hitting the bound at all
/// means the workload churns through moduli, runs or proof lengths
/// far longer than a catalogue's; the cache is then reset wholesale,
/// as the NTT plan cache is, and what a caller holds stays valid.
const CACHE_WORDS: usize = 1 << 22;

/// Bound on the spectra and on the power-sum vectors kept per modulus
/// (one spectrum per proof length, one vector per run and length; a
/// workload has a few of each).
const SHAPES_PER_MODULUS: usize = 8;

/// Factorials, their inverses and the Bernoulli series `t/(e^t − 1)`
/// over one modulus, for proofs of up to `bernoulli.len()` coefficients.
struct SumTables {
    /// `k!` for `k ≤ len`.
    fact: Vec<u64>,
    /// `1/k!` for `k ≤ len`.
    inv_fact: Vec<u64>,
    /// `B_k / k!` for `k < len`.
    bernoulli: Vec<u64>,
}

impl SumTables {
    fn new(field: &PrimeField, len: usize) -> Self {
        let mut fact = Vec::with_capacity(len + 1);
        let mut acc = 1u64;
        fact.push(acc);
        for k in 1..=len as u64 {
            acc = field.mul(acc, k);
            fact.push(acc);
        }
        let mut inv_fact = vec![0u64; len + 1];
        let mut inv = field.inv(fact[len]);
        for k in (0..=len).rev() {
            inv_fact[k] = inv;
            inv = field.mul(inv, field.reduce(k.max(1) as u64));
        }
        // `(e^t − 1)/t = Σ t^i/(i+1)!`, inverted as a power series.
        let series = Poly::from_reduced(inv_fact[1..].to_vec());
        let ctx = MulContext::new(field, 2 * len);
        let mut bernoulli = inv_series(&ctx, &series, len).into_coeffs();
        bernoulli.resize(len, 0);
        SumTables { fact, inv_fact, bernoulli }
    }
}

/// `B` truncated to `len` coefficients, forward-transformed under the
/// plan [`transform_log`] picks for `len`.
struct BernoulliSpectrum {
    len: usize,
    plan: Arc<NttPlan>,
    data: Vec<u64>,
}

/// The power sums `Σ_{x=a}^{b−1} x^m` for `m < len`, over the run from
/// `a` to `b` (reduced, stepping by one modulo `q`).
struct PowerSums {
    len: usize,
    a: u64,
    b: u64,
    sums: Vec<u64>,
}

/// A run of `len`-coefficient sums from `a` to `b`.
type Run = (usize, u64, u64);

/// One modulus's cache entry: tables grown to the longest length asked
/// for, the spectra of the lengths asked for, the power sums of the
/// runs they were built for, and the runs summed once without them.
#[derive(Default)]
struct Entry {
    tables: Option<Arc<SumTables>>,
    spectra: Vec<Arc<BernoulliSpectrum>>,
    power_sums: Vec<Arc<PowerSums>>,
    sighted: Vec<Run>,
}

impl Entry {
    /// The words the entry's vectors hold.
    fn words(&self) -> usize {
        let tables = self.tables.as_ref().map_or(0, |t| t.fact.len() * 2 + t.bernoulli.len());
        let spectra: usize = self.spectra.iter().map(|s| s.data.len()).sum();
        let sighted = 3 * self.sighted.len();
        tables + spectra + sighted + self.power_sums.iter().map(|w| w.sums.len()).sum::<usize>()
    }

    /// Whether `run` was summed before without power sums; notes it if
    /// not.
    fn sighted_before(&mut self, run: Run) -> bool {
        if self.sighted.contains(&run) {
            return true;
        }
        if self.sighted.len() >= SHAPES_PER_MODULUS {
            self.sighted.clear();
        }
        self.sighted.push(run);
        false
    }
}

/// Every modulus's entry and the words they hold together.
#[derive(Default)]
struct Cache {
    entries: HashMap<u64, Entry>,
    words: usize,
}

/// `log2` of the cyclic transform length for a `len`-coefficient low
/// product: the power of two covering `len` when the `w = 2·len − 1 − n`
/// coefficients that wrap around are few enough to repair directly
/// (`w² ≤ n`, cheaper than one butterfly round), else twice that, where
/// nothing wraps into the low `len` coefficients.
fn transform_log(len: usize) -> u32 {
    let len = len.max(1);
    let n = len.next_power_of_two();
    let wrapped = (2 * len - 1).saturating_sub(n);
    let log = n.trailing_zeros();
    if wrapped * wrapped <= n {
        log
    } else {
        log + 1
    }
}

/// Runs `f` on modulus `q`'s entry of the process-wide cache, then
/// resets the cache if it has grown past [`CACHE_WORDS`].
fn with_entry<T>(q: u64, f: impl FnOnce(&mut Entry) -> T) -> T {
    static CACHE: OnceLock<Mutex<Cache>> = OnceLock::new();
    let mut cache = CACHE
        .get_or_init(|| Mutex::new(Cache::default()))
        .lock()
        .expect("Faulhaber cache poisoned");
    let entry = cache.entries.entry(q).or_default();
    let before = entry.words();
    let out = f(entry);
    let after = entry.words();
    cache.words = cache.words + after - before;
    if cache.words > CACHE_WORDS {
        *cache = Cache::default();
    }
    out
}

/// Keeps `item` in a per-modulus list bounded by [`SHAPES_PER_MODULUS`].
fn remember<T>(list: &mut Vec<Arc<T>>, item: &Arc<T>) {
    if list.len() >= SHAPES_PER_MODULUS {
        list.clear();
    }
    list.push(Arc::clone(item));
}

/// The tables and spectrum for `len`-coefficient sums in `entry`,
/// building what is missing, for transforms under `plan`.
fn prepared(
    entry: &mut Entry,
    field: &PrimeField,
    len: usize,
    plan: Arc<NttPlan>,
) -> (Arc<SumTables>, Arc<BernoulliSpectrum>) {
    let tables = match &entry.tables {
        Some(t) if t.bernoulli.len() >= len => Arc::clone(t),
        _ => {
            // The truncations of a longer series are the shorter ones,
            // so spectra already built stay valid.
            let t = Arc::new(SumTables::new(field, len));
            entry.tables = Some(Arc::clone(&t));
            t
        }
    };
    if let Some(s) = entry.spectra.iter().find(|s| s.len == len) {
        return (tables, Arc::clone(s));
    }
    let mut data = tables.bernoulli[..len].to_vec();
    data.resize(plan.len(), 0);
    plan.forward_lazy_rev(&mut data);
    let spectrum = Arc::new(BernoulliSpectrum { len, plan, data });
    remember(&mut entry.spectra, &spectrum);
    (tables, spectrum)
}

/// `W_m = m! · [t^m] F·B` for `m < len`: `F` from the run's ends, the
/// low product by one forward and one inverse transform against the
/// cached spectrum of `B`.
fn power_sums(
    field: &PrimeField,
    tables: &SumTables,
    spectrum: &BernoulliSpectrum,
    a: u64,
    b: u64,
) -> Vec<u64> {
    let len = spectrum.len;
    // F_m = (b^{m+1} − a^{m+1}) / (m+1)!.
    let mut f = Vec::with_capacity(len);
    let (a_shoup, b_shoup) = (field.shoup_precompute(a), field.shoup_precompute(b));
    let (mut pa, mut pb) = (a, b);
    for _ in 0..len {
        f.push(field.sub(pb, pa));
        pa = field.mul_shoup(pa, a, a_shoup);
        pb = field.mul_shoup(pb, b, b_shoup);
    }
    field.mul_slice(&mut f, &tables.inv_fact[1..=len]);

    // H = F·B mod t^len, cyclically at the spectrum's length.
    let plan = &spectrum.plan;
    let n = plan.len();
    let mut h = f.clone();
    h.resize(n, 0);
    plan.forward_lazy_rev(&mut h);
    field.mul_slice(&mut h, &spectrum.data);
    plan.inverse_from_rev(&mut h);
    // Coefficient `n + j` of the linear product wrapped onto `h[j]`;
    // recompute it from the operand tops and subtract.
    let bern = &tables.bernoulli;
    for j in 0..(2 * len - 1).saturating_sub(n) {
        let wrap = (j + n + 1 - len..len).fold(0, |s, i| field.mul_add(s, f[i], bern[j + n - i]));
        h[j] = field.sub(h[j], wrap);
    }
    h.truncate(len);
    field.mul_slice(&mut h, &tables.fact[..len]);
    h
}

/// `W_m = Σ_{x=a}^{b−1} x^m` for `m < len` by the telescoping
/// recurrence `Σ_{i≤j} C(j+1, i)·W_i = b^{j+1} − a^{j+1}`, divided
/// through by `(j+1)!`: with `T_i = W_i/i!`,
/// `T_j = (b^{j+1} − a^{j+1})/(j+1)! − Σ_{i<j} T_i/(j+1−i)!`, one dot
/// product per `j`. Needs `q > len`; no transform.
fn power_sums_by_recurrence(field: &PrimeField, len: usize, a: u64, b: u64) -> Vec<u64> {
    let mut fact = Vec::with_capacity(len + 1);
    fact.push(1u64);
    for k in 1..=len as u64 {
        fact.push(field.mul(fact[fact.len() - 1], k));
    }
    // `1/k!` from `k = len` down to `0`: the slice `[len − j − 1, len − 1)`
    // holds `1/(j+1)!, …, 1/2!`, the weights of `T_0, …, T_{j−1}`.
    let mut inv_fact_desc = Vec::with_capacity(len + 1);
    let mut inv = field.inv(fact[len]);
    for k in (1..=len as u64).rev() {
        inv_fact_desc.push(inv);
        inv = field.mul(inv, k);
    }
    inv_fact_desc.push(inv);
    let mut t = Vec::with_capacity(len);
    let (mut pa, mut pb) = (a, b);
    for j in 0..len {
        let head = field.mul(field.sub(pb, pa), inv_fact_desc[len - j - 1]);
        let tail = field.dot(&t, &inv_fact_desc[len - j - 1..len - 1]);
        t.push(field.sub(head, tail));
        pa = field.mul(pa, a);
        pb = field.mul(pb, b);
    }
    field.mul_slice(&mut t, &fact[..len]);
    t
}

/// How [`sum_by_power_sums`] builds a run's power sums over a modulus.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PowerSumRoute {
    /// Faulhaber's formula: one forward and one inverse transform of
    /// this length ([`sum_transform_len`]).
    Transform(usize),
    /// The telescoping recurrence, `len²/2` multiply-adds: the modulus
    /// has no transform of the length needed.
    Recurrence,
}

/// The route [`sum_by_power_sums`] takes for `len` coefficients over
/// `field`, or `None` where neither applies: the modulus must exceed
/// `len + 1`, so every factorial involved is invertible.
#[must_use]
pub fn power_sum_route(field: &PrimeField, len: usize) -> Option<PowerSumRoute> {
    if field.modulus() <= len as u64 + 1 {
        return None;
    }
    Some(match cached_ntt_plan(field, transform_log(len)) {
        Some(plan) => PowerSumRoute::Transform(plan.len()),
        None => PowerSumRoute::Recurrence,
    })
}

/// `Σ_{x=start}^{start+count-1} P(x) mod q` for `P = Σ coeffs[m]·x^m`
/// (reduced coefficients), the points stepping by one modulo `q` from
/// `start mod q`, as the dot product of the coefficients with the run's
/// power sums — when they are at hand. They are when an earlier call
/// cached them, or are built now (by [`power_sum_route`]'s route) and
/// cached when `build` holds or the run was summed once before over the
/// modulus: the second sighting of a run pays for its power sums, and
/// every later one is a dot product. Otherwise `None`, and the run is
/// noted as sighted; `None` too where [`power_sum_route`] is.
///
/// Where it returns a value, that value is the unique field element a
/// Horner pass per point sums to.
#[must_use]
pub fn sum_by_power_sums(
    field: &PrimeField,
    coeffs: &[u64],
    start: u64,
    count: u64,
    build: bool,
) -> Option<u64> {
    let len = coeffs.len();
    let q = field.modulus();
    if q <= len as u64 + 1 {
        return None;
    }
    if len == 0 || count == 0 {
        return Some(0);
    }
    let a = field.reduce(start);
    let b = field.add(a, field.reduce(count));
    let plan = cached_ntt_plan(field, transform_log(len));
    let known = |w: &&Arc<PowerSums>| (w.len, w.a, w.b) == (len, a, b);
    let cached = with_entry(q, |entry| {
        if let Some(w) = entry.power_sums.iter().find(known) {
            return Some(Ok(Arc::clone(w)));
        }
        if !build && !entry.sighted_before((len, a, b)) {
            return None;
        }
        Some(Err(plan.map(|plan| prepared(entry, field, len, plan))))
    })?;
    let sums = match cached {
        Ok(w) => w,
        Err(built) => {
            // The power sums are built outside the lock.
            let sums = match built {
                Some((tables, spectrum)) => power_sums(field, &tables, &spectrum, a, b),
                None => power_sums_by_recurrence(field, len, a, b),
            };
            let w = Arc::new(PowerSums { len, a, b, sums });
            with_entry(q, |entry| remember(&mut entry.power_sums, &w));
            w
        }
    };
    Some(field.dot(coeffs, &sums.sums))
}

/// The transform length [`sum_by_power_sums`] runs on for `len`
/// coefficients: the power of two covering `len`, or twice that when
/// more than a few product coefficients would wrap around — about
/// `2·len` either way. One forward and one inverse transform of this
/// length are what a sum over a run not summed before costs, against
/// `count · len` steps of Horner.
#[must_use]
pub fn sum_transform_len(len: usize) -> usize {
    1 << transform_log(len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use camelot_ff::{ntt_prime, SplitMix64};

    /// Today's recovery loop: one Horner pass per point.
    fn horner_sum(field: &PrimeField, coeffs: &[u64], start: u64, count: u64) -> u64 {
        let mut x = field.reduce(start);
        let mut acc = 0;
        for _ in 0..count {
            acc = field.add(acc, field.horner(coeffs, x));
            x = field.add(x, 1);
        }
        acc
    }

    #[test]
    fn bernoulli_series_has_the_bernoulli_numbers() {
        let field = PrimeField::new(ntt_prime(1 << 40, 8).0).unwrap();
        let t = SumTables::new(&field, 9);
        // B_0..B_8 = 1, −1/2, 1/6, 0, −1/30, 0, 1/42, 0, −1/30.
        let frac = |n: i64, d: u64| field.mul(field.from_i64(n), field.inv(d));
        let expect = [frac(1, 1), frac(-1, 2), frac(1, 6), 0, frac(-1, 30), 0, frac(1, 42), 0];
        for (k, &bk) in expect.iter().enumerate() {
            assert_eq!(t.bernoulli[k], field.mul(bk, t.inv_fact[k]), "B_{k}");
        }
        assert_eq!(field.mul(t.fact[9], t.inv_fact[9]), 1);
    }

    #[test]
    fn transform_length_covers_the_low_product() {
        for len in 1..300 {
            let n = 1usize << transform_log(len);
            assert!(n >= len, "{len}");
            let wrapped = (2 * len - 1).saturating_sub(n);
            assert!(wrapped * wrapped <= n && wrapped < len, "{len}");
        }
        assert_eq!(transform_log(1027), 11);
        assert_eq!(transform_log(1024), 11);
        assert_eq!(transform_log(1025), 11);
    }

    #[test]
    fn matches_horner_on_small_cases() {
        let field = PrimeField::new(ntt_prime(1 << 61, 12).0).unwrap();
        let q = field.modulus();
        let mut rng = SplitMix64::new(3);
        for len in [1usize, 2, 3, 7, 64, 65, 100] {
            // Two proofs over the same runs: the second finds the first's
            // power sums cached.
            for _ in 0..2 {
                let coeffs: Vec<u64> = (0..len).map(|_| field.sample(&mut rng)).collect();
                for start in [0, 5, q - 1, u64::MAX] {
                    for count in [1u64, 2, 13, 200, q] {
                        assert_eq!(
                            sum_by_power_sums(&field, &coeffs, start, count, true),
                            Some(horner_sum(&field, &coeffs, start, count % q)),
                            "len {len}, start {start}, count {count}"
                        );
                    }
                }
            }
        }
    }

    /// The telescoping recurrence's power sums give Horner's sums at
    /// every count up to three times the proof length, over primes with
    /// and without a transform of the length needed, from starts that
    /// wrap the modulus; where a transform exists, they are its power
    /// sums.
    #[test]
    fn recurrence_matches_horner_at_every_count() {
        let plain = camelot_ff::next_prime(1 << 61);
        for q in [ntt_prime(1 << 61, 12).0, plain, 1_000_000_007, 101] {
            let field = PrimeField::new(q).unwrap();
            let mut rng = SplitMix64::new(q);
            for len in [1usize, 2, 5, 17, 40] {
                let coeffs: Vec<u64> = (0..len).map(|_| field.sample(&mut rng)).collect();
                for start in [0, q - 2, u64::MAX] {
                    let a = field.reduce(start);
                    for count in 0..=3 * len as u64 {
                        let b = field.add(a, field.reduce(count));
                        let sums = power_sums_by_recurrence(&field, len, a, b);
                        let at = format!("q = {q}, len = {len}, start = {start}, count = {count}");
                        assert_eq!(
                            field.dot(&coeffs, &sums),
                            horner_sum(&field, &coeffs, start, count),
                            "{at}"
                        );
                        if let Some(PowerSumRoute::Transform(_)) = power_sum_route(&field, len) {
                            let plan = cached_ntt_plan(&field, transform_log(len)).unwrap();
                            let (tables, spectrum) =
                                with_entry(q, |entry| prepared(entry, &field, len, plan));
                            assert_eq!(power_sums(&field, &tables, &spectrum, a, b), sums, "{at}");
                        }
                    }
                }
            }
        }
    }

    /// A run below any crossover is summed from power sums on its
    /// second sighting, by whichever route the modulus has, and from the
    /// cache after that.
    #[test]
    fn a_run_sighted_twice_gets_its_power_sums() {
        let plain = camelot_ff::next_prime((1 << 61) + (1 << 40));
        for q in [ntt_prime((1 << 61) + (1 << 40), 12).0, plain] {
            let field = PrimeField::new(q).unwrap();
            let coeffs = [3, 1, 4, 1, 5];
            let expect = horner_sum(&field, &coeffs, 7, 64);
            assert_eq!(sum_by_power_sums(&field, &coeffs, 7, 64, false), None, "mod {q}");
            for _ in 0..2 {
                assert_eq!(sum_by_power_sums(&field, &coeffs, 7, 64, false), Some(expect));
            }
            assert_eq!(sum_by_power_sums(&field, &coeffs, 8, 64, false), None, "another run");
        }
    }

    #[test]
    fn refuses_small_moduli_and_missing_plans() {
        let small = PrimeField::new(97).unwrap();
        assert_eq!(power_sum_route(&small, 96), None);
        assert_eq!(sum_by_power_sums(&small, &[1; 96], 0, 5, true), None);
        assert_eq!(power_sum_route(&small, 95), Some(PowerSumRoute::Recurrence));
        // 96 = 2^5·3: 16 coefficients fit a length-32 transform, 32
        // would need one of length 64.
        assert_eq!(power_sum_route(&small, 16), Some(PowerSumRoute::Transform(32)));
        assert_eq!(power_sum_route(&small, 32), Some(PowerSumRoute::Recurrence));
        let plain = PrimeField::new(1_000_000_007).unwrap();
        assert_eq!(power_sum_route(&plain, 10), Some(PowerSumRoute::Recurrence));
    }
}
