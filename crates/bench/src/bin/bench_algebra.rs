//! Machine-readable benchmark of the fast algebra stack, across code
//! lengths `2^min_log .. 2^max_log` over NTT-friendly primes:
//!
//! * field slice kernels in isolation (Melem/s): per-element scalar
//!   loops vs the chunked slice kernels of `camelot-ff` (Barrett
//!   `mul_slice`, blocked batch inversion);
//! * consecutive-point Reed–Solomon code: encode (Horner baseline vs
//!   subproduct-tree dispatch), interpolation (Newton baseline vs tree),
//!   full Gao decode with a per-phase breakdown and the certification of
//!   the same word against the codeword that decode accepted, and the
//!   same word decoded with five symbols erased;
//! * the same consecutive-point code over the first prime above the
//!   engine's [`prime_floor`] — the modulus the default `Smallest`
//!   schedule actually picks, with no two-adic structure, so Karatsuba
//!   products and quadratic interpolation up to 4096 points: code
//!   construction, interpolation on the progression (`interpolate`, and
//!   the cached tree's own dispatch) and on the same points with two
//!   swapped (the general divided-difference triangle), and the decode
//!   of a clean word and of the faulted one, each with its phase
//!   breakdown;
//! * roots-of-unity code filling its orbit (the engine's NTT-friendly
//!   schedule when `e` is a power of two): encode (Horner baseline vs
//!   single forward NTT), full Gao decode with the same breakdown, and
//!   the erasure decode;
//! * roots-of-unity code on a partial orbit, in the shape `bench_e2e`'s
//!   `poly_faulted_fulldecode` runs (`e = 5·2^k/8`, degree `2^k/2`, one
//!   node in sixteen corrupt, one crashed): errors-only and erasure
//!   decode, each with its phase breakdown;
//! * the partial-xgcd step in isolation, classical vs half-GCD, on the
//!   exact `(g0, g1, stop)` triple the Gao decoder feeds it;
//! * the per-point building blocks of the catalogue evaluators at the
//!   end-to-end benchmark's shapes (ns per call): prepared vs one-shot
//!   Lagrange basis, the compiled Strassen Yates plan against a Barrett
//!   `mul_add` per accumulation, the target-coefficient dot product
//!   against a whole truncated bivariate product, split vs serial
//!   Horner, and one node's 160-point slice of a 4096-point orbit at
//!   degree 2048 by Horner per point vs one forward transform
//!   (`PreparedProgram::eval_slice`).
//!
//! Every modulus here starts its walk at [`prime_floor`], the floor both
//! engine schedules share, so the rows time the word-sized primes the
//! engine runs on. Every decode is checked before it is timed: it must
//! return the planted message and exactly the planted error positions,
//! so the smoke runs check the answers of every decode path at those
//! primes. Every row runs on one thread: the algebra never splits an
//! operation across threads, so `CAMELOT_THREADS` changes nothing here.
//!
//! Quadratic baselines (Horner, Newton, classical xgcd) and the whole
//! smallest-prime block are skipped above `2^14` — their columns read
//! `-` / `null` there — so the large decode-centric rows stay affordable.
//!
//! Writes `BENCH_algebra.json` (override with `--out`), the committed
//! trajectory for the algebra hot path. Regenerate with:
//!
//! ```text
//! cargo run --release -p camelot-bench --bin bench_algebra
//! ```
//!
//! Flags: `--min-log N` (default 8), `--max-log N` (default 16),
//! `--samples N` (default 3, the timer keeps the minimum), `--out PATH`.
//! CI smoke-runs tiny sizes: `--min-log 4 --max-log 6 --samples 1`.

use camelot_bench::{fmt_duration, Table};
use camelot_cluster::{node_slice, PreparedProgram};
use camelot_core::{prime_floor, ProofSpec};
use camelot_ff::{next_prime, ntt_prime, PrimeField, RngLike, SplitMix64};
use camelot_linalg::{MatMulTensor, YatesPlan};
use camelot_partition::Shape;
use camelot_poly::{
    cached_ntt_plan, eval_many, interpolate, interpolate_fast, lagrange_basis_at, vanishing_poly,
    ConsecutiveBasis, PointTree, Poly,
};
use camelot_rscode::{DecodeProfile, RsCode};
use std::time::{Duration, Instant};

/// `log2` of the element count the kernel microbenchmarks run on: large
/// enough to leave L1 yet small enough that a sample is sub-millisecond.
const KERNEL_LOG: u32 = 16;

/// `log2` of the orbit of the orbit-slice evaluator row: the 4096 points
/// `poly_faulted_fulldecode`'s code of length 2549 lies on.
const ORBIT_LOG: u32 = 12;

/// Largest `log2(len)` at which the quadratic baselines (Horner encode,
/// Newton interpolation, classical partial xgcd) still run; above this
/// only the quasi-linear paths are measured.
const NAIVE_MAX_LOG: u32 = 14;

struct Args {
    min_log: u32,
    max_log: u32,
    samples: usize,
    out: String,
}

fn parse_args() -> Args {
    let mut args =
        Args { min_log: 8, max_log: 16, samples: 3, out: "BENCH_algebra.json".to_string() };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| panic!("missing value for {flag}"));
        match flag.as_str() {
            "--min-log" => args.min_log = value().parse().expect("--min-log takes an integer"),
            "--max-log" => args.max_log = value().parse().expect("--max-log takes an integer"),
            "--samples" => args.samples = value().parse().expect("--samples takes an integer"),
            "--out" => args.out = value(),
            other => panic!("unknown flag {other} (expected --min-log/--max-log/--samples/--out)"),
        }
    }
    assert!(args.min_log <= args.max_log, "--min-log must not exceed --max-log");
    assert!(args.max_log < 30, "--max-log is unreasonably large");
    assert!(args.samples > 0, "--samples must be positive");
    args
}

/// The engine's prime floor for a length-`e` code at degree `e / 2`:
/// where both prime schedules start their walk.
fn engine_floor(e: usize) -> u64 {
    prime_floor(&ProofSpec::new(e / 2, 0, 0), e)
}

/// Minimum wall time over `samples` runs (after one warm-up).
fn best_of<T>(samples: usize, mut f: impl FnMut() -> T) -> Duration {
    std::hint::black_box(f());
    let mut best = Duration::MAX;
    for _ in 0..samples {
        let start = Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed());
    }
    best
}

/// The per-phase profile of the fastest (by phase total) of `samples`
/// decode runs, after one warm-up.
fn best_profile(samples: usize, mut f: impl FnMut() -> DecodeProfile) -> DecodeProfile {
    std::hint::black_box(f());
    let mut best = f();
    for _ in 1..samples {
        let p = f();
        if p.total() < best.total() {
            best = p;
        }
    }
    best
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn speedup(naive: Duration, fast: Duration) -> f64 {
    us(naive) / us(fast).max(1e-9)
}

/// JSON number or `null` for skipped quadratic baselines.
fn j_us(d: Option<Duration>) -> String {
    d.map_or("null".to_string(), |d| format!("{:.2}", us(d)))
}

fn j_speedup(naive: Option<Duration>, fast: Duration) -> String {
    naive.map_or("null".to_string(), |n| format!("{:.2}", speedup(n, fast)))
}

/// Table cell: speedup or `-` when the baseline was skipped.
fn t_speedup(naive: Option<Duration>, fast: Duration) -> String {
    naive.map_or("-".to_string(), |n| format!("{:.1}", speedup(n, fast)))
}

/// A deterministic random message polynomial of degree exactly `d`
/// (monic): the workload shape of every Reed–Solomon row.
fn random_message(field: &PrimeField, d: usize, rng: &mut SplitMix64) -> Poly {
    Poly::from_reduced(
        (0..=d).map(|i| if i == d { 1 } else { rng.next_u64() % field.modulus() }).collect(),
    )
}

/// A received word with an error planted on every 16th symbol (within
/// the unique-decoding radius for message degree `len/2`): the fault
/// pattern of every decode row.
fn fault_every_16th(field: &PrimeField, clean: &[u64]) -> Vec<Option<u64>> {
    let mut word: Vec<Option<u64>> = clean.iter().copied().map(Some).collect();
    for k in 0..clean.len() / 16 {
        word[k * 16] = Some(field.add(clean[k * 16], 1 + k as u64));
    }
    word
}

/// `word` with five spread-out symbols withheld, fixed per length.
fn erase_five(word: &[Option<u64>]) -> Vec<Option<u64>> {
    let mut erased = word.to_vec();
    for k in 0..5 {
        erased[k * word.len() / 8 + 3] = None;
    }
    erased
}

/// Best per-phase profile of Gao's algorithm decoding `word`, made from
/// the codeword `clean` of `msg`, beside the best time to certify the
/// same word once more. The decode must return `msg` and, as its error
/// positions, exactly the received symbols that differ from `clean`.
///
/// A code keeps its last accepted decode and certifies a word within the
/// radius of that codeword in `O(e)`, so decoding one word again and
/// again on one code would time the comparison. Every timed decode
/// therefore runs on a clone of the code, which shares its transform
/// plan or point tree but starts with nothing accepted, so it runs
/// Gao's algorithm. The certification is timed apart, on purpose, as `word`
/// again on the code that has just decoded it.
fn decode_profile(
    samples: usize,
    field: &PrimeField,
    code: &RsCode,
    (msg, clean): (&Poly, &[u64]),
    word: &[Option<u64>],
    d: usize,
) -> (DecodeProfile, Duration) {
    let decoded = code
        .clone()
        .decode(field, word, d)
        .unwrap_or_else(|err| panic!("bench word must decode: {err}"));
    assert_eq!(&decoded.poly, msg, "decode missed the planted message");
    let planted: Vec<usize> =
        (0..word.len()).filter(|&i| word[i].is_some_and(|y| y != clean[i])).collect();
    assert_eq!(decoded.error_positions, planted, "decode missed the planted errors");
    let gao = best_profile(samples, || {
        let (_, profile) = code.clone().decode_profiled(field, word, d).expect("checked above");
        assert!(!profile.interpolate.is_zero(), "a timed decode was certified");
        profile
    });
    // Leaves `word`'s codeword as the code's accepted decode.
    assert_eq!(code.decode(field, word, d), Ok(decoded.clone()), "reused code diverged");
    let certify = best_profile(samples, || {
        let (out, profile) = code.decode_profiled(field, word, d).expect("checked above");
        assert_eq!(out, decoded, "a certified decode diverged from Gao's");
        assert!(profile.interpolate.is_zero() && profile.xgcd.is_zero(), "not certified");
        profile
    });
    (gao, certify.total())
}

/// `"<name>_us"`, its three phase columns and `"<name>_certify_us"`, as
/// JSON object members.
fn j_profile(name: &str, (p, certify): (DecodeProfile, Duration)) -> String {
    format!(
        "\"{name}_us\": {:.2}, \"{name}_interpolate_us\": {:.2}, \
         \"{name}_xgcd_us\": {:.2}, \"{name}_reencode_us\": {:.2}, \"{name}_certify_us\": {:.2}",
        us(p.total()),
        us(p.interpolate),
        us(p.xgcd),
        us(p.reencode),
        us(certify)
    )
}

/// Million field elements per second for `len` elements processed in
/// `best` wall time.
fn melem_s(len: usize, best: Duration) -> f64 {
    len as f64 / best.as_secs_f64().max(1e-12) / 1e6
}

/// Field-kernel microbenchmarks: per-element scalar loops vs the chunked
/// slice kernels, on `2^KERNEL_LOG` in-field elements. Returns the
/// `"kernels"` JSON object and prints a small table. All variants
/// compute in place (field ops keep values in-field, and their cost is
/// data-independent), so no per-sample reset pollutes the throughput.
fn kernel_bench(field: &PrimeField, samples: usize, rng: &mut SplitMix64) -> String {
    let len = 1usize << KERNEL_LOG;
    let q = field.modulus();
    // Nonzero inputs so batch inversion never hits the zero short-circuit.
    let mut acc: Vec<u64> = (0..len).map(|_| 1 + rng.next_u64() % (q - 1)).collect();
    let b: Vec<u64> = (0..len).map(|_| 1 + rng.next_u64() % (q - 1)).collect();

    // The textbook per-element reduction — `(a as u128 * b as u128) % q`
    // via hardware 128-bit division — is the baseline the Barrett
    // kernels were built to displace (`tests/hot_regions.rs` bans `%` from hot
    // regions); the scalar column below is the already-branchless
    // `PrimeField::mul` loop.
    let t_mul_mod = best_of(samples, || {
        for (a, &c) in acc.iter_mut().zip(&b) {
            *a = ((u128::from(*a) * u128::from(c)) % u128::from(q)) as u64;
        }
    });
    let t_mul_scalar = best_of(samples, || {
        for (a, &c) in acc.iter_mut().zip(&b) {
            *a = field.mul(*a, c);
        }
    });
    let t_mul_slice = best_of(samples, || field.mul_slice(&mut acc, &b));
    let t_inv_batch = best_of(samples, || field.inv_batch(&mut acc));
    let t_inv_blocked = best_of(samples, || field.inv_batch_blocked(&mut acc));

    let mut table = Table::new(&["kernel (2^16 elems)", "baseline Me/s", "fast Me/s", "x"]);
    let row = |t: &mut Table, name: &str, base: Duration, fast: Duration| {
        t.row(&[
            name.to_string(),
            format!("{:.1}", melem_s(len, base)),
            format!("{:.1}", melem_s(len, fast)),
            format!("{:.2}", speedup(base, fast)),
        ]);
    };
    row(&mut table, "mod loop -> mul_slice", t_mul_mod, t_mul_slice);
    row(&mut table, "scalar mul -> mul_slice", t_mul_scalar, t_mul_slice);
    row(&mut table, "inv_batch -> blocked", t_inv_batch, t_inv_blocked);
    table.print("field slice kernels (vs textbook `%` loop and per-element scalar loops)");

    format!(
        concat!(
            "  \"kernels\": {{\"elements\": {},\n",
            "    \"baseline_note\": \"mod_loop is the textbook (a*b) % q u128-division loop; ",
            "scalar columns are per-element loops of the branchless Barrett field ops\",\n",
            "    \"mul\": {{\"mod_loop_melem_s\": {:.2}, \"scalar_melem_s\": {:.2}, ",
            "\"slice_melem_s\": {:.2}, ",
            "\"slice_speedup_vs_mod_loop\": {:.2}, \"slice_speedup_vs_scalar_mul\": {:.2}}},\n",
            "    \"inv\": {{\"batch_melem_s\": {:.2}, \"batch_blocked_melem_s\": {:.2}, ",
            "\"blocked_speedup\": {:.2}}}}}"
        ),
        len,
        melem_s(len, t_mul_mod),
        melem_s(len, t_mul_scalar),
        melem_s(len, t_mul_slice),
        speedup(t_mul_mod, t_mul_slice),
        speedup(t_mul_scalar, t_mul_slice),
        melem_s(len, t_inv_batch),
        melem_s(len, t_inv_blocked),
        speedup(t_inv_batch, t_inv_blocked),
    )
}

/// Calls per timed sample in [`evaluator_bench`]: enough that a sample is
/// far above timer resolution, few enough that the smoke run stays
/// instant.
const EVALUATOR_REPS: usize = 200;

/// Nanoseconds per call of `f`, best of `samples` batches of
/// [`EVALUATOR_REPS`] calls.
fn ns_per_call<T>(samples: usize, mut f: impl FnMut(usize) -> T) -> f64 {
    let best = best_of(samples, || {
        for rep in 0..EVALUATOR_REPS {
            std::hint::black_box(f(rep));
        }
    });
    best.as_secs_f64() * 1e9 / EVALUATOR_REPS as f64
}

/// The x-dependent building blocks of the catalogue evaluators, at the
/// shapes `bench_e2e`'s `catalogue_inproc` runs them: returns the
/// `"evaluators"` JSON object and prints a table. Each fast form is
/// checked against its reference before it is timed.
fn evaluator_bench(field: &PrimeField, samples: usize, rng: &mut SplitMix64) -> String {
    let q = field.modulus();
    let mut table = Table::new(&["evaluator block", "reference ns", "fast ns", "x"]);
    let mut row = |name: &str, reference: f64, fast: f64| {
        table.row(&[
            name.to_string(),
            format!("{reference:.0}"),
            format!("{fast:.0}"),
            format!("{:.2}", reference / fast.max(1e-9)),
        ]);
    };

    // Lagrange basis over 1..=R: one-shot (factorials and an inversion
    // per call) vs prepared (x-dependent sweeps only).
    let mut basis_json = Vec::new();
    for r_count in [49usize, 343] {
        let prepared = ConsecutiveBasis::new(field, r_count);
        let mut out = vec![0u64; r_count];
        let x_of = |rep: usize| r_count as u64 + 1 + rep as u64;
        prepared.basis_at(x_of(0), &mut out);
        assert_eq!(out, lagrange_basis_at(field, r_count, x_of(0)), "prepared basis diverged");
        let one_shot = ns_per_call(samples, |rep| lagrange_basis_at(field, r_count, x_of(rep)));
        let fast = ns_per_call(samples, |rep| prepared.basis_at(x_of(rep), &mut out));
        row(&format!("lagrange basis R={r_count}"), one_shot, fast);
        basis_json.push(format!(
            "{{\"nodes\": {r_count}, \"one_shot_ns\": {one_shot:.1}, \"basis_at_ns\": {fast:.1}}}"
        ));
    }

    // Strassen 4^4 -> 7^4 (the triangle inner transform): the compiled
    // ±1 plan vs one Barrett mul_add per accumulation, which is what the
    // uncompiled schedule paid for the same op count.
    let plan = YatesPlan::new(&MatMulTensor::strassen().alpha0().transpose(), 4);
    let x: Vec<u64> = (0..plan.input_len()).map(|_| rng.next_u64() % q).collect();
    let mut scratch = vec![0u64; plan.scratch_len()];
    let accumulations = plan.accumulations();
    let operands: Vec<u64> = (0..accumulations).map(|_| rng.next_u64() % q).collect();
    let mut sink = vec![0u64; plan.output_len()];
    let yates_mul_add = ns_per_call(samples, |_| {
        for (k, &v) in operands.iter().enumerate() {
            let slot = &mut sink[k % plan.output_len()];
            *slot = field.mul_add(*slot, q - 1, v);
        }
    });
    let yates_plan = ns_per_call(samples, |_| plan.apply(field, &x, &mut scratch)[0]);
    row("yates 256->2401 (8580 acc)", yates_mul_add, yates_plan);

    // Truncated bivariate polynomials at (|E|, |B|) = (6, 6): the one
    // coefficient the template reads vs the whole product.
    let shape = Shape::new(6, 6);
    let poly = |rng: &mut SplitMix64| -> Vec<u64> {
        (0..shape.stride()).map(|_| rng.next_u64() % q).collect()
    };
    let (a, b) = (poly(rng), poly(rng));
    let (mut product, mut reversed) = (vec![0u64; shape.stride()], vec![0u64; shape.stride()]);
    shape.mul_into(field, (&a, 7), (&b, 7), &mut product);
    assert_eq!(
        shape.top_coefficient_of_product(field, &a, &b, &mut reversed),
        product[shape.stride() - 1],
        "target coefficient diverged from the full product"
    );
    let full = ns_per_call(samples, |_| shape.mul_into(field, (&a, 7), (&b, 7), &mut product));
    let target =
        ns_per_call(samples, |_| shape.top_coefficient_of_product(field, &a, &b, &mut reversed));
    row("bipoly 7x7 target coefficient", full, target);

    // Horner on 2049 reduced coefficients: one serial mul_add chain vs
    // four interleaved Shoup chains in x^4.
    let coeffs: Vec<u64> = (0..2049).map(|_| rng.next_u64() % q).collect();
    let serial_horner = |x: u64| coeffs.iter().rev().fold(0u64, |acc, &c| field.mul_add(c, acc, x));
    assert_eq!(field.horner(&coeffs, 12_345), serial_horner(12_345), "split Horner diverged");
    let serial = ns_per_call(samples, |rep| serial_horner(rep as u64 + 2)) / coeffs.len() as f64;
    let split =
        ns_per_call(samples, |rep| field.horner(&coeffs, rep as u64 + 2)) / coeffs.len() as f64;
    row("horner, per coefficient", serial, split);

    // One node's slice of `poly_faulted_fulldecode`'s code (node 3 of
    // sixteen, e = 2549 on the 4096 orbit) at degree 2048: Horner per
    // point vs one forward transform of the orbit.
    let orbit_field = PrimeField::new(ntt_prime(1 << 61, ORBIT_LOG).0).unwrap();
    let root = cached_ntt_plan(&orbit_field, ORBIT_LOG).expect("prime admits the orbit").root();
    let (lo, hi) = node_slice(2549, 16, 3);
    let slice: Vec<u64> = std::iter::successors(Some(orbit_field.pow(root, lo as u64)), |&x| {
        Some(orbit_field.mul(x, root))
    })
    .take(hi - lo)
    .collect();
    let program =
        PreparedProgram::poly(&orbit_field, random_message(&orbit_field, 2048, rng).coeffs());
    let per_point = |points: &[u64]| points.iter().map(|&x| program.eval(x)).collect::<Vec<_>>();
    assert_eq!(program.eval_slice(&slice), per_point(&slice), "orbit transform diverged");
    let orbit_horner = best_of(samples, || per_point(&slice));
    let orbit_transform = best_of(samples, || program.eval_slice(&slice));
    row(
        &format!("orbit slice: horner -> transform ({} of {})", slice.len(), 1 << ORBIT_LOG),
        orbit_horner.as_secs_f64() * 1e9,
        orbit_transform.as_secs_f64() * 1e9,
    );
    table.print("evaluator building blocks (ns per call; reference = what the block replaced)");

    format!(
        concat!(
            "  \"evaluators\": {{\"prime\": {}, \"reps_per_sample\": {},\n",
            "    \"lagrange_basis\": [{}],\n",
            "    \"yates_strassen_k4\": {{\"input_len\": {}, \"output_len\": {}, ",
            "\"accumulations\": {}, \"mul_add_schedule_ns\": {:.1}, ",
            "\"plan_apply_ns\": {:.1}}},\n",
            "    \"bipoly_7x7\": {{\"full_product_ns\": {:.1}, ",
            "\"target_coefficient_ns\": {:.1}}},\n",
            "    \"horner\": {{\"coefficients\": {}, \"serial_ns_per_coefficient\": {:.3}, ",
            "\"split_ns_per_coefficient\": {:.3}}},\n",
            "    \"orbit_slice\": {{\"prime\": {}, \"degree\": 2048, \"orbit\": {}, \"lo\": {}, ",
            "\"points\": {}, \"horner_us\": {:.2}, \"transform_us\": {:.2}, ",
            "\"speedup\": {:.2}}}}}"
        ),
        q,
        EVALUATOR_REPS,
        basis_json.join(", "),
        plan.input_len(),
        plan.output_len(),
        accumulations,
        yates_mul_add,
        yates_plan,
        full,
        target,
        coeffs.len(),
        serial,
        split,
        orbit_field.modulus(),
        1 << ORBIT_LOG,
        lo,
        slice.len(),
        us(orbit_horner),
        us(orbit_transform),
        speedup(orbit_horner, orbit_transform),
    )
}

/// The consecutive-point code of length `e` over the first prime above
/// [`engine_floor`] — what `EngineConfig::sequential`'s `Smallest`
/// schedule builds, on a modulus with no two-adic structure: returns the
/// `"consecutive_smallest"` JSON object. The three interpolation routes
/// are checked against each other before they are timed.
fn consecutive_smallest_bench(e: usize, samples: usize, rng: &mut SplitMix64) -> String {
    let d = e / 2;
    let q = next_prime(engine_floor(e));
    let field = PrimeField::new(q).unwrap();
    let t_build = best_of(samples, || RsCode::consecutive(&field, e));
    let code = RsCode::consecutive(&field, e);
    let msg = random_message(&field, d, rng);
    let clean = code.encode(&field, &msg);

    let mut pts: Vec<(u64, u64)> =
        code.points().iter().copied().zip(clean.iter().copied()).collect();
    let tree = PointTree::new(&field, code.points());
    let newton = interpolate(&field, &pts);
    assert_eq!(interpolate_fast(&field, &pts), newton, "interpolate_fast diverged");
    assert_eq!(tree.interpolate(&clean), newton, "PointTree::interpolate diverged");
    let t_progression = best_of(samples, || interpolate(&field, &pts));
    let t_dispatch = best_of(samples, || tree.interpolate(&clean));
    // Two points swapped: no longer a progression, same interpolant.
    pts.swap(0, e - 1);
    assert_eq!(interpolate(&field, &pts), newton, "general triangle diverged");
    let t_general = best_of(samples, || interpolate(&field, &pts));

    let clean_word: Vec<Option<u64>> = clean.iter().copied().map(Some).collect();
    let planted = (&msg, clean.as_slice());
    let prof_clean = decode_profile(samples, &field, &code, planted, &clean_word, d);
    let faulted = fault_every_16th(&field, &clean);
    let prof_faulted = decode_profile(samples, &field, &code, planted, &faulted, d);
    format!(
        "{{\"prime\": {q}, \"build_us\": {:.2}, \"interpolate_us\": {:.2}, \
         \"interpolate_general_us\": {:.2}, \"interpolate_dispatch_us\": {:.2},\n      {},\n      {}}}",
        us(t_build),
        us(t_progression),
        us(t_general),
        us(t_dispatch),
        j_profile("decode", prof_clean),
        j_profile("faulted_decode", prof_faulted),
    )
}

fn main() {
    let args = parse_args();
    let kernel_field =
        PrimeField::new(ntt_prime(engine_floor(1 << KERNEL_LOG), KERNEL_LOG + 1).0).unwrap();
    let kernels = kernel_bench(&kernel_field, args.samples, &mut SplitMix64::new(0xCA_FE_F0_0D));
    let evaluators =
        evaluator_bench(&kernel_field, args.samples, &mut SplitMix64::new(0xE7_A1_0A_7E));
    let mut rows = Vec::new();
    // `+era` is the column to its left decoded again with symbols
    // erased; `5/8` is the partial-orbit code.
    let mut table = Table::new(&[
        "len", "prime", "enc tree", "x", "enc NTT", "x", "int tree", "x", "dec tree", "+era",
        "dec NTT", "~int", "~xgcd", "~reenc", "~cert", "+era", "dec 5/8", "+era", "xgcd x",
    ]);

    for log in args.min_log..=args.max_log {
        let e = 1usize << log;
        let d = e / 2;
        let naive_too = log <= NAIVE_MAX_LOG;
        // One NTT-friendly prime per length, admitting transforms of
        // length 2^(log+1) (products of two codeword-degree operands).
        let (q, _) = ntt_prime(engine_floor(e), log + 1);
        let field = PrimeField::new(q).unwrap();
        let mut rng = SplitMix64::new(0xBE_AC * u64::from(log));
        let msg = random_message(&field, d, &mut rng);

        // Consecutive points: subproduct-tree paths.
        let code = RsCode::consecutive(&field, e);
        let clean = code.encode(&field, &msg);
        let t_enc_naive = naive_too.then(|| {
            assert_eq!(clean, eval_many(&field, &msg, code.points()), "tree encode disagrees");
            best_of(args.samples, || eval_many(&field, &msg, code.points()))
        });
        let t_enc_tree = best_of(args.samples, || code.encode(&field, &msg));
        let pts: Vec<(u64, u64)> =
            code.points().iter().copied().zip(clean.iter().copied()).collect();
        let t_int_naive = naive_too.then(|| {
            assert_eq!(interpolate_fast(&field, &pts), interpolate(&field, &pts));
            best_of(args.samples, || interpolate(&field, &pts))
        });
        let t_int_tree = best_of(args.samples, || interpolate_fast(&field, &pts));
        let word = fault_every_16th(&field, &clean);
        let planted = (&msg, clean.as_slice());
        let prof = decode_profile(args.samples, &field, &code, planted, &word, d);
        let prof_e = decode_profile(args.samples, &field, &code, planted, &erase_five(&word), d).0;

        // The same code on the modulus the default schedule picks.
        let smallest = if naive_too {
            consecutive_smallest_bench(e, args.samples, &mut rng)
        } else {
            "null".to_string()
        };

        // Roots-of-unity points: transform-backed paths (the engine's
        // NTT-friendly schedule).
        let roots = RsCode::roots_of_unity(&field, e).expect("prime admits a length-e orbit");
        let clean_r = roots.encode(&field, &msg);
        let t_enc_r_naive = naive_too.then(|| {
            assert_eq!(clean_r, eval_many(&field, &msg, roots.points()), "NTT encode disagrees");
            best_of(args.samples, || eval_many(&field, &msg, roots.points()))
        });
        let t_enc_ntt = best_of(args.samples, || roots.encode(&field, &msg));
        let word_r = fault_every_16th(&field, &clean_r);
        let planted_r = (&msg, clean_r.as_slice());
        let prof_r = decode_profile(args.samples, &field, &roots, planted_r, &word_r, d);
        let word_r_e = erase_five(&word_r);
        let prof_r_e = decode_profile(args.samples, &field, &roots, planted_r, &word_r_e, d).0;

        // Partial orbit, the shape behind `poly_faulted_fulldecode`
        // (e = 2549 of 4096, degree 2048, sixteen nodes): 5/8 of the
        // orbit, one node's worth of errors, then one node's contiguous
        // slice erased besides.
        let e_p = 5 * e / 8;
        let partial = RsCode::roots_of_unity(&field, e_p).expect("prime admits the orbit");
        let msg_p = random_message(&field, e / 2, &mut rng);
        let clean_p = partial.encode(&field, &msg_p);
        let word_p = fault_every_16th(&field, &clean_p);
        let planted_p = (&msg_p, clean_p.as_slice());
        let prof_p = decode_profile(args.samples, &field, &partial, planted_p, &word_p, e / 2);
        let crashed = e_p / 2..e_p / 2 + (e_p / 16).max(1);
        let mut word_p_e = word_p.clone();
        word_p_e[crashed.clone()].fill(None);
        let prof_p_e = decode_profile(args.samples, &field, &partial, planted_p, &word_p_e, e / 2);

        // The partial-xgcd step in isolation, on the exact triple the
        // Gao decoder feeds it: g0 vanishing on the points, g1 the
        // interpolation of the (faulted) received word.
        let g0 = vanishing_poly(&field, code.points());
        let word_vals: Vec<(u64, u64)> = code
            .points()
            .iter()
            .zip(&word)
            .map(|(&x, sym)| (x, sym.expect("fault_every_16th keeps all symbols")))
            .collect();
        let g1 = interpolate_fast(&field, &word_vals);
        let stop = (e + d + 2) / 2;
        let t_xgcd_fast = best_of(args.samples, || g0.partial_xgcd_fast(&field, &g1, stop));
        let t_xgcd_classical = naive_too.then(|| {
            assert_eq!(
                g0.partial_xgcd_fast(&field, &g1, stop),
                g0.partial_xgcd(&field, &g1, stop),
                "half-GCD xgcd diverged from the classical oracle"
            );
            best_of(args.samples, || g0.partial_xgcd(&field, &g1, stop))
        });

        table.row(&[
            e.to_string(),
            q.to_string(),
            fmt_duration(t_enc_tree),
            t_speedup(t_enc_naive, t_enc_tree),
            fmt_duration(t_enc_ntt),
            t_speedup(t_enc_r_naive, t_enc_ntt),
            fmt_duration(t_int_tree),
            t_speedup(t_int_naive, t_int_tree),
            fmt_duration(prof.0.total()),
            fmt_duration(prof_e.total()),
            fmt_duration(prof_r.0.total()),
            fmt_duration(prof_r.0.interpolate),
            fmt_duration(prof_r.0.xgcd),
            fmt_duration(prof_r.0.reencode),
            fmt_duration(prof_r.1),
            fmt_duration(prof_r_e.total()),
            fmt_duration(prof_p.0.total()),
            fmt_duration(prof_p_e.0.total()),
            t_speedup(t_xgcd_classical, t_xgcd_fast),
        ]);
        rows.push(format!(
            concat!(
                "    {{\"log2_len\": {}, \"len\": {}, \"prime\": {}, \"degree\": {},\n",
                "     \"consecutive\": {{",
                "\"encode_horner_us\": {}, \"encode_tree_us\": {:.2}, ",
                "\"encode_speedup\": {}, ",
                "\"interpolate_newton_us\": {}, \"interpolate_tree_us\": {:.2}, ",
                "\"interpolate_speedup\": {}, {}, \"erasure_decode_us\": {:.2}}},\n",
                "     \"consecutive_smallest\": {},\n",
                "     \"roots_of_unity\": {{",
                "\"encode_horner_us\": {}, \"encode_ntt_us\": {:.2}, ",
                "\"encode_speedup\": {}, {}, \"erasure_decode_us\": {:.2}}},\n",
                "     \"partial_orbit\": {{\"len\": {}, \"degree\": {}, \"errors\": {}, ",
                "\"erasures\": {},\n      {},\n      {}}},\n",
                "     \"xgcd\": {{\"stop_degree\": {}, \"classical_us\": {}, ",
                "\"fast_us\": {:.2}, \"speedup\": {}}}}}"
            ),
            log,
            e,
            q,
            d,
            j_us(t_enc_naive),
            us(t_enc_tree),
            j_speedup(t_enc_naive, t_enc_tree),
            j_us(t_int_naive),
            us(t_int_tree),
            j_speedup(t_int_naive, t_int_tree),
            j_profile("decode", prof),
            us(prof_e.total()),
            smallest,
            j_us(t_enc_r_naive),
            us(t_enc_ntt),
            j_speedup(t_enc_r_naive, t_enc_ntt),
            j_profile("decode", prof_r),
            us(prof_r_e.total()),
            e_p,
            e / 2,
            e_p / 16,
            crashed.len(),
            j_profile("decode", prof_p),
            j_profile("erasure_decode", prof_p_e),
            stop,
            j_us(t_xgcd_classical),
            us(t_xgcd_fast),
            j_speedup(t_xgcd_classical, t_xgcd_fast),
        ));
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"schema\": \"camelot-bench-algebra/v11\",\n",
            "  \"description\": \"Field slice-kernel throughput (Melem/s, chunked vs per-element ",
            "scalar loops), the per-point building blocks of the catalogue evaluators (ns per ",
            "call, each beside what it replaced; orbit_slice is one node's slice of the 4096 ",
            "orbit at degree 2048, Horner per point vs one forward transform, in us), plus the ",
            "Reed-Solomon codeword pipeline: ",
            "Horner/Newton/classical-xgcd ",
            "baselines vs subproduct-tree, NTT, and half-GCD fast paths (message degree = len/2; ",
            "every *decode_us is the sum of the decode's three phases, listed or not, of Gao's ",
            "algorithm on a clone of the code, which starts with no accepted codeword to ",
            "certify against; *decode_certify_us times that certification on purpose: the same ",
            "word again on the code that has just decoded it; ",
            "erasure_decode_us decodes the block's word with five more symbols withheld; ",
            "consecutive_smallest is the consecutive-point code over the first prime >= 2^61, ",
            "the Smallest schedule's modulus (no NTT: Karatsuba products, quadratic ",
            "interpolation below 4096 points): interpolate_us on the progression, ",
            "interpolate_general_us on the same points with two swapped, ",
            "interpolate_dispatch_us through the code's cached tree, decode of a clean word ",
            "and faulted_decode of the every-16th-symbol word, null above 2^14; ",
            "partial_orbit is a roots-of-unity code on 5/8 of the 2^log2_len orbit at half the ",
            "orbit's degree, the shape of bench_e2e's poly_faulted_fulldecode, its erasures one ",
            "contiguous sixteenth of the code; quadratic baselines are null above ",
            "2^14; every row runs on one thread)\",\n",
            "  \"prime_schedule\": \"smallest q >= 2^61 (the engine's prime_floor) with ",
            "q = 1 mod 2^(log2_len+1); consecutive_smallest: smallest prime q >= 2^61\",\n",
            "  \"samples\": {},\n",
            "  \"timer\": \"best-of-samples wall clock, release build\",\n",
            "{},\n",
            "{},\n",
            "  \"results\": [\n{}\n  ]\n",
            "}}\n"
        ),
        args.samples,
        kernels,
        evaluators,
        rows.join(",\n")
    );
    std::fs::write(&args.out, &json)
        .unwrap_or_else(|err| panic!("cannot write {}: {err}", args.out));
    table.print("algebra stack: fast paths (speedups vs naive baselines where measured)");
    println!("\nwrote {}", args.out);
}
