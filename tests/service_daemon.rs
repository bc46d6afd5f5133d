//! The service layer end to end: coalescing of concurrent requests onto
//! shared broadcast rounds, zero-round cache hits with bit-identical
//! certificates, worker-failure recovery, and the TCP daemon loop.

use camelot::core::{
    choose_primes, ntt_log_len, CamelotError, CamelotOutcome, CamelotProblem, Certificate,
    ChaosEffect, ChaosPlan, Engine, FailureCause, PrimeProof, PrimeSchedule, ProofSpec, WorkerMode,
};
use camelot::ff::{is_prime_u64, PrimeField};
use camelot::poly::interpolate;
use camelot::server::{
    request, run_daemon, PolyRequest, Request, Service, ServiceConfig, ServicePoly,
};
use std::net::TcpListener;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

fn poly(coefficients: Vec<u64>) -> PolyRequest {
    PolyRequest {
        coefficients,
        sum_count: 16,
        value_bits: 60,
        min_modulus: 1 << 20,
        schedule: PrimeSchedule::Smallest,
    }
}

/// `Σ_{x=0}^{n-1} P(x)` computed directly, the reference answer.
fn poly_sum(coefficients: &[u64], n: u64) -> u128 {
    (0..n)
        .map(|x| {
            coefficients.iter().rev().fold(0u128, |acc, &c| acc * u128::from(x) + u128::from(c))
        })
        .sum()
}

fn service(batch_window_ms: u64) -> Arc<Service> {
    let config = ServiceConfig {
        workers: WorkerMode::Threads,
        batch_window: Duration::from_millis(batch_window_ms),
        ..ServiceConfig::default()
    };
    Arc::new(Service::new(config).unwrap())
}

#[test]
fn concurrent_requests_share_one_batch_of_rounds() {
    let service = service(400);
    let barrier = Arc::new(Barrier::new(2));
    let polys = [poly(vec![3, 1, 4]), poly(vec![1, 5, 9, 2])];
    let handles: Vec<_> = polys
        .iter()
        .map(|p| {
            let (service, barrier, p) = (Arc::clone(&service), Arc::clone(&barrier), p.clone());
            thread::spawn(move || {
                barrier.wait();
                service.prepare(&p).unwrap()
            })
        })
        .collect();
    let outcomes: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for (p, outcome) in polys.iter().zip(&outcomes) {
        assert_eq!(outcome.output, poly_sum(&p.coefficients, p.sum_count));
        assert_eq!(
            outcome.report.coalesced_requests, 2,
            "both requests must land in one admission batch"
        );
        assert_eq!(outcome.report.cache_hits, 0);
    }
    // The batch shares its per-prime rounds: both requests report the
    // same round count R, and the two solo runs below each pay at least
    // R on their own — so the coalesced total R is strictly less than
    // the sum of solo runs.
    let shared_rounds = outcomes[0].report.rounds;
    assert_eq!(outcomes[1].report.rounds, shared_rounds);
    assert!(shared_rounds > 0);
    let solo: usize = [poly(vec![2, 7, 1]), poly(vec![8, 2, 8, 1])]
        .iter()
        .map(|p| {
            let outcome = service.prepare(p).unwrap();
            assert_eq!(outcome.report.coalesced_requests, 1);
            outcome.report.rounds
        })
        .sum();
    assert!(
        shared_rounds < solo,
        "coalesced rounds ({shared_rounds}) must undercut solo total ({solo})"
    );
    service.shutdown().unwrap();
}

/// The answer and moduli of `outcome`'s certificate: the one prime walk
/// both schedules share, `1 mod 2^ntt_log_len(e)`.
fn assert_prepared_under_its_schedule(p: &PolyRequest, outcome: &CamelotOutcome<u128>) {
    assert_eq!(outcome.output, poly_sum(&p.coefficients, p.sum_count));
    let e = outcome.certificate.code_length;
    let moduli: Vec<u64> = outcome.certificate.proofs.iter().map(|proof| proof.modulus).collect();
    let spec = ServicePoly(p.clone()).spec();
    let step = 1u64 << ntt_log_len(e);
    assert!(moduli.iter().all(|q| q % step == 1), "{moduli:?} not 1 mod {step}");
    assert_eq!(moduli, choose_primes(&spec, e), "{:?}", p.schedule);
}

/// A request naming either prime schedule is prepared on the shared
/// prime walk, on a daemon with default settings: alone, and in one
/// admission window beside a request naming the other schedule, with
/// which it now shares one batch of rounds.
#[test]
fn each_request_is_prepared_under_its_own_prime_schedule() {
    let service = service(400);
    let ntt =
        |coefficients| PolyRequest { schedule: PrimeSchedule::NttFriendly, ..poly(coefficients) };
    let solo = ntt(vec![2, 7, 1, 8]);
    assert_prepared_under_its_schedule(&solo, &service.prepare(&solo).unwrap());

    let barrier = Arc::new(Barrier::new(2));
    let polys = [ntt(vec![3, 1, 4]), poly(vec![1, 5, 9, 2])];
    let handles: Vec<_> = polys
        .iter()
        .map(|p| {
            let (service, barrier, p) = (Arc::clone(&service), Arc::clone(&barrier), p.clone());
            thread::spawn(move || {
                barrier.wait();
                service.prepare(&p).unwrap()
            })
        })
        .collect();
    for (p, handle) in polys.iter().zip(handles) {
        let outcome = handle.join().unwrap();
        assert_prepared_under_its_schedule(p, &outcome);
        assert_eq!(outcome.report.coalesced_requests, 2, "both schedules share one batch");
    }
    service.shutdown().unwrap();
}

#[test]
fn repeat_query_is_served_from_the_store_with_zero_rounds() {
    let service = service(5);
    let p = poly(vec![2, 0, 0, 0, 3]);
    let first = service.prepare(&p).unwrap();
    assert!(first.report.rounds > 0);
    assert_eq!(first.report.cache_hits, 0);
    let second = service.prepare(&p).unwrap();
    assert_eq!(second.report.rounds, 0, "cache hit must run no rounds");
    assert_eq!(second.report.cache_hits, 1);
    assert!(second.report.verification_evaluations > 0, "redeem still spot-checks");
    assert_eq!(second.output, first.output);
    assert_eq!(
        second.certificate.to_wire(),
        first.certificate.to_wire(),
        "the served certificate is bit-identical to the prepared one"
    );
    // A different polynomial is a different content address: miss.
    let other = service.prepare(&poly(vec![2, 0, 0, 0, 4])).unwrap();
    assert!(other.report.rounds > 0);
    service.shutdown().unwrap();
}

/// The store keys a problem without its prime schedule: a request
/// naming the other schedule redeems the certificate the first one
/// prepared, with zero rounds.
#[test]
fn either_schedule_redeems_the_same_stored_certificate() {
    let service = service(5);
    let p = poly(vec![1, 4, 1, 4, 2]);
    let first = service.prepare(&p).unwrap();
    assert!(first.report.rounds > 0);
    let ntt = PolyRequest { schedule: PrimeSchedule::NttFriendly, ..p };
    let second = service.prepare(&ntt).unwrap();
    assert_eq!(second.report.rounds, 0, "the other schedule must hit the store");
    assert_eq!(second.report.cache_hits, 1);
    assert_eq!(second.output, first.output);
    assert_eq!(second.certificate, first.certificate);
    service.shutdown().unwrap();
}

#[test]
fn killed_worker_is_respawned_and_service_recovers() {
    let service = service(5);
    let first = service.prepare(&poly(vec![6, 6, 6])).unwrap();
    assert!(first.report.rounds > 0);
    service.crash_worker(1).unwrap();
    // The next round respawns the dead worker before its tasks go out:
    // the kill costs no failed batch and no retry.
    let second = service.prepare(&poly(vec![7, 7, 7])).unwrap();
    assert_eq!(second.output, poly_sum(&[7, 7, 7], 16));
    assert_eq!(second.report.retries, 0, "the kill must cost no retry");
    let status = service.status();
    assert_eq!(status.worker_failures, 0, "the kill must cost no failed batch");
    assert!(status.respawns >= 1, "the pool must have respawned the worker");
    assert_eq!(
        status.workers,
        ServiceConfig::default().nodes,
        "the pool must be back to full strength"
    );
    service.shutdown().unwrap();
}

#[test]
fn hung_worker_is_demoted_within_the_deadline_and_the_round_still_decodes() {
    // Node 1 hangs mid-round on every round. The coordinator's 300 ms
    // io deadline — far below the historical 60 s socket timeout —
    // demotes it to a crash erasure, and with f = 1 the decoder reads
    // straight through the hole. The caller just sees a success.
    let config = ServiceConfig {
        workers: WorkerMode::Threads,
        batch_window: Duration::from_millis(5),
        io_deadline: Some(Duration::from_millis(300)),
        demote_dead_workers: true,
        chaos: Some(ChaosPlan::with_effects(4, &[(1, ChaosEffect::Hang)]).unwrap()),
        ..ServiceConfig::default()
    };
    let service = Arc::new(Service::new(config).unwrap());
    // 100 bits take two primes, so two rounds.
    let p = PolyRequest { value_bits: 100, ..poly(vec![4, 0, 9]) };
    let outcome = service.prepare(&p).unwrap();
    assert_eq!(outcome.output, poly_sum(&p.coefficients, p.sum_count));
    // What the rounds cost is asserted on virtual time by the pool's
    // drain tests, and on the wall clock once, by
    // `tests/transport_backends.rs`.
    assert!(outcome.report.rounds >= 2, "the hang is met in more than one round");
    assert!(
        outcome.report.demotions.iter().any(|d| d.node == 1 && d.cause == FailureCause::Timeout),
        "the hang must surface as a structured timeout demotion, got {:?}",
        outcome.report.demotions
    );
    assert!(outcome.report.erasures_seen > 0, "the demotion must decode as an erasure");
    assert!(outcome.certificate.crashed_nodes.contains(&1));
    service.shutdown().unwrap();
}

#[test]
fn daemon_serves_prepare_verify_status_and_shuts_down() {
    let (addr, daemon) = daemon(service(5));
    let p = poly(vec![1, 2, 3]);

    let prepared = request(&addr, &Request::Prepare(p.clone())).unwrap();
    assert!(prepared.ok, "{:?}", prepared.error);
    assert_eq!(prepared.output, Some(poly_sum(&p.coefficients, p.sum_count)));
    assert!(prepared.rounds > 0);
    let certificate = prepared.certificate.clone().unwrap();

    // Round-trip the certificate through the verify verb: no rounds.
    let verified =
        request(&addr, &Request::Verify { poly: p.clone(), certificate: certificate.clone() })
            .unwrap();
    assert!(verified.ok, "{:?}", verified.error);
    assert_eq!(verified.output, prepared.output);
    assert_eq!(verified.rounds, 0);

    // A tampered certificate must be rejected, not crash the daemon.
    // Bump the top coefficient of the first prime proof.
    let tampered: String = certificate
        .lines()
        .map(|line| {
            if line.starts_with("proof ") {
                let mut tokens: Vec<String> = line.split(' ').map(str::to_string).collect();
                if let Some(last) = tokens.last_mut() {
                    *last = (last.parse::<u64>().unwrap() + 1).to_string();
                }
                format!("{}\n", tokens.join(" "))
            } else {
                format!("{line}\n")
            }
        })
        .collect();
    let rejected = request(&addr, &Request::Verify { poly: p.clone(), certificate: tampered });
    assert!(rejected.is_err() || !rejected.unwrap().ok);

    // Repeat prepare: served from the store.
    let repeat = request(&addr, &Request::Prepare(p.clone())).unwrap();
    assert!(repeat.ok);
    assert_eq!(repeat.rounds, 0);
    assert!(repeat.cache_hit);
    assert_eq!(repeat.certificate, Some(certificate));

    let status = request(&addr, &Request::Status).unwrap();
    assert!(status.ok);
    assert!(status.requests >= 3);
    assert!(status.store_hits >= 1);
    assert!(status.workers > 0);

    let bye = request(&addr, &Request::Shutdown).unwrap();
    assert!(bye.ok);
    daemon.join().unwrap().unwrap();
}

#[test]
fn answers_wider_than_u128_are_refused_before_any_round() {
    let (addr, daemon) = daemon(service(5));
    let wide = PolyRequest { value_bits: 129, ..poly(vec![1, 2, 3]) };
    let refused = request(&addr, &Request::Prepare(wide)).unwrap();
    assert!(!refused.ok);
    assert!(refused.error.unwrap().contains("value-bits 129"));
    assert_eq!((refused.rounds, refused.certificate), (0, None));
    let status = request(&addr, &Request::Status).unwrap();
    assert_eq!(
        (status.store_hits, status.store_misses, status.workers),
        (0, 0, 0),
        "no store lookup and no pool start"
    );
    shut_down_within_a_second(&addr, daemon);

    // Past the service, the engine itself refuses a spec wider than its
    // prime walk's cap, where a coverage target that wrapped once walked
    // one prime and answered mod that prime.
    let wrapped = ServicePoly(PolyRequest {
        coefficients: vec![(1 << 63) + 5, 1],
        sum_count: 1,
        value_bits: u64::MAX,
        ..poly(vec![])
    });
    assert!(matches!(
        Engine::sequential(4, 1).run(&wrapped),
        Err(CamelotError::BadConfiguration { .. })
    ));
}

/// A 60-bit certificate on two primes — what the walk took for 60 bits
/// before it took the fewest that cover them, and what a store written
/// then holds — still redeems, on the engine and through the daemon's
/// `verify`, with the right answer. The proofs are the request's
/// polynomial interpolated at `d + 1` points mod each prime, which is
/// what a decode produced.
#[test]
fn two_prime_certificates_of_sixty_bits_still_redeem() {
    let p = poly(vec![2, 7, 1, 8, 2, 8]);
    let problem = ServicePoly(p.clone());
    let spec = problem.spec();
    let d = spec.degree_bound;
    let e = d + 3;
    let moduli = choose_primes(&ProofSpec { value_bits: 61, ..spec }, e);
    assert_eq!((moduli.len(), choose_primes(&spec, e).len()), (2, 1));
    let proofs = moduli
        .iter()
        .map(|&q| {
            let field = PrimeField::new(q).expect("prime");
            let evaluator = problem.evaluator(&field);
            let points: Vec<(u64, u64)> = (0..=d as u64).map(|x| (x, evaluator.eval(x))).collect();
            PrimeProof { modulus: q, coefficients: interpolate(&field, &points).coeffs().to_vec() }
        })
        .collect();
    let certificate = Certificate {
        proofs,
        code_length: e,
        degree_bound: d,
        identified_faulty_nodes: Vec::new(),
        crashed_nodes: Vec::new(),
    };
    let expect = poly_sum(&p.coefficients, p.sum_count);
    let redeemed = Engine::sequential(4, 1).redeem(&problem, &certificate).expect("redeems");
    assert_eq!(redeemed.output, expect);
    let service = service(5);
    let verified = service.verify(&p, &certificate.to_wire()).expect("verifies");
    assert_eq!((verified.output, verified.report.rounds), (expect, 0));
    assert_eq!(verified.certificate.proofs.len(), 2);
    service.shutdown().unwrap();
}

/// A client-made certificate on an admissible prime with no transform
/// for the sum (`q ≡ 3 mod 4` above `2^61`), asking for the sum over
/// `u64::MAX` points, is verified in bounded time: the run's power sums
/// come from the recurrence, not from a Horner pass per point. The
/// answer is `Σ_{x<N} (4 + 9x²) = 4N + 3(N − 1)N(2N − 1)/2 mod q`.
#[test]
fn verify_sums_any_count_on_any_admissible_prime_in_bounded_time() {
    let q = ((1u64 << 61) + 3..).step_by(4).find(|&q| is_prime_u64(q)).expect("a prime");
    let p = PolyRequest { sum_count: u64::MAX, ..poly(vec![4, 0, 9]) };
    let certificate = Certificate {
        proofs: vec![PrimeProof { modulus: q, coefficients: vec![4, 0, 9] }],
        code_length: 5,
        degree_bound: 2,
        identified_faulty_nodes: Vec::new(),
        crashed_nodes: Vec::new(),
    };
    let service = service(5);
    let start = Instant::now();
    let outcome = service.verify(&p, &certificate.to_wire()).expect("verifies");
    assert!(start.elapsed() < Duration::from_secs(1), "took {:?}", start.elapsed());
    let field = PrimeField::new(q).expect("prime");
    let n = field.reduce(p.sum_count);
    let cubic = field.mul(field.mul(field.sub(n, 1), n), field.sub(field.add(n, n), 1));
    let expect = field.add(field.mul(4, n), field.mul(field.mul(3, cubic), field.inv(2)));
    assert_eq!(outcome.output, u128::from(expect));
    service.shutdown().unwrap();
}

/// Starts a daemon on an ephemeral port over `service`.
fn daemon(service: Arc<Service>) -> (String, thread::JoinHandle<Result<(), String>>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    (addr, thread::spawn(move || run_daemon(&listener, &service)))
}

/// Sends `shutdown` and waits for `run_daemon` to return.
fn shut_down_within_a_second(addr: &str, daemon: thread::JoinHandle<Result<(), String>>) {
    let started = Instant::now();
    assert!(request(addr, &Request::Shutdown).unwrap().ok);
    daemon.join().unwrap().unwrap();
    let elapsed = started.elapsed();
    assert!(elapsed < Duration::from_secs(1), "shutdown took {elapsed:?}");
}

#[test]
fn idle_daemon_wakes_up_for_shutdown() {
    // The accept loop blocks with no timeout; only the shutdown
    // handler's wake-up connection gets run_daemon out of it, to join
    // its handlers and reap the (started) worker pool.
    let (addr, daemon) = daemon(service(5));
    assert!(request(&addr, &Request::Prepare(poly(vec![5, 5, 5]))).unwrap().ok);
    assert_eq!(request(&addr, &Request::Status).unwrap().workers, 4);
    shut_down_within_a_second(&addr, daemon);
}

#[test]
fn daemon_stays_prompt_under_sustained_load() {
    // 500 requests with no idle gap between them: every one is answered
    // and the handlers they leave behind do not slow shutdown down.
    let (addr, daemon) = daemon(service(5));
    for _ in 0..500 {
        assert!(request(&addr, &Request::Status).unwrap().ok);
    }
    shut_down_within_a_second(&addr, daemon);
}
