//! Experiment G4 — chaos engineering the proof cluster.
//!
//! Claim: transport-level chaos (delays, dropped and truncated frames,
//! garbled symbols, duplicate delivery, connection resets, hangs) is
//! absorbed by the same Reed–Solomon distance that the paper's fault
//! model budgets for byzantine nodes. A seeded [`ChaosPlan`] afflicts
//! the same nodes the same way on every backend, so a chaos run is as
//! reproducible as a clean one: slow or dead workers are demoted to
//! crash erasures at the I/O deadline, garbled replies surface as
//! decoder-corrected errors, and when a draw lands outside the decoding
//! radius the engine escalates the fault budget and retries.
//!
//! The sweep raises the per-node fault rate and reports, per backend:
//! wall clock (also in I/O deadlines), the recovery counters (erasures
//! seen, errors corrected, retries, degraded escalations, demotions),
//! and whether the produced certificate is bit-identical to the
//! in-process reference under the same plan.
//!
//! It also gates the pool's timing contract — a deadline is spent once:
//! a `socket` run that timed a node out, took several rounds and needed
//! no retry must finish within two I/O deadlines, pool start and
//! shutdown included.
//!
//! Flags: `--nodes K` (default 16), `--fault-tolerance F` (default
//! `(K - d - 1) / 2`, one point per node), `--rates P1,P2,...` (percent,
//! default `0,12,25,50`), `--seed S`, `--escalations N` (default 2),
//! `--deadline-ms N` (default 300), `--backend all|inproc|socket`
//! (default all).

use camelot_bench::{fmt_duration, Table};
use camelot_cluster::{Backend, ChaosPlan, FailureCause, TransportTuning, WorkerMode};
use camelot_core::{
    CamelotError, CamelotOutcome, CamelotProblem, Engine, EngineConfig, PrimeSchedule,
    RecoveryPolicy,
};
use camelot_server::{PolyRequest, ServicePoly};
use std::time::{Duration, Instant};

struct Args {
    nodes: usize,
    fault_tolerance: Option<usize>,
    rates: Vec<u8>,
    seed: u64,
    escalations: u32,
    deadline_ms: u64,
    backend: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        nodes: 16,
        fault_tolerance: None,
        rates: vec![0, 12, 25, 50],
        seed: 0xC4A0_55ED,
        escalations: 2,
        deadline_ms: 300,
        backend: "all".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| panic!("missing value for {flag}"));
        match flag.as_str() {
            "--nodes" => args.nodes = value().parse().expect("--nodes"),
            "--fault-tolerance" => {
                args.fault_tolerance = Some(value().parse().expect("--fault-tolerance"));
            }
            "--rates" => {
                args.rates = value()
                    .split(',')
                    .map(|r| r.trim().parse().expect("--rates takes percents like 0,12,25,50"))
                    .collect();
            }
            "--seed" => args.seed = value().parse().expect("--seed"),
            "--escalations" => args.escalations = value().parse().expect("--escalations"),
            "--deadline-ms" => args.deadline_ms = value().parse().expect("--deadline-ms"),
            "--backend" => args.backend = value(),
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

/// A wire-expressible problem: the proof polynomial `P` as explicit
/// coefficients, so socket workers rebuild it from the task message
/// alone; the answer is `P(0)` over the integers.
fn wire_poly(coefficients: Vec<u64>) -> ServicePoly {
    ServicePoly(PolyRequest {
        coefficients,
        sum_count: 1,
        value_bits: 64,
        min_modulus: 1 << 20,
        schedule: PrimeSchedule::Smallest,
    })
}

fn backend_names(selected: &str) -> Vec<&'static str> {
    let all = ["inproc", "socket"];
    if selected == "all" {
        return all.to_vec();
    }
    let found: Vec<&'static str> = all.iter().copied().filter(|name| *name == selected).collect();
    assert!(!found.is_empty(), "unknown --backend {selected}");
    found
}

fn run_backend(
    name: &str,
    args: &Args,
    fault_tolerance: usize,
    chaos: &ChaosPlan,
    tuning: &TransportTuning,
    problem: &ServicePoly,
) -> Result<CamelotOutcome<u128>, CamelotError> {
    let config = EngineConfig::sequential(args.nodes, fault_tolerance)
        .with_tuning(tuning.clone())
        .with_chaos(chaos.clone())
        .with_recovery(RecoveryPolicy::escalating(args.escalations));
    let backend = match name {
        "inproc" => Backend::InProcess,
        "socket" => Backend::Socket(WorkerMode::Threads),
        other => panic!("unknown backend {other}"),
    };
    Engine::new(config.with_backend(backend)).run(problem)
}

fn main() {
    let args = parse_args();
    let problem = wire_poly(vec![271_828_182, 8, 4, 5]);
    let degree = problem.spec().degree_bound;
    // One point per node by default: e = d + 1 + 2f = nodes.
    let fault_tolerance =
        args.fault_tolerance.unwrap_or_else(|| (args.nodes.saturating_sub(degree + 1)) / 2);
    let tuning = TransportTuning::default()
        .with_io_deadline(Duration::from_millis(args.deadline_ms.max(1)))
        .with_demotion(true);
    let backends = backend_names(&args.backend);

    let mut headers = vec!["rate %", "afflicted", "backend", "time", "deadlines", "status"];
    headers.extend(["erasures", "errors", "retries", "degraded", "demoted", "identical"]);
    let mut table = Table::new(&headers);

    for &rate in &args.rates {
        let chaos = ChaosPlan::random(args.nodes, rate, args.seed);
        let afflicted = chaos.affected_nodes().len();
        // The in-process run is the per-rate reference every other
        // backend's certificate must match bit for bit.
        let reference =
            run_backend("inproc", &args, fault_tolerance, &chaos, &tuning, &problem).ok();
        for name in &backends {
            let start = Instant::now();
            let result = run_backend(name, &args, fault_tolerance, &chaos, &tuning, &problem);
            let elapsed = start.elapsed();
            let deadlines =
                format!("{:.2}", elapsed.as_secs_f64() / tuning.io_deadline.as_secs_f64());
            match result {
                Ok(outcome) => {
                    assert_eq!(
                        outcome.output,
                        u128::from(problem.0.coefficients[0]),
                        "{name} at {rate}%: chaos corrupted the recovered answer"
                    );
                    let report = &outcome.report;
                    let timed_out =
                        report.demotions.iter().any(|d| d.cause == FailureCause::Timeout);
                    if *name == "socket"
                        && timed_out
                        && report.rounds >= 2
                        && report.retries == 0
                        && report.degraded == 0
                    {
                        assert!(
                            elapsed < tuning.io_deadline * 2,
                            "{name} at {rate}%: a deadline is spent once, but {} rounds took \
                             {deadlines} deadlines",
                            report.rounds
                        );
                    }
                    let identical = match &reference {
                        Some(want) => {
                            if outcome.certificate.to_wire() == want.certificate.to_wire() {
                                "yes".to_string()
                            } else {
                                "NO".to_string()
                            }
                        }
                        None => "-".to_string(),
                    };
                    table.row(&[
                        rate.to_string(),
                        afflicted.to_string(),
                        (*name).to_string(),
                        fmt_duration(elapsed),
                        deadlines,
                        "ok".to_string(),
                        outcome.report.erasures_seen.to_string(),
                        outcome.report.errors_corrected.to_string(),
                        outcome.report.retries.to_string(),
                        outcome.report.degraded.to_string(),
                        outcome.report.demotions.len().to_string(),
                        identical,
                    ]);
                }
                Err(err) => {
                    table.row(&[
                        rate.to_string(),
                        afflicted.to_string(),
                        (*name).to_string(),
                        fmt_duration(elapsed),
                        deadlines,
                        format!("failed: {err}"),
                        "-".to_string(),
                        "-".to_string(),
                        "-".to_string(),
                        "-".to_string(),
                        "-".to_string(),
                        "-".to_string(),
                    ]);
                }
            }
        }
    }
    table.print(&format!(
        "G4: chaos sweep, K = {} nodes, f = {fault_tolerance}, io deadline {} ms, \
         up to {} escalations, seed {:#x}",
        args.nodes, args.deadline_ms, args.escalations, args.seed
    ));
    println!(
        "paper claim: transport chaos within the decoding radius is just more noise for the \
         Reed-Solomon distance (footnote 7's fault model, met at the transport layer)"
    );
}
