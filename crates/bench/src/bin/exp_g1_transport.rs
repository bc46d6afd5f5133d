//! Experiment G1 — transport scaling (the broadcast layer of §1.4).
//!
//! Claim: the broadcast round is transport-independent. All backends —
//! the in-process bus (its node slices split across `CAMELOT_THREADS`)
//! and a pool of loopback TCP workers (optionally spawned `camelot-node`
//! processes, so the round really spans processes) — produce
//! bit-identical broadcasts; what varies is wall-clock overhead and
//! where the bytes go, which the per-round traffic counters make
//! measurable.
//!
//! Modes:
//!
//! * default — one multi-polynomial round per selected backend, checked
//!   bit-identical against the in-process reference, with per-backend
//!   wall-clock and the round's `symbols_broadcast` / `bytes_on_wire`;
//! * `--engine-batch N` — `Engine::run_batch` over `N` triangle
//!   problems on the in-process bus (triangle problems are
//!   closures, which sockets refuse), demonstrating the
//!   one-broadcast-round-per-prime-per-batch property end to end.
//!
//! Flags: `--nodes K` (default 8), `--len E` (default 2048), `--width W`
//! (default 2), `--backend all|inproc|socket|socket-process`
//! (default all; `socket-process` needs the `camelot-node` binary next
//! to this one — built by `cargo build --release`), `--engine-batch N`.

use camelot_bench::{fmt_duration, Table};
use camelot_cluster::{
    sibling_worker_binary, EvalProgram, FaultKind, FaultPlan, InProcess, ProgramEval, RoundOutcome,
    RoundSpec, SocketTransport, Transport, WorkerMode,
};
use camelot_core::{Engine, EngineConfig};
use camelot_ff::{PrimeField, SplitMix64};
use camelot_graph::{count_triangles, gen};
use camelot_triangles::TriangleCount;
use std::time::Instant;

struct Args {
    nodes: usize,
    len: usize,
    width: usize,
    backend: String,
    engine_batch: Option<usize>,
}

fn parse_args() -> Args {
    let mut args =
        Args { nodes: 8, len: 2048, width: 2, backend: "all".to_string(), engine_batch: None };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| panic!("missing value for {flag}"));
        match flag.as_str() {
            "--nodes" => args.nodes = value().parse().expect("--nodes"),
            "--len" => args.len = value().parse().expect("--len"),
            "--width" => args.width = value().parse().expect("--width"),
            "--backend" => args.backend = value(),
            "--engine-batch" => args.engine_batch = Some(value().parse().expect("--engine-batch")),
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

/// The full fault matrix, scaled to the cluster size.
fn mixed_plan(nodes: usize) -> FaultPlan {
    let mut faults = vec![(1 % nodes, FaultKind::Crash)];
    if nodes >= 4 {
        faults.push((2, FaultKind::Corrupt { seed: 7 }));
        faults.push((3, FaultKind::Adversarial { offset: 41 }));
    }
    if nodes >= 6 {
        faults.push((5, FaultKind::Equivocate { seed: 13 }));
    }
    FaultPlan::with_faults(nodes, &faults)
}

fn backends(selected: &str) -> Vec<(String, Box<dyn Transport>)> {
    let mut list: Vec<(String, Box<dyn Transport>)> = Vec::new();
    let all = selected == "all";
    if all || selected == "inproc" {
        list.push(("inproc".into(), Box::new(InProcess::new())));
    }
    if all || selected == "socket" {
        list.push(("socket".into(), Box::new(SocketTransport::persistent(WorkerMode::Threads))));
    }
    if all || selected == "socket-process" {
        match sibling_worker_binary() {
            Some(bin) => list.push((
                "socket-process".into(),
                Box::new(SocketTransport::persistent(WorkerMode::Process(bin))),
            )),
            None if selected == "socket-process" => {
                panic!("camelot-node binary not found next to this executable; run `cargo build --release` first")
            }
            None => eprintln!(
                "note: camelot-node binary not found next to this executable; \
                 skipping the socket-process backend"
            ),
        }
    }
    assert!(!list.is_empty(), "unknown --backend {selected}");
    list
}

fn round_experiment(args: &Args) {
    let field = PrimeField::new(16_777_259).expect("prime"); // > any sane e
    assert!(args.len as u64 <= field.modulus(), "--len exceeds the field");
    let mut rng = SplitMix64::new(0xC1A0);
    let programs: Vec<EvalProgram> = (0..args.width)
        .map(|_| EvalProgram::Poly((0..args.len / 2).map(|_| field.sample(&mut rng)).collect()))
        .collect();
    let eval = ProgramEval::new(&field, programs);
    let points: Vec<u64> = (0..args.len as u64).collect();
    let plan = mixed_plan(args.nodes);
    let spec = RoundSpec { field: &field, points: &points, plan: &plan };

    let reference = InProcess::new().run(&spec, &eval).expect("in-process round");
    let mut table = Table::new(&["backend", "round time", "identical", "symbols", "bytes on wire"]);
    for (name, transport) in backends(&args.backend) {
        let start = Instant::now();
        let outcome: RoundOutcome = match transport.run(&spec, &eval) {
            Ok(outcome) => outcome,
            Err(err) => {
                table.row(&[name, format!("failed: {err}"), "-".into(), "-".into(), "-".into()]);
                continue;
            }
        };
        let elapsed = start.elapsed();
        let identical = outcome.broadcasts.iter().zip(&reference.broadcasts).all(|(a, b)| {
            a.same_word(b) && (0..args.nodes).all(|r| a.view_for(r) == b.view_for(r))
        }) && outcome.traffic == reference.traffic;
        table.row(&[
            name,
            fmt_duration(elapsed),
            if identical { "yes".into() } else { "NO".into() },
            outcome.traffic.symbols_broadcast.to_string(),
            outcome.traffic.bytes_on_wire.to_string(),
        ]);
    }
    table.print(&format!(
        "G1: one round, K = {} nodes, e = {} points, width = {} polynomials, mixed faults",
        args.nodes, args.len, args.width
    ));
    println!("paper claim: the broadcast word is transport-independent (bit-identical backends)");
}

fn engine_batch_experiment(args: &Args, batch: usize) {
    let graphs: Vec<_> = (0..batch).map(|i| gen::gnm(10 + i, 20 + 3 * i, 42 + i as u64)).collect();
    let problems: Vec<TriangleCount> = graphs.iter().map(TriangleCount::new).collect();
    let engine = Engine::new(EngineConfig::sequential(args.nodes.max(2), 8));

    let start = Instant::now();
    let outcomes = engine.run_batch(&problems).expect("batched run");
    let elapsed = start.elapsed();

    let mut table = Table::new(&[
        "problem",
        "triangles",
        "rounds",
        "coalesced",
        "cache hits",
        "symbols",
        "bytes on wire",
        "erasures",
        "errors",
        "retries",
        "degraded",
        "decode",
        "xgcd",
    ]);
    for (i, (outcome, graph)) in outcomes.iter().zip(&graphs).enumerate() {
        assert_eq!(outcome.output, count_triangles(graph), "batched output diverged");
        assert_eq!(
            outcome.report.rounds,
            outcome.report.primes.len(),
            "a batch must run exactly one broadcast round per prime"
        );
        assert_eq!(
            outcome.report.coalesced_requests, batch,
            "every batch member must report the shared admission size"
        );
        let report = &outcome.report;
        table.row(&[
            i.to_string(),
            outcome.output.to_string(),
            report.rounds.to_string(),
            report.coalesced_requests.to_string(),
            report.cache_hits.to_string(),
            report.symbols_broadcast.to_string(),
            report.bytes_on_wire.to_string(),
            report.erasures_seen.to_string(),
            report.errors_corrected.to_string(),
            report.retries.to_string(),
            report.degraded.to_string(),
            fmt_duration(report.decode_time),
            fmt_duration(report.xgcd_time),
        ]);
    }
    table.print(&format!(
        "G1: Engine::run_batch of {batch} problems on the in-process bus ({}, shared \
         rounds)",
        fmt_duration(elapsed)
    ));
    println!(
        "rounds == primes per outcome: the whole batch shares one broadcast round per prime \
         (identical shared counters across outcomes)"
    );
}

fn main() {
    let args = parse_args();
    match args.engine_batch {
        Some(batch) => engine_batch_experiment(&args, batch),
        None => round_experiment(&args),
    }
}
