//! Experiment G3 — Camelot as a service (the daemon end to end).
//!
//! Claim: a persistent proof daemon amortises the paper's preparation
//! cost across petitioners. The experiment spawns the real
//! `camelot-serve` binary with **process** workers (so rounds span OS
//! processes), then demonstrates, against one daemon lifetime:
//!
//! 1. **Coalescing** — two overlapping prepare requests for different
//!    polynomials land in one admission batch and share its per-prime
//!    broadcast rounds (`coalesced == 2`, equal round counts, total
//!    strictly below two solo runs);
//! 2. **Caching** — a repeat query is served from the certificate
//!    store with **zero** rounds and a bit-identical certificate;
//! 3. **Fault recovery** — a forcibly killed pool worker is respawned
//!    when the next round starts, so the next request succeeds and the
//!    kill costs no failed batch (`worker_failures == 0`);
//! 4. **Clean shutdown** — the daemon exits 0 with every worker
//!    reaped (no orphan processes).
//!
//! Flags: `--nodes K` (default 4), `--batch-window-ms N` (default 400).

use camelot_bench::Table;
use camelot_cluster::sibling_binary;
use camelot_core::PrimeSchedule;
use camelot_server::{request, PolyRequest, Request, Response};
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::sync::{Arc, Barrier};
use std::thread;

fn poly(coefficients: Vec<u64>) -> PolyRequest {
    PolyRequest {
        coefficients,
        sum_count: 32,
        value_bits: 60,
        min_modulus: 1 << 20,
        schedule: PrimeSchedule::Smallest,
    }
}

fn prepare(addr: &str, p: &PolyRequest) -> Response {
    let response = request(addr, &Request::Prepare(p.clone())).expect("prepare request");
    assert!(response.ok, "prepare failed: {:?}", response.error);
    response
}

fn main() {
    let mut nodes = 4usize;
    let mut batch_window_ms = 400u64;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| panic!("missing value for {flag}"));
        match flag.as_str() {
            "--nodes" => nodes = value().parse().expect("--nodes"),
            "--batch-window-ms" => batch_window_ms = value().parse().expect("--batch-window-ms"),
            other => panic!("unknown flag {other}"),
        }
    }

    let serve = sibling_binary("camelot-serve").expect(
        "camelot-serve binary not found next to this executable; run `cargo build --release`",
    );
    let mut daemon = Command::new(&serve)
        .args([
            "--listen",
            "127.0.0.1:0",
            "--nodes",
            &nodes.to_string(),
            "--workers",
            "process",
            "--batch-window-ms",
            &batch_window_ms.to_string(),
        ])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawning camelot-serve");
    let stdout = daemon.stdout.take().expect("daemon stdout");
    let mut banner = String::new();
    BufReader::new(stdout).read_line(&mut banner).expect("daemon banner");
    let addr = banner
        .trim()
        .strip_prefix("camelot-serve listening on ")
        .unwrap_or_else(|| panic!("unexpected daemon banner {banner:?}"))
        .to_string();
    println!("daemon: {} on {addr} ({nodes} process workers)", serve.display());

    // 1. Two overlapping clients coalesce onto one admission batch.
    let polys = [poly(vec![3, 1, 4, 1, 5]), poly(vec![2, 7, 1, 8])];
    let barrier = Arc::new(Barrier::new(2));
    let handles: Vec<_> = polys
        .iter()
        .map(|p| {
            let (addr, barrier, p) = (addr.clone(), Arc::clone(&barrier), p.clone());
            thread::spawn(move || {
                barrier.wait();
                prepare(&addr, &p)
            })
        })
        .collect();
    let overlapping: Vec<Response> =
        handles.into_iter().map(|h| h.join().expect("client thread")).collect();
    let shared_rounds = overlapping[0].rounds;
    for response in &overlapping {
        assert_eq!(response.coalesced, 2, "overlapping requests must share one batch");
        assert_eq!(response.rounds, shared_rounds, "one batch, one set of rounds");
        assert!(!response.cache_hit);
    }
    assert!(shared_rounds > 0);

    // Solo baseline: the same two requests again would each pay their
    // own rounds if run alone — repeat queries are cache hits, so use
    // fresh polynomials.
    let solo_total: usize = [poly(vec![9, 2, 6]), poly(vec![5, 3, 5, 8])]
        .iter()
        .map(|p| {
            let response = prepare(&addr, p);
            assert_eq!(response.coalesced, 1);
            response.rounds
        })
        .sum();
    assert!(
        shared_rounds < solo_total,
        "coalesced rounds ({shared_rounds}) must undercut the solo total ({solo_total})"
    );

    // 2. A repeat query is a zero-round cache hit, bit-identical.
    let repeat = prepare(&addr, &polys[0]);
    assert_eq!(repeat.rounds, 0, "cache hit must run no rounds");
    assert!(repeat.cache_hit);
    assert_eq!(repeat.output, overlapping[0].output);
    assert_eq!(
        repeat.certificate, overlapping[0].certificate,
        "served certificate must be bit-identical to the prepared one"
    );

    // 3. Kill a pool worker; the next round respawns it before its
    // tasks go out, so the kill costs no failed batch.
    let killed = request(&addr, &Request::CrashWorker { node: 0 }).expect("crash-worker request");
    assert!(killed.ok, "crash-worker failed: {:?}", killed.error);
    let after_kill = prepare(&addr, &poly(vec![1, 1, 2, 3, 5, 8]));
    assert!(after_kill.rounds > 0);
    let status = request(&addr, &Request::Status).expect("status request");
    assert!(status.ok);
    assert_eq!(status.worker_failures, 0, "the kill must cost no failed batch");
    assert!(status.respawns >= 1, "the pool must have respawned the worker");
    assert_eq!(status.workers, nodes, "the pool must be back to full strength");

    let mut table = Table::new(&["request", "rounds", "coalesced", "cache hit", "output"]);
    let mut show = |name: &str, r: &Response| {
        table.row(&[
            name.to_string(),
            r.rounds.to_string(),
            r.coalesced.to_string(),
            if r.cache_hit { "yes".into() } else { "no".into() },
            r.output.map_or("-".into(), |o| o.to_string()),
        ]);
    };
    show("overlap A", &overlapping[0]);
    show("overlap B", &overlapping[1]);
    show("repeat A", &repeat);
    show("after kill", &after_kill);
    table.print(&format!(
        "G3: camelot-serve, {nodes} process workers, {}ms admission window, \
         {} requests, {} store hits, {} respawns",
        batch_window_ms, status.requests, status.store_hits, status.respawns
    ));

    // 4. Clean shutdown: daemon exits 0 only after every worker is
    // reaped — an orphan would make the pool teardown report an error.
    let bye = request(&addr, &Request::Shutdown).expect("shutdown request");
    assert!(bye.ok, "shutdown failed: {:?}", bye.error);
    let exit = daemon.wait().expect("daemon exit status");
    assert!(exit.success(), "daemon must exit cleanly, got {exit}");
    println!(
        "paper claim: prepare once, serve many — coalesced rounds {shared_rounds} < {solo_total} \
         solo, repeat queries at 0 rounds, worker loss absorbed by respawn"
    );
}
