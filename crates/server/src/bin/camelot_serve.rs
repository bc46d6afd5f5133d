//! `camelot-serve` — the Camelot proof daemon.
//!
//! Binds a TCP listener, prints `camelot-serve listening on HOST:PORT`
//! (port 0 picks a free port — parse the line to find it), and serves
//! `camelot-request v1` frames until a `shutdown` request arrives. The
//! worker pool persists across requests; concurrent prepares coalesce
//! onto shared broadcast rounds; prepared certificates are cached and
//! repeat queries served with zero rounds.
//!
//! ```text
//! camelot-serve [--listen HOST:PORT] [--nodes K] [--fault-tolerance F]
//!               [--workers threads|process] [--batch-window-ms N]
//!               [--store-capacity N] [--store-dir DIR]
//!               [--io-deadline-ms N] [--client-timeout-ms N]
//!               [--demote-dead-workers] [--escalations N]
//! ```
//!
//! `--io-deadline-ms` bounds every coordinator–worker read (replacing
//! the 60 s default); `--demote-dead-workers` turns a dead or hung
//! worker into an erasure the round decodes through instead of a failed
//! round; `--escalations` lets the engine raise the fault budget when a
//! round decodes outside the configured radius. A request may name
//! either prime schedule; both are prepared in the same batches on the
//! same primes and points, into the same certificate.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::disallowed_macros
    )
)]
#![deny(clippy::let_underscore_must_use)]

use camelot_cluster::sibling_worker_binary;
use camelot_core::{RecoveryPolicy, WorkerMode};
use camelot_server::{run_daemon, Service, ServiceConfig};
use std::io::Write;
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "usage: camelot-serve [--listen HOST:PORT] [--nodes K] \
[--fault-tolerance F] [--workers threads|process] [--batch-window-ms N] \
[--store-capacity N] [--store-dir DIR] [--io-deadline-ms N] \
[--client-timeout-ms N] [--demote-dead-workers] [--escalations N]";

fn parse_args() -> Result<(String, ServiceConfig), String> {
    let mut listen = "127.0.0.1:0".to_string();
    let mut config = ServiceConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{flag} needs {what}\n{USAGE}"));
        match flag.as_str() {
            "--listen" => listen = value("HOST:PORT")?,
            "--nodes" => {
                config.nodes = value("a count")?.parse().map_err(|_| "bad --nodes".to_string())?;
            }
            "--fault-tolerance" => {
                config.fault_tolerance =
                    value("a count")?.parse().map_err(|_| "bad --fault-tolerance".to_string())?;
            }
            "--workers" => {
                config.workers = match value("threads|process")?.as_str() {
                    "threads" => WorkerMode::Threads,
                    "process" => {
                        let binary = sibling_worker_binary().ok_or_else(|| {
                            "--workers process: camelot-node binary not found next to \
                             camelot-serve (build it with `cargo build`)"
                                .to_string()
                        })?;
                        WorkerMode::Process(binary)
                    }
                    other => return Err(format!("unknown worker mode {other:?}\n{USAGE}")),
                };
            }
            "--batch-window-ms" => {
                let ms: u64 =
                    value("milliseconds")?.parse().map_err(|_| "bad --batch-window-ms")?;
                config.batch_window = Duration::from_millis(ms);
            }
            "--store-capacity" => {
                config.store_capacity =
                    value("a count")?.parse().map_err(|_| "bad --store-capacity".to_string())?;
            }
            "--store-dir" => config.store_dir = Some(value("DIR")?.into()),
            "--io-deadline-ms" => {
                let ms: u64 = value("milliseconds")?.parse().map_err(|_| "bad --io-deadline-ms")?;
                config.io_deadline = Some(Duration::from_millis(ms.max(1)));
            }
            "--client-timeout-ms" => {
                let ms: u64 =
                    value("milliseconds")?.parse().map_err(|_| "bad --client-timeout-ms")?;
                config.client_timeout = Duration::from_millis(ms.max(1));
            }
            "--demote-dead-workers" => config.demote_dead_workers = true,
            "--escalations" => {
                let count: u32 = value("a count")?.parse().map_err(|_| "bad --escalations")?;
                config.recovery = RecoveryPolicy::escalating(count);
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    Ok((listen, config))
}

fn serve() -> Result<(), String> {
    let (listen, config) = parse_args()?;
    let service = Service::new(config)?;
    let listener = TcpListener::bind(&listen).map_err(|e| format!("binding {listen}: {e}"))?;
    let addr = listener.local_addr().map_err(|e| format!("local address: {e}"))?;
    println!("camelot-serve listening on {addr}");
    // Clients (and the CI smoke) parse the line to learn the port; make
    // sure it leaves the process even through a pipe.
    std::io::stdout().flush().map_err(|e| format!("flushing stdout: {e}"))?;
    run_daemon(&listener, &Arc::new(service))
}

fn main() -> ExitCode {
    match serve() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("camelot-serve: {message}");
            ExitCode::FAILURE
        }
    }
}
