//! `camelot-node` — an out-of-process compute node.
//!
//! A worker connects to the coordinator and serves its lane: for every
//! `camelot-task v1` message it reconstructs the round from the task
//! alone (field, fault behaviour, evaluation programs, assigned points —
//! the paper's "common input"), evaluates its slice, applies its fault
//! sender-side, and replies with its `camelot-reply v1` frames. It
//! answers `camelot-ping v1` health checks and exits cleanly on a
//! `camelot-shutdown v1` frame or when the coordinator closes the
//! connection at a message boundary. Spawned by `SocketTransport` in
//! process mode:
//!
//! ```text
//! camelot-node --connect 127.0.0.1:PORT
//! ```

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

use camelot_cluster::serve_worker_loop;
use std::net::TcpStream;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut addr = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--connect" => addr = args.next(),
            "--help" | "-h" => {
                println!("usage: camelot-node --connect HOST:PORT");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("camelot-node: unknown argument {other:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(addr) = addr else {
        eprintln!("camelot-node: missing --connect HOST:PORT");
        return ExitCode::FAILURE;
    };
    let stream = match TcpStream::connect(&addr) {
        Ok(stream) => stream,
        Err(err) => {
            eprintln!("camelot-node: connecting to {addr}: {err}");
            return ExitCode::FAILURE;
        }
    };
    match serve_worker_loop(stream) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("camelot-node: {err}");
            ExitCode::FAILURE
        }
    }
}
