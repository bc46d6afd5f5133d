//! # camelot-server — Camelot as a service
//!
//! The paper's protocol prepares a proof once so that many verifiers
//! can check it cheaply. This crate turns that economy into a daemon:
//! a persistent [`Service`] that keeps a warm worker pool (one
//! `socket` transport) across requests, **coalesces** concurrent
//! prepare requests onto shared per-prime broadcast rounds via the
//! engine's batched path, and **caches** prepared certificates in a
//! content-addressed `camelot-store` so repeat queries are served with
//! zero rounds — after re-verification by spot checks, never on trust.
//!
//! The `camelot-serve` binary wraps [`run_daemon`] around a TCP
//! listener speaking the `camelot-request v1`/`camelot-response v1`
//! frames ([`Request`], [`Response`]); [`request`] is the matching
//! one-call client.

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

mod service;
mod wire;

pub use service::{request, run_daemon, Service, ServiceConfig, ServicePoly};
pub use wire::{read_frame, PolyRequest, Request, Response, REQUEST_HEADER, RESPONSE_HEADER};
