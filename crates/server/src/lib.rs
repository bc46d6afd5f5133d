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
//! frames defined in [`wire`]; [`request`] is the matching one-call
//! client.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod service;
mod wire;

pub use service::{request, run_daemon, Service, ServiceConfig, ServicePoly};
pub use wire::{read_frame, PolyRequest, Request, Response, REQUEST_HEADER, RESPONSE_HEADER};
