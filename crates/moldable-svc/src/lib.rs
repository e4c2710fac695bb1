//! `moldable-svc` — a zero-dependency HTTP/1.1 + JSON scheduling service
//! over the [`MakespanSolver`] registry and the batch engine, plus the
//! closed-loop load generator that measures it.
//!
//! The ROADMAP's first scale direction is "a network service front-end
//! over `moldable-sched::batch`": large-`m` moldable scheduling as a
//! per-request hot path inside a parallel platform, the regime the
//! Jansen–Land linear-time solver is built for. This crate is that
//! front end, kept as dependency-free as the rest of the workspace —
//! the HTTP framing is hand-rolled in [`http`] the same way
//! `crates/shims/` hand-roll serde.
//!
//! * [`http`] — minimal HTTP/1.1 request/response framing (both sides).
//! * [`app`] — the transport-free router: `POST /v1/solve`,
//!   `POST /v1/race`, `GET /healthz`, `GET /metrics`, plus the staged
//!   solve/race pipeline the CLI runs too.
//! * [`wire`] — the versioned wire format: the shared [`SolveRequest`]
//!   (one struct parsed identically from CLI flags and JSON bodies),
//!   the v4 tenant/quota grammar, and the typed [`ErrorKind`] envelope
//!   every front end renders.
//! * [`server`] — `std::net::TcpListener` + a fixed worker-thread accept
//!   pool with keep-alive connections and cooperative shutdown.
//! * [`metrics`] — per-endpoint counters and latency percentiles, with
//!   exact busy-time totals via the simulator's
//!   [`RunningSum`](moldable_sim::metrics::RunningSum).
//! * [`loadgen`] — closed-loop client threads reporting throughput and
//!   latency percentiles.
//!
//! The `moldable-svc` and `moldable-loadgen` binaries (root package) are
//! thin argument parsers over [`server::Server::bind`] and
//! [`loadgen::run`]; `DESIGN.md`'s "Service front-end" section holds the
//! endpoint table and threading model.
//!
//! [`MakespanSolver`]: moldable_sched::solver::MakespanSolver

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod cache;
pub mod http;
pub mod loadgen;
pub mod metrics;
pub mod server;
pub mod wire;

pub use app::{App, AppConfig};
pub use cache::ResponseCache;
pub use http::{Request, RequestParts, RequestReader, Response};
pub use loadgen::{LoadReport, LoadgenConfig};
pub use metrics::ServiceMetrics;
pub use server::{Server, ServerConfig, ShardedServer};
pub use wire::{ErrorKind, Failure, SolveRequest};
