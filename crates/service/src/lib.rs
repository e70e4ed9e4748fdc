//! Placement-as-a-service: a long-running daemon serving placement and
//! simulation requests over a newline-delimited-JSON TCP protocol.
//!
//! The solvers in this workspace are deterministic given their seeds, so
//! a service wrapping them can cache aggressively: identical requests are
//! guaranteed bit-identical answers. The daemon is built from four
//! pieces, all on `std` only:
//!
//! * [`protocol`] — the NDJSON wire format: request parsing with bounds
//!   validation, response building, error codes. Every request kind is
//!   declared once in [`spec`], which drives parsing, request lines, cache
//!   keys and metrics labels; `docs/PROTOCOL.md` tabulates it.
//! * [`pool`] — a bounded worker pool with per-request deadlines; full
//!   queues shed load immediately, and queued work whose deadline lapsed
//!   is dropped unrun.
//! * [`cache`] — a sharded LRU keyed by a request's kind and its keyed
//!   fields. It holds results as shared, already-rendered payloads, so a
//!   hit copies and renders nothing, and checkpoint snapshots as raw
//!   bytes.
//! * [`metrics`] — relaxed-atomic counters and log-bucket latency
//!   histograms, served by `metrics`/`health` requests without touching
//!   the worker queue.
//!
//! [`core`] composes protocol, cache, and metrics into the
//! transport-agnostic request pipeline (parse → inline → forward →
//! cache → dispatch) that every transport shares. [`server`] wires it
//! into a TCP accept loop with graceful drain, and [`client`] provides the
//! blocking client plus the load generator used by
//! `express-noc-cli loadgen`. The [`core::Forwarder`] seam is where the
//! `noc-cluster` crate hooks shard ownership into the pipeline.
//!
//! # Robustness
//!
//! The service degrades instead of failing: full queues shed with
//! `overloaded` (clients retry via [`client::RetryingClient`]'s seeded
//! jittered backoff), deadlines are enforced at every stage (queued,
//! executing, and waiting), solve requests whose budget cannot absorb
//! the full annealing run answer with the constructive heuristic tagged
//! `"degraded": true`, cache entries carry integrity digests (a
//! structural walk of the cached `Value` — type tags, lengths, bytes,
//! and exact float bits — plus its stored wire text, or a snapshot's
//! bytes, checked on every hit) so a corrupted entry is recomputed
//! rather than served, and a panicking
//! worker fails only its in-flight request while a replacement thread
//! respawns. All of it is exercised deterministically by the chaos
//! suite through the `faultpoint` feature (see [`fp`]).
//!
//! # Quick start
//!
//! ```no_run
//! use noc_service::{Server, ServiceConfig};
//!
//! let config = ServiceConfig { addr: "127.0.0.1:0".into(), ..Default::default() };
//! let server = Server::bind(&config).unwrap();
//! println!("listening on {}", server.local_addr().unwrap());
//! server.run().unwrap(); // blocks until shutdown, then drains
//! ```

pub mod cache;
pub mod client;
pub mod core;
pub mod exec;
pub mod fp;
pub mod metrics;
pub mod pool;
pub mod protocol;
pub mod server;
pub mod spec;

pub use crate::core::{Dispatch, Forwarder, InlineDispatch, ServiceCore};
pub use cache::{CacheKey, ShardedLru};
pub use client::{
    generate_load, generate_load_multi, Client, LoadReport, RetryPolicy, RetryingClient,
};
pub use exec::{ExecError, ExecOutput};
pub use metrics::{trace_prometheus_text, Metrics};
pub use pool::{Job, SubmitError, WorkerPool};
pub use protocol::{Envelope, ErrorCode, Payload, Request, Response, MAX_LINE_BYTES};
pub use server::{Server, ServerHandle, ServiceConfig};
