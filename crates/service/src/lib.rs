//! # taj-service — the TAJ analysis daemon
//!
//! TAJ's pipeline is deliberately staged: an expensive phase-1 pointer
//! analysis / call-graph construction feeds a cheap, demand-driven
//! phase-2 hybrid slicing (paper §1, §3). A one-shot CLI pays the
//! dominant phase-1 cost on every invocation; this crate adds the serving
//! layer that pays it **once**: a long-running daemon (`taj serve`)
//! accepting newline-delimited JSON requests over a Unix domain socket or
//! TCP, putting their jobs on one queue that a fixed set of `std::thread`
//! workers take from, and answering from a content-addressed cache of
//! `PreparedProgram`, `Phase1`, and serialized-report artifacts with LRU
//! byte-budget eviction.
//!
//! Std-only by construction: the workspace is offline (vendored serde
//! shims, no tokio/hyper), so networking is `std::net` + `std::os::unix`
//! and concurrency is threads + channels.
//!
//! - [`protocol`] — the strict NDJSON wire format (`analyze`, `configs`,
//!   `stats`, `shutdown`) and error codes;
//! - [`cache`] — the content-addressed LRU artifact cache;
//! - [`server`] — the daemon itself: one job queue read by the workers,
//!   per-job panic isolation, and bounded-queue admission control that
//!   sheds load as `overloaded` + `retry_after_ms`;
//! - [`client`] — a pure-std client library (used by `taj client` and
//!   the integration tests) with jittered-backoff retry for idempotent
//!   requests;
//! - [`breaker`] — the per-shard circuit breaker driving the router's
//!   failover and self-healing reintegration.
//!
//! See `docs/service.md` for the wire protocol and cache semantics.

#![warn(missing_docs)]

pub mod breaker;
pub mod cache;
pub mod client;
pub mod protocol;
pub mod router;
pub mod server;
pub mod trace;

pub use breaker::{Breaker, BreakerState};
pub use cache::{content_hash, Artifact, ArtifactCache, ArtifactKey, CacheStats};
pub use client::{AnalyzeOpts, Client, ClientError, RetryPolicy};
pub use protocol::{
    stamp_trace, BatchRequest, ErrorCode, OutputFormat, MAX_BATCH_ITEMS, PROTOCOL_VERSION,
};
pub use router::{route, RouterHandle, RouterOptions, RouterTuning};
pub use server::{
    serve, store_fingerprint, Bind, BoundAddr, ServeOptions, ServerHandle, DEFAULT_FLIGHT_RECORDS,
};
pub use trace::{fragments_of, relabel_process, stitch_fragments};
