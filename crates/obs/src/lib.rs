//! std-only observability layer for the PDX stack (layer 0.5: below
//! `pdx-core`, no dependencies beyond std).
//!
//! Three pillars:
//!
//! 1. A process-global **metric registry** ([`Registry`]; private
//!    instances hold counts one owner keeps to itself) of lock-free
//!    [`Counter`]s, [`Gauge`]s and log-scale [`Histogram`]s, registered
//!    by static name + label set and rendered in Prometheus text
//!    exposition format 0.0.4. Recording is a relaxed `fetch_add`;
//!    unread metrics cost one atomic per event.
//! 2. **Per-query tracing** ([`QueryTrace`]): phase timings plus the
//!    paper-native work counters (blocks visited, dimensions scanned
//!    vs pruned, rerank candidates, cache traffic). Traces are
//!    captured through a thread-local installed by
//!    [`trace::capture`] and fed to a sampling [`SlowQueryLog`] that
//!    emits one JSON line per sampled query.
//! 3. An **exposition surface** ([`MetricsServer`]): a minimal
//!    hand-rolled HTTP/1.1 listener answering `GET /metrics` and
//!    `GET /healthz`, designed to survive malformed and partial
//!    requests without panicking.
//!
//! The crate is intentionally free of any PDX domain types so every
//! layer above (core, store, serve, CLI) can depend on it.

pub mod expo;
pub mod hist;
pub mod http;
pub mod registry;
pub mod slowlog;
pub mod trace;

pub use hist::Histogram;
pub use http::MetricsServer;
pub use registry::{Counter, Gauge, Registry};
pub use slowlog::SlowQueryLog;
pub use trace::QueryTrace;
