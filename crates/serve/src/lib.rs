//! `pdx-serve`: a std-only network query service over any PDX index.
//!
//! The repo's containers and collections all serve through the
//! object-safe [`VectorIndex`](pdx_core::engine::VectorIndex) trait;
//! this crate puts a long-running TCP server in front of that surface
//! so many independent clients can search (and, for mutable PDX3
//! collections, insert/delete) one index concurrently. Everything is
//! hand-rolled on `std` — no crates.io:
//!
//! * [`proto`] — the length-prefixed binary wire protocol: framed,
//!   sequence-numbered, total decoding (hostile bytes get typed errors,
//!   never panics or unbounded allocation).
//! * [`server`] — accept loop, bounded admission queue (full → typed
//!   `Busy`), per-request deadlines (expired → typed
//!   `DeadlineExceeded`), worker dispatch on
//!   [`spawn_job`](pdx_core::exec::spawn_job) threads, clean shutdown,
//!   and the server's counters: one per-server metric registry that both
//!   the `Stats` response (QPS, in-flight, queue depth, p50/p99/p999)
//!   and the `/metrics` endpoint read.
//! * [`client`] — a blocking client used by `pdx query --remote` and
//!   the test/bench load generators.
//!
//! ```
//! use pdx_serve::{Backend, Client, ServeConfig, Server};
//! use pdx_store::{Collection, StoreConfig};
//!
//! // An in-memory collection with a few rows…
//! let coll = Collection::in_memory(4, StoreConfig::default());
//! coll.insert(1, &[0.0, 0.0, 0.0, 0.0]).unwrap();
//! coll.insert(2, &[1.0, 1.0, 1.0, 1.0]).unwrap();
//!
//! // …served on an ephemeral port…
//! let server = Server::start(
//!     Backend::collection(coll),
//!     ("127.0.0.1", 0),
//!     ServeConfig::default(),
//! )
//! .unwrap();
//!
//! // …and queried over TCP.
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! let hits = client.search(&[0.1, 0.0, 0.0, 0.0], 1).unwrap();
//! assert_eq!(hits[0].id, 1);
//! client.insert(3, &[0.5; 4]).unwrap();
//! assert_eq!(client.stats().unwrap().live, 3);
//! server.shutdown(); // joins every thread, releases the port
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod proto;
pub mod server;

pub use client::{Client, ClientError};
pub use proto::{ErrorKind, ProtoError, Request, Response, StatsReport, DEFAULT_PORT};
pub use server::{Backend, ServeConfig, Server};
