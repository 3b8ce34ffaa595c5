//! The parallel execution engine: a scoped-thread worker pool and the
//! batch search driver built on it.
//!
//! Everything here is std-only (no crates.io). The engine has three
//! parts:
//!
//! * [`ThreadPool`] — a scoped-thread worker pool with dynamically
//!   scheduled chunk queues. The pool owns *how many* OS threads a
//!   parallel region uses ([`resolve_threads`]: explicit request →
//!   `PDX_THREADS` env override → available parallelism) and exposes two
//!   primitives: disjoint-chunk mutation of an output slice and
//!   chunk-indexed map-reduce whose results come back in chunk order, so
//!   order-sensitive reductions stay deterministic under work stealing.
//! * [`BatchSearcher`] — shards a query batch across the pool. `run`
//!   hands out one query at a time, each through the caller's
//!   single-query closure (the trait default, behind a collection's
//!   `Snapshot`, whose segments are searched one after another);
//!   [`BatchSearcher::run_prepared`] hands each worker a *band* of up to
//!   [`SUB_BATCH`] consecutive queries (bands of even size, a whole
//!   number a worker) to prepare together — one tiled rotation — and to
//!   answer together: every PDXearch deployment batches through it, and
//!   the unrouted ones scan each tile for the whole band before the
//!   next ([`pdxearch_band`](crate::search::pdxearch_band)). A query in a
//!   band keeps its own heap and meets its blocks and tiles in its own
//!   order, so batch results equal a sequential loop at any thread count.
//! * [`merge_neighbors`] — the canonical merge of per-part top-k lists
//!   (a snapshot's segments, a sharded collection's shards) through one
//!   [`KnnHeap`](crate::heap::KnnHeap): the heap retains the top-k by
//!   `(distance, id)` (see [`crate::heap`]), so the merge does not
//!   depend on how the candidates were partitioned.
//!
//! ## Determinism guarantee
//!
//! Every entry point returns the bits of sequential `search` at any
//! thread count, for every pruner.

mod batch;
mod job;
mod pool;

pub use batch::{merge_neighbors, BatchSearcher, SUB_BATCH};
pub use job::{spawn_job, JobHandle};
pub use pool::{hardware_threads, resolve_threads, ThreadPool, THREADS_ENV};
