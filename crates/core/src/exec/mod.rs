//! The parallel execution engine: a scoped-thread worker pool and the
//! batch/intra-query search drivers built on it.
//!
//! Everything here is std-only (no crates.io). The engine has three
//! layers:
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
//! * [`parallel_block_search`] + [`merge_neighbors`] — intra-query
//!   parallelism for large single queries: the block list is split into
//!   one contiguous range per worker, each worker fills a private
//!   [`KnnHeap`](crate::heap::KnnHeap), and the per-worker results merge
//!   through one final heap. Because the heap retains the canonical
//!   top-k by `(distance, id)` (see [`crate::heap`]), the merged result
//!   is bit-identical to the sequential scan for exact pruners — ids
//!   *and* distances, duplicate-distance ties included.
//!
//! ## Determinism guarantee
//!
//! For exact search paths (PDX-BOND, linear scans, the SQ8 two-phase
//! search) every `search_batch`/`search_parallel` entry point returns
//! bit-identical neighbor ids and distances at any thread count,
//! including 1, and identical to the corresponding sequential method.
//! Per-vector distances are always accumulated in the same dimension
//! order regardless of threading, and the canonical heap makes the
//! retained set a pure function of the candidate set. Approximate
//! pruners (ADSampling, BSA) keep this guarantee for *batch* sharding
//! (banded or not, each query sees its own sequential scan); intra-query
//! block splitting may legitimately differ for them because their
//! pruning bound depends on the threshold's history.

mod batch;
mod job;
mod pool;

pub use batch::{merge_neighbors, parallel_block_search, BatchSearcher, SUB_BATCH};
pub use job::{spawn_job, JobHandle};
pub use pool::{hardware_threads, resolve_threads, ThreadPool, THREADS_ENV};
