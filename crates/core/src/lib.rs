#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

//! # pdx-core — the PDX data layout and the PDXearch framework
//!
//! From-scratch Rust implementation of *"PDX: A Data Layout for Vector
//! Similarity Search"* (Kuffo, Krippner, Boncz; SIGMOD 2025).
//!
//! ## What lives here
//!
//! * [`layout`] — the **PDX** (Partition Dimensions Across) block layout
//!   that stores groups of vectors dimension-major. (The horizontal
//!   layouts the paper evaluates against, and the searches over them,
//!   are baselines no layer serves: they live in `pdx-bench`.)
//! * [`kernels`] — multi-vector-at-a-time distance kernels on PDX blocks
//!   (scalar code that auto-vectorizes; Algorithm 1 of the paper), the
//!   explicit-SIMD and scalar horizontal kernels used as baselines, and
//!   the quantized SQ8 mirror of the PDX kernels.
//! * [`search`] — the **PDXearch** framework (§4): block-by-block search
//!   with START / WARMUP / PRUNE phases, adaptive dimension stepping and
//!   branchless bound evaluation, generic over a dimension [`pruning`]
//!   strategy and over the element type it scans ([`ScanBlock`]). The
//!   PDX linear scan is PDXearch under a pruner that never prunes.
//! * [`bond`] — **PDX-BOND** (§5), the exact, transformation-free pruner
//!   with query-aware dimension visit orders ([`visit_order`]).
//! * [`engine`] — the serving surface: the object-safe [`VectorIndex`]
//!   trait every deployment implements and the unified
//!   [`SearchOptions`] struct, so applications can hold a
//!   `Box<dyn VectorIndex>` and stay deployment-agnostic.
//! * [`mask`] — [`RowMask`], the set of rows a search must not return
//!   (a collection's tombstoned rows): PDXearch drops them in the scan.
//! * [`cache`] — the sharded, byte-budgeted [`cache::BlockCache`]
//!   behind out-of-core deployments: lazily loaded buckets are pinned
//!   via `Arc`, so eviction never invalidates an in-flight scan, and
//!   hit/miss/eviction counters make the cache observable.
//! * [`codec`] — the one bounded byte codec under every file format and
//!   wire message: typed little-endian getters over a slice, a stream or
//!   a file window, and [`codec::read_vec`], the only function in the
//!   workspace that sizes an allocation from an untrusted count.
//! * [`obs`] — the core side of the observability layer (`pdx-obs`):
//!   the `PDX_TRACE` default for [`SearchOptions::trace`]
//!   (engine::SearchOptions::trace), trace publication into the
//!   process-global metric registry, and the derived pruning-ratio
//!   family.
//! * [`exec`] — the parallel execution engine: a std-only scoped-thread
//!   worker pool ([`exec::ThreadPool`]) and batch query sharding
//!   ([`exec::BatchSearcher`]), whose results are bit-identical to the
//!   sequential path at any thread count.
//! * [`layout::Sq8Quantizer`] + [`kernels::sq8`] +
//!   [`search::quantized`] — the **SQ8** path: scalar-quantized `u8`
//!   blocks in the same dimension-major layout (`PdxBlock<u8>`), integer-friendly
//!   kernels, and a two-phase search (quantized PDXearch scan → exact
//!   `f32` rerank) that trades 4× less scan-resident memory for a small,
//!   rerank-recoverable accuracy loss.
//!
//! Distances are *minimized* everywhere; inner product is exposed as the
//! negated dot product so that one k-nearest-neighbour heap serves all
//! metrics.
//!
//! ## Quick example
//!
//! ```
//! use pdx_core::layout::PdxBlock;
//! use pdx_core::kernels::pdx_scan;
//! use pdx_core::distance::Metric;
//!
//! // Four 3-dimensional vectors, stored dimension-major in one block.
//! let rows = [
//!     1.0, 0.0, 0.0,
//!     0.0, 1.0, 0.0,
//!     0.0, 0.0, 1.0,
//!     1.0, 1.0, 1.0f32,
//! ];
//! let block = PdxBlock::from_rows(&rows, 4, 3, 64);
//! let mut distances = vec![0.0; 4];
//! pdx_scan(Metric::L2, &block, &[1.0, 0.0, 0.0], &mut distances);
//! assert_eq!(distances, vec![0.0, 2.0, 2.0, 2.0]);
//! ```

pub mod bond;
pub mod cache;
pub mod codec;
pub mod collection;
pub mod distance;
pub mod engine;
pub mod exec;
pub mod heap;
pub mod kernels;
pub mod layout;
pub mod mask;
pub mod obs;
pub mod pruning;
pub mod search;
pub mod stats;
pub mod visit_order;

pub use bond::PdxBond;
pub use cache::{resolve_cache_bytes, BlockCache, CacheStats, CACHE_BYTES_ENV};
pub use collection::{PdxCollection, SearchBlock};
pub use distance::Metric;
pub use engine::{check_vectors, PrunerKind, SearchOptions, VectorError, VectorIndex};
pub use exec::{BatchSearcher, ThreadPool};
pub use heap::{KnnHeap, Neighbor};
pub use kernels::{active_kernel_isa, detected_isa, KernelIsa, KernelPolicy};
pub use layout::{PdxBlock, Sq8Quantizer};
pub use mask::RowMask;
pub use obs::{publish_trace, TRACE_ENV};
pub use pdx_obs::QueryTrace;
pub use pruning::{checkpoints, BlockAux, Pruner, StepPolicy};
pub use search::{pdxearch, KernelVariant, ScanBlock, Sq8Block};
pub use stats::BlockStats;
pub use visit_order::VisitOrder;

/// Default number of vectors per PDX group: the paper's Table 5 sweet
/// spot, where one group's distance accumulators fit in the SIMD register
/// file on AVX2/AVX-512/NEON alike.
pub const DEFAULT_GROUP_SIZE: usize = 64;

/// Default flat-partition block size for index-less exact search (§6.5).
pub const DEFAULT_EXACT_BLOCK: usize = 10_240;
