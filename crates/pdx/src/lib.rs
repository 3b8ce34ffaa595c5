//! # pdx — Rust reproduction of "PDX: A Data Layout for Vector Similarity Search"
//!
//! Facade crate re-exporting the full public API:
//!
//! * [`core`] ([`pdx_core`]) — the PDX layout, distance kernels, the
//!   PDXearch framework and PDX-BOND.
//! * [`pruners`] ([`pdx_pruners`]) — ADSampling and BSA.
//! * [`index`] ([`pdx_index`]) — IVF and flat-partition substrates.
//! * [`datasets`] ([`pdx_datasets`]) — synthetic Table 1 collections,
//!   `.fvecs` IO, ground truth and recall.
//! * [`engine`] ([`pdx_engine`]) — the dynamic serving layer:
//!   `AnyIndex::open` returns any persisted container as a
//!   `Box<dyn VectorIndex>`.
//! * [`serve`] ([`pdx_serve`]) — the network layer: a std-only TCP
//!   query service (length-prefixed protocol, deadlines, admission
//!   control) and its blocking client.
//! * [`linalg`] ([`pdx_linalg`]) — the linear-algebra substrate.
//! * [`obs`] ([`pdx_obs`]) — the observability substrate: the metric
//!   registry, per-query traces, the slow-query log and the
//!   Prometheus `/metrics` exposition server.
//!
//! ## Quickstart
//!
//! Every deployment answers the same [`prelude::VectorIndex`] calls
//! from the same [`prelude::SearchOptions`]; the defaults are exact
//! search (PDX-BOND, distance-to-means order, L2).
//!
//! ```
//! use pdx::prelude::*;
//!
//! // 1 000 vectors of 32 dims, clustered like a "DEEP"-shaped dataset.
//! let spec = DatasetSpec { name: "demo", dims: 32, distribution: Distribution::Normal, paper_size: 0 };
//! let ds = generate(&spec, 1_000, 1, 42);
//!
//! // Exact search with PDX-BOND: no preprocessing, no recall loss.
//! let flat = FlatPdx::with_defaults(&ds.data, ds.len, ds.dims());
//! let index: &dyn VectorIndex = &flat;
//! let hits = index.search(ds.query(0), &SearchOptions::new(10));
//! assert_eq!(hits.len(), 10);
//! // The PDX linear scan: the same driver with a pruner that never prunes.
//! let linear = SearchOptions::new(10).with_pruner(PrunerKind::Linear);
//! let exact = index.search(ds.query(0), &linear);
//! assert_eq!(hits[0].id, exact[0].id);
//! ```
//!
//! ## Serving from disk: `AnyIndex::open`
//!
//! A container written by `pdx-cli build` (or
//! [`datasets::persist`] directly) opens as
//! whichever deployment it holds — `PDX1` (f32) or `PDX2` (SQ8) — with
//! no branching at the call site:
//!
//! ```
//! use pdx::prelude::*;
//!
//! let spec = DatasetSpec { name: "demo", dims: 16, distribution: Distribution::Normal, paper_size: 0 };
//! let ds = generate(&spec, 400, 1, 11);
//! let flat = FlatPdx::with_defaults(&ds.data, ds.len, ds.dims());
//!
//! let path = std::env::temp_dir().join("pdx_facade_doc.pdx");
//! pdx::datasets::persist::write_pdx_path(&path, &flat.collection)?;
//!
//! let index = AnyIndex::open(&path)?; // Box<dyn VectorIndex>, kind sniffed
//! assert_eq!(index.kind(), "flat-pdx");
//! assert_eq!(index.dims(), 16);
//! // Bit-identical to searching the in-memory deployment.
//! let hits = index.search(ds.query(0), &SearchOptions::new(5));
//! let direct: &dyn VectorIndex = &flat;
//! assert_eq!(hits, direct.search(ds.query(0), &SearchOptions::new(5)));
//! std::fs::remove_file(&path).ok();
//! # Ok::<(), std::io::Error>(())
//! ```
//!
//! ## Quantized (SQ8) search
//!
//! The same collection can be served from 4×-smaller SQ8 blocks with a
//! two-phase search: a quantized PDXearch scan collects `refine · k`
//! candidates, then the exact `f32` distances of just those candidates
//! decide the final top-k.
//!
//! ```
//! use pdx::prelude::*;
//!
//! let spec = DatasetSpec { name: "demo", dims: 32, distribution: Distribution::Normal, paper_size: 0 };
//! let ds = generate(&spec, 1_000, 1, 42);
//!
//! let sq8 = FlatSq8::with_defaults(&ds.data, ds.len, ds.dims());
//! // The scan payload is a quarter of the f32 bytes.
//! assert_eq!(sq8.resident_block_bytes() * 4, ds.data.len() * 4);
//! let hits = sq8.search(ds.query(0), &SearchOptions::new(10).with_refine(DEFAULT_REFINE));
//! assert_eq!(hits.len(), 10);
//!
//! // Rerank distances are exact, so the top hit matches exact search.
//! let flat = FlatPdx::with_defaults(&ds.data, ds.len, ds.dims());
//! let linear = PdxBond::linear(Metric::L2);
//! let exact = flat.search_with(&linear, ds.query(0), &SearchOptions::new(10));
//! assert_eq!(hits[0].id, exact[0].id);
//! ```

//! ## Parallel batch search
//!
//! Every deployment serves query batches through the execution engine
//! ([`pdx_core::exec`]): queries shard across a scoped-thread worker
//! pool, and results are **bit-identical to the sequential path at any
//! thread count** (`0` means the default width — the `PDX_THREADS`
//! environment override, then the hardware parallelism).
//!
//! ```
//! use pdx::prelude::*;
//!
//! let spec = DatasetSpec { name: "demo", dims: 16, distribution: Distribution::Normal, paper_size: 0 };
//! let ds = generate(&spec, 500, 8, 7);
//! let flat = FlatPdx::with_defaults(&ds.data, ds.len, ds.dims());
//! let opts = SearchOptions::new(5).with_threads(4);
//!
//! let batch = flat.search_batch(&ds.queries, &opts);
//! for (qi, hits) in batch.iter().enumerate() {
//!     assert_eq!(hits, &flat.search(ds.query(qi), &opts));
//! }
//!
//! // A caller that brings its own pruner uses the typed twins every
//! // PDX-layout deployment gets from `Deployment`.
//! let bond = PdxBond::new(Metric::L2, VisitOrder::Sequential);
//! let typed = flat.search_batch_with(&bond, &ds.queries, &opts);
//! assert_eq!(typed[0], flat.search_with(&bond, ds.query(0), &opts));
//! ```
//!
//! ## Mutable collections
//!
//! [`store`] ([`pdx_store`]) adds the LSM-style mutable layer: inserts
//! land in a write buffer, seal into immutable PDX segments, deletes
//! tombstone sealed rows, and `compact()` rewrites the survivors —
//! all served through the same [`prelude::VectorIndex`] trait (and, for
//! persistent collections, crash-safe via a WAL and a `PDX3` manifest
//! that [`prelude::AnyIndex::open`] sniffs). Collections are safe to
//! share across threads: reads run lock-free against immutable
//! snapshots, and sealing/compaction can run as background jobs
//! (`compact_background()`) concurrently with reads and writes.
//!
//! ```
//! use pdx::prelude::*;
//!
//! let coll = Collection::in_memory(2, StoreConfig::default());
//! for i in 0..100u64 {
//!     coll.insert(i, &[i as f32, 0.0])?;
//! }
//! coll.delete(1)?;
//! let hits = coll.search(&[0.0, 0.0], &SearchOptions::new(2));
//! let ids: Vec<u64> = hits.iter().map(|n| n.id).collect();
//! assert_eq!(ids, vec![0, 2]); // id 1 is gone
//! coll.compact()?; // purge the tombstone, rewrite the blocks
//! assert_eq!(coll.len(), 99);
//! # Ok::<(), StoreError>(())
//! ```

pub use pdx_core as core;
pub use pdx_datasets as datasets;
pub use pdx_engine as engine;
pub use pdx_index as index;
pub use pdx_linalg as linalg;
pub use pdx_obs as obs;
pub use pdx_pruners as pruners;
pub use pdx_serve as serve;
pub use pdx_store as store;

/// One-stop imports for applications and examples.
pub mod prelude {
    pub use pdx_core::bond::PdxBond;
    pub use pdx_core::cache::{resolve_cache_bytes, BlockCache, CacheStats, CACHE_BYTES_ENV};
    pub use pdx_core::collection::{PdxCollection, SearchBlock};
    pub use pdx_core::distance::{normalize, Metric};
    pub use pdx_core::engine::{
        check_vectors, PrunerKind, SearchOptions, VectorError, VectorIndex,
    };
    pub use pdx_core::exec::{
        merge_neighbors, resolve_threads, BatchSearcher, ThreadPool, THREADS_ENV,
    };
    pub use pdx_core::heap::{KnnHeap, Neighbor};
    pub use pdx_core::kernels::{
        active_kernel_isa, detected_isa, nary_distance, pdx_scan, sq8_distance_scalar, sq8_scan,
        KernelIsa, KernelPolicy, KernelVariant,
    };
    pub use pdx_core::layout::{PdxBlock, Sq8Quantizer, Sq8Query};
    pub use pdx_core::mask::RowMask;
    pub use pdx_core::pruning::{checkpoints, BlockAux, Pruner, StepPolicy};
    pub use pdx_core::search::{
        pdxearch, pdxearch_band, sq8_rerank, ScanBlock, Sq8Block, Sq8Bound, DEFAULT_REFINE,
    };
    pub use pdx_core::stats::BlockStats;
    pub use pdx_core::visit_order::VisitOrder;
    pub use pdx_core::{DEFAULT_EXACT_BLOCK, DEFAULT_GROUP_SIZE};
    pub use pdx_datasets::eval::{ground_truth, mean_recall, recall_at_k};
    pub use pdx_datasets::persist::{ContainerHeader, IvfBucketEntry};
    pub use pdx_datasets::synthetic::{
        generate, spec_by_name, Dataset, DatasetSpec, Distribution, TABLE1,
    };
    pub use pdx_engine::{AnyIndex, OpenOptions, Opened, Pruned, PrunedFlat, PrunedIvf};
    pub use pdx_index::{Deployment, FlatPdx, FlatSq8, IvfIndex, IvfPdx, IvfSq8, KMeans, LazyIvf};
    pub use pdx_pruners::{AdSampling, Bsa, BsaLearned};
    pub use pdx_serve::{
        Backend, Client as ServeClient, ClientError, ErrorKind as ServeErrorKind, ServeConfig,
        Server, StatsReport,
    };
    pub use pdx_store::{
        Collection, GroupCommit, MaintenanceJob, SegmentStat, ShardedCollection, Snapshot,
        StoreConfig, StoreError, SHARDS_FILE,
    };
}
