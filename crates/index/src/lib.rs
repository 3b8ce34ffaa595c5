#![warn(missing_docs)]

//! # pdx-index — IVF and flat-partition substrates
//!
//! The paper evaluates PDXearch inside an IVF (inverted file) index and
//! on index-less exact search over flat horizontal partitions:
//!
//! * [`kmeans`] — the non-optimized Lloyd algorithm (k-means++ init,
//!   empty-cluster re-seeding) that IVF training uses (§2.1).
//! * [`ivf`] — the IVF index: raw-space training producing bucket
//!   assignments, plus two *deployments* sharing those assignments:
//!   [`ivf::IvfPdx`] (buckets and centroids in the PDX layout, searched
//!   with PDXearch) and [`ivf::IvfHorizontal`] (dual-block horizontal
//!   buckets, searched vector-at-a-time — the SIMD-ADS/FAISS-style
//!   baselines). Sharing assignments reproduces the paper's "all
//!   competitors share the same IVF index" setup.
//! * [`flat`] — equally sized horizontal partitions (≤ 10 240 vectors)
//!   for exact search (§6.5).
//! * [`hnsw`] — an HNSW graph used as the centroid router of the §2.1
//!   hybrid index (HNSW over IVF centroids), and the §7 stepping stone
//!   toward PDX on graph indexes.
//! * [`sq8`] — SQ8-quantized deployments of both substrates
//!   ([`sq8::FlatSq8`], [`sq8::IvfSq8`]): `u8` scan blocks 4× smaller
//!   than `f32`, searched with the two-phase quantized-scan → exact
//!   rerank path.
//! * [`lazy`] — the out-of-core IVF deployment ([`lazy::LazyIvf`]):
//!   opens an IVF-extended container by reading only its header
//!   (centroids + bucket table, O(1) in the corpus size) and fetches
//!   `nprobe`-selected buckets on demand through a byte-budgeted
//!   [`pdx_core::cache::BlockCache`], returning results bit-identical
//!   to the fully resident [`ivf::IvfPdx`] over the same container.
//! * [`engine`] — the serve driver ([`Deployment`]: a deployment is a
//!   block source, the prepare → route → scan → rerank → trace sequence
//!   is written once) and the [`pdx_core::engine::VectorIndex`]
//!   implementations on top of it, so each PDX-layout deployment is
//!   reachable as a `Box<dyn VectorIndex>` behind one
//!   [`pdx_core::engine::SearchOptions`] surface (batch and parallel
//!   entry points included). The two baselines, [`ivf::IvfHorizontal`]
//!   and [`hnsw::Hnsw`], are served by no layer and keep typed calls.

pub mod engine;
pub mod flat;
pub mod hnsw;
pub mod ivf;
pub mod kmeans;
pub mod lazy;
pub mod sq8;

pub use engine::Deployment;
pub use flat::FlatPdx;
pub use hnsw::{Hnsw, HnswParams};
pub use ivf::{IvfHorizontal, IvfIndex, IvfPdx};
pub use kmeans::KMeans;
pub use lazy::LazyIvf;
pub use sq8::{FlatSq8, IvfSq8};
