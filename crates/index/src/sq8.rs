//! SQ8-quantized deployments of the flat and IVF substrates.
//!
//! Both deployments hold three things:
//!
//! * the **scan payload** — SQ8 code blocks in the quantized PDX layout,
//!   4× smaller than their `f32` twins and the only data the per-query
//!   scan walks;
//! * the **codec** — one [`Sq8Quantizer`] learned on the whole
//!   collection at build time, so codes are comparable across blocks;
//! * the **rerank payload** — the original row-major `f32` vectors,
//!   touched only for the `refine · k` candidates of each query (the
//!   DiskANN-style split: hot compressed scan data, cold exact data).
//!
//! Queries run the two-phase path of
//! [`pdx_core::search::quantized`] through the serve driver
//! ([`Deployment`](crate::Deployment)): quantized PDXearch scan keeping
//! `refine · k` candidates → exact `f32` rerank. A deployment without
//! a rerank payload (a scan-only container) answers with the top-`k`
//! quantized estimates instead.

use pdx_core::collection::SearchBlock;
use pdx_core::exec::ThreadPool;
use pdx_core::layout::{PayloadWriter, Sq8Quantizer};
use pdx_core::search::quantized::Sq8Block;
use pdx_core::{DEFAULT_EXACT_BLOCK, DEFAULT_GROUP_SIZE};
use std::borrow::Cow;

/// Flat SQ8 deployment: equally sized partitions (the §6.5 exact-search
/// shape) with quantized scan data and exact rerank data.
///
/// ```
/// use pdx_index::FlatSq8;
/// use pdx_core::engine::{SearchOptions, VectorIndex};
///
/// // Sixteen 2-dimensional points on a line, moved in as the rerank
/// // payload (`&rows` would copy them).
/// let rows: Vec<f32> = (0..32).map(|i| i as f32).collect();
/// let flat = FlatSq8::build(rows, 16, 2, 8, 4);
/// let hits = flat.search(&[0.0, 1.0], &SearchOptions::new(3));
/// assert_eq!(hits[0].id, 0); // the nearest point, reranked exactly
/// assert_eq!(hits.len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct FlatSq8 {
    /// Dimensionality.
    pub dims: usize,
    /// The collection-level codec.
    pub quantizer: Sq8Quantizer,
    /// Quantized partitions, in storage order.
    pub blocks: Vec<Sq8Block>,
    /// Row-major `f32` rerank payload, indexed by global row id.
    pub rows: Vec<f32>,
}

impl FlatSq8 {
    /// Fits the quantizer on all rows and quantizes consecutive
    /// partitions of at most `block_size` vectors.
    ///
    /// The rows become the rerank payload: an owned `Vec<f32>` is moved
    /// in, never copied (`Segment::seal` in `pdx-store` hands over the
    /// rows a seal or compaction gathered); a borrowed slice is copied
    /// once, by `Cow::into_owned`.
    ///
    /// # Panics
    /// Panics if the buffer size disagrees or `block_size == 0`.
    pub fn build<'a>(
        rows: impl Into<Cow<'a, [f32]>>,
        n_vectors: usize,
        dims: usize,
        block_size: usize,
        group_size: usize,
    ) -> Self {
        Self::build_with_threads(rows, n_vectors, dims, block_size, group_size, 0)
    }

    /// [`FlatSq8::build`] with an explicit worker count (`0` = default)
    /// for quantizer training. The built deployment is bitwise identical
    /// at every thread count (min/max range merging is exact).
    pub fn build_with_threads<'a>(
        rows: impl Into<Cow<'a, [f32]>>,
        n_vectors: usize,
        dims: usize,
        block_size: usize,
        group_size: usize,
        threads: usize,
    ) -> Self {
        assert!(block_size > 0, "block size must be positive");
        let rows = rows.into().into_owned();
        assert_eq!(
            rows.len(),
            n_vectors * dims,
            "row buffer does not match dimensions"
        );
        let quantizer =
            Sq8Quantizer::fit_with_pool(&rows, n_vectors, dims, &ThreadPool::new(threads));
        let mut payload = PayloadWriter::new(rows.len());
        for v0 in (0..n_vectors).step_by(block_size) {
            let n = block_size.min(n_vectors - v0);
            quantizer.encode_into(&mut payload, &rows[v0 * dims..][..n * dims], n, group_size);
        }
        let mut v0 = 0u64;
        let blocks = payload
            .finish()
            .into_iter()
            .map(|codes| {
                let n = codes.len() as u64;
                v0 += n;
                Sq8Block {
                    codes,
                    row_ids: (v0 - n..v0).collect(),
                }
            })
            .collect();
        Self {
            dims,
            quantizer,
            blocks,
            rows,
        }
    }

    /// Paper-default partitioning (blocks of 10 240, groups of 64).
    pub fn with_defaults<'a>(
        rows: impl Into<Cow<'a, [f32]>>,
        n_vectors: usize,
        dims: usize,
    ) -> Self {
        Self::build(
            rows,
            n_vectors,
            dims,
            DEFAULT_EXACT_BLOCK,
            DEFAULT_GROUP_SIZE,
        )
    }

    /// Reassembles a deployment from persisted parts (see
    /// `pdx_datasets::persist`).
    pub fn from_parts(
        dims: usize,
        quantizer: Sq8Quantizer,
        blocks: Vec<Sq8Block>,
        rows: Vec<f32>,
    ) -> Self {
        Self {
            dims,
            quantizer,
            blocks,
            rows,
        }
    }

    /// Total vectors across partitions.
    pub fn total_vectors(&self) -> usize {
        self.blocks.iter().map(|b| b.len()).sum()
    }

    /// Bytes of scan-resident code data (the `f32` twin holds 4× this).
    pub fn resident_block_bytes(&self) -> usize {
        self.blocks.iter().map(|b| b.codes.as_slice().len()).sum()
    }
}

/// IVF deployment with SQ8-quantized buckets: the same shared bucket
/// assignments as [`IvfPdx`](crate::ivf::IvfPdx), with `u8` scan blocks
/// and `f32` rerank rows.
///
/// Centroids stay in `f32` PDX — they are `√n` vectors, a rounding error
/// next to the buckets, and exact centroid ranking keeps probe order
/// identical to the unquantized deployments (the paper's fairness
/// argument extends to the compressed index).
#[derive(Debug, Clone)]
pub struct IvfSq8 {
    /// Dimensionality.
    pub dims: usize,
    /// The collection-level codec.
    pub quantizer: Sq8Quantizer,
    /// Centroids of the non-empty buckets, in `f32` PDX.
    pub centroids: SearchBlock,
    /// One quantized block per non-empty bucket.
    pub blocks: Vec<Sq8Block>,
    /// Row-major `f32` rerank payload, indexed by global row id.
    pub rows: Vec<f32>,
}

impl IvfSq8 {
    /// Quantizes the buckets of a trained IVF (the same `assignments` the
    /// `f32` deployments use, so all deployments probe identical
    /// buckets).
    ///
    /// # Panics
    /// Panics if any assignment id is out of range.
    pub fn new(rows: &[f32], dims: usize, assignments: &[Vec<u32>], group_size: usize) -> Self {
        let n_vectors = rows.len() / dims.max(1);
        let quantizer = Sq8Quantizer::fit(rows, n_vectors, dims);
        let centroid_rows = crate::ivf::bucket_centroids(rows, dims, assignments);
        let buckets: Vec<&Vec<u32>> = assignments.iter().filter(|ids| !ids.is_empty()).collect();
        let mut payload = PayloadWriter::new(buckets.iter().map(|ids| ids.len() * dims).sum());
        for &ids in &buckets {
            let row = |&v: &u32| &rows[v as usize * dims..][..dims];
            let bucket_rows: Vec<f32> = ids.iter().flat_map(row).copied().collect();
            quantizer.encode_into(&mut payload, &bucket_rows, ids.len(), group_size);
        }
        let blocks = payload
            .finish()
            .into_iter()
            .zip(buckets)
            .map(|(codes, ids)| Sq8Block {
                codes,
                row_ids: ids.iter().map(|&v| v as u64).collect(),
            })
            .collect();
        Self {
            dims,
            quantizer,
            centroids: crate::ivf::centroid_block(&centroid_rows, dims, group_size),
            blocks,
            rows: rows.to_vec(),
        }
    }

    /// Bytes of scan-resident bucket code data.
    pub fn resident_block_bytes(&self) -> usize {
        self.blocks.iter().map(|b| b.codes.as_slice().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ivf::IvfIndex;
    use pdx_core::distance::Metric;
    use pdx_core::engine::{SearchOptions, VectorIndex};
    use pdx_core::heap::KnnHeap;
    use pdx_core::kernels::{nary_distance, KernelVariant};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_rows(n: usize, d: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n * d).map(|_| rng.random::<f32>() * 10.0).collect()
    }

    fn brute(data: &[f32], d: usize, q: &[f32], k: usize) -> Vec<u64> {
        let mut heap = KnnHeap::new(k);
        for (i, row) in data.chunks_exact(d).enumerate() {
            heap.push(
                i as u64,
                nary_distance(Metric::L2, KernelVariant::Scalar, q, row),
            );
        }
        heap.into_sorted().iter().map(|n| n.id).collect()
    }

    #[test]
    fn flat_two_phase_matches_brute_force() {
        let (n, d, k) = (900, 12, 10);
        let rows = random_rows(n, d, 1);
        let flat = FlatSq8::build(&rows, n, d, 250, 64);
        assert_eq!(flat.blocks.len(), 4);
        assert_eq!(flat.total_vectors(), n);
        let q = random_rows(1, d, 9);
        let got = flat.search(&q, &SearchOptions::new(k).with_refine(8));
        let ids: Vec<u64> = got.iter().map(|x| x.id).collect();
        assert_eq!(ids, brute(&rows, d, &q, k));
    }

    #[test]
    fn flat_resident_bytes_are_4x_smaller_than_f32() {
        let (n, d) = (500, 16);
        let rows = random_rows(n, d, 3);
        let flat = FlatSq8::build(&rows, n, d, 128, 64);
        assert_eq!(flat.resident_block_bytes(), n * d);
        let f32_bytes = n * d * std::mem::size_of::<f32>();
        assert!(f32_bytes >= 4 * flat.resident_block_bytes());
    }

    #[test]
    fn ivf_full_probe_matches_brute_force() {
        let (n, d, k) = (600, 12, 10);
        let rows = random_rows(n, d, 5);
        let index = IvfIndex::build(&rows, n, d, 16, 10, 7);
        let ivf = IvfSq8::new(&rows, d, &index.assignments, 64);
        let q = random_rows(1, d, 11);
        let got = ivf.search(&q, &SearchOptions::new(k).with_refine(8));
        let ids: Vec<u64> = got.iter().map(|x| x.id).collect();
        assert_eq!(ids, brute(&rows, d, &q, k));
    }

    #[test]
    fn ivf_probe_order_matches_f32_deployment() {
        // Centroids are exact, so probe order equals IvfPdx's.
        let (n, d) = (400, 8);
        let rows = random_rows(n, d, 2);
        let index = IvfIndex::build(&rows, n, d, 12, 8, 3);
        let sq8 = IvfSq8::new(&rows, d, &index.assignments, 64);
        let pdx = crate::ivf::IvfPdx::new(&rows, d, &index.assignments, 64);
        let q = random_rows(1, d, 4);
        let route = |centroids| crate::ivf::probe_orders(centroids, &[&q], 5, Metric::L2);
        assert_eq!(route(&sq8.centroids), route(&pdx.centroids));
    }

    #[test]
    fn quantized_phase_alone_is_already_close() {
        let (n, d, k) = (800, 10, 10);
        let rows = random_rows(n, d, 8);
        let flat = FlatSq8::build(&rows, n, d, 200, 32);
        let scan_only = FlatSq8::from_parts(d, flat.quantizer, flat.blocks, Vec::new());
        let q = random_rows(1, d, 6);
        let est = scan_only.search(&q, &SearchOptions::new(k));
        let truth = brute(&rows, d, &q, k);
        let truth_set: std::collections::HashSet<u64> = truth.iter().copied().collect();
        let hits = est.iter().filter(|x| truth_set.contains(&x.id)).count();
        // 8-bit quantization on 10 uniform dims: most of the top-k
        // survives even without rerank.
        assert!(hits >= k / 2, "only {hits}/{k} without rerank");
    }

    #[test]
    fn empty_buckets_are_skipped() {
        let rows = random_rows(30, 4, 11);
        let index = IvfIndex::build(&rows, 30, 4, 25, 6, 4);
        let ivf = IvfSq8::new(&rows, 4, &index.assignments, 16);
        assert!(ivf.blocks.iter().all(|b| !b.is_empty()));
        let total: usize = ivf.blocks.iter().map(|b| b.len()).sum();
        assert_eq!(total, 30);
    }
}
