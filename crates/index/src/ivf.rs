//! The IVF (inverted file) index and its two deployments.
//!
//! Training happens once on the raw collection ([`IvfIndex::build`]) and
//! produces bucket assignments. Deployments then materialize those same
//! buckets in different layouts/spaces:
//!
//! * [`IvfPdx`] — buckets and centroids stored in PDX (Figure 2: "IVF
//!   buckets naturally map to blocks"); searched with PDXearch. Passing
//!   rotated rows (ADSampling/BSA space) yields the paper's PDX-ADS /
//!   PDX-BSA configurations; raw rows yield PDX-BOND / PDX linear scan.
//! * [`IvfHorizontal`] — buckets in the dual-block horizontal layout;
//!   searched vector-at-a-time (SIMD-ADS / SCALAR-ADS) or linearly
//!   (the FAISS-like IVF_FLAT baseline).
//!
//! Because every deployment shares the assignments, competitors evaluate
//! exactly the same vectors at a given `nprobe` — the paper's fairness
//! requirement (§6.3).

use crate::kmeans::KMeans;
use pdx_core::collection::SearchBlock;
use pdx_core::distance::Metric;
use pdx_core::engine::SearchOptions;
use pdx_core::heap::{KnnHeap, Neighbor};
use pdx_core::kernels::{nary_distance, KernelVariant};
use pdx_core::layout::NaryMatrix;
use pdx_core::pruning::Pruner;
use pdx_core::search::{horizontal_linear_scan, linear_scan_blocks, pdxearch, HorizontalBucket};

/// A trained IVF index: cluster model plus bucket membership.
#[derive(Debug, Clone)]
pub struct IvfIndex {
    /// Dimensionality.
    pub dims: usize,
    /// Number of buckets (clusters).
    pub nlist: usize,
    /// The trained cluster model (raw space).
    pub kmeans: KMeans,
    /// `assignments[b]` lists the row ids of bucket `b`.
    pub assignments: Vec<Vec<u32>>,
}

impl IvfIndex {
    /// Trains IVF with `nlist` buckets on the raw collection, using the
    /// default worker pool (`PDX_THREADS` env override, then hardware
    /// width) for the k-means assignment passes.
    pub fn build(
        rows: &[f32],
        n_vectors: usize,
        dims: usize,
        nlist: usize,
        max_iters: usize,
        seed: u64,
    ) -> Self {
        Self::build_with_threads(rows, n_vectors, dims, nlist, max_iters, seed, 0)
    }

    /// [`IvfIndex::build`] with an explicit worker count (`0` = default).
    /// The trained index is bitwise identical at every thread count for
    /// a given seed (see [`KMeans::fit_with_pool`]).
    #[allow(clippy::too_many_arguments)]
    pub fn build_with_threads(
        rows: &[f32],
        n_vectors: usize,
        dims: usize,
        nlist: usize,
        max_iters: usize,
        seed: u64,
        threads: usize,
    ) -> Self {
        let pool = pdx_core::exec::ThreadPool::new(threads);
        let kmeans = KMeans::fit_with_pool(rows, n_vectors, dims, nlist, max_iters, seed, &pool);
        let assignments = kmeans.assignments_with_pool(rows, n_vectors, &pool);
        Self {
            dims,
            nlist: kmeans.k,
            kmeans,
            assignments,
        }
    }

    /// The paper's default bucket count: `√n` (§2.1).
    pub fn default_nlist(n_vectors: usize) -> usize {
        (n_vectors as f64).sqrt().round().max(1.0) as usize
    }
}

/// Computes per-bucket centroids as member means in the given space.
fn bucket_centroids(rows: &[f32], dims: usize, assignments: &[Vec<u32>]) -> (Vec<f32>, Vec<u64>) {
    let mut centroids = Vec::new();
    let mut bucket_ids = Vec::new();
    for (b, ids) in assignments.iter().enumerate() {
        if ids.is_empty() {
            continue;
        }
        let mut mean = vec![0.0f64; dims];
        for &v in ids {
            let row = &rows[v as usize * dims..(v as usize + 1) * dims];
            for (m, &x) in mean.iter_mut().zip(row) {
                *m += x as f64;
            }
        }
        let inv = 1.0 / ids.len() as f64;
        centroids.extend(mean.iter().map(|m| (m * inv) as f32));
        bucket_ids.push(b as u64);
    }
    (centroids, bucket_ids)
}

/// The router's block: row-major `centroid_rows` (row `i` = bucket `i`)
/// in the PDX layout, with the bucket index as row id. Built by this one
/// call whether the centroids were just computed or came out of a
/// container header, so every deployment of one IVF probes identically.
pub fn centroid_block(centroid_rows: &[f32], dims: usize, group_size: usize) -> SearchBlock {
    let n_centroids = centroid_rows.len() / dims.max(1);
    SearchBlock::new(
        centroid_rows,
        (0..n_centroids as u64).collect(),
        dims,
        group_size,
    )
}

/// Ranks the buckets of a PDX-layout IVF by the distance of their
/// `centroids` (row `i` = bucket `i`) to the (space-transformed) query;
/// returns the `nprobe` nearest bucket indexes, nearest first. The one
/// ranking behind every such deployment — resident, lazy, quantized — so
/// all of them probe identically.
pub fn probe_order(
    centroids: &SearchBlock,
    query_space: &[f32],
    nprobe: usize,
    metric: Metric,
) -> Vec<u32> {
    let neighbors = linear_scan_blocks(&[centroids], query_space, nprobe.max(1), metric);
    neighbors.iter().map(|n| n.id as u32).collect()
}

/// IVF deployment with buckets and centroids in the PDX layout. Queries
/// go through [`Deployment`](crate::Deployment) (any pruner) or
/// [`VectorIndex`](pdx_core::engine::VectorIndex) (the options' pruner).
#[derive(Debug, Clone)]
pub struct IvfPdx {
    /// Dimensionality.
    pub dims: usize,
    /// Centroids of the non-empty buckets, in PDX; `row_ids[i]` is the
    /// index into `blocks`.
    pub centroids: SearchBlock,
    /// One searchable block per non-empty bucket.
    pub blocks: Vec<SearchBlock>,
}

impl IvfPdx {
    /// Materializes buckets from `rows` (any space: raw or rotated) and
    /// the shared assignments.
    pub fn new(rows: &[f32], dims: usize, assignments: &[Vec<u32>], group_size: usize) -> Self {
        let (centroid_rows, _) = bucket_centroids(rows, dims, assignments);
        let mut blocks = Vec::new();
        for ids in assignments.iter().filter(|ids| !ids.is_empty()) {
            let pdx = pdx_core::layout::PdxBlock::from_row_ids(rows, dims, ids, group_size);
            let stats = pdx_core::stats::BlockStats::from_block(&pdx);
            blocks.push(SearchBlock {
                pdx,
                row_ids: ids.iter().map(|&v| v as u64).collect(),
                stats,
                aux: None,
            });
        }
        Self {
            dims,
            centroids: centroid_block(&centroid_rows, dims, group_size),
            blocks,
        }
    }

    /// Ranks blocks by centroid distance to the (space-transformed)
    /// query; returns the `nprobe` nearest block indexes, nearest first.
    pub fn probe_order(&self, query_space: &[f32], nprobe: usize, metric: Metric) -> Vec<u32> {
        probe_order(&self.centroids, query_space, nprobe, metric)
    }

    /// Builds an HNSW router over the centroids — the "hybrid index" of
    /// §2.1 (HNSW on the IVF centroids finds promising buckets quickly
    /// when `nlist` is large).
    pub fn build_centroid_router(
        &self,
        params: crate::hnsw::HnswParams,
        seed: u64,
    ) -> crate::hnsw::Hnsw {
        let rows = self.centroids.pdx.to_rows();
        crate::hnsw::Hnsw::build(&rows, self.centroids.len(), self.dims, params, seed)
    }

    /// PDXearch query routed through a centroid HNSW (built with
    /// [`IvfPdx::build_centroid_router`]) instead of the linear centroid
    /// scan: an approximate ranking of [`SearchOptions::nprobe`] buckets,
    /// whose beam width `ef` (at least the probe count) trades routing
    /// recall for speed.
    pub fn search_with_router<P: Pruner>(
        &self,
        router: &crate::hnsw::Hnsw,
        pruner: &P,
        query: &[f32],
        opts: &SearchOptions,
        ef: usize,
    ) -> Vec<Neighbor> {
        let q = pruner.prepare_query(query);
        let nprobe = opts.resolve_nprobe(self.blocks.len());
        let order = router.search(pruner.query_vector(&q), nprobe, ef);
        let blocks = order.iter().map(|n| &self.blocks[n.id as usize]);
        pdxearch(pruner, &q, blocks, opts, None, None)
    }

    /// Linear scan (no pruning) of the `nprobe` nearest buckets with the
    /// PDX kernels — the "PDX linear scan" competitor.
    pub fn linear_search(
        &self,
        query: &[f32],
        k: usize,
        nprobe: usize,
        metric: Metric,
    ) -> Vec<Neighbor> {
        let order = self.probe_order(query, nprobe, metric);
        let blocks: Vec<&SearchBlock> = order.iter().map(|&b| &self.blocks[b as usize]).collect();
        linear_scan_blocks(&blocks, query, k, metric)
    }
}

/// IVF deployment with dual-block horizontal buckets.
#[derive(Debug, Clone)]
pub struct IvfHorizontal {
    /// Dimensionality.
    pub dims: usize,
    /// Row-major centroids of the non-empty buckets.
    pub centroids: NaryMatrix,
    /// One dual-block bucket per non-empty bucket (same order as
    /// `centroids` rows).
    pub buckets: Vec<HorizontalBucket>,
    /// Δd split the buckets were built with.
    pub delta_d: usize,
}

impl IvfHorizontal {
    /// Materializes dual-block buckets split at `delta_d`.
    pub fn new(rows: &[f32], dims: usize, assignments: &[Vec<u32>], delta_d: usize) -> Self {
        let (centroid_rows, _) = bucket_centroids(rows, dims, assignments);
        let n_centroids = centroid_rows.len() / dims.max(1);
        let centroids = NaryMatrix::from_vec(n_centroids, dims, centroid_rows);
        let buckets = assignments
            .iter()
            .filter(|ids| !ids.is_empty())
            .map(|ids| {
                let mut bucket_rows = Vec::with_capacity(ids.len() * dims);
                for &v in ids {
                    bucket_rows
                        .extend_from_slice(&rows[v as usize * dims..(v as usize + 1) * dims]);
                }
                HorizontalBucket::new(
                    &bucket_rows,
                    ids.iter().map(|&v| v as u64).collect(),
                    dims,
                    delta_d,
                )
            })
            .collect();
        Self {
            dims,
            centroids,
            buckets,
            delta_d,
        }
    }

    /// Ranks buckets by centroid distance with the horizontal kernel.
    pub fn probe_order(
        &self,
        query_space: &[f32],
        nprobe: usize,
        metric: Metric,
        variant: KernelVariant,
    ) -> Vec<u32> {
        let mut heap = KnnHeap::new(nprobe.max(1));
        for (i, row) in self.centroids.rows().enumerate() {
            heap.push(i as u64, nary_distance(metric, variant, query_space, row));
        }
        heap.into_sorted().iter().map(|n| n.id as u32).collect()
    }

    /// Non-pruning linear IVF_FLAT query — the FAISS/Milvus stand-in.
    pub fn linear_search(
        &self,
        query: &[f32],
        k: usize,
        nprobe: usize,
        metric: Metric,
        variant: KernelVariant,
    ) -> Vec<Neighbor> {
        let order = self.probe_order(query, nprobe, metric, variant);
        let buckets: Vec<&HorizontalBucket> =
            order.iter().map(|&b| &self.buckets[b as usize]).collect();
        horizontal_linear_scan(&buckets, query, k, metric, variant)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Deployment;
    use pdx_core::bond::PdxBond;
    use pdx_core::visit_order::VisitOrder;
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
    fn probing_all_buckets_equals_exact_search() {
        let (n, d, k) = (600, 12, 10);
        let rows = random_rows(n, d, 1);
        let index = IvfIndex::build(&rows, n, d, 16, 10, 7);
        let ivf = IvfPdx::new(&rows, d, &index.assignments, 64);
        let q = random_rows(1, d, 9);
        let bond = PdxBond::new(Metric::L2, VisitOrder::Sequential);
        let got = ivf.search_with(&bond, &q, &SearchOptions::new(k));
        let ids: Vec<u64> = got.iter().map(|x| x.id).collect();
        assert_eq!(ids, brute(&rows, d, &q, k));
    }

    #[test]
    fn horizontal_and_pdx_deployments_agree_at_full_probe() {
        let (n, d, k) = (400, 16, 8);
        let rows = random_rows(n, d, 2);
        let index = IvfIndex::build(&rows, n, d, 12, 8, 3);
        let pdx = IvfPdx::new(&rows, d, &index.assignments, 64);
        let hor = IvfHorizontal::new(&rows, d, &index.assignments, 8);
        let q = random_rows(1, d, 4);
        let a = pdx.linear_search(&q, k, pdx.blocks.len(), Metric::L2);
        let b = hor.linear_search(&q, k, hor.buckets.len(), Metric::L2, KernelVariant::Simd);
        assert_eq!(
            a.iter().map(|x| x.id).collect::<Vec<_>>(),
            b.iter().map(|x| x.id).collect::<Vec<_>>()
        );
    }

    #[test]
    fn smaller_nprobe_is_a_subset_search() {
        let (n, d, k) = (500, 8, 5);
        let rows = random_rows(n, d, 5);
        let index = IvfIndex::build(&rows, n, d, 20, 8, 1);
        let ivf = IvfPdx::new(&rows, d, &index.assignments, 32);
        let q = random_rows(1, d, 6);
        // Results at nprobe=1 must come from the single probed bucket.
        let order = ivf.probe_order(&q, 1, Metric::L2);
        let bucket_ids: std::collections::HashSet<u64> = ivf.blocks[order[0] as usize]
            .row_ids
            .iter()
            .copied()
            .collect();
        let got = ivf.linear_search(&q, k, 1, Metric::L2);
        assert!(got.iter().all(|r| bucket_ids.contains(&r.id)));
    }

    #[test]
    fn default_nlist_is_sqrt_n() {
        assert_eq!(IvfIndex::default_nlist(1_000_000), 1000);
        assert_eq!(IvfIndex::default_nlist(100), 10);
        assert_eq!(IvfIndex::default_nlist(0), 1);
    }

    #[test]
    fn empty_buckets_are_skipped() {
        // Force k larger than natural clusters: some buckets may empty.
        let rows = random_rows(30, 4, 11);
        let index = IvfIndex::build(&rows, 30, 4, 25, 6, 4);
        let ivf = IvfPdx::new(&rows, 4, &index.assignments, 16);
        assert!(ivf.blocks.iter().all(|b| !b.is_empty()));
        let total: usize = ivf.blocks.iter().map(|b| b.len()).sum();
        assert_eq!(total, 30);
    }
}
