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
use pdx_core::exec::{parallel_block_search, BatchSearcher};
use pdx_core::heap::{KnnHeap, Neighbor};
use pdx_core::kernels::{nary_distance, KernelVariant};
use pdx_core::layout::NaryMatrix;
use pdx_core::profile::SearchProfile;
use pdx_core::pruning::Pruner;
use pdx_core::search::{
    horizontal_linear_scan, horizontal_pruned_search_prepared, linear_scan_blocks,
    pdxearch_prepared, pdxearch_prepared_profiled, HorizontalBucket, SearchParams,
};
use std::time::Instant;

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

/// IVF deployment with buckets and centroids in the PDX layout.
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
        let n_centroids = centroid_rows.len() / dims.max(1);
        let centroids = SearchBlock::new(
            &centroid_rows,
            (0..n_centroids as u64).collect(),
            dims,
            group_size,
        );
        Self {
            dims,
            centroids,
            blocks,
        }
    }

    /// Ranks blocks by centroid distance to the (space-transformed)
    /// query; returns the `nprobe` nearest block indexes, nearest first.
    pub fn probe_order(&self, query_space: &[f32], nprobe: usize, metric: Metric) -> Vec<u32> {
        let neighbors = linear_scan_blocks(&[&self.centroids], query_space, nprobe.max(1), metric);
        neighbors.iter().map(|n| n.id as u32).collect()
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

    /// Approximate probe ranking via a centroid HNSW (built with
    /// [`IvfPdx::build_centroid_router`]); `ef` trades routing recall for
    /// speed.
    pub fn probe_order_hnsw(
        &self,
        router: &crate::hnsw::Hnsw,
        query_space: &[f32],
        nprobe: usize,
        ef: usize,
    ) -> Vec<u32> {
        router
            .search(query_space, nprobe.max(1), ef)
            .iter()
            .map(|n| n.id as u32)
            .collect()
    }

    /// PDXearch query routed through a centroid HNSW instead of the
    /// linear centroid scan.
    pub fn search_with_router<P: Pruner>(
        &self,
        router: &crate::hnsw::Hnsw,
        pruner: &P,
        query: &[f32],
        nprobe: usize,
        ef: usize,
        params: &SearchParams,
    ) -> Vec<Neighbor> {
        let q = pruner.prepare_query(query);
        let order = self.probe_order_hnsw(router, pruner.query_vector(&q), nprobe, ef);
        let blocks: Vec<&SearchBlock> = order.iter().map(|&b| &self.blocks[b as usize]).collect();
        pdxearch_prepared(pruner, &q, &blocks, params)
    }

    /// Full PDXearch query: prepare → probe → pruned scan.
    pub fn search<P: Pruner>(
        &self,
        pruner: &P,
        query: &[f32],
        nprobe: usize,
        params: &SearchParams,
    ) -> Vec<Neighbor> {
        self.search_prepared(pruner, &pruner.prepare_query(query), nprobe, params)
    }

    /// [`IvfPdx::search`] from an already-prepared query: probe →
    /// pruned scan.
    pub fn search_prepared<P: Pruner>(
        &self,
        pruner: &P,
        q: &P::Query,
        nprobe: usize,
        params: &SearchParams,
    ) -> Vec<Neighbor> {
        let order = self.probe_order(pruner.query_vector(q), nprobe, pruner.metric());
        let blocks: Vec<&SearchBlock> = order.iter().map(|&b| &self.blocks[b as usize]).collect();
        pdxearch_prepared(pruner, q, &blocks, params)
    }

    /// Searches a batch of packed queries on `threads` workers (`0` =
    /// default width). Each work item is a small sub-batch that one
    /// worker prepares together ([`Pruner::prepare_queries`] — one
    /// tiled rotation for ADSampling/BSA) and then searches query by
    /// query. Results are identical to calling [`IvfPdx::search`] per
    /// query, at any thread count.
    ///
    /// # Panics
    /// Panics if `queries.len()` is not a multiple of the
    /// dimensionality.
    pub fn search_batch<P: Pruner + Sync>(
        &self,
        pruner: &P,
        queries: &[f32],
        nprobe: usize,
        params: &SearchParams,
        threads: usize,
    ) -> Vec<Vec<Neighbor>> {
        BatchSearcher::new(threads).run_prepared(
            queries,
            self.dims,
            |packed| pruner.prepare_queries(packed, self.dims),
            |q| self.search_prepared(pruner, q, nprobe, params),
        )
    }

    /// One large query with the probed buckets split into per-worker
    /// block ranges; per-worker heaps merge to the canonical top-k by
    /// `(distance, id)`. Bit-identical to [`IvfPdx::search`] for exact
    /// pruners (PDX-BOND) at any thread count; approximate pruners may
    /// differ because their bound depends on the threshold's history.
    pub fn search_parallel<P: Pruner + Sync>(
        &self,
        pruner: &P,
        query: &[f32],
        nprobe: usize,
        params: &SearchParams,
        threads: usize,
    ) -> Vec<Neighbor>
    where
        P::Query: Sync,
    {
        let q = pruner.prepare_query(query);
        let order = self.probe_order(pruner.query_vector(&q), nprobe, pruner.metric());
        let blocks: Vec<&SearchBlock> = order.iter().map(|&b| &self.blocks[b as usize]).collect();
        let pool = pdx_core::exec::ThreadPool::new(threads);
        parallel_block_search(&pool, blocks.len(), params.k, |range| {
            pdxearch_prepared(pruner, &q, &blocks[range], params)
        })
    }

    /// [`IvfPdx::search`] with the Table 7 phase breakdown.
    pub fn search_profiled<P: Pruner>(
        &self,
        pruner: &P,
        query: &[f32],
        nprobe: usize,
        params: &SearchParams,
        profile: &mut SearchProfile,
    ) -> Vec<Neighbor> {
        let t0 = Instant::now();
        let q = pruner.prepare_query(query);
        profile.preprocess_ns += t0.elapsed().as_nanos() as u64;
        let t1 = Instant::now();
        let order = self.probe_order(pruner.query_vector(&q), nprobe, pruner.metric());
        let blocks: Vec<&SearchBlock> = order.iter().map(|&b| &self.blocks[b as usize]).collect();
        profile.find_buckets_ns += t1.elapsed().as_nanos() as u64;
        pdxearch_prepared_profiled(pruner, &q, &blocks, params, profile)
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

    /// Pruned vector-at-a-time query (SIMD-ADS when `variant` is
    /// [`KernelVariant::Simd`], SCALAR-ADS when scalar).
    pub fn search<P: Pruner>(
        &self,
        pruner: &P,
        query: &[f32],
        k: usize,
        nprobe: usize,
        variant: KernelVariant,
    ) -> Vec<Neighbor> {
        let q = pruner.prepare_query(query);
        let order = self.probe_order(pruner.query_vector(&q), nprobe, pruner.metric(), variant);
        let buckets: Vec<&HorizontalBucket> =
            order.iter().map(|&b| &self.buckets[b as usize]).collect();
        horizontal_pruned_search_prepared(pruner, &q, &buckets, k, self.delta_d, variant)
    }

    /// [`IvfHorizontal::search`] with the Table 7 phase breakdown.
    pub fn search_profiled<P: Pruner>(
        &self,
        pruner: &P,
        query: &[f32],
        k: usize,
        nprobe: usize,
        variant: KernelVariant,
        profile: &mut SearchProfile,
    ) -> Vec<Neighbor> {
        let t0 = Instant::now();
        let q = pruner.prepare_query(query);
        profile.preprocess_ns += t0.elapsed().as_nanos() as u64;
        let t1 = Instant::now();
        let order = self.probe_order(pruner.query_vector(&q), nprobe, pruner.metric(), variant);
        let buckets: Vec<&HorizontalBucket> =
            order.iter().map(|&b| &self.buckets[b as usize]).collect();
        profile.find_buckets_ns += t1.elapsed().as_nanos() as u64;
        pdx_core::search::horizontal_pruned_search_profiled(
            pruner,
            &q,
            &buckets,
            k,
            self.delta_d,
            variant,
            profile,
        )
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
        let got = ivf.search(&bond, &q, ivf.blocks.len(), &SearchParams::new(k));
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
    fn profiled_search_fills_phases() {
        let (n, d) = (300, 10);
        let rows = random_rows(n, d, 8);
        let index = IvfIndex::build(&rows, n, d, 10, 5, 2);
        let ivf = IvfPdx::new(&rows, d, &index.assignments, 64);
        let q = random_rows(1, d, 3);
        let bond = PdxBond::new(Metric::L2, VisitOrder::Sequential);
        let mut profile = SearchProfile::default();
        let _ = ivf.search_profiled(&bond, &q, 5, &SearchParams::new(5), &mut profile);
        assert!(profile.find_buckets_ns > 0);
        assert!(profile.distance_ns > 0);
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
