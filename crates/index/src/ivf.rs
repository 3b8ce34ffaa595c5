//! The IVF (inverted file) index and its PDX deployment.
//!
//! Training happens once on the raw collection ([`IvfIndex::build`]) and
//! produces bucket assignments. [`IvfPdx`] materializes those buckets
//! and their centroids in PDX (Figure 2: "IVF buckets naturally map to
//! blocks"), searched with PDXearch through the serve driver
//! ([`Deployment`](crate::Deployment)). Passing rotated rows
//! (ADSampling/BSA space) yields the paper's PDX-ADS / PDX-BSA
//! configurations; raw rows yield PDX-BOND, or under
//! [`PdxBond::linear`](pdx_core::bond::PdxBond::linear) the PDX linear
//! scan (IVF_FLAT on PDX).
//!
//! The SQ8 deployment ([`crate::IvfSq8`]) shares the assignments, and
//! the paper's horizontal baseline (in `pdx-bench`'s `baselines`) is
//! built from an [`IvfPdx`] itself, so competitors evaluate exactly the
//! same vectors at a given `nprobe` — the paper's fairness requirement
//! (§6.3).

use crate::kmeans::KMeans;
use pdx_core::collection::SearchBlock;
use pdx_core::distance::Metric;
use pdx_core::heap::KnnHeap;
use pdx_core::kernels::{pdx_accumulate_band, KernelPolicy};
use pdx_core::layout::PayloadWriter;

/// A trained IVF index: cluster model plus bucket membership.
#[derive(Debug, Clone)]
pub struct IvfIndex {
    /// Dimensionality.
    pub dims: usize,
    /// The trained cluster model (raw space).
    pub kmeans: KMeans,
    /// `assignments[b]` lists the row ids of bucket `b`.
    pub assignments: Vec<Vec<u32>>,
}

impl IvfIndex {
    /// Trains IVF with `nlist` buckets on the raw collection, using the
    /// default worker pool (`PDX_THREADS` env override, then hardware
    /// width) for k-means training (seeding and assignment passes).
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
        let (kmeans, assign) =
            KMeans::fit_with_pool(rows, n_vectors, dims, nlist, max_iters, seed, &pool);
        let mut assignments: Vec<Vec<u32>> = vec![Vec::new(); kmeans.k];
        for (v, &c) in assign.iter().enumerate() {
            assignments[c as usize].push(v as u32);
        }
        Self {
            dims,
            kmeans,
            assignments,
        }
    }

    /// The paper's default bucket count: `√n` (§2.1).
    pub fn default_nlist(n_vectors: usize) -> usize {
        (n_vectors as f64).sqrt().round().max(1.0) as usize
    }
}

/// Row-major centroids of the non-empty buckets, in order, as member
/// means in the given space: the one computation every deployment uses.
pub(crate) fn bucket_centroids(rows: &[f32], dims: usize, assignments: &[Vec<u32>]) -> Vec<f32> {
    let mut centroids = Vec::new();
    for ids in assignments.iter().filter(|ids| !ids.is_empty()) {
        let mut mean = vec![0.0f64; dims];
        for &v in ids {
            let row = &rows[v as usize * dims..(v as usize + 1) * dims];
            for (m, &x) in mean.iter_mut().zip(row) {
                *m += x as f64;
            }
        }
        let inv = 1.0 / ids.len() as f64;
        centroids.extend(mean.iter().map(|m| (m * inv) as f32));
    }
    centroids
}

/// The router's block: row-major `centroid_rows` (row `i` = bucket `i`)
/// in the PDX layout, with the bucket index as row id, in a payload arena
/// of its own. [`IvfPdx::new`] tiles its centroids with the same
/// [`PayloadWriter::tile_rows`] into its bucket arena instead, so every
/// deployment of one IVF probes identically.
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
/// `centroids` (row `i` = bucket `i`) to each (space-transformed) query
/// of a band; returns, per query, the `nprobe` nearest bucket indexes,
/// nearest first. The one ranking behind every such deployment —
/// resident, lazy, quantized — so all of them probe identically, a query
/// alone or in a band: the distances come from one
/// [`pdx_accumulate_band`] over the centroid block, which loads each
/// register of centroids once for a block of queries and gives every
/// query the bits of its own [`pdx_scan`](pdx_core::kernels::pdx_scan).
pub fn probe_orders(
    centroids: &SearchBlock,
    queries: &[&[f32]],
    nprobe: usize,
    metric: Metric,
) -> Vec<Vec<u32>> {
    let n = centroids.len();
    if n == 0 {
        return vec![Vec::new(); queries.len()];
    }
    let (mut distances, dims) = (vec![0.0f32; queries.len() * n], 0..centroids.pdx.dims());
    let auto = KernelPolicy::Auto;
    pdx_accumulate_band(metric, &centroids.pdx, queries, dims, &mut distances, auto);
    let rank = |distances: &[f32]| {
        let mut heap = KnnHeap::new(nprobe.max(1));
        for (&id, &d) in centroids.row_ids.iter().zip(distances) {
            heap.push(id, d);
        }
        heap.into_sorted().iter().map(|n| n.id as u32).collect()
    };
    distances.chunks_exact(n).map(rank).collect()
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
    /// the shared assignments: the buckets, then the centroid block, all
    /// tiled into one payload arena.
    pub fn new(rows: &[f32], dims: usize, assignments: &[Vec<u32>], group_size: usize) -> Self {
        let centroid_rows = bucket_centroids(rows, dims, assignments);
        let buckets: Vec<&Vec<u32>> = assignments.iter().filter(|ids| !ids.is_empty()).collect();
        let values = buckets.iter().map(|ids| ids.len() * dims).sum::<usize>();
        let mut payload = PayloadWriter::new(values + centroid_rows.len());
        for ids in &buckets {
            payload.tile_row_ids(rows, dims, ids, group_size);
        }
        let n_centroids = centroid_rows.len() / dims.max(1);
        payload.tile_rows(&centroid_rows, n_centroids, dims, group_size);
        let mut pdx = payload.finish();
        let centroids = pdx.pop().expect("the centroid block");
        let blocks = pdx
            .into_iter()
            .zip(buckets)
            .map(|(pdx, ids)| SearchBlock::from_pdx(pdx, ids.iter().map(|&v| v as u64).collect()))
            .collect();
        Self {
            dims,
            centroids: SearchBlock::from_pdx(centroids, (0..n_centroids as u64).collect()),
            blocks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Deployment;
    use pdx_core::bond::PdxBond;
    use pdx_core::engine::SearchOptions;
    use pdx_core::kernels::{nary_distance, KernelVariant};
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
    fn smaller_nprobe_is_a_subset_search() {
        let (n, d, k) = (500, 8, 5);
        let rows = random_rows(n, d, 5);
        let index = IvfIndex::build(&rows, n, d, 20, 8, 1);
        let ivf = IvfPdx::new(&rows, d, &index.assignments, 32);
        let q = random_rows(1, d, 6);
        // Results at nprobe=1 must come from the single probed bucket.
        let order = &probe_orders(&ivf.centroids, &[&q], 1, Metric::L2)[0];
        let bucket_ids: std::collections::HashSet<u64> = ivf.blocks[order[0] as usize]
            .row_ids
            .iter()
            .copied()
            .collect();
        let opts = SearchOptions::new(k).with_nprobe(1);
        let got = ivf.search_with(&PdxBond::linear(Metric::L2), &q, &opts);
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
