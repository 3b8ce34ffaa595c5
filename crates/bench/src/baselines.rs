//! The paper's horizontal baselines (§6), the denominators of
//! `paper_claims`' ratios. No layer serves them, so they live here
//! rather than in the library.
//!
//! * [`linear_scan`] — exhaustive k-NN over plain row-major rows (the
//!   `.fvecs` / FAISS layout): with [`KernelVariant::Simd`] the
//!   FAISS/USearch stand-in, with [`KernelVariant::Scalar`] the
//!   Scikit-learn one.
//! * [`IvfHorizontal`] — an [`IvfPdx`]'s own buckets and centroids in
//!   ADSampling's dual-block layout (Gao & Long, SIGMOD 2023): the first
//!   Δd dimensions of every vector of a bucket stored together, the rest
//!   in a second segment touched only for vectors that survive the
//!   bound. Searched vector-at-a-time, it is SIMD-ADS / SCALAR-ADS under
//!   a pruner that prunes, and the IVF_FLAT linear scan under one that
//!   does not. The interleaving of distance work and bound checks is
//!   what §6.3 blames for the branch mispredictions PDXearch removes.

use pdx::core::collection::SearchBlock;
use pdx::core::distance::Metric;
use pdx::core::engine::SearchOptions;
use pdx::core::heap::{KnnHeap, Neighbor};
use pdx::core::kernels::{nary_distance, KernelVariant};
use pdx::core::pruning::Pruner;
use pdx::index::IvfPdx;

/// Exhaustive k-NN of `query` over the row-major `rows` of `dims`
/// values each, with the chosen horizontal kernel tier. Row `i` is
/// reported with id `i`.
///
/// # Panics
/// Panics if `query` is not `dims` wide.
pub fn linear_scan(
    rows: &[f32],
    dims: usize,
    query: &[f32],
    k: usize,
    metric: Metric,
    variant: KernelVariant,
) -> Vec<Neighbor> {
    assert_eq!(query.len(), dims, "query dimensionality mismatch");
    let mut heap = KnnHeap::new(k);
    for (i, row) in rows.chunks_exact(dims.max(1)).enumerate() {
        heap.push(i as u64, nary_distance(metric, variant, query, row));
    }
    heap.into_sorted()
}

/// One IVF bucket in the dual-block layout: row `v` is `head[v · split..]`
/// followed by `tail[v · (dims − split)..]`.
#[derive(Debug)]
struct Bucket {
    ids: Vec<u64>,
    head: Vec<f32>,
    tail: Vec<f32>,
}

/// An IVF whose buckets are dual-block horizontal matrices split at Δd.
#[derive(Debug)]
pub struct IvfHorizontal {
    dims: usize,
    /// The head segment's width: Δd clamped to `1..=dims`.
    split: usize,
    /// The bound-evaluation period on the tail segment.
    delta_d: usize,
    /// Row-major centroids, row `i` routing to `buckets[i]`.
    centroids: Vec<f32>,
    buckets: Vec<Bucket>,
}

impl IvfHorizontal {
    /// The buckets and centroids of `ivf`, bit for bit and in its order,
    /// split at `delta_d`: both sides of a ratio scan the same vectors
    /// at a given `nprobe` (the paper's fairness rule, §6.3).
    pub fn from_pdx(ivf: &IvfPdx, delta_d: usize) -> Self {
        let dims = ivf.dims;
        let split = delta_d.clamp(1, dims);
        let bucket = |block: &SearchBlock| {
            let rows = block.pdx.to_rows();
            let mut head = Vec::with_capacity(block.len() * split);
            let mut tail = Vec::with_capacity(block.len() * (dims - split));
            for row in rows.chunks_exact(dims) {
                head.extend_from_slice(&row[..split]);
                tail.extend_from_slice(&row[split..]);
            }
            let ids = block.row_ids.clone();
            Bucket { ids, head, tail }
        };
        Self {
            dims,
            split,
            delta_d,
            centroids: ivf.centroids.pdx.to_rows(),
            buckets: ivf.blocks.iter().map(bucket).collect(),
        }
    }

    /// Vector-at-a-time k-NN of `query` over the `nprobe` nearest
    /// buckets, with the horizontal tier of [`SearchOptions::kernel`]
    /// for routing and scan alike. Each vector's head is scanned first;
    /// then, under a pruner that prunes, `pruner`'s bound is evaluated
    /// before each Δd-wide step of the tail; under one that does not,
    /// the whole tail is added in one call and no bound is evaluated.
    ///
    /// # Panics
    /// Panics if the query is not `dims` wide, or if the pruner needs
    /// per-vector aux data ([`Pruner::NEEDS_AUX`], BSA), which
    /// dual-block buckets do not carry.
    pub fn search_with<P: Pruner>(
        &self,
        pruner: &P,
        query: &[f32],
        opts: &SearchOptions,
    ) -> Vec<Neighbor> {
        assert!(
            !P::NEEDS_AUX,
            "the {} pruner needs aux data, which dual-block buckets do not carry",
            pruner.name()
        );
        let (dims, split, variant) = (self.dims, self.split, opts.kernel.horizontal_variant());
        let q = pruner.prepare_query(query);
        let (space, metric) = (pruner.query_vector(&q), pruner.metric());
        assert_eq!(space.len(), dims, "query dimensionality mismatch");
        let mut nearest = KnnHeap::new(opts.resolve_nprobe(self.buckets.len()).max(1));
        for (i, row) in self.centroids.chunks_exact(dims).enumerate() {
            nearest.push(i as u64, nary_distance(metric, variant, space, row));
        }
        let (q_head, q_tail) = space.split_at(split);
        let (tail_dims, step, prunes) = (dims - split, self.delta_d.max(1), pruner.prunes());
        let mut heap = KnnHeap::new(opts.k);
        for probe in nearest.into_sorted() {
            let bucket = &self.buckets[probe.id as usize];
            'vectors: for (v, &id) in bucket.ids.iter().enumerate() {
                let head = &bucket.head[v * split..][..split];
                let tail = &bucket.tail[v * tail_dims..][..tail_dims];
                let mut partial = nary_distance(metric, variant, q_head, head);
                if !prunes {
                    partial += nary_distance(metric, variant, q_tail, tail);
                } else {
                    let mut lo = 0;
                    while lo < tail_dims {
                        let cp = pruner.checkpoint(&q, split + lo, dims, heap.threshold());
                        if !P::survives(&cp, partial, 0.0) {
                            continue 'vectors;
                        }
                        let hi = (lo + step).min(tail_dims);
                        partial += nary_distance(metric, variant, &q_tail[lo..hi], &tail[lo..hi]);
                        lo = hi;
                    }
                }
                heap.push(id, partial);
            }
        }
        heap.into_sorted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdx::core::bond::PdxBond;
    use pdx::core::distance::distance_scalar;
    use pdx::core::kernels::KernelPolicy;
    use pdx::core::visit_order::VisitOrder;
    use pdx::index::{Deployment, IvfIndex};
    use std::cell::RefCell;

    fn rows(n: usize, d: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..n * d)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state >> 11) as f64 / (1u64 << 53) as f64) as f32 * 6.0 - 3.0
            })
            .collect()
    }

    fn brute(data: &[f32], d: usize, q: &[f32], k: usize, metric: Metric) -> Vec<u64> {
        let mut heap = KnnHeap::new(k);
        for (i, row) in data.chunks_exact(d).enumerate() {
            heap.push(i as u64, distance_scalar(metric, q, row));
        }
        heap.into_sorted().iter().map(|n| n.id).collect()
    }

    fn ids(found: &[Neighbor]) -> Vec<u64> {
        found.iter().map(|n| n.id).collect()
    }

    /// Assignments of `n` rows to `nb` buckets, row `v` to bucket `v % nb`.
    fn striped(n: usize, nb: usize) -> Vec<Vec<u32>> {
        (0..nb)
            .map(|b| (b as u32..n as u32).step_by(nb).collect())
            .collect()
    }

    /// [`PdxBond`] that records the `dims_scanned` of every bound it is
    /// asked for.
    struct Recording {
        bond: PdxBond,
        bounds: RefCell<Vec<usize>>,
    }

    impl Pruner for Recording {
        type Query = <PdxBond as Pruner>::Query;
        type Checkpoint = f32;

        fn metric(&self) -> Metric {
            self.bond.metric()
        }

        fn prunes(&self) -> bool {
            self.bond.prunes()
        }

        fn prepare_query(&self, query: &[f32]) -> Self::Query {
            self.bond.prepare_query(query)
        }

        fn query_vector<'q>(&self, q: &'q Self::Query) -> &'q [f32] {
            self.bond.query_vector(q)
        }

        fn checkpoint(&self, q: &Self::Query, scanned: usize, total: usize, t: f32) -> f32 {
            self.bounds.borrow_mut().push(scanned);
            self.bond.checkpoint(q, scanned, total, t)
        }

        fn limit(cp: &f32) -> f32 {
            *cp
        }
    }

    fn recording(bond: PdxBond) -> Recording {
        let bounds = RefCell::new(Vec::new());
        Recording { bond, bounds }
    }

    #[test]
    fn linear_scan_equals_brute_force_for_every_metric_and_variant() {
        let (n, d, k) = (211, 19, 7);
        let data = rows(n, d, 1);
        let q = rows(1, d, 2);
        for metric in [Metric::L2, Metric::L1, Metric::NegativeIp] {
            let want = brute(&data, d, &q, k, metric);
            for variant in [
                KernelVariant::Scalar,
                KernelVariant::Unrolled,
                KernelVariant::Simd,
            ] {
                let got = linear_scan(&data, d, &q, k, metric, variant);
                assert_eq!(ids(&got), want, "{metric:?} {variant:?}");
            }
        }
    }

    /// The baseline holds its `IvfPdx`'s buckets, in order, with the same
    /// row ids, and the same row and centroid bits.
    #[test]
    fn from_pdx_holds_the_pdx_buckets_bit_for_bit() {
        let (n, d, dd) = (300, 13, 5);
        let data = rows(n, d, 3);
        let mut assignments = striped(n, 7);
        assignments.insert(2, Vec::new()); // an empty bucket is dropped by both
        let ivf = IvfPdx::new(&data, d, &assignments, 16);
        let hor = IvfHorizontal::from_pdx(&ivf, dd);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(hor.split, dd);
        assert_eq!(bits(&hor.centroids), bits(&ivf.centroids.pdx.to_rows()));
        assert_eq!(hor.buckets.len(), ivf.blocks.len());
        for (bucket, block) in hor.buckets.iter().zip(&ivf.blocks) {
            assert_eq!(bucket.ids, block.row_ids);
            let pdx_rows = block.pdx.to_rows();
            for (v, &id) in bucket.ids.iter().enumerate() {
                let mut row = bucket.head[v * dd..][..dd].to_vec();
                row.extend_from_slice(&bucket.tail[v * (d - dd)..][..d - dd]);
                assert_eq!(bits(&row), bits(&pdx_rows[v * d..][..d]), "vector {id}");
                assert_eq!(
                    bits(&row),
                    bits(&data[id as usize * d..][..d]),
                    "vector {id}"
                );
            }
        }
    }

    /// PDX-BOND's bound (partial ≤ threshold) is exact, so the
    /// vector-at-a-time search at full probe is the true k-NN.
    #[test]
    fn pruned_search_with_exact_bound_equals_brute_force() {
        let (n, d, k, dd) = (350, 30, 8, 8);
        let data = rows(n, d, 5);
        let ivf = IvfPdx::new(&data, d, &striped(n, 2), 64);
        let hor = IvfHorizontal::from_pdx(&ivf, dd);
        let q = rows(1, d, 50);
        let bond = PdxBond::new(Metric::L2, VisitOrder::Sequential);
        for kernel in [KernelPolicy::Scalar, KernelPolicy::Simd] {
            let opts = SearchOptions::new(k).with_kernel(kernel);
            let got = hor.search_with(&bond, &q, &opts);
            assert_eq!(ids(&got), brute(&data, d, &q, k, Metric::L2), "{kernel:?}");
        }
    }

    /// A bound is evaluated after the head and before every Δd-wide step
    /// of the tail, and never at full width. With `k` past the
    /// collection the threshold stays infinite, so every vector is asked
    /// every bound.
    #[test]
    fn bounds_are_evaluated_after_the_head_and_every_delta_d() {
        for (d, dd, want) in [
            (100, 32, vec![32, 64, 96]),
            (10, 4, vec![4, 8]),
            (32, 32, vec![]),
        ] {
            let n = 20;
            let data = rows(n, d, 6);
            let ivf = IvfPdx::new(&data, d, &striped(n, 3), 8);
            let hor = IvfHorizontal::from_pdx(&ivf, dd);
            let pruner = recording(PdxBond::new(Metric::L2, VisitOrder::Sequential));
            let got = hor.search_with(&pruner, &rows(1, d, 7), &SearchOptions::new(n));
            assert_eq!(got.len(), n);
            let bounds = pruner.bounds.into_inner();
            assert_eq!(bounds, want.repeat(n), "d = {d}, Δd = {dd}");
        }
    }

    /// A pruner that does not prune is asked no bound: an inner-product
    /// partial is not monotone, so a bound evaluated by mistake would
    /// drop true neighbours.
    #[test]
    fn a_non_pruning_pruner_evaluates_no_bound() {
        let (n, d, k) = (400, 24, 10);
        let data = rows(n, d, 8);
        let ivf = IvfPdx::new(&data, d, &striped(n, 5), 32);
        let hor = IvfHorizontal::from_pdx(&ivf, 4);
        let q = rows(1, d, 9);
        for metric in [Metric::NegativeIp, Metric::L2] {
            let linear = recording(PdxBond::linear(metric));
            let opts = SearchOptions::new(k).with_kernel(KernelPolicy::Scalar);
            let got = hor.search_with(&linear, &q, &opts);
            assert_eq!(ids(&got), brute(&data, d, &q, k, metric), "{metric:?}");
            assert!(linear.bounds.into_inner().is_empty(), "{metric:?}");
        }
    }

    /// Builds the baseline with `delta_d` over 10 vectors of 6 dims,
    /// checks that its head is `split` wide and its tail holds the rest,
    /// and that its search still equals brute force.
    fn check_split(delta_d: usize, split: usize) {
        let (n, d, k) = (10, 6, 3);
        let data = rows(n, d, 2);
        let ivf = IvfPdx::new(&data, d, &striped(n, 1), 4);
        let q = rows(1, d, 3);
        let bond = PdxBond::new(Metric::L2, VisitOrder::Sequential);
        let opts = SearchOptions::new(k).with_kernel(KernelPolicy::Scalar);
        let hor = IvfHorizontal::from_pdx(&ivf, delta_d);
        assert_eq!(hor.split, split, "Δd {delta_d}");
        assert_eq!(hor.buckets[0].tail.len(), n * (d - split), "Δd {delta_d}");
        let got = hor.search_with(&bond, &q, &opts);
        assert_eq!(
            ids(&got),
            brute(&data, d, &q, k, Metric::L2),
            "Δd {delta_d}"
        );
    }

    /// A head as wide as the vector leaves an empty tail.
    #[test]
    fn full_split_has_empty_tail() {
        check_split(6, 6);
    }

    /// Δd past the width is clamped to the width.
    #[test]
    fn split_larger_than_dims_is_clamped() {
        check_split(100, 6);
    }

    /// A zero Δd is clamped to a one-dimension head.
    #[test]
    fn zero_split_is_clamped_to_one() {
        check_split(0, 1);
    }

    #[test]
    fn horizontal_and_pdx_deployments_agree_at_full_probe() {
        let (n, d, k) = (400, 16, 8);
        let data = rows(n, d, 2);
        let index = IvfIndex::build(&data, n, d, 12, 8, 3);
        let ivf = IvfPdx::new(&data, d, &index.assignments, 64);
        let hor = IvfHorizontal::from_pdx(&ivf, 8);
        let q = rows(1, d, 4);
        let (linear, opts) = (PdxBond::linear(Metric::L2), SearchOptions::new(k));
        let a = ivf.search_with(&linear, &q, &opts);
        let b = hor.search_with(&linear, &q, &opts.with_kernel(KernelPolicy::Simd));
        assert_eq!(ids(&a), ids(&b));
    }
}
