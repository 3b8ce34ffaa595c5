//! Vector-at-a-time pruned search on the horizontal dual-block layout —
//! the paper's SIMD-ADS / SCALAR-ADS baselines.
//!
//! This is how ADSampling and BSA were originally deployed: for each
//! vector, accumulate Δd dimensions, evaluate the bound, branch. The
//! interleaving of distance work and bound checks is exactly what §6.3
//! blames for the 4× branch-misprediction overhead that lets plain SIMD
//! linear scans win — the effect PDXearch removes.

use super::{lap, timer};
use crate::distance::Metric;
use crate::engine::SearchOptions;
use crate::heap::{KnnHeap, Neighbor};
use crate::kernels::nary::{nary_distance, KernelVariant};
use crate::layout::DualBlockMatrix;
use crate::pruning::Pruner;
use pdx_obs::QueryTrace;
use std::ops::Deref;

/// One horizontal search unit (an IVF bucket or a whole collection) in
/// ADSampling's dual-block layout.
#[derive(Debug, Clone)]
pub struct HorizontalBucket {
    /// The vectors, split at Δd.
    pub dual: DualBlockMatrix,
    /// Global id of each vector.
    pub row_ids: Vec<u64>,
}

impl HorizontalBucket {
    /// Builds a bucket from row-major data, splitting at `delta_d`
    /// (clamped to the dimensionality).
    pub fn new(rows: &[f32], ids: Vec<u64>, n_dims: usize, delta_d: usize) -> Self {
        let split = delta_d.clamp(1, n_dims);
        let dual = DualBlockMatrix::from_rows(rows, ids.len(), n_dims, split);
        Self { dual, row_ids: ids }
    }

    /// Number of vectors.
    pub fn len(&self) -> usize {
        self.dual.len()
    }

    /// Whether the bucket is empty.
    pub fn is_empty(&self) -> bool {
        self.dual.is_empty()
    }
}

/// The fixed checkpoint schedule of the horizontal search: dimensions
/// scanned after the head segment and after each Δd tail step.
fn horizontal_checkpoints(dims: usize, split: usize, delta_d: usize) -> Vec<usize> {
    let mut out = vec![split.min(dims)];
    let step = delta_d.max(1);
    let mut at = split;
    while at < dims {
        at = (at + step).min(dims);
        out.push(at);
    }
    out.dedup();
    out
}

/// Pruned vector-at-a-time k-NN of the prepared query `q` over
/// dual-block buckets, in the given order.
///
/// Reads `k` and the horizontal tier of `kernel` from `opts`; `delta_d`
/// is the bound-evaluation period on the tail segment. The first bucket
/// effectively gets a linear scan because the heap threshold is infinite
/// until `k` candidates exist.
///
/// With `trace`, wall time is split into distance work and bound
/// evaluation. The timer calls sit inside the per-vector loop (that
/// interleaving *is* the baseline's design), so absolute numbers carry
/// some timer overhead. Results are bit-identical either way.
///
/// # Panics
/// Panics if the query's dimensionality differs from a bucket's, or if
/// the pruner needs per-vector aux data ([`Pruner::NEEDS_AUX`], BSA):
/// the dual-block layout carries none.
pub fn horizontal_pruned_search<P, I>(
    pruner: &P,
    q: &P::Query,
    buckets: I,
    opts: &SearchOptions,
    delta_d: usize,
    trace: Option<&mut QueryTrace>,
) -> Vec<Neighbor>
where
    P: Pruner,
    I: IntoIterator,
    I::Item: Deref<Target = HorizontalBucket>,
{
    assert!(
        !P::NEEDS_AUX,
        "the {} pruner needs aux data, which dual-block buckets do not carry",
        pruner.name()
    );
    match trace {
        Some(trace) => run::<P, I, true>(pruner, q, buckets, opts, delta_d, trace),
        None => run::<P, I, false>(
            pruner,
            q,
            buckets,
            opts,
            delta_d,
            &mut QueryTrace::default(),
        ),
    }
}

fn run<P, I, const PROFILE: bool>(
    pruner: &P,
    q: &P::Query,
    buckets: I,
    opts: &SearchOptions,
    delta_d: usize,
    trace: &mut QueryTrace,
) -> Vec<Neighbor>
where
    P: Pruner,
    I: IntoIterator,
    I::Item: Deref<Target = HorizontalBucket>,
{
    let qvec = pruner.query_vector(q);
    let metric = pruner.metric();
    let variant = opts.kernel.horizontal_variant();
    let mut heap = KnnHeap::new(opts.k);
    for bucket in buckets {
        let bucket = &*bucket;
        if bucket.is_empty() {
            continue;
        }
        let dims = bucket.dual.dims();
        assert_eq!(qvec.len(), dims, "query dimensionality mismatch");
        let split = bucket.dual.split();
        let sched = horizontal_checkpoints(dims, split, delta_d);

        let q_head = &qvec[..split];
        let q_tail = &qvec[split..];
        'vectors: for v in 0..bucket.len() {
            // Head segment: always scanned (the dual-block design).
            let t0 = timer::<PROFILE>();
            let mut partial = nary_distance(metric, variant, q_head, bucket.dual.head_row(v));
            let mut scanned = split;
            let tail = bucket.dual.tail_row(v);
            lap(&mut trace.distance_ns, t0);
            for &ck in &sched {
                if ck > scanned {
                    let t1 = timer::<PROFILE>();
                    let lo = scanned - split;
                    let hi = ck - split;
                    partial += nary_distance(metric, variant, &q_tail[lo..hi], &tail[lo..hi]);
                    scanned = ck;
                    lap(&mut trace.distance_ns, t1);
                }
                if scanned == dims {
                    break;
                }
                // Interleaved bound evaluation (the branchy baseline).
                let t2 = timer::<PROFILE>();
                let cp = pruner.checkpoint(q, scanned, dims, heap.threshold());
                let keep = P::survives(&cp, partial, 0.0);
                lap(&mut trace.bounds_ns, t2);
                if !keep {
                    continue 'vectors;
                }
            }
            heap.push(bucket.row_ids[v], partial);
        }
    }
    heap.into_sorted()
}

/// Non-pruning linear scan over dual-block buckets (the FAISS/Milvus
/// IVF_FLAT stand-ins run on plain horizontal data; this entry point
/// exists so every competitor shares identical bucket contents).
pub fn horizontal_linear_scan(
    buckets: &[&HorizontalBucket],
    query: &[f32],
    k: usize,
    metric: Metric,
    variant: KernelVariant,
) -> Vec<Neighbor> {
    let mut heap = KnnHeap::new(k);
    for bucket in buckets {
        let dims = bucket.dual.dims();
        assert_eq!(query.len(), dims, "query dimensionality mismatch");
        let split = bucket.dual.split();
        let q_head = &query[..split];
        let q_tail = &query[split..];
        for v in 0..bucket.len() {
            let d = nary_distance(metric, variant, q_head, bucket.dual.head_row(v))
                + nary_distance(metric, variant, q_tail, bucket.dual.tail_row(v));
            heap.push(bucket.row_ids[v], d);
        }
    }
    heap.into_sorted()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bond::PdxBond;
    use crate::distance::distance_scalar;
    use crate::kernels::KernelPolicy;
    use crate::visit_order::VisitOrder;

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

    fn brute(data: &[f32], d: usize, q: &[f32], k: usize) -> Vec<u64> {
        let mut heap = KnnHeap::new(k);
        for (i, row) in data.chunks_exact(d).enumerate() {
            heap.push(i as u64, distance_scalar(Metric::L2, q, row));
        }
        heap.into_sorted().iter().map(|n| n.id).collect()
    }

    #[test]
    fn checkpoints_cover_head_and_tail() {
        assert_eq!(horizontal_checkpoints(100, 32, 32), vec![32, 64, 96, 100]);
        assert_eq!(horizontal_checkpoints(32, 32, 32), vec![32]);
        assert_eq!(horizontal_checkpoints(8, 4, 2), vec![4, 6, 8]);
    }

    #[test]
    fn pruned_search_with_exact_bound_equals_brute_force() {
        let (n, d, k, dd) = (350, 30, 8, 8);
        let data = rows(n, d, 5);
        // Two buckets sharing the collection.
        let b0 = HorizontalBucket::new(&data[..150 * d], (0..150).collect(), d, dd);
        let b1 = HorizontalBucket::new(&data[150 * d..], (150..n as u64).collect(), d, dd);
        let q = rows(1, d, 50);
        // PDX-BOND's bound (partial ≤ threshold) is exact, so the
        // horizontal searcher must return the true k-NN.
        let bond = PdxBond::new(Metric::L2, VisitOrder::Sequential);
        let prepared = bond.prepare_query(&q);
        for kernel in [KernelPolicy::Scalar, KernelPolicy::Simd] {
            let opts = SearchOptions::new(k).with_kernel(kernel);
            let got = horizontal_pruned_search(&bond, &prepared, [&b0, &b1], &opts, dd, None);
            let ids: Vec<u64> = got.iter().map(|x| x.id).collect();
            assert_eq!(ids, brute(&data, d, &q, k), "{kernel:?}");
        }
    }

    #[test]
    fn linear_scan_matches_brute_force() {
        let (n, d, k) = (200, 17, 6);
        let data = rows(n, d, 9);
        let b = HorizontalBucket::new(&data, (0..n as u64).collect(), d, 4);
        let q = rows(1, d, 77);
        let got = horizontal_linear_scan(&[&b], &q, k, Metric::L2, KernelVariant::Unrolled);
        let ids: Vec<u64> = got.iter().map(|x| x.id).collect();
        assert_eq!(ids, brute(&data, d, &q, k));
    }

    #[test]
    fn split_larger_than_dims_is_clamped() {
        let data = rows(10, 6, 2);
        let b = HorizontalBucket::new(&data, (0..10).collect(), 6, 100);
        assert_eq!(b.dual.split(), 6);
        let q = rows(1, 6, 3);
        let bond = PdxBond::new(Metric::L2, VisitOrder::Sequential);
        let opts = SearchOptions::new(3).with_kernel(KernelPolicy::Scalar);
        let got = horizontal_pruned_search(&bond, &bond.prepare_query(&q), [&b], &opts, 100, None);
        assert_eq!(got.len(), 3);
    }
}
