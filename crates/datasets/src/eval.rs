//! Ground truth and recall@k (§2.1).
//!
//! Ground truth is the exact k-NN of each query under the chosen metric,
//! computed by brute force with the crate's SIMD horizontal kernel and
//! parallelized over queries on a [`ThreadPool`] (preprocessing only —
//! all benchmarked searches stay single-threaded like the paper's).

use pdx_core::distance::Metric;
use pdx_core::exec::ThreadPool;
use pdx_core::heap::KnnHeap;
use pdx_core::kernels::{nary_distance, KernelVariant};

/// Exact top-`k` ids for every query; `out[q]` is ascending by distance.
/// `threads` is a [`ThreadPool`] width: `0` means `PDX_THREADS`, else
/// the hardware width.
///
/// # Panics
/// Panics if buffer sizes are inconsistent with `dims` or `k == 0`.
pub fn ground_truth(
    data: &[f32],
    queries: &[f32],
    dims: usize,
    k: usize,
    metric: Metric,
    threads: usize,
) -> Vec<Vec<u64>> {
    assert!(dims > 0 && k > 0, "dims and k must be positive");
    assert_eq!(data.len() % dims, 0, "data must be whole vectors");
    assert_eq!(queries.len() % dims, 0, "queries must be whole vectors");
    let mut out: Vec<Vec<u64>> = vec![Vec::new(); queries.len() / dims];
    ThreadPool::new(threads).for_each_chunk_mut(&mut out, 1, |qi, slot| {
        let q = &queries[qi * dims..(qi + 1) * dims];
        let mut heap = KnnHeap::new(k);
        for (i, row) in data.chunks_exact(dims).enumerate() {
            heap.push(i as u64, nary_distance(metric, KernelVariant::Simd, q, row));
        }
        slot[0] = heap.into_sorted().iter().map(|n| n.id).collect();
    });
    out
}

/// Recall@k of one result list against the ground truth:
/// `|result ∩ truth| / k`.
pub fn recall_at_k(truth: &[u64], result: &[u64], k: usize) -> f64 {
    if k == 0 {
        return 0.0;
    }
    let truth_set: std::collections::HashSet<u64> = truth.iter().take(k).copied().collect();
    let hits = result
        .iter()
        .take(k)
        .filter(|id| truth_set.contains(id))
        .count();
    hits as f64 / k as f64
}

/// Mean recall@k over a batch of queries.
pub fn mean_recall(truth: &[Vec<u64>], results: &[Vec<u64>], k: usize) -> f64 {
    assert_eq!(
        truth.len(),
        results.len(),
        "one result list per query required"
    );
    if truth.is_empty() {
        return 0.0;
    }
    truth
        .iter()
        .zip(results)
        .map(|(t, r)| recall_at_k(t, r, k))
        .sum::<f64>()
        / truth.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_truth_finds_identical_vector() {
        // Three well-separated points; each query equals a base vector.
        let data = vec![0.0f32, 0.0, 10.0, 0.0, 0.0, 10.0];
        let gt = ground_truth(&data, &data, 2, 1, Metric::L2, 2);
        assert_eq!(gt, vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn ground_truth_orders_by_distance() {
        let data = vec![0.0f32, 0.0, 3.0, 0.0, 1.0, 0.0];
        let queries = vec![0.0f32, 0.0];
        let gt = ground_truth(&data, &queries, 2, 3, Metric::L2, 1);
        assert_eq!(gt[0], vec![0, 2, 1]);
    }

    #[test]
    fn recall_counts_intersection() {
        assert_eq!(recall_at_k(&[1, 2, 3, 4], &[3, 1, 9, 8], 4), 0.5);
        assert_eq!(recall_at_k(&[1, 2], &[1, 2], 2), 1.0);
        assert_eq!(recall_at_k(&[1, 2], &[3, 4], 2), 0.0);
    }

    #[test]
    fn recall_truncates_to_k() {
        // Only the first k entries of each list matter.
        assert_eq!(recall_at_k(&[1, 2, 3], &[3, 9, 1], 1), 0.0);
        assert_eq!(recall_at_k(&[1, 2, 3], &[1, 9, 2], 2), 0.5);
    }

    #[test]
    fn mean_recall_averages() {
        let truth = vec![vec![1u64, 2], vec![3u64, 4]];
        let results = vec![vec![1u64, 2], vec![9u64, 8]];
        assert_eq!(mean_recall(&truth, &results, 2), 0.5);
    }

    #[test]
    fn multi_threaded_matches_single_threaded() {
        let dims = 8;
        let n = 200;
        let nq = 17;
        let data: Vec<f32> = (0..n * dims)
            .map(|i| ((i * 37 % 101) as f32) * 0.1)
            .collect();
        let queries: Vec<f32> = (0..nq * dims)
            .map(|i| ((i * 53 % 89) as f32) * 0.1)
            .collect();
        let one = ground_truth(&data, &queries, dims, 5, Metric::L2, 1);
        for threads in [0, 8] {
            let got = ground_truth(&data, &queries, dims, 5, Metric::L2, threads);
            assert_eq!(got, one, "threads {threads}");
        }
    }
}
