//! Batch and intra-query search drivers on top of [`ThreadPool`].

use crate::exec::ThreadPool;
use crate::heap::{KnnHeap, Neighbor};
use std::ops::Range;

/// Most queries a worker prepares together in
/// [`BatchSearcher::run_prepared`]. A batch of up to `SUB_BATCH` queries
/// a worker is cut into one contiguous band per worker, so which worker
/// answers which query — and with it what the batch costs — does not
/// depend on which thread reached the queue first; only a larger batch is
/// shared out band by band as workers come free. The price is that a
/// small batch waits for its slowest worker. At 8, a 100-query batch on
/// two workers is thirteen items whose split follows thread start-up
/// and the momentary speed of each CPU: on a shared host its time varied
/// by a fifth from run to run.
pub const SUB_BATCH: usize = 64;

/// Shards a query batch across a worker pool.
///
/// Queries are distributed one at a time from a shared cursor (dynamic
/// scheduling — an expensive query does not stall a whole band), and
/// each runs the caller's unmodified single-query closure, so results
/// are identical to a sequential loop at any thread count.
///
/// ```
/// use pdx_core::exec::BatchSearcher;
/// use pdx_core::heap::Neighbor;
///
/// // Two 3-dim queries against a trivial "collection" of one point.
/// let queries = [0.0f32, 0.0, 0.0, 1.0, 1.0, 1.0];
/// let searcher = BatchSearcher::new(2);
/// let results = searcher.run(&queries, 3, |q| {
///     let d = q.iter().map(|x| x * x).sum::<f32>();
///     vec![Neighbor { id: 0, distance: d }]
/// });
/// assert_eq!(results.len(), 2);
/// assert_eq!(results[0][0].distance, 0.0);
/// assert_eq!(results[1][0].distance, 3.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct BatchSearcher {
    pool: ThreadPool,
}

impl BatchSearcher {
    /// A searcher over `threads` workers (`0` = default: `PDX_THREADS`
    /// or hardware width, see [`crate::exec::resolve_threads`]).
    pub fn new(threads: usize) -> Self {
        Self {
            pool: ThreadPool::new(threads),
        }
    }

    /// A searcher on an existing pool.
    pub fn on_pool(pool: ThreadPool) -> Self {
        Self { pool }
    }

    /// The underlying pool.
    pub fn pool(&self) -> &ThreadPool {
        &self.pool
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Runs `search` for every `dims`-sized query in the packed
    /// row-major `queries` buffer; results come back in query order.
    ///
    /// # Panics
    /// Panics if `dims == 0` or `queries.len()` is not a multiple of
    /// `dims`.
    pub fn run<F>(&self, queries: &[f32], dims: usize, search: F) -> Vec<Vec<Neighbor>>
    where
        F: Fn(&[f32]) -> Vec<Neighbor> + Sync,
    {
        assert!(dims > 0, "dims must be positive");
        assert_eq!(
            queries.len() % dims,
            0,
            "queries buffer must hold whole vectors"
        );
        let nq = queries.len() / dims;
        let mut out: Vec<Vec<Neighbor>> = vec![Vec::new(); nq];
        self.pool.for_each_chunk_mut(&mut out, 1, |qi, slot| {
            slot[0] = search(&queries[qi * dims..(qi + 1) * dims]);
        });
        out
    }

    /// [`BatchSearcher::run`] with query preparation split out: each
    /// work item is a sub-batch of up to [`SUB_BATCH`] consecutive
    /// queries that one worker hands to `prepare` as a packed buffer
    /// and then searches one by one. `prepare` must return one prepared
    /// query per input query, in order; as long as it prepares each
    /// query to the same value whatever it is batched with, results
    /// equal a sequential loop at any thread count. Batches too small
    /// to give every worker a full sub-batch are cut into one band a
    /// worker instead.
    ///
    /// # Panics
    /// Panics if `dims == 0`, `queries.len()` is not a multiple of
    /// `dims`, or `prepare` returns the wrong number of queries.
    pub fn run_prepared<Q, P, S>(
        &self,
        queries: &[f32],
        dims: usize,
        prepare: P,
        search: S,
    ) -> Vec<Vec<Neighbor>>
    where
        P: Fn(&[f32]) -> Vec<Q> + Sync,
        S: Fn(&Q) -> Vec<Neighbor> + Sync,
    {
        assert!(dims > 0, "dims must be positive");
        assert_eq!(
            queries.len() % dims,
            0,
            "queries buffer must hold whole vectors"
        );
        let nq = queries.len() / dims;
        let sub = SUB_BATCH.min(nq.div_ceil(self.threads())).max(1);
        let mut out: Vec<Vec<Neighbor>> = vec![Vec::new(); nq];
        self.pool.for_each_chunk_mut(&mut out, sub, |q0, slots| {
            let prepared = prepare(&queries[q0 * dims..(q0 + slots.len()) * dims]);
            assert_eq!(prepared.len(), slots.len(), "one prepared query per query");
            for (slot, q) in slots.iter_mut().zip(&prepared) {
                *slot = search(q);
            }
        });
        out
    }
}

/// Intra-query parallelism for one large query: splits `0..n_blocks`
/// into one contiguous range per worker, runs `scan` on each range (the
/// closure fills and sorts a private heap — typically a sequential
/// PDXearch over the sub-range), and merges the per-range results to
/// the canonical top-`k` by `(distance, id)`.
///
/// For exact search paths the merged result is bit-identical to running
/// `scan(0..n_blocks)` sequentially: per-vector distances do not depend
/// on the split, and the canonical heap retains the same set no matter
/// how candidates are grouped (see [`crate::heap`]).
///
/// # Panics
/// Panics if `k == 0`.
pub fn parallel_block_search<F>(
    pool: &ThreadPool,
    n_blocks: usize,
    k: usize,
    scan: F,
) -> Vec<Neighbor>
where
    F: Fn(Range<usize>) -> Vec<Neighbor> + Sync,
{
    assert!(k > 0, "k must be positive");
    let workers = pool.threads().min(n_blocks.max(1));
    if workers <= 1 {
        return scan(0..n_blocks);
    }
    // One contiguous band per worker: block visit order (IVF probe
    // order, storage order) is preserved inside a band, which keeps each
    // band's START-phase seeding effective.
    let band = n_blocks.div_ceil(workers);
    let partials = pool.run_chunks(n_blocks, band, |_ci, range| scan(range));
    merge_neighbors(&partials, k)
}

/// Merges per-worker result lists into the canonical top-`k` by
/// `(distance, id)`. Deterministic regardless of list order or how the
/// candidates were partitioned. `k == 0` merges to an empty list.
pub fn merge_neighbors(lists: &[Vec<Neighbor>], k: usize) -> Vec<Neighbor> {
    if k == 0 {
        return Vec::new();
    }
    let mut heap = KnnHeap::new(k);
    for list in lists {
        for n in list {
            heap.push(n.id, n.distance);
        }
    }
    heap.into_sorted()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_1nn(point: &[f32], q: &[f32]) -> Vec<Neighbor> {
        let d = point.iter().zip(q).map(|(a, b)| (a - b) * (a - b)).sum();
        vec![Neighbor { id: 0, distance: d }]
    }

    #[test]
    fn batch_results_are_in_query_order() {
        let dims = 2;
        let queries: Vec<f32> = (0..20).map(|i| i as f32).collect();
        for threads in [1usize, 2, 8] {
            let searcher = BatchSearcher::new(threads);
            let got = searcher.run(&queries, dims, |q| brute_1nn(&[0.0, 0.0], q));
            assert_eq!(got.len(), 10);
            for (qi, res) in got.iter().enumerate() {
                let want = brute_1nn(&[0.0, 0.0], &queries[qi * dims..(qi + 1) * dims]);
                assert_eq!(res, &want, "query {qi} at {threads} threads");
            }
        }
    }

    #[test]
    fn prepared_batches_match_the_per_query_run() {
        let dims = 3;
        for nq in [0usize, 1, 3, SUB_BATCH, SUB_BATCH + 1, 100] {
            let queries: Vec<f32> = (0..nq * dims).map(|i| (i % 17) as f32).collect();
            let want = BatchSearcher::new(1).run(&queries, dims, |q| brute_1nn(&[1.0; 3], q));
            for threads in [1usize, 2, 8] {
                let got = BatchSearcher::new(threads).run_prepared(
                    &queries,
                    dims,
                    |packed| {
                        assert!(packed.len() <= SUB_BATCH * dims);
                        packed.chunks_exact(dims).map(<[f32]>::to_vec).collect()
                    },
                    |q| brute_1nn(&[1.0; 3], q),
                );
                assert_eq!(got, want, "{nq} queries at {threads} threads");
            }
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let searcher = BatchSearcher::new(4);
        let got = searcher.run(&[], 8, |_| panic!("no queries expected"));
        assert!(got.is_empty());
    }

    #[test]
    #[should_panic(expected = "whole vectors")]
    fn ragged_batch_panics() {
        BatchSearcher::new(1).run(&[1.0, 2.0, 3.0], 2, |_| Vec::new());
    }

    #[test]
    fn merge_is_partition_independent() {
        let all: Vec<Neighbor> = (0..30u64)
            .map(|id| Neighbor {
                id,
                distance: (id % 5) as f32,
            })
            .collect();
        let want = merge_neighbors(std::slice::from_ref(&all), 8);
        // Any re-partitioning of the same candidates merges identically.
        let split: Vec<Vec<Neighbor>> = all.chunks(7).map(|c| c.to_vec()).collect();
        assert_eq!(merge_neighbors(&split, 8), want);
        let mut reversed = split.clone();
        reversed.reverse();
        assert_eq!(merge_neighbors(&reversed, 8), want);
    }

    #[test]
    fn parallel_block_search_matches_sequential_scan() {
        // 40 "blocks" of one candidate each; scan returns its range's
        // candidates, heap-merged to top-k.
        let dist = |b: u64| ((b * 17) % 11) as f32;
        let scan = |r: Range<usize>| -> Vec<Neighbor> {
            let mut h = KnnHeap::new(6);
            for b in r {
                h.push(b as u64, dist(b as u64));
            }
            h.into_sorted()
        };
        let want = scan(0..40);
        for threads in [1usize, 2, 3, 8, 64] {
            let pool = ThreadPool::new(threads);
            assert_eq!(
                parallel_block_search(&pool, 40, 6, scan),
                want,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn parallel_block_search_with_no_blocks() {
        let pool = ThreadPool::new(4);
        let got = parallel_block_search(&pool, 0, 3, |_r| Vec::new());
        assert!(got.is_empty());
    }
}
