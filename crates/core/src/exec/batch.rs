//! Batch and intra-query search drivers on top of [`ThreadPool`].

use crate::exec::ThreadPool;
use crate::heap::{KnnHeap, Neighbor};
use std::ops::Range;

/// Most queries of one band: the consecutive queries a worker of
/// [`BatchSearcher::run_prepared`] prepares together and then searches
/// together. A batch is cut into bands of even size, a whole number of
/// them per worker, so which worker answers which query —
/// and with it what the batch costs — does not depend on which thread
/// reached the queue first; only when there are more bands than workers
/// are they shared out as workers come free. The price is that a small
/// batch waits for its slowest worker. At 8, a 100-query batch on two
/// workers is thirteen items whose split follows thread start-up and the
/// momentary speed of each CPU: on a shared host its time varied by a
/// fifth from run to run. 64 is also what a band's reuse of a loaded
/// tile is worth having: one thread's time per query on a flat exact
/// collection stops falling between 32 and 64.
pub const SUB_BATCH: usize = 64;

/// Cuts `0..nq` into bands for `workers` ≥ 1 workers: `ceil(nq / SUB_BATCH)`
/// bands rounded up to a multiple of `workers` (at most one a query),
/// consecutive, sizes differing by at most one. 130 queries on two
/// workers are 32 / 33 / 32 / 33, not 64 / 64 / 2 — no worker streams a
/// collection for two queries while the other idles.
fn bands(nq: usize, workers: usize) -> impl Iterator<Item = Range<usize>> {
    let n = nq.div_ceil(SUB_BATCH).next_multiple_of(workers).min(nq);
    (0..n).map(move |b| b * nq / n..(b + 1) * nq / n)
}

/// Shards a query batch across a worker pool. Two entry points:
///
/// * [`BatchSearcher::run`] — one query a work item, pulled off a shared
///   cursor (an expensive query does not stall a band), each through the
///   caller's single-query closure. This is the [`VectorIndex`] default
///   `search_batch`, which serves a collection's `Snapshot`: each query
///   merges the buffer scan with one PDXearch scan per segment.
/// * [`BatchSearcher::run_prepared`] — one *band* of up to [`SUB_BATCH`]
///   consecutive queries a work item: the worker prepares the band
///   together and hands the whole band to the caller's search closure.
///   Every PDXearch deployment batches through it: the unrouted ones
///   (`FlatPdx`, `FlatSq8`, `PrunedFlat`) scan tile-major — a loaded tile
///   serves every query of the band before the next tile is touched
///   ([`pdxearch_band`](crate::search::pdxearch_band)) — and the routed
///   ones, whose queries each probe their own buckets, answer the band's
///   queries one by one.
///
/// Either way every query gets the answer of the sequential path, bit
/// for bit, at any thread count.
///
/// [`VectorIndex`]: crate::engine::VectorIndex
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

    /// Runs `search` for every band of the batch — `ceil(nq / SUB_BATCH)`
    /// bands rounded up to a whole number a worker, of even size: a
    /// worker hands the band's queries to `prepare` as a packed buffer and
    /// the prepared band to `search`, which answers all of it. `prepare`
    /// must return one prepared query per input query and `search` one
    /// answer list per prepared query, both in order; as long as each
    /// query is prepared and answered the same whatever it is banded
    /// with, results equal a sequential loop at any thread count.
    ///
    /// # Panics
    /// Panics if `dims == 0`, `queries.len()` is not a multiple of
    /// `dims`, or `prepare` or `search` returns the wrong number of items.
    pub fn run_prepared<Q, P, S>(
        &self,
        queries: &[f32],
        dims: usize,
        prepare: P,
        search: S,
    ) -> Vec<Vec<Neighbor>>
    where
        P: Fn(&[f32]) -> Vec<Q> + Sync,
        S: Fn(&[Q]) -> Vec<Vec<Neighbor>> + Sync,
    {
        assert!(dims > 0, "dims must be positive");
        assert_eq!(
            queries.len() % dims,
            0,
            "queries buffer must hold whole vectors"
        );
        let cut: Vec<Range<usize>> = bands(queries.len() / dims, self.threads()).collect();
        let answers = self.pool.run_chunks(cut.len(), 1, |b, _| {
            let band = &cut[b];
            let prepared = prepare(&queries[band.start * dims..band.end * dims]);
            assert_eq!(prepared.len(), band.len(), "one prepared query per query");
            let answers = search(&prepared);
            assert_eq!(answers.len(), band.len(), "one answer list per query");
            answers
        });
        answers.into_iter().flatten().collect()
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
                    |band| band.iter().map(|q| brute_1nn(&[1.0; 3], q)).collect(),
                );
                assert_eq!(got, want, "{nq} queries at {threads} threads");
            }
        }
    }

    #[test]
    fn bands_are_even_consecutive_and_a_whole_number_per_worker() {
        for nq in [0usize, 1, 63, 64, 65, 100, 129, 130, 1000] {
            for workers in [1usize, 2, 3, 8] {
                let cut: Vec<Range<usize>> = bands(nq, workers).collect();
                let at = format!("{nq} queries on {workers} workers: {cut:?}");
                // Covers 0..nq once, in order.
                let mut next = 0;
                for band in &cut {
                    assert_eq!(band.start, next, "{at}");
                    assert!(!band.is_empty() && band.len() <= SUB_BATCH, "{at}");
                    next = band.end;
                }
                assert_eq!(next, nq, "{at}");
                let sizes = || cut.iter().map(|band| band.len());
                let spread = sizes().max().unwrap_or(0) - sizes().min().unwrap_or(0);
                assert!(spread <= 1, "{at}");
                assert!(cut.len() % workers == 0 || cut.len() == nq, "{at}");
            }
        }
        let sizes = |nq, workers| bands(nq, workers).map(|b| b.len()).collect::<Vec<_>>();
        assert_eq!(sizes(130, 2), [32, 33, 32, 33]);
        assert_eq!(sizes(100, 2), [50, 50]);
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
