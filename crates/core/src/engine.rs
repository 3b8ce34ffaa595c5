//! The engine layer: one object-safe trait every deployment serves
//! through, with one options struct subsuming the per-deployment knobs.
//!
//! The paper's core claim is that a single layout (PDX) and a single
//! search framework (PDXearch) serve many deployments — flat, IVF,
//! quantized, pruned, graph-routed. [`VectorIndex`] is that claim as an
//! API: every deployment answers the same `search` / `search_batch` /
//! `search_parallel` calls from the same [`SearchOptions`], so a CLI, a
//! benchmark harness, or a network serving layer can hold a
//! `Box<dyn VectorIndex>` and never know (or care) which deployment is
//! behind it. `pdx-engine`'s `AnyIndex::open` produces exactly that box
//! by sniffing a persisted container.
//!
//! The batch and parallel entry points come for free: the trait's
//! default methods run on the shared [`exec`](crate::exec) worker pool,
//! and because each query (or block range) still runs the deployment's
//! sequential path against a canonical [`KnnHeap`](crate::heap::KnnHeap),
//! results are **bit-identical to the sequential path at any thread
//! count** — the same determinism contract the concrete
//! `search_batch` methods established.
//!
//! Options irrelevant to a deployment are ignored (an SQ8 index has no
//! pruner choice; a flat index has no `nprobe`); each implementation
//! documents which fields it reads.

use crate::bond::PdxBond;
use crate::distance::Metric;
use crate::exec::{merge_neighbors, BatchSearcher};
use crate::heap::Neighbor;
use crate::kernels::KernelPolicy;
use crate::mask::RowMask;
use crate::pruning::{StepPolicy, DEFAULT_SELECTION_FRACTION};
use crate::search::DEFAULT_REFINE;
use crate::visit_order::VisitOrder;

/// Default beam width for graph-routed queries when
/// [`SearchOptions::ef`] is left at `0` (matches the default HNSW
/// construction beam).
pub const DEFAULT_EF: usize = 100;

/// Which pruning strategy an engine-level query uses on the `f32`
/// deployments.
///
/// Only strategies that need no fitted per-collection state are
/// selectable purely from options; pruners that carry trained state
/// (ADSampling's rotation, BSA's PCA) pair with a deployment through
/// the `pdx-engine` adapter types instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrunerKind {
    /// PDX-BOND with the given dimension visit order — exact, no
    /// preprocessing (the default).
    Bond(VisitOrder),
    /// No pruning: a full linear scan of the probed blocks — exact, and
    /// the only choice for non-monotonic metrics (inner product).
    Linear,
}

impl Default for PrunerKind {
    fn default() -> Self {
        PrunerKind::Bond(VisitOrder::DistanceToMeans)
    }
}

/// Unified search options for every [`VectorIndex`] deployment.
///
/// One struct carries every per-query knob: what PDXearch itself reads
/// (`k`, `selection_fraction`, `step`, `kernel`), the metric, the IVF
/// probe count, the SQ8 rerank factor, the pruner choice, the graph beam
/// width and the worker count. Fields a deployment has no use for are
/// ignored.
///
/// The defaults reproduce what each deployment did before the engine
/// layer existed: exact PDX-BOND with the distance-to-means order,
/// L2, `k = 10`, full probe, `refine = 4`, SIMD horizontal kernels and
/// the default pool width.
///
/// ```
/// use pdx_core::engine::SearchOptions;
/// use pdx_core::distance::Metric;
///
/// let opts = SearchOptions::new(5).with_nprobe(8).with_threads(2);
/// assert_eq!(opts.k, 5);
/// assert_eq!(opts.metric, Metric::L2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchOptions {
    /// Number of neighbours to return.
    pub k: usize,
    /// Distance metric (always minimized; inner product is negated).
    pub metric: Metric,
    /// Pruning strategy on the `f32` deployments (SQ8 deployments bound
    /// with the candidate heap's own threshold instead).
    pub pruner: PrunerKind,
    /// PDXearch PRUNE-phase selection threshold (fraction of survivors
    /// below which positions are compacted).
    pub selection_fraction: f32,
    /// Dimension fetching schedule of the pruned scans.
    pub step: StepPolicy,
    /// IVF buckets to probe; `0` probes every bucket (exact over the
    /// index). Ignored by flat and graph deployments.
    pub nprobe: usize,
    /// SQ8 candidate-refinement factor: phase 1 keeps `refine · k`
    /// candidates for the exact rerank. Ignored by `f32` deployments.
    pub refine: usize,
    /// Beam width of graph-routed queries; `0` resolves to
    /// `max(`[`DEFAULT_EF`]`, k)`. Ignored by non-graph deployments.
    pub ef: usize,
    /// Kernel implementation policy: one knob steering the vertical
    /// `f32` kernels, the vertical SQ8 kernels, *and* the horizontal
    /// (vector-at-a-time) deployments. Distances are bit-identical
    /// across policies, so this is a pure performance knob.
    pub kernel: KernelPolicy,
    /// Worker count for `search_batch` / `search_parallel`; `0` means
    /// the default width (the `PDX_THREADS` env override, then the
    /// hardware parallelism). Single-query `search` ignores it.
    pub threads: usize,
    /// Per-query tracing: when `true`, deployments run their profiled
    /// monomorphization and publish a
    /// [`QueryTrace`](pdx_obs::QueryTrace) (phase timings + work
    /// counters) through [`crate::obs::publish_trace`]. Results are
    /// bit-identical either way — the profiled path differs only in
    /// timers and counters — so this is a pure observability knob.
    /// Defaults to the `PDX_TRACE` env override (see
    /// [`crate::obs::TRACE_ENV`]), else off (zero overhead).
    pub trace: bool,
}

impl Default for SearchOptions {
    fn default() -> Self {
        Self {
            k: 10,
            metric: Metric::L2,
            pruner: PrunerKind::default(),
            selection_fraction: DEFAULT_SELECTION_FRACTION,
            step: StepPolicy::default(),
            nprobe: 0,
            refine: DEFAULT_REFINE,
            ef: 0,
            kernel: KernelPolicy::Auto,
            threads: 0,
            trace: crate::obs::trace_default(),
        }
    }
}

impl SearchOptions {
    /// Default options for a given `k`.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            ..Self::default()
        }
    }

    /// Replaces the metric.
    pub fn with_metric(mut self, metric: Metric) -> Self {
        self.metric = metric;
        self
    }

    /// Replaces the pruning strategy.
    pub fn with_pruner(mut self, pruner: PrunerKind) -> Self {
        self.pruner = pruner;
        self
    }

    /// Replaces the PRUNE-phase selection fraction.
    pub fn with_selection_fraction(mut self, fraction: f32) -> Self {
        self.selection_fraction = fraction;
        self
    }

    /// Replaces the step policy.
    pub fn with_step(mut self, step: StepPolicy) -> Self {
        self.step = step;
        self
    }

    /// Replaces the IVF probe count (`0` = all buckets).
    pub fn with_nprobe(mut self, nprobe: usize) -> Self {
        self.nprobe = nprobe;
        self
    }

    /// Replaces the SQ8 refinement factor.
    pub fn with_refine(mut self, refine: usize) -> Self {
        self.refine = refine;
        self
    }

    /// Replaces the graph beam width (`0` = auto).
    pub fn with_ef(mut self, ef: usize) -> Self {
        self.ef = ef;
        self
    }

    /// Replaces the kernel policy.
    pub fn with_kernel(mut self, kernel: KernelPolicy) -> Self {
        self.kernel = kernel;
        self
    }

    /// Replaces the worker count (`0` = default width).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Enables or disables per-query tracing (see
    /// [`SearchOptions::trace`]).
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// The pruner [`SearchOptions::pruner`] names under
    /// [`SearchOptions::metric`], as the one concrete type the `f32`
    /// deployments hand to PDXearch.
    ///
    /// # Panics
    /// Panics if a `Bond` order is paired with a non-monotonic metric.
    pub fn bond(&self) -> PdxBond {
        match self.pruner {
            PrunerKind::Bond(order) => PdxBond::new(self.metric, order),
            PrunerKind::Linear => PdxBond::linear(self.metric),
        }
    }

    /// Probe count against an index of `n_buckets` buckets: `0` and
    /// out-of-range requests clamp to every bucket.
    pub fn resolve_nprobe(&self, n_buckets: usize) -> usize {
        if self.nprobe == 0 {
            n_buckets
        } else {
            self.nprobe.min(n_buckets)
        }
    }

    /// Graph beam width for this `k`: an explicit `ef`, else
    /// `max(`[`DEFAULT_EF`]`, k)`.
    pub fn resolve_ef(&self) -> usize {
        if self.ef == 0 {
            DEFAULT_EF.max(self.k)
        } else {
            self.ef.max(self.k)
        }
    }
}

/// One vector-search deployment behind a uniform, object-safe surface.
///
/// Every deployment in the workspace — flat and IVF, `f32` and SQ8,
/// horizontal and graph-routed — implements this trait, so callers can
/// hold a `Box<dyn VectorIndex>` (see `pdx-engine`'s `AnyIndex::open`)
/// and serve queries without knowing the concrete type.
///
/// # Determinism contract
///
/// For exact configurations (PDX-BOND, linear scans, the SQ8 two-phase
/// path) every implementation must return results bit-identical to its
/// sequential `search` from `search_batch` and `search_parallel` at any
/// thread count — ids *and* distances, duplicate-distance ties
/// included. The default method bodies satisfy this by construction:
/// batching runs the unmodified sequential path per query, and the
/// parallel fallback *is* the sequential path. Overrides must preserve
/// the two invariants of [`crate::exec`] (canonical heaps,
/// split-independent per-vector accumulation); the PDXearch
/// deployments' `search_batch` override — a band of queries sharing one
/// tile-major scan — keeps every query's own visit and accumulation
/// order, so it holds for approximate pruners as well.
pub trait VectorIndex: Send + Sync {
    /// Dimensionality of the indexed vectors.
    fn dims(&self) -> usize;

    /// Number of indexed vectors.
    fn len(&self) -> usize;

    /// Whether the index holds no vectors.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Short static name of the deployment (for logs and reports).
    fn kind(&self) -> &'static str;

    /// Single-query k-NN with the unified options.
    fn search(&self, query: &[f32], opts: &SearchOptions) -> Vec<Neighbor>;

    /// Searches a batch of packed queries on `opts.threads` workers
    /// (`0` = default width); an empty batch is the empty answer.
    /// Identical to a sequential loop of [`VectorIndex::search`] at any
    /// thread count. This default hands the workers one query at a time,
    /// each through `search`; it is what `Hnsw`, `IvfHorizontal` and a
    /// collection's `Snapshot` batch with. The PDXearch deployments
    /// override it (`pdx_index::Deployment::search_batch_with`): a
    /// worker takes a band of up to [`SUB_BATCH`](crate::exec::SUB_BATCH)
    /// consecutive queries, prepares it together, and — where the
    /// deployment is unrouted (`FlatPdx`, `FlatSq8`, a flat `Pruned`) —
    /// scans each tile for the whole band before touching the next;
    /// routed deployments answer the band's queries one by one.
    ///
    /// # Panics
    /// Panics with "queries buffer must hold whole vectors" if
    /// `queries.len()` is not a multiple of the dimensionality.
    fn search_batch(&self, queries: &[f32], opts: &SearchOptions) -> Vec<Vec<Neighbor>> {
        BatchSearcher::new(opts.threads).run(queries, self.dims(), |q| self.search(q, opts))
    }

    /// One query with intra-query parallelism where the deployment's
    /// scan is block-splittable. The default is the sequential
    /// [`VectorIndex::search`] (trivially bit-identical); deployments
    /// whose scan decomposes into independent block ranges override it
    /// with [`parallel_block_search`](crate::exec::parallel_block_search).
    fn search_parallel(&self, query: &[f32], opts: &SearchOptions) -> Vec<Neighbor> {
        let _ = opts.threads;
        self.search(query, opts)
    }

    /// [`VectorIndex::search`] (`parallel`: [`VectorIndex::search_parallel`])
    /// over the rows whose id is not in `dead`: the `k` nearest *live*
    /// rows. This default serves deployments that do not scan through
    /// PDXearch: it asks for `k + dead.len()` neighbours — each dead row
    /// can displace at most one live one — and drops the dead ones.
    /// Deployments that do override it and hand the mask to the scan,
    /// where a dead row costs no heap slot and loosens no threshold.
    fn search_live(
        &self,
        query: &[f32],
        opts: &SearchOptions,
        dead: Option<&RowMask>,
        parallel: bool,
    ) -> Vec<Neighbor> {
        let fetch = SearchOptions {
            k: opts.k + dead.map_or(0, RowMask::len),
            ..*opts
        };
        let mut hits = if parallel {
            self.search_parallel(query, &fetch)
        } else {
            self.search(query, &fetch)
        };
        if let Some(dead) = dead {
            hits.retain(|n| !dead.contains(n.id));
        }
        hits.truncate(opts.k);
        hits
    }

    /// Approximate bytes this deployment holds resident in memory
    /// (scan payloads, row ids, statistics — not transient per-query
    /// state). `0` means the deployment does not report it.
    fn resident_bytes(&self) -> u64 {
        0
    }

    /// Block-cache counters for lazily backed deployments; `None` for
    /// fully resident ones.
    fn cache_stats(&self) -> Option<crate::cache::CacheStats> {
        None
    }
}

/// One sealed sub-index inside a segmented (mutable) collection.
///
/// A segment serves local row ids `0..len`; `remap[local]` is the
/// collection-level **external id** of that row. `dead` holds the local
/// ids of the rows the collection has deleted (tombstones): the segment
/// is searched through [`VectorIndex::search_live`], which answers with
/// its `k` nearest rows outside the mask.
#[derive(Clone, Copy)]
pub struct SearchSegment<'a> {
    /// The sealed deployment (any [`VectorIndex`]).
    pub index: &'a dyn VectorIndex,
    /// Local row id → external id. Must be monotonically increasing so
    /// the canonical `(distance, id)` tie order is the same in local and
    /// external id space.
    pub remap: &'a [u64],
    /// Local ids of the rows no search may return.
    pub dead: Option<&'a RowMask>,
}

/// Searches a set of sealed segments plus extra candidate lists (an
/// in-memory write buffer, typically) as **one** collection.
///
/// This is the read path of an LSM-style mutable collection: every
/// segment answers with the top-`k` of its live rows
/// ([`VectorIndex::search_live`], sequential or intra-query parallel),
/// results are remapped to external ids, and one [`merge_neighbors`]
/// pass retains the canonical top-`k` by `(distance, id)`. Because each
/// segment's scan is bit-identical at any thread count (the engine
/// determinism contract) and the merge is a pure function of the
/// candidate set, [`SegmentedSearch::search_parallel`] is bit-identical
/// to [`SegmentedSearch::search`] at any width.
pub struct SegmentedSearch<'a> {
    segments: Vec<SearchSegment<'a>>,
}

impl<'a> SegmentedSearch<'a> {
    /// A search over the given segments (storage order).
    ///
    /// # Panics
    /// Panics if a segment's remap table disagrees with its index length.
    pub fn new(segments: Vec<SearchSegment<'a>>) -> Self {
        for (i, s) in segments.iter().enumerate() {
            assert_eq!(
                s.remap.len(),
                s.index.len(),
                "segment {i}: remap table does not cover the index"
            );
        }
        Self { segments }
    }

    /// The canonical top-`k` over every segment's live rows and the
    /// `extra` lists (already in external-id space).
    fn merged(
        &self,
        extra: &[Vec<Neighbor>],
        query: &[f32],
        opts: &SearchOptions,
        parallel: bool,
    ) -> Vec<Neighbor> {
        if opts.k == 0 {
            return Vec::new();
        }
        let mut lists: Vec<Vec<Neighbor>> = extra.to_vec();
        for s in &self.segments {
            let mut hits = s.index.search_live(query, opts, s.dead, parallel);
            for n in &mut hits {
                n.id = s.remap[n.id as usize];
            }
            lists.push(hits);
        }
        merge_neighbors(&lists, opts.k)
    }

    /// The canonical top-`k` over all segments and `extra` candidate
    /// lists (already in external-id space). `k == 0` answers empty
    /// without scanning.
    pub fn search(
        &self,
        extra: &[Vec<Neighbor>],
        query: &[f32],
        opts: &SearchOptions,
    ) -> Vec<Neighbor> {
        self.merged(extra, query, opts, false)
    }

    /// [`SegmentedSearch::search`] with each segment scanned through its
    /// deployment's `search_parallel` (intra-query block splitting on
    /// `opts.threads` workers). Bit-identical to the sequential search
    /// for exact configurations, at any thread count.
    pub fn search_parallel(
        &self,
        extra: &[Vec<Neighbor>],
        query: &[f32],
        opts: &SearchOptions,
    ) -> Vec<Neighbor> {
        self.merged(extra, query, opts, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::KnnHeap;

    /// A toy brute-force deployment exercising the default methods.
    struct Toy {
        dims: usize,
        rows: Vec<f32>,
    }

    impl VectorIndex for Toy {
        fn dims(&self) -> usize {
            self.dims
        }
        fn len(&self) -> usize {
            self.rows.len() / self.dims
        }
        fn kind(&self) -> &'static str {
            "toy"
        }
        fn search(&self, query: &[f32], opts: &SearchOptions) -> Vec<Neighbor> {
            let mut heap = KnnHeap::new(opts.k);
            for (i, row) in self.rows.chunks_exact(self.dims).enumerate() {
                let d = query.iter().zip(row).map(|(a, b)| (a - b) * (a - b)).sum();
                heap.push(i as u64, d);
            }
            heap.into_sorted()
        }
    }

    #[test]
    fn defaults_are_the_paper_defaults() {
        let opts = SearchOptions::default();
        assert_eq!(opts.k, 10);
        assert_eq!(opts.metric, Metric::L2);
        assert_eq!(opts.pruner, PrunerKind::Bond(VisitOrder::DistanceToMeans));
        assert_eq!(opts.selection_fraction, 0.20);
        assert_eq!(opts.step, StepPolicy::Adaptive { start: 2 });
        assert_eq!(opts.nprobe, 0);
        assert_eq!(opts.refine, DEFAULT_REFINE);
        assert_eq!(opts.ef, 0);
        assert_eq!(opts.kernel, KernelPolicy::Auto);
        assert_eq!(opts.threads, 0);
        // Tracing defaults to the env override so a whole test run can
        // be flipped on without touching call sites.
        assert_eq!(opts.trace, crate::obs::trace_default());
        assert!(opts.with_trace(true).trace);
    }

    #[test]
    fn nprobe_and_ef_resolution() {
        let opts = SearchOptions::new(10);
        assert_eq!(opts.resolve_nprobe(7), 7);
        assert_eq!(opts.with_nprobe(3).resolve_nprobe(7), 3);
        assert_eq!(opts.with_nprobe(100).resolve_nprobe(7), 7);
        assert_eq!(opts.resolve_ef(), DEFAULT_EF);
        assert_eq!(SearchOptions::new(500).resolve_ef(), 500);
        assert_eq!(opts.with_ef(2).resolve_ef(), 10); // clamped to ≥ k
    }

    #[test]
    fn default_batch_matches_sequential_on_dyn_object() {
        let toy = Toy {
            dims: 2,
            rows: (0..40).map(|i| i as f32).collect(),
        };
        let index: &dyn VectorIndex = &toy;
        assert_eq!(index.len(), 20);
        let queries: Vec<f32> = (0..10).map(|i| (i * 3 % 17) as f32).collect();
        let opts = SearchOptions::new(3).with_threads(4);
        let batch = index.search_batch(&queries, &opts);
        for (qi, got) in batch.iter().enumerate() {
            let want = index.search(&queries[qi * 2..(qi + 1) * 2], &opts);
            assert_eq!(got, &want, "query {qi}");
        }
        // The default parallel path is the sequential path.
        assert_eq!(
            index.search_parallel(&queries[..2], &opts),
            index.search(&queries[..2], &opts)
        );
    }

    #[test]
    fn segmented_search_merges_remaps_and_filters() {
        // Two segments of 1-dim points. Segment A holds 0,2,4,6 (external
        // ids 0,2,4,6), segment B holds 1,3,5,7 (external ids 1,3,5,7).
        let a = Toy {
            dims: 1,
            rows: vec![0.0, 2.0, 4.0, 6.0],
        };
        let b = Toy {
            dims: 1,
            rows: vec![1.0, 3.0, 5.0, 7.0],
        };
        let remap_a: Vec<u64> = vec![0, 2, 4, 6];
        let remap_b: Vec<u64> = vec![1, 3, 5, 7];
        let seg = |dead_a| {
            SegmentedSearch::new(vec![
                SearchSegment {
                    index: &a,
                    remap: &remap_a,
                    dead: dead_a,
                },
                SearchSegment {
                    index: &b,
                    remap: &remap_b,
                    dead: None,
                },
            ])
        };
        let opts = SearchOptions::new(3);
        let got = seg(None).search(&[], &[0.0], &opts);
        let ids: Vec<u64> = got.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![0, 1, 2]);

        // Tombstone external id 0 (local row 0 of segment A): the
        // surviving top-3 is complete.
        let dead: RowMask = [0u64].into_iter().collect();
        let got = seg(Some(&dead)).search(&[], &[0.0], &opts);
        let ids: Vec<u64> = got.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![1, 2, 3]);

        // An extra (write-buffer) list participates in the same merge,
        // and the parallel path is bit-identical.
        let extra = vec![vec![Neighbor {
            id: 100,
            distance: 0.25,
        }]];
        let got = seg(Some(&dead)).search(&extra, &[0.0], &opts);
        let ids: Vec<u64> = got.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![100, 1, 2]);
        let par = seg(Some(&dead)).search_parallel(&extra, &[0.0], &opts.with_threads(4));
        assert_eq!(par, got);
    }

    #[test]
    fn default_search_live_is_the_search_of_the_live_rows() {
        // 1-dim points 0..12 with duplicates of the nearest ones, so dead
        // rows sit on both sides of the k-th live distance and in a tie.
        let rows: Vec<f32> = vec![0.0, 0.0, 1.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0];
        let toy = Toy { dims: 1, rows };
        let index: &dyn VectorIndex = &toy;
        for dead_rows in [
            vec![],
            vec![0],
            vec![1, 2, 5],
            (0..12).collect::<Vec<u64>>(),
        ] {
            let dead: RowMask = dead_rows.iter().copied().collect();
            let live: Vec<u64> = (0..12).filter(|id| !dead_rows.contains(id)).collect();
            let without = Toy {
                dims: 1,
                rows: live.iter().map(|&id| toy.rows[id as usize]).collect(),
            };
            for k in [1usize, 3, 20] {
                let opts = SearchOptions::new(k);
                let mut want = without.search(&[0.4], &opts);
                for n in &mut want {
                    n.id = live[n.id as usize];
                }
                for parallel in [false, true] {
                    let got = index.search_live(&[0.4], &opts, Some(&dead), parallel);
                    assert_eq!(got, want, "dead {dead_rows:?} k={k}");
                }
            }
        }
        let opts = SearchOptions::new(4);
        assert_eq!(
            index.search_live(&[0.4], &opts, None, false),
            index.search(&[0.4], &opts)
        );
    }
}
