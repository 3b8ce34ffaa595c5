//! The engine layer: one object-safe trait every deployment serves
//! through, with one options struct subsuming the per-deployment knobs.
//!
//! The paper's core claim is that a single layout (PDX) and a single
//! search framework (PDXearch) serve many deployments — flat, IVF,
//! quantized, pruned, mutable. [`VectorIndex`] is that claim as an API:
//! every served deployment answers the same `search` / `search_batch`
//! calls from the same [`SearchOptions`], so the CLI,
//! the network server and the store hold a `Box<dyn VectorIndex>` and
//! never know (or care) which deployment is behind it. `pdx-engine`'s
//! `AnyIndex::open` produces exactly that box by sniffing a persisted
//! container. The trait and the options are what those serving layers
//! use and no more: the paper's horizontal baselines are not served;
//! they live in `pdx-bench`.
//!
//! The batch entry point comes for free: the trait's default method
//! runs on the shared [`exec`](crate::exec) worker pool, and because
//! each query still runs the deployment's sequential path, results are
//! **bit-identical to the sequential path at any thread count** — the
//! same determinism contract the concrete `search_batch` methods
//! established.
//!
//! Options irrelevant to a deployment are ignored (an SQ8 index has no
//! pruner choice; a flat index has no `nprobe`); each implementation
//! documents which fields it reads.

use crate::bond::PdxBond;
use crate::distance::Metric;
use crate::exec::BatchSearcher;
use crate::heap::Neighbor;
use crate::kernels::KernelPolicy;
use crate::pruning::{StepPolicy, DEFAULT_SELECTION_FRACTION};
use crate::search::DEFAULT_REFINE;
use crate::visit_order::VisitOrder;
use std::fmt;

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
/// probe count, the SQ8 rerank factor, the pruner choice, the worker
/// count and tracing. Fields a deployment has no use for are ignored.
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
    /// index). Ignored by flat deployments.
    pub nprobe: usize,
    /// SQ8 candidate-refinement factor: phase 1 keeps `refine · k`
    /// candidates for the exact rerank. Ignored by `f32` deployments.
    pub refine: usize,
    /// Kernel implementation policy: one knob steering the vertical
    /// `f32` kernels, the vertical SQ8 kernels, *and* the horizontal
    /// (vector-at-a-time) ones of a collection's write buffer. The
    /// vertical kernels answer with the same bits under every policy;
    /// the horizontal SIMD tiers reduce across lanes, so their bits
    /// follow the ISA.
    pub kernel: KernelPolicy,
    /// Worker count of `search_batch` — the batch width; `0` means the
    /// default width (the `PDX_THREADS` env override, then the hardware
    /// parallelism). Single-query `search` ignores it: one query runs on
    /// the calling thread.
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
}

/// Why packed vectors cannot be searched or stored ([`check_vectors`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VectorError {
    /// `len` values are not whole `dims`-wide vectors, or `dims` is 0.
    Shape {
        /// Number of values.
        len: usize,
        /// Width of one vector.
        dims: usize,
    },
    /// The first NaN or infinity, in row-major order.
    NonFinite {
        /// The vector holding it.
        row: usize,
        /// Its dimension in that vector.
        dim: usize,
        /// The value itself.
        value: f32,
    },
}

impl fmt::Display for VectorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Shape { len, dims } => write!(f, "{len} values are not whole {dims}-dim vectors"),
            Self::NonFinite { row, dim, value } => {
                write!(f, "row {row} holds {value} at dim {dim}")
            }
        }
    }
}

/// The one verdict on vectors from outside (a wire frame, an `.fvecs`
/// file, an insert) before they are searched or stored: `data` must
/// pack whole `dims`-wide vectors, every value finite, since no distance
/// or visit order can rank a NaN or an infinity. Returns the number of
/// vectors; a road that takes one vector requires `Ok(1)`.
///
/// # Errors
/// [`VectorError::Shape`] if `dims` is 0 or does not divide
/// `data.len()`; else [`VectorError::NonFinite`] for the first
/// non-finite value.
pub fn check_vectors(data: &[f32], dims: usize) -> Result<usize, VectorError> {
    let len = data.len();
    if dims == 0 || !len.is_multiple_of(dims) {
        return Err(VectorError::Shape { len, dims });
    }
    match data.iter().position(|v| !v.is_finite()) {
        Some(at) => Err(VectorError::NonFinite {
            row: at / dims,
            dim: at % dims,
            value: data[at],
        }),
        None => Ok(len / dims),
    }
}

/// One vector-search deployment behind a uniform, object-safe surface.
///
/// Every served deployment — flat and IVF, `f32` and SQ8, resident and
/// lazy, fitted-pruner adapters, mutable collections — implements this
/// trait, so callers can hold a `Box<dyn VectorIndex>` (see
/// `pdx-engine`'s `AnyIndex::open`) and serve queries without knowing
/// the concrete type.
///
/// # Determinism contract
///
/// Every entry point returns the bits of sequential `search` at any
/// thread count, for every pruner — ids *and* distances,
/// duplicate-distance ties included. The default `search_batch` runs the
/// unmodified sequential path per query; the PDXearch deployments'
/// override — a band of queries sharing one tile-major scan — keeps
/// every query's own visit and accumulation order.
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

    /// Single-query k-NN with the unified options. `opts.k == 0` asks
    /// for nothing: every implementation answers it with the empty list
    /// (and [`VectorIndex::search_batch`] with one empty list per query).
    ///
    /// # Panics
    /// Panics if `query.len()` is not [`VectorIndex::dims`]. May panic
    /// on a query holding a NaN or an infinity: a [`PrunerKind::Bond`]
    /// visit order cannot sort a NaN score. Edges that take queries from
    /// outside call [`check_vectors`] first.
    fn search(&self, query: &[f32], opts: &SearchOptions) -> Vec<Neighbor>;

    /// Searches a batch of packed queries on `opts.threads` workers
    /// (`0` = default width); an empty batch is the empty answer.
    /// Identical to a sequential loop of [`VectorIndex::search`] at any
    /// thread count. This default hands the workers one query at a time,
    /// each through `search`; it is what a collection's `Snapshot` (and
    /// so `Collection` and `ShardedCollection`) batches with. The
    /// PDXearch deployments
    /// override it (`pdx_index::Deployment::search_batch_with`): a
    /// worker takes a band of up to [`SUB_BATCH`](crate::exec::SUB_BATCH)
    /// consecutive queries, prepares it together, and — where the
    /// deployment is unrouted (`FlatPdx`, `FlatSq8`, a flat `Pruned`) —
    /// scans each tile for the whole band before touching the next;
    /// routed deployments rank their centroids for the whole band in one
    /// pass, then scan the band's queries one by one.
    ///
    /// # Panics
    /// Panics with "queries buffer must hold whole vectors" if
    /// `queries.len()` is not a multiple of the dimensionality.
    fn search_batch(&self, queries: &[f32], opts: &SearchOptions) -> Vec<Vec<Neighbor>> {
        BatchSearcher::new(opts.threads).run(queries, self.dims(), |q| self.search(q, opts))
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
        assert_eq!(opts.kernel, KernelPolicy::Auto);
        assert_eq!(opts.threads, 0);
        // Tracing defaults to the env override so a whole test run can
        // be flipped on without touching call sites.
        assert_eq!(opts.trace, crate::obs::trace_default());
        assert!(opts.with_trace(true).trace);
    }

    #[test]
    fn nprobe_resolution() {
        let opts = SearchOptions::new(10);
        assert_eq!(opts.resolve_nprobe(7), 7);
        assert_eq!(opts.with_nprobe(3).resolve_nprobe(7), 3);
        assert_eq!(opts.with_nprobe(100).resolve_nprobe(7), 7);
    }

    #[test]
    fn vector_check_names_the_first_non_finite_value() {
        let shape = |len, dims| Err(VectorError::Shape { len, dims });
        assert_eq!(check_vectors(&[0.0; 11], 4), shape(11, 4));
        assert_eq!(check_vectors(&[0.0; 4], 0), shape(4, 0));
        assert_eq!(check_vectors(&[], 0), shape(0, 0));
        assert_eq!(check_vectors(&[], 4), Ok(0));
        // −0.0, a subnormal and ±MAX pass; three rows of four.
        let edge = [-0.0, f32::MIN_POSITIVE / 2.0, -f32::MAX, f32::MAX];
        let fine = edge.repeat(3);
        assert_eq!(check_vectors(&fine, 4), Ok(3));
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for (at, row, dim) in [(0, 0, 0), (11, 2, 3)] {
                let mut data = fine.clone();
                data[at] = bad;
                let err = check_vectors(&data, 4).unwrap_err();
                let want = format!("row {row} holds {bad} at dim {dim}");
                assert_eq!(err.to_string(), want);
            }
        }
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
    }
}
