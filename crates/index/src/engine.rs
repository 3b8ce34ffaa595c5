//! The serve driver and the [`VectorIndex`] implementations of every
//! deployment in this crate.
//!
//! A PDX-layout deployment is a *block source*: it says how many blocks
//! it holds, which centroids route a query to them (none: scan them all
//! in storage order), how to pin one for the duration of its scan, and
//! whether candidates are reranked against an exact payload. That is the
//! [`Deployment`] trait. Everything a query does on top — prepare the
//! query with the pruner, rank the centroids, run [`pdxearch_band`] over
//! the blocks as they are pinned, rerank, publish one trace — is written
//! once, in the trait's provided `search_with` / `search_batch_with`
//! methods, for any [`Pruner`] and any element type ([`ScanBlock`]);
//! `search_live_with` is the body behind the first, and takes the
//! dead-row mask ([`RowMask`]) a collection's sealed segment is searched
//! under (`pdx-store`'s read path) down to the scan. The driver serves a
//! *band* of queries — one query is a band of one, on the calling
//! thread; a batch worker's band on an unrouted
//! deployment shares one tile-major scan ([`pdxearch_band`]), on a
//! routed one it is routed together — one pass over the centroids for
//! the whole band ([`probe_orders`]) — and scanned query by query, each
//! over its own probe list. The [`VectorIndex`]
//! implementations below are therefore identity (`dims` / `len` /
//! `kind` / `resident_bytes`) plus
//! delegations that name the pruner: [`SearchOptions::bond`] for the
//! `f32` deployments, [`Sq8Bound`] for the SQ8 ones, the fitted pruner
//! for `pdx-engine`'s adapters.
//!
//! Which options each deployment reads:
//!
//! | deployment        | `pruner` | `metric` | `nprobe` | `refine` | `selection_fraction`, `step` | `kernel`       |
//! |-------------------|----------|----------|----------|----------|------------------------------|----------------|
//! | [`FlatPdx`]       | ✓        | ✓        | –        | –        | ✓                            | vertical `f32` |
//! | [`IvfPdx`]        | ✓        | ✓        | ✓        | –        | ✓                            | vertical `f32` |
//! | [`crate::LazyIvf`]| ✓        | ✓        | ✓        | –        | ✓                            | vertical `f32` |
//! | [`FlatSq8`]       | –        | ✓        | –        | ✓        | ✓                            | vertical SQ8   |
//! | [`IvfSq8`]        | –        | ✓        | ✓        | ✓        | ✓                            | vertical SQ8   |
//!
//! (`k`, `threads` and `trace` apply everywhere. SQ8 deployments bound
//! with the candidate heap's own threshold instead of a [`PrunerKind`];
//! one without a rerank payload answers with the quantized estimates.)
//!
//! The paper's horizontal comparison baseline is not served and does not
//! implement [`VectorIndex`]: [`IvfHorizontal::search_with`] is the
//! horizontal IVF's one query (traced like a [`Deployment`] query, which
//! Table 7's breakdown reads).
//!
//! Every implementation honours the engine determinism contract:
//! `search_batch` returns the bits of sequential `search` at any thread
//! count, for every pruner (`tests/determinism.rs` pins it,
//! `tests/golden.rs` pins the bits themselves).
//!
//! When [`SearchOptions::trace`] is set, a `search` keeps one
//! [`QueryTrace`] for the query: the driver times preparation, routing
//! and rerank into it, the *profiled* monomorphization of the scan adds
//! its phases and work counters to the same record, and the driver adds
//! the rerank candidate count, the cache traffic of a lazily backed
//! deployment, the wall time and the identity before it publishes the
//! record through [`pdx_core::publish_trace`]. Profiled and unprofiled
//! scans differ only in timer/counter side effects, so results stay
//! bit-identical either way (`tests/obs.rs` pins this).
//!
//! [`PrunerKind`]: pdx_core::engine::PrunerKind

use crate::ivf::probe_orders;
use crate::{FlatPdx, FlatSq8, IvfHorizontal, IvfPdx, IvfSq8};
use pdx_core::collection::SearchBlock;
use pdx_core::engine::{SearchOptions, VectorIndex};
use pdx_core::exec::BatchSearcher;
use pdx_core::heap::Neighbor;
use pdx_core::mask::RowMask;
use pdx_core::pruning::Pruner;
use pdx_core::search::quantized::{sq8_rerank, Sq8Block, Sq8Bound};
use pdx_core::search::{
    horizontal_linear_scan, horizontal_pruned_search, pdxearch_band, HorizontalBucket, ScanBlock,
};
use pdx_core::QueryTrace;
use std::ops::Deref;
use std::time::Instant;

/// One query's trace in the making. Off unless [`SearchOptions::trace`]
/// is set: then no clock is read and nothing is published.
struct Tracing(Option<(Instant, QueryTrace)>);

impl Tracing {
    fn start(opts: &SearchOptions) -> Self {
        Self(opts.trace.then(|| (Instant::now(), QueryTrace::default())))
    }

    /// The trace a scan on the calling thread records into.
    fn trace(&mut self) -> Option<&mut QueryTrace> {
        self.0.as_mut().map(|(_, trace)| trace)
    }

    /// Runs `f`, charging its wall time to the phase `slot` selects.
    fn phase<R>(
        &mut self,
        slot: impl FnOnce(&mut QueryTrace) -> &mut u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let Some((_, trace)) = &mut self.0 else {
            return f();
        };
        let t0 = Instant::now();
        let out = f();
        *slot(trace) += t0.elapsed().as_nanos() as u64;
        out
    }

    /// Publishes the trace as deployment `kind`, stamped with its wall
    /// time and the kernel ISA that ran it.
    fn publish(self, kind: &'static str) {
        if let Some((t0, mut trace)) = self.0 {
            trace.total_ns = t0.elapsed().as_nanos() as u64;
            trace.deployment = kind;
            trace.kernel_isa = pdx_core::active_kernel_isa().name();
            pdx_core::publish_trace(&trace);
        }
    }
}

/// A PDX-layout deployment as the serve driver sees it: a source of
/// scan blocks. Implementing the required items (and [`VectorIndex`]'s
/// identity methods) is all a new deployment has to do; the provided
/// methods are the driver, and the typed search API for callers that
/// bring their own [`Pruner`].
pub trait Deployment: VectorIndex {
    /// The element type of the scan payload.
    type Block;

    /// Number of blocks; [`Deployment::pin`] takes `0..n_blocks`.
    fn n_blocks(&self) -> usize;

    /// The bucket centroids that route a query (row `i` stands for
    /// block `i`), stored in the space of [`Pruner::query_vector`].
    /// `None`: every block is scanned, in storage order.
    fn centroids(&self) -> Option<&SearchBlock> {
        None
    }

    /// A handle that keeps block `block` alive while it is scanned.
    fn pin(&self, block: u32) -> impl Deref<Target = Self::Block>;

    /// Runs `scan` while the blocks of `order` that are not resident yet
    /// load in the background (out-of-core deployments).
    fn with_prefetch<R>(&self, _order: &[u32], scan: impl FnOnce() -> R) -> R {
        scan()
    }

    /// The exact row-major payload the scan's candidates are reranked
    /// against (indexed by global id, in the space of
    /// [`Pruner::query_vector`]): the scan then keeps
    /// [`SearchOptions::refine`]` · k` candidates. `None`: the scan's
    /// top-`k` is the answer.
    fn rerank_rows(&self) -> Option<&[f32]> {
        None
    }

    /// One query: prepare → route → scan → rerank → publish one trace.
    fn search_with<P>(&self, pruner: &P, query: &[f32], opts: &SearchOptions) -> Vec<Neighbor>
    where
        P: Pruner,
        Self::Block: ScanBlock<P>,
    {
        self.search_live_with(pruner, query, opts, None)
    }

    /// A batch of packed queries on [`SearchOptions::threads`] workers,
    /// each work item a band of up to
    /// [`SUB_BATCH`](pdx_core::exec::SUB_BATCH) consecutive queries that
    /// one worker prepares together ([`Pruner::prepare_queries`] — one
    /// tiled PCA rotation for BSA) and then serves together: an unrouted
    /// deployment ([`Deployment::centroids`] is `None`) scans its blocks
    /// once for the whole band, tile-major ([`pdxearch_band`]); a routed
    /// one ranks its centroids for the whole band in one pass
    /// ([`probe_orders`]), then scans the band's queries one by one, each
    /// over its own probe list. Identical to a loop of
    /// [`Deployment::search_with`] at any thread count, for every pruner.
    /// A traced batch takes that loop, so that every query's trace
    /// carries its own preparation and phases.
    ///
    /// # Panics
    /// Panics if `queries.len()` is not a multiple of the dimensionality.
    fn search_batch_with<P>(
        &self,
        pruner: &P,
        queries: &[f32],
        opts: &SearchOptions,
    ) -> Vec<Vec<Neighbor>>
    where
        P: Pruner + Sync,
        Self::Block: ScanBlock<P>,
    {
        let (searcher, dims) = (BatchSearcher::new(opts.threads), self.dims());
        if opts.trace {
            return searcher.run(queries, dims, |q| self.search_with(pruner, q, opts));
        }
        searcher.run_prepared(
            queries,
            dims,
            |packed| pruner.prepare_queries(packed, dims),
            |band| serve(self, pruner, band, opts, None, Tracing::start(opts)),
        )
    }

    /// [`Deployment::search_with`] over the rows whose id is not in
    /// `dead`: the mask goes to [`pdxearch_band`], which drops those rows
    /// in the scan, so the answer is that of the same blocks without them
    /// (how a collection searches a sealed segment that holds tombstoned
    /// rows).
    fn search_live_with<P>(
        &self,
        pruner: &P,
        query: &[f32],
        opts: &SearchOptions,
        dead: Option<&RowMask>,
    ) -> Vec<Neighbor>
    where
        P: Pruner,
        Self::Block: ScanBlock<P>,
    {
        let mut tracing = Tracing::start(opts);
        let q = tracing.phase(|p| &mut p.preprocess_ns, || pruner.prepare_query(query));
        let band = std::slice::from_ref(&q);
        let mut answers = serve(self, pruner, band, opts, dead, tracing);
        answers.pop().expect("one answer list per query")
    }
}

/// The serve driver behind [`Deployment`]'s provided methods, from the
/// prepared queries on: route, scan (minus the `dead` rows), rerank,
/// publish. `band` is the queries served together — one, or a batch
/// worker's band. A routed
/// deployment ranks its centroids for the whole band in one pass
/// ([`probe_orders`]), then scans the band's queries one after the
/// other, each over its own probe list (an approximate pruner's answer
/// depends on the order its blocks are visited in); the queries of an
/// unrouted deployment share one tile-major scan of its blocks.
/// `tracing` is the trace of the whole call.
fn serve<D, P>(
    dep: &D,
    pruner: &P,
    band: &[P::Query],
    opts: &SearchOptions,
    dead: Option<&RowMask>,
    mut tracing: Tracing,
) -> Vec<Vec<Neighbor>>
where
    D: Deployment + ?Sized,
    P: Pruner,
    D::Block: ScanBlock<P>,
{
    let metric = pruner.metric();
    let cache_before = tracing.trace().and_then(|_| dep.cache_stats());
    let orders = dep.centroids().map(|centroids| {
        tracing.phase(
            |p| &mut p.find_buckets_ns,
            || {
                let spaces: Vec<&[f32]> = band.iter().map(|q| pruner.query_vector(q)).collect();
                probe_orders(
                    centroids,
                    &spaces,
                    opts.resolve_nprobe(dep.n_blocks()),
                    metric,
                )
            },
        )
    });
    let rows = dep.rerank_rows();
    let refine = rows.map_or(1, |_| opts.refine.max(1));
    let scan = SearchOptions {
        k: opts.k.saturating_mul(refine),
        ..*opts
    };
    // The scan streams: each block is pinned right before it is scanned
    // and released right after.
    let mut scan_band = |band: &[P::Query], order: &[u32]| {
        let pins = order.iter().map(|&b| dep.pin(b));
        dep.with_prefetch(order, || {
            pdxearch_band(pruner, band, pins, &scan, dead, tracing.trace())
        })
    };
    let candidates: Vec<Vec<Neighbor>> = match &orders {
        None => scan_band(band, &(0..dep.n_blocks() as u32).collect::<Vec<_>>()),
        Some(orders) => {
            let one =
                |(q, order): (&P::Query, &Vec<u32>)| scan_band(std::slice::from_ref(q), order);
            band.iter().zip(orders).flat_map(one).collect()
        }
    };
    let reranked = rows.map_or(0, |_| candidates.iter().map(Vec::len).sum::<usize>() as u64);
    let out = match rows {
        None => candidates,
        Some(rows) => tracing.phase(
            |p| &mut p.distance_ns,
            || {
                let rerank = |(q, found): (&P::Query, &Vec<Neighbor>)| {
                    sq8_rerank(
                        metric,
                        rows,
                        dep.dims(),
                        pruner.query_vector(q),
                        found,
                        opts.k,
                    )
                };
                band.iter().zip(&candidates).map(rerank).collect()
            },
        ),
    };
    if let Some(trace) = tracing.trace() {
        trace.rerank_candidates = reranked;
        // The delta reads the shared cache counters, so concurrent
        // queries can blur each other's attribution — the aggregate
        // across queries is exact.
        if let (Some(before), Some(after)) = (cache_before, dep.cache_stats()) {
            trace.cache_hits = after.hits.saturating_sub(before.hits);
            trace.cache_misses = after.misses.saturating_sub(before.misses);
        }
    }
    tracing.publish(dep.kind());
    out
}

/// The searches of [`VectorIndex`] for a [`Deployment`] (`this`) whose
/// pruner under the options `opts` is `$pruner`: a single query is
/// [`Deployment::search_with`], and a batch is
/// [`Deployment::search_batch_with`], served a band at a time.
macro_rules! searches_through_serve {
    (|$this:ident, $opts:ident| $pruner:expr) => {
        fn search(&self, query: &[f32], $opts: &SearchOptions) -> Vec<Neighbor> {
            let $this = self;
            $this.search_with(&$pruner, query, $opts)
        }

        fn search_batch(&self, queries: &[f32], $opts: &SearchOptions) -> Vec<Vec<Neighbor>> {
            let $this = self;
            $this.search_batch_with(&$pruner, queries, $opts)
        }
    };
}
pub(crate) use searches_through_serve;

/// Payload bytes of one resident `f32` search block: ids, stats, tiles.
fn search_block_bytes(b: &SearchBlock) -> u64 {
    (b.row_ids.len() * 8
        + (b.stats.means.len() + b.stats.variances.len()) * 4
        + b.pdx.as_slice().len() * 4) as u64
}

/// Payload bytes of one resident SQ8 block: ids and `u8` codes.
fn sq8_block_bytes(b: &Sq8Block) -> u64 {
    (b.row_ids.len() * 8 + b.codes.as_slice().len()) as u64
}

impl Deployment for FlatPdx {
    type Block = SearchBlock;

    fn n_blocks(&self) -> usize {
        self.collection.blocks.len()
    }

    fn pin(&self, block: u32) -> impl Deref<Target = SearchBlock> {
        &self.collection.blocks[block as usize]
    }
}

impl VectorIndex for FlatPdx {
    fn dims(&self) -> usize {
        self.collection.dims
    }

    fn len(&self) -> usize {
        self.collection.total_vectors()
    }

    fn kind(&self) -> &'static str {
        "flat-pdx"
    }

    searches_through_serve!(|_this, opts| opts.bond());

    fn resident_bytes(&self) -> u64 {
        self.collection.blocks.iter().map(search_block_bytes).sum()
    }
}

impl Deployment for IvfPdx {
    type Block = SearchBlock;

    fn n_blocks(&self) -> usize {
        self.blocks.len()
    }

    fn centroids(&self) -> Option<&SearchBlock> {
        Some(&self.centroids)
    }

    fn pin(&self, block: u32) -> impl Deref<Target = SearchBlock> {
        &self.blocks[block as usize]
    }
}

impl VectorIndex for IvfPdx {
    fn dims(&self) -> usize {
        self.dims
    }

    fn len(&self) -> usize {
        self.blocks.iter().map(|b| b.len()).sum()
    }

    fn kind(&self) -> &'static str {
        "ivf-pdx"
    }

    searches_through_serve!(|_this, opts| opts.bond());

    fn resident_bytes(&self) -> u64 {
        search_block_bytes(&self.centroids)
            + self.blocks.iter().map(search_block_bytes).sum::<u64>()
    }
}

impl Deployment for FlatSq8 {
    type Block = Sq8Block;

    fn n_blocks(&self) -> usize {
        self.blocks.len()
    }

    fn pin(&self, block: u32) -> impl Deref<Target = Sq8Block> {
        &self.blocks[block as usize]
    }

    fn rerank_rows(&self) -> Option<&[f32]> {
        (!self.rows.is_empty()).then_some(&self.rows[..])
    }
}

impl VectorIndex for FlatSq8 {
    fn dims(&self) -> usize {
        self.dims
    }

    fn len(&self) -> usize {
        self.total_vectors()
    }

    fn kind(&self) -> &'static str {
        if self.rows.is_empty() {
            "flat-sq8-scan-only"
        } else {
            "flat-sq8"
        }
    }

    searches_through_serve!(|this, opts| Sq8Bound::new(&this.quantizer, opts.metric));

    fn resident_bytes(&self) -> u64 {
        self.blocks.iter().map(sq8_block_bytes).sum::<u64>() + (self.rows.len() * 4) as u64
    }
}

impl Deployment for IvfSq8 {
    type Block = Sq8Block;

    fn n_blocks(&self) -> usize {
        self.blocks.len()
    }

    fn centroids(&self) -> Option<&SearchBlock> {
        Some(&self.centroids)
    }

    fn pin(&self, block: u32) -> impl Deref<Target = Sq8Block> {
        &self.blocks[block as usize]
    }

    fn rerank_rows(&self) -> Option<&[f32]> {
        (!self.rows.is_empty()).then_some(&self.rows[..])
    }
}

impl VectorIndex for IvfSq8 {
    fn dims(&self) -> usize {
        self.dims
    }

    fn len(&self) -> usize {
        self.blocks.iter().map(|b| b.len()).sum()
    }

    fn kind(&self) -> &'static str {
        "ivf-sq8"
    }

    searches_through_serve!(|this, opts| Sq8Bound::new(&this.quantizer, opts.metric));

    fn resident_bytes(&self) -> u64 {
        search_block_bytes(&self.centroids)
            + self.blocks.iter().map(sq8_block_bytes).sum::<u64>()
            + (self.rows.len() * 4) as u64
    }
}

impl IvfHorizontal {
    /// Vector-at-a-time query over the `nprobe` nearest buckets with the
    /// horizontal tier of [`SearchOptions::kernel`] (SIMD-ADS when SIMD,
    /// SCALAR-ADS when scalar): `pruner`'s bound interleaved every Δd
    /// dimensions, or — for a pruner that never prunes — the plain
    /// linear IVF_FLAT scan. Traced like a [`Deployment`] query, as
    /// `ivf-horizontal`.
    pub fn search_with<P: Pruner>(
        &self,
        pruner: &P,
        query: &[f32],
        opts: &SearchOptions,
    ) -> Vec<Neighbor> {
        let mut tracing = Tracing::start(opts);
        let variant = opts.kernel.horizontal_variant();
        let q = tracing.phase(|p| &mut p.preprocess_ns, || pruner.prepare_query(query));
        let (space, metric) = (pruner.query_vector(&q), pruner.metric());
        let buckets: Vec<&HorizontalBucket> = tracing.phase(
            |p| &mut p.find_buckets_ns,
            || {
                let nprobe = opts.resolve_nprobe(self.buckets.len());
                let order = self.probe_order(space, nprobe, metric, variant);
                order.iter().map(|&b| &self.buckets[b as usize]).collect()
            },
        );
        let out = if pruner.prunes() {
            let trace = tracing.trace();
            horizontal_pruned_search(pruner, &q, buckets, opts, self.delta_d, trace)
        } else {
            horizontal_linear_scan(&buckets, space, opts.k, metric, variant)
        };
        tracing.publish("ivf-horizontal");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ivf::IvfIndex;
    use pdx_core::bond::PdxBond;
    use pdx_core::distance::Metric;
    use pdx_core::engine::PrunerKind;
    use pdx_core::visit_order::VisitOrder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_rows(n: usize, d: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n * d).map(|_| rng.random::<f32>() * 10.0).collect()
    }

    #[test]
    fn trait_search_is_the_typed_search_under_the_options_pruner() {
        let (n, d, k) = (600, 10, 7);
        let rows = random_rows(n, d, 1);
        let q = random_rows(1, d, 2);
        let opts = SearchOptions::new(k);

        let flat = FlatPdx::new(&rows, n, d, 200, 32);
        let bond = PdxBond::new(Metric::L2, VisitOrder::DistanceToMeans);
        let want = flat.search_with(&bond, &q, &opts);
        let dyn_flat: &dyn VectorIndex = &flat;
        assert_eq!(dyn_flat.search(&q, &opts), want);
        assert_eq!(dyn_flat.len(), n);
        assert_eq!(dyn_flat.dims(), d);
    }

    #[test]
    fn linear_pruner_kind_is_the_linear_scan() {
        let (n, d, k) = (400, 8, 5);
        let rows = random_rows(n, d, 3);
        let q = random_rows(1, d, 4);
        let flat = FlatPdx::new(&rows, n, d, 128, 16);
        let opts = SearchOptions::new(k).with_pruner(PrunerKind::Linear);
        let dyn_flat: &dyn VectorIndex = &flat;
        assert_eq!(
            dyn_flat.search(&q, &opts),
            flat.linear_search(&q, k, Metric::L2)
        );
        assert_eq!(
            dyn_flat.search_batch(&q, &opts.with_threads(3))[0],
            flat.linear_search(&q, k, Metric::L2)
        );
    }

    /// The six deployments this crate serves: flat and IVF, `f32` and
    /// SQ8, resident and lazy, with and without a rerank payload.
    #[test]
    fn all_six_deployments_box_and_agree_on_top1() {
        let (n, d) = (500, 8);
        let rows = random_rows(n, d, 7);
        let q = random_rows(1, d, 8);
        let index = IvfIndex::build(&rows, n, d, 10, 8, 5);
        let ivf = IvfPdx::new(&rows, d, &index.assignments, 16);
        let dir = std::env::temp_dir().join(format!("pdx_index_six_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ivf.pdx");
        let centroids = ivf.centroids.pdx.to_rows();
        pdx_datasets::persist::write_ivf_pdx_path(&path, d, &centroids, &ivf.blocks).unwrap();
        let sq8 = FlatSq8::build(&rows, n, d, 128, 16);
        let scan_only = FlatSq8::from_parts(d, sq8.quantizer.clone(), sq8.blocks.clone(), vec![]);

        let deployments: Vec<Box<dyn VectorIndex>> = vec![
            Box::new(FlatPdx::new(&rows, n, d, 128, 16)),
            Box::new(ivf),
            Box::new(crate::LazyIvf::open(&path, 1 << 10).unwrap()),
            Box::new(sq8),
            Box::new(scan_only),
            Box::new(IvfSq8::new(&rows, d, &index.assignments, 16)),
        ];
        let exact = FlatPdx::new(&rows, n, d, n, 16).linear_search(&q, 1, Metric::L2);
        let opts = SearchOptions::new(3);
        for dep in &deployments {
            let got = dep.search(&q, &opts);
            assert_eq!(got.len(), 3, "{}", dep.kind());
            assert_eq!(got[0].id, exact[0].id, "{} top-1", dep.kind());
            assert_eq!(dep.len(), n, "{}", dep.kind());
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
