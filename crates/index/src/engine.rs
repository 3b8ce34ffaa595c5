//! [`VectorIndex`] implementations for every deployment in this crate.
//!
//! The six deployments keep their typed inherent APIs (generic over
//! [`Pruner`], with per-deployment
//! parameters); this module is the uniform dynamic surface on top: each
//! implementation translates one [`SearchOptions`] into the
//! deployment's inherent calls, so all six are reachable as
//! `Box<dyn VectorIndex>` — the serving path `AnyIndex::open` (in
//! `pdx-engine`) and the CLI use.
//!
//! Which options each deployment reads:
//!
//! | deployment       | `pruner` | `metric` | `nprobe` | `refine` | `ef` | `kernel`  |
//! |------------------|----------|----------|----------|----------|------|-----------|
//! | [`FlatPdx`]      | ✓        | ✓        | –        | –        | –    | –         |
//! | [`IvfPdx`]       | ✓        | ✓        | ✓        | –        | –    | –         |
//! | [`IvfHorizontal`]| ✓        | ✓        | ✓        | –        | –    | ✓         |
//! | [`FlatSq8`]      | –        | ✓        | –        | ✓        | –    | –         |
//! | [`IvfSq8`]       | –        | ✓        | ✓        | ✓        | –    | –         |
//! | [`Hnsw`]         | –        | – (L2)   | –        | –        | ✓    | –         |
//!
//! (The out-of-core [`crate::LazyIvf`] implements the trait in
//! [`crate::lazy`] with the same option surface as [`IvfPdx`], plus
//! live [`VectorIndex::resident_bytes`] / [`VectorIndex::cache_stats`]
//! readings.) The fully resident deployments override
//! `resident_bytes` with their payload footprint, so `pdx stat` and
//! the serve stats report comparable numbers across deployments.
//!
//! (`k`, `step`, `selection_fraction` and `threads` apply wherever the
//! underlying scan uses them; SQ8 deployments bound with the candidate
//! heap's own threshold instead of a [`PrunerKind`]; the HNSW graph is
//! built for L2 and ignores the metric option.)
//!
//! Every implementation honours the engine determinism contract: exact
//! configurations return bit-identical results from `search_batch` and
//! `search_parallel` at any thread count (`tests/determinism.rs` pins
//! all six).
//!
//! When [`SearchOptions::trace`] is set, each `search` runs the
//! *profiled* monomorphization of its scan where one exists (the PDX
//! deployments and the horizontal baseline) or just times the wall
//! clock (SQ8, HNSW), then publishes one
//! [`QueryTrace`](pdx_core::QueryTrace) through
//! [`pdx_core::publish_trace`]. Profiled and unprofiled scans differ
//! only in timer/counter side effects, so results stay bit-identical
//! either way (`tests/obs.rs` pins this).

use crate::{FlatPdx, FlatSq8, Hnsw, IvfHorizontal, IvfPdx, IvfSq8};
use pdx_core::bond::PdxBond;
use pdx_core::collection::SearchBlock;
use pdx_core::engine::{PrunerKind, SearchOptions, VectorIndex};
use pdx_core::exec::{parallel_block_search, BatchSearcher, ThreadPool};
use pdx_core::heap::Neighbor;
use pdx_core::pruning::Pruner;
use pdx_core::search::quantized::{sq8_rerank, sq8_search_policy, sq8_two_phase_policy, Sq8Block};
use pdx_core::search::{
    horizontal_linear_scan, horizontal_pruned_search_prepared, linear_scan_blocks,
    pdxearch_prepared, HorizontalBucket,
};
use pdx_core::SearchProfile;
use std::time::Instant;

/// Candidates the SQ8 two-phase rerank pulls from the quantized scan:
/// `refine · k`, clamped to the deployment size.
fn sq8_rerank_candidates(opts: &SearchOptions, len: usize) -> u64 {
    (opts.k * opts.refine.max(1)).min(len) as u64
}

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

    /// Exact search over all partitions: PDX-BOND (`pruner` order) or a
    /// plain PDX linear scan.
    fn search(&self, query: &[f32], opts: &SearchOptions) -> Vec<Neighbor> {
        if opts.trace {
            let t0 = Instant::now();
            let mut profile = SearchProfile::default();
            let out = match opts.pruner {
                PrunerKind::Bond(order) => {
                    let bond = PdxBond::new(opts.metric, order);
                    FlatPdx::search_profiled(self, &bond, query, &opts.params(), &mut profile)
                }
                PrunerKind::Linear => self.linear_search(query, opts.k, opts.metric),
            };
            let trace =
                pdx_core::trace_from_profile("flat-pdx", &profile, t0.elapsed().as_nanos() as u64);
            pdx_core::publish_trace(&trace);
            return out;
        }
        match opts.pruner {
            PrunerKind::Bond(order) => {
                let bond = PdxBond::new(opts.metric, order);
                FlatPdx::search(self, &bond, query, &opts.params())
            }
            PrunerKind::Linear => self.linear_search(query, opts.k, opts.metric),
        }
    }

    /// Overridden to hoist the block-reference gathering out of the
    /// per-query loop (flat partitions are query-independent); each
    /// query still runs the unmodified sequential scan, so results stay
    /// bit-identical to a loop of [`VectorIndex::search`]. A traced
    /// batch takes the per-query path so every query publishes its own
    /// trace.
    fn search_batch(&self, queries: &[f32], opts: &SearchOptions) -> Vec<Vec<Neighbor>> {
        if opts.trace {
            return BatchSearcher::new(opts.threads).run(queries, self.collection.dims, |q| {
                VectorIndex::search(self, q, opts)
            });
        }
        let blocks: Vec<&SearchBlock> = self.collection.blocks.iter().collect();
        let searcher = BatchSearcher::new(opts.threads);
        match opts.pruner {
            PrunerKind::Bond(order) => {
                let bond = PdxBond::new(opts.metric, order);
                let params = opts.params();
                searcher.run(queries, self.collection.dims, |q| {
                    let pq = bond.prepare_query(q);
                    pdxearch_prepared(&bond, &pq, &blocks, &params)
                })
            }
            PrunerKind::Linear => searcher.run(queries, self.collection.dims, |q| {
                linear_scan_blocks(&blocks, q, opts.k, opts.metric)
            }),
        }
    }

    /// Intra-query parallel scans have no profiled variant; a traced
    /// call publishes a wall-time-only trace around the unmodified
    /// parallel path.
    fn search_parallel(&self, query: &[f32], opts: &SearchOptions) -> Vec<Neighbor> {
        let t0 = opts.trace.then(Instant::now);
        let out = match opts.pruner {
            PrunerKind::Bond(order) => {
                let bond = PdxBond::new(opts.metric, order);
                FlatPdx::search_parallel(self, &bond, query, &opts.params(), opts.threads)
            }
            PrunerKind::Linear => {
                let blocks: Vec<&SearchBlock> = self.collection.blocks.iter().collect();
                let pool = ThreadPool::new(opts.threads);
                parallel_block_search(&pool, blocks.len(), opts.k, |range| {
                    linear_scan_blocks(&blocks[range], query, opts.k, opts.metric)
                })
            }
        };
        if let Some(t0) = t0 {
            pdx_core::publish_trace(&pdx_core::total_only_trace(
                "flat-pdx",
                t0.elapsed().as_nanos() as u64,
            ));
        }
        out
    }

    fn resident_bytes(&self) -> u64 {
        self.collection.blocks.iter().map(search_block_bytes).sum()
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

    /// PDXearch (or a linear scan) over the `nprobe` nearest buckets
    /// (`nprobe = 0` probes all buckets — exact for the Bond/Linear
    /// configurations).
    fn search(&self, query: &[f32], opts: &SearchOptions) -> Vec<Neighbor> {
        let nprobe = opts.resolve_nprobe(self.blocks.len());
        if opts.trace {
            let t0 = Instant::now();
            let mut profile = SearchProfile::default();
            let out = match opts.pruner {
                PrunerKind::Bond(order) => {
                    let bond = PdxBond::new(opts.metric, order);
                    IvfPdx::search_profiled(
                        self,
                        &bond,
                        query,
                        nprobe,
                        &opts.params(),
                        &mut profile,
                    )
                }
                PrunerKind::Linear => self.linear_search(query, opts.k, nprobe, opts.metric),
            };
            let trace =
                pdx_core::trace_from_profile("ivf-pdx", &profile, t0.elapsed().as_nanos() as u64);
            pdx_core::publish_trace(&trace);
            return out;
        }
        match opts.pruner {
            PrunerKind::Bond(order) => {
                let bond = PdxBond::new(opts.metric, order);
                IvfPdx::search(self, &bond, query, nprobe, &opts.params())
            }
            PrunerKind::Linear => self.linear_search(query, opts.k, nprobe, opts.metric),
        }
    }

    /// Traced calls publish a wall-time-only trace around the
    /// unmodified parallel scan (no profiled variant).
    fn search_parallel(&self, query: &[f32], opts: &SearchOptions) -> Vec<Neighbor> {
        let t0 = opts.trace.then(Instant::now);
        let nprobe = opts.resolve_nprobe(self.blocks.len());
        let out = match opts.pruner {
            PrunerKind::Bond(order) => {
                let bond = PdxBond::new(opts.metric, order);
                IvfPdx::search_parallel(self, &bond, query, nprobe, &opts.params(), opts.threads)
            }
            PrunerKind::Linear => {
                let order = self.probe_order(query, nprobe, opts.metric);
                let blocks: Vec<&SearchBlock> =
                    order.iter().map(|&b| &self.blocks[b as usize]).collect();
                let pool = ThreadPool::new(opts.threads);
                parallel_block_search(&pool, blocks.len(), opts.k, |range| {
                    linear_scan_blocks(&blocks[range], query, opts.k, opts.metric)
                })
            }
        };
        if let Some(t0) = t0 {
            pdx_core::publish_trace(&pdx_core::total_only_trace(
                "ivf-pdx",
                t0.elapsed().as_nanos() as u64,
            ));
        }
        out
    }

    fn resident_bytes(&self) -> u64 {
        search_block_bytes(&self.centroids)
            + self.blocks.iter().map(search_block_bytes).sum::<u64>()
    }
}

impl VectorIndex for IvfHorizontal {
    fn dims(&self) -> usize {
        self.dims
    }

    fn len(&self) -> usize {
        self.buckets.iter().map(|b| b.len()).sum()
    }

    fn kind(&self) -> &'static str {
        "ivf-horizontal"
    }

    /// Vector-at-a-time search over the `nprobe` nearest buckets with
    /// the horizontal tier of the configured kernel policy; `pruner`
    /// selects the
    /// interleaved Bond bound or the plain linear IVF_FLAT scan.
    fn search(&self, query: &[f32], opts: &SearchOptions) -> Vec<Neighbor> {
        let nprobe = opts.resolve_nprobe(self.buckets.len());
        if opts.trace {
            let t0 = Instant::now();
            let mut profile = SearchProfile::default();
            let out = match opts.pruner {
                PrunerKind::Bond(order) => {
                    let bond = PdxBond::new(opts.metric, order);
                    IvfHorizontal::search_profiled(
                        self,
                        &bond,
                        query,
                        opts.k,
                        nprobe,
                        opts.kernel.horizontal_variant(),
                        &mut profile,
                    )
                }
                PrunerKind::Linear => self.linear_search(
                    query,
                    opts.k,
                    nprobe,
                    opts.metric,
                    opts.kernel.horizontal_variant(),
                ),
            };
            let trace = pdx_core::trace_from_profile(
                "ivf-horizontal",
                &profile,
                t0.elapsed().as_nanos() as u64,
            );
            pdx_core::publish_trace(&trace);
            return out;
        }
        match opts.pruner {
            PrunerKind::Bond(order) => {
                let bond = PdxBond::new(opts.metric, order);
                IvfHorizontal::search(
                    self,
                    &bond,
                    query,
                    opts.k,
                    nprobe,
                    opts.kernel.horizontal_variant(),
                )
            }
            PrunerKind::Linear => self.linear_search(
                query,
                opts.k,
                nprobe,
                opts.metric,
                opts.kernel.horizontal_variant(),
            ),
        }
    }

    /// Intra-query parallelism over contiguous bucket ranges. For the
    /// exact Bond bound this is bit-identical to the sequential search:
    /// every true top-k candidate survives to full accumulation in any
    /// split (the partial distance can never exceed a threshold that is
    /// itself ≥ the final k-th distance), segments accumulate in a
    /// fixed order, and the canonical merge retains the same set.
    fn search_parallel(&self, query: &[f32], opts: &SearchOptions) -> Vec<Neighbor> {
        let t0 = opts.trace.then(Instant::now);
        let nprobe = opts.resolve_nprobe(self.buckets.len());
        let pool = ThreadPool::new(opts.threads);
        let out = match opts.pruner {
            PrunerKind::Bond(order) => {
                let bond = PdxBond::new(opts.metric, order);
                let q = bond.prepare_query(query);
                let probes = self.probe_order(
                    bond.query_vector(&q),
                    nprobe,
                    opts.metric,
                    opts.kernel.horizontal_variant(),
                );
                let buckets: Vec<&HorizontalBucket> =
                    probes.iter().map(|&b| &self.buckets[b as usize]).collect();
                parallel_block_search(&pool, buckets.len(), opts.k, |range| {
                    horizontal_pruned_search_prepared(
                        &bond,
                        &q,
                        &buckets[range],
                        opts.k,
                        self.delta_d,
                        opts.kernel.horizontal_variant(),
                    )
                })
            }
            PrunerKind::Linear => {
                let probes =
                    self.probe_order(query, nprobe, opts.metric, opts.kernel.horizontal_variant());
                let buckets: Vec<&HorizontalBucket> =
                    probes.iter().map(|&b| &self.buckets[b as usize]).collect();
                parallel_block_search(&pool, buckets.len(), opts.k, |range| {
                    horizontal_linear_scan(
                        &buckets[range],
                        query,
                        opts.k,
                        opts.metric,
                        opts.kernel.horizontal_variant(),
                    )
                })
            }
        };
        if let Some(t0) = t0 {
            pdx_core::publish_trace(&pdx_core::total_only_trace(
                "ivf-horizontal",
                t0.elapsed().as_nanos() as u64,
            ));
        }
        out
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

    /// Two-phase query (quantized scan keeping `refine · k` candidates,
    /// exact rerank). A scan-only deployment (no rerank payload) returns
    /// the top-`k` quantized estimates instead. The quantized scan has
    /// no profiled variant, so a traced call records wall time plus the
    /// rerank candidate count.
    fn search(&self, query: &[f32], opts: &SearchOptions) -> Vec<Neighbor> {
        let t0 = opts.trace.then(Instant::now);
        let blocks: Vec<&Sq8Block> = self.blocks.iter().collect();
        let out = if self.rows.is_empty() {
            let q = self.quantizer.prepare_query(opts.metric, query);
            sq8_search_policy(&q, &blocks, opts.k, opts.step, opts.kernel)
        } else {
            sq8_two_phase_policy(
                &self.quantizer,
                &blocks,
                &self.rows,
                self.dims,
                opts.metric,
                query,
                opts.k,
                opts.refine,
                opts.step,
                opts.kernel,
            )
        };
        if let Some(t0) = t0 {
            let mut trace = pdx_core::total_only_trace(self.kind(), t0.elapsed().as_nanos() as u64);
            if !self.rows.is_empty() {
                trace.rerank_candidates = sq8_rerank_candidates(opts, self.total_vectors());
            }
            pdx_core::publish_trace(&trace);
        }
        out
    }

    /// Overridden to hoist the block-reference gathering out of the
    /// per-query loop; results stay bit-identical to a sequential loop
    /// of [`VectorIndex::search`]. A traced batch takes the per-query
    /// path so every query publishes its own trace.
    fn search_batch(&self, queries: &[f32], opts: &SearchOptions) -> Vec<Vec<Neighbor>> {
        if opts.trace {
            return BatchSearcher::new(opts.threads)
                .run(queries, self.dims, |q| VectorIndex::search(self, q, opts));
        }
        let blocks: Vec<&Sq8Block> = self.blocks.iter().collect();
        let searcher = BatchSearcher::new(opts.threads);
        if self.rows.is_empty() {
            searcher.run(queries, self.dims, |q| {
                let pq = self.quantizer.prepare_query(opts.metric, q);
                sq8_search_policy(&pq, &blocks, opts.k, opts.step, opts.kernel)
            })
        } else {
            searcher.run(queries, self.dims, |q| {
                sq8_two_phase_policy(
                    &self.quantizer,
                    &blocks,
                    &self.rows,
                    self.dims,
                    opts.metric,
                    q,
                    opts.k,
                    opts.refine,
                    opts.step,
                    opts.kernel,
                )
            })
        }
    }

    fn search_parallel(&self, query: &[f32], opts: &SearchOptions) -> Vec<Neighbor> {
        let t0 = opts.trace.then(Instant::now);
        let blocks: Vec<&Sq8Block> = self.blocks.iter().collect();
        let pool = ThreadPool::new(opts.threads);
        let q = self.quantizer.prepare_query(opts.metric, query);
        let out = if self.rows.is_empty() {
            parallel_block_search(&pool, blocks.len(), opts.k, |range| {
                sq8_search_policy(&q, &blocks[range], opts.k, opts.step, opts.kernel)
            })
        } else {
            let c = opts.k * opts.refine.max(1);
            let candidates = parallel_block_search(&pool, blocks.len(), c, |range| {
                sq8_search_policy(&q, &blocks[range], c, opts.step, opts.kernel)
            });
            sq8_rerank(
                opts.metric,
                &self.rows,
                self.dims,
                query,
                &candidates,
                opts.k,
            )
        };
        if let Some(t0) = t0 {
            let mut trace = pdx_core::total_only_trace(self.kind(), t0.elapsed().as_nanos() as u64);
            if !self.rows.is_empty() {
                trace.rerank_candidates = sq8_rerank_candidates(opts, self.total_vectors());
            }
            pdx_core::publish_trace(&trace);
        }
        out
    }

    fn resident_bytes(&self) -> u64 {
        self.blocks.iter().map(sq8_block_bytes).sum::<u64>() + (self.rows.len() * 4) as u64
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

    /// Two-phase query over the `nprobe` nearest buckets. Traced calls
    /// record wall time, the probed block count and the rerank
    /// candidate count (the quantized scan has no profiled variant).
    fn search(&self, query: &[f32], opts: &SearchOptions) -> Vec<Neighbor> {
        let t0 = opts.trace.then(Instant::now);
        let nprobe = opts.resolve_nprobe(self.blocks.len());
        let order = self.probe_order(query, nprobe, opts.metric);
        let blocks: Vec<&Sq8Block> = order.iter().map(|&b| &self.blocks[b as usize]).collect();
        let probed: u64 = blocks.len() as u64;
        let probed_vectors: u64 = blocks.iter().map(|b| b.len() as u64).sum();
        let out = sq8_two_phase_policy(
            &self.quantizer,
            &blocks,
            &self.rows,
            self.dims,
            opts.metric,
            query,
            opts.k,
            opts.refine,
            opts.step,
            opts.kernel,
        );
        if let Some(t0) = t0 {
            let mut trace = pdx_core::total_only_trace("ivf-sq8", t0.elapsed().as_nanos() as u64);
            trace.blocks_visited = probed;
            trace.vectors_visited = probed_vectors;
            trace.rerank_candidates = sq8_rerank_candidates(opts, probed_vectors as usize);
            pdx_core::publish_trace(&trace);
        }
        out
    }

    /// Probes once, splits the quantized scan into per-worker bucket
    /// ranges, merges the candidate sets canonically and reranks —
    /// bit-identical to the sequential two-phase search at any width.
    fn search_parallel(&self, query: &[f32], opts: &SearchOptions) -> Vec<Neighbor> {
        let t0 = opts.trace.then(Instant::now);
        let nprobe = opts.resolve_nprobe(self.blocks.len());
        let order = self.probe_order(query, nprobe, opts.metric);
        let blocks: Vec<&Sq8Block> = order.iter().map(|&b| &self.blocks[b as usize]).collect();
        let pool = ThreadPool::new(opts.threads);
        let q = self.quantizer.prepare_query(opts.metric, query);
        let c = opts.k * opts.refine.max(1);
        let candidates = parallel_block_search(&pool, blocks.len(), c, |range| {
            sq8_search_policy(&q, &blocks[range], c, opts.step, opts.kernel)
        });
        let out = sq8_rerank(
            opts.metric,
            &self.rows,
            self.dims,
            query,
            &candidates,
            opts.k,
        );
        if let Some(t0) = t0 {
            let probed_vectors: u64 = blocks.iter().map(|b| b.len() as u64).sum();
            let mut trace = pdx_core::total_only_trace("ivf-sq8", t0.elapsed().as_nanos() as u64);
            trace.blocks_visited = blocks.len() as u64;
            trace.vectors_visited = probed_vectors;
            trace.rerank_candidates = sq8_rerank_candidates(opts, probed_vectors as usize);
            pdx_core::publish_trace(&trace);
        }
        out
    }

    fn resident_bytes(&self) -> u64 {
        search_block_bytes(&self.centroids)
            + self.blocks.iter().map(sq8_block_bytes).sum::<u64>()
            + (self.rows.len() * 4) as u64
    }
}

impl VectorIndex for Hnsw {
    fn dims(&self) -> usize {
        Hnsw::dims(self)
    }

    fn len(&self) -> usize {
        Hnsw::len(self)
    }

    fn kind(&self) -> &'static str {
        "hnsw"
    }

    /// Beam search with width [`SearchOptions::resolve_ef`]. The graph
    /// is built for L2; the metric option is ignored. Batch and
    /// parallel queries use the trait defaults (graph traversal is not
    /// block-splittable): batches shard across the pool one query per
    /// work item, `search_parallel` is the sequential search.
    fn search(&self, query: &[f32], opts: &SearchOptions) -> Vec<Neighbor> {
        let t0 = opts.trace.then(Instant::now);
        let out = Hnsw::search(self, query, opts.k, opts.resolve_ef());
        if let Some(t0) = t0 {
            pdx_core::publish_trace(&pdx_core::total_only_trace(
                "hnsw",
                t0.elapsed().as_nanos() as u64,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ivf::IvfIndex;
    use pdx_core::distance::Metric;
    use pdx_core::search::SearchParams;
    use pdx_core::visit_order::VisitOrder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_rows(n: usize, d: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n * d).map(|_| rng.random::<f32>() * 10.0).collect()
    }

    #[test]
    fn trait_search_matches_inherent_defaults() {
        let (n, d, k) = (600, 10, 7);
        let rows = random_rows(n, d, 1);
        let q = random_rows(1, d, 2);
        let opts = SearchOptions::new(k);

        let flat = FlatPdx::new(&rows, n, d, 200, 32);
        let bond = PdxBond::new(Metric::L2, VisitOrder::DistanceToMeans);
        let want = FlatPdx::search(&flat, &bond, &q, &SearchParams::new(k));
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
            dyn_flat.search_parallel(&q, &opts.with_threads(3)),
            flat.linear_search(&q, k, Metric::L2)
        );
    }

    #[test]
    fn all_six_deployments_box_and_agree_on_top1() {
        let (n, d) = (500, 8);
        let rows = random_rows(n, d, 7);
        let q = random_rows(1, d, 8);
        let index = IvfIndex::build(&rows, n, d, 10, 8, 5);

        let deployments: Vec<Box<dyn VectorIndex>> = vec![
            Box::new(FlatPdx::new(&rows, n, d, 128, 16)),
            Box::new(IvfPdx::new(&rows, d, &index.assignments, 16)),
            Box::new(IvfHorizontal::new(&rows, d, &index.assignments, 4)),
            Box::new(FlatSq8::build(&rows, n, d, 128, 16)),
            Box::new(IvfSq8::new(&rows, d, &index.assignments, 16)),
            Box::new(Hnsw::build(&rows, n, d, crate::HnswParams::default(), 9)),
        ];
        let exact = FlatPdx::new(&rows, n, d, n, 16).linear_search(&q, 1, Metric::L2);
        let opts = SearchOptions::new(3);
        for dep in &deployments {
            let got = dep.search(&q, &opts);
            assert_eq!(got.len(), 3, "{}", dep.kind());
            assert_eq!(got[0].id, exact[0].id, "{} top-1", dep.kind());
            assert_eq!(dep.len(), n, "{}", dep.kind());
        }
    }
}
