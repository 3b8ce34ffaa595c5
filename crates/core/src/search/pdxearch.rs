//! The PDXearch framework (§4): adaptive, dimension-by-dimension pruned
//! search over PDX blocks.
//!
//! A query walks the blocks in caller-decided order (IVF: by centroid
//! distance; exact search: storage order), and each block one
//! [`Tile`] — at most [`THRESHOLD_TILE`](crate::pruning::THRESHOLD_TILE)
//! vectors in whole groups — at a time. The tile is the unit of control
//! flow: it picks its phase, reads the k-NN threshold at its checkpoints
//! and offers its survivors to the heap when it ends, so a long block
//! prunes against a threshold that tightens as the scan moves through
//! it. What describes the block stays per block: the dimension visit
//! order, the statistics behind it and the aux rows. The phases:
//!
//! * **START** — while the heap holds fewer than `k` candidates there is
//!   no threshold, so the tile is scanned linearly (all dimensions, all
//!   vectors). In practice this is just the first tile.
//! * **WARMUP** — partial distances are accumulated for *all* vectors of
//!   the tile at exponentially growing dimension steps, one dense-kernel
//!   call per step for the whole tile; after each step the pruning bound
//!   is evaluated in a separate branch-free pass, a register of lanes a
//!   compare, that writes one survival bit per vector and counts them
//!   (computing distances for pruned vectors is still cheaper than
//!   random access while many survive).
//! * **PRUNE** — once the surviving fraction drops below the selection
//!   threshold (default 20 %, Figure 10), the set bits are walked into
//!   compacted survivor positions and further distance accumulation
//!   touches only them, one survivor-kernel call per step for the whole
//!   tile.
//!
//! The framework preserves the underlying pruner's guarantees: it never
//! drops a vector the pruner would have kept, it only chooses *when*
//! bounds are evaluated and *which* vectors still get distance work.
//!
//! A caller may hand the scan a [`RowMask`] of dead rows (a collection's
//! tombstones). Each tile looks its rows up once: masked lanes are never
//! offered to the heap, and after a bound pass they give up their
//! survival bits — so they are not counted as survivors and not compacted
//! into PRUNE's positions — in whichever phase the tile runs — so `k` stays
//! `k`, the threshold is that of the k-th *live* neighbour, and the
//! answer is the one the same blocks would give with those rows absent.

use super::{lap, timer};
use crate::collection::SearchBlock;
use crate::engine::SearchOptions;
use crate::heap::{KnnHeap, Neighbor};
use crate::kernels::dispatch::KernelPolicy;
use crate::kernels::pdx::{pdx_accumulate_groups, pdx_accumulate_survivors, survival_bits, DimSel};
use crate::mask::RowMask;
use crate::pruning::{checkpoints, tiles, BlockAux, Pruner, Tile};
use crate::stats::BlockStats;
use pdx_obs::QueryTrace;
use std::ops::{Deref, Range};

/// One element type PDXearch can scan: a block of vectors stored
/// dimension-major in groups, plus the two kernels that accumulate over
/// it and the step from an accumulated partial to a distance.
///
/// The scan itself — tiles, phases, checkpoints, survivor compaction —
/// is written once against this trait and monomorphized per element, so
/// a new element (a narrower code, a head/tail split) is one impl, not
/// another copy of the loop. The tile is the unit of both kernels: each
/// is entered once per tile-checkpoint, never per group or per lane. The
/// bound stays with the [`Pruner`] (`slack` / `limit`, evaluated by the
/// kernels' bound pass, [`survival_bits`]); the
/// trait is parameterized by it because the kernels read the pruner's
/// query state (`f32` blocks take its query vector, SQ8 blocks the
/// prepared code-space query).
pub trait ScanBlock<P: Pruner> {
    /// Number of vectors in the block.
    fn len(&self) -> usize;

    /// Whether the block is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dimensionality of the vectors.
    fn dims(&self) -> usize;

    /// Vectors per group (the last group may hold fewer).
    fn group_size(&self) -> usize;

    /// Global id of each vector, in block order.
    fn row_ids(&self) -> &[u64];

    /// Per-dimension statistics for a query-aware visit order.
    fn stats(&self) -> Option<&BlockStats> {
        None
    }

    /// Per-vector, per-checkpoint pruner data ([`Pruner::NEEDS_AUX`]).
    fn aux(&self) -> Option<&BlockAux> {
        None
    }

    /// Dense accumulate: adds the dimensions `dims` of every vector of
    /// the groups `groups` — a tile's — into `acc`, one accumulator per
    /// vector in block order. One call per tile-checkpoint: the kernel
    /// checks its arguments and enters its SIMD nest once, whatever the
    /// number of groups.
    fn accumulate(
        &self,
        pruner: &P,
        q: &P::Query,
        groups: Range<usize>,
        dims: DimSel<'_>,
        acc: &mut [f32],
        kernel: KernelPolicy,
    );

    /// Survivor accumulate: adds the dimensions `dims` of the vectors at
    /// the block-relative `positions` into the compacted `acc`.
    fn accumulate_survivors(
        &self,
        pruner: &P,
        q: &P::Query,
        dims: DimSel<'_>,
        positions: &[u32],
        acc: &mut [f32],
        kernel: KernelPolicy,
    );

    /// The distance a fully accumulated `partial` stands for.
    fn finish(q: &P::Query, partial: f32) -> f32;
}

impl<P: Pruner> ScanBlock<P> for SearchBlock {
    fn len(&self) -> usize {
        self.pdx.len()
    }

    fn dims(&self) -> usize {
        self.pdx.dims()
    }

    fn group_size(&self) -> usize {
        self.pdx.group_size()
    }

    fn row_ids(&self) -> &[u64] {
        &self.row_ids
    }

    fn stats(&self) -> Option<&BlockStats> {
        Some(&self.stats)
    }

    fn aux(&self) -> Option<&BlockAux> {
        self.aux.as_ref()
    }

    #[inline]
    fn accumulate(
        &self,
        pruner: &P,
        q: &P::Query,
        groups: Range<usize>,
        dims: DimSel<'_>,
        acc: &mut [f32],
        kernel: KernelPolicy,
    ) {
        let (metric, qvec) = (pruner.metric(), pruner.query_vector(q));
        pdx_accumulate_groups(metric, &self.pdx, groups, qvec, dims, acc, kernel)
    }

    #[inline]
    fn accumulate_survivors(
        &self,
        pruner: &P,
        q: &P::Query,
        dims: DimSel<'_>,
        positions: &[u32],
        acc: &mut [f32],
        kernel: KernelPolicy,
    ) {
        let (metric, qvec) = (pruner.metric(), pruner.query_vector(q));
        pdx_accumulate_survivors(metric, &self.pdx, qvec, dims, positions, acc, kernel)
    }

    #[inline(always)]
    fn finish(_q: &P::Query, partial: f32) -> f32 {
        partial
    }
}

/// Runs PDXearch for the prepared query `q` over `blocks` in the given
/// order and returns the `opts.k` nearest, ascending: a band of one
/// through [`pdxearch_band`].
///
/// `blocks` is anything that yields block handles: a slice of blocks, a
/// probe-ordered list of references, or a stream of `Arc` pins that an
/// out-of-core deployment fetches as the scan reaches them (each item is
/// dropped as soon as its block is scanned). The scan reads `k`,
/// `selection_fraction`, `step` and `kernel` from `opts`. Rows whose id
/// is in `dead` are skipped; `None` and an empty mask are the same scan.
///
/// With `trace`, per-phase timings and work counters (Table 7) are
/// accumulated into it by a separate monomorphization, so the unprofiled
/// path pays no timer cost; results are bit-identical either way.
///
/// # Panics
/// Panics if the query's dimensionality differs from a block's or if
/// `opts.k == 0`.
pub fn pdxearch<P, B, I>(
    pruner: &P,
    q: &P::Query,
    blocks: I,
    opts: &SearchOptions,
    dead: Option<&RowMask>,
    trace: Option<&mut QueryTrace>,
) -> Vec<Neighbor>
where
    P: Pruner,
    B: ScanBlock<P>,
    I: IntoIterator,
    I::Item: Deref<Target = B>,
{
    let band = std::slice::from_ref(q);
    let mut answers = pdxearch_band(pruner, band, blocks, opts, dead, trace);
    answers.pop().expect("one answer list per query")
}

/// [`pdxearch`] for a *band* of prepared queries that visit the same
/// `blocks` in the same order: one answer list per query, in band order.
///
/// The scan runs tile-major — every query of the band scans a tile
/// before the next tile is touched, so a tile is loaded from memory once
/// a band instead of once a query. Each query keeps its own heap, its
/// own per-block dimension order and its own phase choice, and meets the
/// tiles in the order a scan of its own would: its accumulation order,
/// its thresholds and so every id and distance bit are those of
/// [`pdxearch`] on that query alone, for approximate pruners too. A
/// `trace` accumulates the whole band's phases and counters.
///
/// # Panics
/// Panics if a query's dimensionality differs from a block's or if
/// `opts.k == 0`.
pub fn pdxearch_band<P, B, I>(
    pruner: &P,
    band: &[P::Query],
    blocks: I,
    opts: &SearchOptions,
    dead: Option<&RowMask>,
    trace: Option<&mut QueryTrace>,
) -> Vec<Vec<Neighbor>>
where
    P: Pruner,
    B: ScanBlock<P>,
    I: IntoIterator,
    I::Item: Deref<Target = B>,
{
    let dead = dead.filter(|mask| !mask.is_empty());
    match trace {
        Some(trace) => run::<P, B, I, true>(pruner, band, blocks, opts, dead, trace),
        None => run::<P, B, I, false>(pruner, band, blocks, opts, dead, &mut QueryTrace::default()),
    }
}

/// Reusable buffers of one scan, shared by the queries of its band.
#[derive(Default)]
struct Scratch {
    /// WARMUP partial distances, one per tile vector.
    partials: Vec<f32>,
    /// PRUNE-phase survivor positions (block-relative).
    positions: Vec<u32>,
    /// PRUNE-phase compacted partial distances (parallel to positions).
    compact: Vec<f32>,
    /// The tile's masked lanes (tile-relative, ascending).
    dead: Vec<u32>,
    /// WARMUP survival bits of the last bound pass, one per tile vector.
    bits: Vec<u64>,
    /// The visit-order sort's keys, one per dimension.
    keys: Vec<u64>,
}

/// Collects the lanes of a tile with row ids `ids` that `mask` holds. A
/// tile whose id span holds no masked row pays the span check alone.
fn dead_lanes(mask: &RowMask, ids: &[u64], lanes: &mut Vec<u32>) {
    let span = ids
        .iter()
        .fold((u64::MAX, 0), |(lo, hi), &id| (lo.min(id), hi.max(id)));
    if mask.any_in(span.0..=span.1) {
        lanes.extend((0..ids.len() as u32).filter(|&l| mask.contains(ids[l as usize])));
    }
}

fn run<P, B, I, const PROFILE: bool>(
    pruner: &P,
    band: &[P::Query],
    blocks: I,
    opts: &SearchOptions,
    dead: Option<&RowMask>,
    trace: &mut QueryTrace,
) -> Vec<Vec<Neighbor>>
where
    P: Pruner,
    B: ScanBlock<P>,
    I: IntoIterator,
    I::Item: Deref<Target = B>,
{
    assert!(opts.k > 0, "k must be positive");
    if band.is_empty() {
        return Vec::new();
    }
    let prunes = pruner.prunes();
    // Per query: the heap and, block by block, the dimension order.
    // Shared by the band: the scratch, the checkpoint schedule and the
    // tile's masked lanes.
    let mut heaps: Vec<KnnHeap> = band.iter().map(|_| KnnHeap::new(opts.k)).collect();
    let mut perms: Vec<Vec<u32>> = band.iter().map(|_| Vec::new()).collect();
    let mut scratch = Scratch::default();
    let mut ckpts: Vec<usize> = Vec::new();
    let mut ckpt_dims = usize::MAX;

    for block in blocks {
        let block = &*block;
        if block.is_empty() {
            continue;
        }
        let dims = block.dims();
        if PROFILE {
            // Work counters for the pruning-effectiveness ratio:
            // `dims_total` is what a full scan of the visited blocks
            // would read; the scan functions below add what was read.
            trace.blocks_visited += band.len() as u64;
            trace.vectors_visited += (band.len() * block.len()) as u64;
            trace.dims_total += (band.len() * block.len() * dims) as u64;
        }
        // The per-block dimension visit order is applied in *every*
        // phase — including the START linear scan — so a vector's
        // accumulated distance is a pure function of its block, not of
        // which phase happened to scan it. This is what lets a
        // block-range split (crate::exec) reproduce the sequential
        // distances bit-for-bit: each worker's leading tile runs START
        // while sequentially it would have run WARMUP/PRUNE, but the
        // accumulation order (and hence the f32 rounding) is identical.
        let t1 = timer::<PROFILE>();
        for (q, perm) in band.iter().zip(&mut perms) {
            let qdims = pruner.query_vector(q).len();
            assert_eq!(qdims, dims, "query dimensionality mismatch");
            pruner.dim_order(q, block.stats(), opts.kernel, &mut scratch.keys, perm);
        }
        lap(&mut trace.preprocess_ns, t1);
        if ckpt_dims != dims {
            ckpts = checkpoints(opts.step, dims);
            ckpt_dims = dims;
        }
        // START — and the whole scan of a pruner that never prunes — is
        // the pruned scan with one checkpoint at `dims`: no threshold is
        // consulted, so no bound is evaluated before the end.
        let start = [dims];
        for tile in tiles(block.len(), block.group_size()) {
            scratch.dead.clear();
            if let Some(mask) = dead {
                let ids = &block.row_ids()[tile.vectors.clone()];
                dead_lanes(mask, ids, &mut scratch.dead);
                if scratch.dead.len() == ids.len() {
                    continue;
                }
            }
            // Tile-major: the whole band scans the tile while it is in
            // cache. A query's own scan would meet the same tiles in the
            // same order against the same heap, so it sees no difference.
            for ((q, heap), perm) in band.iter().zip(&mut heaps).zip(&perms) {
                let schedule = if !prunes || heap.len() < opts.k {
                    &start[..]
                } else {
                    &ckpts[..]
                };
                scan_tile::<P, B, PROFILE>(
                    pruner,
                    q,
                    block,
                    &tile,
                    (!perm.is_empty()).then_some(&perm[..]),
                    schedule,
                    opts,
                    heap,
                    &mut scratch,
                    trace,
                );
            }
        }
    }
    heaps.into_iter().map(KnnHeap::into_sorted).collect()
}

/// Scans one tile of `block`: WARMUP over `ckpts` until few enough
/// vectors survive, then PRUNE; whoever reaches the last checkpoint
/// (which is always `dims`) is offered to the heap. Accumulates in the
/// block's permuted dimension order when the pruner has one. The lanes
/// in `scratch.dead` take part in WARMUP's dense accumulation and in
/// nothing else.
#[allow(clippy::too_many_arguments)]
fn scan_tile<P: Pruner, B: ScanBlock<P>, const PROFILE: bool>(
    pruner: &P,
    q: &P::Query,
    block: &B,
    tile: &Tile,
    perm: Option<&[u32]>,
    ckpts: &[usize],
    opts: &SearchOptions,
    heap: &mut KnnHeap,
    scratch: &mut Scratch,
    trace: &mut QueryTrace,
) {
    let dims = block.dims();
    let v0 = tile.vectors.start;
    let n = tile.vectors.len();
    let sel_limit = ((n as f32) * opts.selection_fraction).ceil() as usize;

    scratch.partials.clear();
    scratch.partials.resize(n, 0.0);
    let mut scanned = 0usize;
    let mut pruning = false;

    for &ck in ckpts {
        let sel = match perm {
            None => DimSel::Range(scanned..ck),
            Some(p) => DimSel::Ids(&p[scanned..ck]),
        };
        if !pruning {
            // WARMUP: distance work for every vector.
            let t0 = timer::<PROFILE>();
            let (groups, partials) = (tile.groups.clone(), &mut scratch.partials);
            block.accumulate(pruner, q, groups, sel, partials, opts.kernel);
            lap(&mut trace.distance_ns, t0);
            if PROFILE {
                trace.dims_scanned += ((ck - scanned) * n) as u64;
            }
            scanned = ck;
            if scanned == dims {
                let t1 = timer::<PROFILE>();
                let ids = &block.row_ids()[tile.vectors.clone()];
                let mut dead = scratch.dead.iter().peekable();
                for (i, (&id, &d)) in ids.iter().zip(&scratch.partials).enumerate() {
                    if dead.next_if(|&&l| l as usize == i).is_none() {
                        heap.push(id, B::finish(q, d));
                    }
                }
                lap(&mut trace.distance_ns, t1);
                return;
            }
            // Bound evaluation: one branch-free pass writes the tile's
            // survival bits and counts them; the masked lanes — the few,
            // not the many — then give theirs up.
            let t2 = timer::<PROFILE>();
            let cp = pruner.checkpoint(q, scanned, dims, heap.threshold());
            let aux_row = aux_row::<P, B>(block, scanned).map(|row| &row[tile.vectors.clone()]);
            let (partials, bits) = (&scratch.partials, &mut scratch.bits);
            let mut survivors = survival_bits::<P>(&cp, partials, aux_row, bits, opts.kernel);
            for &l in &scratch.dead {
                let (word, bit) = (&mut bits[l as usize / 64], 1u64 << (l % 64));
                survivors -= usize::from(*word & bit != 0);
                *word &= !bit;
            }
            if survivors <= sel_limit {
                // Switch to PRUNE: walk the set bits into survivor
                // positions + partials, ascending.
                scratch.positions.clear();
                scratch.compact.clear();
                for (w, &word) in bits.iter().enumerate() {
                    let mut left = word;
                    while left != 0 {
                        let i = 64 * w + left.trailing_zeros() as usize;
                        scratch.positions.push((v0 + i) as u32);
                        scratch.compact.push(partials[i]);
                        left &= left - 1;
                    }
                }
                pruning = true;
            }
            lap(&mut trace.bounds_ns, t2);
            if pruning && scratch.positions.is_empty() {
                return;
            }
        } else {
            // PRUNE: distance work only at survivor positions.
            let t0 = timer::<PROFILE>();
            let (positions, compact) = (&scratch.positions, &mut scratch.compact);
            block.accumulate_survivors(pruner, q, sel, positions, compact, opts.kernel);
            lap(&mut trace.distance_ns, t0);
            if PROFILE {
                trace.dims_scanned += ((ck - scanned) * scratch.positions.len()) as u64;
            }
            scanned = ck;
            if scanned == dims {
                let t1 = timer::<PROFILE>();
                for (&pos, &d) in scratch.positions.iter().zip(&scratch.compact) {
                    heap.push(block.row_ids()[pos as usize], B::finish(q, d));
                }
                lap(&mut trace.distance_ns, t1);
                return;
            }
            let t2 = timer::<PROFILE>();
            let cp = pruner.checkpoint(q, scanned, dims, heap.threshold());
            let aux_row = aux_row::<P, B>(block, scanned);
            let mut w = 0usize;
            for j in 0..scratch.positions.len() {
                let pos = scratch.positions[j];
                let a = aux_row.map_or(0.0, |r| r[pos as usize]);
                let keep = P::survives(&cp, scratch.compact[j], a);
                scratch.positions[w] = pos;
                scratch.compact[w] = scratch.compact[j];
                w += keep as usize;
            }
            scratch.positions.truncate(w);
            scratch.compact.truncate(w);
            lap(&mut trace.bounds_ns, t2);
            if scratch.positions.is_empty() {
                return;
            }
        }
    }
}

/// The block-long aux row for a checkpoint, when the pruner consumes one.
#[inline]
fn aux_row<P: Pruner, B: ScanBlock<P>>(block: &B, scanned: usize) -> Option<&[f32]> {
    if !P::NEEDS_AUX {
        return None;
    }
    let aux = block
        .aux()
        .expect("pruner requires per-block aux data, but the block has none");
    let ci = aux.index_of(scanned).unwrap_or_else(|| {
        panic!("no aux checkpoint for dims_scanned = {scanned}; was the block preprocessed with the same step policy?")
    });
    Some(aux.row(ci))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bond::PdxBond;
    use crate::collection::PdxCollection;
    use crate::distance::{distance_scalar, Metric};
    use crate::kernels::lanes::Lane;
    use crate::kernels::sq8_scan;
    use crate::layout::Sq8Quantizer;
    use crate::pruning::{StepPolicy, DEFAULT_SELECTION_FRACTION};
    use crate::search::quantized::{Sq8Block, Sq8Bound};
    use crate::visit_order::VisitOrder;

    /// Prepares `query` and searches `blocks` unprofiled.
    fn search<P: Pruner>(
        pruner: &P,
        blocks: &[&SearchBlock],
        query: &[f32],
        opts: &SearchOptions,
    ) -> Vec<Neighbor> {
        let q = pruner.prepare_query(query);
        pdxearch(pruner, &q, blocks.iter().copied(), opts, None, None)
    }

    fn make_rows(n: usize, d: usize, seed: u64) -> Vec<f32> {
        // Deterministic pseudo-random data without pulling rand into the
        // unit test (integration tests use rand).
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        (0..n * d)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state >> 11) as f64 / (1u64 << 53) as f64) as f32 * 4.0 - 2.0
            })
            .collect()
    }

    fn brute_force(rows: &[f32], d: usize, q: &[f32], k: usize, metric: Metric) -> Vec<Neighbor> {
        let mut heap = KnnHeap::new(k);
        for (i, row) in rows.chunks_exact(d).enumerate() {
            heap.push(i as u64, distance_scalar(metric, q, row));
        }
        heap.into_sorted()
    }

    fn ids(r: &[Neighbor]) -> Vec<u64> {
        r.iter().map(|n| n.id).collect()
    }

    #[test]
    fn bond_sequential_equals_brute_force() {
        let (n, d, k) = (500, 24, 10);
        let rows = make_rows(n, d, 3);
        let coll = PdxCollection::from_rows_partitioned(&rows, n, d, 100, 64);
        let blocks: Vec<&SearchBlock> = coll.blocks.iter().collect();
        let bond = PdxBond::new(Metric::L2, VisitOrder::Sequential);
        let q = &rows[7 * d..8 * d].to_vec(); // a query near vector 7
        let got = search(&bond, &blocks, q, &SearchOptions::new(k));
        let want = brute_force(&rows, d, q, k, Metric::L2);
        assert_eq!(ids(&got), ids(&want));
    }

    #[test]
    fn bond_all_visit_orders_are_exact() {
        let (n, d, k) = (400, 32, 5);
        let rows = make_rows(n, d, 11);
        let coll = PdxCollection::from_rows_partitioned(&rows, n, d, 64, 16);
        let blocks: Vec<&SearchBlock> = coll.blocks.iter().collect();
        let q = make_rows(1, d, 99);
        let want = brute_force(&rows, d, &q, k, Metric::L2);
        for order in [
            VisitOrder::Sequential,
            VisitOrder::Decreasing,
            VisitOrder::DistanceToMeans,
            VisitOrder::DimensionZones { zone_size: 8 },
        ] {
            let bond = PdxBond::new(Metric::L2, order);
            let got = search(&bond, &blocks, &q, &SearchOptions::new(k));
            assert_eq!(ids(&got), ids(&want), "order {order:?}");
        }
    }

    #[test]
    fn bond_l1_is_exact() {
        let (n, d, k) = (300, 16, 7);
        let rows = make_rows(n, d, 21);
        let coll = PdxCollection::from_rows_partitioned(&rows, n, d, 50, 64);
        let blocks: Vec<&SearchBlock> = coll.blocks.iter().collect();
        let q = make_rows(1, d, 5);
        let bond = PdxBond::new(Metric::L1, VisitOrder::DistanceToMeans);
        let got = search(&bond, &blocks, &q, &SearchOptions::new(k));
        let want = brute_force(&rows, d, &q, k, Metric::L1);
        assert_eq!(ids(&got), ids(&want));
    }

    #[test]
    fn fixed_step_policy_is_exact_too() {
        let (n, d, k) = (256, 40, 3);
        let rows = make_rows(n, d, 8);
        let coll = PdxCollection::from_rows_partitioned(&rows, n, d, 64, 64);
        let blocks: Vec<&SearchBlock> = coll.blocks.iter().collect();
        let q = make_rows(1, d, 77);
        let bond = PdxBond::new(Metric::L2, VisitOrder::Sequential);
        let opts = SearchOptions::new(k).with_step(StepPolicy::Fixed { step: 10 });
        let got = search(&bond, &blocks, &q, &opts);
        let want = brute_force(&rows, d, &q, k, Metric::L2);
        assert_eq!(ids(&got), ids(&want));
    }

    #[test]
    fn extreme_selection_fractions_are_exact() {
        let (n, d, k) = (300, 20, 9);
        let rows = make_rows(n, d, 15);
        let coll = PdxCollection::from_rows_partitioned(&rows, n, d, 75, 32);
        let blocks: Vec<&SearchBlock> = coll.blocks.iter().collect();
        let q = make_rows(1, d, 1);
        let want = brute_force(&rows, d, &q, k, Metric::L2);
        // The SQ8 element reads the same knob: at every fraction its scan
        // returns the linear scan of the estimates, bits included.
        let qz = Sq8Quantizer::fit(&rows, n, d);
        let ids_all: Vec<u64> = (0..n as u64).collect();
        let sq8 = Sq8Block::new(&rows, ids_all.clone(), d, 32, &qz);
        let bound = Sq8Bound::new(&qz, Metric::L2);
        let sq8_q = bound.prepare_query(&q);
        let mut estimates = vec![0.0; n];
        sq8_scan(
            &qz.prepare_query(Metric::L2, &q),
            &sq8.codes,
            &mut estimates,
        );
        let mut heap = KnnHeap::new(k);
        for (&id, &e) in ids_all.iter().zip(&estimates) {
            heap.push(id, e);
        }
        let want_sq8 = heap.into_sorted();
        for frac in [0.0f32, 0.01, 0.5, 1.0] {
            let bond = PdxBond::new(Metric::L2, VisitOrder::Sequential);
            let opts = SearchOptions::new(k).with_selection_fraction(frac);
            let got = search(&bond, &blocks, &q, &opts);
            assert_eq!(ids(&got), ids(&want), "selection fraction {frac}");
            let got = pdxearch(&bound, &sq8_q, [&sq8], &opts, None, None);
            assert_eq!(bits(&got), bits(&want_sq8), "SQ8 selection fraction {frac}");
        }
    }

    #[test]
    fn k_larger_than_collection_returns_everything() {
        let (n, d) = (12, 6);
        let rows = make_rows(n, d, 2);
        let coll = PdxCollection::from_rows_partitioned(&rows, n, d, 5, 4);
        let blocks: Vec<&SearchBlock> = coll.blocks.iter().collect();
        let q = make_rows(1, d, 3);
        let bond = PdxBond::new(Metric::L2, VisitOrder::Sequential);
        let got = search(&bond, &blocks, &q, &SearchOptions::new(50));
        assert_eq!(got.len(), n);
    }

    /// The PDX linear scan — PDXearch under the bond that never prunes —
    /// is exact for every metric, inner product included.
    #[test]
    fn pdx_linear_scan_equals_brute_force_for_every_metric() {
        let (n, d, k) = (211, 19, 7);
        let rows: Vec<f32> = (0..n * d)
            .map(|i| ((i * 29 % 83) as f32) * 0.3 - 10.0)
            .collect();
        let coll = PdxCollection::from_rows_partitioned(&rows, n, d, 50, 16);
        let blocks: Vec<&SearchBlock> = coll.blocks.iter().collect();
        let q: Vec<f32> = (0..d).map(|i| (i as f32).sin()).collect();
        for metric in [Metric::L2, Metric::L1, Metric::NegativeIp] {
            let linear = PdxBond::linear(metric);
            let got = search(&linear, &blocks, &q, &SearchOptions::new(k));
            let want = brute_force(&rows, d, &q, k, metric);
            assert_eq!(ids(&got), ids(&want), "{metric:?}");
        }
    }

    #[test]
    fn subset_of_blocks_restricts_candidates() {
        let (n, d) = (40, 5);
        let rows = make_rows(n, d, 8);
        let coll = PdxCollection::from_rows_partitioned(&rows, n, d, 10, 4);
        let blocks: Vec<&SearchBlock> = coll.blocks[..2].iter().collect();
        let linear = PdxBond::linear(Metric::L2);
        let got = search(&linear, &blocks, &vec![0.0; d], &SearchOptions::new(100));
        assert_eq!(got.len(), 20);
        assert!(got.iter().all(|n| n.id < 20));
    }

    #[test]
    fn single_block_collection_works() {
        let (n, d, k) = (80, 10, 4);
        let rows = make_rows(n, d, 31);
        let coll = PdxCollection::from_rows_partitioned(&rows, n, d, 1000, 64);
        let blocks: Vec<&SearchBlock> = coll.blocks.iter().collect();
        let q = make_rows(1, d, 4);
        let bond = PdxBond::new(Metric::L2, VisitOrder::Sequential);
        let got = search(&bond, &blocks, &q, &SearchOptions::new(k));
        let want = brute_force(&rows, d, &q, k, Metric::L2);
        assert_eq!(ids(&got), ids(&want));
    }

    #[test]
    fn single_vector_blocks_are_searchable() {
        // Degenerate partitioning: every block holds exactly one vector
        // (and group size 1), so warm-up, pruning and the final merge all
        // run on 1-lane blocks.
        let (n, d, k) = (40, 12, 6);
        let rows = make_rows(n, d, 57);
        let coll = PdxCollection::from_rows_partitioned(&rows, n, d, 1, 1);
        assert_eq!(coll.blocks.len(), n);
        assert!(coll.blocks.iter().all(|b| b.len() == 1));
        let blocks: Vec<&SearchBlock> = coll.blocks.iter().collect();
        let q = make_rows(1, d, 6);
        let bond = PdxBond::new(Metric::L2, VisitOrder::Sequential);
        let got = search(&bond, &blocks, &q, &SearchOptions::new(k));
        let want = brute_force(&rows, d, &q, k, Metric::L2);
        assert_eq!(ids(&got), ids(&want));
    }

    #[test]
    fn duplicated_vectors_tie_cleanly() {
        // Clone one vector many times: the top-k is dominated by exact
        // duplicate distances, and the result must still be the k best by
        // (distance, id) with no duplicates dropped or double-counted.
        let (d, k) = (8, 5);
        let base = make_rows(4, d, 13);
        let mut rows = Vec::new();
        for _ in 0..6 {
            rows.extend_from_slice(&base);
        }
        let n = rows.len() / d;
        let coll = PdxCollection::from_rows_partitioned(&rows, n, d, 7, 4);
        let blocks: Vec<&SearchBlock> = coll.blocks.iter().collect();
        let q = base[..d].to_vec(); // exact match for 6 of the vectors
        let bond = PdxBond::new(Metric::L2, VisitOrder::Sequential);
        let got = search(&bond, &blocks, &q, &SearchOptions::new(k));
        assert_eq!(got.len(), k);
        let want = brute_force(&rows, d, &q, k, Metric::L2);
        let dist = |r: &[Neighbor]| r.iter().map(|x| x.distance).collect::<Vec<_>>();
        assert_eq!(dist(&got), dist(&want));
        assert_eq!(got[0].distance, 0.0);
        let mut seen = ids(&got);
        seen.dedup();
        assert_eq!(seen.len(), k, "duplicate ids in result");
    }

    /// Eight well-separated clusters, vector `i` in cluster `i % 8`: a
    /// query inside one of them prunes the other seven within a few
    /// dimensions, so every tile past START reaches the PRUNE phase.
    fn make_clustered(n: usize, d: usize, seed: u64) -> Vec<f32> {
        let mut rows = make_rows(n, d, seed);
        for (i, row) in rows.chunks_exact_mut(d).enumerate() {
            for (j, v) in row.iter_mut().enumerate() {
                *v = *v * 0.25 + (((i % 8) * 7 + j * 3) % 5) as f32 * 6.0;
            }
        }
        rows
    }

    fn bits(r: &[Neighbor]) -> Vec<(u64, u32)> {
        r.iter().map(|n| (n.id, n.distance.to_bits())).collect()
    }

    /// Every vector's full distance, accumulated in its block's visit
    /// order by the dense kernels alone — what PDXearch must reproduce
    /// bit for bit whichever phase scans the vector.
    fn linear_scan(bond: &PdxBond, blocks: &[&SearchBlock], q: &[f32], k: usize) -> Vec<Neighbor> {
        let prepared = bond.prepare_query(q);
        let mut heap = KnnHeap::new(k);
        for block in blocks {
            let (metric, scalar) = (bond.metric(), KernelPolicy::Scalar);
            let mut perm = Vec::new();
            bond.dim_order(
                &prepared,
                Some(&block.stats),
                scalar,
                &mut Vec::new(),
                &mut perm,
            );
            for (i, g) in block.pdx.groups().enumerate() {
                let mut acc = vec![0.0f32; g.lanes];
                let sel = match perm.is_empty() {
                    true => DimSel::Range(0..q.len()),
                    false => DimSel::Ids(&perm),
                };
                pdx_accumulate_groups(metric, &block.pdx, i..i + 1, q, sel, &mut acc, scalar);
                for (l, &d) in acc.iter().enumerate() {
                    heap.push(block.row_ids[g.start_vector + l], d);
                }
            }
        }
        heap.into_sorted()
    }

    #[test]
    fn tile_boundaries_keep_bond_equal_to_the_linear_scan() {
        // One block per collection, so every length below is a tile
        // layout: a lone vector, one short of / exactly / one past a
        // group and a tile, two tiles plus a 17-vector tail, ten tiles.
        let d = 20;
        for n in [1usize, 63, 64, 65, 1023, 1024, 1025, 2065, 10_240] {
            let rows = make_clustered(n, d, n as u64);
            let q = make_clustered(1, d, 1000 + n as u64);
            for group in [16usize, 64] {
                let coll = PdxCollection::from_rows_partitioned(&rows, n, d, 10_240, group);
                let blocks: Vec<&SearchBlock> = coll.blocks.iter().collect();
                assert_eq!(blocks.len(), 1);
                for order in [
                    VisitOrder::Sequential,
                    VisitOrder::Decreasing,
                    VisitOrder::DistanceToMeans,
                    VisitOrder::DimensionZones { zone_size: 8 },
                ] {
                    let bond = PdxBond::new(Metric::L2, order);
                    for k in [1usize, 10, n + 5] {
                        let mut profile = QueryTrace::default();
                        let prepared = bond.prepare_query(&q);
                        let got = pdxearch(
                            &bond,
                            &prepared,
                            blocks.iter().copied(),
                            &SearchOptions::new(k),
                            None,
                            Some(&mut profile),
                        );
                        let want = linear_scan(&bond, &blocks, &q, k);
                        assert_eq!(
                            bits(&got),
                            bits(&want),
                            "n={n} group={group} {order:?} k={k}"
                        );
                        // Whole tiles past START must reach PRUNE; a
                        // heap that never fills keeps every tile in it.
                        if n >= 2065 {
                            assert_eq!(
                                profile.dims_scanned < profile.dims_total,
                                k <= 10,
                                "n={n} group={group} {order:?} k={k}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Checks that the scan of `blocks` under `dead` returns, bit for bit,
    /// the scan of `rebuilt` (the same blocks without the dead rows) — for
    /// every kernel policy, for tiles past START that stay in WARMUP to
    /// the end (selection fraction 0), reach PRUNE late (the default) or
    /// at their first bound (1), for `k` below and beyond the live rows,
    /// unprofiled and profiled.
    fn assert_masked_equals_rebuilt<P, B>(
        pruner: &P,
        q: &P::Query,
        blocks: &[B],
        rebuilt: &[B],
        dead: &RowMask,
        what: &str,
    ) where
        P: Pruner,
        B: ScanBlock<P>,
    {
        let live: usize = rebuilt.iter().map(|b| b.len()).sum();
        for kernel in [KernelPolicy::Scalar, KernelPolicy::Simd, KernelPolicy::Auto] {
            for fraction in [0.0f32, DEFAULT_SELECTION_FRACTION, 1.0] {
                for k in [10usize, live + 7] {
                    let opts = SearchOptions::new(k)
                        .with_kernel(kernel)
                        .with_selection_fraction(fraction);
                    let at = format!("{what} {kernel:?} fraction={fraction} k={k}");
                    let want = pdxearch(pruner, q, rebuilt, &opts, None, None);
                    assert_eq!(want.len(), k.min(live), "{at}");
                    let got = pdxearch(pruner, q, blocks, &opts, Some(dead), None);
                    assert_eq!(bits(&got), bits(&want), "{at}");
                    let mut profile = QueryTrace::default();
                    let got = pdxearch(pruner, q, blocks, &opts, Some(dead), Some(&mut profile));
                    assert_eq!(bits(&got), bits(&want), "{at} profiled");
                }
            }
        }
        // No mask and an empty mask are the same scan.
        let opts = SearchOptions::new(10);
        let none = pdxearch(pruner, q, blocks, &opts, None, None);
        let empty = pdxearch(pruner, q, blocks, &opts, Some(&RowMask::default()), None);
        assert_eq!(bits(&none), bits(&empty), "{what}");
    }

    #[test]
    fn masked_scan_equals_the_scan_of_blocks_rebuilt_without_the_rows() {
        // Blocks of 2 100 vectors: tiles of 1 024, 1 024 and 52, twice,
        // and one block of 800.
        let (n, d, group) = (5_000usize, 20usize, 64usize);
        let rows = make_clustered(n, d, 9);
        let query = make_clustered(1, d, 1009);
        let coll = PdxCollection::from_rows_partitioned(&rows, n, d, 2_100, group);
        let bond = PdxBond::new(Metric::L2, VisitOrder::DistanceToMeans);
        let nearest = search(
            &bond,
            &coll.blocks.iter().collect::<Vec<_>>(),
            &query,
            &SearchOptions::new(10),
        );
        // Dead: true neighbours; rows the START tile meets before and
        // after its heap fills; the whole second tile; rows of the short
        // tail tile; every seventh row of the second block, whose tiles
        // run WARMUP and PRUNE; the whole last block.
        let dead: RowMask = [nearest[0].id, nearest[2].id, nearest[9].id, 3, 5, 700]
            .into_iter()
            .chain(1_024..2_048)
            .chain([2_050, 2_099])
            .chain((2_100..4_200).step_by(7))
            .chain(4_200..5_000)
            .collect();
        let live_rows = |ids: &[u64]| -> (Vec<u64>, Vec<f32>) {
            let ids: Vec<u64> = ids
                .iter()
                .copied()
                .filter(|&id| !dead.contains(id))
                .collect();
            let row = |&id: &u64| rows[id as usize * d..(id as usize + 1) * d].iter().copied();
            let live = ids.iter().flat_map(row).collect();
            (ids, live)
        };

        for order in [VisitOrder::Sequential, VisitOrder::DistanceToMeans] {
            let bond = PdxBond::new(Metric::L2, order);
            // A vector's distance bits are a function of its block's visit
            // order, so the rebuilt block keeps the block's statistics.
            let rebuilt: Vec<SearchBlock> = coll
                .blocks
                .iter()
                .map(|block| {
                    let (ids, live) = live_rows(&block.row_ids);
                    SearchBlock {
                        stats: block.stats.clone(),
                        ..SearchBlock::new(&live, ids, d, group)
                    }
                })
                .collect();
            let q = bond.prepare_query(&query);
            let what = format!("f32 {order:?}");
            assert_masked_equals_rebuilt(&bond, &q, &coll.blocks, &rebuilt, &dead, &what);
            // The exact scan's answer is also what over-fetching by the
            // dead count and filtering gives.
            let fetch = SearchOptions::new(10 + dead.len());
            let mut over = pdxearch(&bond, &q, &coll.blocks, &fetch, None, None);
            over.retain(|nb| !dead.contains(nb.id));
            over.truncate(10);
            let opts = SearchOptions::new(10);
            let got = pdxearch(&bond, &q, &coll.blocks, &opts, Some(&dead), None);
            assert_eq!(bits(&got), bits(&over), "{what}");
        }
        let linear = PdxBond::linear(Metric::L2);
        let rebuilt: Vec<SearchBlock> = coll
            .blocks
            .iter()
            .map(|block| {
                let (ids, live) = live_rows(&block.row_ids);
                SearchBlock::new(&live, ids, d, group)
            })
            .collect();
        let q = linear.prepare_query(&query);
        assert_masked_equals_rebuilt(&linear, &q, &coll.blocks, &rebuilt, &dead, "f32 linear");

        let qz = Sq8Quantizer::fit(&rows, n, d);
        let sq8_block =
            |ids: &[u64], live: &[f32]| Sq8Block::new(live, ids.to_vec(), d, group, &qz);
        let all = |block: &SearchBlock| {
            let ids = &block.row_ids;
            sq8_block(
                ids,
                &rows[ids[0] as usize * d..(ids[ids.len() - 1] as usize + 1) * d],
            )
        };
        let blocks: Vec<Sq8Block> = coll.blocks.iter().map(all).collect();
        let rebuilt: Vec<Sq8Block> = coll
            .blocks
            .iter()
            .map(|block| {
                let (ids, live) = live_rows(&block.row_ids);
                sq8_block(&ids, &live)
            })
            .collect();
        for metric in [Metric::L2, Metric::NegativeIp] {
            let bound = Sq8Bound::new(&qz, metric);
            let q = bound.prepare_query(&query);
            let what = format!("sq8 {metric:?}");
            assert_masked_equals_rebuilt(&bound, &q, &blocks, &rebuilt, &dead, &what);
        }
    }

    /// Checks that a band's answers and work counters are those of a
    /// loop of single-query scans, with and without `dead`.
    fn assert_band_equals_loop<P: Pruner, B: ScanBlock<P>>(
        pruner: &P,
        band: &[P::Query],
        blocks: &[B],
        dead: &RowMask,
        ks: [usize; 2],
        what: &str,
    ) {
        for kernel in [KernelPolicy::Scalar, KernelPolicy::Auto] {
            for fraction in [0.0f32, DEFAULT_SELECTION_FRACTION, 1.0] {
                for k in ks {
                    for mask in [None, Some(dead)] {
                        let opts = SearchOptions::new(k)
                            .with_kernel(kernel)
                            .with_selection_fraction(fraction);
                        let at = format!(
                            "{what} {kernel:?} fraction={fraction} k={k} masked={}",
                            mask.is_some()
                        );
                        let mut looped = QueryTrace::default();
                        let want: Vec<_> = band
                            .iter()
                            .map(|q| pdxearch(pruner, q, blocks, &opts, mask, Some(&mut looped)))
                            .collect();
                        let mut banded = QueryTrace::default();
                        let got =
                            pdxearch_band(pruner, band, blocks, &opts, mask, Some(&mut banded));
                        assert_eq!(got.len(), band.len(), "{at}");
                        for (qi, (got, want)) in got.iter().zip(&want).enumerate() {
                            assert_eq!(bits(got), bits(want), "{at} q{qi}");
                        }
                        let work = |p: &QueryTrace| {
                            (
                                p.blocks_visited,
                                p.vectors_visited,
                                p.dims_total,
                                p.dims_scanned,
                            )
                        };
                        assert_eq!(work(&banded), work(&looped), "{at}");
                        let plain = pdxearch_band(pruner, band, blocks, &opts, mask, None);
                        assert_eq!(plain, got, "{at} unprofiled");
                    }
                }
            }
        }
        let none = pdxearch_band(pruner, &[], blocks, &SearchOptions::new(3), None, None);
        assert!(none.is_empty(), "{what}: an empty band has no answers");
    }

    #[test]
    fn band_equals_the_loop_of_single_queries_masked_and_not() {
        // Blocks of 2 100 vectors (tiles of 1 024, 1 024 and 52) twice and
        // one of 800. Dead: two of every three rows of the first tile
        // (342 stay live), the whole second tile, rows of the short tail
        // tile, every seventh row of the second block. At k = 10 every
        // query leaves START after the first tile and prunes from then
        // on; at k = 400 the first tile's live rows do not fill a heap,
        // so the next live tile starts in START as well — for the whole
        // band, whose queries share `k` and the mask.
        let (n, d, group) = (5_000usize, 20usize, 64usize);
        let rows = make_clustered(n, d, 19);
        let queries = make_clustered(70, d, 1019);
        let coll = PdxCollection::from_rows_partitioned(&rows, n, d, 2_100, group);
        let dead: RowMask = (0..1_024u64)
            .filter(|id| id % 3 != 0)
            .chain(1_024..2_048)
            .chain([2_050, 2_099])
            .chain((2_100..4_200).step_by(7))
            .collect();
        let ks = [10usize, 400];

        for order in [VisitOrder::Sequential, VisitOrder::DistanceToMeans] {
            let bond = PdxBond::new(Metric::L2, order);
            let band = bond.prepare_queries(&queries, d);
            let what = format!("f32 {order:?}");
            assert_band_equals_loop(&bond, &band, &coll.blocks, &dead, ks, &what);
        }
        let linear = PdxBond::linear(Metric::L2);
        let band = linear.prepare_queries(&queries, d);
        assert_band_equals_loop(&linear, &band, &coll.blocks, &dead, ks, "f32 linear");

        let qz = Sq8Quantizer::fit(&rows, n, d);
        let blocks: Vec<Sq8Block> = coll
            .blocks
            .iter()
            .map(|block| {
                let ids = &block.row_ids;
                let span = ids[0] as usize * d..(ids[ids.len() - 1] as usize + 1) * d;
                Sq8Block::new(&rows[span], ids.clone(), d, group, &qz)
            })
            .collect();
        let bound = Sq8Bound::new(&qz, Metric::L2);
        let band = bound.prepare_queries(&queries, d);
        assert_band_equals_loop(&bound, &band, &blocks, &dead, ks, "sq8");
    }

    /// A pruner that trusts its aux row alone: a vector survives iff the
    /// row marks it. Any aux value read for the wrong vector shows up as
    /// a lost neighbour or as extra scanned dimensions.
    struct MarkerPruner;

    impl Pruner for MarkerPruner {
        type Query = Vec<f32>;
        type Checkpoint = ();
        const NEEDS_AUX: bool = true;

        fn metric(&self) -> Metric {
            Metric::L2
        }
        fn prepare_query(&self, query: &[f32]) -> Vec<f32> {
            query.to_vec()
        }
        fn query_vector<'q>(&self, q: &'q Vec<f32>) -> &'q [f32] {
            q
        }
        fn checkpoint(&self, _q: &Vec<f32>, _scanned: usize, _total: usize, _threshold: f32) {}
        /// `|aux − 1| ≤ 0`: exactly the marked vectors.
        fn slack<L: Lane>(_cp: &(), _partial: L, aux: L) -> L {
            aux.sub(aux.fill(1.0)).abs()
        }
        fn limit(_cp: &()) -> f32 {
            0.0
        }
    }

    #[test]
    fn aux_rows_are_sliced_to_the_tile() {
        // Two full tiles plus a 17-vector tail, in groups of 16 and 64.
        let (n, d, k) = (2065usize, 16usize, 10usize);
        let rows = make_rows(n, d, 77);
        // A query next to a vector of the last tile; the first tile is
        // scanned whole by START whatever its aux says.
        let q: Vec<f32> = rows[2060 * d..2061 * d].iter().map(|x| x + 0.01).collect();
        let want = brute_force(&rows, d, &q, k, Metric::L2);
        assert!(want.iter().any(|nb| (1024..2048).contains(&nb.id)));
        assert!(want.iter().any(|nb| nb.id >= 2048));
        let sched = checkpoints(StepPolicy::default(), d);
        for group in [16usize, 64] {
            let mut coll = PdxCollection::from_rows_partitioned(&rows, n, d, n, group);
            let mut aux = BlockAux::new(sched.iter().map(|&c| c as u32).collect(), n);
            for ci in 0..sched.len() {
                for nb in &want {
                    aux.row_mut(ci)[nb.id as usize] = 1.0;
                }
            }
            coll.blocks[0].aux = Some(aux);
            let blocks: Vec<&SearchBlock> = coll.blocks.iter().collect();
            let mut profile = QueryTrace::default();
            let got = pdxearch(
                &MarkerPruner,
                &q,
                blocks.iter().copied(),
                &SearchOptions::new(k),
                None,
                Some(&mut profile),
            );
            assert_eq!(ids(&got), ids(&want), "group {group}");
            // START reads the first tile whole; every later vector is
            // read up to the first checkpoint and only the marked ones
            // beyond it.
            let marked_later = want.iter().filter(|nb| nb.id >= 1024).count();
            let expected = 1024 * d + (n - 1024) * sched[0] + marked_later * (d - sched[0]);
            assert_eq!(profile.dims_scanned, expected as u64, "group {group}");
        }
    }

    #[test]
    fn masked_lanes_do_not_count_as_survivors() {
        // Two tiles; START reads the first whole. In the second the aux
        // row marks 150 live and 100 dead vectors: the tile goes to PRUNE
        // at its first bound (150 ≤ 20 % of 1 024 < 250) only if the dead
        // ones are not counted, and then reads on for the live 150 alone.
        let (n, d, k) = (2_048usize, 16usize, 10usize);
        let rows = make_rows(n, d, 78);
        let q = make_rows(1, d, 79);
        let sched = checkpoints(StepPolicy::default(), d);
        let mut coll = PdxCollection::from_rows_partitioned(&rows, n, d, n, 64);
        let mut aux = BlockAux::new(sched.iter().map(|&c| c as u32).collect(), n);
        for ci in 0..sched.len() {
            aux.row_mut(ci)[1_100..1_350].fill(1.0);
        }
        coll.blocks[0].aux = Some(aux);
        let dead: RowMask = (1_250..1_350).chain([7]).collect();
        let mut profile = QueryTrace::default();
        let opts = SearchOptions::new(k);
        let profiled = Some(&mut profile);
        let got = pdxearch(
            &MarkerPruner,
            &q,
            &coll.blocks,
            &opts,
            Some(&dead),
            profiled,
        );
        assert!(got.iter().all(|nb| !dead.contains(nb.id)));
        let expected = 1_024 * d + 1_024 * sched[0] + 150 * (d - sched[0]);
        assert_eq!(profile.dims_scanned, expected as u64);
    }

    /// Scans one block of `n` vectors (groups of 64, `d` = 16, `k` = 10)
    /// with [`MarkerPruner`]: `marked` vectors survive every bound, rows
    /// of `dead` are masked. Returns the answer, the dimension values
    /// read and the first checkpoint.
    fn marker_scan(
        n: usize,
        marked: impl IntoIterator<Item = usize>,
        dead: &RowMask,
    ) -> (Vec<Neighbor>, u64, usize) {
        let d = 16usize;
        let rows = make_rows(n, d, 80);
        let q = make_rows(1, d, 81);
        let sched = checkpoints(StepPolicy::default(), d);
        let mut coll = PdxCollection::from_rows_partitioned(&rows, n, d, n, 64);
        let mut aux = BlockAux::new(sched.iter().map(|&c| c as u32).collect(), n);
        for v in marked {
            for ci in 0..sched.len() {
                aux.row_mut(ci)[v] = 1.0;
            }
        }
        coll.blocks[0].aux = Some(aux);
        let mut profile = QueryTrace::default();
        let (opts, profiled) = (SearchOptions::new(10), Some(&mut profile));
        let got = pdxearch(&MarkerPruner, &q, &coll.blocks, &opts, Some(dead), profiled);
        (got, profile.dims_scanned, sched[0])
    }

    #[test]
    fn a_survivor_count_equal_to_the_selection_limit_switches_to_prune() {
        // The second tile's limit is ⌈0.2 × 1 024⌉ = 205 survivors: 205
        // (across four words of the bit buffer, the last lane included)
        // switch to PRUNE at the first bound, 206 stay in WARMUP — and,
        // marked at every checkpoint, to the end.
        let (d, none) = (16usize, RowMask::default());
        let marked = |count: usize| (1_024..1_024 + count - 1).chain([2_047]);
        let (got, scanned, first) = marker_scan(2_048, marked(205), &none);
        assert_eq!(
            scanned as usize,
            1_024 * d + 1_024 * first + 205 * (d - first)
        );
        assert!(got.iter().all(|nb| nb.id < 1_024 + 204 || nb.id == 2_047));
        let (_, scanned, _) = marker_scan(2_048, marked(206), &none);
        assert_eq!(scanned as usize, 2_048 * d);
        // Masked survivors do not count towards the limit.
        let dead: RowMask = [1_024u64, 2_047].into_iter().collect();
        let (got, scanned, _) = marker_scan(2_048, marked(207), &dead);
        assert_eq!(
            scanned as usize,
            1_024 * d + 1_024 * first + 205 * (d - first)
        );
        assert!(got.iter().all(|nb| !dead.contains(nb.id)));
    }

    #[test]
    fn a_tile_whose_every_survivor_is_masked_ends_at_its_first_bound() {
        // All 100 marked vectors of the second tile are dead: no bit is
        // left, so there is no position to prune at and the tile returns.
        let d = 16usize;
        let dead: RowMask = (1_500..1_600u64).collect();
        let (got, scanned, first) = marker_scan(2_048, 1_500..1_600, &dead);
        assert_eq!(scanned as usize, 1_024 * d + 1_024 * first);
        assert_eq!(got.len(), 10);
        assert!(got.iter().all(|nb| nb.id < 1_024));
    }

    #[test]
    fn a_one_lane_tile_prunes_or_keeps_its_vector() {
        // 1 025 vectors: a full tile, then a tile of one lane (limit
        // ⌈0.2⌉ = 1, a bit buffer of one word with one live bit).
        let (d, none) = (16usize, RowMask::default());
        let (_, scanned, first) = marker_scan(1_025, [1_024], &none);
        assert_eq!(scanned as usize, 1_024 * d + d);
        let (got, scanned, _) = marker_scan(1_025, [], &none);
        assert_eq!(scanned as usize, 1_024 * d + first);
        assert!(got.iter().all(|nb| nb.id < 1_024));
        let dead: RowMask = [1_024u64].into_iter().collect();
        let (_, scanned, _) = marker_scan(1_025, [1_024], &dead);
        assert_eq!(
            scanned as usize,
            1_024 * d,
            "a fully masked tile is skipped"
        );
    }

    #[test]
    fn profiled_run_matches_unprofiled_and_records_time() {
        let (n, d, k) = (400, 28, 6);
        let rows = make_rows(n, d, 44);
        let coll = PdxCollection::from_rows_partitioned(&rows, n, d, 64, 64);
        let blocks: Vec<&SearchBlock> = coll.blocks.iter().collect();
        let q = make_rows(1, d, 12);
        let bond = PdxBond::new(Metric::L2, VisitOrder::DistanceToMeans);
        let opts = SearchOptions::new(k);
        let prepared = bond.prepare_query(&q);
        let plain = pdxearch(&bond, &prepared, blocks.iter().copied(), &opts, None, None);
        let mut profile = QueryTrace::default();
        let profiled = pdxearch(
            &bond,
            &prepared,
            blocks.iter().copied(),
            &opts,
            None,
            Some(&mut profile),
        );
        assert_eq!(ids(&plain), ids(&profiled));
        assert!(profile.distance_ns > 0, "distance phase must be timed");
        // Work counters: every visited block contributes, and the scan
        // never reads more than a full scan would.
        assert_eq!(profile.blocks_visited, blocks.len() as u64);
        assert_eq!(profile.vectors_visited, n as u64);
        assert_eq!(profile.dims_total, (n * d) as u64);
        assert!(profile.dims_scanned > 0);
        assert!(profile.dims_scanned <= profile.dims_total);
    }
}
