//! Two-phase quantized search: an SQ8 PDXearch scan producing
//! candidates, then an exact `f32` rerank.
//!
//! **Phase 1** walks quantized blocks with the PDXearch phase structure
//! (START / WARMUP / PRUNE per [`Tile`], §4 of the paper and
//! [`pdxearch`](crate::search::pdxearch)) and collects the top-`c`
//! candidates by *estimated* distance — the distance to each vector's
//! dequantized reconstruction. For the monotone metrics (L2/L1) the
//! weighted SQ8 partial sums only grow with scanned dimensions, so the
//! scan prunes candidates against the current c-th best estimate exactly
//! like PDX-BOND does in `f32` — the pruning is exact *with respect to
//! the estimate*; the estimate itself carries quantization error, which
//! is why phase 2 exists. Inner product is not monotone, so its scan is
//! a plain quantized linear scan.
//!
//! **Phase 2** recomputes the true `f32` distance of the `c` candidates
//! against the uncompressed vectors (a per-candidate random access into
//! the row-major rerank payload — cold data, touched `c` times per
//! query) and returns the exact top-`k` of the candidate set. With
//! `c = refine·k` a small refine factor (4 by default) recovers
//! recall ≥ 0.95 while the scan reads 4× fewer bytes than `f32` PDX.

use crate::distance::{distance_scalar, Metric};
use crate::heap::{KnnHeap, Neighbor};
use crate::kernels::dispatch::KernelPolicy;
use crate::kernels::sq8::{sq8_accumulate_policy, sq8_accumulate_survivors};
use crate::layout::{QuantizedPdxBlock, Sq8Quantizer, Sq8Query};
use crate::pruning::{checkpoints, tiles, StepPolicy, Tile, DEFAULT_SELECTION_FRACTION};

/// Default candidate-refinement factor of the two-phase search: phase 1
/// keeps `refine · k` candidates for phase 2 to rerank.
pub const DEFAULT_REFINE: usize = 4;

/// One searchable quantized block: SQ8 codes plus the global ids of its
/// vectors (the quantized twin of
/// [`SearchBlock`](crate::collection::SearchBlock)).
#[derive(Debug, Clone, PartialEq)]
pub struct Sq8Block {
    /// The codes, dimension-major in groups.
    pub codes: QuantizedPdxBlock,
    /// Global id of each vector (block order).
    pub row_ids: Vec<u64>,
}

impl Sq8Block {
    /// Quantizes row-major data into a searchable block.
    ///
    /// # Panics
    /// Panics if buffer sizes disagree or `ids.len()` differs from the
    /// number of rows.
    pub fn new(
        rows: &[f32],
        ids: Vec<u64>,
        n_dims: usize,
        group_size: usize,
        quantizer: &Sq8Quantizer,
    ) -> Self {
        let codes = QuantizedPdxBlock::from_rows(rows, ids.len(), n_dims, group_size, quantizer);
        Self {
            codes,
            row_ids: ids,
        }
    }

    /// Number of vectors in the block.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether the block is empty.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }
}

/// Reusable per-query buffers of the quantized scan.
#[derive(Default)]
struct Scratch {
    /// WARMUP partial estimates, one per tile vector.
    partials: Vec<f32>,
    /// PRUNE-phase survivor positions (block-relative).
    positions: Vec<u32>,
    /// PRUNE-phase compacted partial estimates (parallel to positions).
    compact: Vec<f32>,
}

/// Phase 1: quantized PDXearch scan over `blocks` in the given order,
/// returning the top-`c` candidates by estimated distance (ascending).
///
/// Dimension pruning engages for monotone metrics (L2/L1) once the
/// candidate heap is full; inner product scans linearly. `step` is the
/// checkpoint schedule of the WARMUP phase (the paper's adaptive
/// doubling by default).
///
/// # Panics
/// Panics if `c == 0` or a block's dimensionality differs from the
/// query's.
pub fn sq8_search(q: &Sq8Query, blocks: &[&Sq8Block], c: usize, step: StepPolicy) -> Vec<Neighbor> {
    sq8_search_policy(q, blocks, c, step, KernelPolicy::Auto)
}

/// [`sq8_search`] with an explicit kernel policy (bit-identical across
/// policies — the SIMD kernels reproduce the scalar accumulation order).
pub fn sq8_search_policy(
    q: &Sq8Query,
    blocks: &[&Sq8Block],
    c: usize,
    step: StepPolicy,
    kernel: KernelPolicy,
) -> Vec<Neighbor> {
    assert!(c > 0, "candidate count must be positive");
    let dims = q.dims();
    let mut heap = KnnHeap::new(c);
    let mut scratch = Scratch::default();
    let prune = q.metric.is_monotonic();
    let ckpts = checkpoints(step, dims);

    // START (and a non-monotone metric's whole scan) is the pruned scan
    // with one checkpoint at `dims`: nothing is bounded before the end.
    let start = [dims];

    for block in blocks {
        if block.is_empty() {
            continue;
        }
        assert_eq!(block.codes.dims(), dims, "query dimensionality mismatch");
        for tile in tiles(block.len(), block.codes.group_size()) {
            let schedule = if !prune || heap.len() < c {
                &start[..]
            } else {
                &ckpts[..]
            };
            scan_tile(q, block, &tile, schedule, kernel, &mut heap, &mut scratch);
        }
    }
    heap.into_sorted()
}

/// WARMUP + PRUNE scan of one tile of a quantized block against the
/// candidate heap's threshold. Mirrors the `f32` PDXearch tile scan with
/// the trivial monotone-bound survival test `partial ≤ threshold`.
fn scan_tile(
    q: &Sq8Query,
    block: &Sq8Block,
    tile: &Tile,
    ckpts: &[usize],
    kernel: KernelPolicy,
    heap: &mut KnnHeap,
    scratch: &mut Scratch,
) {
    let dims = block.codes.dims();
    let v0 = tile.vectors.start;
    let n = tile.vectors.len();
    let sel_limit = ((n as f32) * DEFAULT_SELECTION_FRACTION).ceil() as usize;

    scratch.partials.clear();
    scratch.partials.resize(n, 0.0);
    let mut scanned = 0usize;
    let mut pruning = false;

    for &ck in ckpts {
        if !pruning {
            for g in tile.groups.clone() {
                let g = block.codes.group(g);
                let acc = &mut scratch.partials[g.start_vector - v0..][..g.lanes];
                sq8_accumulate_policy(q, &g, scanned..ck, acc, kernel);
            }
            scanned = ck;
            if scanned == dims {
                for (&id, &d) in block.row_ids[tile.vectors.clone()]
                    .iter()
                    .zip(&scratch.partials)
                {
                    heap.push(id, d + q.bias);
                }
                return;
            }
            let threshold = heap.threshold() - q.bias;
            let survivors = scratch
                .partials
                .iter()
                .map(|&p| (p <= threshold) as usize)
                .sum::<usize>();
            if survivors <= sel_limit {
                scratch.positions.clear();
                scratch.compact.clear();
                for (i, &p) in scratch.partials.iter().enumerate() {
                    if p <= threshold {
                        scratch.positions.push((v0 + i) as u32);
                        scratch.compact.push(p);
                    }
                }
                pruning = true;
                if scratch.positions.is_empty() {
                    return;
                }
            }
        } else {
            sq8_accumulate_survivors(
                q,
                &block.codes,
                scanned..ck,
                &scratch.positions,
                &mut scratch.compact,
                kernel,
            );
            scanned = ck;
            if scanned == dims {
                for (j, &pos) in scratch.positions.iter().enumerate() {
                    heap.push(block.row_ids[pos as usize], scratch.compact[j] + q.bias);
                }
                return;
            }
            let threshold = heap.threshold() - q.bias;
            let mut w = 0usize;
            for j in 0..scratch.positions.len() {
                let keep = scratch.compact[j] <= threshold;
                scratch.positions[w] = scratch.positions[j];
                scratch.compact[w] = scratch.compact[j];
                w += keep as usize;
            }
            scratch.positions.truncate(w);
            scratch.compact.truncate(w);
            if scratch.positions.is_empty() {
                return;
            }
        }
    }
}

/// Phase 2: exact rerank of `candidates` against the uncompressed
/// row-major `rows` (indexed by the candidates' global ids); returns the
/// true top-`k` of the candidate set, ascending by distance.
///
/// # Panics
/// Panics if a candidate id lies outside `rows` or `k == 0`.
pub fn sq8_rerank(
    metric: Metric,
    rows: &[f32],
    dims: usize,
    query: &[f32],
    candidates: &[Neighbor],
    k: usize,
) -> Vec<Neighbor> {
    assert_eq!(query.len(), dims, "query dimensionality mismatch");
    let mut heap = KnnHeap::new(k);
    for cand in candidates {
        let i = cand.id as usize;
        let row = &rows[i * dims..(i + 1) * dims];
        heap.push(cand.id, distance_scalar(metric, query, row));
    }
    heap.into_sorted()
}

/// The full two-phase search: quantized scan for `refine · k`
/// candidates, exact `f32` rerank to `k`.
///
/// # Panics
/// Panics if `k == 0` (a zero `refine` is clamped to 1).
#[allow(clippy::too_many_arguments)]
pub fn sq8_two_phase(
    quantizer: &Sq8Quantizer,
    blocks: &[&Sq8Block],
    rows: &[f32],
    dims: usize,
    metric: Metric,
    query: &[f32],
    k: usize,
    refine: usize,
    step: StepPolicy,
) -> Vec<Neighbor> {
    sq8_two_phase_policy(
        quantizer,
        blocks,
        rows,
        dims,
        metric,
        query,
        k,
        refine,
        step,
        KernelPolicy::Auto,
    )
}

/// [`sq8_two_phase`] with an explicit kernel policy for the quantized
/// scan (the rerank is always the scalar `f32` reference distance).
#[allow(clippy::too_many_arguments)]
pub fn sq8_two_phase_policy(
    quantizer: &Sq8Quantizer,
    blocks: &[&Sq8Block],
    rows: &[f32],
    dims: usize,
    metric: Metric,
    query: &[f32],
    k: usize,
    refine: usize,
    step: StepPolicy,
    kernel: KernelPolicy,
) -> Vec<Neighbor> {
    assert!(k > 0, "k must be positive");
    let q = quantizer.prepare_query(metric, query);
    let candidates = sq8_search_policy(&q, blocks, k * refine.max(1), step, kernel);
    sq8_rerank(metric, rows, dims, query, &candidates, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::sq8::sq8_scan;

    fn make_rows(n: usize, d: usize, seed: u64) -> Vec<f32> {
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

    fn make_blocks(
        rows: &[f32],
        n: usize,
        d: usize,
        block_size: usize,
        group: usize,
        quantizer: &Sq8Quantizer,
    ) -> Vec<Sq8Block> {
        let mut blocks = Vec::new();
        let mut v0 = 0usize;
        while v0 < n {
            let here = block_size.min(n - v0);
            let ids: Vec<u64> = (v0 as u64..(v0 + here) as u64).collect();
            blocks.push(Sq8Block::new(
                &rows[v0 * d..(v0 + here) * d],
                ids,
                d,
                group,
                quantizer,
            ));
            v0 += here;
        }
        blocks
    }

    fn brute(rows: &[f32], d: usize, q: &[f32], k: usize, metric: Metric) -> Vec<u64> {
        let mut heap = KnnHeap::new(k);
        for (i, row) in rows.chunks_exact(d).enumerate() {
            heap.push(i as u64, distance_scalar(metric, q, row));
        }
        heap.into_sorted().iter().map(|n| n.id).collect()
    }

    #[test]
    fn pruned_scan_equals_linear_scan_of_estimates() {
        // The quantized PDXearch must return exactly the top-c of the
        // estimated distances, ids and bits — pruning is exact w.r.t.
        // the estimate, and a vector's estimate does not depend on the
        // phase or the tile that scanned it. One block per length, so
        // each length is a tile layout: a lone vector, one short of /
        // exactly / one past a group and a tile, two tiles plus a
        // 17-vector tail, ten tiles. Eight clusters (vector `i` in
        // cluster `i % 8`) make every tile past START reach PRUNE.
        let d = 20;
        for n in [1usize, 63, 64, 65, 1023, 1024, 1025, 2065, 10_240] {
            let mut rows = make_rows(n + 1, d, n as u64);
            for (i, row) in rows.chunks_exact_mut(d).enumerate() {
                for (j, v) in row.iter_mut().enumerate() {
                    *v = *v * 0.25 + (((i % 8) * 7 + j * 3) % 5) as f32 * 6.0;
                }
            }
            let raw_q = rows.split_off(n * d);
            let qz = Sq8Quantizer::fit(&rows, n, d);
            for group in [16usize, 64] {
                let blocks = make_blocks(&rows, n, d, 10_240, group, &qz);
                assert_eq!(blocks.len(), 1);
                let refs: Vec<&Sq8Block> = blocks.iter().collect();
                for metric in [Metric::L2, Metric::L1, Metric::NegativeIp] {
                    let q = qz.prepare_query(metric, &raw_q);
                    // Reference: scan every block fully.
                    let mut out = vec![0.0; n];
                    sq8_scan(&q, &blocks[0].codes, &mut out);
                    for c in [1usize, 10, n + 5] {
                        let got = sq8_search(&q, &refs, c, StepPolicy::default());
                        let mut heap = KnnHeap::new(c);
                        for (&id, &dist) in blocks[0].row_ids.iter().zip(&out) {
                            heap.push(id, dist);
                        }
                        let bits = |r: &[Neighbor]| -> Vec<(u64, u32)> {
                            r.iter().map(|x| (x.id, x.distance.to_bits())).collect()
                        };
                        assert_eq!(
                            bits(&got),
                            bits(&heap.into_sorted()),
                            "n={n} group={group} {metric:?} c={c}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn two_phase_recovers_exact_top_k() {
        // With enough refinement the two-phase result matches brute force
        // on the raw f32 data.
        let (n, d, k) = (800, 16, 10);
        let rows = make_rows(n, d, 7);
        let qz = Sq8Quantizer::fit(&rows, n, d);
        let blocks = make_blocks(&rows, n, d, 128, 32, &qz);
        let refs: Vec<&Sq8Block> = blocks.iter().collect();
        let raw_q = make_rows(1, d, 5);
        let got = sq8_two_phase(
            &qz,
            &refs,
            &rows,
            d,
            Metric::L2,
            &raw_q,
            k,
            8,
            StepPolicy::default(),
        );
        let ids: Vec<u64> = got.iter().map(|x| x.id).collect();
        assert_eq!(ids, brute(&rows, d, &raw_q, k, Metric::L2));
    }

    #[test]
    fn rerank_distances_are_exact() {
        let (n, d) = (50, 8);
        let rows = make_rows(n, d, 11);
        let q = make_rows(1, d, 2);
        let candidates: Vec<Neighbor> = (0..n as u64)
            .map(|id| Neighbor {
                id,
                distance: 999.0, // estimates are ignored by the rerank
            })
            .collect();
        let got = sq8_rerank(Metric::L2, &rows, d, &q, &candidates, 5);
        let want = brute(&rows, d, &q, 5, Metric::L2);
        assert_eq!(got.iter().map(|x| x.id).collect::<Vec<_>>(), want);
        for x in &got {
            let row = &rows[x.id as usize * d..(x.id as usize + 1) * d];
            assert_eq!(x.distance, distance_scalar(Metric::L2, &q, row));
        }
    }

    #[test]
    fn empty_blocks_are_skipped() {
        let d = 6;
        let rows = make_rows(20, d, 1);
        let qz = Sq8Quantizer::fit(&rows, 20, d);
        let empty = Sq8Block::new(&[], Vec::new(), d, 16, &qz);
        let full = Sq8Block::new(&rows, (0..20).collect(), d, 16, &qz);
        let q = qz.prepare_query(Metric::L2, &make_rows(1, d, 4));
        let got = sq8_search(&q, &[&empty, &full, &empty], 5, StepPolicy::default());
        assert_eq!(got.len(), 5);
    }

    #[test]
    fn kernel_policies_are_bit_identical_end_to_end() {
        // The full pruned quantized search — not just one kernel call —
        // must produce identical bits under every policy.
        let (n, d, c) = (500, 20, 15);
        let rows = make_rows(n, d, 42);
        let qz = Sq8Quantizer::fit(&rows, n, d);
        let blocks = make_blocks(&rows, n, d, 64, 32, &qz);
        let refs: Vec<&Sq8Block> = blocks.iter().collect();
        let raw_q = make_rows(1, d, 9);
        for metric in [Metric::L2, Metric::L1, Metric::NegativeIp] {
            let q = qz.prepare_query(metric, &raw_q);
            let a = sq8_search_policy(&q, &refs, c, StepPolicy::default(), KernelPolicy::Scalar);
            let b = sq8_search_policy(&q, &refs, c, StepPolicy::default(), KernelPolicy::Simd);
            let ab: Vec<(u64, u32)> = a.iter().map(|x| (x.id, x.distance.to_bits())).collect();
            let bb: Vec<(u64, u32)> = b.iter().map(|x| (x.id, x.distance.to_bits())).collect();
            assert_eq!(ab, bb, "{metric:?}");
        }
    }

    #[test]
    fn candidate_count_larger_than_collection_returns_everything() {
        let d = 4;
        let rows = make_rows(9, d, 8);
        let qz = Sq8Quantizer::fit(&rows, 9, d);
        let blocks = make_blocks(&rows, 9, d, 4, 4, &qz);
        let refs: Vec<&Sq8Block> = blocks.iter().collect();
        let q = qz.prepare_query(Metric::L2, &make_rows(1, d, 3));
        let got = sq8_search(&q, &refs, 50, StepPolicy::default());
        assert_eq!(got.len(), 9);
    }
}
