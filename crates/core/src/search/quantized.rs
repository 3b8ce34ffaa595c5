//! Two-phase quantized search: an SQ8 PDXearch scan producing
//! candidates, then an exact `f32` rerank.
//!
//! **Phase 1** is [`pdxearch`] itself, monomorphized for the SQ8 element
//! ([`Sq8Block`]) under the [`Sq8Bound`] pruner, and collects the top-`c`
//! candidates by *estimated* distance — the distance to each vector's
//! dequantized reconstruction. For the monotone metrics (L2/L1) the
//! weighted SQ8 partial sums only grow with scanned dimensions, so the
//! scan prunes candidates against the current c-th best estimate exactly
//! like PDX-BOND does in `f32` — the pruning is exact *with respect to
//! the estimate*; the estimate itself carries quantization error, which
//! is why phase 2 exists. Inner product is not monotone, so its scan
//! stays on the START schedule: a plain quantized linear scan.
//!
//! **Phase 2** recomputes the true `f32` distance of the `c` candidates
//! against the uncompressed vectors (a per-candidate random access into
//! the row-major rerank payload — cold data, touched `c` times per
//! query) and returns the exact top-`k` of the candidate set. With
//! `c = refine·k` a small refine factor (4 by default) recovers
//! recall ≥ 0.95 while the scan reads 4× fewer bytes than `f32` PDX.

use crate::distance::{distance_scalar, Metric};
use crate::engine::SearchOptions;
use crate::heap::{KnnHeap, Neighbor};
use crate::kernels::dispatch::KernelPolicy;
use crate::kernels::pdx::DimSel;
use crate::kernels::sq8::{sq8_accumulate_groups, sq8_accumulate_survivors};
use crate::layout::{QuantizedPdxBlock, Sq8Quantizer, Sq8Query};
use crate::pruning::Pruner;
use crate::search::pdxearch::{pdxearch, ScanBlock};
use pdx_obs::QueryTrace;
use std::ops::{Deref, Range};

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

/// The SQ8 candidate bound as a [`Pruner`]: a vector stays a candidate
/// while its partial estimate is at most `threshold − bias` (the bias
/// joins a distance only when it is finished). Exact with respect to the
/// estimate for the monotone metrics; inner product never prunes.
#[derive(Debug, Clone, Copy)]
pub struct Sq8Bound<'a> {
    quantizer: &'a Sq8Quantizer,
    metric: Metric,
}

/// A query prepared by [`Sq8Bound`]: the code-space form the SQ8 kernels
/// consume, beside the raw vector the `f32` side of a deployment (its
/// centroids, its rerank payload) is compared with.
#[derive(Debug, Clone)]
pub struct Sq8BoundQuery {
    raw: Vec<f32>,
    sq8: Sq8Query,
}

impl<'a> Sq8Bound<'a> {
    /// The bound for queries under `metric` against codes of `quantizer`.
    pub fn new(quantizer: &'a Sq8Quantizer, metric: Metric) -> Self {
        Self { quantizer, metric }
    }
}

impl Pruner for Sq8Bound<'_> {
    type Query = Sq8BoundQuery;
    type Checkpoint = f32;

    fn name(&self) -> &'static str {
        "sq8"
    }

    fn metric(&self) -> Metric {
        self.metric
    }

    fn prepare_query(&self, query: &[f32]) -> Sq8BoundQuery {
        Sq8BoundQuery {
            raw: query.to_vec(),
            sq8: self.quantizer.prepare_query(self.metric, query),
        }
    }

    fn query_vector<'q>(&self, q: &'q Sq8BoundQuery) -> &'q [f32] {
        &q.raw
    }

    fn checkpoint(&self, q: &Sq8BoundQuery, _scanned: usize, _total: usize, threshold: f32) -> f32 {
        threshold - q.sq8.bias
    }

    #[inline(always)]
    fn limit(cp: &f32) -> f32 {
        *cp
    }
}

/// The storage range of a selection: an SQ8 block stores its codes in
/// the codec's visit order already (decreasing variance, see
/// [`Sq8Quantizer::order`]), so [`Sq8Bound`] has no per-query order and
/// the scan never hands an SQ8 block a permutation.
fn storage_range(dims: DimSel<'_>) -> Range<usize> {
    match dims {
        DimSel::Range(r) => r,
        DimSel::Ids(_) => unreachable!("SQ8 blocks are scanned in storage order"),
    }
}

impl ScanBlock<Sq8Bound<'_>> for Sq8Block {
    fn len(&self) -> usize {
        self.codes.len()
    }

    fn dims(&self) -> usize {
        self.codes.dims()
    }

    fn group_size(&self) -> usize {
        self.codes.group_size()
    }

    fn row_ids(&self) -> &[u64] {
        &self.row_ids
    }

    #[inline]
    fn accumulate(
        &self,
        _pruner: &Sq8Bound<'_>,
        q: &Sq8BoundQuery,
        groups: Range<usize>,
        dims: DimSel<'_>,
        acc: &mut [f32],
        kernel: KernelPolicy,
    ) {
        let dims = storage_range(dims);
        sq8_accumulate_groups(&q.sq8, &self.codes, groups, dims, acc, kernel)
    }

    #[inline]
    fn accumulate_survivors(
        &self,
        _pruner: &Sq8Bound<'_>,
        q: &Sq8BoundQuery,
        dims: DimSel<'_>,
        positions: &[u32],
        acc: &mut [f32],
        kernel: KernelPolicy,
    ) {
        sq8_accumulate_survivors(
            &q.sq8,
            &self.codes,
            storage_range(dims),
            positions,
            acc,
            kernel,
        )
    }

    #[inline(always)]
    fn finish(q: &Sq8BoundQuery, partial: f32) -> f32 {
        partial + q.sq8.bias
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

/// The full two-phase search under `opts.metric`: quantized scan for
/// `opts.refine · opts.k` candidates (a zero `refine` is clamped to 1),
/// exact `f32` rerank to `opts.k`. `trace` is the scan's, as in
/// [`pdxearch`].
///
/// # Panics
/// Panics if `opts.k == 0`.
pub fn sq8_two_phase<I>(
    quantizer: &Sq8Quantizer,
    blocks: I,
    rows: &[f32],
    query: &[f32],
    opts: &SearchOptions,
    trace: Option<&mut QueryTrace>,
) -> Vec<Neighbor>
where
    I: IntoIterator,
    I::Item: Deref<Target = Sq8Block>,
{
    let bound = Sq8Bound::new(quantizer, opts.metric);
    let scan = SearchOptions {
        k: opts.k.saturating_mul(opts.refine.max(1)),
        ..*opts
    };
    let candidates = pdxearch(
        &bound,
        &bound.prepare_query(query),
        blocks,
        &scan,
        None,
        trace,
    );
    sq8_rerank(
        opts.metric,
        rows,
        quantizer.dims(),
        query,
        &candidates,
        opts.k,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::sq8::sq8_scan;

    /// Phase 1 alone: the top-`c` of `blocks` by estimated distance.
    fn scan(
        qz: &Sq8Quantizer,
        metric: Metric,
        blocks: &[Sq8Block],
        raw_q: &[f32],
        c: usize,
        kernel: KernelPolicy,
    ) -> Vec<Neighbor> {
        let bound = Sq8Bound::new(qz, metric);
        let opts = SearchOptions::new(c).with_kernel(kernel);
        pdxearch(
            &bound,
            &bound.prepare_query(raw_q),
            blocks,
            &opts,
            None,
            None,
        )
    }

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
                for metric in [Metric::L2, Metric::L1, Metric::NegativeIp] {
                    let q = qz.prepare_query(metric, &raw_q);
                    // Reference: scan every block fully.
                    let mut out = vec![0.0; n];
                    sq8_scan(&q, &blocks[0].codes, &mut out);
                    for c in [1usize, 10, n + 5] {
                        let got = scan(&qz, metric, &blocks, &raw_q, c, KernelPolicy::Auto);
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
        let raw_q = make_rows(1, d, 5);
        let opts = SearchOptions::new(k).with_refine(8);
        let got = sq8_two_phase(&qz, &blocks, &rows, &raw_q, &opts, None);
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
        let blocks = [empty.clone(), full, empty];
        let got = scan(
            &qz,
            Metric::L2,
            &blocks,
            &make_rows(1, d, 4),
            5,
            KernelPolicy::Auto,
        );
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
        let raw_q = make_rows(1, d, 9);
        for metric in [Metric::L2, Metric::L1, Metric::NegativeIp] {
            let a = scan(&qz, metric, &blocks, &raw_q, c, KernelPolicy::Scalar);
            let b = scan(&qz, metric, &blocks, &raw_q, c, KernelPolicy::Simd);
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
        let got = scan(
            &qz,
            Metric::L2,
            &blocks,
            &make_rows(1, d, 3),
            50,
            KernelPolicy::Auto,
        );
        assert_eq!(got.len(), 9);
    }
}
