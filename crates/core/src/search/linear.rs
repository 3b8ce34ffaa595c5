//! Exhaustive linear scans — the non-pruning baselines of the paper.
//!
//! * [`linear_scan_pdx`] / [`linear_scan_blocks`] — the PDX linear scan
//!   ("PDX-LINEAR-SCAN" in Figures 9 and 11): full distances via the
//!   auto-vectorizing PDX kernels, no pruning.
//! * [`linear_scan_nary`] — the horizontal scan; with
//!   [`KernelVariant::Simd`] this is the FAISS/USearch stand-in, with
//!   [`KernelVariant::Scalar`] the Scikit-learn stand-in.

use crate::collection::{PdxCollection, SearchBlock};
use crate::distance::Metric;
use crate::heap::{KnnHeap, Neighbor};
use crate::kernels::nary::{nary_distance, KernelVariant};
use crate::kernels::pdx::pdx_scan;
use crate::layout::NaryMatrix;

/// Exhaustive k-NN over a PDX collection.
pub fn linear_scan_pdx(
    coll: &PdxCollection,
    query: &[f32],
    k: usize,
    metric: Metric,
) -> Vec<Neighbor> {
    let blocks: Vec<&SearchBlock> = coll.blocks.iter().collect();
    linear_scan_blocks(&blocks, query, k, metric)
}

/// Exhaustive k-NN over an explicit list of PDX blocks (IVF probes a
/// subset — this is the "IVF_FLAT with PDX kernels" baseline).
pub fn linear_scan_blocks(
    blocks: &[&SearchBlock],
    query: &[f32],
    k: usize,
    metric: Metric,
) -> Vec<Neighbor> {
    let mut heap = KnnHeap::new(k);
    let mut distances: Vec<f32> = Vec::new();
    for block in blocks {
        if block.is_empty() {
            continue;
        }
        distances.resize(block.len(), 0.0);
        pdx_scan(metric, &block.pdx, query, &mut distances);
        for (i, &d) in distances.iter().enumerate() {
            heap.push(block.row_ids[i], d);
        }
    }
    heap.into_sorted()
}

/// Exhaustive k-NN over a horizontal collection with the chosen kernel
/// tier. Vector `i` is reported with id `i`.
pub fn linear_scan_nary(
    nary: &NaryMatrix,
    query: &[f32],
    k: usize,
    metric: Metric,
    variant: KernelVariant,
) -> Vec<Neighbor> {
    assert_eq!(query.len(), nary.dims(), "query dimensionality mismatch");
    let mut heap = KnnHeap::new(k);
    for (i, row) in nary.rows().enumerate() {
        heap.push(i as u64, nary_distance(metric, variant, query, row));
    }
    heap.into_sorted()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::distance_scalar;

    fn rows(n: usize, d: usize) -> Vec<f32> {
        (0..n * d)
            .map(|i| ((i * 29 % 83) as f32) * 0.3 - 10.0)
            .collect()
    }

    fn brute(rows: &[f32], d: usize, q: &[f32], k: usize, metric: Metric) -> Vec<u64> {
        let mut heap = KnnHeap::new(k);
        for (i, row) in rows.chunks_exact(d).enumerate() {
            heap.push(i as u64, distance_scalar(metric, q, row));
        }
        heap.into_sorted().iter().map(|n| n.id).collect()
    }

    #[test]
    fn all_layouts_agree_with_brute_force() {
        let (n, d, k) = (211, 19, 7);
        let data = rows(n, d);
        let q: Vec<f32> = (0..d).map(|i| (i as f32).sin()).collect();
        for metric in [Metric::L2, Metric::L1, Metric::NegativeIp] {
            let want = brute(&data, d, &q, k, metric);
            let coll = PdxCollection::from_rows_partitioned(&data, n, d, 50, 16);
            let got_pdx: Vec<u64> = linear_scan_pdx(&coll, &q, k, metric)
                .iter()
                .map(|x| x.id)
                .collect();
            assert_eq!(got_pdx, want, "pdx {metric:?}");

            let nary = NaryMatrix::from_rows(&data, n, d);
            for variant in [
                KernelVariant::Scalar,
                KernelVariant::Unrolled,
                KernelVariant::Simd,
            ] {
                let got: Vec<u64> = linear_scan_nary(&nary, &q, k, metric, variant)
                    .iter()
                    .map(|x| x.id)
                    .collect();
                assert_eq!(got, want, "nary {metric:?} {variant:?}");
            }
        }
    }

    #[test]
    fn subset_of_blocks_restricts_candidates() {
        let (n, d) = (40, 5);
        let data = rows(n, d);
        let coll = PdxCollection::from_rows_partitioned(&data, n, d, 10, 4);
        let blocks: Vec<&SearchBlock> = coll.blocks[..2].iter().collect();
        let q = vec![0.0f32; d];
        let got = linear_scan_blocks(&blocks, &q, 100, Metric::L2);
        assert_eq!(got.len(), 20);
        assert!(got.iter().all(|r| r.id < 20));
    }
}
