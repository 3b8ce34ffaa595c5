//! The exhaustive horizontal scan, a non-pruning baseline of the paper:
//! [`linear_scan_nary`] with [`KernelVariant::Simd`] is the
//! FAISS/USearch stand-in, with [`KernelVariant::Scalar`] the
//! Scikit-learn stand-in. (The PDX linear scan, "PDX-LINEAR-SCAN" in
//! Figures 9 and 11, is [`pdxearch`](super::pdxearch) under
//! [`PdxBond::linear`](crate::bond::PdxBond::linear).)

use crate::distance::Metric;
use crate::heap::{KnnHeap, Neighbor};
use crate::kernels::nary::{nary_distance, KernelVariant};
use crate::layout::NaryMatrix;

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
    use crate::bond::PdxBond;
    use crate::collection::{PdxCollection, SearchBlock};
    use crate::distance::distance_scalar;
    use crate::engine::SearchOptions;
    use crate::pruning::Pruner;
    use crate::search::pdxearch;

    /// The PDX linear scan: PDXearch under the bond that never prunes.
    fn pdx_linear(blocks: &[SearchBlock], q: &[f32], k: usize, metric: Metric) -> Vec<u64> {
        let linear = PdxBond::linear(metric);
        let opts = SearchOptions::new(k);
        let found = pdxearch(&linear, &linear.prepare_query(q), blocks, &opts, None, None);
        found.iter().map(|x| x.id).collect()
    }

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
            assert_eq!(
                pdx_linear(&coll.blocks, &q, k, metric),
                want,
                "pdx {metric:?}"
            );

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
        let q = vec![0.0f32; d];
        let got = pdx_linear(&coll.blocks[..2], &q, 100, Metric::L2);
        assert_eq!(got.len(), 20);
        assert!(got.iter().all(|&id| id < 20));
    }
}
