//! Flat partitions for index-less exact search (§6.5).
//!
//! The collection is split into equally sized horizontal partitions (at
//! most 10 240 vectors each in the paper) and stored in PDX. The larger
//! blocks sacrifice the tight 64-wide loops' register residency on the
//! accumulator array but give each dimension a long sequential stretch,
//! which lets PDX-BOND use the full "distance to means" order (the
//! highest-pruning-power criterion).

use pdx_core::collection::PdxCollection;
use pdx_core::DEFAULT_EXACT_BLOCK;

/// Flat PDX deployment of a collection for exact search. Queries go
/// through [`Deployment`](crate::Deployment) (any pruner) or
/// [`VectorIndex`](pdx_core::engine::VectorIndex) (the options' pruner);
/// the PDX linear scan (PDX-LINEAR-SCAN) is the same query under
/// [`PdxBond::linear`](pdx_core::bond::PdxBond::linear).
#[derive(Debug, Clone)]
pub struct FlatPdx {
    /// The partitioned collection.
    pub collection: PdxCollection,
}

impl FlatPdx {
    /// Partitions `rows` into blocks of at most `block_size` vectors.
    pub fn new(
        rows: &[f32],
        n_vectors: usize,
        dims: usize,
        block_size: usize,
        group_size: usize,
    ) -> Self {
        Self {
            collection: PdxCollection::from_rows_partitioned(
                rows, n_vectors, dims, block_size, group_size,
            ),
        }
    }

    /// Paper-default partitioning (blocks of 10 240, groups of 64).
    pub fn with_defaults(rows: &[f32], n_vectors: usize, dims: usize) -> Self {
        Self::new(
            rows,
            n_vectors,
            dims,
            DEFAULT_EXACT_BLOCK,
            pdx_core::DEFAULT_GROUP_SIZE,
        )
    }

    /// Wraps an already-partitioned collection (a persisted container, a
    /// sealed segment of a mutable store) as a flat deployment.
    pub fn from_collection(collection: PdxCollection) -> Self {
        Self { collection }
    }

    /// The row-major `f32` rows of all partitions in storage order (the
    /// inverse of [`FlatPdx::new`]; a mutable store's compaction uses
    /// this to re-partition surviving rows).
    pub fn to_rows(&self) -> Vec<f32> {
        let mut rows = Vec::with_capacity(self.collection.total_vectors() * self.collection.dims);
        for block in &self.collection.blocks {
            rows.extend_from_slice(&block.pdx.to_rows());
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Deployment;
    use pdx_core::bond::PdxBond;
    use pdx_core::distance::Metric;
    use pdx_core::engine::SearchOptions;
    use pdx_core::visit_order::VisitOrder;

    fn rows(n: usize, d: usize) -> Vec<f32> {
        (0..n * d)
            .map(|i| ((i * 131 % 997) as f32) * 0.01)
            .collect()
    }

    #[test]
    fn bond_search_is_exact_over_partitions() {
        let (n, d, k) = (2500, 12, 10);
        let data = rows(n, d);
        let flat = FlatPdx::new(&data, n, d, 700, 64);
        assert_eq!(flat.collection.blocks.len(), 4);
        let q: Vec<f32> = (0..d).map(|i| (i as f32).sin() * 3.0).collect();
        let bond = PdxBond::new(Metric::L2, VisitOrder::DistanceToMeans);
        let got = flat.search_with(&bond, &q, &SearchOptions::new(k));
        let want = flat.search_with(&PdxBond::linear(Metric::L2), &q, &SearchOptions::new(k));
        // The periodic test data produces exactly tied distances whose
        // order depends on FP accumulation order — compare sets.
        let mut got_ids: Vec<u64> = got.iter().map(|x| x.id).collect();
        let mut want_ids: Vec<u64> = want.iter().map(|x| x.id).collect();
        got_ids.sort_unstable();
        want_ids.sort_unstable();
        assert_eq!(got_ids, want_ids);
    }

    #[test]
    fn defaults_build_expected_block_count() {
        let (n, d) = (25_000, 4);
        let data = rows(n, d);
        let flat = FlatPdx::with_defaults(&data, n, d);
        assert_eq!(flat.collection.blocks.len(), 25_000usize.div_ceil(10_240));
    }
}

#[cfg(test)]
mod batch_tests {
    use super::*;
    use crate::Deployment;
    use pdx_core::bond::PdxBond;
    use pdx_core::distance::Metric;
    use pdx_core::engine::SearchOptions;
    use pdx_core::visit_order::VisitOrder;

    #[test]
    fn batch_matches_sequential() {
        let (n, d, k) = (1200, 8, 5);
        let data: Vec<f32> = (0..n * d).map(|i| ((i * 37 % 113) as f32) * 0.1).collect();
        let queries: Vec<f32> = (0..7 * d).map(|i| ((i * 53 % 97) as f32) * 0.1).collect();
        let flat = FlatPdx::new(&data, n, d, 300, 32);
        let bond = PdxBond::new(Metric::L2, VisitOrder::DistanceToMeans);
        let opts = SearchOptions::new(k).with_threads(4);
        let batch = flat.search_batch_with(&bond, &queries, &opts);
        for (qi, got) in batch.iter().enumerate() {
            let want = flat.search_with(&bond, &queries[qi * d..(qi + 1) * d], &opts);
            assert_eq!(got, &want, "query {qi}");
        }
    }

    #[test]
    fn batch_with_more_threads_than_queries() {
        let data: Vec<f32> = (0..40).map(|i| i as f32).collect();
        let flat = FlatPdx::new(&data, 10, 4, 5, 4);
        let bond = PdxBond::new(Metric::L2, VisitOrder::Sequential);
        let opts = SearchOptions::new(2).with_threads(64);
        let res = flat.search_batch_with(&bond, &data[..4], &opts);
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].len(), 2);
    }
}
