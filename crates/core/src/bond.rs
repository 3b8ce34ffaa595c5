//! PDX-BOND (§5): the exact, transformation-free DCO optimizer.
//!
//! PDX-BOND prunes with the *partially computed distance itself* — the
//! cheapest possible lower bound, valid because L2 and L1 partial sums
//! only grow. It needs no preprocessing of the collection (works on raw
//! floats, making it plug-and-play for frequently updated stores) and
//! never trades recall: a pruned vector provably cannot enter the k-NN.
//!
//! What makes it fast despite the weak bound is the PDXearch START phase
//! (a tight threshold from the first tile) plus a query-aware dimension
//! visit order ([`VisitOrder`]) that grows the partial distance as fast
//! as possible.

use crate::distance::Metric;
use crate::kernels::KernelPolicy;
use crate::pruning::Pruner;
use crate::stats::BlockStats;
use crate::visit_order::{dimension_permutation, VisitOrder};

/// The PDX-BOND pruner.
///
/// ```
/// use pdx_core::{PdxBond, Metric, Pruner, SearchOptions, VisitOrder};
/// use pdx_core::collection::PdxCollection;
/// use pdx_core::search::pdxearch;
///
/// // Eight 4-dim vectors in two PDX blocks; query equals vector 5.
/// let rows: Vec<f32> = (0..32).map(|i| (i % 7) as f32).collect();
/// let coll = PdxCollection::from_rows_partitioned(&rows, 8, 4, 4, 64);
/// let bond = PdxBond::new(Metric::L2, VisitOrder::DistanceToMeans);
/// let q = bond.prepare_query(&rows[20..24]);
/// let hits = pdxearch(&bond, &q, &coll.blocks, &SearchOptions::new(1), None, None);
/// assert_eq!(hits[0].id, 5);
/// assert_eq!(hits[0].distance, 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct PdxBond {
    metric: Metric,
    /// `None`: the member of the family that never evaluates its bound.
    order: Option<VisitOrder>,
}

/// Query state: PDX-BOND uses the raw query unchanged.
#[derive(Debug, Clone)]
pub struct BondQuery {
    query: Vec<f32>,
}

impl PdxBond {
    /// Creates a PDX-BOND pruner.
    ///
    /// # Panics
    /// Panics if `metric` is not monotonic (partial-distance pruning is
    /// unsound for inner product).
    pub fn new(metric: Metric, order: VisitOrder) -> Self {
        assert!(
            metric.is_monotonic(),
            "PDX-BOND requires a monotonic metric (L2/L1); {metric:?} is not"
        );
        Self {
            metric,
            order: Some(order),
        }
    }

    /// The degenerate bond that never prunes: PDXearch then keeps every
    /// tile on the START schedule, which *is* the PDX linear scan — in
    /// storage order, exact, and valid for any metric, inner product
    /// included.
    pub fn linear(metric: Metric) -> Self {
        Self {
            metric,
            order: None,
        }
    }
}

impl Pruner for PdxBond {
    type Query = BondQuery;
    type Checkpoint = f32;

    fn name(&self) -> &'static str {
        match self.order {
            Some(_) => "bond",
            None => "linear",
        }
    }

    fn metric(&self) -> Metric {
        self.metric
    }

    fn prunes(&self) -> bool {
        self.order.is_some()
    }

    fn prepare_query(&self, query: &[f32]) -> BondQuery {
        BondQuery {
            query: query.to_vec(),
        }
    }

    fn query_vector<'q>(&self, q: &'q BondQuery) -> &'q [f32] {
        &q.query
    }

    fn dim_order(
        &self,
        q: &BondQuery,
        stats: Option<&BlockStats>,
        kernel: KernelPolicy,
        keys: &mut Vec<u64>,
        perm: &mut Vec<u32>,
    ) {
        let order = self.order.unwrap_or(VisitOrder::Sequential);
        let means = stats.map(|s| s.means.as_slice());
        dimension_permutation(order, &q.query, means, kernel, keys, perm);
    }

    fn checkpoint(
        &self,
        _q: &BondQuery,
        _dims_scanned: usize,
        _dims_total: usize,
        threshold: f32,
    ) -> f32 {
        threshold
    }

    #[inline(always)]
    fn limit(cp: &f32) -> f32 {
        *cp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The visit order `bond` writes for one block (empty = storage order).
    fn order(bond: &PdxBond, q: &BondQuery, stats: Option<&BlockStats>) -> Vec<u32> {
        let mut perm = vec![7];
        bond.dim_order(q, stats, KernelPolicy::Auto, &mut Vec::new(), &mut perm);
        perm
    }

    #[test]
    fn survives_is_partial_vs_threshold() {
        assert!(PdxBond::survives(&10.0, 9.9, 0.0));
        assert!(PdxBond::survives(&10.0, 10.0, 0.0));
        assert!(!PdxBond::survives(&10.0, 10.1, 0.0));
    }

    #[test]
    fn infinite_threshold_never_prunes() {
        assert!(PdxBond::survives(&f32::INFINITY, f32::MAX, 0.0));
    }

    #[test]
    fn query_passes_through_unchanged() {
        let bond = PdxBond::new(Metric::L2, VisitOrder::Sequential);
        let q = bond.prepare_query(&[1.0, 2.0, 3.0]);
        assert_eq!(bond.query_vector(&q), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn sequential_order_yields_no_permutation() {
        let bond = PdxBond::new(Metric::L2, VisitOrder::Sequential);
        let q = bond.prepare_query(&[1.0, 2.0]);
        assert!(order(&bond, &q, None).is_empty());
    }

    #[test]
    fn means_order_uses_block_stats() {
        let bond = PdxBond::new(Metric::L2, VisitOrder::DistanceToMeans);
        let q = bond.prepare_query(&[0.0, 0.0, 0.0]);
        let stats = BlockStats {
            means: vec![1.0, 5.0, 3.0],
            variances: vec![0.0; 3],
        };
        let perm = order(&bond, &q, Some(&stats));
        assert_eq!(perm, vec![1, 2, 0]);
    }

    #[test]
    fn linear_never_prunes_and_takes_any_metric() {
        let linear = PdxBond::linear(Metric::NegativeIp);
        assert!(!linear.prunes());
        assert!(PdxBond::new(Metric::L2, VisitOrder::Sequential).prunes());
        let stats = BlockStats {
            means: vec![1.0, 5.0],
            variances: vec![0.0; 2],
        };
        let q = linear.prepare_query(&[0.0, 0.0]);
        assert!(order(&linear, &q, Some(&stats)).is_empty());
    }

    #[test]
    #[should_panic(expected = "monotonic")]
    fn rejects_inner_product() {
        let _ = PdxBond::new(Metric::NegativeIp, VisitOrder::Sequential);
    }
}
