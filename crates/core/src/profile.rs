//! Phase timers and work counters for the Table 7 query-runtime
//! breakdown.
//!
//! The paper splits an IVF query into four components: query
//! preprocessing, finding the nearest buckets, bound evaluation and
//! distance calculation. [`SearchProfile`] accumulates nanoseconds per
//! phase plus the scan's work counters (blocks and vectors visited,
//! dimension-values scanned vs total); the profiled search path is a
//! separate monomorphization so the unprofiled hot path carries zero
//! timer overhead.
//!
//! The pruning-effectiveness ratio the paper reports (`dims_pruned /
//! dims_total`) is derived here, once — benches and the observability
//! layer both read [`SearchProfile::pruning_ratio`] instead of
//! recomputing it.

use std::time::Instant;

/// Accumulated per-phase runtime and work counters of one or more
/// queries (times in nanoseconds).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchProfile {
    /// Query transformation (rotation) + visit-order computation.
    pub preprocess_ns: u64,
    /// Distance of the query to IVF centroids + bucket ranking.
    pub find_buckets_ns: u64,
    /// Pruning-bound evaluation (the survival-test loops).
    pub bounds_ns: u64,
    /// Distance-kernel accumulation.
    pub distance_ns: u64,
    /// Blocks visited by the scan.
    pub blocks: u64,
    /// Vectors touched at least once.
    pub vectors: u64,
    /// Dimension-values a full scan of the visited blocks would read.
    pub dims_total: u64,
    /// Dimension-values actually read before pruning cut in.
    pub dims_scanned: u64,
}

impl SearchProfile {
    /// Dimension-values the pruner skipped.
    pub fn dims_pruned(&self) -> u64 {
        self.dims_total.saturating_sub(self.dims_scanned)
    }

    /// Fraction of dimension-values pruned, in `[0, 1]` (0 when no
    /// work was recorded): the paper's pruning-power ratio,
    /// `dims_pruned / dims_total`.
    pub fn pruning_ratio(&self) -> f64 {
        if self.dims_total == 0 {
            0.0
        } else {
            self.dims_pruned() as f64 / self.dims_total as f64
        }
    }
}

/// Starts a phase timer in the profiled monomorphization of a scan;
/// compiles to nothing in the unprofiled one.
#[inline(always)]
pub(crate) fn timer<const PROFILE: bool>() -> Option<Instant> {
    PROFILE.then(Instant::now)
}

/// Charges the time since `timer` returned `t` to `slot`.
#[inline(always)]
pub(crate) fn lap(slot: &mut u64, t: Option<Instant>) {
    if let Some(t0) = t {
        *slot += t0.elapsed().as_nanos() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_profile_has_zero_ratio() {
        assert_eq!(SearchProfile::default().pruning_ratio(), 0.0);
    }

    #[test]
    fn pruning_ratio_is_derived() {
        let p = SearchProfile {
            dims_total: 1000,
            dims_scanned: 100,
            ..SearchProfile::default()
        };
        assert_eq!(p.dims_pruned(), 900);
        assert!((p.pruning_ratio() - 0.9).abs() < 1e-12);
    }
}
