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
    /// Total across phases.
    pub fn total_ns(&self) -> u64 {
        self.preprocess_ns + self.find_buckets_ns + self.bounds_ns + self.distance_ns
    }

    /// Adds another profile's counters into this one.
    pub fn merge(&mut self, other: &SearchProfile) {
        self.preprocess_ns += other.preprocess_ns;
        self.find_buckets_ns += other.find_buckets_ns;
        self.bounds_ns += other.bounds_ns;
        self.distance_ns += other.distance_ns;
        self.blocks += other.blocks;
        self.vectors += other.vectors;
        self.dims_total += other.dims_total;
        self.dims_scanned += other.dims_scanned;
    }

    /// Percentage share of one phase (0–100), for table rendering.
    pub fn share(&self, phase_ns: u64) -> f64 {
        let total = self.total_ns();
        if total == 0 {
            0.0
        } else {
            phase_ns as f64 * 100.0 / total as f64
        }
    }

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
    fn totals_and_shares() {
        let p = SearchProfile {
            preprocess_ns: 10,
            find_buckets_ns: 20,
            bounds_ns: 30,
            distance_ns: 40,
            ..SearchProfile::default()
        };
        assert_eq!(p.total_ns(), 100);
        assert_eq!(p.share(p.distance_ns), 40.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = SearchProfile {
            preprocess_ns: 1,
            find_buckets_ns: 2,
            bounds_ns: 3,
            distance_ns: 4,
            blocks: 5,
            vectors: 6,
            dims_total: 100,
            dims_scanned: 40,
        };
        a.merge(&a.clone());
        assert_eq!(a.total_ns(), 20);
        assert_eq!(a.blocks, 10);
        assert_eq!(a.dims_total, 200);
        assert_eq!(a.dims_scanned, 80);
    }

    #[test]
    fn empty_profile_has_zero_share() {
        let p = SearchProfile::default();
        assert_eq!(p.share(0), 0.0);
        assert_eq!(p.pruning_ratio(), 0.0);
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
