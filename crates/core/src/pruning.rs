//! The pruning abstraction PDXearch is generic over, plus the adaptive
//! checkpoint schedule (§4) and per-block auxiliary pruner data.
//!
//! A [`Pruner`] supplies three things:
//!
//! 1. a query transformation into the space the collection is stored in
//!    (identity for PDX-BOND, a rotation for ADSampling/BSA);
//! 2. an optional query-aware dimension visit order (PDX-BOND);
//! 3. a **branchless survival test**: per checkpoint, a small `Copy`
//!    state is computed once, and `slack(state, partial, aux) <=
//!    limit(state)` is a pure comparison evaluated over all candidates,
//!    a SIMD register of lanes at a time — never interleaved with distance
//!    accumulation (Issue #3 of §2.4).

use crate::distance::Metric;
pub use crate::kernels::lanes::Lane;
use crate::kernels::KernelPolicy;
use crate::stats::BlockStats;
use std::ops::Range;

/// How many dimensions PDXearch fetches between bound evaluations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepPolicy {
    /// Exponentially growing steps: fetch `start`, then `2·start`, then
    /// `4·start`, … dimensions (the paper's adaptive schedule, §4 and
    /// Figure 7).
    Adaptive {
        /// First step size (the paper starts at 2).
        start: usize,
    },
    /// Fixed-size steps (ADSampling/BSA's original Δd = 32 schedule).
    Fixed {
        /// Step size Δd.
        step: usize,
    },
}

impl Default for StepPolicy {
    fn default() -> Self {
        StepPolicy::Adaptive { start: 2 }
    }
}

/// Cumulative dimensions scanned at each bound evaluation, ending exactly
/// at `dims`.
///
/// ```
/// use pdx_core::pruning::{checkpoints, StepPolicy};
/// assert_eq!(checkpoints(StepPolicy::Adaptive { start: 2 }, 30), vec![2, 6, 14, 30]);
/// assert_eq!(checkpoints(StepPolicy::Fixed { step: 32 }, 96), vec![32, 64, 96]);
/// ```
pub fn checkpoints(policy: StepPolicy, dims: usize) -> Vec<usize> {
    let mut out = Vec::new();
    match policy {
        StepPolicy::Adaptive { start } => {
            let mut step = start.max(1);
            let mut at = 0usize;
            while at < dims {
                at = (at + step).min(dims);
                out.push(at);
                step *= 2;
            }
        }
        StepPolicy::Fixed { step } => {
            let step = step.max(1);
            let mut at = 0usize;
            while at < dims {
                at = (at + step).min(dims);
                out.push(at);
            }
        }
    }
    out
}

/// Default PRUNE-phase selection threshold: the fraction of a tile's
/// vectors below which PDXearch compacts the survivors and accumulates
/// only at their positions (the paper's sweet spot, Figure 10). The one
/// default behind `SearchOptions::selection_fraction`.
pub const DEFAULT_SELECTION_FRACTION: f32 = 0.20;

/// Vectors per PDXearch [`Tile`]: how often a scan re-reads the k-NN
/// threshold and re-decides between START and WARMUP/PRUNE. Measured,
/// not tuned per deployment: on the `flat_exact` shape (n = 50 000,
/// d = 128, 10 240-vector blocks) tiles of 4096 / 2048 / 1024 / 512 /
/// 256 gave 562 / 529 / 514 / 540 / 547 µs per query against 709 µs for
/// whole-block control flow — shorter tiles tighten the threshold sooner
/// but pay the per-tile bound passes more often.
pub const THRESHOLD_TILE: usize = 1024;

/// A run of whole vector groups inside one block: the unit of PDXearch's
/// control flow. Everything stored per block (dimension order, stats,
/// aux rows, row ids) is indexed by the block-relative `vectors` range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tile {
    /// Group indices of the tile within its block.
    pub groups: Range<usize>,
    /// Block-relative vector range the groups cover.
    pub vectors: Range<usize>,
}

/// Cuts a block of `n_vectors` vectors in groups of `group_size` into
/// tiles of at most [`THRESHOLD_TILE`] vectors, rounded down to whole
/// groups (one group when a group alone exceeds the tile).
///
/// ```
/// use pdx_core::pruning::tiles;
/// let t: Vec<_> = tiles(2065, 64).collect();
/// assert_eq!(t.len(), 3);
/// assert_eq!((t[0].groups.clone(), t[0].vectors.clone()), (0..16, 0..1024));
/// assert_eq!((t[2].groups.clone(), t[2].vectors.clone()), (32..33, 2048..2065));
/// ```
///
/// # Panics
/// Panics if `group_size == 0`.
pub fn tiles(n_vectors: usize, group_size: usize) -> impl Iterator<Item = Tile> {
    assert!(group_size > 0, "group size must be positive");
    let per_tile = (THRESHOLD_TILE / group_size).max(1) * group_size;
    (0..n_vectors).step_by(per_tile).map(move |v0| {
        let v1 = (v0 + per_tile).min(n_vectors);
        Tile {
            groups: v0 / group_size..v1.div_ceil(group_size),
            vectors: v0..v1,
        }
    })
}

/// Per-block auxiliary pruner data, laid out checkpoint-major so the
/// survival loop reads one contiguous row per checkpoint (e.g. BSA's
/// per-vector residual norms).
#[derive(Debug, Clone, PartialEq)]
pub struct BlockAux {
    /// The `dims_scanned` value of each stored checkpoint, ascending.
    pub checkpoint_dims: Vec<u32>,
    /// Vectors per checkpoint row (= block length).
    pub lanes: usize,
    /// `data[ckpt * lanes + vector]`.
    pub data: Vec<f32>,
}

impl BlockAux {
    /// Creates aux storage for the given checkpoint schedule.
    pub fn new(checkpoint_dims: Vec<u32>, lanes: usize) -> Self {
        let data = vec![0.0f32; checkpoint_dims.len() * lanes];
        Self {
            checkpoint_dims,
            lanes,
            data,
        }
    }

    /// The per-vector row for checkpoint index `ci`.
    pub fn row(&self, ci: usize) -> &[f32] {
        &self.data[ci * self.lanes..(ci + 1) * self.lanes]
    }

    /// Mutable row for checkpoint index `ci`.
    pub fn row_mut(&mut self, ci: usize) -> &mut [f32] {
        &mut self.data[ci * self.lanes..(ci + 1) * self.lanes]
    }

    /// Index of the checkpoint whose `dims_scanned` equals `dims`, if any.
    pub fn index_of(&self, dims: usize) -> Option<usize> {
        self.checkpoint_dims.binary_search(&(dims as u32)).ok()
    }
}

/// A dimension-pruning strategy pluggable into PDXearch (§4) and the
/// horizontal baseline search.
pub trait Pruner {
    /// Per-query state (transformed query plus any derived terms).
    type Query;

    /// Per-(block, checkpoint) state for the survival test. Kept `Copy`
    /// and tiny so it lives in registers during the test loop.
    type Checkpoint: Copy;

    /// Whether [`Pruner::slack`] consumes per-vector auxiliary data
    /// (BSA's residual norms). When `false`, PDXearch skips aux lookups.
    const NEEDS_AUX: bool = false;

    /// Short static name of the strategy (for engine-level `kind()`
    /// reporting and logs).
    fn name(&self) -> &'static str {
        "pruner"
    }

    /// The metric whose distances this pruner bounds.
    fn metric(&self) -> Metric;

    /// Whether a partial distance can rule a vector out at all. When
    /// `false` — a non-monotone metric, whose partial sums bound
    /// nothing, or a strategy that is a plain linear scan — PDXearch
    /// keeps every tile on the one-checkpoint START schedule and never
    /// asks for a bound.
    fn prunes(&self) -> bool {
        self.metric().is_monotonic()
    }

    /// Transforms a raw query into collection space.
    fn prepare_query(&self, query: &[f32]) -> Self::Query;

    /// Transforms a packed row-major batch of raw `dims`-sized queries,
    /// in order. Element `i` must equal `prepare_query` of query `i` bit
    /// for bit; a pruner whose transformation is a dense matrix product
    /// (BSA's PCA rotation) overrides this to rotate the whole batch in
    /// one tiled call, streaming the matrix once.
    fn prepare_queries(&self, packed: &[f32], dims: usize) -> Vec<Self::Query> {
        packed
            .chunks_exact(dims)
            .map(|q| self.prepare_query(q))
            .collect()
    }

    /// The query vector to feed the distance kernels.
    fn query_vector<'q>(&self, q: &'q Self::Query) -> &'q [f32];

    /// Writes the query-aware dimension visit order for a block into
    /// `perm`, or leaves it empty for storage order. `stats` carries the
    /// block's per-dimension means; `keys` is the sort's buffer, and
    /// `kernel` the scan's policy, which picks the sort's path (every
    /// path writes the same order).
    fn dim_order(
        &self,
        _q: &Self::Query,
        _stats: Option<&BlockStats>,
        _kernel: KernelPolicy,
        _keys: &mut Vec<u64>,
        perm: &mut Vec<u32>,
    ) {
        perm.clear();
    }

    /// Computes the survival-test state for one checkpoint.
    ///
    /// `dims_scanned` counts dimensions accumulated so far, `dims_total`
    /// is the full dimensionality, `threshold` the current k-th best
    /// distance.
    fn checkpoint(
        &self,
        q: &Self::Query,
        dims_scanned: usize,
        dims_total: usize,
        threshold: f32,
    ) -> Self::Checkpoint;

    /// The left side of the survival test, on one lane (`f32`) or on
    /// eight: what is compared with [`Pruner::limit`]. `aux` is the
    /// vector's value from the block's [`BlockAux`] row (0.0 when
    /// [`Pruner::NEEDS_AUX`] is `false`). Spell it with [`Lane`]'s `add` /
    /// `sub` / `mul` and never `fmadd`: each rounds like its `f32`
    /// namesake, so the eight-lane bound pass keeps exactly the vectors
    /// the one-lane test keeps; a fused step would round once where the
    /// one-lane expression rounds twice. Provided: the partial distance
    /// itself — the whole left side of a bound that only scales or shifts
    /// the threshold (PDX-BOND, ADSampling, the SQ8 bound).
    #[inline(always)]
    fn slack<L: Lane>(_cp: &Self::Checkpoint, partial: L, _aux: L) -> L {
        partial
    }

    /// The right side of the survival test: a vector survives while its
    /// [`Pruner::slack`] is at most this.
    fn limit(cp: &Self::Checkpoint) -> f32;

    /// Branch-free survival test: `true` keeps the candidate. A NaN on
    /// either side prunes it. Provided — a pruner states its bound once,
    /// as `slack` and `limit`.
    #[inline(always)]
    fn survives(cp: &Self::Checkpoint, partial: f32, aux: f32) -> bool {
        Self::slack(cp, partial, aux) <= Self::limit(cp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiles_partition_a_block_into_whole_groups() {
        for (n, group) in [
            (0usize, 64usize),
            (1, 64),
            (1023, 64),
            (1024, 64),
            (1025, 64),
            (10_240, 64),
            (2500, 100),
            (5000, 2048),
            (37, 1),
        ] {
            let all: Vec<Tile> = tiles(n, group).collect();
            let mut next_v = 0usize;
            let mut next_g = 0usize;
            for t in &all {
                assert_eq!(t.vectors.start, next_v, "n={n} group={group}");
                assert_eq!(t.groups.start, next_g);
                assert_eq!(t.vectors.start, t.groups.start * group);
                assert!(!t.vectors.is_empty());
                assert!(t.vectors.len() <= THRESHOLD_TILE.max(group));
                next_v = t.vectors.end;
                next_g = t.groups.end;
            }
            assert_eq!(next_v, n);
            assert_eq!(next_g, n.div_ceil(group));
        }
    }

    #[test]
    fn adaptive_checkpoints_double() {
        assert_eq!(
            checkpoints(StepPolicy::Adaptive { start: 2 }, 30),
            vec![2, 6, 14, 30]
        );
        assert_eq!(
            checkpoints(StepPolicy::Adaptive { start: 2 }, 100),
            vec![2, 6, 14, 30, 62, 100]
        );
        assert_eq!(
            checkpoints(StepPolicy::Adaptive { start: 1 }, 7),
            vec![1, 3, 7]
        );
    }

    #[test]
    fn fixed_checkpoints_step() {
        assert_eq!(
            checkpoints(StepPolicy::Fixed { step: 32 }, 96),
            vec![32, 64, 96]
        );
        assert_eq!(
            checkpoints(StepPolicy::Fixed { step: 32 }, 100),
            vec![32, 64, 96, 100]
        );
    }

    #[test]
    fn last_checkpoint_is_always_dims() {
        for dims in [1usize, 2, 5, 31, 32, 33, 960, 1536] {
            for policy in [
                StepPolicy::Adaptive { start: 2 },
                StepPolicy::Adaptive { start: 4 },
                StepPolicy::Fixed { step: 32 },
                StepPolicy::Fixed { step: 7 },
            ] {
                let cps = checkpoints(policy, dims);
                assert_eq!(*cps.last().unwrap(), dims, "{policy:?} dims={dims}");
                assert!(
                    cps.windows(2).all(|w| w[0] < w[1]),
                    "not strictly increasing"
                );
            }
        }
    }

    #[test]
    fn zero_start_is_clamped() {
        assert_eq!(
            checkpoints(StepPolicy::Adaptive { start: 0 }, 4),
            vec![1, 3, 4]
        );
        assert_eq!(checkpoints(StepPolicy::Fixed { step: 0 }, 3), vec![1, 2, 3]);
    }

    #[test]
    fn zero_dims_yields_empty_schedule() {
        // A degenerate 0-dimensional collection has no checkpoints at all;
        // callers must not assume `checkpoints(..).last()` exists for it.
        assert_eq!(
            checkpoints(StepPolicy::Adaptive { start: 2 }, 0),
            Vec::<usize>::new()
        );
        assert_eq!(
            checkpoints(StepPolicy::Fixed { step: 32 }, 0),
            Vec::<usize>::new()
        );
    }

    #[test]
    fn single_dimension_schedule() {
        for policy in [
            StepPolicy::Adaptive { start: 1 },
            StepPolicy::Adaptive { start: 2 },
            StepPolicy::Fixed { step: 1 },
            StepPolicy::Fixed { step: 32 },
        ] {
            assert_eq!(checkpoints(policy, 1), vec![1], "{policy:?}");
        }
    }

    #[test]
    fn first_step_larger_than_dims_collapses_to_one_checkpoint() {
        assert_eq!(
            checkpoints(StepPolicy::Adaptive { start: 64 }, 12),
            vec![12]
        );
        assert_eq!(checkpoints(StepPolicy::Fixed { step: 100 }, 12), vec![12]);
    }

    #[test]
    fn default_policy_is_the_papers_adaptive_start_2() {
        assert_eq!(StepPolicy::default(), StepPolicy::Adaptive { start: 2 });
    }

    #[test]
    fn aux_with_single_lane_block() {
        // Single-vector block: every checkpoint row has exactly one lane.
        let mut aux = BlockAux::new(vec![2, 6, 14], 1);
        aux.row_mut(0)[0] = 0.5;
        aux.row_mut(2)[0] = 1.5;
        assert_eq!(aux.row(0), &[0.5]);
        assert_eq!(aux.row(1), &[0.0]);
        assert_eq!(aux.row(2), &[1.5]);
        assert_eq!(aux.index_of(14), Some(2));
    }

    #[test]
    fn aux_rows_are_isolated() {
        let mut aux = BlockAux::new(vec![2, 6], 3);
        aux.row_mut(0).copy_from_slice(&[1.0, 2.0, 3.0]);
        aux.row_mut(1).copy_from_slice(&[4.0, 5.0, 6.0]);
        assert_eq!(aux.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(aux.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(aux.index_of(6), Some(1));
        assert_eq!(aux.index_of(5), None);
    }
}
