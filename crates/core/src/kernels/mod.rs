//! Distance kernels for every layout the paper evaluates.
//!
//! * [`pdx`] — the multiple-vectors-at-a-time kernels on PDX groups
//!   (Algorithm 1): plain scalar Rust whose inner loop auto-vectorizes,
//!   with per-lane independent accumulators and no reduction step.
//! * [`lanes`] — the same loop as one explicit-SIMD nest (dense over a
//!   range of groups for one query or a block of a band's, and survivor
//!   form), generic over a lane-width
//!   generic vector type — 16 lanes of AVX-512, 8 of AVX2 or NEON, and
//!   a checked portable one of any width — the stored element (`f32` |
//!   SQ8 code) and the metric step; beside it the bound nest, a pruner's
//!   survival test one register of lanes a compare.
//! * [`nary`] — horizontal kernels: the single-accumulator scalar
//!   baseline, the unrolled multi-accumulator variant, and the explicit
//!   AVX2+FMA SIMD kernels that stand in for SimSIMD/FAISS (Table 4's
//!   competitor), selected at runtime.
//! * [`sq8`] — the quantized mirror of the PDX kernels on SQ8 `u8`
//!   blocks: per-dimension codec parameters hoist out of the lane loop.
//! * [`dispatch`] — the runtime kernel-selection layer: [`KernelPolicy`]
//!   (one knob steering vertical f32, vertical SQ8, and horizontal
//!   kernels), cached ISA detection, and the `PDX_KERNEL` env override.
//!
//! The vertical kernels ([`pdx`], [`sq8`]) run either their scalar lane
//! loops or the [`lanes`] nest at the resolved ISA's lane type, and the
//! two are **bit-identical** at any width (one metric-step source per element; see the
//! invariant note in [`pdx`]); the policy is therefore a pure
//! performance knob. Both read a [`PdxBlock`] of their element through
//! one view, and each operation is one function taking the policy last:
//! one group is the group range `g..g + 1`, and [`pdx_scan`] /
//! [`sq8_scan`] are the dense kernel over every group at
//! [`KernelPolicy::Auto`].

use crate::layout::{PdxBlock, PdxGroup};
use lanes::Stored;
use std::ops::Range;

pub mod argsort;
pub mod dispatch;
pub mod lanes;
pub mod nary;
pub mod pdx;
pub mod sq8;

pub use dispatch::{active_kernel_isa, detected_isa, KernelIsa, KernelPolicy};
pub use nary::{nary_distance, nary_l2_bounded, simd_available, KernelVariant};
pub use pdx::{
    pdx_accumulate_band, pdx_accumulate_groups, pdx_accumulate_positions, pdx_accumulate_survivors,
    pdx_scan, survival_bits, DimSel,
};
pub use sq8::{sq8_accumulate_groups, sq8_accumulate_survivors, sq8_distance_scalar, sq8_scan};

/// A group-tiled buffer as the dense and survivor nests see it: a whole
/// [`PdxBlock`] of either element, or one group viewed as a single-group
/// block. A dense call
/// names a range of its groups ([`Tiled::zip_groups`]). Survivor
/// positions index its vectors; [`Tiled::locate`] turns one into the
/// offset of its first value and the stride between its dimensions, so
/// one kernel call serves survivors in any number of groups.
#[derive(Clone, Copy)]
struct Tiled<'a, T> {
    data: &'a [T],
    n_vectors: usize,
    group_size: usize,
    n_dims: usize,
}

impl<'a, T: Stored> Tiled<'a, T> {
    /// The view of a block's buffer.
    fn of(b: &'a PdxBlock<T>) -> Self {
        Self {
            data: b.as_slice(),
            n_vectors: b.len(),
            group_size: b.group_size(),
            n_dims: b.dims(),
        }
    }

    /// One group (`data[dim * lanes + lane]`) as a single-group block.
    fn of_group(g: &PdxGroup<'a, T>) -> Self {
        let group_size = g.lanes.max(1);
        Self {
            data: g.data,
            n_vectors: g.lanes,
            group_size,
            n_dims: g.data.len() / group_size,
        }
    }

    /// Validates once what every load of a kernel call relies on:
    /// `positions` index stored vectors and `acc` pairs with them.
    fn check_positions(&self, positions: &[u32], acc_len: usize) {
        assert_eq!(
            acc_len,
            positions.len(),
            "one accumulator per survivor required"
        );
        assert!(
            positions.iter().all(|&p| (p as usize) < self.n_vectors),
            "survivor position exceeds the stored vectors"
        );
    }

    /// Number of groups, the partial tail group included.
    fn n_groups(&self) -> usize {
        self.n_vectors.div_ceil(self.group_size)
    }

    /// Validates once what a dense kernel call relies on: `groups` are
    /// groups of this buffer and `acc` holds one accumulator per vector
    /// they cover.
    fn check_groups(&self, groups: &Range<usize>, acc_len: usize) {
        assert!(groups.start <= groups.end, "group range is reversed");
        assert!(
            groups.end <= self.n_groups(),
            "group range exceeds the block"
        );
        let vectors = |groups: usize| (groups * self.group_size).min(self.n_vectors);
        let covered = vectors(groups.end) - vectors(groups.start);
        assert_eq!(acc_len, covered, "one accumulator per lane required");
    }

    /// Each group of `groups` as `(its buffer, its accumulators in each of
    /// the `Q` arrays of `acc`)`; the lane count is the accumulators'
    /// length, short for a partial tail group. [`Tiled::check_groups`]
    /// must have passed for `groups` and each array.
    #[inline(always)]
    fn zip_groups<'b, const Q: usize>(
        &self,
        groups: Range<usize>,
        acc: [&'b mut [f32]; Q],
    ) -> impl Iterator<Item = (&'a [T], [&'b mut [f32]; Q])> {
        let (data, per_group, n_dims) = (self.data, self.group_size * self.n_dims, self.n_dims);
        let mut chunks = acc.map(|acc| acc.chunks_mut(self.group_size));
        groups.map(move |g| {
            let acc = chunks
                .each_mut()
                .map(|c| c.next().expect("one accumulator per lane"));
            (&data[g * per_group..][..acc[0].len() * n_dims], acc)
        })
    }

    /// `(offset of dimension 0, stride between dimensions)` of vector
    /// `pos`; dimension `d` of it lives at `offset + d * stride`, inside
    /// `data` for every `pos < n_vectors` and `d < n_dims`.
    #[inline(always)]
    fn locate(&self, pos: usize) -> (usize, usize) {
        let (base, lanes, lane) =
            crate::layout::locate(self.n_vectors, self.group_size, self.n_dims, pos);
        (base + lane, lanes)
    }

    /// [`Tiled::locate`] of one pass of up to `N` survivors (`pos` is
    /// non-empty). A short pass is padded with copies of its first
    /// survivor, so a SIMD kernel can run all `N` lanes on valid loads
    /// and simply not store the padding.
    #[inline(always)]
    fn locate_pass<const N: usize>(&self, pos: &[u32]) -> [(usize, usize); N] {
        std::array::from_fn(|k| self.locate(pos[if k < pos.len() { k } else { 0 }] as usize))
    }
}
