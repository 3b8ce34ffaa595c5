//! Search algorithms over the PDX layout.
//!
//! * [`pdxearch`] — the PDXearch framework (§4): block-by-block,
//!   dimension-by-dimension pruned search with START/WARMUP/PRUNE phases,
//!   written once over the [`ScanBlock`] element trait (`f32` blocks and
//!   SQ8 code blocks are its two impls).
//!   The paper's PDX linear scan is [`pdxearch`] under a pruner that
//!   never prunes ([`PdxBond::linear`](crate::bond::PdxBond::linear)):
//!   every tile stays on the START schedule.
//! * [`quantized`] — the two-phase SQ8 path: the SQ8 element and its
//!   candidate bound for [`pdxearch`], then an exact `f32` rerank.
//!
//! The paper's horizontal baselines — the N-ary linear scan and the
//! vector-at-a-time pruned search on ADSampling's dual-block layout —
//! are served by no layer and live in `pdx-bench`'s `baselines` module.

#[allow(clippy::module_inception)]
mod pdxearch;
pub mod quantized;

pub use pdxearch::{pdxearch, pdxearch_band, ScanBlock};
pub use quantized::{sq8_rerank, Sq8Block, Sq8Bound, DEFAULT_REFINE};

pub use crate::kernels::{KernelIsa, KernelPolicy, KernelVariant};

use std::time::Instant;

/// Starts a phase timer in the traced monomorphization of a scan;
/// compiles to nothing in the untraced one.
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
