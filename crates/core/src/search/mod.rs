//! Search algorithms over every layout.
//!
//! * [`pdxearch`] — the PDXearch framework (§4): block-by-block,
//!   dimension-by-dimension pruned search with START/WARMUP/PRUNE phases,
//!   written once over the [`ScanBlock`] element trait (`f32` blocks and
//!   SQ8 code blocks are its two impls).
//!   The paper's PDX linear scan is [`pdxearch`] under a pruner that
//!   never prunes ([`PdxBond::linear`](crate::bond::PdxBond::linear)):
//!   every tile stays on the START schedule.
//! * `linear` — the exhaustive horizontal scan (the paper's
//!   FAISS-like / Scikit-learn-like baselines), re-exported here as
//!   [`linear_scan_nary`].
//! * `horizontal` — the vector-at-a-time pruned search on ADSampling's
//!   dual-block horizontal layout (the SIMD-ADS / SCALAR-ADS baselines,
//!   with bound evaluation interleaved every Δd dimensions), re-exported
//!   as [`horizontal_pruned_search`] and friends.
//! * [`quantized`] — the two-phase SQ8 path: the SQ8 element and its
//!   candidate bound for [`pdxearch`], then an exact `f32` rerank.

mod horizontal;
mod linear;
#[allow(clippy::module_inception)]
mod pdxearch;
pub mod quantized;

pub use horizontal::{horizontal_linear_scan, horizontal_pruned_search, HorizontalBucket};
pub use linear::linear_scan_nary;
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
