//! Vector storage layouts.
//!
//! The paper's PDX layout (Figures 1 and 3), plus the SQ8 codec of the
//! PDX block. (The horizontal layouts it is measured against are plain
//! row-major rows and ADSampling's dual-block split of them: no layer
//! serves them, so they live with the baselines in `pdx-bench`.)
//!
//! * [`PdxBlock`] — the proposed **PDX** layout: vectors are tiled into
//!   groups of `G` (default 64) and each group stores its values
//!   dimension-major, so a distance kernel sweeps one dimension across
//!   `G` vectors in a tight, dependence-free loop. `PdxBlock<u8>` is the
//!   same layout holding SQ8 codes, one byte per value.
//! * [`Sq8Quantizer`] — the per-dimension SQ8 codec: it encodes rows
//!   into a `PdxBlock<u8>` in its storage order and reads such a block
//!   back in row dimensions.
//! * [`PayloadWriter`] / [`Payload`] — the payload memory of PDX blocks:
//!   one shared arena per deployment, on 2 MiB pages where it is large
//!   enough (module `payload`).

mod payload;
mod pdx;
mod quantized;

pub use payload::{Payload, PayloadWriter, HUGE_PAGE};
pub use pdx::{PdxBlock, PdxGroup};
pub use quantized::{Sq8Quantizer, Sq8Query};

/// Where vector `vec` of a group-tiled buffer lives: `(offset of its
/// group, lanes of that group, lane inside it)` — value `d` of the vector
/// is `data[offset + d * lanes + lane]`. The one statement of the tiling
/// arithmetic behind the block and the survivor kernels; callers
/// bound `vec < n_vectors`.
#[inline(always)]
pub(crate) fn locate(
    n_vectors: usize,
    group_size: usize,
    n_dims: usize,
    vec: usize,
) -> (usize, usize, usize) {
    let lane = vec % group_size;
    let start_vector = vec - lane;
    let lanes = group_size.min(n_vectors - start_vector);
    (start_vector * n_dims, lanes, lane)
}
