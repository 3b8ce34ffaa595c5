//! The N-ary + Gather kernel (Figure 3 rightmost, Figure 12).
//!
//! Instead of *storing* vectors in PDX, one could keep the horizontal
//! layout and transpose 64-vector tiles on the fly before running the
//! PDX kernel. The paper shows this is never profitable: the gather adds
//! µops and memory stalls that exceed the PDX kernel's gains. This module
//! implements that strategy (a software strided gather — portable
//! equivalent of the AVX-512 `vgatherdps` tile build) so the claim can be
//! reproduced, including a phase-split timing variant for Figure 12's
//! breakdown.

use crate::distance::Metric;
use crate::kernels::pdx::{pdx_accumulate, DimSel};
use crate::kernels::KernelPolicy;
use crate::layout::{NaryMatrix, PdxGroup};
use std::time::Instant;

/// Tile width used for the on-the-fly transposition.
pub const GATHER_TILE: usize = 64;

/// Transposes rows `[v0, v0+lanes)` of a horizontal collection into a
/// dimension-major tile (`tile[d * lanes + l]`).
#[inline]
fn transpose_tile(nary: &NaryMatrix, v0: usize, lanes: usize, tile: &mut [f32]) {
    let d = nary.dims();
    debug_assert!(tile.len() >= d * lanes);
    for l in 0..lanes {
        let row = nary.row(v0 + l);
        // Strided scatter into the tile: the "gather" cost being measured.
        for (dim, &val) in row.iter().enumerate() {
            tile[dim * lanes + l] = val;
        }
    }
}

/// Full scan of a horizontal collection via on-the-fly transposition +
/// the PDX kernel.
///
/// # Panics
/// Panics if `out.len() != nary.len()` or the query width differs.
pub fn gather_scan(metric: Metric, nary: &NaryMatrix, query: &[f32], out: &mut [f32]) {
    assert_eq!(out.len(), nary.len(), "one output per vector required");
    assert_eq!(query.len(), nary.dims(), "query dimensionality mismatch");
    let d = nary.dims();
    let mut tile = vec![0.0f32; d * GATHER_TILE];
    let mut v0 = 0usize;
    while v0 < nary.len() {
        let lanes = GATHER_TILE.min(nary.len() - v0);
        transpose_tile(nary, v0, lanes, &mut tile);
        let group = PdxGroup {
            data: &tile[..d * lanes],
            lanes,
            start_vector: v0,
        };
        let acc = &mut out[v0..v0 + lanes];
        acc.fill(0.0);
        pdx_accumulate(
            metric,
            &group,
            query,
            DimSel::Range(0..d),
            acc,
            KernelPolicy::Auto,
        );
        v0 += lanes;
    }
}

/// Like [`gather_scan`] but returns `(transpose_ns, compute_ns)` so the
/// Figure 12 harness can split the gather overhead from the distance
/// computation.
pub fn gather_scan_split_timing(
    metric: Metric,
    nary: &NaryMatrix,
    query: &[f32],
    out: &mut [f32],
) -> (u64, u64) {
    assert_eq!(out.len(), nary.len(), "one output per vector required");
    let d = nary.dims();
    let mut tile = vec![0.0f32; d * GATHER_TILE];
    let (mut t_ns, mut c_ns) = (0u64, 0u64);
    let mut v0 = 0usize;
    while v0 < nary.len() {
        let lanes = GATHER_TILE.min(nary.len() - v0);
        let t0 = Instant::now();
        transpose_tile(nary, v0, lanes, &mut tile);
        t_ns += t0.elapsed().as_nanos() as u64;
        let group = PdxGroup {
            data: &tile[..d * lanes],
            lanes,
            start_vector: v0,
        };
        let acc = &mut out[v0..v0 + lanes];
        acc.fill(0.0);
        let t1 = Instant::now();
        pdx_accumulate(
            metric,
            &group,
            query,
            DimSel::Range(0..d),
            acc,
            KernelPolicy::Auto,
        );
        c_ns += t1.elapsed().as_nanos() as u64;
        v0 += lanes;
    }
    (t_ns, c_ns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::distance_scalar;

    #[test]
    fn gather_scan_matches_reference() {
        let (n, d) = (130, 24);
        let rows: Vec<f32> = (0..n * d)
            .map(|i| ((i * 31 % 47) as f32) * 0.5 - 10.0)
            .collect();
        let nary = NaryMatrix::from_rows(&rows, n, d);
        let q: Vec<f32> = (0..d).map(|i| (i as f32).cos()).collect();
        for metric in [Metric::L2, Metric::L1, Metric::NegativeIp] {
            let mut out = vec![0.0; n];
            gather_scan(metric, &nary, &q, &mut out);
            for v in 0..n {
                let want = distance_scalar(metric, &q, &rows[v * d..(v + 1) * d]);
                assert!(
                    (out[v] - want).abs() <= want.abs().max(1.0) * 1e-5,
                    "{metric:?} v={v}"
                );
            }
        }
    }

    #[test]
    fn split_timing_produces_same_distances() {
        let (n, d) = (70, 16);
        let rows: Vec<f32> = (0..n * d).map(|i| (i % 13) as f32).collect();
        let nary = NaryMatrix::from_rows(&rows, n, d);
        let q = vec![1.0f32; d];
        let mut a = vec![0.0; n];
        let mut b = vec![0.0; n];
        gather_scan(Metric::L2, &nary, &q, &mut a);
        let (t, c) = gather_scan_split_timing(Metric::L2, &nary, &q, &mut b);
        assert_eq!(a, b);
        // Timers must have recorded *something* on a non-trivial scan.
        assert!(t + c > 0);
    }
}
