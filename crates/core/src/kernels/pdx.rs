//! PDX distance kernels: dimension-by-dimension over
//! multiple-vectors-at-a-time (Algorithm 1 of the paper).
//!
//! The inner loop accumulates one dimension's contribution into `lanes`
//! independent accumulators. There is no loop-carried dependency and no
//! end-of-vector reduction, so LLVM auto-vectorizes the loop for any SIMD
//! width — the paper's central performance claim. The hot path is
//! monomorphized over the group width (16/32/64/128/256/512) so the
//! accumulator array can live in registers across the dimension loop;
//! other widths fall back to a dynamic-length loop.
//!
//! ## Explicit SIMD and the bit-identity invariant
//!
//! Next to the scalar loops, [`KernelPolicy`] selects at runtime the one
//! explicit-SIMD loop nest of [`lanes`], instantiated at the resolved
//! ISA's lane type (16 lanes of AVX-512F, 8 of AVX2+FMA or NEON). It is
//! *bit-identical* to the scalar loops by construction, at any width:
//!
//! * every lane has its own accumulator and no reduction ever happens,
//!   so the only thing that matters per lane is the *order of dimension
//!   updates* — and every variant walks dimensions in the same order;
//! * there is one source per metric step: the three `Step` bodies
//!   below run at `f32` in the scalar loops and at the lane type in the
//!   nest, with FMA used **only** when the scalar path was itself
//!   compiled with FMA contraction (`SCALAR_FMA`).
//!
//! The loops, the bounds checks and the policy dispatch below are generic
//! over the stored element, so [`sq8`](crate::kernels::sq8) adds only its
//! weighted steps and its entry points.
//!
//! [`pdx_accumulate_band`] is the dense kernel for a band of queries over
//! a whole block and a storage range: the nest walks the dimensions once
//! for a block of queries (four on AVX-512, two on AVX2 and NEON),
//! sharing every register of vectors it loads among them, and `Scalar`
//! runs the scalar loops query by query. It needs every query to walk the
//! same dimension order, which is why it serves IVF routing — a band's
//! queries all rank one centroid block in storage order — and not a
//! PDX-BOND band, whose orders are per query.
//!
//! The scalar loops are therefore the oracle: `tests/kernels.rs` pins
//! `to_bits` equality between the scalar and dispatched kernels, which
//! extends the PR 3 determinism contract (identical distance bits at any
//! thread count) to any ISA.
//!

use crate::distance::Metric;
use crate::kernels::dispatch::{KernelIsa, KernelPolicy, SCALAR_FMA};
use crate::kernels::lanes::{self, Ip, Lane, Step, Stored, L1, L2};
use crate::kernels::Tiled;
use crate::layout::{PdxBlock, PdxGroup};
use crate::pruning::Pruner;
use std::ops::Range;

// The `f32` steps: `q` is the query's value at the dimension, `v` the
// stored one. When the compile target has FMA (e.g. `-C
// target-cpu=native` on any modern x86), the L2/IP steps fuse, matching
// what a C++ compiler's default `-ffp-contract=fast` produces for
// Algorithm 1.

/// `acc + (q − v)²`.
impl Step<1> for L2 {
    #[inline(always)]
    fn step<L: Lane>(acc: L, [q]: [L; 1], v: L) -> L {
        let d = q.sub(v);
        if SCALAR_FMA {
            d.fmadd(d, acc)
        } else {
            acc.add(d.mul(d))
        }
    }
}

/// `acc + |q − v|`.
impl Step<1> for L1 {
    #[inline(always)]
    fn step<L: Lane>(acc: L, [q]: [L; 1], v: L) -> L {
        acc.add(q.sub(v).abs())
    }
}

/// `acc − q·v`.
impl Step<1> for Ip {
    #[inline(always)]
    fn step<L: Lane>(acc: L, [q]: [L; 1], v: L) -> L {
        if SCALAR_FMA {
            q.fnmadd(v, acc)
        } else {
            acc.sub(q.mul(v))
        }
    }
}

/// Which dimensions a kernel visits, in visit order.
#[derive(Debug, Clone)]
pub enum DimSel<'a> {
    /// A contiguous range of storage dimensions (sequential scan).
    Range(Range<usize>),
    /// Explicit storage dimensions: a slice of a query-aware permutation
    /// (PDX-BOND's orders, §5).
    Ids(&'a [u32]),
}

/// Fixed-width inner kernel: `acc[l] += term(params[d], group[d][l])` for
/// every dimension in `dims` (`params[d]` is `query[k][d]` for each `k`).
/// `L` is the compile-time lane count, letting LLVM keep the whole
/// accumulator array in vector registers across the dimension loop (the
/// "tight loop" requirement of §3).
#[inline]
fn accum_fixed<E: Stored, S: Step<P>, const L: usize, const P: usize>(
    data: &[E],
    query: [&[f32]; P],
    dims: Range<usize>,
    acc: &mut [f32],
) {
    let acc: &mut [f32; L] = acc.try_into().expect("accumulator width mismatch");
    for d in dims {
        let params = query.map(|q| q[d]);
        let row: &[E; L] = data[d * L..d * L + L]
            .try_into()
            .expect("group row width mismatch");
        for l in 0..L {
            acc[l] = S::step(acc[l], params, row[l].into());
        }
    }
}

/// Dynamic-width scalar kernel: irregular lane counts (partial tail
/// groups) and permuted dimensions (PDX-BOND orders).
#[inline]
fn accum_dyn<E: Stored, S: Step<P>, const P: usize>(
    data: &[E],
    lanes: usize,
    query: [&[f32]; P],
    dims: impl Iterator<Item = usize>,
    acc: &mut [f32],
) {
    for d in dims {
        let params = query.map(|q| q[d]);
        let row = &data[d * lanes..(d + 1) * lanes];
        for (a, &v) in acc.iter_mut().zip(row) {
            *a = S::step(*a, params, v.into());
        }
    }
}

/// The Algorithm-1 scalar lane loops over a dimension selection, for
/// either element: the paper's auto-vectorised kernel, and the oracle
/// every other path is compared against.
#[inline]
fn accum_scalar<E: Stored, S: Step<P>, const P: usize>(
    data: &[E],
    lanes: usize,
    query: [&[f32]; P],
    dims: DimSel<'_>,
    acc: &mut [f32],
) {
    match (dims, lanes) {
        (DimSel::Range(r), 16) => accum_fixed::<E, S, 16, P>(data, query, r, acc),
        (DimSel::Range(r), 32) => accum_fixed::<E, S, 32, P>(data, query, r, acc),
        (DimSel::Range(r), 64) => accum_fixed::<E, S, 64, P>(data, query, r, acc),
        (DimSel::Range(r), 128) => accum_fixed::<E, S, 128, P>(data, query, r, acc),
        (DimSel::Range(r), 256) => accum_fixed::<E, S, 256, P>(data, query, r, acc),
        (DimSel::Range(r), 512) => accum_fixed::<E, S, 512, P>(data, query, r, acc),
        (DimSel::Range(r), _) => accum_dyn::<E, S, P>(data, lanes, query, r, acc),
        (DimSel::Ids(ids), _) => accum_dyn::<E, S, P>(data, lanes, query, ids_of(ids), acc),
    }
}

/// A permutation slice as the `usize` dimension iterator the loops take.
#[inline(always)]
fn ids_of(ids: &[u32]) -> impl Iterator<Item = usize> + Clone + '_ {
    ids.iter().map(|&d| d as usize)
}

/// Bounds every dimension a kernel call will touch by the query and by
/// the buffer's `n_dims`, once per call and under every policy (the SIMD
/// nests use raw loads; the scalar loops would bound-check lazily, with
/// whatever message a slice index prints).
fn check_dim_bounds(n_dims: usize, query: &[&[f32]], dims: &DimSel<'_>) {
    let query_len = query.iter().map(|q| q.len()).min().unwrap_or(0);
    match dims {
        DimSel::Range(r) => {
            if r.start < r.end {
                assert!(r.end <= query_len, "dimension range exceeds query length");
                assert!(r.end <= n_dims, "dimension range exceeds group");
            }
        }
        DimSel::Ids(ids) => {
            for &d in *ids {
                let d = d as usize;
                assert!(d < query_len, "dimension id exceeds query length");
                assert!(d < n_dims, "dimension id exceeds group");
            }
        }
    }
}

/// Dense accumulate of one metric over a dimension selection and a range
/// of groups, for either element: the SIMD nest at the resolved ISA's
/// full width when it has one, the scalar lane loops group by group
/// otherwise — bit-identical either way. Groups, accumulators, dimensions and the
/// ISA are checked once here, not per group.
pub(super) fn accumulate<E: Stored, S: Step<P>, const P: usize>(
    t: Tiled<'_, E>,
    groups: Range<usize>,
    query: [&[f32]; P],
    dims: DimSel<'_>,
    acc: &mut [f32],
    kernel: KernelPolicy,
) {
    t.check_groups(&groups, acc.len());
    check_dim_bounds(t.n_dims, &query, &dims);
    let isa = kernel.resolve();
    if isa != KernelIsa::Scalar {
        // SAFETY: `resolve` names a SIMD ISA only when the running CPU
        // has it; groups, `acc` and dims were checked just above.
        return unsafe {
            match dims {
                DimSel::Range(r) => lanes::dense_on::<E, S, _, P>(isa, t, groups, query, r, acc),
                DimSel::Ids(ids) => {
                    lanes::dense_on::<E, S, _, P>(isa, t, groups, query, ids_of(ids), acc)
                }
            }
        };
    }
    for (data, [acc]) in t.zip_groups(groups, [acc]) {
        accum_scalar::<E, S, P>(data, acc.len(), query, dims.clone(), acc)
    }
}

/// The band form of [`accumulate`] over every group of `t` and the
/// storage range `dims`: `acc[j * t.n_vectors..][..t.n_vectors]` are
/// query `j`'s accumulators. The SIMD nest walks the dimensions once for
/// a block of queries ([`lanes::dense_band_on`]); `Scalar` runs the
/// Algorithm-1 loops query by query — the same bits either way.
fn accumulate_band<E: Stored, S: Step<P>, const P: usize>(
    t: Tiled<'_, E>,
    band: &[[&[f32]; P]],
    dims: Range<usize>,
    acc: &mut [f32],
    kernel: KernelPolicy,
) {
    let n = t.n_vectors;
    assert_eq!(
        acc.len(),
        band.len() * n,
        "one accumulator per query and vector required"
    );
    for query in band {
        check_dim_bounds(t.n_dims, query, &DimSel::Range(dims.clone()));
    }
    let isa = kernel.resolve();
    if isa == KernelIsa::Scalar {
        for (query, acc) in band.iter().zip(acc.chunks_mut(n.max(1))) {
            let groups = 0..t.n_groups();
            accumulate::<E, S, P>(t, groups, *query, DimSel::Range(dims.clone()), acc, kernel);
        }
        return;
    }
    // SAFETY: `resolve` names a SIMD ISA only when the running CPU has it;
    // `acc` and every query's dims were checked just above, and the band
    // covers every group of `t`.
    unsafe { lanes::dense_band_on::<E, S, P>(isa, t, band, dims, acc) }
}

/// Survivor (gather) accumulate of one metric over a dimension
/// selection, for either element — the one PRUNE-phase implementation
/// behind [`pdx_accumulate_survivors`], [`pdx_accumulate_positions`] and
/// the SQ8 twin. Positions, dimensions and the ISA are checked once
/// here, not per group.
pub(super) fn survivors<E: Stored, S: Step<P>, const P: usize>(
    t: Tiled<'_, E>,
    query: [&[f32]; P],
    dims: DimSel<'_>,
    positions: &[u32],
    acc: &mut [f32],
    kernel: KernelPolicy,
) {
    t.check_positions(positions, acc.len());
    check_dim_bounds(t.n_dims, &query, &dims);
    // The AVX2 gather addresses survivors with 32-bit element offsets; a
    // buffer beyond that range takes the (bit-identical) portable nest.
    let isa = if t.data.len() <= i32::MAX as usize {
        kernel.resolve()
    } else {
        KernelIsa::Scalar
    };
    // SAFETY: `resolve` names a SIMD ISA only when the running CPU has
    // it; positions and dims were bounded above, so every offset `locate`
    // yields stays inside `t.data` (the gather does not bound-check) and,
    // for a SIMD ISA, fits an `i32`.
    unsafe {
        match dims {
            DimSel::Range(r) => lanes::survivors_on::<E, S, _, P>(isa, t, query, r, positions, acc),
            DimSel::Ids(ids) => {
                lanes::survivors_on::<E, S, _, P>(isa, t, query, ids_of(ids), positions, acc)
            }
        }
    }
}

/// One bound pass over a tile's partial distances: sets bit `l % 64` of
/// `bits[l / 64]` when lane `l` survives checkpoint `cp` of pruner `P`
/// (`aux`, when the pruner reads one, is the tile's slice of the aux
/// row) and returns how many do. `bits` is resized to
/// `partials.len().div_ceil(64)` words. One register of lanes a compare
/// on a SIMD ISA (16 on AVX-512, 8 on AVX2 and NEON); every policy
/// writes the bits of a loop of [`Pruner::survives`].
///
/// # Panics
/// Panics if an `aux` is not as long as `partials`.
pub fn survival_bits<P: Pruner>(
    cp: &P::Checkpoint,
    partials: &[f32],
    aux: Option<&[f32]>,
    bits: &mut Vec<u64>,
    kernel: KernelPolicy,
) -> usize {
    let aux_len = aux.map_or(partials.len(), <[f32]>::len);
    assert_eq!(aux_len, partials.len(), "one aux value per lane required");
    bits.resize(partials.len().div_ceil(64), 0);
    // SAFETY: `resolve` names a SIMD ISA only when the running CPU has
    // it; `bits` and `aux` were sized just above.
    unsafe { lanes::bound_on::<P>(kernel.resolve(), cp, partials, aux, bits) }
}

/// Accumulates the metric over the dimensions `dims` selects — a storage
/// range, or a slice of a query-aware permutation (PDX-BOND's orders,
/// §5) — of every vector of the groups `groups` of `block` into `acc`,
/// one accumulator per vector in block order: a tile's whole checkpoint
/// step in one call. All policies produce bit-identical accumulators
/// (see the module docs), and each vector's are those of the one-group
/// call `g..g + 1` over its group `g`.
///
/// # Panics
/// Panics if `groups` is reversed or ends past the block's groups, if
/// `acc.len()` is not the number of vectors `groups` covers, or if a
/// selected dimension exceeds the query or the block.
pub fn pdx_accumulate_groups(
    metric: Metric,
    block: &PdxBlock,
    groups: Range<usize>,
    query: &[f32],
    dims: DimSel<'_>,
    acc: &mut [f32],
    kernel: KernelPolicy,
) {
    let (t, query) = (Tiled::of(block), [query]);
    match metric {
        Metric::L2 => accumulate::<_, L2, 1>(t, groups, query, dims, acc, kernel),
        Metric::L1 => accumulate::<_, L1, 1>(t, groups, query, dims, acc, kernel),
        Metric::NegativeIp => accumulate::<_, Ip, 1>(t, groups, query, dims, acc, kernel),
    }
}

/// Accumulates the metric over the storage dimensions `dims` of every
/// vector of `block` for each query of `band` — the band form of
/// [`pdx_accumulate_groups`] over the whole block, which is what routes
/// a band of queries through an IVF's centroids. `acc[j * block.len() +
/// v]` is query `j`'s accumulator of vector `v`. The SIMD nest walks the
/// dimensions once for each block of four queries on AVX-512 (two on
/// AVX2 and NEON), so every register of vectors it loads serves them
/// all; each (query, vector) lane still runs the same steps in the same
/// order, so all policies produce the bits of one
/// [`pdx_accumulate_groups`] per query — which is what `Scalar` runs.
///
/// # Panics
/// Panics if `acc.len()` is not `band.len() × block.len()`, or if `dims`
/// exceeds a query or the block.
pub fn pdx_accumulate_band(
    metric: Metric,
    block: &PdxBlock,
    band: &[&[f32]],
    dims: Range<usize>,
    acc: &mut [f32],
    kernel: KernelPolicy,
) {
    let (t, band) = (Tiled::of(block), band.as_chunks::<1>().0);
    match metric {
        Metric::L2 => accumulate_band::<_, L2, 1>(t, band, dims, acc, kernel),
        Metric::L1 => accumulate_band::<_, L1, 1>(t, band, dims, acc, kernel),
        Metric::NegativeIp => accumulate_band::<_, Ip, 1>(t, band, dims, acc, kernel),
    }
}

/// The survivor kernel over a tiled view: a whole block, or one group.
fn survivors_impl(
    metric: Metric,
    t: Tiled<'_, f32>,
    query: &[f32],
    dims: DimSel<'_>,
    positions: &[u32],
    acc: &mut [f32],
    kernel: KernelPolicy,
) {
    let query = [query];
    match metric {
        Metric::L2 => survivors::<_, L2, 1>(t, query, dims, positions, acc, kernel),
        Metric::L1 => survivors::<_, L1, 1>(t, query, dims, positions, acc, kernel),
        Metric::NegativeIp => survivors::<_, Ip, 1>(t, query, dims, positions, acc, kernel),
    }
}

/// PRUNE-phase kernel: accumulates only at the surviving vectors of a
/// block, wherever in the block they sit.
///
/// `positions[j]` is a block-relative vector index (any order, any
/// group, the partial tail group included); `acc[j]` is the compacted
/// accumulator of that survivor. Eight survivors share one pass over
/// the dimensions (a hardware gather on AVX2), so a handful of survivors
/// scattered over many groups still run as independent accumulators
/// instead of one serial add chain per group (§4 PHASE 2). Every
/// survivor sees `dims` in order, so all policies produce identical
/// bits — those of the survivor's lane in [`pdx_accumulate_groups`].
///
/// # Panics
/// Panics if `acc.len() != positions.len()`, a position is not a vector
/// of `block`, or a selected dimension exceeds the block's or the
/// query's dimensionality.
pub fn pdx_accumulate_survivors(
    metric: Metric,
    block: &PdxBlock,
    query: &[f32],
    dims: DimSel<'_>,
    positions: &[u32],
    acc: &mut [f32],
    kernel: KernelPolicy,
) {
    survivors_impl(
        metric,
        Tiled::of(block),
        query,
        dims,
        positions,
        acc,
        kernel,
    )
}

/// Per-group form of [`pdx_accumulate_survivors`] over a storage range
/// with the default [`KernelPolicy::Auto`] dispatch: `positions[j]` is a
/// lane index inside this group.
///
/// # Panics
/// As [`pdx_accumulate_survivors`], with `group` as the block.
pub fn pdx_accumulate_positions(
    metric: Metric,
    group: &PdxGroup<'_>,
    query: &[f32],
    dims: Range<usize>,
    positions: &[u32],
    acc: &mut [f32],
) {
    let (t, dims) = (Tiled::of_group(group), DimSel::Range(dims));
    survivors_impl(metric, t, query, dims, positions, acc, KernelPolicy::Auto)
}

/// Full linear scan of a block: fills `out[i]` with the distance of
/// vector `i` (block order) to `query`.
///
/// # Panics
/// Panics if `out.len() != block.len()` or the query width differs.
pub fn pdx_scan(metric: Metric, block: &PdxBlock, query: &[f32], out: &mut [f32]) {
    assert_eq!(out.len(), block.len(), "one output per vector required");
    assert_eq!(query.len(), block.dims(), "query dimensionality mismatch");
    out.fill(0.0);
    let (groups, dims) = (0..block.group_count(), DimSel::Range(0..block.dims()));
    pdx_accumulate_groups(metric, block, groups, query, dims, out, KernelPolicy::Auto)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::distance_scalar;
    use crate::kernels::KernelPolicy::Auto;

    fn block_and_rows(n: usize, d: usize, group: usize) -> (PdxBlock, Vec<f32>) {
        let rows: Vec<f32> = (0..n * d)
            .map(|i| ((i * 37 % 101) as f32) * 0.25 - 12.0)
            .collect();
        (PdxBlock::from_rows(&rows, n, d, group), rows)
    }

    fn query(d: usize) -> Vec<f32> {
        (0..d).map(|i| (i as f32 * 0.77).sin() * 3.0).collect()
    }

    #[test]
    fn scan_matches_scalar_reference_all_metrics() {
        for metric in [Metric::L2, Metric::L1, Metric::NegativeIp] {
            let (block, rows) = block_and_rows(150, 17, 64);
            let q = query(17);
            let mut out = vec![0.0; 150];
            pdx_scan(metric, &block, &q, &mut out);
            for v in 0..150 {
                let want = distance_scalar(metric, &q, &rows[v * 17..(v + 1) * 17]);
                assert!(
                    (out[v] - want).abs() <= want.abs().max(1.0) * 1e-5,
                    "{metric:?} vector {v}: {} vs {want}",
                    out[v]
                );
            }
        }
    }

    #[test]
    fn scan_with_every_specialized_group_size() {
        for group in [16usize, 32, 64, 128, 256, 512, 7] {
            let n = 530;
            let (block, rows) = block_and_rows(n, 9, group);
            let q = query(9);
            let mut out = vec![0.0; n];
            pdx_scan(Metric::L2, &block, &q, &mut out);
            for v in (0..n).step_by(53) {
                let want = distance_scalar(Metric::L2, &q, &rows[v * 9..(v + 1) * 9]);
                assert!(
                    (out[v] - want).abs() <= want.max(1.0) * 1e-5,
                    "group {group} vector {v}"
                );
            }
        }
    }

    #[test]
    fn partial_ranges_compose_to_full_distance() {
        let (block, rows) = block_and_rows(64, 20, 64);
        let q = query(20);
        let mut acc = vec![0.0; 64];
        pdx_accumulate_groups(
            Metric::L2,
            &block,
            0..1,
            &q,
            DimSel::Range(0..5),
            &mut acc,
            Auto,
        );
        pdx_accumulate_groups(
            Metric::L2,
            &block,
            0..1,
            &q,
            DimSel::Range(5..13),
            &mut acc,
            Auto,
        );
        pdx_accumulate_groups(
            Metric::L2,
            &block,
            0..1,
            &q,
            DimSel::Range(13..20),
            &mut acc,
            Auto,
        );
        for v in 0..64 {
            let want = distance_scalar(Metric::L2, &q, &rows[v * 20..(v + 1) * 20]);
            assert!((acc[v] - want).abs() <= want.max(1.0) * 1e-5);
        }
    }

    #[test]
    fn permuted_accumulation_matches_sequential() {
        let (block, _) = block_and_rows(64, 12, 64);
        let q = query(12);
        let mut seq = vec![0.0; 64];
        pdx_accumulate_groups(
            Metric::L1,
            &block,
            0..1,
            &q,
            DimSel::Range(0..12),
            &mut seq,
            Auto,
        );
        let perm: Vec<u32> = [7u32, 0, 11, 3, 4, 10, 1, 2, 9, 5, 8, 6].to_vec();
        let mut per = vec![0.0; 64];
        pdx_accumulate_groups(
            Metric::L1,
            &block,
            0..1,
            &q,
            DimSel::Ids(&perm),
            &mut per,
            Auto,
        );
        for (s, p) in seq.iter().zip(&per) {
            assert!((s - p).abs() <= s.max(1.0) * 1e-5);
        }
    }

    #[test]
    fn positions_kernel_matches_dense_kernel() {
        let (block, _) = block_and_rows(64, 16, 64);
        let q = query(16);
        let g = block.group(0);
        let mut dense = vec![0.0; 64];
        pdx_accumulate_groups(
            Metric::L2,
            &block,
            0..1,
            &q,
            DimSel::Range(0..16),
            &mut dense,
            Auto,
        );
        let positions: Vec<u32> = vec![3, 17, 18, 40, 63];
        let mut compact = vec![0.0; positions.len()];
        pdx_accumulate_positions(Metric::L2, &g, &q, 0..16, &positions, &mut compact);
        for (j, &p) in positions.iter().enumerate() {
            assert!((compact[j] - dense[p as usize]).abs() <= dense[p as usize].max(1.0) * 1e-5);
        }
    }

    #[test]
    fn positions_permuted_matches_dense() {
        let (block, _) = block_and_rows(40, 10, 64);
        let q = query(10);
        let mut dense = vec![0.0; 40];
        pdx_accumulate_groups(
            Metric::L2,
            &block,
            0..1,
            &q,
            DimSel::Range(0..10),
            &mut dense,
            Auto,
        );
        let perm: Vec<u32> = (0..10u32).rev().collect();
        let positions: Vec<u32> = vec![0, 9, 39];
        let mut compact = vec![0.0; 3];
        let dims = DimSel::Ids(&perm);
        pdx_accumulate_survivors(Metric::L2, &block, &q, dims, &positions, &mut compact, Auto);
        for (j, &p) in positions.iter().enumerate() {
            assert!((compact[j] - dense[p as usize]).abs() <= dense[p as usize].max(1.0) * 1e-5);
        }
    }

    #[test]
    fn empty_dimension_range_is_noop() {
        let (block, _) = block_and_rows(10, 4, 64);
        let mut acc = vec![1.5; 10];
        let dims = DimSel::Range(2..2);
        pdx_accumulate_groups(Metric::L2, &block, 0..1, &query(4), dims, &mut acc, Auto);
        assert!(acc.iter().all(|&x| x == 1.5));
    }

    #[test]
    fn simd_policy_is_bit_identical_to_scalar() {
        // The structural invariant (per-lane accumulators, same op
        // sequence) makes every policy produce the same bits; the full
        // sweep lives in tests/kernels.rs, this is the smoke pin.
        for metric in [Metric::L2, Metric::L1, Metric::NegativeIp] {
            // 67 lanes: one 64-lane group (whole `4N` tiles) plus a
            // 3-lane tail group, narrower than a register.
            let (block, _) = block_and_rows(67, 13, 64);
            let q = query(13);
            let run = |kernel| {
                let mut acc = vec![0.0; 67];
                let dims = DimSel::Range(0..13);
                pdx_accumulate_groups(metric, &block, 0..2, &q, dims, &mut acc, kernel);
                acc
            };
            let (scalar, simd) = (run(KernelPolicy::Scalar), run(KernelPolicy::Simd));
            for v in 0..67 {
                assert_eq!(
                    scalar[v].to_bits(),
                    simd[v].to_bits(),
                    "{metric:?} vector {v}: {} vs {}",
                    scalar[v],
                    simd[v]
                );
            }
        }
    }

    #[test]
    fn positions_simd_policy_is_bit_identical_to_scalar() {
        let (block, _) = block_and_rows(64, 16, 64);
        let q = query(16);
        // 11 survivors: one full pass of 8 plus a padded pass of 3.
        let positions: Vec<u32> = vec![3, 9, 17, 18, 21, 33, 40, 47, 55, 60, 63];
        for metric in [Metric::L2, Metric::L1, Metric::NegativeIp] {
            let run = |kernel| {
                let mut acc = vec![0.0; positions.len()];
                let dims = DimSel::Range(0..16);
                pdx_accumulate_survivors(metric, &block, &q, dims, &positions, &mut acc, kernel);
                acc
            };
            let (scalar, simd) = (run(KernelPolicy::Scalar), run(KernelPolicy::Simd));
            for j in 0..positions.len() {
                assert_eq!(scalar[j].to_bits(), simd[j].to_bits(), "{metric:?} pos {j}");
            }
        }
    }
}
