//! Lloyd's k-means with k-means++ initialization — the IVF trainer.
//!
//! The paper uses a "non-optimized Lloyd algorithm" (§2.1) to build IVF
//! buckets. This one fits the same model, bit for bit: full-assignment
//! iterations with the SIMD horizontal kernel, k-means++ seeding, and
//! re-seeding of emptied clusters to the farthest-assigned point. It
//! only skips distance work it can prove cannot change a result:
//!
//! * **Assignment.** A row visits its previous centroid first, then the
//!   others through [`nary_l2_bounded`], which abandons a centroid once
//!   a partial sum proves it cannot beat the best `(distance, index)` so
//!   far (a lower index may tie, a higher one must be strictly closer).
//!   Every L2 term is ≥ 0 and `fma` / `add` round monotonically, so a
//!   partial never exceeds the distance the full kernel returns, and
//!   every distance that is computed is that kernel's. The winner is the
//!   least `(distance, index)` among distances below `+inf` — what a
//!   plain loop over `0..k` keeping the first strict minimum returns,
//!   whatever the visiting order — and `(0, +inf)` when there is none.
//! * **Assignment screen.** Before that loop, the paper's START phase
//!   runs for a band of rows at once: [`pdx_accumulate_band`] sums the L2
//!   over the first `SCREEN_DIMS` (64) dimensions of every centroid, held in
//!   a [`PdxBlock`]. After `prev`, a row visits the centroid with the
//!   least partial, then skips every centroid whose partial `p` proves it
//!   strictly loses: `p · shrink > best` with
//!   `shrink = (1 − γ_d) / (1 + γ_Δ) · (1 − 10⁻⁶)`, `γ_n` the relative
//!   rounding of a sum of `n` non-negative terms (`screen_shrink`). One
//!   vectorized compare per centroid marks, as bits, the few that the
//!   distance to `prev` leaves in play; only those are read again.
//! * **Seeding.** A row's nearest-seed distance only changes when a new
//!   seed is nearer. With `a` its squared distance to its nearest seed
//!   and `c` the squared distance between that seed and the new one, the
//!   triangle inequality gives `√b ≥ √c − √a` for the new distance `b`,
//!   so `c > 4a` means the new seed is farther. `seed_skips` asks for a
//!   margin on top, so that rounding cannot turn that into `b < a` in
//!   `f32`.
//!
//! All of them run on the fit's pool over fixed row chunks, and every sum
//! that crosses rows runs in row or chunk order, so the fitted model is
//! bitwise identical at every thread count.

use pdx_core::distance::Metric;
use pdx_core::exec::ThreadPool;
use pdx_core::kernels::{
    nary_distance, nary_l2_bounded, pdx_accumulate_band, KernelPolicy, KernelVariant,
};
use pdx_core::layout::PdxBlock;
use pdx_core::DEFAULT_GROUP_SIZE;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A fitted k-means model.
#[derive(Debug, Clone)]
pub struct KMeans {
    /// Row-major centroids (`k × dims`).
    pub centroids: Vec<f32>,
    /// Number of clusters.
    pub k: usize,
    /// Dimensionality.
    pub dims: usize,
    /// Sum of squared distances to assigned centroids after fitting.
    pub inertia: f64,
}

/// Rows per chunk of a pool pass (fixed, so no result depends on the
/// worker count).
const CHUNK_VECTORS: usize = 1024;

/// The seeding step: `k` seeds, row-major.
type Seeding = fn(&[f32], usize, usize, usize, &mut StdRng, &ThreadPool) -> Vec<f32>;

/// The assignment step: fills `assign`, returns the inertia.
type Assignment = fn(&[f32], usize, usize, &[f32], usize, &mut [u32], &ThreadPool) -> f64;

impl KMeans {
    /// Fits `k` clusters with at most `max_iters` Lloyd iterations on
    /// the default worker pool (`PDX_THREADS` env override, then
    /// hardware width); see [`KMeans::fit_with_pool`].
    ///
    /// # Panics
    /// Panics if the collection is empty, `k == 0`, or buffers mismatch.
    pub fn fit(
        rows: &[f32],
        n_vectors: usize,
        dims: usize,
        k: usize,
        max_iters: usize,
        seed: u64,
    ) -> (Self, Vec<u32>) {
        Self::fit_with_pool(
            rows,
            n_vectors,
            dims,
            k,
            max_iters,
            seed,
            &ThreadPool::from_env(),
        )
    }

    /// [`KMeans::fit`] on an explicit worker pool. Returns the model
    /// and the cluster of every row after the final assignment pass
    /// (the one the reported inertia sums). Seeding and assignment run
    /// over fixed-size row chunks, and the partial inertias are summed
    /// in chunk order, so both are bitwise identical at every thread
    /// count for a given seed.
    #[allow(clippy::too_many_arguments)]
    pub fn fit_with_pool(
        rows: &[f32],
        n_vectors: usize,
        dims: usize,
        k: usize,
        max_iters: usize,
        seed: u64,
        pool: &ThreadPool,
    ) -> (Self, Vec<u32>) {
        lloyd(
            rows,
            n_vectors,
            dims,
            k,
            max_iters,
            seed,
            pool,
            plus_plus_init,
            assign_all,
        )
    }
}

/// The fit, with its seeding and assignment steps as parameters (the
/// tests run it with the unpruned steps as well).
#[allow(clippy::too_many_arguments)]
fn lloyd(
    rows: &[f32],
    n_vectors: usize,
    dims: usize,
    k: usize,
    max_iters: usize,
    seed: u64,
    pool: &ThreadPool,
    seeding: Seeding,
    assignment: Assignment,
) -> (KMeans, Vec<u32>) {
    assert!(k > 0, "k must be positive");
    assert!(n_vectors > 0, "cannot cluster an empty collection");
    assert_eq!(
        rows.len(),
        n_vectors * dims,
        "row buffer does not match dimensions"
    );
    let k = k.min(n_vectors);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut centroids = seeding(rows, n_vectors, dims, k, &mut rng, pool);
    let mut assign = vec![0u32; n_vectors];
    let mut inertia = f64::INFINITY;
    for _ in 0..max_iters.max(1) {
        // Assignment step (parallel over vectors).
        let new_inertia = assignment(rows, n_vectors, dims, &centroids, k, &mut assign, pool);
        // Update step.
        let mut counts = vec![0usize; k];
        let mut sums = vec![0.0f64; k * dims];
        for (v, &c) in assign.iter().enumerate() {
            counts[c as usize] += 1;
            let row = &rows[v * dims..(v + 1) * dims];
            let sum = &mut sums[c as usize * dims..(c as usize + 1) * dims];
            for (s, &x) in sum.iter_mut().zip(row) {
                *s += x as f64;
            }
        }
        for c in 0..k {
            if counts[c] == 0 {
                // Re-seed an empty cluster to the point farthest from
                // its current centroid.
                let far = farthest_point(rows, n_vectors, dims, &centroids, &assign);
                centroids[c * dims..(c + 1) * dims]
                    .copy_from_slice(&rows[far * dims..(far + 1) * dims]);
                continue;
            }
            let inv = 1.0 / counts[c] as f64;
            for d in 0..dims {
                centroids[c * dims + d] = (sums[c * dims + d] * inv) as f32;
            }
        }
        // Converged when inertia stops improving meaningfully.
        if new_inertia >= inertia * (1.0 - 1e-4) {
            break;
        }
        inertia = new_inertia;
    }
    // Final assignment for the reported inertia.
    let final_inertia = assignment(rows, n_vectors, dims, &centroids, k, &mut assign, pool);
    let model = KMeans {
        centroids,
        k,
        dims,
        inertia: final_inertia,
    };
    (model, assign)
}

/// The nearest of the centroids to `row` — the least `(distance, index)`
/// among distances below `+inf`, or `(0, +inf)` when there is none.
///
/// `part[c]` is the row's [`assign_all`] screen partial of centroid `c`
/// (all 0 when nothing is screened), and `kept` is scratch for one bit
/// per centroid. The row visits `prev`, then the centroid with the least
/// partial, both with the full kernel; then every other centroid in
/// index order, skipping those [`screened_out`] proves strictly farther
/// than the best so far and abandoning the rest once they cannot win
/// (module docs). Visiting the least partial second matters on the
/// first pass, where `prev` is 0 for every row.
fn nearest(
    row: &[f32],
    centroids: &[f32],
    dims: usize,
    prev: usize,
    part: &[f32],
    shrink: f64,
    kept: &mut [u64],
) -> (usize, f32) {
    let centroid = |c: usize| &centroids[c * dims..(c + 1) * dims];
    let full = |c: usize| nary_distance(Metric::L2, KernelVariant::Simd, row, centroid(c));
    // A lower index than the best wins a tie; a higher one must be
    // strictly closer. Nothing beats `(0, +inf)` but a finite distance.
    let beats = |c: usize, d: f32, best: (usize, f32)| d < best.1 || (c < best.0 && d == best.1);
    let mut best = (0, f32::INFINITY);
    let d = full(prev);
    if beats(prev, d, best) {
        best = (prev, d);
    }
    // Only the centroids `prev` leaves in play are read from here on; the
    // least partial is one of them unless every finite one is out.
    keep_bits(part, screen_limit(best.1, shrink), kept);
    let mut lead = (prev, f32::INFINITY);
    for c in ones(kept) {
        if part[c] < lead.1 {
            lead = (c, part[c]);
        }
    }
    if lead.0 != prev {
        let d = full(lead.0);
        if beats(lead.0, d, best) {
            best = (lead.0, d);
        }
    }
    for c in ones(kept) {
        if c == prev || c == lead.0 || screened_out(part[c], best.1, shrink) {
            continue;
        }
        if let Some(d) = nary_l2_bounded(row, centroid(c), best.1, c < best.0) {
            if beats(c, d, best) {
                best = (c, d);
            }
        }
    }
    best
}

/// The indexes of the set bits of `kept`, in increasing order.
fn ones(kept: &[u64]) -> impl Iterator<Item = usize> + '_ {
    kept.iter().enumerate().flat_map(|(w, &word)| {
        let bits = std::iter::successors(Some(word), |&b| Some(b & b.wrapping_sub(1)));
        let bits = bits.take_while(|&b| b != 0);
        bits.map(move |b| w * 64 + b.trailing_zeros() as usize)
    })
}

/// Sets bit `c % 64` of `kept[c / 64]` unless `limit < part[c] < +inf`:
/// a superset of the centroids [`screened_out`] keeps when `limit` is
/// its [`screen_limit`]. Written as flags, then bits, so that it
/// vectorizes.
fn keep_bits(part: &[f32], limit: f32, kept: &mut [u64]) {
    for (word, part) in kept.iter_mut().zip(part.chunks(64)) {
        let mut flags = [0u8; 64];
        for (flag, &p) in flags.iter_mut().zip(part) {
            *flag = !(limit < p && p < f32::INFINITY) as u8;
        }
        *word = flags
            .iter()
            .enumerate()
            .fold(0, |w, (i, &f)| w | (f as u64) << i);
    }
}

/// A partial above which [`screened_out`] rules out every finite one
/// against `best`, or `+inf` when it rules out none.
///
/// The limit is the `f32` nearest to `best / shrink` (an `f64` quotient,
/// relative error `2⁻⁵³`). An `f32` above it lies at least half an `f32`
/// ulp, a relative `2⁻²⁵`, above the real quotient, which leaves room
/// for the rounding of `f64(p) · shrink`.
fn screen_limit(best: f32, shrink: f64) -> f32 {
    if best.is_finite() && f64::from(best) >= SEED_SKIP_MIN_D2 {
        (f64::from(best) / shrink) as f32
    } else {
        f32::INFINITY
    }
}

/// Storage dimensions the assignment screen sums (the START phase's
/// width). `build --mode=ivf` on a 2-vCPU AVX-512 host, 3–4 runs per
/// width, the build's "trained in" seconds:
///
/// | width | sift-like, n 65 536, k 256 | gist-like, n 10 000, k 200 |
/// |---|---|---|
/// | none | 1.99–2.14 | 0.70–0.72 |
/// | 16 | 1.98–2.23 | 0.72–0.75 |
/// | 32 | 1.36–1.44 | 0.58–0.64 |
/// | 48 | 1.13–1.30 | 0.50–0.61 |
/// | 64 | 1.11–1.19 | 0.48–0.51 |
/// | 96 | 1.12–1.28 | 0.43–0.49 |
///
/// At 64 the screen rules out 97 % of the (row, centroid) pairs on the
/// sift-like data and 86 % on the gist-like data.
const SCREEN_DIMS: usize = 64;

/// Rows per [`pdx_accumulate_band`] call of the screen.
const SCREEN_BAND: usize = 16;

/// What a screen partial is scaled by before it is compared with the
/// best distance: `(1 − γ_d) / (1 + γ_Δ) · (1 − 10⁻⁶)` for `dims = d`
/// and `screen = Δ` summed dimensions, with
/// `γ_n = (n + 2) · 2⁻²⁴ / (1 − (n + 2) · 2⁻²⁴)`.
///
/// Both kernels square the same rounded difference `fl(x − c)` and then
/// add non-negative terms: the PDX lane in storage order, [`nary_distance`]
/// in its own accumulator tree. A sum of `n` such terms in any order,
/// with `fma` or `mul` + `add`, lies within a relative `γ_n` of the real
/// sum (every term passes through at most `n + 1` roundings). With `S`
/// the real sum over all `d` dimensions and `S_Δ` over the screened
/// ones, the full distance is `≥ S · (1 − γ_d) ≥ S_Δ · (1 − γ_d)` and
/// the partial `p ≤ S_Δ · (1 + γ_Δ)`, so the full distance is
/// `≥ p · (1 − γ_d) / (1 + γ_Δ)`. The last factor absorbs the `f64`
/// rounding of the product. The partial can exceed the full distance
/// (`screen_margin_covers_rounding`), so a shrink of 1 would be wrong.
fn screen_shrink(dims: usize, screen: usize) -> f64 {
    let gamma = |n: usize| {
        let nu = (n + 2) as f64 / (1u64 << 24) as f64;
        nu / (1.0 - nu)
    };
    (1.0 - gamma(dims)) / (1.0 + gamma(screen)) * (1.0 - 1e-6)
}

/// Whether a screen partial `p` proves a centroid strictly farther than
/// `best` (see [`screen_shrink`]); the centroid then cannot win,
/// whatever its index.
///
/// The rounding bound is relative only above the subnormal range, so a
/// `best` below [`SEED_SKIP_MIN_D2`] never screens (as [`seed_skips`]).
/// Nothing non-finite screens either: an infinite `best` has nothing
/// finite above it, and a NaN or `±inf` partial may be an overflow of a
/// sum that the full kernel, in its own order, rounds back just under
/// `f32::MAX`. A full distance that is itself NaN or `+inf` never beats
/// a finite `best`, so skipping it is exact too.
fn screened_out(p: f32, best: f32, shrink: f64) -> bool {
    p.is_finite()
        && best.is_finite()
        && f64::from(best) >= SEED_SKIP_MIN_D2
        && f64::from(p) * shrink > f64::from(best)
}

/// Assigns every vector to its nearest centroid, starting from the
/// centroid `assign` holds for it; returns total inertia.
///
/// Each chunk screens its rows in bands of [`SCREEN_BAND`]: one
/// [`pdx_accumulate_band`] over the centroids' [`PdxBlock`] sums the L2
/// over their first [`SCREEN_DIMS`] dimensions for the whole band, and
/// [`nearest`] skips the centroids those partials rule out. Rows wider
/// than [`SEED_SKIP_MAX_DIMS`] are not screened. The chunk boundaries
/// are fixed (never derived from the worker count) and the per-chunk
/// partial inertias are summed in chunk order, so the returned inertia
/// — and with it the Lloyd convergence trajectory — is bitwise
/// identical at every thread count.
fn assign_all(
    rows: &[f32],
    n_vectors: usize,
    dims: usize,
    centroids: &[f32],
    k: usize,
    assign: &mut [u32],
    pool: &ThreadPool,
) -> f64 {
    let row = |v: usize| &rows[v * dims..(v + 1) * dims];
    let screen = if dims <= SEED_SKIP_MAX_DIMS {
        dims.min(SCREEN_DIMS)
    } else {
        0
    };
    let shrink = screen_shrink(dims, screen);
    let block = (screen > 0).then(|| PdxBlock::from_rows(centroids, k, dims, DEFAULT_GROUP_SIZE));
    let inertias = std::sync::Mutex::new(vec![0.0f64; n_vectors.div_ceil(CHUNK_VECTORS)]);
    pool.for_each_chunk_mut(assign, CHUNK_VECTORS, |start, chunk| {
        let mut local = 0.0f64;
        let (mut part, mut kept) = (vec![0.0f32; SCREEN_BAND * k], vec![0u64; k.div_ceil(64)]);
        for (b, slots) in chunk.chunks_mut(SCREEN_BAND).enumerate() {
            let first = start + b * SCREEN_BAND;
            let band: Vec<&[f32]> = (first..first + slots.len()).map(row).collect();
            let part = &mut part[..band.len() * k];
            if let Some(block) = &block {
                part.fill(0.0);
                let auto = KernelPolicy::Auto;
                pdx_accumulate_band(Metric::L2, block, &band, 0..screen, part, auto);
            }
            for ((slot, row), part) in slots.iter_mut().zip(&band).zip(part.chunks_exact(k)) {
                let prev = *slot as usize;
                let (c, d) = nearest(row, centroids, dims, prev, part, shrink, &mut kept);
                *slot = c as u32;
                local += d as f64;
            }
        }
        inertias.lock().unwrap()[start / CHUNK_VECTORS] = local;
    });
    inertias.into_inner().unwrap().iter().sum()
}

/// A row's nearest seed so far during k-means++ seeding.
#[derive(Clone, Copy)]
struct Near {
    /// Squared distance to the seed, as the kernel computed it.
    d2: f32,
    /// Index of the seed.
    seed: u32,
}

/// Whether the triangle inequality proves that a new seed at squared
/// distance `dcc` from a row's nearest seed is not nearer to the row
/// than `d2`, the row's squared distance to that seed.
///
/// In real numbers `dcc > 4 · d2` is enough. The kernel's values carry
/// a relative error of at most `ε ≈ (dims + 3) · 2⁻²⁴` each (a sum of
/// `dims` non-negative terms, each `(x − y)²` with its own rounding), so
/// the test asks for a margin `m` on top: with computed values the
/// distance `b` to the new seed then satisfies
/// `√b ≥ √a · (2√((1 − ε)(1 + m)/(1 + ε)) − 1)`, and its computed value
/// is ≥ the computed `d2` once `m ≥ 3ε`. `m` = 1 % covers
/// `ε ≤ 3.3 · 10⁻³`, that is `dims` up to ≈ 55 000; seeding does not
/// skip above [`SEED_SKIP_MAX_DIMS`] = 2¹⁵, where `ε ≤ 2 · 10⁻³`. Near
/// the subnormal range a term's rounding error is absolute (≤ 2⁻¹⁵⁰),
/// not relative, so a `d2` below [`SEED_SKIP_MIN_D2`] never skips
/// either. Nothing non-finite skips: an infinite or NaN `d2` compares
/// false and `dcc` must be finite. Computed in `f64`, where
/// `4 · d2 · (1 + m)` cannot overflow.
fn seed_skips(dcc: f32, d2: f32) -> bool {
    const MARGIN: f64 = 0.01;
    dcc.is_finite()
        && f64::from(d2) >= SEED_SKIP_MIN_D2
        && f64::from(dcc) > 4.0 * f64::from(d2) * (1.0 + MARGIN)
}

/// Widest rows whose rounding [`seed_skips`]' margin covers; the
/// assignment screen stops there too.
const SEED_SKIP_MAX_DIMS: usize = 1 << 15;

/// Smallest `d2` [`seed_skips`] trusts, and smallest best distance
/// [`screened_out`] screens against: `2⁻¹⁰⁰`. The subnormal rounding
/// of at most [`SEED_SKIP_MAX_DIMS`] terms adds up to `2⁻¹³⁵`, a relative
/// `2⁻³⁵` at that size, far below the margin.
const SEED_SKIP_MIN_D2: f64 = 1.0 / (1u128 << 100) as f64;

/// k-means++ seeding: each next seed is drawn with probability
/// proportional to its squared distance to the nearest existing seed.
/// The sampling sum and the draw run in row order; the distance update
/// runs on the pool and skips the rows [`seed_skips`] proves untouched.
fn plus_plus_init(
    rows: &[f32],
    n_vectors: usize,
    dims: usize,
    k: usize,
    rng: &mut StdRng,
    pool: &ThreadPool,
) -> Vec<f32> {
    let row = |v: usize| &rows[v * dims..(v + 1) * dims];
    let skip = dims <= SEED_SKIP_MAX_DIMS;
    let mut centroids = Vec::with_capacity(k * dims);
    let first = rng.random_range(0..n_vectors);
    centroids.extend_from_slice(row(first));
    let mut near = vec![Near { d2: 0.0, seed: 0 }; n_vectors];
    pool.for_each_chunk_mut(&mut near, CHUNK_VECTORS, |start, chunk| {
        for (slot, v) in chunk.iter_mut().zip(start..) {
            slot.d2 = nary_distance(Metric::L2, KernelVariant::Simd, row(v), row(first));
        }
    });
    let mut dcc = Vec::with_capacity(k);
    while centroids.len() < k * dims {
        let total: f64 = near.iter().map(|s| s.d2 as f64).sum();
        let pick = if total <= 0.0 {
            rng.random_range(0..n_vectors)
        } else {
            let mut target = rng.random::<f64>() * total;
            let mut chosen = n_vectors - 1;
            for (v, s) in near.iter().enumerate() {
                target -= s.d2 as f64;
                if target <= 0.0 {
                    chosen = v;
                    break;
                }
            }
            chosen
        };
        let new = row(pick);
        dcc.clear();
        dcc.extend(
            centroids
                .chunks_exact(dims)
                .map(|c| nary_distance(Metric::L2, KernelVariant::Simd, c, new)),
        );
        let seed = dcc.len() as u32;
        centroids.extend_from_slice(new);
        pool.for_each_chunk_mut(&mut near, CHUNK_VECTORS, |start, chunk| {
            for (slot, v) in chunk.iter_mut().zip(start..) {
                if skip && seed_skips(dcc[slot.seed as usize], slot.d2) {
                    continue;
                }
                let d = nary_distance(Metric::L2, KernelVariant::Simd, row(v), new);
                if d < slot.d2 {
                    *slot = Near { d2: d, seed };
                }
            }
        });
    }
    centroids
}

/// The point farthest from its assigned centroid (empty-cluster rescue).
fn farthest_point(
    rows: &[f32],
    n_vectors: usize,
    dims: usize,
    centroids: &[f32],
    assign: &[u32],
) -> usize {
    let mut best = (0usize, -1.0f32);
    for v in 0..n_vectors {
        let c = assign[v] as usize;
        let d = nary_distance(
            Metric::L2,
            KernelVariant::Simd,
            &rows[v * dims..(v + 1) * dims],
            &centroids[c * dims..(c + 1) * dims],
        );
        if d > best.1 {
            best = (v, d);
        }
    }
    best.0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two tight, well-separated blobs.
    fn two_blobs(n_per: usize) -> Vec<f32> {
        let mut rows = Vec::with_capacity(n_per * 2 * 2);
        for i in 0..n_per {
            rows.extend_from_slice(&[0.0 + (i % 3) as f32 * 0.01, 0.0]);
        }
        for i in 0..n_per {
            rows.extend_from_slice(&[100.0 + (i % 3) as f32 * 0.01, 100.0]);
        }
        rows
    }

    /// The cluster of every row as per-cluster member lists.
    fn buckets(k: usize, assign: &[u32]) -> Vec<Vec<u32>> {
        let mut buckets = vec![Vec::new(); k];
        for (v, &c) in assign.iter().enumerate() {
            buckets[c as usize].push(v as u32);
        }
        buckets
    }

    #[test]
    fn separates_two_blobs() {
        let rows = two_blobs(50);
        let (km, assign) = KMeans::fit(&rows, 100, 2, 2, 20, 1);
        let buckets = buckets(km.k, &assign);
        assert_eq!(buckets.len(), 2);
        let sizes: Vec<usize> = buckets.iter().map(|b| b.len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 100);
        assert_eq!(
            *sizes.iter().max().unwrap(),
            50,
            "blobs must split evenly: {sizes:?}"
        );
        // Members of one bucket must all be from the same blob.
        for b in &buckets {
            let first_blob = b[0] < 50;
            assert!(b.iter().all(|&v| (v < 50) == first_blob));
        }
    }

    #[test]
    fn inertia_is_small_for_tight_blobs() {
        let rows = two_blobs(30);
        let (km, _) = KMeans::fit(&rows, 60, 2, 2, 25, 3);
        assert!(km.inertia < 1.0, "inertia {}", km.inertia);
    }

    #[test]
    fn k_clamped_to_collection_size() {
        let rows = vec![0.0f32, 0.0, 1.0, 1.0];
        let (km, _) = KMeans::fit(&rows, 2, 2, 10, 5, 0);
        assert_eq!(km.k, 2);
    }

    #[test]
    fn every_vector_assigned_exactly_once() {
        let rows: Vec<f32> = (0..400).map(|i| ((i * 7919 % 997) as f32) * 0.1).collect();
        let (km, assign) = KMeans::fit(&rows, 100, 4, 7, 10, 5);
        assert_eq!(assign.len(), 100);
        assert!(assign.iter().all(|&c| (c as usize) < km.k));
        let mut seen = [false; 100];
        for b in &buckets(km.k, &assign) {
            for &v in b {
                assert!(!seen[v as usize], "vector {v} in two buckets");
                seen[v as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn assign_matches_assignments() {
        // The fitted assignment is each row's nearest final centroid, and
        // its distances sum to the reported inertia.
        let rows = two_blobs(20);
        let (km, assign) = KMeans::fit(&rows, 40, 2, 2, 10, 9);
        let mut inertia = 0.0f64;
        for (v, &c) in assign.iter().enumerate() {
            let (want, d) = reference::nearest(&rows[v * 2..(v + 1) * 2], &km.centroids, km.k, 2);
            assert_eq!(c as usize, want, "row {v}");
            inertia += d as f64;
        }
        assert_eq!(inertia.to_bits(), km.inertia.to_bits());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let rows: Vec<f32> = (0..600).map(|i| ((i * 31 % 173) as f32) * 0.3).collect();
        let a = KMeans::fit(&rows, 150, 4, 5, 8, 42);
        let b = KMeans::fit(&rows, 150, 4, 5, 8, 42);
        assert_eq!(a.0.centroids, b.0.centroids);
        assert_eq!(a.1, b.1);
    }

    #[test]
    fn fit_is_thread_count_independent() {
        // Fixed assignment chunks + in-order inertia summation: the
        // fitted model must be bitwise identical at every pool width.
        let rows: Vec<f32> = (0..2000).map(|i| ((i * 131 % 997) as f32) * 0.05).collect();
        let want = KMeans::fit_with_pool(&rows, 500, 4, 7, 10, 11, &ThreadPool::new(1));
        for threads in [2usize, 8] {
            let got = KMeans::fit_with_pool(&rows, 500, 4, 7, 10, 11, &ThreadPool::new(threads));
            assert_eq!(got.0.centroids, want.0.centroids, "threads = {threads}");
            assert_eq!(got.0.inertia.to_bits(), want.0.inertia.to_bits());
            assert_eq!(got.1, want.1, "threads = {threads}");
        }
    }

    /// The unpruned steps: seeding, `nearest` and the re-assignment
    /// pass exactly as a plain Lloyd fit runs them, one full distance
    /// per (row, seed) and per (row, centroid).
    mod reference {
        use super::*;

        pub(super) fn nearest(
            row: &[f32],
            centroids: &[f32],
            k: usize,
            dims: usize,
        ) -> (usize, f32) {
            let mut best = (0usize, f32::INFINITY);
            for c in 0..k {
                let d = nary_distance(
                    Metric::L2,
                    KernelVariant::Simd,
                    row,
                    &centroids[c * dims..(c + 1) * dims],
                );
                if d < best.1 {
                    best = (c, d);
                }
            }
            best
        }

        pub(super) fn assign_all(
            rows: &[f32],
            n_vectors: usize,
            dims: usize,
            centroids: &[f32],
            k: usize,
            assign: &mut [u32],
            pool: &ThreadPool,
        ) -> f64 {
            let inertias = std::sync::Mutex::new(vec![0.0f64; n_vectors.div_ceil(CHUNK_VECTORS)]);
            pool.for_each_chunk_mut(assign, CHUNK_VECTORS, |start, chunk| {
                let mut local = 0.0f64;
                let end = start + chunk.len();
                for (slot, v) in chunk.iter_mut().zip(start..end) {
                    let (c, d) = nearest(&rows[v * dims..(v + 1) * dims], centroids, k, dims);
                    *slot = c as u32;
                    local += d as f64;
                }
                inertias.lock().unwrap()[start / CHUNK_VECTORS] = local;
            });
            inertias.into_inner().unwrap().iter().sum()
        }

        pub(super) fn plus_plus_init(
            rows: &[f32],
            n_vectors: usize,
            dims: usize,
            k: usize,
            rng: &mut StdRng,
            _pool: &ThreadPool,
        ) -> Vec<f32> {
            let mut centroids = Vec::with_capacity(k * dims);
            let first = rng.random_range(0..n_vectors);
            centroids.extend_from_slice(&rows[first * dims..(first + 1) * dims]);
            let mut d2: Vec<f32> = (0..n_vectors)
                .map(|v| {
                    nary_distance(
                        Metric::L2,
                        KernelVariant::Simd,
                        &rows[v * dims..(v + 1) * dims],
                        &centroids[..dims],
                    )
                })
                .collect();
            while centroids.len() < k * dims {
                let total: f64 = d2.iter().map(|&x| x as f64).sum();
                let pick = if total <= 0.0 {
                    rng.random_range(0..n_vectors)
                } else {
                    let mut target = rng.random::<f64>() * total;
                    let mut chosen = n_vectors - 1;
                    for (v, &x) in d2.iter().enumerate() {
                        target -= x as f64;
                        if target <= 0.0 {
                            chosen = v;
                            break;
                        }
                    }
                    chosen
                };
                let new = &rows[pick * dims..(pick + 1) * dims];
                centroids.extend_from_slice(new);
                for (v, slot) in d2.iter_mut().enumerate() {
                    let d = nary_distance(
                        Metric::L2,
                        KernelVariant::Simd,
                        &rows[v * dims..(v + 1) * dims],
                        new,
                    );
                    if d < *slot {
                        *slot = d;
                    }
                }
            }
            centroids
        }

        /// A plain Lloyd fit: the unpruned steps in the same loop.
        pub(super) fn fit(
            rows: &[f32],
            n_vectors: usize,
            dims: usize,
            k: usize,
            max_iters: usize,
            seed: u64,
        ) -> (KMeans, Vec<u32>) {
            let pool = ThreadPool::new(1);
            lloyd(
                rows,
                n_vectors,
                dims,
                k,
                max_iters,
                seed,
                &pool,
                plus_plus_init,
                assign_all,
            )
        }
    }

    /// One hostile input: rows, their count and width, and `k`.
    struct Case {
        name: String,
        rows: Vec<f32>,
        n: usize,
        d: usize,
        k: usize,
    }

    /// Every input class the pruning must survive: duplicate rows, all
    /// rows equal, zero vectors, `k` of 1 and of `n`, widths on every
    /// side of the kernels' 8- and 32-dimension steps and of the
    /// screen's 64, `k` of 65 and 200 (a centroid block whose last group
    /// is partial), rows symmetric about two centroids (exact ties),
    /// magnitudes whose squared distances overflow or fall below the
    /// screen's floor (subnormal terms included), and NaN / ±inf entries.
    fn hostile_cases() -> Vec<Case> {
        use rand::rngs::StdRng;
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let mut cases = Vec::new();
        let mut push = |name: String, rows: Vec<f32>, d: usize, k: usize| {
            let n = rows.len() / d;
            cases.push(Case {
                name,
                rows,
                n,
                d,
                k,
            });
        };
        for d in [1usize, 7, 8, 31, 32, 33, 63, 64, 65, 960] {
            let n = if d == 960 { 48 } else { 240 };
            let gauss = |rng: &mut StdRng, n: usize| -> Vec<f32> {
                (0..n * d).map(|_| rng.random_range(-1.0f32..1.0)).collect()
            };
            // Clustered rows: a few centres plus small noise.
            let centres = gauss(&mut rng, 6);
            let clustered: Vec<f32> = (0..n)
                .flat_map(|v| {
                    let c = v % 6;
                    centres[c * d..(c + 1) * d]
                        .iter()
                        .map(|&x| x * 10.0)
                        .collect::<Vec<_>>()
                })
                .zip(gauss(&mut rng, n))
                .map(|(c, e)| c + 0.1 * e)
                .collect();
            for k in [1, 5, 16, 65, 200, n] {
                push(format!("clustered d={d} k={k}"), clustered.clone(), d, k);
            }
            push(format!("uniform d={d}"), gauss(&mut rng, n), d, 12);
            // Duplicates: every row appears three times.
            let base = gauss(&mut rng, n / 3);
            let dup: Vec<f32> = (0..3).flat_map(|_| base.iter().copied()).collect();
            push(format!("duplicates d={d}"), dup, d, 9);
            // All rows equal (the seeding's `total <= 0` branch), and zero vectors.
            let one = gauss(&mut rng, 1);
            push(format!("all equal d={d}"), one.repeat(n), d, 4);
            let mut zeros = gauss(&mut rng, n);
            for v in (0..n).step_by(3) {
                zeros[v * d..(v + 1) * d].fill(0.0);
            }
            push(format!("zero vectors d={d}"), zeros, d, 7);
            push(format!("all zero d={d}"), vec![0.0; n * d], d, 3);
            // Rows symmetric about two centroids: ±1 around ±10 on the first axis.
            let sym: Vec<f32> = (0..n)
                .flat_map(|v| {
                    let mut r = vec![0.0f32; d];
                    r[0] = [-11.0, -9.0, 9.0, 11.0][v % 4];
                    if d > 1 {
                        r[d - 1] = [1.0, -1.0][(v / 4) % 2];
                    }
                    r
                })
                .collect();
            push(format!("symmetric d={d}"), sym.clone(), d, 2);
            push(format!("symmetric d={d} k=3"), sym, d, 3);
            // Magnitudes near 1e19: squared distances overflow to +inf.
            let huge: Vec<f32> = gauss(&mut rng, n).iter().map(|&x| x * 1e19).collect();
            push(format!("huge d={d}"), huge, d, 6);
            // Squared distances below 2⁻¹⁰⁰ (1e-17), and subnormal terms (1e-21).
            for scale in [1e-17f32, 1e-21] {
                let tiny = clustered.iter().map(|&x| x * scale).collect();
                push(format!("tiny {scale:e} d={d}"), tiny, d, 8);
            }
            // NaN and ±inf entries sprinkled into clustered rows.
            let mut bad = clustered.clone();
            for (i, x) in bad.iter_mut().enumerate() {
                match rng.random_range(0..40) {
                    0 => *x = f32::NAN,
                    1 => *x = f32::INFINITY,
                    2 => *x = f32::NEG_INFINITY,
                    _ if i % 97 == 0 => *x = f32::INFINITY,
                    _ => {}
                }
            }
            push(format!("nan/inf d={d}"), bad, d, 8);
            let mut few_bad = clustered;
            for v in (0..n).step_by(11) {
                few_bad[v * d] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][(v / 11) % 3];
            }
            push(format!("few nan/inf d={d}"), few_bad, d, 8);
        }
        cases
    }

    #[test]
    fn pruned_fit_is_the_plain_fit_bit_for_bit() {
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for case in hostile_cases() {
            for seed in [1u64, 2] {
                let (want, want_assign) =
                    reference::fit(&case.rows, case.n, case.d, case.k, 6, seed);
                for threads in [1usize, 2, 8] {
                    let (got, got_assign) = KMeans::fit_with_pool(
                        &case.rows,
                        case.n,
                        case.d,
                        case.k,
                        6,
                        seed,
                        &ThreadPool::new(threads),
                    );
                    let at = format!("{} seed={seed} threads={threads}", case.name);
                    assert_eq!(got.k, want.k, "{at}");
                    assert_eq!(bits(&got.centroids), bits(&want.centroids), "{at}");
                    assert_eq!(got.inertia.to_bits(), want.inertia.to_bits(), "{at}");
                    assert_eq!(got_assign, want_assign, "{at}");
                }
            }
        }
    }

    #[test]
    fn nearest_is_the_plain_loop_from_any_previous_centroid() {
        // Ties, NaN and +inf distances: the visiting order never shows,
        // wherever in the table the NaN and +inf distances sit.
        let table = [
            [0.0f32, 0.0],
            [2.0, 0.0],
            [-2.0, 0.0],
            [2.0, 0.0],
            [f32::NAN, 0.0],
            [f32::INFINITY, 0.0],
            [1e30, 0.0],
        ];
        let k = table.len();
        let rows = [
            [1.0f32, 0.0],
            [-1.0, 0.0],
            [0.0, 0.0],
            [2.0, 0.0],
            [1e19, 0.0],
            [f32::NAN, 0.0],
            [f32::INFINITY, 0.0],
            [0.0, f32::NEG_INFINITY],
        ];
        let shrink = screen_shrink(2, 2);
        for shift in 0..k {
            let centroids: Vec<f32> = (0..k).flat_map(|c| table[(c + shift) % k]).collect();
            for row in &rows {
                let want = reference::nearest(row, &centroids, k, 2);
                // The screen's partials, and the unscreened all-zero ones.
                for part in [partials(row, &centroids, k, 2), vec![0.0; k]] {
                    for prev in 0..k {
                        let got = nearest(row, &centroids, 2, prev, &part, shrink, &mut [0; 1]);
                        let at = format!("{row:?} from {prev}, shift {shift}, {part:?}");
                        assert_eq!(got.0, want.0, "{at}");
                        assert_eq!(got.1.to_bits(), want.1.to_bits(), "{at}");
                    }
                }
            }
        }
    }

    /// One row's screen partials, as [`assign_all`] computes them.
    fn partials(row: &[f32], centroids: &[f32], k: usize, dims: usize) -> Vec<f32> {
        let block = PdxBlock::from_rows(centroids, k, dims, DEFAULT_GROUP_SIZE);
        let (mut part, screen) = (vec![0.0; k], 0..dims.min(SCREEN_DIMS));
        pdx_accumulate_band(
            Metric::L2,
            &block,
            &[row],
            screen,
            &mut part,
            KernelPolicy::Auto,
        );
        part
    }

    #[test]
    fn nearest_resolves_near_ties_like_the_plain_loop() {
        // Centroids that differ from the row only in the screened
        // dimensions, by permutations and sign flips of one offset, some
        // nudged by an ulp: equidistant in real numbers, a few ulps apart
        // once rounded, and each partial within rounding of its distance.
        let mut rng = StdRng::seed_from_u64(0x71e5);
        let k = 65;
        for d in [8usize, 63, 64, 65, 130] {
            let screen = d.min(SCREEN_DIMS);
            let shrink = screen_shrink(d, screen);
            for _ in 0..20 {
                let row: Vec<f32> = (0..d).map(|_| rng.random_range(-4.0f32..4.0)).collect();
                let offset: Vec<f32> = (0..screen)
                    .map(|_| rng.random_range(-1.0f32..1.0))
                    .collect();
                let mut centroids = Vec::with_capacity(k * d);
                for c in 0..k {
                    let mut centroid = row.clone();
                    let turn = rng.random_range(0..screen);
                    for (j, x) in centroid[..screen].iter_mut().enumerate() {
                        let delta = offset[(j + turn) % screen];
                        *x += if rng.random::<bool>() { delta } else { -delta };
                    }
                    if c % 3 == 0 {
                        let j = rng.random_range(0..screen);
                        centroid[j] = f32::from_bits(centroid[j].to_bits() + 1);
                    }
                    centroids.extend_from_slice(&centroid);
                }
                let want = reference::nearest(&row, &centroids, k, d);
                let part = partials(&row, &centroids, k, d);
                for prev in [0, 1, k / 2, k - 1] {
                    let got = nearest(&row, &centroids, d, prev, &part, shrink, &mut [0; 2]);
                    assert_eq!(got.0, want.0, "d={d} from {prev}");
                    assert_eq!(got.1.to_bits(), want.1.to_bits(), "d={d} from {prev}");
                }
            }
        }
    }

    #[test]
    fn screen_margin_covers_rounding() {
        // With every dimension screened, the band kernel's partial still
        // exceeds the full kernel's distance for some pairs: its lanes add
        // in storage order, the full kernel in its own tree. With a shrink
        // of 1 such a centroid would be screened out against a best that
        // ties its distance, which it wins on a lower index.
        let mut rng = StdRng::seed_from_u64(0x5c4e);
        let found = (0..10_000).find_map(|_| {
            let d = rng.random_range(2..=SCREEN_DIMS);
            let x: Vec<f32> = (0..d).map(|_| rng.random_range(-1.0f32..1.0)).collect();
            let c: Vec<f32> = (0..d).map(|_| rng.random_range(-1.0f32..1.0)).collect();
            let full = nary_distance(Metric::L2, KernelVariant::Simd, &x, &c);
            let p = partials(&x, &c, 1, d)[0];
            (p > full).then_some((d, p, full))
        });
        let (d, p, full) = found.expect("no partial above its full distance");
        assert!(f64::from(p) > f64::from(full), "{p} > {full}");
        assert!(!screened_out(p, full, screen_shrink(d, d)), "d={d}");
    }

    #[test]
    fn keep_bits_keeps_what_screened_out_keeps() {
        // Every partial `screened_out` keeps is kept, at every magnitude
        // and for NaN / ±inf; the few in between are left to
        // `screened_out` itself.
        let mut rng = StdRng::seed_from_u64(0x1d17);
        let shrink = screen_shrink(128, SCREEN_DIMS);
        let specials = [0.0, f32::MIN_POSITIVE, f32::MAX, f32::INFINITY, f32::NAN];
        for _ in 0..2_000 {
            let best = match rng.random_range(0..4) {
                0 => f32::from_bits(rng.random_range(0..0x7f80_0000)),
                1 => f32::INFINITY,
                2 => 1e-31,
                _ => rng.random_range(0.5f32..2.0),
            };
            let limit = screen_limit(best, shrink);
            let part: Vec<f32> = (0..130)
                .map(|i| match i % 13 {
                    0 => specials[i / 13 % specials.len()],
                    _ if limit.is_finite() => f32::from_bits(
                        (limit.to_bits() + rng.random_range(0u32..64)).saturating_sub(32),
                    ),
                    _ => f32::from_bits(rng.random_range(0..0x7f80_0000)),
                })
                .collect();
            let mut kept = [0u64; 3];
            keep_bits(&part, limit, &mut kept);
            let kept: Vec<usize> = ones(&kept).collect();
            for (c, &p) in part.iter().enumerate() {
                if !screened_out(p, best, shrink) {
                    assert!(kept.contains(&c), "{p} against {best}");
                }
                if kept.contains(&c) && p.is_finite() {
                    assert!(p <= limit, "{p} above {limit}");
                }
            }
        }
    }

    #[test]
    fn the_screen_rules_out_most_pairs_on_clustered_data() {
        // The screen must fire on data with separated clusters, or the
        // bit-identity above proves nothing about it.
        let (n, d, k) = (512, 96, 16);
        let rows: Vec<f32> = (0..n)
            .flat_map(|v| (0..d).map(move |j| ((v % k) * 40 + (v * 7 + j * 3) % 5) as f32))
            .collect();
        let centroids: Vec<f32> = (0..k * d).map(|i| ((i / d) * 40) as f32 + 2.0).collect();
        let shrink = screen_shrink(d, SCREEN_DIMS);
        let mut screened = 0usize;
        for v in 0..n {
            let row = &rows[v * d..(v + 1) * d];
            let part = partials(row, &centroids, k, d);
            let (_, best) = reference::nearest(row, &centroids, k, d);
            screened += part
                .iter()
                .filter(|&&p| screened_out(p, best, shrink))
                .count();
        }
        assert!(
            screened > n * (k - 1) * 9 / 10,
            "screened {screened} of {}",
            n * (k - 1)
        );
    }

    #[test]
    fn seed_skip_margin_covers_rounding() {
        // Rounding alone puts `c` above `4a` here although the new seed
        // is nearer to `x` (`b < a`): without the margin, seeding would
        // skip the one row it must update.
        let x = [-0.473_056_55f32, -0.181_772_93];
        let near = [0.084_300_235f32, 0.939_629_3];
        let new = [-1.030_413_4f32, -1.303_175_1];
        let l2 = |p: &[f32], q: &[f32]| nary_distance(Metric::L2, KernelVariant::Simd, p, q);
        let (a, b, c) = (l2(&x, &near), l2(&x, &new), l2(&near, &new));
        assert!(b < a, "{b} < {a}");
        assert!(f64::from(c) > 4.0 * f64::from(a), "{c} > 4 · {a}");
        assert!(!seed_skips(c, a));
    }

    #[test]
    fn seeding_skips_rows_on_separated_data() {
        // The skip test must fire where seeds are far apart, or the
        // bit-identity above proves nothing about it.
        let (n, d) = (600, 16);
        let rows: Vec<f32> = (0..n)
            .flat_map(|v| (0..d).map(move |j| ((v % 20) * 50 + (v * 7 + j * 3) % 5) as f32))
            .collect();
        let mut skipped = 0usize;
        let mut rng = StdRng::seed_from_u64(3);
        let seeds = plus_plus_init(&rows, n, d, 20, &mut rng, &ThreadPool::new(1));
        let seed = |s: usize| &seeds[s * d..(s + 1) * d];
        for s in 1..20 {
            for v in 0..n {
                let row = &rows[v * d..(v + 1) * d];
                let (near, d2) = reference::nearest(row, &seeds[..s * d], s, d);
                let dcc = nary_distance(Metric::L2, KernelVariant::Simd, seed(near), seed(s));
                skipped += seed_skips(dcc, d2) as usize;
            }
        }
        assert!(skipped > n * 19 / 4, "skipped {skipped} of {}", n * 19);
    }
}
