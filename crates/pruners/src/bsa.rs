//! BSA: PCA-projection pruning with Cauchy–Schwarz error quantiles.
//!
//! BSA (Yang et al., 2024 — BSA_res in the paper's terminology) rotates
//! the collection onto its principal axes. After scanning the first `d'`
//! rotated dimensions, the squared distance decomposes exactly:
//!
//! ```text
//! dist = partial + res_v + res_q − 2·⟨v_rest, q_rest⟩
//! ```
//!
//! where `res_v = ‖v[d'..]‖²` and `res_q = ‖q[d'..]‖²`. Cauchy–Schwarz
//! bounds the cross term by `2ab` (`a = ‖v_rest‖`, `b = ‖q_rest‖`), giving
//! the *exact* lower bound `partial + (a − b)²`. Because random
//! high-dimensional residuals are nearly orthogonal, the cross term
//! concentrates well below `2ab`; BSA exploits this with an error
//! quantile `ρ ∈ (0, 1]` on the cross term:
//!
//! ```text
//! prune ⇔ partial + res_v + res_q − 2ρ·a·b > threshold
//! ```
//!
//! `ρ = 1` reproduces the exact bound (no recall loss); smaller `ρ`
//! prunes earlier at a bounded risk. The per-vector `a` values are
//! precomputed at the PDXearch checkpoint dimensions and stored as block
//! aux data ([`pdx_core::pruning::BlockAux`]), dimension-major, so the
//! survival test stays a branch-free two-FMA comparison.
//!
//! [`BsaLearned`] replaces the closed-form bound with a per-checkpoint
//! least-squares model of the true residual distance (the paper's
//! BSA_pca ablation).

use pdx_core::collection::SearchBlock;
use pdx_core::distance::Metric;
use pdx_core::pruning::{BlockAux, Lane, Pruner};
use pdx_linalg::{LinearRegression, MatrixView, Pca};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The BSA pruner: a fitted PCA rotation plus the cross-term quantile.
#[derive(Debug, Clone)]
pub struct Bsa {
    pca: Pca,
    /// Cross-term quantile ρ; 1.0 = exact Cauchy–Schwarz bound.
    rho: f32,
    dims: usize,
}

/// Per-query state: rotated query plus suffix norms at every dimension.
#[derive(Debug, Clone)]
pub struct BsaQuery {
    rotated: Vec<f32>,
    /// `sqrt_res[d] = ‖rotated[d..]‖`; length `dims + 1` (last entry 0).
    sqrt_res: Vec<f32>,
}

impl BsaQuery {
    fn new(rotated: Vec<f32>) -> Self {
        let sqrt_res = suffix_norms(&rotated);
        Self { rotated, sqrt_res }
    }
}

/// Per-checkpoint state: `survives ⇔ partial + a·(a − c) ≤ thr_adj`.
#[derive(Debug, Clone, Copy)]
pub struct BsaCheckpoint {
    thr_adj: f32,
    c: f32,
}

/// Computes `‖v[d..]‖` for every `d` (suffix L2 norms), in `f64` for
/// stable accumulation.
fn suffix_norms(v: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; v.len() + 1];
    let mut acc = 0.0f64;
    for d in (0..v.len()).rev() {
        acc += (v[d] as f64) * (v[d] as f64);
        out[d] = acc.sqrt() as f32;
    }
    out
}

impl Bsa {
    /// Default cross-term quantile: prunes noticeably earlier than the
    /// exact bound while staying at ADSampling-level recall on the
    /// paper's dataset shapes.
    pub const DEFAULT_RHO: f32 = 0.4;

    /// Fits the PCA rotation on (a sample of) the collection.
    pub fn fit(rows: &[f32], n_vectors: usize, dims: usize, max_sample_rows: usize) -> Self {
        assert_eq!(
            rows.len(),
            n_vectors * dims,
            "row buffer does not match dims"
        );
        let pca = Pca::fit(MatrixView::new(n_vectors, dims, rows), max_sample_rows);
        Self {
            pca,
            rho: Self::DEFAULT_RHO,
            dims,
        }
    }

    /// Overrides the cross-term quantile ρ (1.0 = exact bound).
    pub fn with_rho(mut self, rho: f32) -> Self {
        assert!(rho > 0.0 && rho <= 1.0, "rho must be in (0, 1]");
        self.rho = rho;
        self
    }

    /// The fitted dimensionality.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Configured quantile ρ.
    pub fn rho(&self) -> f32 {
        self.rho
    }

    /// Eigenvalue spectrum of the fitted PCA (diagnostics / tuning).
    pub fn explained_variance(&self) -> &[f64] {
        &self.pca.explained_variance
    }

    /// Rotates a whole collection into PCA space, multi-threaded; each
    /// row comes out with the bits [`Bsa::transform_vector`] gives it.
    pub fn transform_collection(&self, rows: &[f32], n_vectors: usize, threads: usize) -> Vec<f32> {
        assert_eq!(
            rows.len(),
            n_vectors * self.dims,
            "row buffer does not match dims"
        );
        let rows = MatrixView::new(n_vectors, self.dims, rows);
        self.pca.rotate_rows(rows, threads).into_vec()
    }

    /// Rotates one vector (query-time path).
    pub fn transform_vector(&self, v: &[f32]) -> Vec<f32> {
        self.pca.rotate(v)
    }

    /// Precomputes the per-vector `‖v_rest‖` aux rows for a PDX block
    /// (which must already hold *rotated* vectors) at the given
    /// checkpoint dimensions — the same schedule the search will use.
    pub fn attach_aux(&self, block: &mut SearchBlock, checkpoint_dims: &[usize]) {
        let n = block.len();
        let mut aux = BlockAux::new(checkpoint_dims.iter().map(|&c| c as u32).collect(), n);
        for v in 0..n {
            let vec = block.pdx.vector(v);
            let norms = suffix_norms(&vec);
            for (ci, &c) in checkpoint_dims.iter().enumerate() {
                aux.row_mut(ci)[v] = norms[c.min(vec.len())];
            }
        }
        block.aux = Some(aux);
    }
}

impl Pruner for Bsa {
    type Query = BsaQuery;
    type Checkpoint = BsaCheckpoint;
    const NEEDS_AUX: bool = true;

    fn name(&self) -> &'static str {
        "bsa"
    }

    fn metric(&self) -> Metric {
        Metric::L2
    }

    fn prepare_query(&self, query: &[f32]) -> BsaQuery {
        assert_eq!(query.len(), self.dims, "query dimensionality mismatch");
        BsaQuery::new(self.transform_vector(query))
    }

    /// Rotates the whole batch in one tiled product, so the PCA matrix
    /// streams from memory once for the batch, not once per query.
    fn prepare_queries(&self, packed: &[f32], dims: usize) -> Vec<BsaQuery> {
        assert_eq!(dims, self.dims, "query dimensionality mismatch");
        self.transform_collection(packed, packed.len() / dims, 1)
            .chunks_exact(dims)
            .map(|rotated| BsaQuery::new(rotated.to_vec()))
            .collect()
    }

    fn query_vector<'q>(&self, q: &'q BsaQuery) -> &'q [f32] {
        &q.rotated
    }

    fn checkpoint(
        &self,
        q: &BsaQuery,
        dims_scanned: usize,
        _dims_total: usize,
        threshold: f32,
    ) -> BsaCheckpoint {
        let b = q.sqrt_res[dims_scanned];
        // survive ⇔ partial + a² + b² − 2ρ·a·b ≤ thr
        //         ⇔ partial + a·(a − 2ρb) ≤ thr − b²
        BsaCheckpoint {
            thr_adj: threshold - b * b,
            c: 2.0 * self.rho * b,
        }
    }

    /// `partial + a·(a − c)`.
    #[inline(always)]
    fn slack<L: Lane>(cp: &BsaCheckpoint, partial: L, aux: L) -> L {
        partial.add(aux.mul(aux.sub(aux.fill(cp.c))))
    }

    #[inline(always)]
    fn limit(cp: &BsaCheckpoint) -> f32 {
        cp.thr_adj
    }
}

/// The learned BSA variant (BSA_pca): per-checkpoint least squares
/// predicting the true residual distance from `(a·b, a² + b²)`, minus a
/// `κ·RMSE` safety margin.
#[derive(Debug, Clone)]
pub struct BsaLearned {
    bsa: Bsa,
    /// Checkpoint dims the models were trained for.
    checkpoint_dims: Vec<usize>,
    /// One `(model, rmse)` per checkpoint dim.
    models: Vec<(LinearRegression, f64)>,
    /// Safety multiplier on the residual RMSE (larger = safer).
    kappa: f32,
}

/// Per-checkpoint state of the learned bound:
/// `survives ⇔ partial + a·(p·a + q) ≤ thr_adj`.
#[derive(Debug, Clone, Copy)]
pub struct BsaLearnedCheckpoint {
    p: f32,
    q: f32,
    thr_adj: f32,
}

impl BsaLearned {
    /// Trains per-checkpoint regressions on random vector pairs drawn
    /// from the **rotated** collection.
    ///
    /// # Panics
    /// Panics if the collection holds fewer than two vectors.
    pub fn fit(
        bsa: Bsa,
        rotated_rows: &[f32],
        n_vectors: usize,
        checkpoint_dims: &[usize],
        n_pairs: usize,
        seed: u64,
    ) -> Self {
        let dims = bsa.dims();
        assert!(
            n_vectors >= 2,
            "need at least two vectors to form training pairs"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        // Draw pairs once; reuse across checkpoints.
        let pairs: Vec<(usize, usize)> = (0..n_pairs.max(8))
            .map(|_| {
                let i = rng.random_range(0..n_vectors);
                let mut j = rng.random_range(0..n_vectors);
                if i == j {
                    j = (j + 1) % n_vectors;
                }
                (i, j)
            })
            .collect();
        let norm_cache: Vec<Vec<f32>> = pairs
            .iter()
            .flat_map(|&(i, j)| [i, j])
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .map(|v| suffix_norms(&rotated_rows[v * dims..(v + 1) * dims]))
            .collect();
        let index_of: std::collections::BTreeMap<usize, usize> = pairs
            .iter()
            .flat_map(|&(i, j)| [i, j])
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .enumerate()
            .map(|(slot, v)| (v, slot))
            .collect();
        let mut models = Vec::with_capacity(checkpoint_dims.len());
        for &c in checkpoint_dims {
            let mut xs: Vec<Vec<f64>> = Vec::with_capacity(pairs.len());
            let mut ys: Vec<f64> = Vec::with_capacity(pairs.len());
            for &(i, j) in &pairs {
                let a = norm_cache[index_of[&i]][c.min(dims)] as f64;
                let b = norm_cache[index_of[&j]][c.min(dims)] as f64;
                let vi = &rotated_rows[i * dims + c.min(dims)..(i + 1) * dims];
                let vj = &rotated_rows[j * dims + c.min(dims)..(j + 1) * dims];
                let rest: f64 = vi
                    .iter()
                    .zip(vj)
                    .map(|(x, y)| ((x - y) as f64) * ((x - y) as f64))
                    .sum();
                xs.push(vec![a * b, a * a + b * b]);
                ys.push(rest);
            }
            let model = LinearRegression::fit(&xs, &ys);
            let mse: f64 = xs
                .iter()
                .zip(&ys)
                .map(|(x, &y)| {
                    let e = model.predict(x) - y;
                    e * e
                })
                .sum::<f64>()
                / ys.len() as f64;
            models.push((model, mse.sqrt()));
        }
        Self {
            bsa,
            checkpoint_dims: checkpoint_dims.to_vec(),
            models,
            kappa: 2.0,
        }
    }

    /// Overrides the RMSE safety multiplier κ.
    pub fn with_kappa(mut self, kappa: f32) -> Self {
        assert!(kappa >= 0.0, "kappa must be non-negative");
        self.kappa = kappa;
        self
    }

    /// The underlying BSA (rotation + aux construction are shared).
    pub fn bsa(&self) -> &Bsa {
        &self.bsa
    }
}

impl Pruner for BsaLearned {
    type Query = BsaQuery;
    type Checkpoint = BsaLearnedCheckpoint;
    const NEEDS_AUX: bool = true;

    fn name(&self) -> &'static str {
        "bsa-learned"
    }

    fn metric(&self) -> Metric {
        Metric::L2
    }

    fn prepare_query(&self, query: &[f32]) -> BsaQuery {
        self.bsa.prepare_query(query)
    }

    fn prepare_queries(&self, packed: &[f32], dims: usize) -> Vec<BsaQuery> {
        self.bsa.prepare_queries(packed, dims)
    }

    fn query_vector<'q>(&self, q: &'q BsaQuery) -> &'q [f32] {
        &q.rotated
    }

    fn checkpoint(
        &self,
        q: &BsaQuery,
        dims_scanned: usize,
        _dims_total: usize,
        threshold: f32,
    ) -> BsaLearnedCheckpoint {
        let ci = self
            .checkpoint_dims
            .iter()
            .position(|&c| c == dims_scanned)
            .unwrap_or_else(|| panic!("no trained model for dims_scanned = {dims_scanned}"));
        let (model, rmse) = &self.models[ci];
        let b = q.sqrt_res[dims_scanned] as f64;
        // predicted_rest = w₀·a·b + w₁·(a² + b²) + c₀
        //               = (w₁)·a² + (w₀·b)·a + (w₁·b² + c₀)
        let p = model.weights[1] as f32;
        let qq = (model.weights[0] * b) as f32;
        let constant = (model.weights[1] * b * b + model.intercept) as f32;
        let margin = self.kappa * (*rmse as f32);
        // survive ⇔ partial + p·a² + q·a + constant − margin ≤ threshold
        BsaLearnedCheckpoint {
            p,
            q: qq,
            thr_adj: threshold - constant + margin,
        }
    }

    /// `partial + a·(p·a + q)`.
    #[inline(always)]
    fn slack<L: Lane>(cp: &BsaLearnedCheckpoint, partial: L, aux: L) -> L {
        partial.add(aux.mul(aux.fill(cp.p).mul(aux).add(aux.fill(cp.q))))
    }

    #[inline(always)]
    fn limit(cp: &BsaLearnedCheckpoint) -> f32 {
        cp.thr_adj
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdx_core::distance::distance_scalar;
    use pdx_core::pruning::checkpoints;
    use pdx_core::pruning::StepPolicy;

    fn random_rows(n: usize, d: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = pdx_linalg::Gaussian::new();
        (0..n * d)
            .map(|_| g.sample_f32(&mut rng) * (1.0 + (seed % 3) as f32))
            .collect()
    }

    #[test]
    fn suffix_norms_are_decreasing_and_correct() {
        let v = [3.0f32, 4.0, 0.0, 12.0];
        let norms = suffix_norms(&v);
        assert_eq!(norms.len(), 5);
        assert!((norms[0] - 13.0).abs() < 1e-5); // √(9+16+144)
        assert!((norms[3] - 12.0).abs() < 1e-6);
        assert_eq!(norms[4], 0.0);
        for w in norms.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn rotation_preserves_distances() {
        let (n, d) = (300, 20);
        let rows = random_rows(n, d, 1);
        let bsa = Bsa::fit(&rows, n, d, usize::MAX);
        let rot = bsa.transform_collection(&rows, n, 4);
        for (i, j) in [(0usize, 1usize), (5, 250), (100, 101)] {
            let d0 = distance_scalar(
                Metric::L2,
                &rows[i * d..(i + 1) * d],
                &rows[j * d..(j + 1) * d],
            );
            let d1 = distance_scalar(
                Metric::L2,
                &rot[i * d..(i + 1) * d],
                &rot[j * d..(j + 1) * d],
            );
            assert!((d0 - d1).abs() < d0.max(1.0) * 1e-3, "{d0} vs {d1}");
        }
    }

    #[test]
    fn batched_preparation_matches_per_query_bits() {
        let (n, d) = (200, 20);
        let rows = random_rows(n, d, 2);
        let bsa = Bsa::fit(&rows, n, d, usize::MAX);
        let sched = checkpoints(StepPolicy::Adaptive { start: 2 }, d);
        let rot = bsa.transform_collection(&rows, n, 1);
        let learned = BsaLearned::fit(bsa.clone(), &rot, n, &sched, 100, 3);
        let packed = random_rows(11, d, 4);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for batch in [
            bsa.prepare_queries(&packed, d),
            learned.prepare_queries(&packed, d),
        ] {
            assert_eq!(batch.len(), 11);
            for (q, raw) in batch.iter().zip(packed.chunks_exact(d)) {
                let want = bsa.prepare_query(raw);
                assert_eq!(bits(&q.rotated), bits(&want.rotated));
                assert_eq!(bits(&q.sqrt_res), bits(&want.sqrt_res));
            }
        }
    }

    #[test]
    fn slack_is_the_f32_expression_of_the_bound() {
        // The one-lane `slack` must round like the plain `f32`
        // expressions the two bounds were first written as.
        let vals = [0.0f32, -0.0, 0.3, 1.7, 123.456, 9.9e7, f32::INFINITY];
        for &partial in &vals {
            for &a in &vals {
                for &(x, y) in &[(0.37f32, 41.5f32), (-2.25, 0.001), (1e-3, -7.0)] {
                    let cp = BsaCheckpoint { thr_adj: y, c: x };
                    let want = partial + a * (a - cp.c);
                    assert_eq!(Bsa::slack(&cp, partial, a).to_bits(), want.to_bits());
                    assert_eq!(Bsa::survives(&cp, partial, a), want <= cp.thr_adj);
                    let cp = BsaLearnedCheckpoint {
                        p: x,
                        q: y,
                        thr_adj: y,
                    };
                    let want = partial + a * (cp.p * a + cp.q);
                    assert_eq!(BsaLearned::slack(&cp, partial, a).to_bits(), want.to_bits());
                    assert_eq!(BsaLearned::survives(&cp, partial, a), want <= cp.thr_adj);
                }
            }
        }
    }

    #[test]
    fn exact_bound_never_overshoots_true_distance() {
        // With ρ = 1 the bound is a valid lower bound: survives() must be
        // true whenever threshold == the true full distance.
        let (n, d) = (120, 24);
        let rows = random_rows(n, d, 3);
        let bsa = Bsa::fit(&rows, n, d, usize::MAX).with_rho(1.0);
        let rot = bsa.transform_collection(&rows, n, 2);
        let raw_q = random_rows(1, d, 9);
        let q = bsa.prepare_query(&raw_q);
        let qv = q.rotated.clone();
        for v in 0..n {
            let vr = &rot[v * d..(v + 1) * d];
            let full = distance_scalar(Metric::L2, &qv, vr);
            let norms = suffix_norms(vr);
            for scanned in [2usize, 6, 14, 23] {
                let partial = distance_scalar(Metric::L2, &qv[..scanned], &vr[..scanned]);
                let cp = bsa.checkpoint(&q, scanned, d, full * (1.0 + 1e-4) + 1e-4);
                assert!(
                    Bsa::survives(&cp, partial, norms[scanned]),
                    "exact bound pruned the true answer (v={v}, scanned={scanned})"
                );
            }
        }
    }

    #[test]
    fn smaller_rho_prunes_at_least_as_much() {
        let (n, d) = (80, 16);
        let rows = random_rows(n, d, 4);
        let bsa1 = Bsa::fit(&rows, n, d, usize::MAX).with_rho(1.0);
        let bsa2 = bsa1.clone().with_rho(0.2);
        let raw_q = random_rows(1, d, 5);
        let q1 = bsa1.prepare_query(&raw_q);
        let rot = bsa1.transform_collection(&rows, n, 1);
        let thr = 30.0f32;
        let scanned = 6usize;
        let mut pruned1 = 0;
        let mut pruned2 = 0;
        for v in 0..n {
            let vr = &rot[v * d..(v + 1) * d];
            let partial = distance_scalar(Metric::L2, &q1.rotated[..scanned], &vr[..scanned]);
            let a = suffix_norms(vr)[scanned];
            let cp1 = bsa1.checkpoint(&q1, scanned, d, thr);
            let cp2 = bsa2.checkpoint(&q1, scanned, d, thr);
            pruned1 += !Bsa::survives(&cp1, partial, a) as usize;
            pruned2 += !Bsa::survives(&cp2, partial, a) as usize;
        }
        assert!(
            pruned2 >= pruned1,
            "rho=0.2 pruned {pruned2} < rho=1.0 pruned {pruned1}"
        );
    }

    #[test]
    fn aux_attaches_at_requested_checkpoints() {
        let (n, d) = (50, 12);
        let rows = random_rows(n, d, 6);
        let bsa = Bsa::fit(&rows, n, d, usize::MAX);
        let rot = bsa.transform_collection(&rows, n, 1);
        let mut block = SearchBlock::new(&rot, (0..n as u64).collect(), d, 16);
        let sched = checkpoints(StepPolicy::Adaptive { start: 2 }, d);
        bsa.attach_aux(&mut block, &sched);
        let aux = block.aux.as_ref().unwrap();
        assert_eq!(aux.checkpoint_dims.len(), sched.len());
        // Spot-check one value against a direct computation.
        let v = 17usize;
        let vec = block.pdx.vector(v);
        let norms = suffix_norms(&vec);
        let ci = aux.index_of(sched[1]).unwrap();
        assert!((aux.row(ci)[v] - norms[sched[1]]).abs() < 1e-5);
    }

    #[test]
    fn learned_bound_is_usable_and_safe_at_large_kappa() {
        let (n, d) = (200, 16);
        let rows = random_rows(n, d, 7);
        let bsa = Bsa::fit(&rows, n, d, usize::MAX);
        let rot = bsa.transform_collection(&rows, n, 2);
        let sched = checkpoints(StepPolicy::Adaptive { start: 2 }, d);
        let learned = BsaLearned::fit(bsa, &rot, n, &sched, 500, 11).with_kappa(50.0);
        // With an enormous safety margin, nothing with threshold = true
        // distance should be pruned.
        let raw_q = random_rows(1, d, 8);
        let q = learned.prepare_query(&raw_q);
        for v in (0..n).step_by(17) {
            let vr = &rot[v * d..(v + 1) * d];
            let full = distance_scalar(Metric::L2, &q.rotated, vr);
            let norms = suffix_norms(vr);
            for &scanned in &sched[..sched.len() - 1] {
                let partial = distance_scalar(Metric::L2, &q.rotated[..scanned], &vr[..scanned]);
                let cp = learned.checkpoint(&q, scanned, d, full + 1e-3);
                assert!(BsaLearned::survives(&cp, partial, norms[scanned]));
            }
        }
    }

    #[test]
    #[should_panic(expected = "rho must be")]
    fn invalid_rho_panics() {
        let rows = random_rows(4, 4, 0);
        let _ = Bsa::fit(&rows, 4, 4, usize::MAX).with_rho(0.0);
    }
}
