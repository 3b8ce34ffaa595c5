#![allow(clippy::needless_range_loop)] // qi indexes several parallel arrays

//! End-to-end integration tests: dataset generation → preprocessing →
//! index construction → search → recall, spanning every crate.

use pdx::prelude::*;
use pdx_core::pruning::{checkpoints, StepPolicy};

fn small_dataset(name: &str, n: usize, nq: usize, seed: u64) -> Dataset {
    let spec = *spec_by_name(name).expect("unknown dataset");
    generate(&spec, n, nq, seed)
}

/// PDX-BOND on flat partitions is exact for every visit order.
#[test]
fn flat_bond_matches_ground_truth_exactly() {
    let ds = small_dataset("nytimes", 3000, 10, 1);
    let k = 10;
    let gt = ground_truth(&ds.data, &ds.queries, ds.dims(), k, Metric::L2, 8);
    let flat = FlatPdx::new(&ds.data, ds.len, ds.dims(), 800, 64);
    for order in [
        VisitOrder::Sequential,
        VisitOrder::Decreasing,
        VisitOrder::DistanceToMeans,
        VisitOrder::DimensionZones { zone_size: 4 },
    ] {
        let bond = PdxBond::new(Metric::L2, order);
        let mut total = 0.0;
        for qi in 0..ds.n_queries {
            let res = flat.search_with(&bond, ds.query(qi), &SearchOptions::new(k));
            let ids: Vec<u64> = res.iter().map(|r| r.id).collect();
            total += recall_at_k(&gt[qi], &ids, k);
        }
        let recall = total / ds.n_queries as f64;
        assert!(
            recall > 0.999,
            "{order:?}: exact method must have recall 1.0, got {recall}"
        );
    }
}

/// ADSampling through a full IVF pipeline reaches high recall at full
/// probe depth, and recall grows with nprobe.
#[test]
fn ivf_adsampling_recall_behaviour() {
    let ds = small_dataset("glove50", 4000, 20, 2);
    let d = ds.dims();
    let k = 10;
    let gt = ground_truth(&ds.data, &ds.queries, d, k, Metric::L2, 8);

    let ads = AdSampling::fit(d, 7);
    let rotated = ads.transform_collection(&ds.data, ds.len, 8);
    let index = IvfIndex::build(&ds.data, ds.len, d, 32, 10, 3);
    let ivf = IvfPdx::new(&rotated, d, &index.assignments, 64);

    let params = SearchOptions::new(k);
    let mut recalls = Vec::new();
    for nprobe in [2usize, 8, 32] {
        let mut total = 0.0;
        for qi in 0..ds.n_queries {
            let res = ivf.search_with(&ads, ds.query(qi), &params.with_nprobe(nprobe));
            let ids: Vec<u64> = res.iter().map(|r| r.id).collect();
            total += recall_at_k(&gt[qi], &ids, k);
        }
        recalls.push(total / ds.n_queries as f64);
    }
    assert!(
        recalls[2] >= recalls[0] - 0.05,
        "recall should grow (roughly) with nprobe: {recalls:?}"
    );
    assert!(
        recalls[2] > 0.95,
        "full-ish probe with ADSampling must be near-exact: {recalls:?}"
    );
}

/// BSA with ρ = 1 (exact Cauchy–Schwarz bound) is lossless through the
/// whole IVF pipeline: same results as a linear scan of the same probes.
#[test]
fn ivf_bsa_exact_mode_is_lossless() {
    let ds = small_dataset("deep", 2500, 10, 3);
    let d = ds.dims();
    let k = 10;

    let bsa = Bsa::fit(&ds.data, ds.len, d, 2000).with_rho(1.0);
    let rotated = bsa.transform_collection(&ds.data, ds.len, 8);
    let index = IvfIndex::build(&ds.data, ds.len, d, 25, 8, 5);
    let mut ivf = IvfPdx::new(&rotated, d, &index.assignments, 64);
    let sched = checkpoints(StepPolicy::Adaptive { start: 2 }, d);
    for block in &mut ivf.blocks {
        bsa.attach_aux(block, &sched);
    }

    let params = SearchOptions::new(k);
    let nprobe = ivf.blocks.len();
    for qi in 0..ds.n_queries {
        let pruned = ivf.search_with(&bsa, ds.query(qi), &params.with_nprobe(nprobe));
        let rotated_q = bsa.transform_vector(ds.query(qi));
        let linear = ivf.linear_search(&rotated_q, k, nprobe, Metric::L2);
        let mut a: Vec<u64> = pruned.iter().map(|r| r.id).collect();
        let mut b: Vec<u64> = linear.iter().map(|r| r.id).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "query {qi}: exact BSA must match the linear scan");
    }
}

/// BSA with the default quantile stays at high recall.
#[test]
fn ivf_bsa_default_quantile_recall() {
    let ds = small_dataset("sift", 3000, 15, 4);
    let d = ds.dims();
    let k = 10;
    let gt = ground_truth(&ds.data, &ds.queries, d, k, Metric::L2, 8);

    let bsa = Bsa::fit(&ds.data, ds.len, d, 2000);
    let rotated = bsa.transform_collection(&ds.data, ds.len, 8);
    let index = IvfIndex::build(&ds.data, ds.len, d, 30, 8, 6);
    let mut ivf = IvfPdx::new(&rotated, d, &index.assignments, 64);
    let sched = checkpoints(StepPolicy::Adaptive { start: 2 }, d);
    for block in &mut ivf.blocks {
        bsa.attach_aux(block, &sched);
    }

    let mut total = 0.0;
    for qi in 0..ds.n_queries {
        let res = ivf.search_with(&bsa, ds.query(qi), &SearchOptions::new(k));
        let ids: Vec<u64> = res.iter().map(|r| r.id).collect();
        total += recall_at_k(&gt[qi], &ids, k);
    }
    let recall = total / ds.n_queries as f64;
    assert!(
        recall > 0.9,
        "default-quantile BSA recall too low: {recall}"
    );
}

/// The horizontal (SIMD-ADS style) and PDX deployments of ADSampling
/// agree on results given the same buckets and probes.
#[test]
fn horizontal_and_pdx_adsampling_agree() {
    let ds = small_dataset("nytimes", 2000, 10, 5);
    let d = ds.dims();
    let k = 5;
    let delta_d = d / 4; // paper: Δd = D/4 below 128 dims

    let ads = AdSampling::fit(d, 11);
    let rotated = ads.transform_collection(&ds.data, ds.len, 8);
    let index = IvfIndex::build(&ds.data, ds.len, d, 20, 8, 7);
    let pdx_ivf = IvfPdx::new(&rotated, d, &index.assignments, 64);
    let hor_ivf = IvfHorizontal::new(&rotated, d, &index.assignments, delta_d);

    let nprobe = pdx_ivf.blocks.len();
    for qi in 0..ds.n_queries {
        let a = pdx_ivf.search_with(
            &ads,
            ds.query(qi),
            &SearchOptions::new(k).with_nprobe(nprobe),
        );
        let b = hor_ivf.search_with(
            &ads,
            ds.query(qi),
            &SearchOptions::new(k).with_nprobe(nprobe),
        );
        // Both run the same hypothesis test; pruning *decisions* can
        // differ slightly because PDXearch checks at adaptive steps and
        // the horizontal path at fixed Δd — but at full probe depth the
        // top results must overlap almost entirely.
        let ids_a: Vec<u64> = a.iter().map(|r| r.id).collect();
        let ids_b: Vec<u64> = b.iter().map(|r| r.id).collect();
        let overlap = recall_at_k(&ids_a, &ids_b, k);
        assert!(
            overlap >= 0.8,
            "query {qi}: deployments disagree too much ({overlap})"
        );
    }
}

/// IVF with nprobe = nlist must equal flat exact search (for an exact
/// pruner) regardless of bucket contents.
#[test]
fn full_probe_ivf_equals_flat() {
    let ds = small_dataset("glove50", 1500, 8, 6);
    let d = ds.dims();
    let k = 10;
    let index = IvfIndex::build(&ds.data, ds.len, d, 15, 6, 9);
    let ivf = IvfPdx::new(&ds.data, d, &index.assignments, 64);
    let flat = FlatPdx::new(&ds.data, ds.len, d, 500, 64);
    let bond = PdxBond::new(Metric::L2, VisitOrder::DistanceToMeans);
    for qi in 0..ds.n_queries {
        let a = ivf.search_with(&bond, ds.query(qi), &SearchOptions::new(k));
        let b = flat.search_with(&bond, ds.query(qi), &SearchOptions::new(k));
        let mut ia: Vec<u64> = a.iter().map(|r| r.id).collect();
        let mut ib: Vec<u64> = b.iter().map(|r| r.id).collect();
        ia.sort_unstable();
        ib.sort_unstable();
        assert_eq!(ia, ib, "query {qi}");
    }
}

/// The learned BSA variant runs end-to-end and keeps reasonable recall.
#[test]
fn bsa_learned_end_to_end() {
    let ds = small_dataset("deep", 2000, 10, 7);
    let d = ds.dims();
    let k = 10;
    let gt = ground_truth(&ds.data, &ds.queries, d, k, Metric::L2, 8);

    let bsa = Bsa::fit(&ds.data, ds.len, d, 1500);
    let rotated = bsa.transform_collection(&ds.data, ds.len, 8);
    let sched = checkpoints(StepPolicy::Adaptive { start: 2 }, d);
    let learned = BsaLearned::fit(bsa, &rotated, ds.len, &sched, 2000, 13);
    let index = IvfIndex::build(&ds.data, ds.len, d, 20, 8, 8);
    let mut ivf = IvfPdx::new(&rotated, d, &index.assignments, 64);
    for block in &mut ivf.blocks {
        learned.bsa().attach_aux(block, &sched);
    }
    let mut total = 0.0;
    for qi in 0..ds.n_queries {
        let res = ivf.search_with(&learned, ds.query(qi), &SearchOptions::new(k));
        let ids: Vec<u64> = res.iter().map(|r| r.id).collect();
        total += recall_at_k(&gt[qi], &ids, k);
    }
    let recall = total / ds.n_queries as f64;
    assert!(recall > 0.85, "learned BSA recall too low: {recall}");
}

/// The §2.1 hybrid index: an HNSW router over IVF centroids finds the
/// same promising buckets as the exhaustive centroid scan, preserving
/// end-to-end recall.
#[test]
fn hybrid_hnsw_router_preserves_recall() {
    let ds = small_dataset("deep", 3000, 15, 9);
    let d = ds.dims();
    let k = 10;
    let gt = ground_truth(&ds.data, &ds.queries, d, k, Metric::L2, 8);

    let ads = AdSampling::fit(d, 4);
    let rotated = ads.transform_collection(&ds.data, ds.len, 8);
    let index = IvfIndex::build(&ds.data, ds.len, d, 50, 10, 3);
    let ivf = IvfPdx::new(&rotated, d, &index.assignments, 64);
    let router = ivf.build_centroid_router(HnswParams::default(), 11);

    let nprobe = 16;
    let params = SearchOptions::new(k);
    let (mut linear_total, mut routed_total) = (0.0, 0.0);
    for qi in 0..ds.n_queries {
        let a = ivf.search_with(&ads, ds.query(qi), &params.with_nprobe(nprobe));
        let b =
            ivf.search_with_router(&router, &ads, ds.query(qi), &params.with_nprobe(nprobe), 64);
        let ia: Vec<u64> = a.iter().map(|r| r.id).collect();
        let ib: Vec<u64> = b.iter().map(|r| r.id).collect();
        linear_total += recall_at_k(&gt[qi], &ia, k);
        routed_total += recall_at_k(&gt[qi], &ib, k);
    }
    let linear = linear_total / ds.n_queries as f64;
    let routed = routed_total / ds.n_queries as f64;
    assert!(
        routed >= linear - 0.05,
        "HNSW routing lost too much recall: {routed:.3} vs {linear:.3}"
    );
}
