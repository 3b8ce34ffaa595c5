#![allow(clippy::needless_range_loop)] // qi indexes several parallel arrays

//! End-to-end integration tests: dataset generation → preprocessing →
//! index construction → search → recall, spanning every crate.

use pdx::prelude::*;
use pdx_bench::baselines::IvfHorizontal;
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

    let params = SearchOptions::new(k).with_nprobe(ivf.blocks.len());
    let linear_scan = PdxBond::linear(Metric::L2);
    for qi in 0..ds.n_queries {
        let pruned = ivf.search_with(&bsa, ds.query(qi), &params);
        let rotated_q = bsa.transform_vector(ds.query(qi));
        let linear = ivf.search_with(&linear_scan, &rotated_q, &params);
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
    let hor_ivf = IvfHorizontal::from_pdx(&pdx_ivf, delta_d);

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

/// Sums the ● work counters of every query of `ds`, each searched alone
/// under its own trace capture: `(dims_scanned, dims_total,
/// vectors_visited, blocks_visited)`.
fn work_counters(index: &dyn VectorIndex, ds: &Dataset, opts: SearchOptions) -> [u64; 4] {
    let opts = opts.with_trace(true);
    let mut sum = pdx::obs::QueryTrace::default();
    for qi in 0..ds.n_queries {
        let (hits, trace) = pdx::obs::trace::capture(|| index.search(ds.query(qi), &opts));
        assert_eq!(hits.len(), opts.k);
        sum.merge(&trace);
    }
    [
        sum.dims_scanned,
        sum.dims_total,
        sum.vectors_visited,
        sum.blocks_visited,
    ]
}

/// ROADMAP item 14(a) for `flat_exact`: PDX-BOND (distance-to-means
/// order) over a sift-like `FlatPdx` at the paper-default partitioning.
/// The work a query does is exact and host-free, so its counters are
/// goldens: a change that keeps the answers but scans more shows here.
#[test]
fn flat_exact_work_counters_are_goldens() {
    const GOLDEN: [u64; 4] = [5_311_932, 25_600_000, 200_000, 20];
    let ds = small_dataset("sift", 10_000, 20, 0x0F1A_7E8A);
    let flat = FlatPdx::with_defaults(&ds.data, ds.len, ds.dims());
    let counts = work_counters(&flat, &ds, SearchOptions::new(10));
    assert_eq!(
        counts, GOLDEN,
        "dims_scanned, dims_total, vectors_visited, blocks_visited"
    );
}

/// ROADMAP item 14(a) for `ivf_ads_hd`: ADSampling on gist-like
/// (d = 960) IVF buckets at `nprobe` 2, the workload's shape at a fifth
/// of its rows and buckets. Rotation, routing and the bound evaluation
/// all decide what is scanned, so each of them is pinned here.
#[test]
fn ivf_ads_hd_work_counters_are_goldens() {
    const GOLDEN: [u64; 4] = [1_683_860, 2_350_080, 2_448, 40];
    let ds = small_dataset("gist", 2_000, 20, 0x0AD5_4D96);
    let d = ds.dims();
    let ivf = IvfIndex::build(&ds.data, ds.len, d, 40, 5, 0x5EED);
    let ads = AdSampling::fit(d, 0x5EED ^ 0xAD5);
    let rotated = ads.transform_collection(&ds.data, ds.len, 2);
    let buckets = IvfPdx::new(&rotated, d, &ivf.assignments, DEFAULT_GROUP_SIZE);
    let index = PrunedIvf::new(buckets, ads);
    let counts = work_counters(&index, &ds, SearchOptions::new(10).with_nprobe(2));
    assert_eq!(
        counts, GOLDEN,
        "dims_scanned, dims_total, vectors_visited, blocks_visited"
    );
}
