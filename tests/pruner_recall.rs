#![allow(clippy::needless_range_loop)] // qi indexes several parallel arrays

//! Recall guarantees and pruning-power behaviour of the three pruners,
//! checked end to end on Table 1-shaped data, and the values-read
//! goldens of the paper's pruning-power tables (Tables 2 and 6).

use pdx::index::ivf::probe_orders;
use pdx::obs::QueryTrace;
use pdx::prelude::*;
use pdx_core::pruning::{checkpoints, Pruner, StepPolicy};

fn dataset(name: &str, n: usize, nq: usize, seed: u64) -> Dataset {
    generate(spec_by_name(name).expect("unknown dataset"), n, nq, seed)
}

/// Replays the values an IVF search that probes every bucket reads (the
/// paper's "pruning power" measurement, §2.3): the nearest bucket is
/// scanned whole to seed the k-NN threshold, every other bucket
/// dimension by dimension in the pruner's visit order (`dim_order`),
/// with the bound evaluated after each checkpoint of `sched`. `rows`
/// are the row-major vectors the buckets were built from. Returns the
/// replay's `dims_scanned` / `dims_total` work counters.
fn replay<P: Pruner>(
    pruner: &P,
    ivf: &IvfPdx,
    rows: &[f32],
    query: &[f32],
    k: usize,
    sched: &[usize],
) -> QueryTrace {
    assert!(!P::NEEDS_AUX, "the replay carries no aux data");
    let dims = ivf.dims;
    let q = pruner.prepare_query(query);
    let qvec = pruner.query_vector(&q);
    let order = &probe_orders(&ivf.centroids, &[qvec], ivf.blocks.len(), pruner.metric())[0];
    let mut heap = KnnHeap::new(k);
    let mut trace = QueryTrace::default();
    for (bi, &b) in order.iter().enumerate() {
        let block = &ivf.blocks[b as usize];
        let n = block.len();
        trace.dims_total += (n * dims) as u64;
        let row = |v: usize| &rows[block.row_ids[v] as usize * dims..][..dims];
        if bi == 0 {
            for v in 0..n {
                let d: f32 = qvec
                    .iter()
                    .zip(row(v))
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum();
                heap.push(block.row_ids[v], d);
            }
            trace.dims_scanned += (n * dims) as u64;
            continue;
        }
        // The threshold holds still within a bucket, so each vector's
        // survival is decided on its own, checkpoint by checkpoint.
        let cps: Vec<P::Checkpoint> = sched
            .iter()
            .map(|&ck| pruner.checkpoint(&q, ck, dims, heap.threshold()))
            .collect();
        let (mut keys, mut order) = (Vec::new(), Vec::new());
        let scalar = KernelPolicy::Scalar;
        pruner.dim_order(&q, Some(&block.stats), scalar, &mut keys, &mut order);
        let perm: Vec<usize> = match order.is_empty() {
            false => order.iter().map(|&d| d as usize).collect(),
            true => (0..dims).collect(),
        };
        for v in 0..n {
            let (row, mut partial, mut prev) = (row(v), 0.0f32, 0usize);
            let mut alive = true;
            for (&ck, cp) in sched.iter().zip(&cps) {
                for &d in &perm[prev..ck] {
                    let diff = qvec[d] - row[d];
                    partial += diff * diff;
                }
                prev = ck;
                if ck < dims && !P::survives(cp, partial, 0.0) {
                    alive = false;
                    break;
                }
            }
            trace.dims_scanned += prev as u64;
            if alive {
                heap.push(block.row_ids[v], partial);
            }
        }
    }
    trace
}

/// The fraction of dimension values a pruner avoids under PDXearch's
/// adaptive schedule (Δd = 2, 4, 8, …).
fn measure_pruned_fraction<P: Pruner>(
    pruner: &P,
    ivf: &IvfPdx,
    rows: &[f32],
    query: &[f32],
    k: usize,
) -> f64 {
    let sched = checkpoints(StepPolicy::Adaptive { start: 2 }, ivf.dims);
    replay(pruner, ivf, rows, query, k, &sched).pruning_ratio()
}

/// Tables 2 and 6 at reduced size: the eight Table 1 datasets the
/// paper plots there, n = 2 000 (45 IVF buckets, the paper's √n),
/// 10 queries, K = 10, seed 42, every bucket probed.
const TABLE_N: usize = 2_000;
const TABLE_QUERIES: usize = 10;

/// The dataset and its IVF assignments.
fn table_data(name: &str) -> (Dataset, IvfIndex) {
    let ds = dataset(name, TABLE_N, TABLE_QUERIES, 42);
    let nlist = IvfIndex::default_nlist(ds.len);
    let index = IvfIndex::build(&ds.data, ds.len, ds.dims(), nlist, 10, 3);
    (ds, index)
}

/// Per-query Δd = 1 replays of `pruner` over `rows` in `index`'s
/// buckets: the summed `dims_scanned`, after checking the summed
/// `dims_total` (every value of every query), and the median query's
/// pruning power.
fn delta_one<P: Pruner>(pruner: &P, ds: &Dataset, index: &IvfIndex, rows: &[f32]) -> (u64, f64) {
    let d = ds.dims();
    let ivf = IvfPdx::new(rows, d, &index.assignments, DEFAULT_GROUP_SIZE);
    let sched = checkpoints(StepPolicy::Fixed { step: 1 }, d);
    let (mut scanned, mut powers) = (0, Vec::new());
    for qi in 0..ds.n_queries {
        let t = replay(pruner, &ivf, rows, ds.query(qi), 10, &sched);
        assert_eq!(t.dims_total, (ds.len * d) as u64);
        scanned += t.dims_scanned;
        powers.push(t.pruning_ratio());
    }
    powers.sort_by(f64::total_cmp);
    (scanned, powers[powers.len() / 2])
}

/// Table 2: the values ADSampling reads at Δd = 1 (golden
/// `dims_scanned`, of `dims_total` = 10 · 2 000 · D), and the median
/// query's pruning power, the table's p50 column. The paper's claim
/// they stand for is that ADSampling could avoid most values (more than
/// 90 % on GIST); here the median query avoids 83.9–95.6 %. Its
/// "skewed datasets prune more than normal ones" does not hold on this
/// synthetic data (p50 deep 94.4 % and contriever 95.6 % against sift
/// 93.1 %), so it is not asserted.
#[test]
fn table2_adsampling_pruning_power_goldens() {
    // (dataset, dims_scanned, p50 pruning power)
    let goldens: [(&str, u64, f64); 8] = [
        ("gist", 879_792, 0.9546),
        ("msong", 411_078, 0.9521),
        ("nytimes", 53_238, 0.8390),
        ("glove50", 79_383, 0.9253),
        ("deep", 113_788, 0.9435),
        ("contriever", 647_005, 0.9563),
        ("openai", 1_379_024, 0.9557),
        ("sift", 193_130, 0.9312),
    ];
    for (name, scanned, p50) in goldens {
        let (ds, index) = table_data(name);
        let ads = AdSampling::fit(ds.dims(), 7);
        let rotated = ads.transform_collection(&ds.data, ds.len, 0);
        let (got, got_p50) = delta_one(&ads, &ds, &index, &rotated);
        assert_eq!(got, scanned, "{name}: ADSampling dims_scanned");
        assert!((got_p50 - p50).abs() < 5e-5, "{name}: p50 {got_p50}");
    }
}

/// Table 6: the values PDX-BOND reads at Δd = 1 under each visit order
/// (golden `dims_scanned`, of `dims_total` = 10 · 2 000 · D), and the
/// paper's ranking of the orders: on every dataset the median
/// query prunes at least as much in distance-to-means order as in
/// decreasing order, and in decreasing as in sequential. The paper's
/// "PDX-BOND prunes slightly less than ADSampling" does not hold here
/// (distance-to-means prunes more on 5 of the 8 datasets), so it is not
/// asserted.
#[test]
fn table6_bond_pruning_power_goldens() {
    let orders = [
        VisitOrder::Sequential,
        VisitOrder::Decreasing,
        VisitOrder::DistanceToMeans,
        VisitOrder::DimensionZones {
            zone_size: pdx::core::visit_order::DEFAULT_ZONE_SIZE,
        },
    ];
    // (dataset, dims_scanned per order as above)
    let goldens: [(&str, [u64; 4]); 8] = [
        ("gist", [2_015_882, 1_028_547, 945_355, 1_454_168]),
        ("msong", [1_150_594, 517_621, 449_829, 803_946]),
        ("nytimes", [60_179, 47_816, 29_877, 60_179]),
        ("glove50", [98_709, 73_155, 59_496, 91_394]),
        ("deep", [164_167, 104_898, 84_749, 135_111]),
        ("contriever", [837_331, 711_537, 621_276, 717_874]),
        ("openai", [2_666_044, 1_551_700, 1_459_371, 1_970_224]),
        ("sift", [508_040, 192_429, 165_900, 352_192]),
    ];
    for (name, scanned) in goldens {
        let (ds, index) = table_data(name);
        let mut p50 = [0.0; 4];
        for (i, order) in orders.into_iter().enumerate() {
            let bond = PdxBond::new(Metric::L2, order);
            let (got, got_p50) = delta_one(&bond, &ds, &index, &ds.data);
            assert_eq!(got, scanned[i], "{name}: BOND {order:?} dims_scanned");
            p50[i] = got_p50;
        }
        let [seq, decr, means, _] = p50;
        assert!(
            means >= decr && decr >= seq,
            "{name}: p50 means {means} / decreasing {decr} / sequential {seq}"
        );
    }
}

/// ADSampling's pruning power must be substantial on a skewed
/// high-dimensional dataset (the paper reports > 90 % on GIST-like data)
/// and pruning must not collapse recall.
#[test]
fn adsampling_prunes_most_values_on_skewed_data() {
    let ds = dataset("msong", 3000, 5, 1);
    let d = ds.dims();
    let k = 10;
    let ads = AdSampling::fit(d, 3);
    let rotated = ads.transform_collection(&ds.data, ds.len, 8);
    let index = IvfIndex::build(&ds.data, ds.len, d, 30, 8, 4);
    let ivf = IvfPdx::new(&rotated, d, &index.assignments, 64);
    let mut pruned = Vec::new();
    for qi in 0..ds.n_queries {
        pruned.push(measure_pruned_fraction(
            &ads,
            &ivf,
            &rotated,
            ds.query(qi),
            k,
        ));
    }
    let avg = pruned.iter().sum::<f64>() / pruned.len() as f64;
    assert!(
        avg > 0.5,
        "expected >50% of values pruned on skewed 420-dim data, got {avg:.3}"
    );
}

/// BOND-style pruning (partial distances) prunes on skewed data too, and
/// the distance-to-means order prunes at least as much as sequential.
#[test]
fn bond_order_improves_pruning_power() {
    let ds = dataset("sift", 2500, 6, 2);
    let d = ds.dims();
    let k = 10;
    let index = IvfIndex::build(&ds.data, ds.len, d, 25, 8, 5);
    let ivf = IvfPdx::new(&ds.data, d, &index.assignments, 64);
    let bond = PdxBond::new(Metric::L2, VisitOrder::Sequential);
    let mut pruned = Vec::new();
    for qi in 0..ds.n_queries {
        pruned.push(measure_pruned_fraction(
            &bond,
            &ivf,
            &ds.data,
            ds.query(qi),
            k,
        ));
    }
    let avg = pruned.iter().sum::<f64>() / pruned.len() as f64;
    assert!(
        avg > 0.2,
        "BOND should prune a meaningful fraction, got {avg:.3}"
    );
    let means = PdxBond::new(Metric::L2, VisitOrder::DistanceToMeans);
    let mut pruned_means = Vec::new();
    for qi in 0..ds.n_queries {
        let q = ds.query(qi);
        pruned_means.push(measure_pruned_fraction(&means, &ivf, &ds.data, q, k));
    }
    let avg_means = pruned_means.iter().sum::<f64>() / pruned_means.len() as f64;
    assert!(
        avg_means >= avg,
        "distance-to-means order pruned {avg_means:.3} < sequential {avg:.3}"
    );
}

/// Larger ε₀ (more conservative test) must never prune more than a
/// smaller ε₀ on the same query.
#[test]
fn epsilon0_monotonicity() {
    let ds = dataset("deep", 2000, 4, 3);
    let d = ds.dims();
    let k = 10;
    let ads_loose = AdSampling::fit(d, 9).with_epsilon0(0.5);
    let ads_tight = ads_loose.clone().with_epsilon0(4.0);
    let rotated = ads_loose.transform_collection(&ds.data, ds.len, 8);
    let index = IvfIndex::build(&ds.data, ds.len, d, 20, 8, 6);
    let ivf = IvfPdx::new(&rotated, d, &index.assignments, 64);
    for qi in 0..ds.n_queries {
        let loose = measure_pruned_fraction(&ads_loose, &ivf, &rotated, ds.query(qi), k);
        let tight = measure_pruned_fraction(&ads_tight, &ivf, &rotated, ds.query(qi), k);
        assert!(
            tight <= loose + 1e-9,
            "query {qi}: eps0=4.0 pruned {tight:.3} > eps0=0.5 pruned {loose:.3}"
        );
    }
}

/// Recall of ADSampling stays high even with aggressive pruning when
/// ε₀ = 2.1 (the paper's "no loss in recall" claim at IVF settings).
#[test]
fn adsampling_default_epsilon_keeps_recall() {
    let ds = dataset("gist", 2000, 10, 4);
    let d = ds.dims();
    let k = 10;
    let gt = ground_truth(&ds.data, &ds.queries, d, k, Metric::L2, 8);
    let ads = AdSampling::fit(d, 12);
    let rotated = ads.transform_collection(&ds.data, ds.len, 8);
    let index = IvfIndex::build(&ds.data, ds.len, d, 20, 8, 7);
    let ivf = IvfPdx::new(&rotated, d, &index.assignments, 64);
    let mut total = 0.0;
    for qi in 0..ds.n_queries {
        let res = ivf.search_with(&ads, ds.query(qi), &SearchOptions::new(k));
        let ids: Vec<u64> = res.iter().map(|r| r.id).collect();
        total += recall_at_k(&gt[qi], &ids, k);
    }
    let recall = total / ds.n_queries as f64;
    assert!(
        recall > 0.95,
        "ADSampling ε₀=2.1 recall dropped to {recall}"
    );
}

/// The framework preserves correctness for *any* selection fraction and
/// step policy (the knobs only affect speed).
#[test]
fn framework_knobs_do_not_change_exact_results() {
    let ds = dataset("nytimes", 1500, 6, 5);
    let d = ds.dims();
    let k = 8;
    let flat = FlatPdx::new(&ds.data, ds.len, d, 400, 64);
    let (linear, exact) = (PdxBond::linear(Metric::L2), SearchOptions::new(k));
    let reference: Vec<Vec<u64>> = (0..ds.n_queries)
        .map(|qi| {
            flat.search_with(&linear, ds.query(qi), &exact)
                .iter()
                .map(|r| r.id)
                .collect()
        })
        .collect();
    for frac in [0.05f32, 0.2, 0.6] {
        for step in [
            StepPolicy::Adaptive { start: 2 },
            StepPolicy::Adaptive { start: 4 },
            StepPolicy::Fixed { step: 5 },
        ] {
            let bond = PdxBond::new(Metric::L2, VisitOrder::DistanceToMeans);
            let params = SearchOptions::new(k)
                .with_selection_fraction(frac)
                .with_step(step);
            for qi in 0..ds.n_queries {
                let res = flat.search_with(&bond, ds.query(qi), &params);
                let mut ids: Vec<u64> = res.iter().map(|r| r.id).collect();
                let mut want = reference[qi].clone();
                ids.sort_unstable();
                want.sort_unstable();
                assert_eq!(ids, want, "frac={frac} step={step:?} query={qi}");
            }
        }
    }
}

/// §9 future-work composition: PDX-BOND's exact partial-distance pruning
/// on a PCA-rotated collection (BSA's energy compaction without its
/// bound machinery). Rotation preserves L2, so the search stays exact,
/// and the leading dimensions now carry most of the distance mass.
#[test]
fn pca_rotated_bond_is_exact_and_prunes_earlier() {
    let ds = dataset("gist", 2000, 6, 8);
    let d = ds.dims();
    let k = 10;
    let gt = ground_truth(&ds.data, &ds.queries, d, k, Metric::L2, 8);

    let bsa = Bsa::fit(&ds.data, ds.len, d, 1500);
    let rotated = bsa.transform_collection(&ds.data, ds.len, 8);
    let index = IvfIndex::build(&ds.data, ds.len, d, 20, 8, 9);
    let ivf = IvfPdx::new(&rotated, d, &index.assignments, 64);
    // Sequential order: PCA already sorted dimensions by energy.
    let bond = PdxBond::new(Metric::L2, VisitOrder::Sequential);

    // Exactness: recall 1.0 (searching in rotated space with rotated queries).
    let mut total = 0.0;
    let mut pruned = Vec::new();
    for qi in 0..ds.n_queries {
        let rq = bsa.transform_vector(ds.query(qi));
        let q = bond.prepare_query(&rq);
        let res = pdxearch(&bond, &q, &ivf.blocks, &SearchOptions::new(k), None, None);
        let ids: Vec<u64> = res.iter().map(|r| r.id).collect();
        total += recall_at_k(&gt[qi], &ids, k);
        pruned.push(measure_pruned_fraction(&bond, &ivf, &rotated, &rq, k));
    }
    assert!(
        total / ds.n_queries as f64 > 0.999,
        "rotation must preserve exactness"
    );

    // Pruning power: better than BOND on the raw (unrotated) layout.
    let ivf_raw = IvfPdx::new(&ds.data, d, &index.assignments, 64);
    let mut pruned_raw = Vec::new();
    for qi in 0..ds.n_queries {
        pruned_raw.push(measure_pruned_fraction(
            &bond,
            &ivf_raw,
            &ds.data,
            ds.query(qi),
            k,
        ));
    }
    let avg = pruned.iter().sum::<f64>() / pruned.len() as f64;
    let avg_raw = pruned_raw.iter().sum::<f64>() / pruned_raw.len() as f64;
    assert!(
        avg >= avg_raw - 0.02,
        "PCA rotation should not reduce BOND's pruning power: {avg:.3} vs {avg_raw:.3}"
    );
}
