//! Approximate search on an IVF index with ADSampling + PDXearch — the
//! paper's flagship configuration (PDX-ADS, Figure 6).
//!
//! ```text
//! cargo run --release --example ivf_ann_search
//! ```
//!
//! Walks the full ANN pipeline: train IVF, rotate the collection with
//! ADSampling's random projection, deploy buckets in PDX, then sweep
//! `nprobe` and print the recall/QPS trade-off against an IVF linear
//! scan (the FAISS-IVF_FLAT stand-in) sharing the exact same buckets.

use pdx::prelude::*;
use pdx_bench::baselines::IvfHorizontal;
use std::time::Instant;

fn main() {
    let spec = *spec_by_name("deep").expect("spec exists");
    let n = 80_000;
    let n_queries = 200;
    let k = 10;
    println!(
        "generating {}-dim '{}'-shaped collection (n = {n})…",
        spec.dims, spec.name
    );
    let ds = generate(&spec, n, n_queries, 7);
    let d = ds.dims();

    println!("computing ground truth…");
    let gt = ground_truth(&ds.data, &ds.queries, d, k, Metric::L2, 0);

    // Train IVF once on the raw data; all competitors share its buckets.
    let nlist = IvfIndex::default_nlist(n);
    println!("training IVF with {nlist} buckets…");
    let index = IvfIndex::build(&ds.data, n, d, nlist, 12, 3);

    // ADSampling preprocessing: one random rotation of the collection.
    println!("fitting ADSampling rotation…");
    let ads = AdSampling::fit(d, 11);
    let rotated = ads.transform_collection(&ds.data, n, 0);

    // Two deployments of the same buckets: PDX-ADS in the rotated space,
    // and the horizontal baseline over a raw-space PDX IVF's buckets.
    let ivf_ads = IvfPdx::new(&rotated, d, &index.assignments, DEFAULT_GROUP_SIZE);
    let raw = IvfPdx::new(&ds.data, d, &index.assignments, DEFAULT_GROUP_SIZE);
    let ivf_raw = IvfHorizontal::from_pdx(&raw, 32);
    let linear = PdxBond::linear(Metric::L2);

    println!(
        "\n{:>7} | {:>14} {:>9} | {:>14} {:>9}",
        "nprobe", "PDX-ADS QPS", "recall", "IVF-FLAT QPS", "recall"
    );
    println!("{}", "-".repeat(66));
    for nprobe in [1usize, 2, 4, 8, 16, 32, 64, 128] {
        if nprobe > ivf_ads.blocks.len() {
            break;
        }
        // PDX-ADS.
        let opts = SearchOptions::new(k);
        let t0 = Instant::now();
        let mut results = Vec::with_capacity(n_queries);
        for qi in 0..n_queries {
            results.push(ivf_ads.search_with(&ads, ds.query(qi), &opts.with_nprobe(nprobe)));
        }
        let ads_qps = n_queries as f64 / t0.elapsed().as_secs_f64();
        let ads_recall = mean_recall(
            &gt,
            &results
                .iter()
                .map(|r| r.iter().map(|x| x.id).collect())
                .collect::<Vec<_>>(),
            k,
        );

        // FAISS-like IVF_FLAT (horizontal SIMD linear scan of the same buckets).
        let simd = opts.with_nprobe(nprobe).with_kernel(KernelPolicy::Simd);
        let t1 = Instant::now();
        let mut results = Vec::with_capacity(n_queries);
        for qi in 0..n_queries {
            results.push(ivf_raw.search_with(&linear, ds.query(qi), &simd));
        }
        let flat_qps = n_queries as f64 / t1.elapsed().as_secs_f64();
        let flat_recall = mean_recall(
            &gt,
            &results
                .iter()
                .map(|r| r.iter().map(|x| x.id).collect())
                .collect::<Vec<_>>(),
            k,
        );

        println!(
            "{nprobe:>7} | {ads_qps:>14.0} {ads_recall:>9.4} | {flat_qps:>14.0} {flat_recall:>9.4}"
        );
    }
    println!("\nBoth competitors probe identical buckets; PDX-ADS additionally prunes dimensions.");
}
