//! **Figure 6** — QPS vs recall on an IVF index (K = 10): three versions
//! of ADSampling (scalar, SIMD, PDXearch) against IVF_FLAT linear-scan
//! baselines sharing the same buckets.
//!
//! ```text
//! cargo run --release -p pdx-bench --bin fig6_ivf_ads_curves \
//!     [--n=20000 --queries=50 --datasets=deep,openai]
//! ```
//!
//! The paper's "vectorization disabled" ablation has no stable-Rust
//! equivalent (no per-crate auto-vectorization toggle); the SCALAR-ADS
//! column plays that role on the horizontal side (see DESIGN.md §2.5 on
//! the ISA-sensitivity substitution).

use pdx::prelude::*;
use pdx_bench::harness::*;

fn main() {
    let args = BenchArgs::parse();
    let k = args.usize("k", 10);
    let datasets = select_datasets(&args, 20_000, 50);
    let mut csv = Vec::new();

    for ds in &datasets {
        let d = ds.dims();
        let n = ds.len;
        let delta_d = if d < 128 { (d / 4).max(1) } else { 32 };
        eprintln!("[{}] ground truth…", ds.spec.name);
        let gt = ground_truth(&ds.data, &ds.queries, d, k, Metric::L2, 0);
        eprintln!("[{}] IVF + ADSampling preprocessing…", ds.spec.name);
        let nlist = IvfIndex::default_nlist(n);
        let index = IvfIndex::build(&ds.data, n, d, nlist, 10, 3);
        let ads = AdSampling::fit(d, 7);
        let rotated = ads.transform_collection(&ds.data, n, 0);
        let ivf_pdx = IvfPdx::new(&rotated, d, &index.assignments, DEFAULT_GROUP_SIZE);
        let ivf_hor = IvfHorizontal::new(&rotated, d, &index.assignments, delta_d);
        let ivf_raw = IvfHorizontal::new(&ds.data, d, &index.assignments, delta_d);
        let linear = PdxBond::linear(Metric::L2);

        println!(
            "\nFigure 6 [{}/{d}] — IVF QPS vs recall (K={k})",
            ds.spec.name
        );
        println!(
            "{}",
            row(
                &[
                    "nprobe",
                    "PDX-ADS",
                    "SIMD-ADS",
                    "SCALAR-ADS",
                    "FAISS-like",
                    "recall(PDX-ADS)"
                ]
                .map(String::from),
                &[7, 12, 12, 12, 12, 16],
            )
        );
        println!("{}", "-".repeat(84));
        let mut nprobe = 1usize;
        while nprobe <= 512 && nprobe <= ivf_pdx.blocks.len() {
            let params = SearchOptions::new(k);
            let scalar = params.with_kernel(KernelPolicy::Scalar);
            let mut ids: Vec<Vec<u64>> = Vec::new();
            let (qps_pdx, _) = time_queries(ds.n_queries, |qi| {
                let r = ivf_pdx.search_with(&ads, ds.query(qi), &params.with_nprobe(nprobe));
                ids.push(r.iter().map(|x| x.id).collect());
            });
            let recall = mean_recall(&gt, &ids, k);

            let (qps_simd, _) = time_queries(ds.n_queries, |qi| {
                let _ = ivf_hor.search_with(&ads, ds.query(qi), &params.with_nprobe(nprobe));
            });
            let (qps_scalar, _) = time_queries(ds.n_queries, |qi| {
                let _ = ivf_hor.search_with(&ads, ds.query(qi), &scalar.with_nprobe(nprobe));
            });
            let simd = params.with_kernel(KernelPolicy::Simd);
            let (qps_flat, _) = time_queries(ds.n_queries, |qi| {
                let _ = ivf_raw.search_with(&linear, ds.query(qi), &simd.with_nprobe(nprobe));
            });
            println!(
                "{}",
                row(
                    &[
                        nprobe.to_string(),
                        format!("{qps_pdx:.0}"),
                        format!("{qps_simd:.0}"),
                        format!("{qps_scalar:.0}"),
                        format!("{qps_flat:.0}"),
                        format!("{recall:.4}"),
                    ],
                    &[7, 12, 12, 12, 12, 16],
                )
            );
            csv.push(format!(
                "{},{d},{nprobe},{qps_pdx:.1},{qps_simd:.1},{qps_scalar:.1},{qps_flat:.1},{recall:.4}",
                ds.spec.name
            ));
            nprobe *= 2;
        }
    }
    write_csv(
        "fig6_ivf_ads_curves.csv",
        "dataset,dims,nprobe,qps_pdx_ads,qps_simd_ads,qps_scalar_ads,qps_ivfflat,recall_pdx_ads",
        &csv,
    );
    println!("\nPaper shape to verify: PDX-ADS dominates at every recall level; SIMD-ADS");
    println!("can lose to the IVF_FLAT linear scan (the paper's Q3), especially at high");
    println!("dimensionality; SCALAR-ADS is always last.");
}
