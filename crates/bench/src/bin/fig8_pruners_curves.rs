//! **Figure 8** — QPS vs recall on an IVF index (K = 10) with all three
//! pruning algorithms on the PDXearch framework: PDX-ADS, PDX-BSA and
//! PDX-BOND, plus the IVF_FLAT linear-scan baseline.
//!
//! ```text
//! cargo run --release -p pdx-bench --bin fig8_pruners_curves \
//!     [--n=20000 --queries=50 --datasets=deep,openai]
//! ```

use pdx::core::pruning::{checkpoints, StepPolicy};
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
        eprintln!("[{}] ground truth…", ds.spec.name);
        let gt = ground_truth(&ds.data, &ds.queries, d, k, Metric::L2, 0);
        eprintln!(
            "[{}] IVF + preprocessing (ADS rotation, BSA PCA)…",
            ds.spec.name
        );
        let nlist = IvfIndex::default_nlist(n);
        let index = IvfIndex::build(&ds.data, n, d, nlist, 10, 3);

        let ads = AdSampling::fit(d, 7);
        let rot_ads = ads.transform_collection(&ds.data, n, 0);
        let ivf_ads = IvfPdx::new(&rot_ads, d, &index.assignments, DEFAULT_GROUP_SIZE);

        let bsa = Bsa::fit(&ds.data, n, d, 8192);
        let rot_bsa = bsa.transform_collection(&ds.data, n, 0);
        let mut ivf_bsa = IvfPdx::new(&rot_bsa, d, &index.assignments, DEFAULT_GROUP_SIZE);
        let sched = checkpoints(StepPolicy::Adaptive { start: 2 }, d);
        for block in &mut ivf_bsa.blocks {
            bsa.attach_aux(block, &sched);
        }

        let ivf_raw = IvfPdx::new(&ds.data, d, &index.assignments, DEFAULT_GROUP_SIZE);
        let ivf_flat = IvfHorizontal::new(&ds.data, d, &index.assignments, 32.min(d));
        let linear = PdxBond::linear(Metric::L2);
        let bond = PdxBond::new(
            Metric::L2,
            VisitOrder::DimensionZones {
                zone_size: pdx::core::visit_order::DEFAULT_ZONE_SIZE,
            },
        );

        println!(
            "\nFigure 8 [{}/{d}] — IVF QPS vs recall (K={k})",
            ds.spec.name
        );
        println!(
            "{}",
            row(
                &[
                    "nprobe",
                    "PDX-ADS",
                    "PDX-BSA",
                    "PDX-BOND",
                    "FAISS-like",
                    "recall(ADS)",
                    "recall(BSA)"
                ]
                .map(String::from),
                &[7, 11, 11, 11, 11, 12, 12],
            )
        );
        println!("{}", "-".repeat(86));
        let params = SearchOptions::new(k);
        let mut nprobe = 1usize;
        while nprobe <= 512 && nprobe <= ivf_ads.blocks.len() {
            let mut ads_ids = Vec::new();
            let (qps_ads, _) = time_queries(ds.n_queries, |qi| {
                let r = ivf_ads.search_with(&ads, ds.query(qi), &params.with_nprobe(nprobe));
                ads_ids.push(r.iter().map(|x| x.id).collect());
            });
            let mut bsa_ids = Vec::new();
            let (qps_bsa, _) = time_queries(ds.n_queries, |qi| {
                let r = ivf_bsa.search_with(&bsa, ds.query(qi), &params.with_nprobe(nprobe));
                bsa_ids.push(r.iter().map(|x| x.id).collect());
            });
            let (qps_bond, _) = time_queries(ds.n_queries, |qi| {
                let _ = ivf_raw.search_with(&bond, ds.query(qi), &params.with_nprobe(nprobe));
            });
            let simd = params.with_kernel(KernelPolicy::Simd);
            let (qps_flat, _) = time_queries(ds.n_queries, |qi| {
                let _ = ivf_flat.search_with(&linear, ds.query(qi), &simd.with_nprobe(nprobe));
            });
            let r_ads = mean_recall(&gt, &ads_ids, k);
            let r_bsa = mean_recall(&gt, &bsa_ids, k);
            println!(
                "{}",
                row(
                    &[
                        nprobe.to_string(),
                        format!("{qps_ads:.0}"),
                        format!("{qps_bsa:.0}"),
                        format!("{qps_bond:.0}"),
                        format!("{qps_flat:.0}"),
                        format!("{r_ads:.4}"),
                        format!("{r_bsa:.4}"),
                    ],
                    &[7, 11, 11, 11, 11, 12, 12],
                )
            );
            csv.push(format!(
                "{},{d},{nprobe},{qps_ads:.1},{qps_bsa:.1},{qps_bond:.1},{qps_flat:.1},{r_ads:.4},{r_bsa:.4}",
                ds.spec.name
            ));
            nprobe *= 2;
        }
    }
    write_csv(
        "fig8_pruners_curves.csv",
        "dataset,dims,nprobe,qps_pdx_ads,qps_pdx_bsa,qps_pdx_bond,qps_ivfflat,recall_ads,recall_bsa",
        &csv,
    );
    println!("\nPaper shape to verify: ADS/BSA lead on high-dimensional datasets (their");
    println!("preprocessing buys pruning power); PDX-BOND is competitive while exact and");
    println!("preprocessing-free, and all PDX pruners beat the linear-scan baseline.");
}
