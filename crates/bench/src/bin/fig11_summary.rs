//! **Figure 11** — Geometric-mean speedup over all datasets, exact
//! search and IVF search, against the scalar baselines. The paper's
//! DSM-LINEAR-SCAN bar is not reproduced (ARCHITECTURE.md, "Not
//! reproduced").
//!
//! The paper plots this per CPU architecture; this harness reports the
//! host architecture (see DESIGN.md §2.5: ISA sensitivity is emulated by
//! the scalar/SIMD/auto-vectorized kernel tiers rather than separate
//! machines).
//!
//! ```text
//! cargo run --release -p pdx-bench --bin fig11_summary [--n=20000 --queries=30]
//! ```

use pdx::core::pruning::{checkpoints, StepPolicy};
use pdx::prelude::*;
use pdx_bench::harness::*;

fn main() {
    let args = BenchArgs::parse();
    let k = args.usize("k", 10);
    let datasets = select_datasets(&args, 20_000, 30);

    let mut exact: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    let mut ivfb: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();

    for ds in &datasets {
        let d = ds.dims();
        let n = ds.len;
        eprintln!("[{}] exact-search competitors…", ds.spec.name);
        let flat = FlatPdx::with_defaults(&ds.data, n, d);
        let nary = NaryMatrix::from_rows(&ds.data, n, d);
        let params = SearchOptions::new(k);
        let bond = PdxBond::new(Metric::L2, VisitOrder::DistanceToMeans);

        // Scikit-learn stand-in: scalar horizontal scan = baseline 1.0.
        let (qps_base, _) = time_queries(ds.n_queries, |qi| {
            drop(linear_scan_nary(
                &nary,
                ds.query(qi),
                k,
                Metric::L2,
                KernelVariant::Scalar,
            ))
        });
        let push =
            |map: &mut std::collections::BTreeMap<&str, Vec<f64>>, name: &'static str, qps: f64| {
                map.entry(name).or_default().push(qps / qps_base);
            };
        let (qps, _) = time_queries(ds.n_queries, |qi| {
            drop(flat.search_with(&bond, ds.query(qi), &params))
        });
        push(&mut exact, "PDX-BOND", qps);
        let linear = PdxBond::linear(Metric::L2);
        let (qps, _) = time_queries(ds.n_queries, |qi| {
            drop(flat.search_with(&linear, ds.query(qi), &params))
        });
        push(&mut exact, "PDX-LINEAR-SCAN", qps);
        let (qps, _) = time_queries(ds.n_queries, |qi| {
            drop(linear_scan_nary(
                &nary,
                ds.query(qi),
                k,
                Metric::L2,
                KernelVariant::Simd,
            ))
        });
        push(&mut exact, "NARY-SIMD (FAISS-like)", qps);

        eprintln!("[{}] IVF competitors…", ds.spec.name);
        let nlist = IvfIndex::default_nlist(n);
        let index = IvfIndex::build(&ds.data, n, d, nlist, 10, 3);
        let nprobe = (nlist / 2).max(1);
        let delta_d = if d < 128 { (d / 4).max(1) } else { 32 };

        let ads = AdSampling::fit(d, 7);
        let rot_ads = ads.transform_collection(&ds.data, n, 0);
        let ivf_ads = IvfPdx::new(&rot_ads, d, &index.assignments, DEFAULT_GROUP_SIZE);
        let ivf_ads_hor = IvfHorizontal::new(&rot_ads, d, &index.assignments, delta_d);
        let bsa = Bsa::fit(&ds.data, n, d, 4096);
        let rot_bsa = bsa.transform_collection(&ds.data, n, 0);
        let mut ivf_bsa = IvfPdx::new(&rot_bsa, d, &index.assignments, DEFAULT_GROUP_SIZE);
        let sched = checkpoints(StepPolicy::Adaptive { start: 2 }, d);
        for block in &mut ivf_bsa.blocks {
            bsa.attach_aux(block, &sched);
        }
        let ivf_raw_pdx = IvfPdx::new(&ds.data, d, &index.assignments, DEFAULT_GROUP_SIZE);
        let ivf_raw_hor = IvfHorizontal::new(&ds.data, d, &index.assignments, delta_d);

        // IVF baseline: scalar linear scan of probed buckets.
        let probe = params.with_nprobe(nprobe);
        let scalar = probe.with_kernel(KernelPolicy::Scalar);
        let (qps_ivf_base, _) = time_queries(ds.n_queries, |qi| {
            let _ = ivf_raw_hor.search_with(&linear, ds.query(qi), &scalar);
        });
        let push_ivf =
            |map: &mut std::collections::BTreeMap<&str, Vec<f64>>, name: &'static str, qps: f64| {
                map.entry(name).or_default().push(qps / qps_ivf_base);
            };
        let (qps, _) = time_queries(ds.n_queries, |qi| {
            let _ = ivf_ads.search_with(&ads, ds.query(qi), &params.with_nprobe(nprobe));
        });
        push_ivf(&mut ivfb, "PDX-ADS", qps);
        let (qps, _) = time_queries(ds.n_queries, |qi| {
            let _ = ivf_bsa.search_with(&bsa, ds.query(qi), &params.with_nprobe(nprobe));
        });
        push_ivf(&mut ivfb, "PDX-BSA", qps);
        let bondz = PdxBond::new(
            Metric::L2,
            VisitOrder::DimensionZones {
                zone_size: pdx::core::visit_order::DEFAULT_ZONE_SIZE,
            },
        );
        let (qps, _) = time_queries(ds.n_queries, |qi| {
            let _ = ivf_raw_pdx.search_with(&bondz, ds.query(qi), &params.with_nprobe(nprobe));
        });
        push_ivf(&mut ivfb, "PDX-BOND", qps);
        let (qps, _) = time_queries(ds.n_queries, |qi| {
            let _ = ivf_ads_hor.search_with(&ads, ds.query(qi), &params.with_nprobe(nprobe));
        });
        push_ivf(&mut ivfb, "SIMD-ADS", qps);
        let simd = probe.with_kernel(KernelPolicy::Simd);
        let (qps, _) = time_queries(ds.n_queries, |qi| {
            let _ = ivf_raw_hor.search_with(&linear, ds.query(qi), &simd);
        });
        push_ivf(&mut ivfb, "IVF-FLAT-SIMD (FAISS-like)", qps);
    }

    let mut csv = Vec::new();
    println!("\nFigure 11 — geometric mean of speedup over all datasets (host CPU)");
    println!("\nexact search (baseline: scalar N-ary scan = Scikit-learn stand-in):");
    for (name, speeds) in &exact {
        println!("  {name:<26} {:.2}x", geomean(speeds));
        csv.push(format!("exact,{name},{:.3}", geomean(speeds)));
    }
    println!("\nIVF search (baseline: scalar linear scan of probed buckets):");
    for (name, speeds) in &ivfb {
        println!("  {name:<26} {:.2}x", geomean(speeds));
        csv.push(format!("ivf,{name},{:.3}", geomean(speeds)));
    }
    write_csv(
        "fig11_summary.csv",
        "setting,competitor,geomean_speedup",
        &csv,
    );
    println!("\nPaper shape to verify: PDX-BOND and PDX-LINEAR-SCAN lead exact search;");
    println!("PDX-ADS/PDX-BSA lead IVF search with PDX-BOND still above the non-PDX");
    println!("competitors. (The paper's DSM-LINEAR-SCAN bar is not reproduced.)");
}
