//! Exact search shoot-out (the paper's §6.5 / Figure 9 scenario): all
//! exact competitors on one skewed, high-dimensional collection.
//!
//! ```text
//! cargo run --release --example exact_pruned_search
//! ```
//!
//! Competitors (every one returns the true k-NN):
//! * PDX-BOND (distance-to-means order) — the paper's contribution;
//! * PDX linear scan — auto-vectorized vertical kernels, no pruning;
//! * N-ary SIMD linear scan — explicit-AVX2 horizontal kernels
//!   (FAISS/USearch stand-in);
//! * N-ary scalar linear scan — the Scikit-learn stand-in.

use pdx::prelude::*;
use pdx_bench::baselines::linear_scan;
use std::time::Instant;

fn main() {
    let spec = *spec_by_name("msong").expect("spec exists");
    let n = 60_000;
    let n_queries = 100;
    let k = 10;
    println!(
        "generating {}-dim '{}'-shaped collection (n = {n})…",
        spec.dims, spec.name
    );
    let ds = generate(&spec, n, n_queries, 21);
    let d = ds.dims();

    // Deployments.
    let flat = FlatPdx::with_defaults(&ds.data, n, d);
    let bond = PdxBond::new(Metric::L2, VisitOrder::DistanceToMeans);
    let opts = SearchOptions::new(k);

    let mut report: Vec<(&str, f64, Vec<Vec<f32>>)> = Vec::new();

    let time = |f: &mut dyn FnMut(usize) -> Vec<f32>| -> (f64, Vec<Vec<f32>>) {
        let t0 = Instant::now();
        let results: Vec<Vec<f32>> = (0..n_queries).map(f).collect();
        (n_queries as f64 / t0.elapsed().as_secs_f64(), results)
    };

    let (qps, res) = time(&mut |qi| {
        flat.search_with(&bond, ds.query(qi), &opts)
            .iter()
            .map(|r| r.distance)
            .collect()
    });
    report.push(("PDX-BOND (dist-to-means)", qps, res));

    let linear = PdxBond::linear(Metric::L2);
    let (qps, res) = time(&mut |qi| {
        flat.search_with(&linear, ds.query(qi), &opts)
            .iter()
            .map(|r| r.distance)
            .collect()
    });
    report.push(("PDX linear scan", qps, res));

    let (qps, res) = time(&mut |qi| {
        linear_scan(
            &ds.data,
            d,
            ds.query(qi),
            k,
            Metric::L2,
            KernelVariant::Simd,
        )
        .iter()
        .map(|r| r.distance)
        .collect()
    });
    report.push(("N-ary SIMD (FAISS-like)", qps, res));

    let (qps, res) = time(&mut |qi| {
        linear_scan(
            &ds.data,
            d,
            ds.query(qi),
            k,
            Metric::L2,
            KernelVariant::Scalar,
        )
        .iter()
        .map(|r| r.distance)
        .collect()
    });
    report.push(("N-ary scalar (sklearn-like)", qps, res));

    // Every competitor is exact: the sorted top-k *distances* must match
    // the reference within float32 rounding (ids at tied boundaries can
    // legitimately swap between accumulation orders).
    let reference = report[1].2.clone();
    println!("\n{:<28} {:>10} {:>10}", "competitor", "QPS", "exact?");
    println!("{}", "-".repeat(52));
    for (name, qps, res) in &report {
        let exact = res.iter().zip(&reference).all(|(a, b)| {
            a.iter()
                .zip(b)
                .all(|(x, y)| (x - y).abs() <= y.abs().max(1.0) * 1e-4)
        });
        println!(
            "{name:<28} {qps:>10.1} {:>10}",
            if exact { "yes" } else { "NO!" }
        );
    }
    let baseline = report
        .iter()
        .find(|r| r.0.starts_with("N-ary scalar"))
        .unwrap()
        .1;
    println!("\nspeedups over the scalar baseline:");
    for (name, qps, _) in &report {
        println!("  {name:<28} {:>6.2}x", qps / baseline);
    }
    println!("\nExpected ordering (paper, Figure 9): PDX-BOND fastest, then the PDX");
    println!("linear scan, then N-ary SIMD, with the scalar scan slowest.");
}
