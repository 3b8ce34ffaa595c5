//! **Figure 7** — Effect of PDXearch's adaptive dimension steps versus a
//! fixed Δd = 32 schedule: per-query speedup distribution of PDX-ADS.
//!
//! ```text
//! cargo run --release -p pdx-bench --bin fig7_adaptive_steps \
//!     [--n=20000 --queries=100 --datasets=gist]
//! ```

use pdx::core::pruning::StepPolicy;
use pdx::prelude::*;
use pdx_bench::harness::*;

fn main() {
    let args = BenchArgs::parse();
    let k = args.usize("k", 10);
    let datasets = if args.list("datasets").is_some() {
        select_datasets(&args, 20_000, 100)
    } else {
        // The paper highlights GIST (the dataset Δd=32 was tuned on).
        let spec = *spec_by_name("gist").unwrap();
        let n = args.usize("n", 20_000);
        eprintln!("  generating gist/960 (n = {n})…");
        vec![generate(&spec, n, args.usize("queries", 100), 42)]
    };

    let mut csv = Vec::new();
    for ds in &datasets {
        let d = ds.dims();
        let nlist = IvfIndex::default_nlist(ds.len);
        eprintln!("[{}] IVF + ADSampling…", ds.spec.name);
        let index = IvfIndex::build(&ds.data, ds.len, d, nlist, 10, 3);
        let ads = AdSampling::fit(d, 7);
        let rotated = ads.transform_collection(&ds.data, ds.len, 0);
        let ivf = IvfPdx::new(&rotated, d, &index.assignments, DEFAULT_GROUP_SIZE);
        let nprobe = (nlist / 2).max(1);

        let adaptive = SearchOptions::new(k).with_step(StepPolicy::Adaptive { start: 2 });
        let fixed = SearchOptions::new(k).with_step(StepPolicy::Fixed { step: 32 });

        // Interleave repetitions to be fair to both schedules.
        let (_, t_adaptive) = time_queries(ds.n_queries, |qi| {
            let _ = ivf.search_with(&ads, ds.query(qi), &adaptive.with_nprobe(nprobe));
        });
        let (_, t_fixed) = time_queries(ds.n_queries, |qi| {
            let _ = ivf.search_with(&ads, ds.query(qi), &fixed.with_nprobe(nprobe));
        });
        let (_, t_adaptive2) = time_queries(ds.n_queries, |qi| {
            let _ = ivf.search_with(&ads, ds.query(qi), &adaptive.with_nprobe(nprobe));
        });

        let speedups: Vec<f64> = (0..ds.n_queries)
            .map(|qi| t_fixed[qi] / t_adaptive[qi].min(t_adaptive2[qi]))
            .collect();
        let faster = speedups.iter().filter(|&&s| s > 1.0).count();
        let much_faster = speedups.iter().filter(|&&s| s >= 1.5).count();
        let slower = speedups.iter().filter(|&&s| s < 0.9).count();
        println!(
            "\nFigure 7 [{}/{d}] — adaptive vs fixed Δd=32 (per-query speedups)",
            ds.spec.name
        );
        println!(
            "  queries faster with adaptive steps: {:.0}%",
            faster as f64 * 100.0 / speedups.len() as f64
        );
        println!(
            "  queries ≥1.5x faster:               {:.0}%",
            much_faster as f64 * 100.0 / speedups.len() as f64
        );
        println!(
            "  queries >10% slower:                {:.0}%",
            slower as f64 * 100.0 / speedups.len() as f64
        );
        println!(
            "  median speedup: {:.3}x | p90: {:.3}x",
            percentile(&speedups, 50.0),
            percentile(&speedups, 90.0)
        );
        // Histogram, paper-style.
        println!("  histogram (speedup buckets):");
        let edges = [0.0, 0.8, 0.9, 1.0, 1.1, 1.25, 1.5, 2.0, f64::INFINITY];
        for w in edges.windows(2) {
            let count = speedups.iter().filter(|&&s| s >= w[0] && s < w[1]).count();
            let bar = "#".repeat(count * 40 / speedups.len().max(1));
            println!("    [{:>4.2}, {:>4.2}) {:>4} {}", w[0], w[1], count, bar);
        }
        for (qi, s) in speedups.iter().enumerate() {
            csv.push(format!("{},{qi},{s:.4}", ds.spec.name));
        }
    }
    write_csv(
        "fig7_adaptive_steps.csv",
        "dataset,query,speedup_adaptive_over_fixed32",
        &csv,
    );
    println!("\nPaper shape to verify: roughly half the queries improve, a small tail");
    println!("≥1.5x, and <~1% regress beyond 10% — even on GIST where Δd=32 was tuned.");
}
