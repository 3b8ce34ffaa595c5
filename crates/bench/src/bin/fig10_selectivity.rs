//! **Figure 10** — Effect of the PRUNE-phase selection-percentage
//! threshold on PDXearch's speedup over a PDX linear scan (PDX-ADS on an
//! IVF index).
//!
//! ```text
//! cargo run --release -p pdx-bench --bin fig10_selectivity \
//!     [--n=20000 --queries=50 --datasets=gist,msong,deep,nytimes,contriever,openai]
//! ```

use pdx::prelude::*;
use pdx_bench::harness::*;

const SIX: [&str; 6] = ["gist", "msong", "deep", "nytimes", "contriever", "openai"];

fn main() {
    let args = BenchArgs::parse();
    let k = args.usize("k", 10);
    let thresholds = [0.01f32, 0.02, 0.05, 0.10, 0.20, 0.40, 0.80];
    let datasets: Vec<Dataset> = if args.list("datasets").is_some() {
        select_datasets(&args, 20_000, 50)
    } else {
        SIX.iter()
            .map(|name| {
                let spec = *spec_by_name(name).unwrap();
                let n = args.usize("n", 20_000);
                eprintln!("  generating {}/{} (n = {n})…", spec.name, spec.dims);
                generate(&spec, n, args.usize("queries", 50), 42)
            })
            .collect()
    };

    println!("\nFigure 10 — PDX-ADS speedup over PDX linear scan by selection threshold (K={k})");
    let mut header = vec!["dataset/D".to_string()];
    header.extend(thresholds.iter().map(|t| format!("{:.0}%", t * 100.0)));
    let widths = vec![16usize; header.len()];
    println!("{}", row(&header, &widths));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 3 * widths.len())
    );

    let mut csv = Vec::new();
    for ds in &datasets {
        let d = ds.dims();
        let n = ds.len;
        let nlist = IvfIndex::default_nlist(n);
        let index = IvfIndex::build(&ds.data, n, d, nlist, 10, 3);
        let ads = AdSampling::fit(d, 7);
        let rotated = ads.transform_collection(&ds.data, n, 0);
        let ivf = IvfPdx::new(&rotated, d, &index.assignments, DEFAULT_GROUP_SIZE);
        let nprobe = (nlist / 2).max(1);

        // Baseline: linear scan of the same probed buckets on PDX (the
        // rotated query keeps bucket ranking identical).
        let (linear, probe) = (
            PdxBond::linear(Metric::L2),
            SearchOptions::new(k).with_nprobe(nprobe),
        );
        let (qps_linear, _) = time_queries(ds.n_queries, |qi| {
            let rq = ads.transform_vector(ds.query(qi));
            let _ = ivf.search_with(&linear, &rq, &probe);
        });

        let mut cells = vec![format!("{}/{}", ds.spec.name, d)];
        let mut csv_cells = vec![ds.spec.name.to_string(), d.to_string()];
        for &t in &thresholds {
            let params = SearchOptions::new(k).with_selection_fraction(t);
            let (qps, _) = time_queries(ds.n_queries, |qi| {
                let _ = ivf.search_with(&ads, ds.query(qi), &params.with_nprobe(nprobe));
            });
            let speedup = qps / qps_linear;
            cells.push(format!("{speedup:.2}x"));
            csv_cells.push(format!("{speedup:.3}"));
        }
        println!("{}", row(&cells, &widths));
        csv.push(csv_cells.join(","));
    }
    let mut header_csv = vec!["dataset".to_string(), "dims".to_string()];
    header_csv.extend(
        thresholds
            .iter()
            .map(|t| format!("speedup_at_{:.0}pct", t * 100.0)),
    );
    write_csv("fig10_selectivity.csv", &header_csv.join(","), &csv);
    println!("\nPaper shape to verify: a sweet spot near 20% with a flat region down to");
    println!("~5%; thresholds >40% hurt; low-pruning datasets (nytimes) can stay <1.0x.");
}
