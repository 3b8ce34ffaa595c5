//! **Figure 9** — Exact-search QPS of all competitors (K = 10):
//! PDX-BOND, PDX linear scan, N-ary SIMD (FAISS/USearch stand-in) and
//! N-ary scalar (Scikit-learn stand-in). The paper's DSM column is not
//! reproduced (ARCHITECTURE.md, "Not reproduced").
//!
//! ```text
//! cargo run --release -p pdx-bench --bin fig9_exact_search \
//!     [--n=20000 --queries=50] [--orders]
//! ```
//!
//! `--orders` adds the §6.4/§6.5 visit-order ablation columns for
//! PDX-BOND (distance-to-means vs decreasing vs sequential).

use pdx::prelude::*;
use pdx_bench::harness::*;

fn main() {
    let args = BenchArgs::parse();
    let k = args.usize("k", 10);
    let orders = args.flag("orders");
    let datasets = select_datasets(&args, 20_000, 50);
    let mut csv = Vec::new();

    let mut header = vec![
        "dataset/D",
        "PDX-BOND",
        "PDX-LINEAR",
        "N-ary-SIMD",
        "scalar",
    ];
    if orders {
        header.extend(["BOND-decr", "BOND-seq"]);
    }
    let widths = vec![16usize; header.len()];
    println!("\nFigure 9 — exact search QPS (K={k})");
    println!(
        "{}",
        row(
            &header.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            &widths
        )
    );
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 3 * widths.len())
    );

    for ds in &datasets {
        let d = ds.dims();
        let n = ds.len;
        let flat = FlatPdx::with_defaults(&ds.data, n, d);
        let nary = NaryMatrix::from_rows(&ds.data, n, d);
        let params = SearchOptions::new(k);

        let bond = PdxBond::new(Metric::L2, VisitOrder::DistanceToMeans);
        let (qps_bond, _) = time_queries(ds.n_queries, |qi| {
            drop(flat.search_with(&bond, ds.query(qi), &params))
        });
        let linear = PdxBond::linear(Metric::L2);
        let (qps_pdx, _) = time_queries(ds.n_queries, |qi| {
            drop(flat.search_with(&linear, ds.query(qi), &params))
        });
        let (qps_simd, _) = time_queries(ds.n_queries, |qi| {
            drop(linear_scan_nary(
                &nary,
                ds.query(qi),
                k,
                Metric::L2,
                KernelVariant::Simd,
            ))
        });
        let (qps_scalar, _) = time_queries(ds.n_queries, |qi| {
            drop(linear_scan_nary(
                &nary,
                ds.query(qi),
                k,
                Metric::L2,
                KernelVariant::Scalar,
            ))
        });

        let mut cells = vec![
            format!("{}/{}", ds.spec.name, d),
            format!("{qps_bond:.0}"),
            format!("{qps_pdx:.0}"),
            format!("{qps_simd:.0}"),
            format!("{qps_scalar:.0}"),
        ];
        let mut extra = String::new();
        if orders {
            let bond_decr = PdxBond::new(Metric::L2, VisitOrder::Decreasing);
            let (qps_decr, _) = time_queries(ds.n_queries, |qi| {
                drop(flat.search_with(&bond_decr, ds.query(qi), &params))
            });
            let bond_seq = PdxBond::new(Metric::L2, VisitOrder::Sequential);
            let (qps_seq, _) = time_queries(ds.n_queries, |qi| {
                drop(flat.search_with(&bond_seq, ds.query(qi), &params))
            });
            cells.push(format!("{qps_decr:.0}"));
            cells.push(format!("{qps_seq:.0}"));
            extra = format!(",{qps_decr:.1},{qps_seq:.1}");
        }
        println!("{}", row(&cells, &widths));
        csv.push(format!(
            "{},{d},{qps_bond:.1},{qps_pdx:.1},{qps_simd:.1},{qps_scalar:.1}{extra}",
            ds.spec.name
        ));
    }
    write_csv(
        "fig9_exact_search.csv",
        "dataset,dims,qps_pdx_bond,qps_pdx_linear,qps_nary_simd,qps_nary_scalar",
        &csv,
    );
    println!("\nPaper shape to verify: PDX-BOND and the PDX linear scan lead everywhere;");
    println!("N-ary SIMD sits between them and scalar; the gap to scalar grows with");
    println!("dimensionality. (The paper's DSM column is not reproduced.)");
}
