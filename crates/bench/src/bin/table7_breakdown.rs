//! **Table 7** — IVF query runtime breakdown (distance calculation /
//! find nearest buckets / bounds evaluation / query preprocessing) on an
//! OpenAI/1536-shaped collection, for five algorithm+layout combinations.
//!
//! ```text
//! cargo run --release -p pdx-bench --bin table7_breakdown [--n=20000 --queries=30]
//! ```

use pdx::core::pruning::{checkpoints, StepPolicy};
use pdx::core::search::horizontal_checkpoints;
use pdx::obs::{trace::capture, QueryTrace};
use pdx::prelude::*;
use pdx_bench::harness::*;

/// One row from the merged traces of `n_queries` queries: each phase as
/// a share of the four phases' sum, and per query.
fn print_row(name: &str, t: &QueryTrace, n_queries: usize) {
    let phases = (t.distance_ns + t.find_buckets_ns + t.bounds_ns + t.preprocess_ns).max(1);
    let cell = |ns: u64| {
        format!(
            "{:.1}% ({:.2}ms)",
            ns as f64 * 100.0 / phases as f64,
            ns as f64 / 1e6 / n_queries as f64
        )
    };
    println!(
        "{name:<12} {:>9.2} {:>18} {:>18} {:>18} {:>18} {:>8.1}",
        phases as f64 / 1e6 / n_queries as f64,
        cell(t.distance_ns),
        cell(t.find_buckets_ns),
        cell(t.bounds_ns),
        cell(t.preprocess_ns),
        t.pruning_ratio() * 100.0,
    );
}

fn main() {
    let args = BenchArgs::parse();
    let n = args.usize("n", 20_000);
    let nq = args.usize("queries", 30);
    let k = args.usize("k", 10);
    let spec = *spec_by_name("openai").unwrap();
    eprintln!("generating {}/{} (n = {n})…", spec.name, spec.dims);
    let ds = generate(&spec, n, nq, 42);
    let d = ds.dims();
    let delta_d = 32;

    eprintln!("training IVF…");
    let nlist = IvfIndex::default_nlist(n);
    let index = IvfIndex::build(&ds.data, n, d, nlist, 10, 3);
    // High-recall operating point (paper: 0.95 recall on OpenAI).
    let nprobe = args.usize("nprobe", (nlist / 3).max(1));

    eprintln!("fitting ADSampling…");
    let ads = AdSampling::fit(d, 7);
    let rot_ads = ads.transform_collection(&ds.data, n, 0);
    eprintln!("fitting BSA (PCA on {} samples)…", 8192.min(n));
    let bsa = Bsa::fit(&ds.data, n, d, 8192);
    let rot_bsa = bsa.transform_collection(&ds.data, n, 0);

    eprintln!("materializing deployments…");
    let ivf_ads_pdx = IvfPdx::new(&rot_ads, d, &index.assignments, DEFAULT_GROUP_SIZE);
    let ivf_ads_hor = IvfHorizontal::new(&rot_ads, d, &index.assignments, delta_d);
    let mut ivf_bsa_pdx = IvfPdx::new(&rot_bsa, d, &index.assignments, DEFAULT_GROUP_SIZE);
    let sched = checkpoints(StepPolicy::Adaptive { start: 2 }, d);
    for block in &mut ivf_bsa_pdx.blocks {
        bsa.attach_aux(block, &sched);
    }
    let mut ivf_bsa_hor = IvfHorizontal::new(&rot_bsa, d, &index.assignments, delta_d);
    let hsched = horizontal_checkpoints(d, delta_d, delta_d);
    for bucket in &mut ivf_bsa_hor.buckets {
        bsa.attach_aux_horizontal(bucket, &hsched);
    }
    let ivf_raw = IvfPdx::new(&ds.data, d, &index.assignments, DEFAULT_GROUP_SIZE);
    let bond = PdxBond::new(
        Metric::L2,
        VisitOrder::DimensionZones {
            zone_size: pdx::core::visit_order::DEFAULT_ZONE_SIZE,
        },
    );
    // Traced queries publish the Table 7 phases; `capture` merges them.
    let opts = SearchOptions::new(k).with_nprobe(nprobe).with_trace(true);
    let traced = |search: &dyn Fn(usize)| capture(|| (0..nq).for_each(search)).1;

    println!(
        "\nTable 7 — IVF query runtime breakdown, {}/{d}, nprobe={nprobe}, K={k}",
        spec.name
    );
    println!(
        "{:<12} {:>9} {:>18} {:>18} {:>18} {:>18} {:>8}",
        "algorithm",
        "ms/query",
        "distance",
        "find buckets",
        "bounds eval",
        "preprocessing",
        "pruned%"
    );
    println!("{}", "-".repeat(108));

    let mut csv = Vec::new();
    let mut record = |name: &str, t: &QueryTrace| {
        print_row(name, t, nq);
        let phases = t.distance_ns + t.find_buckets_ns + t.bounds_ns + t.preprocess_ns;
        csv.push(format!(
            "{name},{},{},{},{},{},{:.4}",
            phases / nq as u64,
            t.distance_ns / nq as u64,
            t.find_buckets_ns / nq as u64,
            t.bounds_ns / nq as u64,
            t.preprocess_ns / nq as u64,
            t.pruning_ratio()
        ));
    };

    // N-ary ADS (SIMD-ADS on dual-block horizontal).
    let t = traced(&|qi| drop(ivf_ads_hor.search_with(&ads, ds.query(qi), &opts)));
    record("N-ary ADS", &t);

    let t = traced(&|qi| drop(ivf_ads_pdx.search_with(&ads, ds.query(qi), &opts)));
    record("PDX ADS", &t);

    let t = traced(&|qi| drop(ivf_bsa_hor.search_with(&bsa, ds.query(qi), &opts)));
    record("N-ary BSA", &t);

    let t = traced(&|qi| drop(ivf_bsa_pdx.search_with(&bsa, ds.query(qi), &opts)));
    record("PDX BSA", &t);

    // PDX BOND (raw space).
    let t = traced(&|qi| drop(ivf_raw.search_with(&bond, ds.query(qi), &opts)));
    record("PDX BOND", &t);

    write_csv(
        "table7_breakdown.csv",
        "algorithm,total_ns,distance_ns,find_buckets_ns,bounds_ns,preprocess_ns,pruning_ratio",
        &csv,
    );
    println!("\nPaper shape to verify: PDX variants collapse the bounds-evaluation share");
    println!("(branchless, fewer evaluations) and cut total ms/query several-fold; BOND's");
    println!("preprocessing is near-zero while ADS/BSA pay a rotation per query.");
}
