//! Quickstart: exact k-NN search on the PDX layout in five steps.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a small synthetic collection, stores it in PDX, and runs an
//! exact PDX-BOND search (no preprocessing, no recall trade-off) next to
//! a brute-force scan to show both speed and exactness.

use pdx::prelude::*;
use std::time::Instant;

fn main() {
    // 1. A collection: 50 000 vectors of 128 dims (SIFT-shaped).
    let spec = *spec_by_name("sift").expect("spec exists");
    println!(
        "generating {}-dim '{}'-shaped collection…",
        spec.dims, spec.name
    );
    let ds = generate(&spec, 50_000, 100, 42);

    // 2. Store it in the PDX layout: flat partitions of ≤10 240 vectors,
    //    vector groups of 64 (the paper's defaults for exact search).
    let flat = FlatPdx::with_defaults(&ds.data, ds.len, ds.dims());
    println!(
        "stored {} vectors in {} PDX blocks",
        ds.len,
        flat.collection.blocks.len()
    );

    // 3. An exact pruned searcher: PDX-BOND with the distance-to-means
    //    dimension order. Works on the raw floats as-is.
    let bond = PdxBond::new(Metric::L2, VisitOrder::DistanceToMeans);
    let opts = SearchOptions::new(10);

    // 4. Search all queries, once with PDX-BOND, once with a plain
    //    PDX linear scan (both are exact; BOND skips work).
    let t0 = Instant::now();
    let mut bond_results = Vec::new();
    for qi in 0..ds.n_queries {
        bond_results.push(flat.search_with(&bond, ds.query(qi), &opts));
    }
    let bond_time = t0.elapsed();

    let linear = PdxBond::linear(Metric::L2);
    let t1 = Instant::now();
    let mut scan_results = Vec::new();
    for qi in 0..ds.n_queries {
        scan_results.push(flat.search_with(&linear, ds.query(qi), &opts));
    }
    let scan_time = t1.elapsed();

    // 5. Verify exactness and report throughput.
    let mut agree = 0usize;
    for (a, b) in bond_results.iter().zip(&scan_results) {
        let ia: std::collections::HashSet<u64> = a.iter().map(|n| n.id).collect();
        let ib: std::collections::HashSet<u64> = b.iter().map(|n| n.id).collect();
        agree += (ia == ib) as usize;
    }
    println!("\ntop-10 of query 0:");
    for n in &bond_results[0] {
        println!("  id {:>6}  L2² = {:.3}", n.id, n.distance);
    }
    println!(
        "\nexactness: {agree}/{} queries identical to the linear scan",
        ds.n_queries
    );
    println!(
        "PDX-BOND:        {:>8.1} QPS",
        ds.n_queries as f64 / bond_time.as_secs_f64()
    );
    println!(
        "PDX linear scan: {:>8.1} QPS",
        ds.n_queries as f64 / scan_time.as_secs_f64()
    );
    println!(
        "speedup from pruning: {:.2}x",
        scan_time.as_secs_f64() / bond_time.as_secs_f64()
    );
}
