//! **Table 8** (extension) — SQ8-quantized PDX vs `f32` PDX on the
//! synthetic SIFT-like collection: recall@k and scan throughput of the
//! quantized-only scan and the two-phase (scan + exact rerank) search
//! against the exact `f32` PDXearch baseline, plus the scan-resident
//! memory footprint of both deployments.
//!
//! ```text
//! cargo run --release -p pdx-bench --bin table8_quantized [--quick]
//!     [--n=50000 --queries=100 --k=10 --refine=4 --nprobe=8,16,32]
//! ```
//!
//! Hard gates (exit 1): two-phase recall ≥ 0.95 and resident block bytes
//! ≥ 3.5× smaller than `f32`. The SIMD speedup line is timing and only
//! prints PASS / FAIL.

use pdx::prelude::*;
use pdx_bench::harness::*;
use std::time::Instant;

/// Median-of-`reps` wall time of scanning every bucket with one policy.
fn time_sq8_scan(q: &Sq8Query, blocks: &[Sq8Block], kernel: KernelPolicy, reps: usize) -> f64 {
    let mut out: Vec<f32> = Vec::new();
    let mut times = Vec::with_capacity(reps);
    for rep in 0..=reps {
        let t0 = Instant::now();
        for b in blocks {
            out.resize(b.codes.len(), 0.0);
            sq8_scan_policy(q, &b.codes, &mut out, kernel);
        }
        if rep > 0 {
            // rep 0 is the warm-up
            times.push(t0.elapsed().as_secs_f64());
        }
    }
    percentile(&times, 50.0)
}

fn main() {
    let args = BenchArgs::parse();
    let quick = args.flag("quick");
    let n = args.usize("n", if quick { 10_000 } else { 50_000 });
    let nq = args.usize("queries", if quick { 50 } else { 100 });
    let k = args.usize("k", 10);
    let refine = args.usize("refine", DEFAULT_REFINE);
    let seed = args.usize("seed", 42) as u64;
    let nprobes: Vec<usize> = args
        .list("nprobe")
        .map(|v| v.iter().filter_map(|s| s.parse().ok()).collect())
        .unwrap_or_else(|| vec![8, 16, 32]);

    let spec = *spec_by_name("sift").expect("table 1 has sift");
    eprintln!(
        "generating {}/{} (n = {n}, queries = {nq})…",
        spec.name, spec.dims
    );
    let ds = generate(&spec, n, nq, seed);
    let dims = ds.dims();

    eprintln!("computing ground truth…");
    let gt = ground_truth(&ds.data, &ds.queries, dims, k, Metric::L2, 0);

    eprintln!("training IVF (shared assignments)…");
    let nlist = IvfIndex::default_nlist(n);
    let index = IvfIndex::build(&ds.data, n, dims, nlist, 10, seed);
    let f32_ivf = IvfPdx::new(&ds.data, dims, &index.assignments, DEFAULT_GROUP_SIZE);
    let sq8_ivf = IvfSq8::new(&ds.data, dims, &index.assignments, DEFAULT_GROUP_SIZE);
    // The same buckets without the rerank payload: answers are the
    // top-k quantized estimates.
    let sq8_scan_only = IvfSq8 {
        rows: Vec::new(),
        ..sq8_ivf.clone()
    };

    // Scan-resident footprint: the bucket payloads each deployment's
    // per-query scan walks.
    let f32_bytes: usize = f32_ivf
        .blocks
        .iter()
        .map(|b| std::mem::size_of_val(b.pdx.as_slice()))
        .sum();
    let sq8_bytes = sq8_ivf.resident_block_bytes();
    let ratio = f32_bytes as f64 / sq8_bytes.max(1) as f64;

    println!(
        "\nTable 8 — SQ8 quantized PDX vs f32 PDX (sift-like, n = {n}, k = {k}, refine = {refine})"
    );
    println!("resident block bytes: f32 {f32_bytes}, sq8 {sq8_bytes} ({ratio:.2}× smaller)");
    let header: Vec<String> = ["nprobe", "config", "recall@k", "QPS", "p50 ms"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let widths = vec![8usize, 18, 10, 10, 10];
    println!("{}", row(&header, &widths));
    println!("{}", "-".repeat(68));

    let bond = PdxBond::new(Metric::L2, VisitOrder::DistanceToMeans);
    let mut csv = Vec::new();
    let mut sq8_two_phase_recalls = Vec::new();
    for &nprobe in &nprobes {
        let nprobe = nprobe.min(f32_ivf.blocks.len());
        let mut report = |config: &str, recall: f64, qps: f64, per_query: &[f64]| {
            let p50 = percentile(per_query, 50.0) * 1e3;
            let cells: Vec<String> = vec![
                nprobe.to_string(),
                config.to_string(),
                format!("{recall:.4}"),
                format!("{qps:.0}"),
                format!("{p50:.3}"),
            ];
            println!("{}", row(&cells, &widths));
            csv.push(format!("{nprobe},{config},{recall:.4},{qps:.1},{p50:.4}"));
        };

        // f32 PDXearch (PDX-BOND, exact within the probed buckets).
        let mut results: Vec<Vec<u64>> = vec![Vec::new(); nq];
        let params = SearchOptions::new(k);
        let (qps, per_query) = time_queries(nq, |qi| {
            let res = f32_ivf.search_with(&bond, ds.query(qi), &params.with_nprobe(nprobe));
            results[qi] = res.iter().map(|r| r.id).collect();
        });
        report(
            "f32-pdx-bond",
            mean_recall(&gt, &results, k),
            qps,
            &per_query,
        );

        // SQ8 quantized scan only (no rerank): top-k by estimate.
        let mut results: Vec<Vec<u64>> = vec![Vec::new(); nq];
        let (qps, per_query) = time_queries(nq, |qi| {
            let res = sq8_scan_only.search(ds.query(qi), &params.with_nprobe(nprobe));
            results[qi] = res.iter().map(|r| r.id).collect();
        });
        report(
            "sq8-scan-only",
            mean_recall(&gt, &results, k),
            qps,
            &per_query,
        );

        // SQ8 two-phase: quantized scan for refine·k candidates + exact
        // f32 rerank.
        let mut results: Vec<Vec<u64>> = vec![Vec::new(); nq];
        let (qps, per_query) = time_queries(nq, |qi| {
            let opts = params.with_nprobe(nprobe).with_refine(refine);
            let res = sq8_ivf.search(ds.query(qi), &opts);
            results[qi] = res.iter().map(|r| r.id).collect();
        });
        let recall = mean_recall(&gt, &results, k);
        sq8_two_phase_recalls.push(recall);
        report("sq8-two-phase", recall, qps, &per_query);
    }

    // Kernel-dispatch speedup: the same quantized scan, scalar oracle vs
    // the dispatched explicit-SIMD kernel (bit-identical distances).
    let scan_q = sq8_ivf.quantizer.prepare_query(Metric::L2, ds.query(0));
    let scan_reps = if quick { 5 } else { 15 };
    let t_scalar = time_sq8_scan(&scan_q, &sq8_ivf.blocks, KernelPolicy::Scalar, scan_reps);
    let t_simd = time_sq8_scan(&scan_q, &sq8_ivf.blocks, KernelPolicy::Simd, scan_reps);
    let simd_speedup = t_scalar / t_simd;
    csv.push(format!("-,sq8-scan-simd-speedup,{simd_speedup:.3},-,-"));
    write_csv(
        "table8_quantized.csv",
        "nprobe,config,recall_at_k,qps,p50_ms",
        &csv,
    );

    // The acceptance gates of the SQ8 PR, stated machine-checkably.
    let best_recall = sq8_two_phase_recalls.iter().cloned().fold(0.0, f64::max);
    let (recall_ok, bytes_ok) = (best_recall >= 0.95, ratio >= 3.5);
    let verdict = |ok: bool| if ok { "PASS" } else { "FAIL" };
    println!(
        "\ncriteria: two-phase recall@{k} = {best_recall:.4} (target ≥ 0.95 at the largest nprobe) — {}",
        verdict(recall_ok)
    );
    println!(
        "criteria: resident block bytes {ratio:.2}× smaller than f32 (target ≥ 3.5×) — {}",
        verdict(bytes_ok)
    );
    match detected_isa() {
        KernelIsa::Scalar => println!(
            "criteria: sq8 scan SIMD speedup — SKIP (no AVX2/NEON detected; scalar-only host)"
        ),
        isa => println!(
            "criteria: sq8 scan {} speedup over scalar = {simd_speedup:.2}× (target ≥ 1.3×) — {}",
            isa.name(),
            verdict(simd_speedup >= 1.3)
        ),
    }
    println!("\nPaper shape to verify: sq8 two-phase tracks the f32 recall at every nprobe");
    println!("(the rerank hides the quantization error) while scanning 4× fewer bytes;");
    println!("scan-only recall shows the gap the rerank closes.");
    if !(recall_ok && bytes_ok) {
        eprintln!("\nFAIL: two-phase recall and resident bytes are hard gates");
        std::process::exit(1);
    }
}
