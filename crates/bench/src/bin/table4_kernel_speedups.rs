//! **Table 4** — Speedup of the auto-vectorized PDX distance kernels over
//! the explicit-SIMD horizontal kernels, for L2 / IP / L1 across
//! dimensionalities and collection sizes. No k-NN search: pure distance
//! calculation of one query against the whole collection.
//!
//! Also reports (per metric, geomean over all shapes) the speedup of the
//! dispatched explicit-SIMD PDX kernel over the scalar oracle
//! (`--kernel`-style [`KernelPolicy`] dispatch) — the same distances bit
//! for bit, so the column is pure kernel throughput.
//!
//! ```text
//! cargo run --release -p pdx-bench --bin table4_kernel_speedups [--quick]
//! ```

use pdx::core::kernels::{pdx_accumulate_groups, DimSel};
use pdx::prelude::*;
use pdx_bench::harness::*;
use std::time::Instant;

/// Median-of-`reps` wall time of one full-collection scan.
fn time_scan(mut scan: impl FnMut(), reps: usize) -> f64 {
    scan(); // warm-up
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        scan();
        times.push(t0.elapsed().as_secs_f64());
    }
    percentile(&times, 50.0)
}

fn main() {
    let args = BenchArgs::parse();
    let quick = args.flag("quick");
    let dims_list: Vec<usize> = if quick {
        vec![8, 16, 32, 128, 768, 1536]
    } else {
        vec![
            8, 16, 32, 64, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048, 4096, 8192,
        ]
    };
    let sizes: Vec<usize> = if quick {
        vec![1024, 65_536]
    } else {
        vec![64, 1024, 16_384, 131_072]
    };
    // Cap the working set at ~512 MiB of floats.
    let max_floats = 128 * 1024 * 1024usize;

    let metrics = [Metric::L2, Metric::NegativeIp, Metric::L1];
    println!("\nTable 4 — PDX (auto-vectorized) vs N-ary (explicit SIMD) kernel speedup");
    println!(
        "{}",
        row(
            &["metric", "D=8", "D=16,32", "D>32", "All", "SIMD/scal"].map(String::from),
            &[8, 8, 8, 8, 8, 10]
        )
    );
    println!("{}", "-".repeat(48));
    let mut csv = Vec::new();
    for metric in metrics {
        let mut buckets: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        let mut all = Vec::new();
        let mut simd_all = Vec::new();
        for &d in &dims_list {
            for &n in &sizes {
                if n * d > max_floats {
                    continue;
                }
                let spec = DatasetSpec {
                    name: "kern",
                    dims: d,
                    distribution: Distribution::Normal,
                    paper_size: 0,
                };
                let ds = generate(&spec, n, 1, (d * 31 + n) as u64);
                let q = ds.query(0);
                let block = PdxBlock::from_rows(&ds.data, n, d, DEFAULT_GROUP_SIZE);
                let nary = NaryMatrix::from_rows(&ds.data, n, d);
                let mut out = vec![0.0f32; n];
                // Aim for ~10 ms of work per measurement.
                let scan_cost = (n * d) as f64;
                let reps = ((2e8 / scan_cost) as usize).clamp(3, 2001);
                let t_pdx = time_scan(|| pdx_scan(metric, &block, q, &mut out), reps);
                // `pdx_scan` is this call at `Auto`, after zeroing `out`.
                let (groups, scalar) = (0..block.group_count(), KernelPolicy::Scalar);
                let t_scalar = time_scan(
                    || {
                        out.fill(0.0);
                        let dims = DimSel::Range(0..d);
                        pdx_accumulate_groups(
                            metric,
                            &block,
                            groups.clone(),
                            q,
                            dims,
                            &mut out,
                            scalar,
                        )
                    },
                    reps,
                );
                let t_nary = time_scan(
                    || {
                        for (i, rowv) in nary.rows().enumerate() {
                            out[i] = nary_distance(metric, KernelVariant::Simd, q, rowv);
                        }
                    },
                    reps,
                );
                let speedup = t_nary / t_pdx;
                let simd_speedup = t_scalar / t_pdx;
                let bucket = if d == 8 {
                    0
                } else if d <= 32 {
                    1
                } else {
                    2
                };
                buckets[bucket].push(speedup);
                all.push(speedup);
                simd_all.push(simd_speedup);
                csv.push(format!(
                    "{},{d},{n},{speedup:.3},{simd_speedup:.3}",
                    metric.name()
                ));
            }
        }
        println!(
            "{}",
            row(
                &[
                    metric.name().to_string(),
                    format!("{:.1}", geomean(&buckets[0])),
                    format!("{:.1}", geomean(&buckets[1])),
                    format!("{:.1}", geomean(&buckets[2])),
                    format!("{:.1}", geomean(&all)),
                    format!("{:.2}", geomean(&simd_all)),
                ],
                &[8, 8, 8, 8, 8, 10],
            )
        );
    }
    write_csv(
        "table4_kernel_speedups.csv",
        "metric,dims,n,speedup,simd_speedup",
        &csv,
    );
    println!("\nPaper shape to verify: PDX never loses (speedup ≥ ~1); largest gains at");
    println!("D ≤ 32 (several-fold), ~1.2–2x at D > 32. SIMD/scal is the dispatched");
    println!(
        "explicit-SIMD PDX kernel over the scalar oracle (active ISA: {}).",
        detected_isa().name()
    );
}
