//! A guided tour of the storage layouts and their kernels
//! (Figures 1 and 3 of the paper, in code).
//!
//! ```text
//! cargo run --release --example layout_tour
//! ```

use pdx::prelude::*;
use std::time::Instant;

fn time_scans(label: &str, mut scan: impl FnMut(), reps: usize) {
    // Warm up once, then time.
    scan();
    let t0 = Instant::now();
    for _ in 0..reps {
        scan();
    }
    let per = t0.elapsed().as_secs_f64() / reps as f64;
    println!("  {label:<24} {:>10.3} ms/scan", per * 1e3);
}

fn main() {
    let (n, d) = (131_072, 96);
    println!("collection: {n} vectors × {d} dims (float32)\n");
    let spec = DatasetSpec {
        name: "tour",
        dims: d,
        distribution: Distribution::Normal,
        paper_size: 0,
    };
    let ds = generate(&spec, n, 1, 5);
    let q = ds.query(0);

    // --- The layouts ------------------------------------------------------
    println!("building layouts…");
    let pdx_block = PdxBlock::from_rows(&ds.data, n, d, DEFAULT_GROUP_SIZE);
    // The N-ary layout is the generated rows themselves; ADSampling's
    // dual-block layout splits each row at Δd (the SIMD-ADS baseline,
    // `pdx_bench::baselines::IvfHorizontal`, stores its buckets so).
    let nary = &ds.data;
    let split = 32;

    println!(
        "  PDX:        {} groups of ≤{} vectors, dimension-major inside groups",
        pdx_block.group_count(),
        pdx_block.group_size()
    );
    println!(
        "  N-ary:      {} rows of {d} contiguous floats",
        nary.len() / d
    );
    println!(
        "  Dual-block: head {split} dims + tail {} dims per vector\n",
        d - split
    );

    // A value lives at the same logical place in all of them.
    let (v, dim) = (12_345usize, 40usize);
    let (_head, tail) = ds.vector(v).split_at(split);
    assert_eq!(pdx_block.value(v, dim), nary[v * d + dim]);
    assert_eq!(pdx_block.value(v, dim), tail[dim - split]);
    println!(
        "value (vector {v}, dim {dim}) identical across layouts: {}\n",
        pdx_block.value(v, dim)
    );

    // --- Full-scan kernels on each layout ---------------------------------
    println!("full-collection L2 distance calculation (single thread):");
    let mut out = vec![0.0f32; n];
    let reps = 20;
    time_scans(
        "PDX (auto-vectorized)",
        || pdx_scan(Metric::L2, &pdx_block, q, &mut out),
        reps,
    );
    time_scans(
        "N-ary explicit SIMD",
        || {
            for (i, row) in nary.chunks_exact(d).enumerate() {
                out[i] = nary_distance(Metric::L2, KernelVariant::Simd, q, row);
            }
        },
        reps,
    );
    time_scans(
        "N-ary scalar",
        || {
            for (i, row) in nary.chunks_exact(d).enumerate() {
                out[i] = nary_distance(Metric::L2, KernelVariant::Scalar, q, row);
            }
        },
        reps,
    );

    println!("\nExpected ordering (paper, Figure 3): PDX fastest, then N-ary SIMD, then");
    println!("scalar — storing the data in PDX is what makes the vertical kernel pay off.");
}
