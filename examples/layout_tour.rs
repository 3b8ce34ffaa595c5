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
    let nary = NaryMatrix::from_rows(&ds.data, n, d);
    let dual = DualBlockMatrix::from_rows(&ds.data, n, d, 32);

    println!(
        "  PDX:        {} groups of ≤{} vectors, dimension-major inside groups",
        pdx_block.group_count(),
        pdx_block.group_size()
    );
    println!(
        "  N-ary:      {} rows of {} contiguous floats",
        nary.len(),
        nary.dims()
    );
    println!(
        "  Dual-block: head {} dims + tail {} dims per vector\n",
        dual.split(),
        d - dual.split()
    );

    // A value lives at the same logical place in all of them.
    let (v, dim) = (12_345usize, 40usize);
    assert_eq!(pdx_block.value(v, dim), nary.row(v)[dim]);
    assert_eq!(pdx_block.value(v, dim), dual.vector(v)[dim]);
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
            for (i, row) in nary.rows().enumerate() {
                out[i] = nary_distance(Metric::L2, KernelVariant::Simd, q, row);
            }
        },
        reps,
    );
    time_scans(
        "N-ary scalar",
        || {
            for (i, row) in nary.rows().enumerate() {
                out[i] = nary_distance(Metric::L2, KernelVariant::Scalar, q, row);
            }
        },
        reps,
    );

    println!("\nExpected ordering (paper, Figure 3): PDX fastest, then N-ary SIMD, then");
    println!("scalar — storing the data in PDX is what makes the vertical kernel pay off.");
}
