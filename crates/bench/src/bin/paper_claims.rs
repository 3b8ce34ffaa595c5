//! **The paper's speed claims, gated.** Each claim is a speedup ratio
//! measured inside this one process on fixed synthetic shapes, so both
//! sides of a ratio share the host, the placement and the moment:
//!
//! 1. the PDX distance kernel over the N-ary explicit-SIMD kernel, per
//!    metric (Tables 4 / 5);
//! 2. exact search: PDX-BOND and the PDX linear scan over the N-ary SIMD
//!    linear scan (Figures 9 / 11);
//! 3. IVF: PDX-ADSampling over ADSampling on its own dual-block layout
//!    (SIMD-ADS), at an `nprobe` whose recall is ≥ 0.99 (Figures 6 / 11);
//! 4. PDXearch's adaptive dimension steps over a fixed Δd = 32 (Figure 7).
//!
//! Prints one `claim:` line per gate, writes `results/paper_claims.csv`
//! and exits 1 when any claim falls below its bound. Each bound is 75 %
//! of the lowest ratio of 24 runs on a 2-vCPU AVX-512 host (12 as built,
//! 12 with the vertical kernels held to AVX2, as on an AVX2-only host),
//! rounded down to 0.05, and never below 1.0: a speedup claim at least
//! says "not slower". The dispatched-SIMD-over-scalar PDX kernel
//! speedup is reported, not gated. Takes no flags.
//!
//! ```text
//! cargo run --release -p pdx-bench --bin paper_claims
//! ```

use pdx::core::kernels::{pdx_accumulate_groups, DimSel};
use pdx::prelude::*;
use pdx_bench::baselines::{linear_scan, IvfHorizontal};
use pdx_bench::harness::*;
use std::hint::black_box;
use std::time::Instant;

/// Neighbours per query in every search claim.
const K: usize = 10;
/// Seed of every generated collection.
const SEED: u64 = 42;

/// Per-side median wall time of `reps` rounds of `run(side)` for each
/// of `sides` competitors, interleaved round by round after one
/// warm-up round.
fn race(reps: usize, sides: usize, mut run: impl FnMut(usize)) -> Vec<f64> {
    let mut times = vec![Vec::with_capacity(reps); sides];
    for rep in 0..=reps {
        for (side, t) in times.iter_mut().enumerate() {
            let t0 = Instant::now();
            run(side);
            if rep > 0 {
                t.push(t0.elapsed().as_secs_f64());
            }
        }
    }
    times.iter().map(|t| percentile(t, 50.0)).collect()
}

/// The measured values, each a CSV row `name,value,bound,verdict`;
/// a reported value has no bound.
#[derive(Default)]
struct Claims {
    rows: Vec<String>,
    failed: usize,
}

impl Claims {
    fn check(&mut self, name: &str, value: f64, bound: f64, unit: &str) {
        let verdict = if value >= bound { "PASS" } else { "FAIL" };
        println!("claim: {name} = {value:.3}{unit} (bound ≥ {bound:.2}{unit}) — {verdict}");
        self.rows
            .push(format!("{name},{value:.4},{bound},{verdict}"));
        self.failed += usize::from(value < bound);
    }

    fn ratio(&mut self, name: &str, value: f64, bound: f64) {
        self.check(name, value, bound, "×");
    }

    fn report(&mut self, name: &str, value: f64, unit: &str) {
        println!("report: {name} = {value:.3}{unit}");
        self.rows.push(format!("{name},{value:.4},,report"));
    }
}

fn dataset(name: &str, n: usize, queries: usize) -> Dataset {
    generate(
        spec_by_name(name).expect("a Table 1 dataset"),
        n,
        queries,
        SEED,
    )
}

/// Claim 1: one query against a whole collection, PDX kernel (`Auto`
/// dispatch) against the N-ary SIMD kernel, geometric mean over the
/// shapes. Also reports the dispatched PDX kernel over its scalar lanes.
fn kernel_claims(claims: &mut Claims) {
    const DIMS: [usize; 6] = [8, 16, 32, 128, 768, 1536];
    const SIZES: [usize; 2] = [1024, 8192];
    const BOUNDS: [(Metric, f64); 3] = [
        (Metric::L2, 1.75),
        (Metric::NegativeIp, 1.65),
        (Metric::L1, 1.65),
    ];
    let mut over_nary = vec![Vec::new(); BOUNDS.len()];
    let mut over_scalar = Vec::new();
    for d in DIMS {
        for n in SIZES {
            let spec = DatasetSpec {
                name: "kernel",
                dims: d,
                distribution: Distribution::Normal,
                paper_size: 0,
            };
            let ds = generate(&spec, n, 1, (d * 31 + n) as u64);
            let q = ds.query(0);
            let block = PdxBlock::from_rows(&ds.data, n, d, DEFAULT_GROUP_SIZE);
            let mut out = vec![0.0f32; n];
            // Each timed round scans ≥ 2^18 values, so tiny shapes time
            // well above the clock's resolution.
            let inner = ((1usize << 18) / (n * d)).max(1);
            for (mi, &(metric, _)) in BOUNDS.iter().enumerate() {
                let sides = if metric == Metric::L2 { 3 } else { 2 };
                let t = race(15, sides, |side| {
                    for _ in 0..inner {
                        match side {
                            0 => pdx_scan(metric, &block, q, &mut out),
                            1 => {
                                for (i, row) in ds.data.chunks_exact(d).enumerate() {
                                    out[i] = nary_distance(metric, KernelVariant::Simd, q, row);
                                }
                            }
                            _ => {
                                out.fill(0.0);
                                let (groups, dims) = (0..block.group_count(), DimSel::Range(0..d));
                                let policy = KernelPolicy::Scalar;
                                pdx_accumulate_groups(
                                    metric, &block, groups, q, dims, &mut out, policy,
                                );
                            }
                        }
                        black_box(&mut out);
                    }
                });
                over_nary[mi].push(t[1] / t[0]);
                over_scalar.extend(t.get(2).map(|t_scalar| t_scalar / t[0]));
            }
        }
    }
    for (mi, &(metric, bound)) in BOUNDS.iter().enumerate() {
        let name = format!("kernel_{}_pdx_over_nary_simd", metric.name().to_lowercase());
        claims.ratio(&name, geomean(&over_nary[mi]), bound);
    }
    let name = format!("kernel_l2_pdx_{}_over_scalar", active_kernel_isa().name());
    claims.report(&name, geomean(&over_scalar), "×");
}

/// Claim 2: exact k-NN over a flat collection, PDX-BOND (distance-to-
/// means order) and the PDX linear scan against the N-ary SIMD linear
/// scan, geometric mean over deep-, sift- and gist-like collections.
fn exact_claims(claims: &mut Claims, gist: &Dataset) {
    const N: usize = 20_000;
    const QUERIES: usize = 20;
    let (deep, sift) = (dataset("deep", N, QUERIES), dataset("sift", N, QUERIES));
    let mut bond_ratios = Vec::new();
    let mut linear_ratios = Vec::new();
    for ds in [&deep, &sift, gist] {
        let (n, d) = (ds.len, ds.dims());
        let flat = FlatPdx::with_defaults(&ds.data, n, d);
        let bond = PdxBond::new(Metric::L2, VisitOrder::DistanceToMeans);
        let linear = PdxBond::linear(Metric::L2);
        let opts = SearchOptions::new(K);
        let t = race(7, 3, |side| {
            for qi in 0..QUERIES {
                let q = ds.query(qi);
                black_box(match side {
                    0 => flat.search_with(&bond, q, &opts),
                    1 => flat.search_with(&linear, q, &opts),
                    _ => linear_scan(&ds.data, d, q, K, Metric::L2, KernelVariant::Simd),
                });
            }
        });
        let (bond_x, linear_x, name) = (t[2] / t[0], t[2] / t[1], ds.spec.name);
        claims.report(
            &format!("exact_pdx_bond_over_nary_simd_{name}"),
            bond_x,
            "×",
        );
        claims.report(
            &format!("exact_pdx_linear_over_nary_simd_{name}"),
            linear_x,
            "×",
        );
        bond_ratios.push(bond_x);
        linear_ratios.push(linear_x);
    }
    claims.ratio("exact_pdx_bond_over_nary_simd", geomean(&bond_ratios), 2.05);
    claims.ratio(
        "exact_pdx_linear_over_nary_simd",
        geomean(&linear_ratios),
        1.0,
    );
}

/// Claims 3 and 4 on IVF: PDX-ADSampling against SIMD-ADS (ADSampling
/// on its dual-block layout, bound every Δd = 32) at `nprobe` = 8, where
/// PDX-ADS recall is gated at ≥ 0.99 (deep- and gist-like); then, on
/// gist-like data at half the buckets, adaptive steps against a fixed
/// Δd = 32 per query.
fn ivf_claims(claims: &mut Claims, gist: &Dataset) {
    const NPROBE: usize = 8;
    const DELTA_D: usize = 32;
    let deep = dataset("deep", gist.len, gist.n_queries);
    let mut ads_ratios = Vec::new();
    for ds in [&deep, gist] {
        let (n, d, nq) = (ds.len, ds.dims(), ds.n_queries);
        let nlist = IvfIndex::default_nlist(n);
        let index = IvfIndex::build(&ds.data, n, d, nlist, 10, 3);
        let ads = AdSampling::fit(d, 7);
        let rotated = ads.transform_collection(&ds.data, n, 0);
        let pdx = IvfPdx::new(&rotated, d, &index.assignments, DEFAULT_GROUP_SIZE);
        let dual = IvfHorizontal::from_pdx(&pdx, DELTA_D);
        let opts = SearchOptions::new(K).with_nprobe(NPROBE);

        let truth = ground_truth(&ds.data, &ds.queries, d, K, Metric::L2, 0);
        let found: Vec<Vec<u64>> = (0..nq)
            .map(|qi| {
                let res = pdx.search_with(&ads, ds.query(qi), &opts);
                res.iter().map(|r| r.id).collect()
            })
            .collect();
        let name = format!("ivf_{}_pdx_ads_recall_at_{K}", ds.spec.name);
        claims.check(&name, mean_recall(&truth, &found, K), 0.99, "");

        let t = race(7, 2, |side| {
            for qi in 0..nq {
                let q = ds.query(qi);
                black_box(match side {
                    0 => pdx.search_with(&ads, q, &opts),
                    _ => dual.search_with(&ads, q, &opts),
                });
            }
        });
        let name = format!("ivf_pdx_ads_over_simd_ads_{}", ds.spec.name);
        claims.report(&name, t[1] / t[0], "×");
        ads_ratios.push(t[1] / t[0]);

        if ds.spec.name == "gist" {
            let half = opts.with_nprobe(nlist / 2);
            let adaptive = half.with_step(StepPolicy::Adaptive { start: 2 });
            let fixed = half.with_step(StepPolicy::Fixed { step: DELTA_D });
            let speedups: Vec<f64> = (0..nq)
                .map(|qi| {
                    let q = ds.query(qi);
                    let t = race(7, 2, |side| {
                        let opts = if side == 0 { &adaptive } else { &fixed };
                        black_box(pdx.search_with(&ads, q, opts));
                    });
                    t[1] / t[0]
                })
                .collect();
            let faster = speedups.iter().filter(|&&s| s > 1.0).count() as f64 / nq as f64;
            claims.report("adaptive_faster_query_share", faster * 100.0, "%");
            let median = percentile(&speedups, 50.0);
            claims.ratio("adaptive_over_fixed32_median_query", median, 1.0);
        }
    }
    claims.ratio("ivf_pdx_ads_over_simd_ads", geomean(&ads_ratios), 1.15);
}

fn main() {
    BenchArgs::parse(&[]);
    let t0 = Instant::now();
    println!(
        "paper claims (host ISA {}, vertical kernels {})",
        detected_isa().name(),
        active_kernel_isa().name()
    );
    let mut claims = Claims::default();
    kernel_claims(&mut claims);
    let gist = dataset("gist", 20_000, 50);
    exact_claims(&mut claims, &gist);
    ivf_claims(&mut claims, &gist);
    write_csv("paper_claims.csv", "name,value,bound,verdict", &claims.rows);
    println!(
        "{} claims failed, {:.1} s",
        claims.failed,
        t0.elapsed().as_secs_f64()
    );
    if claims.failed > 0 {
        std::process::exit(1);
    }
}
