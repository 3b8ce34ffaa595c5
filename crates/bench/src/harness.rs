//! Shared utilities for the experiment binaries: argument parsing,
//! timing, statistics, dataset preparation and the Δd = 1 pruning-power
//! replay used by Tables 2 and 6.

use pdx::core::pruning::Pruner;
use pdx::index::ivf::probe_orders;
use pdx::obs::QueryTrace;
use pdx::prelude::*;
use std::collections::HashMap;
use std::time::Instant;

/// `--key=value` command-line options with typed accessors.
#[derive(Debug, Clone, Default)]
pub struct BenchArgs {
    values: HashMap<String, String>,
}

impl BenchArgs {
    /// Parses `std::env::args()` (ignores anything not `--key=value`).
    pub fn parse() -> Self {
        let mut values = HashMap::new();
        for arg in std::env::args().skip(1) {
            if let Some(rest) = arg.strip_prefix("--") {
                if let Some((k, v)) = rest.split_once('=') {
                    values.insert(k.to_string(), v.to_string());
                } else {
                    values.insert(rest.to_string(), "true".to_string());
                }
            }
        }
        Self { values }
    }

    /// Integer option with default.
    pub fn usize(&self, key: &str, default: usize) -> usize {
        self.values
            .get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// Float option with default.
    pub fn f32(&self, key: &str, default: f32) -> f32 {
        self.values
            .get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// Boolean flag (`--flag` or `--flag=true`).
    pub fn flag(&self, key: &str) -> bool {
        self.values.get(key).map(|v| v == "true").unwrap_or(false)
    }

    /// Comma-separated list option.
    pub fn list(&self, key: &str) -> Option<Vec<String>> {
        self.values
            .get(key)
            .map(|v| v.split(',').map(|s| s.trim().to_string()).collect())
    }
}

/// Datasets selected by `--datasets=a,b,c` (default: all of Table 1),
/// generated at `--n` vectors (default `n_default`) with `--queries`
/// queries.
pub fn select_datasets(args: &BenchArgs, n_default: usize, nq_default: usize) -> Vec<Dataset> {
    let wanted = args.list("datasets");
    let n = args.usize("n", n_default);
    let nq = args.usize("queries", nq_default);
    let seed = args.usize("seed", 42) as u64;
    TABLE1
        .iter()
        .filter(|spec| {
            wanted
                .as_ref()
                .is_none_or(|w| w.iter().any(|x| x == spec.name))
        })
        .map(|spec| {
            eprintln!("  generating {}/{} (n = {n})…", spec.name, spec.dims);
            generate(spec, n, nq, seed)
        })
        .collect()
}

/// Wall-clock per-query runtimes of a query loop; returns
/// `(qps, per_query_seconds)`.
pub fn time_queries(n_queries: usize, mut f: impl FnMut(usize)) -> (f64, Vec<f64>) {
    let mut per_query = Vec::with_capacity(n_queries);
    let t_all = Instant::now();
    for qi in 0..n_queries {
        let t0 = Instant::now();
        f(qi);
        per_query.push(t0.elapsed().as_secs_f64());
    }
    (n_queries as f64 / t_all.elapsed().as_secs_f64(), per_query)
}

/// Geometric mean (ignores non-positive entries).
pub fn geomean(xs: &[f64]) -> f64 {
    let logs: Vec<f64> = xs.iter().filter(|&&x| x > 0.0).map(|x| x.ln()).collect();
    if logs.is_empty() {
        return 0.0;
    }
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// p-th percentile (0–100) by nearest rank on a copy of the data.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// The Δd = 1 pruning-power replay of Tables 2 and 6: scans the IVF
/// blocks in probe order, evaluating the pruner's bound after **every**
/// dimension, and returns the fraction of dimension values never
/// touched ([`QueryTrace::pruning_ratio`] over the replay's work
/// counters — the same derivation the observability layer exports).
/// Mirrors the paper's measurement (K of the k-NN heap, first block
/// scanned fully to seed the threshold).
pub fn pruning_power<P: Pruner>(pruner: &P, ivf: &IvfPdx, query: &[f32], k: usize) -> f64 {
    assert!(
        !P::NEEDS_AUX,
        "the replay evaluates at every dimension; aux pruners unsupported"
    );
    let dims = ivf.dims;
    let q = pruner.prepare_query(query);
    let qvec = pruner.query_vector(&q);
    let order = &probe_orders(&ivf.centroids, &[qvec], ivf.blocks.len(), pruner.metric())[0];
    let mut heap = KnnHeap::new(k);
    let mut trace = QueryTrace::default();
    for (bi, &b) in order.iter().enumerate() {
        let block = &ivf.blocks[b as usize];
        let n = block.len();
        trace.dims_total += (n * dims) as u64;
        let rows: Vec<Vec<f32>> = (0..n).map(|v| block.pdx.vector(v)).collect();
        let perm = pruner.dim_order(&q, Some(&block.stats));
        let dim_at = |i: usize| -> usize {
            match &perm {
                Some(p) => p[i] as usize,
                None => i,
            }
        };
        if bi == 0 {
            for (v, row) in rows.iter().enumerate() {
                let d: f32 = qvec.iter().zip(row).map(|(a, b)| (a - b) * (a - b)).sum();
                heap.push(block.row_ids[v], d);
            }
            trace.dims_scanned += (n * dims) as u64;
            continue;
        }
        let mut alive: Vec<usize> = (0..n).collect();
        let mut partials = vec![0.0f32; n];
        for step in 0..dims {
            let d = dim_at(step);
            let qd = qvec[d];
            for &v in &alive {
                let diff = qd - rows[v][d];
                partials[v] += diff * diff;
            }
            trace.dims_scanned += alive.len() as u64;
            if step + 1 == dims {
                break;
            }
            let cp = pruner.checkpoint(&q, step + 1, dims, heap.threshold());
            alive.retain(|&v| P::survives(&cp, partials[v], 0.0));
            if alive.is_empty() {
                break;
            }
        }
        for &v in &alive {
            heap.push(block.row_ids[v], partials[v]);
        }
    }
    trace.pruning_ratio()
}

/// Renders a row of `|`-separated cells with the given widths.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join(" | ")
}

/// Writes a CSV file under `results/`, creating the directory.
pub fn write_csv(name: &str, header: &str, rows: &[String]) {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(name);
    let mut out = String::with_capacity(rows.len() * 32 + header.len() + 1);
    out.push_str(header);
    out.push('\n');
    for r in rows {
        out.push_str(r);
        out.push('\n');
    }
    std::fs::write(&path, out).expect("write csv");
    eprintln!("  wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_constant_is_constant() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_ignores_nonpositive() {
        assert!((geomean(&[4.0, 0.0, 1.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_bounds() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(percentile(&xs, 50.0), 3.0);
    }

    #[test]
    fn pruning_power_is_in_unit_interval() {
        let spec = *spec_by_name("nytimes").unwrap();
        let ds = generate(&spec, 600, 2, 1);
        let index = IvfIndex::build(&ds.data, ds.len, ds.dims(), 8, 5, 2);
        let ivf = IvfPdx::new(&ds.data, ds.dims(), &index.assignments, 64);
        let bond = PdxBond::new(Metric::L2, VisitOrder::DistanceToMeans);
        let p = pruning_power(&bond, &ivf, ds.query(0), 10);
        assert!((0.0..1.0).contains(&p), "pruning power {p}");
    }
}
