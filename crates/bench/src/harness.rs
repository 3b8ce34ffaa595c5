//! Shared utilities for the experiment binaries: argument parsing,
//! timing, statistics and CSV output.

use std::collections::HashMap;
use std::fmt::Display;
use std::str::FromStr;
use std::time::Instant;

/// `--key=value` command-line options, checked against the flags the
/// binary reads. An unknown flag, a bare argument, or a value (or list
/// item) that does not parse is an error naming the flag: the binary
/// exits 2 instead of running at a default nobody asked for.
#[derive(Debug, Clone, Default)]
pub struct BenchArgs {
    known: &'static [&'static str],
    values: HashMap<String, String>,
}

impl BenchArgs {
    /// Parses `std::env::args()` against `known`, the flags the binary
    /// reads (`--flag` alone means `--flag=true`).
    pub fn parse(known: &'static [&'static str]) -> Self {
        or_exit(Self::from_args(known, std::env::args().skip(1)))
    }

    fn from_args(
        known: &'static [&'static str],
        args: impl IntoIterator<Item = String>,
    ) -> Result<Self, String> {
        let mut values = HashMap::new();
        for arg in args {
            let Some(rest) = arg.strip_prefix("--") else {
                return Err(format!(
                    "unexpected argument '{arg}' (flags are --key=value)"
                ));
            };
            let (key, value) = rest.split_once('=').unwrap_or((rest, "true"));
            if !known.contains(&key) {
                let valid: Vec<String> = known.iter().map(|f| format!("--{f}")).collect();
                return Err(format!(
                    "unknown flag '--{key}' (valid flags: {})",
                    if valid.is_empty() {
                        "none".to_string()
                    } else {
                        valid.join(", ")
                    }
                ));
            }
            values.insert(key.to_string(), value.to_string());
        }
        Ok(Self { known, values })
    }

    /// The parsed value of `--key`, `None` when absent.
    fn value<T: FromStr>(&self, key: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        assert!(self.known.contains(&key), "--{key} is not a declared flag");
        let parse = |v: &String| {
            v.parse()
                .map_err(|e| format!("invalid value for --{key}: '{v}' ({e})"))
        };
        self.values.get(key).map(parse).transpose()
    }

    /// `--key` parsed into the type of `default`, or `default` when absent.
    pub fn get<T: FromStr>(&self, key: &str, default: T) -> T
    where
        T::Err: Display,
    {
        or_exit(self.value(key)).unwrap_or(default)
    }

    /// Boolean flag: `--flag`, `--flag=true` or `--flag=false`.
    pub fn flag(&self, key: &str) -> bool {
        self.get(key, false)
    }

    /// Comma-separated list, every item parsed, or `default` when absent.
    pub fn list<T: FromStr + Clone>(&self, key: &str, default: &[T]) -> Vec<T>
    where
        T::Err: Display,
    {
        or_exit(self.items(key)).unwrap_or_else(|| default.to_vec())
    }

    fn items<T: FromStr>(&self, key: &str) -> Result<Option<Vec<T>>, String>
    where
        T::Err: Display,
    {
        let Some(list) = self.value::<String>(key)? else {
            return Ok(None);
        };
        let item = |s: &str| {
            s.trim()
                .parse()
                .map_err(|e| format!("invalid item '{s}' in --{key}={list} ({e})"))
        };
        list.split(',')
            .map(item)
            .collect::<Result<_, _>>()
            .map(Some)
    }
}

fn or_exit<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
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

    const FLAGS: &[&str] = &["n", "quick", "nprobe"];

    fn args(list: &[&str]) -> Result<BenchArgs, String> {
        BenchArgs::from_args(FLAGS, list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn declared_flags_parse_into_their_types() {
        let a = args(&["--n=500", "--quick", "--nprobe=8, 16,32"]).unwrap();
        assert_eq!(a.value::<usize>("n"), Ok(Some(500)));
        assert_eq!(a.value::<bool>("quick"), Ok(Some(true)));
        assert_eq!(a.items::<usize>("nprobe"), Ok(Some(vec![8, 16, 32])));
        let none = args(&[]).unwrap();
        assert_eq!(none.value::<usize>("n"), Ok(None));
        assert_eq!(none.items::<usize>("nprobe"), Ok(None));
        assert!(!none.flag("quick"));
    }

    #[test]
    fn unknown_flags_and_bare_arguments_are_errors() {
        let err = args(&["--querys=8"]).unwrap_err();
        assert!(err.contains("unknown flag '--querys'"), "{err}");
        assert!(err.contains("--n, --quick, --nprobe"), "{err}");
        let err = args(&["8"]).unwrap_err();
        assert!(err.contains("unexpected argument '8'"), "{err}");
        let err = BenchArgs::from_args(&[], ["--quick".to_string()]).unwrap_err();
        assert!(err.contains("valid flags: none"), "{err}");
    }

    #[test]
    fn malformed_values_and_list_items_name_their_flag() {
        let a = args(&["--n=abc", "--quick=yes", "--nprobe=8,x,32"]).unwrap();
        let err = a.value::<usize>("n").unwrap_err();
        assert!(err.starts_with("invalid value for --n: 'abc'"), "{err}");
        let err = a.value::<bool>("quick").unwrap_err();
        assert!(err.starts_with("invalid value for --quick: 'yes'"), "{err}");
        let err = a.items::<usize>("nprobe").unwrap_err();
        assert!(
            err.starts_with("invalid item 'x' in --nprobe=8,x,32"),
            "{err}"
        );
    }

    #[test]
    #[should_panic(expected = "not a declared flag")]
    fn reading_an_undeclared_flag_is_a_bug() {
        let _ = args(&[]).unwrap().value::<usize>("k");
    }

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
}
