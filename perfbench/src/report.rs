//! Metric names and units (the same tables `BENCHMARK.json` lists), the
//! per-run result, and the two output forms: named lines for people and
//! the one-line JSON object the driver reads last.

use std::collections::BTreeMap;
use std::fmt::Write as _;

pub const WORKLOADS: [&str; 5] = [
    "flat_exact",
    "ivf_ads_hd",
    "ivf_ooc",
    "store_churn",
    "serve_remote",
];

/// `run_seconds` of `BENCHMARK.json`: about what the passes of a run
/// take, and the only value `--seconds` may have.
pub const RUN_SECONDS: u64 = 15;

/// `(name, unit, higher_is_better, bound)`; every workload reports every
/// one. The bound is the share of the baseline median by which a later
/// change may worsen the metric. The benchmark is only accepted while
/// every run-to-run spread stays inside its bound, on a machine that may
/// be noisier than the one that recorded `AA.md`, so the four timings
/// keep the contract's cap of 25 % (their recorded spreads are under a
/// third of it); see "Bounds" in the README.
pub const END_TO_END: [(&str, &str, bool, f64); 7] = [
    ("setup_s", "s", false, 0.25),
    ("query_p50_us", "us", false, 0.25),
    ("query_p99_us", "us", false, 0.25),
    ("batch_qps", "1/s", true, 0.25),
    ("recall_at_10", "ratio", true, 0.002),
    ("peak_rss_mib", "MiB", false, 0.25),
    ("disk_bytes_per_vector", "B", false, 0.005),
];

/// `(name, unit)` of the traced run's per-layer metrics. A workload that
/// does not exercise a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("harness.calib_stream_gbps", "GB/s"),
    ("harness.ref_tick_us", "us"),
    ("core.kernels.pdx_scan_ns_per_value", "ns"),
    ("core.kernels.pdx_positions_ns_per_value", "ns"),
    ("core.kernels.sq8_scan_ns_per_value", "ns"),
    ("core.kernels.nary_ns_per_value", "ns"),
    ("core.kernels.pdx_scan_roofline_frac", "ratio"),
    ("core.search.preprocess_us", "us"),
    ("core.search.find_buckets_us", "us"),
    ("core.search.bounds_us", "us"),
    ("core.search.distance_us", "us"),
    ("core.search.unattributed_us", "us"),
    ("core.search.dims_scanned_ratio", "ratio"),
    ("core.search.vectors_visited", "count"),
    ("core.search.blocks_visited", "count"),
    ("core.search.rerank_candidates", "count"),
    ("core.exec.batch_scaling", "ratio"),
    ("core.cache.hits", "count"),
    ("core.cache.misses", "count"),
    ("core.cache.evictions", "count"),
    ("core.cache.hit_ratio", "ratio"),
    ("core.cache.resident_frac", "ratio"),
    ("index.kmeans_s", "s"),
    ("index.layout_s", "s"),
    ("index.lazy_fetch_miss_us", "us"),
    ("index.lazy_fetch_hit_us", "us"),
    ("index.resident_bytes_per_vector", "B"),
    ("pruners.ads_fit_s", "s"),
    ("pruners.ads_prepare_query_us", "us"),
    ("datasets.persist.write_mibps", "MiB/s"),
    ("datasets.persist.read_mibps", "MiB/s"),
    ("engine.open_ms", "ms"),
    ("store.insert_us", "us"),
    ("store.delete_us", "us"),
    ("store.seal_ms", "ms"),
    ("store.compact_ms", "ms"),
    ("store.sync_us", "us"),
    ("store.wal_bytes_per_row", "B"),
    ("store.search_buffered_us", "us"),
    ("store.search_tombstoned_us", "us"),
    ("store.search_sealed_us", "us"),
    ("store.search_compacted_us", "us"),
    ("store.segments_after_compact", "count"),
    ("serve.local_search_us", "us"),
    ("serve.ping_rtt_us", "us"),
    ("serve.server_side_us", "us"),
    ("serve.wire_overhead_us", "us"),
    ("serve.unexplained_us", "us"),
    ("serve.busy_rejected", "count"),
    ("serve.deadline_rejected", "count"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.render_us", "us"),
];

/// What one `run` or `trace` of one workload produced.
#[derive(Default)]
pub struct Outcome {
    /// Ops issued (timed passes, warm-up and checks alike).
    pub attempted: u64,
    /// Ops that errored, were refused, or returned a wrong result.
    pub failed: u64,
    /// Gate failures; any entry makes the run incorrect.
    pub errors: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Free-form lines for the text report (sample counts, shares).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records a failed gate.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }
}

fn units(traced: bool) -> Vec<(&'static str, &'static str)> {
    if traced {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.iter().map(|&(n, u, _, _)| (n, u)).collect()
    }
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// The named-lines report: every metric of the mode with its unit.
pub fn text(outcome: &Outcome, traced: bool) -> String {
    let mut out = String::new();
    for line in &outcome.notes {
        writeln!(out, "  {line}").expect("write to a String");
    }
    for (name, unit) in units(traced) {
        let v = finite(outcome.metrics.get(name).copied().unwrap_or(0.0));
        writeln!(out, "{name} = {v} {unit}").expect("write to a String");
    }
    for e in &outcome.errors {
        writeln!(out, "GATE FAILED: {e}").expect("write to a String");
    }
    out
}

/// The driver's line: exactly `correct`, `attempted`, `failed`,
/// `metrics`, with every metric of the mode and all its digits.
pub fn json_line(outcome: &Outcome, traced: bool) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, (name, unit)) in units(traced).into_iter().enumerate() {
        let v = finite(outcome.metrics.get(name).copied().unwrap_or(0.0));
        let sep = if i == 0 { "" } else { ", " };
        write!(
            out,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        )
        .expect("write to a String");
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pulls `"name": "..."`/`"unit": "..."` pairs out of one array of
    /// BENCHMARK.json without a JSON parser (the file is ours).
    fn declared(section: &str) -> Vec<(String, String)> {
        let doc = include_str!("../../BENCHMARK.json");
        let start = doc
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &doc[start..];
        let body = &body[..body.find(']').expect("array closes")];
        let field = |obj: &str, key: &str| -> String {
            let at = obj.find(&format!("\"{key}\"")).expect("key present");
            let rest = &obj[at + key.len() + 2..];
            let open = rest.find('"').expect("value opens");
            let rest = &rest[open + 1..];
            rest[..rest.find('"').expect("value closes")].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u, _, _)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
        let doc = include_str!("../../BENCHMARK.json");
        for (name, _, higher, bound) in END_TO_END {
            let better = if higher { "higher" } else { "lower" };
            let entry = format!("\"name\": \"{name}\", \"unit\"");
            let line = doc
                .lines()
                .find(|l| l.contains(&entry))
                .expect("metric line");
            assert!(
                line.contains(&format!("\"better\": \"{better}\"")),
                "{line}"
            );
            assert!(line.contains(&format!("\"bound\": {bound}}}")), "{line}");
        }
        let layers: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("per_layer"), layers);
        for w in WORKLOADS {
            assert!(
                doc.contains(&format!("\"name\": \"{w}\"")),
                "{w} undeclared"
            );
        }
        assert!(doc.contains(&format!("\"run_seconds\": {RUN_SECONDS},")));
    }

    #[test]
    fn json_line_has_the_four_keys_and_every_metric() {
        let mut o = Outcome {
            attempted: 12,
            ..Outcome::default()
        };
        o.set("query_p50_us", 1.25);
        o.set("batch_qps", f64::NAN);
        let line = json_line(&o, false);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"query_p50_us\": {\"value\": 1.25, \"unit\": \"us\"}"));
        assert!(line.contains("\"batch_qps\": {\"value\": 0, \"unit\": \"1/s\"}"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        assert_eq!(
            json_line(&o, true).matches("\"value\"").count(),
            PER_LAYER.len()
        );
        o.failed = 1;
        assert!(json_line(&o, false).starts_with("{\"correct\": false"));
    }
}
