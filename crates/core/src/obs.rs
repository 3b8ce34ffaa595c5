//! Core-side observability wiring: trace publication and the search /
//! cache metric families in the process-global
//! [`Registry`].
//!
//! A traced scan ([`pdxearch`](crate::search::pdxearch) and its
//! siblings) writes its phases and work counters straight into the
//! caller's [`QueryTrace`]; the engine layer stamps the total time and
//! identity on it and hands it to [`publish_trace`], which is the only
//! path from a query into these families.
//!
//! The handles below are resolved once (through `OnceLock` / a small
//! read-mostly map) and then recorded through with single relaxed
//! atomics, so the instrumented paths stay cheap. Everything here is
//! *pull*-driven: nothing is emitted until someone renders the
//! registry (`pdx serve --metrics-port`, `pdx stat --metrics`).

use pdx_obs::{expo, trace, Counter, Gauge, Histogram, QueryTrace, Registry};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock, RwLock};

/// Env var that turns per-query tracing on for every
/// [`SearchOptions`](crate::engine::SearchOptions) built with
/// defaults: `1` / `true` / `on` enable, anything else disables.
pub const TRACE_ENV: &str = "PDX_TRACE";

/// The process-default for
/// [`SearchOptions::trace`](crate::engine::SearchOptions::trace): the
/// [`TRACE_ENV`] override, read once.
pub fn trace_default() -> bool {
    static DEFAULT: OnceLock<bool> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var(TRACE_ENV)
            .map(|v| matches!(v.trim(), "1" | "true" | "on"))
            .unwrap_or(false)
    })
}

/// Registry handles for one deployment's search family.
struct SearchMetrics {
    queries: Arc<Counter>,
    latency_us: Arc<Histogram>,
    blocks: Arc<Counter>,
    vectors: Arc<Counter>,
    dims_total: Arc<Counter>,
    dims_scanned: Arc<Counter>,
    rerank: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
}

impl SearchMetrics {
    fn register(deployment: &'static str) -> Self {
        let r = Registry::global();
        let l = &[("deployment", deployment)][..];
        Self {
            queries: r.counter("pdx_search_queries_total", "Traced queries served.", l),
            latency_us: r.histogram(
                "pdx_search_latency_us",
                "End-to-end search latency of traced queries, microseconds.",
                l,
            ),
            blocks: r.counter(
                "pdx_search_blocks_visited_total",
                "Blocks visited by traced scans.",
                l,
            ),
            vectors: r.counter(
                "pdx_search_vectors_visited_total",
                "Vectors touched by traced scans.",
                l,
            ),
            dims_total: r.counter(
                "pdx_search_dims_considered_total",
                "Dimension-values a full scan of the visited blocks would read.",
                l,
            ),
            dims_scanned: r.counter(
                "pdx_search_dims_scanned_total",
                "Dimension-values actually read before pruning cut in.",
                l,
            ),
            rerank: r.counter(
                "pdx_search_rerank_candidates_total",
                "Candidates reranked by the quantized two-phase path.",
                l,
            ),
            cache_hits: r.counter(
                "pdx_search_trace_cache_hits_total",
                "Block-cache hits charged to traced queries.",
                l,
            ),
            cache_misses: r.counter(
                "pdx_search_trace_cache_misses_total",
                "Block-cache misses charged to traced queries.",
                l,
            ),
        }
    }
}

fn search_metrics(deployment: &'static str) -> Arc<SearchMetrics> {
    static BY_DEPLOYMENT: OnceLock<RwLock<HashMap<&'static str, Arc<SearchMetrics>>>> =
        OnceLock::new();
    let map = BY_DEPLOYMENT.get_or_init(|| RwLock::new(HashMap::new()));
    if let Some(m) = map.read().unwrap().get(deployment) {
        return Arc::clone(m);
    }
    let mut write = map.write().unwrap();
    Arc::clone(
        write
            .entry(deployment)
            .or_insert_with(|| Arc::new(SearchMetrics::register(deployment))),
    )
}

/// Aggregate dimension-work counters across deployments, feeding the
/// derived [`global_pruning_ratio`].
struct DimTotals {
    total: Arc<Counter>,
    scanned: Arc<Counter>,
}

fn dim_totals() -> &'static DimTotals {
    static TOTALS: OnceLock<DimTotals> = OnceLock::new();
    TOTALS.get_or_init(|| {
        let r = Registry::global();
        DimTotals {
            total: r.counter(
                "pdx_search_dims_considered_all_total",
                "Dimension-values a full scan would read, all deployments.",
                &[],
            ),
            scanned: r.counter(
                "pdx_search_dims_scanned_all_total",
                "Dimension-values actually read, all deployments.",
                &[],
            ),
        }
    })
}

/// Fraction of dimension-values pruned across every traced query this
/// process has served, in `[0, 1]`.
pub fn global_pruning_ratio() -> f64 {
    let t = dim_totals();
    let total = t.total.get();
    if total == 0 {
        0.0
    } else {
        total.saturating_sub(t.scanned.get()) as f64 / total as f64
    }
}

/// Appends the derived (scrape-time) families the registry can't hold
/// as plain integers — currently the global pruning-effectiveness
/// ratio.
pub fn render_derived(out: &mut String) {
    expo::push_gauge_f64(
        out,
        "pdx_search_pruning_ratio",
        "Fraction of dimension-values pruned across traced queries (dims_pruned / dims_total).",
        &[],
        global_pruning_ratio(),
    );
}

/// Publishes one query's trace: merges it into the thread-local
/// capture slot (if a [`pdx_obs::trace::capture`] is active) and bumps
/// the per-deployment registry families.
pub fn publish_trace(t: &QueryTrace) {
    trace::record(t);
    let deployment = if t.deployment.is_empty() {
        "unknown"
    } else {
        t.deployment
    };
    let m = search_metrics(deployment);
    m.queries.inc();
    m.latency_us.record(t.total_ns / 1_000);
    m.blocks.add(t.blocks_visited);
    m.vectors.add(t.vectors_visited);
    m.dims_total.add(t.dims_total);
    m.dims_scanned.add(t.dims_scanned);
    m.rerank.add(t.rerank_candidates);
    m.cache_hits.add(t.cache_hits);
    m.cache_misses.add(t.cache_misses);
    let totals = dim_totals();
    totals.total.add(t.dims_total);
    totals.scanned.add(t.dims_scanned);
}

/// Registry handles for the block-cache family (process-global: every
/// cache in the process reports into the same counters).
pub(crate) struct CacheMetrics {
    pub hits: Arc<Counter>,
    pub misses: Arc<Counter>,
    pub evictions: Arc<Counter>,
    pub budget_bytes: Arc<Gauge>,
    pub resident_bytes: Arc<Gauge>,
}

pub(crate) fn cache_metrics() -> &'static CacheMetrics {
    static METRICS: OnceLock<CacheMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = Registry::global();
        CacheMetrics {
            hits: r.counter("pdx_cache_hits_total", "Block-cache hits.", &[]),
            misses: r.counter("pdx_cache_misses_total", "Block-cache misses.", &[]),
            evictions: r.counter("pdx_cache_evictions_total", "Block-cache evictions.", &[]),
            budget_bytes: r.gauge(
                "pdx_cache_budget_bytes",
                "Configured block-cache byte budget (last cache constructed).",
                &[],
            ),
            resident_bytes: r.gauge(
                "pdx_cache_resident_bytes",
                "Bytes currently resident in block caches.",
                &[],
            ),
        }
    })
}

/// Registry handles for the payload arenas of PDX blocks
/// ([`crate::layout::PayloadWriter`]), process-global.
pub(crate) struct PayloadMetrics {
    pub bytes: Arc<Gauge>,
    pub advised: Arc<Counter>,
}

pub(crate) fn payload_metrics() -> &'static PayloadMetrics {
    static METRICS: OnceLock<PayloadMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = Registry::global();
        PayloadMetrics {
            bytes: r.gauge(
                "pdx_payload_bytes",
                "Bytes of live PDX payload arenas.",
                &[],
            ),
            advised: r.counter(
                "pdx_payload_advised_bytes_total",
                "Payload arena bytes advised MADV_HUGEPAGE (whole 2 MiB pages).",
                &[],
            ),
        }
    })
}

/// `(live arena bytes, bytes ever advised MADV_HUGEPAGE)` of this
/// process's payload arenas.
pub fn payload_bytes() -> (u64, u64) {
    let m = payload_metrics();
    (m.bytes.get(), m.advised.get())
}

/// Pre-registers the search family for `deployment` plus the cache,
/// payload and derived-ratio families, so a scrape taken before the
/// first traced query still exposes them (at zero).
pub fn touch(deployment: &'static str) {
    let _ = search_metrics(deployment);
    let _ = dim_totals();
    let _ = cache_metrics();
    let _ = payload_metrics();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_feeds_registry_and_capture() {
        let t = QueryTrace {
            total_ns: 5_000,
            dims_total: 100,
            dims_scanned: 30,
            blocks_visited: 2,
            deployment: "test-deployment",
            ..QueryTrace::default()
        };
        let ((), captured) = trace::capture(|| publish_trace(&t));
        assert_eq!(captured.blocks_visited, 2);
        assert_eq!(captured.deployment, "test-deployment");
        let m = search_metrics("test-deployment");
        assert!(m.queries.get() >= 1);
        assert!(m.dims_total.get() >= 100);
        // The derived global ratio reflects the aggregate counters.
        assert!(global_pruning_ratio() > 0.0);
        let mut out = String::new();
        render_derived(&mut out);
        assert!(out.contains("pdx_search_pruning_ratio"), "{out}");
    }
}
