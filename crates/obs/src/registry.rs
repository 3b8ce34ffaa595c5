//! Metric registries: the process-global one and private ones.
//!
//! Metrics are registered by static name + label set and handed back
//! as `Arc` handles; recording through a handle is a single relaxed
//! atomic op, so instrumented code pays near-nothing when nobody
//! scrapes. Registration takes a short mutex — callers are expected
//! to register once (at startup or through a `OnceLock`) and record
//! through the cached handle.
//!
//! [`Registry::global`] is process-wide: the caches, collections and
//! search families of one process share it, and their counters merge.
//! A component whose counts must stay its own constructs a private
//! [`Registry`] and renders it beside the global one — a `pdx-serve`
//! server does, so two servers in one process keep separate `Stats`.

use crate::expo;
use crate::hist::Histogram;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing counter (relaxed atomics).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter at zero (detached from any registry).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable instantaneous value (relaxed atomics).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Creates a gauge at zero (detached from any registry).
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`, saturating at zero.
    pub fn sub(&self, n: u64) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            });
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

#[derive(Debug)]
struct Family {
    help: &'static str,
    kind: &'static str,
    /// Label-set → handle; labels are stored key-sorted so the same
    /// set registered in any order resolves to the same metric.
    samples: Vec<(Vec<(String, String)>, Metric)>,
}

/// A collection of metric families, rendered together.
///
/// Use [`Registry::global`] for the process-wide instance the search,
/// cache and store families report into; a private instance
/// ([`Registry::new`]) holds counts that belong to one owner, such as
/// one server's request counters.
#[derive(Debug, Default)]
pub struct Registry {
    families: Mutex<BTreeMap<&'static str, Family>>,
}

fn canonical_labels(labels: &[(&'static str, &str)]) -> Vec<(String, String)> {
    let mut owned: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| {
            assert!(expo::valid_label_name(k), "invalid label name {k:?}");
            assert!(*k != "le", "the label name 'le' is reserved for histograms");
            (k.to_string(), v.to_string())
        })
        .collect();
    owned.sort();
    owned
}

impl Registry {
    /// Creates an empty, private registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-global registry.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    fn get_or_register(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        assert!(
            expo::valid_metric_name(name),
            "invalid metric name {name:?}"
        );
        let labels = canonical_labels(labels);
        let mut families = self.families.lock().unwrap();
        let family = families.entry(name).or_insert_with(|| Family {
            help,
            kind: "",
            samples: Vec::new(),
        });
        if let Some((_, metric)) = family.samples.iter().find(|(l, _)| *l == labels) {
            return metric.clone();
        }
        let metric = make();
        assert!(
            family.kind.is_empty() || family.kind == metric.kind(),
            "metric {name:?} registered as both {} and {}",
            family.kind,
            metric.kind()
        );
        family.kind = metric.kind();
        family.samples.push((labels, metric.clone()));
        metric
    }

    /// Gets or registers a counter under `name` with the given label
    /// set. Panics if `name` is already registered with another kind.
    pub fn counter(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
    ) -> Arc<Counter> {
        match self.get_or_register(name, help, labels, || {
            Metric::Counter(Arc::new(Counter::new()))
        }) {
            Metric::Counter(c) => c,
            other => panic!("metric {name:?} is a {}, not a counter", other.kind()),
        }
    }

    /// Gets or registers a gauge under `name` with the given label set.
    pub fn gauge(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
    ) -> Arc<Gauge> {
        match self.get_or_register(name, help, labels, || Metric::Gauge(Arc::new(Gauge::new()))) {
            Metric::Gauge(g) => g,
            other => panic!("metric {name:?} is a {}, not a gauge", other.kind()),
        }
    }

    /// Gets or registers a histogram under `name` with the given label
    /// set.
    pub fn histogram(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
    ) -> Arc<Histogram> {
        match self.get_or_register(name, help, labels, || {
            Metric::Histogram(Arc::new(Histogram::new()))
        }) {
            Metric::Histogram(h) => h,
            other => panic!("metric {name:?} is a {}, not a histogram", other.kind()),
        }
    }

    /// Renders every registered family in Prometheus text exposition
    /// format 0.0.4, families in name order.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let families = self.families.lock().unwrap();
        for (name, family) in families.iter() {
            expo::push_header(&mut out, name, family.help, family.kind);
            for (labels, metric) in &family.samples {
                match metric {
                    Metric::Counter(c) => expo::push_sample(&mut out, name, labels, c.get()),
                    Metric::Gauge(g) => expo::push_sample(&mut out, name, labels, g.get()),
                    Metric::Histogram(h) => expo::push_histogram(&mut out, name, labels, h),
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn same_name_and_labels_share_a_handle() {
        let r = Registry::new();
        let a = r.counter("t_total", "help", &[("shard", "0")]);
        let b = r.counter("t_total", "help", &[("shard", "0")]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        // Label order doesn't matter for identity.
        let c = r.counter("t2_total", "h", &[("a", "1"), ("b", "2")]);
        let d = r.counter("t2_total", "h", &[("b", "2"), ("a", "1")]);
        c.inc();
        assert_eq!(d.get(), 1);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_conflict_panics() {
        let r = Registry::new();
        let _ = r.counter("conflict_total", "h", &[]);
        let _ = r.gauge("conflict_total", "h", &[]);
    }

    #[test]
    fn gauge_sub_saturates() {
        let g = Gauge::new();
        g.set(2);
        g.sub(5);
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn concurrent_increments_all_land() {
        let r = Registry::new();
        let c = r.counter("contended_total", "h", &[]);
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 80_000);
    }

    #[test]
    fn render_contains_every_family() {
        let r = Registry::new();
        r.counter("a_total", "counts a", &[]).inc();
        r.gauge("b_bytes", "sizes b", &[("kind", "x")]).set(7);
        r.histogram("c_us", "times c", &[]).record(12);
        let text = r.render();
        assert!(text.contains("# TYPE a_total counter"), "{text}");
        assert!(text.contains("a_total 1"), "{text}");
        assert!(text.contains("b_bytes{kind=\"x\"} 7"), "{text}");
        assert!(text.contains("# TYPE c_us histogram"), "{text}");
        assert!(text.contains("c_us_count 1"), "{text}");
    }
}
