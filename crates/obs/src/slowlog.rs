//! The sampling slow-query log.
//!
//! Every observed query is tested against two independent gates: a
//! latency threshold (every query at or above it is logged) and a
//! 1-in-N sampler (a steady trickle of normal queries for baseline
//! comparison). Sampled lines are emitted as single-line JSON so they
//! can be grepped and post-processed without a parser library.

use crate::trace::QueryTrace;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Escapes a string for inclusion in a JSON string literal.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A latency-thresholded, 1-in-N-sampled JSON-lines query log.
pub struct SlowQueryLog {
    threshold_us: u64,
    sample_every: u64,
    seen: AtomicU64,
    logged: AtomicU64,
    sink: Mutex<Box<dyn Write + Send>>,
}

impl std::fmt::Debug for SlowQueryLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlowQueryLog")
            .field("threshold_us", &self.threshold_us)
            .field("sample_every", &self.sample_every)
            .field("seen", &self.seen)
            .field("logged", &self.logged)
            .finish_non_exhaustive()
    }
}

impl SlowQueryLog {
    /// Creates a log writing to stderr. `threshold_us = 0` disables
    /// the latency gate; `sample_every = 0` disables sampling (only
    /// slow queries are logged).
    pub fn new(threshold_us: u64, sample_every: u64) -> Self {
        Self::with_sink(threshold_us, sample_every, Box::new(io::stderr()))
    }

    /// Creates a log writing to an arbitrary sink (tests, files).
    pub fn with_sink(threshold_us: u64, sample_every: u64, sink: Box<dyn Write + Send>) -> Self {
        Self {
            threshold_us,
            sample_every,
            seen: AtomicU64::new(0),
            logged: AtomicU64::new(0),
            sink: Mutex::new(sink),
        }
    }

    /// Queries observed so far.
    pub fn seen(&self) -> u64 {
        self.seen.load(Ordering::Relaxed)
    }

    /// Lines emitted so far.
    pub fn logged(&self) -> u64 {
        self.logged.load(Ordering::Relaxed)
    }

    /// Observes one completed query; returns whether a line was
    /// emitted. `extra` appends caller context (op kind, k, shard) as
    /// additional JSON string fields.
    pub fn observe(&self, trace: &QueryTrace, extra: &[(&str, String)]) -> bool {
        let n = self.seen.fetch_add(1, Ordering::Relaxed);
        let total_us = trace.total_ns / 1_000;
        let slow = self.threshold_us > 0 && total_us >= self.threshold_us;
        let sampled = self.sample_every > 0 && n.is_multiple_of(self.sample_every);
        if !slow && !sampled {
            return false;
        }
        let mut line = String::with_capacity(256);
        line.push('{');
        line.push_str(&format!("\"slow\":{slow}"));
        line.push_str(&format!(",\"total_us\":{total_us}"));
        line.push_str(&format!(",\"preprocess_ns\":{}", trace.preprocess_ns));
        line.push_str(&format!(",\"find_buckets_ns\":{}", trace.find_buckets_ns));
        line.push_str(&format!(",\"bounds_ns\":{}", trace.bounds_ns));
        line.push_str(&format!(",\"distance_ns\":{}", trace.distance_ns));
        line.push_str(&format!(",\"blocks_visited\":{}", trace.blocks_visited));
        line.push_str(&format!(",\"vectors_visited\":{}", trace.vectors_visited));
        line.push_str(&format!(",\"dims_total\":{}", trace.dims_total));
        line.push_str(&format!(",\"dims_scanned\":{}", trace.dims_scanned));
        line.push_str(&format!(",\"pruning_ratio\":{:.4}", trace.pruning_ratio()));
        line.push_str(&format!(
            ",\"rerank_candidates\":{}",
            trace.rerank_candidates
        ));
        line.push_str(&format!(",\"cache_hits\":{}", trace.cache_hits));
        line.push_str(&format!(",\"cache_misses\":{}", trace.cache_misses));
        line.push_str(&format!(
            ",\"deployment\":\"{}\"",
            escape_json(trace.deployment)
        ));
        line.push_str(&format!(
            ",\"kernel\":\"{}\"",
            escape_json(trace.kernel_isa)
        ));
        for (k, v) in extra {
            line.push_str(&format!(",\"{}\":\"{}\"", escape_json(k), escape_json(v)));
        }
        line.push_str("}\n");
        let mut sink = self.sink.lock().unwrap();
        // A broken sink must never take the query path down with it.
        let _ = sink.write_all(line.as_bytes());
        let _ = sink.flush();
        self.logged.fetch_add(1, Ordering::Relaxed);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn trace_us(us: u64) -> QueryTrace {
        QueryTrace {
            total_ns: us * 1_000,
            deployment: "flat-pdx",
            kernel_isa: "scalar",
            ..QueryTrace::default()
        }
    }

    #[test]
    fn slow_queries_always_log() {
        let buf = SharedBuf::default();
        let log = SlowQueryLog::with_sink(1_000, 0, Box::new(buf.clone()));
        assert!(!log.observe(&trace_us(999), &[]));
        assert!(log.observe(&trace_us(1_000), &[]));
        assert_eq!(log.logged(), 1);
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("\"slow\":true"), "{text}");
        assert!(text.contains("\"deployment\":\"flat-pdx\""), "{text}");
    }

    #[test]
    fn sampler_logs_one_in_n() {
        let buf = SharedBuf::default();
        let log = SlowQueryLog::with_sink(0, 4, Box::new(buf.clone()));
        let logged = (0..12).filter(|_| log.observe(&trace_us(1), &[])).count();
        assert_eq!(logged, 3);
        assert_eq!(log.seen(), 12);
    }

    #[test]
    fn extra_fields_are_escaped() {
        let buf = SharedBuf::default();
        let log = SlowQueryLog::with_sink(1, 0, Box::new(buf.clone()));
        log.observe(&trace_us(5), &[("op", "he said \"hi\"\n".to_string())]);
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert!(text.contains("\"op\":\"he said \\\"hi\\\"\\n\""), "{text}");
        // Still a single line despite the embedded newline.
        assert_eq!(text.lines().count(), 1);
    }
}
