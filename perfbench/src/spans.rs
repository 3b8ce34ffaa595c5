//! In-memory spans around the harness's calls into each layer.
//!
//! The benchmark measures from outside: a span is opened right before
//! a call into a public function and closed right after it. Spans nest
//! (an op span holds the client call and the local call of the same
//! query), stay in memory, and are written out as `trace.json` once the
//! traced pass is over. A layer's self time is its span minus the part
//! its children cover.

use pdx::obs::QueryTrace;
use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Script position (or set-up step number) the span belongs to.
    pub op_id: u64,
    /// What the library reported about the op, when it traced it.
    pub trace: Option<QueryTrace>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a span that just ended after `dur_ns`, under the
    /// innermost open one: for ops the caller timed itself, so that
    /// recording stays outside the timed region.
    pub fn push_ended(
        &mut self,
        name: &'static str,
        op_id: u64,
        dur_ns: u64,
        trace: Option<QueryTrace>,
    ) -> usize {
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: end_ns.saturating_sub(dur_ns),
            end_ns,
            parent: self.open.last().copied(),
            op_id,
            trace,
        });
        self.spans.len() - 1
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, op_id: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op_id,
            trace: None,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) -> u64 {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = end_ns;
        self.spans[id].dur_ns()
    }

    /// Runs `f` inside one span.
    pub fn time<R>(&mut self, name: &'static str, op_id: u64, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, op_id);
        let out = f();
        self.exit(id);
        out
    }

    /// Seconds of the first span called `name`, or 0 when the workload
    /// has no such step.
    pub fn seconds_of(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .find(|s| s.name == name)
            .map_or(0.0, |s| s.dur_ns() as f64 / 1e9)
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Total self time per span name, largest first.
    pub fn self_time_by_name(&self) -> Vec<(&'static str, u64, usize)> {
        let mut by_name: Vec<(&'static str, u64, usize)> = Vec::new();
        for (s, own) in self.spans.iter().zip(self.self_times_ns()) {
            match by_name.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some(entry) => {
                    entry.1 += own;
                    entry.2 += 1;
                }
                None => by_name.push((s.name, own, 1)),
            }
        }
        by_name.sort_by_key(|entry| std::cmp::Reverse(entry.1));
        by_name
    }

    /// The spans as one JSON document (an array of objects).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        let own = self.self_times_ns();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"parent\":{parent},\"op_id\":{}",
                s.name, s.start_ns, s.end_ns, own[i], s.op_id
            )
            .expect("write to a String");
            if let Some(t) = &s.trace {
                write!(
                    out,
                    ",\"trace\":{{\"deployment\":\"{}\",\"total_ns\":{},\"preprocess_ns\":{},\"find_buckets_ns\":{},\"bounds_ns\":{},\"distance_ns\":{},\"blocks_visited\":{},\"vectors_visited\":{},\"dims_total\":{},\"dims_scanned\":{},\"rerank_candidates\":{},\"cache_hits\":{},\"cache_misses\":{}}}",
                    t.deployment, t.total_ns, t.preprocess_ns, t.find_buckets_ns, t.bounds_ns,
                    t.distance_ns, t.blocks_visited, t.vectors_visited, t.dims_total,
                    t.dims_scanned, t.rerank_candidates, t.cache_hits, t.cache_misses
                )
                .expect("write to a String");
            }
            out.push_str(if i + 1 == self.spans.len() {
                "}\n"
            } else {
                "},\n"
            });
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 0,
            trace: None,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let mut rec = Recorder::new();
        rec.spans = vec![
            span("op", 0, 100, None),
            span("remote", 10, 50, Some(0)),
            span("local", 60, 90, Some(0)),
            span("inner", 20, 30, Some(1)),
        ];
        assert_eq!(rec.self_times_ns(), vec![30, 30, 30, 10]);
        let by_name = rec.self_time_by_name();
        assert_eq!(by_name.iter().map(|e| e.1).sum::<u64>(), 100);
    }

    #[test]
    fn enter_and_exit_nest() {
        let mut rec = Recorder::new();
        let outer = rec.enter("outer", 7);
        rec.time("inner", 7, || {});
        rec.exit(outer);
        assert_eq!(rec.spans[1].parent, Some(outer));
        assert_eq!(rec.spans[0].parent, None);
        assert!(rec.spans[0].dur_ns() >= rec.spans[1].dur_ns());
        assert!(rec.to_json().contains("\"name\":\"inner\""));
    }
}
