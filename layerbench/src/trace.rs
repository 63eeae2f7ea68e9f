//! In-memory spans for the traced run.
//!
//! The harness opens a span around each public call it makes into a layer,
//! named after the layer (`cq.search`, `linalg.lp`, …). A span records its
//! start, end, parent and the id of the pair it serves; all spans of one
//! pair share that id. Spans stay in memory until the run ends, when
//! [`Trace::to_json_lines`] renders them for the trace file.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
struct Span {
    /// The layer call, `crate.operation`.
    name: &'static str,
    /// The pair this call served.
    pair: usize,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
    /// Nanoseconds since the trace began.
    start_ns: u64,
    /// Nanoseconds since the trace began.
    end_ns: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over a trace.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    /// Spans with this name.
    pub count: usize,
    /// Summed duration, in milliseconds.
    pub ms: f64,
    /// Summed self time (duration minus the time child spans cover), in
    /// milliseconds.
    pub self_ms: f64,
}

/// A span recorder.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Trace {
    /// An empty trace whose clock starts now.
    pub fn new() -> Trace {
        Trace { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    /// Runs `call` inside a span named `name` for pair `pair`; spans opened
    /// by `call` become its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        pair: usize,
        call: impl FnOnce(&mut Trace) -> T,
    ) -> T {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, pair, parent, start_ns, end_ns: start_ns });
        self.open.push(id);
        let out = call(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Totals per span name, with self time.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.ns();
            }
        }
        let mut totals: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let entry = totals.entry(span.name).or_default();
            entry.count += 1;
            entry.ms += span.ns() as f64 * 1e-6;
            entry.self_ms += (span.ns() - children) as f64 * 1e-6;
        }
        totals
    }

    /// Renders every span as one JSON object per line.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"pair\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.pair, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut trace = Trace::new();
        trace.span("outer", 7, |t| {
            t.span("inner", 7, |_| std::thread::sleep(std::time::Duration::from_millis(2)));
        });
        let totals = trace.totals();
        let (outer, inner) = (totals["outer"], totals["inner"]);
        assert!(inner.ms >= 2.0);
        assert!(outer.ms >= inner.ms);
        assert!((outer.self_ms - (outer.ms - inner.ms)).abs() < 1e-9);
        assert!(trace.to_json_lines().contains("\"parent\":0"));
    }
}
