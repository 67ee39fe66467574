//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span records a name, start and end (nanoseconds since the tracer
//! was created), the span open around it, and — for service calls — the
//! request id. Spans stay in memory and are written once, at exit, to
//! `<out>/<workload>.spans.json`. A disabled tracer records nothing.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `serve.step`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request id, for service calls that concern one request.
    pub request: Option<u64>,
}

/// Span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing (untraced runs).
    pub fn off() -> Self {
        Self {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Self {
            enabled: true,
            ..Self::off()
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens an enclosing span (a repetition, a pass); later spans
    /// record it as their parent until [`close`](Self::close).
    pub fn open(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let now = self.ns(Instant::now());
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request: None,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = self.ns(Instant::now());
        }
    }

    /// Records a finished call under the innermost open span.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        request: Option<u64>,
    ) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied(),
            request,
        };
        self.spans.push(span);
    }

    /// Count and summed duration (ns) of the spans named `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(n, ns), s| (n + 1, ns + (s.end_ns - s.start_ns)))
    }

    /// The spans as JSON: `{"spans": [{"name", "start_ns", "end_ns",
    /// "parent", "request"}, ...]}`, `parent` being an index into the
    /// same array.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 * self.spans.len() + 16);
        out.push_str("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let opt = |v: Option<u64>| v.map_or_else(|| "null".to_owned(), |v| v.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.request)
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_the_open_span() {
        let mut t = Tracer::on();
        t.open("rep");
        let a = Instant::now();
        t.record("serve.submit", a, Instant::now(), Some(7));
        t.close();
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].request, Some(7));
        assert_eq!(t.total("serve.submit").0, 1);
        let doc: serde_json::Value = serde_json::from_str(&t.to_json()).unwrap();
        assert_eq!(
            doc.get("spans").and_then(|s| s.as_array()).map(Vec::len),
            Some(2)
        );
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        t.open("rep");
        t.record("x", Instant::now(), Instant::now(), None);
        t.close();
        assert!(t.spans.is_empty());
    }
}
