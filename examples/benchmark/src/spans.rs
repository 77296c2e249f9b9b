//! In-memory span recorder for the traced pass.
//!
//! The traced pass runs on one driver thread and wraps every call into a
//! layer in a span `{name, start_ns, end_ns, parent, trace_id}`; spans
//! stay in memory and are written to `trace.json` when the benchmark
//! ends. A layer's *self time* is its span minus the part its child
//! spans cover.
//!
//! Every traced pipeline gets a recorder of its own: the readers below
//! sum over the whole recorder by span name, and pipelines share names
//! (`fold.store` is in both `trace.ingest` and `trace.recover`).
//! [`Tracer::close`] holds a recorder to the roots its pipeline opened.

use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Groups the spans of one unit of work: the chunk ordinal for feed
    /// spans, `(slot << 32) | seq` for the spans of one sealed segment.
    pub trace_id: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, trace_id: u64) -> usize {
        let now = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            trace_id,
        });
        self.open.push(id);
        id
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a leaf span.
    pub fn time<T>(&mut self, name: &'static str, trace_id: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, trace_id);
        let out = f();
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Ends the recording: every span is closed and the top-level spans
    /// are exactly `roots`, so nothing but this pipeline was recorded
    /// here and its totals are its own.
    pub fn close(self, roots: &[&str]) -> Result<Tracer, String> {
        let found: Vec<&str> = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.name)
            .collect();
        if !self.open.is_empty() || found != roots {
            return Err(format!(
                "recorder of {roots:?} holds roots {found:?} and {} open spans",
                self.open.len()
            ));
        }
        Ok(self)
    }

    /// Seconds covered by the direct children of `id`.
    fn children_ns(&self, id: usize) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::ns)
            .sum()
    }

    /// Total seconds of every span called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .sum();
        ns as f64 / 1e9
    }

    /// Total self time (span minus its children) of every span called
    /// `name`, in seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(id, s)| s.ns() - self.children_ns(id))
            .sum();
        ns as f64 / 1e9
    }

    /// `(span seconds, seconds its direct children cover)` of the first
    /// span called `name`: a pipeline root's wall-clock and how much of
    /// it the top-level spans attribute.
    pub fn root_coverage(&self, name: &str) -> (f64, f64) {
        match self.spans.iter().position(|s| s.name == name) {
            Some(id) => (
                self.spans[id].ns() as f64 / 1e9,
                self.children_ns(id) as f64 / 1e9,
            ),
            None => (0.0, 0.0),
        }
    }

    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Sum over the whole tree of self times; equals the summed roots
    /// exactly (the start-up self-check holds the recorder to that).
    pub fn self_ns_sum(&self) -> u64 {
        (0..self.spans.len())
            .map(|id| self.spans[id].ns() - self.children_ns(id))
            .sum()
    }

    pub fn roots_ns_sum(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::ns)
            .sum()
    }

    /// The spans as a JSON array, in start order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = match s.parent {
                Some(p) => p.to_string(),
                None => "null".to_string(),
            };
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"trace_id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.trace_id
            ));
        }
        out.push_str("\n]");
        out
    }
}
