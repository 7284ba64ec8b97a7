//! Spans recorded from the benchmark's own code around each call into a
//! layer of the stack. Spans stay in memory and are written out once, when
//! the run ends; the per-layer metrics are sums over them.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed call into a layer.
#[derive(Debug, Clone)]
struct Span {
    /// Layer boundary name, e.g. `synthesis.search`.
    name: &'static str,
    /// Offset of the start from the tracer's origin.
    start: Duration,
    /// Offset of the end (equal to `start` while the span is open).
    end: Duration,
    /// Index of the span that caused this one.
    parent: Option<usize>,
    /// The program, request or pulse the span belongs to.
    request: u64,
}

/// In-memory span recorder with an implicit parent stack.
#[derive(Debug)]
pub(crate) struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub(crate) fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span under the innermost open span.
    pub(crate) fn begin(&mut self, name: &'static str, request: u64) -> usize {
        let now = self.origin.elapsed();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
            request,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `id`, which must be the innermost open span.
    pub(crate) fn end(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end = self.origin.elapsed();
    }

    /// Records a span that has already ended, with no parent: for work
    /// that overlaps other spans, such as requests in flight together.
    pub(crate) fn record(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        self.spans.push(Span {
            name,
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
            parent: None,
            request,
        });
    }

    /// Runs `f` inside a span named `name`.
    pub(crate) fn span<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, request);
        let out = f();
        self.end(id);
        out
    }

    /// Duration of span `id` in seconds.
    pub(crate) fn seconds(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        (s.end - s.start).as_secs_f64()
    }

    /// Summed duration, in seconds, of every span named `name`.
    pub(crate) fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64())
            .sum()
    }

    /// Writes every span as one JSON object per line.
    pub(crate) fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"parent\":{parent},\"request\":{}}}",
                s.name,
                s.start.as_micros(),
                s.end.as_micros(),
                s.request
            )?;
        }
        out.flush()
    }
}
