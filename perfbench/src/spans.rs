//! In-memory span recorder for the traced run.
//!
//! A span is a named interval with the span that caused it and the
//! request (replay or session) it belongs to. Spans are only appended
//! while the benchmark runs; they are written out once, at the end.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Id of a span: its index in the recorder.
pub type SpanId = usize;

/// One recorded interval, in nanoseconds since the recorder was made.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `trace.walk`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time (equal to the start until the span is closed).
    pub end_ns: u64,
    /// The span this one ran inside of, on the same thread.
    pub parent: Option<SpanId>,
    /// The replay or session the span belongs to.
    pub request: u64,
}

impl Span {
    /// Wall time covered by the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Thread-safe span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the recorder was made.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished interval.
    pub fn record(
        &self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        request: u64,
    ) -> SpanId {
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        spans.len() - 1
    }

    /// Opens a span that [`Tracer::close`] ends.
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let now = self.now();
        self.record(name, now, now, parent, request)
    }

    /// Ends a span opened with [`Tracer::open`].
    pub fn close(&self, id: SpanId) {
        let now = self.now();
        self.spans.lock().expect("span recorder poisoned")[id].end_ns = now;
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.record(name, start, end, parent, request);
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span recorder poisoned").clone()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered.min(span.duration_ns())
        })
        .collect()
}

/// Per request: the summed self time (ns) of the spans called `name`.
pub fn self_time_by_request(spans: &[Span], selfs: &[u64], name: &str) -> BTreeMap<u64, u64> {
    let mut out = BTreeMap::new();
    for (span, &own) in spans.iter().zip(selfs) {
        if span.name == name {
            *out.entry(span.request).or_insert(0) += own;
        }
    }
    out
}

/// Writes one JSON object per span (with its self time) to `path`, and
/// returns a per-name summary table: count, total and self milliseconds.
///
/// # Errors
///
/// Propagates file creation and write errors.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<String> {
    let selfs = self_times(spans);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut summary: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for (id, (span, own)) in spans.iter().zip(&selfs).enumerate() {
        let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
             \"request\":{},\"self_ns\":{own}}}",
            span.name, span.start_ns, span.end_ns, span.request
        )?;
        let row = summary.entry(span.name).or_default();
        row.0 += 1;
        row.1 += span.duration_ns();
        row.2 += own;
    }
    out.flush()?;
    let mut table = format!(
        "{:<24} {:>9} {:>12} {:>12}\n",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, (count, total, own)) in summary {
        table.push_str(&format!(
            "{name:<24} {count:>9} {:>12.3} {:>12.3}\n",
            total as f64 / 1e6,
            own as f64 / 1e6
        ));
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 7,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            // Overlaps `a`: the shared 20..30 is counted once.
            span("b", 20, 50, Some(0)),
            // Sticks out of its parent: only 90..100 is covered.
            span("c", 90, 120, Some(0)),
            span("a.child", 12, 18, Some(1)),
            span("orphan", 0, 40, None),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![100 - 40 - 10, 20 - 6, 30, 30, 6, 40]);
        let by_request = self_time_by_request(&spans, &selfs, "a");
        assert_eq!(by_request.get(&7), Some(&14));
    }

    #[test]
    fn recorder_nests_and_times() {
        let tracer = Tracer::new();
        let root = tracer.open("root", None, 1);
        let got = tracer.time("leaf", Some(root), 1, || 41 + 1);
        tracer.close(root);
        assert_eq!(got, 42);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(root));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let selfs = self_times(&spans);
        assert_eq!(selfs[0] + selfs[1], spans[0].duration_ns());
    }
}
