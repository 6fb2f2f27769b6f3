//! Spans recorded around the benchmark's own calls into each layer.
//!
//! A span has a name `<layer>.<call>`, a start and an end, the span that
//! caused it and the request it belongs to.  Spans stay in memory while the
//! run measures and are written out as JSON lines when it ends.  Nothing
//! inside the program is instrumented: a layer's span covers one call from
//! the benchmark into that layer's public API.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Identity of a recorded span; `SpanId::NONE` stands for "not recorded".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(u64);

impl SpanId {
    pub const NONE: SpanId = SpanId(u64::MAX);
}

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub request: u64,
    pub name: &'static str,
    /// Nanoseconds since the run's origin.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span recorder.  Recording is switched per request, so a
/// traced run can leave every other request untraced and measure what the
/// tracing itself costs.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    /// High bits of every span id this tracer hands out, so the spans of
    /// several threads merge without clashes.
    thread: u64,
    enabled: bool,
    spans: Vec<Span>,
    open: HashMap<SpanId, usize>,
}

impl Tracer {
    pub fn new(origin: Instant, thread: u64) -> Tracer {
        Tracer {
            origin,
            thread,
            enabled: false,
            spans: Vec::new(),
            open: HashMap::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let id = SpanId((self.thread << 48) | self.spans.len() as u64);
        let start_ns = self.now_ns();
        self.open.insert(id, self.spans.len());
        self.spans.push(Span {
            id,
            parent: (parent != SpanId::NONE).then_some(parent),
            request,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    pub fn end(&mut self, id: SpanId) {
        if let Some(idx) = self.open.remove(&id) {
            self.spans[idx].end_ns = self.now_ns();
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Each layer's self time in nanoseconds: the summed durations of its spans
/// minus the parts of each span that its child spans cover.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: HashMap<SpanId, Vec<(u64, u64)>> = HashMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    let mut by_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
    for span in spans {
        let covered = children
            .get(&span.id)
            .map_or(0, |kids| covered_ns(span.start_ns, span.end_ns, kids));
        *by_layer.entry(span.layer()).or_default() += span.duration_ns().saturating_sub(covered);
    }
    by_layer
}

/// Length of the union of `intervals`, clipped to `[start, end)`.
fn covered_ns(start: u64, end: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Durations in milliseconds of every span called `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect()
}

/// Write the spans as JSON lines, one span per line.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.0.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id.0, s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id: SpanId(id),
            parent: parent.map(SpanId),
            request: 0,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, "loadgen.commit", 0, 100),
            // overlapping children cover [10, 40) once, not twice
            span(2, Some(1), "engine.apply", 10, 30),
            span(3, Some(1), "net.feed_recv", 20, 40),
            // a child running past its parent counts only inside it
            span(4, Some(1), "serve.feed_recv", 90, 120),
            // a grandchild is charged to its own parent, not the root
            span(5, Some(2), "net.spawn", 12, 18),
        ];
        let self_time = self_time_by_layer(&spans);
        assert_eq!(self_time["loadgen"], 100 - 30 - 10);
        assert_eq!(self_time["engine"], 20 - 6);
        assert_eq!(self_time["net"], 20 + 6);
        assert_eq!(self_time["serve"], 30);
    }

    #[test]
    fn a_span_without_children_is_all_self_time() {
        let spans = vec![span(7, None, "resolve.resolve_relation", 5, 25)];
        assert_eq!(self_time_by_layer(&spans)["resolve"], 20);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(Instant::now(), 1);
        let id = tracer.begin("engine.apply", SpanId::NONE, 0);
        assert_eq!(id, SpanId::NONE);
        tracer.end(id);
        tracer.set_enabled(true);
        let root = tracer.begin("loadgen.commit", SpanId::NONE, 3);
        let child = tracer.begin("engine.apply", root, 3);
        tracer.end(child);
        tracer.end(root);
        let spans = tracer.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(root));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(spans[0].id.0 >> 48, 1);
    }
}
