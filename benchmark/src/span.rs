//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans are kept in memory and written out when the run ends. A span's
//! parent is the tightest span of the same operation whose interval
//! contains it — resolved afterwards, so spans recorded on worker and
//! server threads need no context passed through the program under test.
//! A layer's self time is its span minus the part its children cover.

use hnsw_flash::engine::{AnnIndex, SearchRequest, SearchResponse};
use hnsw_flash::graphs::GraphLayers;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// The operation (one build, one query, one insert) the call served.
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span with its resolved parent and self time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resolved {
    pub span: Span,
    /// Index of the parent span in the resolved list.
    pub parent: Option<usize>,
    pub self_ns: u64,
}

/// The in-memory span sink. Disabled recorders run the wrapped call and
/// record nothing, so end-to-end runs pay no tracing cost.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    op: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Arc<Self> {
        Arc::new(Self {
            enabled,
            epoch: Instant::now(),
            op: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        })
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts the next operation; spans recorded on any thread until the
    /// following call belong to it. Traced runs drive one operation at a
    /// time, which is what makes a process-wide current operation sound.
    pub fn next_op(&self) -> u64 {
        self.op.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Runs `f` under a span named `name` in the current operation.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let op = self.op.load(Ordering::SeqCst);
        self.spans
            .lock()
            .expect("span sink poisoned by a panicking recorder thread")
            .push(Span {
                name,
                op,
                start_ns,
                end_ns,
            });
        out
    }

    /// Number of spans recorded so far (a position for [`Self::since`]).
    pub fn mark(&self) -> usize {
        self.spans
            .lock()
            .expect("span sink poisoned by a panicking recorder thread")
            .len()
    }

    /// Resolved copies of the spans recorded since `mark`.
    pub fn since(&self, mark: usize) -> Vec<Resolved> {
        let spans = self
            .spans
            .lock()
            .expect("span sink poisoned by a panicking recorder thread");
        resolve(&spans[mark..])
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, r) in self.since(0).iter().enumerate() {
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"self_ns\":{}}}",
                r.span.name, r.span.op, r.span.start_ns, r.span.end_ns, r.self_ns
            )?;
        }
        Ok(())
    }
}

/// Resolves parents and self times. `spans` are in completion order, so a
/// child precedes its parent; among equal intervals the later one is the
/// parent.
pub fn resolve(spans: &[Span]) -> Vec<Resolved> {
    let mut by_op: std::collections::BTreeMap<u64, Vec<usize>> = std::collections::BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        by_op.entry(s.op).or_default().push(i);
    }
    let mut parents: Vec<Option<usize>> = vec![None; spans.len()];
    for group in by_op.values() {
        for &i in group {
            let s = &spans[i];
            parents[i] = group
                .iter()
                .copied()
                .filter(|&c| {
                    let p = &spans[c];
                    c != i
                        && p.start_ns <= s.start_ns
                        && p.end_ns >= s.end_ns
                        && (p.duration_ns() > s.duration_ns() || c > i)
                })
                .min_by_key(|&c| (spans[c].duration_ns(), c));
        }
    }
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for (i, parent) in parents.iter().enumerate() {
        if let Some(p) = parent {
            children[*p].push((spans[i].start_ns, spans[i].end_ns));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, &span)| Resolved {
            span,
            parent: parents[i],
            self_ns: span.duration_ns() - covered(&mut children[i]),
        })
        .collect()
}

/// Length of the union of `intervals` (overlapping siblings count once).
fn covered(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = 0;
    for &(start, end) in intervals.iter() {
        let from = start.max(reach);
        if end > from {
            total += end - from;
            reach = end;
        }
    }
    total
}

/// Durations in µs of the spans named `name`.
pub fn durations_us(spans: &[Resolved], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|r| r.span.name == name)
        .map(|r| r.span.duration_ns() as f64 / 1e3)
        .collect()
}

/// Self times in µs of the spans named `name`.
pub fn self_times_us(spans: &[Resolved], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|r| r.span.name == name)
        .map(|r| r.self_ns as f64 / 1e3)
        .collect()
}

/// Any index with a span around each `search`: the layer boundary the
/// benchmark can reach from outside.
pub struct Traced {
    name: &'static str,
    inner: Arc<dyn AnnIndex>,
    rec: Arc<Recorder>,
}

impl Traced {
    pub fn wrap(
        name: &'static str,
        inner: Arc<dyn AnnIndex>,
        rec: &Arc<Recorder>,
    ) -> Arc<dyn AnnIndex> {
        Arc::new(Self {
            name,
            inner,
            rec: Arc::clone(rec),
        })
    }
}

impl AnnIndex for Traced {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn search(&self, request: &SearchRequest) -> SearchResponse {
        self.rec.span(self.name, || self.inner.search(request))
    }

    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }

    fn export_graph(&self) -> Option<GraphLayers> {
        self.inner.export_graph()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, op: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nested_spans_subtract_their_children() {
        // Completion order: innermost first.
        let r = resolve(&[
            span("leaf", 1, 20, 60),
            span("shard", 1, 10, 80),
            span("cache", 1, 0, 100),
        ]);
        assert_eq!(r[0].parent, Some(1));
        assert_eq!(r[1].parent, Some(2));
        assert_eq!(r[2].parent, None);
        assert_eq!(r[0].self_ns, 40);
        assert_eq!(r[1].self_ns, 30);
        assert_eq!(r[2].self_ns, 30);
    }

    #[test]
    fn overlapping_siblings_are_covered_once() {
        // Two shard searches in parallel: 10..30 and 15..35 cover 25 ns.
        let r = resolve(&[
            span("leaf", 1, 10, 30),
            span("leaf", 1, 15, 35),
            span("shard", 1, 5, 40),
        ]);
        assert_eq!(r[0].parent, Some(2));
        assert_eq!(r[1].parent, Some(2));
        assert_eq!(r[2].self_ns, 35 - 25);
        // Overlapping siblings are not each other's parent.
        assert_eq!(r[0].self_ns, 20);
        assert_eq!(r[1].self_ns, 20);
    }

    #[test]
    fn zero_length_and_equal_spans_resolve_without_cycles() {
        let r = resolve(&[
            span("inner", 1, 50, 50),
            span("twin_inner", 1, 0, 100),
            span("twin_outer", 1, 0, 100),
        ]);
        assert_eq!(r[0].self_ns, 0);
        assert_eq!(r[0].parent, Some(1));
        assert_eq!(r[1].parent, Some(2), "the later equal span is the parent");
        assert_eq!(r[2].parent, None);
        assert_eq!(r[1].self_ns, 100);
        assert_eq!(r[2].self_ns, 0);
    }

    #[test]
    fn operations_do_not_adopt_each_other() {
        let r = resolve(&[span("a", 1, 10, 20), span("b", 2, 0, 100)]);
        assert_eq!(r[0].parent, None);
        assert_eq!(r[1].self_ns, 100);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::new(false);
        assert_eq!(rec.span("x", || 7), 7);
        assert_eq!(rec.mark(), 0);
        let rec = Recorder::new(true);
        rec.next_op();
        rec.span("outer", || rec.span("inner", || ()));
        let spans = rec.since(0);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].span.name, "inner");
        assert_eq!(spans[0].parent, Some(1));
        let mut out = Vec::new();
        rec.write_jsonl(&mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 2);
    }
}
