//! In-memory spans recorded around calls into each layer, and the
//! per-layer self-time table derived from them.
//!
//! Spans are recorded by the benchmark itself, around public calls; the
//! program under test carries no instrumentation for it. Calls too short
//! to time one by one (state commands, `Device::submit`) are folded into
//! one aggregate span per frame that carries the summed duration and the
//! call count.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `pipeline.draw_color`.
    pub name: &'static str,
    /// Request the span belongs to: a frame index or a job hash.
    pub request: String,
    /// Index of the enclosing span in the same recording.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the recording's origin.
    pub start_ns: u64,
    /// Duration in nanoseconds (summed over calls for an aggregate).
    pub dur_ns: u64,
    /// Calls covered: 1, or the fold count of an aggregate span.
    pub calls: u64,
}

/// A single-threaded span recorder. Spans opened with [`Tracer::begin`]
/// nest: each new span's parent is the innermost open one.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn since_origin(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span starting now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, request: &str) -> usize {
        let start_ns = self.since_origin(Instant::now());
        self.spans.push(Span {
            name,
            request: request.to_owned(),
            parent: self.open.last().copied(),
            start_ns,
            dur_ns: 0,
            calls: 1,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `id` (and any span left open inside it) now.
    pub fn end(&mut self, id: usize) {
        let end_ns = self.since_origin(Instant::now());
        while let Some(top) = self.open.pop() {
            let span = &mut self.spans[top];
            span.dur_ns = end_ns.saturating_sub(span.start_ns);
            if top == id {
                break;
            }
        }
    }

    /// Records an already-timed call as a closed child of the innermost
    /// open span.
    pub fn record(&mut self, name: &'static str, request: &str, start: Instant, dur: Duration) {
        self.aggregate(name, request, start, dur, 1);
    }

    /// Records `calls` short calls that together took `dur`, the first
    /// of which started at `start`, as one closed child span.
    pub fn aggregate(
        &mut self,
        name: &'static str,
        request: &str,
        start: Instant,
        dur: Duration,
        calls: u64,
    ) {
        if calls == 0 {
            return;
        }
        let start_ns = self.since_origin(start);
        self.spans.push(Span {
            name,
            request: request.to_owned(),
            parent: self.open.last().copied(),
            start_ns,
            dur_ns: dur.as_nanos() as u64,
            calls,
        });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Sets the request id of span `first` and every span recorded after
    /// it (for ids learned only once the request is under way).
    pub fn relabel(&mut self, first: usize, request: &str) {
        for s in &mut self.spans[first..] {
            s.request = request.to_owned();
        }
    }

    /// Moves another recording's spans into this one, keeping their
    /// parent links. Both must share an origin.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// One row of the per-layer table.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LayerRow {
    /// Self time: span durations minus the time their children cover.
    pub self_ns: u64,
    /// Calls covered by the layer's spans.
    pub calls: u64,
}

/// Self time and calls per layer name, over the spans whose outermost
/// ancestor is named in `roots` (every span when `roots` is empty). A
/// span's self time is its duration minus its children's durations;
/// children of one span run one after another on the span's thread, so
/// their durations never overlap.
pub fn layers(spans: &[Span], roots: &[&str]) -> BTreeMap<&'static str, LayerRow> {
    let mut child_ns = vec![0u64; spans.len()];
    let mut root = Vec::with_capacity(spans.len());
    for (i, s) in spans.iter().enumerate() {
        // Parents precede their children, so the parent's root is known.
        root.push(s.parent.map_or(i, |p| root[p]));
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns;
        }
    }
    let mut rows: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
    for (i, (s, covered)) in spans.iter().zip(child_ns).enumerate() {
        if !roots.is_empty() && !roots.contains(&spans[root[i]].name) {
            continue;
        }
        let row = rows.entry(s.name).or_default();
        row.self_ns += s.dur_ns.saturating_sub(covered);
        row.calls += s.calls;
    }
    rows
}

/// Renders a per-layer table: self time, calls and share of `region_ns`,
/// hottest first, and names the hottest layer. Layer names contain a dot
/// (`pipeline.draw_color`); dotless names are the benchmark's own root
/// spans (`frame`, `job`), whose self time is time outside every layer.
pub fn layer_table(rows: &BTreeMap<&'static str, LayerRow>, region_ns: u64) -> String {
    let mut sorted: Vec<(&&str, &LayerRow)> = rows.iter().collect();
    sorted.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(b.0)));
    let share = |ns: u64| 100.0 * ns as f64 / region_ns.max(1) as f64;
    let mut out = format!(
        "  {:<30} {:>12} {:>10} {:>8}\n",
        "layer", "self_s", "calls", "share"
    );
    for (name, row) in &sorted {
        let _ = writeln!(
            out,
            "  {:<30} {:>12.6} {:>10} {:>7.2}%",
            name,
            row.self_ns as f64 / 1e9,
            row.calls,
            share(row.self_ns)
        );
    }
    if let Some((name, row)) = sorted.iter().find(|(name, _)| name.contains('.')) {
        let _ = writeln!(
            out,
            "  hottest layer: {name} ({:.1}% of the region)",
            share(row.self_ns)
        );
    }
    out
}

/// Spans as JSON lines: one object per span with its index, parent,
/// name, request, start, duration and call count.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"request\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"calls\":{}}}",
            s.name, s.request, s.start_ns, s.dur_ns, s.calls
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, dur_ns: u64) -> Span {
        Span {
            name,
            request: "0".into(),
            parent,
            start_ns,
            dur_ns,
            calls: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("frame", None, 0, 100),
            span("pipeline.draw", Some(0), 10, 50),
            span("pipeline.inner", Some(1), 20, 30),
            span("pipeline.draw", Some(0), 70, 20),
            Span {
                calls: 7,
                ..span("pipeline.state", Some(0), 60, 5)
            },
            span("frame", None, 200, 40),
            span("setup", None, 300, 10),
            span("pipeline.state", Some(6), 300, 4),
        ];
        let rows = layers(&spans, &["frame"]);
        assert_eq!(
            rows["frame"],
            LayerRow {
                self_ns: 100 - 50 - 20 - 5 + 40,
                calls: 2
            }
        );
        assert_eq!(
            rows["pipeline.draw"],
            LayerRow {
                self_ns: (50 - 30) + 20,
                calls: 2
            }
        );
        assert_eq!(
            rows["pipeline.inner"],
            LayerRow {
                self_ns: 30,
                calls: 1
            }
        );
        assert_eq!(
            rows["pipeline.state"],
            LayerRow {
                self_ns: 5,
                calls: 7
            }
        );
        assert!(!rows.contains_key("setup"));
        let total: u64 = rows.values().map(|r| r.self_ns).sum();
        assert_eq!(total, 140, "self times partition the root spans");

        let all = layers(&spans, &[]);
        assert_eq!(
            all["pipeline.state"],
            LayerRow {
                self_ns: 9,
                calls: 8
            }
        );
        assert_eq!(
            all["setup"],
            LayerRow {
                self_ns: 6,
                calls: 1
            }
        );
    }

    #[test]
    fn tracer_nests_relabels_and_absorbs() {
        let origin = Instant::now();
        let mut t = Tracer::new(origin);
        let root = t.begin("frame", "3");
        let child = t.begin("pipeline.draw", "3");
        t.end(child);
        t.aggregate(
            "pipeline.state",
            "3",
            Instant::now(),
            Duration::from_nanos(9),
            4,
        );
        t.end(root);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[2].parent, Some(0));
        assert_eq!(t.spans()[2].calls, 4);
        assert!(t.spans()[0].dur_ns >= t.spans()[1].dur_ns);

        let mut other = Tracer::new(origin);
        let r = other.begin("job", "");
        other.record("server.poll", "", Instant::now(), Duration::from_nanos(5));
        other.end(r);
        other.relabel(r, "00ab");
        t.absorb(other);
        assert_eq!(t.spans()[4].parent, Some(3));
        assert_eq!(t.spans()[4].request, "00ab");
        assert_eq!(spans_jsonl(t.spans()).lines().count(), 5);
    }

    #[test]
    fn table_names_the_hottest_layer() {
        let spans = vec![
            span("frame", None, 1000, 100),
            span("pipeline.draw_color", Some(0), 1000, 60),
            span("pipeline.clear", Some(0), 1060, 30),
        ];
        let table = layer_table(&layers(&spans, &[]), 100);
        assert!(
            table.contains("hottest layer: pipeline.draw_color (60.0% of the region)"),
            "{table}"
        );
    }
}
