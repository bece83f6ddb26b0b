//! Benchmark-owned span recorder.
//!
//! The crates under test are timed from outside: the driver opens a
//! span around every call into a layer's public functions. Spans live
//! in one in-memory vector and are written out (chrome trace-event
//! format) when the run ends; `holo_trace`'s global recorder is never
//! enabled.

use holo_runtime::ser::JsonValue;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<operation>`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// The frame (or simulator pass) this span belongs to.
    pub frame: u64,
}

impl Span {
    /// Wall-clock length.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder; a disabled tracer reads no clock and stores nothing.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    /// Every span, in start order.
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[must_use]
pub struct SpanId(Option<usize>);

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        Self {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, frame: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            frame,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Close a span; spans close in the reverse of their opening order.
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans must nest");
        self.spans[id].end_ns = end_ns;
    }

    /// Time one call into a layer.
    pub fn call<R>(&mut self, name: &'static str, frame: u64, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, frame);
        let out = f();
        self.exit(id);
        out
    }

    /// Self time of every span: its length minus the part its children
    /// cover. Errs unless each parent's children lie inside it and
    /// follow one another without overlap — the condition under which
    /// `children + self == parent` holds exactly in integer ns.
    pub fn self_times(&self) -> Result<Vec<u64>, String> {
        self_times(&self.spans)
    }

    /// The spans as a chrome trace-event document (`ts`/`dur` in µs).
    pub fn chrome_trace(&self) -> JsonValue {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                JsonValue::obj([
                    ("name", JsonValue::Str(s.name.to_string())),
                    ("ph", JsonValue::Str("X".to_string())),
                    ("ts", JsonValue::Num(s.start_ns as f64 / 1e3)),
                    ("dur", JsonValue::Num(s.dur_ns() as f64 / 1e3)),
                    ("pid", JsonValue::Num(1.0)),
                    ("tid", JsonValue::Num(1.0)),
                    (
                        "args",
                        JsonValue::obj([
                            ("id", JsonValue::Num(id as f64)),
                            (
                                "parent",
                                s.parent
                                    .map_or(JsonValue::Null, |p| JsonValue::Num(p as f64)),
                            ),
                            ("frame", JsonValue::Num(s.frame as f64)),
                            ("start_ns", JsonValue::Num(s.start_ns as f64)),
                            ("end_ns", JsonValue::Num(s.end_ns as f64)),
                        ]),
                    ),
                ])
            })
            .collect();
        JsonValue::obj([
            ("traceEvents", JsonValue::Arr(events)),
            ("displayTimeUnit", JsonValue::Str("ms".to_string())),
        ])
    }
}

/// See [`Tracer::self_times`].
pub fn self_times(spans: &[Span]) -> Result<Vec<u64>, String> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    // Spans are stored in start order, so a parent's children arrive
    // in start order too: `cursor[p]` is where p's next child may begin.
    let mut cursor: Vec<u64> = spans.iter().map(|s| s.start_ns).collect();
    for (id, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!("span {id} ({}) ends before it starts", s.name));
        }
        let Some(p) = s.parent else { continue };
        if p >= id {
            return Err(format!("span {id} ({}) precedes its parent", s.name));
        }
        if s.start_ns < cursor[p] || s.end_ns > spans[p].end_ns {
            return Err(format!(
                "span {id} ({}) overlaps a sibling or leaves its parent",
                s.name
            ));
        }
        cursor[p] = s.end_ns;
        own[p] -= s.dur_ns();
    }
    Ok(own)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            frame: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_children_and_tiles_exactly() {
        let spans = [
            span("frame", 100, 1_000, None),
            span("a", 110, 400, Some(0)),
            span("a.inner", 150, 350, Some(1)),
            span("b", 400, 990, Some(0)),
        ];
        let own = self_times(&spans).unwrap();
        assert_eq!(own, vec![20, 90, 200, 590]);
        // children + self == parent, in integer ns, at every level.
        assert_eq!(
            spans[1].dur_ns() + spans[3].dur_ns() + own[0],
            spans[0].dur_ns()
        );
        assert_eq!(spans[2].dur_ns() + own[1], spans[1].dur_ns());
    }

    #[test]
    fn overlapping_or_escaping_children_are_rejected() {
        let overlap = [
            span("frame", 0, 100, None),
            span("a", 0, 60, Some(0)),
            span("b", 50, 90, Some(0)),
        ];
        assert!(self_times(&overlap).is_err());
        let escape = [span("frame", 0, 100, None), span("a", 10, 120, Some(0))];
        assert!(self_times(&escape).is_err());
    }

    #[test]
    fn recorded_spans_nest_and_tile() {
        let mut t = Tracer::new(true);
        let frame = t.enter("frame", 7);
        let x = t.call("layer.x", 7, || std::hint::black_box(3) + 1);
        t.call("layer.y", 7, || ());
        t.exit(frame);
        assert_eq!(x, 4);
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(0));
        let own = t.self_times().unwrap();
        assert_eq!(
            t.spans[1].dur_ns() + t.spans[2].dur_ns() + own[0],
            t.spans[0].dur_ns()
        );
        let doc = t.chrome_trace();
        assert_eq!(
            doc.get("traceEvents")
                .and_then(JsonValue::as_array)
                .map(<[_]>::len),
            Some(3)
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.enter("frame", 0);
        assert_eq!(t.call("layer.x", 0, || 5), 5);
        t.exit(id);
        assert!(t.spans.is_empty());
    }
}
