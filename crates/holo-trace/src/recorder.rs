//! The thread-local recorder: spans with parent nesting, plus metrics.
//!
//! The recorder is pure bookkeeping — it never looks at the wall clock.
//! Every span timestamp is a virtual-time microsecond count supplied by
//! the caller (the simulations pass `SimTime.0`), which is what makes
//! the exported trace byte-identical across runs of the same seed.

use crate::metrics::Metrics;

/// A completed span. Spans land in completion (exit) order, so children
/// always precede their parent; `depth` is the nesting level at entry
/// (0 = top level).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Stage name (`"extract"`, `"transmit"`, `"room.forward"`, ...).
    pub name: &'static str,
    /// Virtual start time, microseconds.
    pub start_us: u64,
    /// Virtual end time, microseconds (>= `start_us`).
    pub end_us: u64,
    /// Nesting depth at entry.
    pub depth: u16,
    /// Logical lane (chrome-trace tid): participant id in rooms.
    pub lane: u32,
    /// Optional frame index carried into the chrome-trace `args`.
    pub frame: Option<u64>,
}

impl SpanEvent {
    /// Span duration in milliseconds.
    pub fn duration_ms(&self) -> f64 {
        self.end_us.saturating_sub(self.start_us) as f64 / 1e3
    }
}

/// An open span on the stack.
#[derive(Debug, Clone, Copy)]
struct OpenSpan {
    name: &'static str,
    start_us: u64,
    lane: u32,
    frame: Option<u64>,
}

/// Hard cap on retained spans: a runaway always-on process degrades to
/// metrics-only instead of exhausting memory (~48 MB of spans).
pub const MAX_SPANS: usize = 1 << 20;

/// Per-thread trace state. Obtain through the crate-level free
/// functions ([`crate::span_enter`], [`crate::with_recorder`], ...).
#[derive(Debug, Default)]
pub struct Recorder {
    /// Completed spans in exit order.
    pub spans: Vec<SpanEvent>,
    /// Counters, gauges, histograms.
    pub metrics: Metrics,
    /// Lane applied to newly opened spans (see [`crate::set_lane`]).
    pub lane: u32,
    /// Set when the span cap was hit and spans were discarded.
    pub truncated: bool,
    /// Exact number of completed spans discarded at the cap. Surfaced
    /// in [`crate::snapshot_json`] and [`crate::TraceReport`] so a
    /// capped run is visibly incomplete instead of silently short.
    pub spans_dropped: u64,
    open: Vec<OpenSpan>,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clear all state.
    pub fn reset(&mut self) {
        self.spans.clear();
        self.open.clear();
        self.metrics = Metrics::default();
        self.lane = 0;
        self.truncated = false;
        self.spans_dropped = 0;
    }

    /// Open a span; the lane is captured at entry.
    pub fn span_enter(&mut self, name: &'static str, at_us: u64, frame: Option<u64>) {
        self.open.push(OpenSpan { name, start_us: at_us, lane: self.lane, frame });
    }

    /// Close the innermost open span. Exiting with no span open is a
    /// no-op (the recorder was reset under an open span, as a nested
    /// `traced` scope does); exiting earlier than the start clamps to
    /// zero duration rather than underflowing.
    pub fn span_exit(&mut self, at_us: u64) {
        let Some(open) = self.open.pop() else {
            return;
        };
        if self.spans.len() >= MAX_SPANS {
            self.truncated = true;
            self.spans_dropped += 1;
            return;
        }
        self.spans.push(SpanEvent {
            name: open.name,
            start_us: open.start_us,
            end_us: at_us.max(open.start_us),
            depth: self.open.len() as u16,
            lane: open.lane,
            frame: open.frame,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_depths() {
        let mut r = Recorder::new();
        r.span_enter("a", 0, None);
        r.span_enter("b", 10, None);
        r.span_enter("c", 20, None);
        r.span_exit(30);
        r.span_exit(40);
        r.span_exit(50);
        let names: Vec<_> = r.spans.iter().map(|s| (s.name, s.depth)).collect();
        assert_eq!(names, vec![("c", 2), ("b", 1), ("a", 0)]);
        assert!(r.open.is_empty());
    }

    #[test]
    fn unbalanced_exit_is_harmless() {
        let mut r = Recorder::new();
        r.span_exit(5);
        assert!(r.spans.is_empty());
    }

    #[test]
    fn backwards_exit_clamps() {
        let mut r = Recorder::new();
        r.span_enter("s", 100, None);
        r.span_exit(40);
        assert_eq!(r.spans[0].start_us, 100);
        assert_eq!(r.spans[0].end_us, 100);
        assert_eq!(r.spans[0].duration_ms(), 0.0);
    }

    #[test]
    fn cap_counts_every_dropped_span() {
        let mut r = Recorder::new();
        r.spans = vec![
            SpanEvent { name: "pad", start_us: 0, end_us: 0, depth: 0, lane: 0, frame: None };
            MAX_SPANS
        ];
        for i in 0..3u64 {
            r.span_enter("late", i, None);
            r.span_exit(i + 1);
        }
        assert!(r.truncated);
        assert_eq!(r.spans_dropped, 3);
        assert_eq!(r.spans.len(), MAX_SPANS);
        r.reset();
        assert_eq!(r.spans_dropped, 0);
        assert!(!r.truncated);
    }

    #[test]
    fn lane_captured_at_entry() {
        let mut r = Recorder::new();
        r.lane = 3;
        r.span_enter("s", 0, Some(9));
        r.lane = 8; // changing mid-span must not retag the open span
        r.span_exit(10);
        assert_eq!(r.spans[0].lane, 3);
        assert_eq!(r.spans[0].frame, Some(9));
    }
}
