//! **holo-trace** — deterministic structured tracing + metrics for the
//! SemHolo pipeline.
//!
//! The paper's whole evaluation is about *where time and bytes go* —
//! extraction vs. transmission vs. reconstruction against the 100 ms
//! interactivity budget — so the pipeline needs per-stage, per-frame
//! visibility, not just end-of-run aggregates. This crate provides it
//! in the spirit of `tracing`/`metrics`, with two properties those
//! crates do not give us:
//!
//! 1. **Determinism.** Spans are stamped in virtual [`SimTime`]
//!    microseconds supplied by the simulation, never the wall clock, so
//!    two runs of the same seed produce **byte-identical** trace-event
//!    JSON. (Wall-clock measurements enter only through
//!    [`WallTimer`], into histograms flagged `nondeterministic`, which
//!    are excluded from the byte-identity guarantee.)
//! 2. **A free disabled path.** Every recording entry point first reads
//!    this thread's switch, one thread-local load; when tracing is off
//!    the call returns immediately without allocating or touching the
//!    recorder. Turn it on for a process with `SEMHOLO_TRACE=1`, or
//!    for one run on one thread with [`traced`].
//!
//! The recorder and its switch are thread-local: each simulation thread
//! owns its own event stream and decides for itself whether to record,
//! so tests run in parallel without interleaving spans or flipping each
//! other's tracing. When a simulation fans out over the deterministic
//! fork-join pool, use [`parallel::par_map`] — each worker takes the
//! caller's switch, and the caller's recorder takes the workers' spans
//! at scope exit, byte-identically across thread counts.
//!
//! - [`recorder`] — the thread-local [`Recorder`]: span enter/exit with
//!   parent nesting, logical lane ids (chrome "tids"), metrics.
//! - [`metrics`] — counters, gauges, and histograms with a
//!   canonical-JSON snapshot (sorted keys, via `holo_runtime::ser`).
//! - [`sketch`] — [`LatencySketch`], the one histogram: log-linear,
//!   integer, exact to merge in any split and order.
//! - [`chrome`] — `chrome://tracing` / Perfetto trace-event export.
//! - [`report`] — [`TraceReport`]: the per-stage latency table printed
//!   by `examples/quickstart.rs` and the benches.
//! - [`parallel`] — `holo_runtime::par` scope hooks: deterministic
//!   worker-recorder merge (spans re-sorted by `(start_us, lane)` with
//!   a stable per-thread `seq` tiebreak at scope exit).
//!
//! # Example
//!
//! ```
//! holo_trace::traced(|| {
//!     holo_trace::span_enter("frame", 0);
//!     holo_trace::span_enter("extract", 0);
//!     holo_trace::span_exit(7_000);      // virtual microseconds
//!     holo_trace::span_exit(9_000);
//!     holo_trace::counter("frames", 1);
//! });
//! let report = holo_trace::trace_report();
//! assert_eq!(report.get("extract").unwrap().count, 1);
//! let json = holo_trace::chrome_trace(); // byte-identical per seed
//! assert!(json.contains("\"traceEvents\""));
//! ```

pub mod chrome;
pub mod metrics;
pub mod parallel;
pub mod recorder;
pub mod report;
pub mod sketch;

pub use metrics::{Gauge, Metrics};
pub use recorder::{Recorder, SpanEvent};
pub use report::{StageStat, TraceReport};
pub use sketch::LatencySketch;

use std::cell::{Cell, RefCell};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::new());
    /// This thread's switch: the fast path every instrumentation site
    /// checks first. `None` until [`traced`] sets it or the thread
    /// first asks and takes `SEMHOLO_TRACE`'s answer.
    static ENABLED: Cell<Option<bool>> = const { Cell::new(None) };
}

/// Is tracing on for this thread? One thread-local load after the
/// thread's first call. A thread that is not inside [`traced`] and is
/// not a worker of a traced scope follows `SEMHOLO_TRACE`, read once
/// per process: `1` or any non-empty value other than `0` enables.
#[inline]
pub fn enabled() -> bool {
    ENABLED.get().unwrap_or_else(from_env)
}

#[cold]
fn from_env() -> bool {
    static ENV: OnceLock<bool> = OnceLock::new();
    let on = *ENV.get_or_init(|| {
        std::env::var("SEMHOLO_TRACE").is_ok_and(|v| !v.is_empty() && v != "0")
    });
    ENABLED.set(Some(on));
    on
}

/// Clear this thread's recorder: spans, open stack, metrics, lane.
pub fn reset() {
    RECORDER.with(|r| r.borrow_mut().reset());
}

/// Run `f` with tracing on for this thread, on a freshly reset
/// recorder, and restore the thread's previous switch on the way out —
/// by a drop guard, so an `Err` result and a panic unwinding through
/// here are covered alike. Other threads are not touched. Scopes nest:
/// an inner one restores the outer's switch, but its reset also clears
/// what the outer scope had recorded. The recorder is left as `f`
/// filled it: read the evidence ([`trace_report`], [`chrome_trace`],
/// [`with_recorder`]) afterwards.
pub fn traced<T>(f: impl FnOnce() -> T) -> T {
    struct Restore(Option<bool>);
    impl Drop for Restore {
        fn drop(&mut self) {
            ENABLED.set(self.0);
        }
    }
    let _restore = Restore(ENABLED.replace(Some(true)));
    reset();
    f()
}

/// Run `f` with mutable access to this thread's recorder (for tests and
/// exporters; instrumentation sites should use the free functions).
pub fn with_recorder<T>(f: impl FnOnce(&mut Recorder) -> T) -> T {
    RECORDER.with(|r| f(&mut r.borrow_mut()))
}

/// Open a span at virtual time `at_us`. Must be matched by a
/// [`span_exit`]; nesting is tracked per thread.
#[inline]
pub fn span_enter(name: &'static str, at_us: u64) {
    if !enabled() {
        return;
    }
    RECORDER.with(|r| r.borrow_mut().span_enter(name, at_us, None));
}

/// Open a span carrying a frame index (rendered into the chrome-trace
/// `args`, so per-frame stages are identifiable in the viewer).
#[inline]
pub fn span_enter_frame(name: &'static str, at_us: u64, frame: u64) {
    if !enabled() {
        return;
    }
    RECORDER.with(|r| r.borrow_mut().span_enter(name, at_us, Some(frame)));
}

/// Close the innermost open span at virtual time `at_us`.
#[inline]
pub fn span_exit(at_us: u64) {
    if !enabled() {
        return;
    }
    RECORDER.with(|r| r.borrow_mut().span_exit(at_us));
}

/// Route subsequent spans to a logical lane (a chrome-trace "tid").
/// Simulations use one lane per participant so fan-out renders as
/// parallel tracks.
#[inline]
pub fn set_lane(lane: u32) {
    if !enabled() {
        return;
    }
    RECORDER.with(|r| r.borrow_mut().lane = lane);
}

/// Add `delta` to a monotonic counter.
#[inline]
pub fn counter(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    RECORDER.with(|r| r.borrow_mut().metrics.counter(name, delta));
}

/// Record an instantaneous gauge observation (last/min/max/mean kept).
#[inline]
pub fn gauge(name: &str, value: f64) {
    if !enabled() {
        return;
    }
    RECORDER.with(|r| r.borrow_mut().metrics.gauge(name, value));
}

/// Record an integer observation into a histogram, in the unit `name`
/// ends with (`_us`, `_bytes`, `_permille`).
#[inline]
pub fn histogram(name: &str, value: u64) {
    if !enabled() {
        return;
    }
    RECORDER.with(|r| r.borrow_mut().metrics.histogram(name, value));
}

/// The one wall-clock timer: the only place the workspace's pipeline
/// and codec code reads the real clock. [`WallTimer::stop`] hands the
/// elapsed time back (the pipelines fill `StageCost::cpu_wall` with it)
/// and, when tracing is on, records it into the histogram it names —
/// tagged `nondeterministic: true` in the snapshot, which is how the
/// SLO engine and the bench regression gate know to skip the family by
/// flag, not by a hard-coded name list. Everything else stays virtual.
#[derive(Debug)]
pub struct WallTimer(Instant);

impl WallTimer {
    /// Read the clock.
    #[inline]
    pub fn start() -> Self {
        Self(Instant::now())
    }

    /// Read it again; record the difference into the wall-clock
    /// histogram `name` (which ends in `_us`) if tracing is on.
    #[inline]
    pub fn stop(self, name: &str) -> Duration {
        let wall = self.0.elapsed();
        if enabled() {
            RECORDER.with(|r| r.borrow_mut().metrics.wall_time(name, wall));
        }
        wall
    }
}

/// Canonical-JSON metric snapshot of this thread's recorder (sorted
/// keys; see [`Metrics::to_json`]), plus the recorder's exact
/// `spans_dropped` count so span-cap truncation is visible downstream.
pub fn snapshot_json() -> holo_runtime::ser::JsonValue {
    use holo_runtime::ser::{JsonValue, ToJson};
    RECORDER.with(|r| {
        let r = r.borrow();
        let mut doc = r.metrics.to_json();
        if let JsonValue::Obj(pairs) = &mut doc {
            // Keys stay sorted: counters, gauges, histograms,
            // spans_dropped.
            pairs.push(("spans_dropped".to_string(), r.spans_dropped.to_json()));
        }
        doc
    })
}

/// Render this thread's completed spans as chrome://tracing trace-event
/// JSON. Deterministic: virtual timestamps only, stable ordering.
pub fn chrome_trace() -> String {
    RECORDER.with(|r| chrome::chrome_trace_json(&r.borrow().spans))
}

/// Summarize this thread's completed spans into a per-stage table
/// (carrying the recorder's `spans_dropped` count, so a capped run
/// warns in the rendered table instead of looking merely short).
pub fn trace_report() -> TraceReport {
    RECORDER.with(|r| {
        let r = r.borrow();
        TraceReport::from_spans(&r.spans).with_spans_dropped(r.spans_dropped)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_path_records_nothing() {
        ENABLED.set(Some(false));
        reset();
        span_enter("s", 0);
        span_exit(10);
        counter("c", 1);
        histogram("h", 1);
        gauge("g", 1.0);
        WallTimer::start().stop("t_us");
        with_recorder(|r| {
            assert!(r.spans.is_empty());
            assert!(r.metrics.is_empty());
        });
    }

    #[test]
    fn the_timer_records_only_when_tracing_is_on() {
        let wall = traced(|| WallTimer::start().stop("t_us"));
        with_recorder(|r| {
            let h = &r.metrics.histograms["t_us"];
            assert!(h.nondeterministic);
            assert_eq!((h.count, h.max_us), (1, wall.as_micros() as u64));
        });
        reset();
    }

    #[test]
    fn enabled_records_spans_and_metrics() {
        traced(|| {
            span_enter_frame("frame", 100, 3);
            span_enter("inner", 150);
            span_exit(250);
            span_exit(400);
            counter("c", 2);
            counter("c", 3);
            gauge("depth", 4.0);
            histogram("lat_us", 300);
        });
        with_recorder(|r| {
            assert_eq!(r.spans.len(), 2);
            // Children complete (and are recorded) before parents.
            assert_eq!(r.spans[0].name, "inner");
            assert_eq!(r.spans[0].depth, 1);
            assert_eq!(r.spans[1].name, "frame");
            assert_eq!(r.spans[1].depth, 0);
            assert_eq!(r.spans[1].frame, Some(3));
            assert_eq!(r.metrics.counters.get("c"), Some(&5));
        });
        reset();
    }

    #[test]
    fn lanes_tag_spans() {
        traced(|| {
            set_lane(7);
            span_enter("fwd", 0);
            span_exit(5);
        });
        with_recorder(|r| assert_eq!(r.spans[0].lane, 7));
        reset();
    }

    #[test]
    fn reset_clears_everything() {
        traced(|| {
            span_enter("s", 0);
            span_exit(1);
            counter("c", 1);
            reset();
        });
        with_recorder(|r| {
            assert!(r.spans.is_empty());
            assert!(r.metrics.is_empty());
            assert_eq!(r.lane, 0);
        });
    }

    #[test]
    fn one_threads_traced_exit_leaves_another_thread_tracing() {
        use std::sync::mpsc;
        let (a_in, a_is_in) = mpsc::channel();
        let (b_in, b_is_in) = mpsc::channel();
        let a = std::thread::spawn(move || {
            traced(|| {
                a_in.send(()).unwrap();
                b_is_in.recv().unwrap();
            })
        });
        a_is_in.recv().unwrap();
        traced(|| {
            b_in.send(()).unwrap();
            a.join().unwrap();
            span_enter("b", 0);
            span_exit(1);
        });
        let names: Vec<_> = with_recorder(|r| r.spans.iter().map(|s| s.name).collect());
        assert_eq!(names, ["b"], "another thread's traced exit switched this one off");
        reset();
    }
}
