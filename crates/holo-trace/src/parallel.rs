//! Deterministic merging of worker recorders at fork-join scope exit.
//!
//! The recorder is thread-local, so a bare `holo_runtime::par::par_map`
//! would strand every span and counter recorded on a worker thread in
//! TLS that dies with the worker. This module closes that hole: it
//! installs [`holo_runtime::par::ScopeHooks`] that
//!
//! 1. mark the parent recorder's span count and read the parent's
//!    switch when a scope opens,
//! 2. hand that switch to each worker before its chunk starts, so a
//!    worker records exactly when its caller does,
//! 3. snapshot each worker's recorder (spans + metrics) when its chunk
//!    completes, and
//! 4. at scope exit — on the parent thread, with payloads in worker
//!    index order — append the snapshots, [`Metrics::merge`] the
//!    registries, and **stable-sort the scope-local spans by
//!    `(start_us, lane)`**.
//!
//! The sort is the byte-identity trick. Workers interleave in virtual
//! time, so raw concatenation order depends on the partition map (and
//! therefore on the thread count); `(start_us, lane)` is a pure
//! function of the span set. The sort is *stable*, and payload
//! concatenation in worker index order reproduces exactly the
//! sequential item order, so the per-thread record sequence (`seq`)
//! breaks the remaining ties identically at every thread count. The
//! sequential leg (1 worker, run inline on the caller) goes through the
//! same `end` hook and gets the same sort, which is what makes
//! `SEMHOLO_THREADS=1` and `=N` produce the same bytes rather than
//! merely equivalent traces.
//!
//! Call sites in the simulators use [`par_map`]/[`scope`] from this
//! module rather than `holo_runtime::par` directly — the wrappers
//! lazily install the hooks (a process-wide one-shot), so merging works
//! no matter which subsystem parallelizes first.

use crate::recorder::MAX_SPANS;
use crate::{Metrics, SpanEvent};
use holo_runtime::par::{self, ScopeHooks, ScopePayload, ScopeToken};
use std::sync::Once;

/// What a worker's recorder contributes to the scope merge.
struct TracePayload {
    spans: Vec<SpanEvent>,
    metrics: Metrics,
    truncated: bool,
    spans_dropped: u64,
}

/// Parent-side scope state: the parent's switch, and where this
/// scope's spans start.
struct TraceToken {
    enabled: bool,
    marker: usize,
}

fn begin() -> ScopeToken {
    let enabled = crate::enabled();
    let marker = if enabled { crate::with_recorder(|r| r.spans.len()) } else { 0 };
    Box::new(TraceToken { enabled, marker })
}

fn enter(token: &ScopeToken) {
    let token = token.downcast_ref::<TraceToken>().expect("foreign scope token");
    crate::ENABLED.set(Some(token.enabled));
}

/// A worker thread lives for one chunk, so its recorder holds exactly
/// what the chunk recorded: nothing, when its caller was not tracing.
fn collect() -> ScopePayload {
    crate::with_recorder(|r| {
        Box::new(TracePayload {
            spans: std::mem::take(&mut r.spans),
            metrics: std::mem::take(&mut r.metrics),
            truncated: r.truncated,
            spans_dropped: std::mem::take(&mut r.spans_dropped),
        }) as ScopePayload
    })
}

fn end(token: ScopeToken, payloads: Vec<ScopePayload>) {
    let token = token.downcast::<TraceToken>().expect("foreign scope token");
    if !crate::enabled() {
        return;
    }
    crate::with_recorder(|r| {
        for payload in payloads {
            let p = payload.downcast::<TracePayload>().expect("foreign scope payload");
            r.truncated |= p.truncated;
            r.spans_dropped += p.spans_dropped;
            for span in p.spans {
                if r.spans.len() >= MAX_SPANS {
                    r.truncated = true;
                    r.spans_dropped += 1;
                    continue;
                }
                r.spans.push(span);
            }
            r.metrics.merge(&p.metrics);
        }
        // Canonicalize this scope's spans. Stable sort: equal
        // (start, lane) keys keep sequential item order (see module
        // docs), so every thread count renders the same bytes.
        let marker = token.marker.min(r.spans.len());
        r.spans[marker..].sort_by_key(|s| (s.start_us, s.lane));
    });
}

/// Install the trace merge hooks into the fork-join pool (process-wide,
/// idempotent). The [`par_map`]/[`scope`] wrappers call this; exposed
/// for call sites that reach `holo_runtime::par` directly.
pub fn install() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        par::set_scope_hooks(ScopeHooks { begin, enter, collect, end });
    });
}

/// [`holo_runtime::par::par_map`] with trace merging installed: spans
/// and metrics recorded by workers land in the caller's recorder, in
/// canonical order, byte-identically across thread counts.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    install();
    par::par_map(items, f)
}

/// [`holo_runtime::par::scope`] with trace merging installed.
pub fn scope<R: Send>(tasks: Vec<Box<dyn FnOnce() -> R + Send>>) -> Vec<R> {
    install();
    par::scope(tasks)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One traced parallel workload; returns (chrome trace, metric
    /// snapshot) rendered from the caller's recorder after the scope.
    fn traced_run() -> (String, String) {
        let out = crate::traced(|| {
            par_map((0..6u64).collect::<Vec<_>>(), |i| {
                crate::set_lane(i as u32);
                crate::span_enter("work", i * 100);
                crate::span_enter("inner", i * 100 + 10);
                crate::counter("items", 1);
                crate::gauge("idx", i as f64);
                crate::span_exit(i * 100 + 40);
                crate::span_exit(i * 100 + 50);
                i * 2
            })
        });
        assert_eq!(out, (0..6).map(|i| i * 2).collect::<Vec<_>>());
        (crate::chrome_trace(), crate::snapshot_json().render())
    }

    #[test]
    fn merge_is_byte_identical_across_thread_counts() {
        par::set_thread_override(Some(1));
        let base = traced_run();
        assert!(base.0.contains("\"name\":\"work\""));
        for t in [2, 3, 8] {
            par::set_thread_override(Some(t));
            let run = traced_run();
            assert_eq!(run.0, base.0, "chrome trace diverged at threads={t}");
            assert_eq!(run.1, base.1, "metric snapshot diverged at threads={t}");
        }
        crate::reset();
    }

    #[test]
    fn worker_metrics_merge_exactly() {
        par::set_thread_override(Some(4));
        crate::traced(|| {
            par_map((0..100u64).collect::<Vec<_>>(), |i| {
                crate::counter("n", 1);
                crate::counter("sum", i);
            })
        });
        crate::with_recorder(|r| {
            assert_eq!(r.metrics.counter_value("n"), 100);
            assert_eq!(r.metrics.counter_value("sum"), (0..100).sum::<u64>());
        });
        crate::reset();
    }

    #[test]
    fn disabled_tracing_still_maps() {
        crate::ENABLED.set(Some(false));
        par::set_thread_override(Some(4));
        let out = par_map(vec![1u32, 2, 3], |x| {
            crate::span_enter("ghost", 0);
            crate::span_exit(1);
            x + 1
        });
        assert_eq!(out, vec![2, 3, 4]);
        crate::with_recorder(|r| assert!(r.spans.is_empty()));
    }

    #[test]
    fn surrounding_spans_survive_a_scope() {
        // Spans already on the parent recorder must not be re-sorted or
        // lost; only the scope-local suffix is canonicalized.
        par::set_thread_override(Some(2));
        crate::traced(|| {
            crate::span_enter("outer", 0);
            crate::span_exit(5);
            par_map(vec![900u64, 100], |start| {
                crate::span_enter("par", start);
                crate::span_exit(start + 1);
            });
        });
        crate::with_recorder(|r| {
            let got: Vec<_> = r.spans.iter().map(|s| (s.name, s.start_us)).collect();
            assert_eq!(got, vec![("outer", 0), ("par", 100), ("par", 900)]);
        });
        crate::reset();
    }
}
