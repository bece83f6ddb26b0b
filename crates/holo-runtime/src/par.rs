//! Deterministic fork-join parallelism.
//!
//! Everything in this workspace is built on seeded virtual time and
//! byte-identical reports, which rules out ordinary thread pools: work
//! stealing makes the set of items a worker runs — and therefore any
//! per-thread side effects — depend on scheduling. This module provides
//! the one parallelism primitive the simulators are allowed to use:
//!
//! * **Fixed partitioning.** [`par_map`] splits the input into
//!   contiguous chunks by index ([`partition`]), one chunk per worker.
//!   The chunk map is a pure function of `(len, workers)` — no
//!   stealing, no dynamic scheduling, nothing observable depends on
//!   which worker finished first.
//! * **Canonical merge.** Results come back in input-index order, and
//!   per-chunk payload concatenation (worker 0's items, then worker
//!   1's, …) reproduces exactly the sequential item order, so any
//!   order-sensitive side channel can be merged deterministically.
//! * **Scope hooks.** Thread-local state (the `holo-trace` recorder
//!   and its switch) would silently die with the worker threads. A
//!   process-wide [`ScopeHooks`] installation lets an observer hand the
//!   parent's state to each worker before its chunk starts, snapshot
//!   each worker's state at chunk completion and merge the snapshots —
//!   in worker index order — on the parent thread at scope exit.
//!   `holo-trace` installs hooks that re-sort merged spans by
//!   `(start_us, lane, seq)` so traces are byte-identical across
//!   thread counts.
//! * **Panic propagation.** A panicking worker does not hang or abort
//!   the process: every worker is joined, then the first panic payload
//!   (in worker index order) is re-raised on the caller.
//! * **Nested calls run sequentially.** A `par_map` inside a worker
//!   falls back to a plain in-place map, so parallelism never
//!   multiplies and nested scopes cannot deadlock or tear recorders.
//!
//! Worker count: the calling thread's [`set_thread_override`], else
//! `SEMHOLO_THREADS`, else [`std::thread::available_parallelism`]. The
//! override is the setting thread's own; workers never read one, as a
//! nested scope runs sequentially. **Every thread count produces the
//! same bytes** — the count only trades wall clock, never results;
//! `tests/committed_reports.rs` holds every committed report to this at
//! 1, 2 and 8 threads.

use std::any::Any;
use std::cell::Cell;
use std::ops::Range;
use std::sync::OnceLock;

/// Hard cap on workers: beyond this, coordination costs dwarf any
/// speedup on the workloads this repo runs.
pub const MAX_WORKERS: usize = 64;

/// Opaque token produced on the parent thread when a scope opens; every
/// worker reads it.
pub type ScopeToken = Box<dyn Any + Send + Sync>;
/// Opaque payload captured on a worker thread when its chunk completes.
pub type ScopePayload = Box<dyn Any + Send>;

/// Observer hooks for a fork-join scope (see module docs). All four
/// are plain `fn` pointers so the registration is `Copy` and the hot
/// path stays allocation-free when no observer is installed.
#[derive(Clone, Copy)]
pub struct ScopeHooks {
    /// Runs on the parent thread before any worker starts.
    pub begin: fn() -> ScopeToken,
    /// Runs on each worker thread before its chunk starts.
    pub enter: fn(&ScopeToken),
    /// Runs on each worker thread after its chunk completes.
    pub collect: fn() -> ScopePayload,
    /// Runs on the parent thread after all workers joined; payloads
    /// arrive in worker index order (empty for the sequential path).
    pub end: fn(ScopeToken, Vec<ScopePayload>),
}

static HOOKS: OnceLock<ScopeHooks> = OnceLock::new();

/// Install the process-wide scope hooks. First caller wins; returns
/// whether this call installed them. (`holo-trace` is the intended —
/// and in this workspace, only — installer.)
pub fn set_scope_hooks(hooks: ScopeHooks) -> bool {
    HOOKS.set(hooks).is_ok()
}

/// Pin the worker count of the scopes the calling thread opens: `Some(n)`
/// pins it, `None` restores env/auto resolution. Other threads keep
/// their own setting.
pub fn set_thread_override(n: Option<usize>) {
    OVERRIDE.set(n.unwrap_or(0));
}

/// Resolve the calling thread's worker count: its override, then
/// `SEMHOLO_THREADS`, then [`std::thread::available_parallelism`];
/// always in `1..=`[`MAX_WORKERS`]. The last two are read once per
/// process.
pub fn threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    let n = match OVERRIDE.get() {
        0 => *DEFAULT.get_or_init(|| {
            let env = std::env::var("SEMHOLO_THREADS").ok();
            env.and_then(|v| v.trim().parse().ok()).filter(|&n| n >= 1).unwrap_or_else(|| {
                std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
            })
        }),
        n => n,
    };
    n.clamp(1, MAX_WORKERS)
}

/// The fixed partition map: `len` items over at most `workers`
/// contiguous chunks. The first `len % w` chunks get one extra item;
/// no chunk is empty. A pure function of `(len, workers)` — this is
/// the "no observable work stealing" contract in one place.
pub fn partition(len: usize, workers: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let w = workers.clamp(1, len);
    let base = len / w;
    let extra = len % w;
    let mut out = Vec::with_capacity(w);
    let mut start = 0;
    for i in 0..w {
        let size = base + usize::from(i < extra);
        out.push(start..start + size);
        start += size;
    }
    out
}

thread_local! {
    static IN_SCOPE: Cell<bool> = const { Cell::new(false) };
    /// This thread's [`set_thread_override`]; 0 is none.
    static OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// True while the current thread is executing inside a fork-join
/// scope (worker chunk or sequential fallback).
pub fn in_scope() -> bool {
    IN_SCOPE.with(|c| c.get())
}

/// Clears `IN_SCOPE` even when the guarded map panics.
struct ScopeFlagGuard;

impl ScopeFlagGuard {
    fn enter() -> Self {
        IN_SCOPE.with(|c| c.set(true));
        ScopeFlagGuard
    }
}

impl Drop for ScopeFlagGuard {
    fn drop(&mut self) {
        IN_SCOPE.with(|c| c.set(false));
    }
}

/// Map `f` over `items` on the fork-join pool. Results return in input
/// order; see the module docs for the determinism contract.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    // Nested scope: plain sequential map on this worker, no hooks —
    // the enclosing scope's collect/merge handles this thread's state.
    if in_scope() {
        return items.into_iter().map(f).collect();
    }
    let workers = threads().min(items.len()).max(1);
    let hooks = HOOKS.get();
    let token = hooks.map(|h| (h.begin)());

    if workers <= 1 {
        // Sequential leg of the same contract: run on the calling
        // thread (side effects land in the caller's thread-locals
        // directly), then let `end` canonicalize the scope exactly as
        // it would a merged one.
        let out: Vec<R> = {
            let _flag = ScopeFlagGuard::enter();
            items.into_iter().map(&f).collect()
        };
        if let (Some(h), Some(token)) = (hooks, token) {
            (h.end)(token, Vec::new());
        }
        return out;
    }

    // Fixed partitioning: carve `items` into contiguous chunks.
    let ranges = partition(items.len(), workers);
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(ranges.len());
    let mut rest = items;
    for r in ranges.iter().rev() {
        chunks.push(rest.split_off(r.start));
    }
    chunks.reverse();

    let f = &f;
    let token_ref = token.as_ref();
    let mut results: Vec<R> = Vec::new();
    let mut payloads: Vec<ScopePayload> = Vec::new();
    let mut panic_payload: Option<Box<dyn Any + Send>> = None;
    std::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                s.spawn(move || {
                    if let (Some(h), Some(token)) = (hooks, token_ref) {
                        (h.enter)(token);
                    }
                    let _flag = ScopeFlagGuard::enter();
                    let out: Vec<R> = chunk.into_iter().map(f).collect();
                    let payload = hooks.map(|h| (h.collect)());
                    (out, payload)
                })
            })
            .collect();
        // Join in spawn (= partition index) order: results concatenate
        // back to input order, payloads merge in worker index order.
        for handle in handles {
            match handle.join() {
                Ok((out, payload)) => {
                    results.extend(out);
                    if let Some(p) = payload {
                        payloads.push(p);
                    }
                }
                Err(p) => {
                    if panic_payload.is_none() {
                        panic_payload = Some(p);
                    }
                }
            }
        }
    });
    if let Some(p) = panic_payload {
        std::panic::resume_unwind(p);
    }
    if let (Some(h), Some(token)) = (hooks, token) {
        (h.end)(token, payloads);
    }
    results
}

/// Run heterogeneous tasks on the fork-join pool: each boxed closure
/// is one work item, results return in task order. Sugar over
/// [`par_map`]; same determinism and panic contract.
pub fn scope<R: Send>(tasks: Vec<Box<dyn FnOnce() -> R + Send>>) -> Vec<R> {
    par_map(tasks, |t| t())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::mpsc;

    #[test]
    fn empty_input_yields_empty_output() {
        for t in [1, 4] {
            set_thread_override(Some(t));
            let out: Vec<u32> = par_map(Vec::<u32>::new(), |x| x + 1);
            assert!(out.is_empty());
        }
    }

    #[test]
    fn single_item_maps_in_place() {
        set_thread_override(Some(8));
        assert_eq!(par_map(vec![21], |x: u64| x * 2), vec![42]);
    }

    #[test]
    fn many_items_preserve_input_order_at_every_thread_count() {
        let items: Vec<usize> = (0..103).collect();
        let expected: Vec<usize> = items.iter().map(|x| x * x).collect();
        for t in [1, 2, 3, 8, 64] {
            set_thread_override(Some(t));
            assert_eq!(par_map(items.clone(), |x| x * x), expected, "threads={t}");
        }
    }

    #[test]
    fn partition_is_stable_contiguous_and_balanced() {
        // Same (len, workers) must always produce the same map.
        assert_eq!(partition(10, 3), partition(10, 3));
        assert_eq!(partition(10, 3), vec![0..4, 4..7, 7..10]);
        // More workers than items: one chunk per item, none empty.
        assert_eq!(partition(2, 8), vec![0..1, 1..2]);
        assert_eq!(partition(0, 4), Vec::<Range<usize>>::new());
        for (len, w) in [(1, 1), (7, 2), (100, 7), (64, 64), (65, 64)] {
            let p = partition(len, w);
            assert!(p.len() <= w);
            assert_eq!(p.first().unwrap().start, 0);
            assert_eq!(p.last().unwrap().end, len);
            for pair in p.windows(2) {
                assert_eq!(pair[0].end, pair[1].start, "gap at ({len},{w})");
                // Balanced: sizes differ by at most one, larger first.
                assert!(pair[0].len() >= pair[1].len());
                assert!(pair[0].len() - pair[1].len() <= 1);
            }
            assert!(p.iter().all(|r| !r.is_empty()));
        }
    }

    #[test]
    fn worker_panic_propagates_to_the_caller() {
        set_thread_override(Some(4));
        let caught = std::panic::catch_unwind(|| {
            par_map((0..16).collect::<Vec<u32>>(), |x| {
                assert!(x != 11, "worker boom");
                x
            })
        });
        let err = caught.expect_err("panic must cross the scope");
        let msg = err
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("worker boom"), "wrong payload: {msg:?}");
    }

    #[test]
    fn nested_par_map_falls_back_to_sequential() {
        set_thread_override(Some(4));
        static PEAK_NESTED: AtomicU32 = AtomicU32::new(0);
        let out = par_map((0..8).collect::<Vec<u32>>(), |x| {
            assert!(in_scope(), "worker must know it is inside a scope");
            // The inner call must run inline on this worker thread.
            let tid = std::thread::current().id();
            let inner = par_map((0..4).collect::<Vec<u32>>(), |y| {
                assert_eq!(std::thread::current().id(), tid, "nested map left its worker");
                PEAK_NESTED.fetch_add(1, Ordering::Relaxed);
                x * 10 + y
            });
            inner.into_iter().sum::<u32>()
        });
        assert!(!in_scope(), "scope flag must clear at exit");
        assert_eq!(out.len(), 8);
        assert_eq!(PEAK_NESTED.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn scope_runs_heterogeneous_tasks_in_order() {
        set_thread_override(Some(3));
        let tasks: Vec<Box<dyn FnOnce() -> u32 + Send>> =
            vec![Box::new(|| 1), Box::new(|| 2), Box::new(|| 3)];
        assert_eq!(scope(tasks), vec![1, 2, 3]);
    }

    #[test]
    fn threads_respects_override_and_clamps() {
        set_thread_override(Some(3));
        assert_eq!(threads(), 3);
        set_thread_override(Some(10_000));
        assert_eq!(threads(), MAX_WORKERS);
        let unpinned = std::thread::spawn(threads).join().unwrap();
        assert!((1..=MAX_WORKERS).contains(&unpinned));
    }

    #[test]
    fn the_override_belongs_to_the_thread_that_set_it() {
        let (b_set, b_has_set) = mpsc::channel();
        let (a_set, a_has_set) = mpsc::channel();
        let b = std::thread::spawn(move || {
            set_thread_override(Some(1));
            b_set.send(()).unwrap();
            a_has_set.recv().unwrap();
            threads()
        });
        b_has_set.recv().unwrap();
        set_thread_override(Some(7));
        a_set.send(()).unwrap();
        assert_eq!(b.join().unwrap(), 1, "another thread's override reached this one");
        assert_eq!(threads(), 7);
    }
}
