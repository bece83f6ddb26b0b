//! Opt-in allocation tracking for the fuzz sweep.
//!
//! The hostile-input contract bounds not just what a decoder *returns*
//! but what it *allocates on the way*: a forged length field must be
//! rejected before it sizes a `Vec`, not after. To observe that, the
//! fuzz binary (and only the fuzz binary) installs [`TrackingAllocator`]
//! as its global allocator:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: holo_fuzz::TrackingAllocator = holo_fuzz::TrackingAllocator;
//! ```
//!
//! The allocator forwards to the system allocator and keeps **per
//! thread** counters — live bytes, a high-water mark, and running totals
//! of allocation calls and bytes requested — in const-init
//! `thread_local!` cells (no lazy init, no destructor, so the hooks are
//! allocation-free and safe even during TLS teardown). Per-thread is
//! what makes the sweep parallelizable: each decode call runs entirely
//! on one fork-join worker, so its watermark bracket sees only its own
//! allocations and the measured peaks are identical at any
//! `SEMHOLO_THREADS`. Global counters would interleave concurrent
//! decodes and corrupt every delta.
//!
//! A buffer allocated on one thread and freed on another (e.g. a work
//! chunk handed to a worker) decrements the freeing thread's live
//! count, which saturates at zero; that can only happen *between*
//! watermark brackets, and [`reset_watermark`] re-baselines, so decode
//! deltas stay exact. When the allocator is *not* installed (library
//! consumers, ordinary test binaries), the counters never move,
//! [`installed`] stays false, and the harness skips the cap check — the
//! sweep still verifies "never panics" and "round-trips".

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};

static INSTALLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// A counting wrapper around the system allocator (see module docs).
pub struct TrackingAllocator;

fn on_alloc(size: usize) {
    INSTALLED.store(true, Relaxed);
    // `try_with`: never panic inside the allocator, even if a late
    // allocation lands while this thread's TLS is being torn down.
    let _ = LIVE.try_with(|live| {
        let now = live.get() + size;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
    let _ = CALLS.try_with(|calls| calls.set(calls.get() + 1));
    let _ = BYTES.try_with(|bytes| bytes.set(bytes.get() + size as u64));
}

fn on_dealloc(size: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get().saturating_sub(size)));
}

// SAFETY: pure pass-through to `System`; the counters carry no safety
// obligations.
unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_dealloc(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        on_dealloc(layout.size());
        on_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// True once the tracking allocator has served at least one allocation
/// — i.e. it is this binary's global allocator.
pub fn installed() -> bool {
    INSTALLED.load(Relaxed)
}

/// Allocation calls this thread has made so far (0 when not
/// installed): `alloc`, `alloc_zeroed`, and a `realloc` as one call.
/// Bracket a region by subtracting two readings.
pub fn alloc_calls() -> u64 {
    CALLS.try_with(Cell::get).unwrap_or(0)
}

/// Bytes those calls asked for, a `realloc` counted at its new size.
pub fn alloc_bytes() -> u64 {
    BYTES.try_with(Cell::get).unwrap_or(0)
}

/// Reset this thread's high-water mark to its current live count;
/// returns the baseline the next [`peak_since`] call should subtract.
pub fn reset_watermark() -> usize {
    LIVE.try_with(|live| {
        let now = live.get();
        let _ = PEAK.try_with(|peak| peak.set(now));
        now
    })
    .unwrap_or(0)
}

/// Peak bytes this thread allocated above `baseline` since the matching
/// [`reset_watermark`].
pub fn peak_since(baseline: usize) -> usize {
    PEAK.try_with(Cell::get).unwrap_or(0).saturating_sub(baseline)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_inert_without_installation() {
        // This test binary does not install the allocator, so nothing
        // moves — which is exactly the library-consumer contract.
        let base = reset_watermark();
        let v = vec![0u8; 1 << 16];
        assert_eq!(peak_since(base), 0);
        assert_eq!((alloc_calls(), alloc_bytes()), (0, 0));
        assert!(!installed());
        drop(v);
    }
}
