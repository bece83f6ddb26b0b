//! The sweep: mutate → decode → tally, and the canonical report.
//!
//! [`run_sweep`] drives every registry target through
//! `mutations_per_target` seeded mutants inside `catch_unwind` (with
//! the panic hook silenced for the duration, so a sweep over millions
//! of rejects does not spray backtraces). Per decode call it measures
//! the peak-allocation delta when the fuzz binary installed
//! [`crate::TrackingAllocator`].
//!
//! The sweep fans out over the deterministic fork-join pool. Each
//! target's mutant budget is cut into fixed [`CHUNK_MUTANTS`]-sized
//! chunks with their own derived mutator seeds, the flattened
//! `targets × chunks` work list runs through
//! `holo_trace::parallel::par_map`, and the per-chunk tallies fold back
//! per target in chunk order. Because the chunk layout and seeds are a
//! pure function of the config — never of the thread count — the report
//! is byte-identical across `SEMHOLO_THREADS=1..N`.
//!
//! The resulting [`FuzzReport`] contains only seed-determined numbers —
//! no wall clock, no addresses, fixed taxonomy order — and renders
//! through `holo_runtime::ser`'s canonical JSON, so two same-seed runs
//! produce byte-identical `FUZZ_report.json`. The workspace's
//! `tests/committed_reports.rs` reruns the sweep and compares it with the
//! committed file.

use crate::alloc;
use crate::mutate::{Mutator, MUTATION_NAMES};
use crate::targets::{registry, Target};
use holo_runtime::ser::{JsonValue, ToJson};
use std::panic::{self, AssertUnwindSafe};

/// Fixed taxonomy order for per-kind reject counts (matches
/// `DecodeError::kind`).
const KINDS: [&str; 5] = ["truncated", "bad_magic", "bad_checksum", "limit_exceeded", "corrupt"];

/// Sweep parameters.
#[derive(Debug, Clone, Copy)]
pub struct FuzzConfig {
    /// Master seed; corpora, mutants, and the report all derive from it.
    pub seed: u64,
    /// Mutants per decode target (the acceptance floor is 10 000).
    pub mutations_per_target: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        Self { seed: 7, mutations_per_target: 10_000 }
    }
}

/// One target's sweep outcome.
#[derive(Debug, Clone)]
pub struct TargetReport {
    /// Target name from the registry.
    pub name: String,
    /// Corpus size.
    pub corpus: usize,
    /// Corpus items that round-tripped (must equal `corpus`).
    pub corpus_ok: usize,
    /// Mutants decoded.
    pub mutations: usize,
    /// Mutants the decoder accepted (decoded to `Ok`).
    pub accepted: usize,
    /// Mutants rejected with a typed error.
    pub rejected: usize,
    /// Rejections per taxonomy kind, in [`struct@KINDS`] order.
    pub rejected_by_kind: [usize; 5],
    /// Panics caught (the contract demands zero).
    pub panics: usize,
    /// Largest peak-allocation delta observed across calls, bytes
    /// (0 when the tracking allocator is not installed).
    pub max_alloc: usize,
    /// The target's declared cap, bytes.
    pub alloc_cap: usize,
    /// Calls whose peak allocation exceeded the cap (must be zero).
    pub cap_exceeded: usize,
    /// Per-mutator-family mutant counts, in
    /// [`MUTATION_NAMES`] order.
    pub by_family: [usize; 5],
}

impl TargetReport {
    /// True when this target upheld the whole hostile-input contract.
    pub fn clean(&self) -> bool {
        self.panics == 0 && self.cap_exceeded == 0 && self.corpus_ok == self.corpus
    }
}

impl ToJson for TargetReport {
    fn to_json(&self) -> JsonValue {
        let kinds = JsonValue::obj(
            KINDS.iter().zip(self.rejected_by_kind).map(|(k, n)| (*k, n.to_json())),
        );
        let families = JsonValue::obj(
            MUTATION_NAMES.iter().zip(self.by_family).map(|(k, n)| (*k, n.to_json())),
        );
        JsonValue::obj([
            ("name", self.name.to_json()),
            ("corpus", self.corpus.to_json()),
            ("corpus_ok", self.corpus_ok.to_json()),
            ("mutations", self.mutations.to_json()),
            ("accepted", self.accepted.to_json()),
            ("rejected", self.rejected.to_json()),
            ("rejected_by_kind", kinds),
            ("panics", self.panics.to_json()),
            ("max_alloc", self.max_alloc.to_json()),
            ("alloc_cap", self.alloc_cap.to_json()),
            ("cap_exceeded", self.cap_exceeded.to_json()),
            ("by_family", families),
        ])
    }
}

/// The whole sweep's outcome.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Master seed.
    pub seed: u64,
    /// Mutants per target.
    pub mutations_per_target: usize,
    /// Whether allocation caps were actually enforced (the tracking
    /// allocator was installed in this binary).
    pub alloc_tracking: bool,
    /// Per-target outcomes, registry order.
    pub targets: Vec<TargetReport>,
}

impl FuzzReport {
    /// True when every target upheld the contract.
    pub fn clean(&self) -> bool {
        self.targets.iter().all(TargetReport::clean)
    }

    /// Total panics across targets.
    pub fn panics(&self) -> usize {
        self.targets.iter().map(|t| t.panics).sum()
    }

    /// Canonical JSON (deterministic order; seed-determined values
    /// only).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("seed", self.seed.to_json()),
            ("mutations_per_target", self.mutations_per_target.to_json()),
            ("alloc_tracking", self.alloc_tracking.to_json()),
            ("targets", self.targets.to_json()),
        ])
    }

    /// The canonical `FUZZ_report.json` bytes.
    pub fn render(&self) -> String {
        self.to_json().render()
    }
}

/// Stable per-target seed stream: FNV-1a over the name folded into the
/// master seed.
fn target_seed(seed: u64, name: &str) -> u64 {
    seed ^ holo_runtime::fnv1a64(name.as_bytes())
}

/// Mutants per fork-join work chunk. Fixed — never derived from the
/// thread count — so the chunk layout, every chunk's mutator seed, and
/// therefore every tally in the report are identical at any
/// `SEMHOLO_THREADS`. Chunk 0 reuses the bare target seed, so sweeps of
/// up to `CHUNK_MUTANTS` mutants reproduce the pre-chunking mutant
/// stream exactly.
pub const CHUNK_MUTANTS: usize = 250;

/// Per-chunk mutator seed: splitmix-style odd-constant stride off the
/// target seed (chunk 0 = the target seed itself).
fn chunk_seed(base: u64, chunk: usize) -> u64 {
    base.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(chunk as u64))
}

/// The fixed chunk layout for one target's budget: `(chunk index,
/// mutants in chunk)`. Always at least one chunk, so the corpus
/// round-trip check (folded into chunk 0) runs even at zero mutants.
fn chunk_plan(total: usize) -> Vec<(usize, usize)> {
    let chunks = total.div_ceil(CHUNK_MUTANTS).max(1);
    (0..chunks)
        .map(|c| {
            let lo = c * CHUNK_MUTANTS;
            let hi = (lo + CHUNK_MUTANTS).min(total);
            (c, hi - lo)
        })
        .collect()
}

/// One chunk's tally — a slice of a target's sweep, folded back into
/// the [`TargetReport`] in chunk order.
#[derive(Default)]
struct ChunkTally {
    corpus_ok: usize,
    mutations: usize,
    accepted: usize,
    rejected: usize,
    rejected_by_kind: [usize; 5],
    panics: usize,
    max_alloc: usize,
    cap_exceeded: usize,
    by_family: [usize; 5],
}

impl TargetReport {
    /// Fold one chunk's tally in. Counters add and `max_alloc` takes
    /// the max, so the fold is exact and chunk-order-insensitive — but
    /// the caller folds in chunk order anyway, by construction.
    fn absorb(&mut self, c: &ChunkTally) {
        self.corpus_ok += c.corpus_ok;
        self.mutations += c.mutations;
        self.accepted += c.accepted;
        self.rejected += c.rejected;
        for (a, b) in self.rejected_by_kind.iter_mut().zip(c.rejected_by_kind) {
            *a += b;
        }
        self.panics += c.panics;
        self.max_alloc = self.max_alloc.max(c.max_alloc);
        self.cap_exceeded += c.cap_exceeded;
        for (a, b) in self.by_family.iter_mut().zip(c.by_family) {
            *a += b;
        }
    }
}

/// An empty report shell for `target`, ready to absorb chunk tallies.
fn empty_report(target: &Target) -> TargetReport {
    TargetReport {
        name: target.name.to_string(),
        corpus: target.corpus.len(),
        corpus_ok: 0,
        mutations: 0,
        accepted: 0,
        rejected: 0,
        rejected_by_kind: [0; 5],
        panics: 0,
        max_alloc: 0,
        alloc_cap: target.alloc_cap,
        cap_exceeded: 0,
        by_family: [0; 5],
    }
}

/// Decode `data` under panic capture and allocation watermarking.
/// Returns `(outcome, peak_alloc)`; `outcome` is `None` on panic.
fn guarded_decode(
    target: &Target,
    data: &[u8],
) -> (Option<Result<(), holo_runtime::ser::DecodeError>>, usize) {
    let baseline = alloc::reset_watermark();
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| (target.decode)(data))).ok();
    (outcome, alloc::peak_since(baseline))
}

/// Run one chunk of a target's sweep: the corpus round-trip check when
/// `check_corpus` (chunk 0 only), then `mutants` seeded mutants.
fn sweep_chunk(
    target: &Target,
    base_seed: u64,
    chunk: usize,
    mutants: usize,
    check_corpus: bool,
) -> ChunkTally {
    let mut tally = ChunkTally::default();
    // Leg 3 of the contract: valid input round-trips.
    if check_corpus {
        for item in &target.corpus {
            if matches!(guarded_decode(target, item).0, Some(Ok(()))) {
                tally.corpus_ok += 1;
            }
        }
    }
    // Legs 1 and 2: mutants never panic, never out-allocate the cap.
    let mut mutator = Mutator::new(chunk_seed(base_seed, chunk));
    for _ in 0..mutants {
        let (mutant, family) = mutator.next_mutant(&target.corpus);
        tally.by_family[family] += 1;
        tally.mutations += 1;
        let (outcome, peak) = guarded_decode(target, &mutant);
        tally.max_alloc = tally.max_alloc.max(peak);
        if peak > target.alloc_cap {
            tally.cap_exceeded += 1;
        }
        match outcome {
            None => tally.panics += 1,
            Some(Ok(())) => tally.accepted += 1,
            Some(Err(e)) => {
                tally.rejected += 1;
                let k = KINDS.iter().position(|k| *k == e.kind()).unwrap_or(KINDS.len() - 1);
                tally.rejected_by_kind[k] += 1;
            }
        }
    }
    tally
}

/// Run one target's whole sweep inline (no pool) — same chunk layout
/// and seeds as [`run_sweep`], so the tallies are identical. Test-only:
/// the panic-propagation test needs a sweep without the pool in the way.
#[cfg(test)]
fn sweep_target(cfg: &FuzzConfig, target: &Target) -> TargetReport {
    let base = target_seed(cfg.seed, target.name);
    let mut report = empty_report(target);
    for (chunk, mutants) in chunk_plan(cfg.mutations_per_target) {
        report.absorb(&sweep_chunk(target, base, chunk, mutants, chunk == 0));
    }
    report
}

/// Run the full sweep over [`registry`]. The process panic hook is
/// silenced for the duration and restored afterwards (even if the
/// harness itself unwinds); the hook is process-global, so fork-join
/// workers inherit the silence.
pub fn run_sweep(cfg: &FuzzConfig) -> FuzzReport {
    type PanicHook = Box<dyn Fn(&panic::PanicHookInfo<'_>) + Sync + Send>;
    struct HookGuard(Option<PanicHook>);
    impl Drop for HookGuard {
        fn drop(&mut self) {
            if let Some(hook) = self.0.take() {
                panic::set_hook(hook);
            }
        }
    }
    let guard = HookGuard(Some(panic::take_hook()));
    panic::set_hook(Box::new(|_| {}));

    let targets = registry(cfg.seed);
    // Flatten `targets × chunks` into one work list: chunk-granular
    // items load-balance across targets of very different decode cost,
    // and the fixed layout keeps every tally thread-count-independent.
    let plan = chunk_plan(cfg.mutations_per_target);
    let mut specs: Vec<(usize, usize, usize)> = Vec::with_capacity(targets.len() * plan.len());
    for ti in 0..targets.len() {
        for &(chunk, mutants) in &plan {
            specs.push((ti, chunk, mutants));
        }
    }
    let targets_ref = &targets;
    let seed = cfg.seed;
    let tallies = holo_trace::parallel::par_map(specs, move |(ti, chunk, mutants)| {
        let t = &targets_ref[ti];
        (ti, sweep_chunk(t, target_seed(seed, t.name), chunk, mutants, chunk == 0))
    });

    let mut reports: Vec<TargetReport> = targets.iter().map(empty_report).collect();
    // par_map returns in input order, so each target folds its chunks
    // in chunk order.
    for (ti, tally) in &tallies {
        reports[*ti].absorb(tally);
    }
    let report = FuzzReport {
        seed: cfg.seed,
        mutations_per_target: cfg.mutations_per_target,
        alloc_tracking: alloc::installed(),
        targets: reports,
    };
    drop(guard);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> FuzzConfig {
        FuzzConfig { seed: 7, mutations_per_target: 120 }
    }

    #[test]
    fn sweep_finds_no_contract_violations() {
        let report = run_sweep(&quick());
        assert!(report.clean(), "contract violated: {report:?}");
        assert_eq!(report.panics(), 0);
        for t in &report.targets {
            assert_eq!(t.corpus_ok, t.corpus, "{} corpus broken", t.name);
            assert_eq!(t.mutations, 120);
            assert!(t.rejected > 0, "{} rejected nothing — mutator too gentle", t.name);
        }
    }

    #[test]
    fn report_is_byte_identical_per_seed() {
        let a = run_sweep(&quick());
        let b = run_sweep(&quick());
        assert_eq!(a.render(), b.render());
        let c = run_sweep(&FuzzConfig { seed: 8, mutations_per_target: 120 });
        assert_ne!(a.render(), c.render(), "seed must be observable");
        holo_runtime::ser::parse(&a.render()).expect("canonical JSON parses");
    }

    #[test]
    fn truncations_land_in_the_truncated_bucket() {
        // The taxonomy must be meaningful, not decorative: across the
        // sweep, truncation rejections show up under their own kind.
        let report = run_sweep(&quick());
        let truncated: usize = report.targets.iter().map(|t| t.rejected_by_kind[0]).sum();
        assert!(truncated > 0, "no Truncated rejections anywhere: {report:?}");
        let checksum: usize = report
            .targets
            .iter()
            .find(|t| t.name == "net.wire_frame")
            .map(|t| t.rejected_by_kind[2] + t.rejected_by_kind[0] + t.rejected_by_kind[1])
            .unwrap_or(0);
        assert!(checksum > 0, "wire frames never tripped magic/CRC/truncation");
    }

    #[test]
    fn chunk_layout_is_fixed_and_chunk_zero_preserves_the_stream() {
        // Chunk 0 must replay the pre-chunking mutant stream: same seed.
        assert_eq!(chunk_seed(42, 0), 42);
        assert_ne!(chunk_seed(42, 1), chunk_seed(42, 2));
        // The layout is a pure function of the budget.
        assert_eq!(chunk_plan(0), vec![(0, 0)]);
        assert_eq!(chunk_plan(120), vec![(0, 120)]);
        assert_eq!(chunk_plan(250), vec![(0, 250)]);
        assert_eq!(chunk_plan(600), vec![(0, 250), (1, 250), (2, 100)]);
    }

    #[test]
    fn sweep_is_thread_count_independent() {
        use holo_runtime::par;
        // 300 mutants per target spans two chunks, so the fold across
        // chunk boundaries is exercised, not just single-chunk targets.
        let cfg = FuzzConfig { seed: 7, mutations_per_target: 300 };
        par::set_thread_override(Some(1));
        let one = run_sweep(&cfg).render();
        par::set_thread_override(Some(8));
        let eight = run_sweep(&cfg).render();
        assert_eq!(one, eight, "FUZZ report bytes diverged across thread counts");
    }

    #[test]
    fn panic_capture_actually_captures() {
        // A deliberately broken target proves the harness would see a
        // real panic rather than aborting the sweep.
        let bad = Target {
            name: "test.panics",
            corpus: vec![vec![1, 2, 3]],
            alloc_cap: 1 << 20,
            decode: Box::new(|d| {
                assert!(d.len() > 2, "boom");
                Ok(())
            }),
        };
        let cfg = FuzzConfig { seed: 1, mutations_per_target: 50 };
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let report = sweep_target(&cfg, &bad);
        std::panic::set_hook(prev);
        assert!(report.panics > 0, "harness missed the panic: {report:?}");
        assert!(!report.clean());
    }
}
