//! Fuzzing every wire decoder, deterministically.
//!
//! Sweeps the full `holo-fuzz` target registry — every public decoder
//! that ever sees network bytes — with 10 000 seeded mutants per
//! target (truncations, bit flips, splices, length-field inflation),
//! and enforces the three-legged hostile-input contract: never panic,
//! never allocate past the declared cap, round-trip valid input. This
//! binary installs the tracking allocator, so the cap check is real.
//!
//! Writes the canonical `FUZZ_report.json` from its recipe in
//! `semholo_repro::reports`. Exits non-zero on any contract violation.
//!
//! Run with: `cargo run --release --example fuzz_sweep`

use holo_fuzz::TrackingAllocator;
use semholo_repro::reports;

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

fn main() {
    println!("fuzz sweep: seed 7, 10000 mutants per target, allocation caps enforced\n");
    let report = reports::fuzz_sweep();

    println!(
        "{:<24} {:>7} {:>8} {:>8} {:>7} {:>12} {:>8}",
        "target", "corpus", "accepted", "rejected", "panics", "max_alloc", "over_cap"
    );
    for t in &report.targets {
        println!(
            "{:<24} {:>4}/{:<2} {:>8} {:>8} {:>7} {:>10}KB {:>8}",
            t.name,
            t.corpus_ok,
            t.corpus,
            t.accepted,
            t.rejected,
            t.panics,
            t.max_alloc / 1024,
            t.cap_exceeded,
        );
    }
    println!();
    reports::write("FUZZ_report.json");

    assert!(report.alloc_tracking, "tracking allocator not installed?");
    if !report.clean() {
        for t in report.targets.iter().filter(|t| !t.clean()) {
            eprintln!(
                "CONTRACT VIOLATION: {} (panics {}, over-cap {}, corpus {}/{})",
                t.name, t.panics, t.cap_exceeded, t.corpus_ok, t.corpus
            );
        }
        std::process::exit(1);
    }
    println!("hostile-input contract holds: 0 panics, 0 over-cap allocations");
}
