//! Parallel determinism: every canonical artifact — `RoomReport`,
//! `FUZZ_report`, chrome traces, metric snapshots, fleet reports — is
//! byte-identical across `SEMHOLO_THREADS` 1, 2, and 8. (The committed
//! reports, `RESILIENCE_chaos.json` among them, are compared byte for
//! byte at the same thread counts by `tests/committed_reports.rs`.)
//!
//! This is the conformance suite for the fork-join pool's contract:
//! fixed partitioning, canonical-order merge, and the trace recorder's
//! `(start_us, lane, seq)` re-sort at scope exit. At threads 2 and 8 a
//! document that differs from its thread-1 bytes is named with the first
//! JSON path that moved. Each artifact's FNV-1a digest is additionally
//! checked against a golden pinned here, so a regression that changes
//! the bytes *identically at every thread count* (e.g. a silent seed
//! change) still fails loudly.

mod support;

use holo_chaos::harness::run_scenarios;
use holo_conf::{ParticipantConfig, Room, RoomConfig};
use holo_fleet::{run_fleet, run_fleet_observed, FleetConfig, FleetTopology, RoomSpec};
use holo_fuzz::{run_sweep, FuzzConfig};
use holo_runtime::ser::JsonValue;
use holo_runtime::{fnv1a64, par};
use semholo::keypoint::{KeypointConfig, KeypointPipeline};
use semholo::semantics::SemanticPipeline;
use semholo::{SceneSource, SemHoloConfig};

fn scene() -> SceneSource {
    let config =
        SemHoloConfig { capture_resolution: (48, 36), camera_count: 2, ..Default::default() };
    SceneSource::new(&config, 0.5)
}

fn room_report() -> String {
    let cfg = RoomConfig {
        participants: ParticipantConfig::uniform_room(3, 25e6),
        frames: 5,
        seed: 42,
        share_encoder: true,
        ..Default::default()
    };
    let mut pipelines: Vec<Box<dyn SemanticPipeline>> = vec![Box::new(KeypointPipeline::new(
        KeypointConfig { resolution: 24, ..Default::default() },
        7,
    ))];
    Room::new(cfg).unwrap().run(&scene(), &mut pipelines).unwrap().render()
}

fn fleet_cfg() -> FleetConfig {
    FleetConfig {
        topology: FleetTopology::uniform(2, 1, 1e9, 1e9, 1.0, 20.0),
        rooms: vec![
            RoomSpec::uniform(3, 0, 25e6),
            RoomSpec { participant_regions: vec![0, 1, 1], access_bps: 25e6 },
        ],
        frames: 4,
        seed: 9,
        ..Default::default()
    }
}

fn fleet_make(room: usize) -> Box<dyn SemanticPipeline> {
    Box::new(KeypointPipeline::new(
        KeypointConfig { resolution: 24, ..Default::default() },
        room as u64,
    ))
}

fn fleet_report() -> String {
    run_fleet(&fleet_cfg(), &scene(), &fleet_make).unwrap().report.render()
}

/// The SLO + attribution document for the same fleet: verdicts, node
/// floors, and the exact stage budgets all ride on spans recorded by
/// parallel workers, so this digest pins the whole observability path.
fn fleet_slo_doc() -> String {
    let spec = holo_obs::SloSpec::telepresence();
    run_fleet_observed(&fleet_cfg(), &scene(), &fleet_make, &spec)
        .unwrap()
        .to_json()
        .render()
}

/// One full artifact set at the current thread count, as JSON
/// documents: `(room, fuzz, chrome trace, metric counters, fleet,
/// SLO_fleet)`, plus the traced run's exact metric sections (counters
/// and deterministic histograms) rendered as text.
fn artifacts() -> ([String; 6], String) {
    let room = room_report();
    // 600 mutants per target spans three fixed 250-mutant chunks, so
    // the cross-chunk fold is exercised, not just chunk 0.
    let fuzz = run_sweep(&FuzzConfig { seed: 7, mutations_per_target: 600 }).render();
    // A traced chaos matrix: worker spans (chaos.outage) and counters
    // (chaos.*) must merge into the caller's recorder identically.
    // Only the counters section is digested into the golden; the
    // histograms that hold no wall-clock value are integer sketches,
    // exact to merge in any split, and are compared between thread
    // counts by the caller. Gauges keep a float sum and are left out.
    let _ = holo_trace::traced(|| run_scenarios(42));
    let chrome = holo_trace::chrome_trace();
    let stripped = support::strip_nondeterministic(&holo_trace::snapshot_json());
    let counters = stripped.get("counters").expect("snapshot has a counters section").render();
    let histograms = stripped.get("histograms").expect("snapshot has a histograms section");
    assert!(histograms.get("transport.frame_latency_us").is_some(), "{}", histograms.render());
    let exact_metrics = format!("{counters}\n{}", histograms.render());
    holo_trace::reset();
    ([room, fuzz, chrome, counters, fleet_report(), fleet_slo_doc()], exact_metrics)
}

/// Goldens for the artifact set (order: room, fuzz, chrome, snapshot,
/// fleet, SLO_fleet). Pinned from a `SEMHOLO_THREADS=1` run; the test
/// proves every other thread count produces the same bytes.
const GOLDEN: [u64; 6] = [
    0xdc36754bb8f72046,
    0x2087427d0ad701ac,
    0x6c7cc21eb89536be,
    0x081d05a7c180489e,
    0x8fe6f3f4bc3ff94e,
    0xc832c977a97ed3b5,
];

#[test]
fn reports_and_traces_byte_identical_at_threads_1_2_8() {
    // One test drives all thread counts, so that threads 2 and 8 are
    // each compared with the thread-1 bytes of this run.
    let names =
        ["RoomReport", "FUZZ_report", "chrome_trace", "metrics", "FleetReport", "SLO_fleet"];
    let mut at_1 = None;
    for t in [1usize, 2, 8] {
        par::set_thread_override(Some(t));
        let (documents, exact_metrics) = artifacts();
        let (documents_1, exact_metrics_1) =
            at_1.get_or_insert_with(|| (documents.clone(), exact_metrics.clone()));
        assert_eq!(
            &exact_metrics, exact_metrics_1,
            "counters + deterministic histograms diverged at SEMHOLO_THREADS={t}"
        );
        for (i, name) in names.iter().enumerate() {
            if let Some(why) = support::difference(&documents_1[i], &documents[i]) {
                panic!("{name} at SEMHOLO_THREADS={t} is not its SEMHOLO_THREADS=1 bytes: {why}");
            }
            let digest = fnv1a64(documents[i].as_bytes());
            assert_eq!(
                digest, GOLDEN[i],
                "{name} diverged at SEMHOLO_THREADS={t}: {digest:#018x} != golden {:#018x}",
                GOLDEN[i]
            );
        }
    }
}

#[test]
fn snapshot_strip_removes_only_flagged_histograms() {
    let mut m = holo_trace::Metrics::default();
    m.counter("frames", 3);
    m.histogram("stage_us", 1_000);
    m.wall_time("compress.lzma.encode_us", std::time::Duration::from_millis(3));
    let stripped = support::strip_nondeterministic(&m.to_json());
    let Some(JsonValue::Obj(histograms)) = stripped.get("histograms") else {
        panic!("no histograms section: {}", stripped.render());
    };
    let kept: Vec<&str> = histograms.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(kept, ["stage_us"]);
    let text = stripped.render();
    assert!(text.contains("\"frames\":3"), "{text}");
    // Stripping is idempotent and keeps canonical key order.
    assert_eq!(support::strip_nondeterministic(&stripped).render(), text);
}

#[test]
fn flag_filter_drops_wall_clock_histograms() {
    let mut m = holo_trace::Metrics::default();
    m.histogram("stage_us", 1_000);
    m.wall_time("compress.lzma.encode_us", std::time::Duration::from_millis(3));
    let stripped = support::strip_nondeterministic(&m.to_json());
    let Some(JsonValue::Obj(kept)) = stripped.get("histograms") else {
        panic!("no histograms section: {}", stripped.render());
    };
    assert_eq!(kept.len(), 1);
    assert_eq!(kept[0].0, "stage_us");
}
