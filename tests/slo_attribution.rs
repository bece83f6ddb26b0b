//! Latency attribution and SLO verdicts: cross-crate conformance.
//!
//! Three contracts from `holo-obs` are pinned here against the real
//! simulations (not synthetic spans):
//!
//! 1. **Exact tiling** — for every delivered frame the per-stage
//!    budgets sum, in integer microseconds, to the measured end-to-end
//!    latency. No rounding residue, at session, room, and fleet scale.
//! 2. **Thread invariance** — SLO verdict documents are byte-identical
//!    across `SEMHOLO_THREADS` settings, like every other canonical
//!    artifact.
//! 3. **Merge exactness** — `LatencySketch::absorb` produces the same
//!    state as single-pass recording, for arbitrary inputs.

use holo_conf::{ParticipantConfig, Room, RoomConfig};
use holo_fleet::{run_fleet_observed, FleetConfig, FleetTopology, PolicyKind, RoomSpec};
use holo_obs::{Attribution, AttributionOptions, LatencySketch, SloSpec, Stage};
use holo_runtime::check::{any, collection};
use holo_runtime::par;
use holo_runtime::{holo_prop, prop_assert, prop_assert_eq};
use holo_trace::SpanEvent;
use semholo::keypoint::{KeypointConfig, KeypointPipeline};
use semholo::session::{Session, SessionConfig};
use semholo::{SceneSource, SemHoloConfig, SemanticPipeline};

fn scene() -> SceneSource {
    let config =
        SemHoloConfig { capture_resolution: (48, 36), camera_count: 2, ..Default::default() };
    SceneSource::new(&config, 0.5)
}

/// Run `f` with tracing force-enabled; hand back its output plus the
/// recorded spans, restoring the previous enable state.
fn traced<T>(f: impl FnOnce() -> T) -> (T, Vec<SpanEvent>) {
    let out = holo_trace::traced(f);
    let spans = holo_trace::with_recorder(|r| std::mem::take(&mut r.spans));
    holo_trace::reset();
    (out, spans)
}

#[test]
fn session_attribution_tiles_every_delivered_frame() {
    let (report, spans) = traced(|| {
        let mut pipeline =
            KeypointPipeline::new(KeypointConfig { resolution: 32, ..Default::default() }, 3);
        Session::new(SessionConfig::default()).run(&mut pipeline, &scene(), 8).unwrap()
    });
    let mut attr = Attribution::default();
    attr.ingest_spans(&spans, &AttributionOptions::default()).expect("tiling must hold");
    let out = attr.finish();
    assert_eq!(out.frames as usize, report.delivered, "one path per delivered frame");
    assert_eq!(out.incomplete as usize, report.frames.len() - report.delivered);
    assert!(out.tiles_exactly(), "stage budgets must sum exactly to e2e");
    assert_eq!(out.e2e.count, out.frames);
    for stage in [Stage::Extract, Stage::Encode, Stage::Uplink, Stage::Decode, Stage::Render] {
        assert!(out.stage(stage).total_us > 0, "stage {stage:?} must carry time");
    }
    // Sessions never cross an SFU or a cascade.
    assert_eq!(out.stage(Stage::SfuForward).total_us, 0);
    assert_eq!(out.stage(Stage::CascadeHop).total_us, 0);
}

#[test]
fn room_attribution_tiles_every_usable_copy() {
    let (report, spans) = traced(|| {
        let cfg = RoomConfig {
            participants: ParticipantConfig::uniform_room(3, 25e6),
            frames: 5,
            seed: 42,
            share_encoder: true,
            ..Default::default()
        };
        let mut pipes: Vec<Box<dyn SemanticPipeline>> = vec![Box::new(KeypointPipeline::new(
            KeypointConfig { resolution: 24, ..Default::default() },
            7,
        ))];
        Room::new(cfg).unwrap().run(&scene(), &mut pipes).unwrap()
    });
    let mut attr = Attribution::default();
    attr.ingest_spans(&spans, &AttributionOptions::default()).expect("tiling must hold");
    let out = attr.finish();
    let usable: usize = report.subscribers.iter().map(|s| s.usable).sum();
    assert_eq!(out.frames as usize, usable, "one path per usable (subscriber, frame) copy");
    assert!(out.tiles_exactly());
    // Room paths decompose into extract/uplink/forward/decode/render.
    for stage in [Stage::Extract, Stage::Uplink, Stage::SfuForward, Stage::Decode, Stage::Render] {
        assert!(out.stage(stage).total_us > 0, "stage {stage:?} must carry time");
    }
    // Per-lane budgets cover every subscriber lane that received frames.
    let lanes_with_frames =
        report.subscribers.iter().filter(|s| s.usable > 0).count();
    assert_eq!(out.per_lane.len(), lanes_with_frames);
}

#[test]
fn slo_documents_are_byte_identical_across_thread_counts() {
    let spec = SloSpec::telepresence();
    let fleet_doc = || {
        let cfg = FleetConfig {
            topology: FleetTopology::uniform(2, 1, 1e9, 1e9, 1.0, 40.0),
            rooms: vec![
                RoomSpec { participant_regions: vec![0, 0, 1], access_bps: 25e6 },
                RoomSpec::uniform(3, 0, 25e6),
            ],
            policy: PolicyKind::RoundRobin,
            frames: 4,
            seed: 9,
            ..Default::default()
        };
        let make = |room: usize| -> Box<dyn SemanticPipeline> {
            Box::new(KeypointPipeline::new(
                KeypointConfig { resolution: 24, ..Default::default() },
                room as u64,
            ))
        };
        run_fleet_observed(&cfg, &scene(), &make, &spec).unwrap().to_json().render()
    };
    let room_doc = || {
        let cfg = RoomConfig {
            participants: ParticipantConfig::uniform_room(3, 25e6),
            frames: 5,
            seed: 42,
            share_encoder: true,
            ..Default::default()
        };
        let mut pipes: Vec<Box<dyn SemanticPipeline>> = vec![Box::new(KeypointPipeline::new(
            KeypointConfig { resolution: 24, ..Default::default() },
            7,
        ))];
        let report = Room::new(cfg).unwrap().run(&scene(), &mut pipes).unwrap();
        report
            .slo_verdicts(&spec)
            .iter()
            .map(|v| v.line())
            .chain([report.slo_room(&spec).line()])
            .collect::<Vec<_>>()
            .join("\n")
    };
    par::set_thread_override(Some(1));
    let fleet_1 = fleet_doc();
    let room_1 = room_doc();
    par::set_thread_override(Some(8));
    let fleet_8 = fleet_doc();
    let room_8 = room_doc();
    assert_eq!(fleet_1, fleet_8, "SLO_fleet document must not depend on thread count");
    assert_eq!(room_1, room_8, "room SLO verdicts must not depend on thread count");
    holo_runtime::ser::parse(&fleet_1).expect("fleet SLO doc parses");
}

holo_prop! {
    #![cases(64)]

    /// Sketch merge is exact: absorbing two independently-recorded
    /// sketches equals recording everything into one, for arbitrary
    /// values (including overflow past 2^40 µs).
    fn sketch_absorb_equals_single_pass(
        a in collection::vec(any::<u64>(), 0..40),
        b in collection::vec(any::<u64>(), 0..40),
    ) {
        let mut single = LatencySketch::default();
        let mut left = LatencySketch::default();
        let mut right = LatencySketch::default();
        for &v in &a {
            single.record(v);
            left.record(v);
        }
        for &v in &b {
            single.record(v);
            right.record(v);
        }
        left.absorb(&right);
        prop_assert_eq!(left.count, single.count);
        prop_assert_eq!(left.sum_us, single.sum_us);
        prop_assert_eq!(left.min_us, single.min_us);
        prop_assert_eq!(left.max_us, single.max_us);
        prop_assert_eq!(left.overflow, single.overflow);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            prop_assert_eq!(left.quantile_us(q), single.quantile_us(q), "q={}", q);
        }
        prop_assert!(
            left.to_json().render() == single.to_json().render(),
            "merged sketch must serialize identically"
        );
    }
}
