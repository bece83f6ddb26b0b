//! Trace determinism: holo-trace's chrome://tracing export is
//! byte-identical across runs of the same seed, because every span is
//! stamped in virtual `SimTime` rather than wall clock. These tests pin
//! that property for both the point-to-point session and the N-party
//! room, plus the contracts that a disabled recorder stays empty and
//! that the traced-run scope always puts the thread's switch back.

use holo_conf::{ParticipantConfig, Room, RoomConfig};
use semholo::keypoint::{KeypointConfig, KeypointPipeline};
use semholo::session::{Session, SessionConfig};
use semholo::{SceneSource, SemHoloConfig, SemanticPipeline};

fn scene() -> SceneSource {
    let config = SemHoloConfig {
        capture_resolution: (48, 36),
        camera_count: 2,
        ..Default::default()
    };
    SceneSource::new(&config, 0.5)
}

#[test]
fn session_trace_is_byte_identical_across_runs() {
    let scene = scene();
    let run = || {
        let mut pipeline =
            KeypointPipeline::new(KeypointConfig { resolution: 32, ..Default::default() }, 3);
        let mut session = Session::new(SessionConfig::default());
        holo_trace::traced(|| session.run(&mut pipeline, &scene, 6)).unwrap();
        (holo_trace::chrome_trace(), holo_trace::trace_report())
    };
    let (b1, t1) = run();
    let (b2, t2) = run();
    assert!(!b1.is_empty());
    assert_eq!(b1, b2, "same-seed session traces must be byte-identical");
    assert_eq!(t1.table(), t2.table());
    // The five pipeline stages cover every frame.
    for stage in ["extract", "encode", "transmit", "decode", "render"] {
        assert_eq!(t1.get(stage).map(|s| s.count), Some(6), "stage {stage}");
    }
    holo_runtime::ser::parse(&b1).expect("chrome trace must be valid JSON");
}

#[test]
fn room_trace_is_byte_identical_across_runs() {
    let scene = scene();
    let run = || {
        let cfg = RoomConfig {
            participants: ParticipantConfig::uniform_room(3, 25e6),
            frames: 4,
            seed: 11,
            share_encoder: true,
            ..Default::default()
        };
        let mut room = Room::new(cfg).unwrap();
        let mut pipes: Vec<Box<dyn SemanticPipeline>> = vec![Box::new(KeypointPipeline::new(
            KeypointConfig { resolution: 24, ..Default::default() },
            7,
        ))];
        let report = holo_trace::traced(|| room.run(&scene, &mut pipes)).unwrap();
        (report, holo_trace::chrome_trace(), holo_trace::trace_report())
    };
    let (r1, b1, t1) = run();
    let (_, b2, t2) = run();
    assert_eq!(r1.participants, 3);
    assert_eq!(b1, b2, "same-seed room traces must be byte-identical");
    assert_eq!(t1.table(), t2.table());
    // 3 senders x 4 frames, each fanned out to 2 subscribers.
    assert_eq!(t1.get("room.extract").map(|s| s.count), Some(12));
    assert_eq!(t1.get("room.uplink").map(|s| s.count), Some(12));
    assert_eq!(t1.get("room.forward").map(|s| s.count), Some(24));
}

#[test]
fn disabled_recorder_stays_empty() {
    if std::env::var_os("SEMHOLO_TRACE").is_some() {
        // The variable turns tracing on for every thread of this process,
        // so the disabled path runs in a child without it.
        let child = std::process::Command::new(std::env::current_exe().unwrap())
            .args(["disabled_recorder_stays_empty", "--exact"])
            .env_remove("SEMHOLO_TRACE")
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&child.stdout);
        assert!(child.status.success() && stdout.contains("1 passed"), "the untraced run failed:\n{stdout}");
        return;
    }
    holo_trace::reset();
    let scene = scene();
    let mut pipeline =
        KeypointPipeline::new(KeypointConfig { resolution: 32, ..Default::default() }, 3);
    let mut session = Session::new(SessionConfig::default());
    session.run(&mut pipeline, &scene, 3).unwrap();
    // The pipeline's stage timers and the transport's histograms ran
    // too: with the flag off none of them may leave anything behind.
    holo_trace::WallTimer::start().stop("test.disabled_us");
    holo_trace::histogram("test.disabled_bytes", 1);
    let (spans, metrics_empty) =
        holo_trace::with_recorder(|r| (r.spans.len(), r.metrics.is_empty()));
    assert_eq!(spans, 0, "disabled tracing must record no spans");
    assert!(metrics_empty, "disabled tracing must record no counter, gauge or histogram");
}

#[test]
fn traced_scope_restores_the_flag_on_err_and_on_panic() {
    let before = holo_trace::enabled();

    let failed: Result<(), &str> = holo_trace::traced(|| {
        assert!(holo_trace::enabled(), "the scope forces tracing on");
        holo_trace::counter("scope.ran", 1);
        Err("the run failed")
    });
    assert_eq!(failed, Err("the run failed"));
    assert_eq!(holo_trace::enabled(), before, "flag not restored after Err");
    // What the closure recorded is still readable after the scope.
    assert_eq!(holo_trace::with_recorder(|r| r.metrics.counter_value("scope.ran")), 1);

    let unwound = std::panic::catch_unwind(|| holo_trace::traced(|| panic!("the run panicked")));
    assert!(unwound.is_err());
    assert_eq!(holo_trace::enabled(), before, "flag not restored after a panic");

    holo_trace::traced(|| {
        holo_trace::traced(|| ());
        assert!(holo_trace::enabled(), "a previously-enabled flag must stay enabled");
    });
    assert_eq!(holo_trace::enabled(), before, "nested scopes must restore the outer flag");
    holo_trace::reset();
}
