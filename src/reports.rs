//! Every committed top-level report and the one recipe that makes its
//! bytes.
//!
//! A report's example writes it through [`write`], and
//! `tests/committed_reports.rs` runs every recipe at thread counts 1, 2
//! and 8 and compares the bytes with the committed file. The
//! `BENCH_*.json` documents are not here: `cargo bench` writes those and
//! `bench_gate` compares their facts. Every recipe is seeded virtual time
//! or byte-derived, so the same code makes the same bytes.

use holo_chaos::{run_gaussian_scenarios, run_scenarios, run_uep_scenarios, ResilienceReport};
use holo_conf::{ParticipantConfig, Room, RoomConfig};
use holo_fleet::{
    fleet_capacity, run_fleet_observed, FleetCapacityConfig, FleetCapacityMeasurement,
    FleetConfig, FleetObservation, FleetTopology, PolicyKind, RoomSpec,
};
use holo_fuzz::{run_sweep, FuzzConfig, FuzzReport};
use holo_gaussian::{FrontierReport, GaussianPipeline, TierCost};
use holo_obs::SloSpec;
use holo_runtime::ser::ToJson;
use semholo::keypoint::{KeypointConfig, KeypointPipeline};
use semholo::session::{Session, SessionConfig};
use semholo::traditional::{MeshWire, TraditionalPipeline};
use semholo::{SceneSource, SemHoloConfig, SemanticPipeline};

/// The seed of every report but the fuzz sweep's.
pub const SEED: u64 = 42;

/// A function that makes one report's bytes.
pub type Recipe = fn() -> String;

/// `(file, recipe)` for every committed report.
pub const REPORTS: [(&str, Recipe); 9] = [
    ("RESILIENCE_chaos.json", resilience_chaos),
    ("SLO_report.json", slo_report),
    ("FUZZ_report.json", fuzz_report),
    ("FLEET_capacity.json", fleet_capacity_report),
    ("SLO_fleet.json", slo_fleet),
    ("UEP_report.json", uep_report),
    ("GAUSSIAN_frontier.json", gaussian_frontier),
    ("TRACE_quickstart.json", trace_quickstart),
    ("TRACE_conference_room.json", trace_conference_room),
];

/// Write `file` into the current directory from its recipe, say so, and
/// return the bytes.
pub fn write(file: &str) -> String {
    let (_, recipe) = REPORTS
        .iter()
        .find(|(name, _)| *name == file)
        .unwrap_or_else(|| panic!("{file} has no recipe"));
    let bytes = recipe();
    std::fs::write(file, &bytes).unwrap_or_else(|e| panic!("write {file}: {e}"));
    println!("wrote {file} ({} bytes, canonical)", bytes.len());
    bytes
}

/// The small rig the gaussian, fleet and conference-trace reports share:
/// 48x36 pixels, two cameras.
fn small_scene(seconds: f32) -> SceneSource {
    let config =
        SemHoloConfig { capture_resolution: (48, 36), camera_count: 2, ..Default::default() };
    SceneSource::new(&config, seconds)
}

/// The chaos matrix (stream plans x mechanisms, sessions, ladder rooms)
/// with the gaussian squeeze cells. `RESILIENCE_chaos.json` is the matrix
/// without them.
pub fn chaos_matrix() -> ResilienceReport {
    let mut report = run_scenarios(SEED);
    report.gaussian = run_gaussian_scenarios(SEED);
    report
}

fn resilience_chaos() -> String {
    run_scenarios(SEED).render()
}

/// Every matrix cell judged against the amortized telepresence SLO.
fn slo_report() -> String {
    chaos_matrix().slo_report(&SloSpec::telepresence_amortized()).render()
}

/// 10 000 seeded mutants per wire decoder at seed 7. The caps are
/// checked only in a binary that installs `holo_fuzz::TrackingAllocator`.
pub fn fuzz_sweep() -> FuzzReport {
    run_sweep(&FuzzConfig { seed: 7, mutations_per_target: 10_000 })
}

fn fuzz_report() -> String {
    fuzz_sweep().render()
}

/// `regions` x `nodes_per_region` SFU nodes of 60 Mbps egress, so the
/// capacity search converges in the tens of rooms, joined by 400 Mbps
/// cascade links.
fn fleet_topology(regions: usize, nodes_per_region: usize) -> FleetTopology {
    FleetTopology::uniform(regions, nodes_per_region, 60e6, 400e6, 1.0, 20.0)
}

/// The keypoint pipeline the fleet rooms and the conference trace run:
/// resolution 32, seeded by room.
fn small_keypoint(seed: usize) -> Box<dyn SemanticPipeline> {
    let config = KeypointConfig { resolution: 32, ..Default::default() };
    Box::new(KeypointPipeline::new(config, seed as u64))
}

/// The monotone room-count search on [`fleet_topology`]: keypoint rooms
/// of four on 100 Mbps access links, least-loaded placement.
pub fn fleet_capacity_on(regions: usize, nodes_per_region: usize) -> FleetCapacityMeasurement {
    let cfg = FleetCapacityConfig {
        topology: fleet_topology(regions, nodes_per_region),
        room_size: 4,
        access_bps: 100e6,
        frames: 5,
        seed: SEED,
        policy: PolicyKind::LeastLoaded,
        max_rooms: 256,
        min_usable_rate: 0.9,
    };
    fleet_capacity(&cfg, &small_scene(0.5), &small_keypoint).expect("fleet capacity")
}

/// The largest fleet of the example's curve: two regions of four nodes.
fn fleet_capacity_report() -> String {
    fleet_capacity_on(2, 4).to_json().render()
}

/// A 2-node fleet whose 4-party room spans both regions, beside a
/// 3-party room in one, traced and judged against the amortized
/// telepresence SLO.
pub fn fleet_observed() -> FleetObservation {
    let cfg = FleetConfig {
        topology: fleet_topology(2, 1),
        rooms: vec![
            RoomSpec { participant_regions: vec![0, 0, 1, 1], access_bps: 100e6 },
            RoomSpec::uniform(3, 0, 100e6),
        ],
        policy: PolicyKind::LeastLoaded,
        frames: 5,
        seed: SEED,
        ..Default::default()
    };
    let spec = SloSpec::telepresence_amortized();
    run_fleet_observed(&cfg, &small_scene(0.5), &small_keypoint, &spec).expect("observed fleet")
}

fn slo_fleet() -> String {
    fleet_observed().to_json().render()
}

/// Weighted vs uniform protection at an equal redundancy budget, with
/// per-plan verdicts against the telepresence SLO.
fn uep_report() -> String {
    holo_chaos::uep_report(SEED, &run_uep_scenarios(SEED), &SloSpec::telepresence()).render()
}

/// The compressed-mesh, gaussian and keypoint tiers' cost models, in
/// that order: mean payload over frames 1..15 of the small rig at
/// 30 fps, after a cold-start frame 0 that builds codebooks and the
/// gaussian prebuild.
pub fn gaussian_tiers() -> [TierCost; 3] {
    let scene = small_scene(0.5);
    let steady = |pipeline: &mut dyn SemanticPipeline| {
        pipeline.encode(&scene.frame(0)).expect("cold start");
        let total: usize =
            (1..15).map(|i| pipeline.encode(&scene.frame(i)).expect("encode").payload.len()).sum();
        total as f64 / 14.0
    };
    let mut gaussian = GaussianPipeline::default();
    let g = steady(&mut gaussian);
    let m = steady(&mut TraditionalPipeline::new(MeshWire::Compressed, 14));
    let config = KeypointConfig { resolution: 64, ..Default::default() };
    let k = steady(&mut KeypointPipeline::new(config, SEED));
    let tier = |name: &str, prebuild_bytes: u64, payload: f64| TierCost {
        name: name.into(),
        prebuild_bytes,
        steady_bps: payload * 8.0 * 30.0,
    };
    let prebuild = gaussian.prebuild_bytes() as u64;
    [tier("mesh", 0, m), tier("gaussian", prebuild, g), tier("keypoints", 0, k)]
}

/// Break-even call durations over the measured gaussian point and a
/// grid of bigger prebuilds and richer update streams.
fn gaussian_frontier() -> String {
    let tiers = gaussian_tiers();
    let g = &tiers[1];
    let sizes = [g.prebuild_bytes, 100_000, 1_000_000, 10_000_000];
    let rates = [g.steady_bps, 50e3, 100e3, 200e3];
    FrontierReport::sweep(tiers.to_vec(), &sizes, &rates).to_json().render() + "\n"
}

/// The quickstart's session trace: 30 frames of the default 1 s scene
/// through a keypoint pipeline (resolution 128) that has already sent
/// and reconstructed frame 10, stamped in virtual time.
fn trace_quickstart() -> String {
    let scene = SceneSource::new(&SemHoloConfig::default(), 1.0);
    let mut pipeline =
        KeypointPipeline::new(KeypointConfig { resolution: 128, ..Default::default() }, SEED);
    let payload = pipeline.encode(&scene.frame(10)).expect("encode").payload;
    pipeline.decode(&payload).expect("decode");
    holo_trace::traced(|| Session::new(SessionConfig::default()).run(&mut pipeline, &scene, 30))
        .expect("traced session");
    holo_trace::chrome_trace()
}

/// Two frames of a 4-party keypoint room on 100 Mbps links, one shared
/// encoder, stamped in virtual time.
fn trace_conference_room() -> String {
    let cfg = RoomConfig {
        participants: ParticipantConfig::uniform_room(4, 100e6),
        frames: 2,
        share_encoder: true,
        ..Default::default()
    };
    let mut room = Room::new(cfg).expect("room");
    let pipelines = &mut [small_keypoint(SEED as usize)];
    holo_trace::traced(|| room.run(&small_scene(0.4), pipelines)).expect("traced room");
    holo_trace::chrome_trace()
}
