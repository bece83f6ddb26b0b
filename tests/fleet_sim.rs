//! Fleet-level conformance: embedding fidelity, the cascade invariant,
//! and thread-count byte-identity.
//!
//! The fleet's contract has three load-bearing claims:
//! 1. a 1-node fleet is *exactly* a standalone `holo_conf::Room` — the
//!    embedding adds nothing unless a room spans nodes;
//! 2. cascade forwarding ships one copy per (publisher, edge, frame),
//!    never one per remote subscriber, and the saving is measured in
//!    bytes on the inter-node links;
//! 3. `SEMHOLO_THREADS` is a pure wall-clock knob: the `FleetReport`
//!    renders byte-identically at 1, 2, and 8 threads.

use holo_conf::{ParticipantConfig, Room, RoomConfig};
use holo_fleet::{
    fleet_capacity, room_seed, run_fleet, FleetCapacityConfig, FleetConfig, FleetTopology,
    PolicyKind, RoomSpec,
};
use holo_runtime::{fnv1a64, par};
use semholo::keypoint::{KeypointConfig, KeypointPipeline};
use semholo::semantics::SemanticPipeline;
use semholo::{SceneSource, SemHoloConfig};

fn scene() -> SceneSource {
    let config =
        SemHoloConfig { capture_resolution: (48, 36), camera_count: 2, ..Default::default() };
    SceneSource::new(&config, 0.5)
}

fn make_pipeline(room: usize) -> Box<dyn SemanticPipeline> {
    Box::new(KeypointPipeline::new(
        KeypointConfig { resolution: 24, ..Default::default() },
        room as u64,
    ))
}

#[test]
fn one_node_fleet_reproduces_standalone_room_byte_for_byte() {
    let scene = scene();
    let fleet_cfg = FleetConfig {
        topology: FleetTopology::single(1e9),
        rooms: vec![RoomSpec::uniform(3, 0, 25e6)],
        frames: 5,
        seed: 42,
        ..Default::default()
    };
    let run = run_fleet(&fleet_cfg, &scene, &make_pipeline).unwrap();

    // The standalone twin: same participants, same derived room seed,
    // same pipeline seed the fleet hands room 0.
    let standalone_cfg = RoomConfig {
        participants: ParticipantConfig::uniform_room(3, 25e6),
        frames: 5,
        keyframe_interval: fleet_cfg.keyframe_interval,
        latency_budget_ms: fleet_cfg.latency_budget_ms,
        seed: room_seed(42, 0),
        share_encoder: true,
        ..Default::default()
    };
    let mut pipelines = vec![make_pipeline(0)];
    let standalone =
        Room::new(standalone_cfg).unwrap().run(&scene, &mut pipelines).unwrap();
    assert_eq!(
        run.rooms[0].render(),
        standalone.render(),
        "a 1-node fleet must add nothing to the embedded room"
    );
    // And the fleet knows no cascade traffic existed.
    assert_eq!(run.report.cascade_bytes_offered, 0);
    assert!(!run.report.first_bottleneck.contains("cascade"));
}

#[test]
fn cascade_ships_one_copy_per_link_and_beats_naive_forwarding() {
    // A 6-party room split 3/3 across two single-node regions; home is
    // node 0 (majority tie breaks low).
    let frames = 4;
    let cfg = FleetConfig {
        topology: FleetTopology::uniform(2, 1, 1e9, 1e9, 1.0, 20.0),
        rooms: vec![RoomSpec {
            participant_regions: vec![0, 0, 0, 1, 1, 1],
            access_bps: 50e6,
        }],
        policy: PolicyKind::RoundRobin,
        frames,
        seed: 7,
        ..Default::default()
    };
    let run = run_fleet(&cfg, &scene(), &make_pipeline).unwrap();
    assert_eq!(run.placements[0].home, 0);

    let edge = |from: usize, to: usize| {
        run.report
            .cascade_edges
            .iter()
            .find(|e| e.from == from && e.to == to)
            .unwrap_or_else(|| panic!("missing cascade edge {from}->{to}"))
    };
    // Uplink leg: publishers 3,4,5 each ship one copy per frame 1->0.
    let e10 = edge(1, 0);
    assert_eq!(e10.offered_copies as usize, 3 * frames);
    // Fan-out leg: every publisher has >= 1 subscriber on node 1, so
    // 0->1 carries exactly one copy per publisher per frame — 6, not
    // the per-subscriber 15.
    let e01 = edge(0, 1);
    assert_eq!(e01.offered_copies as usize, 6 * frames);

    // Byte accounting. All copies of a frame share its wire size, so
    // with W = total wire bytes of one stream over the run:
    //   cascade = 3W (uplinks) + 6W (fan-out) = 9W = 3 * e10_bytes
    //   naive   = 3W + (3*3 + 3*2)W          = 18W = 6 * e10_bytes
    assert_eq!(run.report.cascade_bytes_offered, 3 * e10.offered_bytes);
    assert_eq!(run.report.naive_bytes_offered, 6 * e10.offered_bytes);
    assert!(
        run.report.cascade_bytes_offered < run.report.naive_bytes_offered,
        "cascade must save inter-node bytes"
    );
    assert!((run.report.cascade_savings() - 0.5).abs() < 1e-12, "9W of 18W saved");
}

#[test]
fn fleet_report_byte_identical_across_thread_counts() {
    let cfg = FleetConfig {
        topology: FleetTopology::uniform(2, 2, 1e9, 1e9, 1.0, 20.0),
        rooms: vec![
            RoomSpec::uniform(3, 0, 25e6),
            RoomSpec { participant_regions: vec![0, 1, 1], access_bps: 25e6 },
            RoomSpec::uniform(4, 1, 25e6),
            RoomSpec { participant_regions: vec![0, 0, 1], access_bps: 10e6 },
        ],
        frames: 4,
        seed: 9,
        ..Default::default()
    };
    let scene = scene();
    let render_at = |threads: usize| {
        par::set_thread_override(Some(threads));
        let run = run_fleet(&cfg, &scene, &make_pipeline).unwrap();
        (run.report.render(), run.rooms.iter().map(|r| r.render()).collect::<Vec<_>>())
    };
    let (report1, rooms1) = render_at(1);
    for t in [2usize, 8] {
        let (report_t, rooms_t) = render_at(t);
        assert_eq!(report1, report_t, "FleetReport diverged at SEMHOLO_THREADS={t}");
        assert_eq!(rooms1, rooms_t, "per-room reports diverged at SEMHOLO_THREADS={t}");
    }
}

/// Pins every placement policy end to end: the `FleetReport` bytes and
/// the placements of a mixed-region fleet, and the capacity search's
/// verdict on a tight fleet. Written against the trait-object policies
/// so the move to plain `PolicyKind` functions is held to these bytes.
#[test]
fn every_policy_places_and_sizes_as_pinned() {
    let scene = scene();
    let rooms: Vec<RoomSpec> = [
        vec![0, 0, 1],
        vec![0, 1, 2],
        vec![0, 0, 2, 1],
        vec![1, 1, 2],
        vec![0, 0, 0],
        vec![2, 2, 0],
        vec![0, 1],
        vec![1, 1, 1, 0],
        vec![0, 2, 0],
    ]
    .into_iter()
    .map(|participant_regions| RoomSpec { participant_regions, access_bps: 25e6 })
    .collect();
    let pins = [
        (PolicyKind::RoundRobin, 0xec01c6294b8ac452, 0xf4d901fb39e8cd27, 2, "cascade:0->1"),
        (PolicyKind::LeastLoaded, 0x16cc1ebbfaab21f3, 0x838a875b8807b749, 4, "cascade:2->3"),
        (PolicyKind::RegionAffinity, 0x0c18c8acf2faae8a, 0xae872765ac2501f0, 8, "node-egress:0"),
    ];
    for (policy, report_digest, placement_digest, max_rooms, bottleneck) in pins {
        let cfg = FleetConfig {
            topology: FleetTopology::uniform(3, 2, 1e9, 1e9, 1.0, 20.0),
            rooms: rooms.clone(),
            policy,
            frames: 4,
            seed: 5,
            ..Default::default()
        };
        let run = run_fleet(&cfg, &scene, &make_pipeline).unwrap();
        let placements: String = run
            .placements
            .iter()
            .map(|p| format!("{}:{:?};", p.home, p.participant_nodes))
            .collect();
        if policy == PolicyKind::LeastLoaded {
            // Placement homes a room on its majority node (ties low);
            // a home anywhere else was moved by the rebalancing pass.
            let moved = run.placements.iter().filter(|p| {
                let count = |n: usize| p.participant_nodes.iter().filter(|&&m| m == n).count();
                let majority = (0..cfg.topology.nodes.len())
                    .fold(0, |best, n| if count(n) > count(best) { n } else { best });
                p.home != majority
            });
            assert!(moved.count() >= 1, "least-loaded must rebalance a home: {placements}");
        }

        let capacity = FleetCapacityConfig {
            topology: FleetTopology::uniform(2, 2, 12e6, 3e6, 1.0, 20.0),
            frames: 4,
            policy,
            max_rooms: 64,
            ..Default::default()
        };
        let m = fleet_capacity(&capacity, &scene, &make_pipeline).unwrap();
        let got = (
            fnv1a64(run.report.render().as_bytes()),
            fnv1a64(placements.as_bytes()),
            m.max_rooms,
            m.bottleneck.as_str(),
        );
        assert_eq!(got, (report_digest, placement_digest, max_rooms, bottleneck), "{policy:?}");
    }
}
