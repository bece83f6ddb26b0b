//! Fleet capacity: how many rooms does a sharded SFU fleet sustain,
//! and which resource breaks first?
//!
//! Runs the holo-fleet monotone capacity search over growing node
//! counts, prints the rooms/subscribers curve with first-bottleneck
//! attribution, then writes the definitive measurement for the largest
//! fleet to `FLEET_capacity.json` — canonical bytes, byte-identical
//! across reruns and `SEMHOLO_THREADS` settings. A representative
//! spanning fleet is then traced, its latency attributed stage by
//! stage (`holo-obs`), and the SLO verdicts written to
//! `SLO_fleet.json` with the same byte-identity guarantee.
//!
//! Run with: `cargo run --release --example fleet_capacity`

use holo_fleet::{fleet_capacity, FleetCapacityConfig, FleetTopology, PolicyKind};
use holo_runtime::ser::ToJson;
use semholo::keypoint::{KeypointConfig, KeypointPipeline};
use semholo::{SceneSource, SemHoloConfig, SemanticPipeline};

fn main() {
    let config = SemHoloConfig {
        capture_resolution: (48, 36),
        camera_count: 2,
        ..Default::default()
    };
    let scene = SceneSource::new(&config, 0.5);
    let make_pipeline = |room: usize| -> Box<dyn SemanticPipeline> {
        Box::new(KeypointPipeline::new(
            KeypointConfig { resolution: 32, ..Default::default() },
            room as u64,
        ))
    };

    // Modest per-node egress so the capacity search converges in the
    // tens of rooms: the point is the curve's shape and the bottleneck
    // labels, not datacenter-scale numbers.
    let egress_bps = 60e6;
    let cascade_bps = 400e6;
    let frames = 5;
    let max_rooms = 256;

    println!("fleet capacity, keypoint semantics, {egress_bps:.0e} bps node egress");
    println!("(least-loaded placement, rooms of 4, 100 Mbps access links)\n");
    println!(
        "{:>6} {:>8} {:>13} {:>13} {:>22} {:>14}",
        "nodes", "regions", "max rooms", "subscribers", "first bottleneck", "cascade saved"
    );

    let mut last = None;
    let mut prev: Option<(usize, usize)> = None;
    for (regions, nodes_per_region) in [(1usize, 1usize), (2, 1), (2, 2), (2, 4)] {
        let nodes = regions * nodes_per_region;
        let cfg = FleetCapacityConfig {
            topology: FleetTopology::uniform(
                regions,
                nodes_per_region,
                egress_bps,
                cascade_bps,
                1.0,
                20.0,
            ),
            room_size: 4,
            access_bps: 100e6,
            frames,
            seed: 42,
            policy: PolicyKind::LeastLoaded,
            max_rooms,
            min_usable_rate: 0.9,
        };
        let m = fleet_capacity(&cfg, &scene, &make_pipeline).expect("fleet capacity");
        // Cascade savings show up when several subscribers of one
        // stream share a remote node (copies collapse); spread-out
        // fleets honestly report 0%.
        let saved = m.report.as_ref().map_or(0.0, |r| r.cascade_savings());
        println!(
            "{:>6} {:>8} {:>13} {:>13} {:>22} {:>13.0}%",
            nodes,
            regions,
            m.max_rooms,
            m.total_subscribers,
            m.bottleneck,
            saved * 100.0
        );
        if let Some((prev_nodes, prev_rooms)) = prev {
            assert!(
                m.max_rooms > prev_rooms,
                "{nodes} nodes must sustain more rooms than {prev_nodes} ({} vs {prev_rooms})",
                m.max_rooms
            );
        }
        prev = Some((nodes, m.max_rooms));
        last = Some(m);
    }

    let m = last.expect("at least one fleet measured");
    if let Some(report) = &m.report {
        println!();
        println!(
            "largest fleet: {} rooms, fleet Jain fairness {:.4}, bottleneck utilization {:.2}",
            report.rooms, report.fleet_jain_fairness, report.bottleneck_utilization
        );
    }
    println!(
        "closed-form bound at the same rates: {} subscribers (placement-blind)",
        m.closed_form_subscribers
    );
    let artifact = m.to_json().render();
    std::fs::write("FLEET_capacity.json", &artifact).expect("write FLEET_capacity.json");
    println!("\nwrote FLEET_capacity.json ({} bytes, canonical)", artifact.len());

    // Judge a representative spanning fleet against the telepresence
    // SLO and attribute every delivered frame's latency to stages —
    // the cascade hop is carved out explicitly, so "how much of p99 is
    // the inter-node mesh" is a number, not a guess.
    // The amortized spec also floors the gaussian tier — skipped for
    // rooms that never route it, judged wherever prebuilt avatars ride.
    let spec = holo_obs::SloSpec::telepresence_amortized();
    let obs_cfg = holo_fleet::FleetConfig {
        topology: FleetTopology::uniform(2, 1, egress_bps, cascade_bps, 1.0, 20.0),
        rooms: vec![
            holo_fleet::RoomSpec { participant_regions: vec![0, 0, 1, 1], access_bps: 100e6 },
            holo_fleet::RoomSpec::uniform(3, 0, 100e6),
        ],
        policy: PolicyKind::LeastLoaded,
        frames,
        seed: 42,
        ..Default::default()
    };
    let obs = holo_fleet::run_fleet_observed(&obs_cfg, &scene, &make_pipeline, &spec)
        .expect("observed fleet");
    println!("\nlatency attribution (2-node spanning fleet, {} frame paths):", obs.attribution.frames);
    print!("{}", obs.attribution.table());
    println!("SLO verdicts ({}):", spec.name);
    println!("  fleet   {}", obs.fleet_verdict.line());
    for (node, v) in &obs.node_verdicts {
        println!("  node {node}  {}", v.line());
    }
    let doc = obs.to_json().render();
    std::fs::write("SLO_fleet.json", &doc).expect("write SLO_fleet.json");
    println!("wrote SLO_fleet.json ({} bytes, canonical)", doc.len());
}
