//! **Fleet capacity** — subscribers sustained vs. node count (1, 2, 4,
//! 8) for the keypoint and compressed-mesh tiers, with the measured
//! first-bottleneck label per point.
//!
//! The holo-fleet monotone search places uniform rooms of 4 with the
//! least-loaded policy and finds how many the fleet sustains before a
//! node's egress, a node's compute, or a cascade edge saturates. The
//! measured subscriber counts and bottleneck labels are recorded as
//! facts, so `BENCH_fleet_capacity.json` carries the scaling curve
//! beside the timings and the gate compares it exactly; the curve
//! itself is asserted monotone — more nodes must never sustain fewer
//! subscribers. Nodes have 120 Mbps egress, cascade edges 400 Mbps and
//! subscribers 100 Mbps access. The bottleneck labels are measured
//! attributions, not assumptions: a point whose label flips from
//! node-egress to cascade marks where the mesh of inter-node links, not
//! the nodes, becomes the scaling wall.

use holo_fleet::{fleet_capacity, FleetCapacityConfig, FleetTopology, PolicyKind};
use holo_runtime::bench::Criterion;
use holo_runtime::{bench_group, bench_main};
use semholo::keypoint::{KeypointConfig, KeypointPipeline};
use semholo::traditional::{MeshWire, TraditionalPipeline};
use semholo::{SceneSource, SemHoloConfig, SemanticPipeline};
use std::hint::black_box;

/// `(regions, nodes_per_region)` ladders giving 1, 2, 4, 8 nodes.
const FLEETS: [(usize, usize); 4] = [(1, 1), (2, 1), (2, 2), (2, 4)];

fn make_pipeline(kind: &str, room: usize) -> Box<dyn SemanticPipeline> {
    match kind {
        "keypoint" => Box::new(KeypointPipeline::new(
            KeypointConfig { resolution: 32, ..Default::default() },
            room as u64,
        )),
        // 14-bit quantization, matching the conference_capacity example.
        "mesh" => Box::new(TraditionalPipeline::new(MeshWire::Compressed, 14)),
        other => panic!("unknown tier {other}"),
    }
}

fn fleet_capacity_bench(c: &mut Criterion) {
    let quick = c.quick();
    let config = SemHoloConfig {
        capture_resolution: (48, 36),
        camera_count: 2,
        ..Default::default()
    };
    let scene = SceneSource::new(&config, 0.5);
    let egress_bps = 120e6;

    let mut curve: Vec<(String, usize, usize, String)> = Vec::new();
    for tier in ["keypoint", "mesh"] {
        let mut prev: Option<usize> = None;
        for (regions, nodes_per_region) in FLEETS {
            let nodes = regions * nodes_per_region;
            let cfg = FleetCapacityConfig {
                topology: FleetTopology::uniform(
                    regions,
                    nodes_per_region,
                    egress_bps,
                    400e6,
                    1.0,
                    20.0,
                ),
                room_size: 4,
                access_bps: 100e6,
                frames: if quick { 3 } else { 4 },
                seed: 42,
                policy: PolicyKind::LeastLoaded,
                max_rooms: 256,
                min_usable_rate: 0.9,
            };
            let make = |room: usize| make_pipeline(tier, room);
            let m = fleet_capacity(&cfg, &scene, &make).expect("fleet capacity");
            // The headline claim: capacity scales with nodes. Strict
            // from 1 -> 2 (the ISSUE's floor), monotone thereafter.
            if let Some(prev_subs) = prev {
                if nodes == 2 {
                    assert!(
                        m.total_subscribers > prev_subs,
                        "{tier}: 2 nodes ({}) must beat 1 node ({prev_subs})",
                        m.total_subscribers
                    );
                } else {
                    assert!(
                        m.total_subscribers >= prev_subs,
                        "{tier}: capacity shrank at {nodes} nodes ({} < {prev_subs})",
                        m.total_subscribers
                    );
                }
            }
            prev = Some(m.total_subscribers);
            curve.push((tier.to_string(), nodes, m.total_subscribers, m.bottleneck.clone()));
        }
    }

    let mut group = c.benchmark_group("fleet_capacity");
    group.sample_size(10);
    for (tier, nodes, subs, bottleneck) in &curve {
        group.fact(format!("subscribers/{tier}/nodes{nodes}"), subs, "subscribers");
        group.fact(format!("bottleneck/{tier}/nodes{nodes}"), bottleneck, "label");
    }
    // Honest timing: the full monotone search on a 2-node fleet.
    group.bench_function("search_2node_keypoint", |b| {
        b.iter(|| {
            let cfg = FleetCapacityConfig {
                topology: FleetTopology::uniform(2, 1, egress_bps, 400e6, 1.0, 20.0),
                room_size: 4,
                access_bps: 100e6,
                frames: 3,
                seed: 42,
                policy: PolicyKind::LeastLoaded,
                max_rooms: 256,
                min_usable_rate: 0.9,
            };
            let make = |room: usize| make_pipeline("keypoint", room);
            black_box(fleet_capacity(&cfg, &scene, &make).unwrap().max_rooms)
        })
    });
    group.finish();
}

bench_group!(benches, fleet_capacity_bench);
bench_main!(benches);
