//! Fleet capacity: how many rooms does N nodes sustain, and which
//! resource breaks first.
//!
//! Reuses `core::conference`'s monotone-oracle pattern
//! (`simulated_max_participants`: doubling then bisection over a
//! monotone `fits` predicate), but the unit is **rooms**, and the
//! predicate is a placement-plus-arithmetic probe rather than a full
//! simulation:
//!
//! 1. **Quality gate, once.** Rooms are independent given placement
//!    (see `sim`'s determinism note), so per-room delivery quality does
//!    not change with fleet size. One representative room is simulated
//!    up front; if its worst subscriber misses the usable-rate floor,
//!    the capacity is 0 rooms with bottleneck `room-quality`.
//! 2. **Monotone resource probe.** `fits(R)` places R rooms exactly as
//!    the run does (placement of room *i* depends only on rooms < *i*)
//!    and prices them with the run's load model — cascade legs, node
//!    rates, compute cost, bottleneck scan — fed the sized stream's
//!    per-second rate instead of measured traffic, checking every
//!    node-egress, node-compute, and cascade-edge utilization against
//!    1.0.
//!
//! The first failing probe's highest-utilization resource becomes the
//! bottleneck attribution, and a definitive [`run_fleet`] at the
//! measured capacity produces the byte-identical [`FleetReport`]
//! artifact.

use crate::placement::{place_rooms, PolicyKind};
use crate::report::FleetReport;
use crate::sim::{
    compute_utilization, first_bottleneck, node_rates, run_fleet, FleetConfig, RoomSpec,
};
use crate::topology::FleetTopology;
use holo_net::wire::WIRE_HEADER_BYTES;
use holo_runtime::ser::{JsonValue, ToJson};
use semholo::conference::{closed_form_fleet_capacity, simulated_max_participants};
use semholo::error::Result;
use semholo::scene::SceneSource;
use semholo::semantics::SemanticPipeline;
use std::collections::BTreeMap;

/// Fleet-capacity search parameters.
#[derive(Debug, Clone)]
pub struct FleetCapacityConfig {
    /// The fleet under test.
    pub topology: FleetTopology,
    /// Participants per room (uniform).
    pub room_size: usize,
    /// Symmetric access bandwidth per participant, bps.
    pub access_bps: f64,
    /// Frames per sender stream in simulated rooms.
    pub frames: usize,
    /// Fleet seed.
    pub seed: u64,
    /// Placement policy.
    pub policy: PolicyKind,
    /// Search ceiling, rooms.
    pub max_rooms: usize,
    /// Quality floor: the representative room's worst subscriber must
    /// keep at least this usable-frame rate.
    pub min_usable_rate: f64,
}

impl Default for FleetCapacityConfig {
    fn default() -> Self {
        Self {
            topology: FleetTopology::single(1e9),
            room_size: 4,
            access_bps: 100e6,
            frames: 6,
            seed: 1,
            policy: PolicyKind::LeastLoaded,
            max_rooms: 4096,
            min_usable_rate: 0.9,
        }
    }
}

/// The search outcome.
#[derive(Debug, Clone)]
pub struct FleetCapacityMeasurement {
    /// Rooms the fleet sustains.
    pub max_rooms: usize,
    /// `max_rooms * room_size`.
    pub total_subscribers: usize,
    /// Measured per-stream wire rate (payload + envelope), bps.
    pub stream_wire_bps: f64,
    /// The resource that broke first at `max_rooms + 1` (`room-quality`,
    /// `node-egress:i`, `node-compute:i`, `cascade:a->b`, or
    /// `search-ceiling` when the probe never failed).
    pub bottleneck: String,
    /// `core::conference::closed_form_fleet_capacity` at the same
    /// rates, in subscribers — the arithmetic bound next to the
    /// placement-aware measurement.
    pub closed_form_subscribers: usize,
    /// Definitive fleet run at `max_rooms` (absent when capacity is 0).
    pub report: Option<FleetReport>,
}

impl ToJson for FleetCapacityMeasurement {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("max_rooms", self.max_rooms.to_json()),
            ("total_subscribers", self.total_subscribers.to_json()),
            ("stream_wire_bps", self.stream_wire_bps.to_json()),
            ("bottleneck", self.bottleneck.to_json()),
            ("closed_form_subscribers", self.closed_form_subscribers.to_json()),
            (
                "report",
                match &self.report {
                    Some(r) => r.to_json(),
                    None => JsonValue::Null,
                },
            ),
        ])
    }
}

/// Uniform room specs for a probe: room `r` lands in region
/// `r % regions`, spreading demand across the fleet.
fn probe_rooms(cfg: &FleetCapacityConfig, count: usize) -> Vec<RoomSpec> {
    (0..count)
        .map(|r| {
            RoomSpec::uniform(cfg.room_size, r % cfg.topology.regions.len(), cfg.access_bps)
        })
        .collect()
}

/// Place `count` rooms and price every resource from the measured
/// stream rate: the first bottleneck's label and utilization.
fn probe(cfg: &FleetCapacityConfig, stream_wire_bps: f64, mean_wire_bytes: f64, count: usize) -> (String, f64) {
    let topo = &cfg.topology;
    let copy_bits = (mean_wire_bytes * 8.0).max(1e-9);
    let (placements, _) = place_rooms(topo, cfg.policy, &probe_rooms(cfg, count));
    let mut edges: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    for placement in &placements {
        for p in 0..placement.participant_nodes.len() {
            for (from, to, _) in placement.cascade_legs(p) {
                *edges.entry((from, to)).or_insert(0.0) += stream_wire_bps;
            }
        }
    }
    let (egress, copies) = node_rates(
        topo.nodes.len(),
        &placements,
        |_| (stream_wire_bps, stream_wire_bps / copy_bits),
        edges.iter().map(|(&(from, _), &bps)| (from, bps, bps / copy_bits)),
    );
    first_bottleneck(
        topo.nodes.iter().enumerate().map(|(id, node)| {
            let copy_wire = mean_wire_bytes as usize;
            (egress[id] / node.egress_bps, compute_utilization(node, copies[id], copy_wire))
        }),
        edges.iter().map(|(&edge, bps)| (edge, bps / topo.cascade_bps.max(1.0))),
    )
}

/// Measure the fleet's room capacity and attribute the bottleneck.
pub fn fleet_capacity(
    cfg: &FleetCapacityConfig,
    scene: &SceneSource,
    make_pipeline: &(dyn Fn(usize) -> Box<dyn SemanticPipeline> + Sync),
) -> Result<FleetCapacityMeasurement> {
    // Measure the stream's wire rate once from room 0's pipeline.
    let fps = scene.context().config.fps as f64;
    let mut sizer = make_pipeline(0);
    let mut total_wire = 0usize;
    for index in 0..cfg.frames {
        total_wire += sizer.encode(&scene.frame(index))?.payload.len() + WIRE_HEADER_BYTES;
    }
    let mean_wire_bytes = total_wire as f64 / cfg.frames.max(1) as f64;
    let stream_wire_bps = mean_wire_bytes * 8.0 * fps;
    let closed_form_subscribers = closed_form_fleet_capacity(
        cfg.topology.nodes.len(),
        cfg.topology.cascade_bps,
        cfg.access_bps,
        stream_wire_bps,
    );

    let fleet_cfg = |rooms: usize| FleetConfig {
        topology: cfg.topology.clone(),
        rooms: probe_rooms(cfg, rooms),
        policy: cfg.policy,
        frames: cfg.frames,
        keyframe_interval: 10,
        latency_budget_ms: 150.0,
        seed: cfg.seed,
    };

    // Quality gate: one representative room, full simulation.
    let one = run_fleet(&fleet_cfg(1), scene, make_pipeline)?;
    if one.report.min_room_usable_rate < cfg.min_usable_rate {
        return Ok(FleetCapacityMeasurement {
            max_rooms: 0,
            total_subscribers: 0,
            stream_wire_bps,
            bottleneck: "room-quality".into(),
            closed_form_subscribers,
            report: None,
        });
    }

    let fits = |rooms: usize| probe(cfg, stream_wire_bps, mean_wire_bytes, rooms).1 <= 1.0;
    let max_rooms = if !fits(1) {
        0
    } else if cfg.max_rooms <= 1 {
        1
    } else {
        simulated_max_participants(cfg.max_rooms, fits)
    };
    let bottleneck = if max_rooms >= cfg.max_rooms {
        "search-ceiling".into()
    } else {
        probe(cfg, stream_wire_bps, mean_wire_bytes, max_rooms + 1).0
    };
    let report = if max_rooms > 0 {
        Some(run_fleet(&fleet_cfg(max_rooms), scene, make_pipeline)?.report)
    } else {
        None
    };
    Ok(FleetCapacityMeasurement {
        max_rooms,
        total_subscribers: max_rooms * cfg.room_size,
        stream_wire_bps,
        bottleneck,
        closed_form_subscribers,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use semholo::config::SemHoloConfig;
    use semholo::keypoint::{KeypointConfig, KeypointPipeline};

    fn scene() -> SceneSource {
        let config = SemHoloConfig {
            capture_resolution: (48, 36),
            camera_count: 2,
            ..Default::default()
        };
        SceneSource::new(&config, 0.5)
    }

    fn make_pipeline(room: usize) -> Box<dyn SemanticPipeline> {
        Box::new(KeypointPipeline::new(
            KeypointConfig { resolution: 24, ..Default::default() },
            room as u64,
        ))
    }

    fn base(topology: FleetTopology) -> FleetCapacityConfig {
        FleetCapacityConfig {
            topology,
            frames: 4,
            max_rooms: 512,
            ..Default::default()
        }
    }

    #[test]
    fn capacity_is_positive_and_bounded_on_one_node() {
        let cfg = base(FleetTopology::single(50e6));
        let m = fleet_capacity(&cfg, &scene(), &make_pipeline).unwrap();
        assert!(m.max_rooms > 0, "a 50 Mbps node must host at least one keypoint room");
        assert!(m.max_rooms < 512, "50 Mbps cannot host the ceiling");
        assert!(m.bottleneck.starts_with("node-"), "bottleneck {}", m.bottleneck);
        assert_eq!(m.total_subscribers, m.max_rooms * cfg.room_size);
        let report = m.report.expect("definitive run present");
        assert_eq!(report.rooms, m.max_rooms);
    }

    #[test]
    fn more_nodes_sustain_more_rooms() {
        let egress = 40e6;
        let cap = |nodes| {
            let cfg = base(FleetTopology::uniform(nodes, 1, egress, 1e9, 1.0, 20.0));
            fleet_capacity(&cfg, &scene(), &make_pipeline).unwrap().max_rooms
        };
        let one = cap(1);
        let two = cap(2);
        let four = cap(4);
        assert!(one > 0);
        assert!(two > one, "2 nodes ({two}) must beat 1 ({one})");
        assert!(four > two, "4 nodes ({four}) must beat 2 ({two})");
    }

    #[test]
    fn tight_cascade_becomes_the_bottleneck() {
        // Two regions, ample node egress, a starved cascade: rooms in
        // region 1 still fan out locally, but region spread means the
        // cross links carry spanning rooms' streams.
        let mut topo = FleetTopology::uniform(2, 2, 1e9, 1e9, 1.0, 20.0);
        topo.cascade_bps = 2e6;
        let mut cfg = base(topo);
        // Region affinity pins each room to one node, so nothing ever
        // crosses the starved cascade and it must NOT be blamed.
        cfg.policy = PolicyKind::RegionAffinity;
        let m = fleet_capacity(&cfg, &scene(), &make_pipeline).unwrap();
        assert!(!m.bottleneck.starts_with("cascade"), "bottleneck {}", m.bottleneck);

        // Now force spanning rooms through the arithmetic probe.
        let span = RoomSpec { participant_regions: vec![0, 0, 1, 1], access_bps: 100e6 };
        let fleet = FleetConfig {
            topology: cfg.topology.clone(),
            rooms: vec![span; 3],
            policy: PolicyKind::RoundRobin,
            frames: 4,
            ..Default::default()
        };
        let run = run_fleet(&fleet, &scene(), &make_pipeline).unwrap();
        assert!(
            run.report.first_bottleneck.starts_with("cascade"),
            "spanning rooms over a 2 Mbps cascade must blame it, got {}",
            run.report.first_bottleneck
        );
    }

    #[test]
    fn closed_form_rides_along() {
        let cfg = base(FleetTopology::uniform(2, 1, 100e6, 1e9, 1.0, 20.0));
        let m = fleet_capacity(&cfg, &scene(), &make_pipeline).unwrap();
        assert!(m.closed_form_subscribers > 0);
        assert!(m.stream_wire_bps > 0.0);
    }
}
