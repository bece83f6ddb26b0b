//! The fleet run: many rooms, sharded across nodes, in virtual time.
//!
//! Each room is a full `holo_conf::Room` — the SFU, its queues and the
//! semantic degradation ladder all run unchanged —
//! anchored at a **home** node chosen by the placement policy. A room
//! that spans nodes pays the cascade: remote publishers' uplinks and
//! remote subscribers' downlinks gain the inter-node propagation delay,
//! and every spanned frame is offered to the directed cascade links for
//! byte accounting.
//!
//! ## The cascade invariant
//!
//! A publisher's stream crosses each inter-node link **once per frame**:
//! one copy from the publisher's node to the home node, then one copy
//! from the home node to each remote node hosting at least one
//! subscriber — *not* one copy per remote subscriber. The naive
//! per-subscriber cost is tallied alongside so the saving is a measured
//! number, not a claim.
//!
//! ## Determinism
//!
//! Placement is sequential. Rooms are independent given their placement
//! (cascade contention is accounted on the shared links *after* the
//! rooms run, it does not feed back into per-room delivery), so rooms
//! fan out over `holo_trace::parallel::par_map` and merge in room-id
//! order; each room's cascade offers are generated inside its worker,
//! concatenated in room order, stably sorted by offer time, and fed
//! through the shared links sequentially. `SEMHOLO_THREADS` is a pure
//! wall-clock knob: the `FleetReport` is byte-identical at any thread
//! count.

use crate::placement::{place_rooms, Placement, PolicyKind};
use crate::report::{CascadeEdgeReport, FleetReport, NodeReport, RegionLatency, RoomSummary};
use crate::topology::{FleetTopology, NodeSpec};
use holo_conf::{jain_index, ParticipantConfig, Room, RoomConfig, RoomReport};
use holo_gpu::Workload;
use holo_math::Summary;
use holo_net::link::Delivery;
use holo_net::time::SimTime;
use holo_runtime::ser::{JsonValue, ToJson};
use holo_net::wire::WIRE_HEADER_BYTES;
use semholo::error::{Result, SemHoloError};
use semholo::scene::SceneSource;
use semholo::semantics::SemanticPipeline;
use std::collections::BTreeMap;

/// One room's demand: where its participants are and what access links
/// they bring.
#[derive(Debug, Clone, PartialEq)]
pub struct RoomSpec {
    /// Region of each participant (room size = the vector's length).
    pub participant_regions: Vec<usize>,
    /// Symmetric access bandwidth per participant, bps.
    pub access_bps: f64,
}

impl RoomSpec {
    /// `size` participants, all in `region`.
    pub fn uniform(size: usize, region: usize, access_bps: f64) -> Self {
        Self { participant_regions: vec![region; size], access_bps }
    }
}

/// Fleet-run parameters.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The nodes and cascade mesh.
    pub topology: FleetTopology,
    /// The rooms to place and run.
    pub rooms: Vec<RoomSpec>,
    /// Placement policy.
    pub policy: PolicyKind,
    /// Frames per sender stream in every room.
    pub frames: usize,
    /// Keyframe cadence inside every room.
    pub keyframe_interval: usize,
    /// Latency budget for the per-room `within_budget` statistic, ms.
    pub latency_budget_ms: f64,
    /// Fleet seed; room `i` runs on [`room_seed`]`(seed, i)`.
    pub seed: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            topology: FleetTopology::single(1e9),
            rooms: Vec::new(),
            policy: PolicyKind::LeastLoaded,
            frames: 6,
            keyframe_interval: 10,
            latency_budget_ms: 100.0,
            seed: 1,
        }
    }
}

/// Derive room `room`'s seed from the fleet seed (splitmix-style odd
/// multiplier; distinct rooms get decorrelated link RNGs). Public so a
/// standalone [`Room`] can be pinned against its fleet-embedded twin.
pub fn room_seed(fleet_seed: u64, room: usize) -> u64 {
    fleet_seed ^ 0xBF58_476D_1CE4_E5B9u64.wrapping_mul((room as u64).wrapping_mul(2).wrapping_add(1))
}

/// The SFU's cost to forward one frame copy of `wire_bytes`: a
/// checksum-and-copy pass (no dense math), priced on the node's
/// `Device` roofline — so per-copy launch overhead, not TFLOPs, is
/// what eventually binds.
pub fn forward_copy_workload(wire_bytes: usize) -> Workload {
    Workload {
        flops: wire_bytes as f64 * 8.0,
        bytes: wire_bytes as f64 * 3.0,
        peak_memory: (wire_bytes as u64).saturating_mul(4).max(1 << 20),
    }
}

// The load model the run and the capacity probe share; each caller
// brings its own rates (measured traffic, or the sized stream's).

/// Per-node egress bps and forwarded copies/s: every subscriber pulls
/// the other streams of its room from the node it is attached to
/// (`stream(room)` is one stream's `(bps, copies/s)`), then each cascade
/// edge's `(from, bps, copies/s)` is charged to its sending node.
pub(crate) fn node_rates(
    nodes: usize,
    placements: &[Placement],
    stream: impl Fn(usize) -> (f64, f64),
    edges: impl IntoIterator<Item = (usize, f64, f64)>,
) -> (Vec<f64>, Vec<f64>) {
    let mut egress_bps = vec![0.0f64; nodes];
    let mut copies_per_s = vec![0.0f64; nodes];
    for (room, placement) in placements.iter().enumerate() {
        let (bps, copies) = stream(room);
        let others = (placement.participant_nodes.len() - 1) as f64;
        for &node in &placement.participant_nodes {
            egress_bps[node] += others * bps;
            copies_per_s[node] += others * copies;
        }
    }
    for (from, bps, copies) in edges {
        egress_bps[from] += bps;
        copies_per_s[from] += copies;
    }
    (egress_bps, copies_per_s)
}

/// Fraction of each second `node` spends forwarding `copies_per_s`
/// copies of `copy_wire` bytes (infinite when the copy does not fit).
pub(crate) fn compute_utilization(node: &NodeSpec, copies_per_s: f64, copy_wire: usize) -> f64 {
    match node.device.exec_time(&forward_copy_workload(copy_wire)) {
        Ok(t) => copies_per_s * t.as_secs_f64(),
        Err(_) => f64::INFINITY,
    }
}

/// The most-utilized resource and its utilization: nodes in id order
/// (`(egress, compute)` each), then edges in `(from, to)` order; a
/// resource must strictly exceed every one before it, from `none` at 0.
pub(crate) fn first_bottleneck(
    nodes: impl IntoIterator<Item = (f64, f64)>,
    edges: impl IntoIterator<Item = ((usize, usize), f64)>,
) -> (String, f64) {
    let mut worst = (String::from("none"), 0.0f64);
    for (id, (egress, compute)) in nodes.into_iter().enumerate() {
        if egress > worst.1 {
            worst = (format!("node-egress:{id}"), egress);
        }
        if compute > worst.1 {
            worst = (format!("node-compute:{id}"), compute);
        }
    }
    for ((from, to), utilization) in edges {
        if utilization > worst.1 {
            worst = (format!("cascade:{from}->{to}"), utilization);
        }
    }
    worst
}

/// One frame copy offered to a cascade edge.
#[derive(Debug, Clone, Copy)]
struct CascadeOffer {
    at: SimTime,
    from: usize,
    to: usize,
    wire_bytes: usize,
}

/// One room's worker output.
struct RoomOutcome {
    report: RoomReport,
    offers: Vec<CascadeOffer>,
    /// Bytes the naive per-subscriber scheme would have offered.
    naive_bytes: u64,
    /// Mean wire bytes per frame of this room's (shared) stream.
    mean_wire_bytes: f64,
}

/// Everything a fleet run produces: the canonical [`FleetReport`] plus
/// the full per-room [`RoomReport`]s (in room order) for callers that
/// drill down — the report itself carries compact per-room summaries.
pub struct FleetRun {
    /// The canonical fleet-level report.
    pub report: FleetReport,
    /// Per-room placements, in room order.
    pub placements: Vec<Placement>,
    /// Full per-room reports, in room order.
    pub rooms: Vec<RoomReport>,
}

/// Per-room lane namespace stride: room `i`'s participant `p` records
/// spans on lane `i * LANE_STRIDE + p`, so merged fleet traces keep
/// rooms apart (good for up to 4096 participants per room).
pub const LANE_STRIDE: u32 = 1 << 12;

/// Build room `room_idx`'s embedded config: a plain symmetric room plus
/// cascade propagation folded into the access links of participants
/// attached away from the home node. A room that spans nothing gets
/// zero augmentation — its config is exactly the standalone one.
fn embedded_room_config(
    cfg: &FleetConfig,
    spec: &RoomSpec,
    placement: &Placement,
    room_idx: usize,
) -> RoomConfig {
    let participants = placement
        .participant_nodes
        .iter()
        .map(|&node| {
            let mut p = ParticipantConfig::symmetric(spec.access_bps);
            if node != placement.home {
                p.uplink.propagation += cfg.topology.hop(node, placement.home);
                p.downlink.propagation += cfg.topology.hop(placement.home, node);
            }
            p
        })
        .collect();
    RoomConfig {
        participants,
        frames: cfg.frames,
        keyframe_interval: cfg.keyframe_interval,
        latency_budget_ms: cfg.latency_budget_ms,
        seed: room_seed(cfg.seed, room_idx),
        share_encoder: true,
        // Namespace this room's spans so a merged fleet trace never
        // collides across rooms: lanes by stride, path ids by tag.
        lane_base: room_idx as u32 * LANE_STRIDE,
        trace_tag: (room_idx as u64) << 48,
        ..RoomConfig::default()
    }
}

/// Generate room `room_idx`'s cascade offers from its per-frame wire
/// sizes, and the naive per-subscriber byte count for the same frames.
fn cascade_offers(
    topo: &FleetTopology,
    placement: &Placement,
    wire_sizes: &[usize],
    fps: f64,
) -> (Vec<CascadeOffer>, u64) {
    let per_publisher: Vec<_> =
        (0..placement.participant_nodes.len()).map(|p| placement.cascade_legs(p)).collect();
    let mut offers = Vec::new();
    let mut naive_bytes = 0u64;
    for (index, &wire) in wire_sizes.iter().enumerate() {
        let t = SimTime::from_secs_f64(index as f64 / fps);
        for legs in &per_publisher {
            // Cascade ships one copy per leg, naive one per subscriber;
            // fan-out legs leave home once the up-leg (if any) lands.
            let mut at = t;
            for &(from, to, subs) in legs {
                offers.push(CascadeOffer { at, from, to, wire_bytes: wire });
                naive_bytes += wire as u64 * subs;
                if to == placement.home {
                    at = t + topo.hop(from, to);
                }
            }
        }
    }
    (offers, naive_bytes)
}

/// Run a fleet. `make_pipeline` builds room `i`'s shared encoder (rooms
/// run `share_encoder`, so one pipeline serves each room).
pub fn run_fleet(
    cfg: &FleetConfig,
    scene: &SceneSource,
    make_pipeline: &(dyn Fn(usize) -> Box<dyn SemanticPipeline> + Sync),
) -> Result<FleetRun> {
    cfg.topology.validate().map_err(SemHoloError::Config)?;
    if cfg.rooms.is_empty() {
        return Err(SemHoloError::Config("a fleet run needs at least one room".into()));
    }
    for (i, spec) in cfg.rooms.iter().enumerate() {
        if spec.participant_regions.len() < 2 {
            return Err(SemHoloError::Config(format!(
                "room {i} needs at least 2 participants"
            )));
        }
        if let Some(&r) = spec.participant_regions.iter().find(|&&r| r >= cfg.topology.regions.len())
        {
            return Err(SemHoloError::Config(format!(
                "room {i} references unknown region {r}"
            )));
        }
    }
    let topo = &cfg.topology;
    let fps = scene.context().config.fps as f64;
    let horizon_s = cfg.frames as f64 / fps;

    // --- Phase 1: sequential placement. ---
    let (placements, load) = place_rooms(topo, cfg.policy, &cfg.rooms);

    // --- Phase 2: rooms in parallel (deterministic fork-join). ---
    let items: Vec<usize> = (0..cfg.rooms.len()).collect();
    let run_room = |room_idx: usize| -> Result<RoomOutcome> {
        let spec = &cfg.rooms[room_idx];
        let placement = &placements[room_idx];
        // Wire sizes first: a fresh pipeline encodes the shared stream
        // once, exactly as the room's shared-encoder cache will.
        let mut sizer = make_pipeline(room_idx);
        let mut wire_sizes = Vec::with_capacity(cfg.frames);
        for index in 0..cfg.frames {
            let encoded = sizer.encode(&scene.frame(index))?;
            wire_sizes.push(encoded.payload.len() + WIRE_HEADER_BYTES);
        }
        let (offers, naive_bytes) = if placement.nodes_spanned().len() > 1 {
            cascade_offers(topo, placement, &wire_sizes, fps)
        } else {
            (Vec::new(), 0)
        };
        let mean_wire_bytes =
            wire_sizes.iter().sum::<usize>() as f64 / wire_sizes.len().max(1) as f64;
        let room_cfg = embedded_room_config(cfg, spec, placement, room_idx);
        let mut pipelines = vec![make_pipeline(room_idx)];
        let report = Room::new(room_cfg)?.run(scene, &mut pipelines)?;
        Ok(RoomOutcome { report, offers, naive_bytes, mean_wire_bytes })
    };
    let outcomes: Vec<RoomOutcome> = holo_trace::parallel::par_map(items, run_room)
        .into_iter()
        .collect::<Result<_>>()?;

    // --- Phase 3: sequential merge over the shared cascade links. ---
    let mut all_offers: Vec<CascadeOffer> = Vec::new();
    for o in &outcomes {
        all_offers.extend_from_slice(&o.offers);
    }
    // Stable sort: ties keep room order (workers appended in room order).
    all_offers.sort_by_key(|o| o.at);
    let mut links = BTreeMap::new();
    let mut edge_offered: BTreeMap<(usize, usize), (u64, u64)> = BTreeMap::new();
    for offer in &all_offers {
        let key = (offer.from, offer.to);
        let link = links
            .entry(key)
            .or_insert_with(|| topo.cascade_link(offer.from, offer.to, cfg.seed));
        // Outcome lands in the link's stats; per-copy fate is not
        // tracked back to rooms (see the determinism note above).
        let _: Delivery = link.transmit(offer.wire_bytes, offer.at);
        let e = edge_offered.entry(key).or_insert((0, 0));
        e.0 += 1;
        e.1 += offer.wire_bytes as u64;
    }
    let cascade_edges: Vec<CascadeEdgeReport> = edge_offered
        .iter()
        .map(|(&(from, to), &(copies, bytes))| {
            let stats = links[&(from, to)].stats();
            CascadeEdgeReport {
                from,
                to,
                latency_ms: topo.latency_ms(from, to),
                offered_copies: copies,
                offered_bytes: bytes,
                delivered: stats.delivered,
                queue_drops: stats.queue_drops,
                bytes_delivered: stats.bytes_delivered,
                utilization: stats.bytes_admitted as f64 * 8.0
                    / horizon_s.max(1e-9)
                    / topo.cascade_bps.max(1.0),
            }
        })
        .collect();

    // --- Phase 4: per-node accounting. ---
    let over = horizon_s.max(1e-9);
    let (node_egress_bps, node_copies_per_s) = node_rates(
        topo.nodes.len(),
        &placements,
        |room| (outcomes[room].mean_wire_bytes * 8.0 * fps, fps),
        cascade_edges.iter().map(|e| {
            (e.from, e.offered_bytes as f64 * 8.0 / over, e.offered_copies as f64 / over)
        }),
    );
    let mut node_mean_wire = vec![Summary::new(); topo.nodes.len()];
    for (outcome, placement) in outcomes.iter().zip(&placements) {
        for &node in &placement.participant_nodes {
            node_mean_wire[node].record(outcome.mean_wire_bytes);
        }
    }
    let node_reports: Vec<NodeReport> = topo
        .nodes
        .iter()
        .enumerate()
        .map(|(id, spec)| NodeReport {
            id,
            region: topo.regions[spec.region].clone(),
            rooms_homed: load.rooms[id],
            participants: load.participants[id],
            egress_used_bps: node_egress_bps[id],
            egress_utilization: node_egress_bps[id] / spec.egress_bps,
            compute_utilization: compute_utilization(
                spec,
                node_copies_per_s[id],
                node_mean_wire[id].mean().max(1.0) as usize,
            ),
        })
        .collect();

    // --- Phase 5: region latency + fairness + bottleneck. ---
    let mut region_e2e: Vec<Summary> =
        (0..topo.regions.len()).map(|_| Summary::with_samples()).collect();
    let mut usable_rates = Vec::new();
    for (room_idx, outcome) in outcomes.iter().enumerate() {
        for sub in &outcome.report.subscribers {
            let node = placements[room_idx].participant_nodes[sub.id];
            region_e2e[topo.nodes[node].region].merge(&sub.e2e_ms);
            usable_rates.push(sub.usable_rate);
        }
    }
    let region_latency: Vec<RegionLatency> = region_e2e
        .iter()
        .enumerate()
        .map(|(r, s)| RegionLatency {
            region: topo.regions[r].clone(),
            count: s.count(),
            mean_ms: s.mean(),
            p50_ms: s.percentile(50.0).unwrap_or(f64::NAN),
            p95_ms: s.percentile(95.0).unwrap_or(f64::NAN),
            max_ms: s.max(),
        })
        .collect();

    let (first_bottleneck, bottleneck_utilization) = first_bottleneck(
        node_reports.iter().map(|n| (n.egress_utilization, n.compute_utilization)),
        cascade_edges.iter().map(|e| ((e.from, e.to), e.utilization)),
    );

    let cascade_bytes_offered: u64 = cascade_edges.iter().map(|e| e.offered_bytes).sum();
    let naive_bytes_offered: u64 = outcomes.iter().map(|o| o.naive_bytes).sum();
    let room_summaries: Vec<RoomSummary> = outcomes
        .iter()
        .enumerate()
        .map(|(i, o)| RoomSummary {
            room: i,
            home: placements[i].home,
            nodes_spanned: placements[i].nodes_spanned().len(),
            participants: placements[i].participant_nodes.len(),
            min_usable_rate: o.report.min_usable_rate(),
            mean_e2e_ms: o.report.mean_e2e_ms(),
            jain_fairness: o.report.jain_fairness,
        })
        .collect();

    let report = FleetReport {
        nodes: topo.nodes.len(),
        regions: topo.regions.len(),
        rooms: cfg.rooms.len(),
        policy: cfg.policy.name().to_string(),
        frames: cfg.frames,
        fps,
        seed: cfg.seed,
        total_subscribers: usable_rates.len(),
        fleet_jain_fairness: jain_index(&usable_rates),
        min_room_usable_rate: room_summaries
            .iter()
            .map(|r| r.min_usable_rate)
            .fold(f64::INFINITY, f64::min),
        cascade_bytes_offered,
        naive_bytes_offered,
        first_bottleneck,
        bottleneck_utilization,
        node_reports,
        cascade_edges,
        region_latency,
        room_summaries,
    };
    Ok(FleetRun {
        report,
        placements,
        rooms: outcomes.into_iter().map(|o| o.report).collect(),
    })
}

/// A fleet run plus the observability artifacts derived from its
/// merged trace: exact stage-budget attribution and SLO verdicts.
pub struct FleetObservation {
    /// The underlying run ([`FleetReport`] bytes are identical to an
    /// untraced run with the same config).
    pub run: FleetRun,
    /// Critical-path attribution over every delivered frame copy, with
    /// cascade hops carved out of remote lanes' uplink/forward time.
    pub attribution: holo_obs::AttributionReport,
    /// One verdict per node (node-id order) over the subscribers
    /// attached to that node.
    pub node_verdicts: Vec<(usize, holo_obs::SloVerdict)>,
    /// The fleet-level verdict over all subscribers.
    pub fleet_verdict: holo_obs::SloVerdict,
}

impl FleetObservation {
    /// True when the fleet and every node hold the SLO.
    pub fn pass(&self) -> bool {
        self.fleet_verdict.pass() && self.node_verdicts.iter().all(|(_, v)| v.pass())
    }

    /// The machine-readable SLO + attribution document (what
    /// `examples/fleet_capacity.rs` writes as `SLO_fleet.json`).
    /// Canonical field order; byte-identical per seed and thread count.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("seed", self.run.report.seed.to_json()),
            ("policy", self.run.report.policy.to_json()),
            ("pass", JsonValue::Bool(self.pass())),
            ("fleet", self.fleet_verdict.to_json()),
            (
                "nodes",
                JsonValue::Arr(
                    self.node_verdicts
                        .iter()
                        .map(|(node, v)| {
                            JsonValue::obj([("node", node.to_json()), ("verdict", v.to_json())])
                        })
                        .collect(),
                ),
            ),
            ("attribution", self.attribution.to_json()),
        ])
    }
}

/// Build the [`holo_obs::AttributionOptions`] for a placed fleet: the
/// cascade hop µs to carve per remote lane (uplink keyed by sender
/// lane, downlink by subscriber lane — both halves of the same
/// participant's remoteness) and the lane → node map.
pub fn attribution_options(
    cfg: &FleetConfig,
    placements: &[Placement],
) -> holo_obs::AttributionOptions {
    let topo = &cfg.topology;
    let mut opts = holo_obs::AttributionOptions::default();
    for (room_idx, placement) in placements.iter().enumerate() {
        let base = room_idx as u32 * LANE_STRIDE;
        for (p, &node) in placement.participant_nodes.iter().enumerate() {
            let lane = base + p as u32;
            opts.node_of_lane.insert(lane, node as u32);
            if node != placement.home {
                let (up, down) = (topo.hop(node, placement.home), topo.hop(placement.home, node));
                opts.cascade_up_us.insert(lane, up.as_micros() as u64);
                opts.cascade_down_us.insert(lane, down.as_micros() as u64);
            }
        }
    }
    opts
}

/// Run the fleet with tracing force-enabled and derive the
/// observability artifacts from the merged spans: attribution (with
/// cascade hops split out) plus per-node and fleet SLO verdicts. The
/// recorder is reset at entry and the previous enable state restored
/// at exit; the embedded [`FleetReport`] is byte-identical to an
/// untraced [`run_fleet`] of the same config.
pub fn run_fleet_observed(
    cfg: &FleetConfig,
    scene: &SceneSource,
    make_pipeline: &(dyn Fn(usize) -> Box<dyn SemanticPipeline> + Sync),
    spec: &holo_obs::SloSpec,
) -> Result<FleetObservation> {
    let run = holo_trace::traced(|| run_fleet(cfg, scene, make_pipeline))?;
    let opts = attribution_options(cfg, &run.placements);
    let mut attr = holo_obs::Attribution::with_nodes(opts.node_of_lane.clone());
    holo_trace::with_recorder(|r| {
        attr.spans_dropped = r.spans_dropped;
        attr.ingest_spans(&r.spans, &opts)
    })
    .map_err(SemHoloError::Config)?;
    let attribution = attr.finish();

    // Per-node SLO inputs: subscribers rolled up by the node they are
    // attached to, then nodes rolled up into the fleet (floors, not
    // averages).
    let mut per_node: BTreeMap<usize, holo_obs::SloSummary> = BTreeMap::new();
    for (report, placement) in run.rooms.iter().zip(&run.placements) {
        for (sub, summary) in report.subscribers.iter().zip(report.slo_summaries()) {
            per_node.entry(placement.participant_nodes[sub.id]).or_default().absorb(&summary);
        }
    }
    let mut fleet = holo_obs::SloSummary::default();
    let mut node_verdicts = Vec::with_capacity(per_node.len());
    for (node, s) in per_node {
        fleet.absorb(&s);
        node_verdicts.push((node, spec.evaluate_summary(&s)));
    }
    let fleet_verdict = spec.evaluate_summary(&fleet);
    Ok(FleetObservation { run, attribution, node_verdicts, fleet_verdict })
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

    #[test]
    fn single_node_fleet_has_no_cascade_traffic() {
        let cfg = FleetConfig {
            topology: FleetTopology::single(1e9),
            rooms: vec![RoomSpec::uniform(3, 0, 25e6); 2],
            frames: 4,
            ..Default::default()
        };
        let run = run_fleet(&cfg, &scene(), &make_pipeline).unwrap();
        assert!(run.report.cascade_edges.is_empty());
        assert_eq!(run.report.cascade_bytes_offered, 0);
        assert_eq!(run.report.naive_bytes_offered, 0);
        assert_eq!(run.rooms.len(), 2);
        assert_eq!(run.report.node_reports[0].rooms_homed, 2);
        assert_eq!(run.report.node_reports[0].participants, 6);
        assert!(run.report.node_reports[0].egress_used_bps > 0.0);
    }

    #[test]
    fn spanning_room_counts_each_link_once_per_frame() {
        // Two nodes, one region each; a 4-party room split 2/2.
        let topo = FleetTopology::uniform(2, 1, 1e9, 1e9, 1.0, 20.0);
        let cfg = FleetConfig {
            topology: topo,
            rooms: vec![RoomSpec {
                participant_regions: vec![0, 0, 1, 1],
                access_bps: 25e6,
            }],
            policy: PolicyKind::RoundRobin,
            frames: 3,
            ..Default::default()
        };
        let run = run_fleet(&cfg, &scene(), &make_pipeline).unwrap();
        let p = &run.placements[0];
        assert_eq!(p.participant_nodes, vec![0, 0, 1, 1]);
        assert_eq!(p.home, 0);
        // Per frame: publishers 2,3 (node 1) send one copy each 1->0;
        // every publisher has a subscriber on node 1, so 0->1 carries
        // one copy per publisher (4). Never per-subscriber.
        let e10 = run.report.cascade_edges.iter().find(|e| e.from == 1 && e.to == 0).unwrap();
        let e01 = run.report.cascade_edges.iter().find(|e| e.from == 0 && e.to == 1).unwrap();
        assert_eq!(e10.offered_copies, 2 * 3);
        assert_eq!(e01.offered_copies, 4 * 3);
        // Naive would ship per-subscriber on 0->1: pubs 0,1 have 2 subs
        // there, pubs 2,3 have 1 other => 6 copies/frame vs cascade's 4.
        assert!(run.report.naive_bytes_offered > run.report.cascade_bytes_offered);
    }

    #[test]
    fn remote_participants_pay_cascade_latency() {
        let topo = FleetTopology::uniform(2, 1, 1e9, 1e9, 1.0, 40.0);
        let mk = |regions: Vec<usize>| FleetConfig {
            topology: topo.clone(),
            rooms: vec![RoomSpec { participant_regions: regions, access_bps: 25e6 }],
            policy: PolicyKind::RoundRobin,
            frames: 4,
            ..Default::default()
        };
        let local = run_fleet(&mk(vec![0, 0, 0]), &scene(), &make_pipeline).unwrap();
        let split = run_fleet(&mk(vec![0, 0, 1]), &scene(), &make_pipeline).unwrap();
        let local_e2e = local.rooms[0].mean_e2e_ms();
        let split_e2e = split.rooms[0].mean_e2e_ms();
        // One 40 ms hop each way must show up in end-to-end latency.
        assert!(
            split_e2e > local_e2e + 20.0,
            "split {split_e2e} ms vs local {local_e2e} ms"
        );
        let far_region = split.report.region_latency.iter().find(|r| r.region == "region-1");
        assert!(far_region.unwrap().count > 0, "remote subscribers must land in their region");
    }

    #[test]
    fn fleet_report_is_deterministic() {
        let cfg = FleetConfig {
            topology: FleetTopology::uniform(2, 2, 1e9, 1e9, 1.0, 20.0),
            rooms: vec![
                RoomSpec::uniform(3, 0, 25e6),
                RoomSpec { participant_regions: vec![0, 1, 1], access_bps: 25e6 },
                RoomSpec::uniform(4, 1, 25e6),
            ],
            frames: 4,
            seed: 9,
            ..Default::default()
        };
        let a = run_fleet(&cfg, &scene(), &make_pipeline).unwrap();
        let b = run_fleet(&cfg, &scene(), &make_pipeline).unwrap();
        assert_eq!(a.report.render(), b.report.render());
    }

    #[test]
    fn observed_fleet_tiles_exactly_and_carves_the_cascade() {
        let topo = FleetTopology::uniform(2, 1, 1e9, 1e9, 1.0, 40.0);
        let cfg = FleetConfig {
            topology: topo,
            rooms: vec![RoomSpec { participant_regions: vec![0, 0, 1], access_bps: 25e6 }],
            policy: PolicyKind::RoundRobin,
            frames: 4,
            ..Default::default()
        };
        let spec = holo_obs::SloSpec::telepresence();
        let obs = run_fleet_observed(&cfg, &scene(), &make_pipeline, &spec).unwrap();
        assert!(obs.attribution.frames > 0, "delivered paths must be attributed");
        assert!(obs.attribution.tiles_exactly(), "stage budgets must tile e2e exactly");
        assert_eq!(obs.attribution.spans_dropped, 0);
        // The remote participant pays a 40 ms hop each way; that time
        // must land in the CascadeHop stage, not hide in the links.
        let hop = obs.attribution.stage(holo_obs::Stage::CascadeHop);
        assert!(hop.total_us > 0, "cascade hop must be carved out: {hop:?}");
        // Tracing must not perturb the simulation: report bytes match
        // an untraced run of the same config.
        let plain = run_fleet(&cfg, &scene(), &make_pipeline).unwrap();
        assert_eq!(obs.run.report.render(), plain.report.render());
        // Both nodes host subscribers, so both get verdicts, and the
        // document bytes are stable.
        assert_eq!(obs.node_verdicts.iter().map(|(n, _)| *n).collect::<Vec<_>>(), vec![0, 1]);
        let doc = obs.to_json().render();
        holo_runtime::ser::parse(&doc).expect("SLO_fleet doc parses");
        let again = run_fleet_observed(&cfg, &scene(), &make_pipeline, &spec).unwrap();
        assert_eq!(doc, again.to_json().render());
    }

    #[test]
    fn rejects_bad_configs() {
        let cfg = FleetConfig { rooms: vec![], ..Default::default() };
        assert!(run_fleet(&cfg, &scene(), &make_pipeline).is_err(), "no rooms");
        let cfg = FleetConfig {
            rooms: vec![RoomSpec::uniform(2, 3, 25e6)],
            ..Default::default()
        };
        assert!(run_fleet(&cfg, &scene(), &make_pipeline).is_err(), "unknown region");
        let cfg = FleetConfig {
            rooms: vec![RoomSpec::uniform(1, 0, 25e6)],
            ..Default::default()
        };
        assert!(run_fleet(&cfg, &scene(), &make_pipeline).is_err(), "1-party room");
        // A bad latency must be refused up front, not panic in
        // `Duration` once a room spans the regions it joins.
        let mut topology = FleetTopology::uniform(2, 1, 1e9, 1e9, 1.0, 20.0);
        topology.region_latency_ms[1][0] = -20.0;
        let cfg = FleetConfig {
            topology,
            rooms: vec![RoomSpec { participant_regions: vec![0, 1], access_bps: 25e6 }],
            policy: PolicyKind::RoundRobin,
            ..Default::default()
        };
        assert!(run_fleet(&cfg, &scene(), &make_pipeline).is_err(), "negative latency");
    }
}
