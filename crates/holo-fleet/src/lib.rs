//! **holo-fleet** — a deterministic virtual-time simulation of many
//! rooms sharded across many SFU nodes.
//!
//! One SFU (`holo-conf`) answers "how many people fit in a room"; this
//! crate answers the operator's question one level up: **how many rooms
//! does a fleet of N nodes sustain, and which resource breaks first?**
//!
//! ```text
//!   region-0                 cascade links              region-1
//!  ┌────────┐          (holo_net::Link per edge)       ┌────────┐
//!  │ node 0 │◄──────────────────────────────────────►│ node 2 │
//!  │ node 1 │◄──────────────────────────────────────►│ node 3 │
//!  └────────┘   one copy per (publisher, edge, frame)  └────────┘
//!      ▲ access fan-out: holo-conf SFU/queue/ladder per room
//! ```
//!
//! - [`topology`] — regions, nodes (`holo_gpu::Device` + egress
//!   budget), and the heterogeneous-latency cascade mesh.
//! - [`placement`] — [`PolicyKind`] (least-loaded, region-affinity,
//!   round-robin): placement and rebalancing as plain functions, and
//!   `place_rooms`, the one loop the run and the capacity probe share.
//! - [`sim`] — [`run_fleet`]: rooms embed unchanged [`holo_conf::Room`]
//!   machinery; spanning streams cross each inter-node link **once**
//!   per frame (cascade forwarding), and a 1-node fleet reproduces a
//!   standalone room byte for byte.
//! - [`capacity`] — [`fleet_capacity`]: the monotone-oracle search in
//!   rooms, priced with the run's load model, with first-bottleneck
//!   attribution.
//! - [`report`] — the canonical [`FleetReport`]; byte-identical across
//!   reruns and `SEMHOLO_THREADS` settings.

pub mod capacity;
pub mod placement;
pub mod report;
pub mod sim;
pub mod topology;

pub use capacity::{fleet_capacity, FleetCapacityConfig, FleetCapacityMeasurement};
pub use placement::{FleetLoad, Placement, PolicyKind};
pub use report::{CascadeEdgeReport, FleetReport, NodeReport, RegionLatency, RoomSummary};
pub use sim::{
    attribution_options, forward_copy_workload, room_seed, run_fleet, run_fleet_observed,
    FleetConfig, FleetObservation, FleetRun, RoomSpec, LANE_STRIDE,
};
pub use topology::{FleetTopology, NodeSpec};
