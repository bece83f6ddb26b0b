//! **holo-conf** — an event-driven semantic SFU for multi-party rooms.
//!
//! The paper's telepresence vision is multi-party, but a closed-form
//! mean-bandwidth bound (`core::conference`) cannot see what actually
//! limits a room: queueing at the forwarder, per-subscriber adaptation,
//! and the coupling between keyframe loss and every delta that depended
//! on it. This crate simulates the whole thing in deterministic virtual
//! time:
//!
//! ```text
//!            uplink                         downlink (x N-1 each)
//!  sender ──► Link ──► SFU ──► [ladder tier | egress queue] ──► Link ──► subscriber
//!  (SemanticPipeline)   │
//!                       └── fan-out to every other participant
//! ```
//!
//! - [`participant`] — per-participant uplink/downlink configs and
//!   devices (heterogeneous rooms are the point).
//! - [`frame`] — keyframe/delta dependency tags and the chain rules
//!   (a delta whose base was dropped is unusable).
//! - [`queue`] — the SFU's bounded per-subscriber egress queue; it
//!   tail-drops.
//! - [`sfu`] — the forwarder: per-subscriber ports, each a predictor,
//!   a ladder state, a queue and a downlink.
//! - [`degrade`] — the semantic degradation ladder (mesh → keypoints →
//!   text), the one adaptation mechanism: starved or poisoned
//!   subscribers drop to self-contained snapshot tiers instead of
//!   stalling, and climb back after a stability window.
//! - [`room`] — the seeded event loop over `SimTime` driving captures,
//!   uplinks, and fan-outs; emits a [`RoomReport`]. Participants can
//!   join/leave mid-run (churn) and carry per-link fault clocks.
//! - [`report`] — per-subscriber latency/stall/usable-rate
//!   distributions, Jain fairness, queue occupancy; byte-identical
//!   rendering per seed.
//! - [`capacity`] — the empirical "how many people fit" measurement,
//!   validated against `core::conference`'s closed-form bound.
//!
//! A [`Room`] is deliberately an **embeddable component**, not just a
//! top-level experiment: `holo-fleet` instantiates one per room across
//! a sharded SFU fabric (cascade links between nodes, this crate's
//! SFU/queue/degradation machinery inside each room) and a 1-node
//! fleet reproduces a standalone room byte for byte.

pub mod capacity;
pub mod degrade;
pub mod frame;
pub mod participant;
pub mod queue;
pub mod report;
pub mod room;
pub mod sfu;

pub use capacity::{
    measure_max_room_size, CapacityConfig, CapacityCriteria, CapacityMeasurement, CapacityProbe,
};
pub use degrade::{DegradationLadder, DegradeState, SemanticTier, TierSpec};
pub use frame::{DependencyTracker, FrameTag, StreamFrame};
pub use participant::ParticipantConfig;
pub use queue::EgressQueue;
pub use report::{jain_index, RoomReport, SubscriberReport};
pub use room::{Room, RoomConfig};
pub use sfu::{ForwardOutcome, ForwardRecord, Sfu, SubscriberPort};
