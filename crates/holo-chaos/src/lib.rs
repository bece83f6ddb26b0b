//! `holo-chaos`: deterministic fault injection + the resilience layer.
//!
//! The transport stack (`holo-net`), the end-to-end session
//! (`semholo::session`), and the conference SFU (`holo-conf`) all
//! behave beautifully on clean links. This crate is where they earn
//! their keep on bad ones. Four pieces:
//!
//! * **Fault plans** ([`plan`]) — a small DSL of named, seeded,
//!   virtual-time impairment scenarios (Gilbert–Elliott burst loss,
//!   bandwidth collapses, link flaps, delay spikes, participant churn)
//!   that compile to per-link [`holo_net::fault::FaultClock`]s.
//! * **Resilience mechanisms** — XOR-parity FEC over frame groups
//!   ([`fec`]) and RTO-scheduled whole-frame retransmission
//!   ([`retransmit`]); the third mechanism, the semantic degradation
//!   ladder, lives in `holo_conf::degrade` where the SFU applies it.
//! * **The stream simulator** ([`stream`]) — the one event loop that
//!   runs a protected stream over a faulted link (offer queue, FEC
//!   stripes, retransmit schedule, dependency walk), read two ways:
//!   class-blind ([`run_stream_scenario`] → [`StreamOutcome`]) and
//!   class-aware ([`run_uep_stream_scenario`] → [`UepOutcome`]).
//! * **The harness** ([`harness`], [`uep`]) — sweeps plans ×
//!   mechanisms over streams, sessions, and rooms, and plans × UEP
//!   policies over streams, and emits a byte-identical
//!   [`report::ResilienceReport`].
//!
//! Everything is deterministic: same seed, same report bytes. That is
//! what makes chaos testing regression-testable — `scripts/verify.sh`
//! runs the same seeded scenario twice and byte-compares.

pub mod fec;
pub mod harness;
pub mod plan;
pub mod report;
pub mod retransmit;
pub mod stream;
pub mod uep;

pub use harness::{
    gaussian_squeeze_plan, room_collapse_plan, run_gaussian_room_scenario,
    run_gaussian_scenarios, run_room_scenario, run_scenarios, run_session_scenario,
};
pub use plan::{ChurnEvent, FaultPlan};
pub use report::{
    GaussianRoomOutcome, ResilienceReport, RoomOutcome, SessionOutcome, StreamOutcome,
    UepClassStats, UepOutcome,
};
pub use retransmit::{backoff_delay, RetransmitConfig};
pub use stream::{run_stream_scenario, run_uep_stream_scenario, Mechanisms, StreamConfig};
pub use uep::{run_uep_scenarios, uep_report, uep_sweep_plans};
