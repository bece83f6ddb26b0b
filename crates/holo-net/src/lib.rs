//! Deterministic network substrate for the SemHolo reproduction.
//!
//! Every bandwidth/latency number in the paper's argument — the 100 Mbps
//! that ViVo needs, the 25 Mbps U.S. broadband baseline, the < 100 ms
//! end-to-end budget — lives here. Following the event-driven poll model
//! of the networking guides (smoltcp-style: explicit virtual time, no
//! hidden threads), the simulator is fully deterministic from a seed, so
//! every experiment that involves "the Internet" replays exactly.
//!
//! The link model moves *sizes*, not bytes: a frame is offered to a
//! [`FrameTransport`] as its wire length, fragments are offered to a
//! [`Link`] as theirs, and what comes back is when (or whether) they
//! arrive. The bytes themselves stay with the caller, wrapped in a
//! [`WireFrame`] when a hop needs corruption to be detectable.
//!
//! - [`time`] — virtual clock ([`SimTime`]), microsecond resolution, and
//!   the time-ordered, FIFO-on-ties [`EventQueue`] the simulators share:
//!   a sorted run takes the pushes that arrive in time order (most of a
//!   timeline) and a small heap the rest, and a pop takes the earlier
//!   front by `(time, push number)`, so the order is a single heap's.
//! - [`link`] — a bottleneck link: serialization at the (time-varying)
//!   trace rate, propagation delay, jitter, tail-drop queue, random loss.
//!   A packet's serialization time is reused from the one before when
//!   size and rate repeat, as a frame's fragments do.
//! - [`trace`] — bandwidth traces: constant, stepped, broadband (25 Mbps
//!   class), and LTE-like Markov traces.
//! - [`transport`] — a frame's size fragmented over a link: per-packet
//!   header overhead, per-frame completion and latency accounting, one
//!   retransmission round for lost fragments.
//! - [`predict`] — the EWMA bandwidth predictor that feeds the one
//!   adaptation mechanism, `holo-conf`'s semantic degradation ladder
//!   (§3.2).
//! - [`fault`] — deterministic fault injection: seeded Gilbert–Elliott
//!   burst loss, bandwidth drops, link flaps, delay spikes, and payload
//!   corruption compiled into per-link [`FaultClock`]s consumed inside
//!   [`Link::transmit`] (the substrate `holo-chaos` builds scenarios on).
//! - [`wire`] — the versioned, CRC32-checksummed [`WireFrame`] envelope
//!   `Session` and the SFU put on every hop, so corrupted payloads are
//!   *detected and dropped* instead of poisoning the render path.
//!
//! [`Link::transmit`]: link::Link::transmit

pub mod fault;
pub mod link;
pub mod predict;
pub mod time;
pub mod trace;
pub mod transport;
pub mod wire;

pub use fault::{FaultClock, FaultEffect, FaultSegment, LossModel};
pub use link::{Link, LinkConfig, LinkStats};
pub use predict::EwmaPredictor;
pub use time::{EventQueue, SimTime};
pub use trace::BandwidthTrace;
pub use transport::FrameTransport;
pub use wire::{crc32, PayloadKind, WireFrame, MAX_WIRE_PAYLOAD, WIRE_HEADER_BYTES};
