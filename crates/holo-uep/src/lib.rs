//! Semantic-importance unequal protection (UEP).
//!
//! The paper's core claim is that telepresence traffic is not opaque
//! bytes: a keyframe that re-seeds a dependency chain, a keypoint
//! payload that drives an avatar, and the ninth delta of a GOP that
//! nothing depends on are *semantically* different, and a transport
//! that spends its redundancy budget uniformly across them wastes most
//! of it. This crate is the policy layer of that argument:
//!
//! * [`classify`] derives an [`ImportanceClass`] for every frame,
//!   deterministically, from facts the sender already knows — its
//!   keyframe/delta role ([`holo_conf::frame::FrameTag`]), how many
//!   frames transitively depend on it
//!   ([`holo_conf::frame::gop_descendants`]), and its payload kind.
//! * [`UepPolicy`] maps classes to concrete protection: per-class FEC
//!   stripe strength, per-class retransmit aggressiveness, and a
//!   deadline-aware *abandonment* rule that stops retransmitting a
//!   delta once no frame that depends on it can still render in time.
//!
//! The crate deliberately contains no I/O and no event loop: it is the
//! pure decision layer. `holo-chaos` owns the scheduler that executes
//! these decisions over a fault-injected link, and its sweeps hold the
//! redundancy budget *equal* between [`UepPolicy::uniform`] and
//! [`UepPolicy::weighted`] — the accounting functions
//! ([`UepPolicy::parity_frames`], [`UepPolicy::scheduled_retries`])
//! exist so that equality is checked in bytes and retry slots, not
//! asserted in prose.

pub mod classify;
pub mod policy;

pub use classify::classify;
pub use holo_net::wire::ImportanceClass;
pub use policy::{last_useful_instant, ClassProtection, PolicyError, StripeSpec, UepPolicy};
