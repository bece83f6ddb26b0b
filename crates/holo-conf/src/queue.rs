//! The SFU's bounded per-subscriber egress queue.
//!
//! The forwarder cannot buffer arbitrarily: when a subscriber's
//! downlink falls behind the room's aggregate frame rate, frames pile
//! up at the SFU's egress port. The queue is bounded **in frames** and
//! tail-drops at admission time — this is where backpressure becomes
//! frame loss, and (via the keyframe/delta dependency rules) where one
//! congested moment poisons a whole delta run for that subscriber only.

use holo_math::Summary;
use holo_net::time::SimTime;

/// A bounded egress queue in front of one subscriber's downlink.
///
/// The downlink link model already serializes admitted frames in
/// virtual time; the queue tracks how many admitted frames are still
/// in flight (not yet fully serialized) and rejects any incoming frame
/// while that occupancy is at the bound.
#[derive(Debug, Clone)]
pub struct EgressQueue {
    /// Occupancy bound, frames.
    pub capacity: usize,
    in_flight: Vec<SimTime>,
    /// Frames admitted to the downlink.
    pub admitted: u64,
    /// Delta frames rejected at admission.
    pub dropped_deltas: u64,
    /// Keyframes rejected at admission.
    pub dropped_keys: u64,
    /// Occupancy observed at each admission attempt.
    pub occupancy: Summary,
}

impl EgressQueue {
    /// An empty queue.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            in_flight: Vec::new(),
            admitted: 0,
            dropped_deltas: 0,
            dropped_keys: 0,
            occupancy: Summary::new(),
        }
    }

    /// Frames still in flight at `now`.
    pub fn occupancy_at(&mut self, now: SimTime) -> usize {
        self.in_flight.retain(|t| *t > now);
        self.in_flight.len()
    }

    /// Offer a frame at `now`; returns whether it may enter the
    /// downlink. Records the occupancy sample and any drop.
    pub fn admit(&mut self, now: SimTime, is_key: bool) -> bool {
        let occ = self.occupancy_at(now);
        self.occupancy.record(occ as f64);
        let admit = occ < self.capacity;
        if !admit {
            if is_key {
                self.dropped_keys += 1;
            } else {
                self.dropped_deltas += 1;
            }
        }
        admit
    }

    /// Record an admitted frame whose downlink serialization finishes at
    /// `done` (the link's busy horizon after the send).
    pub fn commit(&mut self, done: SimTime) {
        self.admitted += 1;
        self.in_flight.push(done);
    }

    /// Total frames rejected at admission.
    pub fn dropped(&self) -> u64 {
        self.dropped_deltas + self.dropped_keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn admits_until_full_then_tail_drops() {
        let mut q = EgressQueue::new(2);
        assert!(q.admit(t(0), false));
        q.commit(t(100));
        assert!(q.admit(t(0), false));
        q.commit(t(200));
        // Full at t=0.
        assert!(!q.admit(t(0), true), "tail drop rejects keys too");
        assert_eq!(q.dropped_keys, 1);
        // After the first frame drains, space again.
        assert!(q.admit(t(150), false));
        assert_eq!(q.dropped(), 1);
    }

    #[test]
    fn occupancy_drains_with_time() {
        let mut q = EgressQueue::new(8);
        for i in 0..5u64 {
            assert!(q.admit(t(0), false));
            q.commit(t(10 * (i + 1)));
        }
        assert_eq!(q.occupancy_at(t(0)), 5);
        assert_eq!(q.occupancy_at(t(25)), 3);
        assert_eq!(q.occupancy_at(t(100)), 0);
        assert!(q.occupancy.max() >= 4.0);
    }
}
