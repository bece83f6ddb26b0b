//! Frame transport: fragmentation and latency accounting, by size.
//!
//! A holographic frame (pose payload, compressed mesh, image set, token
//! stream) reaches the link model as a wire size: it is cut into
//! MTU-sized fragments, each fragment's size is offered to the link, and
//! the frame completes at the arrival of its last fragment. Loss handling
//! is configurable (a frame with missing fragments is either discarded —
//! live mode — or its lost fragments are retransmitted once).

use crate::link::{Delivery, Link};
use crate::time::SimTime;
use holo_runtime::bytes::Bytes;
use std::time::Duration;

/// Payload bytes per packet (1500 MTU minus headers).
pub const MTU_PAYLOAD: usize = 1460;

/// Per-packet header estimate on the wire (IP + UDP + our framing).
pub const PACKET_HEADER_BYTES: usize = 40;

/// Loss-handling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossPolicy {
    /// Live streaming: incomplete frames are dropped.
    DropFrame,
    /// One retransmission round for lost fragments (adds an RTT).
    RetransmitOnce,
}

/// Result of sending one frame.
#[derive(Debug, Clone, Copy)]
pub struct FrameResult {
    /// Frame id.
    pub frame_id: u64,
    /// Whether the frame arrived completely.
    pub complete: bool,
    /// Time the last fragment arrived (when complete).
    pub completed_at: Option<SimTime>,
    /// Frame latency from send start (when complete).
    pub latency: Option<Duration>,
    /// Fragments sent (including retransmissions).
    pub packets_sent: u32,
    /// Wire bytes sent (including headers and retransmissions).
    pub wire_bytes: u64,
}

/// A frame transport bound to a link. The simulation is synchronous, so
/// both ends' bookkeeping lives here.
#[derive(Debug)]
pub struct FrameTransport {
    /// Loss policy.
    pub policy: LossPolicy,
    /// Completed frame count.
    pub frames_complete: u64,
    /// Dropped (incomplete) frame count.
    pub frames_dropped: u64,
    next_frame: u64,
    /// The underlying link.
    pub link: Link,
}

impl FrameTransport {
    /// Bind a transport to a link.
    pub fn new(link: Link, policy: LossPolicy) -> Self {
        Self { policy, frames_complete: 0, frames_dropped: 0, next_frame: 0, link }
    }

    /// Convenience for callers that hold the frame's bytes: exactly
    /// [`send_frame_sized`](Self::send_frame_sized) on `payload.len()`.
    pub fn send_frame(&mut self, payload: Bytes, now: SimTime) -> FrameResult {
        self.send_frame_sized(payload.len(), now)
    }

    /// Send one frame of `payload_len` bytes at time `now`; returns the
    /// delivery outcome. The link model consumes only wire sizes, so no
    /// payload buffer is needed. The synchronous simulation resolves the
    /// entire frame's fate immediately (virtual time still advances
    /// correctly because the link tracks its own busy horizon).
    pub fn send_frame_sized(&mut self, payload_len: usize, now: SimTime) -> FrameResult {
        let frame_id = self.next_frame;
        self.next_frame += 1;
        holo_trace::counter("transport.frames_sent", 1);
        let fragment_count = payload_len.div_ceil(MTU_PAYLOAD).max(1) as u32;
        let mut result = FrameResult {
            frame_id,
            complete: false,
            completed_at: None,
            latency: None,
            packets_sent: 0,
            wire_bytes: 0,
        };
        let mut lost_fragments: Vec<u32> = Vec::new();
        let mut last_arrival = SimTime::ZERO;

        for frag in 0..fragment_count {
            let lo = frag as usize * MTU_PAYLOAD;
            let hi = (lo + MTU_PAYLOAD).min(payload_len);
            let wire_size = hi - lo + PACKET_HEADER_BYTES;
            result.packets_sent += 1;
            result.wire_bytes += wire_size as u64;
            match self.link.transmit(wire_size, now) {
                Delivery::At(t) => last_arrival = last_arrival.max(t),
                Delivery::Lost | Delivery::QueueDrop => lost_fragments.push(frag),
            }
        }

        if !lost_fragments.is_empty() && self.policy == LossPolicy::RetransmitOnce {
            // NACK arrives one propagation later; retransmit from there.
            let nack_at = last_arrival.max(now) + self.link.config.propagation;
            let mut still_lost = false;
            for frag in lost_fragments.drain(..) {
                let lo = frag as usize * MTU_PAYLOAD;
                let hi = (lo + MTU_PAYLOAD).min(payload_len);
                let size = hi - lo + PACKET_HEADER_BYTES;
                result.packets_sent += 1;
                result.wire_bytes += size as u64;
                holo_trace::counter("transport.retx_fragments", 1);
                match self.link.transmit(size, nack_at) {
                    Delivery::At(t) => last_arrival = last_arrival.max(t),
                    _ => still_lost = true,
                }
            }
            if still_lost {
                self.frames_dropped += 1;
                holo_trace::counter("transport.frames_dropped", 1);
                return result;
            }
        } else if !lost_fragments.is_empty() {
            self.frames_dropped += 1;
            holo_trace::counter("transport.frames_dropped", 1);
            return result;
        }

        result.complete = true;
        result.completed_at = Some(last_arrival);
        result.latency = Some(last_arrival - now);
        self.frames_complete += 1;
        if holo_trace::enabled() {
            holo_trace::counter("transport.frames_complete", 1);
            holo_trace::counter("transport.wire_bytes", result.wire_bytes);
            holo_trace::histogram(
                "transport.frame_latency_us",
                (last_arrival - now).as_micros() as u64,
            );
        }
        result
    }

    /// Bandwidth needed to ship `frame_bytes` per frame at `fps`,
    /// including per-packet header overhead, in bps — the Table 2 metric.
    pub fn required_bps(frame_bytes: usize, fps: f64) -> f64 {
        let packets = frame_bytes.div_ceil(MTU_PAYLOAD).max(1);
        let wire = frame_bytes + packets * PACKET_HEADER_BYTES;
        wire as f64 * 8.0 * fps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use crate::trace::BandwidthTrace;

    fn transport(bps: f64, loss: f32, policy: LossPolicy) -> FrameTransport {
        let link = Link::new(
            LinkConfig {
                jitter_max: Duration::ZERO,
                loss_rate: loss,
                max_queue_delay: Duration::from_secs(10),
                ..Default::default()
            },
            BandwidthTrace::Constant { bps },
            3,
        );
        FrameTransport::new(link, policy)
    }

    #[test]
    fn small_frame_single_packet() {
        let mut t = transport(10e6, 0.0, LossPolicy::DropFrame);
        let r = t.send_frame(Bytes::from(vec![1u8; 500]), SimTime::ZERO);
        assert!(r.complete);
        assert_eq!(r.packets_sent, 1);
        let lat = r.latency.unwrap().as_secs_f64() * 1000.0;
        // 540 B at 10 Mbps = 0.43 ms + 20 ms propagation.
        assert!((lat - 20.43).abs() < 0.2, "latency {lat} ms");
    }

    #[test]
    fn large_frame_fragments() {
        let mut t = transport(100e6, 0.0, LossPolicy::DropFrame);
        let size = 400_000; // a raw mesh frame
        let r = t.send_frame(Bytes::from(vec![0u8; size]), SimTime::ZERO);
        assert!(r.complete);
        assert_eq!(r.packets_sent as usize, size.div_ceil(MTU_PAYLOAD));
        // Serialization dominates: ~32.5 ms at 100 Mbps + 20 ms.
        let lat = r.latency.unwrap().as_secs_f64() * 1000.0;
        assert!((lat - 52.7).abs() < 3.0, "latency {lat} ms");
    }

    #[test]
    fn frame_latency_grows_when_link_saturated() {
        let mut t = transport(10e6, 0.0, LossPolicy::DropFrame);
        // 30 FPS of 100 KB frames = 24 Mbps on a 10 Mbps link.
        let mut latencies = Vec::new();
        for i in 0..20 {
            let now = SimTime::from_secs_f64(i as f64 / 30.0);
            let r = t.send_frame(Bytes::from(vec![0u8; 100_000]), now);
            if let Some(l) = r.latency {
                latencies.push(l.as_secs_f64());
            }
        }
        // Later frames should be slower (queue build-up) until drops kick in.
        assert!(latencies.len() >= 2);
        assert!(latencies.last().unwrap() > latencies.first().unwrap());
    }

    #[test]
    fn loss_drops_frames_in_live_mode() {
        let mut t = transport(1e9, 0.05, LossPolicy::DropFrame);
        let mut complete = 0;
        for i in 0..200 {
            let r = t.send_frame(Bytes::from(vec![0u8; 20_000]), SimTime::from_millis(i * 10));
            if r.complete {
                complete += 1;
            }
        }
        // 14 packets/frame at 5% loss: ~49% of frames survive.
        assert!(complete > 40 && complete < 160, "complete {complete}");
        assert!(t.frames_dropped > 0);
    }

    #[test]
    fn retransmission_recovers_most_frames() {
        let mut t = transport(1e9, 0.05, LossPolicy::RetransmitOnce);
        let mut complete = 0;
        for i in 0..200 {
            let r = t.send_frame(Bytes::from(vec![0u8; 20_000]), SimTime::from_millis(i * 10));
            if r.complete {
                complete += 1;
            }
        }
        assert!(complete > 180, "complete with retx {complete}");
    }

    #[test]
    fn retransmission_adds_rtt() {
        // Deterministic: a link that loses the first packet offered.
        let mut t = transport(1e9, 0.3, LossPolicy::RetransmitOnce);
        let mut max_lat = Duration::ZERO;
        let mut min_lat = Duration::from_secs(100);
        for i in 0..100 {
            let r = t.send_frame(Bytes::from(vec![0u8; 10_000]), SimTime::from_millis(i * 20));
            if let Some(l) = r.latency {
                max_lat = max_lat.max(l);
                min_lat = min_lat.min(l);
            }
        }
        // Frames needing retransmission pay roughly an extra RTT.
        assert!(max_lat > min_lat + Duration::from_millis(30), "min {min_lat:?} max {max_lat:?}");
    }

    #[test]
    fn required_bps_matches_table2_arithmetic() {
        // 1956-byte pose at 30 FPS: ~0.48 Mbps with headers (the paper
        // reports 0.46 counting payload only).
        let bps = FrameTransport::required_bps(1956, 30.0);
        assert!((bps - 489_600.0).abs() < 1000.0, "pose bps {bps}");
        // Payload-only check: 1956 * 8 * 30 = 469,440 ~ 0.46 Mbps.
        assert!((1956.0f64 * 8.0 * 30.0 / 1e6 - 0.469).abs() < 0.01);
    }

    #[test]
    fn sized_send_matches_payload_send() {
        // `send_frame` is the by-size path on `payload.len()`: on a lossy
        // link both must drive the link (and its RNG) identically.
        let mut a = transport(20e6, 0.03, LossPolicy::RetransmitOnce);
        let mut b = transport(20e6, 0.03, LossPolicy::RetransmitOnce);
        for i in 0..50u64 {
            let now = SimTime::from_millis(i * 7);
            let len = (i as usize * 337) % 9000;
            let ra = a.send_frame(Bytes::from(vec![1u8; len]), now);
            let rb = b.send_frame_sized(len, now);
            assert_eq!(ra.complete, rb.complete);
            assert_eq!(ra.completed_at, rb.completed_at);
            assert_eq!(ra.packets_sent, rb.packets_sent);
            assert_eq!(ra.wire_bytes, rb.wire_bytes);
        }
    }

    #[test]
    fn empty_frame() {
        let mut t = transport(10e6, 0.0, LossPolicy::DropFrame);
        let r = t.send_frame(Bytes::new(), SimTime::ZERO);
        assert!(r.complete);
        assert_eq!(r.packets_sent, 1);
    }
}
