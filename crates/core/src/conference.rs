//! Multi-party telepresence: how many participants fit on a link?
//!
//! The paper's telepresence vision is not point-to-point: meetings have
//! N participants, each receiving everyone else's hologram. Without
//! multicast, a participant's access link carries one upload and N-1
//! downloads, so per-stream bandwidth multiplies into the capacity
//! question that makes or breaks the meeting: **how many people can join
//! before the link saturates?** Semantic streams (sub-Mbps) admit rooms
//! two orders of magnitude larger than mesh streams — the quantified
//! version of the paper's motivation.

use crate::error::Result;
use crate::scene::SceneSource;
use crate::semantics::SemanticPipeline;

/// Result of a conference capacity analysis.
#[derive(Debug, Clone)]
pub struct ConferenceReport {
    /// Participants simulated.
    pub participants: usize,
    /// Mean per-stream bandwidth, bps.
    pub stream_bps: f64,
    /// Per-participant download requirement (N-1 streams), bps.
    pub download_bps: f64,
    /// Whether the given access capacity fits upload + download.
    pub fits: bool,
    /// Largest participant count whose traffic fits the access capacity.
    /// Follows the 0-participant convention of
    /// [`closed_form_max_participants`]: 0 when even the lone upload
    /// saturates the link (the room holds nobody, not one person).
    pub max_participants: usize,
}

/// Closed-form room capacity: the largest N such that one upload plus
/// N-1 downloads of `stream_bps` fit on `access_bps` (SFU topology).
///
/// **The 0-participant convention:** when the single upload alone
/// exceeds the access link the room holds *nobody* — the function
/// returns 0, never 1. (The pre-PR-2 `.max(0) + 1` formula could not
/// express an empty room and misreported saturating streams as a
/// room of one.) A free stream (`stream_bps <= 0`) has unbounded
/// capacity: `usize::MAX`.
pub fn closed_form_max_participants(stream_bps: f64, access_bps: f64) -> usize {
    if stream_bps <= 0.0 {
        return usize::MAX;
    }
    if stream_bps > access_bps {
        // The upload alone does not fit: the room holds nobody.
        return 0;
    }
    ((access_bps - stream_bps) / stream_bps).floor().max(0.0) as usize + 1
}

/// Closed-form capacity of one room *spanning a fleet* of `nodes`
/// cascaded SFUs with participants spread evenly across them. The
/// cascade invariant makes the arithmetic: each publisher's stream
/// crosses each directed inter-SFU link **once** (one copy per remote
/// SFU, not per remote subscriber), so a directed cascade link out of
/// a node carries exactly that node's publishers. The bound is the
/// largest N such that
///
/// 1. every participant's access link carries one upload plus N-1
///    downloads of `stream_bps` (the
///    [`closed_form_max_participants`] bound), and
/// 2. every directed cascade link carries its source node's
///    `ceil(N / nodes)` publisher streams within `cascade_bps`.
///
/// Conventions mirror [`closed_form_max_participants`]: the result is
/// **0** (an empty fleet, never a room of one) when `nodes == 0`,
/// when a single stream saturates the access link, or when — with
/// more than one node — a single stream saturates a cascade link (a
/// spanning room cannot exist). A free stream is unbounded:
/// `usize::MAX`. With `nodes == 1` there is no cascade and the bound
/// reduces exactly to the single-SFU closed form.
pub fn closed_form_fleet_capacity(
    nodes: usize,
    cascade_bps: f64,
    access_bps: f64,
    stream_bps: f64,
) -> usize {
    if nodes == 0 {
        return 0;
    }
    if stream_bps <= 0.0 {
        return usize::MAX;
    }
    let access_bound = closed_form_max_participants(stream_bps, access_bps);
    if access_bound == 0 || nodes == 1 {
        return access_bound;
    }
    // Per-node publisher budget on each directed cascade link.
    let per_node = (cascade_bps / stream_bps).floor().max(0.0) as usize;
    if per_node == 0 {
        // The cascade cannot carry even one stream: no spanning room.
        return 0;
    }
    access_bound.min(per_node.saturating_mul(nodes))
}

/// Simulation-backed room capacity: the largest N in `[2, cap]` for
/// which the caller's oracle reports that an N-person room still meets
/// its quality bar. The oracle runs a real (virtual-time) room
/// simulation — `holo-conf` provides one — so the answer reflects
/// queueing, loss coupling, and per-subscriber adaptation that the
/// closed-form mean-bandwidth bound cannot see. Assumes `fits` is
/// monotone in N (a bigger room never fits when a smaller one failed);
/// probes by doubling, then bisects. Returns 1 when even a 2-person
/// room fails (you can always sit alone), and `cap` when every probed
/// size fits.
pub fn simulated_max_participants(cap: usize, mut fits: impl FnMut(usize) -> bool) -> usize {
    let cap = cap.max(2);
    if !fits(2) {
        return 1;
    }
    // Doubling phase: find the first failing size.
    let mut lo = 2usize; // largest known-fitting size
    let mut hi = None; // smallest known-failing size
    let mut probe = 4usize;
    while probe < cap {
        if fits(probe) {
            lo = probe;
            probe *= 2;
        } else {
            hi = Some(probe);
            break;
        }
    }
    let mut hi = match hi {
        Some(h) => h,
        None => {
            if fits(cap) {
                return cap;
            }
            cap
        }
    };
    // Bisection on [lo, hi).
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if fits(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The closed-form bound next to the simulated measurement, with the
/// gap the mean-bandwidth arithmetic leaves on the table.
#[derive(Debug, Clone, Copy)]
pub struct CapacityComparison {
    /// The closed-form bound from mean stream bandwidth.
    pub closed_form: usize,
    /// The empirically measured max room size.
    pub simulated: usize,
    /// `simulated as f64 / closed_form as f64` (1.0 when both are 0).
    pub ratio: f64,
}

/// Compare the closed-form bound against a simulated measurement.
pub fn compare_capacity(closed_form: usize, simulated: usize) -> CapacityComparison {
    let ratio = if closed_form == 0 {
        if simulated == 0 { 1.0 } else { f64::INFINITY }
    } else {
        simulated as f64 / closed_form as f64
    };
    CapacityComparison { closed_form, simulated, ratio }
}

/// Measure a pipeline's mean stream bandwidth over `frames` frames of a
/// scene and derive conference capacity on an access link of
/// `access_bps` (SFU model: one upload, N-1 downloads per participant).
pub fn conference_capacity(
    pipeline: &mut dyn SemanticPipeline,
    scene: &SceneSource,
    frames: usize,
    participants: usize,
    access_bps: f64,
) -> Result<ConferenceReport> {
    let fps = scene.context().config.fps as f64;
    let mut total_bytes = 0usize;
    let mut n = 0usize;
    for frame in scene.frames(frames)? {
        let enc = pipeline.encode(&frame)?;
        total_bytes += enc.payload.len();
        n += 1;
    }
    let mean_bytes = total_bytes as f64 / n.max(1) as f64;
    let stream_bps = mean_bytes * 8.0 * fps;
    let download_bps = stream_bps * participants.saturating_sub(1) as f64;
    let fits = stream_bps + download_bps <= access_bps;
    // Capacity: upload + (N-1) downloads <= access.
    let max_participants = closed_form_max_participants(stream_bps, access_bps);
    Ok(ConferenceReport {
        participants,
        stream_bps,
        download_bps,
        fits,
        max_participants,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SemHoloConfig;
    use crate::keypoint::{KeypointConfig, KeypointPipeline};
    use crate::scene::SceneSource;
    use crate::traditional::{MeshWire, TraditionalPipeline};

    fn scene() -> SceneSource {
        let config = SemHoloConfig {
            capture_resolution: (48, 36),
            camera_count: 2,
            ..Default::default()
        };
        SceneSource::new(&config, 0.3)
    }

    #[test]
    fn semantic_rooms_are_much_larger() {
        let scene = scene();
        let broadband = 25e6;
        let mut kp = KeypointPipeline::new(KeypointConfig { resolution: 32, ..Default::default() }, 1);
        let mut trad = TraditionalPipeline::new(MeshWire::Compressed, 14);
        let kp_cap = conference_capacity(&mut kp, &scene, 5, 4, broadband).unwrap();
        let trad_cap = conference_capacity(&mut trad, &scene, 5, 4, broadband).unwrap();
        assert!(
            kp_cap.max_participants > trad_cap.max_participants * 10,
            "semantic {} vs traditional {} participants",
            kp_cap.max_participants,
            trad_cap.max_participants
        );
        // The paper's broadband regime: compressed mesh fits only a
        // handful of peers.
        assert!(trad_cap.max_participants < 6, "mesh room {}", trad_cap.max_participants);
        assert!(kp_cap.max_participants > 30, "semantic room {}", kp_cap.max_participants);
    }

    #[test]
    fn download_scales_with_room_size() {
        let scene = scene();
        let mut kp = KeypointPipeline::new(KeypointConfig { resolution: 32, ..Default::default() }, 2);
        let small = conference_capacity(&mut kp, &scene, 3, 2, 25e6).unwrap();
        let mut kp2 = KeypointPipeline::new(KeypointConfig { resolution: 32, ..Default::default() }, 2);
        let large = conference_capacity(&mut kp2, &scene, 3, 10, 25e6).unwrap();
        assert!(large.download_bps > small.download_bps * 4.0);
        assert!(small.fits);
    }

    #[test]
    fn raw_mesh_conference_does_not_fit_broadband() {
        let scene = scene();
        let mut raw = TraditionalPipeline::new(MeshWire::Raw, 14);
        let cap = conference_capacity(&mut raw, &scene, 2, 3, 25e6).unwrap();
        assert!(!cap.fits, "raw mesh 3-way call cannot fit 25 Mbps");
        // The raw mesh upload alone exceeds 25 Mbps: the room holds
        // nobody, not one person (regression for the old `.max(0)+1`
        // formula that could never report 0).
        assert!(cap.stream_bps > 25e6, "premise: raw mesh stream saturates the link");
        assert_eq!(cap.max_participants, 0, "saturating upload means capacity 0");
    }

    #[test]
    fn closed_form_edge_cases() {
        // Stream wider than the access link: 0, not 1.
        assert_eq!(closed_form_max_participants(30e6, 25e6), 0);
        // Exactly the access rate: the lone uploader fits.
        assert_eq!(closed_form_max_participants(25e6, 25e6), 1);
        // 1 upload + 4 downloads of 5 Mbps fill 25 Mbps.
        assert_eq!(closed_form_max_participants(5e6, 25e6), 5);
        // A free stream has unbounded capacity.
        assert_eq!(closed_form_max_participants(0.0, 25e6), usize::MAX);
    }

    #[test]
    fn fleet_closed_form_edge_cases() {
        // No nodes, no room.
        assert_eq!(closed_form_fleet_capacity(0, 1e9, 25e6, 5e6), 0);
        // Free streams are unbounded.
        assert_eq!(closed_form_fleet_capacity(4, 1e9, 25e6, 0.0), usize::MAX);
        // One node reduces to the single-SFU closed form.
        assert_eq!(
            closed_form_fleet_capacity(1, 1e9, 25e6, 5e6),
            closed_form_max_participants(5e6, 25e6)
        );
        // A stream wider than the access link holds nobody (the PR 2
        // convention), regardless of cascade headroom.
        assert_eq!(closed_form_fleet_capacity(4, 1e12, 25e6, 30e6), 0);
        // A stream wider than the cascade cannot span nodes at all.
        assert_eq!(closed_form_fleet_capacity(4, 1e6, 1e9, 5e6), 0);
    }

    #[test]
    fn fleet_closed_form_cascade_binds_before_access() {
        // 5 Mbps streams on 1 Gbps access: the access side would fit
        // 200 participants. But a 25 Mbps cascade carries only 5
        // publishers per node: 4 nodes cap the spanning room at 20.
        assert_eq!(closed_form_fleet_capacity(4, 25e6, 1e9, 5e6), 20);
        // Doubling the fleet doubles the cascade-bound capacity until
        // the access bound takes over.
        assert_eq!(closed_form_fleet_capacity(8, 25e6, 1e9, 5e6), 40);
        let access_bound = closed_form_max_participants(5e6, 1e9);
        assert_eq!(closed_form_fleet_capacity(64, 25e6, 1e9, 5e6), access_bound);
    }

    #[test]
    fn simulated_search_matches_oracle_threshold() {
        // An oracle with a crisp threshold: rooms of <= 23 fit.
        let mut probes = Vec::new();
        let max = simulated_max_participants(256, |n| {
            probes.push(n);
            n <= 23
        });
        assert_eq!(max, 23);
        // Logarithmic probe count, not a linear scan.
        assert!(probes.len() <= 16, "probes {probes:?}");

        assert_eq!(simulated_max_participants(256, |n| n <= 2), 2);
        assert_eq!(simulated_max_participants(256, |_| false), 1);
        assert_eq!(simulated_max_participants(64, |_| true), 64);
    }

    #[test]
    fn capacity_comparison_ratio() {
        let c = compare_capacity(200, 150);
        assert_eq!(c.closed_form, 200);
        assert_eq!(c.simulated, 150);
        assert!((c.ratio - 0.75).abs() < 1e-12);
        assert!(compare_capacity(0, 5).ratio.is_infinite());
        assert_eq!(compare_capacity(0, 0).ratio, 1.0);
    }

    #[test]
    fn more_frames_than_the_scene_holds_is_a_config_error() {
        let scene = scene();
        let frames = scene.len() + 1;
        let mut raw = TraditionalPipeline::new(MeshWire::Raw, 14);
        let Err(err) = conference_capacity(&mut raw, &scene, frames, 3, 25e6) else {
            panic!("a probe longer than its scene must be refused")
        };
        let want = format!("config error: {frames} frames requested but the scene has only {}", scene.len());
        assert_eq!(err.to_string(), want);
    }
}
