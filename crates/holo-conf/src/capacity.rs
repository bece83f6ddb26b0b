//! Empirical room capacity: how many participants actually fit.
//!
//! `core::conference` bounds room size with closed-form mean-bandwidth
//! arithmetic. This module measures it: grow the room until the
//! simulated SFU — with queueing, keyframe/delta loss coupling, and
//! per-subscriber adaptation — no longer meets the quality bar, using
//! `core`'s monotone capacity search over a real room oracle.

use crate::participant::ParticipantConfig;
use crate::room::{Room, RoomConfig};
use semholo::conference::{closed_form_max_participants, simulated_max_participants};
use semholo::error::Result;
use semholo::scene::SceneSource;
use semholo::semantics::SemanticPipeline;

/// When does a room still "fit"?
#[derive(Debug, Clone, Copy)]
pub struct CapacityCriteria {
    /// Every subscriber must keep at least this usable-frame rate.
    pub min_usable_rate: f64,
    /// Mean end-to-end latency must stay under this, ms.
    pub max_mean_e2e_ms: f64,
}

impl Default for CapacityCriteria {
    fn default() -> Self {
        Self { min_usable_rate: 0.9, max_mean_e2e_ms: 400.0 }
    }
}

/// Capacity-measurement parameters.
#[derive(Debug, Clone)]
pub struct CapacityConfig {
    /// Frames simulated per probed room size.
    pub frames: usize,
    /// Symmetric access-link rate per participant, bps.
    pub access_bps: f64,
    /// Largest room size probed (search cost cap).
    pub cap: usize,
    /// Room seed.
    pub seed: u64,
    /// Fit criteria.
    pub criteria: CapacityCriteria,
    /// Keyframe cadence inside probed rooms.
    pub keyframe_interval: usize,
}

impl Default for CapacityConfig {
    fn default() -> Self {
        Self {
            frames: 10,
            access_bps: 100e6,
            cap: 256,
            seed: 1,
            criteria: CapacityCriteria::default(),
            keyframe_interval: 10,
        }
    }
}

/// One probed room size.
#[derive(Debug, Clone, Copy)]
pub struct CapacityProbe {
    /// Room size probed.
    pub size: usize,
    /// Worst subscriber usable rate observed.
    pub min_usable_rate: f64,
    /// Mean end-to-end latency observed, ms.
    pub mean_e2e_ms: f64,
    /// Whether the room met the criteria.
    pub fits: bool,
}

/// The measurement next to its closed-form bound.
#[derive(Debug, Clone)]
pub struct CapacityMeasurement {
    /// Empirical max room size under the criteria.
    pub max_size: usize,
    /// True when the search hit `cap` while still fitting (the real
    /// capacity is at least `max_size`).
    pub capped: bool,
    /// Mean stream bandwidth measured from the pipeline, bps.
    pub stream_bps: f64,
    /// The closed-form bound for that stream on the access link.
    pub closed_form: usize,
    /// Every probed size, in probe order.
    pub probes: Vec<CapacityProbe>,
}

/// Measure the empirical max room size for a pipeline on a symmetric
/// access link. `make_pipeline` builds a fresh sender pipeline per
/// probe (probes share one encoder per room; see
/// [`RoomConfig::share_encoder`]).
pub fn measure_max_room_size(
    scene: &SceneSource,
    cfg: &CapacityConfig,
    make_pipeline: &mut dyn FnMut() -> Box<dyn SemanticPipeline>,
) -> Result<CapacityMeasurement> {
    // Closed-form side: mean stream bandwidth over the probe window.
    let fps = scene.context().config.fps as f64;
    let mut probe_pipeline = make_pipeline();
    let mut total = 0usize;
    for frame in scene.frames(cfg.frames)? {
        total += probe_pipeline.encode(&frame)?.payload.len();
    }
    let stream_bps = total as f64 / cfg.frames.max(1) as f64 * 8.0 * fps;
    let closed_form = closed_form_max_participants(stream_bps, cfg.access_bps);

    // Simulated side: a real room per probe.
    let mut probes = Vec::new();
    let mut first_error = None;
    let max_size = simulated_max_participants(cfg.cap, |n| {
        if first_error.is_some() {
            return false;
        }
        match probe_room(scene, cfg, n, make_pipeline) {
            Ok(probe) => {
                let fits = probe.fits;
                probes.push(probe);
                fits
            }
            Err(e) => {
                first_error = Some(e);
                false
            }
        }
    });
    if let Some(e) = first_error {
        return Err(e);
    }
    let capped = max_size >= cfg.cap;
    Ok(CapacityMeasurement { max_size, capped, stream_bps, closed_form, probes })
}

fn probe_room(
    scene: &SceneSource,
    cfg: &CapacityConfig,
    n: usize,
    make_pipeline: &mut dyn FnMut() -> Box<dyn SemanticPipeline>,
) -> Result<CapacityProbe> {
    let room_cfg = RoomConfig {
        participants: ParticipantConfig::uniform_room(n, cfg.access_bps),
        frames: cfg.frames,
        keyframe_interval: cfg.keyframe_interval,
        seed: cfg.seed,
        share_encoder: true,
        ..Default::default()
    };
    let mut room = Room::new(room_cfg)?;
    let mut pipelines = vec![make_pipeline()];
    let report = room.run(scene, &mut pipelines)?;
    let min_usable_rate = report.min_usable_rate();
    let mean_e2e_ms = report.mean_e2e_ms();
    // A NaN rate fails the first comparison, so it never fits.
    let fits = min_usable_rate >= cfg.criteria.min_usable_rate
        && (mean_e2e_ms.is_nan() || mean_e2e_ms <= cfg.criteria.max_mean_e2e_ms)
        && min_usable_rate > 0.0;
    Ok(CapacityProbe { size: n, min_usable_rate, mean_e2e_ms, fits })
}

#[cfg(test)]
mod tests {
    use super::*;
    use semholo::config::SemHoloConfig;
    use semholo::text::{TextConfig, TextPipeline};

    #[test]
    fn capacity_search_is_monotone_and_capped() {
        let config = SemHoloConfig {
            capture_resolution: (48, 36),
            camera_count: 2,
            ..Default::default()
        };
        let scene = SceneSource::new(&config, 0.3);
        let cap_cfg = CapacityConfig {
            frames: 4,
            access_bps: 2e6, // tight: text streams are ~100s of kbps
            cap: 16,
            ..Default::default()
        };
        let mut make = || -> Box<dyn SemanticPipeline> {
            Box::new(TextPipeline::new(TextConfig::default(), 5))
        };
        let m = measure_max_room_size(&scene, &cap_cfg, &mut make).unwrap();
        assert!(m.max_size >= 1);
        assert!(m.max_size <= 16);
        assert!(m.stream_bps > 0.0);
        // Probes must respect the claimed result: every probe at or
        // below max_size that the search relied on fit.
        for p in &m.probes {
            if p.size <= m.max_size {
                assert!(p.fits, "probe at {} should fit (max {})", p.size, m.max_size);
            }
        }
    }
}
