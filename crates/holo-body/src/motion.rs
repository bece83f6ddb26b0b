//! Deterministic synthetic motion clips.
//!
//! Every experiment needs a capture workload: a participant talking,
//! gesturing, or walking in front of the RGB-D rig. These synthesizers
//! generate plausible, smooth, seed-deterministic [`SmplxParams`]
//! sequences with the statistical properties that matter downstream:
//! continuous joint trajectories (inter-frame deltas are small — the
//! property §3.3's temporal coding exploits), mostly-idle fingers (what
//! makes the pose stream compressible in Table 2), and talking-driven
//! expression activity (the Fig. 3 workload).

use crate::params::{SmplxParams, EXPRESSION_DIM};
use crate::skeleton::Joint;
use holo_math::{Pcg32, Quat, Vec3};

/// The kind of activity to synthesize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MotionKind {
    /// Standing still with subtle sway and breathing.
    Idle,
    /// Seated/standing conversation: gestures, head motion, jaw and
    /// expression activity. The paper's telepresence-meeting workload.
    Talking,
    /// Right-arm wave with wrist oscillation.
    Waving,
    /// Walking in place (gait cycle, arm counterswing).
    Walking,
}

/// A fixed-rate sequence of poses.
#[derive(Debug, Clone)]
pub struct MotionClip {
    /// Per-frame parameters.
    pub frames: Vec<SmplxParams>,
    /// Frame rate, frames per second.
    pub fps: f32,
    /// The kind that generated this clip.
    pub kind: MotionKind,
}

impl MotionClip {
    /// Number of frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// True when the clip has no frames.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Clip duration in seconds.
    pub fn duration(&self) -> f32 {
        self.frames.len() as f32 / self.fps
    }

    /// Frame accessor.
    pub fn frame(&self, i: usize) -> &SmplxParams {
        &self.frames[i]
    }
}

/// Generates motion clips deterministically from a seed.
#[derive(Debug, Clone)]
pub struct MotionSynthesizer {
    rng: Pcg32,
}

impl MotionSynthesizer {
    /// Create a synthesizer with a seed; identical seeds give identical
    /// clips.
    pub fn new(seed: u64) -> Self {
        Self { rng: Pcg32::new(seed) }
    }

    /// Synthesize a clip of `duration_s` seconds at `fps`.
    pub fn clip(&mut self, kind: MotionKind, duration_s: f32, fps: f32) -> MotionClip {
        let n = (duration_s * fps).round().max(1.0) as usize;
        // Per-clip random phases/amplitudes so different seeds differ.
        let phase: Vec<f32> = (0..16).map(|_| self.rng.range_f32(0.0, std::f32::consts::TAU)).collect();
        let amp: Vec<f32> = (0..16).map(|_| self.rng.range_f32(0.7, 1.3)).collect();
        // Occasional discrete gesture events for Talking.
        let mut gesture_until = 0.0f32;
        let mut gesture_arm_left = false;
        let mut frames = Vec::with_capacity(n);
        let mut event_rng = self.rng.fork(99);
        for i in 0..n {
            let t = i as f32 / fps;
            if matches!(kind, MotionKind::Talking) && t >= gesture_until && event_rng.chance(0.01) {
                gesture_until = t + event_rng.range_f32(0.8, 2.0);
                gesture_arm_left = event_rng.chance(0.5);
            }
            frames.push(self.frame_at(kind, t, &phase, &amp, t < gesture_until, gesture_arm_left));
        }
        MotionClip { frames, fps, kind }
    }

    #[allow(clippy::too_many_arguments)]
    fn frame_at(
        &mut self,
        kind: MotionKind,
        t: f32,
        phase: &[f32],
        amp: &[f32],
        gesturing: bool,
        gesture_left: bool,
    ) -> SmplxParams {
        let mut p = SmplxParams::default();
        let s = |freq: f32, k: usize| (t * freq * std::f32::consts::TAU + phase[k]).sin() * amp[k];
        let rot = |i: &mut SmplxParams, j: Joint, axis: Vec3, angle: f32| {
            i.joint_rotations[j.index()] = Quat::from_axis_angle(axis, angle);
        };
        // Breathing sway common to all kinds.
        rot(&mut p, Joint::Spine2, Vec3::X, 0.015 * s(0.25, 0));
        match kind {
            MotionKind::Idle => {
                rot(&mut p, Joint::Head, Vec3::Y, 0.05 * s(0.11, 1));
                p.translation = Vec3::new(0.004 * s(0.2, 2), 0.0, 0.004 * s(0.17, 3));
            }
            MotionKind::Talking => {
                // Head nods and turns.
                rot(&mut p, Joint::Head, Vec3::X, 0.08 * s(0.4, 1));
                rot(&mut p, Joint::Neck, Vec3::Y, 0.10 * s(0.23, 2));
                // Jaw articulation at syllable rate (~4 Hz).
                let jaw = (0.5 + 0.5 * s(3.9, 3)).max(0.0) * 0.12;
                rot(&mut p, Joint::Jaw, Vec3::X, jaw);
                // Arms rest slightly bent; one arm gestures when active.
                rot(&mut p, Joint::LeftShoulder, Vec3::Z, -1.15);
                rot(&mut p, Joint::RightShoulder, Vec3::Z, 1.15);
                rot(&mut p, Joint::LeftElbow, Vec3::Y, -0.35);
                rot(&mut p, Joint::RightElbow, Vec3::Y, 0.35);
                if gesturing {
                    let (sh, el, sign) = if gesture_left {
                        (Joint::LeftShoulder, Joint::LeftElbow, 1.0)
                    } else {
                        (Joint::RightShoulder, Joint::RightElbow, -1.0)
                    };
                    rot(&mut p, sh, Vec3::Z, sign * -0.5 + 0.2 * s(1.1, 4));
                    rot(&mut p, el, Vec3::Y, sign * -(0.8 + 0.3 * s(1.7, 5)));
                    // Finger articulation during gestures only.
                    let curl = 0.25 + 0.2 * s(1.3, 6);
                    let fingers: &[Joint] = if gesture_left {
                        &[Joint::LeftIndex1, Joint::LeftMiddle1, Joint::LeftRing1, Joint::LeftPinky1]
                    } else {
                        &[Joint::RightIndex1, Joint::RightMiddle1, Joint::RightRing1, Joint::RightPinky1]
                    };
                    for &f in fingers {
                        rot(&mut p, f, Vec3::Z, curl);
                    }
                }
                // Expression: coarse components at speech rate, fine
                // components as occasional accents.
                p.expression[0] = (0.4 + 0.4 * s(3.9, 3)).clamp(0.0, 1.0); // jaw/mouth open
                p.expression[1] = (0.3 + 0.3 * s(0.7, 7)).clamp(0.0, 1.0); // mouth wide
                p.expression[2] = (0.2 + 0.3 * s(0.31, 8)).clamp(0.0, 1.0); // brows
                // Fine detail: a pout/smirk that comes and goes.
                for k in 3..EXPRESSION_DIM {
                    let v = s(0.5 + 0.13 * k as f32, (k + 4) % 16) - 0.55;
                    p.expression[k] = v.clamp(0.0, 1.0);
                }
            }
            MotionKind::Waving => {
                rot(&mut p, Joint::LeftShoulder, Vec3::Z, -1.15);
                rot(&mut p, Joint::LeftElbow, Vec3::Y, -0.3);
                // Right arm raised, forearm oscillating.
                rot(&mut p, Joint::RightShoulder, Vec3::Z, -0.5);
                rot(&mut p, Joint::RightElbow, Vec3::Z, 0.9 + 0.35 * s(2.0, 4));
                rot(&mut p, Joint::RightWrist, Vec3::Z, 0.3 * s(2.0, 5));
                p.expression[1] = 0.6; // smile-ish
            }
            MotionKind::Walking => {
                let gait = 0.9; // Hz
                let swing = s(gait, 4);
                let counter = (t * gait * std::f32::consts::TAU + phase[4] + std::f32::consts::PI).sin() * amp[4];
                rot(&mut p, Joint::LeftHip, Vec3::X, 0.45 * swing);
                rot(&mut p, Joint::RightHip, Vec3::X, 0.45 * counter);
                rot(&mut p, Joint::LeftKnee, Vec3::X, (0.7 * counter).max(0.0));
                rot(&mut p, Joint::RightKnee, Vec3::X, (0.7 * swing).max(0.0));
                // Arms counterswing, slightly bent.
                rot(&mut p, Joint::LeftShoulder, Vec3::Z, -1.2);
                rot(&mut p, Joint::RightShoulder, Vec3::Z, 1.2);
                rot(&mut p, Joint::LeftElbow, Vec3::X, 0.3 * counter);
                rot(&mut p, Joint::RightElbow, Vec3::X, 0.3 * swing);
                // Bob and sway.
                p.translation = Vec3::new(0.01 * s(2.0 * gait, 6), 0.02 * s(2.0 * gait, 7).abs(), 0.0);
            }
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clip(kind: MotionKind, seed: u64) -> MotionClip {
        MotionSynthesizer::new(seed).clip(kind, 2.0, 30.0)
    }

    #[test]
    fn clip_length_and_duration() {
        let c = clip(MotionKind::Talking, 1);
        assert_eq!(c.len(), 60);
        assert!((c.duration() - 2.0).abs() < 1e-5);
        assert!(!c.is_empty());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = clip(MotionKind::Talking, 7);
        let b = clip(MotionKind::Talking, 7);
        for (fa, fb) in a.frames.iter().zip(&b.frames) {
            assert_eq!(fa.to_floats(), fb.to_floats());
        }
        let c = clip(MotionKind::Talking, 8);
        let same = a
            .frames
            .iter()
            .zip(&c.frames)
            .filter(|(x, y)| x.to_floats() == y.to_floats())
            .count();
        assert!(same < a.len() / 2, "different seeds too similar");
    }

    #[test]
    fn motion_is_temporally_smooth() {
        for kind in [MotionKind::Idle, MotionKind::Talking, MotionKind::Waving, MotionKind::Walking] {
            let c = clip(kind, 3);
            for w in c.frames.windows(2) {
                let err = w[0].rotation_error(&w[1]);
                assert!(err < 0.12, "{kind:?} inter-frame rotation jump {err}");
            }
        }
    }

    #[test]
    fn talking_moves_jaw_and_expression() {
        let c = clip(MotionKind::Talking, 5);
        let jaw_active = c
            .frames
            .iter()
            .filter(|f| f.joint_rotations[Joint::Jaw.index()].angle_to(Quat::IDENTITY) > 0.02)
            .count();
        assert!(jaw_active > c.len() / 4, "jaw active in only {jaw_active} frames");
        let expr_active = c.frames.iter().filter(|f| f.expression[0] > 0.3).count();
        assert!(expr_active > c.len() / 4);
    }

    #[test]
    fn fingers_mostly_idle() {
        let c = clip(MotionKind::Talking, 9);
        let mut idle = 0usize;
        let mut total = 0usize;
        for f in &c.frames {
            for j in Joint::all().filter(|j| j.index() >= Joint::LeftThumb1.index()) {
                total += 1;
                if f.joint_rotations[j.index()].angle_to(Quat::IDENTITY) < 1e-3 {
                    idle += 1;
                }
            }
        }
        assert!(idle as f32 / total as f32 > 0.5, "fingers idle {idle}/{total}");
    }

    #[test]
    fn walking_alternates_legs() {
        let c = MotionSynthesizer::new(2).clip(MotionKind::Walking, 4.0, 30.0);
        // Hip angles should be anti-correlated.
        let l: Vec<f32> = c.frames.iter().map(|f| f.joint_rotations[Joint::LeftHip.index()].to_axis_angle().x).collect();
        let r: Vec<f32> = c.frames.iter().map(|f| f.joint_rotations[Joint::RightHip.index()].to_axis_angle().x).collect();
        let corr: f32 = l.iter().zip(&r).map(|(a, b)| a * b).sum::<f32>();
        assert!(corr < 0.0, "hip correlation {corr} should be negative");
    }
}
