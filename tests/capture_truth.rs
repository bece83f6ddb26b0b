//! What the virtual Kinect reports is the body, not the box around it.
//!
//! `render_rgbd` sphere-traces whatever field it is handed, so a field
//! that is small where there is no surface becomes depth pixels where
//! there is no body. Two differentials hold the `GriddedUnion` to that:
//! the same parts rendered through the plain `SdfUnion` (every part at
//! every point, no grid, no far field) must give the same image, and on
//! the bench-standard scene every depth pixel must have the body just
//! behind it. No golden: both sides are computed here.

use holo_body::motion::MotionKind;
use holo_capture::noise::DepthNoiseModel;
use holo_capture::render::RgbdFrame;
use holo_capture::rig::CaptureRig;
use holo_mesh::sdf::{Sdf, SdfUnion};
use semholo::{SceneFrame, SceneSource, SemHoloConfig};

const MOTIONS: [MotionKind; 2] = [MotionKind::Talking, MotionKind::Waving];
const FRAMES: [usize; 3] = [0, 11, 23];

/// The bench-standard scene — 4 cameras of 96×72, seed 42 — and its rig
/// with the sensor noise switched off, so a pixel is where the ray stopped.
fn scene(motion: MotionKind) -> (SceneSource, CaptureRig) {
    let config = SemHoloConfig { capture_resolution: (96, 72), camera_count: 4, motion, seed: 42, ..Default::default() };
    let scene = SceneSource::new(&config, 1.0);
    let rig = CaptureRig { noise: DepthNoiseModel::none(), ..scene.context().rig.clone() };
    (scene, rig)
}

fn capture<S: Sdf>(rig: &CaptureRig, sdf: &S) -> Vec<RgbdFrame> {
    // Noise off: the generator is never drawn from.
    rig.capture(sdf, &mut holo_math::Pcg32::new(0))
}

fn frames() -> impl Iterator<Item = (SceneFrame, CaptureRig)> {
    MOTIONS.into_iter().flat_map(|motion| {
        let (scene, rig) = scene(motion);
        FRAMES.into_iter().map(move |i| (scene.frame(i), rig.clone()))
    })
}

/// The blended primitives of each frame, rendered through the grid and
/// through the plain union of the very same parts.
#[test]
fn the_grid_renders_what_the_plain_union_renders() {
    let (mut pixels, mut both, mut one_sided, mut worst) = (0usize, 0usize, 0usize, 0f32);
    for (frame, rig) in frames() {
        let body = frame.ground_truth_sdf();
        let grid = body.union();
        let mut plain = SdfUnion::new(grid.smoothness);
        for part in grid.parts() {
            plain.push(Box::new(*part));
        }
        // Same bounds, so the same rays over the same span with the same `eps`.
        assert_eq!(grid.bounds(), plain.bounds());
        let eps = grid.bounds().longest_side() * 2e-4;
        for (a, b) in capture(&rig, grid).iter().zip(&capture(&rig, &plain)) {
            for (&za, &zb) in a.depth.depths.iter().zip(&b.depth.depths) {
                pixels += 1;
                match (za > 0.0, zb > 0.0) {
                    (true, true) => {
                        both += 1;
                        worst = worst.max((za - zb).abs() / eps);
                    }
                    (false, false) => {}
                    _ => one_sided += 1,
                }
            }
        }
    }
    assert!(both > 13_000, "the rig sees the body ({both} of {pixels} pixels)");
    // Measured: not one pixel hit by one field and missed by the other,
    // and no depth more than one `eps` apart.
    assert_eq!(one_sided, 0, "pixels only one of the two fields hits");
    assert!(worst < 2.0, "depths differ by up to {worst} eps");
}

/// A depth pixel is a claim that the body starts there: walking on along
/// the pixel's ray, the field must turn negative within 20 mm.
#[test]
fn depth_pixels_have_the_body_behind_them() {
    let (mut valid, mut on_body) = (0usize, 0usize);
    for (frame, rig) in frames() {
        let sdf = frame.ground_truth_sdf();
        // The parts' box: `bounds()` less the blend bulge and the cloth amplitude.
        let content = sdf.bounds().expanded(-0.028);
        for image in capture(&rig, &sdf) {
            for y in 0..image.depth.height {
                for x in 0..image.depth.width {
                    let z = image.depth.get(x, y);
                    if z <= 0.0 {
                        continue;
                    }
                    let hit = image.camera.unproject(x, y, z);
                    let dir = image.camera.pixel_ray(x, y).dir;
                    let body_behind = (0..=20).any(|mm| sdf.distance(hit + dir * (mm as f32 * 1e-3)) < 0.0);
                    valid += 1;
                    on_body += body_behind as usize;
                    // A ray that stalls on the box stops on one of its faces.
                    if content.signed_distance(hit).abs() < 1e-3 {
                        assert!(body_behind, "camera pixel ({x}, {y}) of frame {} sits on the parts' box at {hit:?}", frame.index);
                    }
                }
            }
        }
    }
    // Measured 13 276 of 13 377 (99.2 %); the rest graze a silhouette, where
    // a ray dips under `eps` beside the body without entering it.
    assert!(valid > 13_000 && on_body * 100 >= valid * 99, "{on_body} of {valid} depth pixels have the body behind them");
}
