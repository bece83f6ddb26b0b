//! The amortization frontier: when does a pre-built Gaussian avatar
//! pay for itself?
//!
//! Runs the gaussian, mesh, and keypoint tiers over the same captured
//! clip, measures each tier's startup bytes and steady-state rate, and
//! computes the break-even call duration — the point beyond which the
//! gaussian tier's big one-time prebuild blob plus tiny per-frame
//! updates undercut the rival's total wire bytes. Writes
//! `GAUSSIAN_frontier.json` from its recipe in `semholo_repro::reports`:
//! the tiers' cost models, and break-even duration vs mesh and
//! keypoints as a function of prebuild size and update rate.
//!
//! Run with: `cargo run --release --example gaussian_amortization`

use holo_gaussian::break_even_seconds;
use semholo_repro::reports;

fn main() {
    // Rival tiers ship zero startup bytes and pay per frame forever.
    let [m, g, k] = reports::gaussian_tiers();
    println!("tier cost models (15 frames at 30 fps, 48x36 / 2 cams):\n");
    println!("{:>12} {:>16} {:>14}", "tier", "prebuild(B)", "steady(kbps)");
    for t in [&m, &g, &k] {
        println!("{:>12} {:>16} {:>14.1}", t.name, t.prebuild_bytes, t.steady_bps / 1e3);
    }

    let be_mesh = break_even_seconds(&g, &m);
    let be_keypoints = break_even_seconds(&g, &k);
    println!("\nbreak-even vs mesh:      {be_mesh:.2} s");
    println!("break-even vs keypoints: {be_keypoints:.2} s");

    // The honesty checks behind the headline number: short calls favor
    // the rival, long calls favor the amortized tier.
    assert!(be_mesh > 0.0, "gaussian must cost something up front");
    assert!(g.steady_bps < m.steady_bps, "updates must undercut mesh steady-state");
    assert!(
        g.total_bytes(be_mesh * 0.5) > m.total_bytes(be_mesh * 0.5),
        "short calls must honestly favor mesh"
    );
    assert!(
        g.total_bytes(be_mesh * 2.0) < m.total_bytes(be_mesh * 2.0),
        "long calls must favor the amortized tier"
    );
    println!(
        "a {:.0} s call: gaussian {:.0} KB total vs mesh {:.0} KB total\n",
        be_mesh * 2.0,
        g.total_bytes(be_mesh * 2.0) / 1e3,
        m.total_bytes(be_mesh * 2.0) / 1e3
    );

    // The frontier: what if the prebuild were bigger (denser rigs) or
    // the update stream richer? Four prebuild sizes x four update rates,
    // the measured point first.
    reports::write("GAUSSIAN_frontier.json");
}
