//! Conference capacity: how many holographic participants fit on a
//! 25 Mbps U.S. broadband link, per semantics type?
//!
//! The closed-form mean-bandwidth bound (`core::conference`) per
//! pipeline is a fact of the `conference_sfu` bench. This example
//! measures the empirical capacity of a keypoint room in the holo-conf
//! SFU simulation, which also sees egress queueing, keyframe/delta loss
//! coupling, and latency, and sets it beside the bound. It also writes
//! `TRACE_conference_room.json`, a traced 4-party room, from its recipe
//! in `semholo_repro::reports`.
//!
//! Run with: `cargo run --release --example conference_capacity`
//! (`SEMHOLO_EXAMPLE_QUICK=1` shrinks the simulated probes for CI.)

use holo_conf::{measure_max_room_size, CapacityConfig};
use semholo::conference::compare_capacity;
use semholo::keypoint::{KeypointConfig, KeypointPipeline};
use semholo::{SceneSource, SemHoloConfig, SemanticPipeline};

fn main() {
    let quick = std::env::var("SEMHOLO_EXAMPLE_QUICK").is_ok();
    let config = SemHoloConfig {
        capture_resolution: (64, 48),
        camera_count: 3,
        ..Default::default()
    };
    let scene = SceneSource::new(&config, 0.4);

    // --- Simulated: the holo-conf SFU room, grown until it breaks. ---
    let cap_cfg = CapacityConfig {
        frames: if quick { 3 } else { 6 },
        access_bps: 25e6,
        cap: if quick { 16 } else { 48 },
        ..Default::default()
    };
    println!("conference capacity on a 25 Mbps access link (SFU: 1 upload + N-1 downloads)\n");
    println!(
        "simulated SFU rooms (>= {:.0}% usable frames per subscriber, cap {}):",
        cap_cfg.criteria.min_usable_rate * 100.0,
        cap_cfg.cap
    );
    println!(
        "{:>24} {:>12} {:>12} {:>12}",
        "pipeline", "closed-form", "simulated", "gap"
    );
    let mut make_kp = || -> Box<dyn SemanticPipeline> {
        Box::new(KeypointPipeline::new(KeypointConfig { resolution: 32, ..Default::default() }, 42))
    };
    let m = measure_max_room_size(&scene, &cap_cfg, &mut make_kp).expect("simulated capacity");
    let cmp = compare_capacity(m.closed_form, m.max_size);
    println!(
        "{:>24} {:>12} {:>11}{} {:>11.2}x",
        "keypoint semantics",
        cmp.closed_form,
        cmp.simulated,
        if m.capped { "+" } else { " " },
        cmp.ratio
    );
    println!();
    println!("the gap is the bound's blind spot: synchronized capture bursts pile");
    println!("into the SFU's bounded egress queues, and every dropped delta poisons");
    println!("the frames chained to it — none of which mean bandwidth can see.");
    println!();
    println!("the paper's argument, quantified: semantic streams turn a 2-person");
    println!("mesh call into a room of dozens on the same U.S. broadband line.");
    println!();
    semholo_repro::reports::write("TRACE_conference_room.json");
}
