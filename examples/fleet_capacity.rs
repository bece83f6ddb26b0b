//! Fleet capacity: how many rooms does a sharded SFU fleet sustain,
//! and which resource breaks first?
//!
//! Runs the holo-fleet monotone capacity search over growing node
//! counts and prints the rooms/subscribers curve with first-bottleneck
//! attribution; the largest fleet's measurement is `FLEET_capacity.json`.
//! A representative spanning fleet is then traced, its latency
//! attributed stage by stage (`holo-obs`), and the SLO verdicts written
//! to `SLO_fleet.json`. Both come from their recipes in
//! `semholo_repro::reports`.
//!
//! Run with: `cargo run --release --example fleet_capacity`

use semholo_repro::reports;

fn main() {
    println!("fleet capacity, keypoint semantics, 6e7 bps node egress");
    println!("(least-loaded placement, rooms of 4, 100 Mbps access links)\n");
    println!(
        "{:>6} {:>8} {:>13} {:>13} {:>22} {:>14}",
        "nodes", "regions", "max rooms", "subscribers", "first bottleneck", "cascade saved"
    );

    let mut last = None;
    let mut prev: Option<(usize, usize)> = None;
    for (regions, nodes_per_region) in [(1usize, 1usize), (2, 1), (2, 2), (2, 4)] {
        let nodes = regions * nodes_per_region;
        let m = reports::fleet_capacity_on(regions, nodes_per_region);
        // Cascade savings show up when several subscribers of one
        // stream share a remote node (copies collapse); spread-out
        // fleets honestly report 0%.
        let saved = m.report.as_ref().map_or(0.0, |r| r.cascade_savings());
        println!(
            "{:>6} {:>8} {:>13} {:>13} {:>22} {:>13.0}%",
            nodes,
            regions,
            m.max_rooms,
            m.total_subscribers,
            m.bottleneck,
            saved * 100.0
        );
        if let Some((prev_nodes, prev_rooms)) = prev {
            assert!(
                m.max_rooms > prev_rooms,
                "{nodes} nodes must sustain more rooms than {prev_nodes} ({} vs {prev_rooms})",
                m.max_rooms
            );
        }
        prev = Some((nodes, m.max_rooms));
        last = Some(m);
    }

    let m = last.expect("at least one fleet measured");
    if let Some(report) = &m.report {
        println!();
        println!(
            "largest fleet: {} rooms, fleet Jain fairness {:.4}, bottleneck utilization {:.2}",
            report.rooms, report.fleet_jain_fairness, report.bottleneck_utilization
        );
    }
    println!(
        "closed-form bound at the same rates: {} subscribers (placement-blind)",
        m.closed_form_subscribers
    );
    reports::write("FLEET_capacity.json");

    // Judge a representative spanning fleet against the telepresence
    // SLO and attribute every delivered frame's latency to stages —
    // the cascade hop is carved out explicitly, so "how much of p99 is
    // the inter-node mesh" is a number, not a guess.
    // The amortized spec also floors the gaussian tier — skipped for
    // rooms that never route it, judged wherever prebuilt avatars ride.
    let obs = reports::fleet_observed();
    println!("\nlatency attribution (2-node spanning fleet, {} frame paths):", obs.attribution.frames);
    print!("{}", obs.attribution.table());
    println!("SLO verdicts ({}):", holo_obs::SloSpec::telepresence_amortized().name);
    println!("  fleet   {}", obs.fleet_verdict.line());
    for (node, v) in &obs.node_verdicts {
        println!("  node {node}  {}", v.line());
    }
    reports::write("SLO_fleet.json");
}
