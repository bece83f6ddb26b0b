//! The fleet's shape: regions, nodes, and the cascade mesh.
//!
//! A fleet is a set of SFU **nodes** grouped into **regions**. Every
//! ordered node pair is connected by a directed **cascade link**
//! (`holo_net::Link`): constant `cascade_bps` capacity and a one-way
//! propagation delay taken from the region latency matrix, so
//! cross-region edges are slower than intra-region ones — the
//! heterogeneity that makes placement matter. Per-node capacity is a
//! `holo_gpu::Device` (compute) plus an egress-bps budget (network),
//! never a hardcoded rooms-per-node count.

use holo_gpu::Device;
use holo_net::link::{Link, LinkConfig};
use holo_net::trace::BandwidthTrace;
use std::time::Duration;

/// One SFU node: where it sits and what it can push.
#[derive(Debug, Clone)]
pub struct NodeSpec {
    /// Index into the fleet's region list.
    pub region: usize,
    /// The forwarding hardware (see `Device::sfu_server`).
    pub device: Device,
    /// Total egress budget across this node's access downlinks and
    /// cascade uplinks, bps.
    pub egress_bps: f64,
}

/// The fleet: regions, nodes, and cascade-edge parameters.
#[derive(Debug, Clone)]
pub struct FleetTopology {
    /// Region names (index = region id).
    pub regions: Vec<String>,
    /// The nodes.
    pub nodes: Vec<NodeSpec>,
    /// Capacity of every directed cascade link, bps.
    pub cascade_bps: f64,
    /// One-way latency between regions, ms; `[a][b]` for a link from a
    /// node in region `a` to one in region `b` (diagonal = intra).
    pub region_latency_ms: Vec<Vec<f64>>,
}

impl FleetTopology {
    /// A single node in a single region (no cascade links exist).
    pub fn single(egress_bps: f64) -> Self {
        Self {
            regions: vec!["region-0".into()],
            nodes: vec![NodeSpec {
                region: 0,
                device: Device::sfu_server(),
                egress_bps,
            }],
            cascade_bps: 0.0,
            region_latency_ms: vec![vec![1.0]],
        }
    }

    /// A uniform fleet: `regions` regions of `nodes_per_region`
    /// `sfu_server` nodes each. Intra-region cascade hops cost
    /// `intra_ms`; inter-region hops cost `inter_ms` scaled up 25% per
    /// region of "distance" (`|a-b|`), so a 3+-region fleet has
    /// genuinely heterogeneous edges, not two latency classes.
    pub fn uniform(
        regions: usize,
        nodes_per_region: usize,
        egress_bps: f64,
        cascade_bps: f64,
        intra_ms: f64,
        inter_ms: f64,
    ) -> Self {
        let region_names = (0..regions).map(|r| format!("region-{r}")).collect();
        let mut nodes = Vec::with_capacity(regions * nodes_per_region);
        for r in 0..regions {
            for _ in 0..nodes_per_region {
                nodes.push(NodeSpec {
                    region: r,
                    device: Device::sfu_server(),
                    egress_bps,
                });
            }
        }
        let region_latency_ms = (0..regions)
            .map(|a| {
                (0..regions)
                    .map(|b| {
                        if a == b {
                            intra_ms
                        } else {
                            let dist = a.abs_diff(b) as f64;
                            inter_ms * (1.0 + 0.25 * (dist - 1.0))
                        }
                    })
                    .collect()
            })
            .collect();
        Self { regions: region_names, nodes, cascade_bps, region_latency_ms }
    }

    /// Structural validation: at least one node, every node in a known
    /// region with a finite positive egress budget, a square matrix of
    /// finite non-negative latencies, and a finite cascade budget,
    /// positive whenever more than one node exists.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes.is_empty() {
            return Err("a fleet needs at least one node".into());
        }
        if self.regions.is_empty() {
            return Err("a fleet needs at least one region".into());
        }
        for (i, n) in self.nodes.iter().enumerate() {
            if n.region >= self.regions.len() {
                return Err(format!("node {i} references unknown region {}", n.region));
            }
            if !n.egress_bps.is_finite() || n.egress_bps <= 0.0 {
                return Err(format!("node {i} needs a finite positive egress budget"));
            }
        }
        if self.region_latency_ms.len() != self.regions.len()
            || self.region_latency_ms.iter().any(|row| row.len() != self.regions.len())
        {
            return Err("region latency matrix must be regions x regions".into());
        }
        if self.region_latency_ms.iter().flatten().any(|&ms| !ms.is_finite() || ms < 0.0) {
            return Err("region latencies must be finite and >= 0 ms".into());
        }
        if !self.cascade_bps.is_finite() || self.cascade_bps < 0.0 {
            return Err("cascade_bps must be finite and >= 0".into());
        }
        if self.nodes.len() > 1 && self.cascade_bps <= 0.0 {
            return Err("a multi-node fleet needs cascade_bps > 0".into());
        }
        Ok(())
    }

    /// One-way latency between two nodes, ms (region matrix lookup).
    pub fn latency_ms(&self, from_node: usize, to_node: usize) -> f64 {
        let a = self.nodes[from_node].region;
        let b = self.nodes[to_node].region;
        self.region_latency_ms[a][b]
    }

    /// One-way propagation between two nodes.
    pub fn hop(&self, from_node: usize, to_node: usize) -> Duration {
        Duration::from_secs_f64(self.latency_ms(from_node, to_node) / 1e3)
    }

    /// Node ids in a region, ascending.
    pub fn nodes_in_region(&self, region: usize) -> Vec<usize> {
        (0..self.nodes.len()).filter(|&i| self.nodes[i].region == region).collect()
    }

    /// Build the directed cascade link for an edge. The seed is derived
    /// from the fleet seed and the edge identity, so cascade jitter (if
    /// ever configured) stays decorrelated per edge and per run.
    pub fn cascade_link(&self, from: usize, to: usize, fleet_seed: u64) -> Link {
        let config = LinkConfig {
            propagation: self.hop(from, to),
            jitter_max: Duration::ZERO,
            loss_rate: 0.0,
            max_queue_delay: Duration::from_millis(200),
        };
        let lane = (from as u64) << 20 | to as u64;
        let seed = fleet_seed ^ 0xD1B5_4A32_D192_ED03u64.wrapping_mul(lane.wrapping_add(1));
        Link::new(config, BandwidthTrace::Constant { bps: self.cascade_bps }, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_builder_shapes_the_fleet() {
        let t = FleetTopology::uniform(3, 2, 400e6, 1e9, 1.0, 20.0);
        assert_eq!(t.regions.len(), 3);
        assert_eq!(t.nodes.len(), 6);
        assert!(t.validate().is_ok());
        assert_eq!(t.nodes_in_region(1), vec![2, 3]);
        // Intra cheap, inter expensive, and farther regions cost more.
        assert_eq!(t.latency_ms(0, 1), 1.0);
        assert_eq!(t.latency_ms(0, 2), 20.0);
        assert_eq!(t.latency_ms(0, 4), 25.0, "distance-2 regions are 25% slower");
        // Symmetric for the symmetric matrix the builder emits.
        assert_eq!(t.latency_ms(4, 0), t.latency_ms(0, 4));
    }

    #[test]
    fn validation_rejects_degenerate_topologies() {
        let mut t = FleetTopology::single(100e6);
        assert!(t.validate().is_ok());
        t.nodes[0].region = 5;
        assert!(t.validate().is_err(), "unknown region");
        let mut t = FleetTopology::uniform(2, 1, 100e6, 1e9, 1.0, 20.0);
        t.cascade_bps = 0.0;
        assert!(t.validate().is_err(), "multi-node fleet without a cascade");
        t = FleetTopology::uniform(2, 1, 100e6, 1e9, 1.0, 20.0);
        t.region_latency_ms.pop();
        assert!(t.validate().is_err(), "ragged latency matrix");
        t = FleetTopology::uniform(2, 1, 0.0, 1e9, 1.0, 20.0);
        assert!(t.validate().is_err(), "zero egress budget");
        for egress in [f64::NAN, f64::INFINITY] {
            t = FleetTopology::uniform(2, 1, egress, 1e9, 1.0, 20.0);
            assert!(t.validate().is_err(), "egress budget {egress}");
        }
        for cascade in [f64::NAN, f64::INFINITY, -1.0] {
            t = FleetTopology::uniform(2, 1, 100e6, cascade, 1.0, 20.0);
            assert!(t.validate().is_err(), "cascade budget {cascade}");
        }
        for ms in [f64::NAN, f64::INFINITY, -5.0] {
            t = FleetTopology::uniform(2, 1, 100e6, 1e9, 1.0, 20.0);
            t.region_latency_ms[0][1] = ms;
            assert!(t.validate().is_err(), "latency {ms} ms");
        }
    }

    #[test]
    fn cascade_links_carry_the_matrix_latency() {
        let t = FleetTopology::uniform(2, 1, 100e6, 1e9, 1.0, 30.0);
        let l = t.cascade_link(0, 1, 42);
        assert_eq!(l.config.propagation, Duration::from_secs_f64(0.030));
        assert_eq!(l.config.loss_rate, 0.0);
        let intra = FleetTopology::uniform(1, 2, 100e6, 1e9, 1.5, 30.0).cascade_link(0, 1, 42);
        assert_eq!(intra.config.propagation, Duration::from_secs_f64(0.0015));
    }
}
