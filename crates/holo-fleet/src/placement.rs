//! Who hosts what: placement policies and rebalancing.
//!
//! Placement decides two things per room: which node each participant
//! attaches to (always a node in the participant's region — access
//! networks terminate locally) and which node anchors the room's SFU
//! (the **home** node; remote participants' streams transit it over
//! the cascade). A policy is a pure function of the room, the topology
//! and the load placed so far; ties always break toward the lowest node
//! id, so identical inputs place identically and fleet reports stay
//! byte-identical.

use crate::sim::RoomSpec;
use crate::topology::FleetTopology;

/// Where a room landed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// The node anchoring the room's SFU.
    pub home: usize,
    /// Node per participant (same order as the room's region list).
    pub participant_nodes: Vec<usize>,
}

impl Placement {
    /// Distinct nodes this room touches, ascending.
    pub fn nodes_spanned(&self) -> Vec<usize> {
        let mut nodes = self.participant_nodes.clone();
        nodes.push(self.home);
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    /// The cascade legs one frame of `publisher`'s stream crosses, as
    /// `(from, to, subscribers)`: the up-leg to the home node when the
    /// publisher is remote (one copy either way), then one leg from the
    /// home to each remote node hosting subscribers, ascending, with
    /// how many subscribers it serves there.
    pub(crate) fn cascade_legs(&self, publisher: usize) -> Vec<(usize, usize, u64)> {
        let (home, at) = (self.home, self.participant_nodes[publisher]);
        let mut legs = Vec::new();
        if at != home {
            legs.push((at, home, 1));
        }
        let mut remote: Vec<usize> = self
            .participant_nodes
            .iter()
            .enumerate()
            .filter(|&(s, &b)| s != publisher && b != home)
            .map(|(_, &b)| b)
            .collect();
        remote.sort_unstable();
        for same in remote.chunk_by(|a, b| a == b) {
            legs.push((home, same[0], same.len() as u64));
        }
        legs
    }
}

/// Running load tally the policies (and rebalancing) read.
#[derive(Debug, Clone, Default)]
pub struct FleetLoad {
    /// Rooms homed per node.
    pub rooms: Vec<u64>,
    /// Participants attached per node.
    pub participants: Vec<u64>,
}

impl FleetLoad {
    /// Zero load across `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        Self { rooms: vec![0; nodes], participants: vec![0; nodes] }
    }

    /// Account a finished placement.
    pub fn absorb(&mut self, p: &Placement) {
        self.rooms[p.home] += 1;
        for &n in &p.participant_nodes {
            self.participants[n] += 1;
        }
    }
}

/// The most frequent of `ids` (each `< n`), ties to the lowest id: a
/// placed room's home node, or region affinity's majority region.
fn majority(ids: &[usize], n: usize) -> usize {
    let mut counts = vec![0u64; n];
    for &i in ids {
        counts[i] += 1;
    }
    let mut best = 0;
    for (i, &c) in counts.iter().enumerate() {
        if c > counts[best] {
            best = i;
        }
    }
    best
}

/// The placement policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Participants cycle through their region's nodes in arrival
    /// order, fleet-wide; the home is the majority node.
    RoundRobin,
    /// Each participant attaches to the least-populated node in its
    /// region (by attached participants, ties to the lowest id); the
    /// home is the majority node. Rebalancing then levels homes.
    LeastLoaded,
    /// The whole room lands on one node — the least-loaded node in the
    /// room's majority region — so rooms never span the cascade.
    /// Participants whose own region differs still attach there (they
    /// pay the access latency, not cascade transit).
    RegionAffinity,
}

impl PolicyKind {
    /// Short label recorded in the fleet report.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::RoundRobin => "round-robin",
            PolicyKind::LeastLoaded => "least-loaded",
            PolicyKind::RegionAffinity => "region-affinity",
        }
    }

    /// Place one room: attach each participant to a node and pick the
    /// home node, given the load of every room placed before it.
    pub fn place(self, spec: &RoomSpec, topo: &FleetTopology, load: &FleetLoad) -> Placement {
        if self == PolicyKind::RegionAffinity {
            let region = majority(&spec.participant_regions, topo.regions.len());
            let home = *topo
                .nodes_in_region(region)
                .iter()
                .min_by_key(|&&n| (load.participants[n], n))
                .expect("validated topology: every region has a node");
            let participant_nodes = vec![home; spec.participant_regions.len()];
            return Placement { home, participant_nodes };
        }
        // Account in-room attachments too, so one room's participants
        // spread instead of piling onto one node.
        let mut pending = vec![0u64; topo.nodes.len()];
        let participant_nodes: Vec<usize> = spec
            .participant_regions
            .iter()
            .map(|&r| {
                let candidates = topo.nodes_in_region(r);
                let node = if self == PolicyKind::RoundRobin {
                    // A region's participants attach only inside it, so
                    // its nodes' tallies count its arrivals so far.
                    let arrived: u64 =
                        candidates.iter().map(|&n| load.participants[n] + pending[n]).sum();
                    candidates[(arrived % candidates.len() as u64) as usize]
                } else {
                    *candidates
                        .iter()
                        .min_by_key(|&&n| (load.participants[n] + pending[n], n))
                        .expect("validated topology: every region has a node")
                };
                pending[node] += 1;
                node
            })
            .collect();
        let home = majority(&participant_nodes, topo.nodes.len());
        Placement { home, participant_nodes }
    }

    /// Rebalance homes once every room is placed, keeping `load.rooms`
    /// in step. Only least-loaded moves anything: while some node homes
    /// 2+ more rooms than another, the lowest-indexed room not yet moved
    /// goes from the most- to the least-loaded node.
    pub fn rebalance(self, placements: &mut [Placement], load: &mut FleetLoad) {
        if self != PolicyKind::LeastLoaded {
            return;
        }
        let rooms = &mut load.rooms;
        let mut moved = vec![false; placements.len()];
        // Both ends break count ties toward the lowest node id.
        while let (Some(max_node), Some(min_node)) = (
            (0..rooms.len()).max_by_key(|&i| (rooms[i], usize::MAX - i)),
            (0..rooms.len()).min_by_key(|&i| (rooms[i], i)),
        ) {
            if rooms[max_node] < rooms[min_node] + 2 {
                break;
            }
            let Some(room) = (0..placements.len())
                .find(|&i| placements[i].home == max_node && !moved[i])
            else {
                break;
            };
            moved[room] = true;
            placements[room].home = min_node;
            rooms[max_node] -= 1;
            rooms[min_node] += 1;
        }
    }
}

/// Place `rooms` in order, then rebalance: every fleet decision — the
/// run's and the capacity probe's — goes through here.
pub(crate) fn place_rooms(
    topo: &FleetTopology,
    policy: PolicyKind,
    rooms: &[RoomSpec],
) -> (Vec<Placement>, FleetLoad) {
    let mut load = FleetLoad::new(topo.nodes.len());
    let mut placements = Vec::with_capacity(rooms.len());
    for spec in rooms {
        let p = policy.place(spec, topo, &load);
        load.absorb(&p);
        placements.push(p);
    }
    policy.rebalance(&mut placements, &mut load);
    (placements, load)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> FleetTopology {
        FleetTopology::uniform(2, 2, 400e6, 1e9, 1.0, 20.0)
    }

    fn spec(regions: &[usize]) -> RoomSpec {
        RoomSpec { participant_regions: regions.to_vec(), access_bps: 100e6 }
    }

    #[test]
    fn round_robin_cycles_region_nodes() {
        let topo = topo();
        let (placements, _) =
            place_rooms(&topo, PolicyKind::RoundRobin, &[spec(&[0, 0, 0]), spec(&[0, 0])]);
        // Region 0 owns nodes 0 and 1: five attachments cycle 0,1,0,1,0.
        assert_eq!(placements[0].participant_nodes, vec![0, 1, 0]);
        assert_eq!(placements[1].participant_nodes, vec![1, 0]);
        assert_eq!(placements[1].home, 0, "ties break to the lowest node id");
    }

    #[test]
    fn least_loaded_spreads_and_rebalances() {
        let topo = topo();
        let policy = PolicyKind::LeastLoaded;
        let mut load = FleetLoad::new(topo.nodes.len());
        let mut placements = Vec::new();
        for _ in 0..4 {
            let p = policy.place(&spec(&[0]), &topo, &load);
            load.absorb(&p);
            placements.push(p);
        }
        // Single-participant region-0 rooms alternate between nodes 0/1.
        assert_eq!(load.participants[0], 2);
        assert_eq!(load.participants[1], 2);
        assert_eq!(load.rooms[0], 2);
        assert_eq!(load.rooms[1], 2);
        // Force imbalance, then let rebalance level it.
        let skew = Placement { home: 0, participant_nodes: vec![0] };
        load.absorb(&skew);
        load.absorb(&skew);
        placements.push(skew.clone());
        placements.push(skew);
        let before = placements.clone();
        policy.rebalance(&mut placements, &mut load);
        let moved: Vec<usize> =
            (0..placements.len()).filter(|&i| placements[i] != before[i]).collect();
        assert!(!moved.is_empty(), "imbalance of 4 vs 2 must trigger a move");
        for &i in &moved {
            assert_eq!(before[i].home, 0, "moves come off the hot node");
        }
        let homed = |n: usize| placements.iter().filter(|p| p.home == n).count() as u64;
        assert!((0..topo.nodes.len()).all(|n| load.rooms[n] == homed(n)), "load tracks moves");
    }

    #[test]
    fn region_affinity_never_spans() {
        let topo = topo();
        let load = FleetLoad::new(topo.nodes.len());
        // Majority region 1 (nodes 2, 3): the whole room lands there.
        let p = PolicyKind::RegionAffinity.place(&spec(&[1, 1, 0]), &topo, &load);
        assert_eq!(p.nodes_spanned().len(), 1);
        assert!(topo.nodes_in_region(1).contains(&p.home));
        assert!(p.participant_nodes.iter().all(|&n| n == p.home));
    }

    #[test]
    fn policies_are_deterministic() {
        let topo = topo();
        let rooms: Vec<RoomSpec> = (0..6).map(|i| spec(&[i % 2, (i + 1) % 2])).collect();
        for kind in [PolicyKind::RoundRobin, PolicyKind::LeastLoaded, PolicyKind::RegionAffinity] {
            let run = || place_rooms(&topo, kind, &rooms).0;
            assert_eq!(run(), run(), "{kind:?} placed differently across runs");
        }
    }

    #[test]
    fn cascade_legs_ship_one_copy_per_remote_node() {
        let p = Placement { home: 0, participant_nodes: vec![0, 2, 1, 2] };
        // A home publisher: one leg per remote node, counting subscribers.
        assert_eq!(p.cascade_legs(0), vec![(0, 1, 1), (0, 2, 2)]);
        // A remote publisher: the up-leg first, then the fan-out legs.
        assert_eq!(p.cascade_legs(1), vec![(2, 0, 1), (0, 1, 1), (0, 2, 1)]);
    }
}
