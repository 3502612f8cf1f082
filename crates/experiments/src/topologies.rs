//! The paper's three evaluation topologies.
//!
//! - **Dumbbell** (single bottleneck): the classic fairness topology used in
//!   Section 4, Figure 2 (left).
//! - **Parking-lot** (Figure 1): a chain of three bottleneck links with
//!   cross traffic on the exact six source/destination pairs the paper
//!   lists, with the paper's access bandwidths (5, 1.66 and 2.5 Mbps).
//! - **Multipath mesh** (Figure 5): disjoint parallel paths between one
//!   source and one destination, every link 10 Mbps with 100-packet queues,
//!   used with ε-routing for Figure 6.

use netsim::ids::{LinkId, NodeId};
use netsim::link::LinkConfig;
use netsim::sim::{SimBuilder, Simulator};

/// Parameters of the dumbbell topology.
#[derive(Debug, Clone, Copy)]
pub struct DumbbellConfig {
    /// Bottleneck bandwidth in Mbps.
    pub bottleneck_mbps: f64,
    /// Bottleneck one-way propagation delay in ms.
    pub bottleneck_delay_ms: u64,
    /// Queue size, in packets, for every link.
    pub queue_packets: usize,
}

/// Dumbbell access-link bandwidth in Mbps.
const ACCESS_MBPS: f64 = 100.0;

/// Dumbbell access-link delay in ms.
const ACCESS_DELAY_MS: u64 = 5;

impl Default for DumbbellConfig {
    fn default() -> Self {
        // The paper does not publish its dumbbell parameters; these are
        // sized so that per-flow windows stay moderate (tens of segments)
        // across the Figure 2 flow-count sweep, the regime in which AIMD
        // fairness comparisons are meaningful.
        DumbbellConfig { bottleneck_mbps: 30.0, bottleneck_delay_ms: 30, queue_packets: 300 }
    }
}

/// A built dumbbell: `src — r1 ═ r2 — dst` with the bottleneck on `r1 → r2`.
#[derive(Debug)]
pub struct Dumbbell {
    /// The simulator with the topology installed.
    pub sim: Simulator,
    /// Node all senders attach to.
    pub src: NodeId,
    /// Node all receivers attach to.
    pub dst: NodeId,
    /// The forward bottleneck link (`r1 → r2`), for drop accounting.
    pub bottleneck: LinkId,
}

/// Builds a dumbbell topology.
///
/// # Examples
///
/// ```
/// use experiments::topologies::{dumbbell, DumbbellConfig};
///
/// let d = dumbbell(1, DumbbellConfig::default());
/// assert_eq!(d.sim.node_count(), 4);
/// ```
pub fn dumbbell(seed: u64, cfg: DumbbellConfig) -> Dumbbell {
    let mut b = SimBuilder::new(seed);
    let src = b.add_node();
    let r1 = b.add_node();
    let r2 = b.add_node();
    let dst = b.add_node();
    let access = LinkConfig::mbps_ms(ACCESS_MBPS, ACCESS_DELAY_MS, cfg.queue_packets);
    b.add_duplex(src, r1, access.clone());
    let (bottleneck, _) = b.add_duplex(
        r1,
        r2,
        LinkConfig::mbps_ms(cfg.bottleneck_mbps, cfg.bottleneck_delay_ms, cfg.queue_packets),
    );
    b.add_duplex(r2, dst, access);
    Dumbbell { sim: b.build(), src, dst, bottleneck }
}

/// A built parking-lot topology (paper Figure 1).
#[derive(Debug)]
pub struct ParkingLot {
    /// The simulator with the topology installed.
    pub sim: Simulator,
    /// Source of the flows under test (attached to chain node 1).
    pub src: NodeId,
    /// Destination of the flows under test (attached to chain node 4).
    pub dst: NodeId,
    /// Cross-traffic pairs in paper order: CS1→CD1, CS1→CD2, CS1→CD3,
    /// CS2→CD2, CS2→CD3, CS3→CD3.
    pub cross_pairs: Vec<(NodeId, NodeId)>,
    /// The three chain bottleneck links 1→2, 2→3, 3→4.
    pub chain: [LinkId; 3],
}

/// Parameters of the parking-lot topology (defaults follow Figure 1).
#[derive(Debug, Clone, Copy)]
pub struct ParkingLotConfig {
    /// Bandwidth of every non-special link, in Mbps (paper: 15).
    pub backbone_mbps: f64,
}

impl Default for ParkingLotConfig {
    fn default() -> Self {
        ParkingLotConfig { backbone_mbps: 15.0 }
    }
}

/// Access bandwidths of the cross sources CS1, CS2 and CS3, in Mbps
/// (Figure 1: 5, 1.66 and 2.5).
const CROSS_SOURCE_MBPS: [f64; 3] = [5.0, 1.66, 2.5];

/// Parking-lot per-link delay in ms. The paper does not publish it; 20 ms
/// keeps per-flow windows in the tens of segments, where AIMD fairness
/// comparisons are meaningful.
const PARKING_LOT_DELAY_MS: u64 = 20;

/// Parking-lot queue size in packets.
const PARKING_LOT_QUEUE_PACKETS: usize = 100;

/// Builds the Figure 1 parking-lot topology.
///
/// Chain: `S — 1 ═ 2 ═ 3 ═ 4 — D`; cross sources CS1/CS2/CS3 feed nodes
/// 1/2/3 and cross destinations CD1/CD2/CD3 hang off nodes 2/3/4.
///
/// # Examples
///
/// ```
/// use experiments::topologies::{parking_lot, ParkingLotConfig};
///
/// let p = parking_lot(1, ParkingLotConfig::default());
/// assert_eq!(p.cross_pairs.len(), 6);
/// ```
pub fn parking_lot(seed: u64, cfg: ParkingLotConfig) -> ParkingLot {
    let mut b = SimBuilder::new(seed);
    let s = b.add_node();
    let n1 = b.add_node();
    let n2 = b.add_node();
    let n3 = b.add_node();
    let n4 = b.add_node();
    let d = b.add_node();
    let cs1 = b.add_node();
    let cs2 = b.add_node();
    let cs3 = b.add_node();
    let cd1 = b.add_node();
    let cd2 = b.add_node();
    let cd3 = b.add_node();

    let bb = |mbps: f64| LinkConfig::mbps_ms(mbps, PARKING_LOT_DELAY_MS, PARKING_LOT_QUEUE_PACKETS);

    b.add_duplex(s, n1, bb(cfg.backbone_mbps));
    let (c12, _) = b.add_duplex(n1, n2, bb(cfg.backbone_mbps));
    let (c23, _) = b.add_duplex(n2, n3, bb(cfg.backbone_mbps));
    let (c34, _) = b.add_duplex(n3, n4, bb(cfg.backbone_mbps));
    b.add_duplex(n4, d, bb(cfg.backbone_mbps));

    // Cross sources: CS1→1 = 5 Mbps, CS2→2 = 1.66 Mbps, CS3→3 = 2.5 Mbps.
    let [cs1_mbps, cs2_mbps, cs3_mbps] = CROSS_SOURCE_MBPS;
    b.add_duplex(cs1, n1, bb(cs1_mbps));
    b.add_duplex(cs2, n2, bb(cs2_mbps));
    b.add_duplex(cs3, n3, bb(cs3_mbps));
    // Cross destinations hang off the next chain node at backbone speed.
    b.add_duplex(n2, cd1, bb(cfg.backbone_mbps));
    b.add_duplex(n3, cd2, bb(cfg.backbone_mbps));
    b.add_duplex(n4, cd3, bb(cfg.backbone_mbps));

    let cross_pairs = vec![(cs1, cd1), (cs1, cd2), (cs1, cd3), (cs2, cd2), (cs2, cd3), (cs3, cd3)];
    ParkingLot { sim: b.build(), src: s, dst: d, cross_pairs, chain: [c12, c23, c34] }
}

/// Shape of the multipath mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeshKind {
    /// Disjoint parallel chains with the given hop counts. Paths share no
    /// links; reordering comes purely from propagation-delay differences.
    DisjointChains([usize; 5]),
    /// A Figure 5-style mesh: five loop-free paths of mixed length (one
    /// 2-hop, four 3-hop) that *share* links, so path loads couple through
    /// common queues — the structure responsible for the paper's TD-FR
    /// collapse at 60 ms.
    Figure5,
}

/// Parameters of the Figure 5 multipath mesh.
#[derive(Debug, Clone, Copy)]
pub struct MeshConfig {
    /// Per-link one-way delay in ms (the paper runs 10 ms and 60 ms).
    pub link_delay_ms: u64,
    /// Mesh shape.
    pub kind: MeshKind,
}

impl Default for MeshConfig {
    fn default() -> Self {
        MeshConfig { link_delay_ms: 10, kind: MeshKind::Figure5 }
    }
}

impl MeshConfig {
    /// The disjoint-chain variant with the default hop mix.
    pub fn disjoint_chains(link_delay_ms: u64) -> Self {
        MeshConfig { link_delay_ms, kind: MeshKind::DisjointChains([2, 3, 3, 4, 4]) }
    }
}

/// Mesh per-link bandwidth in Mbps (paper: 10).
const MESH_LINK_MBPS: f64 = 10.0;

/// Mesh queue size in packets (paper: 100).
const MESH_QUEUE_PACKETS: usize = 100;

/// A built multipath mesh.
#[derive(Debug)]
pub struct Mesh {
    /// The simulator with the topology installed.
    pub sim: Simulator,
    /// The single traffic source.
    pub src: NodeId,
    /// The single traffic destination.
    pub dst: NodeId,
    /// Number of intended source→destination paths.
    pub n_paths: usize,
    /// Hop bound to pass to path enumeration so that only the intended
    /// forward paths are used (duplex links would otherwise admit longer
    /// "snake" paths through reverse edges).
    pub max_path_hops: usize,
}

/// Builds the Figure 5 mesh: `path_hops.len()` disjoint paths from one
/// source to one destination, path *i* having `path_hops[i]` links.
///
/// # Panics
///
/// Panics if any hop count is below 2 (a path needs at least an entry and
/// an exit link).
///
/// # Examples
///
/// ```
/// use experiments::topologies::{multipath_mesh, MeshConfig};
///
/// let m = multipath_mesh(1, MeshConfig::default());
/// assert_eq!(m.n_paths, 5);
/// ```
pub fn multipath_mesh(seed: u64, cfg: MeshConfig) -> Mesh {
    let mut b = SimBuilder::new(seed);
    let src = b.add_node();
    let dst = b.add_node();
    let link = LinkConfig::mbps_ms(MESH_LINK_MBPS, cfg.link_delay_ms, MESH_QUEUE_PACKETS);
    match cfg.kind {
        MeshKind::DisjointChains(path_hops) => {
            for &hops in &path_hops {
                assert!(hops >= 2, "each path needs at least 2 links");
                // hops links → hops-1 intermediate nodes.
                let mut prev = src;
                for _ in 0..hops - 1 {
                    let mid = b.add_node();
                    b.add_duplex(prev, mid, link.clone());
                    prev = mid;
                }
                b.add_duplex(prev, dst, link.clone());
            }
            let max_path_hops = *path_hops.iter().max().expect("five paths");
            Mesh { sim: b.build(), src, dst, n_paths: path_hops.len(), max_path_hops }
        }
        MeshKind::Figure5 => {
            // Two layers with crossing edges; paths:
            //   src-A-dst           (2 hops)
            //   src-A-D-dst         (3 hops)
            //   src-B-D-dst         (3 hops)
            //   src-B-E-dst         (3 hops)
            //   src-C-E-dst         (3 hops)
            // Shared links: src→A (2 paths), D→dst (2), E→dst (2).
            let a = b.add_node();
            let bb = b.add_node();
            let c = b.add_node();
            let d = b.add_node();
            let e = b.add_node();
            b.add_duplex(src, a, link.clone());
            b.add_duplex(src, bb, link.clone());
            b.add_duplex(src, c, link.clone());
            b.add_duplex(a, dst, link.clone());
            b.add_duplex(a, d, link.clone());
            b.add_duplex(bb, d, link.clone());
            b.add_duplex(bb, e, link.clone());
            b.add_duplex(c, e, link.clone());
            b.add_duplex(d, dst, link.clone());
            b.add_duplex(e, dst, link.clone());
            Mesh { sim: b.build(), src, dst, n_paths: 5, max_path_hops: 3 }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dumbbell_routes_end_to_end() {
        let d = dumbbell(1, DumbbellConfig::default());
        let paths = d.sim.graph().simple_paths(d.src, d.dst, 8, 8);
        assert_eq!(paths.len(), 1, "single path through the bottleneck");
        assert_eq!(paths[0].links.len(), 3);
    }

    #[test]
    fn parking_lot_chain_is_three_hops_of_backbone() {
        let p = parking_lot(1, ParkingLotConfig::default());
        let paths = p.sim.graph().simple_paths(p.src, p.dst, 16, 64);
        assert_eq!(paths.len(), 1, "test traffic has a unique route");
        assert_eq!(paths[0].links.len(), 5, "S-1-2-3-4-D");
    }

    #[test]
    fn parking_lot_cross_pairs_traverse_expected_chain_links() {
        let p = parking_lot(1, ParkingLotConfig::default());
        // CS1→CD3 must cross all three chain links.
        let (cs1, cd3) = p.cross_pairs[2];
        let paths = p.sim.graph().simple_paths(cs1, cd3, 16, 64);
        assert!(!paths.is_empty());
        for link in p.chain {
            assert!(paths[0].links.contains(&link), "CS1→CD3 must traverse chain link {link}");
        }
    }

    #[test]
    fn disjoint_mesh_has_expected_hops() {
        let m = multipath_mesh(1, MeshConfig::disjoint_chains(10));
        let paths = m.sim.graph().simple_paths(m.src, m.dst, m.max_path_hops, 64);
        assert_eq!(paths.len(), 5);
        let mut hops: Vec<usize> = paths.iter().map(|p| p.links.len()).collect();
        hops.sort_unstable();
        assert_eq!(hops, vec![2, 3, 3, 4, 4]);
    }

    #[test]
    fn figure5_mesh_has_five_paths_with_shared_links() {
        let m = multipath_mesh(1, MeshConfig::default());
        let paths = m.sim.graph().simple_paths(m.src, m.dst, m.max_path_hops, 64);
        assert_eq!(paths.len(), 5);
        let mut hops: Vec<usize> = paths.iter().map(|p| p.links.len()).collect();
        hops.sort_unstable();
        assert_eq!(hops, vec![2, 3, 3, 3, 3]);
        // At least one link is shared between two paths.
        let mut counts = std::collections::HashMap::new();
        for p in &paths {
            for l in p.links.iter() {
                *counts.entry(*l).or_insert(0u32) += 1;
            }
        }
        assert!(counts.values().any(|&c| c >= 2), "paths must share links");
    }

    #[test]
    fn mesh_path_delays_differ() {
        let m = multipath_mesh(1, MeshConfig::default());
        let paths = m.sim.graph().simple_paths(m.src, m.dst, m.max_path_hops, 64);
        let min = paths.iter().map(|p| p.delay).min().unwrap();
        let max = paths.iter().map(|p| p.delay).max().unwrap();
        assert!(max > min, "unequal path delays are required for reordering");
    }
}
