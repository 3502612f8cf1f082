//! Seeded topology generators: k-ary fat-trees and AS-like random graphs.
//!
//! A [`TopologyModel`] is a tiny `Copy` description (suitable for content
//! hashing in a scenario spec); [`TopologyModel::generate`] expands it into
//! a concrete [`GeneratedTopology`] — node count, host list, duplex link
//! list with per-link bandwidth/delay/queue parameters. Expansion is a
//! pure function of `(model, seed)`: structural choices and per-link
//! parameter draws are keyed by [`netsim::derive_seed`] over stable
//! indices, never by iteration order of a hash map or by wall clock, so
//! two workers generating the same spec produce byte-identical setups.

use netsim::derive_seed;
use netsim::link::LinkConfig;
use netsim::routing::{Graph, Routing};
use netsim::sim::SimBuilder;
use netsim::time::SimDuration;
use netsim::{LinkId, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A generative topology family, parameterized just enough to be hashed
/// into a scenario spec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TopologyModel {
    /// A k-ary fat-tree data-center fabric: `k` pods of `k/2` edge and
    /// `k/2` aggregation switches, `(k/2)²` core switches, `k³/4` hosts.
    /// `k` must be even and ≥ 2.
    FatTree {
        /// Fat-tree arity (even, ≥ 2).
        k: u32,
    },
    /// An AS-like random graph grown by preferential attachment
    /// (Barabási–Albert style): high-degree hubs emerge, matching the
    /// heavy-tailed degree distributions of Internet AS maps.
    AsGraph {
        /// Total node count (≥ `edges_per_node + 1`).
        nodes: u32,
        /// Edges each newly attached node brings (≥ 1).
        edges_per_node: u32,
    },
}

impl TopologyModel {
    /// Short stable label used in scenario labels and artifacts.
    pub fn label(self) -> String {
        match self {
            TopologyModel::FatTree { k } => format!("fat-tree-k{k}"),
            TopologyModel::AsGraph { nodes, edges_per_node } => {
                format!("as-{nodes}x{edges_per_node}")
            }
        }
    }

    /// Expands the model into a concrete topology. Deterministic in
    /// `(self, seed)`.
    pub fn generate(self, seed: u64) -> GeneratedTopology {
        match self {
            TopologyModel::FatTree { k } => fat_tree(k, seed),
            TopologyModel::AsGraph { nodes, edges_per_node } => {
                as_graph(nodes, edges_per_node, seed)
            }
        }
    }
}

/// One duplex link of a generated topology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenLink {
    /// One endpoint (node index).
    pub a: usize,
    /// The other endpoint (node index).
    pub b: usize,
    /// Bandwidth, Mbit/s (both directions).
    pub mbps: f64,
    /// One-way propagation delay, microseconds.
    pub delay_us: u64,
    /// Drop-tail queue capacity, packets.
    pub queue_packets: usize,
}

/// A concrete generated topology, ready to materialize into a
/// [`SimBuilder`].
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratedTopology {
    /// Total node count (hosts + switches).
    pub node_count: usize,
    /// Indices of traffic-endpoint nodes, in generation order.
    pub hosts: Vec<usize>,
    /// Duplex links.
    pub links: Vec<GenLink>,
}

/// Node ids and link ids of a materialized topology.
#[derive(Debug, Clone)]
pub struct Materialized {
    /// `nodes[i]` is the simulator node for topology node index `i`.
    pub nodes: Vec<NodeId>,
    /// `(forward, reverse)` simulator links per [`GeneratedTopology::links`]
    /// entry.
    pub links: Vec<(LinkId, LinkId)>,
}

impl GeneratedTopology {
    /// Adds the topology's nodes and duplex links to a builder. Routing
    /// (shortest path by delay; among equal-delay paths a destination
    /// inherits its first link from its shortest-path predecessor popped
    /// first by (distance, node index)) is computed by the builder itself.
    pub fn materialize(&self, b: &mut SimBuilder) -> Materialized {
        let nodes = b.add_nodes(self.node_count);
        let links = self
            .links
            .iter()
            .map(|l| {
                b.add_duplex(
                    nodes[l.a],
                    nodes[l.b],
                    LinkConfig::new(
                        l.mbps * 1e6,
                        SimDuration::from_micros(l.delay_us),
                        l.queue_packets,
                    ),
                )
            })
            .collect();
        Materialized { nodes, links }
    }

    /// Whether every node is reachable from node 0 over the duplex links.
    pub fn is_connected(&self) -> bool {
        if self.node_count == 0 {
            return true;
        }
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); self.node_count];
        for l in &self.links {
            adj[l.a].push(l.b);
            adj[l.b].push(l.a);
        }
        let mut seen = vec![false; self.node_count];
        let mut frontier = vec![0usize];
        seen[0] = true;
        let mut visited = 1usize;
        while let Some(n) = frontier.pop() {
            for &m in &adj[n] {
                if !seen[m] {
                    seen[m] = true;
                    visited += 1;
                    frontier.push(m);
                }
            }
        }
        visited == self.node_count
    }

    /// The routing graph of this topology (two directed edges per duplex
    /// link, in link order — matching [`Self::materialize`]'s id
    /// assignment). Exposed for loop-freedom checks on the shortest-path
    /// tables the simulator will use.
    pub fn routing_graph(&self) -> Graph {
        let edges: Vec<(NodeId, NodeId, LinkId, SimDuration)> = self
            .links
            .iter()
            .enumerate()
            .flat_map(|(i, l)| {
                let a = NodeId::from_raw(l.a as u32);
                let b = NodeId::from_raw(l.b as u32);
                let d = SimDuration::from_micros(l.delay_us);
                [
                    (a, b, LinkId::from_raw((2 * i) as u32), d),
                    (b, a, LinkId::from_raw((2 * i + 1) as u32), d),
                ]
            })
            .collect();
        Graph::new(self.node_count, &edges)
    }

    /// Walks shortest-path next hops from `src` to `dst`, returning the
    /// hop count, or `None` if the walk revisits a node or exceeds the
    /// node count (a routing loop) or dead-ends before `dst`.
    pub fn walk_route(&self, routing: &Routing, src: usize, dst: usize) -> Option<usize> {
        let dst_id = NodeId::from_raw(dst as u32);
        let mut at = src;
        let mut visited = vec![false; self.node_count];
        let mut hops = 0usize;
        while at != dst {
            if visited[at] {
                return None; // loop
            }
            visited[at] = true;
            let link = routing.next_hop(NodeId::from_raw(at as u32), dst_id)?;
            let idx = link.index();
            let l = &self.links[idx / 2];
            at = if idx % 2 == 0 { l.b } else { l.a };
            hops += 1;
            if hops > self.node_count {
                return None;
            }
        }
        Some(hops)
    }
}

/// Per-tier base parameters of the fat-tree fabric. Hosts uplink at
/// 20 Mbit/s; the fabric is non-blocking above that, so the interesting
/// contention is at the edges — where the churn population lives.
const HOST_MBPS: f64 = 20.0;
const EDGE_AGG_MBPS: f64 = 40.0;
const AGG_CORE_MBPS: f64 = 80.0;

/// Draws a jittered delay: `base_us` ± 25%, keyed by the link's derived
/// seed so the draw is independent of every other link's.
fn jittered_delay(base_us: u64, rng: &mut SmallRng) -> u64 {
    let f: f64 = rng.gen_range(0.75..1.25);
    ((base_us as f64 * f) as u64).max(1)
}

/// Per-link RNG: one independent deterministic stream per link index.
fn link_rng(seed: u64, link_index: usize) -> SmallRng {
    SmallRng::seed_from_u64(derive_seed(seed, link_index as u32))
}

fn fat_tree(k: u32, seed: u64) -> GeneratedTopology {
    assert!(k >= 2 && k.is_multiple_of(2), "fat-tree arity must be even and >= 2, got {k}");
    let k = k as usize;
    let half = k / 2;
    let cores = half * half;
    // Node layout: [cores][per pod: half agg, half edge, half*half hosts].
    let pod_stride = half + half + half * half;
    let node_count = cores + k * pod_stride;
    let agg = |pod: usize, i: usize| cores + pod * pod_stride + i;
    let edge = |pod: usize, i: usize| cores + pod * pod_stride + half + i;
    let host = |pod: usize, e: usize, h: usize| cores + pod * pod_stride + 2 * half + e * half + h;

    let mut links = Vec::new();
    let mut push = |a: usize, b: usize, mbps: f64, base_us: u64, queue: usize| {
        let mut rng = link_rng(seed, links.len());
        links.push(GenLink {
            a,
            b,
            mbps,
            delay_us: jittered_delay(base_us, &mut rng),
            queue_packets: queue,
        });
    };
    for pod in 0..k {
        for e in 0..half {
            for h in 0..half {
                push(host(pod, e, h), edge(pod, e), HOST_MBPS, 20, 64);
            }
            for a in 0..half {
                push(edge(pod, e), agg(pod, a), EDGE_AGG_MBPS, 50, 128);
            }
        }
        for a in 0..half {
            for c in 0..half {
                push(agg(pod, a), a * half + c, AGG_CORE_MBPS, 50, 128);
            }
        }
    }
    let hosts = (0..k)
        .flat_map(|p| (0..half).flat_map(move |e| (0..half).map(move |h| (p, e, h))))
        .map(|(p, e, h)| host(p, e, h))
        .collect();
    GeneratedTopology { node_count, hosts, links }
}

fn as_graph(nodes: u32, edges_per_node: u32, seed: u64) -> GeneratedTopology {
    let n = nodes as usize;
    let m = edges_per_node as usize;
    assert!(m >= 1, "AS graph needs at least one edge per node");
    assert!(n > m, "AS graph needs more than edges_per_node + 1 nodes, got {n}");
    // Attachment choices draw from their own stream, distinct from every
    // per-link parameter stream (which use the link's index).
    let mut attach_rng = SmallRng::seed_from_u64(derive_seed(seed, u32::MAX));
    let mut links: Vec<GenLink> = Vec::new();
    // Repeated-endpoint list: each node appears once per incident edge, so
    // a uniform draw over it is degree-proportional attachment.
    let mut endpoints: Vec<usize> = Vec::new();
    let push = |a: usize, b: usize, endpoints: &mut Vec<usize>, links: &mut Vec<GenLink>| {
        let mut rng = link_rng(seed, links.len());
        let mbps: f64 = rng.gen_range(30.0..80.0);
        let delay_us = rng.gen_range(200..2_000u64);
        links.push(GenLink { a, b, mbps, delay_us, queue_packets: 128 });
        endpoints.push(a);
        endpoints.push(b);
    };
    // Seed clique over the first m+1 nodes.
    for a in 0..=m {
        for b in (a + 1)..=m {
            push(a, b, &mut endpoints, &mut links);
        }
    }
    // Grow: each new node attaches to m distinct degree-weighted targets.
    for v in (m + 1)..n {
        let mut targets: Vec<usize> = Vec::with_capacity(m);
        while targets.len() < m {
            let t = endpoints[attach_rng.gen_range(0..endpoints.len())];
            if !targets.contains(&t) {
                targets.push(t);
            }
        }
        for t in targets {
            push(v, t, &mut endpoints, &mut links);
        }
    }
    let hosts = (0..n).collect();
    GeneratedTopology { node_count: n, hosts, links }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fat_tree_has_the_textbook_shape() {
        let t = TopologyModel::FatTree { k: 4 }.generate(7);
        // k = 4: 16 hosts, 4 cores, 8 agg + 8 edge switches.
        assert_eq!(t.hosts.len(), 16);
        assert_eq!(t.node_count, 4 + 4 * (2 + 2 + 4));
        // k³/4 host links + k²/2·k/2 edge-agg + k·(k/2)² agg-core duplex links.
        assert_eq!(t.links.len(), 16 + 16 + 16);
        assert!(t.is_connected());
    }

    #[test]
    fn as_graph_is_connected_and_sized() {
        let t = TopologyModel::AsGraph { nodes: 40, edges_per_node: 2 }.generate(11);
        assert_eq!(t.node_count, 40);
        assert_eq!(t.hosts.len(), 40);
        // Seed clique C(3,2) = 3 edges, then 2 per grown node.
        assert_eq!(t.links.len(), 3 + 37 * 2);
        assert!(t.is_connected());
    }

    #[test]
    fn generation_is_a_pure_function_of_model_and_seed() {
        for model in [
            TopologyModel::FatTree { k: 4 },
            TopologyModel::AsGraph { nodes: 24, edges_per_node: 2 },
        ] {
            let a = model.generate(42);
            let b = model.generate(42);
            assert_eq!(a, b, "same (model, seed) must regenerate identically");
            let c = model.generate(43);
            assert_ne!(
                a.links, c.links,
                "a different seed must draw different per-link parameters"
            );
        }
    }

    #[test]
    fn shortest_path_routes_are_loop_free() {
        for model in [
            TopologyModel::FatTree { k: 4 },
            TopologyModel::AsGraph { nodes: 24, edges_per_node: 2 },
        ] {
            let t = model.generate(5);
            let routing = Routing::shortest_path(&t.routing_graph());
            for &src in &t.hosts {
                for &dst in &t.hosts {
                    if src == dst {
                        continue;
                    }
                    let hops = t.walk_route(&routing, src, dst);
                    assert!(
                        hops.is_some_and(|h| h <= t.node_count),
                        "{model:?}: route {src}->{dst} loops or dead-ends"
                    );
                }
            }
        }
    }

    #[test]
    fn fat_tree_cross_pod_routes_climb_the_tree() {
        let t = TopologyModel::FatTree { k: 4 }.generate(3);
        let routing = Routing::shortest_path(&t.routing_graph());
        // Same-edge hosts: 2 hops (up, down). Cross-pod: 6 hops through core.
        assert_eq!(t.walk_route(&routing, t.hosts[0], t.hosts[1]), Some(2));
        assert_eq!(t.walk_route(&routing, t.hosts[0], t.hosts[15]), Some(6));
    }

    #[test]
    fn materialize_builds_a_runnable_sim() {
        let t = TopologyModel::FatTree { k: 2 }.generate(1);
        let mut b = SimBuilder::new(1);
        let m = t.materialize(&mut b);
        assert_eq!(m.nodes.len(), t.node_count);
        assert_eq!(m.links.len(), t.links.len());
        let mut sim = b.build();
        sim.run_until(netsim::time::SimTime::from_secs_f64(0.01));
        assert_eq!(sim.node_count(), t.node_count);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_fat_tree_arity_is_rejected() {
        TopologyModel::FatTree { k: 3 }.generate(0);
    }
}
