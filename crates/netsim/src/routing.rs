//! Routing: shortest-path next-hop tables and the paper's ε-parameterized
//! multi-path strategy.
//!
//! The TCP-PR evaluation (Section 5) routes one flow over a family of
//! multi-path strategies indexed by a scalar ε taken from the authors'
//! routing-games work: ε → ∞ degenerates to shortest-path routing, ε = 0
//! spreads packets uniformly over all available paths, and intermediate
//! values interpolate. We reproduce exactly those endpoints and a monotone
//! interpolation: path *i* is chosen with probability proportional to
//! `exp(-ε · (dᵢ − d_min) / d_min)`, where `dᵢ` is the path's total
//! propagation delay.
//!
//! [`Routing`] owns every path a mixture ever offered, in an append-only
//! table, and a source-routed packet names its path by its [`RouteId`]
//! there (DESIGN.md §2 "The round trip takes no detour"). Its shortest-path
//! table is solved from transit nodes only (§2 "Routes are solved for the
//! transit core").

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use crate::ids::{LinkId, NodeId, RouteId};
use crate::time::SimDuration;

/// A loop-free path from a source to a destination.
#[derive(Debug, Clone)]
pub struct Path {
    /// Links traversed, in order.
    pub links: Arc<[LinkId]>,
    /// Sum of link propagation delays along the path.
    pub delay: SimDuration,
}

/// Directed graph view of the topology used to compute routes.
#[derive(Debug, Clone)]
pub struct Graph {
    node_count: usize,
    /// `adj[u]` lists `(v, link, delay)` for each link `u → v`.
    adj: Vec<Vec<(NodeId, LinkId, SimDuration)>>,
}

impl Graph {
    /// Builds a graph over `node_count` nodes from directed edges
    /// `(from, to, link, delay)`.
    ///
    /// # Panics
    ///
    /// Panics if an edge references a node `>= node_count`.
    pub fn new(node_count: usize, edges: &[(NodeId, NodeId, LinkId, SimDuration)]) -> Self {
        let mut adj = vec![Vec::new(); node_count];
        for &(from, to, link, delay) in edges {
            assert!(
                from.index() < node_count && to.index() < node_count,
                "edge references unknown node"
            );
            adj[from.index()].push((to, link, delay));
        }
        Graph { node_count, adj }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Every node's [`Stub`] record, `None` for a transit node (DESIGN.md §2
    /// "Routes are solved for the transit core"). A stub `x` has exactly one
    /// link out, to some `y ≠ x`, exactly one link in, from that `y`, and `y`
    /// is not such a node itself — so a two-node island stays transit.
    fn stubs(&self) -> Vec<Option<Stub>> {
        // How many links enter each node, and the last of them: `(count, from, link)`.
        let mut entering = vec![(0usize, 0usize, LinkId::from_raw(0)); self.node_count];
        for (u, out) in self.adj.iter().enumerate() {
            for &(v, link, _) in out {
                let e = &mut entering[v.index()];
                *e = (e.0 + 1, u, link);
            }
        }
        let hangs = |x: usize| match (self.adj[x].as_slice(), entering[x]) {
            (&[(y, up, _)], (1, from, down)) if from == y.index() && from != x => {
                Some(Stub { attachment: from, up, down })
            }
            _ => None,
        };
        (0..self.node_count).map(|x| hangs(x).filter(|s| hangs(s.attachment).is_none())).collect()
    }

    /// Enumerates all simple (loop-free) paths from `src` to `dst`, bounded
    /// by `max_hops` links per path and `max_paths` paths in total, sorted by
    /// ascending delay.
    pub fn simple_paths(
        &self,
        src: NodeId,
        dst: NodeId,
        max_hops: usize,
        max_paths: usize,
    ) -> Vec<Path> {
        let mut out: Vec<Path> = Vec::new();
        let mut visited = vec![false; self.node_count];
        let mut stack: Vec<LinkId> = Vec::new();
        visited[src.index()] = true;
        self.dfs_paths(
            src,
            dst,
            max_hops,
            max_paths,
            &mut visited,
            &mut stack,
            SimDuration::ZERO,
            &mut out,
        );
        out.sort_by_key(|p| (p.delay, p.links.len()));
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn dfs_paths(
        &self,
        u: NodeId,
        dst: NodeId,
        max_hops: usize,
        max_paths: usize,
        visited: &mut Vec<bool>,
        stack: &mut Vec<LinkId>,
        delay: SimDuration,
        out: &mut Vec<Path>,
    ) {
        if out.len() >= max_paths {
            return;
        }
        if u == dst {
            out.push(Path { links: stack.clone().into(), delay });
            return;
        }
        if stack.len() >= max_hops {
            return;
        }
        for &(v, link, w) in &self.adj[u.index()] {
            if visited[v.index()] {
                continue;
            }
            visited[v.index()] = true;
            stack.push(link);
            self.dfs_paths(v, dst, max_hops, max_paths, visited, stack, delay + w, out);
            stack.pop();
            visited[v.index()] = false;
        }
    }
}

/// A stub node's one way in and out: the node `attachment` it hangs off,
/// its uplink `x → attachment` and the downlink `attachment → x`.
#[derive(Debug, Clone, Copy)]
struct Stub {
    attachment: usize,
    up: LinkId,
    down: LinkId,
}

/// Selection weights for the ε-family of multi-path strategies.
///
/// Returns one non-negative weight per path delay, normalized to sum to 1.
/// ε = 0 yields the uniform distribution; large ε concentrates all mass on
/// the minimum-delay path(s).
///
/// # Panics
///
/// Panics if `delays` is empty or `epsilon` is negative/NaN.
///
/// # Examples
///
/// ```
/// use netsim::routing::epsilon_weights;
/// use netsim::time::SimDuration;
///
/// let delays = [SimDuration::from_millis(20), SimDuration::from_millis(40)];
/// let uniform = epsilon_weights(&delays, 0.0);
/// assert!((uniform[0] - 0.5).abs() < 1e-12);
/// let sharp = epsilon_weights(&delays, 500.0);
/// assert!(sharp[0] > 0.999);
/// ```
pub fn epsilon_weights(delays: &[SimDuration], epsilon: f64) -> Vec<f64> {
    assert!(!delays.is_empty(), "at least one path required");
    assert!(epsilon.is_finite() && epsilon >= 0.0, "epsilon must be non-negative");
    let d_min = delays.iter().copied().min().expect("non-empty").as_secs_f64();
    let scale = if d_min > 0.0 { d_min } else { 1e-9 };
    let raw: Vec<f64> =
        delays.iter().map(|d| (-epsilon * (d.as_secs_f64() - d_min) / scale).exp()).collect();
    let total: f64 = raw.iter().sum();
    raw.into_iter().map(|w| w / total).collect()
}

/// A per-(src, dst) randomized path mixture.
#[derive(Debug, Clone)]
pub struct MultipathRoute {
    paths: Vec<Path>,
    /// Cumulative distribution over `paths` (last element = 1.0).
    cdf: Vec<f64>,
}

impl MultipathRoute {
    /// Builds a mixture over `paths` with the ε-family weights.
    ///
    /// # Panics
    ///
    /// Panics if `paths` is empty.
    pub fn with_epsilon(paths: Vec<Path>, epsilon: f64) -> Self {
        let delays: Vec<SimDuration> = paths.iter().map(|p| p.delay).collect();
        let weights = epsilon_weights(&delays, epsilon);
        Self::with_weights(paths, &weights)
    }

    /// Builds a mixture over `paths` with explicit probabilities
    /// (renormalized).
    ///
    /// # Panics
    ///
    /// Panics if `paths` is empty, lengths differ, a weight is not finite
    /// and non-negative, or all weights are zero.
    pub fn with_weights(paths: Vec<Path>, weights: &[f64]) -> Self {
        assert!(!paths.is_empty(), "at least one path required");
        assert_eq!(paths.len(), weights.len(), "one weight per path required");
        for (i, w) in weights.iter().enumerate() {
            assert!(
                w.is_finite() && *w >= 0.0,
                "weight {i} must be finite and non-negative, got {w}"
            );
        }
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must not all be zero");
        let mut cdf = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for w in weights {
            acc += w / total;
            cdf.push(acc);
        }
        *cdf.last_mut().expect("non-empty") = 1.0;
        MultipathRoute { paths, cdf }
    }

    /// Picks a path given a uniform sample from `[0, 1)`.
    pub fn pick(&self, uniform: f64) -> &Path {
        &self.paths[self.pick_index(uniform)]
    }

    /// Index into [`Self::paths`] of the path `pick(uniform)` returns.
    fn pick_index(&self, uniform: f64) -> usize {
        self.cdf.partition_point(|&c| c <= uniform).min(self.paths.len() - 1)
    }

    /// The candidate paths.
    pub fn paths(&self) -> &[Path] {
        &self.paths
    }

    /// The probability assigned to path `i`.
    pub fn probability(&self, i: usize) -> f64 {
        let prev = if i == 0 { 0.0 } else { self.cdf[i - 1] };
        self.cdf[i] - prev
    }
}

/// The mixture installed towards `dst`; `handles[i]` names `mixture.paths()[i]`.
#[derive(Debug)]
struct Installed {
    dst: NodeId,
    mixture: MultipathRoute,
    handles: Vec<RouteId>,
}

/// Complete routing state for a simulation.
#[derive(Debug, Default)]
pub struct Routing {
    /// Rows and columns of [`Self::next_hop`].
    nodes: usize,
    /// `next_hop[src * nodes + dst]` = first link of the shortest path.
    next_hop: Vec<Option<LinkId>>,
    /// Per source node, the mixtures overriding next-hop routing: a handful
    /// of destinations at most, scanned linearly.
    multipath: Vec<Vec<Installed>>,
    /// Every distinct path a mixture ever offered, indexed by [`RouteId`];
    /// append-only, so a packet in flight keeps the path it was pinned to.
    routes: Vec<Arc<[LinkId]>>,
}

impl Routing {
    /// Computes all-pairs shortest-path next hops for `graph`, by
    /// propagation delay. Among equal-delay paths a destination inherits its
    /// first link from its shortest-path predecessor popped first by
    /// (distance, node index).
    ///
    /// Dijkstra runs from transit nodes only and never relaxes into a stub
    /// (DESIGN.md §2 "Routes are solved for the transit core"): a stub's
    /// column is copied from its attachment's, and its row is its uplink
    /// towards its attachment and everything the attachment reaches.
    /// Reports the profiler counters `routing.nodes` and `routing.solved`
    /// (Dijkstra runs).
    pub fn shortest_path(graph: &Graph) -> Self {
        let n = graph.node_count();
        let stubs = graph.stubs();
        let mut next_hop = vec![None; n * n];
        let mut dist = vec![SimDuration::MAX; n];
        let mut heap = BinaryHeap::new();
        let mut solved = 0;
        for src in (0..n).filter(|&s| stubs[s].is_none()) {
            solved += 1;
            let row = &mut next_hop[src * n..(src + 1) * n];
            dist.fill(SimDuration::MAX);
            dist[src] = SimDuration::ZERO;
            heap.push(Reverse(heap_key(SimDuration::ZERO, src)));
            while let Some(Reverse(key)) = heap.pop() {
                let (d, u) = (SimDuration::from_nanos((key >> 64) as u64), key as u64 as usize);
                if d > dist[u] {
                    continue;
                }
                for &(v, link, w) in &graph.adj[u] {
                    let v = v.index();
                    if stubs[v].is_some() {
                        continue;
                    }
                    let nd = d + w;
                    if nd < dist[v] {
                        dist[v] = nd;
                        row[v] = if u == src { Some(link) } else { row[u] };
                        heap.push(Reverse(heap_key(nd, v)));
                    }
                }
            }
            for (x, stub) in stubs.iter().enumerate() {
                if let Some(s) = stub {
                    row[x] = if s.attachment == src { Some(s.down) } else { row[s.attachment] };
                }
            }
        }
        for (x, stub) in stubs.iter().enumerate() {
            if let Some(s) = stub {
                for d in 0..n {
                    let reached = d == s.attachment || next_hop[s.attachment * n + d].is_some();
                    next_hop[x * n + d] = (reached && d != x).then_some(s.up);
                }
            }
        }
        obs::count("routing.nodes", n as u64);
        obs::count("routing.solved", solved);
        Routing { nodes: n, next_hop, multipath: Vec::new(), routes: Vec::new() }
    }

    /// Installs a source-routed mixture for packets from `src` to `dst`,
    /// replacing the pair's previous one.
    pub fn set_multipath(&mut self, src: NodeId, dst: NodeId, route: MultipathRoute) {
        let handles = route.paths.iter().map(|p| self.intern(&p.links)).collect();
        if self.multipath.len() <= src.index() {
            self.multipath.resize_with(src.index() + 1, Vec::new);
        }
        let from_src = &mut self.multipath[src.index()];
        from_src.retain(|m| m.dst != dst);
        from_src.push(Installed { dst, mixture: route, handles });
    }

    /// The handle of `links`, appended only if no equal path is in the table
    /// (a route flapping between two paths holds two entries). A linear scan:
    /// an install is set-up or a rare event, and the table a few dozen paths.
    fn intern(&mut self, links: &Arc<[LinkId]>) -> RouteId {
        let at = self.routes.iter().position(|r| r == links).unwrap_or_else(|| {
            self.routes.push(Arc::clone(links));
            self.routes.len() - 1
        });
        RouteId::from_raw(at as u32)
    }

    fn installed(&self, src: NodeId, dst: NodeId) -> Option<&Installed> {
        self.multipath.get(src.index())?.iter().find(|m| m.dst == dst)
    }

    /// The mixture for `(src, dst)`, if one is installed.
    pub fn multipath(&self, src: NodeId, dst: NodeId) -> Option<&MultipathRoute> {
        self.installed(src, dst).map(|m| &m.mixture)
    }

    /// Handle of the path the pair's mixture picks for `uniform()` (which is
    /// drawn only if there is a mixture).
    pub(crate) fn pick_route(
        &self,
        src: NodeId,
        dst: NodeId,
        uniform: impl FnOnce() -> f64,
    ) -> Option<RouteId> {
        let m = self.installed(src, dst)?;
        Some(m.handles[m.mixture.pick_index(uniform())])
    }

    /// The links of an installed path.
    pub(crate) fn route(&self, id: RouteId) -> &[LinkId] {
        debug_assert!(id.index() < self.routes.len(), "{id} dangles: the table only grows");
        &self.routes[id.index()]
    }

    /// Number of distinct paths ever installed.
    pub fn route_count(&self) -> usize {
        self.routes.len()
    }

    /// Shortest-path next hop from `at` towards `dst`; `None` if `dst` is
    /// unreachable, is `at`, or either id is out of range.
    pub fn next_hop(&self, at: NodeId, dst: NodeId) -> Option<LinkId> {
        if dst.index() >= self.nodes {
            return None;
        }
        // An `at` past the last row indexes past the end of the table.
        self.next_hop.get(at.index() * self.nodes + dst.index()).copied().flatten()
    }
}

/// A Dijkstra heap entry, `(distance << 64) | node`: `u128` order is
/// (distance, node index) order.
fn heap_key(dist: SimDuration, node: usize) -> u128 {
    (u128::from(dist.as_nanos()) << 64) | node as u128
}

#[cfg(test)]
mod model;

#[cfg(test)]
mod tests {
    use super::model::{compare, Edge};
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn ms(x: u64) -> SimDuration {
        SimDuration::from_millis(x)
    }

    fn us(x: u64) -> SimDuration {
        SimDuration::from_micros(x)
    }

    fn n(i: u32) -> NodeId {
        NodeId::from_raw(i)
    }

    fn l(i: u32) -> LinkId {
        LinkId::from_raw(i)
    }

    /// Links `(from, to, delay µs)`, numbered in order.
    type Links = [(u32, u32, u64)];

    fn edges(list: &Links) -> Vec<Edge> {
        list.iter().enumerate().map(|(i, &(a, b, d))| (n(a), n(b), l(i as u32), us(d))).collect()
    }

    /// Which nodes are stubs, and off which node each hangs.
    fn stub_attachments(node_count: usize, list: &Links) -> Vec<Option<usize>> {
        let stubs = Graph::new(node_count, &edges(list)).stubs();
        stubs.iter().map(|s| s.map(|s| s.attachment)).collect()
    }

    #[test]
    fn a_stub_has_one_link_out_and_one_back_off_a_transit_node() {
        // 0 ↔ 1 ↔ 2 ↔ 0 is the core; 3 hangs off 0, 4 off 1.
        let core = [(0, 1, 1), (1, 0, 1), (1, 2, 1), (2, 1, 1), (2, 0, 1), (0, 2, 1)];
        let hosts = [(3, 0, 1), (0, 3, 1), (1, 4, 1), (4, 1, 1)];
        let both = [&core[..], &hosts[..]].concat();
        assert_eq!(stub_attachments(5, &both), [None, None, None, Some(0), Some(1)]);
        // A second way in: from another node, or a parallel link from the attachment.
        for extra in [(2, 3, 1), (0, 3, 5)] {
            let list = [&both[..], &[extra]].concat();
            assert_eq!(stub_attachments(5, &list)[3], None, "{extra:?}");
        }
        // A second way out, or a self-loop.
        for extra in [(3, 2, 1), (3, 3, 0)] {
            let list = [&both[..], &[extra]].concat();
            assert_eq!(stub_attachments(5, &list)[3], None, "{extra:?}");
        }
        // One way in and one out, but not to and from the same node: a chain link.
        let chain = [&core[..], &[(3, 0, 1), (1, 3, 1)]].concat();
        assert_eq!(stub_attachments(4, &chain)[3], None);
        // A two-node island stays transit, and so do isolated nodes and
        // single one-way links.
        assert_eq!(stub_attachments(2, &[(0, 1, 1), (1, 0, 1)]), [None, None]);
        assert_eq!(stub_attachments(3, &[(0, 1, 1)]), [None, None, None]);
        // Both ends of 0 ↔ 1 ↔ 2 hang off 1.
        let line = [(0, 1, 1), (1, 0, 1), (1, 2, 1), (2, 1, 1)];
        assert_eq!(stub_attachments(3, &line), [Some(1), None, Some(1)]);
    }

    /// A random directed graph with every shape the stub rule must get
    /// right: a core of one-way, two-way, parallel and zero-delay links and
    /// self-loops, then isolated nodes, two-node islands, stubs (some off
    /// another gadget's node), one-link-out nodes with a second link in, and
    /// chains of one-link-out nodes. Delays of 0–3 µs make ties the rule.
    fn random_graph(seed: u64) -> (usize, Vec<Edge>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut list: Vec<(u32, u32, u64)> = Vec::new();
        let mut link = |rng: &mut SmallRng, a: usize, b: usize| {
            list.push((a as u32, b as u32, rng.gen_range(0..4)));
        };
        let core = rng.gen_range(1..8usize);
        for _ in 0..rng.gen_range(0..3 * core) {
            let (a, b) = (rng.gen_range(0..core), rng.gen_range(0..core));
            link(&mut rng, a, b);
            if rng.gen_bool(0.5) {
                link(&mut rng, b, a);
            }
        }
        let mut nodes = core;
        for _ in 0..rng.gen_range(0..8) {
            let (at, x) = (rng.gen_range(0..nodes), nodes);
            match rng.gen_range(0..5) {
                0 => nodes += 1,
                1 => {
                    link(&mut rng, at, x);
                    link(&mut rng, x, at);
                    nodes += 1;
                }
                2 => {
                    link(&mut rng, x, x + 1);
                    link(&mut rng, x + 1, x);
                    nodes += 2;
                }
                3 => {
                    link(&mut rng, at, x);
                    link(&mut rng, x, at);
                    let from = rng.gen_range(0..=x);
                    link(&mut rng, from, x);
                    nodes += 1;
                }
                _ => {
                    let len = rng.gen_range(1..5usize);
                    for i in x..x + len {
                        link(&mut rng, i, if i + 1 == x + len { at } else { i + 1 });
                    }
                    let from = rng.gen_range(0..x);
                    link(&mut rng, from, x);
                    nodes += len;
                }
            }
        }
        (nodes, edges(&list))
    }

    proptest::proptest! {
        #[test]
        fn next_hops_match_the_per_source_model(seed in 0u64..u64::MAX) {
            for case in 0..16 {
                let (nodes, edges) = random_graph(seed.wrapping_add(case));
                let verdict = compare(nodes, &edges);
                proptest::prop_assert!(verdict.is_ok(), "{}: {:?}", verdict.unwrap_err(), edges);
            }
        }
    }

    #[test]
    fn next_hops_match_the_per_source_model_on_hand_built_graphs() {
        let cases: [(usize, &Links); 5] = [
            // A stub hanging off each end of a tied diamond.
            (
                6,
                &[
                    (0, 1, 1),
                    (1, 3, 1),
                    (0, 2, 1),
                    (2, 3, 1),
                    (3, 0, 2),
                    (4, 0, 0),
                    (0, 4, 0),
                    (5, 3, 3),
                    (3, 5, 3),
                ],
            ),
            // A one-link-out node that is a shortcut for a third node.
            (4, &[(0, 1, 5), (1, 0, 5), (0, 2, 0), (2, 1, 0), (1, 2, 1), (3, 0, 1), (0, 3, 1)]),
            // A chain of one-link-out nodes around a loop.
            (4, &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1), (2, 0, 9)]),
            // An island beside a stubbed pair.
            (5, &[(0, 1, 2), (1, 0, 2), (2, 1, 0), (1, 2, 0), (3, 4, 1), (4, 3, 1)]),
            // A lone node.
            (1, &[]),
        ];
        for (nodes, list) in cases {
            assert_eq!(compare(nodes, &edges(list)), Ok(()), "{list:?}");
        }
    }

    /// 0 → 1 → 3 (10ms + 10ms) and 0 → 2 → 3 (10ms + 30ms).
    fn diamond() -> Graph {
        Graph::new(
            4,
            &[
                (n(0), n(1), l(0), ms(10)),
                (n(1), n(3), l(1), ms(10)),
                (n(0), n(2), l(2), ms(10)),
                (n(2), n(3), l(3), ms(30)),
            ],
        )
    }

    #[test]
    fn dijkstra_picks_min_delay_route() {
        let routing = Routing::shortest_path(&diamond());
        let first = |dst| routing.next_hop(n(0), n(dst));
        assert_eq!(first(3), Some(l(0)), "should route via node 1");
        assert_eq!(first(1), Some(l(0)));
        assert_eq!(first(2), Some(l(2)));
        assert_eq!(first(0), None);
    }

    #[test]
    fn dijkstra_unreachable_is_none() {
        let routing = Routing::shortest_path(&Graph::new(3, &[(n(0), n(1), l(0), ms(1))]));
        assert_eq!(routing.next_hop(n(0), n(2)), None);
        assert_eq!(routing.next_hop(n(0), n(3)), None, "out of range");
    }

    #[test]
    fn simple_paths_finds_both_diamond_routes() {
        let g = diamond();
        let paths = g.simple_paths(n(0), n(3), 8, 16);
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].delay, ms(20));
        assert_eq!(paths[1].delay, ms(40));
        assert_eq!(paths[0].links.as_ref(), &[l(0), l(1)]);
        assert_eq!(paths[1].links.as_ref(), &[l(2), l(3)]);
    }

    #[test]
    fn simple_paths_respects_hop_limit() {
        let g = diamond();
        let paths = g.simple_paths(n(0), n(3), 1, 16);
        assert!(paths.is_empty());
    }

    #[test]
    fn epsilon_zero_is_uniform() {
        let w = epsilon_weights(&[ms(10), ms(20), ms(30)], 0.0);
        for x in w {
            assert!((x - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn epsilon_large_is_shortest_path() {
        let w = epsilon_weights(&[ms(10), ms(20), ms(30)], 500.0);
        assert!(w[0] > 0.9999);
        assert!(w[1] < 1e-6 && w[2] < 1e-6);
    }

    #[test]
    fn epsilon_monotone_in_delay() {
        let w = epsilon_weights(&[ms(10), ms(20), ms(30)], 4.0);
        assert!(w[0] > w[1] && w[1] > w[2]);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn multipath_pick_covers_distribution() {
        let g = diamond();
        let paths = g.simple_paths(n(0), n(3), 8, 16);
        let route = MultipathRoute::with_epsilon(paths, 0.0);
        // Uniform over 2 paths: samples below 0.5 pick path 0.
        assert_eq!(route.pick(0.0).delay, ms(20));
        assert_eq!(route.pick(0.49).delay, ms(20));
        assert_eq!(route.pick(0.51).delay, ms(40));
        assert_eq!(route.pick(0.999).delay, ms(40));
        assert!((route.probability(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn routing_table_integration() {
        let g = diamond();
        let mut routing = Routing::shortest_path(&g);
        assert_eq!(routing.next_hop(n(0), n(3)), Some(l(0)));
        assert_eq!(routing.next_hop(n(2), n(3)), Some(l(3)));
        assert!(routing.multipath(n(0), n(3)).is_none());
        let paths = g.simple_paths(n(0), n(3), 8, 16);
        routing.set_multipath(n(0), n(3), MultipathRoute::with_epsilon(paths.clone(), 0.0));
        assert!(routing.multipath(n(0), n(3)).is_some());
        assert!(routing.multipath(n(0), n(2)).is_none() && routing.multipath(n(3), n(0)).is_none());
        // Handles follow the mixture's own order of paths; a path installed
        // before keeps the handle it had, for this pair or another.
        let handle = |r: &Routing, dst, u| r.pick_route(n(0), n(dst), || u).unwrap();
        let (short, long) = (handle(&routing, 3, 0.25), handle(&routing, 3, 0.75));
        assert_eq!(
            (routing.route(short), routing.route(long)),
            (&*paths[0].links, &*paths[1].links)
        );
        let reversed = vec![paths[1].clone(), paths[0].clone()];
        routing.set_multipath(n(0), n(3), MultipathRoute::with_weights(reversed, &[1.0, 1.0]));
        routing.set_multipath(
            n(0),
            n(1),
            MultipathRoute::with_weights(paths[..1].to_vec(), &[1.0]),
        );
        assert_eq!((handle(&routing, 3, 0.25), handle(&routing, 3, 0.75)), (long, short));
        assert_eq!((handle(&routing, 1, 0.5), routing.route_count()), (short, 2));
    }

    #[test]
    #[should_panic(expected = "at least one path")]
    fn empty_weights_rejected() {
        let _ = epsilon_weights(&[], 1.0);
    }

    fn mixture(weights: &[f64]) -> MultipathRoute {
        MultipathRoute::with_weights(diamond().simple_paths(n(0), n(3), 8, 16), weights)
    }

    #[test]
    #[should_panic(expected = "weight 0 must be finite and non-negative, got inf")]
    fn infinite_weights_rejected() {
        mixture(&[f64::INFINITY, f64::INFINITY]);
    }

    #[test]
    #[should_panic(expected = "weight 1 must be finite and non-negative, got NaN")]
    fn nan_weight_rejected() {
        mixture(&[1.0, f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "weights must not all be zero")]
    fn all_zero_weights_rejected() {
        mixture(&[0.0, 0.0]);
    }
}
