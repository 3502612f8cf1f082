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
//! there (DESIGN.md §2 "The round trip takes no detour").

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

    /// Single-source shortest paths (by propagation delay) from `src`.
    /// Returns, for every destination, the first link of the shortest path,
    /// or `None` if unreachable (or the destination is `src` itself).
    pub fn shortest_first_links(&self, src: NodeId) -> Vec<Option<LinkId>> {
        #[derive(PartialEq, Eq)]
        struct Entry(SimDuration, usize);
        impl Ord for Entry {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                (other.0, other.1).cmp(&(self.0, self.1))
            }
        }
        impl PartialOrd for Entry {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }

        let n = self.node_count;
        let mut dist = vec![SimDuration::MAX; n];
        let mut first_link: Vec<Option<LinkId>> = vec![None; n];
        let mut heap = BinaryHeap::new();
        dist[src.index()] = SimDuration::ZERO;
        heap.push(Entry(SimDuration::ZERO, src.index()));
        while let Some(Entry(d, u)) = heap.pop() {
            if d > dist[u] {
                continue;
            }
            for &(v, link, w) in &self.adj[u] {
                let nd = d + w;
                if nd < dist[v.index()] {
                    dist[v.index()] = nd;
                    first_link[v.index()] =
                        if u == src.index() { Some(link) } else { first_link[u] };
                    heap.push(Entry(nd, v.index()));
                }
            }
        }
        first_link[src.index()] = None;
        first_link
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
    /// Panics if `paths` is empty, lengths differ, or all weights are zero.
    pub fn with_weights(paths: Vec<Path>, weights: &[f64]) -> Self {
        assert!(!paths.is_empty(), "at least one path required");
        assert_eq!(paths.len(), weights.len(), "one weight per path required");
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must not all be zero");
        let mut cdf = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for w in weights {
            assert!(*w >= 0.0, "weights must be non-negative");
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
    /// `next_hop[src][dst]` = first link of the shortest path.
    next_hop: Vec<Vec<Option<LinkId>>>,
    /// Per source node, the mixtures overriding next-hop routing: a handful
    /// of destinations at most, scanned linearly.
    multipath: Vec<Vec<Installed>>,
    /// Every distinct path a mixture ever offered, indexed by [`RouteId`];
    /// append-only, so a packet in flight keeps the path it was pinned to.
    routes: Vec<Arc<[LinkId]>>,
}

impl Routing {
    /// Computes all-pairs shortest-path next hops for `graph`.
    pub fn shortest_path(graph: &Graph) -> Self {
        let next_hop = (0..graph.node_count())
            .map(|s| graph.shortest_first_links(NodeId::from_raw(s as u32)))
            .collect();
        Routing { next_hop, multipath: Vec::new(), routes: Vec::new() }
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

    /// Shortest-path next hop from `at` towards `dst`.
    pub fn next_hop(&self, at: NodeId, dst: NodeId) -> Option<LinkId> {
        self.next_hop.get(at.index()).and_then(|row| row.get(dst.index()).copied().flatten())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> SimDuration {
        SimDuration::from_millis(x)
    }

    fn n(i: u32) -> NodeId {
        NodeId::from_raw(i)
    }

    fn l(i: u32) -> LinkId {
        LinkId::from_raw(i)
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
        let g = diamond();
        let first = g.shortest_first_links(n(0));
        assert_eq!(first[3], Some(l(0)), "should route via node 1");
        assert_eq!(first[1], Some(l(0)));
        assert_eq!(first[2], Some(l(2)));
        assert_eq!(first[0], None);
    }

    #[test]
    fn dijkstra_unreachable_is_none() {
        let g = Graph::new(3, &[(n(0), n(1), l(0), ms(1))]);
        let first = g.shortest_first_links(n(0));
        assert_eq!(first[2], None);
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
}
