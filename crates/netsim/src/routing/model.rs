//! The reference model for [`Routing::shortest_path`]: the per-source
//! Dijkstra that ran from every node until ISSUE 25, verbatim but for taking
//! the adjacency list it used to read from `self`. Compiled only for
//! `routing`'s unit tests and, by path, for
//! `crates/experiments/tests/routing_model.rs`, so everything it names comes
//! through `super`.

use std::collections::BinaryHeap;

use super::{Graph, LinkId, NodeId, Routing, SimDuration};

/// A directed edge `(from, to, link, delay)`, as [`Graph::new`] takes it.
pub type Edge = (NodeId, NodeId, LinkId, SimDuration);

/// `adj[u]` lists `(v, link, delay)` for each link `u → v`, in edge order,
/// exactly as [`Graph::new`] builds it.
pub fn adjacency(node_count: usize, edges: &[Edge]) -> Vec<Vec<(NodeId, LinkId, SimDuration)>> {
    let mut adj = vec![Vec::new(); node_count];
    for &(from, to, link, delay) in edges {
        adj[from.index()].push((to, link, delay));
    }
    adj
}

/// Single-source shortest paths (by propagation delay) from `src`.
/// Returns, for every destination, the first link of the shortest path,
/// or `None` if unreachable (or the destination is `src` itself).
pub fn shortest_first_links(
    adj: &[Vec<(NodeId, LinkId, SimDuration)>],
    src: NodeId,
) -> Vec<Option<LinkId>> {
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

    let n = adj.len();
    let mut dist = vec![SimDuration::MAX; n];
    let mut first_link: Vec<Option<LinkId>> = vec![None; n];
    let mut heap = BinaryHeap::new();
    dist[src.index()] = SimDuration::ZERO;
    heap.push(Entry(SimDuration::ZERO, src.index()));
    while let Some(Entry(d, u)) = heap.pop() {
        if d > dist[u] {
            continue;
        }
        for &(v, link, w) in &adj[u] {
            let nd = d + w;
            if nd < dist[v.index()] {
                dist[v.index()] = nd;
                first_link[v.index()] = if u == src.index() { Some(link) } else { first_link[u] };
                heap.push(Entry(nd, v.index()));
            }
        }
    }
    first_link[src.index()] = None;
    first_link
}

/// Every `next_hop(at, dst)` of `Routing::shortest_path` over the graph of
/// `edges` against the model: all n² pairs, plus ids one past the last node
/// on either side (which must be `None`). The error names the first pair
/// that differs.
pub fn compare(node_count: usize, edges: &[Edge]) -> Result<(), String> {
    let adj = adjacency(node_count, edges);
    let routing = Routing::shortest_path(&Graph::new(node_count, edges));
    let id = |i: usize| NodeId::from_raw(i as u32);
    let past = id(node_count);
    for at in (0..node_count).map(id) {
        let model = shortest_first_links(&adj, at);
        for (dst, &want) in model.iter().enumerate() {
            let got = routing.next_hop(at, id(dst));
            if got != want {
                return Err(format!("next_hop({at}, n{dst}) = {got:?}, model {want:?}"));
            }
        }
        for (a, b) in [(at, past), (past, at)] {
            if let Some(link) = routing.next_hop(a, b) {
                return Err(format!("next_hop({a}, {b}) = {link} for an out-of-range id"));
            }
        }
    }
    match routing.next_hop(past, past) {
        None => Ok(()),
        Some(link) => Err(format!("next_hop({past}, {past}) = {link} for an out-of-range id")),
    }
}
