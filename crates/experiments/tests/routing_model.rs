//! `Routing::shortest_path` against the per-source Dijkstra it replaced
//! (`netsim`'s `routing/model.rs`, included by path) on every topology the
//! repository builds, and the Dijkstra runs each one takes (ISSUE 25).

use experiments::topologies::{
    dumbbell, multipath_mesh, parking_lot, DumbbellConfig, MeshConfig, ParkingLotConfig,
};
use netsim::sim::{SimBuilder, Simulator};
use netsim::LinkId;
use workload::TopologyModel;

// What `model.rs` names through `super`.
use netsim::routing::{Graph, Routing};
use netsim::time::SimDuration;
use netsim::NodeId;

#[path = "../../netsim/src/routing/model.rs"]
mod model;

/// The simulator's links as the edges its routing graph was built from.
fn edges(sim: &Simulator) -> Vec<model::Edge> {
    let edge = |id: LinkId| {
        let l = sim.link(id);
        (l.from, l.to, id, l.config.delay)
    };
    (0..sim.link_count() as u32).map(LinkId::from_raw).map(edge).collect()
}

fn generated(model: TopologyModel, seed: u64) -> Simulator {
    let mut b = SimBuilder::new(seed);
    model.generate(seed).materialize(&mut b);
    b.build()
}

#[test]
fn every_topology_routes_as_the_per_source_model_does() {
    let mut built = vec![
        ("dumbbell".to_owned(), dumbbell(1, DumbbellConfig::default()).sim),
        ("parking lot".to_owned(), parking_lot(1, ParkingLotConfig::default()).sim),
        ("figure 5 mesh".to_owned(), multipath_mesh(1, MeshConfig::default()).sim),
        ("disjoint mesh".to_owned(), multipath_mesh(1, MeshConfig::disjoint_chains(10)).sim),
    ];
    for seed in [1, 7, 11] {
        let models = [2, 4, 6, 8]
            .map(|k| TopologyModel::FatTree { k })
            .into_iter()
            .chain((1..=3).map(|m| TopologyModel::AsGraph { nodes: 60, edges_per_node: m }));
        for model in models {
            built.push((format!("{} seed {seed}", model.label()), generated(model, seed)));
        }
    }
    for (name, sim) in &built {
        assert_eq!(model::compare(sim.node_count(), &edges(sim)), Ok(()), "{name}");
    }
}

#[test]
fn routes_are_solved_for_transit_nodes_only() {
    // The only test in this binary that turns the profiler on or off.
    obs::enable();
    let runs = |sim: fn() -> Simulator| {
        let _ = obs::take();
        drop(sim());
        let counters = obs::take().counters;
        (counters["routing.solved"], counters["routing.nodes"])
    };
    fn fat_tree(k: u32) -> Simulator {
        generated(TopologyModel::FatTree { k }, 7)
    }
    let pinned = [
        ("fat-tree k = 8", runs(|| fat_tree(8)), (80, 208)),
        ("fat-tree k = 4", runs(|| fat_tree(4)), (20, 36)),
        ("dumbbell", runs(|| dumbbell(1, DumbbellConfig::default()).sim), (2, 4)),
        ("parking lot", runs(|| parking_lot(1, ParkingLotConfig::default()).sim), (4, 12)),
        ("figure 5 mesh", runs(|| multipath_mesh(1, MeshConfig::default()).sim), (7, 7)),
    ];
    obs::disable();
    for (name, got, want) in pinned {
        assert_eq!(got, want, "{name}: (Dijkstra runs, nodes)");
    }
}
