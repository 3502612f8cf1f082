//! The three single-simulator workloads, each built from the same public
//! pieces its figure harness uses, but with set-up, run and read-out held
//! apart so each can be timed and the simulator's counters read back.

use std::time::Instant;

use baselines::sack::{SackConfig, SackSender};
use experiments::figures::fig6;
use experiments::runner::{flow_ids, staggered_start};
use experiments::scale::ScaleConfig;
use experiments::topologies::{dumbbell, multipath_mesh, DumbbellConfig, MeshConfig};
use experiments::variants::Variant;
use netsim::ids::FlowId;
use netsim::sim::{SimBuilder, SimStats, Simulator};
use netsim::time::SimTime;
use netsim::{derive_seed, AgentId, NodeId};
use tcp_pr::{TcpPrConfig, TcpPrSender};
use transport::host::{attach_flow, receiver_host, sender_host, FlowHandle, FlowOptions};
use transport::sender::TcpSenderAlgo;
use workload::{ChurnConfig, ChurnSink, ChurnSource, TopologyModel};

use crate::digest::Fnv1a;
use crate::metrics::variant_key;

/// Simulated seconds of one `mesh_reorder` simulation (13 per repetition),
/// and of each slice its run is timed in.
pub const MESH_SIM_S: (f64, f64) = (90.0, 30.0);
/// Simulated seconds of the `dumbbell_inorder` simulation and of a slice.
pub const DUMBBELL_SIM_S: (f64, f64) = (360.0, 10.0);
/// Simulated seconds of the `fabric_churn` simulation and of a slice.
pub const FABRIC_SIM_S: (f64, f64) = (60.0, 2.0);
/// Flows on the dumbbell: the Figure 2 n = 64 cell, half TCP-PR, half SACK.
pub const DUMBBELL_FLOWS: usize = 64;
/// The fat-tree arity of `fabric_churn`: 128 hosts, 64 churn pairs.
pub const FABRIC_MODEL: TopologyModel = TopologyModel::FatTree { k: 8 };
/// Target concurrent logical flows on the fabric.
pub const FABRIC_FLOWS: u32 = 10_000;

/// What one TCP flow did, read back from its two hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowRead {
    pub delivered_segments: u64,
    pub retransmits: u64,
    pub segments_sent: u64,
    pub late_arrivals: u64,
    /// First-time arrivals at the receiver, in any order.
    pub received: u64,
}

/// Everything read back from a finished simulation.
#[derive(Debug, Clone)]
pub struct SimRead {
    pub stats: SimStats,
    pub heap_peak: u64,
    pub flows: Vec<FlowRead>,
    /// Packets delivered to each non-TCP sink (the churn population).
    pub sink_packets: Vec<u64>,
    /// `netsim::oracle::check` over the final invariant snapshot.
    pub violations: Vec<String>,
}

impl SimRead {
    /// The outcome digest: every `SimStats` field but `events`, then per
    /// flow the segments delivered and retransmitted, then each sink's
    /// packets. `events`, heap peaks and run health stay out, so a change
    /// that removes events without changing what the network did leaves
    /// the digest alone.
    pub fn digest(&self) -> u64 {
        let s = &self.stats;
        let mut h = Fnv1a::new();
        for v in [
            s.queue_drops,
            s.random_losses,
            s.no_route_drops,
            s.delivered,
            s.injected,
            s.impair_drops,
            s.impair_dups,
            s.link_flaps,
            s.time_regressions,
        ] {
            h.write_u64(v);
        }
        for f in &self.flows {
            h.write_u64(f.delivered_segments);
            h.write_u64(f.retransmits);
        }
        for &p in &self.sink_packets {
            h.write_u64(p);
        }
        h.finish()
    }

    /// Why this simulation counts as failed, if it does (the pinned digest
    /// is the caller's to compare).
    pub fn failure(&self) -> Option<String> {
        if let Some(v) = self.violations.first() {
            return Some(v.clone());
        }
        if let Some(i) = self.flows.iter().position(|f| f.delivered_segments == 0) {
            return Some(format!("flow {i} delivered no segment"));
        }
        if let Some(i) = self.sink_packets.iter().position(|&p| p == 0) {
            return Some(format!("sink {i} received no packet"));
        }
        None
    }
}

type Reader = Box<dyn Fn(&Simulator) -> (Vec<FlowRead>, Vec<u64>)>;

/// A simulation set up and ready for its first `run_until`.
pub struct Built {
    pub sim: Simulator,
    /// Simulated seconds to run for.
    pub sim_s: f64,
    /// Simulated seconds per timed slice; divides `sim_s`.
    pub slice_s: f64,
    reader: Reader,
}

impl Built {
    fn new(sim: Simulator, (sim_s, slice_s): (f64, f64), reader: Reader) -> Self {
        Built { sim, sim_s, slice_s, reader }
    }

    /// The timed section: `run_until` slice by slice, each under its own
    /// `Instant` pair, with `between` called before every slice and after
    /// the last (where the caller reads its yardstick). Consecutive
    /// deadlines dispatch exactly the events one call to the last deadline
    /// would, so slicing changes no outcome. Returns the wall seconds of
    /// each slice.
    pub fn run(&mut self, mut between: impl FnMut()) -> Vec<f64> {
        let slices = (self.sim_s / self.slice_s).round() as u32;
        let walls = (1..=slices)
            .map(|i| {
                between();
                let deadline = SimTime::from_secs_f64(self.slice_s * f64::from(i));
                let t0 = Instant::now();
                self.sim.run_until(deadline);
                t0.elapsed().as_secs_f64()
            })
            .collect();
        between();
        walls
    }

    pub fn read(&self) -> SimRead {
        let (flows, sink_packets) = (self.reader)(&self.sim);
        SimRead {
            stats: self.sim.stats().clone(),
            heap_peak: self.sim.event_heap_peak() as u64,
            flows,
            sink_packets,
            violations: netsim::oracle::check(&self.sim.invariant_snapshot())
                .iter()
                .map(netsim::Violation::describe)
                .collect(),
        }
    }
}

fn read_flow<S: TcpSenderAlgo + 'static>(sim: &Simulator, h: FlowHandle) -> FlowRead {
    let tx = sender_host::<S>(sim, h.sender).stats();
    let rx = receiver_host(sim, h.receiver);
    let arrivals = rx.receiver_stats();
    FlowRead {
        delivered_segments: rx.delivered_segments(),
        retransmits: tx.retransmits,
        segments_sent: tx.segments_sent,
        late_arrivals: arrivals.late_arrivals,
        received: arrivals.segments_received - arrivals.duplicates,
    }
}

/// One Figure 6 cell at ε = 0: the Figure 5 mesh, ε-routed in both
/// directions, one window-capped flow of `variant`.
pub fn mesh_reorder(seed: u64, variant: Variant) -> Built {
    let mesh = multipath_mesh(seed, MeshConfig::default());
    let mut sim = mesh.sim;
    sim.install_multipath(mesh.src, mesh.dst, 0.0, mesh.max_path_hops);
    sim.install_multipath(mesh.dst, mesh.src, 0.0, mesh.max_path_hops);
    let h = attach_flow(
        &mut sim,
        FlowId::from_raw(0),
        mesh.src,
        mesh.dst,
        variant.build_with(TcpPrConfig::default(), fig6::WINDOW_CAP),
        FlowOptions::default(),
    );
    Built::new(
        sim,
        MESH_SIM_S,
        Box::new(move |sim| (vec![read_flow::<Box<dyn TcpSenderAlgo>>(sim, h)], Vec::new())),
    )
}

/// The Figure 2 n = 64 cell: flows alternate TCP-PR / TCP-SACK over the
/// default dumbbell with staggered starts, as `run_fairness` attaches them.
pub fn dumbbell_inorder(seed: u64) -> Built {
    let d = dumbbell(seed, DumbbellConfig::default());
    let mut sim = d.sim;
    let mut pr = Vec::new();
    let mut sack = Vec::new();
    for (i, flow) in flow_ids(0, DUMBBELL_FLOWS).into_iter().enumerate() {
        let opts = FlowOptions { start_at: staggered_start(i, seed), ..FlowOptions::default() };
        if i % 2 == 0 {
            let algo = TcpPrSender::new(TcpPrConfig::default());
            pr.push(attach_flow(&mut sim, flow, d.src, d.dst, algo, opts));
        } else {
            let algo = SackSender::new(SackConfig::default());
            sack.push(attach_flow(&mut sim, flow, d.src, d.dst, algo, opts));
        }
    }
    Built::new(
        sim,
        DUMBBELL_SIM_S,
        Box::new(move |sim| {
            let flows = pr
                .iter()
                .map(|&h| read_flow::<TcpPrSender>(sim, h))
                .chain(sack.iter().map(|&h| read_flow::<SackSender>(sim, h)))
                .collect();
            (flows, Vec::new())
        }),
    )
}

/// The fat-tree under flow churn, wired as `scale::run_scale` wires it: one
/// `ChurnSource`/`ChurnSink` per host pair `(i, i + H/2)` and a TCP-PR
/// foreground flow on pair 0's hosts.
pub fn fabric_churn(seed: u64) -> Built {
    let cfg = ScaleConfig::default();
    let topo = FABRIC_MODEL.generate(seed);
    let mut b = SimBuilder::new(seed);
    let m = topo.materialize(&mut b);
    let mut sim = b.build();

    let pairs = topo.hosts.len() / 2;
    let node = |host: usize| -> NodeId { m.nodes[topo.hosts[host]] };
    let base = FABRIC_FLOWS / pairs as u32;
    let extra = (FABRIC_FLOWS % pairs as u32) as usize;
    let mut sinks: Vec<AgentId> = Vec::with_capacity(pairs);
    for i in 0..pairs {
        let (src, dst) = (node(i), node(i + pairs));
        let flow = FlowId::from_raw(1000 + i as u32);
        let churn = ChurnConfig {
            dst,
            rate_bps: cfg.pair_rate_bps,
            packet_bytes: cfg.packet_bytes,
            initial_flows: base + u32::from(i < extra),
            arrival_rate_hz: cfg.arrival_rate_hz,
            sizes: cfg.sizes,
            seed: derive_seed(seed, 0x8000_0000 | i as u32),
        };
        sim.add_agent(src, flow, Box::new(ChurnSource::new(churn)));
        sinks.push(sim.add_agent(dst, flow, Box::new(ChurnSink::new())));
    }
    let h = attach_flow(
        &mut sim,
        FlowId::from_raw(0),
        node(0),
        node(pairs),
        Variant::TcpPr.build(),
        FlowOptions::default(),
    );
    Built::new(
        sim,
        FABRIC_SIM_S,
        Box::new(move |sim| {
            let sink_packets = sinks
                .iter()
                .map(|&id| {
                    sim.agent(id).as_any().downcast_ref::<ChurnSink>().expect("a ChurnSink").packets
                })
                .collect();
            (vec![read_flow::<Box<dyn TcpSenderAlgo>>(sim, h)], sink_packets)
        }),
    )
}

/// The simulations of one repetition of a simulator workload, by label.
pub type Case = (&'static str, Box<dyn Fn(u64) -> Built>);

pub fn mesh_cases() -> Vec<Case> {
    Variant::ALL
        .into_iter()
        .map(|v| -> Case { (variant_key(v), Box::new(move |seed| mesh_reorder(seed, v))) })
        .collect()
}

pub fn dumbbell_cases() -> Vec<Case> {
    vec![("n64", Box::new(dumbbell_inorder))]
}

pub fn fabric_cases() -> Vec<Case> {
    vec![("k8", Box::new(fabric_churn))]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short(mut built: Built, secs: f64) -> SimRead {
        (built.sim_s, built.slice_s) = (secs, secs);
        assert_eq!(built.run(|| ()).len(), 1);
        built.read()
    }

    #[test]
    fn digest_ignores_events_and_heap_peak_but_not_outcomes() {
        let read = short(mesh_reorder(7, Variant::TcpPr), 3.0);
        assert!(read.failure().is_none(), "{:?}", read.failure());
        let mut fewer_events = read.clone();
        fewer_events.stats.events -= 1;
        fewer_events.heap_peak += 5;
        assert_eq!(read.digest(), fewer_events.digest());
        let mut other = read.clone();
        other.flows[0].retransmits += 1;
        assert_ne!(read.digest(), other.digest());
        let mut other = read.clone();
        other.stats.delivered += 1;
        assert_ne!(read.digest(), other.digest());
    }

    #[test]
    fn the_same_seed_gives_the_same_outcome_and_another_seed_another() {
        let a = short(dumbbell_inorder(7), 4.0);
        let b = short(dumbbell_inorder(7), 4.0);
        let c = short(dumbbell_inorder(8), 4.0);
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest(), "the seed must reach the simulation");
        assert_eq!(a.flows.len(), DUMBBELL_FLOWS);
    }

    #[test]
    fn slicing_the_run_changes_no_outcome() {
        let whole = short(mesh_reorder(7, Variant::Sack), 4.0);
        let mut built = mesh_reorder(7, Variant::Sack);
        (built.sim_s, built.slice_s) = (4.0, 0.5);
        let mut calls = 0;
        assert_eq!(built.run(|| calls += 1).len(), 8);
        assert_eq!(calls, 9, "before every slice and after the last");
        let sliced = built.read();
        assert_eq!(whole.digest(), sliced.digest());
        assert_eq!(whole.stats.events, sliced.stats.events);
    }

    #[test]
    fn a_flow_that_delivers_nothing_fails_the_simulation() {
        let mut read = short(fabric_churn(7), 0.5);
        assert!(read.failure().is_none(), "{:?}", read.failure());
        assert_eq!(read.sink_packets.len(), 64);
        read.flows[0].delivered_segments = 0;
        assert!(read.failure().expect("fails").contains("flow 0"));
    }
}
