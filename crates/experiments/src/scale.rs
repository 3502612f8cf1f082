//! Internet-scale population harness: a generated topology carrying a
//! churning heavy-tailed flow population plus one foreground sender.
//!
//! The paper's scenarios run a handful of flows; this harness runs the
//! `crates/workload` machinery at population scale — a fat-tree or AS-like
//! generated topology, one [`workload::ChurnSource`]/[`workload::ChurnSink`]
//! pair per host pair multiplexing thousands of logical flows, and a single
//! foreground sender of the variant under test threading through the loaded
//! fabric. Population metrics (Jain's index and CoV over per-flow goodput,
//! p99 flow-completion time) fold into streaming accumulators, merged in
//! pair-index order so results are bit-identical at any worker count; the
//! flat-per-flow-memory claim is surfaced as a measured bytes-per-flow
//! figure and reported to the telemetry session for `run_health`.

use netsim::event::EventQueue;
use netsim::ids::FlowId;
use netsim::sim::SimBuilder;
use netsim::telemetry::session;
use netsim::time::SimTime;
use netsim::{derive_seed, NodeId};
use transport::host::{attach_flow, receiver_host, FlowOptions};
use workload::{ChurnConfig, ChurnSink, ChurnSource, ChurnStats, SizeDist, TopologyModel};

use crate::metrics::mbps;
use crate::runner::MeasurePlan;
use crate::variants::Variant;

/// Parameters of the population load, independent of topology shape.
#[derive(Debug, Clone, Copy)]
pub struct ScaleConfig {
    /// Aggregate pacing rate per churn pair, bits per second.
    pub pair_rate_bps: f64,
    /// Churn packet size, bytes.
    pub packet_bytes: u32,
    /// Poisson flow-arrival intensity per pair, per second.
    pub arrival_rate_hz: f64,
    /// Flow-size distribution (packets per flow).
    pub sizes: SizeDist,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        // Half the 20 Mbit/s fat-tree host uplink per pair, so the
        // population loads the fabric without starving the foreground flow;
        // the classic mice-and-elephants size mix (α between 1 and 2).
        ScaleConfig {
            pair_rate_bps: 10e6,
            packet_bytes: 1000,
            arrival_rate_hz: 50.0,
            sizes: SizeDist::BoundedPareto { alpha: 1.3, min: 2, max: 1000 },
        }
    }
}

/// Outcome of one scale cell.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ScaleResult {
    /// Protocol of the foreground flow.
    pub variant: Variant,
    /// Generated-topology label (`fat-tree-k4`, `as-40x2`, …).
    pub topology: String,
    /// Requested concurrent logical flows.
    pub target_flows: u64,
    /// Peak concurrent logical flows actually reached (sum of per-pair
    /// peaks).
    pub peak_flows: u64,
    /// Logical flows that arrived (initial population + Poisson arrivals).
    pub arrivals: u64,
    /// Logical flows that ran to completion.
    pub completions: u64,
    /// Jain's fairness index over per-flow goodput of completed flows.
    pub jain: f64,
    /// Coefficient of variation of per-flow goodput.
    pub goodput_cov: f64,
    /// p99 flow-completion time, milliseconds (exact-integer upper bound
    /// from the log histogram).
    pub p99_fct_ms: f64,
    /// Mean flow-completion time, milliseconds.
    pub mean_fct_ms: f64,
    /// Foreground-flow goodput over the measurement window, Mbps.
    pub foreground_mbps: f64,
    /// Aggregate churn bytes delivered over the window, Mbps.
    pub delivered_mbps: f64,
    /// Measured bytes of per-flow state (churn slabs plus the event heap's
    /// peak share) per peak concurrent flow — the flat-memory metric.
    pub bytes_per_flow: u64,
}

/// Runs one variant as the foreground flow through a generated topology
/// loaded with `target_flows` churning logical flows.
///
/// Deterministic in `(variant, model, target_flows, cfg, plan, seed)`: the
/// topology expands from `(model, seed)`, each pair's churn stream is keyed
/// by [`derive_seed`] over its pair index, and per-pair statistics merge in
/// pair-index order.
///
/// # Panics
///
/// Panics if the generated topology has fewer than two hosts.
pub fn run_scale(
    variant: Variant,
    model: TopologyModel,
    target_flows: u32,
    cfg: ScaleConfig,
    plan: MeasurePlan,
    seed: u64,
) -> ScaleResult {
    let topo = model.generate(seed);
    let hosts = &topo.hosts;
    assert!(hosts.len() >= 2, "generated topology must expose at least two hosts");
    let pairs = hosts.len() / 2;

    let mut b = SimBuilder::new(seed);
    let m = topo.materialize(&mut b);
    let mut sim = b.build();

    // One churn pair per (hosts[i], hosts[i + H/2]); pair 0's endpoints
    // also carry the foreground flow, so the variant under test competes
    // with the population on its own access links, not just in the core.
    let node = |host_index: usize| -> NodeId { m.nodes[hosts[host_index]] };
    let base = target_flows / pairs as u32;
    let extra = (target_flows % pairs as u32) as usize;
    let mut source_ids = Vec::with_capacity(pairs);
    let mut sink_ids = Vec::with_capacity(pairs);
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
            // High-bit namespace keeps pair streams disjoint from the
            // topology generator's per-link streams.
            seed: derive_seed(seed, 0x8000_0000 | i as u32),
        };
        source_ids.push(sim.add_agent(src, flow, Box::new(ChurnSource::new(churn))));
        sink_ids.push(sim.add_agent(dst, flow, Box::new(ChurnSink::new())));
    }

    let h = attach_flow(
        &mut sim,
        FlowId::from_raw(0),
        node(0),
        node(pairs),
        variant.build(),
        FlowOptions::default(),
    );

    sim.run_until(SimTime::ZERO + plan.warmup);
    let fg_before = receiver_host(&sim, h.receiver).received_unique_bytes();
    let churn_before: u64 = sink_ids
        .iter()
        .map(|&id| sim.agent(id).as_any().downcast_ref::<ChurnSink>().expect("sink").bytes)
        .sum();
    sim.run_until(SimTime::ZERO + plan.total());
    let fg_delivered = receiver_host(&sim, h.receiver).received_unique_bytes() - fg_before;
    let churn_delivered: u64 = sink_ids
        .iter()
        .map(|&id| sim.agent(id).as_any().downcast_ref::<ChurnSink>().expect("sink").bytes)
        .sum::<u64>()
        - churn_before;

    // Merge per-pair accumulators in pair-index order (fixed order keeps
    // the floating-point sums bit-reproducible).
    let mut merged = ChurnStats::default();
    let mut state_bytes = 0u64;
    for &id in &source_ids {
        let src = sim.agent(id).as_any().downcast_ref::<ChurnSource>().expect("source");
        merged.merge(src.stats());
        state_bytes += src.state_bytes();
    }
    let peak_flows = merged.peak_active.max(1);
    // An upper bound: an arrival riding its link's lane holds 24 B (a heap
    // key or a lane entry) and no payload slot, not the full record.
    let heap_bytes = (sim.event_heap_peak() * EventQueue::record_bytes()) as u64;
    // A pending `Arrive` is a handle; the packet it names is an arena slot.
    let packet_bytes = (sim.packet_peak() * std::mem::size_of::<netsim::Packet>()) as u64;
    let bytes_per_flow = (state_bytes + heap_bytes + packet_bytes) / peak_flows;
    session::add_workload(merged.peak_active, bytes_per_flow);

    let window_s = plan.window.as_secs_f64();
    ScaleResult {
        variant,
        topology: model.label(),
        target_flows: u64::from(target_flows),
        peak_flows: merged.peak_active,
        arrivals: merged.arrivals,
        completions: merged.completions,
        jain: merged.goodput_bps.jain().unwrap_or(0.0),
        goodput_cov: merged.goodput_bps.cov().unwrap_or(0.0),
        p99_fct_ms: merged.fct_us.quantile_upper_bound(0.99).unwrap_or(0) as f64 / 1000.0,
        mean_fct_ms: merged.fct_us.mean() / 1000.0,
        foreground_mbps: mbps(fg_delivered, window_s),
        delivered_mbps: mbps(churn_delivered, window_s),
        bytes_per_flow,
    }
}

/// Text table over scale results, one row per (variant, topology, flows).
pub fn format_table(results: &[ScaleResult]) -> String {
    let mut s = String::from("Scale suite: generated topologies under heavy-tailed flow churn\n");
    s.push_str(
        "protocol     | topology      | flows  | peak   | Jain  | CoV   | p99 FCT  | fg Mbps | B/flow\n",
    );
    for r in results {
        s.push_str(&format!(
            "{:12} | {:13} | {:6} | {:6} | {:5.3} | {:5.3} | {:7.1}ms | {:7.3} | {}\n",
            r.variant.label(),
            r.topology,
            r.target_flows,
            r.peak_flows,
            r.jain,
            r.goodput_cov,
            r.p99_fct_ms,
            r.foreground_mbps,
            r.bytes_per_flow,
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(variant: Variant, model: TopologyModel, flows: u32, seed: u64) -> ScaleResult {
        run_scale(variant, model, flows, ScaleConfig::default(), MeasurePlan::smoke(), seed)
    }

    #[test]
    fn population_reaches_the_target_and_completes_flows() {
        let r = smoke(Variant::TcpPr, TopologyModel::FatTree { k: 4 }, 120, 11);
        assert_eq!(r.target_flows, 120);
        assert!(r.peak_flows >= 120, "initial population counts: {}", r.peak_flows);
        assert!(r.completions > 0, "mice must finish inside the smoke window");
        assert!(r.arrivals > 120, "Poisson arrivals on top of the initial population");
        assert!(r.jain > 0.0 && r.jain <= 1.0, "jain {}", r.jain);
        assert!(r.p99_fct_ms > 0.0);
        assert!(r.delivered_mbps > 0.0, "the population must move bytes");
    }

    #[test]
    fn per_flow_memory_is_flat_as_the_population_grows() {
        let small = smoke(Variant::TcpPr, TopologyModel::FatTree { k: 4 }, 120, 11);
        let large = smoke(Variant::TcpPr, TopologyModel::FatTree { k: 4 }, 1200, 11);
        assert!(large.peak_flows >= 10 * small.peak_flows / 2, "{}", large.peak_flows);
        // Flat per-flow state: growing the population 10× must not grow
        // bytes-per-flow (fixed slab entries amortize better, event heap is
        // population-independent).
        assert!(
            large.bytes_per_flow <= small.bytes_per_flow * 2,
            "per-flow memory must stay flat: {} vs {}",
            large.bytes_per_flow,
            small.bytes_per_flow
        );
        assert!(large.bytes_per_flow < 1024, "flat-memory bound: {}", large.bytes_per_flow);
    }

    #[test]
    fn runs_are_deterministic_per_seed_and_move_with_it() {
        let model = TopologyModel::AsGraph { nodes: 24, edges_per_node: 2 };
        let a = smoke(Variant::Sack, model, 100, 5);
        let b = smoke(Variant::Sack, model, 100, 5);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let c = smoke(Variant::Sack, model, 100, 6);
        assert_ne!(format!("{a:?}"), format!("{c:?}"), "seed must matter");
    }

    #[test]
    fn foreground_flow_makes_progress_through_the_loaded_fabric() {
        let r = smoke(Variant::TcpPr, TopologyModel::FatTree { k: 4 }, 120, 3);
        assert!(r.foreground_mbps > 0.1, "foreground goodput {}", r.foreground_mbps);
    }
}
