//! The load of the Internet-scale population cells.
//!
//! The paper's scenarios run a handful of flows; a
//! [`ScenarioKind::Scale`](crate::sweep::ScenarioKind) cell runs the
//! `crates/workload` machinery at population scale — a fat-tree or AS-like
//! generated topology, one [`workload::ChurnSource`]/[`workload::ChurnSink`]
//! pair per host pair multiplexing thousands of logical flows, and a single
//! foreground sender of the variant under test threading through the loaded
//! fabric. It runs through [`crate::cell`] like every other kind (its
//! `Topology::Generated` and `CrossTraffic::Churn`): population metrics
//! (Jain's index and CoV over per-flow goodput, p99 flow-completion time)
//! fold into streaming accumulators, merged in pair-index order so results
//! are bit-identical at any worker count, and the flat-per-flow-memory
//! claim is surfaced as a measured bytes-per-flow figure. This module keeps
//! what a pair carries.

use workload::SizeDist;

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

#[cfg(test)]
mod tests {
    use workload::TopologyModel;

    use crate::cell::{run_kind, CellReport, Metric};
    use crate::runner::MeasurePlan;
    use crate::sweep::ScenarioKind;
    use crate::variants::Variant;

    fn smoke(variant: Variant, model: TopologyModel, target_flows: u32, seed: u64) -> CellReport {
        let kind = ScenarioKind::Scale { variant, model, target_flows, replicate: 0 };
        run_kind(&kind, &[], &[], MeasurePlan::smoke(), seed)
    }

    #[test]
    fn population_reaches_the_target_and_completes_flows() {
        let r = smoke(Variant::TcpPr, TopologyModel::FatTree { k: 4 }, 120, 11);
        assert_eq!(r.num(Metric::TargetFlows), 120.0);
        let peak = r.num(Metric::PeakFlows);
        assert!(peak >= 120.0, "initial population counts: {peak}");
        assert!(r.num(Metric::Completions) > 0.0, "mice must finish inside the smoke window");
        let arrivals = r.num(Metric::Arrivals);
        assert!(arrivals > 120.0, "Poisson arrivals on top of the initial population");
        let jain = r.num(Metric::Jain);
        assert!(jain > 0.0 && jain <= 1.0, "jain {jain}");
        assert!(r.num(Metric::P99FctMs) > 0.0);
        assert!(r.num(Metric::DeliveredMbps) > 0.0, "the population must move bytes");
    }

    #[test]
    fn per_flow_memory_is_flat_as_the_population_grows() {
        let small = smoke(Variant::TcpPr, TopologyModel::FatTree { k: 4 }, 120, 11);
        let large = smoke(Variant::TcpPr, TopologyModel::FatTree { k: 4 }, 1200, 11);
        let (small_peak, large_peak) = (small.num(Metric::PeakFlows), large.num(Metric::PeakFlows));
        assert!(large_peak >= 10.0 * small_peak / 2.0, "{large_peak}");
        // Flat per-flow state: growing the population 10× must not grow
        // bytes-per-flow (fixed slab entries amortize better, event heap is
        // population-independent).
        let (small_b, large_b) = (small.num(Metric::BytesPerFlow), large.num(Metric::BytesPerFlow));
        assert!(large_b <= small_b * 2.0, "per-flow memory must stay flat: {large_b} vs {small_b}");
        assert!(large_b < 1024.0, "flat-memory bound: {large_b}");
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
        let mbps = r.num(Metric::ForegroundMbps);
        assert!(mbps > 0.1, "foreground goodput {mbps}");
    }
}
