//! Substrate validation against known TCP theory.
//!
//! Before trusting the reproduction's comparative results, the simulator
//! and baseline senders are cross-checked against closed-form TCP models:
//!
//! - the **Mathis square-root law**: a loss-rate-`p` path gives an AIMD
//!   flow `throughput ≈ (MSS/RTT) · sqrt(3/2) / sqrt(p)`;
//! - **bandwidth-delay-product ceiling**: a window-capped flow delivers
//!   `min(capacity, cwnd_max/RTT)`;
//! - **AIMD convergence**: two identical flows sharing one bottleneck
//!   converge to equal shares (Chiu–Jain, the paper's reference \[7\]).
//!
//! These run as ordinary tests. The runners serve this module's tests: no
//! `repro` command or artifact calls them.

use netsim::ids::FlowId;
use netsim::link::LinkConfig;
use netsim::sim::SimBuilder;
use netsim::time::SimDuration;
use transport::host::{attach_flow, FlowOptions};

use crate::metrics::mbps;
use crate::runner::{measure_window, MeasurePlan};
use crate::variants::Variant;

/// Result of a Mathis-law validation point.
#[derive(Debug, Clone, serde::Serialize)]
pub struct MathisPoint {
    /// Configured random loss probability.
    pub loss: f64,
    /// Measured goodput, Mbps.
    pub measured_mbps: f64,
    /// Mathis-model prediction, Mbps.
    pub predicted_mbps: f64,
}

/// Runs one SACK flow over a path with independent random loss `p` and a
/// fixed base RTT, and compares its goodput to the Mathis model.
pub fn mathis_point(p: f64, seed: u64) -> MathisPoint {
    let rtt_s = 0.100; // 2 × (25 ms + 25 ms) propagation
    let mut b = SimBuilder::new(seed);
    let src = b.add_node();
    let dst = b.add_node();
    // Fat link so queueing is negligible and loss is purely random.
    b.add_link(src, dst, LinkConfig::mbps_ms(1000.0, 50, 20_000).with_random_loss(p));
    b.add_link(dst, src, LinkConfig::mbps_ms(1000.0, 50, 20_000));
    let mut sim = b.build();
    let h = attach_flow(
        &mut sim,
        FlowId::from_raw(0),
        src,
        dst,
        Variant::Sack.build(),
        FlowOptions::default(),
    );
    let window = SimDuration::from_secs(60);
    let plan = MeasurePlan { warmup: SimDuration::from_secs(20), window };
    let delivered = measure_window(&mut sim, &[h], plan)[0];

    let mss_bits = 8_000.0;
    let predicted = mss_bits / rtt_s * (1.5f64 / p).sqrt() / 1e6;
    MathisPoint {
        loss: p,
        measured_mbps: mbps(delivered, window.as_secs_f64()),
        predicted_mbps: predicted,
    }
}

/// Measured vs predicted goodput for a window-capped flow on a long path.
#[derive(Debug, Clone, serde::Serialize)]
pub struct WindowCeilingPoint {
    /// Window cap in segments.
    pub cwnd_cap: f64,
    /// Measured goodput, Mbps.
    pub measured_mbps: f64,
    /// `cap·MSS/RTT` prediction, Mbps.
    pub predicted_mbps: f64,
}

/// Runs one TCP-PR flow with a hard window cap over an uncongested path.
pub fn window_ceiling_point(cap: f64, seed: u64) -> WindowCeilingPoint {
    let mut b = SimBuilder::new(seed);
    let src = b.add_node();
    let dst = b.add_node();
    b.add_duplex(src, dst, LinkConfig::mbps_ms(100.0, 50, 1000));
    let mut sim = b.build();
    let pr = tcp_pr::TcpPrConfig { max_cwnd: cap, ..tcp_pr::TcpPrConfig::default() };
    let h = attach_flow(
        &mut sim,
        FlowId::from_raw(0),
        src,
        dst,
        tcp_pr::TcpPrSender::new(pr),
        FlowOptions::default(),
    );
    let window = SimDuration::from_secs(20);
    let plan = MeasurePlan { warmup: SimDuration::from_secs(5), window };
    let delivered = measure_window(&mut sim, &[h], plan)[0];
    // RTT = 2 × 50 ms propagation + serialization (negligible at 100 Mbps).
    let rtt_s = 0.1008;
    WindowCeilingPoint {
        cwnd_cap: cap,
        measured_mbps: mbps(delivered, window.as_secs_f64()),
        predicted_mbps: cap * 8_000.0 / rtt_s / 1e6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::time::SimTime;

    #[test]
    fn mathis_law_within_factor_two() {
        // The Mathis model is an approximation; agreement within 2× across
        // an order of magnitude of loss validates the AIMD/loss machinery.
        for (p, seed) in [(0.001, 1u64), (0.01, 2)] {
            let pt = mathis_point(p, seed);
            let ratio = pt.measured_mbps / pt.predicted_mbps;
            assert!(
                (0.5..2.0).contains(&ratio),
                "p={p}: measured {:.2} vs predicted {:.2} (ratio {ratio:.2})",
                pt.measured_mbps,
                pt.predicted_mbps
            );
        }
    }

    #[test]
    fn mathis_scaling_with_loss() {
        // 10× the loss ⇒ ≈ sqrt(10) ≈ 3.2× less throughput.
        let lo = mathis_point(0.001, 3);
        let hi = mathis_point(0.01, 3);
        let ratio = lo.measured_mbps / hi.measured_mbps;
        assert!((2.0..5.5).contains(&ratio), "sqrt scaling violated: {ratio:.2}");
    }

    #[test]
    fn window_cap_ceiling_is_tight() {
        for cap in [25.0, 50.0] {
            let pt = window_ceiling_point(cap, 4);
            let ratio = pt.measured_mbps / pt.predicted_mbps;
            assert!(
                (0.85..1.1).contains(&ratio),
                "cap {cap}: measured {:.2} vs predicted {:.2}",
                pt.measured_mbps,
                pt.predicted_mbps
            );
        }
    }

    #[test]
    fn chiu_jain_convergence_two_flows() {
        // Two identical SACK flows, one starting 10 s late, converge to
        // roughly equal shares (AIMD fairness).
        let mut b = SimBuilder::new(9);
        let src = b.add_node();
        let r1 = b.add_node();
        let r2 = b.add_node();
        let dst = b.add_node();
        b.add_duplex(src, r1, LinkConfig::mbps_ms(100.0, 5, 300));
        b.add_duplex(r1, r2, LinkConfig::mbps_ms(10.0, 20, 100));
        b.add_duplex(r2, dst, LinkConfig::mbps_ms(100.0, 5, 300));
        let mut sim = b.build();
        let h1 = attach_flow(
            &mut sim,
            FlowId::from_raw(0),
            src,
            dst,
            Variant::Sack.build(),
            FlowOptions::default(),
        );
        let h2 = attach_flow(
            &mut sim,
            FlowId::from_raw(1),
            src,
            dst,
            Variant::Sack.build(),
            FlowOptions { start_at: SimTime::from_secs_f64(10.0), ..Default::default() },
        );
        // Measure long after both are active.
        let minute = SimDuration::from_secs(60);
        let x = measure_window(&mut sim, &[h1, h2], MeasurePlan { warmup: minute, window: minute });
        let share = x[0] as f64 / (x[0] + x[1]) as f64;
        assert!(
            (0.35..0.65).contains(&share),
            "late-starting flow must converge to an equal share: {share:.3}"
        );
    }
}
