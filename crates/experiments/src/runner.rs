//! Shared measurement machinery: warm-up, measurement windows and per-flow
//! throughput extraction, following the paper's protocol ("throughput is the
//! total data sent during the last 60 seconds of the simulation").

use netsim::ids::FlowId;
use netsim::sim::Simulator;
use netsim::telemetry::Sampler;
use netsim::time::{SimDuration, SimTime};
use transport::host::{receiver_host, FlowHandle};

/// Warm-up and measurement horizon.
#[derive(Debug, Clone, Copy)]
pub struct MeasurePlan {
    /// Time to run before measurement starts (lets flows reach steady
    /// state).
    pub warmup: SimDuration,
    /// Length of the measurement window.
    pub window: SimDuration,
}

impl Default for MeasurePlan {
    fn default() -> Self {
        MeasurePlan { warmup: SimDuration::from_secs(60), window: SimDuration::from_secs(60) }
    }
}

impl MeasurePlan {
    /// A shortened plan for quick tests and `repro --quick`.
    pub fn quick() -> Self {
        MeasurePlan { warmup: SimDuration::from_secs(10), window: SimDuration::from_secs(15) }
    }

    /// The shortest plan: adversarial hunt cells, where the search evaluates
    /// hundreds of candidates and each must stay cheap. Long enough for a
    /// flow to leave slow start and feel a mid-run outage, no longer.
    pub fn smoke() -> Self {
        MeasurePlan { warmup: SimDuration::from_secs(1), window: SimDuration::from_secs(3) }
    }

    /// Total simulated time.
    pub fn total(&self) -> SimDuration {
        self.warmup + self.window
    }
}

/// Runs the simulation through the plan and returns, per flow handle, the
/// bytes delivered in order during the measurement window.
pub fn measure_window(sim: &mut Simulator, handles: &[FlowHandle], plan: MeasurePlan) -> Vec<u64> {
    measure_window_with(sim, handles, plan, None)
}

/// [`measure_window`] with an optional telemetry [`Sampler`] driving the
/// clock: the sampler probes the simulation on its grid through warm-up
/// *and* the measurement window, so time series cover the whole run.
pub fn measure_window_with(
    sim: &mut Simulator,
    handles: &[FlowHandle],
    plan: MeasurePlan,
    sampler: Option<&mut Sampler>,
) -> Vec<u64> {
    let received = |sim: &Simulator| {
        handles.iter().map(|h| receiver_host(sim, h.receiver).received_unique_bytes()).collect()
    };
    measure_counters(sim, plan, sampler, received)
}

/// The protocol under [`measure_window_with`], for any monotone counters:
/// runs the simulation through the plan and returns how far each counter
/// `read` reports moved during the measurement window.
pub fn measure_counters(
    sim: &mut Simulator,
    plan: MeasurePlan,
    sampler: Option<&mut Sampler>,
    read: impl Fn(&Simulator) -> Vec<u64>,
) -> Vec<u64> {
    let mut sampler = sampler;
    let mut advance = |sim: &mut Simulator, until: SimTime| match sampler.as_deref_mut() {
        Some(s) => s.advance(sim, until),
        None => sim.run_until(until),
    };
    advance(sim, SimTime::ZERO + plan.warmup);
    let before = read(sim);
    advance(sim, SimTime::ZERO + plan.total());
    read(sim).iter().zip(before).map(|(after, before)| after - before).collect()
}

/// Allocates consecutive flow ids starting at `base`.
pub fn flow_ids(base: u32, n: usize) -> Vec<FlowId> {
    (0..n as u32).map(|i| FlowId::from_raw(base + i)).collect()
}

/// A deterministic start-time stagger for flow `i` (avoids lock-step
/// synchronization artifacts among simultaneous flows). The `seed` shifts
/// the whole pattern so that different seeds genuinely produce different
/// runs (the paper's "ten simulations" scatter).
pub fn staggered_start(i: usize, seed: u64) -> SimTime {
    // Two co-prime strides, wrapped at 2 s.
    let ms = (i as u64 * 37 + seed.wrapping_mul(131)) % 2000;
    SimTime::ZERO + SimDuration::from_millis(ms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topologies::{dumbbell, DumbbellConfig};
    use tcp_pr::{TcpPrConfig, TcpPrSender};
    use transport::host::{attach_flow, FlowOptions};

    #[test]
    fn plan_total_adds_up() {
        let p = MeasurePlan::default();
        assert_eq!(p.total(), SimDuration::from_secs(120));
    }

    #[test]
    fn measure_window_reports_window_bytes_only() {
        let mut d = dumbbell(5, DumbbellConfig::default());
        let h = attach_flow(
            &mut d.sim,
            FlowId::from_raw(0),
            d.src,
            d.dst,
            TcpPrSender::new(TcpPrConfig::default()),
            FlowOptions::default(),
        );
        let plan =
            MeasurePlan { warmup: SimDuration::from_secs(5), window: SimDuration::from_secs(10) };
        let bytes = measure_window(&mut d.sim, &[h], plan);
        assert_eq!(bytes.len(), 1);
        // 30 Mbps bottleneck for 10 s = at most 37.5 MB; a healthy flow
        // should fill most of it, and certainly not exceed it.
        assert!(bytes[0] > 20_000_000, "got {}", bytes[0]);
        assert!(bytes[0] <= 37_500_000, "got {}", bytes[0]);
    }

    #[test]
    fn measure_window_with_sampler_covers_the_whole_run() {
        let mut d = dumbbell(5, DumbbellConfig::default());
        let h = attach_flow(
            &mut d.sim,
            FlowId::from_raw(0),
            d.src,
            d.dst,
            TcpPrSender::new(TcpPrConfig::default()),
            FlowOptions::default(),
        );
        let plan =
            MeasurePlan { warmup: SimDuration::from_secs(2), window: SimDuration::from_secs(3) };
        let mut sampler = Sampler::new(SimDuration::from_millis(500));
        sampler.add_probe("cwnd", transport::telemetry::cwnd_probe::<TcpPrSender>(h.sender));
        let bytes = measure_window_with(&mut d.sim, &[h], plan, Some(&mut sampler));
        assert!(bytes[0] > 0);
        let cwnd = &sampler.series()[0];
        // 5 s at a 0.5 s period, sampled from t = 0 inclusive: 11 points.
        assert_eq!(cwnd.points.len(), 11);
        assert_eq!(cwnd.points.last().unwrap().0, SimTime::from_secs_f64(5.0));
        assert!(cwnd.max().unwrap() > 1.0, "cwnd must have grown past slow-start");
    }

    #[test]
    fn staggered_starts_are_distinct_and_bounded() {
        let starts: Vec<_> = (0..32).map(|i| staggered_start(i, 1)).collect();
        for w in starts.windows(2) {
            assert_ne!(w[0], w[1]);
        }
        assert!(starts.iter().all(|s| *s < SimTime::from_secs_f64(2.0)));
        // Different seeds shift the pattern.
        assert_ne!(staggered_start(0, 1), staggered_start(0, 2));
    }

    #[test]
    fn flow_ids_are_consecutive() {
        let ids = flow_ids(10, 3);
        assert_eq!(ids.len(), 3);
        assert_eq!(ids[0].index(), 10);
        assert_eq!(ids[2].index(), 12);
    }
}
