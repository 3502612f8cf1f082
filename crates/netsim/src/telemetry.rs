//! Run-wide observability: periodic sampling and run-health accounting.
//!
//! Two complementary tools live here:
//!
//! - [`Sampler`] — a sim-time probe driver. Register named probes (arbitrary
//!   closures over the [`Simulator`], or the built-in link helpers), then
//!   drive the simulation through [`Sampler::advance`]; each probe is
//!   evaluated every `period` of *simulated* time and accumulates a
//!   [`TimeSeries`].
//! - The [`session`] accumulator — cheap "did this run behave?" metadata
//!   (events processed, peak event-heap size, dropped trace records)
//!   aggregated across every [`Simulator`] dropped since the last
//!   [`session::reset`], so a multi-simulation experiment gets one health
//!   block without threading counters through every layer.

use std::cell::RefCell;
use std::fmt;

use crate::ids::LinkId;
use crate::sim::Simulator;
use crate::time::{SimDuration, SimTime};

/// A named series of `(sim time, value)` samples.
#[derive(Debug, Clone, serde::Serialize)]
pub struct TimeSeries {
    /// Probe name, e.g. `"cwnd"` or `"queue:l0"`.
    pub name: String,
    /// Samples in ascending sim-time order.
    pub points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// The raw values, without timestamps.
    pub fn values(&self) -> Vec<f64> {
        self.points.iter().map(|&(_, v)| v).collect()
    }

    /// The largest sampled value, if any samples exist.
    pub fn max(&self) -> Option<f64> {
        self.points.iter().map(|&(_, v)| v).fold(None, |m, v| match m {
            Some(m) if m >= v => Some(m),
            _ => Some(v),
        })
    }
}

/// A probe evaluated against the simulator at each sampling instant.
pub type Probe = Box<dyn FnMut(&Simulator) -> f64>;

/// Drives a simulation while sampling registered probes on a fixed
/// sim-time period.
///
/// # Examples
///
/// ```
/// use netsim::link::LinkConfig;
/// use netsim::sim::SimBuilder;
/// use netsim::telemetry::Sampler;
/// use netsim::time::{SimDuration, SimTime};
///
/// let mut b = SimBuilder::new(1);
/// let a = b.add_node();
/// let c = b.add_node();
/// let (fwd, _) = b.add_duplex(a, c, LinkConfig::mbps_ms(10.0, 5, 100));
/// let mut sim = b.build();
///
/// let mut sampler = Sampler::new(SimDuration::from_millis(10));
/// sampler.add_link_queue_depth(fwd);
/// sampler.advance(&mut sim, SimTime::from_secs_f64(0.1));
/// assert_eq!(sampler.series()[0].points.len(), 11); // t = 0, 10, …, 100 ms
/// ```
pub struct Sampler {
    period: SimDuration,
    next_sample: Option<SimTime>,
    probes: Vec<Probe>,
    series: Vec<TimeSeries>,
}

impl fmt::Debug for Sampler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sampler")
            .field("period", &self.period)
            .field("next_sample", &self.next_sample)
            .field("probes", &self.series.iter().map(|s| s.name.as_str()).collect::<Vec<_>>())
            .finish()
    }
}

impl Sampler {
    /// Creates a sampler probing every `period` of simulated time.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn new(period: SimDuration) -> Self {
        assert!(period > SimDuration::ZERO, "sampling period must be positive");
        Sampler { period, next_sample: None, probes: Vec::new(), series: Vec::new() }
    }

    /// Registers a named probe.
    pub fn add_probe(&mut self, name: impl Into<String>, probe: Probe) -> &mut Self {
        self.probes.push(probe);
        self.series.push(TimeSeries { name: name.into(), points: Vec::new() });
        self
    }

    /// Registers a probe of `link`'s instantaneous queue depth (packets).
    pub fn add_link_queue_depth(&mut self, link: LinkId) -> &mut Self {
        self.add_probe(format!("queue:{link}"), Box::new(move |sim| sim.link(link).queued() as f64))
    }

    /// Registers a probe of `link`'s cumulative queue-drop count.
    pub fn add_link_drops(&mut self, link: LinkId) -> &mut Self {
        self.add_probe(
            format!("drops:{link}"),
            Box::new(move |sim| sim.link(link).queue.drops() as f64),
        )
    }

    /// Registers a probe of `link`'s cumulative impairment-drop count
    /// (loss stages plus down-link drops; see [`crate::impair`]).
    pub fn add_link_impair_drops(&mut self, link: LinkId) -> &mut Self {
        self.add_probe(
            format!("impair_drops:{link}"),
            Box::new(move |sim| sim.link(link).impair_stats.drops() as f64),
        )
    }

    /// Registers a probe of `link`'s cumulative administrative-down count.
    pub fn add_link_flaps(&mut self, link: LinkId) -> &mut Self {
        self.add_probe(
            format!("flaps:{link}"),
            Box::new(move |sim| sim.link(link).impair_stats.flaps as f64),
        )
    }

    /// Evaluates every probe once at the simulator's current time.
    pub fn sample_now(&mut self, sim: &Simulator) {
        let now = sim.now();
        for (probe, series) in self.probes.iter_mut().zip(&mut self.series) {
            series.points.push((now, probe(sim)));
        }
    }

    /// Runs the simulation to `until`, pausing every `period` to sample.
    /// The first call samples at the simulator's current time, so a full
    /// run yields samples at `t0, t0 + period, …`; later calls continue the
    /// established grid.
    pub fn advance(&mut self, sim: &mut Simulator, until: SimTime) {
        loop {
            let next = self.next_sample.unwrap_or_else(|| sim.now());
            if next > until {
                break;
            }
            sim.run_until(next);
            self.sample_now(sim);
            self.next_sample = Some(next + self.period);
        }
        sim.run_until(until);
    }

    /// The accumulated series, one per registered probe.
    pub fn series(&self) -> &[TimeSeries] {
        &self.series
    }

    /// Consumes the sampler, returning the accumulated series.
    pub fn into_series(self) -> Vec<TimeSeries> {
        self.series
    }
}

/// Totals absorbed from every [`Simulator`] dropped since the last
/// [`session::reset`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct SessionStats {
    /// Simulators accounted for.
    pub sims: u64,
    /// Events dispatched, summed over those simulators.
    pub events_processed: u64,
    /// Largest event-heap high-water mark observed in any simulator.
    pub peak_event_heap: u64,
    /// Trace records lost to buffer caps, summed.
    pub dropped_trace_records: u64,
    /// Simulators that traced with a keep-first ring buffer (see
    /// [`crate::trace::TraceMode::KeepFirst`]).
    pub traced_keep_first_sims: u64,
    /// Simulators that traced with a keep-latest ring buffer.
    pub traced_keep_latest_sims: u64,
    /// Packets dropped by impairment stages or down links, summed
    /// (see [`crate::impair`]).
    pub impair_drops: u64,
    /// Extra packet copies created by duplication impairments, summed.
    pub impair_dups: u64,
    /// Packets whose delivery order was perturbed by jitter or
    /// displacement impairments, summed.
    pub impair_reorders: u64,
    /// Administrative link-down transitions executed, summed.
    pub link_flaps: u64,
    /// Peak concurrent logical workload flows in any simulator (reported
    /// by population-scale harnesses via [`session::add_workload`]; 0 for
    /// runs without a generated flow population).
    pub workload_flows: u64,
    /// Peak bytes of per-flow state (churn slabs plus the event heap's
    /// share) per concurrent logical flow — the measurable form of the
    /// flat-per-flow-memory claim. Maximum over simulators.
    pub workload_bytes_per_flow: u64,
}

impl SessionStats {
    /// Folds another accounting block into this one (counters add, the
    /// peak takes the max) — for aggregating per-scenario stats collected
    /// on worker threads into a per-figure or per-sweep total.
    pub fn merge(&mut self, other: &SessionStats) {
        self.sims += other.sims;
        self.events_processed += other.events_processed;
        self.peak_event_heap = self.peak_event_heap.max(other.peak_event_heap);
        self.dropped_trace_records += other.dropped_trace_records;
        self.traced_keep_first_sims += other.traced_keep_first_sims;
        self.traced_keep_latest_sims += other.traced_keep_latest_sims;
        self.impair_drops += other.impair_drops;
        self.impair_dups += other.impair_dups;
        self.impair_reorders += other.impair_reorders;
        self.link_flaps += other.link_flaps;
        self.workload_flows = self.workload_flows.max(other.workload_flows);
        self.workload_bytes_per_flow =
            self.workload_bytes_per_flow.max(other.workload_bytes_per_flow);
    }
}

/// Thread-local accumulator fed automatically when a [`Simulator`] is
/// dropped. Reset it before a unit of work, snapshot it after, and the
/// difference is that unit's cost — no plumbing through intermediate
/// layers required.
pub mod session {
    use super::*;

    thread_local! {
        static SESSION: RefCell<SessionStats> = const { RefCell::new(SessionStats {
            sims: 0,
            events_processed: 0,
            peak_event_heap: 0,
            dropped_trace_records: 0,
            traced_keep_first_sims: 0,
            traced_keep_latest_sims: 0,
            impair_drops: 0,
            impair_dups: 0,
            impair_reorders: 0,
            link_flaps: 0,
            workload_flows: 0,
            workload_bytes_per_flow: 0,
        }) };
    }

    /// Zeroes the accumulator for this thread.
    pub fn reset() {
        SESSION.with(|s| *s.borrow_mut() = SessionStats::default());
    }

    /// The accumulator's current totals for this thread.
    pub fn snapshot() -> SessionStats {
        SESSION.with(|s| *s.borrow())
    }

    /// Returns the accumulator's totals and zeroes it in one step.
    ///
    /// This is the per-unit-of-work collection primitive for worker
    /// threads: between two `take` calls, everything a thread simulated is
    /// attributed to exactly one unit, with no window for double counting.
    pub fn take() -> SessionStats {
        SESSION.with(|s| std::mem::take(&mut *s.borrow_mut()))
    }

    /// Folds one simulator's final accounting into the accumulator.
    /// Called from `Simulator`'s `Drop`; also callable directly to account
    /// for a simulator that will live past the measurement boundary.
    /// `trace_mode` is the simulator's in-memory trace-buffer mode, if it
    /// traced at all — surfaced in the artifacts' `run_health` blocks so
    /// truncated traces are diagnosable from artifacts alone.
    pub fn absorb(
        events: u64,
        peak_heap: usize,
        dropped_trace_records: u64,
        trace_mode: Option<crate::trace::TraceMode>,
        impair: &crate::impair::ImpairStats,
    ) {
        SESSION.with(|s| {
            let mut s = s.borrow_mut();
            s.sims += 1;
            s.events_processed += events;
            s.peak_event_heap = s.peak_event_heap.max(peak_heap as u64);
            s.dropped_trace_records += dropped_trace_records;
            match trace_mode {
                Some(crate::trace::TraceMode::KeepFirst) => s.traced_keep_first_sims += 1,
                Some(crate::trace::TraceMode::KeepLatest) => s.traced_keep_latest_sims += 1,
                None => {}
            }
            s.impair_drops += impair.drops();
            s.impair_dups += impair.duplicates;
            s.impair_reorders += impair.reorder_displacements();
            s.link_flaps += impair.flaps;
        });
    }

    /// Records the peak concurrent logical-flow count and the derived
    /// per-flow memory footprint of a population-scale workload run.
    /// Both are high-water marks: calling this for several simulators
    /// keeps the worst case, which is what the flat-memory claim is about.
    pub fn add_workload(flows: u64, bytes_per_flow: u64) {
        SESSION.with(|s| {
            let mut s = s.borrow_mut();
            s.workload_flows = s.workload_flows.max(flows);
            s.workload_bytes_per_flow = s.workload_bytes_per_flow.max(bytes_per_flow);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{Agent, AgentCtx};
    use crate::ids::{FlowId, NodeId};
    use crate::link::LinkConfig;
    use crate::packet::{DataHeader, Packet, PacketKind, DATA_PACKET_BYTES};
    use crate::sim::SimBuilder;
    use std::any::Any;

    struct Blaster {
        dst: NodeId,
        count: u64,
    }

    impl Agent for Blaster {
        fn on_start(&mut self, ctx: &mut AgentCtx<'_>) {
            for seq in 0..self.count {
                ctx.send(
                    self.dst,
                    DATA_PACKET_BYTES,
                    PacketKind::Data(DataHeader {
                        seq,
                        is_retransmit: false,
                        tx_count: 1,
                        timestamp: ctx.now,
                    }),
                );
            }
        }
        fn on_packet(&mut self, _p: Packet, _ctx: &mut AgentCtx<'_>) {}
        fn on_timer(&mut self, _ctx: &mut AgentCtx<'_>) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn burst_sim() -> (crate::sim::Simulator, LinkId) {
        let mut b = SimBuilder::new(1);
        let a = b.add_node();
        let c = b.add_node();
        // Slow link so a burst parks in the queue.
        let (fwd, _) = b.add_duplex(a, c, LinkConfig::mbps_ms(0.5, 5, 200));
        let mut sim = b.build();
        sim.add_agent(a, FlowId::from_raw(0), Box::new(Blaster { dst: c, count: 60 }));
        (sim, fwd)
    }

    #[test]
    fn sampler_sees_queue_build_and_drain() {
        let (mut sim, fwd) = burst_sim();
        let mut sampler = Sampler::new(SimDuration::from_millis(50));
        sampler.add_link_queue_depth(fwd);
        sampler.advance(&mut sim, SimTime::from_secs_f64(3.0));
        let series = &sampler.series()[0];
        assert_eq!(series.name, format!("queue:{fwd}"));
        assert_eq!(series.points.len(), 61); // 0, 50 ms, …, 3000 ms
        let peak = series.max().unwrap();
        assert!(peak > 30.0, "burst should queue deeply, peak {peak}");
        let last = series.points.last().unwrap().1;
        assert_eq!(last, 0.0, "queue drains by the end");
        // Monotone sim-time grid on the configured period.
        for w in series.points.windows(2) {
            assert_eq!(w[1].0 - w[0].0, SimDuration::from_millis(50));
        }
    }

    #[test]
    fn advance_in_chunks_keeps_the_grid() {
        let (mut sim, fwd) = burst_sim();
        let mut sampler = Sampler::new(SimDuration::from_millis(50));
        sampler.add_link_queue_depth(fwd);
        sampler.advance(&mut sim, SimTime::from_secs_f64(0.125));
        sampler.advance(&mut sim, SimTime::from_secs_f64(3.0));
        // Same grid as one big advance: 0, 50, 100, 150, … — the odd chunk
        // boundary at 125 ms adds no off-grid sample.
        let series = &sampler.series()[0];
        assert_eq!(series.points.len(), 61);
        assert_eq!(series.points[3].0, SimTime::from_secs_f64(0.15));
    }

    #[test]
    fn custom_probe_reads_sim_stats() {
        let (mut sim, _) = burst_sim();
        let mut sampler = Sampler::new(SimDuration::from_millis(500));
        sampler.add_probe("events", Box::new(|sim| sim.stats().events as f64));
        sampler.advance(&mut sim, SimTime::from_secs_f64(2.0));
        let v = sampler.series()[0].values();
        assert!(v.windows(2).all(|w| w[0] <= w[1]), "event count is monotone: {v:?}");
        assert!(*v.last().unwrap() > 0.0);
    }

    #[test]
    fn session_accumulates_across_sims_and_resets() {
        session::reset();
        {
            let (mut sim, _) = burst_sim();
            sim.run_until(SimTime::from_secs_f64(1.0));
        } // drop absorbs
        {
            let (mut sim, _) = burst_sim();
            sim.run_until(SimTime::from_secs_f64(1.0));
        }
        let s = session::snapshot();
        assert_eq!(s.sims, 2);
        assert!(s.events_processed > 0);
        assert!(s.peak_event_heap > 0);
        session::reset();
        assert_eq!(session::snapshot(), SessionStats::default());
    }

    #[test]
    fn session_take_collects_and_clears_per_thread() {
        session::reset();
        {
            let (mut sim, _) = burst_sim();
            sim.run_until(SimTime::from_secs_f64(1.0));
        }
        let taken = session::take();
        assert_eq!(taken.sims, 1);
        assert!(taken.events_processed > 0);
        assert_eq!(session::snapshot(), SessionStats::default(), "take must clear");

        // Worker threads each own an independent accumulator.
        let handle = std::thread::spawn(|| {
            {
                let (mut sim, _) = burst_sim();
                sim.run_until(SimTime::from_secs_f64(1.0));
            }
            session::take()
        });
        let worker = handle.join().expect("worker");
        assert_eq!(worker.sims, 1);
        assert_eq!(session::snapshot().sims, 0, "worker's sims never leak into this thread");
    }

    #[test]
    fn session_absorbs_impairment_counters() {
        session::reset();
        {
            let mut b = SimBuilder::new(5);
            let a = b.add_node();
            let c = b.add_node();
            let cfg = LinkConfig::mbps_ms(0.5, 5, 200)
                .with_impairments(&[crate::impair::StageConfig::IidLoss { p: 1.0 }]);
            b.add_link(a, c, cfg);
            b.add_link(c, a, LinkConfig::mbps_ms(0.5, 5, 200));
            let mut sim = b.build();
            sim.add_agent(a, FlowId::from_raw(0), Box::new(Blaster { dst: c, count: 10 }));
            sim.run_until(SimTime::from_secs_f64(2.0));
        } // drop absorbs
        let s = session::take();
        assert_eq!(s.impair_drops, 10, "every packet dropped by the p=1 stage");
        assert_eq!(s.impair_dups, 0);
        assert_eq!(s.link_flaps, 0);
    }

    #[test]
    fn session_stats_merge_adds_counters_and_maxes_peak() {
        let mut a = SessionStats {
            sims: 1,
            events_processed: 100,
            peak_event_heap: 40,
            dropped_trace_records: 2,
            traced_keep_first_sims: 1,
            traced_keep_latest_sims: 0,
            impair_drops: 5,
            impair_dups: 1,
            impair_reorders: 3,
            link_flaps: 2,
            workload_flows: 1_000,
            workload_bytes_per_flow: 64,
        };
        let b = SessionStats {
            sims: 2,
            events_processed: 50,
            peak_event_heap: 90,
            dropped_trace_records: 0,
            traced_keep_first_sims: 0,
            traced_keep_latest_sims: 2,
            impair_drops: 7,
            impair_dups: 0,
            impair_reorders: 4,
            link_flaps: 1,
            workload_flows: 400,
            workload_bytes_per_flow: 96,
        };
        a.merge(&b);
        assert_eq!(a.sims, 3);
        assert_eq!(a.events_processed, 150);
        assert_eq!(a.peak_event_heap, 90, "peak is a max, not a sum");
        assert_eq!(a.dropped_trace_records, 2);
        assert_eq!(a.traced_keep_first_sims, 1);
        assert_eq!(a.traced_keep_latest_sims, 2, "trace-mode tallies add");
        assert_eq!(a.impair_drops, 12);
        assert_eq!(a.impair_dups, 1);
        assert_eq!(a.impair_reorders, 7);
        assert_eq!(a.link_flaps, 3, "impairment counters add like the others");
        assert_eq!(a.workload_flows, 1_000, "flow concurrency is a high-water mark");
        assert_eq!(a.workload_bytes_per_flow, 96, "per-flow memory keeps the worst case");
    }

    #[test]
    fn add_workload_keeps_high_water_marks() {
        session::reset();
        session::add_workload(1_000, 48);
        session::add_workload(500, 80);
        let s = session::take();
        assert_eq!(s.workload_flows, 1_000);
        assert_eq!(s.workload_bytes_per_flow, 80);
    }
}
