//! Run-wide observability: periodic sampling and run-health reports.
//!
//! Two complementary tools live here:
//!
//! - [`Sampler`] — a sim-time probe driver. Register named probes (arbitrary
//!   closures over the [`Simulator`], or the built-in link helpers), then
//!   drive the simulation through [`Sampler::advance`]; each probe is
//!   evaluated every `period` of *simulated* time and accumulates a
//!   [`TimeSeries`].
//! - [`SessionStats`] — cheap "did this run behave?" metadata (events
//!   processed, most events pending, dropped trace records, impairment
//!   totals) that [`Simulator::run_health`] reports for one run and
//!   [`SessionStats::merge`] folds over many.

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

/// One run's health, the `run_health` block of every artifact:
/// [`Simulator::run_health`] reports one run and [`SessionStats::merge`]
/// folds several. [`SessionStats::FIELDS`] lists the fields, their JSON keys
/// and how they merge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct SessionStats {
    /// Simulators run: one per executed cell. A cache hit or a deduplicated
    /// follower reports the stats of the run that produced its outcome.
    pub sims: u64,
    /// Events dispatched.
    pub events_processed: u64,
    /// Most events pending at once ([`crate::event::EventQueue::peak_len`]):
    /// both heaps plus the arrivals queued on link lanes, not the heap alone.
    pub peak_event_heap: u64,
    /// Trace records lost to the in-memory buffer cap with no sink attached.
    pub dropped_trace_records: u64,
    /// Runs that traced into a keep-first buffer.
    pub traced_keep_first_sims: u64,
    /// Runs that traced into a keep-latest buffer.
    pub traced_keep_latest_sims: u64,
    /// Packets dropped by impairment stages or down links.
    pub impair_drops: u64,
    /// Extra packet copies made by duplication stages.
    pub impair_dups: u64,
    /// Packets a jitter or displacement stage moved out of order.
    pub impair_reorders: u64,
    /// Administrative link-down transitions executed.
    pub link_flaps: u64,
    /// Most flows of a churn population alive at once; 0 without one.
    pub workload_flows: u64,
    /// Bytes of per-flow state (churn slabs plus the event queue's and the
    /// packet arena's peaks) per flow at that peak; 0 without a population.
    pub workload_bytes_per_flow: u64,
}

/// How [`SessionStats::merge`] combines a field of two blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Combine {
    /// A count: the two add.
    Sum,
    /// A high-water mark: the larger stays.
    Max,
}

/// One row of [`SessionStats::FIELDS`]: the field's JSON key, its
/// [`Combine`] rule and the field itself.
pub type Field = (&'static str, Combine, fn(&mut SessionStats) -> &mut u64);

impl SessionStats {
    /// Every field, in declaration order — the order its `Serialize` derive
    /// writes them. `merge` and the sweep cache's reader walk this table.
    pub const FIELDS: [Field; 12] = [
        ("sims", Combine::Sum, |s| &mut s.sims),
        ("events_processed", Combine::Sum, |s| &mut s.events_processed),
        ("peak_event_heap", Combine::Max, |s| &mut s.peak_event_heap),
        ("dropped_trace_records", Combine::Sum, |s| &mut s.dropped_trace_records),
        ("traced_keep_first_sims", Combine::Sum, |s| &mut s.traced_keep_first_sims),
        ("traced_keep_latest_sims", Combine::Sum, |s| &mut s.traced_keep_latest_sims),
        ("impair_drops", Combine::Sum, |s| &mut s.impair_drops),
        ("impair_dups", Combine::Sum, |s| &mut s.impair_dups),
        ("impair_reorders", Combine::Sum, |s| &mut s.impair_reorders),
        ("link_flaps", Combine::Sum, |s| &mut s.link_flaps),
        ("workload_flows", Combine::Max, |s| &mut s.workload_flows),
        ("workload_bytes_per_flow", Combine::Max, |s| &mut s.workload_bytes_per_flow),
    ];

    /// Folds another block into this one, field by field as
    /// [`FIELDS`](Self::FIELDS) says — for a figure's total over its cells.
    pub fn merge(&mut self, other: &SessionStats) {
        let mut other = *other;
        for (_, combine, field) in Self::FIELDS {
            let theirs = *field(&mut other);
            let ours = field(self);
            *ours = match combine {
                Combine::Sum => *ours + theirs,
                Combine::Max => (*ours).max(theirs),
            };
        }
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
                    PacketKind::Data(DataHeader { seq, tx_count: 1, timestamp: ctx.now }),
                );
            }
        }
        fn on_packet(&mut self, _p: Packet, _ctx: &mut AgentCtx<'_>) {}
        fn on_timer(&mut self, _ctx: &mut AgentCtx<'_>) {}
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
    fn session_absorbs_impairment_counters() {
        let mut b = SimBuilder::new(5);
        let a = b.add_node();
        let c = b.add_node();
        let lossy = b.add_link(a, c, LinkConfig::mbps_ms(0.5, 5, 200));
        b.add_link(c, a, LinkConfig::mbps_ms(0.5, 5, 200));
        let mut sim = b.build();
        sim.set_link_impairments(lossy, &[crate::impair::StageConfig::IidLoss { p: 1.0 }]);
        sim.add_agent(a, FlowId::from_raw(0), Box::new(Blaster { dst: c, count: 10 }));
        sim.enable_trace_with(crate::trace::TraceConfig::new(&[], 8).keep_latest());
        sim.run_until(SimTime::from_secs_f64(2.0));
        let s = sim.run_health();
        assert_eq!(s.sims, 1, "a report covers one run");
        assert_eq!(s.events_processed, sim.stats().events);
        assert_eq!(s.peak_event_heap, sim.event_heap_peak() as u64);
        assert_eq!(s.impair_drops, 10, "every packet dropped by the p=1 stage");
        assert_eq!(s.impair_dups, 0);
        assert_eq!(s.link_flaps, 0);
        assert_eq!((s.traced_keep_first_sims, s.traced_keep_latest_sims), (0, 1));
        assert!(s.dropped_trace_records > 0, "20 records overflow a buffer of 8");
        assert_eq!(s.dropped_trace_records, sim.dropped_trace_records());
        assert_eq!((s.workload_flows, s.workload_bytes_per_flow), (0, 0), "no population");
    }

    /// A block whose fields, in declaration order, are `values`.
    fn stats(values: [u64; 12]) -> SessionStats {
        let mut s = SessionStats::default();
        for ((_, _, field), v) in SessionStats::FIELDS.into_iter().zip(values) {
            *field(&mut s) = v;
        }
        s
    }

    #[test]
    fn session_stats_merge_adds_counters_and_maxes_peak() {
        // sims, events, peak heap, dropped, keep-first, keep-latest, drops,
        // dups, reorders, flaps, workload flows, bytes per flow.
        let mut a = stats([1, 100, 40, 2, 1, 0, 5, 1, 3, 2, 1_000, 64]);
        a.merge(&stats([2, 50, 90, 0, 0, 2, 7, 0, 4, 1, 400, 96]));
        // Counters and trace-mode tallies add; the peak heap, the flow
        // concurrency and the per-flow memory keep the worst case.
        assert_eq!(a, stats([3, 150, 90, 2, 1, 2, 12, 1, 7, 3, 1_000, 96]));
    }

    #[test]
    fn the_field_table_names_the_serialized_keys_in_order() {
        // Each row reaches its own field, and its name is the key that field
        // serializes as.
        let s = stats(std::array::from_fn(|i| i as u64 + 1));
        let serde::Value::Object(entries) = serde::Serialize::to_value(&s) else { panic!() };
        let rows = SessionStats::FIELDS.iter().zip(1..);
        let expected: Vec<_> = rows.map(|(f, i)| (f.0.to_owned(), serde::Value::UInt(i))).collect();
        assert_eq!(entries, expected);
    }
}
