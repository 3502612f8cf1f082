//! Poisson flow churn over a multiplexing agent pair.
//!
//! The naive way to simulate 10k concurrent flows — 10k sender agents —
//! drowns in per-agent state (every TCP sender carries maps, traces and
//! timers). The churn engine instead multiplexes *logical* flows over one
//! [`ChurnSource`]/[`ChurnSink`] agent pair per host pair, the way
//! [`netsim::traffic::OnOffSource`] multiplexes on/off bursts over one
//! timer:
//!
//! - **Arrivals** are a Poisson process (exponential inter-arrival times
//!   from the pair's seeded RNG) plus an initial population, so a target
//!   concurrency is reached at t = 0 and sustained by churn.
//! - **Service** is processor sharing: the source paces packets at a fixed
//!   aggregate rate and deals them round-robin over the active flows, so a
//!   flow's completion time stretches with the concurrency it experienced
//!   — the classic flow-level model of a shared bottleneck.
//! - **Departures** happen when a flow's last packet is emitted; its
//!   completion time and goodput fold into streaming accumulators
//!   ([`ChurnStats`]) and its slab slot is recycled.
//!
//! Per-flow state is one fixed-size [`LogicalFlow`] slab entry plus one
//! index in the active list — no per-flow `Vec` ever grows, which keeps
//! memory per concurrent flow flat and measurable
//! ([`ChurnSource::state_bytes`]).

use netsim::agent::{Agent, AgentCtx};
use netsim::packet::{DataHeader, Packet, PacketKind};
use netsim::time::{SimDuration, SimTime};
use netsim::NodeId;
use obs::LogHistogram;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::dist::SizeDist;
use crate::stats::Streaming;

/// Configuration of one churn source (one host pair's flow population).
#[derive(Debug, Clone, Copy)]
pub struct ChurnConfig {
    /// Destination host (where the paired [`ChurnSink`] lives).
    pub dst: NodeId,
    /// Aggregate pacing rate shared by this pair's active flows, bits/s.
    pub rate_bps: f64,
    /// Size of every emitted packet, bytes.
    pub packet_bytes: u32,
    /// Flows spawned at t = 0 (the initial population).
    pub initial_flows: u32,
    /// Poisson arrival intensity of new flows, per second.
    pub arrival_rate_hz: f64,
    /// Flow-size distribution, packets per flow.
    pub sizes: SizeDist,
    /// Seed of this pair's private RNG (derive per pair, e.g. with
    /// [`netsim::derive_seed`]).
    pub seed: u64,
}

/// Fixed-size per-flow record: the entire state a logical flow ever owns.
#[derive(Debug, Clone, Copy)]
struct LogicalFlow {
    /// Packets still to emit.
    remaining: u32,
    /// Total size, packets.
    size: u32,
    /// Arrival instant.
    started: SimTime,
}

/// Streaming accumulators over a churn population (per source; merge
/// across sources in a fixed order for deterministic totals).
#[derive(Debug, Clone, Default)]
pub struct ChurnStats {
    /// Flows that arrived (initial population + Poisson arrivals).
    pub arrivals: u64,
    /// Flows that ran to completion (departures).
    pub completions: u64,
    /// Largest number of simultaneously active flows.
    pub peak_active: u64,
    /// Packets emitted.
    pub packets_sent: u64,
    /// Bytes emitted.
    pub bytes_sent: u64,
    /// Per-completed-flow goodput samples (bits/s = size / completion time).
    pub goodput_bps: Streaming,
    /// Flow completion times, microseconds (exact integer buckets).
    pub fct_us: LogHistogram,
}

impl ChurnStats {
    /// Folds another population's accumulators in (fixed merge order is
    /// the caller's responsibility, see [`Streaming::merge`]).
    pub fn merge(&mut self, other: &ChurnStats) {
        self.arrivals += other.arrivals;
        self.completions += other.completions;
        self.peak_active += other.peak_active;
        self.packets_sent += other.packets_sent;
        self.bytes_sent += other.bytes_sent;
        self.goodput_bps.merge(&other.goodput_bps);
        self.fct_us.absorb(&other.fct_us);
    }
}

/// The multiplexing flow-population source agent.
#[derive(Debug)]
pub struct ChurnSource {
    cfg: ChurnConfig,
    rng: SmallRng,
    /// Packet emission interval at the aggregate pacing rate.
    gap: SimDuration,
    /// Slab of per-flow records; completed slots are recycled via `free`.
    slab: Vec<LogicalFlow>,
    free: Vec<u32>,
    /// Slot indices of active flows (round-robin service order).
    active: Vec<u32>,
    cursor: usize,
    /// Whether the emission timer is armed.
    ticking: bool,
    seq: u64,
    stats: ChurnStats,
}

impl ChurnSource {
    /// Creates a source for one pair.
    pub fn new(cfg: ChurnConfig) -> Self {
        assert!(cfg.rate_bps > 0.0, "churn pacing rate must be positive");
        assert!(cfg.arrival_rate_hz >= 0.0, "arrival rate cannot be negative");
        let gap_s = cfg.packet_bytes as f64 * 8.0 / cfg.rate_bps;
        ChurnSource {
            rng: SmallRng::seed_from_u64(cfg.seed),
            gap: SimDuration::from_nanos((gap_s * 1e9).round().max(1.0) as u64),
            slab: Vec::new(),
            free: Vec::new(),
            active: Vec::new(),
            cursor: 0,
            ticking: false,
            seq: 0,
            stats: ChurnStats::default(),
            cfg,
        }
    }

    /// The population accumulators.
    pub fn stats(&self) -> &ChurnStats {
        &self.stats
    }

    /// Bytes of engine state attributable to the flow population: the
    /// slab, the free list and the active list (capacities, i.e. what is
    /// actually allocated). This is the numerator of the bytes-per-flow
    /// flat-memory metric.
    pub fn state_bytes(&self) -> u64 {
        (self.slab.capacity() * std::mem::size_of::<LogicalFlow>()
            + (self.free.capacity() + self.active.capacity()) * std::mem::size_of::<u32>())
            as u64
    }

    fn spawn_flow(&mut self, now: SimTime) {
        let size = self.cfg.sizes.sample(&mut self.rng).max(1) as u32;
        let flow = LogicalFlow { remaining: size, size, started: now };
        let slot = match self.free.pop() {
            Some(s) => {
                self.slab[s as usize] = flow;
                s
            }
            None => {
                self.slab.push(flow);
                (self.slab.len() - 1) as u32
            }
        };
        self.active.push(slot);
        self.stats.arrivals += 1;
        self.stats.peak_active = self.stats.peak_active.max(self.active.len() as u64);
    }

    fn arm_emission(&mut self, ctx: &mut AgentCtx<'_>) {
        if !self.ticking && !self.active.is_empty() {
            ctx.set_timer(ctx.now + self.gap);
            self.ticking = true;
        }
    }

    fn arm_next_arrival(&mut self, ctx: &mut AgentCtx<'_>) {
        if self.cfg.arrival_rate_hz <= 0.0 {
            return;
        }
        let u: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        let gap_s = -u.ln() / self.cfg.arrival_rate_hz;
        ctx.set_aux_timer(ctx.now + SimDuration::from_nanos((gap_s * 1e9).round() as u64));
    }

    fn emit_one(&mut self, ctx: &mut AgentCtx<'_>) {
        debug_assert!(!self.active.is_empty());
        if self.cursor >= self.active.len() {
            self.cursor = 0;
        }
        let slot = self.active[self.cursor] as usize;
        ctx.send(
            self.cfg.dst,
            self.cfg.packet_bytes,
            PacketKind::Data(DataHeader { seq: self.seq, tx_count: 1, timestamp: ctx.now }),
        );
        self.seq += 1;
        self.stats.packets_sent += 1;
        self.stats.bytes_sent += self.cfg.packet_bytes as u64;
        let f = &mut self.slab[slot];
        f.remaining -= 1;
        if f.remaining == 0 {
            let fct = ctx.now.saturating_since(f.started).max(self.gap);
            let bytes = f.size as u64 * self.cfg.packet_bytes as u64;
            self.stats.completions += 1;
            self.stats.fct_us.record((fct.as_nanos() / 1_000).max(1));
            self.stats.goodput_bps.push(bytes as f64 * 8.0 / fct.as_secs_f64());
            // Swap-remove keeps service O(1); the element swapped into
            // `cursor` is served next, which is deterministic.
            self.active.swap_remove(self.cursor);
            self.free.push(slot as u32);
        } else {
            self.cursor += 1;
        }
    }
}

impl Agent for ChurnSource {
    fn on_start(&mut self, ctx: &mut AgentCtx<'_>) {
        for _ in 0..self.cfg.initial_flows {
            self.spawn_flow(ctx.now);
        }
        self.arm_emission(ctx);
        self.arm_next_arrival(ctx);
    }

    fn on_packet(&mut self, _packet: Packet, _ctx: &mut AgentCtx<'_>) {}

    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>) {
        if self.active.is_empty() {
            // Idle: stop ticking; the next arrival re-arms.
            self.ticking = false;
            return;
        }
        self.emit_one(ctx);
        if self.active.is_empty() {
            self.ticking = false;
        } else {
            ctx.set_timer(ctx.now + self.gap);
        }
    }

    fn on_aux_timer(&mut self, ctx: &mut AgentCtx<'_>) {
        self.spawn_flow(ctx.now);
        self.arm_emission(ctx);
        self.arm_next_arrival(ctx);
    }
}

/// Counting sink for a churn source's packets.
#[derive(Debug, Default)]
pub struct ChurnSink {
    /// Packets delivered.
    pub packets: u64,
    /// Bytes delivered.
    pub bytes: u64,
}

impl ChurnSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        ChurnSink::default()
    }
}

impl Agent for ChurnSink {
    fn on_start(&mut self, _ctx: &mut AgentCtx<'_>) {}

    fn on_packet(&mut self, packet: Packet, _ctx: &mut AgentCtx<'_>) {
        self.packets += 1;
        self.bytes += packet.size_bytes as u64;
    }

    fn on_timer(&mut self, _ctx: &mut AgentCtx<'_>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::link::LinkConfig;
    use netsim::sim::SimBuilder;
    use netsim::FlowId;

    fn run_pair(cfg_seed: u64, sim_seed: u64, secs: f64) -> (ChurnStats, u64, u64) {
        run_pair_at(cfg_seed, sim_seed, secs, 40.0)
    }

    fn run_pair_at(
        cfg_seed: u64,
        sim_seed: u64,
        secs: f64,
        arrival_rate_hz: f64,
    ) -> (ChurnStats, u64, u64) {
        let mut b = SimBuilder::new(sim_seed);
        let a = b.add_node();
        let c = b.add_node();
        b.add_duplex(a, c, LinkConfig::mbps_ms(50.0, 5, 256));
        let mut sim = b.build();
        let cfg = ChurnConfig {
            dst: c,
            rate_bps: 10e6,
            packet_bytes: 1000,
            initial_flows: 50,
            arrival_rate_hz,
            sizes: SizeDist::BoundedPareto { alpha: 1.3, min: 2, max: 500 },
            seed: cfg_seed,
        };
        let flow = FlowId::from_raw(7);
        let src_id = sim.add_agent(a, flow, Box::new(ChurnSource::new(cfg)));
        let sink_id = sim.add_agent(c, flow, Box::new(ChurnSink::new()));
        sim.start();
        sim.run_until(SimTime::from_secs_f64(secs));
        let src = sim.agent(src_id).as_any().downcast_ref::<ChurnSource>().unwrap();
        let sink = sim.agent(sink_id).as_any().downcast_ref::<ChurnSink>().unwrap();
        (src.stats().clone(), src.state_bytes(), sink.bytes)
    }

    #[test]
    fn churn_completes_flows_and_sustains_population() {
        let (stats, state_bytes, delivered) = run_pair(3, 1, 5.0);
        assert!(stats.completions > 50, "churn must complete flows: {}", stats.completions);
        assert!(stats.arrivals > stats.completions, "population persists");
        assert!(stats.peak_active >= 50, "initial population counts");
        assert_eq!(stats.fct_us.count, stats.completions);
        assert!(stats.goodput_bps.jain().is_some());
        assert!(delivered > 0, "sink sees traffic");
        // Flat memory: well under 100 bytes of engine state per peak flow.
        assert!(
            state_bytes < stats.peak_active * 100,
            "state {state_bytes} B for peak {} flows",
            stats.peak_active
        );
    }

    #[test]
    fn pacing_rate_bounds_emission() {
        // Overloaded: 300 arrivals/s of ~7-packet flows offer more than the
        // 10 Mbit/s pacing rate can serve, so the source runs saturated.
        let (stats, _, _) = run_pair_at(3, 1, 5.0, 300.0);
        // 10 Mbit/s of 1000-byte packets for 5 s = at most 6250 packets.
        assert!(stats.packets_sent <= 6_250, "pacing cap exceeded: {}", stats.packets_sent);
        assert!(stats.packets_sent > 5_500, "the saturated source should stay near its rate");
    }

    #[test]
    fn churn_is_deterministic_per_seed() {
        let (a, ab, _) = run_pair(9, 2, 3.0);
        let (b, bb, _) = run_pair(9, 2, 3.0);
        assert_eq!(a.completions, b.completions);
        assert_eq!(a.packets_sent, b.packets_sent);
        assert_eq!(a.fct_us, b.fct_us);
        assert_eq!(a.goodput_bps, b.goodput_bps);
        assert_eq!(ab, bb);
        let (c, _, _) = run_pair(10, 2, 3.0);
        assert_ne!(a.fct_us, c.fct_us, "a different churn seed draws a different population");
    }
}
