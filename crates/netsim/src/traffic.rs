//! Non-TCP traffic agents: constant-bit-rate (CBR) and on-off (burst)
//! sources, plus a counting sink.
//!
//! The paper's Figure 3 induces loss by shrinking the bottleneck; CBR
//! cross-traffic is the other standard ns-2 way to load a link, and is used
//! by this reproduction's sensitivity studies and tests. [`OnOffSource`]
//! adds the classic exponential-on-off shape in its deterministic form
//! (fixed on/off periods), which the stress suite uses so impairment
//! scenarios aren't limited to greedy FTP-style flows.

use crate::agent::{Agent, AgentCtx};
use crate::ids::NodeId;
use crate::packet::{DataHeader, Packet, PacketKind};
use crate::time::{SimDuration, SimTime};

/// A constant-bit-rate packet source.
///
/// Sends `packet_bytes`-sized packets to `dst` at `rate_bps`, starting at
/// `start_at`. Packets carry increasing sequence numbers so a [`CbrSink`]
/// can measure loss and reordering.
///
/// # Examples
///
/// ```
/// use netsim::traffic::{CbrSource, CbrSink};
/// use netsim::{SimBuilder, LinkConfig, FlowId, SimTime};
///
/// let mut b = SimBuilder::new(1);
/// let src = b.add_node();
/// let dst = b.add_node();
/// b.add_duplex(src, dst, LinkConfig::mbps_ms(10.0, 5, 100));
/// let mut sim = b.build();
/// let flow = FlowId::from_raw(0);
/// sim.add_agent(src, flow, Box::new(CbrSource::new(dst, 1e6, 1000, SimTime::ZERO)));
/// let sink = sim.add_agent(dst, flow, Box::new(CbrSink::new()));
/// sim.run_until(SimTime::from_secs_f64(1.0));
/// let received = sim.agent(sink).as_any().downcast_ref::<CbrSink>().unwrap().received();
/// assert!(received > 100, "1 Mbps of 1000-byte packets ≈ 125/s");
/// ```
#[derive(Debug)]
pub struct CbrSource {
    dst: NodeId,
    packet_bytes: u32,
    start_at: SimTime,
    interval: SimDuration,
    next_seq: u64,
    sent: u64,
}

impl CbrSource {
    /// Creates a source emitting `packet_bytes`-sized packets at `rate_bps`.
    ///
    /// # Panics
    ///
    /// Panics if the rate or packet size is not positive.
    pub fn new(dst: NodeId, rate_bps: f64, packet_bytes: u32, start_at: SimTime) -> Self {
        assert!(rate_bps > 0.0, "rate must be positive");
        assert!(packet_bytes > 0, "packet size must be positive");
        let interval = SimDuration::from_secs_f64(packet_bytes as f64 * 8.0 / rate_bps);
        CbrSource { dst, packet_bytes, start_at, interval, next_seq: 0, sent: 0 }
    }

    /// Packets emitted so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    fn emit(&mut self, ctx: &mut AgentCtx<'_>) {
        ctx.send(
            self.dst,
            self.packet_bytes,
            PacketKind::Data(DataHeader { seq: self.next_seq, tx_count: 1, timestamp: ctx.now }),
        );
        self.next_seq += 1;
        self.sent += 1;
        ctx.set_timer(ctx.now + self.interval);
    }
}

impl Agent for CbrSource {
    fn on_start(&mut self, ctx: &mut AgentCtx<'_>) {
        if self.start_at > ctx.now {
            ctx.set_timer(self.start_at);
        } else {
            self.emit(ctx);
        }
    }

    fn on_packet(&mut self, _packet: Packet, _ctx: &mut AgentCtx<'_>) {}

    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>) {
        self.emit(ctx);
    }
}

/// A deterministic on-off (burst) packet source.
///
/// Alternates between an *on* period, during which it emits
/// `packet_bytes`-sized packets to `dst` at `rate_bps` like a CBR source,
/// and a silent *off* period. The cycle is anchored at `start_at`, so the
/// burst pattern is a pure function of simulation time — no randomness —
/// which keeps stress scenarios byte-reproducible.
///
/// # Examples
///
/// ```
/// use netsim::traffic::{CbrSink, OnOffSource};
/// use netsim::{SimBuilder, LinkConfig, FlowId, SimDuration, SimTime};
///
/// let mut b = SimBuilder::new(1);
/// let src = b.add_node();
/// let dst = b.add_node();
/// b.add_duplex(src, dst, LinkConfig::mbps_ms(10.0, 5, 100));
/// let mut sim = b.build();
/// let flow = FlowId::from_raw(0);
/// let half = SimDuration::from_millis(500);
/// sim.add_agent(
///     src,
///     flow,
///     Box::new(OnOffSource::new(dst, 1e6, 1000, half, half, SimTime::ZERO)),
/// );
/// let sink = sim.add_agent(dst, flow, Box::new(CbrSink::new()));
/// sim.run_until(SimTime::from_secs_f64(2.0));
/// let received = sim.agent(sink).as_any().downcast_ref::<CbrSink>().unwrap().received();
/// // Two 500 ms bursts at 125 packets/s ≈ half of a full CBR second.
/// assert!((100..150).contains(&received), "received {received}");
/// ```
#[derive(Debug)]
pub struct OnOffSource {
    dst: NodeId,
    packet_bytes: u32,
    on: SimDuration,
    off: SimDuration,
    start_at: SimTime,
    interval: SimDuration,
    next_seq: u64,
    sent: u64,
}

impl OnOffSource {
    /// Creates a source bursting at `rate_bps` for `on`, silent for `off`,
    /// repeating from `start_at`.
    ///
    /// # Panics
    ///
    /// Panics if the rate, packet size, or either period is not positive.
    pub fn new(
        dst: NodeId,
        rate_bps: f64,
        packet_bytes: u32,
        on: SimDuration,
        off: SimDuration,
        start_at: SimTime,
    ) -> Self {
        assert!(rate_bps > 0.0, "rate must be positive");
        assert!(packet_bytes > 0, "packet size must be positive");
        assert!(on > SimDuration::ZERO, "on period must be positive");
        assert!(off > SimDuration::ZERO, "off period must be positive");
        let interval = SimDuration::from_secs_f64(packet_bytes as f64 * 8.0 / rate_bps);
        OnOffSource { dst, packet_bytes, on, off, start_at, interval, next_seq: 0, sent: 0 }
    }

    /// Packets emitted so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Position within the on/off cycle at `now` (offset from cycle start).
    fn cycle_offset(&self, now: SimTime) -> SimDuration {
        let elapsed = now.saturating_since(self.start_at).as_nanos();
        let cycle = (self.on + self.off).as_nanos();
        SimDuration::from_nanos(elapsed % cycle)
    }

    /// Emits if inside a burst, otherwise sleeps until the next one. One
    /// wake-up per off period is wasted; correctness doesn't depend on it.
    fn tick(&mut self, ctx: &mut AgentCtx<'_>) {
        let into = self.cycle_offset(ctx.now);
        if into < self.on {
            ctx.send(
                self.dst,
                self.packet_bytes,
                PacketKind::Data(DataHeader {
                    seq: self.next_seq,
                    tx_count: 1,
                    timestamp: ctx.now,
                }),
            );
            self.next_seq += 1;
            self.sent += 1;
            ctx.set_timer(ctx.now + self.interval);
        } else {
            let cycle = self.on + self.off;
            ctx.set_timer(ctx.now + (cycle - into));
        }
    }
}

impl Agent for OnOffSource {
    fn on_start(&mut self, ctx: &mut AgentCtx<'_>) {
        if self.start_at > ctx.now {
            ctx.set_timer(self.start_at);
        } else {
            self.tick(ctx);
        }
    }

    fn on_packet(&mut self, _packet: Packet, _ctx: &mut AgentCtx<'_>) {}

    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>) {
        self.tick(ctx);
    }
}

/// Counts CBR arrivals and measures loss/reordering.
#[derive(Debug, Default)]
pub struct CbrSink {
    received: u64,
    bytes: u64,
    max_seq: Option<u64>,
    late: u64,
}

impl CbrSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Packets received.
    pub fn received(&self) -> u64 {
        self.received
    }

    /// Bytes received.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Arrivals whose sequence number was below the running maximum.
    pub fn late_arrivals(&self) -> u64 {
        self.late
    }

    /// Highest sequence number observed (None before any arrival).
    pub fn max_seq(&self) -> Option<u64> {
        self.max_seq
    }
}

impl Agent for CbrSink {
    fn on_start(&mut self, _ctx: &mut AgentCtx<'_>) {}

    fn on_packet(&mut self, packet: Packet, _ctx: &mut AgentCtx<'_>) {
        let PacketKind::Data(h) = &packet.kind else { return };
        self.received += 1;
        self.bytes += packet.size_bytes as u64;
        match self.max_seq {
            Some(m) if h.seq < m => self.late += 1,
            Some(m) if h.seq > m => self.max_seq = Some(h.seq),
            None => self.max_seq = Some(h.seq),
            _ => {}
        }
    }

    fn on_timer(&mut self, _ctx: &mut AgentCtx<'_>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::FlowId;
    use crate::link::LinkConfig;
    use crate::sim::SimBuilder;

    fn cbr_sim(rate_bps: f64, secs: f64) -> (u64, u64) {
        let mut b = SimBuilder::new(2);
        let src = b.add_node();
        let dst = b.add_node();
        b.add_duplex(src, dst, LinkConfig::mbps_ms(10.0, 5, 100));
        let mut sim = b.build();
        let flow = FlowId::from_raw(0);
        let tx =
            sim.add_agent(src, flow, Box::new(CbrSource::new(dst, rate_bps, 1000, SimTime::ZERO)));
        let rx = sim.add_agent(dst, flow, Box::new(CbrSink::new()));
        sim.run_until(SimTime::from_secs_f64(secs));
        let sent = sim.agent(tx).as_any().downcast_ref::<CbrSource>().unwrap().sent();
        let recv = sim.agent(rx).as_any().downcast_ref::<CbrSink>().unwrap().received();
        (sent, recv)
    }

    #[test]
    fn rate_is_respected() {
        // 1 Mbps of 1000 B packets = 125 packets/s.
        let (sent, recv) = cbr_sim(1e6, 2.0);
        assert!((240..=252).contains(&sent), "sent {sent}");
        // The last packet or two may still be in flight at the cutoff.
        assert!(sent - recv <= 2, "no loss below link capacity: {sent} vs {recv}");
    }

    #[test]
    fn overload_drops_at_queue() {
        // 20 Mbps offered on a 10 Mbps link: about half must drop.
        let (sent, recv) = cbr_sim(20e6, 2.0);
        assert!(sent > 4900, "sent {sent}");
        let ratio = recv as f64 / sent as f64;
        assert!((0.45..0.60).contains(&ratio), "delivery ratio {ratio}");
    }

    #[test]
    fn start_delay_is_honored() {
        let mut b = SimBuilder::new(2);
        let src = b.add_node();
        let dst = b.add_node();
        b.add_duplex(src, dst, LinkConfig::mbps_ms(10.0, 5, 100));
        let mut sim = b.build();
        let flow = FlowId::from_raw(0);
        let start = SimTime::from_secs_f64(1.0);
        let tx = sim.add_agent(src, flow, Box::new(CbrSource::new(dst, 1e6, 1000, start)));
        sim.add_agent(dst, flow, Box::new(CbrSink::new()));
        sim.run_until(SimTime::from_secs_f64(0.9));
        assert_eq!(sim.agent(tx).as_any().downcast_ref::<CbrSource>().unwrap().sent(), 0);
        sim.run_until(SimTime::from_secs_f64(2.0));
        assert!(sim.agent(tx).as_any().downcast_ref::<CbrSource>().unwrap().sent() > 100);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        let _ = CbrSource::new(NodeId::from_raw(0), 0.0, 1000, SimTime::ZERO);
    }

    fn onoff_sim(on_ms: u64, off_ms: u64, secs: f64) -> (u64, u64) {
        let mut b = SimBuilder::new(2);
        let src = b.add_node();
        let dst = b.add_node();
        b.add_duplex(src, dst, LinkConfig::mbps_ms(10.0, 5, 100));
        let mut sim = b.build();
        let flow = FlowId::from_raw(0);
        let tx = sim.add_agent(
            src,
            flow,
            Box::new(OnOffSource::new(
                dst,
                1e6,
                1000,
                SimDuration::from_millis(on_ms),
                SimDuration::from_millis(off_ms),
                SimTime::ZERO,
            )),
        );
        let rx = sim.add_agent(dst, flow, Box::new(CbrSink::new()));
        sim.run_until(SimTime::from_secs_f64(secs));
        let sent = sim.agent(tx).as_any().downcast_ref::<OnOffSource>().unwrap().sent();
        let recv = sim.agent(rx).as_any().downcast_ref::<CbrSink>().unwrap().received();
        (sent, recv)
    }

    #[test]
    fn onoff_duty_cycle_halves_the_volume() {
        // 1 Mbps = 125 packets/s when on; 50% duty cycle over 4 s ≈ 250.
        let (sent, recv) = onoff_sim(500, 500, 4.0);
        assert!((230..=270).contains(&sent), "sent {sent}");
        assert!(sent - recv <= 2, "no loss below capacity: {sent} vs {recv}");
    }

    #[test]
    fn onoff_sends_nothing_during_off_periods() {
        let mut b = SimBuilder::new(2);
        let src = b.add_node();
        let dst = b.add_node();
        b.add_duplex(src, dst, LinkConfig::mbps_ms(10.0, 5, 100));
        let mut sim = b.build();
        let flow = FlowId::from_raw(0);
        let tx = sim.add_agent(
            src,
            flow,
            Box::new(OnOffSource::new(
                dst,
                1e6,
                1000,
                SimDuration::from_millis(100),
                SimDuration::from_millis(900),
                SimTime::ZERO,
            )),
        );
        sim.add_agent(dst, flow, Box::new(CbrSink::new()));
        // End of the first burst: ~13 packets (125/s × 100 ms).
        sim.run_until(SimTime::from_secs_f64(0.11));
        let after_burst = sim.agent(tx).as_any().downcast_ref::<OnOffSource>().unwrap().sent();
        assert!((10..=15).contains(&after_burst), "first burst sent {after_burst}");
        // Deep inside the off period: nothing new.
        sim.run_until(SimTime::from_secs_f64(0.9));
        let in_off = sim.agent(tx).as_any().downcast_ref::<OnOffSource>().unwrap().sent();
        assert_eq!(in_off, after_burst, "off period must be silent");
        // Second burst fires on schedule.
        sim.run_until(SimTime::from_secs_f64(1.2));
        let second = sim.agent(tx).as_any().downcast_ref::<OnOffSource>().unwrap().sent();
        assert!(second > in_off, "second burst resumed");
    }

    #[test]
    fn onoff_runs_are_deterministic() {
        let a = onoff_sim(300, 700, 5.0);
        let b = onoff_sim(300, 700, 5.0);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "off period must be positive")]
    fn zero_off_period_rejected() {
        let _ = OnOffSource::new(
            NodeId::from_raw(0),
            1e6,
            1000,
            SimDuration::from_millis(100),
            SimDuration::ZERO,
            SimTime::ZERO,
        );
    }
}
