//! Host adapters binding sender algorithms and receivers into the simulator.
//!
//! [`SenderHost`] wraps any [`TcpSenderAlgo`] as a netsim [`Agent`];
//! [`ReceiverHost`] does the same for the shared [`TcpReceiver`]. The
//! [`attach_flow`] helper wires a sender/receiver pair onto a topology.

use std::any::Any;
use std::collections::{HashMap, VecDeque};

use netsim::agent::{Agent, AgentCtx};
use netsim::ids::{AgentId, FlowId, NodeId};
use netsim::packet::{
    AckHeader, DataHeader, Packet, PacketKind, ACK_PACKET_BYTES, DATA_PACKET_BYTES,
};
use netsim::sim::Simulator;
use netsim::time::SimTime;

use crate::pacing::Pacer;
use crate::receiver::{ReceiverConfig, ReceiverStats, TcpReceiver};
use crate::sender::{AckEvent, SenderOutput, TcpSenderAlgo, TimerOp, Transmission};

/// Counters a sender host keeps.
#[derive(Debug, Clone, Copy, Default, serde::Serialize)]
pub struct SenderStats {
    /// Data segments put on the wire (including retransmissions).
    pub segments_sent: u64,
    /// Retransmitted segments.
    pub retransmits: u64,
    /// Highest cumulative ACK seen.
    pub last_cum_ack: u64,
    /// ACK packets processed.
    pub acks_received: u64,
    /// Segments that went through the pacer (zero for unpaced algorithms).
    pub paced_segments: u64,
}

/// Per-flow configuration for [`attach_flow`].
#[derive(Debug, Clone, Copy)]
pub struct FlowOptions {
    /// When the sender begins transmitting.
    pub start_at: SimTime,
    /// Receiver feature switches.
    pub receiver: ReceiverConfig,
    /// Delayed acknowledgments (RFC 1122): hold an in-order ACK for up to
    /// this long or until a second segment arrives; out-of-order arrivals
    /// are acknowledged immediately. `None` (the default, and ns-2
    /// `TCPSink`'s behaviour) acknowledges every segment.
    pub delayed_ack: Option<netsim::time::SimDuration>,
}

impl Default for FlowOptions {
    fn default() -> Self {
        FlowOptions {
            start_at: SimTime::ZERO,
            receiver: ReceiverConfig::default(),
            delayed_ack: None,
        }
    }
}

/// How many times each segment has been sent, in state bounded by the
/// window: dense counts from the cumulative ACK upward, pruned as it
/// advances. A pruned segment counts 1 unless `sparse` says otherwise.
#[derive(Debug, Default)]
struct TxCounts {
    /// Segment `dense[0]` counts: the cumulative ACK, or one past the
    /// highest segment sent if the ACK ran ahead of that.
    base: u64,
    /// Counts of `base..`; zero for a number skipped so far.
    dense: VecDeque<u32>,
    /// Pruned segments whose count is not 1 (retransmitted, or skipped),
    /// and whatever is sent below `base` afterwards.
    sparse: HashMap<u64, u32>,
}

impl TxCounts {
    /// Counts one more transmission of `seq` and returns the new count.
    fn bump(&mut self, seq: u64) -> u32 {
        let count = match seq.checked_sub(self.base) {
            Some(i) => {
                let i = usize::try_from(i).expect("segment is within a window of the ACK point");
                if i >= self.dense.len() {
                    self.dense.resize(i + 1, 0);
                }
                &mut self.dense[i]
            }
            None => self.sparse.entry(seq).or_insert(1),
        };
        *count += 1;
        *count
    }

    /// Forgets the segments below `cum_ack` that were sent exactly once.
    fn prune(&mut self, cum_ack: u64) {
        while self.base < cum_ack {
            let Some(count) = self.dense.pop_front() else { break };
            if count != 1 {
                self.sparse.insert(self.base, count);
            }
            self.base += 1;
        }
    }
}

/// A sender endpoint: hosts a [`TcpSenderAlgo`] on a node.
#[derive(Debug)]
pub struct SenderHost<S> {
    algo: S,
    dst: NodeId,
    start_at: SimTime,
    started: bool,
    tx_counts: TxCounts,
    stats: SenderStats,
    out: SenderOutput,
    pacer: Pacer,
}

impl<S: TcpSenderAlgo> SenderHost<S> {
    /// Creates a sender host that will transmit towards `dst`.
    pub fn new(algo: S, dst: NodeId, opts: &FlowOptions) -> Self {
        SenderHost {
            algo,
            dst,
            start_at: opts.start_at,
            started: false,
            tx_counts: TxCounts::default(),
            stats: SenderStats::default(),
            out: SenderOutput::new(),
            pacer: Pacer::new(),
        }
    }

    /// The wrapped algorithm.
    pub fn algo(&self) -> &S {
        &self.algo
    }

    /// Sender counters.
    pub fn stats(&self) -> SenderStats {
        self.stats
    }

    fn begin(&mut self, ctx: &mut AgentCtx<'_>) {
        self.started = true;
        self.algo.on_start(ctx.now, &mut self.out);
        self.apply_output(ctx);
    }

    fn apply_output(&mut self, ctx: &mut AgentCtx<'_>) {
        let transmissions = self.out.take_transmissions();
        match self.algo.pacing_rate() {
            Some(rate) => {
                for t in transmissions {
                    self.pacer.enqueue(t);
                }
                self.release_paced(ctx, rate);
            }
            None => {
                // The algorithm stopped pacing (or never paced); flush any
                // residue the pacer still holds, then send directly.
                for t in self.pacer.drain() {
                    self.send_segment(ctx, t);
                }
                for t in transmissions {
                    self.send_segment(ctx, t);
                }
            }
        }
        match self.out.timer() {
            TimerOp::Keep => {}
            TimerOp::Set(at) => ctx.set_timer(at),
            TimerOp::Cancel => ctx.cancel_timer(),
        }
        self.out.clear();
    }

    /// Releases every paced segment now due and re-arms the auxiliary timer
    /// for the next release instant, if any segment is still waiting.
    fn release_paced(&mut self, ctx: &mut AgentCtx<'_>, rate: f64) {
        let due = self.pacer.release_due(ctx.now, rate);
        if !due.is_empty() && obs::enabled() {
            obs::count("pacer.released", due.len() as u64);
            obs::observe("pacer.batch", due.len() as u64);
            obs::span(ctx.now.as_nanos(), "pacer.release", || {
                format!("batch={} rate_sps={:.0}", due.len(), rate)
            });
        }
        for t in due {
            self.stats.paced_segments += 1;
            self.send_segment(ctx, t);
        }
        if let Some(at) = self.pacer.next_deadline() {
            ctx.set_aux_timer(at);
        }
    }

    fn send_segment(&mut self, ctx: &mut AgentCtx<'_>, t: Transmission) {
        let tx_count = self.tx_counts.bump(t.seq);
        self.stats.segments_sent += 1;
        if t.is_retransmit {
            self.stats.retransmits += 1;
        }
        ctx.send(
            self.dst,
            DATA_PACKET_BYTES,
            PacketKind::Data(DataHeader {
                seq: t.seq,
                is_retransmit: t.is_retransmit,
                tx_count,
                timestamp: ctx.now,
            }),
        );
    }
}

impl<S: TcpSenderAlgo + 'static> Agent for SenderHost<S> {
    fn on_start(&mut self, ctx: &mut AgentCtx<'_>) {
        if self.start_at > ctx.now {
            ctx.set_timer(self.start_at);
        } else {
            self.begin(ctx);
        }
    }

    fn on_packet(&mut self, packet: Packet, ctx: &mut AgentCtx<'_>) {
        let PacketKind::Ack(h) = packet.kind else { return };
        if !self.started {
            return;
        }
        self.stats.acks_received += 1;
        self.stats.last_cum_ack = self.stats.last_cum_ack.max(h.cum_ack);
        self.tx_counts.prune(self.stats.last_cum_ack);
        let ack = AckEvent {
            cum_ack: h.cum_ack,
            sack: h.sack,
            dsack: h.dsack,
            echo_timestamp: h.echo_timestamp,
            echo_tx_count: h.echo_tx_count,
            dup: h.dup,
        };
        self.algo.on_ack(&ack, ctx.now, &mut self.out);
        self.apply_output(ctx);
    }

    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>) {
        if !self.started {
            self.begin(ctx);
        } else {
            self.algo.on_timer(ctx.now, &mut self.out);
            self.apply_output(ctx);
        }
    }

    fn on_aux_timer(&mut self, ctx: &mut AgentCtx<'_>) {
        match self.algo.pacing_rate() {
            Some(rate) => self.release_paced(ctx, rate),
            None => {
                for t in self.pacer.drain() {
                    self.send_segment(ctx, t);
                }
            }
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A receiver endpoint: hosts the shared [`TcpReceiver`] on a node.
#[derive(Debug)]
pub struct ReceiverHost {
    rx: TcpReceiver,
    acks_sent: u64,
    delayed_ack: Option<netsim::time::SimDuration>,
    /// ACK held back by the delayed-ACK timer, with its destination.
    pending: Option<(NodeId, AckHeader)>,
    /// In-order segments received since the last ACK was sent.
    unacked: u32,
}

impl ReceiverHost {
    /// Creates a receiver host that acknowledges every segment.
    pub fn new(cfg: ReceiverConfig) -> Self {
        ReceiverHost {
            rx: TcpReceiver::new(cfg),
            acks_sent: 0,
            delayed_ack: None,
            pending: None,
            unacked: 0,
        }
    }

    /// Creates a receiver host with delayed acknowledgments.
    pub fn with_delayed_ack(cfg: ReceiverConfig, delay: netsim::time::SimDuration) -> Self {
        ReceiverHost { delayed_ack: Some(delay), ..Self::new(cfg) }
    }

    /// In-order bytes delivered to the application so far.
    pub fn delivered_bytes(&self) -> u64 {
        self.rx.rcv_nxt() * DATA_PACKET_BYTES as u64
    }

    /// Bytes of distinct segments received so far (first arrivals,
    /// regardless of order). This is the throughput measure used by the
    /// experiment harnesses: unlike [`ReceiverHost::delivered_bytes`] it is
    /// timed by *arrival*, so a reorder hole straddling a measurement
    /// boundary cannot smear delivery into the wrong window.
    pub fn received_unique_bytes(&self) -> u64 {
        let stats = self.rx.stats();
        (stats.segments_received - stats.duplicates) * DATA_PACKET_BYTES as u64
    }

    /// In-order segments delivered so far.
    pub fn delivered_segments(&self) -> u64 {
        self.rx.rcv_nxt()
    }

    /// Arrival statistics (duplicates, reordering).
    pub fn receiver_stats(&self) -> ReceiverStats {
        self.rx.stats()
    }

    /// ACK packets emitted.
    pub fn acks_sent(&self) -> u64 {
        self.acks_sent
    }
}

impl ReceiverHost {
    fn emit(&mut self, ctx: &mut AgentCtx<'_>, dst: NodeId, header: AckHeader) {
        self.acks_sent += 1;
        self.unacked = 0;
        self.pending = None;
        ctx.send(dst, ACK_PACKET_BYTES, PacketKind::Ack(header));
    }
}

impl Agent for ReceiverHost {
    fn on_start(&mut self, _ctx: &mut AgentCtx<'_>) {}

    fn on_packet(&mut self, packet: Packet, ctx: &mut AgentCtx<'_>) {
        let PacketKind::Data(h) = &packet.kind else { return };
        let ack = self.rx.on_data(h.seq);
        if obs::enabled() {
            obs::observe("receiver.buffered", self.rx.buffered() as u64);
            obs::observe("receiver.runs", self.rx.runs() as u64);
        }
        let header = AckHeader {
            cum_ack: ack.cum_ack,
            sack: ack.sack,
            dsack: ack.dsack,
            echo_timestamp: h.timestamp,
            echo_tx_count: h.tx_count,
            dup: ack.dup,
        };
        match self.delayed_ack {
            None => self.emit(ctx, packet.src, header),
            Some(delay) => {
                // RFC 5681: out-of-order (or duplicate) arrivals are
                // acknowledged immediately; in-order data may be delayed for
                // up to `delay` or one extra segment.
                self.unacked += 1;
                if header.dup || header.dsack.is_some() || self.unacked >= 2 {
                    self.emit(ctx, packet.src, header);
                    ctx.cancel_timer();
                } else {
                    self.pending = Some((packet.src, header));
                    ctx.set_timer(ctx.now + delay);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>) {
        if let Some((dst, header)) = self.pending.take() {
            self.emit(ctx, dst, header);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Agent ids of an attached flow.
#[derive(Debug, Clone, Copy)]
pub struct FlowHandle {
    /// The flow id shared by both endpoints.
    pub flow: FlowId,
    /// Sender agent.
    pub sender: AgentId,
    /// Receiver agent.
    pub receiver: AgentId,
}

/// Attaches a sender running `algo` at `src` and a matching receiver at
/// `dst`, both serving `flow`.
///
/// # Panics
///
/// Panics if `flow` already has an agent at either node.
pub fn attach_flow<S: TcpSenderAlgo + 'static>(
    sim: &mut Simulator,
    flow: FlowId,
    src: NodeId,
    dst: NodeId,
    algo: S,
    opts: FlowOptions,
) -> FlowHandle {
    let sender = sim.add_agent(src, flow, Box::new(SenderHost::new(algo, dst, &opts)));
    let rx_host = match opts.delayed_ack {
        None => ReceiverHost::new(opts.receiver),
        Some(delay) => ReceiverHost::with_delayed_ack(opts.receiver, delay),
    };
    let receiver = sim.add_agent(dst, flow, Box::new(rx_host));
    FlowHandle { flow, sender, receiver }
}

/// Reads a flow's receiver host back out of the simulator.
///
/// # Panics
///
/// Panics if `id` is not a [`ReceiverHost`].
pub fn receiver_host(sim: &Simulator, id: AgentId) -> &ReceiverHost {
    sim.agent(id).as_any().downcast_ref::<ReceiverHost>().expect("agent is a ReceiverHost")
}

/// Reads a flow's sender host back out of the simulator.
///
/// # Panics
///
/// Panics if `id` is not a `SenderHost<S>` with the given `S`.
pub fn sender_host<S: TcpSenderAlgo + 'static>(sim: &Simulator, id: AgentId) -> &SenderHost<S> {
    sim.agent(id).as_any().downcast_ref::<SenderHost<S>>().expect("agent is a SenderHost<S>")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed_window::FixedWindowSender;
    use netsim::link::LinkConfig;
    use netsim::sim::SimBuilder;
    use netsim::time::SimDuration;

    fn two_node() -> (Simulator, NodeId, NodeId) {
        let mut b = SimBuilder::new(7);
        let src = b.add_node();
        let dst = b.add_node();
        b.add_duplex(src, dst, LinkConfig::mbps_ms(10.0, 10, 500));
        (b.build(), src, dst)
    }

    fn fixed(window: usize) -> FixedWindowSender {
        FixedWindowSender::new(window, SimDuration::from_secs(2))
    }

    proptest::proptest! {
        /// Every send returns what a map that never forgets would return.
        #[test]
        fn tx_counts_match_a_map_of_every_segment_ever_sent(
            ops in proptest::collection::vec((0u8..10, 0u64..40), 200..1500),
        ) {
            let mut counts = TxCounts::default();
            let mut reference: HashMap<u64, u32> = HashMap::new();
            let (mut cum_ack, mut next) = (0u64, 0u64);
            for (op, k) in ops {
                let seq = match op {
                    // In order, at the ACK point (a retransmission, usually),
                    // anywhere in the window, far above it, below it.
                    0..=3 => next,
                    4 => cum_ack,
                    5 => cum_ack + k % (next - cum_ack.min(next) + 1),
                    6 => cum_ack.max(next) + k * 7,
                    7 => cum_ack.saturating_sub(k + 1),
                    // The ACK advances — now and then over numbers never sent.
                    _ => {
                        cum_ack += if k == 0 { 50 } else { k % 8 };
                        counts.prune(cum_ack);
                        continue;
                    }
                };
                next = next.max(seq + 1);
                let expected = reference.entry(seq).or_insert(0);
                *expected += 1;
                proptest::prop_assert_eq!(counts.bump(seq), *expected, "segment {}", seq);
            }
        }
    }

    #[test]
    fn tx_counts_stay_bounded_by_window_and_retransmissions() {
        let mut counts = TxCounts::default();
        let (window, mut retransmitted) = (64u64, 0usize);
        for seq in 0..100_000u64 {
            assert_eq!(counts.bump(seq), 1);
            if seq >= window {
                let acked = seq - window;
                // One segment in a thousand was lost and goes out again
                // just before the ACK passes it.
                if acked % 1000 == 0 {
                    assert_eq!(counts.bump(acked), 2);
                    retransmitted += 1;
                }
                counts.prune(acked + 1);
            }
            let tracked = counts.dense.len() + counts.sparse.len();
            assert!(tracked <= window as usize + retransmitted);
        }
        assert_eq!((counts.dense.len(), counts.sparse.len()), (window as usize, 100));
        // Below the ACK point a forgotten segment counts once, a
        // remembered one what it had.
        assert_eq!((counts.bump(1_001), counts.bump(1_000)), (2, 3));
    }

    #[test]
    fn ack_per_segment_by_default() {
        let (mut sim, src, dst) = two_node();
        let h =
            attach_flow(&mut sim, FlowId::from_raw(0), src, dst, fixed(8), FlowOptions::default());
        sim.run_until(SimTime::from_secs_f64(2.0));
        let rx = receiver_host(&sim, h.receiver);
        assert_eq!(rx.acks_sent(), rx.delivered_segments(), "one ACK per segment");
        assert!(rx.delivered_segments() > 100);
    }

    #[test]
    fn delayed_ack_halves_ack_count_in_order() {
        let (mut sim, src, dst) = two_node();
        let opts = FlowOptions {
            delayed_ack: Some(SimDuration::from_millis(100)),
            ..FlowOptions::default()
        };
        let h = attach_flow(&mut sim, FlowId::from_raw(0), src, dst, fixed(8), opts);
        sim.run_until(SimTime::from_secs_f64(2.0));
        let rx = receiver_host(&sim, h.receiver);
        let delivered = rx.delivered_segments();
        assert!(delivered > 100);
        let acks = rx.acks_sent();
        // In steady in-order flow, roughly one ACK per two segments.
        assert!(
            acks as f64 <= delivered as f64 * 0.65,
            "delayed ACKs should batch: {acks} acks for {delivered} segments"
        );
    }

    #[test]
    fn delayed_ack_timer_flushes_a_lone_segment() {
        let (mut sim, src, dst) = two_node();
        let opts = FlowOptions {
            delayed_ack: Some(SimDuration::from_millis(100)),
            ..FlowOptions::default()
        };
        // Window 1: every segment arrives alone, so every ACK must come
        // from the delayed-ACK timer.
        let h = attach_flow(&mut sim, FlowId::from_raw(0), src, dst, fixed(1), opts);
        sim.run_until(SimTime::from_secs_f64(2.0));
        let rx = receiver_host(&sim, h.receiver);
        assert!(rx.delivered_segments() >= 5, "flow must make progress via the timer");
        // Every delivered segment is eventually acknowledged by the timer;
        // the last one may still be pending at the cutoff.
        assert!(rx.delivered_segments() - rx.acks_sent() <= 1);
    }

    #[test]
    fn sender_start_offset_is_honored() {
        let (mut sim, src, dst) = two_node();
        let opts = FlowOptions { start_at: SimTime::from_secs_f64(1.0), ..FlowOptions::default() };
        let h = attach_flow(&mut sim, FlowId::from_raw(0), src, dst, fixed(4), opts);
        sim.run_until(SimTime::from_secs_f64(0.9));
        assert_eq!(sender_host::<FixedWindowSender>(&sim, h.sender).stats().segments_sent, 0);
        sim.run_until(SimTime::from_secs_f64(2.0));
        assert!(sender_host::<FixedWindowSender>(&sim, h.sender).stats().segments_sent > 0);
    }

    /// A fixed-window sender that asks the host to pace its segments.
    #[derive(Debug)]
    struct PacedFixed {
        inner: FixedWindowSender,
        rate: f64,
    }

    impl crate::telemetry::SenderTelemetry for PacedFixed {
        fn common_stats(&self) -> crate::telemetry::CommonStats {
            self.inner.common_stats()
        }
    }

    impl TcpSenderAlgo for PacedFixed {
        fn on_start(&mut self, now: SimTime, out: &mut SenderOutput) {
            self.inner.on_start(now, out);
        }
        fn on_ack(&mut self, ack: &AckEvent, now: SimTime, out: &mut SenderOutput) {
            self.inner.on_ack(ack, now, out);
        }
        fn on_timer(&mut self, now: SimTime, out: &mut SenderOutput) {
            self.inner.on_timer(now, out);
        }
        fn cwnd(&self) -> f64 {
            self.inner.cwnd()
        }
        fn ssthresh(&self) -> f64 {
            self.inner.ssthresh()
        }
        fn name(&self) -> &'static str {
            "paced-fixed"
        }
        fn in_flight(&self) -> usize {
            self.inner.in_flight()
        }
        fn pacing_rate(&self) -> Option<f64> {
            Some(self.rate)
        }
    }

    #[test]
    fn paced_sender_spaces_segments_at_the_requested_rate() {
        let (mut sim, src, dst) = two_node();
        sim.enable_trace(&[], 100_000);
        // 50 segments/s → 20 ms spacing, far wider than the 0.8 ms
        // serialization time of the 10 Mbps link.
        let algo = PacedFixed { inner: fixed(8), rate: 50.0 };
        let h = attach_flow(&mut sim, FlowId::from_raw(0), src, dst, algo, FlowOptions::default());
        sim.run_until(SimTime::from_secs_f64(2.0));
        let host = sender_host::<PacedFixed>(&sim, h.sender);
        let stats = host.stats();
        assert!(stats.segments_sent > 50, "paced flow must make progress");
        assert_eq!(stats.paced_segments, stats.segments_sent, "every segment goes via the pacer");
        // Injection instants must be spaced by exactly the pacing interval.
        let injections: Vec<SimTime> = sim
            .trace_records()
            .iter()
            .filter(|r| matches!(r.kind, netsim::trace::TraceEventKind::Injected) && !r.is_ack)
            .map(|r| r.at)
            .collect();
        for pair in injections.windows(2) {
            assert!(
                pair[1] - pair[0] >= SimDuration::from_millis(20),
                "injections {:?} closer than the pacing interval",
                pair
            );
        }
    }

    #[test]
    fn unpaced_sender_never_touches_the_pacer() {
        let (mut sim, src, dst) = two_node();
        let h =
            attach_flow(&mut sim, FlowId::from_raw(0), src, dst, fixed(8), FlowOptions::default());
        sim.run_until(SimTime::from_secs_f64(2.0));
        let stats = sender_host::<FixedWindowSender>(&sim, h.sender).stats();
        assert!(stats.segments_sent > 100);
        assert_eq!(stats.paced_segments, 0);
    }
}
