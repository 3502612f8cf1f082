//! BBR v1 congestion control (Cardwell et al., "BBR: Congestion-Based
//! Congestion Control", ACM Queue 2016; draft-cardwell-iccrg-bbr-00).
//!
//! BBR abandons loss as the primary congestion signal. It maintains an
//! explicit model of the path — the windowed **max delivery rate**
//! (`BtlBw`, over the last [`BbrConfig::bw_window_rounds`] packet-timed
//! round trips, via [`WindowedFilter`]) and the windowed **min RTT**
//! (`RTprop`, over the last [`BbrConfig::min_rtt_window`]) — and walks a
//! four-state machine around their product, the bandwidth-delay product:
//!
//! - **Startup**: pacing gain 2/ln 2 ≈ 2.885 doubles the sending rate each
//!   round until the bandwidth filter stops growing (< 25% over three
//!   rounds → "pipe filled").
//! - **Drain**: inverse gain empties the queue Startup built, until the
//!   flight drops to one BDP.
//! - **ProbeBW**: an eight-phase gain cycle `[1.25, 0.75, 1, 1, 1, 1, 1, 1]`,
//!   one `RTprop` per phase, probing for more bandwidth then yielding.
//! - **ProbeRTT**: when the min-RTT sample goes stale, shrink to 4 segments
//!   for 200 ms to re-measure the propagation delay.
//!
//! The rate is enforced by the host's pacing layer: this sender reports
//! `pacing_gain × BtlBw` through
//! [`TcpSenderAlgo::pacing_rate`](transport::sender::TcpSenderAlgo::pacing_rate)
//! and the host meters segments out on the agent's auxiliary sim-time
//! timer. Loss recovery is SACK-scoreboard driven, as in deployed BBR
//! stacks: a segment with `dupthresh` SACKed segments above it is marked
//! lost and retransmitted pipe-limited — many holes repair per round trip,
//! which matters after the deliberately lossy Startup overshoot. BBR v1
//! famously does *not* reduce its rate model on loss, which is exactly the
//! behavior the reordering face-off measures.

use netsim::time::{SimDuration, SimTime};
use transport::rto::RtoEstimator;
use transport::scoreboard::Scoreboard;
use transport::sender::{AckEvent, SenderOutput, TcpSenderAlgo};
use transport::seq_ring::SeqRing;
use transport::telemetry::count_ack;

use crate::windowed_filter::WindowedFilter;

/// Startup/drain pacing gain: 2/ln 2, the smallest gain that can double
/// the delivery rate each round trip.
const HIGH_GAIN: f64 = 2.885;
/// ProbeBW pacing-gain cycle, one phase per `RTprop`.
const CYCLE_GAINS: [f64; 8] = [1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
/// Floor on the congestion window, segments (keeps the ACK clock alive).
const MIN_PIPE_CWND: f64 = 4.0;
/// ProbeBW cwnd gain: two BDPs absorbs ACK aggregation.
const PROBE_BW_CWND_GAIN: f64 = 2.0;

/// The BBR state machine's current state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BbrState {
    /// Exponential rate growth until the pipe is judged full.
    Startup,
    /// Queue drain after startup overshoot.
    Drain,
    /// Steady-state bandwidth probing (eight-phase gain cycle).
    ProbeBw,
    /// Periodic window collapse to re-measure the propagation RTT.
    ProbeRtt,
}

impl BbrState {
    /// Small integer code used in telemetry `extra` counters.
    fn code(self) -> u64 {
        match self {
            BbrState::Startup => 0,
            BbrState::Drain => 1,
            BbrState::ProbeBw => 2,
            BbrState::ProbeRtt => 3,
        }
    }
}

/// Configuration for [`BbrSender`].
#[derive(Debug, Clone)]
pub struct BbrConfig {
    /// Upper bound on the congestion window, in segments.
    pub max_cwnd: f64,
    /// Initial congestion window, in segments.
    pub initial_cwnd: f64,
    /// Duplicate-ACK threshold for fast retransmit.
    pub dupthresh: u32,
    /// Window of the max-bandwidth filter, in packet-timed round trips.
    pub bw_window_rounds: u64,
    /// Window of the min-RTT estimate; a stale estimate triggers ProbeRTT.
    pub min_rtt_window: SimDuration,
    /// How long ProbeRTT holds the window at the floor.
    pub probe_rtt_duration: SimDuration,
    /// Retransmission-timeout estimator.
    pub rto: RtoEstimator,
}

impl Default for BbrConfig {
    fn default() -> Self {
        BbrConfig {
            max_cwnd: 10_000.0,
            initial_cwnd: MIN_PIPE_CWND,
            dupthresh: 3,
            bw_window_rounds: 10,
            min_rtt_window: SimDuration::from_secs(10),
            probe_rtt_duration: SimDuration::from_millis(200),
            rto: RtoEstimator::rfc2988(),
        }
    }
}

/// Event counters for [`BbrSender`].
#[derive(Debug, Clone, Copy, Default, serde::Serialize)]
pub struct BbrStats {
    /// Segments acknowledged.
    pub acked_segments: u64,
    /// Fast-retransmit events (loss-recovery episodes entered on SACKs).
    pub fast_retransmits: u64,
    /// Scoreboard-driven retransmissions of segments marked lost.
    pub scoreboard_retransmits: u64,
    /// Retransmission timeouts.
    pub timeouts: u64,
    /// Duplicate ACKs observed.
    pub dupacks: u64,
    /// Delivery-rate samples fed to the bandwidth filter.
    pub bw_samples: u64,
    /// ProbeRTT episodes entered.
    pub probe_rtt_entries: u64,
    /// Packet-timed round trips completed.
    pub rounds: u64,
}

/// What was recorded when a segment was (last) put on the wire, for
/// delivery-rate samples: `rate = Δdelivered / Δdelivered_time` between
/// the send-time snapshot and the (S)ACK that covers the segment.
#[derive(Debug, Clone, Copy)]
struct SendRecord {
    delivered: u64,
    /// Connection `delivered_time` when this segment was sent.
    delivered_time: SimTime,
    /// Ever retransmitted: ambiguous, so excluded from delivery-rate samples.
    retransmitted: bool,
}

/// A BBR v1 sender.
///
/// # Examples
///
/// ```
/// use cc::bbr::{BbrConfig, BbrSender, BbrState};
/// use transport::sender::{SenderOutput, TcpSenderAlgo};
/// use netsim::time::SimTime;
///
/// let mut s = BbrSender::new(BbrConfig::default());
/// let mut out = SenderOutput::new();
/// s.on_start(SimTime::ZERO, &mut out);
/// assert_eq!(out.transmissions().len(), 4);
/// assert_eq!(s.state(), BbrState::Startup);
/// ```
#[derive(Debug)]
pub struct BbrSender {
    cfg: BbrConfig,
    cwnd: f64,
    snd_una: u64,
    snd_nxt: u64,
    dupacks: u32,
    /// `Some(recover)`: in a loss-recovery episode until `recover` is acked.
    recovery: Option<u64>,
    rto: RtoEstimator,
    /// SACK scoreboard: segments the receiver holds out of order, those
    /// declared lost (`dupthresh` SACKed segments above them) and the lost
    /// ones retransmitted this episode.
    board: Scoreboard,
    /// The send record of every outstanding segment.
    records: SeqRing<SendRecord>,
    /// Segments delivered to the receiver — credited when first SACKed or
    /// cumulatively acked, whichever happens first, so recovery's burst of
    /// cumulative progress over long-SACKed data cannot inflate the rate.
    delivered: u64,
    /// When `delivered` last advanced (the rate-sample denominator).
    delivered_time: SimTime,
    /// Round accounting: a round ends when a segment sent after the
    /// previous round's end is acknowledged.
    next_round_delivered: u64,
    round_count: u64,
    round_start: bool,
    /// Max delivery rate, segments/s, keyed by round count (each round is
    /// one "tick" on the filter's time axis).
    bw_filter: WindowedFilter<f64>,
    min_rtt: Option<SimDuration>,
    min_rtt_stamp: SimTime,
    /// Latched when a sample found the estimate stale (the stamp is
    /// refreshed by that same sample, so staleness must be remembered
    /// for the ProbeRTT entry check).
    min_rtt_expired: bool,
    state: BbrState,
    pacing_gain: f64,
    cwnd_gain: f64,
    /// Startup full-pipe detection.
    full_bw: f64,
    full_bw_count: u32,
    filled_pipe: bool,
    /// ProbeBW gain-cycle position.
    cycle_index: usize,
    cycle_stamp: SimTime,
    /// ProbeRTT bookkeeping.
    probe_rtt_done: SimTime,
    prior_cwnd: f64,
    /// One round trip of packet conservation after a loss-recovery entry
    /// (Linux BBR's recovery cwnd modulation).
    packet_conservation: bool,
    conservation_ends_round: u64,
    stats: BbrStats,
}

impl BbrSender {
    /// Creates a sender in Startup.
    pub fn new(cfg: BbrConfig) -> Self {
        let rto = cfg.rto.clone();
        let cwnd = cfg.initial_cwnd.max(1.0);
        // The bandwidth filter's "clock" is the round counter: one nanosecond
        // of filter time per packet-timed round trip.
        let bw_filter = WindowedFilter::max_over(SimDuration::from_nanos(cfg.bw_window_rounds));
        BbrSender {
            cfg,
            cwnd,
            snd_una: 0,
            snd_nxt: 0,
            dupacks: 0,
            recovery: None,
            rto,
            board: Scoreboard::default(),
            records: SeqRing::default(),
            delivered: 0,
            delivered_time: SimTime::ZERO,
            next_round_delivered: 0,
            round_count: 0,
            round_start: false,
            bw_filter,
            min_rtt: None,
            min_rtt_stamp: SimTime::ZERO,
            min_rtt_expired: false,
            state: BbrState::Startup,
            pacing_gain: HIGH_GAIN,
            cwnd_gain: HIGH_GAIN,
            full_bw: 0.0,
            full_bw_count: 0,
            filled_pipe: false,
            cycle_index: 0,
            cycle_stamp: SimTime::ZERO,
            probe_rtt_done: SimTime::ZERO,
            prior_cwnd: cwnd,
            packet_conservation: false,
            conservation_ends_round: 0,
            stats: BbrStats::default(),
        }
    }

    /// Event counters.
    pub fn stats(&self) -> BbrStats {
        self.stats
    }

    /// Current state-machine state.
    pub fn state(&self) -> BbrState {
        self.state
    }

    /// Bottleneck-bandwidth estimate, segments/s, if any sample exists.
    pub fn btl_bw(&self) -> Option<f64> {
        self.bw_filter.get()
    }

    /// Propagation-RTT estimate, if any sample exists.
    pub fn rt_prop(&self) -> Option<SimDuration> {
        self.min_rtt
    }

    /// Smoothed RTT estimate, if sampled.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.rto.srtt()
    }

    /// The pipe estimate: segments believed in flight. SACKed segments
    /// have left the network; lost ones too, unless retransmitted.
    fn flight(&self) -> u64 {
        self.board.pipe(self.snd_una, self.snd_nxt)
    }

    /// Bandwidth-delay product in segments, once both estimates exist.
    fn bdp(&self) -> Option<f64> {
        let bw = self.btl_bw()?;
        let rtt = self.min_rtt?;
        Some(bw * rtt.as_secs_f64())
    }

    /// Fills the window: first lost-and-not-yet-retransmitted holes (in
    /// sequence order), then new data — pipe-limited, RFC 6675 NextSeg.
    fn send_allowed(&mut self, out: &mut SenderOutput) {
        let window = self.cwnd.min(self.cfg.max_cwnd);
        while (self.flight() as f64) < window {
            let (seq, is_rtx) = match self.board.next_retransmit() {
                Some(seq) => {
                    self.stats.scoreboard_retransmits += 1;
                    (seq, true)
                }
                None => {
                    let seq = self.snd_nxt;
                    self.snd_nxt += 1;
                    (seq, false)
                }
            };
            self.records.set(seq, self.send_record(is_rtx));
            out.transmit(seq, is_rtx);
        }
    }

    fn send_record(&self, retransmitted: bool) -> SendRecord {
        SendRecord { delivered: self.delivered, delivered_time: self.delivered_time, retransmitted }
    }

    /// Credits `n` newly delivered segments at time `now`.
    fn credit_delivered(&mut self, n: u64, now: SimTime) {
        if n > 0 {
            self.delivered += n;
            self.delivered_time = now;
        }
    }

    /// Takes one delivery-rate sample from `seq`'s send record, if it is
    /// unambiguous (never retransmitted) and spans a nonzero interval.
    fn bw_sample_from(&mut self, seq: u64) {
        let Some(rec) = self.records.get(seq).copied().filter(|rec| !rec.retransmitted) else {
            return;
        };
        let interval = self.delivered_time.saturating_since(rec.delivered_time);
        if interval > SimDuration::ZERO {
            let bw = (self.delivered - rec.delivered) as f64 / interval.as_secs_f64();
            self.bw_filter.update(bw, SimTime::from_nanos(self.round_count));
            self.stats.bw_samples += 1;
        }
    }

    fn arm_rto(&mut self, now: SimTime, out: &mut SenderOutput) {
        if self.snd_nxt > self.snd_una {
            out.set_timer(now + self.rto.rto());
        } else {
            out.cancel_timer();
        }
    }

    /// Opens a loss-recovery episode when the oldest outstanding segment
    /// is marked lost. BBR never touches the rate model here; the window
    /// drops to what is actually in flight (plus this ACK's deliveries)
    /// for one round of packet conservation, then regrows normally.
    fn maybe_enter_recovery(&mut self, acked: u64, now: SimTime, out: &mut SenderOutput) {
        if self.recovery.is_none() && self.board.is_lost(self.snd_una) {
            self.stats.fast_retransmits += 1;
            self.recovery = Some(self.snd_nxt);
            obs::span(now.as_nanos(), "cc.fast_rtx", || {
                format!("algo=bbr seq={} cwnd={:.2}", self.snd_una, self.cwnd)
            });
            obs::span(now.as_nanos(), "bbr.recovery_enter", || {
                format!("una={} recover={} flight={}", self.snd_una, self.snd_nxt, self.flight())
            });
            self.cwnd = (self.flight() as f64 + acked.max(1) as f64).max(MIN_PIPE_CWND);
            self.packet_conservation = true;
            self.conservation_ends_round = self.round_count + 1;
            if self.board.retransmit(self.snd_una) {
                self.stats.scoreboard_retransmits += 1;
                self.records.set(self.snd_una, self.send_record(true));
                out.transmit(self.snd_una, true);
            }
        }
    }

    /// Ingests the delivery-rate and RTT samples carried by one new ACK.
    fn update_model(&mut self, ack: &AckEvent, now: SimTime) {
        // Round accounting and bandwidth sample, from the send record of
        // the segment this ACK acknowledges.
        self.round_start = false;
        if let Some(rec) = self.records.get(ack.cum_ack - 1).copied() {
            if rec.delivered >= self.next_round_delivered {
                self.round_count += 1;
                self.stats.rounds += 1;
                self.next_round_delivered = self.delivered;
                self.round_start = true;
            }
            self.bw_sample_from(ack.cum_ack - 1);
        }
        // RTT sample: only first transmissions give unambiguous samples.
        if ack.echo_tx_count == 1 {
            let rtt = now.saturating_since(ack.echo_timestamp);
            self.rto.on_sample(rtt);
            let expired = now.saturating_since(self.min_rtt_stamp) > self.cfg.min_rtt_window;
            if expired && self.min_rtt.is_some() {
                self.min_rtt_expired = true;
            }
            if self.min_rtt.is_none_or(|m| rtt <= m) || expired {
                self.min_rtt = Some(rtt);
                self.min_rtt_stamp = now;
            }
        }
    }

    /// Advances the state machine after the model update.
    fn update_state(&mut self, now: SimTime) {
        let prev_state = self.state;
        let prev_cycle = self.cycle_index;
        match self.state {
            BbrState::Startup => {
                self.check_full_pipe();
                if self.filled_pipe {
                    self.state = BbrState::Drain;
                    self.pacing_gain = 1.0 / HIGH_GAIN;
                    // The spec keeps the high cwnd gain through Drain and
                    // lets pacing empty the queue; this sender is window-
                    // clocked as well as paced, so Drain must also pull the
                    // window down to one BDP or the flight never drains.
                    self.cwnd_gain = 1.0;
                }
            }
            BbrState::Drain => {
                if let Some(bdp) = self.bdp() {
                    if (self.flight() as f64) <= bdp {
                        self.enter_probe_bw(now);
                    }
                }
            }
            BbrState::ProbeBw => {
                let phase = self.min_rtt.unwrap_or_else(|| SimDuration::from_millis(200));
                if now.saturating_since(self.cycle_stamp) > phase {
                    self.cycle_index = (self.cycle_index + 1) % CYCLE_GAINS.len();
                    self.cycle_stamp = now;
                    self.pacing_gain = CYCLE_GAINS[self.cycle_index];
                }
            }
            BbrState::ProbeRtt => {
                if now >= self.probe_rtt_done {
                    self.min_rtt_stamp = now;
                    self.min_rtt_expired = false;
                    self.cwnd = self.prior_cwnd.max(MIN_PIPE_CWND);
                    if self.filled_pipe {
                        self.enter_probe_bw(now);
                    } else {
                        self.state = BbrState::Startup;
                        self.pacing_gain = HIGH_GAIN;
                        self.cwnd_gain = HIGH_GAIN;
                    }
                }
            }
        }
        // A stale min-RTT estimate schedules a ProbeRTT episode.
        if self.state != BbrState::ProbeRtt && self.min_rtt_expired {
            self.min_rtt_expired = false;
            self.stats.probe_rtt_entries += 1;
            self.state = BbrState::ProbeRtt;
            self.pacing_gain = 1.0;
            self.cwnd_gain = 1.0;
            self.prior_cwnd = self.cwnd;
            self.probe_rtt_done = now + self.cfg.probe_rtt_duration;
        }
        if self.state != prev_state {
            obs::span(now.as_nanos(), "bbr.state", || {
                format!(
                    "{:?}->{:?} pacing_gain={:.2} cwnd_gain={:.2}",
                    prev_state, self.state, self.pacing_gain, self.cwnd_gain
                )
            });
        } else if self.state == BbrState::ProbeBw && self.cycle_index != prev_cycle {
            obs::span(now.as_nanos(), "bbr.gain_cycle", || {
                format!("phase={} pacing_gain={:.2}", self.cycle_index, self.pacing_gain)
            });
        }
    }

    /// Startup exit test: the bandwidth filter grew < 25% for three
    /// consecutive rounds → the pipe is full.
    fn check_full_pipe(&mut self) {
        if !self.round_start || self.filled_pipe {
            return;
        }
        let Some(bw) = self.btl_bw() else { return };
        if bw >= self.full_bw * 1.25 {
            self.full_bw = bw;
            self.full_bw_count = 0;
        } else {
            self.full_bw_count += 1;
            if self.full_bw_count >= 3 {
                self.filled_pipe = true;
            }
        }
    }

    fn enter_probe_bw(&mut self, now: SimTime) {
        self.state = BbrState::ProbeBw;
        self.cwnd_gain = PROBE_BW_CWND_GAIN;
        // Deterministic cycle start on a cruise phase (the spec randomizes
        // over every phase but 0.75; a pure state machine has no RNG).
        self.cycle_index = 2;
        self.cycle_stamp = now;
        self.pacing_gain = CYCLE_GAINS[self.cycle_index];
    }

    /// Moves the window toward `cwnd_gain × BDP` (or the ProbeRTT floor).
    fn update_cwnd(&mut self, newly: u64) {
        if self.state == BbrState::ProbeRtt {
            self.cwnd = self.cwnd.min(MIN_PIPE_CWND);
            return;
        }
        if self.packet_conservation {
            // The recovery modulation in `on_ack` owns the window this round.
            return;
        }
        let grown = self.cwnd + newly as f64;
        self.cwnd = match self.bdp() {
            Some(bdp) => {
                let target = (self.cwnd_gain * bdp).max(MIN_PIPE_CWND);
                if self.filled_pipe {
                    grown.min(target)
                } else {
                    // Startup never shrinks the window below its growth.
                    grown.max(target.min(grown))
                }
            }
            None => grown,
        }
        .min(self.cfg.max_cwnd);
    }

    fn handle_new_ack(&mut self, ack: &AckEvent, now: SimTime) {
        let newly = ack.cum_ack - self.snd_una;
        self.stats.acked_segments += newly;
        // Segments already credited at SACK time must not be re-counted.
        let newly_delivered = newly - self.board.sacked_in(self.snd_una, ack.cum_ack);
        self.credit_delivered(newly_delivered, now);
        self.update_model(ack, now);
        self.snd_una = ack.cum_ack;
        self.snd_nxt = self.snd_nxt.max(ack.cum_ack);
        self.dupacks = 0;
        while self.records.pop_below(ack.cum_ack).is_some() {}
        self.board.advance(ack.cum_ack);
        if let Some(recover) = self.recovery {
            if ack.cum_ack >= recover {
                self.recovery = None;
                self.packet_conservation = false;
            }
        }
        self.update_state(now);
        self.update_cwnd(newly);
    }
}

impl transport::telemetry::SenderTelemetry for BbrSender {
    fn common_stats(&self) -> transport::telemetry::CommonStats {
        transport::telemetry::CommonStats {
            algorithm: self.name().to_owned(),
            acked_segments: self.stats.acked_segments,
            fast_retransmits: self.stats.fast_retransmits,
            timeouts: self.stats.timeouts,
            dupacks: self.stats.dupacks,
            cwnd: self.cwnd,
            ssthresh: self.ssthresh(),
            srtt: self.srtt(),
            rto: Some(self.rto.rto()),
            extra: vec![
                ("bbr_state".to_owned(), self.state.code()),
                ("bw_samples".to_owned(), self.stats.bw_samples),
                ("probe_rtt_entries".to_owned(), self.stats.probe_rtt_entries),
                ("rounds".to_owned(), self.stats.rounds),
                ("btl_bw_sps".to_owned(), self.btl_bw().unwrap_or(0.0).round() as u64),
                ("rt_prop_us".to_owned(), self.min_rtt.map_or(0, |d| d.as_nanos() / 1_000)),
                ("pacing_rate_sps".to_owned(), self.pacing_rate().unwrap_or(0.0).round() as u64),
            ],
            ..Default::default()
        }
    }
}

impl TcpSenderAlgo for BbrSender {
    fn on_start(&mut self, now: SimTime, out: &mut SenderOutput) {
        self.min_rtt_stamp = now;
        self.cycle_stamp = now;
        self.send_allowed(out);
        self.arm_rto(now, out);
    }

    fn on_ack(&mut self, ack: &AckEvent, now: SimTime, out: &mut SenderOutput) {
        let advanced = ack.cum_ack > self.snd_una;
        let newly = ack.cum_ack.saturating_sub(self.snd_una);
        let delivered_before = self.delivered;
        if advanced {
            self.handle_new_ack(ack, now);
        } else if ack.dup {
            self.dupacks += 1;
            self.stats.dupacks += 1;
        } else {
            return;
        }
        // Newly SACKed segments are credited as delivered (with a rate
        // sample, so the model stays live during recovery); every unsacked
        // segment with `dupthresh` SACKed segments above it is marked lost.
        let (newly_sacked, highest_new) = self.board.absorb(&ack.sack, self.snd_una, self.snd_nxt);
        self.credit_delivered(newly_sacked, now);
        if let Some(seq) = highest_new {
            self.bw_sample_from(seq);
        }
        let newly_lost = self.board.mark_lost(self.snd_una, self.cfg.dupthresh);
        let acked = self.delivered - delivered_before;
        self.maybe_enter_recovery(acked, now, out);
        // Each newly detected loss comes straight out of the window (Linux
        // BBR's `cwnd - rs->losses`): the slack the overshoot left in cwnd
        // melts away as the scoreboard learns what the queue dropped.
        if newly_lost > 0 {
            self.cwnd = (self.cwnd - newly_lost as f64).max(1.0);
        }
        // For one round after recovery entry, sending is purely ack-clocked
        // (each delivery releases at most one segment) so retransmissions
        // cannot re-overflow the bottleneck queue; afterwards normal cwnd
        // growth toward `cwnd_gain × BDP` resumes.
        if self.packet_conservation {
            if self.round_count >= self.conservation_ends_round {
                self.packet_conservation = false;
            } else {
                let floor = (self.flight() as f64 + acked as f64).max(MIN_PIPE_CWND);
                self.cwnd = self.cwnd.max(floor);
            }
        }
        self.send_allowed(out);
        // Restart the retransmission timer only on cumulative progress: a
        // dupack must not keep pushing the RTO into the future, or a lost
        // retransmission (which only the timer can repair) starves forever.
        if advanced {
            self.arm_rto(now, out);
        }
        // The record ring popped one slot per segment newly acknowledged.
        count_ack(self.board.take_steps() + newly, newly + newly_sacked + newly_lost);
    }

    fn on_timer(&mut self, now: SimTime, out: &mut SenderOutput) {
        if self.snd_nxt == self.snd_una {
            return;
        }
        self.stats.timeouts += 1;
        obs::span(now.as_nanos(), "cc.rto_expiry", || {
            format!("algo=bbr una={} flight={}", self.snd_una, self.snd_nxt - self.snd_una)
        });
        self.dupacks = 0;
        self.rto.backoff();
        // Everything unsacked is presumed lost and retransmits in order as
        // the window re-opens from the floor; the model (BtlBw × RTprop)
        // restores the operating point as ACKs return. The recovery marker
        // keeps the episode from double-counting as a fast retransmit.
        self.recovery = Some(self.snd_nxt);
        self.cwnd = 1.0;
        self.packet_conservation = false;
        self.board.mark_all_lost(self.snd_una, self.snd_nxt);
        self.send_allowed(out);
        self.arm_rto(now, out);
        // The timeout's full walk is not an ACK's cost.
        self.board.take_steps();
    }

    fn cwnd(&self) -> f64 {
        self.cwnd
    }

    fn ssthresh(&self) -> f64 {
        f64::INFINITY
    }

    fn name(&self) -> &'static str {
        "BBR"
    }

    fn in_flight(&self) -> usize {
        self.flight() as usize
    }

    fn pacing_rate(&self) -> Option<f64> {
        self.btl_bw().map(|bw| (self.pacing_gain * bw).max(1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> SimDuration {
        SimDuration::from_millis(x)
    }

    fn ack_at(cum: u64, sent: SimTime) -> AckEvent {
        AckEvent {
            cum_ack: cum,
            sack: Vec::new(),
            dsack: None,
            echo_timestamp: sent,
            echo_tx_count: 1,
            dup: false,
        }
    }

    fn dupack(cum: u64, sack: Vec<(u64, u64)>) -> AckEvent {
        AckEvent { dup: true, sack, ..ack_at(cum, SimTime::ZERO) }
    }

    /// Feeds in-order ACKs with a constant 10 ms RTT (ACK `i` arrives 10 ms
    /// after the segment it acknowledges was sent).
    fn run_acks(s: &mut BbrSender, from: u64, to: u64, mut now: SimTime) -> SimTime {
        let mut out = SenderOutput::new();
        for cum in from..=to {
            now += ms(1);
            s.on_ack(&ack_at(cum, now - ms(10)), now, &mut out);
            out.clear();
        }
        now
    }

    #[test]
    fn starts_in_startup_with_initial_window() {
        let mut s = BbrSender::new(BbrConfig::default());
        let mut out = SenderOutput::new();
        s.on_start(SimTime::ZERO, &mut out);
        assert_eq!(s.state(), BbrState::Startup);
        assert_eq!(out.transmissions().len(), 4);
        assert!(s.pacing_rate().is_none(), "no rate before the first bandwidth sample");
    }

    #[test]
    fn acks_produce_bandwidth_and_rtt_samples() {
        let mut s = BbrSender::new(BbrConfig::default());
        let mut out = SenderOutput::new();
        s.on_start(SimTime::ZERO, &mut out);
        out.clear();
        run_acks(&mut s, 1, 20, SimTime::from_secs_f64(0.010));
        assert!(s.btl_bw().is_some());
        assert!(s.rt_prop().is_some());
        assert!(s.stats().bw_samples > 0);
        assert!(s.pacing_rate().unwrap() > 0.0);
    }

    #[test]
    fn startup_exits_to_drain_when_bandwidth_plateaus() {
        let mut s = BbrSender::new(BbrConfig::default());
        let mut out = SenderOutput::new();
        s.on_start(SimTime::ZERO, &mut out);
        out.clear();
        // A long stream of evenly-clocked ACKs: the delivery rate stops
        // growing, so full-pipe detection must fire within a few rounds.
        let mut now = SimTime::from_secs_f64(0.010);
        let mut cum = 0;
        for _ in 0..300 {
            cum += 1;
            now = run_acks(&mut s, cum, cum, now);
            if s.state() != BbrState::Startup {
                break;
            }
        }
        assert_ne!(s.state(), BbrState::Startup, "plateaued bandwidth must end startup");
    }

    #[test]
    fn reaches_probe_bw_and_cycles_gains() {
        let mut s = BbrSender::new(BbrConfig::default());
        let mut out = SenderOutput::new();
        s.on_start(SimTime::ZERO, &mut out);
        out.clear();
        let mut now = SimTime::from_secs_f64(0.010);
        let mut cum = 0;
        for _ in 0..2_000 {
            cum += 1;
            now = run_acks(&mut s, cum, cum, now);
            if s.state() == BbrState::ProbeBw {
                break;
            }
        }
        assert_eq!(s.state(), BbrState::ProbeBw);
        // Across a few more simulated seconds, the gain cycle must visit
        // both the probing (1.25) and draining (0.75) phases.
        let mut seen = std::collections::HashSet::new();
        for _ in 0..2_000 {
            cum += 1;
            now = run_acks(&mut s, cum, cum, now);
            seen.insert((s.pacing_gain * 100.0) as u64);
        }
        assert!(seen.contains(&125), "gain cycle must probe");
        assert!(seen.contains(&75), "gain cycle must drain");
    }

    #[test]
    fn stale_min_rtt_triggers_probe_rtt() {
        let cfg = BbrConfig { min_rtt_window: SimDuration::from_secs(1), ..BbrConfig::default() };
        let mut s = BbrSender::new(cfg);
        let mut out = SenderOutput::new();
        s.on_start(SimTime::ZERO, &mut out);
        out.clear();
        // 10 ms RTTs establish the minimum; then a standing queue doubles
        // the measured RTT, so the minimum goes stale and must be re-probed.
        let mut now = SimTime::from_secs_f64(0.010);
        let mut cum = 0;
        let mut entered = false;
        for i in 0..5_000u64 {
            cum += 1;
            now += ms(1);
            let rtt = if i < 50 { ms(10) } else { ms(20) };
            s.on_ack(&ack_at(cum, now - rtt), now, &mut out);
            out.clear();
            if s.state() == BbrState::ProbeRtt {
                entered = true;
                break;
            }
        }
        assert!(entered, "min-RTT staleness must force ProbeRTT");
        assert!(s.cwnd() <= MIN_PIPE_CWND + 1e-9);
        assert!(s.stats().probe_rtt_entries >= 1);
    }

    #[test]
    fn sacked_holes_trigger_retransmit_without_model_reset() {
        let mut s = BbrSender::new(BbrConfig::default());
        let mut out = SenderOutput::new();
        s.on_start(SimTime::ZERO, &mut out);
        out.clear();
        let now = run_acks(&mut s, 1, 20, SimTime::from_secs_f64(0.010));
        let bw_before = s.btl_bw().unwrap();
        // Segment 20 is lost; 21..24 arrive and get SACKed — once dupthresh
        // segments sit above the hole, it is marked lost and retransmitted.
        out.clear();
        for end in [22, 23, 24] {
            s.on_ack(&dupack(20, vec![(21, end)]), now + ms(1), &mut out);
        }
        assert_eq!(s.stats().fast_retransmits, 1);
        let rtx: Vec<_> = out.transmissions().iter().filter(|t| t.is_retransmit).collect();
        assert_eq!(rtx.len(), 1);
        assert_eq!(rtx[0].seq, 20);
        // SACK deliveries still feed rate samples (a max filter only moves
        // up within its window) — but loss itself must never shrink it.
        assert!(s.btl_bw().unwrap() >= bw_before, "loss must not shrink the rate model");
    }

    #[test]
    fn timeout_presumes_outstanding_lost_with_minimal_window() {
        let mut s = BbrSender::new(BbrConfig::default());
        let mut out = SenderOutput::new();
        s.on_start(SimTime::ZERO, &mut out);
        out.clear();
        let now = run_acks(&mut s, 1, 8, SimTime::from_secs_f64(0.010));
        s.on_timer(now + SimDuration::from_secs(3), &mut out);
        assert_eq!(s.stats().timeouts, 1);
        // cwnd fell to the floor: exactly one retransmission (the oldest
        // hole) goes out now; the rest follow as the window re-opens.
        assert_eq!(out.transmissions().len(), 1);
        assert_eq!(out.transmissions()[0].seq, 8);
        assert!(out.transmissions()[0].is_retransmit);
    }

    #[test]
    fn no_fast_retransmit_right_after_timeout() {
        let mut s = BbrSender::new(BbrConfig::default());
        let mut out = SenderOutput::new();
        s.on_start(SimTime::ZERO, &mut out);
        out.clear();
        let now = run_acks(&mut s, 1, 8, SimTime::from_secs_f64(0.010));
        s.on_timer(now + SimDuration::from_secs(3), &mut out);
        out.clear();
        for i in 0..5 {
            s.on_ack(&dupack(8, vec![(9, 12)]), now + SimDuration::from_secs(3) + ms(i), &mut out);
        }
        assert_eq!(s.stats().fast_retransmits, 0, "timeout episode must not double-count");
    }
}
