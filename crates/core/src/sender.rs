//! The TCP-PR sender (Table 1 of the paper, plus the Section 3.2
//! extreme-loss extension).
//!
//! TCP-PR never interprets duplicate acknowledgments. A packet is declared
//! lost if and only if it has been outstanding longer than
//! `mxrtt = β · ewrtt`. Because of this, reordering of data *or* ACK packets
//! has no effect on the control law — the property the paper's Figure 6
//! demonstrates.
//!
//! Key mechanics reproduced exactly:
//!
//! - per-packet drop timers over the `to-be-ack` list;
//! - `ewrtt = max(α^(1/cwnd)·ewrtt, sample)` with Newton's method for the
//!   root (see [`crate::ewrtt`]);
//! - on a drop, the window is halved **from the window's value when the
//!   dropped packet was sent** (`cwnd := cwnd(n)/2`), making the algorithm
//!   insensitive to detection latency;
//! - the `memorize` snapshot: packets outstanding at a halving whose drops
//!   must not halve the window again (one congestion response per burst, in
//!   the spirit of NewReno/SACK);
//! - extreme-loss mode: when more than `cwnd/2 + 1` packets of a burst are
//!   lost, reset `cwnd` to 1, raise `mxrtt` to ≥ 1 s, delay transmission by
//!   `mxrtt`, and double `mxrtt` on further new drops (TCP's exponential
//!   backoff).

use netsim::time::{SimDuration, SimTime};
use transport::sender::{AckEvent, SenderOutput, TcpSenderAlgo};
use transport::telemetry::count_ack;

use crate::config::TcpPrConfig;
use crate::ewrtt::EwrttEstimator;
use crate::lists::PacketBook;

/// Drop threshold used before the first RTT sample arrives (plays the role
/// of TCP's 3 s initial RTO).
const INITIAL_MXRTT: SimDuration = SimDuration::from_secs(3);

/// Extreme-loss floor for `mxrtt` (the paper raises `mxrtt` to one second,
/// mirroring RFC 2988 coarse timers).
const BACKOFF_FLOOR: SimDuration = SimDuration::from_secs(1);

/// Upper clamp for the exponentially backed-off `mxrtt`.
const MAX_BACKOFF: SimDuration = SimDuration::from_secs(64);

/// Congestion-window growth mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Exponential growth: `cwnd += 1` per acked packet. Entered at start
    /// and after extreme losses.
    SlowStart,
    /// Linear growth: `cwnd += 1/cwnd` per acked packet. Entered at the
    /// first detected loss and never left during normal operation.
    CongestionAvoidance,
}

/// Event counters kept by a [`TcpPrSender`].
#[derive(Debug, Clone, Copy, Default, serde::Serialize)]
pub struct TcpPrStats {
    /// Packets declared dropped by timer expiry.
    pub drops_detected: u64,
    /// Window halvings (one per congestion event).
    pub window_halvings: u64,
    /// Drops absorbed by the `memorize` list (no additional halving).
    pub memorize_drops: u64,
    /// Extreme-loss episodes (`cwnd` reset to 1).
    pub extreme_loss_events: u64,
    /// `mxrtt` doublings while in extreme-loss backoff.
    pub backoff_doublings: u64,
}

/// The TCP-PR sender algorithm.
///
/// Implements [`TcpSenderAlgo`], so it can be attached to a simulation with
/// [`transport::host::attach_flow`] or driven directly in tests.
///
/// # Examples
///
/// Drive the state machine by hand:
///
/// ```
/// use tcp_pr::{TcpPrConfig, TcpPrSender};
/// use transport::sender::{SenderOutput, TcpSenderAlgo};
/// use netsim::time::SimTime;
///
/// let mut s = TcpPrSender::new(TcpPrConfig::default());
/// let mut out = SenderOutput::new();
/// s.on_start(SimTime::ZERO, &mut out);
/// assert_eq!(out.transmissions().len(), 1); // initial window of one
/// assert_eq!(s.cwnd(), 1.0);
/// ```
#[derive(Debug)]
pub struct TcpPrSender {
    cfg: TcpPrConfig,
    mode: Mode,
    cwnd: f64,
    ssthr: f64,
    book: PacketBook,
    ewrtt: EwrttEstimator,
    /// Drops in the current burst (`cburst` in Section 3.2).
    cburst: u64,
    /// `Some(mxrtt)` while in extreme-loss backoff; overrides `β·ewrtt`.
    backoff: Option<SimDuration>,
    /// Transmission is suspended until this instant (extreme-loss delay).
    paused_until: Option<SimTime>,
    stats: TcpPrStats,
}

impl TcpPrSender {
    /// Creates a sender in slow-start with `cwnd = 1`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`TcpPrConfig::validate`].
    pub fn new(cfg: TcpPrConfig) -> Self {
        cfg.validate();
        TcpPrSender {
            cfg,
            mode: Mode::SlowStart,
            cwnd: 1.0,
            ssthr: f64::INFINITY,
            book: PacketBook::new(),
            ewrtt: EwrttEstimator::new(cfg.alpha),
            cburst: 0,
            backoff: None,
            paused_until: None,
            stats: TcpPrStats::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TcpPrConfig {
        &self.cfg
    }

    /// Current growth mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Event counters.
    pub fn stats(&self) -> TcpPrStats {
        self.stats
    }

    /// The current drop threshold `mxrtt` (backoff override, `β·ewrtt`, or
    /// `INITIAL_MXRTT`, 3 s, before any RTT sample).
    pub fn mxrtt(&self) -> SimDuration {
        if let Some(b) = self.backoff {
            return b;
        }
        match self.ewrtt.current() {
            Some(e) => e * self.cfg.beta,
            None => INITIAL_MXRTT,
        }
    }

    /// The exponentially-weighted maximum RTT estimate, if sampled.
    pub fn ewrtt(&self) -> Option<SimDuration> {
        self.ewrtt.current()
    }

    /// True while the sender is in extreme-loss backoff.
    pub fn in_backoff(&self) -> bool {
        self.backoff.is_some()
    }

    /// Read access to the packet book (diagnostics and tests).
    pub fn book(&self) -> &PacketBook {
        &self.book
    }

    fn paused(&self, now: SimTime) -> bool {
        self.paused_until.is_some_and(|p| now < p)
    }

    /// Table 1 `flush-cwnd`: transmit while the window exceeds the number of
    /// outstanding packets. The memorized flight is excluded from the
    /// occupancy count (its packets are either buffered at the receiver or
    /// lost; counting them would block the very retransmission that
    /// resolves them). Each retransmission put on the wire suspends the
    /// memorized packets' drop timers for one `ewrtt` — see
    /// [`PacketBook::defer_memorize`].
    fn flush_cwnd(&mut self, now: SimTime, out: &mut SenderOutput) {
        if self.paused(now) {
            return;
        }
        let mut sent_retransmission = false;
        while (self.book.active_outstanding() as f64) < self.cwnd {
            let (seq, is_retransmit) = self.book.send_next(now, self.cwnd);
            sent_retransmission |= is_retransmit;
            out.transmit(seq, is_retransmit);
        }
        if sent_retransmission {
            if let Some(ewrtt) = self.ewrtt.current() {
                // Deadline for the memorized flight becomes ≥ now + ewrtt:
                // effective stamp = now − (mxrtt − ewrtt) = now − (β−1)·ewrtt.
                let hold = ewrtt * (self.cfg.beta - 1.0);
                let floor = SimTime::from_nanos(now.as_nanos().saturating_sub(hold.as_nanos()));
                self.book.defer_memorize(floor);
            }
        }
    }

    fn arm_timer(&self, now: SimTime, out: &mut SenderOutput) {
        let mxrtt = self.mxrtt();
        // The drop threshold is TCP-PR's central timer decision; its
        // distribution over the run is the profile a timer wheel must serve.
        obs::observe("tcppr.mxrtt_ns", mxrtt.as_nanos());
        let mut deadline = self.book.earliest_deadline(mxrtt);
        if let Some(p) = self.paused_until {
            if now < p {
                deadline = Some(deadline.map_or(p, |d| d.min(p)));
            }
        }
        match deadline {
            Some(d) => out.set_timer(d.max(now)),
            None => out.cancel_timer(),
        }
    }

    /// Table 1 drop handler for one expired packet.
    fn handle_drop(&mut self, seq: u64, now: SimTime) {
        self.stats.drops_detected += 1;
        let record = self.book.mark_dropped(seq);
        if record.in_memorize && !self.cfg.ablate_no_memorize {
            // The window already reacted to this burst: absorb the drop.
            self.stats.memorize_drops += 1;
            self.cburst += 1;
            obs::span(now.as_nanos(), "tcppr.memorize_drop", || {
                format!("seq={} cburst={} cwnd={:.2}", seq, self.cburst, self.cwnd)
            });
            if self.backoff.is_none()
                && !self.cfg.ablate_no_extreme_loss
                && self.cburst as f64 > self.cwnd / 2.0 + 1.0
            {
                self.enter_extreme_loss(now);
            }
            if self.book.memorize_len() == 0 {
                self.cburst = 0;
            }
        } else if self.backoff.is_some() {
            // A new drop while cwnd = 1: double mxrtt instead of halving.
            self.stats.backoff_doublings += 1;
            let doubled = self.backoff.expect("checked is_some").saturating_mul(2).min(MAX_BACKOFF);
            self.backoff = Some(doubled);
            self.paused_until = Some(now + doubled);
            obs::span(now.as_nanos(), "tcppr.backoff_double", || {
                format!("seq={} mxrtt_ns={}", seq, doubled.as_nanos())
            });
        } else {
            // First drop of a burst: halve from the send-time window
            // snapshot and memorize everything else in flight. The
            // memorized packets keep their own deadlines, so the rest of
            // the flight re-expires (and the window re-opens) with the
            // spacing of the original transmissions.
            self.book.snapshot_memorize();
            let basis = if self.cfg.ablate_halve_current { self.cwnd } else { record.cwnd_at_send };
            self.cwnd = (basis / 2.0).max(1.0);
            self.ssthr = self.cwnd;
            self.mode = Mode::CongestionAvoidance;
            self.stats.window_halvings += 1;
            obs::span(now.as_nanos(), "tcppr.halve", || {
                format!("seq={} basis={:.2} cwnd={:.2}", seq, basis, self.cwnd)
            });
        }
    }

    /// Section 3.2: reset to one segment, raise `mxrtt` to at least the
    /// backoff floor (1 s), and delay transmission by `mxrtt`.
    fn enter_extreme_loss(&mut self, now: SimTime) {
        self.stats.extreme_loss_events += 1;
        self.cwnd = 1.0;
        self.mode = Mode::SlowStart;
        // The entire outstanding flight is written off (coarse-timeout
        // semantics): memorizing it lets the single probe retransmission
        // open the window, and only drops of packets sent *after* this
        // point (the probes) double the backoff.
        self.book.snapshot_memorize();
        let b = self.mxrtt().max(BACKOFF_FLOOR).min(MAX_BACKOFF);
        self.backoff = Some(b);
        self.paused_until = Some(now + b);
        self.cburst = 0;
        obs::span(now.as_nanos(), "tcppr.extreme_loss", || {
            format!("backoff_ns={} paused_until_ns={}", b.as_nanos(), (now + b).as_nanos())
        });
    }
}

impl TcpSenderAlgo for TcpPrSender {
    fn on_start(&mut self, now: SimTime, out: &mut SenderOutput) {
        self.flush_cwnd(now, out);
        self.arm_timer(now, out);
    }

    fn on_ack(&mut self, ack: &AckEvent, now: SimTime, out: &mut SenderOutput) {
        // TCP-PR ignores duplicate ACKs and SACK information entirely; only
        // the cumulative point matters.
        let Some((trigger, acked)) = self.book.ack_below(ack.cum_ack) else {
            self.arm_timer(now, out);
            count_ack(self.book.take_steps(), 0);
            return;
        };
        // Progress ends any extreme-loss episode and the current drop burst.
        if self.backoff.take().is_some() {
            self.paused_until = None;
            obs::span(now.as_nanos(), "tcppr.backoff_clear", || format!("cum_ack={}", ack.cum_ack));
        }
        self.cburst = 0;
        // RTT sample: Table 1 uses "the RTT for the packet whose
        // acknowledgment just arrived". When a cumulative ACK covers many
        // packets, the packet that *triggered* it is the hole-filler — the
        // lowest newly-acked sequence. The later packets were acknowledged
        // only implicitly; measuring them from their send times would fold
        // the hole-wait into the sample and make `ewrtt` (and with it
        // `mxrtt = β·ewrtt`) diverge geometrically under loss. A trigger
        // that was ever retransmitted is ambiguous (Karn) and not sampled.
        if !trigger.retransmitted {
            self.ewrtt.on_sample(now.saturating_since(trigger.sent_at), self.cwnd);
        }
        for _ in 0..acked {
            if self.mode == Mode::SlowStart && self.cwnd + 1.0 <= self.ssthr {
                self.cwnd += 1.0;
            } else {
                self.mode = Mode::CongestionAvoidance;
                self.cwnd += 1.0 / self.cwnd;
            }
            self.cwnd = self.cwnd.min(self.cfg.max_cwnd);
        }
        self.flush_cwnd(now, out);
        self.arm_timer(now, out);
        count_ack(self.book.take_steps(), acked as u64);
    }

    fn on_timer(&mut self, now: SimTime, out: &mut SenderOutput) {
        if let Some(p) = self.paused_until {
            if now >= p {
                self.paused_until = None;
            }
        }
        // Process expirations one at a time: handling a drop can change
        // mxrtt (extreme-loss backoff), which changes later deadlines.
        while let Some(seq) = self.book.first_expired(now, self.mxrtt()) {
            self.handle_drop(seq, now);
        }
        self.flush_cwnd(now, out);
        self.arm_timer(now, out);
        // A timer's sends are not an ACK's cost.
        self.book.take_steps();
    }

    fn cwnd(&self) -> f64 {
        self.cwnd
    }

    fn ssthresh(&self) -> f64 {
        self.ssthr
    }

    /// `ewrtt`, TCP-PR's smoothed RTT bound.
    fn srtt(&self) -> Option<SimDuration> {
        self.ewrtt()
    }

    /// `mxrtt`, the age at which a packet is declared lost: TCP-PR's
    /// analogue of the RTO.
    fn rto(&self) -> Option<SimDuration> {
        Some(self.mxrtt())
    }

    fn in_flight(&self) -> usize {
        self.book.outstanding()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> SimDuration {
        SimDuration::from_millis(x)
    }

    fn at(ms_: u64) -> SimTime {
        SimTime::ZERO + ms(ms_)
    }

    fn ack(cum: u64) -> AckEvent {
        AckEvent {
            cum_ack: cum,
            sack: Vec::new(),
            dsack: None,
            echo_timestamp: SimTime::ZERO,
            echo_tx_count: 1,
            dup: cum == 0,
        }
    }

    fn dupack(cum: u64) -> AckEvent {
        AckEvent { dup: true, ..ack(cum) }
    }

    /// Starts a sender and ACKs everything promptly until `cwnd` reaches at
    /// least `target`, returning the clock.
    fn grow_window(s: &mut TcpPrSender, target: f64) -> SimTime {
        let mut out = SenderOutput::new();
        s.on_start(SimTime::ZERO, &mut out);
        let mut now = SimTime::ZERO;
        let mut acked = 0u64;
        while s.cwnd() < target {
            now += ms(10);
            acked += 1;
            s.on_ack(&ack(acked), now, &mut out);
            out.clear();
        }
        now
    }

    #[test]
    fn slow_start_doubles_per_round_trip() {
        let mut s = TcpPrSender::new(TcpPrConfig::default());
        let mut out = SenderOutput::new();
        s.on_start(SimTime::ZERO, &mut out);
        assert_eq!(out.transmissions().len(), 1);
        out.clear();
        // ACK of packet 0: cwnd 1 → 2, two more packets go out.
        s.on_ack(&ack(1), at(100), &mut out);
        assert_eq!(s.cwnd(), 2.0);
        assert_eq!(out.transmissions().len(), 2);
        assert_eq!(s.mode(), Mode::SlowStart);
        out.clear();
        // One cumulative ACK covering both: cwnd 2 → 4; window empties so
        // four packets go out.
        s.on_ack(&ack(3), at(200), &mut out);
        assert_eq!(s.cwnd(), 4.0);
        assert_eq!(out.transmissions().len(), 4);
    }

    #[test]
    fn dupacks_are_completely_ignored() {
        let mut s = TcpPrSender::new(TcpPrConfig::default());
        let mut out = SenderOutput::new();
        s.on_start(SimTime::ZERO, &mut out);
        out.clear();
        s.on_ack(&ack(1), at(10), &mut out);
        let cwnd = s.cwnd();
        out.clear();
        for i in 0..50 {
            s.on_ack(&dupack(1), at(11 + i), &mut out);
            assert!(out.transmissions().is_empty(), "dupacks must not trigger sends");
        }
        assert_eq!(s.cwnd(), cwnd, "dupacks must not move the window");
        assert_eq!(s.stats().drops_detected, 0);
    }

    #[test]
    fn timer_drop_halves_window_and_retransmits() {
        let mut s = TcpPrSender::new(TcpPrConfig::default());
        let _now = grow_window(&mut s, 8.0);
        let cwnd_before = s.cwnd();
        // Expire only the oldest packet(s): fire just past the earliest
        // deadline (a partial loss, not a whole-window loss).
        let fire = s.book().earliest_deadline(s.mxrtt()).expect("packets outstanding")
            + SimDuration::from_nanos(1);
        let mut out = SenderOutput::new();
        s.on_timer(fire, &mut out);
        assert!(s.stats().drops_detected >= 1);
        assert_eq!(s.stats().window_halvings, 1, "a burst halves exactly once");
        assert!(s.cwnd() <= cwnd_before / 2.0 + 1.0);
        assert_eq!(s.mode(), Mode::CongestionAvoidance);
        assert_eq!(s.stats().extreme_loss_events, 0);
        // The expired packet was queued for retransmission; it only goes out
        // immediately if the halved window still has room.
        assert!(
            out.transmissions().iter().any(|t| t.is_retransmit)
                || s.book().pending_retransmits() > 0
        );
    }

    #[test]
    fn halving_uses_send_time_snapshot() {
        // Grow to cwnd 4, send a packet, grow more, then expire the packet:
        // the halving must use the send-time window (4), not the current.
        let mut s = TcpPrSender::new(TcpPrConfig::default());
        let mut out = SenderOutput::new();
        s.on_start(SimTime::ZERO, &mut out);
        let mut now = SimTime::ZERO;
        let mut cum = 0;
        while s.cwnd() < 4.0 {
            now += ms(10);
            cum += 1;
            out.clear();
            s.on_ack(&ack(cum), now, &mut out);
        }
        // The oldest outstanding packet was sent at cwnd_at_send = 4; the
        // halving after its expiry must use that snapshot.
        let victim = cum; // oldest outstanding seq
        let victim_cwnd = s.book().record(victim).expect("outstanding").cwnd_at_send;
        let mxrtt = s.mxrtt();
        out.clear();
        s.on_timer(now + mxrtt + ms(2000), &mut out);
        assert!(
            (s.ssthresh() - (victim_cwnd / 2.0).max(1.0)).abs() < 1e-9,
            "halved from snapshot {victim_cwnd}, ssthr = {}",
            s.ssthresh()
        );
    }

    #[test]
    fn congestion_avoidance_grows_linearly() {
        let mut s = TcpPrSender::new(TcpPrConfig::default());
        let _ = grow_window(&mut s, 8.0);
        let mut out = SenderOutput::new();
        // Partial loss: only the earliest-sent packets expire.
        let fire = s.book().earliest_deadline(s.mxrtt()).unwrap() + SimDuration::from_nanos(1);
        s.on_timer(fire, &mut out);
        assert_eq!(s.mode(), Mode::CongestionAvoidance);
        let cwnd = s.cwnd();
        out.clear();
        // Ack exactly one outstanding packet: growth must be 1/cwnd.
        let first = s.book().first_outstanding().expect("packets outstanding");
        s.on_ack(&ack(first + 1), fire + ms(10), &mut out);
        assert!(
            (s.cwnd() - (cwnd + 1.0 / cwnd)).abs() < 1e-9,
            "expected {} got {}",
            cwnd + 1.0 / cwnd,
            s.cwnd()
        );
    }

    #[test]
    fn reordered_cumulative_jump_is_loss_free() {
        // ACKs arrive out of order: cum 5 then stale cum 2. The stale ACK
        // must be a no-op, not a signal.
        let mut s = TcpPrSender::new(TcpPrConfig::default());
        let mut out = SenderOutput::new();
        s.on_start(SimTime::ZERO, &mut out);
        out.clear();
        s.on_ack(&ack(1), at(10), &mut out);
        out.clear();
        s.on_ack(&ack(2), at(20), &mut out);
        out.clear();
        let cwnd = s.cwnd();
        s.on_ack(&ack(1), at(30), &mut out); // stale, reordered ACK
        assert_eq!(s.cwnd(), cwnd);
        assert_eq!(s.stats().drops_detected, 0);
    }

    #[test]
    fn rtt_spike_within_beta_does_not_fire() {
        // Small fixed window so every outstanding packet is fresh.
        let cfg = TcpPrConfig { max_cwnd: 2.0, ..TcpPrConfig::default() }; // β = 3
        let mut s = TcpPrSender::new(cfg);
        let mut out = SenderOutput::new();
        s.on_start(SimTime::ZERO, &mut out);
        out.clear();
        // Establish ewrtt = 100 ms with prompt full-window ACKs.
        let mut now = SimTime::ZERO;
        for _ in 0..20 {
            now += ms(100);
            let cum = s.book().snd_nxt();
            s.on_ack(&ack(cum), now, &mut out);
            out.clear();
        }
        let mxrtt = s.mxrtt();
        assert!(mxrtt >= ms(290) && mxrtt <= ms(320), "mxrtt ≈ 3×100 ms, got {mxrtt}");
        // A timer fired at +250 ms (an RTT spike of 2.5×) must not drop:
        // the outstanding packets were sent at `now`.
        s.on_timer(now + ms(250), &mut out);
        assert_eq!(s.stats().drops_detected, 0);
        // The delayed ACK then arrives and raises ewrtt.
        s.on_ack(&ack(s.book().snd_nxt()), now + ms(260), &mut out);
        assert_eq!(s.stats().drops_detected, 0);
        assert!(s.ewrtt().unwrap() >= ms(259));
    }

    #[test]
    fn burst_of_drops_halves_once_via_memorize() {
        let mut s = TcpPrSender::new(TcpPrConfig::default());
        let _ = grow_window(&mut s, 16.0);
        let mut out = SenderOutput::new();
        // Partial loss: only the oldest packet expires → one halving; the
        // rest of the flight is memorized.
        let fire1 = s.book().earliest_deadline(s.mxrtt()).unwrap() + SimDuration::from_nanos(1);
        s.on_timer(fire1, &mut out);
        assert_eq!(s.stats().window_halvings, 1);
        let memorized = s.book().memorize_len();
        assert!(memorized > 0);
        assert_eq!(s.stats().extreme_loss_events, 0, "partial loss is not extreme");
        out.clear();
        // Two of the memorized packets never get acknowledged: they expire
        // later and are absorbed — no additional halving for them.
        let next = s.book().earliest_deadline(s.mxrtt()).unwrap() + SimDuration::from_nanos(1);
        s.on_timer(next, &mut out);
        assert!(s.stats().memorize_drops >= 1, "memorize absorbs follow-up drops");
        assert!(
            s.stats().window_halvings <= 2,
            "halvings are per flight generation, got {}",
            s.stats().window_halvings
        );
    }

    /// Drives a sender into extreme-loss backoff: grow a 16-segment window,
    /// then let the whole flight expire at once (a blackout).
    fn force_extreme_loss(s: &mut TcpPrSender, out: &mut SenderOutput) -> SimTime {
        let now = grow_window(s, 16.0);
        let fire1 = now + s.mxrtt() + ms(50);
        s.on_timer(fire1, out);
        assert_eq!(s.stats().window_halvings, 1);
        assert!(s.in_backoff(), "a whole-window loss is an extreme loss");
        fire1
    }

    #[test]
    fn extreme_loss_resets_to_one_and_backs_off() {
        let mut s = TcpPrSender::new(TcpPrConfig::default());
        let mut out = SenderOutput::new();
        let now = force_extreme_loss(&mut s, &mut out);
        assert_eq!(s.stats().extreme_loss_events, 1);
        assert_eq!(s.cwnd(), 1.0);
        assert_eq!(s.mode(), Mode::SlowStart);
        assert!(s.in_backoff());
        let b0 = s.mxrtt();
        assert!(b0 >= SimDuration::from_secs(1), "mxrtt raised to ≥ 1 s, got {b0}");
        // While backed off, transmission is paused.
        let sent_during_pause = out.transmissions().len();
        out.clear();
        // The retransmitted packet expires again: mxrtt doubles.
        let fire2 = now + s.mxrtt().saturating_mul(4);
        s.on_timer(fire2, &mut out);
        if s.in_backoff() {
            assert!(s.mxrtt() >= b0, "backoff must not shrink without progress");
        }
        let _ = sent_during_pause;
    }

    #[test]
    fn ack_progress_exits_backoff() {
        let mut s = TcpPrSender::new(TcpPrConfig::default());
        let mut out = SenderOutput::new();
        let now = force_extreme_loss(&mut s, &mut out);
        assert!(s.in_backoff());
        out.clear();
        // Resume: the pause (≥ 1 s) elapses, the probe retransmission goes
        // out (the whole expired flight sits in to-be-sent by now).
        let resume = now + SimDuration::from_secs(2);
        s.on_timer(resume, &mut out);
        assert!(!out.transmissions().is_empty(), "probe retransmission after pause");
        out.clear();
        // An ACK for it arrives: backoff ends, mxrtt returns to β·ewrtt.
        let cum = s.book().snd_nxt();
        s.on_ack(&ack(cum), resume + ms(100), &mut out);
        assert!(!s.in_backoff());
        assert!(s.mxrtt() < SimDuration::from_secs(1000));
    }

    #[test]
    fn window_is_always_at_least_one() {
        let mut s = TcpPrSender::new(TcpPrConfig::default());
        let mut out = SenderOutput::new();
        s.on_start(SimTime::ZERO, &mut out);
        // Immediately lose the very first packet, repeatedly.
        let mut now = SimTime::ZERO;
        for _ in 0..10 {
            now = now + s.mxrtt() + ms(10);
            out.clear();
            s.on_timer(now, &mut out);
            assert!(s.cwnd() >= 1.0);
        }
    }

    #[test]
    fn cwnd_capped_at_max() {
        let cfg = TcpPrConfig { max_cwnd: 4.0, ..TcpPrConfig::default() };
        let mut s = TcpPrSender::new(cfg);
        let mut out = SenderOutput::new();
        s.on_start(SimTime::ZERO, &mut out);
        let mut now = SimTime::ZERO;
        for cum in 1..100 {
            now += ms(1);
            out.clear();
            s.on_ack(&ack(cum), now, &mut out);
        }
        assert!(s.cwnd() <= 4.0);
        assert!(s.in_flight() <= 4);
    }

    #[test]
    fn self_clocking_sends_on_ack() {
        let mut s = TcpPrSender::new(TcpPrConfig::default());
        let now = grow_window(&mut s, 4.0);
        let mut out = SenderOutput::new();
        let cum = s.book().snd_nxt() - s.in_flight() as u64 + 1;
        s.on_ack(&ack(cum), now + ms(10), &mut out);
        assert!(!out.transmissions().is_empty(), "an ACK opens the window");
    }

    #[test]
    fn timer_is_armed_whenever_packets_outstanding() {
        let mut s = TcpPrSender::new(TcpPrConfig::default());
        let mut out = SenderOutput::new();
        s.on_start(SimTime::ZERO, &mut out);
        match out.timer() {
            transport::sender::TimerOp::Set(t) => {
                assert_eq!(t, SimTime::ZERO + s.mxrtt());
            }
            other => panic!("expected timer set, got {other:?}"),
        }
    }

    #[test]
    fn stale_queued_retransmit_cancelled_by_late_ack() {
        // A packet expires (queued for retransmit, not yet sent because the
        // window is closed) and then its original ACK arrives: the queued
        // retransmit must be dropped.
        let cfg = TcpPrConfig { max_cwnd: 2.0, ..TcpPrConfig::default() };
        let mut s = TcpPrSender::new(cfg);
        let mut out = SenderOutput::new();
        s.on_start(SimTime::ZERO, &mut out);
        out.clear();
        s.on_ack(&ack(1), at(100), &mut out); // cwnd = 2, sends 1,2
        out.clear();
        // Both packets expire at once: packet 1 halves the window (to 1);
        // packet 2 is memorized and, being equally old, is absorbed in the
        // same pass and queued for retransmission. Only packet 1 fits the
        // halved window.
        let fire = at(100) + s.mxrtt() + ms(1);
        s.on_timer(fire, &mut out);
        let resent: Vec<u64> =
            out.transmissions().iter().filter(|t| t.is_retransmit).map(|t| t.seq).collect();
        assert_eq!(resent, vec![1]);
        assert_eq!(s.book().pending_retransmits(), 1, "packet 2 queued");
        assert_eq!(s.stats().window_halvings, 1, "packet 2's drop was absorbed");
        out.clear();
        // Now a (very late) cumulative ACK for everything arrives.
        s.on_ack(&ack(3), fire + ms(10), &mut out);
        assert_eq!(s.book().pending_retransmits(), 0, "stale retransmit cancelled");
    }

    #[test]
    fn ablation_no_memorize_halves_per_drop() {
        let cfg = TcpPrConfig {
            ablate_no_memorize: true,
            ablate_no_extreme_loss: true,
            ..TcpPrConfig::default()
        };
        let mut s = TcpPrSender::new(cfg);
        let now = grow_window(&mut s, 16.0);
        let mut out = SenderOutput::new();
        // Whole flight expires: with the memorize list ablated, every
        // single drop halves the window.
        s.on_timer(now + s.mxrtt() + ms(50), &mut out);
        assert!(
            s.stats().window_halvings >= 4,
            "every drop should halve, got {} halvings for {} drops",
            s.stats().window_halvings,
            s.stats().drops_detected
        );
        assert_eq!(s.stats().memorize_drops, 0);
    }

    #[test]
    fn ablation_no_extreme_loss_never_backs_off() {
        let cfg = TcpPrConfig { ablate_no_extreme_loss: true, ..TcpPrConfig::default() };
        let mut s = TcpPrSender::new(cfg);
        let now = grow_window(&mut s, 16.0);
        let mut out = SenderOutput::new();
        s.on_timer(now + s.mxrtt() + ms(50), &mut out);
        out.clear();
        s.on_timer(now + s.mxrtt().saturating_mul(3), &mut out);
        assert_eq!(s.stats().extreme_loss_events, 0);
        assert!(!s.in_backoff());
    }

    #[test]
    fn ablation_halve_current_ignores_snapshot() {
        let cfg = TcpPrConfig { ablate_halve_current: true, ..TcpPrConfig::default() };
        let mut s = TcpPrSender::new(cfg);
        let _ = grow_window(&mut s, 8.0);
        let cwnd_now = s.cwnd();
        let mut out = SenderOutput::new();
        let fire = s.book().earliest_deadline(s.mxrtt()).unwrap() + SimDuration::from_nanos(1);
        s.on_timer(fire, &mut out);
        // The victim was sent at a smaller window, but the ablated halving
        // uses the current one.
        assert!(
            (s.ssthresh() - cwnd_now / 2.0).abs() < 1e-9,
            "halved from current {} → ssthr {}",
            cwnd_now,
            s.ssthresh()
        );
    }
}
