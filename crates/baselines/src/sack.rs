//! TCP SACK sender (RFC 2018 option, RFC 3517-style recovery), the paper's
//! fairness comparator in Section 4.
//!
//! Keeps a scoreboard of selectively-acknowledged segments; a segment is
//! deemed lost once `dupthresh` SACKed segments lie above it. During
//! recovery, transmission is limited by the *pipe* estimate rather than
//! window inflation. Like all DUPACK-driven variants, it misinterprets
//! persistent reordering as loss.

use netsim::time::{SimDuration, SimTime};
use transport::rto::RtoEstimator;
use transport::scoreboard::Scoreboard;
use transport::sender::{
    AckEvent, SenderOutput, TcpSenderAlgo, DUPTHRESH, INITIAL_SSTHRESH, MAX_CWND,
};
use transport::telemetry::count_ack;

/// Configuration for [`SackSender`].
#[derive(Debug, Clone)]
pub struct SackConfig {
    /// Upper bound on the congestion window, in segments.
    pub max_cwnd: f64,
}

impl Default for SackConfig {
    fn default() -> Self {
        SackConfig { max_cwnd: MAX_CWND }
    }
}

/// Recovery state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Open,
    Recovery { recover: u64 },
}

/// Event counters for [`SackSender`].
#[derive(Debug, Clone, Copy, Default, serde::Serialize)]
pub struct SackStats {
    /// Recovery episodes entered.
    pub recoveries: u64,
    /// Retransmission timeouts.
    pub timeouts: u64,
}

/// A TCP SACK sender.
///
/// # Examples
///
/// ```
/// use baselines::sack::{SackConfig, SackSender};
/// use transport::sender::{SenderOutput, TcpSenderAlgo};
/// use netsim::time::SimTime;
///
/// let mut s = SackSender::new(SackConfig::default());
/// let mut out = SenderOutput::new();
/// s.on_start(SimTime::ZERO, &mut out);
/// assert_eq!(s.cwnd(), 1.0);
/// ```
#[derive(Debug)]
pub struct SackSender {
    cfg: SackConfig,
    cwnd: f64,
    ssthresh: f64,
    snd_una: u64,
    snd_nxt: u64,
    /// Segments reported received, declared lost (unsacked with `dupthresh`
    /// SACKs above) and retransmitted since.
    board: Scoreboard,
    state: State,
    rto: RtoEstimator,
    stats: SackStats,
}

impl SackSender {
    /// Creates a sender in slow start with `cwnd = 1`.
    pub fn new(cfg: SackConfig) -> Self {
        SackSender {
            cfg,
            cwnd: 1.0,
            ssthresh: INITIAL_SSTHRESH,
            snd_una: 0,
            snd_nxt: 0,
            board: Scoreboard::default(),
            state: State::Open,
            rto: RtoEstimator::RFC2988,
            stats: SackStats::default(),
        }
    }

    /// Event counters.
    pub fn stats(&self) -> SackStats {
        self.stats
    }

    /// True while in SACK-based loss recovery.
    pub fn in_recovery(&self) -> bool {
        matches!(self.state, State::Recovery { .. })
    }

    /// The pipe estimate: segments believed in flight.
    pub fn pipe(&self) -> u64 {
        self.board.pipe(self.snd_una, self.snd_nxt)
    }

    fn send_allowed(&mut self, out: &mut SenderOutput) {
        while (self.pipe() as f64) < self.cwnd.min(self.cfg.max_cwnd) {
            // NextSeg: first lost, un-retransmitted segment; else new data.
            match self.board.next_retransmit() {
                Some(seq) => out.transmit(seq, true),
                None => {
                    out.transmit(self.snd_nxt, false);
                    self.snd_nxt += 1;
                }
            }
        }
    }

    fn arm_rto(&mut self, now: SimTime, out: &mut SenderOutput) {
        if self.snd_nxt > self.snd_una {
            out.set_timer(now + self.rto.rto());
        } else {
            out.cancel_timer();
        }
    }

    fn grow(&mut self, newly_acked: u64) {
        for _ in 0..newly_acked {
            if self.cwnd < self.ssthresh {
                self.cwnd += 1.0;
            } else {
                self.cwnd += 1.0 / self.cwnd;
            }
        }
        self.cwnd = self.cwnd.min(self.cfg.max_cwnd);
    }

    fn maybe_enter_recovery(&mut self, now: SimTime, out: &mut SenderOutput) {
        if self.state == State::Open && self.board.is_lost(self.snd_una) {
            self.stats.recoveries += 1;
            obs::span(now.as_nanos(), "cc.fast_rtx", || {
                format!("algo=sack seq={} cwnd={:.2}", self.snd_una, self.cwnd)
            });
            self.ssthresh = (self.cwnd / 2.0).max(2.0);
            self.cwnd = self.ssthresh;
            self.state = State::Recovery { recover: self.snd_nxt };
            // Fast retransmit of the detected hole goes out immediately
            // (ns-2 `sack1` behaviour); subsequent retransmissions are
            // pipe-limited.
            if self.board.retransmit(self.snd_una) {
                out.transmit(self.snd_una, true);
            }
        }
    }
}

impl TcpSenderAlgo for SackSender {
    fn on_start(&mut self, now: SimTime, out: &mut SenderOutput) {
        self.send_allowed(out);
        self.arm_rto(now, out);
    }

    fn on_ack(&mut self, ack: &AckEvent, now: SimTime, out: &mut SenderOutput) {
        let advanced = ack.cum_ack > self.snd_una;
        let newly = ack.cum_ack.saturating_sub(self.snd_una);
        if advanced {
            self.snd_una = ack.cum_ack;
            // Defensive: a malformed ACK beyond snd_nxt must not wrap the
            // flight arithmetic.
            self.snd_nxt = self.snd_nxt.max(ack.cum_ack);
            self.board.advance(ack.cum_ack);
            if ack.echo_tx_count == 1 {
                self.rto.on_sample(now.saturating_since(ack.echo_timestamp));
            }
            if let State::Recovery { recover } = self.state {
                if ack.cum_ack >= recover {
                    self.state = State::Open;
                }
            } else {
                self.grow(newly);
            }
        }
        let (newly_sacked, _) = self.board.absorb(&ack.sack, self.snd_una, self.snd_nxt);
        let newly_lost = self.board.mark_lost(self.snd_una, DUPTHRESH);
        self.maybe_enter_recovery(now, out);
        self.send_allowed(out);
        if advanced {
            self.arm_rto(now, out);
        }
        count_ack(self.board.take_steps(), newly + newly_sacked + newly_lost);
    }

    fn on_timer(&mut self, now: SimTime, out: &mut SenderOutput) {
        if self.snd_nxt == self.snd_una {
            return;
        }
        self.stats.timeouts += 1;
        obs::span(now.as_nanos(), "cc.rto_expiry", || {
            format!("algo=sack una={} flight={}", self.snd_una, self.snd_nxt - self.snd_una)
        });
        self.ssthresh = (((self.snd_nxt - self.snd_una) as f64) / 2.0).max(2.0);
        self.cwnd = 1.0;
        self.state = State::Open;
        // Everything unsacked is presumed lost; retransmit in order as the
        // window re-opens.
        self.board.mark_all_lost(self.snd_una, self.snd_nxt);
        self.rto.backoff();
        self.send_allowed(out);
        self.arm_rto(now, out);
        // The timeout's full walk is not an ACK's cost.
        self.board.take_steps();
    }

    fn cwnd(&self) -> f64 {
        self.cwnd
    }

    fn ssthresh(&self) -> f64 {
        self.ssthresh
    }

    fn srtt(&self) -> Option<SimDuration> {
        self.rto.srtt()
    }

    fn rto(&self) -> Option<SimDuration> {
        Some(self.rto.rto())
    }

    fn in_flight(&self) -> usize {
        self.pipe() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::time::SimDuration;

    fn ms(x: u64) -> SimDuration {
        SimDuration::from_millis(x)
    }

    fn ack(cum: u64, sack: Vec<(u64, u64)>) -> AckEvent {
        AckEvent {
            cum_ack: cum,
            sack,
            dsack: None,
            echo_timestamp: SimTime::ZERO,
            echo_tx_count: 1,
            dup: false,
        }
    }

    fn dupack(cum: u64, sack: Vec<(u64, u64)>) -> AckEvent {
        AckEvent { dup: true, ..ack(cum, sack) }
    }

    /// Grows the window with clean ACKs until at least `n` segments are in
    /// flight, returning the clock.
    fn grow(s: &mut SackSender, n: usize) -> SimTime {
        let mut out = SenderOutput::new();
        s.on_start(SimTime::ZERO, &mut out);
        let mut now = SimTime::ZERO;
        while s.in_flight() < n {
            now += ms(10);
            let cum = s.snd_una + 1;
            out.clear();
            s.on_ack(&ack(cum, Vec::new()), now, &mut out);
        }
        now
    }

    #[test]
    fn clean_acks_grow_like_reno() {
        let mut s = SackSender::new(SackConfig::default());
        let mut out = SenderOutput::new();
        s.on_start(SimTime::ZERO, &mut out);
        out.clear();
        s.on_ack(&ack(1, Vec::new()), SimTime::ZERO + ms(10), &mut out);
        assert_eq!(s.cwnd(), 2.0);
        assert_eq!(out.transmissions().len(), 2);
    }

    #[test]
    fn loss_declared_after_dupthresh_sacks_above() {
        let mut s = SackSender::new(SackConfig::default());
        let now = grow(&mut s, 8);
        let una = s.snd_una;
        let mut out = SenderOutput::new();
        // SACK una+1, una+2: not yet lost.
        s.on_ack(&dupack(una, vec![(una + 1, una + 3)]), now + ms(1), &mut out);
        assert!(!s.in_recovery());
        out.clear();
        // Third SACKed segment above: una is lost, recovery entered,
        // una retransmitted.
        s.on_ack(&dupack(una, vec![(una + 3, una + 4)]), now + ms(2), &mut out);
        assert!(s.in_recovery());
        assert!(out.transmissions().iter().any(|t| t.is_retransmit && t.seq == una));
        assert_eq!(s.stats().recoveries, 1);
    }

    #[test]
    fn pipe_limits_transmission_in_recovery() {
        let mut s = SackSender::new(SackConfig::default());
        let now = grow(&mut s, 8);
        let una = s.snd_una;
        let flight_before = s.in_flight();
        let mut out = SenderOutput::new();
        s.on_ack(&dupack(una, vec![(una + 1, una + 4)]), now + ms(1), &mut out);
        assert!(s.in_recovery());
        // Pipe must have dropped (3 sacked + 1 lost) and stay below cwnd+1.
        assert!(s.pipe() < flight_before as u64);
        assert!((s.pipe() as f64) <= s.cwnd() + 1.0);
    }

    #[test]
    fn only_one_reduction_per_episode() {
        let mut s = SackSender::new(SackConfig::default());
        let now = grow(&mut s, 8);
        let una = s.snd_una;
        let mut out = SenderOutput::new();
        s.on_ack(&dupack(una, vec![(una + 1, una + 4)]), now + ms(1), &mut out);
        let ssthresh = s.ssthresh();
        out.clear();
        // More SACKs marking further losses must not reduce again.
        s.on_ack(&dupack(una, vec![(una + 5, una + 7)]), now + ms(2), &mut out);
        assert_eq!(s.ssthresh(), ssthresh);
        assert_eq!(s.stats().recoveries, 1);
    }

    #[test]
    fn recovery_exits_at_recover_point() {
        let mut s = SackSender::new(SackConfig::default());
        let now = grow(&mut s, 8);
        let una = s.snd_una;
        let nxt = s.snd_nxt;
        let mut out = SenderOutput::new();
        s.on_ack(&dupack(una, vec![(una + 1, una + 4)]), now + ms(1), &mut out);
        assert!(s.in_recovery());
        out.clear();
        s.on_ack(&ack(nxt, Vec::new()), now + ms(50), &mut out);
        assert!(!s.in_recovery());
    }

    #[test]
    fn timeout_marks_unsacked_lost_and_slow_starts() {
        let mut s = SackSender::new(SackConfig::default());
        let now = grow(&mut s, 8);
        let una = s.snd_una;
        let mut out = SenderOutput::new();
        // One sacked segment survives the timeout.
        s.on_ack(&dupack(una, vec![(una + 2, una + 3)]), now + ms(1), &mut out);
        out.clear();
        s.on_timer(now + SimDuration::from_secs(5), &mut out);
        assert_eq!(s.cwnd(), 1.0);
        assert_eq!(s.stats().timeouts, 1);
        // First retransmission is the oldest lost segment (snd_una).
        let first = out.transmissions().first().expect("retransmission");
        assert!(first.is_retransmit);
        assert_eq!(first.seq, una);
        // The sacked segment is not retransmitted.
        assert!(out.transmissions().iter().all(|t| t.seq != una + 2));
    }

    #[test]
    fn no_duplicate_retransmissions_of_same_hole() {
        let mut s = SackSender::new(SackConfig::default());
        let now = grow(&mut s, 8);
        let una = s.snd_una;
        let mut out = SenderOutput::new();
        s.on_ack(&dupack(una, vec![(una + 1, una + 4)]), now + ms(1), &mut out);
        out.clear();
        s.on_ack(&dupack(una, vec![(una + 1, una + 5)]), now + ms(2), &mut out);
        assert!(
            !out.transmissions().iter().any(|t| t.seq == una),
            "hole already retransmitted must not repeat"
        );
    }

    #[test]
    fn repeated_timeouts_back_off_exponentially() {
        let mut s = SackSender::new(SackConfig::default());
        let mut out = SenderOutput::new();
        s.on_start(SimTime::ZERO, &mut out);
        out.clear();
        let mut now = SimTime::ZERO + SimDuration::from_secs(3);
        s.on_timer(now, &mut out);
        let d1 = match out.timer() {
            transport::sender::TimerOp::Set(t) => t.saturating_since(now),
            other => panic!("expected timer, got {other:?}"),
        };
        out.clear();
        now += d1;
        s.on_timer(now, &mut out);
        let d2 = match out.timer() {
            transport::sender::TimerOp::Set(t) => t.saturating_since(now),
            other => panic!("expected timer, got {other:?}"),
        };
        assert_eq!(d2, d1.saturating_mul(2), "RTO doubles: {d1} then {d2}");
        assert_eq!(s.stats().timeouts, 2);
    }

    #[test]
    fn rtt_sample_only_from_originals() {
        let mut s = SackSender::new(SackConfig::default());
        let mut out = SenderOutput::new();
        s.on_start(SimTime::ZERO, &mut out);
        out.clear();
        let rto_before = s.rto.rto();
        // An ACK whose echo says "retransmission" must not feed the RTO.
        let mut a = ack(1, Vec::new());
        a.echo_tx_count = 2;
        s.on_ack(&a, SimTime::ZERO + ms(10), &mut out);
        assert_eq!(s.rto.rto(), rto_before);
    }
}
