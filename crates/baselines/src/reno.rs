//! TCP Reno / NewReno senders (packet-granularity, ns-2 style).
//!
//! These are the DUPACK-driven baselines the paper contrasts with TCP-PR:
//! fast retransmit fires after `dupthresh` duplicate ACKs, which misfires
//! under persistent reordering. NewReno adds partial-ACK handling in fast
//! recovery (RFC 2582); Reno exits recovery on any new ACK.

use netsim::time::{SimDuration, SimTime};
use transport::dupack::{Advance, Window};
use transport::rto::RtoEstimator;
use transport::sender::{AckEvent, SenderOutput, TcpSenderAlgo};

/// Configuration shared by the Reno family.
#[derive(Debug, Clone)]
pub struct RenoConfig {
    /// Partial-ACK handling in fast recovery (NewReno) vs. exit-on-new-ACK
    /// (plain Reno).
    pub newreno: bool,
    /// Duplicate-ACK threshold for fast retransmit (3 in standard TCP).
    pub dupthresh: u32,
    /// RFC 3042 limited transmit: send one new segment on each of the first
    /// two duplicate ACKs.
    pub limited_transmit: bool,
    /// Upper bound on the congestion window, in segments.
    pub max_cwnd: f64,
    /// Initial slow-start threshold, in segments. Bounds the initial
    /// exponential overshoot; NewReno's hole-per-RTT recovery cannot cope
    /// with a whole-window catastrophe on a fat pipe.
    pub initial_ssthresh: f64,
    /// Retransmission-timeout estimator.
    pub rto: RtoEstimator,
}

impl Default for RenoConfig {
    fn default() -> Self {
        RenoConfig {
            newreno: true,
            dupthresh: 3,
            limited_transmit: false,
            max_cwnd: 10_000.0,
            initial_ssthresh: 128.0,
            rto: RtoEstimator::rfc2988(),
        }
    }
}

/// Loss-recovery state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RenoState {
    /// Normal operation.
    Open,
    /// Fast recovery; `recover` is `snd_nxt` at entry.
    Recovery {
        /// Sequence number that ends the recovery episode when cumulatively
        /// acknowledged.
        recover: u64,
    },
}

/// Event counters for the Reno family.
#[derive(Debug, Clone, Copy, Default, serde::Serialize)]
pub struct RenoStats {
    /// Fast-retransmit events.
    pub fast_retransmits: u64,
    /// Retransmission timeouts.
    pub timeouts: u64,
    /// Duplicate ACKs observed.
    pub dupacks: u64,
    /// Partial ACKs handled inside fast recovery (NewReno only).
    pub partial_acks: u64,
    /// Segments acknowledged.
    pub acked_segments: u64,
}

/// A TCP Reno / NewReno sender: [`Window`] plus the halving, the inflated
/// entry into recovery and the undo record the spurious-retransmit wrappers
/// restore from.
///
/// # Examples
///
/// ```
/// use baselines::reno::{RenoConfig, RenoSender};
/// use transport::sender::{SenderOutput, TcpSenderAlgo};
/// use netsim::time::SimTime;
///
/// let mut s = RenoSender::new(RenoConfig::default());
/// let mut out = SenderOutput::new();
/// s.on_start(SimTime::ZERO, &mut out);
/// assert_eq!(out.transmissions().len(), 1);
/// ```
#[derive(Debug)]
pub struct RenoSender {
    cfg: RenoConfig,
    w: Window,
    /// `(cwnd, ssthresh)` saved at the most recent reduction, with the
    /// retransmitted sequence that caused it — used by DSACK/Eifel wrappers.
    pub(crate) last_reduction: Option<ReductionRecord>,
}

/// Snapshot of congestion state before a reduction (for spurious-retransmit
/// undo à la Eifel/DSACK).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReductionRecord {
    pub prior_cwnd: f64,
    pub prior_ssthresh: f64,
    /// First segment retransmitted by the reduction.
    pub seq: u64,
    /// Duplicate ACKs observed when the reduction fired.
    pub dupacks: u32,
}

impl RenoSender {
    /// Creates a sender in slow start with `cwnd = 1`.
    pub fn new(cfg: RenoConfig) -> Self {
        let w = Window::new("reno", cfg.max_cwnd, cfg.initial_ssthresh, cfg.rto.clone());
        RenoSender { cfg, w, last_reduction: None }
    }

    /// Event counters.
    pub fn stats(&self) -> RenoStats {
        let c = self.w.counters();
        RenoStats {
            fast_retransmits: c.fast_retransmits,
            timeouts: c.timeouts,
            dupacks: c.dupacks,
            partial_acks: c.partial_acks,
            acked_segments: c.acked_segments,
        }
    }

    /// Current recovery state.
    pub fn state(&self) -> RenoState {
        match self.w.recover() {
            Some(recover) => RenoState::Recovery { recover },
            None => RenoState::Open,
        }
    }

    /// Current duplicate-ACK threshold.
    pub fn dupthresh(&self) -> u32 {
        self.cfg.dupthresh
    }

    /// Adjusts the duplicate-ACK threshold (used by the DSACK responses).
    pub fn set_dupthresh(&mut self, dupthresh: u32) {
        self.cfg.dupthresh = dupthresh.max(1);
    }

    /// Smoothed RTT estimate, if sampled.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.w.rto().srtt()
    }

    /// Current retransmission timeout (including backoff).
    pub fn current_rto(&self) -> SimDuration {
        self.w.rto().rto()
    }

    /// True if `seq` has an outstanding retransmission this episode.
    pub(crate) fn was_retransmitted(&self, seq: u64) -> bool {
        self.w.was_retransmitted(seq)
    }

    /// Clears the saved reduction record (after an undo has been applied).
    pub(crate) fn clear_reduction(&mut self) {
        self.last_reduction = None;
    }

    /// Undoes a spurious congestion response. `instant` restores both the
    /// window and threshold at once (Eifel); otherwise the sender slow-starts
    /// back up to the prior window (the Blanton–Allman response, footnote 3
    /// of the TCP-PR paper: avoids injecting a sudden burst).
    pub(crate) fn restore_after_spurious(&mut self, record: ReductionRecord, instant: bool) {
        let w = &mut self.w;
        if instant {
            w.cwnd = record.prior_cwnd.min(self.cfg.max_cwnd);
            w.ssthresh = record.prior_ssthresh;
        } else {
            // Shed any fast-recovery inflation, then slow-start from the
            // reduced window back up to the pre-reduction one.
            w.cwnd = w.cwnd.min(w.ssthresh).max(1.0);
            w.ssthresh = record.prior_cwnd.min(self.cfg.max_cwnd);
        }
        w.abandon_episode();
    }

    /// The state a reduction is about to overwrite.
    fn reduction_record(&self) -> ReductionRecord {
        ReductionRecord {
            prior_cwnd: self.w.cwnd,
            prior_ssthresh: self.w.ssthresh,
            seq: self.w.snd_una(),
            dupacks: self.w.dupacks(),
        }
    }

    fn enter_fast_retransmit(&mut self, now: SimTime, out: &mut SenderOutput) {
        self.w.fast_retransmit(now, out);
        self.last_reduction = Some(self.reduction_record());
        self.w.ssthresh = self.w.halved_flight();
        self.w.cwnd = self.w.ssthresh + self.w.dupacks() as f64;
        // An adjusted dupthresh must stay reachable within the reduced
        // window (Blanton–Allman keep it below 90% of cwnd).
        let cap = (0.9 * self.w.ssthresh).max(3.0) as u32;
        self.cfg.dupthresh = self.cfg.dupthresh.min(cap).max(1);
        self.w.arm_rto(now, out);
    }
}

impl transport::telemetry::SenderTelemetry for RenoSender {
    fn common_stats(&self) -> transport::telemetry::CommonStats {
        transport::telemetry::CommonStats {
            extra: vec![("partial_acks".to_owned(), self.w.counters().partial_acks)],
            ..self.w.common_stats(self.name())
        }
    }
}

impl TcpSenderAlgo for RenoSender {
    fn on_start(&mut self, now: SimTime, out: &mut SenderOutput) {
        self.w.send_new_data(out);
        self.w.arm_rto(now, out);
    }

    fn on_ack(&mut self, ack: &AckEvent, now: SimTime, out: &mut SenderOutput) {
        let w = &mut self.w;
        if let Some((newly, advance)) = w.advance(ack, now) {
            match advance {
                // Full ACK: deflate and leave recovery.
                Advance::Full => w.cwnd = w.ssthresh,
                Advance::Partial if self.cfg.newreno => {
                    // Retransmit the next hole, deflate by the amount
                    // acked, inflate by one (RFC 2582).
                    w.plug_hole(out);
                    w.cwnd = (w.cwnd - newly as f64 + 1.0).max(1.0);
                }
                Advance::Partial => {
                    // Plain Reno leaves recovery on any new ACK.
                    w.abandon_episode();
                    w.cwnd = w.ssthresh;
                    w.grow(newly.saturating_sub(1));
                }
                Advance::Open => w.grow(newly),
            }
            w.send_new_data(out);
            w.arm_rto(now, out);
        } else if ack.dup && w.dupack() {
            if w.recover().is_some() {
                // Window inflation: each dupack signals a departure.
                w.inflate(self.cfg.max_cwnd + self.cfg.dupthresh as f64, out);
            } else if w.dupacks() >= self.cfg.dupthresh && w.fast_retransmit_allowed() {
                self.enter_fast_retransmit(now, out);
            } else if self.cfg.limited_transmit && w.dupacks() <= 2 {
                w.limited_transmit(out);
            }
        }
    }

    fn on_timer(&mut self, now: SimTime, out: &mut SenderOutput) {
        if !self.w.timeout(now) {
            return;
        }
        self.last_reduction = Some(self.reduction_record());
        self.w.ssthresh = self.w.halved_flight();
        self.w.cwnd = 1.0;
        self.w.go_back_n(out);
        self.w.arm_rto(now, out);
    }

    fn cwnd(&self) -> f64 {
        self.w.cwnd
    }

    fn ssthresh(&self) -> f64 {
        self.w.ssthresh
    }

    fn name(&self) -> &'static str {
        if self.cfg.newreno {
            "TCP-NewReno"
        } else {
            "TCP-Reno"
        }
    }

    fn in_flight(&self) -> usize {
        self.w.flight() as usize
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

    fn dupack(cum: u64) -> AckEvent {
        AckEvent { dup: true, ..ack_at(cum, SimTime::ZERO) }
    }

    #[test]
    fn slow_start_growth() {
        let mut s = RenoSender::new(RenoConfig::default());
        let mut out = SenderOutput::new();
        s.on_start(SimTime::ZERO, &mut out);
        assert_eq!(out.transmissions().len(), 1);
        out.clear();
        s.on_ack(&ack_at(1, SimTime::ZERO), at(100), &mut out);
        assert_eq!(s.cwnd(), 2.0);
        assert_eq!(out.transmissions().len(), 2);
    }

    #[test]
    fn three_dupacks_trigger_fast_retransmit() {
        let mut s = RenoSender::new(RenoConfig::default());
        let mut out = SenderOutput::new();
        s.on_start(SimTime::ZERO, &mut out);
        out.clear();
        // Grow to a sizeable window.
        let mut now = SimTime::ZERO;
        for cum in 1..=8 {
            now += ms(10);
            s.on_ack(&ack_at(cum, now - ms(10)), now, &mut out);
            out.clear();
        }
        let flight = s.in_flight() as f64;
        assert!(flight >= 8.0);
        for _ in 0..2 {
            s.on_ack(&dupack(8), now + ms(1), &mut out);
            assert!(out.transmissions().is_empty());
        }
        s.on_ack(&dupack(8), now + ms(2), &mut out);
        assert_eq!(s.stats().fast_retransmits, 1);
        let rtx: Vec<_> = out.transmissions().iter().filter(|t| t.is_retransmit).collect();
        assert_eq!(rtx.len(), 1);
        assert_eq!(rtx[0].seq, 8);
        assert!((s.ssthresh() - flight / 2.0).abs() < 1e-9);
        assert!(matches!(s.state(), RenoState::Recovery { .. }));
    }

    #[test]
    fn recovery_inflation_sends_new_data() {
        let mut s = RenoSender::new(RenoConfig::default());
        let mut out = SenderOutput::new();
        s.on_start(SimTime::ZERO, &mut out);
        out.clear();
        let mut now = SimTime::ZERO;
        for cum in 1..=8 {
            now += ms(10);
            s.on_ack(&ack_at(cum, now - ms(10)), now, &mut out);
            out.clear();
        }
        for _ in 0..3 {
            s.on_ack(&dupack(8), now + ms(1), &mut out);
        }
        out.clear();
        // Enough extra dupacks inflate the window past flight: new data.
        let mut sent_new = false;
        for i in 0..10 {
            s.on_ack(&dupack(8), now + ms(2 + i), &mut out);
            if out.transmissions().iter().any(|t| !t.is_retransmit) {
                sent_new = true;
            }
            out.clear();
        }
        assert!(sent_new, "inflation must eventually release new segments");
    }

    #[test]
    fn recovery_inflation_stops_at_max_cwnd_plus_dupthresh() {
        let mut s = RenoSender::new(RenoConfig { max_cwnd: 8.0, ..RenoConfig::default() });
        let mut out = SenderOutput::new();
        s.on_start(SimTime::ZERO, &mut out);
        let mut now = SimTime::ZERO;
        for cum in 1..=12 {
            now += ms(10);
            s.on_ack(&ack_at(cum, now - ms(10)), now, &mut out);
        }
        assert_eq!((s.cwnd(), s.in_flight()), (8.0, 8));
        for _ in 0..3 {
            s.on_ack(&dupack(12), now + ms(1), &mut out);
        }
        assert_eq!(s.cwnd(), 4.0 + 3.0, "half the flight, plus the three departures");
        for _ in 0..20 {
            s.on_ack(&dupack(12), now + ms(2), &mut out);
        }
        assert_eq!(s.cwnd(), 8.0 + 3.0);
    }

    #[test]
    fn newreno_partial_ack_retransmits_next_hole() {
        let mut s = RenoSender::new(RenoConfig::default());
        let mut out = SenderOutput::new();
        s.on_start(SimTime::ZERO, &mut out);
        out.clear();
        let mut now = SimTime::ZERO;
        for cum in 1..=8 {
            now += ms(10);
            s.on_ack(&ack_at(cum, now - ms(10)), now, &mut out);
            out.clear();
        }
        for _ in 0..3 {
            s.on_ack(&dupack(8), now + ms(1), &mut out);
        }
        out.clear();
        // Partial ACK: hole at 10 (recovery covers up to snd_nxt).
        s.on_ack(&ack_at(10, now), now + ms(5), &mut out);
        assert!(matches!(s.state(), RenoState::Recovery { .. }), "partial ACK stays in recovery");
        let rtx: Vec<_> = out.transmissions().iter().filter(|t| t.is_retransmit).collect();
        assert_eq!(rtx.len(), 1);
        assert_eq!(rtx[0].seq, 10);
        assert_eq!(s.stats().partial_acks, 1);
    }

    #[test]
    fn reno_exits_recovery_on_any_new_ack() {
        let cfg = RenoConfig { newreno: false, ..RenoConfig::default() };
        let mut s = RenoSender::new(cfg);
        let mut out = SenderOutput::new();
        s.on_start(SimTime::ZERO, &mut out);
        out.clear();
        let mut now = SimTime::ZERO;
        for cum in 1..=8 {
            now += ms(10);
            s.on_ack(&ack_at(cum, now - ms(10)), now, &mut out);
            out.clear();
        }
        for _ in 0..3 {
            s.on_ack(&dupack(8), now + ms(1), &mut out);
        }
        s.on_ack(&ack_at(10, now), now + ms(5), &mut out);
        assert_eq!(s.state(), RenoState::Open);
    }

    #[test]
    fn full_ack_deflates_to_ssthresh() {
        let mut s = RenoSender::new(RenoConfig::default());
        let mut out = SenderOutput::new();
        s.on_start(SimTime::ZERO, &mut out);
        out.clear();
        let mut now = SimTime::ZERO;
        for cum in 1..=8 {
            now += ms(10);
            s.on_ack(&ack_at(cum, now - ms(10)), now, &mut out);
            out.clear();
        }
        let snd_nxt_at_loss = 8 + s.in_flight() as u64;
        for _ in 0..3 {
            s.on_ack(&dupack(8), now + ms(1), &mut out);
        }
        let ssthresh = s.ssthresh();
        out.clear();
        s.on_ack(&ack_at(snd_nxt_at_loss, now), now + ms(50), &mut out);
        assert_eq!(s.state(), RenoState::Open);
        assert_eq!(s.cwnd(), ssthresh);
    }

    #[test]
    fn timeout_resets_to_one_and_backs_off() {
        let mut s = RenoSender::new(RenoConfig::default());
        let mut out = SenderOutput::new();
        s.on_start(SimTime::ZERO, &mut out);
        out.clear();
        s.on_timer(at(3000), &mut out);
        assert_eq!(s.cwnd(), 1.0);
        assert_eq!(s.stats().timeouts, 1);
        let rtx: Vec<_> = out.transmissions().iter().filter(|t| t.is_retransmit).collect();
        assert_eq!(rtx.len(), 1);
        assert_eq!(rtx[0].seq, 0);
        // Timer re-armed with backoff (6 s after a 3 s initial RTO).
        match out.timer() {
            transport::sender::TimerOp::Set(t) => {
                assert_eq!(t, at(3000) + SimDuration::from_secs(6));
            }
            other => panic!("expected re-armed timer, got {other:?}"),
        }
    }

    #[test]
    fn no_fast_retransmit_right_after_timeout() {
        let mut s = RenoSender::new(RenoConfig::default());
        let mut out = SenderOutput::new();
        s.on_start(SimTime::ZERO, &mut out);
        out.clear();
        let mut now = SimTime::ZERO;
        for cum in 1..=4 {
            now += ms(10);
            s.on_ack(&ack_at(cum, now - ms(10)), now, &mut out);
            out.clear();
        }
        s.on_timer(now + SimDuration::from_secs(5), &mut out);
        out.clear();
        // Dupacks for pre-timeout data must not re-enter fast retransmit.
        for i in 0..5 {
            s.on_ack(&dupack(4), now + SimDuration::from_secs(5) + ms(i), &mut out);
        }
        assert_eq!(s.stats().fast_retransmits, 0);
    }

    #[test]
    fn timeout_goes_back_n() {
        // Grow, then let everything time out: the refill must restart from
        // snd_una and mark the resent segments as retransmissions.
        let mut s = RenoSender::new(RenoConfig::default());
        let mut out = SenderOutput::new();
        s.on_start(SimTime::ZERO, &mut out);
        out.clear();
        let mut now = SimTime::ZERO;
        for cum in 1..=4 {
            now += ms(10);
            s.on_ack(&ack_at(cum, now - ms(10)), now, &mut out);
            out.clear();
        }
        s.on_timer(now + SimDuration::from_secs(5), &mut out);
        // cwnd = 1 → exactly one segment goes out: the oldest hole.
        assert_eq!(out.transmissions().len(), 1);
        assert_eq!(out.transmissions()[0].seq, 4);
        assert!(out.transmissions()[0].is_retransmit);
        out.clear();
        // The ACK for it releases the *next* previously-sent segments,
        // also flagged as retransmissions.
        s.on_ack(&ack_at(5, now), now + SimDuration::from_secs(6), &mut out);
        assert!(!out.transmissions().is_empty());
        assert!(
            out.transmissions().iter().all(|t| t.is_retransmit),
            "go-back-N refill resends old sequence numbers"
        );
    }

    #[test]
    fn post_timeout_ack_beyond_rewound_nxt_is_safe() {
        // A pre-timeout packet can be acknowledged after the rewind; the
        // sender must not underflow its flight accounting.
        let mut s = RenoSender::new(RenoConfig::default());
        let mut out = SenderOutput::new();
        s.on_start(SimTime::ZERO, &mut out);
        out.clear();
        let mut now = SimTime::ZERO;
        for cum in 1..=4 {
            now += ms(10);
            s.on_ack(&ack_at(cum, now - ms(10)), now, &mut out);
            out.clear();
        }
        let nxt_before = s.w.snd_una() + s.w.flight();
        s.on_timer(now + SimDuration::from_secs(5), &mut out);
        out.clear();
        // Everything that was in flight pre-timeout gets acked at once.
        s.on_ack(&ack_at(nxt_before, now), now + SimDuration::from_secs(5) + ms(1), &mut out);
        assert_eq!(s.in_flight(), out.transmissions().len());
        assert!(s.cwnd() >= 1.0);
    }

    #[test]
    fn limited_transmit_sends_on_first_two_dupacks() {
        let cfg = RenoConfig { limited_transmit: true, ..RenoConfig::default() };
        let mut s = RenoSender::new(cfg);
        let mut out = SenderOutput::new();
        s.on_start(SimTime::ZERO, &mut out);
        out.clear();
        let mut now = SimTime::ZERO;
        for cum in 1..=4 {
            now += ms(10);
            s.on_ack(&ack_at(cum, now - ms(10)), now, &mut out);
            out.clear();
        }
        s.on_ack(&dupack(4), now + ms(1), &mut out);
        assert_eq!(out.transmissions().len(), 1, "limited transmit releases one segment");
        assert!(!out.transmissions()[0].is_retransmit);
        out.clear();
        s.on_ack(&dupack(4), now + ms(2), &mut out);
        assert_eq!(out.transmissions().len(), 1);
    }

    #[test]
    fn dupacks_with_nothing_outstanding_ignored() {
        // Before anything is sent, stray dupacks must be ignored.
        let mut s = RenoSender::new(RenoConfig::default());
        let mut out = SenderOutput::new();
        for _ in 0..5 {
            s.on_ack(&dupack(0), at(30), &mut out);
        }
        assert_eq!(s.stats().fast_retransmits, 0);
        assert_eq!(s.stats().dupacks, 0);
        assert!(out.transmissions().is_empty());
    }
}
