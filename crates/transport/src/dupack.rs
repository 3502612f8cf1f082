//! The loss-recovery engine under the duplicate-ACK senders: NewReno's send
//! window, go-back-N refill and recovery episode, held once (DESIGN.md §2
//! "Three recovery engines").
//!
//! Reno / NewReno (and DSACK, Eifel and TCP-DOOR through them), TD-FR and
//! CUBIC each own one [`Window`] and keep their own laws — when to
//! retransmit, how far to cut, how to grow. **The engine never decides a
//! window and a sender never touches sequence state:** [`Window::cwnd`] and
//! [`Window::ssthresh`] are the only fields a sender writes, and the engine
//! moves `cwnd` only where a sender calls [`Window::grow`] or
//! [`Window::inflate`]. Where the senders differ inside recovery, the
//! difference is an argument or a step the caller takes, never a mode of
//! the engine: the cap on inflation, what a partial ACK does to `cwnd` (the
//! caller's arm of [`Advance::Partial`]), and the reduction, which the
//! caller applies *after* [`Window::fast_retransmit`] and *between*
//! [`Window::timeout`] and [`Window::go_back_n`].
//!
//! The methods an ACK reaches carry `#[inline]` because the senders live in
//! other crates: without it `sender.*.on_ack_ns` reads + 2.5 ns (11 %) for
//! the four calls a sender's own copy had inlined, + 0.9 ns with it
//! (EXPERIMENTS.md "Performance trajectory", ISSUE 22).

use std::collections::HashSet;

use netsim::time::SimTime;

use crate::rto::RtoEstimator;
use crate::sender::{AckEvent, SenderOutput, INITIAL_SSTHRESH};
use crate::telemetry::CommonStats;

/// The event counters every duplicate-ACK variant reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Fast retransmits (recovery episodes opened).
    pub fast_retransmits: u64,
    /// Retransmission timeouts taken.
    pub timeouts: u64,
    /// Duplicate ACKs that arrived with data outstanding.
    pub dupacks: u64,
    /// Holes plugged on partial ACKs inside recovery.
    pub partial_acks: u64,
    /// Segments cumulatively acknowledged.
    pub acked_segments: u64,
}

/// What a cumulative advance meant for the recovery episode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Advance {
    /// No episode was open.
    Open,
    /// The ACK reached `recover`: the episode is closed.
    Full,
    /// The ACK fell short of `recover`: the episode stays open and the
    /// caller plugs the next hole or abandons it.
    Partial,
}

/// Send window, retransmission bookkeeping, RTO and recovery episode of one
/// duplicate-ACK sender.
///
/// # Examples
///
/// ```
/// use transport::dupack::Window;
/// use transport::sender::{SenderOutput, MAX_CWND};
///
/// let mut w = Window::new("reno", MAX_CWND);
/// let mut out = SenderOutput::new();
/// w.cwnd = 4.0;
/// w.send_new_data(&mut out);
/// assert_eq!((w.flight(), out.transmissions().len()), (4, 4));
/// ```
#[derive(Debug)]
pub struct Window {
    /// Congestion window, in segments. The sender's to write.
    pub cwnd: f64,
    /// Slow-start threshold, in segments. The sender's to write.
    pub ssthresh: f64,
    /// `algo=` label of the spans this window emits.
    algo: &'static str,
    max_cwnd: f64,
    snd_una: u64,
    snd_nxt: u64,
    /// Highest sequence ever transmitted + 1; a timeout rewinds `snd_nxt`
    /// below it and the refill up to it is retransmission.
    highest_sent: u64,
    /// No fast retransmit while `snd_una` is below this (RFC 2582's guard
    /// against duplicate ACKs for data sent before a timeout).
    fr_allowed_from: u64,
    /// Segments RFC 3042 limited transmit lets out beyond `cwnd`.
    limited_transmit_credit: u64,
    /// Retransmissions not yet cumulatively acknowledged.
    retransmitted: HashSet<u64>,
    /// `snd_nxt` when the open recovery episode began.
    recover: Option<u64>,
    /// Duplicate ACKs since the last advance.
    dupacks: u32,
    rto: RtoEstimator,
    counters: Counters,
}

impl Window {
    /// A window in slow start at `cwnd = 1` and [`INITIAL_SSTHRESH`], nothing
    /// sent, timed by [`RtoEstimator::RFC2988`].
    pub fn new(algo: &'static str, max_cwnd: f64) -> Self {
        Window {
            cwnd: 1.0,
            ssthresh: INITIAL_SSTHRESH,
            algo,
            max_cwnd,
            snd_una: 0,
            snd_nxt: 0,
            highest_sent: 0,
            fr_allowed_from: 0,
            limited_transmit_credit: 0,
            retransmitted: HashSet::new(),
            recover: None,
            dupacks: 0,
            rto: RtoEstimator::RFC2988,
            counters: Counters::default(),
        }
    }

    /// Oldest unacknowledged segment.
    pub fn snd_una(&self) -> u64 {
        self.snd_una
    }

    /// Segments sent and not yet cumulatively acknowledged.
    pub fn flight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// Half the flight, at least two segments: the `ssthresh` a Reno-style
    /// reduction leaves.
    pub fn halved_flight(&self) -> f64 {
        (self.flight() as f64 / 2.0).max(2.0)
    }

    /// Duplicate ACKs counted since the last cumulative advance.
    pub fn dupacks(&self) -> u32 {
        self.dupacks
    }

    /// The open recovery episode's end point, if one is open.
    pub fn recover(&self) -> Option<u64> {
        self.recover
    }

    /// False while duplicate ACKs may still be for data sent before the
    /// last timeout (RFC 2582 §3, the "bugfix").
    pub fn fast_retransmit_allowed(&self) -> bool {
        self.snd_una >= self.fr_allowed_from
    }

    /// True if a retransmission of `seq` is outstanding.
    pub fn was_retransmitted(&self, seq: u64) -> bool {
        self.retransmitted.contains(&seq)
    }

    /// The retransmission-timeout estimator.
    pub fn rto(&self) -> &RtoEstimator {
        &self.rto
    }

    /// Event counters.
    pub fn counters(&self) -> Counters {
        self.counters
    }

    /// The fields of [`CommonStats`] every duplicate-ACK variant fills the
    /// same way; `extra` is left for the caller.
    pub fn common_stats(&self, algorithm: &str) -> CommonStats {
        CommonStats {
            algorithm: algorithm.to_owned(),
            acked_segments: self.counters.acked_segments,
            fast_retransmits: self.counters.fast_retransmits,
            timeouts: self.counters.timeouts,
            dupacks: self.counters.dupacks,
            cwnd: self.cwnd,
            ssthresh: self.ssthresh,
            srtt: self.rto.srtt(),
            rto: Some(self.rto.rto()),
            ..Default::default()
        }
    }

    /// Sends until the flight fills `min(cwnd, max_cwnd)` plus any limited-
    /// transmit credit. After a timeout the refill runs from `snd_una`
    /// (go-back-N): whatever was sent before is a retransmission.
    #[inline]
    pub fn send_new_data(&mut self, out: &mut SenderOutput) {
        let window = self.cwnd.min(self.max_cwnd);
        while (self.flight() as f64) < window + self.limited_transmit_credit as f64 {
            let is_rtx = self.snd_nxt < self.highest_sent;
            if is_rtx {
                self.retransmitted.insert(self.snd_nxt);
            }
            out.transmit(self.snd_nxt, is_rtx);
            self.snd_nxt += 1;
            self.highest_sent = self.highest_sent.max(self.snd_nxt);
        }
    }

    fn retransmit_una(&mut self, out: &mut SenderOutput) {
        out.transmit(self.snd_una, true);
        self.retransmitted.insert(self.snd_una);
    }

    /// When the retransmission timer is due if (re)started at `now`; `None`
    /// with nothing in flight.
    #[inline]
    pub fn rto_deadline(&self, now: SimTime) -> Option<SimTime> {
        (self.flight() > 0).then(|| now + self.rto.rto())
    }

    /// Programs the host timer to [`Self::rto_deadline`].
    #[inline]
    pub fn arm_rto(&self, now: SimTime, out: &mut SenderOutput) {
        match self.rto_deadline(now) {
            Some(at) => out.set_timer(at),
            None => out.cancel_timer(),
        }
    }

    /// AIMD growth for `newly` acknowledged segments: one segment each below
    /// `ssthresh`, `1/cwnd` each above.
    #[inline]
    pub fn grow(&mut self, newly: u64) {
        for _ in 0..newly {
            if self.cwnd < self.ssthresh {
                self.cwnd += 1.0;
            } else {
                self.cwnd += 1.0 / self.cwnd;
            }
        }
        self.cwnd = self.cwnd.min(self.max_cwnd);
    }

    /// Takes a cumulative ACK: `None` unless it advances `snd_una`, else the
    /// segments newly acknowledged and what that meant for the episode. A
    /// pre-timeout segment may be acknowledged after the rewind, so `snd_nxt`
    /// never trails `snd_una`; only an echo of a first transmission is an
    /// RTT sample (Karn).
    #[inline]
    pub fn advance(&mut self, ack: &AckEvent, now: SimTime) -> Option<(u64, Advance)> {
        if ack.cum_ack <= self.snd_una {
            return None;
        }
        let newly = ack.cum_ack - self.snd_una;
        self.counters.acked_segments += newly;
        self.snd_una = ack.cum_ack;
        self.snd_nxt = self.snd_nxt.max(ack.cum_ack);
        self.dupacks = 0;
        self.limited_transmit_credit = 0;
        self.retransmitted.retain(|&s| s >= ack.cum_ack);
        if ack.echo_tx_count == 1 {
            self.rto.on_sample(now.saturating_since(ack.echo_timestamp));
        }
        let advance = match self.recover {
            Some(recover) if ack.cum_ack >= recover => {
                self.recover = None;
                Advance::Full
            }
            Some(_) => Advance::Partial,
            None => Advance::Open,
        };
        Some((newly, advance))
    }

    /// Counts a duplicate ACK; false (and uncounted) with nothing in flight.
    #[inline]
    pub fn dupack(&mut self) -> bool {
        if self.flight() == 0 {
            return false;
        }
        self.dupacks += 1;
        self.counters.dupacks += 1;
        true
    }

    /// RFC 3042: lets one segment out beyond `cwnd`, until the next advance.
    #[inline]
    pub fn limited_transmit(&mut self, out: &mut SenderOutput) {
        self.limited_transmit_credit += 1;
        self.send_new_data(out);
    }

    /// A duplicate ACK inside recovery signals a departure: inflates `cwnd`
    /// by one segment, to at most `cap`, and sends what that allows.
    #[inline]
    pub fn inflate(&mut self, cap: f64, out: &mut SenderOutput) {
        self.cwnd = (self.cwnd + 1.0).min(cap);
        self.send_new_data(out);
    }

    /// Opens a recovery episode ending at `snd_nxt` and retransmits
    /// `snd_una`. Counted and reported (`cc.fast_rtx`) here, before the
    /// caller's reduction.
    pub fn fast_retransmit(&mut self, now: SimTime, out: &mut SenderOutput) {
        self.counters.fast_retransmits += 1;
        obs::span(now.as_nanos(), "cc.fast_rtx", || {
            format!(
                "algo={} seq={} dupacks={} cwnd={:.2}",
                self.algo, self.snd_una, self.dupacks, self.cwnd
            )
        });
        self.recover = Some(self.snd_nxt);
        self.limited_transmit_credit = 0;
        self.retransmit_una(out);
    }

    /// A partial ACK exposed the next hole: retransmits `snd_una`.
    pub fn plug_hole(&mut self, out: &mut SenderOutput) {
        self.counters.partial_acks += 1;
        self.retransmit_una(out);
    }

    /// Closes the episode without a full ACK (plain Reno on any advance, an
    /// undone spurious reduction) and forgets the duplicate ACKs behind it.
    pub fn abandon_episode(&mut self) {
        self.recover = None;
        self.dupacks = 0;
    }

    /// The retransmission timer fired: false with nothing in flight, else
    /// counted and reported (`cc.rto_expiry`). The caller reduces from the
    /// flight as it stands, then calls [`Self::go_back_n`].
    pub fn timeout(&mut self, now: SimTime) -> bool {
        if self.flight() == 0 {
            return false;
        }
        self.counters.timeouts += 1;
        obs::span(now.as_nanos(), "cc.rto_expiry", || {
            format!("algo={} una={} flight={}", self.algo, self.snd_una, self.flight())
        });
        true
    }

    /// Presumes the whole flight lost: backs the RTO off, closes any
    /// episode, bars fast retransmit below what was already sent, and
    /// refills from `snd_una` (ns-2's `t_seqno_ = highest_ack_`).
    pub fn go_back_n(&mut self, out: &mut SenderOutput) {
        self.abandon_episode();
        self.fr_allowed_from = self.highest_sent;
        self.rto.backoff();
        self.snd_nxt = self.snd_una;
        self.limited_transmit_credit = 0;
        self.send_new_data(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::time::SimDuration;
    use proptest::prelude::*;

    const MAX_CWND: f64 = 12.0;

    fn window() -> Window {
        Window::new("test", MAX_CWND)
    }

    fn ack(cum_ack: u64, echo_tx_count: u32) -> AckEvent {
        AckEvent {
            cum_ack,
            sack: Vec::new(),
            dsack: None,
            echo_timestamp: SimTime::ZERO,
            echo_tx_count,
            dup: false,
        }
    }

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    /// A window with `n` segments in flight and `cwnd = n`.
    fn filled(n: u64) -> (Window, SenderOutput) {
        let (mut w, mut out) = (window(), SenderOutput::new());
        w.cwnd = n as f64;
        w.send_new_data(&mut out);
        out.clear();
        (w, out)
    }

    /// Runs `op`, which ends in a refill from `flight_before`, and holds
    /// what it sent to the window: consecutive from `snd_nxt`, stopping at
    /// the first flight not below `min(cwnd, max_cwnd) + credit` (so nothing
    /// at all when the flight was already there), and marked a
    /// retransmission exactly below what had been sent before.
    fn refill(
        w: &mut Window,
        flight_before: u64,
        op: impl FnOnce(&mut Window, &mut SenderOutput),
    ) -> Result<(), TestCaseError> {
        let sent_before = w.highest_sent;
        let mut out = SenderOutput::new();
        op(w, &mut out);
        let sent = out.transmissions();
        let limit = w.cwnd.min(w.max_cwnd) + w.limited_transmit_credit as f64;
        prop_assert!(w.flight() as f64 >= limit, "flight {} under {limit}", w.flight());
        prop_assert_eq!(w.flight(), flight_before + sent.len() as u64);
        if let Some(last) = sent.last() {
            prop_assert!(((w.flight() - 1) as f64) < limit, "sent past {limit}: {sent:?}");
            prop_assert_eq!(last.seq + 1, w.snd_nxt);
        }
        prop_assert!(sent.windows(2).all(|p| p[0].seq + 1 == p[1].seq), "gap in {sent:?}");
        prop_assert!(sent.iter().all(|t| t.is_retransmit == (t.seq < sent_before)), "{sent:?}");
        Ok(())
    }

    proptest! {
        /// The window discipline every duplicate-ACK variant inherits, under
        /// a caller that writes any `cwnd` it likes.
        #[test]
        fn sequence_state_stays_ordered_and_sends_stay_in_the_window(
            script in collection::vec((0u8..5, 0u64..64, 1.0f64..20.0), 1..120),
        ) {
            let mut w = window();
            let mut now = SimTime::ZERO;
            refill(&mut w, 0, |w, out| w.send_new_data(out))?;
            for (op, arg, cwnd) in script {
                now += SimDuration::from_millis(arg);
                let flight = w.flight();
                match op {
                    // A cumulative ACK for anything ever sent, even past a
                    // rewound `snd_nxt`; odd `arg`s echo a retransmission.
                    0 if w.highest_sent > w.snd_una => {
                        let cum = w.snd_una + 1 + arg % (w.highest_sent - w.snd_una);
                        let (una, credit) = (w.snd_una, w.limited_transmit_credit);
                        let (newly, advance) =
                            w.advance(&ack(cum, 1 + (arg % 2) as u32), now).expect("cum > snd_una");
                        prop_assert_eq!((una + newly, w.snd_una), (cum, cum));
                        prop_assert_eq!(w.limited_transmit_credit, 0, "credit was {credit}");
                        prop_assert_eq!(advance == Advance::Partial, w.recover.is_some());
                        let mut out = SenderOutput::new();
                        if advance == Advance::Partial {
                            w.plug_hole(&mut out);
                        }
                        w.cwnd = cwnd;
                        let flight = w.flight();
                        refill(&mut w, flight, |w, out| w.send_new_data(out))?;
                    }
                    1 => {
                        prop_assert_eq!(w.dupack(), flight > 0);
                        if flight > 0 && w.recover.is_some() {
                            let cap = if arg % 2 == 0 { MAX_CWND + 3.0 } else { f64::INFINITY };
                            refill(&mut w, flight, |w, out| w.inflate(cap, out))?;
                            prop_assert!(w.cwnd <= cap);
                        }
                    }
                    2 if flight > 0 && w.recover.is_none() => {
                        refill(&mut w, flight, |w, out| w.limited_transmit(out))?;
                    }
                    3 if flight > 0 && w.recover.is_none() && w.fast_retransmit_allowed() => {
                        let mut out = SenderOutput::new();
                        w.fast_retransmit(now, &mut out);
                        prop_assert_eq!(out.transmissions().len(), 1);
                        prop_assert_eq!(w.recover, Some(w.snd_nxt));
                        w.cwnd = cwnd;
                    }
                    4 if w.timeout(now) => {
                        let sent = w.highest_sent;
                        w.cwnd = 1.0;
                        refill(&mut w, 0, |w, out| w.go_back_n(out))?;
                        prop_assert_eq!((w.flight(), w.recover, w.dupacks), (1, None, 0));
                        prop_assert_eq!(w.fast_retransmit_allowed(), w.snd_una >= sent);
                    }
                    _ => {}
                }
                prop_assert!(w.snd_una <= w.snd_nxt && w.snd_nxt <= w.highest_sent);
                prop_assert!(
                    w.retransmitted.iter().all(|&s| w.snd_una <= s && s < w.highest_sent),
                    "{:?} outside [{}, {})", w.retransmitted, w.snd_una, w.highest_sent
                );
                prop_assert_eq!(w.rto_deadline(now).is_some(), w.flight() > 0);
                prop_assert!(w.recover.unwrap_or(0) <= w.highest_sent);
            }
        }
    }

    #[test]
    fn limited_transmit_credit_does_not_survive_an_advance() {
        let (mut w, mut out) = filled(4);
        assert!(w.dupack());
        w.limited_transmit(&mut out);
        assert_eq!(w.flight(), 5, "one segment beyond cwnd");
        out.clear();
        w.advance(&ack(1, 1), at(10)).expect("advances");
        w.send_new_data(&mut out);
        assert_eq!(w.flight(), 4, "back inside cwnd: {:?}", out.transmissions());
    }

    #[test]
    fn no_fast_retransmit_below_what_a_timeout_found_sent() {
        let (mut w, mut out) = filled(6);
        assert!(w.fast_retransmit_allowed());
        assert!(w.timeout(at(3000)));
        w.cwnd = 1.0;
        w.go_back_n(&mut out);
        assert!(!w.fast_retransmit_allowed(), "duplicate ACKs are for the old flight");
        w.advance(&ack(5, 2), at(3100)).expect("advances");
        assert!(!w.fast_retransmit_allowed(), "segment 5 was sent before the timeout");
        w.advance(&ack(6, 2), at(3200)).expect("advances");
        assert!(w.fast_retransmit_allowed());
    }

    #[test]
    fn an_echo_of_a_retransmission_is_no_rtt_sample() {
        let (mut w, _) = filled(4);
        w.advance(&ack(1, 2), at(100)).expect("advances");
        assert_eq!(w.rto().srtt(), None, "Karn: echo_tx_count == 2 is ambiguous");
        w.advance(&ack(2, 1), at(100)).expect("advances");
        assert_eq!(w.rto().srtt(), Some(SimDuration::from_millis(100)));
        w.advance(&ack(3, 2), at(900)).expect("advances");
        assert_eq!(w.rto().srtt(), Some(SimDuration::from_millis(100)));
    }

    #[test]
    fn a_timeout_refills_from_the_oldest_hole_as_retransmissions() {
        let (mut w, mut out) = filled(4);
        w.fast_retransmit(at(50), &mut out);
        out.clear();
        assert!(w.timeout(at(3000)));
        w.cwnd = 2.0;
        w.go_back_n(&mut out);
        let sent: Vec<_> = out.transmissions().iter().map(|t| (t.seq, t.is_retransmit)).collect();
        assert_eq!(sent, [(0, true), (1, true)]);
        assert_eq!(w.recover(), None, "a timeout closes the episode");
        assert_eq!(w.rto().rto(), SimDuration::from_secs(6), "3 s initial RTO, backed off once");
        assert!(w.was_retransmitted(1) && !w.was_retransmitted(2));
    }

    #[test]
    fn nothing_in_flight_means_no_timeout_no_dupack_and_no_timer() {
        let mut w = window();
        let mut out = SenderOutput::new();
        assert!(!w.timeout(at(3000)) && !w.dupack());
        assert_eq!((w.counters().timeouts, w.counters().dupacks), (0, 0));
        w.arm_rto(at(0), &mut out);
        assert_eq!(out.timer(), crate::sender::TimerOp::Cancel);
    }
}
