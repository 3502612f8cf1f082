//! TD-FR: time-delayed fast recovery (Paxson \[18\], analyzed by
//! Blanton–Allman \[3\]).
//!
//! A NewReno-style sender that does **not** fire fast retransmit on the
//! third duplicate ACK. Instead it starts a timer at the *first* duplicate
//! ACK and retransmits only if duplicate ACKs persist for
//! `max(RTT/2, DT)`, where `DT` is the spacing between the first and third
//! duplicate ACK. Mild reordering resolves within the wait; persistent
//! reordering with long RTTs still defeats it (the paper's Figure 6, right
//! panel).

use netsim::time::{SimDuration, SimTime};
use transport::dupack::{Advance, Window};
use transport::sender::{AckEvent, SenderOutput, TcpSenderAlgo, MAX_CWND};

/// Configuration for [`TdFrSender`].
#[derive(Debug, Clone)]
pub struct TdFrConfig {
    /// Upper bound on the congestion window, in segments.
    pub max_cwnd: f64,
}

impl Default for TdFrConfig {
    fn default() -> Self {
        TdFrConfig { max_cwnd: MAX_CWND }
    }
}

/// Fallback wait when no RTT sample exists yet.
const DEFAULT_WAIT: SimDuration = SimDuration::from_millis(500);

/// Pending duplicate-ACK episode.
#[derive(Debug, Clone, Copy)]
struct DupEpisode {
    first_at: SimTime,
    deadline: SimTime,
    count: u32,
}

/// Event counters for [`TdFrSender`].
#[derive(Debug, Clone, Copy, Default, serde::Serialize)]
pub struct TdFrStats {
    /// Delayed fast retransmits that actually fired.
    pub delayed_fast_retransmits: u64,
    /// Duplicate-ACK episodes cancelled by a cumulative advance (reordering
    /// absorbed without a retransmission).
    pub cancelled_episodes: u64,
    /// Retransmission timeouts.
    pub timeouts: u64,
}

/// The TD-FR sender: [`Window`] plus the episode deadline, which shares the
/// host's one timer with the RTO.
///
/// # Examples
///
/// ```
/// use baselines::tdfr::{TdFrConfig, TdFrSender};
/// use transport::sender::{SenderOutput, TcpSenderAlgo};
/// use netsim::time::SimTime;
///
/// let mut s = TdFrSender::new(TdFrConfig::default());
/// let mut out = SenderOutput::new();
/// s.on_start(SimTime::ZERO, &mut out);
/// assert_eq!(s.cwnd(), 1.0);
/// ```
#[derive(Debug)]
pub struct TdFrSender {
    w: Window,
    rto_deadline: Option<SimTime>,
    episode: Option<DupEpisode>,
    cancelled_episodes: u64,
}

impl TdFrSender {
    /// Creates a sender in slow start with `cwnd = 1`.
    pub fn new(cfg: TdFrConfig) -> Self {
        let w = Window::new("tdfr", cfg.max_cwnd);
        TdFrSender { w, rto_deadline: None, episode: None, cancelled_episodes: 0 }
    }

    /// Event counters.
    pub fn stats(&self) -> TdFrStats {
        let c = self.w.counters();
        TdFrStats {
            delayed_fast_retransmits: c.fast_retransmits,
            cancelled_episodes: self.cancelled_episodes,
            timeouts: c.timeouts,
        }
    }

    /// The wait threshold `max(RTT/2, DT)` for the current episode.
    fn wait_threshold(&self, dt: Option<SimDuration>) -> SimDuration {
        let half_rtt = self.srtt().map(|s| s / 2).unwrap_or(DEFAULT_WAIT);
        match dt {
            Some(d) => half_rtt.max(d),
            None => half_rtt,
        }
    }

    fn arm_timer(&mut self, now: SimTime, out: &mut SenderOutput) {
        self.rto_deadline = self.w.rto_deadline(now);
        self.rearm(out);
    }

    /// Programs the host's single timer to the earliest pending deadline.
    fn rearm(&self, out: &mut SenderOutput) {
        let fr = self.episode.map(|e| e.deadline);
        let deadline = match (self.rto_deadline, fr) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        match deadline {
            Some(d) => out.set_timer(d),
            None => out.cancel_timer(),
        }
    }

    fn fire_delayed_fast_retransmit(&mut self, now: SimTime, out: &mut SenderOutput) {
        self.episode = None;
        self.w.fast_retransmit(now, out);
        self.w.ssthresh = self.w.halved_flight();
        self.w.cwnd = self.w.ssthresh;
        self.arm_timer(now, out);
    }

    /// A duplicate ACK outside recovery: opens or extends the episode and
    /// fires once three have persisted past its deadline.
    fn count_toward_episode(&mut self, now: SimTime, out: &mut SenderOutput) {
        let ep = match self.episode {
            None => {
                DupEpisode { first_at: now, deadline: now + self.wait_threshold(None), count: 1 }
            }
            Some(ep) => {
                let count = ep.count + 1;
                let mut deadline = ep.deadline;
                if count == 3 {
                    // DT known: re-derive the deadline.
                    let dt = now.saturating_since(ep.first_at);
                    deadline = ep.first_at + self.wait_threshold(Some(dt));
                }
                DupEpisode { first_at: ep.first_at, deadline, count }
            }
        };
        self.episode = Some(ep);
        if ep.count >= 3 && ep.deadline <= now {
            self.fire_delayed_fast_retransmit(now, out);
        } else {
            // RFC 3042 limited transmit (the paper notes TD-FR relies on it
            // to reduce burstiness).
            if ep.count <= 2 {
                self.w.limited_transmit(out);
            }
            self.rearm(out);
        }
    }
}

impl TcpSenderAlgo for TdFrSender {
    fn on_start(&mut self, now: SimTime, out: &mut SenderOutput) {
        self.w.send_new_data(out);
        self.arm_timer(now, out);
    }

    fn on_ack(&mut self, ack: &AckEvent, now: SimTime, out: &mut SenderOutput) {
        let w = &mut self.w;
        if let Some((newly, advance)) = w.advance(ack, now) {
            if self.episode.take().is_some() {
                self.cancelled_episodes += 1;
            }
            match advance {
                Advance::Full => w.cwnd = w.ssthresh,
                Advance::Partial => {
                    // NewReno-style next-hole retransmission.
                    w.plug_hole(out);
                    w.cwnd = (w.cwnd - newly as f64 + 1.0).max(1.0);
                }
                Advance::Open => w.grow(newly),
            }
            w.send_new_data(out);
            self.arm_timer(now, out);
        } else if ack.dup && w.dupack() {
            if w.recover().is_some() {
                // Window inflation while recovering, with no cap of its own.
                w.inflate(f64::INFINITY, out);
            } else if w.fast_retransmit_allowed() {
                self.count_toward_episode(now, out);
            }
        }
    }

    fn on_timer(&mut self, now: SimTime, out: &mut SenderOutput) {
        if self.episode.is_some_and(|ep| ep.deadline <= now) {
            // Duplicate ACKs persisted past the threshold: retransmit.
            self.fire_delayed_fast_retransmit(now, out);
        } else if self.rto_deadline.is_some_and(|d| d <= now) && self.w.timeout(now) {
            self.episode = None;
            self.w.ssthresh = self.w.halved_flight();
            self.w.cwnd = 1.0;
            self.w.go_back_n(out);
            self.arm_timer(now, out);
        } else {
            self.rearm(out);
        }
    }

    fn cwnd(&self) -> f64 {
        self.w.cwnd
    }

    fn ssthresh(&self) -> f64 {
        self.w.ssthresh
    }

    fn srtt(&self) -> Option<SimDuration> {
        self.w.rto().srtt()
    }

    fn rto(&self) -> Option<SimDuration> {
        Some(self.w.rto().rto())
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

    fn ack(cum: u64, sent: SimTime) -> AckEvent {
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
        AckEvent { dup: true, ..ack(cum, SimTime::ZERO) }
    }

    /// Grow with 100 ms RTT so srtt ≈ 100 ms.
    fn grow(s: &mut TdFrSender, rounds: u64) -> SimTime {
        let mut out = SenderOutput::new();
        s.on_start(SimTime::ZERO, &mut out);
        let mut now = SimTime::ZERO;
        for _ in 0..rounds {
            now += ms(100);
            let cum = s.w.snd_una() + 1;
            out.clear();
            s.on_ack(&ack(cum, now - ms(100)), now, &mut out);
        }
        now
    }

    #[test]
    fn three_dupacks_do_not_fire_immediately() {
        let mut s = TdFrSender::new(TdFrConfig::default());
        let now = grow(&mut s, 8);
        let una = s.w.snd_una();
        let mut out = SenderOutput::new();
        // Three rapid dupacks (1 ms apart): DT = 2 ms < RTT/2 = 50 ms.
        for i in 0..3 {
            out.clear();
            s.on_ack(&dupack(una), now + ms(1 + i), &mut out);
        }
        assert_eq!(s.stats().delayed_fast_retransmits, 0, "must wait RTT/2");
        assert!(!out.transmissions().iter().any(|t| t.is_retransmit));
    }

    #[test]
    fn persistent_dupacks_fire_after_wait() {
        let mut s = TdFrSender::new(TdFrConfig::default());
        let now = grow(&mut s, 8);
        let una = s.w.snd_una();
        let mut out = SenderOutput::new();
        for i in 0..3 {
            out.clear();
            s.on_ack(&dupack(una), now + ms(1 + i), &mut out);
        }
        out.clear();
        // Timer fires past first_at + RTT/2 (≈ now + 1 + 50 ms).
        s.on_timer(now + ms(60), &mut out);
        assert_eq!(s.stats().delayed_fast_retransmits, 1);
        assert!(out.transmissions().iter().any(|t| t.is_retransmit && t.seq == una));
    }

    #[test]
    fn cum_advance_cancels_episode() {
        let mut s = TdFrSender::new(TdFrConfig::default());
        let now = grow(&mut s, 8);
        let una = s.w.snd_una();
        let mut out = SenderOutput::new();
        for i in 0..3 {
            out.clear();
            s.on_ack(&dupack(una), now + ms(1 + i), &mut out);
        }
        out.clear();
        // Reordered segment lands: cumulative ACK advances before deadline.
        s.on_ack(&ack(una + 4, now), now + ms(10), &mut out);
        assert_eq!(s.stats().cancelled_episodes, 1);
        out.clear();
        // A later timer fire must not retransmit.
        s.on_timer(now + ms(60), &mut out);
        assert_eq!(s.stats().delayed_fast_retransmits, 0);
    }

    #[test]
    fn slow_dupacks_stretch_the_wait() {
        let mut s = TdFrSender::new(TdFrConfig::default());
        let now = grow(&mut s, 8);
        let una = s.w.snd_una();
        let mut out = SenderOutput::new();
        // First and third dupack 200 ms apart: DT = 200 ms > RTT/2.
        s.on_ack(&dupack(una), now + ms(1), &mut out);
        s.on_ack(&dupack(una), now + ms(100), &mut out);
        out.clear();
        s.on_ack(&dupack(una), now + ms(201), &mut out);
        // Deadline = first_at + 200 ms = now + 201: already reached → fires.
        assert_eq!(s.stats().delayed_fast_retransmits, 1);
    }

    /// Where TD-FR parts from Reno and CUBIC inside recovery: they stop
    /// inflating at `max_cwnd + dupthresh`, it does not stop.
    #[test]
    fn recovery_inflation_is_not_capped() {
        let mut s = TdFrSender::new(TdFrConfig { max_cwnd: 8.0 });
        let now = grow(&mut s, 12);
        let una = s.w.snd_una();
        let mut out = SenderOutput::new();
        for i in 0..3 {
            s.on_ack(&dupack(una), now + ms(1 + i), &mut out);
        }
        s.on_timer(now + ms(60), &mut out);
        assert_eq!(s.stats().delayed_fast_retransmits, 1);
        let entered_at = s.cwnd();
        assert_eq!(entered_at, s.ssthresh());
        out.clear();
        for _ in 0..20 {
            s.on_ack(&dupack(una), now + ms(61), &mut out);
        }
        assert_eq!(s.cwnd(), entered_at + 20.0);
        assert!(s.cwnd() > 8.0 + 3.0, "past where Reno's inflation stops");
        assert!(out.transmissions().is_empty(), "the send window itself still ends at max_cwnd");
    }

    #[test]
    fn no_delayed_fast_retransmit_for_the_flight_a_timeout_resent() {
        let mut s = TdFrSender::new(TdFrConfig::default());
        let now = grow(&mut s, 4);
        let una = s.w.snd_una();
        let mut out = SenderOutput::new();
        s.on_timer(now + SimDuration::from_secs(5), &mut out);
        assert_eq!(s.stats().timeouts, 1);
        out.clear();
        for i in 0..5 {
            s.on_ack(&dupack(una), now + SimDuration::from_secs(5) + ms(i), &mut out);
        }
        s.on_timer(now + SimDuration::from_secs(6), &mut out);
        assert_eq!(s.stats().delayed_fast_retransmits, 0, "no episode opens below the rewind");
        assert!(out.transmissions().is_empty(), "and limited transmit grants nothing");
    }

    #[test]
    fn rto_still_works() {
        let mut s = TdFrSender::new(TdFrConfig::default());
        let mut out = SenderOutput::new();
        s.on_start(SimTime::ZERO, &mut out);
        out.clear();
        s.on_timer(SimTime::ZERO + SimDuration::from_secs(3), &mut out);
        assert_eq!(s.stats().timeouts, 1);
        assert_eq!(s.cwnd(), 1.0);
    }

    #[test]
    fn limited_transmit_releases_segments() {
        let mut s = TdFrSender::new(TdFrConfig::default());
        let now = grow(&mut s, 4);
        let una = s.w.snd_una();
        let mut out = SenderOutput::new();
        s.on_ack(&dupack(una), now + ms(1), &mut out);
        assert_eq!(out.transmissions().len(), 1);
        assert!(!out.transmissions()[0].is_retransmit);
    }
}
