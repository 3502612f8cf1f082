//! CUBIC congestion control (RFC 8312).
//!
//! CUBIC replaces Reno's linear congestion avoidance with a cubic function
//! of the *time since the last congestion event*, anchored at the window
//! where the loss happened (`W_max`): concave recovery toward `W_max`, a
//! plateau around it, then convex probing beyond. Two refinements from the
//! RFC are included:
//!
//! - **Fast convergence** (§4.6): when a flow's `W_max` shrinks twice in a
//!   row, it releases extra bandwidth (`W_max ← cwnd·(1+β)/2`) so a newly
//!   arriving flow converges faster.
//! - **TCP-friendly region** (§4.2): the window never falls below
//!   [`w_est`], the window an AIMD flow with the same β would have grown to
//!   — so CUBIC is never slower than Reno on short-RTT paths.
//!
//! The growth laws live in the free functions [`w_cubic`], [`w_est`] and
//! [`k_from_w_max`] so they can be property-tested in isolation; the sender
//! calls exactly those functions. Loss *recovery* (fast retransmit on three
//! duplicate ACKs, NewReno partial-ACK hole plugging, go-back-N after a
//! timeout) is [`transport::dupack::Window`], the engine `baselines::reno`
//! and `baselines::tdfr` run on, so figure differences against the 2003
//! baselines isolate the growth law and the β reduction.

use netsim::time::{SimDuration, SimTime};
use transport::dupack::{Advance, Window};
use transport::rto::RtoEstimator;
use transport::sender::{AckEvent, SenderOutput, TcpSenderAlgo};

/// `W_cubic(t) = C·(t − K)³ + W_max` (RFC 8312 §4.1), windows in segments,
/// `t` in seconds since the epoch started.
pub fn w_cubic(t_secs: f64, w_max: f64, k: f64, c: f64) -> f64 {
    c * (t_secs - k).powi(3) + w_max
}

/// `K = ∛(W_max·(1 − β)/C)` (RFC 8312 §4.1): the time at which the cubic
/// curve returns to `W_max` after a β reduction.
pub fn k_from_w_max(w_max: f64, beta: f64, c: f64) -> f64 {
    (w_max * (1.0 - beta) / c).cbrt()
}

/// `W_est(t) = W_max·β + 3·(1 − β)/(1 + β) · t/RTT` (RFC 8312 §4.2): the
/// window an AIMD flow with multiplicative factor β would reach `t` seconds
/// into the epoch. CUBIC's TCP-friendly region pins `cwnd ≥ W_est`.
pub fn w_est(t_secs: f64, rtt_secs: f64, w_max: f64, beta: f64) -> f64 {
    w_max * beta + 3.0 * (1.0 - beta) / (1.0 + beta) * (t_secs / rtt_secs)
}

/// Configuration for [`CubicSender`].
#[derive(Debug, Clone)]
pub struct CubicConfig {
    /// Cubic scaling constant `C` (RFC 8312 recommends 0.4).
    pub c: f64,
    /// Multiplicative decrease factor β (RFC 8312 recommends 0.7).
    pub beta: f64,
    /// Fast convergence (§4.6).
    pub fast_convergence: bool,
    /// Duplicate-ACK threshold for fast retransmit.
    pub dupthresh: u32,
    /// Upper bound on the congestion window, in segments.
    pub max_cwnd: f64,
    /// Initial slow-start threshold, in segments (bounds the initial
    /// exponential overshoot, as in the baselines).
    pub initial_ssthresh: f64,
    /// Retransmission-timeout estimator.
    pub rto: RtoEstimator,
}

impl Default for CubicConfig {
    fn default() -> Self {
        CubicConfig {
            c: 0.4,
            beta: 0.7,
            fast_convergence: true,
            dupthresh: 3,
            max_cwnd: 10_000.0,
            initial_ssthresh: 128.0,
            rto: RtoEstimator::rfc2988(),
        }
    }
}

/// Event counters for [`CubicSender`].
#[derive(Debug, Clone, Copy, Default, serde::Serialize)]
pub struct CubicStats {
    /// Fast-retransmit events.
    pub fast_retransmits: u64,
    /// Retransmission timeouts.
    pub timeouts: u64,
    /// Duplicate ACKs observed.
    pub dupacks: u64,
    /// Partial ACKs handled inside fast recovery.
    pub partial_acks: u64,
    /// Segments acknowledged.
    pub acked_segments: u64,
    /// ACKs whose growth came from the TCP-friendly region (§4.2).
    pub tcp_friendly_acks: u64,
    /// Fast-convergence `W_max` reductions taken (§4.6).
    pub fast_convergence_events: u64,
}

/// A CUBIC sender (RFC 8312): [`Window`]'s NewReno loss recovery under the
/// cubic growth law and the β reduction.
///
/// # Examples
///
/// ```
/// use cc::cubic::{CubicConfig, CubicSender};
/// use transport::sender::{SenderOutput, TcpSenderAlgo};
/// use netsim::time::SimTime;
///
/// let mut s = CubicSender::new(CubicConfig::default());
/// let mut out = SenderOutput::new();
/// s.on_start(SimTime::ZERO, &mut out);
/// assert_eq!(out.transmissions().len(), 1);
/// ```
#[derive(Debug)]
pub struct CubicSender {
    cfg: CubicConfig,
    w: Window,
    tcp_friendly_acks: u64,
    fast_convergence_events: u64,
    /// Window at the last congestion event (the cubic anchor).
    w_max: f64,
    /// Time `W_cubic` re-reaches `W_max` this epoch.
    k: f64,
    /// Start of the current congestion-avoidance epoch.
    epoch_start: Option<SimTime>,
}

impl CubicSender {
    /// Creates a sender in slow start with `cwnd = 1`.
    pub fn new(cfg: CubicConfig) -> Self {
        let w = Window::new("cubic", cfg.max_cwnd, cfg.initial_ssthresh, cfg.rto.clone());
        CubicSender {
            cfg,
            w,
            tcp_friendly_acks: 0,
            fast_convergence_events: 0,
            w_max: 0.0,
            k: 0.0,
            epoch_start: None,
        }
    }

    /// Event counters.
    pub fn stats(&self) -> CubicStats {
        let c = self.w.counters();
        CubicStats {
            fast_retransmits: c.fast_retransmits,
            timeouts: c.timeouts,
            dupacks: c.dupacks,
            partial_acks: c.partial_acks,
            acked_segments: c.acked_segments,
            tcp_friendly_acks: self.tcp_friendly_acks,
            fast_convergence_events: self.fast_convergence_events,
        }
    }

    /// The current cubic anchor `W_max`, in segments.
    pub fn w_max(&self) -> f64 {
        self.w_max
    }

    /// Smoothed RTT estimate, if sampled.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.w.rto().srtt()
    }

    /// One congestion event: update `W_max` (with fast convergence), shrink
    /// by β, and end the cubic epoch.
    fn reduce(&mut self, now: SimTime) {
        let cwnd = self.w.cwnd;
        let fast = self.cfg.fast_convergence && cwnd < self.w_max;
        if fast {
            self.fast_convergence_events += 1;
            self.w_max = cwnd * (1.0 + self.cfg.beta) / 2.0;
        } else {
            self.w_max = cwnd;
        }
        self.w.ssthresh = (cwnd * self.cfg.beta).max(2.0);
        self.epoch_start = None;
        obs::span(now.as_nanos(), "cubic.epoch_reset", || {
            format!(
                "w_max={:.2} ssthresh={:.2} fast_convergence={}",
                self.w_max, self.w.ssthresh, fast
            )
        });
    }

    /// Congestion-avoidance growth for `newly` acked segments (§4.1–4.3).
    fn cubic_growth(&mut self, now: SimTime, newly: u64) {
        let rtt =
            self.srtt().unwrap_or_else(|| SimDuration::from_millis(100)).as_secs_f64().max(1e-6);
        let cwnd = self.w.cwnd;
        if self.epoch_start.is_none() {
            self.epoch_start = Some(now);
            if self.w_max < cwnd {
                // Congestion-free slow-start exit: anchor at the current
                // window, already past the plateau (K = 0).
                self.w_max = cwnd;
                self.k = 0.0;
            } else {
                self.k = k_from_w_max(self.w_max, self.cfg.beta, self.cfg.c);
            }
            obs::span(now.as_nanos(), "cubic.epoch_start", || {
                format!("w_max={:.2} k={:.3} cwnd={:.2}", self.w_max, self.k, cwnd)
            });
        }
        let t = now.saturating_since(self.epoch_start.expect("epoch set above")).as_secs_f64();
        // Target the cubic curve one RTT ahead, as the RFC prescribes.
        let target = w_cubic(t + rtt, self.w_max, self.k, self.cfg.c);
        let friendly = w_est(t, rtt, self.w_max, self.cfg.beta);
        if target < friendly {
            // TCP-friendly region: never slower than the AIMD response.
            self.tcp_friendly_acks += 1;
            self.w.cwnd = cwnd.max(friendly);
        } else if target > cwnd {
            self.w.cwnd += (target - cwnd) / cwnd * newly as f64;
        }
        // Around the plateau (target ≤ cwnd ≤ friendly-free zone) the
        // window holds still, which is exactly CUBIC's stability region.
        self.w.cwnd = self.w.cwnd.min(self.cfg.max_cwnd);
    }

    fn grow(&mut self, now: SimTime, newly: u64) {
        if self.w.cwnd < self.w.ssthresh {
            self.w.cwnd = (self.w.cwnd + newly as f64).min(self.cfg.max_cwnd);
        } else {
            self.cubic_growth(now, newly);
        }
    }
}

impl transport::telemetry::SenderTelemetry for CubicSender {
    fn common_stats(&self) -> transport::telemetry::CommonStats {
        transport::telemetry::CommonStats {
            extra: vec![
                ("partial_acks".to_owned(), self.w.counters().partial_acks),
                ("tcp_friendly_acks".to_owned(), self.tcp_friendly_acks),
                ("fast_convergence_events".to_owned(), self.fast_convergence_events),
                ("w_max_segments".to_owned(), self.w_max.round() as u64),
            ],
            ..self.w.common_stats(self.name())
        }
    }
}

impl TcpSenderAlgo for CubicSender {
    fn on_start(&mut self, now: SimTime, out: &mut SenderOutput) {
        self.w.send_new_data(out);
        self.w.arm_rto(now, out);
    }

    fn on_ack(&mut self, ack: &AckEvent, now: SimTime, out: &mut SenderOutput) {
        if let Some((newly, advance)) = self.w.advance(ack, now) {
            match advance {
                Advance::Full => self.w.cwnd = self.w.ssthresh,
                // Partial ACK: plug the next hole; hold the window.
                Advance::Partial => self.w.plug_hole(out),
                Advance::Open => self.grow(now, newly),
            }
            self.w.send_new_data(out);
            self.w.arm_rto(now, out);
        } else if ack.dup && self.w.dupack() {
            if self.w.recover().is_some() {
                // Dupack-clocked inflation keeps the pipe full in recovery.
                self.w.inflate(self.cfg.max_cwnd + self.cfg.dupthresh as f64, out);
            } else if self.w.dupacks() >= self.cfg.dupthresh && self.w.fast_retransmit_allowed() {
                self.w.fast_retransmit(now, out);
                self.reduce(now);
                self.w.cwnd = self.w.ssthresh;
                self.w.arm_rto(now, out);
            }
        }
    }

    fn on_timer(&mut self, now: SimTime, out: &mut SenderOutput) {
        if !self.w.timeout(now) {
            return;
        }
        self.reduce(now);
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
        "CUBIC"
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

    /// Drives the sender through `n` in-order ACK rounds, 10 ms RTT.
    fn warm_up(s: &mut CubicSender, n: u64) -> SimTime {
        let mut out = SenderOutput::new();
        s.on_start(SimTime::ZERO, &mut out);
        out.clear();
        let mut now = SimTime::ZERO;
        for cum in 1..=n {
            now += ms(10);
            s.on_ack(&ack_at(cum, now - ms(10)), now, &mut out);
            out.clear();
        }
        now
    }

    #[test]
    fn curve_anchors_at_w_max() {
        let (c, beta, w_max) = (0.4, 0.7, 100.0);
        let k = k_from_w_max(w_max, beta, c);
        // W_cubic(0) = β·W_max; W_cubic(K) = W_max.
        assert!((w_cubic(0.0, w_max, k, c) - beta * w_max).abs() < 1e-9);
        assert!((w_cubic(k, w_max, k, c) - w_max).abs() < 1e-9);
    }

    #[test]
    fn slow_start_doubles_like_reno() {
        let mut s = CubicSender::new(CubicConfig::default());
        warm_up(&mut s, 4);
        assert_eq!(s.cwnd(), 5.0, "one segment per acked segment in slow start");
    }

    #[test]
    fn fast_retransmit_reduces_by_beta() {
        let mut s = CubicSender::new(CubicConfig::default());
        let now = warm_up(&mut s, 8);
        let cwnd = s.cwnd();
        let mut out = SenderOutput::new();
        for _ in 0..3 {
            s.on_ack(&dupack(8), now + ms(1), &mut out);
        }
        assert_eq!(s.stats().fast_retransmits, 1);
        assert!((s.ssthresh() - cwnd * 0.7).abs() < 1e-9);
        assert!((s.w_max() - cwnd).abs() < 1e-9);
        let rtx: Vec<_> = out.transmissions().iter().filter(|t| t.is_retransmit).collect();
        assert_eq!(rtx.len(), 1);
        assert_eq!(rtx[0].seq, 8);
    }

    #[test]
    fn fast_convergence_shrinks_w_max_on_consecutive_losses() {
        let mut s = CubicSender::new(CubicConfig::default());
        let now = warm_up(&mut s, 8);
        let mut out = SenderOutput::new();
        for _ in 0..3 {
            s.on_ack(&dupack(8), now + ms(1), &mut out);
        }
        let w_max_1 = s.w_max();
        // Recover fully, then lose again *below* the previous W_max.
        out.clear();
        let recover = s.w.recover().expect("in fast recovery");
        s.on_ack(&ack_at(recover, now), now + ms(20), &mut out);
        out.clear();
        let mut t = now + ms(21);
        for i in 0..3 {
            // Keep some flight, then three dupacks at a smaller window.
            s.on_ack(&dupack(recover), t, &mut out);
            t += ms(1);
            let _ = i;
        }
        assert_eq!(s.stats().fast_convergence_events, 1);
        assert!(s.w_max() < w_max_1, "second event must shrink W_max");
    }

    #[test]
    fn congestion_avoidance_follows_the_cubic_curve() {
        let cfg = CubicConfig { initial_ssthresh: 8.0, ..CubicConfig::default() };
        let mut s = CubicSender::new(cfg);
        let now = warm_up(&mut s, 8);
        // Past ssthresh: further ACK rounds grow via the cubic law, and the
        // window stays within the curve's target.
        let mut out = SenderOutput::new();
        let mut t = now;
        let mut cum = 8;
        for _ in 0..200 {
            t += ms(10);
            cum += 1;
            s.on_ack(&ack_at(cum, t - ms(10)), t, &mut out);
            out.clear();
        }
        assert!(s.cwnd() > 8.0, "convex region must grow past the anchor");
        assert!(s.cwnd() < s.cfg.max_cwnd);
    }

    #[test]
    fn timeout_resets_window_and_goes_back_n() {
        let mut s = CubicSender::new(CubicConfig::default());
        let now = warm_up(&mut s, 4);
        let mut out = SenderOutput::new();
        s.on_timer(now + SimDuration::from_secs(3), &mut out);
        assert_eq!(s.cwnd(), 1.0);
        assert_eq!(s.stats().timeouts, 1);
        assert_eq!(out.transmissions().len(), 1);
        assert_eq!(out.transmissions()[0].seq, 4);
        assert!(out.transmissions()[0].is_retransmit);
    }

    #[test]
    fn no_fast_retransmit_right_after_timeout() {
        let mut s = CubicSender::new(CubicConfig::default());
        let now = warm_up(&mut s, 4);
        let mut out = SenderOutput::new();
        s.on_timer(now + SimDuration::from_secs(3), &mut out);
        out.clear();
        for i in 0..5 {
            s.on_ack(&dupack(4), now + SimDuration::from_secs(3) + ms(i), &mut out);
        }
        assert_eq!(s.stats().fast_retransmits, 0);
    }

    #[test]
    fn partial_ack_plugs_the_next_hole() {
        let mut s = CubicSender::new(CubicConfig::default());
        let now = warm_up(&mut s, 8);
        let mut out = SenderOutput::new();
        for _ in 0..3 {
            s.on_ack(&dupack(8), now + ms(1), &mut out);
        }
        out.clear();
        let cwnd = s.cwnd();
        s.on_ack(&ack_at(10, now), now + ms(5), &mut out);
        let rtx: Vec<_> = out.transmissions().iter().filter(|t| t.is_retransmit).collect();
        assert_eq!(rtx.len(), 1);
        assert_eq!(rtx[0].seq, 10);
        assert_eq!(s.stats().partial_acks, 1);
        assert_eq!(s.cwnd(), cwnd, "NewReno and TD-FR deflate here; CUBIC holds the window");
    }

    #[test]
    fn recovery_inflation_stops_at_max_cwnd_plus_dupthresh() {
        let mut s = CubicSender::new(CubicConfig { max_cwnd: 8.0, ..CubicConfig::default() });
        let now = warm_up(&mut s, 12);
        assert_eq!((s.cwnd(), s.in_flight()), (8.0, 8));
        let mut out = SenderOutput::new();
        for _ in 0..23 {
            s.on_ack(&dupack(12), now + ms(1), &mut out);
        }
        assert_eq!(s.stats().fast_retransmits, 1);
        assert_eq!(s.cwnd(), 8.0 + 3.0);
    }

    /// `forensics` reads a stall's cause off the order of these two spans,
    /// and `cc.fast_rtx` reports the window the loss found, not the one the
    /// reduction left.
    #[test]
    fn the_fast_rtx_span_precedes_the_epoch_reset_and_prints_the_unreduced_window() {
        let mut s = CubicSender::new(CubicConfig::default());
        let now = warm_up(&mut s, 8);
        let mut out = SenderOutput::new();
        obs::enable();
        let _ = obs::take();
        for _ in 0..3 {
            s.on_ack(&dupack(8), now + ms(1), &mut out);
        }
        let spans = obs::take().spans;
        obs::disable();
        let kinds: Vec<_> = spans.iter().map(|r| r.kind).collect();
        assert_eq!(kinds, ["cc.fast_rtx", "cubic.epoch_reset"]);
        assert_eq!(spans[0].detail, "algo=cubic seq=8 dupacks=3 cwnd=9.00");
        assert!((s.cwnd() - 9.0 * 0.7).abs() < 1e-9);
    }
}
