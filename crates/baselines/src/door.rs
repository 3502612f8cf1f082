//! TCP-DOOR (Wang & Zhang \[20\]): detection of out-of-order delivery and
//! response, targeted at mobile ad-hoc networks.
//!
//! DOOR augments TCP with extra sequencing (a 2-byte per-transmission
//! ordinal on data and a 1-byte DUPACK ordinal) so both endpoints can
//! *detect* out-of-order delivery, and two sender responses:
//!
//! 1. **Temporarily disabling congestion control**: after an OOO event,
//!    congestion state (`cwnd`, RTO) is frozen — not reduced — for an
//!    interval `T1`.
//! 2. **Instant recovery during congestion avoidance**: if an OOO event is
//!    detected shortly after a congestion response, the response is rolled
//!    back (the reordering, not loss, explains the duplicate ACKs).
//!
//! Our model detects OOO **at the sender** from the ACK stream: an arriving
//! acknowledgment whose cumulative point is *behind* the furthest point
//! already seen, or whose timestamp echo is older than the newest echo
//! seen, must have been reordered in flight (the network delivered it after
//! a younger ACK). This is the same information DOOR's ordinals expose,
//! without header options — our substitution is documented in DESIGN.md.

use netsim::time::{SimDuration, SimTime};
use transport::sender::{AckEvent, SenderOutput, TcpSenderAlgo};
use transport::telemetry::SenderTelemetry;

use crate::reno::{RenoConfig, RenoSender, RenoStats};

/// Configuration for [`DoorSender`].
#[derive(Debug, Clone, Default)]
pub struct DoorConfig {
    /// Base NewReno configuration.
    pub base: RenoConfig,
}

/// How long congestion control stays disabled after an OOO detection (the
/// paper's `T1`; it suggests on the order of an RTT).
const FREEZE_INTERVAL: SimDuration = SimDuration::from_millis(200);

/// How far back instant recovery may roll a congestion response back.
const ROLLBACK_WINDOW: SimDuration = SimDuration::from_millis(500);

/// Event counters for [`DoorSender`].
#[derive(Debug, Clone, Copy, Default, serde::Serialize)]
pub struct DoorStats {
    /// Out-of-order ACK arrivals detected.
    pub ooo_detected: u64,
    /// Congestion responses rolled back by instant recovery.
    pub instant_recoveries: u64,
    /// Duplicate ACKs suppressed while congestion control was frozen.
    pub suppressed_dupacks: u64,
}

/// A NewReno sender with TCP-DOOR's OOO detection and responses.
///
/// # Examples
///
/// ```
/// use baselines::door::{DoorConfig, DoorSender};
/// use transport::sender::TcpSenderAlgo;
///
/// let s = DoorSender::new(DoorConfig::default());
/// assert_eq!(s.name(), "TCP-DOOR");
/// ```
#[derive(Debug)]
pub struct DoorSender {
    inner: RenoSender,
    /// Highest cumulative ACK observed (for stale-ACK detection).
    max_cum_seen: u64,
    /// Newest timestamp echo observed (for reordered-dupack detection).
    newest_echo: SimTime,
    /// Congestion control is disabled until this instant.
    frozen_until: Option<SimTime>,
    /// When the last congestion response happened (for rollback).
    last_response_at: Option<SimTime>,
    stats: DoorStats,
}

impl DoorSender {
    /// Creates a sender with the given configuration.
    pub fn new(cfg: DoorConfig) -> Self {
        DoorSender {
            inner: RenoSender::new(cfg.base),
            max_cum_seen: 0,
            newest_echo: SimTime::ZERO,
            frozen_until: None,
            last_response_at: None,
            stats: DoorStats::default(),
        }
    }

    /// Event counters.
    pub fn stats(&self) -> DoorStats {
        self.stats
    }

    /// Base NewReno counters.
    pub fn base_stats(&self) -> RenoStats {
        self.inner.stats()
    }

    /// True while congestion control is disabled.
    pub fn is_frozen(&self, now: SimTime) -> bool {
        self.frozen_until.is_some_and(|t| now < t)
    }

    fn detect_ooo(&mut self, ack: &AckEvent, now: SimTime) -> bool {
        let stale_cum = ack.cum_ack < self.max_cum_seen;
        let old_echo = ack.echo_timestamp < self.newest_echo;
        self.max_cum_seen = self.max_cum_seen.max(ack.cum_ack);
        self.newest_echo = self.newest_echo.max(ack.echo_timestamp);
        if stale_cum || old_echo {
            self.stats.ooo_detected += 1;
            self.frozen_until = Some(now + FREEZE_INTERVAL);
            // Instant recovery: a recent congestion response was likely
            // caused by this reordering — undo it.
            if let (Some(at), Some(record)) = (self.last_response_at, self.inner.last_reduction) {
                if now.saturating_since(at) <= ROLLBACK_WINDOW {
                    self.stats.instant_recoveries += 1;
                    self.inner.restore_after_spurious(record, true);
                    self.inner.clear_reduction();
                    self.last_response_at = None;
                }
            }
            true
        } else {
            false
        }
    }
}

impl SenderTelemetry for DoorSender {
    fn common_stats(&self) -> transport::telemetry::CommonStats {
        let mut s = self.inner.common_stats();
        s.algorithm = self.name().to_owned();
        // DOOR's OOO detections play the role other variants' spurious
        // detections do, and instant recoveries are its reversals.
        s.spurious_detections = self.stats.ooo_detected;
        s.spurious_reversals = self.stats.instant_recoveries;
        s.extra.push(("suppressed_dupacks".to_owned(), self.stats.suppressed_dupacks));
        s
    }
}

impl TcpSenderAlgo for DoorSender {
    fn on_start(&mut self, now: SimTime, out: &mut SenderOutput) {
        self.inner.on_start(now, out);
    }

    fn on_ack(&mut self, ack: &AckEvent, now: SimTime, out: &mut SenderOutput) {
        self.detect_ooo(ack, now);
        let before = self.inner.stats().fast_retransmits + self.inner.stats().timeouts;
        if ack.dup && self.is_frozen(now) {
            // Congestion control disabled: ignore the duplicate entirely
            // (no dupack counting, no window movement).
            self.stats.suppressed_dupacks += 1;
            return;
        }
        self.inner.on_ack(ack, now, out);
        let after = self.inner.stats().fast_retransmits + self.inner.stats().timeouts;
        if after > before {
            self.last_response_at = Some(now);
        }
    }

    fn on_timer(&mut self, now: SimTime, out: &mut SenderOutput) {
        let before = self.inner.stats().timeouts;
        self.inner.on_timer(now, out);
        if self.inner.stats().timeouts > before {
            self.last_response_at = Some(now);
        }
    }

    fn cwnd(&self) -> f64 {
        self.inner.cwnd()
    }

    fn ssthresh(&self) -> f64 {
        self.inner.ssthresh()
    }

    fn name(&self) -> &'static str {
        "TCP-DOOR"
    }

    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> SimDuration {
        SimDuration::from_millis(x)
    }

    fn ack_at(cum: u64, echo_ms: u64) -> AckEvent {
        AckEvent {
            cum_ack: cum,
            sack: Vec::new(),
            dsack: None,
            echo_timestamp: SimTime::ZERO + ms(echo_ms),
            echo_tx_count: 1,
            dup: false,
        }
    }

    fn dupack(cum: u64, echo_ms: u64) -> AckEvent {
        AckEvent { dup: true, ..ack_at(cum, echo_ms) }
    }

    fn grown(rounds: u64) -> (DoorSender, SimTime) {
        let mut s = DoorSender::new(DoorConfig::default());
        let mut out = SenderOutput::new();
        s.on_start(SimTime::ZERO, &mut out);
        let mut now = SimTime::ZERO;
        for i in 0..rounds {
            now += ms(10);
            out.clear();
            s.on_ack(&ack_at(i + 1, 10 * i), now, &mut out);
        }
        (s, now)
    }

    #[test]
    fn stale_cum_ack_detected_as_ooo() {
        let (mut s, now) = grown(8);
        let mut out = SenderOutput::new();
        // A reordered, stale ACK arrives (cum behind the max seen).
        s.on_ack(&ack_at(3, 30), now + ms(1), &mut out);
        assert_eq!(s.stats().ooo_detected, 1);
        assert!(s.is_frozen(now + ms(2)));
        assert!(!s.is_frozen(now + ms(1) + FREEZE_INTERVAL));
    }

    #[test]
    fn frozen_sender_ignores_dupacks() {
        let (mut s, now) = grown(8);
        let mut out = SenderOutput::new();
        s.on_ack(&ack_at(3, 30), now + ms(1), &mut out); // freeze
        let cwnd = s.cwnd();
        for i in 0..5 {
            out.clear();
            s.on_ack(&dupack(8, 80), now + ms(2 + i), &mut out);
        }
        assert_eq!(s.base_stats().fast_retransmits, 0, "no FR while frozen");
        assert_eq!(s.cwnd(), cwnd);
        assert_eq!(s.stats().suppressed_dupacks, 5);
    }

    #[test]
    fn instant_recovery_rolls_back_recent_response() {
        let (mut s, now) = grown(8);
        let mut out = SenderOutput::new();
        let cwnd_before = s.cwnd();
        // Three dupacks: fast retransmit fires (window halves).
        for i in 0..3 {
            out.clear();
            s.on_ack(&dupack(8, 70), now + ms(1 + i), &mut out);
        }
        assert_eq!(s.base_stats().fast_retransmits, 1);
        assert!(s.cwnd() < cwnd_before);
        // An OOO ACK arrives shortly after: the response is rolled back.
        out.clear();
        s.on_ack(&ack_at(5, 40), now + ms(10), &mut out);
        assert_eq!(s.stats().instant_recoveries, 1);
        assert!(s.cwnd() >= cwnd_before, "window restored, got {}", s.cwnd());
    }

    #[test]
    fn in_order_traffic_never_triggers_door() {
        let (s, _) = grown(20);
        assert_eq!(s.stats().ooo_detected, 0);
        assert_eq!(s.stats().instant_recoveries, 0);
    }
}
