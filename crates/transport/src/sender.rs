//! The sender-algorithm abstraction shared by TCP-PR and all baselines.
//!
//! A TCP sender is modeled as a pure state machine: the host adapter feeds
//! it ACK and timer events and it responds with transmissions and a timer
//! deadline through a [`SenderOutput`] buffer. This keeps every congestion
//! control algorithm free of simulator types and unit-testable in isolation.

use std::any::Any;

pub use netsim::packet::AckEvent;
use netsim::time::{SimDuration, SimTime};

/// Duplicate ACKs that trigger fast retransmit, and SACKed segments above a
/// hole that mark it lost (3 in standard TCP).
pub const DUPTHRESH: u32 = 3;

/// Initial slow-start threshold of the loss-based senders, in segments.
/// Bounds the initial exponential overshoot: NewReno's hole-per-RTT recovery
/// cannot cope with a whole-window catastrophe on a fat pipe.
pub const INITIAL_SSTHRESH: f64 = 128.0;

/// Congestion-window cap, in segments, of a sender no receiver window
/// limits (effectively unbounded).
pub const MAX_CWND: f64 = 10_000.0;

/// A request to put one segment on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transmission {
    /// Segment to transmit.
    pub seq: u64,
    /// True if this sender has handed out `seq` before. The host puts it on
    /// the wire as the segment's `tx_count`, which the ACK echoes back.
    pub is_retransmit: bool,
}

/// Timer disposition requested by a sender callback.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TimerOp {
    /// Leave any pending timer as is.
    #[default]
    Keep,
    /// (Re-)arm the timer for the given instant.
    Set(SimTime),
    /// Disarm the timer.
    Cancel,
}

/// Output buffer a sender algorithm fills during a callback.
#[derive(Debug, Default)]
pub struct SenderOutput {
    transmissions: Vec<Transmission>,
    timer: TimerOp,
}

impl SenderOutput {
    /// Creates an empty output buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests transmission of `seq`.
    pub fn transmit(&mut self, seq: u64, is_retransmit: bool) {
        self.transmissions.push(Transmission { seq, is_retransmit });
    }

    /// Requests the host re-arm the sender's timer for `at`.
    pub fn set_timer(&mut self, at: SimTime) {
        self.timer = TimerOp::Set(at);
    }

    /// Requests the host disarm the sender's timer.
    pub fn cancel_timer(&mut self) {
        self.timer = TimerOp::Cancel;
    }

    /// The transmissions requested so far.
    pub fn transmissions(&self) -> &[Transmission] {
        &self.transmissions
    }

    /// The timer disposition requested so far.
    pub fn timer(&self) -> TimerOp {
        self.timer
    }

    /// Clears the buffer for reuse.
    pub fn clear(&mut self) {
        self.transmissions.clear();
        self.timer = TimerOp::Keep;
    }

    /// Drains the requested transmissions, leaving the buffer empty.
    pub fn take_transmissions(&mut self) -> Vec<Transmission> {
        std::mem::take(&mut self.transmissions)
    }
}

/// A TCP sender congestion-control/loss-recovery state machine.
///
/// Implementations assume an infinitely backlogged application (the paper's
/// long-lived FTP flows): any segment number may be sent once the window
/// allows. Hosts deliver events in simulation-time order.
///
/// The trait carries the state every variant has (`cwnd`, `ssthresh`, the
/// RTT estimate and the timeout); a variant's own counters are read where
/// they live, on its concrete type, through `Any`:
/// `(&**algo as &dyn Any).downcast_ref::<TcpPrSender>()` for a
/// `Box<dyn TcpSenderAlgo>`. The box itself is `Any` too, so downcasting
/// `algo` without the `&**` finds the box, not the sender.
pub trait TcpSenderAlgo: std::fmt::Debug + Any {
    /// Called once when the flow starts; typically transmits the initial
    /// window and arms a timer.
    fn on_start(&mut self, now: SimTime, out: &mut SenderOutput);

    /// Called for every acknowledgment that arrives.
    fn on_ack(&mut self, ack: &AckEvent, now: SimTime, out: &mut SenderOutput);

    /// Called when the armed timer fires.
    fn on_timer(&mut self, now: SimTime, out: &mut SenderOutput);

    /// Current congestion window, in segments.
    fn cwnd(&self) -> f64;

    /// Current slow-start threshold, in segments (`f64::INFINITY` if unset).
    fn ssthresh(&self) -> f64;

    /// Smoothed RTT estimate, if the variant has sampled one.
    fn srtt(&self) -> Option<SimDuration>;

    /// Current retransmission timeout (backoff included), if the variant
    /// keeps one.
    fn rto(&self) -> Option<SimDuration>;

    /// Number of segments currently considered in flight (diagnostic).
    fn in_flight(&self) -> usize;

    /// Pacing rate in segments per second, if the algorithm wants its
    /// transmissions metered onto the wire instead of sent back-to-back
    /// (`None`, the default, sends immediately). Hosts re-read this after
    /// every callback, so rate changes take effect at once.
    fn pacing_rate(&self) -> Option<f64> {
        None
    }
}

impl TcpSenderAlgo for Box<dyn TcpSenderAlgo> {
    fn on_start(&mut self, now: SimTime, out: &mut SenderOutput) {
        (**self).on_start(now, out);
    }
    fn on_ack(&mut self, ack: &AckEvent, now: SimTime, out: &mut SenderOutput) {
        (**self).on_ack(ack, now, out);
    }
    fn on_timer(&mut self, now: SimTime, out: &mut SenderOutput) {
        (**self).on_timer(now, out);
    }
    fn cwnd(&self) -> f64 {
        (**self).cwnd()
    }
    fn ssthresh(&self) -> f64 {
        (**self).ssthresh()
    }
    fn srtt(&self) -> Option<SimDuration> {
        (**self).srtt()
    }
    fn rto(&self) -> Option<SimDuration> {
        (**self).rto()
    }
    fn in_flight(&self) -> usize {
        (**self).in_flight()
    }
    fn pacing_rate(&self) -> Option<f64> {
        (**self).pacing_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_buffer_collects_and_clears() {
        let mut out = SenderOutput::new();
        out.transmit(3, false);
        out.transmit(3, true);
        out.set_timer(SimTime::from_nanos(5));
        assert_eq!(out.transmissions().len(), 2);
        assert_eq!(out.timer(), TimerOp::Set(SimTime::from_nanos(5)));
        out.clear();
        assert!(out.transmissions().is_empty());
        assert_eq!(out.timer(), TimerOp::Keep);
    }

    #[test]
    fn cancel_overrides_set() {
        let mut out = SenderOutput::new();
        out.set_timer(SimTime::from_nanos(5));
        out.cancel_timer();
        assert_eq!(out.timer(), TimerOp::Cancel);
    }

    #[test]
    fn take_transmissions_empties_buffer() {
        let mut out = SenderOutput::new();
        out.transmit(1, false);
        let t = out.take_transmissions();
        assert_eq!(t, vec![Transmission { seq: 1, is_retransmit: false }]);
        assert!(out.transmissions().is_empty());
    }
}
