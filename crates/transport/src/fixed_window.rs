//! A minimal fixed-window sender.
//!
//! Not a paper algorithm: it sends a constant window of segments with a
//! simple per-flight retransmission timer. It exists to exercise the host
//! plumbing in tests and to serve as a reference `TcpSenderAlgo`
//! implementation for downstream crates.

use netsim::time::{SimDuration, SimTime};

use crate::sender::{AckEvent, SenderOutput, TcpSenderAlgo};

/// A sender with a constant window and a crude go-back-N timeout.
#[derive(Debug)]
pub struct FixedWindowSender {
    window: usize,
    snd_una: u64,
    snd_nxt: u64,
    timeout: SimDuration,
}

impl FixedWindowSender {
    /// Creates a sender with a fixed window of `window` segments and a fixed
    /// retransmission timeout.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize, timeout: SimDuration) -> Self {
        assert!(window > 0, "window must be positive");
        FixedWindowSender { window, snd_una: 0, snd_nxt: 0, timeout }
    }

    fn fill(&mut self, now: SimTime, out: &mut SenderOutput) {
        while (self.snd_nxt - self.snd_una) < self.window as u64 {
            out.transmit(self.snd_nxt, false);
            self.snd_nxt += 1;
        }
        out.set_timer(now + self.timeout);
    }
}

impl TcpSenderAlgo for FixedWindowSender {
    fn on_start(&mut self, now: SimTime, out: &mut SenderOutput) {
        self.fill(now, out);
    }

    fn on_ack(&mut self, ack: &AckEvent, now: SimTime, out: &mut SenderOutput) {
        if ack.cum_ack > self.snd_una {
            self.snd_una = ack.cum_ack;
            self.fill(now, out);
        }
    }

    fn on_timer(&mut self, now: SimTime, out: &mut SenderOutput) {
        // Go-back-N: resend everything outstanding.
        for seq in self.snd_una..self.snd_nxt {
            out.transmit(seq, true);
        }
        out.set_timer(now + self.timeout);
    }

    fn cwnd(&self) -> f64 {
        self.window as f64
    }

    fn ssthresh(&self) -> f64 {
        f64::INFINITY
    }

    fn srtt(&self) -> Option<SimDuration> {
        None
    }

    fn rto(&self) -> Option<SimDuration> {
        Some(self.timeout)
    }

    fn in_flight(&self) -> usize {
        (self.snd_nxt - self.snd_una) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ack(cum: u64) -> AckEvent {
        AckEvent {
            cum_ack: cum,
            sack: Vec::new(),
            dsack: None,
            echo_timestamp: SimTime::ZERO,
            echo_tx_count: 1,
            dup: false,
        }
    }

    #[test]
    fn sends_initial_window() {
        let mut s = FixedWindowSender::new(4, SimDuration::from_secs(1));
        let mut out = SenderOutput::new();
        s.on_start(SimTime::ZERO, &mut out);
        let seqs: Vec<u64> = out.transmissions().iter().map(|t| t.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
        assert_eq!(s.in_flight(), 4);
    }

    #[test]
    fn ack_slides_window() {
        let mut s = FixedWindowSender::new(2, SimDuration::from_secs(1));
        let mut out = SenderOutput::new();
        s.on_start(SimTime::ZERO, &mut out);
        out.clear();
        s.on_ack(&ack(1), SimTime::from_nanos(10), &mut out);
        let seqs: Vec<u64> = out.transmissions().iter().map(|t| t.seq).collect();
        assert_eq!(seqs, vec![2]);
    }

    #[test]
    fn timeout_retransmits_outstanding() {
        let mut s = FixedWindowSender::new(3, SimDuration::from_secs(1));
        let mut out = SenderOutput::new();
        s.on_start(SimTime::ZERO, &mut out);
        out.clear();
        s.on_timer(SimTime::from_secs_f64(1.0), &mut out);
        assert_eq!(out.transmissions().len(), 3);
        assert!(out.transmissions().iter().all(|t| t.is_retransmit));
    }

    #[test]
    fn duplicate_ack_does_not_send() {
        let mut s = FixedWindowSender::new(2, SimDuration::from_secs(1));
        let mut out = SenderOutput::new();
        s.on_start(SimTime::ZERO, &mut out);
        out.clear();
        s.on_ack(&ack(0), SimTime::from_nanos(10), &mut out);
        assert!(out.transmissions().is_empty());
    }
}
