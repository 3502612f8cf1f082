//! The Eifel algorithm (Ludwig & Katz \[15\]): timestamp-based detection of
//! spurious retransmissions.
//!
//! Eifel has the sender timestamp every segment; the receiver echoes the
//! timestamp of the segment that triggered each ACK. If the first ACK that
//! covers a retransmitted segment echoes the *original* transmission (our
//! model: `echo_tx_count == 1` while the segment was retransmitted), the
//! retransmission — and the congestion response — were spurious, and the
//! prior congestion state is restored — window and threshold at once. The
//! response stops there: the RTO and its backoff are NewReno's, unadapted
//! to repeated spurious retransmissions of one segment.

use netsim::time::{SimDuration, SimTime};
use transport::sender::{AckEvent, SenderOutput, TcpSenderAlgo};

use crate::reno::{RenoConfig, RenoSender, RenoStats};

/// Event counters for [`EifelSender`].
#[derive(Debug, Clone, Copy, Default, serde::Serialize)]
pub struct EifelStats {
    /// Spurious retransmissions detected from timestamp echoes.
    pub spurious_detected: u64,
    /// Congestion-state restorations applied.
    pub restores: u64,
}

/// A NewReno sender extended with the Eifel response.
///
/// # Examples
///
/// ```
/// use baselines::eifel::EifelSender;
/// use baselines::reno::RenoConfig;
/// use transport::sender::TcpSenderAlgo;
///
/// let s = EifelSender::new(RenoConfig::default());
/// assert_eq!(s.cwnd(), 1.0);
/// ```
#[derive(Debug)]
pub struct EifelSender {
    inner: RenoSender,
    stats: EifelStats,
}

impl EifelSender {
    /// Creates a sender with the given base configuration.
    pub fn new(base: RenoConfig) -> Self {
        EifelSender { inner: RenoSender::new(base), stats: EifelStats::default() }
    }

    /// Event counters.
    pub fn stats(&self) -> EifelStats {
        self.stats
    }

    /// Base NewReno counters.
    pub fn base_stats(&self) -> RenoStats {
        self.inner.stats()
    }
}

impl TcpSenderAlgo for EifelSender {
    fn on_start(&mut self, now: SimTime, out: &mut SenderOutput) {
        self.inner.on_start(now, out);
    }

    fn on_ack(&mut self, ack: &AckEvent, now: SimTime, out: &mut SenderOutput) {
        // Detection must look at the state *before* the inner sender
        // processes the ACK: the first ACK covering the retransmitted
        // segment reveals which copy the receiver saw first.
        if let Some(record) = self.inner.last_reduction {
            let covers_rtx = ack.cum_ack > record.seq;
            if covers_rtx && self.inner.was_retransmitted(record.seq) && ack.echo_tx_count == 1 {
                // The ACK was generated by the original transmission: the
                // retransmission and the window reduction were spurious.
                self.stats.spurious_detected += 1;
                self.stats.restores += 1;
                obs::span(now.as_nanos(), "eifel.spurious", || {
                    format!("seq={} cum_ack={}", record.seq, ack.cum_ack)
                });
                self.inner.restore_after_spurious(record, true);
                self.inner.clear_reduction();
            }
        }
        self.inner.on_ack(ack, now, out);
    }

    fn on_timer(&mut self, now: SimTime, out: &mut SenderOutput) {
        self.inner.on_timer(now, out);
    }

    fn cwnd(&self) -> f64 {
        self.inner.cwnd()
    }

    fn ssthresh(&self) -> f64 {
        self.inner.ssthresh()
    }

    fn srtt(&self) -> Option<SimDuration> {
        self.inner.srtt()
    }

    fn rto(&self) -> Option<SimDuration> {
        self.inner.rto()
    }

    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::time::SimDuration;

    fn ms(x: u64) -> SimDuration {
        SimDuration::from_millis(x)
    }

    fn ack(cum: u64, echo_tx_count: u32) -> AckEvent {
        AckEvent {
            cum_ack: cum,
            sack: Vec::new(),
            dsack: None,
            echo_timestamp: SimTime::ZERO,
            echo_tx_count,
            dup: false,
        }
    }

    fn dupack(cum: u64) -> AckEvent {
        AckEvent { dup: true, ..ack(cum, 1) }
    }

    fn run_episode(final_echo_tx_count: u32) -> EifelSender {
        let mut s = EifelSender::new(RenoConfig::default());
        let mut out = SenderOutput::new();
        s.on_start(SimTime::ZERO, &mut out);
        let mut now = SimTime::ZERO;
        for cum in 1..=8 {
            now += ms(10);
            out.clear();
            s.on_ack(&ack(cum, 1), now, &mut out);
        }
        for i in 0..3 {
            out.clear();
            s.on_ack(&dupack(8), now + ms(1 + i), &mut out);
        }
        assert_eq!(s.base_stats().fast_retransmits, 1);
        out.clear();
        // First ACK covering segment 8 after the retransmission.
        s.on_ack(&ack(9, final_echo_tx_count), now + ms(20), &mut out);
        s
    }

    #[test]
    fn original_echo_restores_state() {
        let s = run_episode(1);
        assert_eq!(s.stats().spurious_detected, 1);
        assert!(s.cwnd() >= 9.0, "restored, got {}", s.cwnd());
    }

    #[test]
    fn retransmit_echo_means_genuine_loss() {
        let s = run_episode(2);
        assert_eq!(s.stats().spurious_detected, 0);
        assert!(s.cwnd() < 9.0, "reduction must stand, got {}", s.cwnd());
    }
}
