//! DSACK-based responses to spurious retransmissions (Blanton–Allman \[3\]).
//!
//! These wrap a NewReno sender. When the receiver's DSACK option reveals
//! that a retransmission was spurious (the original arrived too — just
//! late), the sender restores the congestion state it held before the bogus
//! reduction and, depending on the variant, adapts the duplicate-ACK
//! threshold:
//!
//! - **DSACK-NM** — restore only, no dupthresh movement;
//! - **Inc by 1** — `dupthresh += 1` per spurious event;
//! - **Inc by N** — `dupthresh := avg(dupthresh, N)` where `N` is the number
//!   of duplicate ACKs the reordering event generated;
//! - **EWMA** — `dupthresh := (1-g)·dupthresh + g·N`.
//!
//! The threshold is clamped to at least 3 (never more aggressive than
//! standard TCP) and at most 90 % of the window (so it stays reachable), as
//! in the original ns-2 patches. The restore is the slow-start one of
//! Blanton–Allman's own footnote (DESIGN.md §2a item 9): `ssthresh` goes
//! back to the prior window and `cwnd` climbs to it from the reduced one,
//! so an undo never releases a burst. Eifel restores both at once.

use netsim::time::{SimDuration, SimTime};
use transport::sender::{AckEvent, SenderOutput, TcpSenderAlgo, DUPTHRESH};

use crate::reno::{RenoConfig, RenoSender, RenoStats};

/// How dupthresh reacts to a detected spurious retransmission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DupthreshResponse {
    /// Restore congestion state only ("DSACK-NM").
    NoMovement,
    /// Increment by a constant ("Inc by 1" uses 1).
    IncrementBy(u32),
    /// Average with the episode's duplicate-ACK count ("Inc by N").
    AverageWithEpisode,
    /// Exponentially-weighted moving average of episode counts.
    Ewma {
        /// Weight of the newest episode count, in `(0, 1]`.
        gain: f64,
    },
}

/// Event counters for [`DsackSender`].
#[derive(Debug, Clone, Copy, Default, serde::Serialize)]
pub struct DsackStats {
    /// Spurious retransmissions detected via DSACK.
    pub spurious_detected: u64,
    /// Congestion-state restorations applied.
    pub restores: u64,
}

/// A NewReno sender extended with a DSACK spurious-retransmit response.
///
/// # Examples
///
/// ```
/// use baselines::dsack::{DsackSender, DupthreshResponse};
/// use baselines::reno::RenoConfig;
/// use transport::sender::TcpSenderAlgo;
///
/// let s = DsackSender::new(RenoConfig::default(), DupthreshResponse::IncrementBy(1));
/// assert_eq!(s.cwnd(), 1.0);
/// assert_eq!(s.dupthresh(), 3);
/// ```
#[derive(Debug)]
pub struct DsackSender {
    inner: RenoSender,
    response: DupthreshResponse,
    /// Fractional dupthresh state (EWMA needs sub-integer resolution).
    dupthresh_f: f64,
    /// Duplicate ACKs seen since the last cumulative advance.
    dupacks_in_episode: u64,
    /// Episode length snapshot taken when the cumulative point advanced
    /// (the DSACK that reveals spuriousness arrives *after* the advance).
    last_episode_dupacks: u64,
    stats: DsackStats,
}

impl DsackSender {
    /// Creates a sender with the given base configuration and response.
    pub fn new(base: RenoConfig, response: DupthreshResponse) -> Self {
        DsackSender {
            inner: RenoSender::new(base),
            response,
            dupthresh_f: DUPTHRESH as f64,
            dupacks_in_episode: 0,
            last_episode_dupacks: 0,
            stats: DsackStats::default(),
        }
    }

    /// Current duplicate-ACK threshold.
    pub fn dupthresh(&self) -> u32 {
        self.inner.dupthresh()
    }

    /// Event counters.
    pub fn stats(&self) -> DsackStats {
        self.stats
    }

    /// Base NewReno counters.
    pub fn base_stats(&self) -> RenoStats {
        self.inner.stats()
    }

    fn handle_dsack(&mut self, block: (u64, u64)) {
        let seq = block.0;
        // Spurious only if the duplicate is explained by our retransmission.
        let Some(record) = self.inner.last_reduction else { return };
        if record.seq != seq && !self.inner.was_retransmitted(seq) {
            return;
        }
        self.stats.spurious_detected += 1;
        self.stats.restores += 1;
        // Slow-start restore (avoids bursts), per Blanton–Allman.
        self.inner.restore_after_spurious(record, false);
        self.inner.clear_reduction();

        let episode_n = self.last_episode_dupacks.max(record.dupacks as u64) as f64;
        self.dupthresh_f = match self.response {
            DupthreshResponse::NoMovement => self.dupthresh_f,
            DupthreshResponse::IncrementBy(k) => self.dupthresh_f + k as f64,
            DupthreshResponse::AverageWithEpisode => (self.dupthresh_f + episode_n) / 2.0,
            DupthreshResponse::Ewma { gain } => (1.0 - gain) * self.dupthresh_f + gain * episode_n,
        };
        // Clamp: never below standard TCP's, never beyond 90% of cwnd (it
        // must stay reachable).
        let floor = DUPTHRESH as f64;
        let cap = (0.9 * self.inner.cwnd()).max(floor);
        self.dupthresh_f = self.dupthresh_f.clamp(floor, cap);
        self.inner.set_dupthresh(self.dupthresh_f.round() as u32);
    }
}

impl TcpSenderAlgo for DsackSender {
    fn on_start(&mut self, now: SimTime, out: &mut SenderOutput) {
        self.inner.on_start(now, out);
    }

    fn on_ack(&mut self, ack: &AckEvent, now: SimTime, out: &mut SenderOutput) {
        if ack.dup {
            self.dupacks_in_episode += 1;
        } else {
            if self.dupacks_in_episode > 0 {
                self.last_episode_dupacks = self.dupacks_in_episode;
            }
            self.dupacks_in_episode = 0;
        }
        if let Some(block) = ack.dsack {
            self.handle_dsack(block);
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

    fn dupack(cum: u64) -> AckEvent {
        AckEvent { dup: true, ..ack(cum) }
    }

    /// Drives the sender into a spurious fast retransmit and delivers the
    /// revealing DSACK. Returns the sender.
    fn spurious_episode(response: DupthreshResponse, extra_dupacks: u64) -> DsackSender {
        let mut s = DsackSender::new(RenoConfig::default(), response);
        let mut out = SenderOutput::new();
        s.on_start(SimTime::ZERO, &mut out);
        let mut now = SimTime::ZERO;
        // Grow the window.
        for cum in 1..=8 {
            now += ms(10);
            out.clear();
            s.on_ack(&ack(cum), now, &mut out);
        }
        // Reordering event: dupacks (3 trigger FR + extras).
        for i in 0..(3 + extra_dupacks) {
            out.clear();
            s.on_ack(&dupack(8), now + ms(1 + i), &mut out);
        }
        assert_eq!(s.base_stats().fast_retransmits, 1);
        // The reordered original arrives: cumulative advance...
        out.clear();
        s.on_ack(&ack(9), now + ms(30), &mut out);
        // ...then the spurious retransmission arrives: DSACK for 8.
        let mut d = dupack(9);
        d.dsack = Some((8, 9));
        out.clear();
        s.on_ack(&d, now + ms(31), &mut out);
        s
    }

    #[test]
    fn nm_restores_but_keeps_dupthresh() {
        let s = spurious_episode(DupthreshResponse::NoMovement, 2);
        assert_eq!(s.stats().spurious_detected, 1);
        assert_eq!(s.dupthresh(), 3);
    }

    #[test]
    fn restore_recovers_window() {
        let s = spurious_episode(DupthreshResponse::NoMovement, 2);
        // Slow-start restore: ssthresh is set to the pre-reduction window
        // (9.0 after 8 acked in slow start) so the sender climbs back to it
        // exponentially instead of jumping (no sudden burst).
        assert!((s.ssthresh() - 9.0).abs() < 1e-9, "ssthresh = prior cwnd, got {}", s.ssthresh());
        assert!(s.cwnd() < 9.0, "cwnd itself climbs back via slow start");
    }

    #[test]
    fn inc_by_one_bumps_dupthresh() {
        let s = spurious_episode(DupthreshResponse::IncrementBy(1), 2);
        assert_eq!(s.dupthresh(), 4);
    }

    #[test]
    fn avg_with_episode_moves_toward_event_size() {
        // 3 + 7 = 10 dupacks in the episode: avg(3, 10) = 6.5 → 7 (rounded),
        // capped by 0.9·cwnd.
        let s = spurious_episode(DupthreshResponse::AverageWithEpisode, 7);
        assert!(s.dupthresh() > 3, "dupthresh must grow, got {}", s.dupthresh());
    }

    #[test]
    fn ewma_moves_gradually() {
        let s = spurious_episode(DupthreshResponse::Ewma { gain: 0.25 }, 9);
        // (1-0.25)*3 + 0.25*12 = 5.25 → 5, subject to the cwnd cap.
        assert!(s.dupthresh() >= 4, "got {}", s.dupthresh());
        assert!(s.dupthresh() <= 6, "got {}", s.dupthresh());
    }

    #[test]
    fn dsack_without_matching_retransmit_is_ignored() {
        let mut s = DsackSender::new(RenoConfig::default(), DupthreshResponse::IncrementBy(1));
        let mut out = SenderOutput::new();
        s.on_start(SimTime::ZERO, &mut out);
        out.clear();
        // DSACK for a segment we never retransmitted (e.g. network dup).
        let mut d = ack(1);
        d.dsack = Some((0, 1));
        s.on_ack(&d, SimTime::ZERO + ms(10), &mut out);
        assert_eq!(s.stats().spurious_detected, 0);
        assert_eq!(s.dupthresh(), 3);
    }
}
