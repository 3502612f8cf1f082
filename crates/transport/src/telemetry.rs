//! A uniform telemetry surface over every sender variant.
//!
//! Each congestion-control algorithm keeps its own detailed counters
//! (TCP-PR's drop detections, SACK's scoreboard retransmits, Eifel's
//! restores, …), which makes cross-variant reporting awkward: every
//! experiment that compares senders needs one downcast per variant. The
//! [`SenderTelemetry`] supertrait closes that gap — every
//! [`TcpSenderAlgo`](crate::sender::TcpSenderAlgo) must render its state
//! into one [`CommonStats`] snapshot, with algorithm-specific counters
//! mapped onto the shared fields (e.g. Eifel's "restores" are
//! [`CommonStats::spurious_reversals`]) and anything without a shared
//! meaning preserved under [`CommonStats::extra`].
//!
//! The probe helpers at the bottom adapt snapshot fields into
//! [`netsim::telemetry::Sampler`] probes, so cwnd/srtt/RTO time series work
//! identically for every variant.

use netsim::ids::AgentId;
use netsim::sim::Simulator;
use netsim::telemetry::Probe;
use netsim::time::SimDuration;

use crate::host::sender_host;
use crate::sender::TcpSenderAlgo;

/// A cross-variant snapshot of a sender's state and counters.
///
/// Fields a variant cannot populate meaningfully stay at their defaults
/// (`0` / `None`); algorithm-specific counters with no shared field land in
/// [`CommonStats::extra`].
#[derive(Debug, Clone, Default, serde::Serialize)]
pub struct CommonStats {
    /// Algorithm name, as reported by `TcpSenderAlgo::name`.
    pub algorithm: String,
    /// Segments cumulatively acknowledged.
    pub acked_segments: u64,
    /// Fast retransmissions (dupack- or timer-triggered recovery entries,
    /// per the variant's own definition).
    pub fast_retransmits: u64,
    /// Retransmission timeouts taken.
    pub timeouts: u64,
    /// Retransmissions later judged spurious (Eifel/DSACK detection,
    /// TCP-DOOR out-of-order detection).
    pub spurious_detections: u64,
    /// Congestion-state reversals performed after a spurious detection.
    pub spurious_reversals: u64,
    /// Duplicate ACKs processed.
    pub dupacks: u64,
    /// Current congestion window, segments.
    pub cwnd: f64,
    /// Current slow-start threshold, segments (`∞` if unset — serialized
    /// as `null`).
    pub ssthresh: f64,
    /// Smoothed RTT estimate, if the variant keeps one.
    pub srtt: Option<SimDuration>,
    /// Current retransmission timeout, if the variant keeps one.
    pub rto: Option<SimDuration>,
    /// Algorithm-specific counters with no cross-variant meaning,
    /// name → value.
    pub extra: Vec<(String, u64)>,
}

impl CommonStats {
    /// Looks up an algorithm-specific counter by name.
    pub fn extra(&self, name: &str) -> Option<u64> {
        self.extra.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// Renders a sender's state as a [`CommonStats`] snapshot.
///
/// This is a supertrait of [`TcpSenderAlgo`], so *every* variant — TCP-PR
/// and all baselines — reports through the same interface.
pub trait SenderTelemetry {
    /// Snapshots the sender's current state and counters.
    fn common_stats(&self) -> CommonStats;
}

impl SenderTelemetry for Box<dyn TcpSenderAlgo> {
    fn common_stats(&self) -> CommonStats {
        (**self).common_stats()
    }
}

/// The ACK path's exact cost proxy, counted once per ACK while the profiler
/// is on: the sender spent `steps` loop iterations (over runs, gaps, segments
/// and ring slots) on an ACK that newly acknowledged, SACKed or declared lost
/// `changed` segments. `repro profile` bounds `sender.ack_steps` by a
/// constant times `sender.acks + sender.ack_changes`.
pub fn count_ack(steps: u64, changed: u64) {
    if obs::enabled() {
        obs::count("sender.acks", 1);
        obs::count("sender.ack_steps", steps);
        obs::count("sender.ack_changes", changed);
    }
}

/// Builds a [`Sampler`](netsim::telemetry::Sampler) probe that reads one
/// `f64` off the [`CommonStats`] of the sender hosted at agent `sender`.
///
/// `S` must match the concrete algorithm type the host was attached with
/// (use `Box<dyn TcpSenderAlgo>` for variant-erased flows); the probe
/// panics otherwise, like [`sender_host`].
pub fn sender_probe<S, F>(sender: AgentId, f: F) -> Probe
where
    S: TcpSenderAlgo + 'static,
    F: Fn(&CommonStats) -> f64 + 'static,
{
    Box::new(move |sim: &Simulator| f(&sender_host::<S>(sim, sender).algo().common_stats()))
}

/// Probe of the sender's congestion window, in segments.
pub fn cwnd_probe<S: TcpSenderAlgo + 'static>(sender: AgentId) -> Probe {
    sender_probe::<S, _>(sender, |s| s.cwnd)
}

/// Probe of the sender's smoothed RTT, in seconds (`0` until estimated).
pub fn srtt_probe<S: TcpSenderAlgo + 'static>(sender: AgentId) -> Probe {
    sender_probe::<S, _>(sender, |s| s.srtt.map_or(0.0, |d| d.as_secs_f64()))
}

/// Probe of the sender's retransmission timeout, in seconds (`0` until
/// estimated).
pub fn rto_probe<S: TcpSenderAlgo + 'static>(sender: AgentId) -> Probe {
    sender_probe::<S, _>(sender, |s| s.rto.map_or(0.0, |d| d.as_secs_f64()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extra_lookup() {
        let stats =
            CommonStats { extra: vec![("partial_acks".to_owned(), 3)], ..CommonStats::default() };
        assert_eq!(stats.extra("partial_acks"), Some(3));
        assert_eq!(stats.extra("missing"), None);
    }
}
