//! Sender-side observability: the ACK path's cost proxy and the
//! [`netsim::telemetry::Sampler`] probes that read a sender's `cwnd`,
//! smoothed RTT and RTO through [`TcpSenderAlgo`], the same for every
//! variant. A variant's own counters are read on its concrete type (its
//! `stats()`), not through a shared snapshot.

use netsim::ids::AgentId;
use netsim::sim::Simulator;
use netsim::telemetry::Probe;

use crate::host::sender_host;
use crate::sender::TcpSenderAlgo;

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

/// A probe that reads one `f64` off the sender hosted at agent `sender`.
///
/// `S` must match the concrete algorithm type the host was attached with
/// (`Box<dyn TcpSenderAlgo>` for variant-erased flows); the probe panics
/// otherwise, like [`sender_host`].
fn sender_probe<S: TcpSenderAlgo>(sender: AgentId, f: fn(&S) -> f64) -> Probe {
    Box::new(move |sim: &Simulator| f(sender_host::<S>(sim, sender).algo()))
}

/// Probe of the sender's congestion window, in segments.
pub fn cwnd_probe<S: TcpSenderAlgo + 'static>(sender: AgentId) -> Probe {
    sender_probe::<S>(sender, |s| s.cwnd())
}

/// Probe of the sender's smoothed RTT, in seconds (`0` until estimated).
pub fn srtt_probe<S: TcpSenderAlgo + 'static>(sender: AgentId) -> Probe {
    sender_probe::<S>(sender, |s| s.srtt().map_or(0.0, |d| d.as_secs_f64()))
}

/// Probe of the sender's retransmission timeout, in seconds (`0` until
/// estimated).
pub fn rto_probe<S: TcpSenderAlgo + 'static>(sender: AgentId) -> Probe {
    sender_probe::<S>(sender, |s| s.rto().map_or(0.0, |d| d.as_secs_f64()))
}
