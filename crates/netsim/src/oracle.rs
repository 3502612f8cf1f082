//! Sim-core invariant oracle: packet conservation, no leaked or doubly
//! held packet, event-time monotonicity, no lost wake-up and no timer armed
//! in the past.
//!
//! The simulator keeps exact counters for every way a packet can leave the
//! system (delivery, the four drop classes) and for every way one can enter
//! it (agent injection, wire duplication). Between events, each live packet
//! is either parked in a link queue or pending as an arrival — an `Arrive`
//! event in the heap, or an entry of its link's lane in the event queue —
//! so the books must balance *exactly*:
//!
//! ```text
//! injected + duplicated =
//!     delivered + no_route_drops + queue_drops + random_losses
//!   + impair_drops + queued + in_flight
//! ```
//!
//! The packets themselves sit in one arena from injection until delivery
//! or a drop; a link queue or an `Arrive` holds a 4-byte handle. The handle
//! is `Copy`, so the type system no longer says a packet is in one place at
//! a time — this law does. Every live arena slot must be held by exactly
//! one queue entry or pending arrival:
//!
//! ```text
//! live_packets = queued + in_flight
//! ```
//!
//! More live than held is a leak (an exit forgot to free its slot); fewer
//! is a packet held twice, or a handle that outlived its packet — which, if
//! the slot is still vacant when the handle is used, panics there instead.
//!
//! [`check`] verifies both equations plus the event core's monotonic-clock
//! invariant (an event must never fire at an instant earlier than the
//! current clock; the dispatch loop counts such regressions instead of
//! panicking) and its wake-up law. Every link's end of serialization, every
//! link's arrival lane and every agent timer is a source with at most one
//! key in a heap, pushed only when it falls below the one pending; so
//! between events a non-empty source — an up link with packets waiting, a
//! lane with arrivals, an armed timer — must have its head in a heap, keyed
//! at or below what is due, and a pending key must be in one. Otherwise the
//! queue is never served again, the packets never arrive, the callback never
//! runs (or a phantom key swallows the next arm).
//!
//! [`check_flows`] holds the flows a run hosts to their own laws: an agent
//! never arms a timer for an instant already past. The simulator fires such
//! a deadline now, as `AgentCtx::set_timer` promises any agent, so it is no
//! invariant of the core; but a protocol sender that asks for the past has
//! lost track of its clock. A harness that hosts protocol flows
//! (`experiments::cell`, and so the hunt) counts both.
//! The adversary's `oracle` objective
//! minimizes the negated violation count, i.e. it actively searches the
//! impairment/admin-schedule space for scenarios that break a law.
//!
//! # Examples
//!
//! ```
//! use netsim::link::LinkConfig;
//! use netsim::sim::SimBuilder;
//! use netsim::time::SimTime;
//!
//! let mut b = SimBuilder::new(7);
//! let a = b.add_node();
//! let c = b.add_node();
//! b.add_duplex(a, c, LinkConfig::mbps_ms(10.0, 5, 10));
//! let mut sim = b.build();
//! sim.run_until(SimTime::from_secs_f64(0.5));
//! assert!(netsim::oracle::check(&sim.invariant_snapshot()).is_empty());
//! ```

/// Exact packet-accounting state of a simulator at one instant; produced
/// by `Simulator::invariant_snapshot`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Packets injected by agents.
    pub injected: u64,
    /// Extra packet copies created by duplication impairments.
    pub duplicated: u64,
    /// Packets delivered to an agent.
    pub delivered: u64,
    /// Packets discarded for lack of a route or a receiving agent.
    pub no_route_drops: u64,
    /// Packets dropped by full queues.
    pub queue_drops: u64,
    /// Packets dropped by the per-link random-loss process.
    pub random_losses: u64,
    /// Packets destroyed by impairment stages or down links.
    pub impair_drops: u64,
    /// Packets currently parked in link queues (both DiffServ classes).
    pub queued: u64,
    /// Packets currently propagating (pending `Arrive` events).
    pub in_flight: u64,
    /// Occupied slots of the packet arena.
    pub live_packets: u64,
    /// Events popped at an instant earlier than the clock.
    pub time_regressions: u64,
    /// Timers agents armed for an instant already past.
    pub armed_past: u64,
    /// Sources (links' ends of serialization and arrival lanes, agents'
    /// timers) with something due and no key for it in an event heap.
    pub stranded: u64,
}

impl Snapshot {
    /// The source side of the conservation equation.
    pub fn sources(&self) -> u64 {
        self.injected + self.duplicated
    }

    /// The sink side: every terminal counter plus packets still live.
    pub fn sinks(&self) -> u64 {
        self.delivered
            + self.no_route_drops
            + self.queue_drops
            + self.random_losses
            + self.impair_drops
            + self.queued
            + self.in_flight
    }
}

/// One violated sim-core invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// The conservation books do not balance.
    Conservation {
        /// Packets that entered the system (injected + duplicated).
        sources: u64,
        /// Packets accounted for (delivered, dropped, queued, in flight).
        sinks: u64,
    },
    /// The packet arena and its handle holders disagree: a slot was never
    /// freed (`live > held`), or a packet is held twice or after it was
    /// freed (`live < held`).
    LeakedPacket {
        /// Occupied arena slots.
        live: u64,
        /// Handles held by link queues and pending arrivals.
        held: u64,
    },
    /// The event clock moved backwards.
    TimeRegression {
        /// How many events fired at an instant earlier than the clock.
        count: u64,
    },
    /// A wake-up was lost: a source holds something due — packets on an up
    /// link, arrivals on a lane, an armed timer — that no key will pop.
    LostWakeUp {
        /// How many sources are stranded.
        count: u64,
    },
    /// Agents armed timers for instants already past.
    ArmedPast {
        /// How many arms asked for the past.
        count: u64,
    },
}

impl Violation {
    /// Human-readable one-liner for logs and counterexample reports.
    pub fn describe(&self) -> String {
        match self {
            Violation::Conservation { sources, sinks } => {
                format!("packet conservation violated: {sources} entered but {sinks} accounted for")
            }
            Violation::LeakedPacket { live, held } => {
                format!("packet arena holds {live} packet(s) but {held} handle(s) are held")
            }
            Violation::TimeRegression { count } => {
                format!("event clock moved backwards {count} time(s)")
            }
            Violation::LostWakeUp { count } => {
                format!("{count} event source(s) hold something due with no key in an event heap")
            }
            Violation::ArmedPast { count } => {
                format!("{count} timer(s) armed for an instant already past")
            }
        }
    }
}

/// Checks every invariant over a snapshot; an empty vector means the run is
/// clean.
pub fn check(s: &Snapshot) -> Vec<Violation> {
    let mut violations = Vec::new();
    if s.sources() != s.sinks() {
        violations.push(Violation::Conservation { sources: s.sources(), sinks: s.sinks() });
    }
    let held = s.queued + s.in_flight;
    if s.live_packets != held {
        violations.push(Violation::LeakedPacket { live: s.live_packets, held });
    }
    if s.time_regressions > 0 {
        violations.push(Violation::TimeRegression { count: s.time_regressions });
    }
    if s.stranded > 0 {
        violations.push(Violation::LostWakeUp { count: s.stranded });
    }
    violations
}

/// Checks the laws on the flows a run hosts (see the [module docs](self));
/// an empty vector means they all hold.
pub fn check_flows(s: &Snapshot) -> Vec<Violation> {
    let past = (s.armed_past > 0).then_some(Violation::ArmedPast { count: s.armed_past });
    past.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::FlowId;
    use crate::impair::{LinkAdmin, StageConfig};
    use crate::link::LinkConfig;
    use crate::sim::{SimBuilder, Simulator};
    use crate::time::{SimDuration, SimTime};
    use crate::traffic::{CbrSink, OnOffSource};

    /// A two-node topology with a CBR source driving packets through an
    /// optionally-impaired link.
    fn traffic_sim(seed: u64, stages: &[StageConfig]) -> Simulator {
        let mut b = SimBuilder::new(seed);
        let a = b.add_node();
        let c = b.add_node();
        let (fwd, _) = b.add_duplex(a, c, LinkConfig::mbps_ms(2.0, 10, 8));
        let mut sim = b.build();
        if !stages.is_empty() {
            sim.set_link_impairments(fwd, stages);
        }
        let flow = FlowId::from_raw(0);
        sim.add_agent(
            a,
            flow,
            Box::new(OnOffSource::new(
                c,
                4e6, // oversubscribed so the queue fills and drops
                1000,
                SimDuration::from_millis(200),
                SimDuration::from_millis(100),
                SimTime::ZERO,
            )),
        );
        sim.add_agent(c, flow, Box::new(CbrSink::new()));
        sim
    }

    #[test]
    fn clean_run_balances_mid_flight() {
        let mut sim = traffic_sim(3, &[]);
        // Stop mid-run so packets are still queued and in flight — the
        // equation must balance exactly even then.
        sim.run_until(SimTime::from_secs_f64(0.35));
        let snap = sim.invariant_snapshot();
        assert!(snap.injected > 50, "traffic flowed: {snap:?}");
        assert!(snap.queue_drops > 0, "the oversubscribed queue dropped: {snap:?}");
        assert!(snap.queued + snap.in_flight > 0, "packets are live mid-run: {snap:?}");
        assert_eq!(check(&snap), Vec::new(), "clean run: {snap:?}");
    }

    #[test]
    fn impaired_run_still_balances() {
        let stages = [
            StageConfig::IidLoss { p: 0.05 },
            StageConfig::Duplicate { p: 0.1 },
            StageConfig::Jitter { prob: 0.3, max_extra: SimDuration::from_millis(15) },
        ];
        let mut sim = traffic_sim(5, &stages);
        sim.run_until(SimTime::from_secs_f64(0.7));
        let snap = sim.invariant_snapshot();
        assert!(snap.duplicated > 0, "duplication fired: {snap:?}");
        assert!(snap.impair_drops > 0, "loss fired: {snap:?}");
        assert_eq!(check(&snap), Vec::new(), "impaired but balanced: {snap:?}");
    }

    #[test]
    fn down_link_drops_balance_too() {
        let mut sim = traffic_sim(9, &[]);
        sim.schedule_link_admin(SimTime::from_secs_f64(0.05), crate::ids::LinkId::from_raw(0), {
            LinkAdmin::Down
        });
        sim.run_until(SimTime::from_secs_f64(0.4));
        let snap = sim.invariant_snapshot();
        assert!(snap.impair_drops > 0, "down link drops arrivals: {snap:?}");
        assert!(snap.queued > 0, "the queue is parked behind the down link: {snap:?}");
        assert_eq!(check(&snap), Vec::new(), "parked on a down link is not stalled: {snap:?}");
    }

    #[test]
    fn seeded_stalled_link_is_detected() {
        let mut sim = traffic_sim(3, &[]);
        sim.run_until(SimTime::from_secs_f64(0.35));
        let mut snap = sim.invariant_snapshot();
        assert_eq!(snap.stranded, 0, "every backlogged link has its wake-up pending");
        snap.stranded = 2;
        let violations = check(&snap);
        assert_eq!(violations, vec![Violation::LostWakeUp { count: 2 }]);
        assert!(violations[0].describe().contains("no key in an event heap"));
    }

    #[test]
    fn seeded_conservation_violation_is_detected() {
        let mut sim = traffic_sim(3, &[]);
        sim.run_until(SimTime::from_secs_f64(0.35));
        let mut snap = sim.invariant_snapshot();
        // A lost packet nobody accounted for.
        snap.delivered -= 1;
        let violations = check(&snap);
        assert_eq!(
            violations,
            vec![Violation::Conservation { sources: snap.sources(), sinks: snap.sinks() }]
        );
        assert!(violations[0].describe().contains("conservation"));
    }

    #[test]
    fn seeded_time_regression_is_detected() {
        let mut sim = traffic_sim(3, &[]);
        sim.run_until(SimTime::from_secs_f64(0.2));
        // Schedule an admin event in the past: the dispatch loop counts the
        // regression (instead of moving the clock backwards) and the oracle
        // reports it.
        sim.schedule_link_admin(SimTime::from_secs_f64(0.05), crate::ids::LinkId::from_raw(0), {
            LinkAdmin::Down
        });
        sim.run_until(SimTime::from_secs_f64(0.25));
        let snap = sim.invariant_snapshot();
        assert_eq!(snap.time_regressions, 1);
        let violations = check(&snap);
        assert_eq!(
            violations,
            vec![Violation::TimeRegression { count: 1 }],
            "conservation still balances; only the clock invariant broke"
        );
        assert!(violations[0].describe().contains("backwards"));
    }
}
