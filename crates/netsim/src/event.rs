//! The discrete-event core: a time-ordered queue with deterministic
//! tie-breaking.
//!
//! Events at the same instant are dispatched in insertion order (FIFO), which
//! makes simulations reproducible regardless of heap internals.
//!
//! A `seq` may be reserved ahead of the push ([`EventQueue::reserve_seq`],
//! then [`EventQueue::schedule_reserved`] — or never): an event needed only
//! sometimes still holds its place in the order, so leaving it out moves no
//! other event's [`EventKey`]. The virtual `LinkReady` is built on this.
//!
//! The heap orders 24-byte `(at, seq, slot)` keys; the [`EventKind`]
//! payloads sit still in a [`Slab`], written once on push and read once on
//! pop, so the slab never outgrows [`EventQueue::peak_len`]. A payload is
//! itself 24 bytes — an `Arrive` names its packet by [`PacketId`], the
//! packet stays in the simulator's arena — and still does not ride in the
//! heap entry: sifting 40-byte records measured no faster than 24-byte
//! keys (DESIGN.md §2 "Packets sit still").

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::mem;

use crate::ids::{AgentId, LinkId, NodeId, PacketId};
use crate::slab::Slab;
use crate::time::SimTime;

/// What happens when an event fires.
#[derive(Debug)]
pub enum EventKind {
    /// A packet arrives at a node (end of a link's propagation).
    Arrive {
        /// Node the packet arrives at.
        node: NodeId,
        /// The packet, parked in the simulator's arena.
        packet: PacketId,
    },
    /// A link finished serializing the previous packet and can start the next.
    LinkReady {
        /// The link that became free.
        link: LinkId,
    },
    /// An agent timer fires.
    Timer {
        /// The agent whose timer fires.
        agent: AgentId,
        /// The tie-break `seq` this pop was reserved under when its deadline
        /// was armed; with the instant it is the key the simulator matches
        /// against the agent's timer slot to tell the live pop from orphans.
        generation: u64,
    },
    /// An agent's auxiliary timer fires (second, independent timer slot —
    /// e.g. a pacing release clock beside the retransmission timer).
    AuxTimer {
        /// The agent whose auxiliary timer fires.
        agent: AgentId,
        /// Reserved `seq` of this pop, as for [`EventKind::Timer`].
        generation: u64,
    },
    /// A scheduled routing change takes effect (models route flaps and
    /// routing-protocol reconvergence).
    InstallRoute {
        /// Source of the (src, dst) pair whose route changes.
        src: NodeId,
        /// Destination of the pair.
        dst: NodeId,
        /// The new path mixture.
        route: Box<crate::routing::MultipathRoute>,
    },
    /// A scheduled administrative link change takes effect (flapping,
    /// bandwidth/delay oscillation; see [`crate::impair::schedule`]).
    LinkAdmin {
        /// The link the action applies to.
        link: LinkId,
        /// What changes.
        action: crate::impair::LinkAdmin,
    },
    /// The simulation control loop should pause and return to the caller.
    Breakpoint,
}

impl EventKind {
    /// Stable profiler counter key for this event kind (one per variant),
    /// used by the dispatch loop's per-event-kind counters.
    pub fn profile_key(&self) -> &'static str {
        match self {
            EventKind::Arrive { .. } => "event.arrive",
            EventKind::LinkReady { .. } => "event.link_ready",
            EventKind::Timer { .. } => "event.timer",
            EventKind::AuxTimer { .. } => "event.aux_timer",
            EventKind::InstallRoute { .. } => "event.install_route",
            EventKind::LinkAdmin { .. } => "event.link_admin",
            EventKind::Breakpoint => "event.breakpoint",
        }
    }
}

/// Dispatch-order key of an event: instant, then tie-break sequence number.
pub type EventKey = (SimTime, u64);

/// What the heap sifts: the dispatch key plus where the payload waits.
#[derive(Debug, Clone, Copy)]
struct Key {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Deterministic future-event list.
///
/// # Examples
///
/// ```
/// use netsim::event::{EventQueue, EventKind};
/// use netsim::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_nanos(20), EventKind::Breakpoint);
/// q.schedule(SimTime::from_nanos(10), EventKind::Breakpoint);
/// let (t, _) = q.pop().unwrap();
/// assert_eq!(t, SimTime::from_nanos(10));
/// ```
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Key>,
    payloads: Slab<EventKind>,
    next_seq: u64,
    last_popped_seq: u64,
    peak_len: usize,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `kind` to fire at instant `at`.
    pub fn schedule(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.reserve_seq();
        self.schedule_reserved((at, seq), kind);
    }

    /// Takes the next tie-break `seq` without pushing anything.
    pub fn reserve_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq - 1
    }

    /// Pushes `kind` under a key whose `seq` was reserved earlier.
    pub fn schedule_reserved(&mut self, (at, seq): EventKey, kind: EventKind) {
        let slot = self.payloads.insert(kind);
        self.heap.push(Key { at, seq, slot });
        if self.heap.len() > self.peak_len {
            self.peak_len = self.heap.len();
        }
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, EventKind)> {
        let key = self.heap.pop()?;
        let kind = self.payloads.remove(key.slot);
        self.last_popped_seq = key.seq;
        Some((key.at, kind))
    }

    /// `seq` of the event popped last (0 before the first pop).
    pub fn last_popped_seq(&self) -> u64 {
        self.last_popped_seq
    }

    /// The instant of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Largest number of simultaneously pending events seen so far
    /// (run-health diagnostic; see [`crate::telemetry`]).
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// In-memory footprint of one pending event, bytes: its heap key plus
    /// its slab slot — what the event costs in memory, not the key alone
    /// that sifts. Lets harnesses convert [`EventQueue::peak_len`]
    /// (surfaced as `peak_event_heap` in run health) into a byte figure,
    /// e.g. for per-flow memory accounting at population scale.
    pub fn record_bytes() -> usize {
        mem::size_of::<Key>() + Slab::<EventKind>::slot_bytes()
    }

    /// Number of pending [`EventKind::Arrive`] events — packets currently
    /// in flight between a link's transmitter and its far end. Used by the
    /// conservation check in [`crate::oracle`]; O(peak pending events).
    pub fn pending_arrivals(&self) -> usize {
        self.payloads.iter().filter(|kind| matches!(kind, EventKind::Arrive { .. })).count()
    }

    /// Links with a pending [`EventKind::LinkReady`] (for the lost-wake-up
    /// law of [`crate::oracle`]); O(peak pending events).
    pub fn pending_link_ready(&self) -> impl Iterator<Item = LinkId> + '_ {
        self.payloads.iter().filter_map(|kind| match kind {
            EventKind::LinkReady { link } => Some(*link),
            _ => None,
        })
    }

    /// The `generation` of every pending timer pop, main or auxiliary (for
    /// the lost-timer law of [`crate::oracle`]); O(peak pending events).
    pub fn pending_timers(&self) -> impl Iterator<Item = u64> + '_ {
        self.payloads.iter().filter_map(|kind| match kind {
            EventKind::Timer { generation, .. } | EventKind::AuxTimer { generation, .. } => {
                Some(*generation)
            }
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bp() -> EventKind {
        EventKind::Breakpoint
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), bp());
        q.schedule(SimTime::from_nanos(10), bp());
        q.schedule(SimTime::from_nanos(20), bp());
        let times: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(t, _)| t.as_nanos())).collect();
        assert_eq!(times, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        q.schedule(t, EventKind::LinkReady { link: LinkId::from_raw(0) });
        q.schedule(t, EventKind::LinkReady { link: LinkId::from_raw(1) });
        q.schedule(t, EventKind::LinkReady { link: LinkId::from_raw(2) });
        let mut order = Vec::new();
        while let Some((_, EventKind::LinkReady { link })) = q.pop() {
            order.push(link.index());
        }
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        assert!(q.peek_time().is_none());
        q.schedule(SimTime::from_nanos(42), bp());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(42)));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn pending_arrivals_counts_only_arrive_events() {
        let mut q = EventQueue::new();
        assert_eq!(q.pending_arrivals(), 0);
        q.schedule(SimTime::from_nanos(1), bp());
        q.schedule(SimTime::from_nanos(2), EventKind::LinkReady { link: LinkId::from_raw(0) });
        assert_eq!(q.pending_arrivals(), 0, "non-arrival events do not count");
        let packet = PacketId::from_raw(0);
        q.schedule(SimTime::from_nanos(3), EventKind::Arrive { node: NodeId::from_raw(1), packet });
        assert_eq!(q.pending_arrivals(), 1);
    }

    #[test]
    fn peak_len_tracks_high_water_mark() {
        let mut q = EventQueue::new();
        assert_eq!(q.peak_len(), 0);
        q.schedule(SimTime::from_nanos(1), bp());
        q.schedule(SimTime::from_nanos(2), bp());
        q.schedule(SimTime::from_nanos(3), bp());
        q.pop();
        q.pop();
        q.schedule(SimTime::from_nanos(4), bp());
        assert_eq!(q.peak_len(), 3, "peak is the high-water mark, not current len");
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn slots_are_recycled_never_leaked() {
        // Saw-tooth occupancy with ties, late and never-used reserved seqs:
        // however the run goes, the payload slab holds exactly the pending
        // events and never outgrows the heap's high-water mark. (That its
        // vacant slots all stay on the free list is `Slab`'s own test.)
        let mut q = EventQueue::new();
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        let mut reserved = Vec::new();
        for step in 0..5_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let at = SimTime::from_nanos(step / 8 + x % 4);
            // Grow for 250 steps, drain for 250: every slot is reused often.
            let pop_from = if (step / 250) % 2 == 0 { 6 } else { 3 };
            match x % 8 {
                r if r >= pop_from => {
                    q.pop();
                }
                0 => reserved.push((at, q.reserve_seq())),
                1 => {
                    if let Some(key) = reserved.pop() {
                        q.schedule_reserved(key, bp());
                    }
                }
                _ => q.schedule(at, EventKind::LinkReady { link: LinkId::from_raw(step as u32) }),
            }
            assert_eq!(q.payloads.peak(), q.peak_len());
            assert_eq!(q.payloads.len(), q.len());
        }
        assert!((20..500).contains(&q.peak_len()), "churn, not growth: {}", q.peak_len());
        while q.pop().is_some() {}
        assert_eq!((q.payloads.len(), q.payloads.peak()), (0, q.peak_len()));
    }

    #[test]
    fn default_is_a_valid_empty_queue() {
        let mut q = EventQueue::default();
        assert!(q.is_empty() && q.pop().is_none() && q.peek_time().is_none());
        assert_eq!((q.peak_len(), q.last_popped_seq(), q.reserve_seq()), (0, 0, 0));
        q.schedule(SimTime::from_nanos(2), bp());
        q.schedule(SimTime::from_nanos(1), bp());
        assert_eq!(q.pop().map(|(t, _)| t.as_nanos()), Some(1));
        assert_eq!(q.last_popped_seq(), 2);
    }

    #[test]
    fn record_bytes_is_key_plus_slot() {
        assert_eq!(mem::size_of::<Key>(), 24, "what sifts");
        // The slab's free-list link rides in `EventKind`'s spare tag values.
        assert_eq!(EventQueue::record_bytes(), 24 + mem::size_of::<EventKind>());
        // ROADMAP 2(d)'s gate: no payload carries more than a handle.
        assert!(mem::size_of::<EventKind>() <= 32, "{}", mem::size_of::<EventKind>());
        assert!(EventQueue::record_bytes() <= 64, "{}", EventQueue::record_bytes());
    }
}
