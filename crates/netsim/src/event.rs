//! The discrete-event core: one order over every pending event, by instant
//! and then by `seq`, the order events took their place in (FIFO ties), so a
//! run never depends on heap internals.
//!
//! The heaps order 16-byte keys: one `u128` holding `at`, `seq` and the
//! event's source, a tag over an index. Most events come from a [`Source`],
//! a locally ordered stream with at most one key in a heap, whose event the
//! key rebuilds: a link's end of serialization ([`LINK_READY`]), a link's
//! arrival lane (`LANE`) and an agent's two timers ([`TIMER`], [`AUX`]). The
//! queue holds each source's pending key; what else is pending sits in a
//! [`Slab`] slot its key names. Timer keys wait in a heap of their own, out
//! of the packets' sift path, and a pop takes the earlier of the two tops
//! (DESIGN.md §2 "One kind of pending source").
//!
//! A key takes its `seq` where the event takes its place in the order, which
//! may be before it is pushed — or never ([`EventQueue::reserve_seq`]): a
//! deadline moved later, or the end of a serialization nothing waits for,
//! keeps its place without a push.

use std::cmp::Ordering;
use std::collections::{binary_heap::PeekMut, BinaryHeap, HashSet, VecDeque};
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
        /// The `seq` of the key this pop came under, for a timer the
        /// simulator armed.
        generation: u64,
    },
    /// An agent's auxiliary timer fires (second, independent timer slot —
    /// e.g. a pacing release clock beside the retransmission timer).
    AuxTimer {
        /// The agent whose auxiliary timer fires.
        agent: AgentId,
        /// As for [`EventKind::Timer`].
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

/// What the heap sifts: `at` in the high 64 bits, `seq` in the next
/// [`SEQ_BITS`], and in the low 24 the source — a 3-bit tag over an
/// [`INDEX_BITS`]-bit index naming where the event waits or what rebuilds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Key(u128);

/// Width of a key's `seq`: a queue reserves at most 2^40 of them.
const SEQ_BITS: u32 = 40;
/// Width of a key's index: at most 2^21 links, agents or pending slotted events.
const INDEX_BITS: u32 = 21;

/// Source tags. The payload is in the slab slot the index names.
const SLOT: u32 = 0;
/// The lane of the link the index names; its first arrival's packet is [`Lane::head`].
const LANE: u32 = 1;
/// `EventKind::LinkReady` of the link the index names.
pub(crate) const LINK_READY: u32 = 2;
/// `EventKind::Timer` of the agent the index names, `generation` = the key's `seq`.
pub(crate) const TIMER: u32 = 3;
/// `EventKind::AuxTimer`, as for [`TIMER`].
pub(crate) const AUX: u32 = 4;

impl Key {
    /// Packs a key; `seq` and `index` must fit their fields, in release
    /// builds too — a truncated field would reorder or misdirect an event.
    fn new((at, seq): EventKey, tag: u32, index: u32) -> Key {
        assert!(seq < 1 << SEQ_BITS, "event seq {seq} overflows the key: seq must be below 2^40");
        assert!(
            index < 1 << INDEX_BITS,
            "event source index {index} overflows the key: index must be below 2^21"
        );
        let source = tag << INDEX_BITS | index;
        Key((at.as_nanos() as u128) << 64 | (seq as u128) << 24 | source as u128)
    }

    fn at(self) -> SimTime {
        SimTime::from_nanos((self.0 >> 64) as u64)
    }

    fn seq(self) -> u64 {
        (self.0 >> 24) as u64 & ((1 << SEQ_BITS) - 1)
    }

    fn tag(self) -> u32 {
        (self.0 as u32 >> INDEX_BITS) & 0b111
    }

    fn index(self) -> u32 {
        self.0 as u32 & ((1 << INDEX_BITS) - 1)
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    /// One integer compare. `seq` is unique among pending keys, so the
    /// source bits below it never decide: this is the `(at, seq)` order,
    /// inverted because `BinaryHeap` is a max-heap.
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.cmp(&self.0)
    }
}

/// A locally ordered source of events with at most one key in a heap:
/// `pending`, which the queue holds. `due` is the key of what the source
/// has due — a timer's armed deadline, the end of a serialization a packet
/// waits for. A key is pushed only below the one pending: a deadline moved
/// later rides on the pop already queued and is pushed when that pop comes
/// (`Pop::Defer`), one moved earlier orphans it. A lane's pending key is its
/// first arrival's and its `due` its last's; the rest wait in the lane.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Source {
    pub(crate) pending: Option<EventKey>,
    pub(crate) due: Option<EventKey>,
}

/// What the pop of a source's key turned out to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Pop {
    /// The key due: the event happens.
    Fire,
    /// What is due moved later while this key waited: its key is pushed.
    Defer,
    /// An orphan, or nothing is due any more: nothing happens.
    Stale,
}

impl Source {
    /// Makes `key` due; true if it must be pushed: nothing pending at or below it.
    pub(crate) fn arm(&mut self, key: EventKey) -> bool {
        self.due = Some(key);
        let push = self.pending.is_none_or(|pending| key < pending);
        if push {
            self.pending = Some(key);
        }
        push
    }

    /// Moves the source past the pop of `key`; after a `Defer`, `pending`
    /// is the key to push.
    pub(crate) fn pop(&mut self, key: EventKey) -> Pop {
        if self.pending != Some(key) {
            return Pop::Stale;
        }
        if self.due == Some(key) {
            *self = Source::default();
            return Pop::Fire;
        }
        self.pending = self.due;
        if self.due.is_some() {
            Pop::Defer
        } else {
            Pop::Stale
        }
    }

    /// True if the source's next event is lost: its pending key is in no
    /// heap (and would swallow the next arm), or something is due — or, for
    /// a link, `waiting` — with no key at or below it pending. `keyed` holds
    /// the `seq` of every key in the heaps.
    pub(crate) fn stranded(&self, waiting: bool, keyed: &HashSet<u64>) -> bool {
        match self.pending {
            Some(key) => !keyed.contains(&key.1) || self.due.is_some_and(|due| key > due),
            None => waiting || self.due.is_some(),
        }
    }
}

/// The arrivals in flight on one link, in `(at, seq)` order: a [`Source`]
/// whose pending key is the first arrival's, with its packet beside it,
/// and whose `due` is the last arrival's.
#[derive(Debug)]
struct Lane {
    /// Node the link delivers to.
    to: NodeId,
    /// The packet of the arrival the lane's pending key stands for.
    head: PacketId,
    src: Source,
    /// The arrivals queued behind that head.
    backlog: VecDeque<(SimTime, u64, PacketId)>,
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
    /// Keys of the pending `Timer` / `AuxTimer` pops, out of the packets' way.
    timers: BinaryHeap<Key>,
    /// The pending events no key can rebuild.
    payloads: Slab<EventKind>,
    lanes: Vec<Lane>,
    /// Per link, its end of serialization ([`LINK_READY`]).
    ready: Vec<Source>,
    /// Per agent, its timer and its auxiliary timer ([`TIMER`], [`AUX`]).
    agents: Vec<[Source; 2]>,
    /// Arrivals in lane backlogs: pending events the heap does not hold.
    waiting: usize,
    next_seq: u64,
    last_popped_seq: u64,
    peak_len: usize,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty queue for the simulator's links: link `i`'s lane, which
    /// delivers to node `to[i]`, and its end-of-serialization source.
    pub fn with_lanes(to: impl IntoIterator<Item = NodeId>) -> Self {
        let lane =
            |to| Lane { to, head: PacketId(0), src: Source::default(), backlog: VecDeque::new() };
        let lanes: Vec<Lane> = to.into_iter().map(lane).collect();
        EventQueue { ready: vec![Source::default(); lanes.len()], lanes, ..Self::default() }
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

    /// Pushes `kind` under a key whose `seq` was reserved earlier: in the key
    /// alone if the key can rebuild it, else with a payload slot.
    pub fn schedule_reserved(&mut self, key: EventKey, kind: EventKind) {
        let (tag, index) = match kind {
            EventKind::LinkReady { link } => (LINK_READY, link.0),
            EventKind::Timer { agent, generation } if generation == key.1 => (TIMER, agent.0),
            EventKind::AuxTimer { agent, generation } if generation == key.1 => (AUX, agent.0),
            kind => {
                let timer = matches!(kind, EventKind::Timer { .. } | EventKind::AuxTimer { .. });
                // Not `event.*`: those counters are dispatches, one per kind.
                obs::count("payload.slotted", 1);
                let slot = self.payloads.insert(kind);
                return self.push(Key::new(key, SLOT, slot), timer);
            }
        };
        self.push(Key::new(key, tag, index), tag >= TIMER);
    }

    fn push(&mut self, key: Key, timer: bool) {
        if timer {
            self.timers.push(key);
        } else {
            self.heap.push(key);
        }
        self.peak_len = self.peak_len.max(self.len());
    }

    /// The source a [`LINK_READY`], [`TIMER`] or [`AUX`] key with `index`
    /// comes from; an agent's appear at its first arm. (A lane moves on
    /// inside `pop_through`.)
    fn source(&mut self, tag: u32, index: u32) -> &mut Source {
        let i = index as usize;
        match tag {
            LINK_READY => &mut self.ready[i],
            _ => {
                if i >= self.agents.len() {
                    self.agents.resize(i + 1, Default::default());
                }
                &mut self.agents[i][(tag - TIMER) as usize]
            }
        }
    }

    /// Makes `key` due on source `(tag, index)`, pushing it unless a key at
    /// or below it is pending.
    pub(crate) fn arm(&mut self, tag: u32, index: u32, key: EventKey) {
        if self.source(tag, index).arm(key) {
            self.push(Key::new(key, tag, index), tag >= TIMER);
        }
    }

    /// Nothing is due on source `(tag, index)` any more; a key pending
    /// stays, to pop stale.
    pub(crate) fn disarm(&mut self, tag: u32, index: u32) {
        self.source(tag, index).due = None;
    }

    /// Moves source `(tag, index)` past the pop of its `key`, pushing what
    /// is due if it moved later meanwhile.
    pub(crate) fn advance(&mut self, tag: u32, index: u32, key: EventKey) -> Pop {
        let source = self.source(tag, index);
        let pop = source.pop(key);
        if let (Pop::Defer, Some(next)) = (pop, source.pending) {
            self.push(Key::new(next, tag, index), tag >= TIMER);
        }
        pop
    }

    /// Schedules `packet` to arrive at the far end of `lane` at `at`, keyed
    /// as `schedule(at, EventKind::Arrive { .. })` would key it: down the lane
    /// if it is due no earlier than the lane's last arrival, else as an
    /// overtaker in a slot (jitter, an impairment's extra delay, a delay just
    /// lowered). An empty lane takes any `at`: the simulator never schedules
    /// one before the clock, and every arrival the lane held is past.
    pub fn schedule_arrival(&mut self, lane: usize, at: SimTime, packet: PacketId) {
        let key = (at, self.reserve_seq());
        let l = &mut self.lanes[lane];
        if l.src.due.is_some_and(|(last, _)| at < last) {
            obs::count("arrive.overtook", 1);
            let node = l.to;
            return self.schedule_reserved(key, EventKind::Arrive { node, packet });
        }
        obs::count("arrive.laned", 1);
        l.src.due = Some(key);
        if l.src.pending.is_some() {
            l.backlog.push_back((at, key.1, packet));
            self.waiting += 1;
            self.peak_len = self.peak_len.max(self.len());
        } else {
            l.src.pending = Some(key);
            l.head = packet;
            self.push(Key::new(key, LANE, lane as u32), false);
        }
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, EventKind)> {
        self.pop_through(SimTime::MAX)
    }

    /// Removes and returns the earliest event if it is due at or before
    /// `deadline`; `None` if it is later or the queue is empty.
    pub fn pop_through(&mut self, deadline: SimTime) -> Option<(SimTime, EventKind)> {
        // `Key`'s order is inverted: the greater of the two tops is the earlier.
        let timer = self.timers.peek().filter(|t| self.heap.peek().is_none_or(|top| *t > top));
        if let Some(&key) = timer {
            if key.at() > deadline {
                return None;
            }
            self.timers.pop();
            return Some(self.take(key));
        }
        let mut top = self.heap.peek_mut().filter(|top| top.at() <= deadline)?;
        let key = *top;
        if key.tag() != LANE {
            PeekMut::pop(top);
            return Some(self.take(key));
        }
        self.last_popped_seq = key.seq();
        let lane = &mut self.lanes[key.index() as usize];
        let packet = lane.head;
        if let Some((at, seq, next)) = lane.backlog.pop_front() {
            // The next arrival takes the top's place: one sift down from
            // there as `top` drops, where a pop and a later push are two.
            *top = Key::new((at, seq), LANE, key.index());
            lane.head = next;
            lane.src.pending = Some((at, seq));
            self.waiting -= 1;
        } else {
            lane.src = Source::default();
            PeekMut::pop(top);
        }
        Some((key.at(), EventKind::Arrive { node: lane.to, packet }))
    }

    /// The event a popped non-lane `key` names: rebuilt from the key, or
    /// taken out of its slot.
    fn take(&mut self, key: Key) -> (SimTime, EventKind) {
        self.last_popped_seq = key.seq();
        let index = key.index();
        let kind = match key.tag() {
            LINK_READY => EventKind::LinkReady { link: LinkId(index) },
            TIMER => EventKind::Timer { agent: AgentId(index), generation: key.seq() },
            AUX => EventKind::AuxTimer { agent: AgentId(index), generation: key.seq() },
            _ => self.payloads.remove(index),
        };
        (key.at(), kind)
    }

    /// `seq` of the event popped last (0 before the first pop).
    pub fn last_popped_seq(&self) -> u64 {
        self.last_popped_seq
    }

    /// The instant of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().max(self.timers.peek()).map(|s| s.at())
    }

    /// Number of pending events, wherever they wait: the two heaps and the
    /// lane backlogs.
    pub fn len(&self) -> usize {
        self.heap.len() + self.timers.len() + self.waiting
    }

    /// Keys in the packet heap: what a packet's push or pop sifts (profiler
    /// `event.heap_depth`).
    pub fn heap_len(&self) -> usize {
        self.heap.len()
    }

    /// Keys in the timer heap (profiler `event.timer_depth`).
    pub fn timer_len(&self) -> usize {
        self.timers.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.timers.is_empty()
    }

    /// Largest number of simultaneously pending events seen so far
    /// (run-health diagnostic; see [`crate::telemetry`]).
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// In-memory footprint of one pending event, bytes: its heap key plus
    /// a slab slot — what an event that needs a slot costs, an upper bound
    /// for one whose key rebuilds it. Lets harnesses convert [`EventQueue::peak_len`]
    /// (surfaced as `peak_event_heap` in run health) into a byte figure,
    /// e.g. for per-flow memory accounting at population scale.
    pub fn record_bytes() -> usize {
        mem::size_of::<Key>() + Slab::<EventKind>::slot_bytes()
    }

    /// Number of pending arrivals, on a lane or in the heap — packets in
    /// flight between a link's transmitter and its far end (for the
    /// conservation check in [`crate::oracle`]); O(peak pending + lanes).
    pub fn pending_arrivals(&self) -> usize {
        let heaped = self.payloads.iter().filter(|kind| matches!(kind, EventKind::Arrive { .. }));
        let laned = self.lanes.iter().filter(|l| l.src.pending.is_some());
        laned.count() + self.waiting + heaped.count()
    }

    /// Sources whose next event is lost (the wake-up law of
    /// [`crate::oracle`]); `waiting(link)` says link `link` holds packets
    /// for an up transmitter, which its [`LINK_READY`] source must poll.
    /// O(heaps + sources).
    pub fn stranded(&self, waiting: impl Fn(usize) -> bool) -> usize {
        let keyed: HashSet<u64> = self.heap.iter().chain(&self.timers).map(|k| k.seq()).collect();
        let lanes = self.lanes.iter().filter(|l| l.src.stranded(false, &keyed)).count();
        let ready = self.ready.iter().enumerate().filter(|(l, s)| s.stranded(waiting(*l), &keyed));
        let timers = self.agents.iter().flatten().filter(|s| s.stranded(false, &keyed));
        lanes + ready.count() + timers.count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bp() -> EventKind {
        EventKind::Breakpoint
    }

    /// Hooks for the simulator's tests.
    impl EventQueue {
        /// Arrivals queued on lanes behind their lane's key in the heap.
        pub(crate) fn lane_backlog(&self) -> usize {
            self.waiting
        }

        /// Arrivals on lanes: each lane's first and its backlog.
        pub(crate) fn laned_arrivals(&self) -> usize {
            self.lanes.iter().filter(|l| l.src.pending.is_some()).count() + self.waiting
        }

        /// Links whose end-of-serialization source has a key pending.
        pub(crate) fn pending_ready(&self) -> Vec<usize> {
            (0..self.ready.len()).filter(|&l| self.ready[l].pending.is_some()).collect()
        }

        /// The instant of the last arrival on `lane`, if it holds any.
        pub(crate) fn lane_tail(&self, lane: usize) -> Option<SimTime> {
            self.lanes[lane].src.due.map(|(at, _)| at)
        }

        /// Takes every lane key out of the heap, leaving the lanes as they
        /// were — a lost wake-up for the oracle to find.
        pub(crate) fn steal_lane_keys(&mut self) {
            self.heap.retain(|key| key.tag() != LANE);
        }
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
        // Saw-tooth occupancy with ties, late and never-used reserved seqs,
        // every push a kind no key can rebuild: however the run goes, the
        // payload slab holds exactly the pending events and never outgrows
        // the heap's high-water mark. (That its vacant slots all stay on the
        // free list is `Slab`'s own test.)
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
                _ => {
                    let (node, packet) = (NodeId::from_raw(1), PacketId::from_raw(step as u32));
                    q.schedule(at, EventKind::Arrive { node, packet });
                }
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
        // No lanes declared: `schedule` and `pop` need none.
        let mut q = EventQueue::default();
        assert!(q.is_empty() && q.pop().is_none() && q.peek_time().is_none());
        assert_eq!((q.peak_len(), q.last_popped_seq(), q.reserve_seq()), (0, 0, 0));
        q.schedule(SimTime::from_nanos(2), bp());
        q.schedule(SimTime::from_nanos(1), bp());
        assert_eq!(q.pop().map(|(t, _)| t.as_nanos()), Some(1));
        assert_eq!(q.last_popped_seq(), 2);
    }

    #[test]
    fn a_lane_rides_on_one_heap_key_and_drains_empty() {
        let at = SimTime::from_nanos;
        let mut q = EventQueue::with_lanes([7, 8].map(NodeId::from_raw));
        // Lane 0 carries three arrivals, two of them tied; lane 1 one; a
        // plain event ties with lane 0's head and was scheduled between.
        q.schedule_arrival(0, at(10), PacketId::from_raw(100));
        q.schedule(at(10), bp());
        q.schedule_arrival(0, at(10), PacketId::from_raw(101));
        q.schedule_arrival(1, at(20), PacketId::from_raw(102));
        q.schedule_arrival(0, at(30), PacketId::from_raw(103));
        assert_eq!((q.len(), q.heap_len(), q.waiting, q.peak_len()), (5, 3, 2, 5));
        assert_eq!((q.pending_arrivals(), q.stranded(|_| false)), (4, 0));
        assert!(q.pop_through(at(9)).is_none(), "nothing is due yet, nothing moves");
        assert_eq!((q.len(), q.last_popped_seq()), (5, 0));
        let mut order = Vec::new();
        while let Some((t, kind)) = q.pop_through(at(20)) {
            order.push(match kind {
                EventKind::Arrive { node, packet } => (t.as_nanos(), node.index(), packet.index()),
                _ => (t.as_nanos(), 0, 0),
            });
            assert_eq!(q.len() + order.len(), 5, "each pop takes exactly one event");
        }
        assert_eq!(order, [(10, 7, 100), (10, 0, 0), (10, 7, 101), (20, 8, 102)]);
        assert_eq!((q.last_popped_seq(), q.len(), q.heap_len(), q.waiting), (3, 1, 1, 0));
        assert_eq!(q.peek_time(), Some(at(30)));
        // A lane that ran dry starts over with a key of its own.
        q.schedule_arrival(1, at(25), PacketId::from_raw(104));
        assert!(matches!(q.pop(), Some((_, EventKind::Arrive { packet: PacketId(104), .. }))));
        assert!(matches!(q.pop(), Some((_, EventKind::Arrive { packet: PacketId(103), .. }))));
        assert!(q.pop().is_none() && q.is_empty());
        assert!(q
            .lanes
            .iter()
            .all(|lane| lane.src == Source::default() && lane.backlog.is_empty()));
        assert_eq!((q.waiting, q.pending_arrivals(), q.payloads.len(), q.peak_len()), (0, 0, 0, 5));
    }

    fn timer(generation: u64) -> EventKind {
        EventKind::Timer { agent: AgentId::from_raw(0), generation }
    }

    #[test]
    fn timers_wait_apart_and_pop_in_key_order() {
        let at = SimTime::from_nanos;
        let mut q = EventQueue::with_lanes([NodeId::from_raw(7)]);
        // All tied at 10 ns, so `seq` alone orders them: the lower one is in
        // the timer heap for the first pop and in the packet heap for the
        // next, then on a lane, then a timer again.
        q.schedule(at(10), timer(0));
        q.schedule(at(10), bp());
        q.schedule_arrival(0, at(10), PacketId::from_raw(100));
        q.schedule(at(10), EventKind::AuxTimer { agent: AgentId::from_raw(0), generation: 3 });
        q.schedule(at(30), timer(4));
        q.schedule(at(20), bp());
        assert_eq!((q.len(), q.heap_len(), q.timer_len(), q.peak_len()), (6, 3, 3, 6));
        assert_eq!(q.payloads.len(), 2, "the three timers ride in their keys");
        assert!(q.pop_through(at(9)).is_none(), "nothing is due yet, nothing moves");
        assert_eq!((q.len(), q.heap_len(), q.timer_len(), q.last_popped_seq()), (6, 3, 3, 0));
        let mut order = Vec::new();
        while let Some((t, kind)) = q.pop_through(at(10)) {
            assert_eq!(t, at(10));
            order.push((q.last_popped_seq(), kind.profile_key()));
        }
        let tied = ["event.timer", "event.breakpoint", "event.arrive", "event.aux_timer"];
        assert_eq!(order, [0, 1, 2, 3].map(|seq| (seq, tied[seq as usize])));
        // The deadline spared one key in each heap, whichever is the earlier.
        assert_eq!((q.len(), q.heap_len(), q.timer_len()), (2, 1, 1));
        assert_eq!(q.peek_time(), Some(at(20)));
        assert!(matches!(q.pop_through(at(25)), Some((_, EventKind::Breakpoint))));
        assert!(q.pop_through(at(25)).is_none(), "a later timer waits like a later packet");
        assert_eq!((q.len(), q.peek_time(), q.last_popped_seq()), (1, Some(at(30)), 5));
        // Only a timer is pending: the queue is not empty, and says when.
        assert!(!q.is_empty() && q.heap_len() == 0, "nothing for a packet to sift");
        assert!(matches!(q.pop(), Some((_, EventKind::Timer { generation: 4, .. }))));
        assert_eq!((q.last_popped_seq(), q.len(), q.payloads.len(), q.peak_len()), (4, 0, 0, 6));
        assert!(q.is_empty() && q.peek_time().is_none() && q.pop().is_none());
    }

    /// Draws a (which, anything) pair for `at`: see `field` below.
    const AT: (std::ops::Range<u8>, std::ops::RangeInclusive<u64>) = (0..4, 0..=u64::MAX);
    /// The same for `seq`, over the range [`Key::new`] accepts.
    const SEQ: (std::ops::Range<u8>, std::ops::RangeInclusive<u64>) = (0..4, 0..=SEQ_MAX);
    const SEQ_MAX: u64 = (1 << SEQ_BITS) - 1;
    const INDEX_MAX: u32 = (1 << INDEX_BITS) - 1;

    proptest::proptest! {
        /// One integer orders keys exactly as the `(at, seq)` tuple did,
        /// inverted for the max-heap — at the ends of both fields too.
        #[test]
        fn key_order_is_the_inverted_tuple_order(
            (a_at, a_seq) in (AT, SEQ),
            (b_at, b_seq) in (AT, SEQ),
        ) {
            // A quarter each: 0, the field's largest value, one of four small
            // values (ties), anything.
            let field = |max| move |(pick, any): (u8, u64)| [0, max, any % 4, any][pick as usize];
            let (at, seq) = (field(u64::MAX), field(SEQ_MAX));
            let key = |a, s| Key::new((SimTime::from_nanos(at(a)), seq(s)), SLOT, 0);
            let (a, b) = (key(a_at, a_seq), key(b_at, b_seq));
            proptest::prop_assert_eq!(a.cmp(&b), (b.at(), b.seq()).cmp(&(a.at(), a.seq())));
            proptest::prop_assert_eq!(a == b, a.cmp(&b) == Ordering::Equal);
        }
    }

    #[test]
    fn every_tag_round_trips_at_the_fields_limits() {
        for tag in [SLOT, LANE, LINK_READY, TIMER, AUX] {
            for (at, seq, index) in [(u64::MAX, SEQ_MAX, INDEX_MAX), (0, 0, 0)] {
                let key = Key::new((SimTime::from_nanos(at), seq), tag, index);
                assert_eq!(
                    (key.at().as_nanos(), key.seq(), key.tag(), key.index()),
                    (at, seq, tag, index)
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "seq must be below 2^40")]
    fn a_seq_past_the_key_panics() {
        Key::new((SimTime::ZERO, SEQ_MAX + 1), TIMER, 0);
    }

    #[test]
    #[should_panic(expected = "index must be below 2^21")]
    fn an_index_past_the_key_panics() {
        Key::new((SimTime::ZERO, 0), LINK_READY, INDEX_MAX + 1);
    }

    #[test]
    fn record_bytes_is_key_plus_slot() {
        assert_eq!(mem::size_of::<Key>(), 16, "what sifts");
        // The slab's free-list link rides in `EventKind`'s spare tag values.
        assert_eq!(EventQueue::record_bytes(), 16 + mem::size_of::<EventKind>());
        // ROADMAP 2(d)'s gate: no payload carries more than a handle.
        assert!(mem::size_of::<EventKind>() <= 32, "{}", mem::size_of::<EventKind>());
        assert!(EventQueue::record_bytes() <= 64, "{}", EventQueue::record_bytes());
    }
}
