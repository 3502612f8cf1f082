//! Model-based equivalence test of `netsim::event::EventQueue`.
//!
//! The queue heaps small keys over a slab of payloads; the reference here is
//! the layout it replaced — one `BinaryHeap` of whole `(at, seq, payload)`
//! records. Random interleavings of `schedule`, `reserve_seq` with a late or
//! never-coming `schedule_reserved`, `schedule_arrival` down one of a few
//! lanes, and `pop` must be indistinguishable through the public API after
//! every step: to the model a laned arrival is one more record in the heap.
//!
//! The queue rebuilds a `LinkReady` and a timer pop whose `generation` is its
//! own `seq` from the 16-byte key alone, and keeps a slot for the rest. The
//! first property's timers carry their push id as `generation`, so they take
//! the slot; the second arms timers as `Simulator::arm_timer` does and holds
//! every field of every pop to the model.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;

use netsim::event::{EventKind, EventQueue};
use netsim::ids::{AgentId, LinkId, NodeId, PacketId};
use netsim::time::SimTime;

/// What a payload is reduced to for comparison; `u32` identifies the push.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Tag {
    Arrive(u32),
    LinkReady(u32),
    Timer(u32),
}

impl Tag {
    /// One in three pushes of each kind, so both oracle scans see a mix.
    fn new(id: u32) -> Tag {
        match id % 3 {
            0 => Tag::Arrive(id),
            1 => Tag::LinkReady(id),
            _ => Tag::Timer(id),
        }
    }

    fn event(self) -> EventKind {
        match self {
            // The tag rides in both fields, so a slot handed out twice or
            // a payload read from the wrong one would show.
            Tag::Arrive(id) => {
                EventKind::Arrive { node: NodeId::from_raw(id), packet: PacketId::from_raw(id) }
            }
            Tag::LinkReady(id) => EventKind::LinkReady { link: LinkId::from_raw(id) },
            Tag::Timer(id) => {
                EventKind::Timer { agent: AgentId::from_raw(id), generation: u64::from(id) }
            }
        }
    }

    /// `nodes[id]` is the node push `id` must arrive at if it is an `Arrive`:
    /// `id` itself through `schedule`, the lane's far end down a lane.
    fn of(kind: &EventKind, nodes: &[usize]) -> Tag {
        match kind {
            EventKind::Arrive { node, packet } => {
                assert_eq!(node.index(), nodes[packet.index()]);
                Tag::Arrive(packet.index() as u32)
            }
            EventKind::LinkReady { link } => Tag::LinkReady(link.index() as u32),
            EventKind::Timer { agent, generation } => {
                assert_eq!(*generation, agent.index() as u64);
                Tag::Timer(agent.index() as u32)
            }
            other => panic!("never scheduled: {other:?}"),
        }
    }
}

/// An event with every field, for the second property: a pop must rebuild
/// all of them, whether its key or a slot carried the event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Whole {
    Arrive { node: u32, packet: u32 },
    LinkReady(u32),
    Timer { agent: u32, generation: u64 },
    Aux { agent: u32, generation: u64 },
}

impl Whole {
    fn event(self) -> EventKind {
        match self {
            Whole::Arrive { node, packet } => EventKind::Arrive {
                node: NodeId::from_raw(node),
                packet: PacketId::from_raw(packet),
            },
            Whole::LinkReady(link) => EventKind::LinkReady { link: LinkId::from_raw(link) },
            Whole::Timer { agent, generation } => {
                EventKind::Timer { agent: AgentId::from_raw(agent), generation }
            }
            Whole::Aux { agent, generation } => {
                EventKind::AuxTimer { agent: AgentId::from_raw(agent), generation }
            }
        }
    }

    fn of(kind: &EventKind) -> Whole {
        match *kind {
            EventKind::Arrive { node, packet } => {
                Whole::Arrive { node: node.index() as u32, packet: packet.index() as u32 }
            }
            EventKind::LinkReady { link } => Whole::LinkReady(link.index() as u32),
            EventKind::Timer { agent, generation } => {
                Whole::Timer { agent: agent.index() as u32, generation }
            }
            EventKind::AuxTimer { agent, generation } => {
                Whole::Aux { agent: agent.index() as u32, generation }
            }
            ref other => panic!("never scheduled: {other:?}"),
        }
    }
}

/// The replaced layout: whole records in the heap. `seq` is unique, so the
/// derived order on the tuple is the `(at, seq)` order.
struct Model<T> {
    heap: BinaryHeap<Reverse<(u64, u64, T)>>,
    next_seq: u64,
    last_popped_seq: u64,
    peak_len: usize,
}

impl<T: Ord> Default for Model<T> {
    fn default() -> Self {
        Model { heap: BinaryHeap::new(), next_seq: 0, last_popped_seq: 0, peak_len: 0 }
    }
}

impl<T: Ord + Copy> Model<T> {
    fn reserve_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq - 1
    }

    fn schedule_reserved(&mut self, at: u64, seq: u64, tag: T) {
        self.heap.push(Reverse((at, seq, tag)));
        self.peak_len = self.peak_len.max(self.heap.len());
    }

    fn pop(&mut self) -> Option<(u64, T)> {
        let Reverse((at, seq, tag)) = self.heap.pop()?;
        self.last_popped_seq = seq;
        Some((at, tag))
    }

    fn pending(&self) -> impl Iterator<Item = T> + '_ {
        self.heap.iter().map(|Reverse((_, _, tag))| *tag)
    }
}

proptest! {
    /// Every observable of the queue equals the model's after every step.
    #[test]
    fn slab_queue_matches_whole_record_heap(
        ops in proptest::collection::vec((0u8..16, 0u64..3, 0usize..6), 400..2500),
        period in 16usize..200,
        lanes in 1usize..=6,
    ) {
        // Lane `i` delivers to a node no push id reaches.
        let far_end = |lane: usize| 1_000_000 + lane;
        let mut q = EventQueue::with_lanes((0..lanes).map(|i| NodeId::from_raw(far_end(i) as u32)));
        let mut m = Model::default();
        // Per lane, the latest instant sent down it: an earlier arrival would
        // overtake, so it goes through `schedule`, as `Simulator` routes it.
        let mut last_at = vec![0u64; lanes];
        // Per push, where it must arrive (see `Tag::of`).
        let mut nodes: Vec<usize> = Vec::new();
        // Reserved keys not yet pushed, as (at, seq); some never are.
        let mut reserved: Vec<(u64, u64)> = Vec::new();
        let mut clock = 0u64;
        let mut pushes = 0u32;
        for (i, (op, dt, lane)) in ops.into_iter().enumerate() {
            // Few distinct instants: nearly every push ties with another.
            let at = clock + dt;
            // Fill for `period` steps, drain for the next: occupancy saws
            // between empty and its peak, so every slot is reused many times.
            let pop_from = if (i / period) % 2 == 0 { 11 } else { 5 };
            match op {
                op if op >= pop_from => {
                    let got = q.pop().map(|(t, kind)| (t.as_nanos(), Tag::of(&kind, &nodes)));
                    prop_assert_eq!(got, m.pop());
                    if let Some((t, _)) = got {
                        clock = t;
                    }
                }
                0 => {
                    let seq = q.reserve_seq();
                    prop_assert_eq!(seq, m.reserve_seq());
                    reserved.push((at, seq));
                }
                // Late: other events were pushed and popped since the reserve,
                // and `at` may already lie behind the clock.
                1 | 2 if !reserved.is_empty() => {
                    let (at, seq) = reserved.swap_remove(usize::from(op) % reserved.len());
                    let tag = Tag::new(pushes);
                    nodes.push(pushes as usize);
                    pushes += 1;
                    q.schedule_reserved((SimTime::from_nanos(at), seq), tag.event());
                    m.schedule_reserved(at, seq, tag);
                }
                3..=6 => {
                    let (lane, tag) = (lane % lanes, Tag::Arrive(pushes));
                    if at >= last_at[lane] {
                        last_at[lane] = at;
                        nodes.push(far_end(lane));
                        q.schedule_arrival(lane, SimTime::from_nanos(at), PacketId::from_raw(pushes));
                    } else {
                        nodes.push(pushes as usize);
                        q.schedule(SimTime::from_nanos(at), tag.event());
                    }
                    pushes += 1;
                    let seq = m.reserve_seq();
                    m.schedule_reserved(at, seq, tag);
                }
                _ => {
                    let tag = Tag::new(pushes);
                    nodes.push(pushes as usize);
                    pushes += 1;
                    q.schedule(SimTime::from_nanos(at), tag.event());
                    let seq = m.reserve_seq();
                    m.schedule_reserved(at, seq, tag);
                }
            }
            prop_assert_eq!(q.len(), m.heap.len());
            prop_assert_eq!(q.is_empty(), m.heap.is_empty());
            prop_assert_eq!(q.peek_time().map(SimTime::as_nanos), m.heap.peek().map(|r| r.0.0));
            prop_assert_eq!(q.last_popped_seq(), m.last_popped_seq);
            prop_assert_eq!(q.peak_len(), m.peak_len);
            prop_assert_eq!(
                q.pending_arrivals(),
                m.pending().filter(|t| matches!(t, Tag::Arrive(_))).count()
            );
            prop_assert_eq!(q.stranded(|_| false), 0);
        }
        // Slots were reused, not appended: far more pushes than the peak.
        prop_assert!(pushes as usize > 3 * q.peak_len(), "{pushes} pushes, peak {}", q.peak_len());
        // Drain: the tail of the pop sequence agrees too.
        while let Some((t, kind)) = q.pop() {
            prop_assert_eq!(Some((t.as_nanos(), Tag::of(&kind, &nodes))), m.pop());
        }
        prop_assert!(m.pop().is_none());
    }
}

proptest! {
    /// Timers armed as the simulator arms them — `reserve_seq`, then
    /// `schedule_reserved` with `generation` set to that `seq`, at once or
    /// later as a deferred pop — ride in their keys; mixed with timers whose
    /// `generation` is not their `seq`, `LinkReady`s, laned and overtaking
    /// arrivals, every pop, every pending timer and every pending wake-up
    /// equals the whole-record model's, field for field.
    #[test]
    fn keyed_timers_match_whole_record_heap(
        ops in proptest::collection::vec((0u8..16, 0u64..3, 0u32..8), 400..2500),
        period in 16usize..200,
        lanes in 1usize..=6,
    ) {
        let far_end = |lane: usize| 1_000_000 + lane as u32;
        let mut q = EventQueue::with_lanes((0..lanes).map(|i| NodeId::from_raw(far_end(i))));
        let mut m = Model::<Whole>::default();
        let mut last_at = vec![0u64; lanes];
        // Keys reserved for a pop to come, as `event::Pop::Defer` and the
        // virtual `LinkReady` push them; some never are.
        let mut reserved: Vec<(u64, u64)> = Vec::new();
        let mut clock = 0u64;
        let mut pushes = 0u32;
        for (i, (op, dt, pick)) in ops.into_iter().enumerate() {
            let at = clock + dt;
            let pop_from = if (i / period) % 2 == 0 { 12 } else { 6 };
            // Four agents with both timers each; which one by `pick`.
            let timer = |generation| match pick % 2 {
                0 => Whole::Timer { agent: pick / 2, generation },
                _ => Whole::Aux { agent: pick / 2, generation },
            };
            let push = |q: &mut EventQueue, m: &mut Model<Whole>, (at, seq): (u64, u64), whole| {
                q.schedule_reserved((SimTime::from_nanos(at), seq), Whole::event(whole));
                m.schedule_reserved(at, seq, whole);
            };
            match op {
                op if op >= pop_from => {
                    let got = q.pop().map(|(t, kind)| (t.as_nanos(), Whole::of(&kind)));
                    prop_assert_eq!(got, m.pop());
                    if let Some((t, _)) = got {
                        clock = t;
                    }
                }
                // `arm_timer`: the deadline's own `seq` is its generation.
                0 | 1 => {
                    let seq = q.reserve_seq();
                    prop_assert_eq!(seq, m.reserve_seq());
                    push(&mut q, &mut m, (at, seq), timer(seq));
                }
                2 => {
                    let seq = q.reserve_seq();
                    prop_assert_eq!(seq, m.reserve_seq());
                    reserved.push((at, seq));
                }
                // A deferred pop or a virtual `LinkReady`, under a key
                // reserved earlier.
                3 if !reserved.is_empty() => {
                    let (at, seq) = reserved.swap_remove(pick as usize % reserved.len());
                    let whole = if pick < 6 { timer(seq) } else { Whole::LinkReady(pick) };
                    push(&mut q, &mut m, (at, seq), whole);
                }
                // A timer whose generation is not its `seq` keeps a slot.
                4 => {
                    let seq = q.reserve_seq();
                    prop_assert_eq!(seq, m.reserve_seq());
                    let generation = if pick == 7 { u64::MAX } else { seq + 1 + u64::from(pick) };
                    push(&mut q, &mut m, (at, seq), timer(generation));
                }
                5 => {
                    let seq = m.reserve_seq();
                    q.schedule(SimTime::from_nanos(at), Whole::LinkReady(pick).event());
                    m.schedule_reserved(at, seq, Whole::LinkReady(pick));
                }
                _ => {
                    let (lane, packet) = (pick as usize % lanes, PacketId::from_raw(pushes));
                    let seq = m.reserve_seq();
                    let whole = if at >= last_at[lane] {
                        last_at[lane] = at;
                        q.schedule_arrival(lane, SimTime::from_nanos(at), packet);
                        Whole::Arrive { node: far_end(lane), packet: pushes }
                    } else {
                        let overtaker = Whole::Arrive { node: pushes, packet: pushes };
                        q.schedule(SimTime::from_nanos(at), overtaker.event());
                        overtaker
                    };
                    m.schedule_reserved(at, seq, whole);
                    pushes += 1;
                }
            }
            prop_assert_eq!(q.len(), m.heap.len());
            prop_assert_eq!(q.peek_time().map(SimTime::as_nanos), m.heap.peek().map(|r| r.0.0));
            prop_assert_eq!(q.last_popped_seq(), m.last_popped_seq);
            prop_assert_eq!(q.peak_len(), m.peak_len);
            prop_assert_eq!(q.stranded(|_| false), 0);
        }
        while let Some((t, kind)) = q.pop() {
            prop_assert_eq!(Some((t.as_nanos(), Whole::of(&kind))), m.pop());
        }
        prop_assert!(m.pop().is_none());
    }
}
