//! Model-based equivalence test of the simulator's agent timers.
//!
//! The simulator keeps one pending pop per timer and re-pushes on pop if the
//! deadline moved; the reference here is the schedule it replaced — every
//! arm its own queue record, fired iff it is still the latest arm of its
//! timer when its instant comes. Scripted agents arm, re-arm (later,
//! earlier, for the same instant, for an instant already past), cancel and
//! re-arm after a cancel, on both timers, from `on_start` and from inside
//! either callback; deadlines sit on a coarse grid so agents tie on the
//! same instant all the time. The sequence of `(now, agent, timer)`
//! callbacks must be the reference's, and the oracle — lost timers
//! included — must be clean whenever the run is paused.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

use proptest::prelude::*;

use netsim::agent::{Agent, AgentCtx};
use netsim::packet::Packet;
use netsim::time::{SimDuration, SimTime};
use netsim::{FlowId, SimBuilder};

/// Deadlines are whole multiples of this.
const GRID_NS: u64 = 100_000;

const MAIN: usize = 0;
const AUX: usize = 1;

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Arm for an absolute instant, in grid units — past, present or future.
    ArmAt(usize, u64),
    /// Arm for `now` plus so many grid units; zero is the current instant.
    ArmIn(usize, u64),
    Cancel(usize),
}

impl Op {
    fn decode((code, k): (u8, u64)) -> Op {
        let timer = usize::from(code & 1);
        match code >> 1 {
            0..=2 => Op::ArmAt(timer, k),
            3..=5 => Op::ArmIn(timer, k % 6),
            6 => Op::ArmIn(timer, k),
            _ if k % 2 == 0 => Op::Cancel(timer),
            _ => Op::ArmIn(timer, 1),
        }
    }

    /// The instant an arm asks for (unclamped), or `None` for a cancel.
    fn deadline_ns(self, now_ns: u64) -> (usize, Option<u64>) {
        match self {
            Op::ArmAt(timer, k) => (timer, Some(k * GRID_NS)),
            Op::ArmIn(timer, k) => (timer, Some(now_ns + k * GRID_NS)),
            Op::Cancel(timer) => (timer, None),
        }
    }
}

/// One callback: `(now in ns, agent, timer)`.
type Fired = (u64, usize, usize);

/// One agent's script, a chunk of operations per callback. Shared by the
/// agent and the reference, so both see the same operations.
#[derive(Clone)]
struct Script {
    chunks: Vec<Vec<Op>>,
    next: usize,
    armed: [bool; 2],
}

impl Script {
    /// The operations of the callback that `fired` starts (`None`:
    /// `on_start`). A chunk that would leave nothing armed is extended by
    /// one arm, so the script runs to its end instead of dying early.
    fn next_ops(&mut self, fired: Option<usize>) -> Vec<Op> {
        if let Some(timer) = fired {
            self.armed[timer] = false;
        }
        let Some(chunk) = self.chunks.get(self.next) else { return Vec::new() };
        self.next += 1;
        let mut ops = chunk.clone();
        for op in &ops {
            let (timer, deadline) = op.deadline_ns(0);
            self.armed[timer] = deadline.is_some();
        }
        if self.armed == [false; 2] {
            ops.push(Op::ArmIn(MAIN, 1));
            self.armed[MAIN] = true;
        }
        ops
    }
}

struct Scripted {
    id: usize,
    script: Script,
    log: Rc<RefCell<Vec<Fired>>>,
}

impl Scripted {
    fn callback(&mut self, fired: Option<usize>, ctx: &mut AgentCtx<'_>) {
        if let Some(timer) = fired {
            self.log.borrow_mut().push((ctx.now.as_nanos(), self.id, timer));
        }
        for op in self.script.next_ops(fired) {
            match op.deadline_ns(ctx.now.as_nanos()) {
                (MAIN, Some(ns)) => ctx.set_timer(SimTime::from_nanos(ns)),
                (MAIN, None) => ctx.cancel_timer(),
                (_, Some(ns)) => ctx.set_aux_timer(SimTime::from_nanos(ns)),
                (_, None) => ctx.cancel_aux_timer(),
            }
        }
    }
}

impl Agent for Scripted {
    fn on_start(&mut self, ctx: &mut AgentCtx<'_>) {
        self.callback(None, ctx);
    }
    fn on_packet(&mut self, _packet: Packet, _ctx: &mut AgentCtx<'_>) {}
    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>) {
        self.callback(Some(MAIN), ctx);
    }
    fn on_aux_timer(&mut self, ctx: &mut AgentCtx<'_>) {
        self.callback(Some(AUX), ctx);
    }
}

/// One arm in the replaced schedule: `(at, seq, agent, timer, generation)`.
type Record = (u64, u64, usize, usize, u64);

/// The replaced schedule: every arm is its own record, which fires iff its
/// generation is still current when it is popped.
struct Eager {
    heap: BinaryHeap<Reverse<Record>>,
    generations: Vec<[u64; 2]>,
    scripts: Vec<Script>,
    next_seq: u64,
}

impl Eager {
    fn callback(&mut self, agent: usize, fired: Option<usize>, now_ns: u64) {
        for op in self.scripts[agent].next_ops(fired) {
            let (timer, deadline) = op.deadline_ns(now_ns);
            self.generations[agent][timer] += 1;
            if let Some(ns) = deadline {
                let generation = self.generations[agent][timer];
                self.heap.push(Reverse((ns.max(now_ns), self.next_seq, agent, timer, generation)));
                self.next_seq += 1;
            }
        }
    }

    /// Runs the scripts to `until_ns`; returns the callbacks in order and
    /// the number of records popped.
    fn run(scripts: Vec<Script>, until_ns: u64) -> (Vec<Fired>, u64) {
        let generations = vec![[0; 2]; scripts.len()];
        let mut m = Eager { heap: BinaryHeap::new(), generations, scripts, next_seq: 0 };
        for agent in 0..m.scripts.len() {
            m.callback(agent, None, 0);
        }
        let (mut fired, mut pops) = (Vec::new(), 0);
        while m.heap.peek().is_some_and(|Reverse(r)| r.0 <= until_ns) {
            let Reverse((at, _, agent, timer, generation)) = m.heap.pop().expect("peeked");
            pops += 1;
            if m.generations[agent][timer] == generation {
                fired.push((at, agent, timer));
                m.callback(agent, Some(timer), at);
            }
        }
        (fired, pops)
    }
}

proptest! {
    #[test]
    fn one_pop_per_timer_matches_the_eager_schedule(
        raw in collection::vec(
            collection::vec(collection::vec((0u8..16, 0u64..64), 1..5), 20..60),
            2..6,
        ),
        slices in collection::vec(1u64..40, 8..16),
    ) {
        let scripts: Vec<Script> = raw
            .into_iter()
            .map(|agent| Script {
                chunks: agent
                    .into_iter()
                    .map(|chunk| chunk.into_iter().map(Op::decode).collect())
                    .collect(),
                next: 0,
                armed: [false; 2],
            })
            .collect();
        let mut b = SimBuilder::new(0);
        let node = b.add_node();
        let mut sim = b.build();
        let log = Rc::new(RefCell::new(Vec::new()));
        for (id, script) in scripts.iter().enumerate() {
            let agent = Scripted { id, script: script.clone(), log: Rc::clone(&log) };
            sim.add_agent(node, FlowId::from_raw(id as u32), Box::new(agent));
        }
        let mut until_ns = 0;
        for grid_units in slices {
            // Off the grid, so a pause falls between instants as well as on one.
            until_ns += grid_units * GRID_NS - GRID_NS / 2 * (grid_units % 2);
            sim.run_until(SimTime::ZERO + SimDuration::from_nanos(until_ns));
            let violations = netsim::oracle::check(&sim.invariant_snapshot());
            prop_assert!(violations.is_empty(), "at {until_ns} ns: {violations:?}");
        }
        let (expected, eager_pops) = Eager::run(scripts, until_ns);
        prop_assert!(expected.len() > 20, "scripts died early: {} callbacks", expected.len());
        prop_assert_eq!(&*log.borrow(), &expected);
        // Never more pops than the eager schedule made.
        prop_assert!(sim.stats().events <= eager_pops);
    }
}
