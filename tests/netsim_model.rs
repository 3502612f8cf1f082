//! `netsim::Simulator` held to a one-page reference simulator.
//!
//! The reference keeps one `BinaryHeap` of whole `(time, seq, event)`
//! records, as SNIPPETS §1's executor keeps its clock and heap. A link is a
//! FIFO, a busy flag, a propagation delay and drop-tail at its limit; routes
//! are static shortest paths. Every transmission pushes the poll that ends
//! its serialization, every arm pushes its timer pop, and a pop whose timer
//! was re-armed or cancelled since is skipped: no lanes, no 16-byte keys, no
//! timer slot, no slab. A `seq` is taken where the simulator takes one — at
//! an admin action's scheduling, at a transmission (the poll's before its
//! arrival's), at each arm — so the two order ties alike.
//!
//! One seeded stream builds random topologies (2–8 nodes, 1–12 links, zero
//! delays, zero serialization times, equal-rate chains) carrying CBR sources
//! and `transport::fixed_window` flows (whose receivers may hold an ACK on a
//! timer that is cancelled, or moved earlier), with admin actions before the
//! start and between pauses, and drives both. At every pause they must agree
//! exactly on the trace so far, in order, and on every callback
//! `(now, agent, what)`; then on each link's transmissions and queue and on
//! the packets queued and in flight, with the oracle clean; at the end on
//! `SimStats` but `events`. `events` is
//! bounded: the simulator pushes no poll that finds nothing waiting and no
//! pop for a deadline moved later, so it dispatches at least the reference's
//! arrivals, admin actions, polls with a packet waiting and timer fires, and
//! at most every record the reference pops.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::rc::Rc;

use netsim::agent::{Agent, AgentCtx};
use netsim::packet::{AckEvent, DataHeader, Packet, PacketKind};
use netsim::packet::{ACK_PACKET_BYTES, DATA_PACKET_BYTES};
use netsim::trace::{TraceEventKind, TraceRecord};
use netsim::{FlowId, LinkAdmin, LinkConfig, LinkId, NodeId, SimBuilder, SimDuration, SimStats};
use netsim::{SimTime, Simulator};
use proptest::prelude::*;
use transport::fixed_window::FixedWindowSender;
use transport::{ReceiverConfig, SenderOutput, TcpReceiver, TcpSenderAlgo, TimerOp};

/// What an endpoint asks of the simulator it runs in; timer 0 is the main
/// timer, 1 the auxiliary one.
trait Ctx {
    fn now(&self) -> SimTime;
    fn send(&mut self, dst: NodeId, size: u32, kind: PacketKind);
    fn arm(&mut self, timer: usize, at: SimTime);
    fn cancel(&mut self, timer: usize);
}

impl Ctx for AgentCtx<'_> {
    fn now(&self) -> SimTime {
        self.now
    }
    fn send(&mut self, dst: NodeId, size: u32, kind: PacketKind) {
        AgentCtx::send(self, dst, size, kind);
    }
    fn arm(&mut self, timer: usize, at: SimTime) {
        [AgentCtx::set_timer, AgentCtx::set_aux_timer][timer](self, at);
    }
    fn cancel(&mut self, timer: usize) {
        [AgentCtx::cancel_timer, AgentCtx::cancel_aux_timer][timer](self);
    }
}

/// The traffic, written once and run by both simulators.
#[derive(Debug)]
enum Endpoint {
    /// One packet every `interval` from `start` on, clocked by `timer`.
    Cbr { dst: NodeId, size: u32, interval: SimDuration, timer: usize, start: SimTime, next: u64 },
    /// `FixedWindowSender` behind the host glue, from `start` on.
    Window { algo: FixedWindowSender, out: SenderOutput, dst: NodeId, start: SimTime, begun: bool },
    /// `TcpReceiver`, acknowledging every segment or, with `hold`, holding
    /// an in-order ACK on the auxiliary timer until a second segment comes.
    /// That one is acknowledged at once or, with `rearm`, held in its turn
    /// by moving the deadline to now, which orphans the pop already queued.
    Receiver {
        rx: TcpReceiver,
        hold: Option<SimDuration>,
        rearm: bool,
        held: Option<(NodeId, AckEvent)>,
    },
    /// Takes what it is given.
    Sink,
}

fn data(seq: u64, tx_count: u32, timestamp: SimTime) -> PacketKind {
    PacketKind::Data(DataHeader { seq, tx_count, timestamp })
}

impl Endpoint {
    fn start(&mut self, cx: &mut impl Ctx) {
        match *self {
            Endpoint::Cbr { start, timer, .. } if start > cx.now() => cx.arm(timer, start),
            Endpoint::Window { start, .. } if start > cx.now() => cx.arm(0, start),
            Endpoint::Cbr { timer, .. } => self.timer(timer, cx),
            Endpoint::Window { .. } => self.timer(0, cx),
            _ => {}
        }
    }

    fn timer(&mut self, timer: usize, cx: &mut impl Ctx) {
        let now = cx.now();
        match self {
            Endpoint::Cbr { dst, size, interval, next, .. } => {
                cx.send(*dst, *size, data(*next, 1, now));
                *next += 1;
                cx.arm(timer, now + *interval);
            }
            Endpoint::Window { algo, out, dst, begun, .. } => {
                if std::mem::replace(begun, true) {
                    algo.on_timer(now, out);
                } else {
                    algo.on_start(now, out);
                }
                flush(out, *dst, cx);
            }
            Endpoint::Receiver { held, .. } => {
                if let Some((dst, ack)) = held.take() {
                    cx.send(dst, ACK_PACKET_BYTES, PacketKind::Ack(ack));
                }
            }
            Endpoint::Sink => {}
        }
    }

    fn packet(&mut self, src: NodeId, kind: &PacketKind, cx: &mut impl Ctx) {
        let now = cx.now();
        match (self, kind) {
            (Endpoint::Window { algo, out, dst, begun: true, .. }, PacketKind::Ack(ack)) => {
                algo.on_ack(ack, now, out);
                flush(out, *dst, cx);
            }
            (Endpoint::Receiver { rx, hold, rearm, held }, PacketKind::Data(h)) => {
                let mut ack = rx.on_data(h.seq);
                ack.echo_timestamp = h.timestamp;
                ack.echo_tx_count = h.tx_count;
                match *hold {
                    Some(delay) if !ack.dup && held.is_none() => {
                        *held = Some((src, ack));
                        cx.arm(1, now + delay);
                    }
                    Some(_) if *rearm && held.is_some() => {
                        *held = Some((src, ack));
                        cx.arm(1, now);
                    }
                    _ => {
                        *held = None;
                        cx.send(src, ACK_PACKET_BYTES, PacketKind::Ack(ack));
                        cx.cancel(1);
                    }
                }
            }
            _ => {}
        }
    }
}

/// Sends what the sender asked for, then applies its timer request.
fn flush(out: &mut SenderOutput, dst: NodeId, cx: &mut impl Ctx) {
    let now = cx.now();
    for t in out.transmissions() {
        cx.send(dst, DATA_PACKET_BYTES, data(t.seq, 1 + u32::from(t.is_retransmit), now));
    }
    match out.timer() {
        TimerOp::Keep => {}
        TimerOp::Set(at) => cx.arm(0, at),
        TimerOp::Cancel => cx.cancel(0),
    }
    out.clear();
}

/// A callback as both simulators log it: a packet by its uid, a timer by
/// its index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Call {
    Start,
    Packet(u64),
    Timer(usize),
}

type Log = Vec<(u64, usize, Call)>;

/// An endpoint hosted by the simulator under test, logging each callback.
struct Hosted {
    id: usize,
    endpoint: Endpoint,
    log: Rc<RefCell<Log>>,
}

impl Hosted {
    fn note(&self, ctx: &AgentCtx<'_>, call: Call) {
        self.log.borrow_mut().push((ctx.now.as_nanos(), self.id, call));
    }
}

impl Agent for Hosted {
    fn on_start(&mut self, ctx: &mut AgentCtx<'_>) {
        self.note(ctx, Call::Start);
        self.endpoint.start(ctx);
    }
    fn on_packet(&mut self, p: Packet, ctx: &mut AgentCtx<'_>) {
        self.note(ctx, Call::Packet(p.uid));
        self.endpoint.packet(p.src, &p.kind, ctx);
    }
    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>) {
        self.note(ctx, Call::Timer(0));
        self.endpoint.timer(0, ctx);
    }
    fn on_aux_timer(&mut self, ctx: &mut AgentCtx<'_>) {
        self.note(ctx, Call::Timer(1));
        self.endpoint.timer(1, ctx);
    }
}

// ---------------------------------------------------------------------------
// The reference simulator.

#[derive(Clone)]
struct Pkt {
    uid: u64,
    flow: FlowId,
    src: NodeId,
    dst: NodeId,
    size: u32,
    kind: PacketKind,
    /// The agent serving `(dst, flow)`, found when the packet is sent.
    to: Option<usize>,
}

enum Ev {
    Arrive(NodeId, Pkt),
    /// The end of link `.0`'s serialization.
    Ready(usize),
    /// `(agent, timer, generation)`: fires if no arm or cancel came since.
    Timer(usize, usize, u64),
    Admin(usize, LinkAdmin),
}

/// A heap record, earliest `(at, seq)` on top; `seq` is unique.
struct Record(SimTime, u64, Ev);

impl PartialEq for Record {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Record {}
impl PartialOrd for Record {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Record {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.0, other.1).cmp(&(self.0, self.1))
    }
}

struct RefLink {
    to: NodeId,
    config: LinkConfig,
    up: bool,
    busy: bool,
    fifo: VecDeque<Pkt>,
    transmitted: u64,
}

#[derive(Default)]
struct Net {
    now: SimTime,
    next_seq: u64,
    heap: BinaryHeap<Record>,
    links: Vec<RefLink>,
    /// `next_hop[at][dst]`: the first link of `at`'s shortest path to `dst`.
    next_hop: Vec<Vec<Option<usize>>>,
    /// Each agent's `(node, flow)`.
    place: Vec<(NodeId, FlowId)>,
    generation: Vec<[u64; 2]>,
    trace: Vec<TraceRecord>,
    log: Log,
    stats: SimStats,
    next_uid: u64,
    /// Records popped, and those the simulator must dispatch too.
    popped: u64,
    dispatched: u64,
}

impl Net {
    fn push(&mut self, at: SimTime, ev: Ev) {
        self.heap.push(Record(at, self.next_seq, ev));
        self.next_seq += 1;
    }

    fn record(&mut self, p: &Pkt, kind: TraceEventKind) {
        let (seq, is_ack) = match &p.kind {
            PacketKind::Data(h) => (Some(h.seq), false),
            PacketKind::Ack(_) => (None, true),
        };
        let (at, uid, flow) = (self.now, p.uid, p.flow);
        self.trace.push(TraceRecord { at, uid, flow, seq, is_ack, kind });
    }

    fn inject(&mut self, from: usize, dst: NodeId, size: u32, kind: PacketKind) {
        let (src, flow) = self.place[from];
        let to = self.place.iter().position(|&p| p == (dst, flow));
        let p = Pkt { uid: self.next_uid, flow, src, dst, size, kind, to };
        self.next_uid += 1;
        self.stats.injected += 1;
        self.record(&p, TraceEventKind::Injected);
        self.forward(src, p);
    }

    fn forward(&mut self, node: NodeId, p: Pkt) {
        let Some(l) = self.next_hop[node.index()][p.dst.index()] else {
            self.stats.no_route_drops += 1;
            return self.record(&p, TraceEventKind::NoRoute);
        };
        let id = LinkId::from_raw(l as u32);
        let link = &self.links[l];
        if !link.up {
            self.stats.impair_drops += 1;
            self.record(&p, TraceEventKind::ImpairDrop(id));
        } else if link.fifo.len() < link.config.queue_packets {
            self.record(&p, TraceEventKind::Enqueued(id));
            self.links[l].fifo.push_back(p);
            if !self.links[l].busy {
                self.transmit(l);
            }
        } else {
            self.stats.queue_drops += 1;
            self.record(&p, TraceEventKind::QueueDrop(id));
        }
    }

    fn transmit(&mut self, l: usize) {
        let link = &mut self.links[l];
        if !link.up {
            return;
        }
        let Some(p) = link.fifo.pop_front() else { return };
        link.busy = true;
        link.transmitted += 1;
        let tx = link.config.transmission_time(p.size);
        let (arrive, to) = (self.now + tx + link.config.delay, link.to);
        self.record(&p, TraceEventKind::LinkTx(LinkId::from_raw(l as u32)));
        self.push(self.now + tx, Ev::Ready(l));
        self.push(arrive, Ev::Arrive(to, p));
    }

    fn arm(&mut self, agent: usize, timer: usize, at: SimTime) {
        self.generation[agent][timer] += 1;
        let generation = self.generation[agent][timer];
        self.push(at.max(self.now), Ev::Timer(agent, timer, generation));
    }
}

struct Cx<'a> {
    net: &'a mut Net,
    agent: usize,
}

impl Ctx for Cx<'_> {
    fn now(&self) -> SimTime {
        self.net.now
    }
    fn send(&mut self, dst: NodeId, size: u32, kind: PacketKind) {
        self.net.inject(self.agent, dst, size, kind);
    }
    fn arm(&mut self, timer: usize, at: SimTime) {
        self.net.arm(self.agent, timer, at);
    }
    fn cancel(&mut self, timer: usize) {
        self.net.generation[self.agent][timer] += 1;
    }
}

struct Reference {
    net: Net,
    endpoints: Vec<Endpoint>,
    started: bool,
}

impl Reference {
    fn run_until(&mut self, deadline: SimTime) {
        let Reference { net, endpoints, started } = self;
        if !std::mem::replace(started, true) {
            for (agent, endpoint) in endpoints.iter_mut().enumerate() {
                net.log.push((0, agent, Call::Start));
                endpoint.start(&mut Cx { net: &mut *net, agent });
            }
        }
        while net.heap.peek().is_some_and(|r| r.0 <= deadline) {
            let Record(at, _, ev) = net.heap.pop().expect("peeked");
            net.now = at;
            net.popped += 1;
            match ev {
                Ev::Arrive(node, p) if node != p.dst => net.forward(node, p),
                Ev::Arrive(node, p) => match p.to {
                    Some(agent) => {
                        net.stats.delivered += 1;
                        net.record(&p, TraceEventKind::Delivered(node));
                        net.log.push((at.as_nanos(), agent, Call::Packet(p.uid)));
                        endpoints[agent].packet(p.src, &p.kind, &mut Cx { net: &mut *net, agent });
                    }
                    None => {
                        net.stats.no_route_drops += 1;
                        net.record(&p, TraceEventKind::NoRoute);
                    }
                },
                Ev::Ready(l) => {
                    net.links[l].busy = false;
                    if net.links[l].fifo.is_empty() {
                        continue;
                    }
                    net.transmit(l);
                }
                Ev::Timer(agent, timer, generation) => {
                    if net.generation[agent][timer] != generation {
                        continue;
                    }
                    net.log.push((at.as_nanos(), agent, Call::Timer(timer)));
                    endpoints[agent].timer(timer, &mut Cx { net: &mut *net, agent });
                }
                Ev::Admin(l, action) => {
                    let link = &mut net.links[l];
                    match action {
                        LinkAdmin::Down if link.up => {
                            link.up = false;
                            net.stats.link_flaps += 1;
                        }
                        LinkAdmin::Up if !link.up => {
                            link.up = true;
                            if !link.busy {
                                net.transmit(l);
                            }
                        }
                        LinkAdmin::SetBandwidth { bps } => link.config.bandwidth_bps = bps,
                        LinkAdmin::SetDelay { delay } => link.config.delay = delay,
                        _ => {}
                    }
                }
            }
            net.dispatched += 1;
        }
        net.now = net.now.max(deadline);
    }
}

/// Per-source Dijkstra by propagation delay: the nearest unsettled node
/// first, lower index on a tie, a route replaced only by a shorter one.
fn shortest_first_links(
    nodes: usize,
    links: &[(usize, usize, LinkConfig)],
) -> Vec<Vec<Option<usize>>> {
    (0..nodes)
        .map(|src| {
            let mut dist = vec![SimDuration::MAX; nodes];
            let mut first = vec![None; nodes];
            let mut heap = BinaryHeap::from([std::cmp::Reverse((SimDuration::ZERO, src))]);
            dist[src] = SimDuration::ZERO;
            while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
                if d > dist[u] {
                    continue;
                }
                for (l, (_, v, config)) in links.iter().enumerate().filter(|(_, e)| e.0 == u) {
                    if d + config.delay < dist[*v] {
                        dist[*v] = d + config.delay;
                        first[*v] = if u == src { Some(l) } else { first[u] };
                        heap.push(std::cmp::Reverse((dist[*v], *v)));
                    }
                }
            }
            first[src] = None;
            first
        })
        .collect()
}

// ---------------------------------------------------------------------------
// The differential.

#[derive(Debug, Clone)]
enum Traffic {
    Cbr { size: u32, interval: SimDuration, timer: usize, sink: bool },
    Window { window: usize, timeout: SimDuration, hold: Option<SimDuration>, rearm: bool },
}

#[derive(Debug, Clone)]
struct Flow {
    src: usize,
    dst: usize,
    start: SimTime,
    traffic: Traffic,
}

/// An admin action: when, on which link, what.
type Admin = (SimTime, usize, LinkAdmin);

/// One case: a topology, its flows, and the run cut into pauses, each with
/// the admin actions scheduled when it begins.
#[derive(Debug, Clone)]
struct Case {
    nodes: usize,
    links: Vec<(usize, usize, LinkConfig)>,
    flows: Vec<Flow>,
    pauses: Vec<(SimTime, Vec<Admin>)>,
}

fn pick<T: Copy>(rng: &mut TestRng, from: &[T]) -> T {
    from[(0..from.len()).sample(rng)]
}

fn us(us: u64) -> SimDuration {
    SimDuration::from_micros(us)
}

/// Zero serialization (at 10^18 bit/s), or a few rates ties repeat on; a
/// zero-delay link always serializes, so no packet crosses one in no time.
fn link_config(rng: &mut TestRng) -> LinkConfig {
    let delay = pick(rng, &[0, 0, 500, 1_000, 2_000]);
    let rates = if delay == 0 { &[1e6, 8e6, 1e7][..] } else { &[1e18, 1e18, 1e6, 8e6, 1e7][..] };
    LinkConfig::new(pick(rng, rates), us(delay), pick(rng, &[1, 2, 4, 64]))
}

impl Case {
    fn draw(rng: &mut TestRng) -> Case {
        let nodes = (2..=8usize).sample(rng);
        let n_links = (1..=12usize).sample(rng);
        let mut links = Vec::new();
        if rng.next_u64() % 2 == 0 {
            // An equal-rate chain 0 – 1 – 2 …, both ways.
            let config = link_config(rng);
            for i in 0..(nodes - 1).min(n_links / 2) {
                links.push((i, i + 1, config.clone()));
                links.push((i + 1, i, config.clone()));
            }
        }
        while links.len() < n_links {
            let from = (0..nodes).sample(rng);
            let to = (from + (1..nodes).sample(rng)) % nodes;
            let config = link_config(rng);
            if links.len() + 1 < n_links && rng.next_u64() % 2 == 0 {
                links.push((to, from, config.clone()));
            }
            links.push((from, to, config));
        }
        let next_hop = shortest_first_links(nodes, &links);
        let flows = (0..(1..=4usize).sample(rng))
            .map(|_| {
                let src = (0..nodes).sample(rng);
                // Mostly to a node the source reaches, now and then to any.
                let reached: Vec<usize> =
                    (0..nodes).filter(|&d| next_hop[src][d].is_some()).collect();
                let dst = match reached.len() {
                    n if n > 0 && rng.next_u64() % 8 != 0 => reached[(0..n).sample(rng)],
                    _ => (src + (1..nodes).sample(rng)) % nodes,
                };
                let start = SimTime::ZERO + us(pick(rng, &[0, 0, 1_000, 2_500]));
                let traffic = if rng.next_u64() % 2 == 0 {
                    Traffic::Cbr {
                        size: pick(rng, &[40, 1_000]),
                        interval: us(pick(rng, &[100, 250, 1_000, 2_000])),
                        timer: (0..2usize).sample(rng),
                        sink: rng.next_u64() % 4 != 0,
                    }
                } else {
                    Traffic::Window {
                        window: (1..=8usize).sample(rng),
                        timeout: us(pick(rng, &[3_000, 10_000, 30_000])),
                        hold: pick(rng, &[None, None, Some(us(200)), Some(us(1_000))]),
                        rearm: rng.next_u64() % 2 == 0,
                    }
                };
                Flow { src, dst, start, traffic }
            })
            .collect();
        let mut until = SimTime::ZERO;
        let pauses = (0..(2..=5).sample(rng))
            .map(|_| {
                let from = until;
                until += us((1..=150u64).sample(rng) * 100);
                let admin = (0..pick(rng, &[0, 0, 1, 3]))
                    .map(|_| {
                        let at = from + us((0..=100u64).sample(rng) * 50);
                        let action = match (0..4).sample(rng) {
                            0 => LinkAdmin::Down,
                            1 => LinkAdmin::Up,
                            2 => LinkAdmin::SetDelay { delay: us(pick(rng, &[0, 100, 5_000])) },
                            _ => LinkAdmin::SetBandwidth { bps: pick(rng, &[1e6, 1e7]) },
                        };
                        (at, (0..links.len()).sample(rng), action)
                    })
                    .collect();
                (until, admin)
            })
            .collect();
        Case { nodes, links, flows, pauses }
    }

    /// Both endpoints of every flow, as `(node, flow, endpoint)`, in the
    /// order both simulators add them.
    fn endpoints(&self) -> Vec<(usize, FlowId, Endpoint)> {
        let mut out = Vec::new();
        for (i, f) in self.flows.iter().enumerate() {
            let (flow, dst) = (FlowId::from_raw(i as u32), NodeId::from_raw(f.dst as u32));
            let (sender, receiver) = match f.traffic {
                Traffic::Cbr { size, interval, timer, sink } => {
                    let cbr = Endpoint::Cbr { dst, size, interval, timer, start: f.start, next: 0 };
                    (cbr, sink.then_some(Endpoint::Sink))
                }
                Traffic::Window { window, timeout, hold, rearm } => {
                    let algo = FixedWindowSender::new(window, timeout);
                    let out = SenderOutput::new();
                    let rx = TcpReceiver::new(ReceiverConfig::default());
                    (
                        Endpoint::Window { algo, out, dst, start: f.start, begun: false },
                        Some(Endpoint::Receiver { rx, hold, rearm, held: None }),
                    )
                }
            };
            out.push((f.src, flow, sender));
            out.extend(receiver.map(|r| (f.dst, flow, r)));
        }
        out
    }

    /// Runs the case on both simulators; the first disagreement, if any.
    fn check(&self) -> Result<(), String> {
        let mut b = SimBuilder::new(0);
        let nodes = b.add_nodes(self.nodes);
        for (from, to, config) in &self.links {
            b.add_link(nodes[*from], nodes[*to], config.clone());
        }
        let mut sim = b.build();
        sim.enable_trace(&[], 1 << 22);
        let mut net =
            Net { next_hop: shortest_first_links(self.nodes, &self.links), ..Net::default() };
        for (_, to, config) in &self.links {
            let (to, config, fifo) = (nodes[*to], config.clone(), VecDeque::new());
            net.links.push(RefLink { to, config, up: true, busy: false, fifo, transmitted: 0 });
        }
        let log = Rc::new(RefCell::new(Vec::new()));
        for (id, (node, flow, endpoint)) in self.endpoints().into_iter().enumerate() {
            let log = Rc::clone(&log);
            sim.add_agent(nodes[node], flow, Box::new(Hosted { id, endpoint, log }));
            net.place.push((nodes[node], flow));
            net.generation.push([0; 2]);
        }
        let endpoints = self.endpoints().into_iter().map(|(.., e)| e).collect();
        let mut model = Reference { net, endpoints, started: false };
        for (until, admin) in &self.pauses {
            for &(at, link, action) in admin {
                let at = at.max(sim.now());
                sim.schedule_link_admin(at, LinkId::from_raw(link as u32), action);
                model.net.push(at, Ev::Admin(link, action));
            }
            sim.run_until(*until);
            model.run_until(*until);
            // The record first: where a run departs, not what it led to.
            compare_trace(&sim, &model.net.trace)?;
            if let Some(i) = first_difference(&log.borrow(), &model.net.log) {
                let (got, want) = (log.borrow().get(i).copied(), model.net.log.get(i).copied());
                return Err(format!("callback {i}: {got:?}, reference {want:?}"));
            }
            let at = until.as_nanos();
            for (l, link) in model.net.links.iter().enumerate() {
                let got = sim.link(LinkId::from_raw(l as u32));
                let (got, want) =
                    ((got.transmitted, got.queued()), (link.transmitted, link.fifo.len()));
                if got != want {
                    return Err(format!(
                        "at {at} ns, link {l} (transmitted, queued) {got:?}, reference {want:?}"
                    ));
                }
            }
            let snap = sim.invariant_snapshot();
            let queued: usize = model.net.links.iter().map(|l| l.fifo.len()).sum();
            let in_flight = model.net.heap.iter().filter(|r| matches!(r.2, Ev::Arrive(..))).count();
            if (snap.queued, snap.in_flight) != (queued as u64, in_flight as u64) {
                return Err(format!(
                    "at {at} ns, (queued, in flight) ({}, {}), reference ({queued}, {in_flight})",
                    snap.queued, snap.in_flight
                ));
            }
            let violations = netsim::oracle::check(&snap);
            if !violations.is_empty() {
                return Err(format!("at {at} ns, the oracle: {violations:?}"));
            }
        }
        let events = sim.stats().events;
        let (least, most) = (model.net.dispatched, model.net.popped);
        if !(least..=most).contains(&events) {
            return Err(format!("{events} events dispatched, reference {least} to {most}"));
        }
        let want = SimStats { events, ..model.net.stats.clone() };
        let (got, want) = (format!("{:?}", sim.stats()), format!("{want:?}"));
        if got != want {
            return Err(format!("stats {got}, reference {want}"));
        }
        Ok(())
    }
}

fn first_difference<T: PartialEq>(a: &[T], b: &[T]) -> Option<usize> {
    (0..a.len().max(b.len())).find(|&i| a.get(i) != b.get(i))
}

fn compare_trace(sim: &Simulator, want: &[TraceRecord]) -> Result<(), String> {
    assert_eq!(sim.dropped_trace_records(), 0, "the buffer holds every record");
    let row = |r: &TraceRecord| (r.at.as_nanos(), r.uid, r.flow, r.seq, r.is_ack, r.kind);
    let got: Vec<_> = sim.trace_records().iter().map(row).collect();
    let want: Vec<_> = want.iter().map(row).collect();
    match first_difference(&got, &want) {
        None => Ok(()),
        Some(i) => Err(format!(
            "trace record {i} of {}: {:?}, reference {:?}",
            want.len(),
            got.get(i),
            want.get(i)
        )),
    }
}

/// Cases run, each a fresh topology and traffic mix.
const CASES: usize = 2_000;

#[test]
fn the_simulator_matches_the_reference_record_for_record() {
    let mut rng = TestRng::for_test("netsim_model");
    for index in 0..CASES {
        let case = Case::draw(&mut rng);
        if let Err(diff) = case.check() {
            panic!("case {index}: {diff}\n{case:#?}");
        }
    }
}
