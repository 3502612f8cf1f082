//! The simulator: topology construction, event dispatch, agent hosting.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::agent::{Agent, AgentCtx};
use crate::event::{EventKey, EventKind, EventQueue, Pop, AUX, LINK_READY, TIMER};
use crate::ids::{AgentId, FlowId, LinkId, NodeId, PacketId};
use crate::impair::{AdminEntry, Fate, ImpairPipeline, ImpairStats, LinkAdmin, StageConfig};
use crate::link::{Link, LinkConfig};
use crate::packet::{Packet, PacketKind};
use crate::queue::EnqueueOutcome;
use crate::routing::{Graph, MultipathRoute, Routing};
use crate::slab::Slab;
use crate::telemetry::SessionStats;
use crate::time::{SimDuration, SimTime};
use crate::trace::{TraceConfig, TraceEventKind, TraceMode, TraceRecord, TraceSink, Tracer};

/// Global counters kept by the simulator.
#[derive(Debug, Default, Clone, serde::Serialize)]
pub struct SimStats {
    /// Packets dropped by full queues.
    pub queue_drops: u64,
    /// Packets dropped by the random-loss process on links.
    pub random_losses: u64,
    /// Packets discarded because no route existed.
    pub no_route_drops: u64,
    /// Packets delivered to an agent.
    pub delivered: u64,
    /// Packets injected by agents.
    pub injected: u64,
    /// Events dispatched.
    pub events: u64,
    /// Packets dropped by impairment stages or administratively-down links.
    pub impair_drops: u64,
    /// Extra packet copies created by duplication impairments.
    pub impair_dups: u64,
    /// Administrative link-down transitions executed.
    pub link_flaps: u64,
    /// Events popped with an instant earlier than the current clock. Always
    /// zero in a healthy run; a non-zero count is an event-core invariant
    /// violation surfaced by [`crate::oracle::check`].
    pub time_regressions: u64,
    /// Timers an agent armed for an instant already past; each fired at
    /// the current instant instead. Zero for a well-behaved sender (a law
    /// of [`crate::oracle::check_flows`]).
    pub armed_past: u64,
}

/// Builds the static topology for a [`Simulator`].
///
/// # Examples
///
/// ```
/// use netsim::sim::SimBuilder;
/// use netsim::link::LinkConfig;
///
/// let mut b = SimBuilder::new(42);
/// let a = b.add_node();
/// let c = b.add_node();
/// b.add_duplex(a, c, LinkConfig::mbps_ms(10.0, 5, 100));
/// let sim = b.build();
/// assert_eq!(sim.node_count(), 2);
/// ```
#[derive(Debug)]
pub struct SimBuilder {
    seed: u64,
    node_count: usize,
    links: Vec<(NodeId, NodeId, LinkConfig)>,
}

impl SimBuilder {
    /// Creates a builder whose simulation draws all randomness from `seed`.
    pub fn new(seed: u64) -> Self {
        SimBuilder { seed, node_count: 0, links: Vec::new() }
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId::from_raw(self.node_count as u32);
        self.node_count += 1;
        id
    }

    /// Adds `n` nodes and returns their ids.
    pub fn add_nodes(&mut self, n: usize) -> Vec<NodeId> {
        (0..n).map(|_| self.add_node()).collect()
    }

    /// Adds a unidirectional link `from → to`.
    pub fn add_link(&mut self, from: NodeId, to: NodeId, config: LinkConfig) -> LinkId {
        let id = LinkId::from_raw(self.links.len() as u32);
        self.links.push((from, to, config));
        id
    }

    /// Adds a pair of links `a → b` and `b → a` with identical configuration.
    pub fn add_duplex(&mut self, a: NodeId, b: NodeId, config: LinkConfig) -> (LinkId, LinkId) {
        let fwd = self.add_link(a, b, config.clone());
        let rev = self.add_link(b, a, config);
        (fwd, rev)
    }

    /// Finalizes the topology, computing shortest-path routing.
    pub fn build(self) -> Simulator {
        let links: Vec<Link> =
            self.links.into_iter().map(|(from, to, cfg)| Link::new(from, to, cfg)).collect();
        let edges: Vec<(NodeId, NodeId, LinkId, SimDuration)> = links
            .iter()
            .enumerate()
            .map(|(i, l)| (l.from, l.to, LinkId::from_raw(i as u32), l.config.delay))
            .collect();
        let graph = Graph::new(self.node_count, &edges);
        let routing = Routing::shortest_path(&graph);
        Simulator {
            now: SimTime::ZERO,
            events: EventQueue::with_lanes(links.iter().map(|l| l.to)),
            packets: Slab::default(),
            node_agents: vec![Vec::new(); self.node_count],
            links,
            agents: Vec::new(),
            agent_meta: Vec::new(),
            graph,
            routing,
            rng: SmallRng::seed_from_u64(self.seed),
            seed: self.seed,
            next_uid: 0,
            stats: SimStats::default(),
            started: false,
            tracer: None,
        }
    }
}

/// Profiler keys per timer (`TIMER`, `AUX`): arm lead time, then the pops
/// that did not fire (`event.timer` / `event.aux_timer` less these two is
/// the fires).
const TIMER_KEYS: [[&str; 3]; 2] = [
    ["timer.lead_ns", "timer.deferred", "timer.stale"],
    ["aux_timer.lead_ns", "aux_timer.deferred", "aux_timer.stale"],
];

#[derive(Debug)]
struct AgentMeta {
    node: NodeId,
    flow: FlowId,
    /// The node this agent last sent to, and the agent serving its flow
    /// there (`None`: no agent does). It cannot go stale: `add_agent`
    /// refuses agents once the simulation has started, every send happens
    /// in a callback and so after the start, and no agent is ever removed.
    peer: Option<(NodeId, Option<AgentId>)>,
}

/// A deterministic packet-level discrete-event network simulator.
pub struct Simulator {
    now: SimTime,
    events: EventQueue,
    /// Every packet in the network, from `inject` until it is delivered or
    /// dropped; events and link queues hold [`PacketId`]s into it.
    packets: Slab<Packet>,
    /// Per node: the agents on it by the flow each serves, sorted by flow
    /// (one or two on most nodes; flow ids are sparse, so not a dense table).
    node_agents: Vec<Vec<(FlowId, AgentId)>>,
    links: Vec<Link>,
    agents: Vec<Option<Box<dyn Agent>>>,
    agent_meta: Vec<AgentMeta>,
    graph: Graph,
    routing: Routing,
    pub(crate) rng: SmallRng,
    /// The builder seed; impairment pipelines derive their streams from it.
    seed: u64,
    next_uid: u64,
    stats: SimStats,
    started: bool,
    tracer: Option<Tracer>,
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.now)
            .field("nodes", &self.node_agents.len())
            .field("links", &self.links.len())
            .field("agents", &self.agents.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Simulator {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of nodes in the topology.
    pub fn node_count(&self) -> usize {
        self.node_agents.len()
    }

    /// Global statistics.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// The routing graph (for path enumeration).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Installs a source-routed multipath mixture for `(src, dst)` data and
    /// returns the number of candidate paths.
    ///
    /// # Panics
    ///
    /// Panics if no path exists between the pair.
    pub fn install_multipath(
        &mut self,
        src: NodeId,
        dst: NodeId,
        epsilon: f64,
        max_hops: usize,
    ) -> usize {
        let paths = self.graph.simple_paths(src, dst, max_hops, 64);
        assert!(!paths.is_empty(), "no path from {src} to {dst}");
        let n = paths.len();
        self.routing.set_multipath(src, dst, MultipathRoute::with_epsilon(paths, epsilon));
        n
    }

    /// Schedules a routing change: at instant `at`, the `(src, dst)` pair
    /// switches to `route`. Packets already in flight keep their pinned
    /// paths — exactly how a route flap reorders traffic.
    pub fn schedule_route_install(
        &mut self,
        at: SimTime,
        src: NodeId,
        dst: NodeId,
        route: MultipathRoute,
    ) {
        self.events.schedule(at, EventKind::InstallRoute { src, dst, route: Box::new(route) });
    }

    /// Schedules pinning `(src, dst)` traffic to its `path_index`-th simple
    /// path (by ascending delay), e.g. to model a route flap between a
    /// short and a long path.
    ///
    /// # Panics
    ///
    /// Panics if the pair has fewer than `path_index + 1` simple paths
    /// within `max_hops`.
    pub fn schedule_path_pin(
        &mut self,
        at: SimTime,
        src: NodeId,
        dst: NodeId,
        path_index: usize,
        max_hops: usize,
    ) {
        let paths = self.graph.simple_paths(src, dst, max_hops, 64);
        assert!(
            path_index < paths.len(),
            "pair has only {} paths, wanted index {path_index}",
            paths.len()
        );
        let path = paths[path_index].clone();
        let route = MultipathRoute::with_weights(vec![path], &[1.0]);
        self.schedule_route_install(at, src, dst, route);
    }

    /// Enables per-packet event tracing for `flows` (empty slice = every
    /// flow), keeping at most `capacity` records. See [`crate::trace`].
    pub fn enable_trace(&mut self, flows: &[FlowId], capacity: usize) {
        self.enable_trace_with(TraceConfig::new(flows, capacity));
    }

    /// Enables tracing with full control over flow filter, buffer capacity
    /// and retention mode. See [`crate::trace`].
    pub fn enable_trace_with(&mut self, config: TraceConfig) {
        self.tracer = Some(Tracer::with_config(config));
    }

    /// Attaches a streaming trace sink; every trace record is forwarded to
    /// it as it happens, independent of the in-memory buffer cap. Enables
    /// tracing of every flow (with the default config) if not already on.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        let tracer = self
            .tracer
            .get_or_insert_with(|| Tracer::with_config(TraceConfig::new(&[], 1_000_000)));
        tracer.set_sink(sink);
    }

    /// Flushes the attached trace sink, if any. Also happens automatically
    /// when the simulator is dropped.
    pub fn flush_trace(&mut self) {
        if let Some(tracer) = &mut self.tracer {
            tracer.flush_sink();
        }
    }

    /// The buffered trace records collected so far (empty if tracing is
    /// disabled or the buffer capacity is zero).
    pub fn trace_records(&self) -> Vec<TraceRecord> {
        self.tracer.as_ref().map(Tracer::records).unwrap_or_default()
    }

    /// Trace records lost to the in-memory buffer cap (see
    /// [`Tracer::dropped_records`]). Zero when tracing is off.
    pub fn dropped_trace_records(&self) -> u64 {
        self.tracer.as_ref().map(Tracer::dropped_records).unwrap_or(0)
    }

    /// High-water mark of pending events — in either heap or queued on a
    /// link's lane behind its heap key (run-health diagnostic).
    pub fn event_heap_peak(&self) -> usize {
        self.events.peak_len()
    }

    /// This run's health so far, for an artifact's `run_health` block: one
    /// simulator, its events, the most events pending, the trace records
    /// lost and the buffer mode that lost them, and the impairment totals.
    /// The workload fields are left 0 for a population harness to fill in.
    pub fn run_health(&self) -> SessionStats {
        let impair = self.impair_totals();
        let mode = self.tracer.as_ref().map(Tracer::mode);
        SessionStats {
            sims: 1,
            events_processed: self.stats.events,
            peak_event_heap: self.events.peak_len() as u64,
            dropped_trace_records: self.dropped_trace_records(),
            traced_keep_first_sims: u64::from(mode == Some(TraceMode::KeepFirst)),
            traced_keep_latest_sims: u64::from(mode == Some(TraceMode::KeepLatest)),
            impair_drops: impair.drops(),
            impair_dups: impair.duplicates,
            impair_reorders: impair.reorder_displacements(),
            link_flaps: impair.flaps,
            ..SessionStats::default()
        }
    }

    /// High-water mark of packets in the network at once — the number of
    /// [`Packet`]-sized slots the arena grew to (memory accounting).
    pub fn packet_peak(&self) -> usize {
        self.packets.peak()
    }

    /// Captures the packet-accounting state the invariant oracle checks
    /// (see [`crate::oracle`]): every terminal counter plus the packets
    /// still parked in link queues or in flight on the wire. Valid at any
    /// point the simulator is not mid-dispatch — i.e. whenever the caller
    /// can invoke it.
    pub fn invariant_snapshot(&self) -> crate::oracle::Snapshot {
        let waiting = |l: usize| self.links[l].up && self.links[l].queued() > 0;
        crate::oracle::Snapshot {
            injected: self.stats.injected,
            duplicated: self.stats.impair_dups,
            delivered: self.stats.delivered,
            no_route_drops: self.stats.no_route_drops,
            queue_drops: self.stats.queue_drops,
            random_losses: self.stats.random_losses,
            impair_drops: self.stats.impair_drops,
            queued: self.links.iter().map(|l| l.queued() as u64).sum(),
            in_flight: self.events.pending_arrivals() as u64,
            live_packets: self.packets.len() as u64,
            time_regressions: self.stats.time_regressions,
            armed_past: self.stats.armed_past,
            stranded: self.events.stranded(waiting) as u64,
        }
    }

    fn trace_packet(&mut self, id: PacketId, kind: TraceEventKind) {
        let Some(tracer) = &mut self.tracer else { return };
        let packet = self.packets.get(id.0);
        if !tracer.wants(packet.flow) {
            return;
        }
        let (seq, is_ack) = match &packet.kind {
            PacketKind::Data(h) => (Some(h.seq), false),
            PacketKind::Ack(_) => (None, true),
        };
        tracer.record(TraceRecord {
            at: self.now,
            uid: packet.uid,
            flow: packet.flow,
            seq,
            is_ack,
            kind,
        });
    }

    /// Traces the event that ends a packet's life short of delivery, and
    /// frees its arena slot.
    fn drop_packet(&mut self, id: PacketId, kind: TraceEventKind) {
        self.trace_packet(id, kind);
        self.packets.remove(id.0);
    }

    /// Installs (or replaces) the impairment pipeline on `id`. The
    /// pipeline's RNG stream is derived from the simulation seed and the
    /// link index (see [`crate::impair::derive_seed`]), so it is
    /// independent of every other random decision in the run. An empty
    /// `stages` slice removes the pipeline.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or a stage config is invalid.
    pub fn set_link_impairments(&mut self, id: LinkId, stages: &[StageConfig]) {
        let seed = crate::impair::derive_seed(self.seed, id.index() as u32);
        self.links[id.index()].impair =
            if stages.is_empty() { None } else { Some(ImpairPipeline::new(stages, seed)) };
    }

    /// Schedules one administrative link action (up/down, bandwidth or
    /// delay change) at instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn schedule_link_admin(&mut self, at: SimTime, link: LinkId, action: LinkAdmin) {
        assert!(link.index() < self.links.len(), "unknown link {link}");
        self.events.schedule(at, EventKind::LinkAdmin { link, action });
    }

    /// Schedules a whole admin timeline on `link` — typically built with
    /// [`crate::impair::flap_schedule`] or the oscillation generators.
    pub fn apply_admin_schedule(&mut self, link: LinkId, entries: &[AdminEntry]) {
        for e in entries {
            self.schedule_link_admin(e.at, link, e.action);
        }
    }

    /// Impairment counters aggregated across every link.
    pub fn impair_totals(&self) -> ImpairStats {
        let mut total = ImpairStats::default();
        for l in &self.links {
            total.merge(&l.impair_stats);
        }
        total
    }

    /// Read access to a link (e.g. for per-link drop counts).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Attaches `agent` to `node`, serving `flow`. Packets addressed to
    /// `(node, flow)` will be delivered to it.
    ///
    /// # Panics
    ///
    /// Panics if another agent already serves `flow` at `node`, or if the
    /// simulation has already started.
    pub fn add_agent(&mut self, node: NodeId, flow: FlowId, agent: Box<dyn Agent>) -> AgentId {
        // The table is fixed from the start on, so the agent a sender
        // resolved for a destination (`AgentMeta::peer`) stays the one.
        assert!(!self.started, "agents must be added before the simulation starts");
        let id = AgentId::from_raw(self.agents.len() as u32);
        let served = &mut self.node_agents[node.index()];
        match served.binary_search_by_key(&flow, |&(f, _)| f) {
            Ok(_) => panic!("flow {flow} already has an agent at {node}"),
            Err(at) => served.insert(at, (flow, id)),
        }
        self.agents.push(Some(agent));
        self.agent_meta.push(AgentMeta { node, flow, peer: None });
        id
    }

    /// Immutable access to an agent; its statistics are read on its
    /// concrete type, through `sim.agent(id).as_any().downcast_ref::<A>()`.
    pub fn agent(&self, id: AgentId) -> &dyn Agent {
        self.agents[id.index()].as_deref().expect("agent is not re-entrantly borrowed")
    }

    /// Starts the simulation: invokes every agent's `on_start` at time zero.
    /// Called automatically by the `run_*` methods if needed.
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.agents.len() {
            self.call_agent(AgentId::from_raw(i as u32), |agent, ctx| agent.on_start(ctx));
        }
    }

    /// Runs until the event at or before `deadline` has been processed, then
    /// sets the clock to `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.start();
        while let Some((at, kind)) = self.events.pop_through(deadline) {
            self.step(at, kind);
        }
        if deadline > self.now {
            self.now = deadline;
        }
    }

    /// Runs for `d` beyond the current clock.
    pub fn run_for(&mut self, d: SimDuration) {
        self.run_until(self.now + d);
    }

    /// Runs until no events remain (natural quiescence). Returns the final
    /// clock value.
    ///
    /// Use with care: long-lived senders reschedule timers forever; prefer
    /// [`Simulator::run_until`] for such workloads.
    pub fn run_to_quiescence(&mut self) -> SimTime {
        self.start();
        while let Some((at, kind)) = self.events.pop() {
            self.step(at, kind);
        }
        self.now
    }

    /// Advances the clock to a popped event and dispatches it. Time must not
    /// go backwards: a regression is counted instead of panicking, so the
    /// invariant oracle can report it (and the adversary can hunt for it),
    /// and the clock clamps at its current value. With the profiler on, it
    /// reports a per-kind counter, the pending events and how many of them
    /// the packet heap and the timer heap hold (sim-deterministic), and the
    /// wall-clock cost of the dispatch (non-deterministic section); off, it
    /// costs one relaxed atomic load.
    fn step(&mut self, at: SimTime, kind: EventKind) {
        if at < self.now {
            self.stats.time_regressions += 1;
        } else {
            self.now = at;
        }
        self.stats.events += 1;
        if obs::enabled() {
            obs::count(kind.profile_key(), 1);
            obs::observe("event.pending", self.events.len() as u64);
            obs::observe("event.heap_depth", self.events.heap_len() as u64);
            obs::observe("event.timer_depth", self.events.timer_len() as u64);
            let t0 = std::time::Instant::now();
            self.dispatch(kind);
            obs::observe_wall("event.dispatch_ns", t0.elapsed().as_nanos() as u64);
        } else {
            self.dispatch(kind);
        }
    }

    fn dispatch(&mut self, kind: EventKind) {
        match kind {
            EventKind::Arrive { node, packet } => {
                let p = self.packets.get_mut(packet.0);
                p.hops += 1;
                if p.dst == node {
                    let to = p.to;
                    self.deliver(node, packet, to);
                } else {
                    self.forward(node, packet);
                }
            }
            EventKind::LinkReady { link } => {
                let fired = self.events.advance(LINK_READY, link.0, self.cursor());
                debug_assert_eq!(fired, Pop::Fire, "a link's poll is never orphaned");
                self.links[link.index()].tx_end = None;
                self.link_try_transmit(link);
            }
            EventKind::Timer { agent, .. } => self.timer_pop(agent, TIMER),
            EventKind::AuxTimer { agent, .. } => self.timer_pop(agent, AUX),
            EventKind::InstallRoute { src, dst, route } => {
                self.routing.set_multipath(src, dst, *route);
            }
            EventKind::LinkAdmin { link, action } => {
                self.link_admin(link, action);
            }
            EventKind::Breakpoint => {}
        }
    }

    /// Hands packet `id`, arrived at its destination `node`, to the agent
    /// `inject` resolved for it.
    fn deliver(&mut self, node: NodeId, id: PacketId, to: Option<AgentId>) {
        match to {
            Some(agent) => {
                self.stats.delivered += 1;
                self.trace_packet(id, TraceEventKind::Delivered(node));
                let packet = self.packets.remove(id.0);
                self.call_agent(agent, |agent, ctx| agent.on_packet(packet, ctx));
            }
            None => {
                self.stats.no_route_drops += 1;
                self.drop_packet(id, TraceEventKind::NoRoute);
            }
        }
    }

    fn forward(&mut self, node: NodeId, id: PacketId) {
        let packet = self.packets.get(id.0);
        let link = match packet.route {
            Some(route) => self.routing.route(route).get(packet.hops as usize).copied(),
            None => self.routing.next_hop(node, packet.dst),
        };
        match link {
            Some(l) => {
                debug_assert_eq!(
                    self.links[l.index()].from,
                    node,
                    "route step must depart from the current node"
                );
                self.enqueue_on_link(l, id);
            }
            None => {
                self.stats.no_route_drops += 1;
                self.drop_packet(id, TraceEventKind::NoRoute);
            }
        }
    }

    /// Applies one administrative action to a link. Down links drop
    /// arriving packets but keep their queue; the in-flight packet (if
    /// any) completes its serialization. `Up` restarts service.
    fn link_admin(&mut self, id: LinkId, action: LinkAdmin) {
        let now_ns = self.now.as_nanos();
        let cursor = self.cursor();
        let link = &mut self.links[id.index()];
        let free = link.settle(cursor);
        match action {
            LinkAdmin::Down => {
                if link.up {
                    link.up = false;
                    link.impair_stats.flaps += 1;
                    self.stats.link_flaps += 1;
                    obs::count("link.flap", 1);
                    obs::span(now_ns, "admin.down", || format!("link={}", id.index()));
                }
            }
            LinkAdmin::Up => {
                if !link.up {
                    link.up = true;
                    obs::span(now_ns, "admin.up", || format!("link={}", id.index()));
                    if free && link.queued() > 0 {
                        self.link_try_transmit(id);
                    }
                }
            }
            LinkAdmin::SetBandwidth { bps } => {
                assert!(bps > 0.0, "bandwidth must be positive");
                link.config.bandwidth_bps = bps;
                obs::span(now_ns, "admin.set_bandwidth", || {
                    format!("link={} bps={bps}", id.index())
                });
            }
            LinkAdmin::SetDelay { delay } => {
                link.config.delay = delay;
                obs::span(now_ns, "admin.set_delay", || {
                    format!("link={} delay_ns={}", id.index(), delay.as_nanos())
                });
            }
        }
    }

    fn enqueue_on_link(&mut self, id: LinkId, packet: PacketId) {
        if !self.links[id.index()].up {
            self.links[id.index()].impair_stats.down_drops += 1;
            self.stats.impair_drops += 1;
            obs::count("impair.down_drop", 1);
            self.drop_packet(packet, TraceEventKind::ImpairDrop(id));
            return;
        }
        let loss = self.links[id.index()].config.random_loss;
        if loss > 0.0 && self.rng.gen::<f64>() < loss {
            self.stats.random_losses += 1;
            obs::count("link.random_loss", 1);
            self.drop_packet(packet, TraceEventKind::RandomLoss(id));
            return;
        }
        // DiffServ classification: per-packet random marking.
        let use_high = match self.links[id.index()].config.diffserv {
            Some(ds) => self.rng.gen::<f64>() < ds.high_prob,
            None => false,
        };
        let uniform = self.rng.gen::<f64>();
        let cursor = self.cursor();
        let link = &mut self.links[id.index()];
        let free = link.settle(cursor);
        let queue =
            if use_high { link.queue_high.as_mut().expect("high queue") } else { &mut link.queue };
        match queue.enqueue(packet, uniform) {
            EnqueueOutcome::Enqueued => {
                self.trace_packet(packet, TraceEventKind::Enqueued(id));
                if free {
                    self.link_try_transmit(id);
                } else if self.links[id.index()].queued() == 1 {
                    // First to wait behind a serialization: wake-up needed.
                    self.schedule_link_ready(id);
                }
            }
            EnqueueOutcome::Dropped => {
                self.stats.queue_drops += 1;
                self.drop_packet(packet, TraceEventKind::QueueDrop(id));
            }
        }
    }

    /// Where dispatch stands in the event order. Anything keyed strictly
    /// below has been dispatched — or would have been, had it been pushed.
    fn cursor(&self) -> EventKey {
        (self.now, self.events.last_popped_seq())
    }

    /// Makes the end of the serialization in progress on `id` due on the
    /// link's source under its reserved key — only once a packet waits.
    fn schedule_link_ready(&mut self, id: LinkId) {
        let end = self.links[id.index()].tx_end.expect("a serialization is in progress");
        self.events.arm(LINK_READY, id.0, end);
    }

    fn link_try_transmit(&mut self, id: LinkId) {
        let link = &mut self.links[id.index()];
        debug_assert!(link.tx_end.is_none());
        if !link.up {
            return;
        }
        let Some(packet) = link.dequeue_next() else { return };
        self.trace_packet(packet, TraceEventKind::LinkTx(id));
        let size_bytes = self.packets.get(packet.0).size_bytes;
        let link = &mut self.links[id.index()];
        let tx = link.tx_time(size_bytes);
        let delay = link.config.delay;
        let jitter = link.config.jitter;
        link.transmitted += 1;
        // The impairment pipeline sits between the queue and propagation:
        // the packet has paid its serialization time either way, so an
        // impairment drop is wire loss, not a shorter serialization.
        let Link { impair, impair_stats, .. } = link;
        let fate = match impair.as_mut() {
            Some(pipe) => pipe.process(tx, impair_stats),
            None => Fate::Deliver { extra_delay: SimDuration::ZERO, duplicate: false },
        };
        // The poll takes its place in the event order here, pushed or not.
        link.tx_end = Some((self.now + tx, self.events.reserve_seq()));
        match fate {
            Fate::Dropped => {
                self.stats.impair_drops += 1;
                self.drop_packet(packet, TraceEventKind::ImpairDrop(id));
            }
            Fate::Deliver { extra_delay, duplicate } => {
                let mut arrival = self.now + tx + delay + extra_delay;
                if let Some(j) = jitter {
                    if j.prob > 0.0 && self.rng.gen::<f64>() < j.prob {
                        let extra = j.max_extra * self.rng.gen::<f64>();
                        arrival += extra;
                    }
                }
                self.events.schedule_arrival(id.index(), arrival, packet);
                if duplicate {
                    self.stats.impair_dups += 1;
                    self.trace_packet(packet, TraceEventKind::Duplicated(id));
                    let copy = self.packets.get(packet.0).clone();
                    let copy = PacketId(self.packets.insert(copy));
                    // The copy trails the original by one transmission time.
                    self.events.schedule_arrival(id.index(), arrival + tx, copy);
                }
            }
        }
        if self.links[id.index()].queued() > 0 {
            self.schedule_link_ready(id);
        }
    }

    /// Runs one callback of agent `id`, which is out of `agents` for the
    /// call: the context lends it the whole simulator, and what it sends or
    /// arms happens as it asks.
    fn call_agent(&mut self, id: AgentId, call: impl FnOnce(&mut dyn Agent, &mut AgentCtx<'_>)) {
        let mut agent = self.agents[id.index()].take().expect("agent call must not re-enter");
        let meta = &self.agent_meta[id.index()];
        let (node, flow) = (meta.node, meta.flow);
        // Flow-scope the obs span stream for the duration of the callback:
        // any span emitted inside the agent (CC state machines, pacer) is
        // attributed to this flow without plumbing identity through the
        // sender traits. Callbacks are synchronous, so set/clear brackets
        // the emission window exactly.
        if obs::enabled() {
            obs::set_current_flow(Some(flow.index() as u64));
        }
        let mut ctx = AgentCtx { now: self.now, agent_id: id, node, flow, sim: self };
        call(agent.as_mut(), &mut ctx);
        self.agents[id.index()] = Some(agent);
        if obs::enabled() {
            obs::set_current_flow(None);
        }
    }

    /// Disarms agent `agent`'s `TIMER` or `AUX` timer.
    pub(crate) fn cancel_timer(&mut self, agent: AgentId, timer: u32) {
        self.events.disarm(timer, agent.0);
    }

    /// Arms agent `agent`'s `TIMER` or `AUX` timer for `at`, or for now if
    /// `at` is past. The deadline takes its place in the event order here.
    pub(crate) fn arm_timer(&mut self, agent: AgentId, timer: u32, at: SimTime) {
        if at < self.now {
            self.stats.armed_past += 1;
            obs::count("timer.armed_past", 1);
        }
        let fire_at = at.max(self.now);
        let lead_ns = fire_at.saturating_since(self.now).as_nanos();
        obs::observe(TIMER_KEYS[(timer - TIMER) as usize][0], lead_ns);
        let key = (fire_at, self.events.reserve_seq());
        self.events.arm(timer, agent.0, key);
    }

    fn timer_pop(&mut self, agent: AgentId, timer: u32) {
        let [_, deferred, stale] = TIMER_KEYS[(timer - TIMER) as usize];
        match self.events.advance(timer, agent.0, self.cursor()) {
            Pop::Fire if timer == TIMER => self.call_agent(agent, |a, ctx| a.on_timer(ctx)),
            Pop::Fire => self.call_agent(agent, |a, ctx| a.on_aux_timer(ctx)),
            Pop::Defer => obs::count(deferred, 1),
            Pop::Stale => obs::count(stale, 1),
        }
    }

    /// Injects a packet from agent `from`'s node, addressed to `dst` on
    /// `from`'s flow, naming the agent it is for.
    ///
    /// # Panics
    ///
    /// Panics, before anything is counted, if `dst` is `from`'s own node:
    /// the packet would be for `from`, whose callback is running.
    pub(crate) fn inject(&mut self, from: AgentId, dst: NodeId, size_bytes: u32, kind: PacketKind) {
        let to = self.resolve(from, dst);
        assert!(to != Some(from), "agent {from} sent a packet to its own node {dst}");
        let AgentMeta { node: src, flow, .. } = self.agent_meta[from.index()];
        let uid = self.next_uid;
        self.next_uid += 1;
        self.stats.injected += 1;
        let rng = &mut self.rng;
        let route = self.routing.pick_route(src, dst, || rng.gen::<f64>());
        let packet = Packet { uid, flow, src, dst, size_bytes, kind, to, hops: 0, route };
        let packet = PacketId(self.packets.insert(packet));
        self.trace_packet(packet, TraceEventKind::Injected);
        self.forward(src, packet);
    }

    /// The agent serving `dst` on `from`'s flow: `from`'s last answer if it
    /// sent to `dst` last time, else one search of `dst`'s table. A node
    /// out of range has no agents, and the packet no route.
    fn resolve(&mut self, from: AgentId, dst: NodeId) -> Option<AgentId> {
        let meta = &mut self.agent_meta[from.index()];
        if let Some((last, to)) = meta.peer {
            if last == dst {
                return to;
            }
        }
        obs::count("agent.lookups", 1);
        let to = self.node_agents.get(dst.index()).and_then(|served| {
            let at = served.binary_search_by_key(&meta.flow, |&(f, _)| f).ok()?;
            Some(served[at].1)
        });
        meta.peer = Some((dst, to));
        to
    }
}

impl Drop for Simulator {
    fn drop(&mut self) {
        self.flush_trace();
        if obs::enabled() {
            obs::count("sim.completed", 1);
            obs::gauge_max("event.heap_peak", self.events.peak_len() as u64);
            obs::gauge_max("packet.live_peak", self.packets.peak() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Source;
    use crate::ids::RouteId;
    use crate::packet::{AckEvent, DataHeader, DATA_PACKET_BYTES};

    /// Sends `count` data packets at start, records ACK arrivals.
    struct Blaster {
        dst: NodeId,
        count: u64,
        acked: Vec<(u64, SimTime)>,
    }

    impl Agent for Blaster {
        fn on_start(&mut self, ctx: &mut AgentCtx<'_>) {
            for seq in 0..self.count {
                ctx.send(
                    self.dst,
                    DATA_PACKET_BYTES,
                    PacketKind::Data(DataHeader { seq, tx_count: 1, timestamp: ctx.now }),
                );
            }
        }
        fn on_packet(&mut self, packet: Packet, ctx: &mut AgentCtx<'_>) {
            if let PacketKind::Ack(h) = packet.kind {
                self.acked.push((h.cum_ack, ctx.now));
            }
        }
        fn on_timer(&mut self, _ctx: &mut AgentCtx<'_>) {}
    }

    /// Echoes every data packet with an ACK carrying seq+1.
    struct Echo {
        peer: NodeId,
        received: Vec<u64>,
    }

    impl Agent for Echo {
        fn on_start(&mut self, _ctx: &mut AgentCtx<'_>) {}
        fn on_packet(&mut self, packet: Packet, ctx: &mut AgentCtx<'_>) {
            if let PacketKind::Data(h) = &packet.kind {
                self.received.push(h.seq);
                ctx.send(
                    self.peer,
                    40,
                    PacketKind::Ack(AckEvent {
                        cum_ack: h.seq + 1,
                        sack: Vec::new(),
                        dsack: None,
                        echo_timestamp: h.timestamp,
                        echo_tx_count: h.tx_count,
                        dup: false,
                    }),
                );
            }
        }
        fn on_timer(&mut self, _ctx: &mut AgentCtx<'_>) {}
    }

    fn two_node_sim(seed: u64) -> (Simulator, AgentId, AgentId, NodeId, NodeId) {
        let mut b = SimBuilder::new(seed);
        let a = b.add_node();
        let c = b.add_node();
        b.add_duplex(a, c, LinkConfig::mbps_ms(10.0, 10, 100));
        let mut sim = b.build();
        let flow = FlowId::from_raw(0);
        let tx = sim.add_agent(a, flow, Box::new(Blaster { dst: c, count: 5, acked: Vec::new() }));
        let rx = sim.add_agent(c, flow, Box::new(Echo { peer: a, received: Vec::new() }));
        (sim, tx, rx, a, c)
    }

    /// Sends one data packet at each instant of `at` (ascending; zero means
    /// from `on_start`), arming the timer for the next one *after* sending.
    struct SendAt {
        dst: NodeId,
        at: Vec<SimTime>,
        next: usize,
        size_bytes: u32,
    }

    impl SendAt {
        fn boxed(dst: NodeId, at_us: &[u64]) -> Box<Self> {
            let at = at_us.iter().map(|&us| SimTime::from_nanos(us * 1_000)).collect();
            Box::new(SendAt { dst, at, next: 0, size_bytes: DATA_PACKET_BYTES })
        }

        fn step(&mut self, ctx: &mut AgentCtx<'_>) {
            while self.at.get(self.next).is_some_and(|&t| t <= ctx.now) {
                let seq = self.next as u64;
                self.next += 1;
                ctx.send(
                    self.dst,
                    self.size_bytes,
                    PacketKind::Data(DataHeader { seq, tx_count: 1, timestamp: ctx.now }),
                );
            }
            if let Some(&t) = self.at.get(self.next) {
                ctx.set_timer(t);
            }
        }
    }

    impl Agent for SendAt {
        fn on_start(&mut self, ctx: &mut AgentCtx<'_>) {
            self.step(ctx);
        }
        fn on_packet(&mut self, _p: Packet, _ctx: &mut AgentCtx<'_>) {}
        fn on_timer(&mut self, ctx: &mut AgentCtx<'_>) {
            self.step(ctx);
        }
    }

    /// Links whose end of serialization has a key pending.
    fn woken(sim: &Simulator) -> Vec<LinkId> {
        sim.events.pending_ready().into_iter().map(|l| LinkId::from_raw(l as u32)).collect()
    }

    /// One 10 Mbit/s link `a → c`: a 1000-byte packet serializes in 800 µs.
    fn one_link_sim(config: LinkConfig) -> (Simulator, NodeId, NodeId) {
        let mut b = SimBuilder::new(1);
        let a = b.add_node();
        let c = b.add_node();
        b.add_link(a, c, config);
        (b.build(), a, c)
    }

    const TX_END: SimTime = SimTime::from_nanos(800_000);

    fn violations(sim: &Simulator) -> Vec<crate::oracle::Violation> {
        crate::oracle::check(&sim.invariant_snapshot())
    }

    #[test]
    fn send_ordered_after_the_reserved_poll_finds_the_link_free() {
        let (mut sim, a, c) = one_link_sim(LinkConfig::mbps_ms(10.0, 10, 100));
        // The timer for 800 µs is armed after the first send, so it draws a
        // later `seq` than the poll that send reserved: poll first, then send.
        sim.add_agent(a, FlowId::from_raw(0), SendAt::boxed(c, &[0, 800]));
        sim.run_until(SimTime::from_nanos(799_999));
        assert_eq!(sim.links[0].tx_end, Some((TX_END, 0)), "key reserved at the first transmit");
        assert!(woken(&sim).is_empty(), "nothing waits, nothing is pushed");
        sim.run_until(TX_END);
        assert_eq!(sim.links[0].transmitted, 2, "second packet went straight to the wire");
        assert_eq!(sim.stats.events, 1, "the timer alone: no LinkReady was dispatched");
        assert!(woken(&sim).is_empty());
    }

    #[test]
    fn send_ordered_before_the_reserved_poll_waits_for_it() {
        let (mut sim, a, c) = one_link_sim(LinkConfig::mbps_ms(10.0, 10, 100));
        // The first agent arms its 800 µs timer in `on_start`, before the
        // second agent's send reserves the poll: same instant, send first.
        sim.add_agent(a, FlowId::from_raw(0), SendAt::boxed(c, &[800]));
        sim.add_agent(a, FlowId::from_raw(1), SendAt::boxed(c, &[0]));
        sim.run_until(SimTime::from_nanos(799_999));
        assert_eq!(sim.links[0].tx_end, Some((TX_END, 1)));
        assert!(woken(&sim).is_empty());
        sim.run_until(TX_END);
        assert_eq!(sim.links[0].transmitted, 2);
        assert_eq!(sim.stats.events, 2, "the timer, then the poll its packet had pushed");
        assert_eq!(violations(&sim), Vec::new());
    }

    #[test]
    fn zero_transmission_time_keeps_fifo_order_and_instants() {
        let mut b = SimBuilder::new(1);
        let a = b.add_node();
        let c = b.add_node();
        let instant = LinkConfig::new(1e18, SimDuration::from_millis(10), 100);
        assert_eq!(instant.transmission_time(DATA_PACKET_BYTES), SimDuration::ZERO);
        b.add_duplex(a, c, instant);
        let mut sim = b.build();
        let flow = FlowId::from_raw(0);
        let tx = sim.add_agent(a, flow, Box::new(Blaster { dst: c, count: 5, acked: Vec::new() }));
        let rx = sim.add_agent(c, flow, Box::new(Echo { peer: a, received: Vec::new() }));
        sim.start();
        // A serialization that ends "now" is still not over for the event
        // that started it: the other four packets wait for its poll.
        assert_eq!((sim.links[0].transmitted, sim.links[0].queued()), (1, 4));
        sim.run_until(SimTime::from_secs_f64(0.1));
        assert_eq!(
            sim.agent(rx).as_any().downcast_ref::<Echo>().unwrap().received,
            [0, 1, 2, 3, 4]
        );
        let acked = &sim.agent(tx).as_any().downcast_ref::<Blaster>().unwrap().acked;
        let rtt = SimTime::from_nanos(20_000_000);
        assert_eq!(*acked, [(1, rtt), (2, rtt), (3, rtt), (4, rtt), (5, rtt)]);
        // Ten arrivals and, per direction, four polls with a packet waiting;
        // the fifth found nothing and was never pushed.
        assert_eq!(sim.stats.events, 18);
    }

    #[test]
    fn link_up_before_or_after_an_elided_poll_sees_the_poll_it_would_have() {
        // A lone packet at t = 0 (its 800 µs poll is elided), the link taken
        // down at 100 µs, a second packet at 2 ms. Whether the poll ran on
        // an up link — and so advanced the WRR credit — depends on where
        // `Up` falls relative to it, down to the tie-break at 800 µs.
        let wrr = crate::link::DiffservScheduler::WeightedRoundRobin { hi: 5, lo: 5 };
        let credit_after = |up_at_us: u64, scheduled_mid_run: bool| {
            let config = LinkConfig::mbps_ms(10.0, 10, 100).with_diffserv(0.5, wrr);
            let (mut sim, a, c) = one_link_sim(config);
            sim.add_agent(a, FlowId::from_raw(0), SendAt::boxed(c, &[0, 2_000]));
            let link = LinkId::from_raw(0);
            let up_at = SimTime::from_nanos(up_at_us * 1_000);
            sim.schedule_link_admin(SimTime::from_nanos(100_000), link, LinkAdmin::Down);
            if scheduled_mid_run {
                sim.run_until(SimTime::from_nanos(400_000));
            }
            sim.schedule_link_admin(up_at, link, LinkAdmin::Up);
            sim.run_until(SimTime::from_secs_f64(0.1));
            assert_eq!(sim.links[0].transmitted, 2);
            assert_eq!(sim.stats.events, 5, "timer, down, up, two arrivals — no LinkReady");
            sim.links[0].wrr_credit
        };
        // Two transmissions advance the credit twice; the poll adds a third
        // only if the link was up again by then.
        assert_eq!(credit_after(500, false), 3, "up before the poll");
        assert_eq!(credit_after(1_000, false), 2, "up after the poll");
        assert_eq!(credit_after(800, false), 3, "same instant, Up scheduled first");
        assert_eq!(credit_after(800, true), 2, "same instant, Up scheduled behind the poll");
    }

    #[test]
    fn packets_sent_from_on_start_queue_behind_the_first() {
        let (mut sim, _, rx, _, _) = two_node_sim(1);
        sim.start();
        // Nothing has been popped, so the serialization begun inside
        // `on_start` cannot look finished to the sends that follow it.
        assert_eq!((sim.links[0].transmitted, sim.links[0].queued()), (1, 4));
        assert_eq!(sim.links[0].tx_end, Some((TX_END, 0)));
        assert_eq!(woken(&sim), vec![LinkId::from_raw(0)]);
        assert_eq!(violations(&sim), Vec::new());
        sim.run_until(SimTime::from_secs_f64(1.0));
        assert_eq!(sim.agent(rx).as_any().downcast_ref::<Echo>().unwrap().received.len(), 5);
        // Ten arrivals and the four polls that had a packet waiting; the
        // fifth, and all five on the ACK path, were never pushed.
        assert_eq!(sim.stats.events, 14);
    }

    #[test]
    fn oracle_reports_a_lost_wake_up() {
        let (mut sim, _, _, _, _) = two_node_sim(1);
        sim.start();
        // Steal the `LinkReady` four queued packets are waiting for.
        assert!(matches!(sim.events.pop(), Some((TX_END, EventKind::LinkReady { .. }))));
        assert_eq!(sim.invariant_snapshot().stranded, 1);
        assert_eq!(violations(&sim), vec![crate::oracle::Violation::LostWakeUp { count: 1 }]);
    }

    #[test]
    fn red_drops_are_traced_as_drops() {
        let mut config = LinkConfig::mbps_ms(10.0, 10, 100);
        config.policy =
            crate::queue::QueuePolicy::Red { min_thresh: 2, max_thresh: 8, max_prob: 0.5 };
        let (mut sim, a, c) = one_link_sim(config);
        sim.enable_trace(&[], 10_000);
        let flow = FlowId::from_raw(0);
        // One packet per 500 µs into a link that takes 800 µs to send one.
        let overload: Vec<u64> = (0..200).map(|i| i * 500).collect();
        sim.add_agent(a, flow, SendAt::boxed(c, &overload));
        sim.add_agent(c, flow, SendAt::boxed(a, &[]));
        sim.run_to_quiescence();
        let records = sim.trace_records();
        let traced = |kind| records.iter().filter(|r| r.kind == kind).count() as u64;
        let (link, queue) = (LinkId::from_raw(0), &sim.links[0].queue);
        assert!(queue.drops() > 20 && queue.enqueues() > 100, "RED was at work: {queue:?}");
        assert_eq!(traced(TraceEventKind::QueueDrop(link)), queue.drops());
        assert_eq!(traced(TraceEventKind::Enqueued(link)), queue.enqueues());
        assert_eq!(sim.stats.queue_drops, queue.drops());
    }

    /// `a → c` as [`one_link_sim`], plus `island`, which no link reaches.
    /// `sends` packets leave `a` for `dst` at t = 0; `sink` puts an agent
    /// at `c` to take them.
    fn exit_sim(config: LinkConfig, sends: u64, dst: u32, sink: bool) -> Simulator {
        let mut b = SimBuilder::new(3);
        let (a, c, _island) = (b.add_node(), b.add_node(), b.add_node());
        b.add_link(a, c, config);
        let mut sim = b.build();
        let (flow, dst) = (FlowId::from_raw(0), NodeId::from_raw(dst));
        sim.add_agent(a, flow, Box::new(Blaster { dst, count: sends, acked: Vec::new() }));
        if sink {
            sim.add_agent(c, flow, SendAt::boxed(a, &[]));
        }
        sim
    }

    /// Runs to quiescence with the oracle checked on the way; at the end
    /// every packet injected or duplicated must have left the arena.
    fn drained(mut sim: Simulator) -> (SimStats, ImpairStats) {
        sim.start();
        assert_eq!(violations(&sim), Vec::new(), "after on_start");
        sim.run_until(SimTime::from_nanos(2_000_000));
        assert_eq!(violations(&sim), Vec::new(), "mid-run");
        sim.run_to_quiescence();
        assert_eq!(violations(&sim), Vec::new(), "at quiescence");
        let snap = sim.invariant_snapshot();
        assert_eq!((snap.live_packets, snap.queued, snap.in_flight), (0, 0, 0));
        let peak = sim.packet_peak() as u64;
        assert!(0 < peak && peak <= snap.sources(), "peak {peak} of {} packets", snap.sources());
        (sim.stats.clone(), sim.impair_totals())
    }

    fn fast() -> LinkConfig {
        LinkConfig::mbps_ms(10.0, 10, 100)
    }

    #[test]
    fn delivery_frees_the_packet() {
        let (stats, _) = drained(exit_sim(fast(), 5, 1, true));
        assert_eq!((stats.injected, stats.delivered), (5, 5));
    }

    #[test]
    fn a_packet_for_a_node_without_its_agent_is_freed() {
        let (stats, _) = drained(exit_sim(fast(), 5, 1, false));
        assert_eq!(
            (stats.injected, stats.no_route_drops),
            (5, 5),
            "crossed the link, then dropped"
        );
    }

    #[test]
    fn a_packet_with_no_next_hop_is_freed() {
        let (stats, _) = drained(exit_sim(fast(), 5, 2, true));
        assert_eq!((stats.injected, stats.no_route_drops, stats.events), (5, 5, 0));
    }

    #[test]
    fn a_queue_drop_frees_the_packet() {
        let (stats, _) = drained(exit_sim(LinkConfig::mbps_ms(10.0, 10, 2), 10, 1, true));
        assert_eq!((stats.queue_drops, stats.delivered), (7, 3));
    }

    #[test]
    fn a_random_loss_frees_the_packet() {
        let (stats, _) = drained(exit_sim(fast().with_random_loss(0.5), 40, 1, true));
        assert!(stats.random_losses > 5 && stats.delivered > 5, "{stats:?}");
        assert_eq!(stats.random_losses + stats.delivered, 40);
    }

    #[test]
    fn an_impairment_drop_frees_the_packet() {
        let mut sim = exit_sim(fast(), 40, 1, true);
        sim.set_link_impairments(LinkId::from_raw(0), &[StageConfig::IidLoss { p: 0.5 }]);
        let (stats, _) = drained(sim);
        assert!(stats.impair_drops > 5 && stats.delivered > 5, "{stats:?}");
        assert_eq!(stats.impair_drops + stats.delivered, 40);
    }

    #[test]
    fn a_down_link_frees_the_packets_it_refuses() {
        let (mut sim, a, c) = one_link_sim(fast());
        sim.add_agent(a, FlowId::from_raw(0), SendAt::boxed(c, &[0, 1_000, 1_200]));
        sim.add_agent(c, FlowId::from_raw(0), SendAt::boxed(a, &[]));
        sim.schedule_link_admin(SimTime::from_nanos(900_000), LinkId::from_raw(0), LinkAdmin::Down);
        let (stats, impair) = drained(sim);
        assert_eq!((stats.delivered, stats.impair_drops, impair.down_drops), (1, 2, 2));
    }

    #[test]
    fn a_duplicate_is_a_packet_of_its_own_and_both_are_freed() {
        let mut sim = exit_sim(fast(), 40, 1, true);
        sim.set_link_impairments(LinkId::from_raw(0), &[StageConfig::Duplicate { p: 0.5 }]);
        let (stats, _) = drained(sim);
        assert!(stats.impair_dups > 5, "{stats:?}");
        assert_eq!(stats.delivered, 40 + stats.impair_dups);
    }

    #[test]
    fn oracle_reports_a_leaked_packet() {
        let mut sim = exit_sim(fast(), 1, 1, true);
        sim.start();
        // An exit that counts its packet and forgets to free the slot.
        assert!(matches!(sim.events.pop(), Some((_, EventKind::Arrive { .. }))));
        sim.stats.no_route_drops += 1;
        let leak = crate::oracle::Violation::LeakedPacket { live: 1, held: 0 };
        assert_eq!(violations(&sim), vec![leak.clone()], "the books balance; the arena does not");
        assert!(leak.describe().contains("1 packet(s) but 0 handle(s)"));
    }

    #[test]
    #[should_panic(expected = "stale slab key 0")]
    fn an_arrival_naming_a_freed_packet_panics() {
        let mut sim = exit_sim(fast(), 1, 1, true);
        sim.start();
        let Some((at, EventKind::Arrive { node, packet })) = sim.events.pop() else {
            panic!("the one packet is on the wire")
        };
        sim.step(at, EventKind::Arrive { node, packet });
        assert_eq!((sim.stats.delivered, sim.packets.len()), (1, 0));
        sim.step(at, EventKind::Arrive { node, packet });
    }

    #[test]
    fn packets_flow_end_to_end_and_acks_return() {
        let (mut sim, tx, rx, _, _) = two_node_sim(1);
        sim.run_until(SimTime::from_secs_f64(1.0));
        let echo = sim.agent(rx).as_any().downcast_ref::<Echo>().unwrap();
        assert_eq!(echo.received, vec![0, 1, 2, 3, 4]);
        let blaster = sim.agent(tx).as_any().downcast_ref::<Blaster>().unwrap();
        assert_eq!(blaster.acked.len(), 5);
        // First packet: 0.8 ms serialization + 10 ms propagation, ACK back:
        // 0.032 ms + 10 ms. Total ≈ 20.832 ms.
        let first_ack = blaster.acked[0].1.as_secs_f64();
        assert!((first_ack - 0.020832).abs() < 1e-6, "got {first_ack}");
    }

    #[test]
    fn serialization_spaces_arrivals_by_transmission_time() {
        let (mut sim, tx, _, _, _) = two_node_sim(1);
        sim.run_until(SimTime::from_secs_f64(1.0));
        let blaster = sim.agent(tx).as_any().downcast_ref::<Blaster>().unwrap();
        // Data packets serialize back-to-back at 0.8 ms each; the 40-byte
        // ACKs serialize in 0.032 ms, so consecutive ACK arrivals are spaced
        // by the *data* serialization time.
        let gap = blaster.acked[1].1 - blaster.acked[0].1;
        assert_eq!(gap, SimDuration::from_micros(800));
    }

    #[test]
    fn identical_seeds_identical_runs() {
        let (mut s1, t1, _, _, _) = two_node_sim(7);
        let (mut s2, t2, _, _, _) = two_node_sim(7);
        s1.run_until(SimTime::from_secs_f64(0.5));
        s2.run_until(SimTime::from_secs_f64(0.5));
        let a1 = &s1.agent(t1).as_any().downcast_ref::<Blaster>().unwrap().acked;
        let a2 = &s2.agent(t2).as_any().downcast_ref::<Blaster>().unwrap().acked;
        assert_eq!(a1, a2);
        assert_eq!(s1.stats().events, s2.stats().events);
    }

    #[test]
    fn random_loss_drops_packets() {
        let mut b = SimBuilder::new(11);
        let a = b.add_node();
        let c = b.add_node();
        b.add_link(a, c, LinkConfig::mbps_ms(100.0, 1, 1000).with_random_loss(0.5));
        b.add_link(c, a, LinkConfig::mbps_ms(100.0, 1, 1000));
        let mut sim = b.build();
        let flow = FlowId::from_raw(0);
        sim.add_agent(a, flow, Box::new(Blaster { dst: c, count: 1000, acked: Vec::new() }));
        let rx = sim.add_agent(c, flow, Box::new(Echo { peer: a, received: Vec::new() }));
        sim.run_until(SimTime::from_secs_f64(5.0));
        let got = sim.agent(rx).as_any().downcast_ref::<Echo>().unwrap().received.len();
        assert!((300..700).contains(&got), "≈50% of 1000 should survive, got {got}");
        assert_eq!(sim.stats().random_losses as usize + got, 1000);
    }

    #[test]
    fn cancel_timer_suppresses_fire() {
        struct CancelAgent {
            fired: u32,
        }
        impl Agent for CancelAgent {
            fn on_start(&mut self, ctx: &mut AgentCtx<'_>) {
                ctx.set_timer(ctx.now + SimDuration::from_millis(10));
                ctx.cancel_timer();
            }
            fn on_packet(&mut self, _p: Packet, _ctx: &mut AgentCtx<'_>) {}
            fn on_timer(&mut self, _ctx: &mut AgentCtx<'_>) {
                self.fired += 1;
            }
        }
        let mut b = SimBuilder::new(0);
        let a = b.add_node();
        let mut sim = b.build();
        let id = sim.add_agent(a, FlowId::from_raw(0), Box::new(CancelAgent { fired: 0 }));
        sim.run_until(SimTime::from_secs_f64(1.0));
        assert_eq!(sim.agent(id).as_any().downcast_ref::<CancelAgent>().unwrap().fired, 0);
    }

    #[test]
    fn aux_timer_is_independent_of_main_timer() {
        // One agent arms both timer slots; re-arming / cancelling one slot
        // must not disturb the other.
        struct DualTimer {
            fired: u32,
            aux_fired: u32,
        }
        impl Agent for DualTimer {
            fn on_start(&mut self, ctx: &mut AgentCtx<'_>) {
                ctx.set_timer(ctx.now + SimDuration::from_millis(10));
                // Arm, then re-arm the aux slot: only the second may fire.
                ctx.set_aux_timer(ctx.now + SimDuration::from_millis(5));
                ctx.set_aux_timer(ctx.now + SimDuration::from_millis(15));
            }
            fn on_packet(&mut self, _p: Packet, _ctx: &mut AgentCtx<'_>) {}
            fn on_timer(&mut self, ctx: &mut AgentCtx<'_>) {
                self.fired += 1;
                // Cancelling the aux slot from the main callback works too —
                // but only after it already fired at 15 ms.
                if self.fired == 2 {
                    ctx.cancel_aux_timer();
                }
                if self.fired < 3 {
                    ctx.set_timer(ctx.now + SimDuration::from_millis(10));
                }
            }
            fn on_aux_timer(&mut self, ctx: &mut AgentCtx<'_>) {
                self.aux_fired += 1;
                ctx.set_aux_timer(ctx.now + SimDuration::from_millis(30));
            }
        }
        let mut b = SimBuilder::new(0);
        let a = b.add_node();
        let mut sim = b.build();
        let id =
            sim.add_agent(a, FlowId::from_raw(0), Box::new(DualTimer { fired: 0, aux_fired: 0 }));
        sim.run_until(SimTime::from_secs_f64(1.0));
        let agent = sim.agent(id).as_any().downcast_ref::<DualTimer>().unwrap();
        // Main timer: 10, 20, 30 ms. Aux timer: 15 ms, then the 45 ms re-arm
        // is cancelled by the 20 ms main fire.
        assert_eq!(agent.fired, 3);
        assert_eq!(agent.aux_fired, 1);
    }

    fn key(at_ns: u64, seq: u64) -> EventKey {
        (SimTime::from_nanos(at_ns), seq)
    }

    #[test]
    fn timer_slot_pushes_only_below_the_pending_pop() {
        let mut slot = Source::default();
        assert!(slot.arm(key(10, 0)), "nothing pending: push");
        assert!(!slot.arm(key(20, 1)), "later than the pending pop: ride on it");
        assert!(!slot.arm(key(10, 2)), "same instant, later seq: still above it");
        assert_eq!((slot.due, slot.pending), (Some(key(10, 2)), Some(key(10, 0))));
        assert!(slot.arm(key(5, 3)), "earlier: push, orphaning the old pop");
        assert_eq!((slot.due, slot.pending), (Some(key(5, 3)), Some(key(5, 3))));
        assert!(!slot.arm(key(5, 3)), "a pop is already pending at that very key");
    }

    #[test]
    fn timer_slot_pop_fires_defers_or_discards() {
        let mut slot = Source::default();
        // The pending pop is the armed deadline: fire, and the slot is empty.
        slot.arm(key(10, 0));
        assert_eq!(slot.pop(key(10, 0)), Pop::Fire);
        assert_eq!(slot, Source::default());
        // The deadline moved later (twice) behind the pop: one re-push, under
        // the key the last arm reserved, and that one fires.
        slot.arm(key(10, 1));
        slot.arm(key(30, 2));
        slot.arm(key(20, 3));
        assert_eq!(slot.pop(key(10, 1)), Pop::Defer);
        assert_eq!(slot.pending, Some(key(20, 3)));
        assert_eq!(slot.pop(key(20, 3)), Pop::Fire);
        // The deadline moved earlier: the old pop is an orphan, and leaves
        // whatever was armed since alone.
        slot.arm(key(50, 4));
        slot.arm(key(40, 5));
        assert_eq!(slot.pop(key(40, 5)), Pop::Fire);
        slot.arm(key(60, 6));
        assert_eq!(slot.pop(key(50, 4)), Pop::Stale);
        assert_eq!((slot.due, slot.pending), (Some(key(60, 6)), Some(key(60, 6))));
        // Cancelled: the pop finds nothing and clears `pending`, so the
        // next arm pushes again.
        slot.due = None;
        assert_eq!(slot.pop(key(60, 6)), Pop::Stale);
        assert_eq!(slot, Source::default());
        assert!(slot.arm(key(70, 7)));
        // Cancelled and re-armed before the pop came: it rides on that pop.
        slot.due = None;
        assert!(!slot.arm(key(80, 8)));
        assert_eq!(slot.pop(key(70, 7)), Pop::Defer);
        assert_eq!(slot.pending, Some(key(80, 8)));
    }

    #[test]
    fn timer_slot_knows_a_lost_wake_up() {
        let lost = |due, pending, keyed: &[u64]| {
            Source { pending, due }.stranded(false, &keyed.iter().copied().collect())
        };
        assert!(!lost(None, None, &[]), "idle");
        assert!(!lost(Some(key(10, 0)), Some(key(10, 0)), &[0]), "pushed");
        assert!(!lost(Some(key(20, 1)), Some(key(10, 0)), &[0]), "riding on an earlier pop");
        assert!(!lost(None, Some(key(10, 0)), &[0]), "cancelled, pop still to come");
        assert!(lost(Some(key(10, 0)), None, &[0]), "armed, nothing pending");
        assert!(lost(Some(key(10, 1)), Some(key(20, 0)), &[0]), "pending above the deadline");
        assert!(lost(Some(key(20, 1)), Some(key(10, 0)), &[1]), "pending pop not queued");
        assert!(lost(None, Some(key(10, 0)), &[]), "a phantom pop would swallow an arm");
        // A link's source: packets waiting on an up transmitter need a poll.
        let link = |waiting, pending, keyed: &[u64]| {
            Source { pending, due: pending }.stranded(waiting, &keyed.iter().copied().collect())
        };
        assert!(!link(false, None, &[]), "idle, or busy with nothing waiting");
        assert!(!link(true, Some(key(10, 0)), &[0]), "a packet waits for the pushed poll");
        assert!(link(true, None, &[]), "a packet waits for no poll");
    }

    /// Arms the main timer for each of `arm_ms` in turn from `on_start`;
    /// records when it fires.
    struct ArmOnStart {
        arm_ms: Vec<u64>,
        fired: Vec<SimTime>,
    }

    impl Agent for ArmOnStart {
        fn on_start(&mut self, ctx: &mut AgentCtx<'_>) {
            for &ms in &self.arm_ms {
                ctx.set_timer(ctx.now + SimDuration::from_millis(ms));
            }
        }
        fn on_packet(&mut self, _p: Packet, _ctx: &mut AgentCtx<'_>) {}
        fn on_timer(&mut self, ctx: &mut AgentCtx<'_>) {
            self.fired.push(ctx.now);
        }
    }

    fn arm_on_start_sim(arm_ms: &[u64]) -> (Simulator, AgentId) {
        let mut b = SimBuilder::new(0);
        let a = b.add_node();
        let mut sim = b.build();
        let agent = ArmOnStart { arm_ms: arm_ms.to_vec(), fired: Vec::new() };
        let id = sim.add_agent(a, FlowId::from_raw(0), Box::new(agent));
        (sim, id)
    }

    #[test]
    fn re_armed_timer_keeps_one_pop_in_the_queue() {
        // Four arms, each later than the first: one pop pushed, one re-push
        // when it comes, then the fire — where eager pushing popped four.
        let (mut sim, id) = arm_on_start_sim(&[10, 40, 20, 30]);
        sim.start();
        assert_eq!(sim.events.len(), 1);
        sim.run_until(SimTime::from_secs_f64(1.0));
        let fired = &sim.agent(id).as_any().downcast_ref::<ArmOnStart>().unwrap().fired;
        assert_eq!(*fired, [SimTime::from_nanos(30_000_000)]);
        assert_eq!((sim.stats.events, sim.event_heap_peak()), (2, 1));
        // Moving the deadline earlier has to push: the old pop is orphaned.
        let (mut sim, id) = arm_on_start_sim(&[30, 10]);
        sim.run_until(SimTime::from_secs_f64(1.0));
        let fired = &sim.agent(id).as_any().downcast_ref::<ArmOnStart>().unwrap().fired;
        assert_eq!(*fired, [SimTime::from_nanos(10_000_000)]);
        assert_eq!((sim.stats.events, sim.event_heap_peak()), (2, 2));
    }

    #[test]
    fn quiescence_waits_for_timers_with_no_packet_pending() {
        let (mut sim, id) = arm_on_start_sim(&[10, 20]);
        sim.start();
        assert!(!sim.events.is_empty() && sim.events.heap_len() == 0);
        assert_eq!(sim.run_to_quiescence(), SimTime::from_nanos(20_000_000));
        let fired = &sim.agent(id).as_any().downcast_ref::<ArmOnStart>().unwrap().fired;
        assert_eq!((fired.len(), sim.stats.events, sim.events.len()), (1, 2, 0));
    }

    #[test]
    fn oracle_reports_a_lost_timer() {
        let (mut sim, _) = arm_on_start_sim(&[10, 20]);
        sim.start();
        assert_eq!(violations(&sim), Vec::new(), "armed for 20 ms behind the 10 ms pop");
        // Steal the pop the armed deadline is riding on.
        assert!(matches!(sim.events.pop(), Some((_, EventKind::Timer { generation: 0, .. }))));
        assert_eq!(sim.invariant_snapshot().stranded, 1);
        let found = violations(&sim);
        assert_eq!(found, vec![crate::oracle::Violation::LostWakeUp { count: 1 }]);
        assert!(found[0].describe().contains("no key in an event heap"));
    }

    #[test]
    fn oracle_reports_a_timer_armed_in_the_past() {
        /// Fires at 1 ms, then asks for the instant before.
        struct Backwards(u32);
        impl Agent for Backwards {
            fn on_start(&mut self, ctx: &mut AgentCtx<'_>) {
                ctx.set_timer(SimTime::from_nanos(1_000_000));
            }
            fn on_packet(&mut self, _p: Packet, _ctx: &mut AgentCtx<'_>) {}
            fn on_timer(&mut self, ctx: &mut AgentCtx<'_>) {
                self.0 += 1;
                if self.0 == 1 {
                    ctx.set_timer(SimTime::from_nanos(ctx.now.as_nanos() - 1));
                }
            }
        }
        let mut b = SimBuilder::new(0);
        let a = b.add_node();
        let mut sim = b.build();
        let id = sim.add_agent(a, FlowId::from_raw(0), Box::new(Backwards(0)));
        sim.run_until(SimTime::from_nanos(999_999));
        assert_eq!(crate::oracle::check_flows(&sim.invariant_snapshot()), Vec::new());
        sim.run_to_quiescence();
        // Clamped to the present: it fired at once, and was counted.
        assert_eq!(sim.now(), SimTime::from_nanos(1_000_000));
        assert_eq!(sim.agent(id).as_any().downcast_ref::<Backwards>().unwrap().0, 2);
        assert_eq!(sim.stats.armed_past, 1);
        assert_eq!(violations(&sim), Vec::new(), "the core is sound: it fired now");
        let found = crate::oracle::check_flows(&sim.invariant_snapshot());
        assert_eq!(found, vec![crate::oracle::Violation::ArmedPast { count: 1 }]);
        assert!(found[0].describe().contains("already past"));
    }

    /// `(seq, µs)` of every delivery traced so far, in dispatch order.
    fn deliveries(sim: &Simulator) -> Vec<(u64, u64)> {
        let delivered = |r: &TraceRecord| matches!(r.kind, TraceEventKind::Delivered(_));
        let row = |r: TraceRecord| (r.seq.unwrap(), r.at.as_nanos() / 1_000);
        sim.trace_records().into_iter().filter(delivered).map(row).collect()
    }

    /// Pending arrivals as (on a lane, in the heap as overtakers).
    fn laned_and_overtaking(sim: &Simulator) -> (usize, usize) {
        let laned = sim.events.laned_arrivals();
        (laned, sim.events.pending_arrivals() - laned)
    }

    #[test]
    fn a_shortened_delay_lets_later_packets_overtake_through_the_heap() {
        // 800 µs to serialize, 10 ms to cross: three packets are in flight
        // when the delay drops to 1 ms. The next two are due before them.
        let (mut sim, a, c) = one_link_sim(fast());
        sim.enable_trace(&[], 1_000);
        let flow = FlowId::from_raw(0);
        sim.add_agent(a, flow, SendAt::boxed(c, &[0, 1_000, 2_000, 3_000, 4_000, 12_000, 13_000]));
        sim.add_agent(c, flow, SendAt::boxed(a, &[]));
        let delay = SimDuration::from_millis(1);
        let at_us = |us: u64| SimTime::from_nanos(us * 1_000);
        sim.schedule_link_admin(at_us(2_500), LinkId::from_raw(0), LinkAdmin::SetDelay { delay });
        sim.run_until(at_us(2_400));
        assert_eq!(laned_and_overtaking(&sim), (3, 0));
        assert_eq!(sim.events.lane_backlog(), 2, "one key for the three");
        sim.run_until(at_us(4_500));
        assert_eq!(laned_and_overtaking(&sim), (3, 2), "both overtakers went to the heap");
        assert_eq!(sim.events.lane_tail(0), Some(at_us(12_800)), "and left the lane's tail alone");
        assert_eq!(violations(&sim), Vec::new());
        // Due at 13.8 ms, behind the 12.8 ms tail: the lane takes it again —
        // while the last of the three is still on it.
        sim.run_until(at_us(12_500));
        assert_eq!(laned_and_overtaking(&sim), (2, 0));
        assert_eq!(violations(&sim), Vec::new());
        sim.run_to_quiescence();
        let order = [(3, 4_800), (4, 5_800), (0, 10_800), (1, 11_800), (2, 12_800)];
        assert_eq!(deliveries(&sim)[..5], order, "every arrival at its own key");
        assert_eq!(deliveries(&sim)[5..], [(5, 13_800), (6, 14_800)]);
        assert_eq!((sim.stats.delivered, sim.event_heap_peak()), (7, 6));
        assert_eq!(violations(&sim), Vec::new());
    }

    #[test]
    fn a_burst_of_ties_rides_the_lane_in_fifo_order() {
        // No serialization time: five packets are due at the same instant,
        // told apart by `seq` alone, on the lane as they would be in the heap.
        let (mut sim, a, c) = one_link_sim(LinkConfig::new(1e18, SimDuration::from_millis(10), 9));
        sim.enable_trace(&[], 1_000);
        let flow = FlowId::from_raw(0);
        sim.add_agent(a, flow, Box::new(Blaster { dst: c, count: 5, acked: Vec::new() }));
        sim.add_agent(c, flow, SendAt::boxed(a, &[]));
        sim.run_until(SimTime::from_nanos(1));
        assert_eq!(laned_and_overtaking(&sim), (5, 0));
        assert_eq!((sim.events.lane_backlog(), sim.events.heap_len()), (4, 1));
        sim.run_to_quiescence();
        assert_eq!(deliveries(&sim), [0, 1, 2, 3, 4].map(|seq| (seq, 10_000)));
        assert_eq!(violations(&sim), Vec::new());
    }

    #[test]
    fn a_duplicate_trails_its_original_even_past_a_shorter_successor() {
        // A 1000-byte packet (800 µs) and its copy one transmission time
        // behind it; the 40-byte packet (32 µs) sent next lands in between,
        // and so does its own copy.
        let (mut sim, a, c) = one_link_sim(fast());
        sim.set_link_impairments(LinkId::from_raw(0), &[StageConfig::Duplicate { p: 1.0 }]);
        sim.enable_trace(&[], 1_000);
        let (long, short) = (FlowId::from_raw(0), FlowId::from_raw(1));
        sim.add_agent(a, long, SendAt::boxed(c, &[0]));
        sim.add_agent(a, short, Box::new(SendAt { size_bytes: 40, ..*SendAt::boxed(c, &[0]) }));
        sim.add_agent(c, long, SendAt::boxed(a, &[]));
        sim.add_agent(c, short, SendAt::boxed(a, &[]));
        sim.run_until(SimTime::from_nanos(1_000_000));
        assert_eq!(laned_and_overtaking(&sim), (2, 2), "the long pair laned, the short pair not");
        assert_eq!(violations(&sim), Vec::new());
        sim.run_to_quiescence();
        let at: Vec<u64> = deliveries(&sim).into_iter().map(|(_, us)| us).collect();
        assert_eq!(at, [10_800, 10_832, 10_864, 11_600]);
        assert_eq!(violations(&sim), Vec::new());
    }

    #[test]
    fn a_bandwidth_change_is_not_hidden_by_the_remembered_serialization_time() {
        // Same size, same link: 800 µs at 10 Mbit/s, 1600 µs once the rate is
        // halved between the first two sends — and still for the third.
        let (mut sim, a, c) = one_link_sim(fast());
        sim.enable_trace(&[], 1_000);
        let flow = FlowId::from_raw(0);
        sim.add_agent(a, flow, SendAt::boxed(c, &[0, 2_000, 4_000]));
        sim.add_agent(c, flow, SendAt::boxed(a, &[]));
        let halve = LinkAdmin::SetBandwidth { bps: 5e6 };
        sim.schedule_link_admin(SimTime::from_nanos(1_000_000), LinkId::from_raw(0), halve);
        sim.run_to_quiescence();
        assert_eq!(deliveries(&sim), [(0, 10_800), (1, 13_600), (2, 15_600)]);
        assert_eq!(violations(&sim), Vec::new());
    }

    #[test]
    fn oracle_reports_a_stranded_lane() {
        let (mut sim, _, _, _, _) = two_node_sim(1);
        sim.run_until(SimTime::from_nanos(2_000_000));
        assert_eq!(laned_and_overtaking(&sim), (3, 0), "the third of five is being sent");
        assert_eq!(violations(&sim), Vec::new());
        // Steal the one key all three arrivals are riding on.
        sim.events.steal_lane_keys();
        assert_eq!(sim.invariant_snapshot().stranded, 1);
        let found = violations(&sim);
        assert_eq!(found, vec![crate::oracle::Violation::LostWakeUp { count: 1 }]);
        assert!(found[0].describe().contains("no key in an event heap"));
    }

    #[test]
    fn scheduled_route_pin_switches_paths_mid_run() {
        // Diamond with two equal paths; pin to path 0, then flap to path 1
        // at t = 1 s. Packets sent before the flap use path 0, after it
        // path 1.
        let mut b = SimBuilder::new(5);
        let a = b.add_node();
        let m1 = b.add_node();
        let m2 = b.add_node();
        let d = b.add_node();
        let cfg = LinkConfig::mbps_ms(100.0, 5, 4000);
        b.add_duplex(a, m1, cfg.clone());
        b.add_duplex(m1, d, cfg.clone());
        b.add_duplex(a, m2, cfg.clone());
        b.add_duplex(m2, d, cfg.clone());
        let mut sim = b.build();
        sim.schedule_path_pin(SimTime::ZERO, a, d, 0, 4);
        sim.schedule_path_pin(SimTime::from_secs_f64(1.0), a, d, 1, 4);

        // A slow blaster: send one packet every 10 ms via a timer agent.
        struct Ticker {
            dst: NodeId,
            seq: u64,
        }
        impl Agent for Ticker {
            fn on_start(&mut self, ctx: &mut AgentCtx<'_>) {
                ctx.set_timer(ctx.now);
            }
            fn on_packet(&mut self, _p: Packet, _ctx: &mut AgentCtx<'_>) {}
            fn on_timer(&mut self, ctx: &mut AgentCtx<'_>) {
                ctx.send(
                    self.dst,
                    1000,
                    PacketKind::Data(crate::packet::DataHeader {
                        seq: self.seq,
                        tx_count: 1,
                        timestamp: ctx.now,
                    }),
                );
                self.seq += 1;
                ctx.set_timer(ctx.now + SimDuration::from_millis(10));
            }
        }
        let flow = FlowId::from_raw(0);
        sim.add_agent(a, flow, Box::new(Ticker { dst: d, seq: 0 }));
        sim.add_agent(d, flow, Box::new(Echo { peer: a, received: Vec::new() }));
        sim.run_until(SimTime::from_secs_f64(2.0));
        let via_m1 = sim.link(LinkId::from_raw(2)).transmitted; // m1 → d
        let via_m2 = sim.link(LinkId::from_raw(6)).transmitted; // m2 → d
                                                                // ~100 packets on each side of the flap.
        assert!((90..=110).contains(&via_m1), "via m1 = {via_m1}");
        assert!((90..=110).contains(&via_m2), "via m2 = {via_m2}");
    }

    /// A first transmission of segment `seq`.
    fn data(seq: u64) -> PacketKind {
        let timestamp = SimTime::ZERO;
        PacketKind::Data(DataHeader { seq, tx_count: 1, timestamp })
    }

    type Log = std::rc::Rc<std::cell::RefCell<Vec<String>>>;

    /// One thing a [`Scripted`] agent does to its context; times in µs from
    /// the callback's instant.
    #[derive(Clone, Copy)]
    enum Op {
        Send,
        Timer(u64),
        CancelTimer,
        Aux(u64),
        CancelAux,
    }

    /// Runs the next line of its script in every callback, whichever it is,
    /// having logged the callback first.
    struct Scripted {
        name: char,
        peer: NodeId,
        script: std::collections::VecDeque<Vec<Op>>,
        sent: u64,
        log: Log,
    }

    impl Scripted {
        fn boxed(name: char, peer: NodeId, script: &[&[Op]], log: &Log) -> Box<Self> {
            let script = script.iter().map(|line| line.to_vec()).collect();
            Box::new(Scripted { name, peer, script, sent: 0, log: log.clone() })
        }

        fn run(&mut self, callback: &str, ctx: &mut AgentCtx<'_>) {
            self.log.borrow_mut().push(format!("{}.{callback}", self.name));
            let now = ctx.now;
            let after = |us: u64| now + SimDuration::from_micros(us);
            for op in self.script.pop_front().unwrap_or_default() {
                match op {
                    Op::Send => {
                        ctx.send(self.peer, DATA_PACKET_BYTES, data(self.sent));
                        self.sent += 1;
                    }
                    Op::Timer(us) => ctx.set_timer(after(us)),
                    Op::CancelTimer => ctx.cancel_timer(),
                    Op::Aux(us) => ctx.set_aux_timer(after(us)),
                    Op::CancelAux => ctx.cancel_aux_timer(),
                }
            }
        }
    }

    impl Agent for Scripted {
        fn on_start(&mut self, ctx: &mut AgentCtx<'_>) {
            self.run("start", ctx);
        }
        fn on_packet(&mut self, p: Packet, ctx: &mut AgentCtx<'_>) {
            self.run(&format!("packet{}", p.kind.as_data().expect("data only").seq), ctx);
        }
        fn on_timer(&mut self, ctx: &mut AgentCtx<'_>) {
            self.run("timer", ctx);
        }
        fn on_aux_timer(&mut self, ctx: &mut AgentCtx<'_>) {
            self.run("aux", ctx);
        }
    }

    struct LogSink(Log);

    impl TraceSink for LogSink {
        fn write_record(&mut self, r: &TraceRecord) {
            let mut log = self.0.borrow_mut();
            let line = log.last_mut().expect("a callback or an event came first");
            line.push_str(&format!(" u{}:{}@{}", r.uid, r.kind.label(), r.kind.location()));
        }
    }

    /// What [`a_scripted_round_trip_keeps_its_recorded_order`] logged at the
    /// commit before ISSUE 21: `instant µs/seq kind` per event popped, each
    /// callback, and behind either the trace records it caused.
    const SCRIPTED_ROUND_TRIP: &str = "
        A.start u0:injected@- u0:enqueued@l4 u0:link_tx@l4 u1:injected@- u1:enqueued@l4
        B.start
        800/2 link_ready u1:link_tx@l4
        2000/4 timer
        A.timer u2:injected@- u2:enqueued@l4 u2:link_tx@l4
        2800/3 arrive u0:enqueued@l6 u0:link_tx@l6
        3000/1 aux_timer
        3600/7 arrive u1:enqueued@l6
        3600/12 link_ready u1:link_tx@l6
        4500/11 aux_timer
        A.aux u3:injected@- u3:enqueued@l4 u3:link_tx@l4
        4800/9 arrive u2:enqueued@l6 u2:link_tx@l6
        5000/0 timer
        5500/19 timer
        A.timer u4:injected@- u4:enqueued@l0 u4:link_tx@l0 u5:injected@- u5:enqueued@l4 u5:link_tx@l4
        5600/13 arrive u0:delivered@n3
        B.packet0 u6:injected@- u6:enqueued@l3 u6:link_tx@l3
        5600/22 aux_timer
        6400/15 arrive u1:delivered@n3
        B.packet1 u7:injected@- u7:enqueued@l3
        6400/27 link_ready u7:link_tx@l3
        6500/31 timer
        B.timer u8:injected@- u8:enqueued@l3
        6600/29 timer
        6600/30 aux_timer
        6800/34 aux_timer
        B.aux u9:injected@- u9:enqueued@l3
        7200/32 link_ready u8:link_tx@l3
        7300/17 arrive u3:enqueued@l6 u3:link_tx@l6
        7300/24 arrive u4:enqueued@l2 u4:link_tx@l2
        7400/28 arrive u6:enqueued@l1 u6:link_tx@l1
        7500/18 timer
        7600/21 arrive u2:delivered@n3
        B.packet2 u10:injected@- u10:enqueued@l3
        7640/44 timer
        B.timer
        7650/43 timer
        8000/35 link_ready u9:link_tx@l3
        8200/33 arrive u7:enqueued@l1
        8200/41 link_ready u7:link_tx@l1
        8300/26 arrive u5:enqueued@l6 u5:link_tx@l6
        8800/45 link_ready u10:link_tx@l3
        9000/10 timer
        9000/36 arrive u8:enqueued@l1
        9000/47 link_ready u8:link_tx@l1
        9100/40 arrive u4:delivered@n3
        B.packet4
        9200/42 arrive u6:delivered@n0
        A.packet0
        9200/55 timer
        A.timer u11:injected@- u11:enqueued@l4 u11:link_tx@l4
        9200/56 aux_timer
        A.aux
        9800/46 arrive u9:enqueued@l1
        9800/53 link_ready u9:link_tx@l1
        9800/59 timer
        A.timer
        10000/48 arrive u7:delivered@n0
        A.packet1
        10100/38 arrive u3:delivered@n3
        B.packet3
        10600/52 arrive u10:enqueued@l1
        10600/60 link_ready u10:link_tx@l1
        10800/54 arrive u8:delivered@n0
        A.packet2
        11100/50 arrive u5:delivered@n3
        B.packet5
        11600/61 arrive u9:delivered@n0
        A.packet3
        12000/58 arrive u11:enqueued@l6 u11:link_tx@l6
        12400/63 arrive u10:delivered@n0
        A.packet4
        14800/65 arrive u11:delivered@n3
        B.packet6
        sent 7 5 SimStats { queue_drops: 0, random_losses: 0, no_route_drops: 0, delivered: 12, injected: 12, events: 51, impair_drops: 0, impair_dups: 0, link_flaps: 0, time_regressions: 0, armed_past: 0 }";

    #[test]
    fn a_scripted_round_trip_keeps_its_recorded_order() {
        // Every effect a callback can have, each next to the others: A arms,
        // re-arms and cancels both timers around its sends (over a two-path
        // mixture, so each send also draws), B answers and arms its own. One
        // log takes the callbacks, the trace records and the key of every
        // event popped, in the order they happen; the literal below was
        // recorded before callbacks acted on the simulator directly, when
        // their requests were buffered and applied after they returned.
        use Op::*;
        let mut b = SimBuilder::new(21);
        let (a, m1, m2, d) = (b.add_node(), b.add_node(), b.add_node(), b.add_node());
        b.add_duplex(a, m1, LinkConfig::mbps_ms(10.0, 1, 100));
        b.add_duplex(m1, d, LinkConfig::mbps_ms(10.0, 1, 100));
        b.add_duplex(a, m2, LinkConfig::mbps_ms(10.0, 2, 100));
        b.add_duplex(m2, d, LinkConfig::mbps_ms(10.0, 2, 100));
        let mut sim = b.build();
        assert_eq!(sim.install_multipath(a, d, 0.0, 4), 2);
        let log = Log::default();
        sim.set_trace_sink(Box::new(LogSink(log.clone())));
        let flow = FlowId::from_raw(0);
        let script_a: &[&[Op]] = &[
            &[Timer(5_000), Aux(3_000), Send, Timer(2_000), CancelAux, Send, Aux(4_000)],
            &[Send, Timer(7_000), CancelAux, Aux(2_500)],
            &[CancelTimer, Send, Timer(3_000), Timer(1_000)],
            &[Aux(100), CancelAux, Send, Send, CancelTimer],
            &[Timer(0), Aux(0)],
            &[Send, Timer(600)],
        ];
        let script_b: &[&[Op]] = &[
            &[],
            &[Send, Timer(1_000)],
            &[Aux(200), Send, Timer(100), CancelAux],
            &[CancelTimer, Send, Aux(300)],
            &[Send],
            &[Timer(50), Timer(40), Send],
        ];
        let id_a = sim.add_agent(a, flow, Scripted::boxed('A', d, script_a, &log));
        let id_b = sim.add_agent(d, flow, Scripted::boxed('B', a, script_b, &log));
        sim.start();
        while let Some((at, kind)) = sim.events.pop() {
            let (us, seq) = (at.as_nanos() / 1_000, sim.events.last_popped_seq());
            log.borrow_mut().push(format!("{us}/{seq} {}", &kind.profile_key()["event.".len()..]));
            sim.step(at, kind);
        }
        let left = |id: AgentId| sim.agent(id).as_any().downcast_ref::<Scripted>().unwrap().sent;
        log.borrow_mut().push(format!("sent {} {} {:?}", left(id_a), left(id_b), sim.stats));
        let recorded: Vec<&str> = SCRIPTED_ROUND_TRIP.lines().map(str::trim).collect();
        assert_eq!(*log.borrow(), recorded[1..], "\n{}", log.borrow().join("\n"));
    }

    #[test]
    #[should_panic(expected = "agent a1 sent a packet to its own node n0")]
    fn an_agent_cannot_send_to_itself() {
        // A packet keeps its sender's flow, and a `(node, flow)` has one
        // agent: a packet for the sender's own node is a packet for the
        // sender, whose callback is still running. The send fails at once,
        // with nothing counted and no packet made.
        let (mut sim, a, c) = one_link_sim(fast());
        let flow = FlowId::from_raw(0);
        sim.add_agent(c, flow, Box::<Sink>::default());
        sim.add_agent(a, flow, Box::new(Blaster { dst: a, count: 1, acked: vec![] }));
        let start = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.start()));
        let payload = start.expect_err("the send panics");
        assert_eq!((sim.stats.injected, sim.stats.delivered, sim.packets.len()), (0, 0, 0));
        std::panic::resume_unwind(payload);
    }

    /// Notes the packets it is handed: `(uid, route handle)`.
    #[derive(Default)]
    struct Sink {
        got: Vec<(u64, Option<RouteId>)>,
    }

    impl Agent for Sink {
        fn on_start(&mut self, _ctx: &mut AgentCtx<'_>) {}
        fn on_packet(&mut self, p: Packet, _ctx: &mut AgentCtx<'_>) {
            self.got.push((p.uid, p.route));
        }
        fn on_timer(&mut self, _ctx: &mut AgentCtx<'_>) {}
    }

    fn sunk(sim: &Simulator, id: AgentId) -> &[(u64, Option<RouteId>)] {
        &sim.agent(id).as_any().downcast_ref::<Sink>().unwrap().got
    }

    /// The flow ids the workloads use: small, and `fabric_churn`'s 1000 + i.
    fn sparse_flow((kind, i): (u8, u32)) -> FlowId {
        FlowId::from_raw([0, 7, 1000 + i, u32::MAX - 1][kind as usize])
    }

    const SPARSE: (std::ops::Range<u32>, (std::ops::Range<u8>, std::ops::Range<u32>)) =
        (0..3, (0..4, 0..6));

    /// Has agent `from` send one 40-byte packet to `dst`, as one of its
    /// callbacks would.
    fn send_as(sim: &mut Simulator, from: AgentId, dst: NodeId) {
        sim.call_agent(from, |_, ctx| ctx.send(dst, 40, data(0)));
    }

    proptest::proptest! {
        /// Every packet reaches the agent a hash map keyed by `(node, flow)`
        /// names for its destination, in whatever order the agents were
        /// added and however often a sender changes destination (so its
        /// cached resolution both hits and misses); a packet for a flow
        /// nobody serves at its destination crosses the network and is a
        /// `NoRoute` drop there.
        #[test]
        fn agents_are_found_as_a_hash_map_finds_them(
            placed in proptest::collection::vec(SPARSE, 1..24),
            sent in proptest::collection::vec((0usize..24, 1u32..3), 1..48),
        ) {
            // Three nodes, each linked to both others: every packet makes
            // one hop, into its destination.
            let mut b = SimBuilder::new(0);
            let nodes = b.add_nodes(3);
            for (i, &x) in nodes.iter().enumerate() {
                for &y in &nodes[i + 1..] {
                    b.add_duplex(x, y, LinkConfig::mbps_ms(100.0, 1, 100));
                }
            }
            let mut sim = b.build();
            sim.enable_trace(&[], 10_000);
            let mut model = std::collections::HashMap::new();
            let mut agents = Vec::new();
            for (node, flow) in placed {
                let at = (NodeId::from_raw(node), sparse_flow(flow));
                model.entry(at).or_insert_with(|| {
                    agents.push(at);
                    sim.add_agent(at.0, at.1, Box::<Sink>::default())
                });
            }
            sim.start();
            // `uid` order: the agent each packet is for, or its destination.
            let mut expected = Vec::new();
            for (pick, hop) in sent {
                let (node, flow) = agents[pick % agents.len()];
                let dst = NodeId::from_raw((node.0 + hop) % 3);
                send_as(&mut sim, model[&(node, flow)], dst);
                expected.push(model.get(&(dst, flow)).copied().ok_or(dst));
            }
            sim.run_to_quiescence();
            let uids = 0..expected.len() as u64;
            for &agent in model.values() {
                let mut got: Vec<u64> = sunk(&sim, agent).iter().map(|&(uid, _)| uid).collect();
                got.sort_unstable();
                let want: Vec<u64> =
                    uids.clone().filter(|&uid| expected[uid as usize] == Ok(agent)).collect();
                proptest::prop_assert_eq!(got, want, "agent {}", agent);
            }
            // An unserved packet's last two records: it crossed a link into
            // its destination, and was dropped there.
            let records = sim.trace_records();
            let mut unserved = 0;
            for (uid, dst) in uids.zip(&expected).filter_map(|(uid, e)| Some((uid, e.err()?))) {
                let life: Vec<_> =
                    records.iter().filter(|r| r.uid == uid).map(|r| r.kind).collect();
                let into = match life.as_slice() {
                    [.., TraceEventKind::LinkTx(link), TraceEventKind::NoRoute] => {
                        Some(sim.links[link.index()].to)
                    }
                    _ => None,
                };
                proptest::prop_assert_eq!(into, Some(dst), "packet {}: {:?}", uid, life);
                unserved += 1;
            }
            proptest::prop_assert_eq!(sim.stats.no_route_drops, unserved);
            proptest::prop_assert_eq!(sim.stats.delivered + unserved, sim.stats.injected);
            proptest::prop_assert_eq!(sim.packets.len(), 0);
        }

        /// The handle `inject` puts on a packet names the links
        /// `MultipathRoute::pick` returns for the sample `inject` drew —
        /// under the mixture installed at that moment, whatever the pair
        /// had before.
        #[test]
        fn the_stored_handle_is_the_path_pick_returns(
            seed in 0u64..=u64::MAX,
            mixtures in proptest::collection::vec(
                (proptest::collection::vec(0u32..4, 5..6), 0usize..5), 1..6),
        ) {
            // Five two-hop paths a → mᵢ → d, told apart by their delay.
            let mut b = SimBuilder::new(seed);
            let (a, d) = (b.add_node(), b.add_node());
            for i in 0..5 {
                let m = b.add_node();
                b.add_link(a, m, LinkConfig::mbps_ms(100.0, 1 + i, 100));
                b.add_link(m, d, LinkConfig::mbps_ms(100.0, 1, 100));
            }
            let mut sim = b.build();
            let flow = FlowId::from_raw(0);
            let sink = sim.add_agent(d, flow, Box::<Sink>::default());
            let sender = sim.add_agent(a, flow, Box::<Sink>::default());
            sim.start();
            let paths = sim.graph.simple_paths(a, d, 2, 64);
            let mut expected = Vec::new();
            for (mut weights, skip) in mixtures {
                // A mixture over the paths from `skip` on, so that path i of
                // one mixture is not path i of the next.
                weights[skip] += 1;
                let weights: Vec<f64> = weights[skip..].iter().map(|&w| f64::from(w)).collect();
                let mixture = MultipathRoute::with_weights(paths[skip..].to_vec(), &weights);
                sim.routing.set_multipath(a, d, mixture.clone());
                for _ in 0..8 {
                    let u = sim.rng.clone().gen::<f64>();
                    expected.push(mixture.pick(u).links.clone());
                    send_as(&mut sim, sender, d);
                }
            }
            sim.run_to_quiescence();
            proptest::prop_assert_eq!(sunk(&sim, sink).len(), expected.len());
            for &(uid, route) in sunk(&sim, sink) {
                let links = sim.routing.route(route.expect("source-routed"));
                proptest::prop_assert_eq!(links, &*expected[uid as usize]);
            }
            proptest::prop_assert!(sim.routing.route_count() <= 5);
        }
    }

    #[test]
    #[should_panic(expected = "flow f1003 already has an agent at n1")]
    fn a_second_agent_for_a_flow_at_a_node_is_refused() {
        let (mut sim, a, c) = one_link_sim(fast());
        for (node, flow) in [(c, 1003), (c, 7), (a, 1003), (c, u32::MAX - 1), (c, 1003)] {
            sim.add_agent(node, FlowId::from_raw(flow), Box::<Sink>::default());
        }
    }

    #[test]
    fn a_thousand_flaps_between_two_paths_hold_two_routes() {
        // The pair flaps between its two paths every 3 ms while a packet
        // leaves every millisecond and takes 10 ms or more to cross: three
        // or four flaps pass over every packet in flight.
        let mut b = SimBuilder::new(5);
        let (a, m1, m2, d) = (b.add_node(), b.add_node(), b.add_node(), b.add_node());
        let cfg = LinkConfig::mbps_ms(100.0, 5, 4000);
        b.add_duplex(a, m1, cfg.clone());
        b.add_duplex(m1, d, cfg.clone());
        b.add_duplex(a, m2, cfg.clone());
        b.add_duplex(m2, d, cfg);
        let mut sim = b.build();
        sim.enable_trace(&[], 100_000);
        let flap = SimDuration::from_millis(3);
        for i in 0..1_000 {
            sim.schedule_path_pin(SimTime::ZERO + flap * i, a, d, (i % 2) as usize, 4);
        }
        let flow = FlowId::from_raw(0);
        let sends: Vec<u64> = (0..3_000).map(|i| i * 1_000 + 500).collect();
        sim.add_agent(a, flow, SendAt::boxed(d, &sends));
        let sink = sim.add_agent(d, flow, Box::<Sink>::default());
        sim.run_until(SimTime::from_nanos(1_500_000_000));
        assert_eq!(sim.routing.route_count(), 2, "mid-run, with packets pinned to both");
        sim.run_to_quiescence();
        assert_eq!(sim.routing.route_count(), 2);
        assert_eq!((sim.stats.delivered, sim.stats.events), (3_000, 1_000 + 3_000 + 6_000));
        let pinned = [
            [LinkId::from_raw(0), LinkId::from_raw(2)],
            [LinkId::from_raw(4), LinkId::from_raw(6)],
        ];
        let travelled = crate::trace::analysis::paths(&sim.trace_records());
        for &(uid, route) in sunk(&sim, sink) {
            let during = (sends[uid as usize] / 3_000 % 2) as usize;
            assert_eq!(travelled[&uid], pinned[during], "packet {uid}");
            assert_eq!(sim.routing.route(route.unwrap()), pinned[during], "packet {uid}");
        }
    }

    /// Answers every packet, then draws.
    struct Drawer {
        peer: NodeId,
        drew: Vec<f64>,
    }

    impl Agent for Drawer {
        fn on_start(&mut self, _ctx: &mut AgentCtx<'_>) {}
        fn on_packet(&mut self, _p: Packet, ctx: &mut AgentCtx<'_>) {
            ctx.send(self.peer, 40, data(0));
            self.drew.push(ctx.random());
        }
        fn on_timer(&mut self, _ctx: &mut AgentCtx<'_>) {}
    }

    #[test]
    fn an_agents_draw_takes_the_next_sample_of_the_simulators_stream() {
        let run = |seed| {
            let mut b = SimBuilder::new(seed);
            let (a, c) = (b.add_node(), b.add_node());
            b.add_duplex(a, c, fast());
            let mut sim = b.build();
            let flow = FlowId::from_raw(0);
            sim.add_agent(a, flow, Box::new(Blaster { dst: c, count: 3, acked: Vec::new() }));
            let drawer = sim.add_agent(c, flow, Box::new(Drawer { peer: a, drew: Vec::new() }));
            sim.start();
            let mut expected = Vec::new();
            while let Some((at, kind)) = sim.events.pop() {
                let mut stream = sim.rng.clone();
                let delivery = matches!(kind, EventKind::Arrive { node, .. } if node == c);
                sim.step(at, kind);
                if delivery {
                    // The agent sent, then drew: the reply's own draw (for
                    // its place in the queue) came first.
                    let _reply_enqueued: f64 = stream.gen();
                    expected.push(stream.gen::<f64>());
                    let next = sim.rng.clone().gen::<f64>();
                    assert_eq!(next, stream.gen::<f64>(), "and the stream moved on");
                }
            }
            let drew = sim.agent(drawer).as_any().downcast_ref::<Drawer>().unwrap().drew.clone();
            assert_eq!(drew, expected);
            assert_eq!(drew.len(), 3);
            drew
        };
        assert_eq!(run(7), run(7), "reproducible from the seed");
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn trace_captures_full_packet_lifecycle() {
        use crate::trace::{analysis, TraceEventKind};
        let mut b = SimBuilder::new(1);
        let a = b.add_node();
        let c = b.add_node();
        b.add_duplex(a, c, LinkConfig::mbps_ms(10.0, 10, 100));
        let mut sim = b.build();
        sim.enable_trace(&[], 10_000);
        let flow = FlowId::from_raw(0);
        sim.add_agent(a, flow, Box::new(Blaster { dst: c, count: 3, acked: Vec::new() }));
        sim.add_agent(c, flow, Box::new(Echo { peer: a, received: Vec::new() }));
        sim.run_until(SimTime::from_secs_f64(1.0));

        let records = sim.trace_records();
        // 3 data + 3 ack packets, each: Injected, Enqueued, LinkTx, Delivered.
        assert_eq!(records.len(), 6 * 4, "got {} records", records.len());
        let delays = analysis::one_way_delays(&records);
        assert_eq!(delays.len(), 6);
        // First data packet: 0.8 ms serialization + 10 ms propagation.
        assert_eq!(delays[0].1, SimDuration::from_micros(10_800));
        // Each data packet traversed exactly the a→c link.
        let paths = analysis::paths(&records);
        assert_eq!(paths[&0], vec![LinkId::from_raw(0)]);
        assert_eq!(analysis::delivery_reorder_count(&records), 0);
        // Counting sanity: 6 Injected, 6 Delivered.
        let injected =
            records.iter().filter(|r| matches!(r.kind, TraceEventKind::Injected)).count();
        assert_eq!(injected, 6);
    }

    #[test]
    fn trace_records_queue_drops() {
        use crate::trace::TraceEventKind;
        let mut b = SimBuilder::new(1);
        let a = b.add_node();
        let c = b.add_node();
        b.add_duplex(a, c, LinkConfig::mbps_ms(1.0, 10, 2));
        let mut sim = b.build();
        sim.enable_trace(&[], 10_000);
        let flow = FlowId::from_raw(0);
        sim.add_agent(a, flow, Box::new(Blaster { dst: c, count: 10, acked: Vec::new() }));
        sim.add_agent(c, flow, Box::new(Echo { peer: a, received: Vec::new() }));
        sim.run_until(SimTime::from_secs_f64(1.0));
        let drops = sim
            .trace_records()
            .iter()
            .filter(|r| r.kind == TraceEventKind::QueueDrop(LinkId::from_raw(0)))
            .count();
        assert_eq!(drops, 7, "10 sent, 1 in flight + 2 queued survive");
        let dropped_then_delivered = sim
            .trace_records()
            .iter()
            .filter(|r| matches!(r.kind, TraceEventKind::Delivered(_)) && !r.is_ack)
            .count();
        assert_eq!(dropped_then_delivered, 3);
    }

    #[test]
    fn queue_depths_reports_per_link() {
        let mut b = SimBuilder::new(3);
        let a = b.add_node();
        let c = b.add_node();
        // Slow link: a burst parks in the queue.
        b.add_duplex(a, c, LinkConfig::mbps_ms(0.1, 10, 100));
        let mut sim = b.build();
        let flow = FlowId::from_raw(0);
        sim.add_agent(a, flow, Box::new(Blaster { dst: c, count: 50, acked: Vec::new() }));
        sim.add_agent(c, flow, Box::new(Echo { peer: a, received: Vec::new() }));
        sim.run_until(SimTime::from_secs_f64(0.01));
        let depth = sim.links[0].queued();
        assert!(depth > 10, "burst should be queued, got {depth}");
    }

    #[test]
    fn run_until_advances_clock_even_without_events() {
        let mut b = SimBuilder::new(0);
        let _ = b.add_node();
        let mut sim = b.build();
        sim.run_until(SimTime::from_secs_f64(2.0));
        assert_eq!(sim.now(), SimTime::from_secs_f64(2.0));
    }

    #[test]
    fn profiler_hooks_record_when_enabled_and_stay_silent_when_disabled() {
        // Disabled (the default): a full run leaves the registry empty.
        let _ = obs::take();
        {
            let (mut sim, _, _, _, _) = two_node_sim(1);
            sim.run_until(SimTime::from_secs_f64(1.0));
        }
        assert!(obs::take().is_empty(), "disabled profiler must record nothing");

        // Enabled: the same run populates event counters, the heap-depth
        // histogram and the completion gauge. Other tests run concurrently
        // under the global flag but never read their thread-local registries,
        // so the enable/disable bracket is safe.
        obs::enable();
        {
            let (mut sim, _, _, _, _) = two_node_sim(1);
            sim.run_until(SimTime::from_secs_f64(1.0));
            // One deadline moved later three times, one moved earlier: four
            // pops for the two callbacks, the other two accounted for.
            arm_on_start_sim(&[10, 40, 20, 30]).0.run_until(SimTime::from_secs_f64(1.0));
            arm_on_start_sim(&[30, 10]).0.run_until(SimTime::from_secs_f64(1.0));
        }
        let report = obs::take();
        obs::disable();
        let timer_pops =
            ["event.timer", "timer.deferred", "timer.stale"].map(|k| report.counters[k]);
        assert_eq!(timer_pops, [4, 1, 1], "fires = pops - deferred - stale = 2");
        assert!(report.counters.get("event.arrive").copied().unwrap_or(0) > 0);
        // Five data packets and five ACKs, each side sending to one node.
        assert_eq!(report.counters.get("agent.lookups").copied(), Some(2));
        assert_eq!(report.counters.get("sim.completed").copied(), Some(3));
        let samples = |key| report.sim_histograms.get(key).map_or(0, |h| h.total());
        assert!(samples("event.heap_depth") > 0);
        assert_eq!(samples("event.timer_depth"), samples("event.pending"));
        assert!(report.gauges.get("event.heap_peak").copied().unwrap_or(0) > 0);
    }
}
