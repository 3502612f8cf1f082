//! One harness for every cell of every figure.
//!
//! The paper measures every cell of its evaluation the same way — flows
//! sharing a topology, "throughput is the total data sent during the last
//! 60 seconds" — and so do the extensions: what differs between a Figure 2
//! point, a Figure 6 bar, a route-flap row, an ablation, an adversarial
//! hunt cell and a 10k-flow fabric is *data*. A [`Scenario`] is that data:
//! a topology, a route perturbation, the bottleneck's impairments and admin
//! windows, optional cross traffic, the flows and the list of [`Metric`]s
//! to report. [`lower`] turns every [`ScenarioKind`] into one, [`run`]
//! executes it, and the [`CellReport`] it returns serialises exactly the
//! metric list — the list *is* the JSON schema of the kind's
//! `results/*.json` rows.
//!
//! [`run`] builds the simulator in one fixed order: topology → routes →
//! impairment stages → admin schedule → cross traffic → flows. The order
//! is part of every outcome: the event queue breaks ties between
//! simultaneous events by sequence number, and each scheduled route
//! change, admin action and attached agent takes the next one.

use std::any::Any;

use netsim::event::EventQueue;
use netsim::ids::{AgentId, FlowId, LinkId, NodeId};
use netsim::impair::{bandwidth_oscillation, delay_oscillation, flap_schedule, LinkAdmin};
use netsim::link::LinkConfig;
use netsim::sim::{SimBuilder, Simulator};
use netsim::telemetry::{Sampler, SessionStats, TimeSeries};
use netsim::time::{SimDuration, SimTime};
use netsim::trace::{TraceConfig, TraceSink};
use netsim::traffic::{CbrSink, OnOffSource};
use netsim::{derive_seed, AdminEntry, StageConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Value;
use tcp_pr::{TcpPrConfig, TcpPrSender};
use transport::host::{attach_flow, receiver_host, sender_host, FlowHandle, FlowOptions};
use transport::sender::TcpSenderAlgo;
use transport::telemetry::{cwnd_probe, rto_probe, srtt_probe};
use workload::{ChurnConfig, ChurnSink, ChurnSource, ChurnStats, TopologyModel};

use crate::ablations::Ablation;
use crate::figures::fig6::WINDOW_CAP;
use crate::metrics::{cov, jain_fairness, mbps, mean, normalized_throughput};
use crate::runner::{measure_counters, staggered_start, MeasurePlan};
use crate::scale::ScaleConfig;
use crate::sweep::decode::{as_f64, as_str, as_u64, get};
use crate::sweep::spec::{
    profile_name, AdminWindowSpec, ImpairmentSpec, ScenarioKind, TopologySpec,
};
use crate::topologies::{
    dumbbell, multipath_mesh, parking_lot, DumbbellConfig, Mesh, MeshConfig, ParkingLotConfig,
};
use crate::variants::Variant;

/// Everything [`run`] needs to build and measure one cell. [`lower`] is the
/// only producer, so the fields stay crate-private: `run` relies on what it
/// guarantees (impairments only on a dumbbell, route perturbations only
/// where there is more than one path, cross pairs and a churn population
/// only on a topology that has them, a metric list that fits all of it).
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The network.
    pub(crate) topology: Topology,
    /// How the route between the endpoints behaves over time.
    pub(crate) routes: Routes,
    /// Channel impairments on the dumbbell's bottleneck, in pipeline order.
    pub(crate) impairments: Vec<ImpairmentSpec>,
    /// One-shot admin windows on the bottleneck.
    pub(crate) schedule: Vec<AdminWindowSpec>,
    /// Non-TCP traffic sharing the network, installed before the flows.
    pub(crate) cross_traffic: Option<CrossTraffic>,
    /// The TCP flows, attached in order and numbered by position; the first
    /// is the one the single-flow metrics read.
    pub(crate) flows: Vec<Flow>,
    /// What the report holds, in serialisation order.
    pub(crate) metrics: &'static [Metric],
}

/// The network a cell runs on.
#[derive(Debug, Clone, Copy)]
pub enum Topology {
    /// The Figure 5 multipath mesh.
    Mesh(MeshConfig),
    /// Two two-hop paths between one pair, one short and one long.
    Diamond {
        /// One-way delay of the short path's links, ms.
        short_delay_ms: u64,
        /// One-way delay of the long path's links, ms.
        long_delay_ms: u64,
        /// Bandwidth of every link, Mbps.
        link_mbps: f64,
    },
    /// The single-bottleneck dumbbell; impairments apply to its bottleneck.
    Dumbbell(DumbbellConfig),
    /// The Figure 1 parking lot: a main pair across three bottlenecks and
    /// the paper's six cross pairs.
    ParkingLot(ParkingLotConfig),
    /// A generated fat-tree or AS-like graph, expanded from the model and
    /// the run's seed. Host *i* pairs with host *i + H/2*: pair 0 is the
    /// main pair, and every pair is a cross pair.
    Generated(TopologyModel),
}

/// What happens to the route between the endpoints — both ways, so ACKs
/// reorder too.
#[derive(Debug, Clone, Copy)]
pub enum Routes {
    /// Shortest path, never changed.
    Static,
    /// Per-packet ε-routing over every path (Figure 6).
    Multipath {
        /// Spread parameter: 0 is uniform, 500 is in effect single-path.
        epsilon: f64,
    },
    /// Pinned alternately to the shortest and the second-shortest path.
    PinFlap {
        /// Time between switches, ms.
        period_ms: u64,
    },
    /// Re-drawn uniformly among the paths at exponential intervals.
    Churn {
        /// Mean time between route changes, ms.
        mean_interval_ms: u64,
        /// Seed of the churn schedule, independent of the simulation's.
        seed: u64,
    },
}

/// Traffic that is not a TCP flow.
#[derive(Debug, Clone, Copy)]
pub enum CrossTraffic {
    /// An on-off source between the main pair, numbered after the last
    /// flow; its bursts are a pure function of simulated time.
    OnOff {
        /// Rate while bursting, bits per second.
        rate_bps: f64,
        /// Packet size, bytes.
        packet_bytes: u32,
        /// Burst length, ms.
        on_ms: u64,
        /// Silence length, ms.
        off_ms: u64,
    },
    /// A churning heavy-tailed population: one `workload` source and sink
    /// per cross pair, each multiplexing its share of the logical flows.
    Churn {
        /// Concurrent logical flows across all pairs at the start.
        target_flows: u32,
        /// Per-pair load.
        load: ScaleConfig,
    },
}

/// One TCP flow.
#[derive(Debug, Clone, Copy)]
pub struct Flow {
    /// The sending protocol.
    pub variant: Variant,
    /// Receiver-window cap in segments (ns-2's `window_`), if any.
    pub window_cap: Option<f64>,
    /// TCP-PR's parameters, for a TCP-PR flow.
    pub pr: TcpPrConfig,
    /// Whether it starts at [`staggered_start`] of its position and the
    /// run's seed rather than at t = 0.
    pub staggered: bool,
    /// The topology's cross pair it runs between; `None` is the main pair.
    pub cross_pair: Option<usize>,
    /// Whether its goodput is measured. Background flows are not.
    pub under_test: bool,
}

/// The stress and hunt dumbbell: a tighter bottleneck than the fairness
/// one, so loss and oscillation profiles bite — one flow under test plus
/// 2 Mbps of bursty cross traffic against 10 Mbps.
const STRESS_DUMBBELL: DumbbellConfig =
    DumbbellConfig { bottleneck_mbps: 10.0, bottleneck_delay_ms: 20, queue_packets: 100 };

/// Lowers a scenario kind into its [`Scenario`]. Only `Stress` and `Hunt`
/// honour `impairments`, only `Hunt` the `schedule`.
///
/// # Panics
///
/// Panics if a `Fairness` kind asks for an odd number of flows, or none.
pub fn lower(
    kind: &ScenarioKind,
    impairments: &[ImpairmentSpec],
    schedule: &[AdminWindowSpec],
) -> Scenario {
    let flow = |variant, window_cap| Flow {
        variant,
        window_cap,
        pr: TcpPrConfig::default(),
        staggered: false,
        cross_pair: None,
        under_test: true,
    };
    let quiet = |topology, routes, flows| Scenario {
        topology,
        routes,
        impairments: Vec::new(),
        schedule: Vec::new(),
        cross_traffic: None,
        flows,
        metrics: Metric::list(kind),
    };
    let stress_dumbbell = |flows| Scenario {
        impairments: impairments.to_vec(),
        cross_traffic: Some(CrossTraffic::OnOff {
            rate_bps: 2e6,
            packet_bytes: 1000,
            on_ms: 500,
            off_ms: 500,
        }),
        ..quiet(Topology::Dumbbell(STRESS_DUMBBELL), Routes::Static, flows)
    };
    match *kind {
        ScenarioKind::Fairness { topology, n_flows, alpha, beta, .. } => {
            assert!(n_flows >= 2 && n_flows % 2 == 0, "need an even, positive number of flows");
            let (topology, cross_pairs) = match topology {
                TopologySpec::Dumbbell { bottleneck_mbps: mbps } => {
                    let cfg = DumbbellConfig::default();
                    let bottleneck_mbps = mbps.unwrap_or(cfg.bottleneck_mbps);
                    (Topology::Dumbbell(DumbbellConfig { bottleneck_mbps, ..cfg }), 0)
                }
                TopologySpec::ParkingLot { backbone_mbps: mbps } => {
                    let backbone_mbps = mbps.unwrap_or(ParkingLotConfig::default().backbone_mbps);
                    (Topology::ParkingLot(ParkingLotConfig { backbone_mbps }), 6)
                }
            };
            // Test flows alternate TCP-PR(α, β) and TCP-SACK; the parking
            // lot's cross traffic is a long-lived TCP-SACK flow on each of
            // its six cross pairs (Section 4).
            let pr = TcpPrConfig::with_alpha_beta(alpha, beta);
            let test = (0..n_flows).map(|i| Flow {
                pr,
                staggered: true,
                ..flow(if i % 2 == 0 { Variant::TcpPr } else { Variant::Sack }, None)
            });
            let cross = (0..cross_pairs).map(|pair| Flow {
                staggered: true,
                cross_pair: Some(pair),
                under_test: false,
                ..flow(Variant::Sack, None)
            });
            quiet(topology, Routes::Static, test.chain(cross).collect())
        }
        ScenarioKind::Multipath { variant, epsilon, link_delay_ms } => quiet(
            Topology::Mesh(MeshConfig { link_delay_ms, ..MeshConfig::default() }),
            Routes::Multipath { epsilon },
            vec![flow(variant, Some(WINDOW_CAP))],
        ),
        ScenarioKind::RouteFlap {
            variant,
            short_delay_ms,
            long_delay_ms,
            link_mbps,
            flap_period_ms,
        } => quiet(
            Topology::Diamond { short_delay_ms, long_delay_ms, link_mbps },
            Routes::PinFlap { period_ms: flap_period_ms },
            vec![flow(variant, None)],
        ),
        ScenarioKind::Churn { variant, mean_interval_ms, churn_seed } => quiet(
            Topology::Mesh(MeshConfig::default()),
            Routes::Churn { mean_interval_ms, seed: churn_seed },
            vec![flow(variant, Some(WINDOW_CAP))],
        ),
        ScenarioKind::Ablation { ablation } => quiet(
            Topology::Dumbbell(DumbbellConfig::default()),
            Routes::Static,
            vec![Flow { pr: ablation.config(), ..flow(Variant::TcpPr, None) }],
        ),
        ScenarioKind::Stress { variant } => stress_dumbbell(vec![flow(variant, None)]),
        // The hunted variant shares the bottleneck with a TCP-SACK rival.
        ScenarioKind::Hunt { variant } => Scenario {
            schedule: schedule.to_vec(),
            ..stress_dumbbell(vec![flow(variant, None), flow(Variant::Sack, None)])
        },
        // One foreground flow through the loaded fabric, on pair 0's hosts:
        // it competes with the population on its own access links, not just
        // in the core.
        ScenarioKind::Scale { variant, model, target_flows, .. } => Scenario {
            cross_traffic: Some(CrossTraffic::Churn { target_flows, load: ScaleConfig::default() }),
            ..quiet(Topology::Generated(model), Routes::Static, vec![flow(variant, None)])
        },
    }
}

impl Topology {
    /// The `topology` a cell reports.
    fn label(self) -> String {
        match self {
            Topology::Mesh(_) => "mesh".to_owned(),
            Topology::Diamond { .. } => "diamond".to_owned(),
            Topology::Dumbbell(_) => "dumbbell".to_owned(),
            Topology::ParkingLot(_) => "parking-lot".to_owned(),
            Topology::Generated(model) => model.label(),
        }
    }

    /// Builds the network: the main pair and its paths (`n_paths` and
    /// `max_path_hops` bound what a route perturbation enumerates), the
    /// forward links whose drops are the cell's loss rate (impairments
    /// apply to the first), and the cross pairs.
    ///
    /// # Panics
    ///
    /// Panics if a generated topology has fewer than two hosts.
    fn build(self, seed: u64) -> (Mesh, Vec<LinkId>, Vec<(NodeId, NodeId)>) {
        let one_path =
            |sim, src, dst, max_path_hops| Mesh { sim, src, dst, n_paths: 1, max_path_hops };
        match self {
            Topology::Mesh(cfg) => (multipath_mesh(seed, cfg), Vec::new(), Vec::new()),
            Topology::Diamond { short_delay_ms, long_delay_ms, link_mbps } => {
                let mut b = SimBuilder::new(seed);
                let (src, short_mid, long_mid, dst) =
                    (b.add_node(), b.add_node(), b.add_node(), b.add_node());
                for (mid, delay_ms) in [(short_mid, short_delay_ms), (long_mid, long_delay_ms)] {
                    b.add_duplex(src, mid, LinkConfig::mbps_ms(link_mbps, delay_ms, 100));
                    b.add_duplex(mid, dst, LinkConfig::mbps_ms(link_mbps, delay_ms, 100));
                }
                let mesh = Mesh { sim: b.build(), src, dst, n_paths: 2, max_path_hops: 2 };
                (mesh, Vec::new(), Vec::new())
            }
            Topology::Dumbbell(cfg) => {
                let d = dumbbell(seed, cfg);
                (one_path(d.sim, d.src, d.dst, 3), vec![d.bottleneck], Vec::new())
            }
            Topology::ParkingLot(cfg) => {
                let p = parking_lot(seed, cfg);
                (one_path(p.sim, p.src, p.dst, 5), p.chain.to_vec(), p.cross_pairs)
            }
            Topology::Generated(model) => {
                let topo = model.generate(seed);
                let pairs = topo.hosts.len() / 2;
                assert!(pairs >= 1, "generated topology must expose at least two hosts");
                let mut b = SimBuilder::new(seed);
                let m = topo.materialize(&mut b);
                let node = |host: usize| m.nodes[topo.hosts[host]];
                let cross_pairs = (0..pairs).map(|i| (node(i), node(i + pairs))).collect();
                (one_path(b.build(), node(0), node(pairs), 0), Vec::new(), cross_pairs)
            }
        }
    }
}

impl Routes {
    /// Installs or schedules the perturbation up to `until`; returns the
    /// number of scheduled route changes.
    fn install(self, net: &mut Mesh, until: SimTime) -> u64 {
        let hops = net.max_path_hops;
        let both_ways = [(net.src, net.dst), (net.dst, net.src)];
        let mut changes = 0;
        match self {
            Routes::Static => {}
            Routes::Multipath { epsilon } => {
                for (from, to) in both_ways {
                    net.sim.install_multipath(from, to, epsilon, hops);
                }
            }
            Routes::PinFlap { period_ms } => {
                let mut at = SimTime::ZERO;
                let mut path = 0;
                while at < until {
                    for (from, to) in both_ways {
                        net.sim.schedule_path_pin(at, from, to, path, hops);
                    }
                    path = 1 - path;
                    at += SimDuration::from_millis(period_ms);
                }
            }
            Routes::Churn { mean_interval_ms, seed } => {
                // Exponential inter-arrival times and a uniform path
                // choice, drawn for one direction after the other.
                let mut rng = SmallRng::seed_from_u64(seed);
                let mean_s = SimDuration::from_millis(mean_interval_ms).as_secs_f64();
                for (from, to) in both_ways {
                    let mut at = SimTime::ZERO;
                    while at < until {
                        let path = rng.gen_range(0..net.n_paths);
                        net.sim.schedule_path_pin(at, from, to, path, hops);
                        changes += 1;
                        let dt = -mean_s * (1.0 - rng.gen::<f64>()).ln();
                        at += SimDuration::from_secs_f64(dt.max(1e-3));
                    }
                }
            }
        }
        changes
    }
}

/// Installs the scenario's impairments and admin windows on the dumbbell's
/// bottleneck: per-packet entries become the link's stage pipeline, in list
/// order; periodic ones become admin schedules that oscillate from the
/// link's configured rate and delay until `until`; each window enters at
/// `at_ms` and restores the link's default at `at_ms + dur_ms`.
fn impair(
    sim: &mut Simulator,
    link: LinkId,
    cfg: DumbbellConfig,
    scenario: &Scenario,
    until: SimTime,
) {
    let ms = SimDuration::from_millis;
    let at = |t| SimTime::ZERO + ms(t);
    let (mut stages, mut schedules) = (Vec::new(), Vec::new());
    for imp in &scenario.impairments {
        match *imp {
            ImpairmentSpec::IidLoss { p } => stages.push(StageConfig::IidLoss { p }),
            ImpairmentSpec::BurstLoss { p_good_to_bad, p_bad_to_good, loss_bad } => {
                let loss_good = 0.0;
                stages.push(StageConfig::GilbertElliott {
                    p_good_to_bad,
                    p_bad_to_good,
                    loss_good,
                    loss_bad,
                });
            }
            ImpairmentSpec::Jitter { prob, max_extra_ms } => {
                stages.push(StageConfig::Jitter { prob, max_extra: ms(max_extra_ms) });
            }
            ImpairmentSpec::Displace { every, depth } => {
                stages.push(StageConfig::Displace { every, depth });
            }
            ImpairmentSpec::Duplicate { p } => stages.push(StageConfig::Duplicate { p }),
            ImpairmentSpec::Flap { period_ms, down_ms } => {
                schedules.push(flap_schedule(ms(period_ms), ms(down_ms), until));
            }
            ImpairmentSpec::BandwidthOscillation { low_mbps, period_ms } => {
                let (base, low) = (cfg.bottleneck_mbps * 1e6, low_mbps * 1e6);
                schedules.push(bandwidth_oscillation(base, low, ms(period_ms), until));
            }
            ImpairmentSpec::DelayOscillation { high_delay_ms, period_ms } => {
                let (base, high) = (ms(cfg.bottleneck_delay_ms), ms(high_delay_ms));
                schedules.push(delay_oscillation(base, high, ms(period_ms), until));
            }
        }
    }
    for w in &scenario.schedule {
        let (from, to, enter, leave) = match *w {
            AdminWindowSpec::Down { at_ms, dur_ms } => {
                (at_ms, at_ms + dur_ms, LinkAdmin::Down, LinkAdmin::Up)
            }
            AdminWindowSpec::Delay { at_ms, dur_ms, delay_ms } => {
                let set = |delay| LinkAdmin::SetDelay { delay: ms(delay) };
                (at_ms, at_ms + dur_ms, set(delay_ms), set(cfg.bottleneck_delay_ms))
            }
        };
        schedules.push(vec![
            AdminEntry { at: at(from), action: enter },
            AdminEntry { at: at(to), action: leave },
        ]);
    }
    if !stages.is_empty() {
        sim.set_link_impairments(link, &stages);
    }
    for entries in &schedules {
        sim.apply_admin_schedule(link, entries);
    }
}

/// Packet-trace capacity of a captured cell: a 4 s smoke cell on the stress
/// dumbbell stays well under 200k lifecycle events, and an overflow is
/// reported (`dropped_trace`), never silent.
const CAPTURE_TRACE_CAP: usize = 262_144;
/// Span retention cap of a captured cell (vs. [`obs::MAX_SPANS`]): CC state
/// machines under adversarial schedules emit far more than 4096 spans in 4 s.
const CAPTURE_SPAN_CAP: usize = 65_536;
/// Sampling period of the captured time series.
const CAPTURE_SAMPLE_MS: u64 = 100;

/// What [`run`] observes beside the report. Observing only reads the
/// simulation, so the [`CellReport`] is the same whichever it is.
pub enum Observe<'a> {
    /// Nothing.
    Nothing,
    /// Record the whole run into a [`Capture`].
    Capture(&'a mut Capture),
    /// Stream every trace record of flow 0 to the sink (`repro
    /// --telemetry-dir`); the in-memory buffer stays a small ring.
    Stream(Box<dyn TraceSink>),
}

/// What [`Observe::Capture`] records: every packet's lifecycle, the CC and
/// admin spans, and sampled series of the first flow (`:hunted`), the
/// second (`:rival`) and the bottleneck queue.
#[derive(Debug, Default)]
pub struct Capture {
    /// Packet lifecycle events from the in-sim tracer.
    pub trace: Vec<netsim::trace::TraceRecord>,
    /// Lifecycle events the trace buffer could not retain.
    pub dropped_trace: u64,
    /// CC / admin spans drained from the executing thread.
    pub spans: Vec<obs::SpanRecord>,
    /// Spans not retained because the span cap was reached.
    pub spans_dropped: u64,
    /// Sampled cwnd / srtt / rto / goodput / queue-depth series.
    pub series: Vec<TimeSeries>,
}

/// A capture in progress: the sampler and the profiler state to restore.
struct Recording {
    sampler: Sampler,
    obs_was_enabled: bool,
    span_cap: usize,
}

impl Recording {
    fn start(handles: &[FlowHandle], bottleneck: Option<LinkId>) -> Recording {
        type Algo = Box<dyn TcpSenderAlgo>;
        let obs_was_enabled = obs::enabled();
        obs::enable();
        // Start from a clean thread-local profile so the drained spans
        // belong to this cell only.
        let _ = obs::take();
        let span_cap = obs::set_span_capacity(CAPTURE_SPAN_CAP);
        let hunted = handles[0];
        let mut sampler = Sampler::new(SimDuration::from_millis(CAPTURE_SAMPLE_MS));
        sampler.add_probe("cwnd:hunted", cwnd_probe::<Algo>(hunted.sender));
        sampler.add_probe("srtt:hunted", srtt_probe::<Algo>(hunted.sender));
        sampler.add_probe("rto:hunted", rto_probe::<Algo>(hunted.sender));
        if let Some(rival) = handles.get(1) {
            sampler.add_probe("cwnd:rival", cwnd_probe::<Algo>(rival.sender));
        }
        sampler.add_probe(
            "recv_bytes:hunted",
            Box::new(move |sim: &Simulator| {
                receiver_host(sim, hunted.receiver).received_unique_bytes() as f64
            }),
        );
        if let Some(link) = bottleneck {
            sampler.add_link_queue_depth(link);
        }
        Recording { sampler, obs_was_enabled, span_cap }
    }

    fn finish(self, sim: &Simulator) -> Capture {
        let profile = obs::take();
        obs::set_span_capacity(self.span_cap);
        if !self.obs_was_enabled {
            obs::disable();
        }
        Capture {
            trace: sim.trace_records(),
            dropped_trace: sim.dropped_trace_records(),
            spans: profile.spans,
            spans_dropped: profile.spans_dropped,
            series: self.sampler.into_series(),
        }
    }
}

/// The installed churn population: a source and a sink agent per pair.
struct Population {
    sources: Vec<AgentId>,
    sinks: Vec<AgentId>,
}

impl Population {
    /// Spreads `target_flows` over the pairs, the remainder on the first
    /// ones. Each pair's stream is keyed by [`derive_seed`] over its index.
    fn install(
        sim: &mut Simulator,
        pairs: &[(NodeId, NodeId)],
        target_flows: u32,
        load: ScaleConfig,
        seed: u64,
    ) -> Population {
        let (base, extra) = (target_flows / pairs.len() as u32, target_flows % pairs.len() as u32);
        let (mut sources, mut sinks) = (Vec::new(), Vec::new());
        for (i, &(src, dst)) in (0u32..).zip(pairs) {
            let flow = FlowId::from_raw(1000 + i);
            let churn = ChurnConfig {
                dst,
                rate_bps: load.pair_rate_bps,
                packet_bytes: load.packet_bytes,
                initial_flows: base + u32::from(i < extra),
                arrival_rate_hz: load.arrival_rate_hz,
                sizes: load.sizes,
                // High-bit namespace keeps pair streams disjoint from the
                // topology generator's per-link streams.
                seed: derive_seed(seed, 0x8000_0000 | i),
            };
            sources.push(sim.add_agent(src, flow, Box::new(ChurnSource::new(churn))));
            sinks.push(sim.add_agent(dst, flow, Box::new(ChurnSink::new())));
        }
        Population { sources, sinks }
    }

    /// Bytes the sinks have received so far.
    fn delivered(&self, sim: &Simulator) -> u64 {
        let sink = |&id| sim.agent(id).as_any().downcast_ref::<ChurnSink>().expect("a churn sink");
        self.sinks.iter().map(|id| sink(id).bytes).sum()
    }

    /// The per-pair accumulators merged in pair order (a fixed order keeps
    /// the floating-point sums bit-reproducible), and the measured bytes of
    /// state per peak concurrent flow — churn slabs plus the event heap's
    /// and the packet arena's peaks — which `run_health` reports too.
    fn summarize(&self, sim: &Simulator) -> (ChurnStats, u64) {
        let mut merged = ChurnStats::default();
        let mut state_bytes = 0;
        for &id in &self.sources {
            let source = sim.agent(id).as_any().downcast_ref::<ChurnSource>();
            let source = source.expect("a churn source");
            merged.merge(source.stats());
            state_bytes += source.state_bytes();
        }
        // An upper bound: only an event with a payload slot holds the full
        // record. A `LinkReady`, a timer pop or a lane's head holds its
        // 16-byte key alone, and an arrival queued behind that head a 24-byte
        // lane entry.
        let heap_bytes = (sim.event_heap_peak() * EventQueue::record_bytes()) as u64;
        // A pending `Arrive` is a handle; the packet it names is an arena slot.
        let packet_bytes = (sim.packet_peak() * std::mem::size_of::<netsim::Packet>()) as u64;
        let bytes_per_flow = (state_bytes + heap_bytes + packet_bytes) / merged.peak_active.max(1);
        (merged, bytes_per_flow)
    }
}

/// Builds the scenario's simulator — topology, routes, impairment stages,
/// admin schedule, cross traffic, flows, in that order — runs it through
/// the plan and reports the scenario's metrics, observing the run as asked.
/// Beside them it returns the run's health: the simulator's report, with the
/// churn population's peak and per-flow bytes where there is one.
pub fn run(
    scenario: &Scenario,
    plan: MeasurePlan,
    seed: u64,
    observe: Observe<'_>,
) -> (CellReport, SessionStats) {
    let until = SimTime::ZERO + plan.total();
    let (mut net, bottlenecks, cross_pairs) = scenario.topology.build(seed);
    let route_changes = scenario.routes.install(&mut net, until);

    if let Topology::Dumbbell(cfg) = scenario.topology {
        impair(&mut net.sim, bottlenecks[0], cfg, scenario, until);
    }

    let population = match scenario.cross_traffic {
        None => None,
        Some(CrossTraffic::OnOff { rate_bps, packet_bytes, on_ms, off_ms }) => {
            let (on, off) = (SimDuration::from_millis(on_ms), SimDuration::from_millis(off_ms));
            let source = OnOffSource::new(net.dst, rate_bps, packet_bytes, on, off, SimTime::ZERO);
            let flow = FlowId::from_raw(scenario.flows.len() as u32);
            net.sim.add_agent(net.src, flow, Box::new(source));
            net.sim.add_agent(net.dst, flow, Box::new(CbrSink::new()));
            None
        }
        Some(CrossTraffic::Churn { target_flows, load }) => {
            Some(Population::install(&mut net.sim, &cross_pairs, target_flows, load, seed))
        }
    };

    let capture = match observe {
        Observe::Nothing => None,
        Observe::Capture(out) => {
            net.sim.enable_trace(&[], CAPTURE_TRACE_CAP);
            Some(out)
        }
        Observe::Stream(sink) => {
            net.sim.enable_trace_with(TraceConfig::new(&[FlowId::from_raw(0)], 4096).keep_latest());
            net.sim.set_trace_sink(sink);
            None
        }
    };
    let handles: Vec<FlowHandle> = (0u32..)
        .zip(&scenario.flows)
        .map(|(i, f)| {
            let algo = f.variant.build_with(f.pr, f.window_cap.unwrap_or(f.pr.max_cwnd));
            let (src, dst) = f.cross_pair.map_or((net.src, net.dst), |pair| cross_pairs[pair]);
            let start_at =
                if f.staggered { staggered_start(i as usize, seed) } else { SimTime::ZERO };
            let options = FlowOptions { start_at, ..FlowOptions::default() };
            attach_flow(&mut net.sim, FlowId::from_raw(i), src, dst, algo, options)
        })
        .collect();

    let mut recording =
        capture.is_some().then(|| Recording::start(&handles, bottlenecks.first().copied()));
    let sampler = recording.as_mut().map(|r| &mut r.sampler);
    // Every flow's receiver, then the population's sinks as one counter.
    let counters = |sim: &Simulator| {
        let flows = handles.iter().map(|h| receiver_host(sim, h.receiver).received_unique_bytes());
        flows.chain(population.iter().map(|p| p.delivered(sim))).collect()
    };
    let delivered = measure_counters(&mut net.sim, plan, sampler, counters);

    let observed = Observed {
        scenario,
        sim: &net.sim,
        flow: handles[0],
        delivered,
        window_s: plan.window.as_secs_f64(),
        route_changes,
        bottlenecks: &bottlenecks,
        churn: population.map(|p| p.summarize(&net.sim)),
    };
    let report = CellReport(scenario.metrics.iter().map(|&m| (m, observed.measure(m))).collect());
    if let (Some(out), Some(recording)) = (capture, recording) {
        *out = recording.finish(&net.sim);
    }
    let mut health = net.sim.run_health();
    if let Some((churn, bytes_per_flow)) = observed.churn {
        health.workload_flows = churn.peak_active;
        health.workload_bytes_per_flow = bytes_per_flow;
    }
    (report, health)
}

/// [`lower`] then [`run`], unobserved: the one call that measures a cell of
/// `kind`.
pub fn run_kind(
    kind: &ScenarioKind,
    impairments: &[ImpairmentSpec],
    schedule: &[AdminWindowSpec],
    plan: MeasurePlan,
    seed: u64,
) -> CellReport {
    run(&lower(kind, impairments, schedule), plan, seed, Observe::Nothing).0
}

/// One reportable quantity of a cell. A kind's metric list is the schema
/// of its outcome: [`Metric::key`] is the JSON key, the list order is the
/// key order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Protocol of the first flow (scenario parameter).
    Variant,
    /// Removed TCP-PR mechanism of the first flow (scenario parameter).
    Ablation,
    /// Name of the topology (scenario parameter).
    Topology,
    /// Number of flows under test (scenario parameter).
    NFlows,
    /// Logical flows the churn population starts with (scenario parameter).
    TargetFlows,
    /// Routing parameter ε (scenario parameter).
    Epsilon,
    /// Per-link propagation delay of the mesh, ms (scenario parameter).
    LinkDelayMs,
    /// Impairment and window tags joined by `+`, or `baseline`.
    Profile,
    /// Goodput of the first flow over the measurement window, Mbps.
    Mbps,
    /// The same, as the scale suite names it.
    ForegroundMbps,
    /// Goodput of the second flow, Mbps.
    RivalMbps,
    /// Jain fairness over per-flow goodput — of the churn population's
    /// completed flows where there is one, else of the flows under test;
    /// 0 when all starve.
    Jain,
    /// Window bytes of each TCP-PR flow under test over the mean of all
    /// flows under test (the paper's normalized throughput).
    PrNormalized,
    /// The same for each flow under test that is not TCP-PR.
    SackNormalized,
    /// Mean of `PrNormalized`.
    MeanPr,
    /// Mean of `SackNormalized`.
    MeanSack,
    /// Coefficient of variation of `PrNormalized`.
    CovPr,
    /// Coefficient of variation of `SackNormalized`.
    CovSack,
    /// Drops over offered packets across the forward bottlenecks, %.
    LossRatePct,
    /// Peak concurrent logical flows reached (sum of per-pair peaks).
    PeakFlows,
    /// Logical flows that arrived (initial population + Poisson arrivals).
    Arrivals,
    /// Logical flows that ran to completion.
    Completions,
    /// Coefficient of variation of the population's per-flow goodput.
    GoodputCov,
    /// p99 flow-completion time, ms (the log histogram's upper bound).
    P99FctMs,
    /// Mean flow-completion time, ms.
    MeanFctMs,
    /// Churn bytes delivered over the window, Mbps.
    DeliveredMbps,
    /// Measured bytes of state per peak concurrent flow (flat-memory claim).
    BytesPerFlow,
    /// Segments retransmitted by the first sender.
    Retransmits,
    /// Data segments it put on the wire.
    SegmentsSent,
    /// Reordered (late) first-time arrivals at its receiver.
    LateArrivals,
    /// Mean reorder displacement at its receiver, segments.
    MeanDisplacement,
    /// Duplicate segments seen by its receiver.
    ReceiverDuplicates,
    /// Queue drops across the network (congestion losses).
    QueueDrops,
    /// Route changes scheduled over the run.
    RouteChanges,
    /// TCP-PR window halvings.
    WindowHalvings,
    /// TCP-PR extreme-loss episodes.
    ExtremeLossEvents,
    /// Packets destroyed by the impairment pipeline and down links.
    ImpairDrops,
    /// Packets duplicated on the wire.
    ImpairDups,
    /// Packets given extra delay by the jitter/displacement stages.
    ReorderDisplacements,
    /// Up → down transitions of the bottleneck.
    LinkFlaps,
    /// Invariant violations reported by `netsim::oracle::check`.
    OracleViolations,
    /// Events dispatched at instants earlier than the clock.
    TimeRegressions,
}

impl Metric {
    /// One fairness run (Figures 2, 3 and 4).
    pub const FAIRNESS: [Metric; 9] = [
        Metric::Topology,
        Metric::NFlows,
        Metric::PrNormalized,
        Metric::SackNormalized,
        Metric::MeanPr,
        Metric::MeanSack,
        Metric::CovPr,
        Metric::CovSack,
        Metric::LossRatePct,
    ];
    /// One bar of Figure 6 (and of the face-off).
    pub const MULTIPATH: [Metric; 8] = [
        Metric::Variant,
        Metric::Epsilon,
        Metric::LinkDelayMs,
        Metric::Mbps,
        Metric::Retransmits,
        Metric::SegmentsSent,
        Metric::LateArrivals,
        Metric::QueueDrops,
    ];
    /// One route-flap run.
    pub const ROUTEFLAP: [Metric; 5] = [
        Metric::Variant,
        Metric::Mbps,
        Metric::LateArrivals,
        Metric::MeanDisplacement,
        Metric::Retransmits,
    ];
    /// One churn run.
    pub const CHURN: [Metric; 5] = [
        Metric::Variant,
        Metric::Mbps,
        Metric::RouteChanges,
        Metric::LateArrivals,
        Metric::Retransmits,
    ];
    /// One ablation run.
    pub const ABLATION: [Metric; 5] = [
        Metric::Ablation,
        Metric::Mbps,
        Metric::WindowHalvings,
        Metric::ExtremeLossEvents,
        Metric::Retransmits,
    ];
    /// One stress cell.
    pub const STRESS: [Metric; 11] = [
        Metric::Variant,
        Metric::Profile,
        Metric::Mbps,
        Metric::Retransmits,
        Metric::SegmentsSent,
        Metric::LateArrivals,
        Metric::ReceiverDuplicates,
        Metric::ImpairDrops,
        Metric::ImpairDups,
        Metric::ReorderDisplacements,
        Metric::LinkFlaps,
    ];
    /// One hunt cell.
    pub const HUNT: [Metric; 10] = [
        Metric::Variant,
        Metric::Profile,
        Metric::Mbps,
        Metric::RivalMbps,
        Metric::Jain,
        Metric::Retransmits,
        Metric::ImpairDrops,
        Metric::LinkFlaps,
        Metric::OracleViolations,
        Metric::TimeRegressions,
    ];

    /// One scale cell.
    pub const SCALE: [Metric; 13] = [
        Metric::Variant,
        Metric::Topology,
        Metric::TargetFlows,
        Metric::PeakFlows,
        Metric::Arrivals,
        Metric::Completions,
        Metric::Jain,
        Metric::GoodputCov,
        Metric::P99FctMs,
        Metric::MeanFctMs,
        Metric::ForegroundMbps,
        Metric::DeliveredMbps,
        Metric::BytesPerFlow,
    ];

    /// The metric list of a kind: what its cells report and its outcomes
    /// decode against.
    pub fn list(kind: &ScenarioKind) -> &'static [Metric] {
        match kind {
            ScenarioKind::Fairness { .. } => &Metric::FAIRNESS,
            ScenarioKind::Multipath { .. } => &Metric::MULTIPATH,
            ScenarioKind::RouteFlap { .. } => &Metric::ROUTEFLAP,
            ScenarioKind::Churn { .. } => &Metric::CHURN,
            ScenarioKind::Ablation { .. } => &Metric::ABLATION,
            ScenarioKind::Stress { .. } => &Metric::STRESS,
            ScenarioKind::Hunt { .. } => &Metric::HUNT,
            ScenarioKind::Scale { .. } => &Metric::SCALE,
        }
    }

    /// The metric's JSON key: its name in snake_case.
    pub fn key(self) -> String {
        let mut key = String::new();
        for c in format!("{self:?}").chars() {
            if c.is_ascii_uppercase() && !key.is_empty() {
                key.push('_');
            }
            key.push(c.to_ascii_lowercase());
        }
        key
    }

    /// Reads the metric out of an outcome object as [`run`] produced it:
    /// names resolve, floats — alone or in a list — accept the integers the
    /// JSON printer turns integral floats into, counts are non-negative.
    fn decode(self, outcome: &Value) -> Option<Value> {
        let raw = get(outcome, &self.key())?;
        let float = |v: &Value| as_f64(v).map(Value::Float);
        Some(match self {
            Metric::Variant => Variant::from_name(as_str(raw)?).map(|_| raw.clone())?,
            Metric::Ablation => Ablation::from_name(as_str(raw)?).map(|_| raw.clone())?,
            Metric::Profile | Metric::Topology => Value::Str(as_str(raw)?.to_owned()),
            Metric::PrNormalized | Metric::SackNormalized => match raw {
                Value::Array(items) => {
                    Value::Array(items.iter().map(float).collect::<Option<_>>()?)
                }
                _ => return None,
            },
            Metric::Epsilon
            | Metric::Mbps
            | Metric::ForegroundMbps
            | Metric::RivalMbps
            | Metric::Jain
            | Metric::MeanPr
            | Metric::MeanSack
            | Metric::CovPr
            | Metric::CovSack
            | Metric::LossRatePct
            | Metric::GoodputCov
            | Metric::P99FctMs
            | Metric::MeanFctMs
            | Metric::DeliveredMbps
            | Metric::MeanDisplacement => float(raw)?,
            _ => Value::UInt(as_u64(raw)?),
        })
    }
}

/// A finished run, as the metrics read it: `flow` is the first flow,
/// `delivered` every flow's window bytes in attach order and then the
/// churn population's, `churn` the population's summary.
struct Observed<'a> {
    scenario: &'a Scenario,
    sim: &'a Simulator,
    flow: FlowHandle,
    delivered: Vec<u64>,
    window_s: f64,
    route_changes: u64,
    bottlenecks: &'a [LinkId],
    churn: Option<(ChurnStats, u64)>,
}

impl Observed<'_> {
    /// Protocol and window bytes of each flow under test, in attach order.
    fn tested(&self) -> impl Iterator<Item = (Variant, u64)> + '_ {
        let flows = self.scenario.flows.iter().zip(&self.delivered);
        flows.filter(|(f, _)| f.under_test).map(|(f, &bytes)| (f.variant, bytes))
    }

    /// The normalized throughput of the TCP-PR flows under test and of the
    /// others; the mean it divides by sums the TCP-PR flows first.
    fn normalized(&self) -> (Vec<f64>, Vec<f64>) {
        let side = |pr| self.tested().filter(move |&(v, _)| (v == Variant::TcpPr) == pr);
        let bytes: Vec<f64> = side(true).chain(side(false)).map(|(_, b)| b as f64).collect();
        let mut normalized = normalized_throughput(&bytes);
        let others = normalized.split_off(side(true).count());
        (normalized, others)
    }

    fn measure(&self, metric: Metric) -> Value {
        let sc = self.scenario;
        let tx = || sender_host::<Box<dyn TcpSenderAlgo>>(self.sim, self.flow.sender);
        let rx = || receiver_host(self.sim, self.flow.receiver).receiver_stats();
        // Ablation cells run TCP-PR only. Downcast the sender, not its box.
        let pr = || {
            let algo: &dyn Any = &**tx().algo();
            algo.downcast_ref::<TcpPrSender>().expect("an ablation cell runs TCP-PR").stats()
        };
        let totals = || self.sim.impair_totals();
        let goodput = |i: usize| Value::Float(mbps(self.delivered[i], self.window_s));
        let floats = |xs: Vec<f64>| Value::Array(xs.into_iter().map(Value::Float).collect());
        let population = || self.churn.as_ref().expect("a churn population");
        let churn = || &population().0;
        match metric {
            Metric::Variant => serde::Serialize::to_value(&sc.flows[0].variant),
            Metric::Ablation => serde::Serialize::to_value(&Ablation::of(&sc.flows[0].pr)),
            Metric::Topology => Value::Str(sc.topology.label()),
            Metric::NFlows => Value::UInt(self.tested().count() as u64),
            Metric::TargetFlows => match sc.cross_traffic {
                Some(CrossTraffic::Churn { target_flows, .. }) => Value::UInt(target_flows.into()),
                _ => Value::Null,
            },
            Metric::Epsilon => match sc.routes {
                Routes::Multipath { epsilon } => Value::Float(epsilon),
                _ => Value::Null,
            },
            Metric::LinkDelayMs => match sc.topology {
                Topology::Mesh(cfg) => Value::UInt(cfg.link_delay_ms),
                _ => Value::Null,
            },
            Metric::Profile => Value::Str(profile_name(&sc.impairments, &sc.schedule)),
            Metric::Mbps | Metric::ForegroundMbps => goodput(0),
            Metric::RivalMbps => goodput(1),
            Metric::Jain => {
                let xs: Vec<f64> = self.tested().map(|(_, b)| mbps(b, self.window_s)).collect();
                let fed = xs.iter().sum::<f64>() > 0.0;
                let churned = self.churn.as_ref().map(|c| c.0.goodput_bps.jain().unwrap_or(0.0));
                Value::Float(churned.unwrap_or(if fed { jain_fairness(&xs) } else { 0.0 }))
            }
            Metric::PrNormalized => floats(self.normalized().0),
            Metric::SackNormalized => floats(self.normalized().1),
            Metric::MeanPr => Value::Float(mean(&self.normalized().0)),
            Metric::MeanSack => Value::Float(mean(&self.normalized().1)),
            Metric::CovPr => Value::Float(cov(&self.normalized().0)),
            Metric::CovSack => Value::Float(cov(&self.normalized().1)),
            Metric::LossRatePct => {
                let queues = || self.bottlenecks.iter().map(|&l| &self.sim.link(l).queue);
                let drops: u64 = queues().map(|q| q.drops()).sum();
                let offered = drops + queues().map(|q| q.enqueues()).sum::<u64>();
                Value::Float(if offered > 0 { 100.0 * drops as f64 / offered as f64 } else { 0.0 })
            }
            Metric::PeakFlows => Value::UInt(churn().peak_active),
            Metric::Arrivals => Value::UInt(churn().arrivals),
            Metric::Completions => Value::UInt(churn().completions),
            Metric::GoodputCov => Value::Float(churn().goodput_bps.cov().unwrap_or(0.0)),
            Metric::P99FctMs => {
                Value::Float(churn().fct_us.quantile_upper_bound(0.99).unwrap_or(0) as f64 / 1000.0)
            }
            Metric::MeanFctMs => Value::Float(churn().fct_us.mean() / 1000.0),
            Metric::DeliveredMbps => goodput(sc.flows.len()),
            Metric::BytesPerFlow => Value::UInt(population().1),
            Metric::Retransmits => Value::UInt(tx().stats().retransmits),
            Metric::SegmentsSent => Value::UInt(tx().stats().segments_sent),
            Metric::LateArrivals => Value::UInt(rx().late_arrivals),
            Metric::MeanDisplacement => Value::Float(rx().mean_displacement()),
            Metric::ReceiverDuplicates => Value::UInt(rx().duplicates),
            Metric::QueueDrops => Value::UInt(self.sim.stats().queue_drops),
            Metric::RouteChanges => Value::UInt(self.route_changes),
            Metric::WindowHalvings => Value::UInt(pr().window_halvings),
            Metric::ExtremeLossEvents => Value::UInt(pr().extreme_loss_events),
            Metric::ImpairDrops => Value::UInt(totals().drops()),
            Metric::ImpairDups => Value::UInt(totals().duplicates),
            Metric::ReorderDisplacements => Value::UInt(totals().reorder_displacements()),
            Metric::LinkFlaps => Value::UInt(totals().flaps),
            Metric::OracleViolations => {
                Value::UInt(netsim::oracle::check(&self.sim.invariant_snapshot()).len() as u64)
            }
            Metric::TimeRegressions => Value::UInt(self.sim.stats().time_regressions),
        }
    }
}

/// The outcome of one cell: a value per metric of the scenario's list, in
/// list order. Serialises to the JSON object `{key: value, …}`.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport(Vec<(Metric, Value)>);

impl CellReport {
    /// Reads a report back out of its serialised form (a cache entry, a
    /// sweep outcome); `None` unless every metric of `metrics` is present
    /// with a value of its type.
    pub fn decode(metrics: &[Metric], outcome: &Value) -> Option<CellReport> {
        metrics
            .iter()
            .map(|&m| Some((m, m.decode(outcome)?)))
            .collect::<Option<_>>()
            .map(CellReport)
    }

    fn get(&self, metric: Metric) -> &Value {
        let found = self.0.iter().find(|(m, _)| *m == metric);
        &found.unwrap_or_else(|| panic!("this cell does not report {metric:?}")).1
    }

    /// A numeric metric (counts widen to `f64`). Panics if the report does
    /// not hold `metric` as a number.
    pub fn num(&self, metric: Metric) -> f64 {
        as_f64(self.get(metric)).unwrap_or_else(|| panic!("{metric:?} is not a number"))
    }

    /// A vector-valued metric. Panics if the report does not hold `metric`
    /// as a list.
    pub fn nums(&self, metric: Metric) -> Vec<f64> {
        match self.get(metric) {
            Value::Array(items) => items.iter().filter_map(as_f64).collect(),
            _ => panic!("{metric:?} is not a vector"),
        }
    }

    /// A textual metric as it serialises. Panics if the report does not hold
    /// `metric` as text.
    pub fn text(&self, metric: Metric) -> &str {
        as_str(self.get(metric)).unwrap_or_else(|| panic!("{metric:?} is not text"))
    }

    /// How a table shows the metric: names as their display labels, floats
    /// to `decimals` places (a completion time with its unit), counts and
    /// text as they are.
    fn display(&self, metric: Metric, decimals: usize) -> String {
        let label = |name: &str| match metric {
            Metric::Variant => Variant::from_name(name).map(Variant::label),
            Metric::Ablation => Ablation::from_name(name).map(Ablation::label),
            _ => None,
        };
        match self.get(metric) {
            Value::Str(s) => label(s).unwrap_or(s).to_owned(),
            Value::Float(x) if metric == Metric::P99FctMs => format!("{x:.decimals$}ms"),
            Value::Float(x) => format!("{x:.decimals$}"),
            Value::UInt(n) => n.to_string(),
            other => format!("{other:?}"),
        }
    }
}

impl serde::Serialize for CellReport {
    fn to_value(&self) -> Value {
        Value::Object(self.0.iter().map(|(m, v)| (m.key(), v.clone())).collect())
    }
}

/// One column of a [`Table::Rows`] table: header, metric, padded width (0
/// for the unpadded last column) and decimal places of a float metric.
pub type Column = (&'static str, Metric, usize, usize);

/// How a list of reports prints.
#[derive(Debug, Clone, Copy)]
pub enum Table {
    /// One row per report, one column per listed metric.
    Rows {
        /// First line.
        title: &'static str,
        /// The columns, left to right.
        columns: &'static [Column],
    },
    /// Protocols down, ε across: one cell per (variant, ε) report.
    Pivot {
        /// First line, completed with the mesh's link delay.
        title: &'static str,
        /// Width of a cell.
        width: usize,
        /// Renders one cell.
        cell: fn(&CellReport) -> String,
    },
}

impl Table {
    /// Figure 6: goodput per (variant, ε).
    pub const FIG6: Table = Table::Pivot {
        title: "Figure 6 — throughput (Mbps), link delay",
        width: 9,
        cell: |r| r.display(Metric::Mbps, 2),
    };
    /// Face-off: goodput plus retransmission overhead per (variant, ε).
    pub const FACEOFF: Table = Table::Pivot {
        title: "Face-off — goodput Mbps (retransmit %), mesh link delay",
        width: 17,
        cell: |r| {
            let sent = r.num(Metric::SegmentsSent);
            let rtx_pct = if sent > 0.0 { 100.0 * r.num(Metric::Retransmits) / sent } else { 0.0 };
            format!("{:.2} ({rtx_pct:5.1}%)", r.num(Metric::Mbps))
        },
    };
    /// The route-flap extension.
    pub const ROUTEFLAP: Table = Table::Rows {
        title: "Route flaps between a short and a long path",
        columns: &[
            ("protocol", Metric::Variant, 12, 0),
            ("Mbps", Metric::Mbps, 6, 2),
            ("late arrivals", Metric::LateArrivals, 13, 0),
            ("mean displacement", Metric::MeanDisplacement, 17, 1),
            ("rtx", Metric::Retransmits, 0, 0),
        ],
    };
    /// The MANET churn extension.
    pub const CHURN: Table = Table::Rows {
        title: "MANET-style route churn (single flow over the Fig. 5 mesh)",
        columns: &[
            ("protocol", Metric::Variant, 12, 0),
            ("Mbps", Metric::Mbps, 6, 2),
            ("late arrivals", Metric::LateArrivals, 13, 0),
            ("rtx", Metric::Retransmits, 0, 0),
        ],
    };
    /// The TCP-PR ablations.
    pub const ABLATIONS: Table = Table::Rows {
        title: "TCP-PR ablations (single flow, congested dumbbell)",
        columns: &[
            ("variant", Metric::Ablation, 25, 0),
            ("Mbps", Metric::Mbps, 6, 2),
            ("halvings", Metric::WindowHalvings, 8, 0),
            ("extreme-loss", Metric::ExtremeLossEvents, 12, 0),
            ("rtx", Metric::Retransmits, 0, 0),
        ],
    };
    /// The stress suite, one row per (variant, profile) cell.
    pub const STRESS: Table = Table::Rows {
        title: "Stress suite: impaired-bottleneck dumbbell with on-off cross traffic",
        columns: &[
            ("protocol", Metric::Variant, 12, 0),
            ("profile", Metric::Profile, 20, 0),
            ("Mbps", Metric::Mbps, 6, 2),
            ("rtx", Metric::Retransmits, 5, 0),
            ("late", Metric::LateArrivals, 5, 0),
            ("wire drops", Metric::ImpairDrops, 10, 0),
            ("dups", Metric::ImpairDups, 4, 0),
            ("flaps", Metric::LinkFlaps, 0, 0),
        ],
    };

    /// The scale suite, one row per (variant, topology, flows) cell.
    pub const SCALE: Table = Table::Rows {
        title: "Scale suite: generated topologies under heavy-tailed flow churn",
        columns: &[
            ("protocol", Metric::Variant, 12, 0),
            ("topology", Metric::Topology, 13, 0),
            ("flows", Metric::TargetFlows, 6, 0),
            ("peak", Metric::PeakFlows, 6, 0),
            ("Jain", Metric::Jain, 5, 3),
            ("CoV", Metric::GoodputCov, 5, 3),
            ("p99 FCT", Metric::P99FctMs, 9, 1),
            ("fg Mbps", Metric::ForegroundMbps, 7, 3),
            ("B/flow", Metric::BytesPerFlow, 0, 0),
        ],
    };

    /// Renders the reports as text: text columns left-aligned, numbers
    /// right-aligned.
    pub fn render(&self, reports: &[CellReport]) -> String {
        match *self {
            Table::Rows { title, columns } => {
                let line = |cells: Vec<String>| cells.join(" | ") + "\n";
                let head = |c: &Column| format!("{:<w$}", c.0, w = c.2);
                let mut s = format!("{title}\n") + &line(columns.iter().map(head).collect());
                for r in reports {
                    let cell = |&(_, metric, width, decimals): &Column| match r.get(metric) {
                        Value::Str(_) => format!("{:<width$}", r.display(metric, 0)),
                        _ => format!("{:>width$}", r.display(metric, decimals)),
                    };
                    s += &line(columns.iter().map(cell).collect());
                }
                s
            }
            Table::Pivot { title, width, cell } => {
                let mut epsilons: Vec<f64> =
                    reports.iter().map(|r| r.num(Metric::Epsilon)).collect();
                epsilons.sort_by(f64::total_cmp);
                epsilons.dedup();
                let mut variants: Vec<&Value> = Vec::new();
                for r in reports {
                    if !variants.contains(&r.get(Metric::Variant)) {
                        variants.push(r.get(Metric::Variant));
                    }
                }
                let delay = reports.first().map_or(0.0, |r| r.num(Metric::LinkDelayMs));
                let mut s = format!("{title} {delay} ms\nprotocol     |");
                for e in &epsilons {
                    s += &format!(" eps={e:<w$} |", w = width - 4);
                }
                s.push('\n');
                for &v in &variants {
                    let row: Vec<&CellReport> =
                        reports.iter().filter(|r| r.get(Metric::Variant) == v).collect();
                    s += &format!("{:12} |", row[0].display(Metric::Variant, 0));
                    for e in &epsilons {
                        let hit = row.iter().find(|r| r.num(Metric::Epsilon) == *e);
                        s += &format!(" {:>width$} |", hit.map_or("-".to_owned(), |r| cell(r)));
                    }
                    s.push('\n');
                }
                s
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(kind: ScenarioKind, impairments: &[ImpairmentSpec], seed: u64) -> CellReport {
        run_kind(&kind, impairments, &[], MeasurePlan::quick(), seed)
    }

    fn multipath(variant: Variant, epsilon: f64, seed: u64) -> CellReport {
        quick(ScenarioKind::Multipath { variant, epsilon, link_delay_ms: 10 }, &[], seed)
    }

    fn route_flap(variant: Variant, flap_period_ms: u64) -> CellReport {
        let kind = ScenarioKind::RouteFlap {
            variant,
            short_delay_ms: 10,
            long_delay_ms: 40,
            link_mbps: 10.0,
            flap_period_ms,
        };
        quick(kind, &[], 5)
    }

    fn churn(variant: Variant, mean_interval_ms: u64, churn_seed: u64) -> CellReport {
        quick(ScenarioKind::Churn { variant, mean_interval_ms, churn_seed }, &[], 3)
    }

    fn stress(variant: Variant, impairments: &[ImpairmentSpec], seed: u64) -> CellReport {
        quick(ScenarioKind::Stress { variant }, impairments, seed)
    }

    fn fairness(topology: TopologySpec, n_flows: usize, seed: u64) -> CellReport {
        let kind =
            ScenarioKind::Fairness { topology, n_flows, alpha: 0.995, beta: 3.0, replicate: 0 };
        quick(kind, &[], seed)
    }

    fn dumbbell_mbps(bottleneck_mbps: Option<f64>) -> TopologySpec {
        TopologySpec::Dumbbell { bottleneck_mbps }
    }

    /// Streaming flow 0's packet trace (`repro fig2 --telemetry-dir`) only
    /// reads the simulation: the sink sees the flow's whole lifecycle and the
    /// report is the untraced run's, byte for byte.
    #[test]
    fn a_streamed_trace_leaves_the_fairness_report_untouched() {
        use netsim::trace::TraceRecord;
        use std::{cell::Cell, rc::Rc};

        struct CountingSink(Rc<Cell<u64>>);
        impl TraceSink for CountingSink {
            fn write_record(&mut self, _: &TraceRecord) {
                self.0.set(self.0.get() + 1);
            }
        }
        let kind = ScenarioKind::Fairness {
            topology: dumbbell_mbps(None),
            n_flows: 2,
            alpha: 0.995,
            beta: 3.0,
            replicate: 1,
        };
        let scenario = lower(&kind, &[], &[]);
        let seen = Rc::default();
        let sink = Observe::Stream(Box::new(CountingSink(Rc::clone(&seen))));
        let report = |observe| {
            let (report, health) = run(&scenario, MeasurePlan::smoke(), 5, observe);
            let json = serde_json::to_string(&serde::Serialize::to_value(&report));
            (json.expect("total"), health.traced_keep_latest_sims)
        };
        let traced = report(sink);
        assert!(seen.get() > 1000, "flow 0's packet lifecycle streams to the sink: {}", seen.get());
        assert_eq!(traced.1, 1, "the run's health tallies its keep-latest buffer");
        assert_eq!(traced.0, report(Observe::Nothing).0);
    }

    #[test]
    fn dumbbell_fairness_means_near_one() {
        let r = fairness(dumbbell_mbps(None), 8, 11);
        assert_eq!(r.nums(Metric::PrNormalized).len(), 4);
        assert_eq!(r.nums(Metric::SackNormalized).len(), 4);
        // Normalized means must bracket 1 and be within a loose band even
        // for the shortened plan.
        let (mean_pr, mean_sack) = (r.num(Metric::MeanPr), r.num(Metric::MeanSack));
        assert!(mean_pr > 0.5 && mean_pr < 1.5, "mean_pr = {mean_pr}");
        assert!(mean_sack > 0.5 && mean_sack < 1.5, "mean_sack = {mean_sack}");
        let combined = (mean_pr + mean_sack) / 2.0;
        assert!((combined - 1.0).abs() < 1e-9, "normalization identity");
    }

    #[test]
    fn parking_lot_fairness_runs() {
        let r = fairness(TopologySpec::ParkingLot { backbone_mbps: None }, 4, 13);
        assert_eq!(r.text(Metric::Topology), "parking-lot");
        assert!(r.num(Metric::MeanPr) > 0.0 && r.num(Metric::MeanSack) > 0.0);
    }

    #[test]
    fn shrinking_bottleneck_raises_loss() {
        let wide = fairness(dumbbell_mbps(None), 8, 17).num(Metric::LossRatePct);
        let narrow = fairness(dumbbell_mbps(Some(1.0)), 8, 17).num(Metric::LossRatePct);
        assert!(narrow > wide, "narrow {narrow} vs wide {wide}");
    }

    #[test]
    #[should_panic(expected = "even, positive")]
    fn odd_flow_count_rejected() {
        fairness(dumbbell_mbps(None), 3, 1);
    }

    #[test]
    fn single_path_all_variants_healthy() {
        // ε = 500: shortest-path only, no reordering — every variant should
        // fill a good share of the 10 Mbps path.
        for v in [Variant::TcpPr, Variant::Sack] {
            let mbps = multipath(v, 500.0, 41).num(Metric::Mbps);
            assert!(mbps > 7.0, "{v} at eps=500 got {mbps} Mbps");
        }
    }

    #[test]
    fn full_multipath_pr_beats_dupack_methods() {
        let pr = multipath(Variant::TcpPr, 0.0, 43);
        let nm = multipath(Variant::DsackNm, 0.0, 43).num(Metric::Mbps);
        let pr_mbps = pr.num(Metric::Mbps);
        assert!(pr_mbps > 2.0 * nm, "TCP-PR ({pr_mbps}) must dominate DSACK-NM ({nm}) at eps=0");
        assert!(pr.num(Metric::LateArrivals) > 100.0, "multipath must reorder heavily");
    }

    #[test]
    fn pr_aggregates_multiple_paths() {
        // At ε = 0 TCP-PR should exceed the single-path capacity.
        let mbps = multipath(Variant::TcpPr, 0.0, 47).num(Metric::Mbps);
        assert!(mbps > 12.0, "aggregate above one path's 10 Mbps, got {mbps}");
    }

    #[test]
    fn flaps_reorder_traffic() {
        let r = route_flap(Variant::TcpPr, 500);
        let late = r.num(Metric::LateArrivals);
        assert!(late > 50.0, "flaps must reorder: {late} late");
        assert!(r.num(Metric::MeanDisplacement) > 1.0);
    }

    #[test]
    fn tcp_pr_withstands_flaps_better_than_newreno() {
        let pr = route_flap(Variant::TcpPr, 500).num(Metric::Mbps);
        let nr = route_flap(Variant::NewReno, 500).num(Metric::Mbps);
        assert!(pr > 1.3 * nr, "TCP-PR {pr} vs NewReno {nr} under flaps");
        assert!(pr > 5.0, "TCP-PR should hold most of the path: {pr}");
    }

    #[test]
    fn without_flaps_far_less_reordering() {
        // Single pin at t=0, never flapped: only loss-retransmissions can
        // arrive "late" (a lost original's retransmission lands after
        // higher sequence numbers), so reordering is far below the flapped
        // case and throughput is near line rate.
        let calm = route_flap(Variant::TcpPr, 10_000_000);
        let flapped = route_flap(Variant::TcpPr, 500).num(Metric::LateArrivals);
        let calm_late = calm.num(Metric::LateArrivals);
        assert!(
            flapped > 5.0 * calm_late.max(1.0),
            "flaps must dominate reordering: {flapped} vs {calm_late}"
        );
        assert!(calm.num(Metric::Mbps) > 7.0, "pinned path near line rate: {calm:?}");
    }

    #[test]
    fn churn_reorders_and_pr_survives() {
        let pr = churn(Variant::TcpPr, 400, 42);
        assert!(pr.num(Metric::LateArrivals) > 50.0, "churn must reorder: {pr:?}");
        assert!(pr.num(Metric::Mbps) > 4.0, "TCP-PR should keep most of a path: {pr:?}");
        assert!(pr.num(Metric::RouteChanges) > 20.0);
    }

    #[test]
    fn pr_beats_sack_under_fast_churn() {
        // churn_seed pinned away from the grid's 42: that schedule is a
        // degenerate outlier (almost no cross-path flapping) under the
        // vendored RNG stream, while seeds 1..=16 all show PR ≥ 1.4× SACK.
        let pr = churn(Variant::TcpPr, 150, 7).num(Metric::Mbps);
        let sack = churn(Variant::Sack, 150, 7).num(Metric::Mbps);
        assert!(pr > 1.2 * sack, "TCP-PR {pr} vs SACK {sack} under churn");
    }

    #[test]
    fn runs_are_deterministic() {
        assert_eq!(churn(Variant::TcpPr, 400, 42), churn(Variant::TcpPr, 400, 42));
        let imps = [
            ImpairmentSpec::IidLoss { p: 0.01 },
            ImpairmentSpec::Jitter { prob: 0.2, max_extra_ms: 20 },
            ImpairmentSpec::Duplicate { p: 0.01 },
        ];
        assert_eq!(stress(Variant::Sack, &imps, 3), stress(Variant::Sack, &imps, 3));
    }

    #[test]
    fn memorize_prevents_per_packet_halvings_and_the_table_renders() {
        let rows: Vec<CellReport> = Ablation::ALL
            .iter()
            .map(|&ablation| quick(ScenarioKind::Ablation { ablation }, &[], 3))
            .collect();
        let (full, no_mem) = (&rows[0], &rows[1]);
        let halvings = |r: &CellReport| r.num(Metric::WindowHalvings);
        assert!(
            halvings(no_mem) > halvings(full),
            "without memorize every drop halves: {no_mem:?} vs {full:?}"
        );
        assert!(
            no_mem.num(Metric::Mbps) <= full.num(Metric::Mbps) * 1.05,
            "removing memorize must not help: {no_mem:?} vs {full:?}"
        );
        // The full algorithm should be the best or tied.
        for r in &rows[1..] {
            assert!(r.num(Metric::Mbps) <= full.num(Metric::Mbps) * 1.15, "{r:?} vs {full:?}");
        }
        let table = Table::ABLATIONS.render(&rows);
        assert!(table.contains("full algorithm") && table.contains("no memorize"), "{table}");
    }

    #[test]
    fn baseline_run_is_clean_and_fast() {
        let r = stress(Variant::TcpPr, &[], 7);
        assert_eq!(r.display(Metric::Profile, 0), "baseline");
        assert_eq!(r.num(Metric::ImpairDrops), 0.0);
        assert_eq!(r.num(Metric::LinkFlaps), 0.0);
        // 10 Mbps bottleneck minus ~1 Mbps mean cross traffic.
        assert!(r.num(Metric::Mbps) > 6.0, "baseline goodput {r:?}");
    }

    #[test]
    fn loss_profile_drops_and_slows_the_flow() {
        let imps =
            [ImpairmentSpec::BurstLoss { p_good_to_bad: 0.02, p_bad_to_good: 0.3, loss_bad: 1.0 }];
        let clean = stress(Variant::TcpPr, &[], 7);
        let lossy = stress(Variant::TcpPr, &imps, 7);
        assert_eq!(lossy.display(Metric::Profile, 0), "burst-loss");
        assert!(lossy.num(Metric::ImpairDrops) > 50.0, "burst loss must bite: {lossy:?}");
        // The lossy flow collapses, so absolute retransmit counts drop with
        // it — the retransmit *rate* is what the loss inflates.
        let rate =
            |r: &CellReport| r.num(Metric::Retransmits) / r.num(Metric::SegmentsSent).max(1.0);
        assert!(rate(&lossy) > 2.0 * rate(&clean), "{} vs {}", rate(&lossy), rate(&clean));
        assert!(lossy.num(Metric::Mbps) < 0.5 * clean.num(Metric::Mbps), "{lossy:?} vs {clean:?}");
    }

    #[test]
    fn reordering_profile_reorders_without_loss() {
        let imps = [
            ImpairmentSpec::Jitter { prob: 0.3, max_extra_ms: 30 },
            ImpairmentSpec::Displace { every: 20, depth: 4 },
        ];
        let r = stress(Variant::TcpPr, &imps, 7);
        assert_eq!(r.display(Metric::Profile, 0), "jitter+displace");
        assert_eq!(r.num(Metric::ImpairDrops), 0.0);
        assert!(r.num(Metric::ReorderDisplacements) > 100.0, "{r:?}");
        assert!(r.num(Metric::LateArrivals) > 20.0, "jitter must reorder: {r:?}");
    }

    #[test]
    fn flap_profile_counts_transitions() {
        let r =
            stress(Variant::TcpPr, &[ImpairmentSpec::Flap { period_ms: 3000, down_ms: 300 }], 7);
        // quick plan: 10 s warm-up + 15 s window = 25 s ⇒ 8 full cycles.
        assert!(r.num(Metric::LinkFlaps) >= 7.0, "{r:?}");
        assert!(r.num(Metric::ImpairDrops) > 0.0, "down periods drop wire packets");
    }

    /// A report with every metric of `metrics` set: names that resolve,
    /// integral floats alone and in a vector (ε = 500 prints as `500`,
    /// a normalized throughput of 1.0 as `1`), fractional floats and
    /// distinct counts.
    fn sample(metrics: &[Metric]) -> CellReport {
        let value = |(i, &m): (usize, &Metric)| match m {
            Metric::Variant => Value::Str("TdFr".to_owned()),
            Metric::Ablation => Value::Str("NoMemorize".to_owned()),
            Metric::Profile => Value::Str("burst-loss+down".to_owned()),
            Metric::Topology => Value::Str("fat-tree-k4".to_owned()),
            Metric::Epsilon | Metric::CovSack => Value::Float(500.0),
            Metric::PrNormalized => Value::Array(vec![Value::Float(1.0), Value::Float(0.75)]),
            Metric::SackNormalized => Value::Array(vec![Value::Float(1.25)]),
            _ if m.decode(&Value::Object(vec![(m.key(), Value::Float(0.5))])).is_some() => {
                Value::Float(i as f64 + 0.25)
            }
            _ => Value::UInt(100 + i as u64),
        };
        CellReport(metrics.iter().enumerate().map(|p| (*p.1, value(p))).collect())
    }

    const LISTS: [&[Metric]; 8] = [
        &Metric::FAIRNESS,
        &Metric::MULTIPATH,
        &Metric::ROUTEFLAP,
        &Metric::CHURN,
        &Metric::ABLATION,
        &Metric::STRESS,
        &Metric::HUNT,
        &Metric::SCALE,
    ];

    #[test]
    fn every_metric_list_round_trips_through_json_text() {
        for metrics in LISTS {
            let report = sample(metrics);
            let v = serde::Serialize::to_value(&report);
            assert_eq!(CellReport::decode(metrics, &v), Some(report.clone()));
            // Through JSON text (the cache's on-disk trip), where integral
            // floats come back as integers.
            let text = serde_json::to_string(&v).unwrap();
            let reparsed = serde_json::from_str(&text).unwrap();
            let decoded = CellReport::decode(metrics, &reparsed).expect("decode after parse");
            assert_eq!(decoded, report);
            assert_eq!(serde_json::to_string(&serde::Serialize::to_value(&decoded)).unwrap(), text);
            let keys: Vec<String> = metrics.iter().map(|m| m.key()).collect();
            let Value::Object(fields) = &v else { panic!("reports serialise to objects") };
            assert_eq!(fields.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(), keys);
        }
        let keys = |metrics: &[Metric]| metrics.iter().map(|m| m.key()).collect::<Vec<_>>();
        assert_eq!(
            keys(&Metric::MULTIPATH),
            [
                "variant",
                "epsilon",
                "link_delay_ms",
                "mbps",
                "retransmits",
                "segments_sent",
                "late_arrivals",
                "queue_drops"
            ]
        );
        assert_eq!(
            keys(&Metric::ABLATION),
            ["ablation", "mbps", "window_halvings", "extreme_loss_events", "retransmits"]
        );
        assert_eq!(
            keys(&Metric::FAIRNESS),
            [
                "topology",
                "n_flows",
                "pr_normalized",
                "sack_normalized",
                "mean_pr",
                "mean_sack",
                "cov_pr",
                "cov_sack",
                "loss_rate_pct"
            ]
        );
    }

    #[test]
    fn decode_rejects_wrong_shapes() {
        for metrics in LISTS {
            let Value::Object(fields) = serde::Serialize::to_value(&sample(metrics)) else {
                panic!("reports serialise to objects")
            };
            for skip in 0..fields.len() {
                let mut short = fields.clone();
                short.remove(skip);
                assert_eq!(CellReport::decode(metrics, &Value::Object(short)), None);
            }
        }
        let with = |key: &str, v: Value| {
            let Value::Object(mut fields) = serde::Serialize::to_value(&sample(&Metric::HUNT))
            else {
                panic!("reports serialise to objects")
            };
            fields.iter_mut().find(|(k, _)| k == key).expect("a hunt key").1 = v;
            CellReport::decode(&Metric::HUNT, &Value::Object(fields))
        };
        assert!(with("mbps", Value::UInt(3)).is_some(), "an integral float reads back");
        assert_eq!(with("variant", Value::Str("NotAVariant".to_owned())), None);
        assert_eq!(with("retransmits", Value::Int(-1)), None);
        assert_eq!(with("retransmits", Value::Float(1.5)), None);
        assert_eq!(with("jain", Value::Str("1".to_owned())), None);
        assert_eq!(CellReport::decode(&Metric::HUNT, &Value::Null), None);

        let fairness = |key: &str, json: &str| {
            let mut outcome = serde::Serialize::to_value(&sample(&Metric::FAIRNESS));
            let Value::Object(fields) = &mut outcome else {
                panic!("reports serialise to objects")
            };
            let value = serde_json::from_str(json).expect("valid JSON");
            fields.iter_mut().find(|(k, _)| k == key).expect("a fairness key").1 = value;
            CellReport::decode(&Metric::FAIRNESS, &outcome)
        };
        let whole = fairness("pr_normalized", "[1, 2]").expect("integral floats in a vector");
        assert_eq!(
            whole.get(Metric::PrNormalized),
            &Value::Array(vec![Value::Float(1.0), Value::Float(2.0)])
        );
        assert!(fairness("sack_normalized", "[]").is_some(), "an empty side reads back");
        assert_eq!(fairness("pr_normalized", r#"[1, "1"]"#), None);
        assert_eq!(fairness("pr_normalized", "1"), None);
        assert_eq!(fairness("topology", "7"), None);
        let mut scale = serde::Serialize::to_value(&sample(&Metric::SCALE));
        let Value::Object(fields) = &mut scale else { panic!("reports serialise to objects") };
        fields[0].1 = Value::Str("TcpTahoe".to_owned());
        assert_eq!(CellReport::decode(&Metric::SCALE, &scale), None, "an unknown variant name");
    }

    /// Outcomes copied from `.sweep-cache` entries written by `796450a`, the
    /// last commit whose fairness and scale harnesses serialised a result
    /// struct of their own through the serde derive: the metric lists read
    /// them and write the same text back.
    #[test]
    fn outcomes_cached_before_the_result_structs_went_still_decode() {
        let fairness = r#"{"topology":"dumbbell","n_flows":2,"pr_normalized":[1.2485860490169673],"sack_normalized":[0.7514139509830325],"mean_pr":1.2485860490169673,"mean_sack":0.7514139509830325,"cov_pr":0,"cov_sack":0,"loss_rate_pct":0.5526337176227463}"#;
        let scale = r#"{"variant":"Bbr","topology":"fat-tree-k4","target_flows":120,"peak_flows":123,"arrivals":1710,"completions":1709,"jain":0.8966792945285313,"goodput_cov":0.33944945106764085,"p99_fct_ms":131.071,"mean_fct_ms":8.870191339964892,"foreground_mbps":17.432,"delivered_mbps":20.026666666666667,"bytes_per_flow":132}"#;
        for (metrics, text) in [(&Metric::FAIRNESS[..], fairness), (&Metric::SCALE[..], scale)] {
            let parsed = serde_json::from_str(text).expect("valid JSON");
            let report = CellReport::decode(metrics, &parsed).expect("a parent-written outcome");
            assert_eq!(serde_json::to_string(&serde::Serialize::to_value(&report)).unwrap(), text);
        }
    }

    fn bar(variant: &str, epsilon: f64, mbps: f64, retransmits: u64) -> CellReport {
        let outcome = Value::Object(
            [
                ("variant", Value::Str(variant.to_owned())),
                ("epsilon", Value::Float(epsilon)),
                ("link_delay_ms", Value::UInt(20)),
                ("mbps", Value::Float(mbps)),
                ("retransmits", Value::UInt(retransmits)),
                ("segments_sent", Value::UInt(1000)),
                ("late_arrivals", Value::UInt(0)),
                ("queue_drops", Value::UInt(0)),
            ]
            .map(|(k, v)| (k.to_owned(), v))
            .to_vec(),
        );
        CellReport::decode(&Metric::MULTIPATH, &outcome).expect("a multipath report")
    }

    #[test]
    fn pivot_tables_put_protocols_down_and_epsilons_across() {
        let bars = [
            bar("TcpPr", 500.0, 9.5, 0),
            bar("TcpPr", 0.0, 23.456, 12),
            bar("TdFr", 0.0, 1.0, 250),
        ];
        assert_eq!(
            Table::FIG6.render(&bars),
            "Figure 6 — throughput (Mbps), link delay 20 ms\n\
             protocol     | eps=0     | eps=500   |\n\
             TCP-PR       |     23.46 |      9.50 |\n\
             TD-FR        |      1.00 |         - |\n"
        );
        assert_eq!(
            Table::FACEOFF.render(&bars),
            "Face-off — goodput Mbps (retransmit %), mesh link delay 20 ms\n\
             protocol     | eps=0             | eps=500           |\n\
             TCP-PR       |    23.46 (  1.2%) |     9.50 (  0.0%) |\n\
             TD-FR        |     1.00 ( 25.0%) |                 - |\n"
        );
    }

    #[test]
    fn row_tables_pad_text_left_and_numbers_right() {
        let mut fields = vec![
            ("variant".to_owned(), Value::Str("NewReno".to_owned())),
            ("mbps".to_owned(), Value::Float(7.125)),
            ("late_arrivals".to_owned(), Value::UInt(321)),
            ("mean_displacement".to_owned(), Value::Float(2.96)),
            ("retransmits".to_owned(), Value::UInt(45)),
        ];
        let flap = CellReport::decode(&Metric::ROUTEFLAP, &Value::Object(fields.clone())).unwrap();
        assert_eq!(
            Table::ROUTEFLAP.render(&[flap]),
            "Route flaps between a short and a long path\n\
             protocol     | Mbps   | late arrivals | mean displacement | rtx\n\
             TCP-NewReno  |   7.12 |           321 |               3.0 | 45\n"
        );
        fields[3] = ("route_changes".to_owned(), Value::UInt(9));
        let churn = CellReport::decode(&Metric::CHURN, &Value::Object(fields)).unwrap();
        assert_eq!(
            Table::CHURN.render(&[churn]),
            "MANET-style route churn (single flow over the Fig. 5 mesh)\n\
             protocol     | Mbps   | late arrivals | rtx\n\
             TCP-NewReno  |   7.12 |           321 | 45\n"
        );
        let stress = sample(&Metric::STRESS);
        assert_eq!(
            Table::STRESS.render(&[stress]),
            "Stress suite: impaired-bottleneck dumbbell with on-off cross traffic\n\
             protocol     | profile              | Mbps   | rtx   | late  | wire drops | dups | flaps\n\
             TD-FR        | burst-loss+down      |   2.25 |   103 |   105 |        107 |  108 | 110\n"
        );
    }
}
