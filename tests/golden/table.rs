//! The golden table's scenarios. A row's label names a raw-`netsim` script
//! or a `ScenarioSpec` run through `sweep::execute`; a cell's outcome is
//! FNV-1a over its compact outcome JSON, a script's its fingerprint. Rows come
//! in groups, one test each: a script is its own group, cells group by the
//! harness they replaced. DESIGN.md §5c says where each outcome was recorded.

// Each test binary that includes this module uses a part of it.
#![allow(dead_code)]

use baselines::SackSender;
use cc::BbrSender;
use experiments::ablations::Ablation;
use experiments::sweep::decode::get;
use experiments::sweep::{
    all_figures, execute, AdminWindowSpec, ExecCtx, ForensicCtx, ImpairmentSpec, PlanSpec,
    ScenarioKind, ScenarioSpec, TopologyModel, TopologySpec,
};
use experiments::variants::Variant;
use netsim::sim::Simulator;
use netsim::time::{SimDuration, SimTime};
use netsim::traffic::{CbrSink, CbrSource, OnOffSource};
use netsim::{FlowId, LinkConfig, NodeId};
use tcp_pr::TcpPrSender;
use transport::host::{attach_flow, FlowOptions};

use crate::scripts::{assert_rows, fingerprint, finish, fnv, network, traced, Script};

pub enum Scenario {
    Script(Script),
    Cell(ScenarioSpec),
    /// Forensic capture on: the payload is pinned, its report the plain run's.
    Forensic(ScenarioSpec),
}

/// Measures `group`'s rows and compares each with its pin.
pub fn check(group: &str) {
    let rows = scenarios().into_iter().filter(|row| row.0 == group);
    let measured: Vec<_> = rows.map(|(_, label, scenario)| (label, measure(&scenario))).collect();
    assert!(!measured.is_empty(), "no rows in group {group}");
    assert_rows(&measured);
}

/// `[outcome, events, heap_peak]` of one run, the work read from the health
/// `execute` returns; `heap_peak` is the most events pending. A forensic row
/// reports its capturing run.
pub fn measure(scenario: &Scenario) -> [u64; 3] {
    let json = |v: &serde::Value| serde_json::to_string(v).expect("shim serializer is total");
    let spec = match scenario {
        Scenario::Script(script) => return fingerprint(&script()),
        Scenario::Cell(spec) | Scenario::Forensic(spec) => spec,
    };
    let (mut outcome, mut work) = execute(spec, &ExecCtx::default());
    if let Scenario::Forensic(_) = scenario {
        let objective = Some("goodput".to_owned());
        let forensic = ForensicCtx { objective, baseline_value: Some(4.0), threshold: Some(2.0) };
        let captured = execute(spec, &ExecCtx { forensics: Some(forensic), ..ExecCtx::default() });
        let report = get(&captured.0, "cell").expect("forensic payload embeds the scalar report");
        assert_eq!(json(report), json(&outcome), "capture perturbed {}", spec.label());
        (outcome, work) = captured;
    }
    [fnv(json(&outcome).into_bytes()), work.events_processed, work.peak_event_heap]
}

/// `(group, label, scenario)` for every row, in table order.
pub fn scenarios() -> Vec<(&'static str, String, Scenario)> {
    let label = |prefix: &str, spec: &ScenarioSpec| match spec.base_seed {
        0 => format!("{prefix} {}", spec.label()),
        seed => format!("{prefix} {} seed {seed}", spec.label()),
    };
    let scripts = crate::scripts::LINK_SCRIPTS.into_iter().chain(TIMER_SCRIPTS);
    let mut rows: Vec<_> =
        scripts.map(|(name, f)| (name, format!("script {name}"), Scenario::Script(f))).collect();
    rows.extend(
        smoke_cells().into_iter().map(|s| (group(&s), label("smoke", &s), Scenario::Cell(s))),
    );
    let hunt = hunt_cells();
    for spec in [&hunt[0], &hunt[7]] {
        rows.push(("forensic", label("forensic", spec), Scenario::Forensic(spec.clone())));
    }
    rows.extend(
        quick_cells().into_iter().map(|s| (group(&s), label("quick", &s), Scenario::Cell(s))),
    );
    rows
}

/// A smoke cell's group is its kind; the quick cells group by the ACK path
/// they pin: each of the three senders' stress cells, BBR's burst-loss cell
/// at the seeds the benchmark leaves out, TCP-PR on the mesh, and the ten
/// duplicate-ACK senders.
fn group(spec: &ScenarioSpec) -> &'static str {
    use ScenarioKind::{Ablation, Churn, Fairness, Hunt, Multipath, RouteFlap, Scale, Stress};
    match (spec.plan, &spec.kind) {
        (PlanSpec::Quick, Stress { variant: Variant::TcpPr }) => "tcp-pr stress",
        (PlanSpec::Quick, Stress { variant: Variant::Sack }) => "sack stress",
        (PlanSpec::Quick, Stress { variant: Variant::Bbr }) if spec.base_seed != 0 => "bbr seeds",
        (PlanSpec::Quick, Stress { variant: Variant::Bbr }) => "bbr stress",
        (PlanSpec::Quick, Stress { .. }) => "dupack stress",
        (PlanSpec::Quick, Multipath { .. }) => "tcp-pr mesh",
        (_, Multipath { .. }) => "multipath",
        (_, RouteFlap { .. }) => "routeflap",
        (_, Churn { .. }) => "churn",
        (_, Ablation { .. }) => "ablation",
        (_, Stress { .. }) => "stress",
        (_, Hunt { .. }) => "hunt",
        (_, Fairness { .. }) => "fairness",
        (_, Scale { .. }) => "scale",
    }
}

const TIMER_SCRIPTS: [(&str, Script); 4] = [
    ("lossy bottleneck, delayed acks", lossy_bottleneck_with_delayed_acks),
    ("paced bbr", paced_bbr),
    ("self-clocked cross traffic", self_clocked_cross_traffic),
    ("route flap mid-flow", route_flap_mid_flow),
];

// The timer scripts re-arm later (RTOs), cancel (delayed ACKs), move earlier
// (the pacer), self-clock and arm once for a late start, with the oracle
// checked every tenth of the run while timers wait behind pending pops.

fn delayed_ack(ms: u64, start_ms: u64) -> FlowOptions {
    FlowOptions {
        delayed_ack: Some(SimDuration::from_millis(ms)),
        start_at: SimTime::ZERO + SimDuration::from_millis(start_ms),
        ..FlowOptions::default()
    }
}

/// TCP-PR and TCP-SACK on a lossy, overflowing bottleneck with delayed
/// ACKs: receivers arm on every odd segment and cancel on every even one.
fn lossy_bottleneck_with_delayed_acks() -> Simulator {
    let (mut b, n) = network(11, 4);
    b.add_duplex(n[0], n[2], LinkConfig::mbps_ms(100.0, 1, 200));
    b.add_duplex(n[1], n[2], LinkConfig::mbps_ms(100.0, 2, 200));
    b.add_link(n[2], n[3], LinkConfig::mbps_ms(5.0, 10, 25).with_random_loss(0.01));
    b.add_link(n[3], n[2], LinkConfig::mbps_ms(5.0, 10, 25));
    let mut sim = traced(b);
    let (pr, sack) = (TcpPrSender::new(Default::default()), SackSender::new(Default::default()));
    attach_flow(&mut sim, FlowId::from_raw(0), n[0], n[3], pr, delayed_ack(100, 0));
    attach_flow(&mut sim, FlowId::from_raw(1), n[1], n[3], sack, delayed_ack(40, 150));
    finish(sim, 12.0, 10, 2_000)
}

/// Paced BBR, its aux timer moved on each release and ACK, beside a CBR flow.
fn paced_bbr() -> Simulator {
    let (mut b, n) = network(12, 3);
    b.add_duplex(n[0], n[1], LinkConfig::mbps_ms(100.0, 1, 200));
    b.add_duplex(n[1], n[2], LinkConfig::mbps_ms(8.0, 15, 40));
    let mut sim = traced(b);
    let bbr = BbrSender::new(Default::default());
    attach_flow(&mut sim, FlowId::from_raw(0), n[0], n[2], bbr, FlowOptions::default());
    let flow = FlowId::from_raw(1);
    let start = SimTime::from_secs_f64(1.5);
    sim.add_agent(n[1], flow, Box::new(CbrSource::new(n[2], 3e6, 1000, start)));
    sim.add_agent(n[2], flow, Box::new(CbrSink::new()));
    finish(sim, 8.0, 10, 2_000)
}

/// Self-clocked sources started late, timers tied with polls and arrivals.
fn self_clocked_cross_traffic() -> Simulator {
    let (mut b, n) = network(13, 4);
    b.add_duplex(n[0], n[1], LinkConfig::new(10e6, SimDuration::ZERO, 50));
    b.add_duplex(n[1], n[2], LinkConfig::mbps_ms(10.0, 1, 30));
    b.add_duplex(n[2], n[3], LinkConfig::mbps_ms(10.0, 1, 30));
    let mut sim = traced(b);
    let ms = SimDuration::from_millis;
    let at = |us: u64| SimTime::ZERO + SimDuration::from_micros(us);
    let mut add = |flow: u32, src: NodeId, dst: NodeId, source: Box<dyn netsim::Agent>| {
        sim.add_agent(src, FlowId::from_raw(flow), source);
        sim.add_agent(dst, FlowId::from_raw(flow), Box::new(CbrSink::new()));
    };
    add(0, n[0], n[3], Box::new(CbrSource::new(n[3], 10e6, 1000, at(800))));
    add(1, n[1], n[3], Box::new(OnOffSource::new(n[3], 5e6, 1000, ms(20), ms(20), at(2_400))));
    add(2, n[3], n[0], Box::new(CbrSource::new(n[0], 2.5e6, 1000, at(1_600))));
    add(3, n[2], n[3], Box::new(OnOffSource::new(n[3], 10e6, 1000, ms(8), ms(24), at(10_000))));
    finish(sim, 0.5, 10, 2_000)
}

/// TCP-PR and TCP-SACK over a diamond whose route flaps between the short
/// and long path: a window reorders and the RTT stretches under armed timers.
fn route_flap_mid_flow() -> Simulator {
    let (mut b, n) = network(14, 4);
    b.add_duplex(n[0], n[1], LinkConfig::mbps_ms(10.0, 5, 60));
    b.add_duplex(n[1], n[3], LinkConfig::mbps_ms(10.0, 5, 60));
    b.add_duplex(n[0], n[2], LinkConfig::mbps_ms(10.0, 40, 60));
    b.add_duplex(n[2], n[3], LinkConfig::mbps_ms(10.0, 40, 60));
    let mut sim = traced(b);
    for (secs, path) in [(0.0, 0), (2.0, 1), (3.5, 0), (5.0, 1)] {
        sim.schedule_path_pin(SimTime::from_secs_f64(secs), n[0], n[3], path, 4);
    }
    let (pr, sack) = (TcpPrSender::new(Default::default()), SackSender::new(Default::default()));
    attach_flow(&mut sim, FlowId::from_raw(0), n[0], n[3], pr, FlowOptions::default());
    attach_flow(&mut sim, FlowId::from_raw(1), n[0], n[3], sack, delayed_ack(50, 300));
    finish(sim, 7.0, 10, 2_000)
}

// Smoke cells cover every kind `experiments::cell` lowers, TCP-PR, TCP-SACK
// and BBR under each, loss, reordering, periodic schedules and admin windows,
// both fairness topologies and both scale generators.

const VARIANTS: [Variant; 3] = [Variant::TcpPr, Variant::Sack, Variant::Bbr];

fn smoke(kind: ScenarioKind) -> ScenarioSpec {
    ScenarioSpec::new(kind, PlanSpec::Smoke)
}

/// Burst loss, reordering (jitter + displacement + duplication), flapping.
fn profiles() -> [Vec<ImpairmentSpec>; 3] {
    let loss = ImpairmentSpec::BurstLoss { p_good_to_bad: 0.02, p_bad_to_good: 0.3, loss_bad: 1.0 };
    let reordering = vec![
        ImpairmentSpec::Jitter { prob: 0.3, max_extra_ms: 30 },
        ImpairmentSpec::Displace { every: 20, depth: 4 },
        ImpairmentSpec::Duplicate { p: 0.02 },
    ];
    [vec![loss], reordering, vec![ImpairmentSpec::Flap { period_ms: 1500, down_ms: 200 }]]
}

fn smoke_cells() -> Vec<ScenarioSpec> {
    use ImpairmentSpec::{BandwidthOscillation, DelayOscillation, IidLoss};
    use ScenarioKind::{Churn, Multipath, RouteFlap, Scale, Stress};
    let mut specs = Vec::new();
    for variant in VARIANTS {
        for epsilon in [0.0, 4.0] {
            specs.push(smoke(Multipath { variant, epsilon, link_delay_ms: 10 }));
        }
    }
    for (variant, epsilon) in [(Variant::TdFr, 0.0), (Variant::TcpPr, 500.0)] {
        specs.push(smoke(Multipath { variant, epsilon, link_delay_ms: 60 }));
    }
    let routeflap = |variant, short_delay_ms, long_delay_ms, link_mbps, flap_period_ms| {
        smoke(RouteFlap { variant, short_delay_ms, long_delay_ms, link_mbps, flap_period_ms })
    };
    specs.extend(VARIANTS.map(|variant| routeflap(variant, 10, 40, 10.0, 500)));
    specs.push(routeflap(Variant::NewReno, 5, 25, 8.0, 130));
    let churn = |variant, mean_interval_ms, churn_seed| {
        smoke(Churn { variant, mean_interval_ms, churn_seed })
    };
    specs.extend(VARIANTS.map(|variant| churn(variant, 400, 42)));
    specs.push(churn(Variant::Door, 150, 7));
    specs.extend(Ablation::ALL.map(|ablation| smoke(ScenarioKind::Ablation { ablation })));
    for variant in VARIANTS {
        for profile in profiles() {
            specs.push(smoke(Stress { variant }).with_impairments(profile));
        }
    }
    for profile in [
        Vec::new(),
        vec![IidLoss { p: 0.01 }],
        vec![BandwidthOscillation { low_mbps: 3.0, period_ms: 1000 }],
        vec![DelayOscillation { high_delay_ms: 60, period_ms: 1000 }],
    ] {
        specs.push(smoke(Stress { variant: Variant::TcpPr }).with_impairments(profile));
    }
    specs.extend(hunt_cells());
    specs.extend(fairness_cells());
    let models =
        [TopologyModel::FatTree { k: 4 }, TopologyModel::AsGraph { nodes: 24, edges_per_node: 2 }];
    for variant in [Variant::TcpPr, Variant::Bbr] {
        for model in models {
            specs.push(smoke(Scale { variant, model, target_flows: 120, replicate: 0 }));
        }
    }
    specs
}

fn hunt_cells() -> Vec<ScenarioSpec> {
    use ScenarioKind::Hunt;
    let down = AdminWindowSpec::Down { at_ms: 1500, dur_ms: 200 };
    let delay = AdminWindowSpec::Delay { at_ms: 2500, dur_ms: 300, delay_ms: 100 };
    let (schedules, mut specs) = ([vec![down], vec![delay], vec![down, delay]], Vec::new());
    for variant in VARIANTS {
        for (profile, schedule) in profiles().into_iter().zip(schedules.clone()) {
            let spec = smoke(Hunt { variant }).with_impairments(profile).with_schedule(schedule);
            specs.push(ScenarioSpec { base_seed: 5, ..spec });
        }
    }
    specs.push(smoke(Hunt { variant: Variant::Cubic }));
    specs
}

fn fairness_cells() -> Vec<ScenarioSpec> {
    use TopologySpec::{Dumbbell, ParkingLot};
    let cells = [
        (Dumbbell { bottleneck_mbps: None }, 2, 0.995, 3.0),
        (Dumbbell { bottleneck_mbps: None }, 8, 0.995, 3.0),
        (ParkingLot { backbone_mbps: None }, 2, 0.995, 3.0),
        (ParkingLot { backbone_mbps: None }, 8, 0.995, 3.0),
        (Dumbbell { bottleneck_mbps: Some(8.0) }, 8, 0.995, 3.0),
        (ParkingLot { backbone_mbps: Some(4.8) }, 8, 0.995, 3.0),
        (Dumbbell { bottleneck_mbps: None }, 8, 0.25, 1.0),
    ];
    let cell = |(topology, n_flows, alpha, beta)| {
        let kind = ScenarioKind::Fairness { topology, n_flows, alpha, beta, replicate: 1 };
        ScenarioSpec { base_seed: 5, ..smoke(kind) }
    };
    cells.into_iter().map(cell).collect()
}

/// Quick cells pin the ACK paths that stopped walking the window: the quick
/// stress matrix, `stress BBR [burst-loss]` at seeds 7–9 (`sweep_grid`'s
/// `seed_bound`), TCP-PR on the Figure 6 mesh at ε = 0, 4 and 500, and the
/// ten duplicate-ACK senders over the same four stress cells.
fn quick_cells() -> Vec<ScenarioSpec> {
    let grid = all_figures(true, false).into_iter().find(|g| g.selector == "stress");
    let stress = grid.expect("the stress grid exists").specs;
    let stress = |variant: Variant| -> Vec<ScenarioSpec> {
        let cells = stress.iter().filter(|s| s.kind == ScenarioKind::Stress { variant });
        let cells: Vec<ScenarioSpec> = cells.cloned().collect();
        assert_eq!(cells.len(), 4, "four quick impairment profiles");
        cells
    };
    let mut specs: Vec<ScenarioSpec> = VARIANTS.into_iter().flat_map(&stress).collect();
    let burst = &stress(Variant::Bbr)[1];
    specs.extend((7..=9).map(|base_seed| ScenarioSpec { base_seed, ..burst.clone() }));
    for epsilon in [0.0, 4.0, 500.0] {
        let kind = ScenarioKind::Multipath { variant: Variant::TcpPr, epsilon, link_delay_ms: 10 };
        specs.push(ScenarioSpec::new(kind, PlanSpec::Quick));
    }
    for variant in Variant::ALL.into_iter().filter(|v| !VARIANTS.contains(v)) {
        let cells = stress(Variant::TcpPr).into_iter();
        specs.extend(cells.map(|c| ScenarioSpec { kind: ScenarioKind::Stress { variant }, ..c }));
    }
    specs
}
