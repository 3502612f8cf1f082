//! Pins the one-cell harness (`experiments::cell`) to the eight hand-written
//! harnesses it replaced: `fig6::run_multipath_point`,
//! `routeflap::run_route_flap`, `manet::run_churn`,
//! `ablations::run_ablation`, `stress::run_stress` and
//! `hunt::run_hunt_cell`, then the fairness harness of Figures 2–4 and the
//! scale suite's, each with its own result struct.
//!
//! Each hash below was recorded on the last commit that still had the
//! harness it names (`b237513` for the first six, `796450a` for the last
//! two) by running this very file there; none of them survives to compare
//! against. (The four `SCALE` hashes were re-recorded once since; see
//! there.) A hash covers the canonical JSON text of
//! one scenario's outcome as `sweep::execute` returns it — every key, in
//! order, and every value — so a metric computed from a different counter,
//! a key renamed or reordered, an agent attached in a different order
//! (event sequence numbers break ties, so that moves the run) or a shifted
//! RNG draw all move it. The specs cover every kind the harness lowers,
//! TCP-PR, TCP-SACK and BBR under each, and for the two impaired kinds a
//! loss stage, a reordering pipeline (jitter + displace + duplicate), the
//! three periodic schedules and — hunt only — a `Down` and a `Delay`
//! window; the fairness cells cover both topologies at two flow counts, a
//! Figure 3 bandwidth override on each and a Figure 4 (α, β); the scale
//! cells both generator families. Everything runs on the smoke plan
//! (1 s + 3 s).

use experiments::ablations::Ablation;
use experiments::cell::{self, Observe};
use experiments::sweep::decode::get;
use experiments::sweep::{
    execute, AdminWindowSpec, ExecCtx, ForensicCtx, ImpairmentSpec, PlanSpec, ScenarioKind,
    ScenarioSpec, TopologyModel, TopologySpec,
};
use experiments::variants::Variant;

const VARIANTS: [Variant; 3] = [Variant::TcpPr, Variant::Sack, Variant::Bbr];

/// FNV-1a over the outcome's compact JSON text.
fn digest(v: &serde::Value) -> u64 {
    let text = serde_json::to_string(v).expect("shim serializer is total");
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn smoke(kind: ScenarioKind) -> ScenarioSpec {
    ScenarioSpec::new(kind, PlanSpec::Smoke)
}

/// Executes every spec and compares the digests with the pinned ones, all
/// at once so a failure prints the whole column.
fn assert_pinned(specs: &[ScenarioSpec], pinned: &[u64]) {
    let hex = |hashes: &[u64]| hashes.iter().map(|h| format!("{h:#018x}")).collect::<Vec<_>>();
    let got: Vec<u64> = specs.iter().map(|s| digest(&execute(s, &ExecCtx::default()))).collect();
    let labels: Vec<String> = specs.iter().map(ScenarioSpec::label).collect();
    assert_eq!(hex(&got), hex(pinned), "outcomes moved; cells in order: {labels:#?}");
}

fn loss() -> Vec<ImpairmentSpec> {
    vec![ImpairmentSpec::BurstLoss { p_good_to_bad: 0.02, p_bad_to_good: 0.3, loss_bad: 1.0 }]
}

fn reordering() -> Vec<ImpairmentSpec> {
    vec![
        ImpairmentSpec::Jitter { prob: 0.3, max_extra_ms: 30 },
        ImpairmentSpec::Displace { every: 20, depth: 4 },
        ImpairmentSpec::Duplicate { p: 0.02 },
    ]
}

fn flap() -> Vec<ImpairmentSpec> {
    vec![ImpairmentSpec::Flap { period_ms: 1500, down_ms: 200 }]
}

#[test]
fn multipath_cells_match_the_fig6_harness() {
    let mut specs = Vec::new();
    for variant in VARIANTS {
        for epsilon in [0.0, 4.0] {
            specs.push(smoke(ScenarioKind::Multipath { variant, epsilon, link_delay_ms: 10 }));
        }
    }
    for (variant, epsilon) in [(Variant::TdFr, 0.0), (Variant::TcpPr, 500.0)] {
        specs.push(smoke(ScenarioKind::Multipath { variant, epsilon, link_delay_ms: 60 }));
    }
    assert_pinned(&specs, &MULTIPATH);
}

#[test]
fn routeflap_cells_match_the_routeflap_harness() {
    let mut specs: Vec<ScenarioSpec> = VARIANTS
        .iter()
        .map(|&variant| {
            smoke(ScenarioKind::RouteFlap {
                variant,
                short_delay_ms: 10,
                long_delay_ms: 40,
                link_mbps: 10.0,
                flap_period_ms: 500,
            })
        })
        .collect();
    specs.push(smoke(ScenarioKind::RouteFlap {
        variant: Variant::NewReno,
        short_delay_ms: 5,
        long_delay_ms: 25,
        link_mbps: 8.0,
        flap_period_ms: 130,
    }));
    assert_pinned(&specs, &ROUTEFLAP);
}

#[test]
fn churn_cells_match_the_manet_harness() {
    let mut specs: Vec<ScenarioSpec> = VARIANTS
        .iter()
        .map(|&variant| {
            smoke(ScenarioKind::Churn { variant, mean_interval_ms: 400, churn_seed: 42 })
        })
        .collect();
    specs.push(smoke(ScenarioKind::Churn {
        variant: Variant::Door,
        mean_interval_ms: 150,
        churn_seed: 7,
    }));
    assert_pinned(&specs, &CHURN);
}

#[test]
fn ablation_cells_match_the_ablation_harness() {
    let specs: Vec<ScenarioSpec> =
        Ablation::ALL.iter().map(|&ablation| smoke(ScenarioKind::Ablation { ablation })).collect();
    assert_pinned(&specs, &ABLATION);
}

#[test]
fn stress_cells_match_the_stress_harness() {
    let mut specs = Vec::new();
    for variant in VARIANTS {
        for profile in [loss(), reordering(), flap()] {
            specs.push(smoke(ScenarioKind::Stress { variant }).with_impairments(profile));
        }
    }
    for profile in [
        Vec::new(),
        vec![ImpairmentSpec::IidLoss { p: 0.01 }],
        vec![ImpairmentSpec::BandwidthOscillation { low_mbps: 3.0, period_ms: 1000 }],
        vec![ImpairmentSpec::DelayOscillation { high_delay_ms: 60, period_ms: 1000 }],
    ] {
        specs.push(
            smoke(ScenarioKind::Stress { variant: Variant::TcpPr }).with_impairments(profile),
        );
    }
    assert_pinned(&specs, &STRESS);
}

fn hunt_specs() -> Vec<ScenarioSpec> {
    let down = AdminWindowSpec::Down { at_ms: 1500, dur_ms: 200 };
    let delay = AdminWindowSpec::Delay { at_ms: 2500, dur_ms: 300, delay_ms: 100 };
    let mut specs = Vec::new();
    for variant in VARIANTS {
        for (profile, schedule) in
            [(loss(), vec![down]), (reordering(), vec![delay]), (flap(), vec![down, delay])]
        {
            let spec = smoke(ScenarioKind::Hunt { variant })
                .with_impairments(profile)
                .with_schedule(schedule);
            specs.push(ScenarioSpec { base_seed: 5, ..spec });
        }
    }
    specs.push(smoke(ScenarioKind::Hunt { variant: Variant::Cubic }));
    specs
}

#[test]
fn hunt_cells_match_the_hunt_harness() {
    assert_pinned(&hunt_specs(), &HUNT);
}

/// Forensic capture (packet trace, spans, sampled series) only reads the
/// simulation: the scalar report inside the forensic payload is the plain
/// run's report, byte for byte — and the payload itself (`repro explain`'s
/// artifact body) is pinned too.
#[test]
fn forensic_capture_leaves_the_hunt_report_untouched() {
    let forensic = ExecCtx {
        forensics: Some(ForensicCtx {
            objective: Some("goodput".to_owned()),
            baseline_value: Some(4.0),
            threshold: Some(2.0),
        }),
        ..ExecCtx::default()
    };
    let specs = hunt_specs();
    let mut payloads = Vec::new();
    for spec in [&specs[0], &specs[7]] {
        let plain = execute(spec, &ExecCtx::default());
        let captured = execute(spec, &forensic);
        let cell = get(&captured, "cell").expect("forensic payload embeds the scalar report");
        assert_eq!(
            serde_json::to_string(cell).unwrap(),
            serde_json::to_string(&plain).unwrap(),
            "capture perturbed {}",
            spec.label()
        );
        payloads.push(digest(&captured));
    }
    assert_eq!(
        payloads.iter().map(|h| format!("{h:#018x}")).collect::<Vec<_>>(),
        FORENSIC.iter().map(|h| format!("{h:#018x}")).collect::<Vec<_>>()
    );
}

fn fairness_specs() -> Vec<ScenarioSpec> {
    let dumbbell = |bottleneck_mbps| TopologySpec::Dumbbell { bottleneck_mbps };
    let parking_lot = |backbone_mbps| TopologySpec::ParkingLot { backbone_mbps };
    let cell = |topology, n_flows, alpha, beta| {
        let kind = ScenarioKind::Fairness { topology, n_flows, alpha, beta, replicate: 1 };
        ScenarioSpec { base_seed: 5, ..smoke(kind) }
    };
    let mut specs = Vec::new();
    for topology in [dumbbell(None), parking_lot(None)] {
        for n_flows in [2, 8] {
            specs.push(cell(topology, n_flows, 0.995, 3.0));
        }
    }
    for topology in [dumbbell(Some(8.0)), parking_lot(Some(4.8))] {
        specs.push(cell(topology, 8, 0.995, 3.0));
    }
    specs.push(cell(dumbbell(None), 8, 0.25, 1.0));
    specs
}

#[test]
fn fairness_cells_match_the_fairness_harness() {
    assert_pinned(&fairness_specs(), &FAIRNESS);
}

#[test]
fn scale_cells_match_the_scale_harness() {
    let models =
        [TopologyModel::FatTree { k: 4 }, TopologyModel::AsGraph { nodes: 24, edges_per_node: 2 }];
    let mut specs = Vec::new();
    for variant in [Variant::TcpPr, Variant::Bbr] {
        for model in models {
            let kind = ScenarioKind::Scale { variant, model, target_flows: 120, replicate: 0 };
            specs.push(smoke(kind));
        }
    }
    assert_pinned(&specs, &SCALE);
}

/// Streaming flow 0's packet trace (`repro fig2 --telemetry-dir`) only reads
/// the simulation: the sink sees the flow's whole lifecycle and the report
/// is the untraced run's, byte for byte.
#[test]
fn a_streamed_trace_leaves_the_fairness_report_untouched() {
    use netsim::trace::{TraceRecord, TraceSink};
    use std::cell::Cell;
    use std::rc::Rc;

    struct CountingSink(Rc<Cell<u64>>);
    impl TraceSink for CountingSink {
        fn write_record(&mut self, _: &TraceRecord) {
            self.0.set(self.0.get() + 1);
        }
    }

    let spec = &fairness_specs()[0];
    let scenario = cell::lower(&spec.kind, &[], &[]);
    let seen = Rc::new(Cell::new(0u64));
    let sink = Observe::Stream(Box::new(CountingSink(Rc::clone(&seen))));
    let traced = cell::run(&scenario, spec.plan.plan(), spec.sim_seed(), sink);
    assert!(seen.get() > 1000, "flow 0's packet lifecycle streams to the sink: {}", seen.get());
    let traced = serde_json::to_string(&serde::Serialize::to_value(&traced)).unwrap();
    let plain = serde_json::to_string(&execute(spec, &ExecCtx::default())).unwrap();
    assert_eq!(traced, plain);
}

const MULTIPATH: [u64; 8] = [
    0x008287a9104c59a2,
    0x8e963574433ba118,
    0x67596c31b70ec110,
    0x65e0a41b99538c6b,
    0x736c42cd12d662ec,
    0x2c7eab13b661f852,
    0x2b3c290238d8a171,
    0xc5606e2f2888b651,
];
const ROUTEFLAP: [u64; 4] =
    [0x5c9ba2cb7b477e29, 0xcbf994460ed586a5, 0x425d63573a3c612a, 0x2698edff75f42231];
const CHURN: [u64; 4] =
    [0x6ffab0aa51662a4b, 0xeb373eaac5809b06, 0x2960ee36ca89c7b7, 0x4a1ff4a35ac16412];
const ABLATION: [u64; 4] =
    [0x86b8bf04605e56ea, 0x528d9feb31e9e21e, 0x783f29022733f469, 0x43e634a695420e03];
const STRESS: [u64; 13] = [
    0x6f955d8884928561,
    0xf8947791209e0cc6,
    0xffefa452b5042965,
    0x9fd4eaa1b524ac60,
    0xd756f67029710496,
    0x27770851910f2db4,
    0x133796f10923027a,
    0xa64126c3a629d998,
    0x5b6df18437ca1abd,
    0x175c7b9bb87bfeff,
    0x5d9af7ddec7a9bc6,
    0x5da166aef2c7a57b,
    0x3cc488980897027b,
];
const HUNT: [u64; 10] = [
    0x1e168e4dca9ee1a2,
    0xe2c78f2a0ee55ca7,
    0x6b3e95ae2f6f8ed5,
    0xf4ead7e5f7ee22e3,
    0xdcd15620904cf0d4,
    0xa5162fd0c123d951,
    0xceb6684908b346bd,
    0x69cff60ce380af87,
    0x43ca6574e8a8f601,
    0x5d23e09c866e5be8,
];
const FORENSIC: [u64; 2] = [0x57648666ddaada0e, 0x06a79eeb25404511];
const FAIRNESS: [u64; 7] = [
    0x79fcd4d196a90cf5,
    0x7d0345acbbb05bda,
    0x08642393f54ea988,
    0x42dec259de0b1ebc,
    0x2ee59dd95a1cefc5,
    0x51619dd2f78c27ee,
    0x6e330261baeefe72,
];
/// Recorded on `796450a` with the rest, then re-recorded on the commit after
/// `e583869`, which shrank the event key from 24 to 16 bytes: a pending
/// event is priced at `EventQueue::record_bytes()`, 40 B where it was 48 B,
/// so each cell's `bytes_per_flow` fell (131 → 128, 242 → 236, 132 → 129,
/// 238 → 233) and no other byte of the four outcomes moved.
const SCALE: [u64; 4] =
    [0xc61c953d3c38cf28, 0x5a4617466747c09b, 0x0aa9d47e307aa193, 0x4900744870ce9944];
