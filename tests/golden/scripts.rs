//! The golden rows below the cell level that need nothing but `netsim`: the
//! fingerprint of a scripted run, the five link-ready scripts, and the row
//! comparison every golden test ends in. A script's outcome is FNV-1a over its
//! trace records (`at`, `uid`, kind), `SimStats` minus `events` and each
//! link's `transmitted`.

// Each test binary that includes this module uses a part of it.
#![allow(dead_code)]

use netsim::impair::{flap_schedule, LinkAdmin, StageConfig};
use netsim::link::DiffservScheduler;
use netsim::sim::{SimBuilder, Simulator};
use netsim::time::{SimDuration, SimTime};
use netsim::trace::{TraceEventKind, TraceRecord};
use netsim::traffic::{CbrSink, CbrSource, OnOffSource};
use netsim::{FlowId, LinkConfig, LinkId, NodeId};

use crate::pins::PINS;

pub type Script = fn() -> Simulator;

pub const LINK_SCRIPTS: [(&str, Script); 5] = [
    ("equal-rate chain", equal_rate_chain),
    ("diffserv wrr", diffserv_wrr),
    ("impaired links", impaired_links),
    ("flaps during transmission", flaps_during_transmission),
    ("every packet exit", every_packet_exit),
];

/// Runs the link-ready script `name` and compares it with its row.
pub fn check(name: &str) {
    let (_, script) = LINK_SCRIPTS.iter().find(|s| s.0 == name).expect("a link-ready script");
    assert_rows(&[(format!("script {name}"), fingerprint(&script()))]);
}

/// Compares measured `(label, [outcome, events, heap_peak])` rows with the
/// table, reporting every row that moved in source form.
pub fn assert_rows(measured: &[(String, [u64; 3])]) {
    let mut moved = Vec::new();
    for (label, got) in measured {
        let pin = PINS.iter().find(|p| p.0 == label).unwrap_or_else(|| panic!("no row {label}"));
        let (pinned, got) = (source_form(label, [pin.1, pin.2, pin.3]), source_form(label, *got));
        moved.extend((pinned != got).then(|| format!("pinned {pinned}\n   got {got}")));
    }
    assert!(moved.is_empty(), "rows moved:\n{}", moved.join("\n"));
}

pub fn source_form(label: &str, [outcome, events, heap_peak]: [u64; 3]) -> String {
    format!("({label:?}, {outcome:#018x}, {events}, {heap_peak}),")
}

pub fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let step = |h: u64, b: u8| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, step)
}

fn record_words(r: TraceRecord) -> [u64; 4] {
    let (tag, id) = match r.kind {
        TraceEventKind::Injected => (0, 0),
        TraceEventKind::Enqueued(l) => (1, l.index()),
        TraceEventKind::QueueDrop(l) => (2, l.index()),
        TraceEventKind::RandomLoss(l) => (3, l.index()),
        TraceEventKind::LinkTx(l) => (4, l.index()),
        TraceEventKind::ImpairDrop(l) => (5, l.index()),
        TraceEventKind::Duplicated(l) => (6, l.index()),
        TraceEventKind::Delivered(n) => (7, n.index()),
        TraceEventKind::NoRoute => (8, 0),
    };
    [r.at.as_nanos(), r.uid, tag, id as u64]
}

pub fn fingerprint(sim: &Simulator) -> [u64; 3] {
    let s = sim.stats();
    let counts = [s.queue_drops, s.random_losses, s.no_route_drops, s.delivered, s.injected];
    let impair = [s.impair_drops, s.impair_dups, s.link_flaps, s.time_regressions];
    let links = (0..sim.link_count()).map(|i| sim.link(LinkId::from_raw(i as u32)).transmitted);
    let trace = sim.trace_records().into_iter().flat_map(record_words);
    let words = trace.chain(counts).chain(impair).chain(links);
    [fnv(words.flat_map(u64::to_le_bytes)), s.events, sim.event_heap_peak() as u64]
}

/// A builder seeded with `seed` and its `nodes` nodes.
pub fn network(seed: u64, nodes: usize) -> (SimBuilder, Vec<NodeId>) {
    let mut b = SimBuilder::new(seed);
    let n = b.add_nodes(nodes);
    (b, n)
}

pub fn traced(b: SimBuilder) -> Simulator {
    let mut sim = b.build();
    sim.enable_trace(&[], 2_000_000);
    sim
}

/// Runs to `secs` in `legs` legs, the oracle clean after each (lost wake-ups
/// and timers included), the whole run traced and big enough to mean anything.
pub fn finish(mut sim: Simulator, secs: f64, legs: u32, min_records: usize) -> Simulator {
    for leg in 1..=legs {
        sim.run_until(SimTime::from_secs_f64(secs * f64::from(leg) / f64::from(legs)));
        assert_eq!(netsim::oracle::check(&sim.invariant_snapshot()), Vec::new());
    }
    assert_eq!(sim.dropped_trace_records(), 0, "trace buffer must hold the whole run");
    let records = sim.trace_records().len();
    assert!(records > min_records, "scenario too small to mean anything: {records}");
    sim
}

fn cbr(sim: &mut Simulator, flow: u32, src: NodeId, dst: NodeId, mbps: f64, start_us: u64) {
    let start = SimTime::ZERO + SimDuration::from_micros(start_us);
    let flow = FlowId::from_raw(flow);
    sim.add_agent(src, flow, Box::new(CbrSource::new(dst, mbps * 1e6, 1000, start)));
    sim.add_agent(dst, flow, Box::new(CbrSink::new()));
}

fn on_off(sim: &mut Simulator, flow: u32, src: NodeId, dst: NodeId, mbps: f64, period_ms: u64) {
    let half = SimDuration::from_millis(period_ms);
    let flow = FlowId::from_raw(flow);
    let source = OnOffSource::new(dst, mbps * 1e6, 1000, half, half, SimTime::ZERO);
    sim.add_agent(src, flow, Box::new(source));
    sim.add_agent(dst, flow, Box::new(CbrSink::new()));
}

// The link-ready scripts force ties: emission intervals are whole multiples
// of the serialization time, so packets reach a transmitter as it frees.

/// A line-rate source emits as its zero-delay access link delivers, so the
/// order depends on the link's `seq`; on-off traffic joins mid-chain.
fn equal_rate_chain() -> Simulator {
    let (mut b, n) = network(1, 5);
    b.add_duplex(n[0], n[1], LinkConfig::new(10e6, SimDuration::ZERO, 50));
    for pair in n[1..].windows(2) {
        b.add_duplex(pair[0], pair[1], LinkConfig::mbps_ms(10.0, 1, 50));
    }
    let mut sim = traced(b);
    cbr(&mut sim, 0, n[0], n[4], 10.0, 0);
    on_off(&mut sim, 1, n[1], n[4], 5.0, 20);
    cbr(&mut sim, 2, n[4], n[0], 2.5, 0);
    cbr(&mut sim, 3, n[2], n[3], 5.0, 2_600);
    finish(sim, 0.25, 1, 500)
}

/// A bursty 3:1 WRR DiffServ hop: every empty poll moves the order packets leave in.
fn diffserv_wrr() -> Simulator {
    let (mut b, n) = network(2, 3);
    b.add_duplex(n[0], n[1], LinkConfig::mbps_ms(100.0, 1, 200));
    let wrr = DiffservScheduler::WeightedRoundRobin { hi: 3, lo: 1 };
    b.add_duplex(n[1], n[2], LinkConfig::mbps_ms(10.0, 2, 20).with_diffserv(0.5, wrr));
    let mut sim = traced(b);
    on_off(&mut sim, 0, n[0], n[2], 20.0, 5);
    cbr(&mut sim, 1, n[1], n[2], 2.0, 0);
    cbr(&mut sim, 2, n[2], n[0], 1.0, 400);
    finish(sim, 0.3, 1, 500)
}

/// Impairment stages on one hop, legacy loss and jitter (the main RNG
/// stream) on the next: any event dispatched out of order shifts a draw.
fn impaired_links() -> Simulator {
    use StageConfig::{Displace, Duplicate, GilbertElliott, Jitter};
    let stages = [
        GilbertElliott { p_good_to_bad: 0.05, p_bad_to_good: 0.3, loss_good: 0.0, loss_bad: 1.0 },
        Duplicate { p: 0.05 },
        Jitter { prob: 0.25, max_extra: SimDuration::from_millis(4) },
        Displace { every: 7, depth: 3 },
    ];
    let (mut b, n) = network(3, 3);
    let (fwd, rev) = b.add_duplex(n[0], n[1], LinkConfig::mbps_ms(10.0, 5, 30));
    let lossy = LinkConfig::mbps_ms(10.0, 5, 30)
        .with_random_loss(0.02)
        .with_jitter(0.3, SimDuration::from_millis(3));
    b.add_duplex(n[1], n[2], lossy);
    let mut sim = traced(b);
    sim.set_link_impairments(fwd, &stages);
    sim.set_link_impairments(rev, &stages);
    cbr(&mut sim, 0, n[0], n[2], 5.0, 0);
    on_off(&mut sim, 1, n[0], n[2], 10.0, 10);
    cbr(&mut sim, 2, n[2], n[0], 2.5, 800);
    finish(sim, 0.5, 1, 500)
}

/// A bursty 1 Mbit/s hop flapped mid-transmission and at ends of
/// serialization (1.08 ms + k·8 ms), before the run and between `run_until`s.
fn flaps_during_transmission() -> Simulator {
    let (mut b, n) = network(4, 3);
    let (access, _) = b.add_duplex(n[0], n[1], LinkConfig::mbps_ms(100.0, 1, 200));
    let (slow, _) = b.add_duplex(n[1], n[2], LinkConfig::mbps_ms(1.0, 3, 10));
    let mut sim = traced(b);
    let until = SimTime::from_secs_f64(0.9);
    let ms = SimDuration::from_millis;
    sim.apply_admin_schedule(slow, &flap_schedule(ms(80), ms(24), until));
    sim.apply_admin_schedule(access, &flap_schedule(ms(50), ms(10), until));
    let on_poll = |k: u64| SimTime::ZERO + SimDuration::from_micros(1_080 + 8_000 * k);
    for k in [4, 30, 61] {
        sim.schedule_link_admin(on_poll(k), slow, LinkAdmin::Down);
        sim.schedule_link_admin(on_poll(k + 2), slow, LinkAdmin::Up);
    }
    on_off(&mut sim, 0, n[0], n[2], 2.0, 40);
    cbr(&mut sim, 1, n[1], n[2], 0.25, 0);
    cbr(&mut sim, 2, n[2], n[0], 0.5, 0);
    sim.run_until(SimTime::from_secs_f64(0.4));
    for k in [51, 55, 70, 90] {
        sim.schedule_link_admin(on_poll(k), slow, LinkAdmin::Down);
        sim.schedule_link_admin(on_poll(k + 1), slow, LinkAdmin::Up);
    }
    assert!(sim.stats().link_flaps > 10, "flaps ran: {:?}", sim.stats());
    finish(sim, 1.0, 1, 500)
}

/// Every way a packet leaves the network: ε-multipath over a diamond with
/// one impaired arm, a lossy, flapped WRR DiffServ hop, a flow no agent
/// serves and one to a node no link reaches.
fn every_packet_exit() -> Simulator {
    use StageConfig::{Displace, Duplicate, GilbertElliott, Jitter};
    let stages = [
        GilbertElliott { p_good_to_bad: 0.04, p_bad_to_good: 0.25, loss_good: 0.0, loss_bad: 1.0 },
        Jitter { prob: 0.3, max_extra: SimDuration::from_millis(4) },
        Displace { every: 5, depth: 2 },
        Duplicate { p: 0.06 },
    ];
    let (mut b, n) = network(5, 7);
    let (fwd, rev) = b.add_duplex(n[0], n[1], LinkConfig::mbps_ms(10.0, 1, 20));
    b.add_duplex(n[0], n[2], LinkConfig::mbps_ms(10.0, 2, 20));
    b.add_duplex(n[1], n[3], LinkConfig::mbps_ms(10.0, 1, 20));
    b.add_duplex(n[2], n[3], LinkConfig::mbps_ms(10.0, 1, 20));
    let wrr = DiffservScheduler::WeightedRoundRobin { hi: 2, lo: 1 };
    let shared = LinkConfig::mbps_ms(8.0, 2, 12).with_diffserv(0.4, wrr).with_random_loss(0.03);
    let (bottleneck, _) = b.add_duplex(n[3], n[4], shared);
    b.add_duplex(n[4], n[5], LinkConfig::mbps_ms(10.0, 1, 20));
    let mut sim = traced(b);
    sim.set_link_impairments(fwd, &stages);
    sim.set_link_impairments(rev, &stages);
    assert_eq!(sim.install_multipath(n[0], n[4], 0.5, 4), 2);
    assert_eq!(sim.install_multipath(n[4], n[0], 0.0, 4), 2);
    let (ms, until) = (SimDuration::from_millis, SimTime::from_secs_f64(0.5));
    sim.apply_admin_schedule(bottleneck, &flap_schedule(ms(150), ms(20), until));
    cbr(&mut sim, 0, n[0], n[4], 6.0, 0);
    on_off(&mut sim, 1, n[0], n[4], 8.0, 15);
    cbr(&mut sim, 2, n[4], n[0], 4.0, 300);
    // Flow 3 crosses the whole network and finds no agent; flow 4's
    // destination has no links, so its source's node has no next hop.
    let (unserved, unreachable) = (FlowId::from_raw(3), FlowId::from_raw(4));
    sim.add_agent(n[0], unserved, Box::new(CbrSource::new(n[5], 1e6, 1000, SimTime::ZERO)));
    sim.add_agent(n[1], unreachable, Box::new(CbrSource::new(n[6], 1e6, 1000, SimTime::ZERO)));
    sim.run_until(SimTime::from_secs_f64(0.3));
    sim.schedule_link_admin(SimTime::from_secs_f64(0.41), bottleneck, LinkAdmin::Down);
    sim.schedule_link_admin(SimTime::from_secs_f64(0.44), bottleneck, LinkAdmin::Up);
    sim.run_until(SimTime::from_secs_f64(0.6));
    let (s, impair) = (sim.stats().clone(), sim.impair_totals());
    let records = sim.trace_records();
    let no_route = |flow| {
        records.iter().filter(|r| r.flow == flow && r.kind == TraceEventKind::NoRoute).count()
    };
    assert!(s.queue_drops > 0 && s.random_losses > 0 && s.impair_dups > 0, "{s:?}");
    assert!(impair.down_drops > 0 && s.impair_drops > impair.down_drops, "{s:?} {impair:?}");
    assert!(no_route(unserved) > 0 && no_route(unreachable) > 0 && s.delivered > 0, "{s:?}");
    // Next-hop routing prefers the n1 arm; only a pinned route crosses n2.
    let carried = |from: NodeId, to: NodeId| {
        let mut links = (0..sim.link_count()).map(|i| sim.link(LinkId::from_raw(i as u32)));
        links.find(|l| l.from == from && l.to == to).expect("link exists").transmitted
    };
    assert!(carried(n[0], n[2]) > 0 && carried(n[3], n[2]) > 0, "source routes used both arms");
    assert!(carried(n[0], n[1]) > 0 && carried(n[3], n[1]) > 0, "source routes used both arms");
    finish(sim, 0.6, 1, 500)
}
