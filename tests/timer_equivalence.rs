//! Pins the one-pop-per-timer event core to the eager schedule it replaced
//! (every `set_timer` its own heap entry, discarded at its instant if a
//! later arm had superseded it).
//!
//! Each hash below was recorded on the last eager commit (`b14b9fd`) by
//! running this very file there; no eager path survives to compare
//! against. As in `linkready_equivalence.rs`, a fingerprint covers every
//! trace record (`at`, `uid`, `kind`) in order, `SimStats` minus `events`
//! (the one counter the change lowers on purpose) and per-link
//! `transmitted` — so a callback run at a different place among the ties
//! of its instant, a shifted RNG draw or a lost wake-up all move it. The
//! scenarios cover the ways a timer is used: re-armed later on nearly
//! every ACK (every sender's RTO, TCP-PR's `mxrtt` timer), cancelled
//! (delayed-ACK receivers), moved *earlier* (the pacer's release clock),
//! self-clocked from inside `on_timer`, and armed once for a late start.

use baselines::{SackConfig, SackSender};
use cc::{BbrConfig, BbrSender};
use netsim::sim::{SimBuilder, Simulator};
use netsim::time::{SimDuration, SimTime};
use netsim::trace::TraceEventKind;
use netsim::traffic::{CbrSink, CbrSource, OnOffSource};
use netsim::{FlowId, LinkConfig, LinkId, NodeId};
use tcp_pr::{TcpPrConfig, TcpPrSender};
use transport::host::{attach_flow, FlowOptions};
use transport::sender::TcpSenderAlgo;

/// FNV-1a over a stream of `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn kind_words(kind: &TraceEventKind) -> (u64, u64) {
    match kind {
        TraceEventKind::Injected => (0, 0),
        TraceEventKind::Enqueued(l) => (1, l.index() as u64),
        TraceEventKind::QueueDrop(l) => (2, l.index() as u64),
        TraceEventKind::RandomLoss(l) => (3, l.index() as u64),
        TraceEventKind::LinkTx(l) => (4, l.index() as u64),
        TraceEventKind::ImpairDrop(l) => (5, l.index() as u64),
        TraceEventKind::Duplicated(l) => (6, l.index() as u64),
        TraceEventKind::Delivered(n) => (7, n.index() as u64),
        TraceEventKind::NoRoute => (8, 0),
    }
}

/// Hash of everything a run may not change: the full packet trace, the
/// global counters except `events`, and each link's transmit count.
fn fingerprint(sim: &Simulator) -> u64 {
    assert_eq!(sim.dropped_trace_records(), 0, "trace buffer must hold the whole run");
    let mut h = Fnv::new();
    let records = sim.trace_records();
    assert!(records.len() > 2_000, "scenario too small to mean anything: {}", records.len());
    for r in &records {
        let (tag, id) = kind_words(&r.kind);
        h.word(r.at.as_nanos());
        h.word(r.uid);
        h.word(tag);
        h.word(id);
    }
    let s = sim.stats();
    for w in [
        s.queue_drops,
        s.random_losses,
        s.no_route_drops,
        s.delivered,
        s.injected,
        s.impair_drops,
        s.impair_dups,
        s.link_flaps,
        s.time_regressions,
    ] {
        h.word(w);
    }
    for i in 0..sim.link_count() {
        h.word(sim.link(LinkId::from_raw(i as u32)).transmitted);
    }
    h.0
}

fn traced(b: SimBuilder) -> Simulator {
    let mut sim = b.build();
    sim.enable_trace(&[], 2_000_000);
    sim
}

/// The run must also satisfy the oracle, lost timers included — checked
/// mid-run too, while timers are armed behind pending pops.
fn finish(mut sim: Simulator, secs: f64) -> u64 {
    for tenth in 1..=10 {
        sim.run_until(SimTime::from_secs_f64(secs * f64::from(tenth) / 10.0));
        assert_eq!(netsim::oracle::check(&sim.invariant_snapshot()), Vec::new());
    }
    fingerprint(&sim)
}

fn tcp(
    sim: &mut Simulator,
    flow: u32,
    src: NodeId,
    dst: NodeId,
    algo: impl TcpSenderAlgo + 'static,
    opts: FlowOptions,
) {
    attach_flow(sim, FlowId::from_raw(flow), src, dst, algo, opts);
}

fn tcp_pr() -> TcpPrSender {
    TcpPrSender::new(TcpPrConfig::default())
}

fn sack() -> SackSender {
    SackSender::new(SackConfig::default())
}

fn delayed_ack(ms: u64, start_ms: u64) -> FlowOptions {
    FlowOptions {
        delayed_ack: Some(SimDuration::from_millis(ms)),
        start_at: SimTime::ZERO + SimDuration::from_millis(start_ms),
        ..FlowOptions::default()
    }
}

/// TCP-PR and TCP-SACK share a bottleneck that loses 1 % of packets at
/// random and overflows its 25-packet queue, both receivers delaying their
/// ACKs: the senders move their timer on every ACK and let it fire after
/// losses, the receivers arm theirs on every odd segment and cancel it on
/// every even one.
#[test]
fn lossy_bottleneck_with_delayed_acks_matches_the_eager_schedule() {
    let mut b = SimBuilder::new(11);
    let n = b.add_nodes(4);
    b.add_duplex(n[0], n[2], LinkConfig::mbps_ms(100.0, 1, 200));
    b.add_duplex(n[1], n[2], LinkConfig::mbps_ms(100.0, 2, 200));
    b.add_link(n[2], n[3], LinkConfig::mbps_ms(5.0, 10, 25).with_random_loss(0.01));
    b.add_link(n[3], n[2], LinkConfig::mbps_ms(5.0, 10, 25));
    let mut sim = traced(b);
    tcp(&mut sim, 0, n[0], n[3], tcp_pr(), delayed_ack(100, 0));
    tcp(&mut sim, 1, n[1], n[3], sack(), delayed_ack(40, 150));
    assert_eq!(finish(sim, 12.0), LOSSY_BOTTLENECK);
}

/// One BBR flow, every segment through the pacer: the auxiliary timer is
/// re-armed on each release and on each ACK, often for an *earlier*
/// instant than the pop already pending, beside the RTO on the main timer.
/// A CBR flow across the bottleneck makes the rate estimate move.
#[test]
fn paced_bbr_matches_the_eager_schedule() {
    let mut b = SimBuilder::new(12);
    let n = b.add_nodes(3);
    b.add_duplex(n[0], n[1], LinkConfig::mbps_ms(100.0, 1, 200));
    b.add_duplex(n[1], n[2], LinkConfig::mbps_ms(8.0, 15, 40));
    let mut sim = traced(b);
    tcp(&mut sim, 0, n[0], n[2], BbrSender::new(BbrConfig::default()), FlowOptions::default());
    let flow = FlowId::from_raw(1);
    let start = SimTime::from_secs_f64(1.5);
    sim.add_agent(n[1], flow, Box::new(CbrSource::new(n[2], 3e6, 1000, start)));
    sim.add_agent(n[2], flow, Box::new(CbrSink::new()));
    assert_eq!(finish(sim, 8.0), PACED_BBR);
}

/// Self-clocked sources only: each callback arms the next from inside
/// `on_timer`, so no timer is ever superseded, and every source starts
/// late, on a timer armed in `on_start`. Intervals are whole multiples of
/// the serialization time, so timers tie with link polls and arrivals.
#[test]
fn self_clocked_cross_traffic_matches_the_eager_schedule() {
    let mut b = SimBuilder::new(13);
    let n = b.add_nodes(4);
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
    assert_eq!(finish(sim, 0.5), SELF_CLOCKED);
}

/// A TCP-PR and a TCP-SACK flow over a diamond whose route flaps between
/// the short and the long path twice mid-flow: the jump in delay reorders
/// a window of segments and stretches the RTT under armed timers.
#[test]
fn route_flap_mid_flow_matches_the_eager_schedule() {
    let mut b = SimBuilder::new(14);
    let n = b.add_nodes(4);
    b.add_duplex(n[0], n[1], LinkConfig::mbps_ms(10.0, 5, 60));
    b.add_duplex(n[1], n[3], LinkConfig::mbps_ms(10.0, 5, 60));
    b.add_duplex(n[0], n[2], LinkConfig::mbps_ms(10.0, 40, 60));
    b.add_duplex(n[2], n[3], LinkConfig::mbps_ms(10.0, 40, 60));
    let mut sim = traced(b);
    for (secs, path) in [(0.0, 0), (2.0, 1), (3.5, 0), (5.0, 1)] {
        sim.schedule_path_pin(SimTime::from_secs_f64(secs), n[0], n[3], path, 4);
    }
    tcp(&mut sim, 0, n[0], n[3], tcp_pr(), FlowOptions::default());
    tcp(&mut sim, 1, n[0], n[3], sack(), delayed_ack(50, 300));
    assert_eq!(finish(sim, 7.0), ROUTE_FLAP);
}

const LOSSY_BOTTLENECK: u64 = 0xd998aabe50cde949;
const PACED_BBR: u64 = 0x5ccef7335b01beb3;
const SELF_CLOCKED: u64 = 0xa6788847ed96642b;
const ROUTE_FLAP: u64 = 0xfc507b607d0427cb;
