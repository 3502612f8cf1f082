//! Pins the virtual-`LinkReady` event core to the eager schedule it
//! replaced (one unconditional `LinkReady` per transmission).
//!
//! Each hash below was recorded on the last eager commit (`7c774ed`) by
//! running this very file there; no eager path survives to compare
//! against. A fingerprint covers every trace record (`at`, `uid`, `kind`)
//! in order, `SimStats` minus `events` (the one counter the elision lowers
//! on purpose), and per-link `transmitted` — so a tie dispatched in a
//! different order, a shifted RNG draw or a changed drop-tail decision all
//! move it. The scenarios are built to force ties: emission intervals are
//! whole multiples of the serialization time, so packets reach a
//! transmitter at exactly the instant its previous serialization ends.
//!
//! The last scenario pins the packet arena the same way: recorded on
//! `d36cb66`, the last commit to move each `Packet` by value through the
//! event queue and the link queues, and — nothing it could shift being
//! elided — with `events` and the heap's high-water mark in the hash.

use netsim::impair::{flap_schedule, LinkAdmin, StageConfig};
use netsim::link::DiffservScheduler;
use netsim::sim::{SimBuilder, Simulator};
use netsim::time::{SimDuration, SimTime};
use netsim::trace::TraceEventKind;
use netsim::traffic::{CbrSink, CbrSource, OnOffSource};
use netsim::{FlowId, LinkConfig, LinkId, NodeId};

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
    assert!(records.len() > 500, "scenario too small to mean anything: {}", records.len());
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
    sim.enable_trace(&[], 1_000_000);
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

/// The run must also satisfy the oracle, lost wake-ups included.
fn finish(mut sim: Simulator, secs: f64) -> u64 {
    sim.run_until(SimTime::from_secs_f64(secs));
    assert_eq!(netsim::oracle::check(&sim.invariant_snapshot()), Vec::new());
    fingerprint(&sim)
}

/// Five nodes in a row, every link 10 Mbit/s, every packet 1000 B (800 µs
/// on the wire). A line-rate source emits exactly when its access link
/// finishes the previous packet — and, that link having no propagation
/// delay, exactly when that packet reaches the next node, so the order of
/// the two depends on the `seq` the access link drew when it started.
/// Downstream each arrival coincides with the end of its predecessor's
/// serialization; an on-off source joining mid-chain drives one hop in and
/// out of congestion, and a slow reverse flow crosses hops that never
/// queue.
#[test]
fn equal_rate_chain_matches_the_eager_schedule() {
    let mut b = SimBuilder::new(1);
    let n = b.add_nodes(5);
    b.add_duplex(n[0], n[1], LinkConfig::new(10e6, SimDuration::ZERO, 50));
    for pair in n[1..].windows(2) {
        b.add_duplex(pair[0], pair[1], LinkConfig::mbps_ms(10.0, 1, 50));
    }
    let mut sim = traced(b);
    cbr(&mut sim, 0, n[0], n[4], 10.0, 0);
    on_off(&mut sim, 1, n[1], n[4], 5.0, 20);
    cbr(&mut sim, 2, n[4], n[0], 2.5, 0);
    cbr(&mut sim, 3, n[2], n[3], 5.0, 2_600);
    assert_eq!(finish(sim, 0.25), EQUAL_RATE_CHAIN);
}

/// A 3:1 weighted-round-robin DiffServ hop fed in bursts, so the
/// transmitter idles between them: every empty poll advances the WRR
/// credit, and the order packets leave in depends on it.
#[test]
fn diffserv_wrr_matches_the_eager_schedule() {
    let mut b = SimBuilder::new(2);
    let n = b.add_nodes(3);
    b.add_duplex(n[0], n[1], LinkConfig::mbps_ms(100.0, 1, 200));
    let wrr = DiffservScheduler::WeightedRoundRobin { hi: 3, lo: 1 };
    b.add_duplex(n[1], n[2], LinkConfig::mbps_ms(10.0, 2, 20).with_diffserv(0.5, wrr));
    let mut sim = traced(b);
    on_off(&mut sim, 0, n[0], n[2], 20.0, 5);
    cbr(&mut sim, 1, n[1], n[2], 2.0, 0);
    cbr(&mut sim, 2, n[2], n[0], 1.0, 400);
    assert_eq!(finish(sim, 0.3), DIFFSERV_WRR);
}

/// Gilbert–Elliott loss, duplication, jitter and displacement stages on
/// the first hop, legacy random loss and jitter (main RNG stream) on the
/// second: any event dispatched out of order shifts a draw.
#[test]
fn impaired_links_match_the_eager_schedule() {
    let stages = [
        StageConfig::GilbertElliott {
            p_good_to_bad: 0.05,
            p_bad_to_good: 0.3,
            loss_good: 0.0,
            loss_bad: 1.0,
        },
        StageConfig::Duplicate { p: 0.05 },
        StageConfig::Jitter { prob: 0.25, max_extra: SimDuration::from_millis(4) },
        StageConfig::Displace { every: 7, depth: 3 },
    ];
    let mut b = SimBuilder::new(3);
    let n = b.add_nodes(3);
    b.add_duplex(n[0], n[1], LinkConfig::mbps_ms(10.0, 5, 30).with_impairments(&stages));
    let lossy = LinkConfig::mbps_ms(10.0, 5, 30)
        .with_random_loss(0.02)
        .with_jitter(0.3, SimDuration::from_millis(3));
    b.add_duplex(n[1], n[2], lossy);
    let mut sim = traced(b);
    cbr(&mut sim, 0, n[0], n[2], 5.0, 0);
    on_off(&mut sim, 1, n[0], n[2], 10.0, 10);
    cbr(&mut sim, 2, n[2], n[0], 2.5, 800);
    assert_eq!(finish(sim, 0.5), IMPAIRED_LINKS);
}

/// A 1 Mbit/s hop (8 ms per packet) fed in bursts and flapped on two
/// schedules. Serializations start at 1.08 ms + k·8 ms while backlogged,
/// so the 80 ms flap lands mid-transmission with packets queued, and the
/// hand-placed actions land exactly on end-of-serialization instants —
/// some scheduled before the run (ordered ahead of the link's own poll),
/// some between two `run_until` calls (ordered behind it).
#[test]
fn flaps_during_transmission_match_the_eager_schedule() {
    let mut b = SimBuilder::new(4);
    let n = b.add_nodes(3);
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
    assert_eq!(finish(sim, 1.0), FLAPS_DURING_TRANSMISSION);
}

/// Every way a packet leaves the network, in one run: a diamond whose two
/// arms ε-multipath flows are source-routed over (one arm behind a
/// Gilbert–Elliott + jitter + displacement + duplication pipeline), then an
/// oversubscribed WRR DiffServ hop with random loss that is flapped down
/// and up mid-run; beside them a flow to a node where no agent serves it
/// and one to a node no link reaches.
#[test]
fn every_packet_exit_matches_the_by_value_path() {
    let stages = [
        StageConfig::GilbertElliott {
            p_good_to_bad: 0.04,
            p_bad_to_good: 0.25,
            loss_good: 0.0,
            loss_bad: 1.0,
        },
        StageConfig::Jitter { prob: 0.3, max_extra: SimDuration::from_millis(4) },
        StageConfig::Displace { every: 5, depth: 2 },
        StageConfig::Duplicate { p: 0.06 },
    ];
    let mut b = SimBuilder::new(5);
    let n = b.add_nodes(7);
    b.add_duplex(n[0], n[1], LinkConfig::mbps_ms(10.0, 1, 20).with_impairments(&stages));
    b.add_duplex(n[0], n[2], LinkConfig::mbps_ms(10.0, 2, 20));
    b.add_duplex(n[1], n[3], LinkConfig::mbps_ms(10.0, 1, 20));
    b.add_duplex(n[2], n[3], LinkConfig::mbps_ms(10.0, 1, 20));
    let wrr = DiffservScheduler::WeightedRoundRobin { hi: 2, lo: 1 };
    let shared = LinkConfig::mbps_ms(8.0, 2, 12).with_diffserv(0.4, wrr).with_random_loss(0.03);
    let (bottleneck, _) = b.add_duplex(n[3], n[4], shared);
    b.add_duplex(n[4], n[5], LinkConfig::mbps_ms(10.0, 1, 20));
    let mut sim = traced(b);
    assert_eq!(sim.install_multipath(n[0], n[4], 0.5, 4), 2);
    assert_eq!(sim.install_multipath(n[4], n[0], 0.0, 4), 2);
    let ms = SimDuration::from_millis;
    sim.apply_admin_schedule(
        bottleneck,
        &flap_schedule(ms(150), ms(20), SimTime::from_secs_f64(0.5)),
    );
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
    let (events, heap_peak) = (s.events, sim.event_heap_peak() as u64);
    let mut h = Fnv(finish(sim, 0.6));
    h.word(events);
    h.word(heap_peak);
    assert_eq!(h.0, EVERY_PACKET_EXIT);
}

const EQUAL_RATE_CHAIN: u64 = 0xe6695e9d8f9c16ec;
const DIFFSERV_WRR: u64 = 0x3649e9307f835346;
const IMPAIRED_LINKS: u64 = 0xdfce82a80fcb9d99;
const FLAPS_DURING_TRANSMISSION: u64 = 0x896302ab94023f11;
const EVERY_PACKET_EXIT: u64 = 0x767af67b4adf2968;
