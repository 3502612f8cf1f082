//! Whole-simulator scenarios that need nothing but the public API: what a
//! run delivers and drops, over one link, a diamond of paths, or a timer.
//! Tests that read the simulator's private state stay in `sim.rs`.

use netsim::{AckEvent, DataHeader, SimBuilder, SimDuration, SimTime, DATA_PACKET_BYTES};
use netsim::{Agent, AgentCtx, FlowId, LinkConfig, LinkId, NodeId, Packet, PacketKind};

/// Sends `count` data packets at start.
struct Blaster {
    dst: NodeId,
    count: u64,
}

impl Agent for Blaster {
    fn on_start(&mut self, ctx: &mut AgentCtx<'_>) {
        for seq in 0..self.count {
            let header = DataHeader { seq, tx_count: 1, timestamp: ctx.now };
            ctx.send(self.dst, DATA_PACKET_BYTES, PacketKind::Data(header));
        }
    }
    fn on_packet(&mut self, _packet: Packet, _ctx: &mut AgentCtx<'_>) {}
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
            let ack = AckEvent {
                cum_ack: h.seq + 1,
                sack: Vec::new(),
                dsack: None,
                echo_timestamp: h.timestamp,
                echo_tx_count: h.tx_count,
                dup: false,
            };
            ctx.send(self.peer, 40, PacketKind::Ack(ack));
        }
    }
    fn on_timer(&mut self, _ctx: &mut AgentCtx<'_>) {}
}

/// `count` packets blasted from `a` to `d` over two paths `a → mᵢ → d` of
/// `delays_ms` each way, split evenly; the sequence numbers `d` received.
fn over_two_paths(seed: u64, delays_ms: [u64; 2], count: u64) -> (Vec<u64>, [u64; 2]) {
    let mut b = SimBuilder::new(seed);
    let [a, m1, m2, d] = [(); 4].map(|_| b.add_node());
    for (m, ms) in [(m1, delays_ms[0]), (m2, delays_ms[1])] {
        b.add_duplex(a, m, LinkConfig::mbps_ms(100.0, ms, 4000));
        b.add_duplex(m, d, LinkConfig::mbps_ms(100.0, ms, 4000));
    }
    let mut sim = b.build();
    assert_eq!(sim.install_multipath(a, d, 0.0, 4), 2);
    let flow = FlowId::from_raw(0);
    sim.add_agent(a, flow, Box::new(Blaster { dst: d, count }));
    let rx = sim.add_agent(d, flow, Box::new(Echo { peer: a, received: Vec::new() }));
    sim.run_until(SimTime::from_secs_f64(5.0));
    let received = sim.agent(rx).as_any().downcast_ref::<Echo>().unwrap().received.clone();
    // m1 → d is link 2, m2 → d link 6.
    let via = [2, 6].map(|l| sim.link(LinkId::from_raw(l)).transmitted);
    (received, via)
}

#[test]
fn multipath_routes_spread_packets() {
    // Equal delays; epsilon = 0 splits evenly.
    let (received, [via_m1, via_m2]) = over_two_paths(5, [5, 5], 2000);
    assert_eq!(received.len(), 2000);
    // Both middle nodes should have forwarded a nontrivial share.
    assert!(via_m1 > 700 && via_m2 > 700, "m1={via_m1} m2={via_m2}");
    assert_eq!(via_m1 + via_m2, 2000);
}

#[test]
fn unequal_path_delays_reorder_packets() {
    // Two paths with very different delays; a uniform split must reorder.
    let (received, _) = over_two_paths(9, [1, 30], 200);
    assert_eq!(received.len(), 200);
    // Count late arrivals: packets whose seq is below the running max.
    let (mut max_seen, mut late) = (0, 0);
    for s in received {
        if s < max_seen {
            late += 1;
        } else {
            max_seen = s;
        }
    }
    assert!(late > 20, "expected heavy reordering, got {late} late arrivals");
}

#[test]
fn queue_overflow_drops_excess() {
    let mut b = SimBuilder::new(3);
    let (a, c) = (b.add_node(), b.add_node());
    // Tiny queue: 2 packets. 50 packets blast in at t=0.
    b.add_duplex(a, c, LinkConfig::mbps_ms(1.0, 10, 2));
    let mut sim = b.build();
    let flow = FlowId::from_raw(0);
    sim.add_agent(a, flow, Box::new(Blaster { dst: c, count: 50 }));
    let rx = sim.add_agent(c, flow, Box::new(Echo { peer: a, received: Vec::new() }));
    sim.run_until(SimTime::from_secs_f64(5.0));
    let echo = sim.agent(rx).as_any().downcast_ref::<Echo>().unwrap();
    // 1 in flight + 2 queued survive the burst.
    assert_eq!(echo.received.len(), 3);
    assert_eq!(sim.stats().queue_drops, 47);
}

#[test]
fn timer_generations_suppress_stale_timers() {
    struct TimerAgent {
        fired: u32,
    }
    impl Agent for TimerAgent {
        fn on_start(&mut self, ctx: &mut AgentCtx<'_>) {
            // Arm, then immediately re-arm: only the second may fire.
            ctx.set_timer(ctx.now + SimDuration::from_millis(10));
            ctx.set_timer(ctx.now + SimDuration::from_millis(20));
        }
        fn on_packet(&mut self, _p: Packet, _ctx: &mut AgentCtx<'_>) {}
        fn on_timer(&mut self, _ctx: &mut AgentCtx<'_>) {
            self.fired += 1;
        }
    }
    let mut b = SimBuilder::new(0);
    let a = b.add_node();
    let mut sim = b.build();
    let id = sim.add_agent(a, FlowId::from_raw(0), Box::new(TimerAgent { fired: 0 }));
    sim.run_until(SimTime::from_secs_f64(1.0));
    assert_eq!(sim.agent(id).as_any().downcast_ref::<TimerAgent>().unwrap().fired, 1);
}
