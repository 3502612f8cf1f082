//! Cross-variant sender state: every variant reports `cwnd`, `ssthresh`,
//! its RTT estimate and its timeout through [`TcpSenderAlgo`], and its own
//! counters through its concrete type's `stats()`, reached by downcasting
//! the hosted sender.

use std::any::Any;

use baselines::{DoorSender, DsackSender, EifelSender, RenoSender, TdFrSender};
use cc::CubicSender;
use experiments::topologies::{dumbbell, multipath_mesh, DumbbellConfig, MeshConfig};
use experiments::variants::Variant;
use netsim::ids::{AgentId, FlowId};
use netsim::impair::LinkAdmin;
use netsim::sim::Simulator;
use netsim::time::{SimDuration, SimTime};
use tcp_pr::TcpPrSender;
use transport::host::{attach_flow, sender_host, FlowOptions, SenderHost};
use transport::sender::TcpSenderAlgo;

/// A finished run of one variant's flow.
struct Run {
    sim: Simulator,
    sender: AgentId,
}

impl Run {
    fn host(&self) -> &SenderHost<Box<dyn TcpSenderAlgo>> {
        sender_host(&self.sim, self.sender)
    }

    fn algo(&self) -> &dyn TcpSenderAlgo {
        &**self.host().algo()
    }

    /// The sender as its concrete type.
    fn sender<T: TcpSenderAlgo>(&self) -> &T {
        let algo: &dyn Any = self.algo();
        algo.downcast_ref().expect("the variant's sender type")
    }
}

/// One variant flow over a narrow dumbbell (queue overflow forces genuine
/// drops).
fn run_lossy_dumbbell(variant: Variant, secs: f64) -> Run {
    run_dumbbell_with_outage(variant, secs, None)
}

/// The same, with the bottleneck down over `outage` (start, end; seconds):
/// a whole window lost, which only a timeout recovers.
fn run_dumbbell_with_outage(variant: Variant, secs: f64, outage: Option<(f64, f64)>) -> Run {
    let cfg =
        DumbbellConfig { bottleneck_mbps: 2.0, queue_packets: 20, ..DumbbellConfig::default() };
    let mut d = dumbbell(42, cfg);
    if let Some((down, up)) = outage {
        d.sim.schedule_link_admin(SimTime::from_secs_f64(down), d.bottleneck, LinkAdmin::Down);
        d.sim.schedule_link_admin(SimTime::from_secs_f64(up), d.bottleneck, LinkAdmin::Up);
    }
    let h = attach_flow(
        &mut d.sim,
        FlowId::from_raw(0),
        d.src,
        d.dst,
        variant.build(),
        FlowOptions::default(),
    );
    d.sim.run_until(SimTime::from_secs_f64(secs));
    Run { sim: d.sim, sender: h.sender }
}

/// One variant flow over the Figure 5/6 multipath mesh with uniform path
/// selection (ε = 0): persistent reordering, no congestion drops.
fn run_reordering_mesh(variant: Variant, secs: f64) -> Run {
    let mesh = multipath_mesh(7, MeshConfig::default());
    let mut sim = mesh.sim;
    sim.install_multipath(mesh.src, mesh.dst, 0.0, mesh.max_path_hops);
    sim.install_multipath(mesh.dst, mesh.src, 0.0, mesh.max_path_hops);
    let h = attach_flow(
        &mut sim,
        FlowId::from_raw(0),
        mesh.src,
        mesh.dst,
        variant.build(),
        FlowOptions::default(),
    );
    sim.run_until(SimTime::from_secs_f64(secs));
    Run { sim, sender: h.sender }
}

/// A wrapper that forgets to forward `srtt` or `rto` to its inner sender
/// fails here.
#[test]
fn every_variant_reports_its_state_under_loss() {
    for v in Variant::ALL {
        let run = run_lossy_dumbbell(v, 20.0);
        let (host, algo) = (run.host().stats(), run.algo());
        assert!(host.last_cum_ack > 100, "{v}: acked {} segments", host.last_cum_ack);
        assert!(algo.cwnd() > 0.0, "{v}: cwnd {}", algo.cwnd());
        assert!(algo.ssthresh() > 0.0, "{v}: ssthresh {}", algo.ssthresh());
        let srtt = algo.srtt().expect("an srtt estimate after 20 s of ACKs");
        assert!(srtt > SimDuration::ZERO, "{v}: srtt {srtt:?}");
        let rto = algo.rto().expect("every variant maintains an RTO");
        assert!(rto > SimDuration::ZERO, "{v}: rto {rto:?}");

        // Variant-appropriate loss response: TCP-PR's only loss signal is
        // its per-packet timer; everything else retransmits on DUPACKs or
        // SACKs (with the RTO as backstop).
        assert!(host.retransmits > 0, "{v}: no retransmission");
        match v {
            Variant::TcpPr => {
                let pr = run.sender::<TcpPrSender>().stats();
                assert!(pr.drops_detected > 0, "{v}: timer-detected drops");
                assert!(pr.window_halvings > 0, "{v}: drops must halve the window");
            }
            Variant::IncBy1 => {
                let dupthresh = run.sender::<DsackSender>().dupthresh();
                assert!(dupthresh >= 3, "{v}: dupthresh {dupthresh}");
            }
            _ => {}
        }
    }
}

#[test]
fn reno_family_counts_dupacks_under_loss() {
    for v in [Variant::Reno, Variant::NewReno] {
        let run = run_lossy_dumbbell(v, 20.0);
        assert!(run.sender::<RenoSender>().stats().dupacks > 0, "{v}");
    }
    let run = run_lossy_dumbbell(Variant::Eifel, 20.0);
    assert!(run.sender::<EifelSender>().base_stats().dupacks > 0, "Eifel");
    let run = run_lossy_dumbbell(Variant::DsackNm, 20.0);
    assert!(run.sender::<DsackSender>().base_stats().dupacks > 0, "DSACK-NM");
    let run = run_lossy_dumbbell(Variant::Door, 20.0);
    assert!(run.sender::<DoorSender>().base_stats().dupacks > 0, "TCP-DOOR");
    let run = run_lossy_dumbbell(Variant::Cubic, 20.0);
    assert!(run.sender::<CubicSender>().stats().dupacks > 0, "CUBIC");
    // TD-FR opens an episode on every first duplicate ACK; each one ends
    // cancelled by an advance or in a delayed fast retransmit.
    let run = run_lossy_dumbbell(Variant::TdFr, 20.0);
    let tdfr = run.sender::<TdFrSender>().stats();
    assert!(tdfr.cancelled_episodes + tdfr.delayed_fast_retransmits > 0, "TD-FR: {tdfr:?}");
}

/// `forensics::incident` attributes a stall by the `cc.fast_rtx` and
/// `cc.rto_expiry` spans under the flow; TD-FR emits them like its siblings.
#[test]
fn tdfr_records_both_loss_responses_as_spans_under_its_flow() {
    obs::enable();
    let _ = obs::take();
    let run = run_dumbbell_with_outage(Variant::TdFr, 20.0, Some((10.0, 12.0)));
    let spans = obs::take().spans;
    obs::disable();
    let stats = run.sender::<TdFrSender>().stats();
    for (kind, counted) in
        [("cc.fast_rtx", stats.delayed_fast_retransmits), ("cc.rto_expiry", stats.timeouts)]
    {
        let recorded = spans
            .iter()
            .filter(|s| s.kind == kind && s.flow == Some(0) && s.detail.starts_with("algo=tdfr "))
            .count();
        assert!(recorded > 0, "no {kind} span among {}", spans.len());
        assert_eq!(recorded as u64, counted, "{kind}: one span per counted event");
    }
}

#[test]
fn spurious_detectors_fire_under_persistent_reordering() {
    let run = run_reordering_mesh(Variant::Eifel, 15.0);
    let eifel = run.sender::<EifelSender>().stats();
    assert!(eifel.spurious_detected > 0, "Eifel: reordering must be detected ({eifel:?})");
    assert!(eifel.restores > 0, "Eifel: responses must be undone");
    for v in [Variant::DsackNm, Variant::IncBy1, Variant::IncByN, Variant::Ewma] {
        let run = run_reordering_mesh(v, 15.0);
        let dsack = run.sender::<DsackSender>().stats();
        assert!(dsack.spurious_detected > 0, "{v}: reordering must be detected ({dsack:?})");
        assert!(dsack.restores > 0, "{v}: responses must be undone/adapted");
    }
    let run = run_reordering_mesh(Variant::Door, 15.0);
    let door = run.sender::<DoorSender>().stats();
    assert!(door.ooo_detected > 0, "TCP-DOOR: OOO events ({door:?})");
}
