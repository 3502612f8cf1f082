//! Cross-variant telemetry: every sender variant must report populated
//! [`CommonStats`](transport::telemetry::CommonStats) through the shared
//! [`SenderTelemetry`](transport::telemetry::SenderTelemetry) interface.

use experiments::topologies::{dumbbell, multipath_mesh, DumbbellConfig, MeshConfig};
use experiments::variants::Variant;
use netsim::ids::FlowId;
use netsim::impair::LinkAdmin;
use netsim::time::{SimDuration, SimTime};
use transport::host::{attach_flow, sender_host, FlowOptions};
use transport::sender::TcpSenderAlgo;
use transport::telemetry::{CommonStats, SenderTelemetry};

/// One variant flow over a narrow dumbbell (queue overflow forces genuine
/// drops), returning its stats snapshot.
fn run_lossy_dumbbell(variant: Variant, secs: f64) -> CommonStats {
    run_dumbbell_with_outage(variant, secs, None)
}

/// The same, with the bottleneck down over `outage` (start, end; seconds):
/// a whole window lost, which only a timeout recovers.
fn run_dumbbell_with_outage(
    variant: Variant,
    secs: f64,
    outage: Option<(f64, f64)>,
) -> CommonStats {
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
    sender_host::<Box<dyn TcpSenderAlgo>>(&d.sim, h.sender).algo().common_stats()
}

/// One variant flow over the Figure 5/6 multipath mesh with uniform path
/// selection (ε = 0): persistent reordering, no congestion drops.
fn run_reordering_mesh(variant: Variant, secs: f64) -> CommonStats {
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
    sender_host::<Box<dyn TcpSenderAlgo>>(&sim, h.sender).algo().common_stats()
}

#[test]
fn every_variant_reports_populated_common_stats_under_loss() {
    for v in Variant::ALL {
        let s = run_lossy_dumbbell(v, 20.0);
        assert_eq!(s.algorithm, v.label(), "{v}: algorithm label through the trait");
        assert!(s.acked_segments > 100, "{v}: acked {} segments", s.acked_segments);
        assert!(s.cwnd > 0.0, "{v}: cwnd {}", s.cwnd);
        assert!(s.ssthresh > 0.0, "{v}: ssthresh {}", s.ssthresh);
        assert!(s.srtt.is_some(), "{v}: srtt estimate after 20 s of ACKs");
        let rto = s.rto.expect("every variant maintains an RTO");
        assert!(rto > SimDuration::ZERO, "{v}: rto {rto:?}");

        // Variant-appropriate loss response: TCP-PR's only loss signal is
        // its per-packet timer; everything else fast-retransmits on
        // DUPACKs (with the RTO as backstop).
        match v {
            Variant::TcpPr => {
                assert!(s.timeouts > 0, "{v}: timer-detected drops");
                assert!(
                    s.extra("window_halvings").unwrap_or(0) > 0,
                    "{v}: drops must halve the window"
                );
            }
            _ => assert!(
                s.fast_retransmits + s.timeouts > 0,
                "{v}: no loss response (fast rtx {}, timeouts {})",
                s.fast_retransmits,
                s.timeouts
            ),
        }
    }
}

#[test]
fn reno_family_counts_dupacks_under_loss() {
    for v in [
        Variant::Reno,
        Variant::NewReno,
        Variant::Eifel,
        Variant::DsackNm,
        Variant::Door,
        Variant::TdFr,
        Variant::Cubic,
    ] {
        let s = run_lossy_dumbbell(v, 20.0);
        assert!(s.dupacks > 0, "{v}: dupacks {}", s.dupacks);
    }
}

/// `forensics::incident` attributes a stall by the `cc.fast_rtx` and
/// `cc.rto_expiry` spans under the flow; TD-FR emits them like its siblings.
#[test]
fn tdfr_records_both_loss_responses_as_spans_under_its_flow() {
    obs::enable();
    let _ = obs::take();
    let stats = run_dumbbell_with_outage(Variant::TdFr, 20.0, Some((10.0, 12.0)));
    let spans = obs::take().spans;
    obs::disable();
    for (kind, counted) in
        [("cc.fast_rtx", stats.fast_retransmits), ("cc.rto_expiry", stats.timeouts)]
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
fn variant_specific_extras_are_present() {
    let sack = run_lossy_dumbbell(Variant::Sack, 20.0);
    assert!(sack.extra("scoreboard_retransmits").is_some());
    let dsack = run_lossy_dumbbell(Variant::IncBy1, 20.0);
    assert!(dsack.extra("dupthresh").unwrap_or(0) >= 3);
    let pr = run_lossy_dumbbell(Variant::TcpPr, 20.0);
    for key in ["window_halvings", "memorize_drops", "extreme_loss_events", "backoff_doublings"] {
        assert!(pr.extra(key).is_some(), "TCP-PR exports {key}");
    }
}

#[test]
fn spurious_detectors_fire_under_persistent_reordering() {
    for v in [Variant::Eifel, Variant::DsackNm, Variant::IncBy1, Variant::IncByN, Variant::Ewma] {
        let s = run_reordering_mesh(v, 15.0);
        assert!(
            s.spurious_detections > 0,
            "{v}: reordering must be detected as spurious (stats: {s:?})"
        );
        assert!(s.spurious_reversals > 0, "{v}: responses must be undone/adapted");
    }
    // TCP-DOOR reports out-of-order detections through the same field.
    let door = run_reordering_mesh(Variant::Door, 15.0);
    assert!(door.spurious_detections > 0, "TCP-DOOR: OOO events (stats: {door:?})");
}
