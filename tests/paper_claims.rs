//! The paper's headline claims, checked end-to-end at reduced scale.
//! (`EXPERIMENTS.md` records the full-scale numbers from the `repro`
//! binary; these tests guard the *shape* in CI time.)

use experiments::cell::{self, Metric};
use experiments::runner::MeasurePlan;
use experiments::sweep::{ScenarioKind, TopologySpec};
use experiments::topologies::DumbbellConfig;
use experiments::variants::Variant;
use netsim::time::SimDuration;

fn plan() -> MeasurePlan {
    MeasurePlan { warmup: SimDuration::from_secs(10), window: SimDuration::from_secs(20) }
}

/// Goodput (Mbps) of one Figure 6 cell on the 10 ms mesh, seed 3.
fn multipath_mbps(variant: Variant, epsilon: f64) -> f64 {
    let kind = ScenarioKind::Multipath { variant, epsilon, link_delay_ms: 10 };
    cell::run_kind(&kind, &[], &[], plan(), 3).num(Metric::Mbps)
}

const DUMBBELL: TopologySpec = TopologySpec::Dumbbell { bottleneck_mbps: None };

/// The two protocol means of one Section 4 fairness cell.
struct Means {
    mean_pr: f64,
    mean_sack: f64,
}

/// Eight flows, half TCP-PR(α, β) and half TCP-SACK, sharing `topology`.
fn fairness(topology: TopologySpec, alpha: f64, beta: f64, seed: u64) -> Means {
    let kind = ScenarioKind::Fairness { topology, n_flows: 8, alpha, beta, replicate: 0 };
    let r = cell::run_kind(&kind, &[], &[], plan(), seed);
    Means { mean_pr: r.num(Metric::MeanPr), mean_sack: r.num(Metric::MeanSack) }
}

/// Section 5 / Figure 6: under full multipath routing (ε = 0) TCP-PR keeps
/// high throughput while every DUPACK-driven variant collapses or trails.
#[test]
fn claim_tcp_pr_dominates_under_persistent_reordering() {
    let pr = multipath_mbps(Variant::TcpPr, 0.0);
    assert!(pr > 15.0, "TCP-PR aggregates paths: {pr}");
    for v in [Variant::DsackNm, Variant::IncByN, Variant::Ewma, Variant::Sack, Variant::NewReno] {
        let other = multipath_mbps(v, 0.0);
        assert!(pr > 2.0 * other, "{v} got {other} Mbps vs TCP-PR {pr} at eps=0");
    }
}

/// Figure 6, ε = 500: single-path routing — every variant performs alike.
#[test]
fn claim_all_equal_without_reordering() {
    let throughputs: Vec<f64> =
        Variant::FIGURE6.iter().map(|&v| multipath_mbps(v, 500.0)).collect();
    let min = throughputs.iter().copied().fold(f64::INFINITY, f64::min);
    let max = throughputs.iter().copied().fold(0.0, f64::max);
    assert!(min > 0.75 * max, "at eps=500 all variants should be within 25%: {throughputs:?}");
    assert!(min > 7.0, "all should nearly fill the 10 Mbps path: {throughputs:?}");
}

/// Section 4 / Figure 2: with β = 3, TCP-PR and TCP-SACK share a dumbbell
/// bottleneck with both protocol means in a band around 1.
#[test]
fn claim_fairness_with_sack_dumbbell() {
    let r = fairness(DUMBBELL, 0.995, 3.0, 2);
    assert!(r.mean_pr > 0.6 && r.mean_pr < 1.4, "mean_pr = {}", r.mean_pr);
    assert!(r.mean_sack > 0.6 && r.mean_sack < 1.4, "mean_sack = {}", r.mean_sack);
}

/// Figure 2 (right): same fairness claim over the parking-lot topology with
/// the paper's cross traffic.
#[test]
fn claim_fairness_with_sack_parking_lot() {
    let r = fairness(TopologySpec::ParkingLot { backbone_mbps: None }, 0.995, 3.0, 2);
    assert!(r.mean_pr > 0.45 && r.mean_pr < 1.55, "mean_pr = {}", r.mean_pr);
    assert!(r.mean_sack > 0.45 && r.mean_sack < 1.55, "mean_sack = {}", r.mean_sack);
}

/// Figure 4: β = 1 is too aggressive (TCP-SACK wins share); β = 3 is fair.
#[test]
fn claim_beta_one_aggressive_beta_three_fair() {
    let run = |beta: f64| fairness(DUMBBELL, 0.995, beta, 4);
    let at1 = run(1.0);
    let at3 = run(3.0);
    assert!(
        at1.mean_sack > at3.mean_sack,
        "β=1 must favor SACK more than β=3: {} vs {}",
        at1.mean_sack,
        at3.mean_sack
    );
    assert!(at3.mean_pr > 0.6, "β=3 keeps TCP-PR healthy: {}", at3.mean_pr);
}

/// TCP-PR vs TCP-PR: identical flows converge to equal shares (the AIMD
/// stability argument the paper leans on, [4][7]).
#[test]
fn claim_pr_flows_share_equally_with_each_other() {
    use experiments::runner::{flow_ids, measure_window};
    use netsim::FlowId;
    use tcp_pr::{TcpPrConfig, TcpPrSender};
    use transport::host::{attach_flow, FlowOptions};

    let mut d = experiments::topologies::dumbbell(21, DumbbellConfig::default());
    let ids = flow_ids(0, 4);
    let handles: Vec<_> = ids
        .iter()
        .enumerate()
        .map(|(i, &f)| {
            attach_flow(
                &mut d.sim,
                f,
                d.src,
                d.dst,
                TcpPrSender::new(TcpPrConfig::default()),
                FlowOptions {
                    start_at: experiments::runner::staggered_start(i, 21),
                    ..Default::default()
                },
            )
        })
        .collect();
    let _ = FlowId::from_raw(0);
    let bytes = measure_window(&mut d.sim, &handles, plan());
    let xs: Vec<f64> = bytes.iter().map(|&b| b as f64).collect();
    let fairness = experiments::metrics::jain_fairness(&xs);
    assert!(fairness > 0.85, "PR flows must converge among themselves: {fairness:.3} ({xs:?})");
}

/// Robustness of the α parameter (the paper: performance is insensitive to
/// α in a wide range).
#[test]
fn claim_alpha_insensitivity() {
    let run = |alpha: f64| fairness(DUMBBELL, alpha, 3.0, 6).mean_pr;
    let lo = run(0.25);
    let hi = run(0.995);
    assert!((lo - hi).abs() < 0.35, "α sweep should be mild: {lo} vs {hi}");
    assert!(lo > 0.5 && hi > 0.5);
}
