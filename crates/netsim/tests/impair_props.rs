//! Integration tests for the impairment subsystem: statistical
//! convergence of the Gilbert–Elliott loss model, and end-to-end behavior
//! of admin schedules, duplication, and determinism at the simulator
//! level.

use netsim::impair::{flap_schedule, Fate, ImpairPipeline, ImpairStats, StageConfig};
use netsim::sim::SimBuilder;
use netsim::time::{SimDuration, SimTime};
use netsim::traffic::{CbrSink, CbrSource};
use netsim::{FlowId, LinkConfig};
use proptest::prelude::*;

proptest! {
    /// The empirical Gilbert–Elliott loss rate converges to the
    /// configured steady-state rate p_gb·loss_bad / (p_gb + p_bg) (with a
    /// lossless good state). Burst correlation inflates the variance well
    /// beyond a Bernoulli process of the same mean, so the tolerance is
    /// scaled to the slowest-mixing chain sampled here.
    #[test]
    fn gilbert_elliott_converges_to_steady_state(
        p_gb_milli in 10u64..200,   // p(good→bad) ∈ [0.01, 0.2]
        p_bg_milli in 50u64..500,   // p(bad→good) ∈ [0.05, 0.5]
        seed in 0u64..1_000,
    ) {
        let p_gb = p_gb_milli as f64 / 1000.0;
        let p_bg = p_bg_milli as f64 / 1000.0;
        let config = StageConfig::GilbertElliott {
            p_good_to_bad: p_gb,
            p_bad_to_good: p_bg,
            loss_good: 0.0,
            loss_bad: 1.0,
        };
        let expected = p_gb / (p_gb + p_bg);
        prop_assert!((config.steady_state_loss() - expected).abs() < 1e-12);

        let packets = 60_000u64;
        let mut pipe = ImpairPipeline::new(&[config], seed);
        let mut stats = ImpairStats::default();
        let tx = SimDuration::from_micros(400);
        for _ in 0..packets {
            pipe.process(tx, &mut stats);
        }
        let empirical = stats.burst_losses as f64 / packets as f64;
        // Effective sample size shrinks with burst length ≈ 1/p_bg; five
        // standard errors of the burst-adjusted variance keeps the flake
        // rate negligible while still catching a wrong stationary law.
        let burst_len = 1.0 / p_bg;
        let sigma = (expected * (1.0 - expected) * burst_len / packets as f64).sqrt();
        let tolerance = 5.0 * sigma + 0.005;
        prop_assert!(
            (empirical - expected).abs() < tolerance,
            "empirical {empirical:.4} vs steady-state {expected:.4} (tolerance {tolerance:.4}, \
             p_gb {p_gb}, p_bg {p_bg})"
        );
    }

    /// The pipeline is a pure function of (stages, seed): identical
    /// constructions produce identical per-packet fates and counters.
    #[test]
    fn pipeline_is_deterministic(seed in 0u64..10_000) {
        let stages = [
            StageConfig::IidLoss { p: 0.05 },
            StageConfig::Jitter { prob: 0.2, max_extra: SimDuration::from_millis(10) },
            StageConfig::Duplicate { p: 0.03 },
        ];
        let mut a = ImpairPipeline::new(&stages, seed);
        let mut b = ImpairPipeline::new(&stages, seed);
        let (mut sa, mut sb) = (ImpairStats::default(), ImpairStats::default());
        let tx = SimDuration::from_micros(800);
        for _ in 0..2_000 {
            prop_assert_eq!(a.process(tx, &mut sa), b.process(tx, &mut sb));
        }
        prop_assert_eq!(sa, sb);
    }

    /// The displacement stage emits bounded-displacement permutations
    /// (ROADMAP 9a): under any `Displace { every, depth }` and any send
    /// schedule whose gaps are at least `tx`, ordering packets by arrival
    /// `(send + tx·depth·[displaced], index)` leaves every one at most
    /// `depth` places from its send rank — the precondition of
    /// `tests/receiver_model.rs`'s Istrate bound.
    #[test]
    fn displacement_moves_no_packet_more_than_depth_places(
        every in 1u64..8,
        depth in 0u32..10,
        tx_ns in 1u64..2_000_000,
        // Extra gap beyond `tx`, in half-`tx` steps: exact-`tx` gaps make ties.
        slack in collection::vec(0u64..3, 1..300),
    ) {
        let tx = SimDuration::from_nanos(tx_ns);
        let mut pipe = ImpairPipeline::new(&[StageConfig::Displace { every, depth }], 0);
        let mut stats = ImpairStats::default();
        let mut send = SimTime::ZERO;
        let mut arrivals = Vec::with_capacity(slack.len());
        for (i, &extra) in slack.iter().enumerate() {
            let displaced = (i as u64 + 1).is_multiple_of(every);
            let held = if displaced { tx * u64::from(depth) } else { SimDuration::ZERO };
            let fate = pipe.process(tx, &mut stats);
            prop_assert_eq!(fate, Fate::Deliver { extra_delay: held, duplicate: false });
            arrivals.push((send + held, i));
            send += tx + SimDuration::from_nanos(tx_ns / 2 * extra);
        }
        arrivals.sort_unstable();
        for (rank, &(at, i)) in arrivals.iter().enumerate() {
            prop_assert!(
                rank.abs_diff(i) <= depth as usize,
                "packet {i} arrives {rank}th at {at:?} (every {every}, depth {depth}, tx {tx:?})"
            );
        }
    }
}

/// Two-node CBR setup with an impaired (or admin-scheduled) forward link.
fn cbr_over_impaired_link(
    stages: &[StageConfig],
    flaps: Option<(SimDuration, SimDuration)>,
    secs: f64,
) -> (netsim::SimStats, ImpairStats, u64) {
    let mut b = SimBuilder::new(11);
    let src = b.add_node();
    let dst = b.add_node();
    let fwd = b.add_link(src, dst, LinkConfig::mbps_ms(10.0, 5, 100));
    b.add_link(dst, src, LinkConfig::mbps_ms(10.0, 5, 100));
    let mut sim = b.build();
    sim.set_link_impairments(fwd, stages);
    if let Some((period, downtime)) = flaps {
        let until = SimTime::ZERO + SimDuration::from_secs_f64(secs);
        sim.apply_admin_schedule(fwd, &flap_schedule(period, downtime, until));
    }
    let flow = FlowId::from_raw(0);
    sim.add_agent(src, flow, Box::new(CbrSource::new(dst, 2e6, 1000, SimTime::ZERO)));
    let rx = sim.add_agent(dst, flow, Box::new(CbrSink::new()));
    sim.run_until(SimTime::from_secs_f64(secs));
    let received = sim.agent(rx).as_any().downcast_ref::<CbrSink>().unwrap().received();
    (sim.stats().clone(), sim.impair_totals(), received)
}

#[test]
fn flapping_link_drops_and_counts() {
    // 1 s period, 250 ms down: 4 flaps in 4 s, ~25% of arrivals dropped.
    let (stats, totals, received) = cbr_over_impaired_link(
        &[],
        Some((SimDuration::from_secs(1), SimDuration::from_millis(250))),
        4.0,
    );
    assert_eq!(stats.link_flaps, 4, "one down transition per cycle");
    assert_eq!(totals.flaps, 4);
    assert!(totals.down_drops > 0, "down periods drop arriving packets");
    assert_eq!(stats.impair_drops, totals.drops());
    // 2 Mbps of 1000 B packets = 250/s; 25% downtime removes roughly a
    // quarter (queued packets at the down edge survive, hence the slack).
    let sent_est = 250.0 * 4.0;
    let ratio = received as f64 / sent_est;
    assert!((0.70..0.85).contains(&ratio), "delivery ratio {ratio}");
}

#[test]
fn duplication_inflates_deliveries() {
    let (stats, totals, received) =
        cbr_over_impaired_link(&[StageConfig::Duplicate { p: 1.0 }], None, 2.0);
    assert_eq!(stats.impair_dups, totals.duplicates);
    assert!(totals.duplicates > 400, "every packet duplicated: {}", totals.duplicates);
    // Every data packet arrives twice (less the tail still in flight).
    assert!(received >= 2 * totals.duplicates - 4, "received {received}");
}

#[test]
fn loss_stages_show_up_in_sim_stats_not_random_losses() {
    let (stats, totals, _) = cbr_over_impaired_link(&[StageConfig::IidLoss { p: 0.3 }], None, 2.0);
    assert!(stats.impair_drops > 100, "{}", stats.impair_drops);
    assert_eq!(stats.impair_drops, totals.iid_losses);
    assert_eq!(stats.random_losses, 0, "impairment loss is a separate counter");
    assert_eq!(stats.queue_drops, 0, "below capacity, no congestive loss");
}

#[test]
fn impaired_runs_are_deterministic_end_to_end() {
    let stages = [
        StageConfig::GilbertElliott {
            p_good_to_bad: 0.05,
            p_bad_to_good: 0.3,
            loss_good: 0.0,
            loss_bad: 1.0,
        },
        StageConfig::Jitter { prob: 0.25, max_extra: SimDuration::from_millis(20) },
        StageConfig::Displace { every: 10, depth: 3 },
        StageConfig::Duplicate { p: 0.02 },
    ];
    let flaps = Some((SimDuration::from_secs(1), SimDuration::from_millis(100)));
    let a = cbr_over_impaired_link(&stages, flaps, 3.0);
    let b = cbr_over_impaired_link(&stages, flaps, 3.0);
    assert_eq!(format!("{:?}", a.0), format!("{:?}", b.0), "SimStats identical");
    assert_eq!(a.1, b.1, "impair counters identical");
    assert_eq!(a.2, b.2, "deliveries identical");
    assert!(a.1.jittered > 0 && a.1.displaced > 0, "reordering stages active: {:?}", a.1);
}

#[test]
fn installing_impairments_does_not_perturb_the_main_rng_stream() {
    // Identical seeds, one run with a delay-only pipeline: queue/jitter
    // decisions that draw from the main RNG must be unchanged, so the
    // clean run's stats match a clean baseline exactly.
    let run = |with_jitter_stage: bool| {
        let mut b = SimBuilder::new(99);
        let src = b.add_node();
        let dst = b.add_node();
        // Legacy random jitter draws from the main RNG on both runs.
        let cfg = LinkConfig::mbps_ms(10.0, 5, 100).with_jitter(0.5, SimDuration::from_millis(12));
        let fwd = b.add_link(src, dst, cfg);
        b.add_link(dst, src, LinkConfig::mbps_ms(10.0, 5, 100));
        let mut sim = b.build();
        if with_jitter_stage {
            let max_extra = SimDuration::from_millis(2);
            sim.set_link_impairments(fwd, &[StageConfig::Jitter { prob: 0.5, max_extra }]);
        }
        let flow = FlowId::from_raw(0);
        sim.add_agent(src, flow, Box::new(CbrSource::new(dst, 2e6, 1000, SimTime::ZERO)));
        let rx = sim.add_agent(dst, flow, Box::new(CbrSink::new()));
        sim.run_until(SimTime::from_secs_f64(2.0));
        let late = sim.agent(rx).as_any().downcast_ref::<CbrSink>().unwrap().late_arrivals();
        (sim.stats().injected, sim.stats().delivered, late)
    };
    let clean = run(false);
    let impaired = run(true);
    // The CBR source is timer-driven and the stage is delay-only, so if
    // the stage leaked draws from the main RNG the legacy-jitter decisions
    // would diverge — visible as a different injection count is impossible
    // here, but delivery counts would drift far more than the one-packet
    // cutoff slack the extra stage delay can introduce.
    assert_eq!(clean.0, impaired.0, "injection count identical");
    assert!(clean.1.abs_diff(impaired.1) <= 2, "deliveries aligned: {clean:?} vs {impaired:?}");
    assert!(clean.2 > 0, "legacy jitter reorders the clean run");
    assert!(impaired.2 > 0, "stage keeps reordering active");
}

#[test]
fn bandwidth_admin_change_takes_effect() {
    use netsim::impair::LinkAdmin;
    let mut b = SimBuilder::new(3);
    let src = b.add_node();
    let dst = b.add_node();
    let fwd = b.add_link(src, dst, LinkConfig::mbps_ms(10.0, 5, 100));
    b.add_link(dst, src, LinkConfig::mbps_ms(10.0, 5, 100));
    let mut sim = b.build();
    // Halve the bandwidth at t = 1 s; offered load 8 Mbps then overloads
    // the 4 Mbps link and queue drops appear only after the change.
    sim.schedule_link_admin(SimTime::from_secs_f64(1.0), fwd, LinkAdmin::SetBandwidth { bps: 4e6 });
    let flow = FlowId::from_raw(0);
    sim.add_agent(src, flow, Box::new(CbrSource::new(dst, 8e6, 1000, SimTime::ZERO)));
    sim.add_agent(dst, flow, Box::new(CbrSink::new()));
    sim.run_until(SimTime::from_secs_f64(0.99));
    assert_eq!(sim.stats().queue_drops, 0, "under capacity before the change");
    sim.run_until(SimTime::from_secs_f64(3.0));
    assert!(sim.stats().queue_drops > 0, "overloaded after the bandwidth cut");
    assert_eq!(sim.link(fwd).config.bandwidth_bps, 4e6);
}
