//! Property-based tests over the core data structures and protocol
//! invariants, driven by `proptest`.

use proptest::prelude::*;

use netsim::routing::epsilon_weights;
use netsim::time::{SimDuration, SimTime};
use tcp_pr::ewrtt::alpha_root;
use tcp_pr::{TcpPrConfig, TcpPrSender};
use transport::receiver::{ReceiverConfig, TcpReceiver};
use transport::rto::RtoEstimator;
use transport::sender::{AckEvent, SenderOutput, TcpSenderAlgo};

fn ack(cum: u64, dup: bool) -> AckEvent {
    AckEvent {
        cum_ack: cum,
        sack: Vec::new(),
        dsack: None,
        echo_timestamp: SimTime::ZERO,
        echo_tx_count: 1,
        dup,
    }
}

proptest! {
    /// Any arrival permutation of segments 0..n leaves the receiver having
    /// delivered exactly 0..n in order, with an empty reorder buffer.
    #[test]
    fn receiver_delivers_any_permutation(mut order in proptest::collection::vec(0u64..40, 0..40)) {
        // Make `order` a permutation of a prefix set plus duplicates.
        let mut rx = TcpReceiver::new(ReceiverConfig::default());
        let mut expected: Vec<u64> = order.clone();
        expected.sort_unstable();
        expected.dedup();
        // Deliver (with duplicates allowed), then fill in the gaps.
        for &s in &order {
            let _ = rx.on_data(s);
        }
        let max = expected.last().copied().unwrap_or(0);
        for s in 0..=max {
            let _ = rx.on_data(s);
        }
        order.clear();
        prop_assert_eq!(rx.rcv_nxt(), max + 1);
        prop_assert_eq!(rx.buffered(), 0);
    }

    /// The receiver's cumulative point never decreases and SACK blocks never
    /// cover it.
    #[test]
    fn receiver_cum_monotone(seqs in proptest::collection::vec(0u64..64, 1..200)) {
        let mut rx = TcpReceiver::new(ReceiverConfig::default());
        let mut last = 0;
        for s in seqs {
            let a = rx.on_data(s);
            prop_assert!(a.cum_ack >= last, "cum regressed");
            last = a.cum_ack;
            for (start, end) in a.sack {
                prop_assert!(start >= a.cum_ack, "SACK block below cum");
                prop_assert!(end > start, "empty SACK block");
            }
        }
    }

    /// `alpha_root` stays in (0, 1] and is monotone in cwnd.
    #[test]
    fn alpha_root_bounded(alpha in 0.01f64..0.999, cwnd in 1.0f64..1000.0) {
        let x = alpha_root(alpha, cwnd, 2);
        prop_assert!(x > 0.0 && x <= 1.0 + 1e-12, "root out of range: {}", x);
        // Larger windows decay less per ACK.
        let x2 = alpha_root(alpha, cwnd * 2.0, 2);
        prop_assert!(x2 >= x - 1e-9, "decay must weaken with cwnd");
    }

    /// ε-weights are a probability distribution, monotone non-increasing in
    /// path delay.
    #[test]
    fn epsilon_weights_are_distribution(
        delays_ms in proptest::collection::vec(1u64..500, 1..10),
        eps in 0.0f64..600.0,
    ) {
        let delays: Vec<SimDuration> =
            delays_ms.iter().map(|&d| SimDuration::from_millis(d)).collect();
        let w = epsilon_weights(&delays, eps);
        let sum: f64 = w.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        for (i, a) in delays.iter().enumerate() {
            for (j, b) in delays.iter().enumerate() {
                if a <= b {
                    prop_assert!(w[i] >= w[j] - 1e-12, "weight not monotone in delay");
                }
            }
        }
    }

    /// The RTO estimator always stays within its clamps under arbitrary
    /// sample/backoff interleavings.
    #[test]
    fn rto_respects_clamps(events in proptest::collection::vec((0u8..3, 1u64..5_000), 1..100)) {
        let mut est = RtoEstimator::RFC2988;
        for (kind, ms) in events {
            match kind {
                0 => est.on_sample(SimDuration::from_millis(ms)),
                1 => est.backoff(),
                _ => est.reset_backoff(),
            }
            prop_assert!(est.rto() >= SimDuration::from_secs(1));
            prop_assert!(est.rto() <= SimDuration::from_secs(60));
        }
    }

    /// TCP-PR invariants hold under arbitrary interleavings of ACKs
    /// (including stale and duplicate ones) and timer fires: cwnd ≥ 1,
    /// internal bookkeeping consistent, no transmission of an
    /// already-outstanding packet.
    #[test]
    fn tcp_pr_survives_arbitrary_event_sequences(
        events in proptest::collection::vec((0u8..4, 0u64..100, 1u64..2_000), 1..250),
    ) {
        let mut s = TcpPrSender::new(TcpPrConfig::default());
        let mut out = SenderOutput::new();
        s.on_start(SimTime::ZERO, &mut out);
        let mut now = SimTime::ZERO;
        let mut cum_sent = 0u64;
        for (kind, arg, dt_ms) in events {
            now += SimDuration::from_millis(dt_ms);
            out.clear();
            match kind {
                0 => {
                    // A plausible cumulative ACK: anywhere up to snd_nxt.
                    let cum = arg.min(s.book().snd_nxt());
                    cum_sent = cum_sent.max(cum);
                    s.on_ack(&ack(cum, false), now, &mut out);
                }
                1 => s.on_ack(&ack(cum_sent, true), now, &mut out), // dupack
                2 => s.on_timer(now, &mut out),
                _ => {
                    // Stale, re-ordered ACK from the past.
                    let cum = arg.min(cum_sent);
                    s.on_ack(&ack(cum, true), now, &mut out);
                }
            }
            prop_assert!(s.cwnd() >= 1.0, "cwnd fell below 1");
            prop_assert!(s.cwnd() <= s.config().max_cwnd + 1e-9);
            s.book().check_invariants();
            // No duplicate seq among this callback's transmissions.
            let mut seqs: Vec<u64> = out.transmissions().iter().map(|t| t.seq).collect();
            let n = seqs.len();
            seqs.sort_unstable();
            seqs.dedup();
            prop_assert_eq!(seqs.len(), n, "duplicate transmission in one callback");
        }
    }

    /// The ewrtt estimate never falls below the most recent sample.
    #[test]
    fn ewrtt_dominates_latest_sample(samples in proptest::collection::vec(1u64..3_000, 1..200)) {
        let mut est = tcp_pr::ewrtt::EwrttEstimator::new(0.995, 2);
        for ms in samples {
            let sample = SimDuration::from_millis(ms);
            let v = est.on_sample(sample, 10.0);
            prop_assert!(v >= sample, "estimate {v} below sample {sample}");
        }
    }

    /// Every baseline sender survives arbitrary ACK/dupack/timer
    /// interleavings without panicking, with cwnd ≥ 1 and a sane flight.
    #[test]
    fn baseline_senders_survive_arbitrary_event_sequences(
        variant_idx in 0usize..11,
        events in proptest::collection::vec((0u8..4, 0u64..120, 1u64..2_000), 1..200),
    ) {
        use experiments::variants::Variant;
        let variant = Variant::ALL[variant_idx];
        let mut s = variant.build();
        let mut out = SenderOutput::new();
        s.on_start(SimTime::ZERO, &mut out);
        let mut now = SimTime::ZERO;
        let mut highest_plausible = 0u64;
        // Track a very loose upper bound on what could have been sent.
        let mut sent_bound = out.transmissions().len() as u64;
        for (kind, arg, dt_ms) in events {
            now += SimDuration::from_millis(dt_ms);
            out.clear();
            match kind {
                0 => {
                    let cum = arg.min(sent_bound);
                    highest_plausible = highest_plausible.max(cum);
                    let mut a = ack(cum, false);
                    a.echo_timestamp = now - SimDuration::from_millis(1);
                    s.on_ack(&a, now, &mut out);
                }
                1 => {
                    let mut a = ack(highest_plausible, true);
                    // SACK info just above the cumulative point.
                    a.sack = vec![(highest_plausible + 1, highest_plausible + 2 + (arg % 5))];
                    s.on_ack(&a, now, &mut out);
                }
                2 => s.on_timer(now, &mut out),
                _ => {
                    let mut a = ack(arg.min(highest_plausible), true);
                    a.dsack = Some((arg.min(highest_plausible), arg.min(highest_plausible) + 1));
                    s.on_ack(&a, now, &mut out);
                }
            }
            sent_bound += out.transmissions().len() as u64;
            prop_assert!(s.cwnd() >= 1.0, "{variant}: cwnd fell to {}", s.cwnd());
            prop_assert!(s.cwnd().is_finite(), "{variant}: cwnd not finite");
            prop_assert!(s.in_flight() < 1_000_000, "{variant}: flight exploded");
        }
    }
}
