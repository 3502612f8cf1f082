//! `alpha_root` without its power of one, and `EwrttEstimator` with the
//! last root remembered, against the code they replaced — bit for bit.
//!
//! The reference is the paper's Linux loop: the two Newton steps of
//! DESIGN.md §2a.10 from `x = 1`, each through `powf`, the first included,
//! and a fresh root on every sample. `1^y` is exactly 1 in IEEE 754 and both
//! products by 1 are exact, so the cut first step must not move one bit of
//! any root, and a remembered root is the one `alpha_root` would return.

use netsim::time::SimDuration;
use proptest::prelude::*;
use tcp_pr::ewrtt::{alpha_root, EwrttEstimator};

/// Newton steps per root (DESIGN.md §2a.10).
const STEPS: u32 = 2;

/// `alpha_root` as it was: every step takes the power.
fn reference_root(alpha: f64, cwnd: f64) -> f64 {
    let mut x = 1.0f64;
    for _ in 0..STEPS {
        x = (cwnd - 1.0) / cwnd * x + alpha / (cwnd * x.powf(cwnd - 1.0));
    }
    x
}

/// `EwrttEstimator::on_sample` as it was: a root per sample, nothing kept.
fn reference_sample(prev: Option<f64>, alpha: f64, s: f64, cwnd: f64) -> f64 {
    match prev {
        None => s,
        Some(prev) => (reference_root(alpha, cwnd.max(1.0)) * prev).max(s),
    }
}

/// A window from a draw: fractional, whole, or sitting at a cap.
fn window(kind: u8, raw: f64) -> f64 {
    match kind % 4 {
        0 => raw,
        1 => raw.floor(),
        2 => 300.0,
        _ => 10_000.0,
    }
}

proptest! {
    #[test]
    fn alpha_root_equals_the_reference_loop_bit_for_bit(
        alpha in 1e-6f64..0.999_999,
        raw in 1.0f64..10_000.0,
        kind in 0u8..4,
    ) {
        let cwnd = window(kind, raw);
        let (got, want) = (alpha_root(alpha, cwnd), reference_root(alpha, cwnd));
        prop_assert_eq!(got.to_bits(), want.to_bits(), "α={} cwnd={}", alpha, cwnd);
    }

    /// Streams in which the window repeats (a cap), alternates between two
    /// values and wanders, below 1 included: the remembered root must be
    /// the one the sample's own window yields.
    #[test]
    fn remembered_root_equals_a_fresh_one(
        alpha in 0.01f64..0.999,
        stream in collection::vec((1u64..400_000, 0.0f64..64.0, 0u8..8), 1..300),
    ) {
        let mut est = EwrttEstimator::new(alpha);
        let mut reference = None;
        let mut held = 1.0;
        for (i, &(micros, raw, kind)) in stream.iter().enumerate() {
            let cwnd = match kind {
                0..=2 => held,                              // the window sits still
                3 | 4 => if i % 2 == 0 { 17.25 } else { 300.0 }, // two windows alternate
                _ => raw,
            };
            held = cwnd;
            let sample = SimDuration::from_micros(micros);
            let want = reference_sample(reference, alpha, sample.as_secs_f64(), cwnd);
            reference = Some(want);
            let got = est.on_sample(sample, cwnd);
            prop_assert_eq!(got, SimDuration::from_secs_f64(want), "sample {} at cwnd {}", i, cwnd);
            prop_assert_eq!(est.current(), Some(SimDuration::from_secs_f64(want)));
        }
    }
}
