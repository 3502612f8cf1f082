//! The exponentially-weighted maximum round-trip-time estimate.
//!
//! TCP-PR detects drops when a packet has been outstanding longer than
//! `mxrtt = β · ewrtt`. On every acknowledgment the estimate is updated as
//!
//! ```text
//! ewrtt = max(α^(1/cwnd) · ewrtt, sample_rtt)
//! ```
//!
//! Raising α to the power `1/cwnd` makes the decay rate α **per RTT**
//! (the update runs once per ACK and there are `cwnd` ACKs per RTT), so α is
//! a memory constant in units of round-trip times regardless of the window
//! size. Unlike a smoothed mean, the `max` keeps RTT *spikes* alive in the
//! estimate for ~`1/(1-α)` RTTs — exactly what a "maximum possible RTT"
//! bound needs.

use netsim::time::SimDuration;

/// Approximates `α^(1/cwnd)` with two steps of Newton's method on
/// `x^cwnd = α` from `x = 1`, as in the paper's Linux implementation:
///
/// ```text
/// x := 1
/// repeat 2 times:  x := (cwnd-1)/cwnd · x + α / (cwnd · x^(cwnd-1))
/// ```
///
/// The first step is taken in closed form, `(cwnd-1)/cwnd + α/cwnd`: `1^y`
/// is exactly 1 in IEEE 754 and both products by 1 are exact, so no bit of
/// any root moves and the two steps cost one `pow`, not two.
///
/// # Panics
///
/// Panics unless `0 < α < 1` and `cwnd >= 1`.
///
/// # Examples
///
/// ```
/// use tcp_pr::ewrtt::alpha_root;
///
/// // cwnd = 1: the root is α itself.
/// assert!((alpha_root(0.995, 1.0) - 0.995).abs() < 1e-12);
/// // Two steps already land within 1e-6 of the true root.
/// let x = alpha_root(0.995, 10.0);
/// assert!((x - 0.995f64.powf(0.1)).abs() < 1e-6);
/// ```
pub fn alpha_root(alpha: f64, cwnd: f64) -> f64 {
    assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0,1)");
    assert!(cwnd >= 1.0, "cwnd must be at least 1");
    let x = (cwnd - 1.0) / cwnd + alpha / cwnd;
    (cwnd - 1.0) / cwnd * x + alpha / (cwnd * x.powf(cwnd - 1.0))
}

/// Streaming `ewrtt` estimator.
#[derive(Debug, Clone)]
pub struct EwrttEstimator {
    alpha: f64,
    ewrtt_secs: Option<f64>,
    /// The last `(cwnd bits, α^(1/cwnd))`: a window sitting at its cap takes
    /// the root once, not once per ACK.
    root: (u64, f64),
}

impl EwrttEstimator {
    /// Creates an estimator with the given memory factor.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < α < 1`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0,1)");
        EwrttEstimator { alpha, ewrtt_secs: None, root: (0, 1.0) }
    }

    /// Feeds one RTT sample taken while the congestion window was `cwnd`,
    /// returning the updated estimate.
    pub fn on_sample(&mut self, sample: SimDuration, cwnd: f64) -> SimDuration {
        let s = sample.as_secs_f64();
        let updated = match self.ewrtt_secs {
            None => s,
            Some(prev) => {
                let cwnd = cwnd.max(1.0);
                if self.root.0 != cwnd.to_bits() {
                    let root = alpha_root(self.alpha, cwnd);
                    self.root = (cwnd.to_bits(), root);
                }
                (self.root.1 * prev).max(s)
            }
        };
        self.ewrtt_secs = Some(updated);
        SimDuration::from_secs_f64(updated)
    }

    /// The current estimate, if at least one sample has arrived.
    pub fn current(&self) -> Option<SimDuration> {
        self.ewrtt_secs.map(SimDuration::from_secs_f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> SimDuration {
        SimDuration::from_millis(x)
    }

    #[test]
    fn newton_converges_for_typical_windows() {
        for &cwnd in &[1.0, 2.0, 5.0, 17.0, 64.0, 500.0] {
            let exact = 0.995f64.powf(1.0 / cwnd);
            let approx = alpha_root(0.995, cwnd);
            assert!((exact - approx).abs() < 1e-6, "cwnd={cwnd}: exact {exact} vs newton {approx}");
        }
    }

    #[test]
    fn newton_handles_small_alpha() {
        // Small α (fast forgetting) is the hard case for two steps. Newton
        // on the convex `x^cwnd − α` approaches the root from above, so two
        // steps from x = 1 land between the root and 1.
        for &cwnd in &[2.0, 8.0, 32.0] {
            let exact = 0.05f64.powf(1.0 / cwnd);
            let approx = alpha_root(0.05, cwnd);
            assert!(exact <= approx && approx <= 1.0, "cwnd={cwnd}: {exact} vs {approx}");
        }
    }

    #[test]
    fn first_sample_initializes() {
        let mut e = EwrttEstimator::new(0.995);
        assert!(e.current().is_none());
        let v = e.on_sample(ms(100), 1.0);
        assert_eq!(v, ms(100));
    }

    #[test]
    fn spike_dominates_immediately() {
        let mut e = EwrttEstimator::new(0.995);
        e.on_sample(ms(100), 4.0);
        let v = e.on_sample(ms(400), 4.0);
        assert_eq!(v, ms(400), "a larger sample must take over instantly");
    }

    #[test]
    fn decay_rate_is_alpha_per_rtt_independent_of_cwnd() {
        // After one RTT's worth of ACKs (cwnd updates) with small samples,
        // the estimate should have decayed by ≈ α regardless of cwnd.
        for &cwnd in &[2.0f64, 8.0, 32.0] {
            let mut e = EwrttEstimator::new(0.9);
            e.on_sample(SimDuration::from_secs(1), cwnd);
            for _ in 0..(cwnd as usize) {
                e.on_sample(ms(1), cwnd);
            }
            let got = e.current().unwrap().as_secs_f64();
            assert!(
                (got - 0.9).abs() < 0.01,
                "cwnd={cwnd}: expected ≈0.9 s after one RTT of decay, got {got}"
            );
        }
    }

    #[test]
    fn estimate_never_below_latest_sample() {
        let mut e = EwrttEstimator::new(0.5);
        e.on_sample(ms(500), 2.0);
        for _ in 0..100 {
            let v = e.on_sample(ms(80), 2.0);
            assert!(v >= ms(80));
        }
        // After heavy decay the estimate converges to the steady sample.
        assert_eq!(e.current().unwrap(), ms(80));
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0,1)")]
    fn invalid_alpha_rejected() {
        let _ = EwrttEstimator::new(0.0);
    }
}
