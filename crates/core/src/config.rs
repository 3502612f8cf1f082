//! TCP-PR tunables.

use transport::sender::MAX_CWND;

/// Parameters of the TCP-PR sender (Section 3 of the paper).
///
/// The defaults are the values used throughout the paper's evaluation:
/// `α = 0.995`, `β = 3.0`.
///
/// # Examples
///
/// ```
/// use tcp_pr::TcpPrConfig;
///
/// let cfg = TcpPrConfig::default();
/// assert_eq!(cfg.alpha, 0.995);
/// assert_eq!(cfg.beta, 3.0);
/// ```
#[derive(Debug, Clone, Copy, serde::Serialize)]
pub struct TcpPrConfig {
    /// Memory factor of the exponentially-weighted maximum RTT estimate, in
    /// units of RTTs; `0 < α < 1`. Larger α remembers RTT spikes longer.
    pub alpha: f64,
    /// Safety multiplier applied to the RTT estimate to form the drop
    /// threshold `mxrtt = β · ewrtt`; `β > 1`.
    pub beta: f64,
    /// Upper bound on the congestion window, in segments.
    pub max_cwnd: f64,
    /// **Ablation**: disable the `memorize` list — every detected drop
    /// halves the window, even drops belonging to a burst the sender
    /// already reacted to. Off (false) in the paper's algorithm.
    pub ablate_no_memorize: bool,
    /// **Ablation**: disable Section 3.2 extreme-loss handling — no reset
    /// to `cwnd = 1`, no `mxrtt` backoff. Off (false) in the paper's
    /// algorithm.
    pub ablate_no_extreme_loss: bool,
    /// **Ablation**: halve from the *current* window instead of the
    /// window's value when the dropped packet was sent (`cwnd(n)/2`),
    /// making the response sensitive to detection latency. Off (false) in
    /// the paper's algorithm.
    pub ablate_halve_current: bool,
}

impl Default for TcpPrConfig {
    fn default() -> Self {
        TcpPrConfig {
            alpha: 0.995,
            beta: 3.0,
            max_cwnd: MAX_CWND,
            ablate_no_memorize: false,
            ablate_no_extreme_loss: false,
            ablate_halve_current: false,
        }
    }
}

impl TcpPrConfig {
    /// Returns a config with the given `α` and `β` and paper defaults for
    /// the rest (used by the Figure 4 parameter sweep).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < α < 1` and `β >= 1`.
    pub fn with_alpha_beta(alpha: f64, beta: f64) -> Self {
        let cfg = TcpPrConfig { alpha, beta, ..TcpPrConfig::default() };
        cfg.validate();
        cfg
    }

    /// Checks parameter ranges.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range parameters.
    pub fn validate(&self) {
        assert!(self.alpha > 0.0 && self.alpha < 1.0, "alpha must be in (0,1), got {}", self.alpha);
        assert!(self.beta >= 1.0, "beta must be >= 1, got {}", self.beta);
        assert!(self.max_cwnd >= 2.0, "max_cwnd must be at least 2");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let cfg = TcpPrConfig::default();
        cfg.validate();
        assert_eq!((cfg.alpha, cfg.beta), (0.995, 3.0));
        // Before the first RTT sample, the drop threshold is TCP's 3 s
        // initial RTO.
        let mxrtt = crate::TcpPrSender::new(cfg).mxrtt();
        assert_eq!(mxrtt, netsim::time::SimDuration::from_secs(3));
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0,1)")]
    fn alpha_out_of_range_rejected() {
        TcpPrConfig::with_alpha_beta(1.5, 3.0);
    }

    #[test]
    #[should_panic(expected = "beta must be >= 1")]
    fn beta_below_one_rejected() {
        TcpPrConfig::with_alpha_beta(0.9, 0.5);
    }
}
