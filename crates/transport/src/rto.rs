//! Retransmission-timeout estimation per RFC 2988 (Allman & Paxson), the
//! algorithm the paper cites (\[1\]) for the coarse-timeout behaviour TCP-PR
//! emulates under extreme loss.

use netsim::time::SimDuration;

/// RFC 2988 retransmission-timeout estimator.
///
/// Maintains the smoothed RTT (`SRTT`), RTT variance (`RTTVAR`) and the
/// retransmission timeout `RTO = SRTT + max(G, 4·RTTVAR)`, clamped to
/// `[min_rto, max_rto]`, with binary exponential backoff on timeouts.
///
/// # Examples
///
/// ```
/// use transport::rto::RtoEstimator;
/// use netsim::time::SimDuration;
///
/// let mut est = RtoEstimator::rfc2988();
/// est.on_sample(SimDuration::from_millis(100));
/// // First sample: SRTT = 100 ms, RTTVAR = 50 ms, RTO = 100 + 4·50 = 300 ms,
/// // clamped up to the 1 s RFC 2988 minimum.
/// assert_eq!(est.rto(), SimDuration::from_secs(1));
/// ```
#[derive(Debug, Clone)]
pub struct RtoEstimator {
    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    /// Base (un-backed-off) RTO.
    base_rto: SimDuration,
    backoff_exponent: u32,
    min_rto: SimDuration,
    max_rto: SimDuration,
    granularity: SimDuration,
}

impl RtoEstimator {
    /// Estimator with the RFC 2988 recommended parameters: 1 s minimum RTO,
    /// 60 s maximum, 100 ms clock granularity, 3 s initial RTO.
    pub fn rfc2988() -> Self {
        Self::new(
            SimDuration::from_secs(1),
            SimDuration::from_secs(60),
            SimDuration::from_millis(100),
        )
    }

    /// Creates an estimator with explicit clamps and granularity.
    ///
    /// # Panics
    ///
    /// Panics if `min_rto > max_rto`.
    pub fn new(min_rto: SimDuration, max_rto: SimDuration, granularity: SimDuration) -> Self {
        assert!(min_rto <= max_rto, "min_rto must not exceed max_rto");
        RtoEstimator {
            srtt: None,
            rttvar: SimDuration::ZERO,
            base_rto: SimDuration::from_secs(3).max(min_rto).min(max_rto),
            backoff_exponent: 0,
            min_rto,
            max_rto,
            granularity,
        }
    }

    /// Feeds a round-trip-time sample (only unambiguous samples should be
    /// offered — Karn's algorithm — i.e. never for retransmitted segments).
    pub fn on_sample(&mut self, rtt: SimDuration) {
        match self.srtt {
            None => {
                self.srtt = Some(rtt);
                self.rttvar = rtt / 2;
            }
            Some(srtt) => {
                let err = if srtt > rtt { srtt - rtt } else { rtt - srtt };
                // RTTVAR = 3/4 RTTVAR + 1/4 |SRTT - R'|
                self.rttvar =
                    SimDuration::from_nanos((self.rttvar.as_nanos() / 4) * 3 + err.as_nanos() / 4);
                // SRTT = 7/8 SRTT + 1/8 R'
                self.srtt =
                    Some(SimDuration::from_nanos((srtt.as_nanos() / 8) * 7 + rtt.as_nanos() / 8));
            }
        }
        let srtt = self.srtt.expect("just set");
        let var_term = self.granularity.max(self.rttvar.saturating_mul(4));
        self.base_rto = (srtt + var_term).max(self.min_rto).min(self.max_rto);
        self.backoff_exponent = 0;
    }

    /// The current retransmission timeout, including any backoff.
    pub fn rto(&self) -> SimDuration {
        self.base_rto
            .saturating_mul(1u64 << self.backoff_exponent.min(16))
            .max(self.min_rto)
            .min(self.max_rto)
    }

    /// Doubles the RTO (binary exponential backoff after a timeout).
    pub fn backoff(&mut self) {
        self.backoff_exponent = (self.backoff_exponent + 1).min(16);
    }

    /// Clears the backoff without changing the smoothed estimate.
    pub fn reset_backoff(&mut self) {
        self.backoff_exponent = 0;
    }

    /// The smoothed RTT, if at least one sample has been observed.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt
    }

    /// The RTT variance estimate.
    pub fn rttvar(&self) -> SimDuration {
        self.rttvar
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> SimDuration {
        SimDuration::from_millis(x)
    }

    #[test]
    fn initial_rto_is_three_seconds() {
        let est = RtoEstimator::rfc2988();
        assert_eq!(est.rto(), SimDuration::from_secs(3));
    }

    #[test]
    fn first_sample_sets_srtt_and_var() {
        let mut est = RtoEstimator::new(ms(1), SimDuration::from_secs(60), ms(1));
        est.on_sample(ms(100));
        assert_eq!(est.srtt(), Some(ms(100)));
        assert_eq!(est.rttvar(), ms(50));
        assert_eq!(est.rto(), ms(300));
    }

    #[test]
    fn steady_samples_shrink_variance() {
        let mut est = RtoEstimator::new(ms(1), SimDuration::from_secs(60), ms(1));
        for _ in 0..100 {
            est.on_sample(ms(100));
        }
        assert_eq!(est.srtt(), Some(ms(100)));
        assert!(est.rttvar() < ms(2), "rttvar should decay, got {}", est.rttvar());
        assert!(est.rto() < ms(110));
    }

    #[test]
    fn min_rto_clamp_applies() {
        let mut est = RtoEstimator::rfc2988();
        for _ in 0..50 {
            est.on_sample(ms(10));
        }
        assert_eq!(est.rto(), SimDuration::from_secs(1));
    }

    #[test]
    fn backoff_doubles_and_clamps() {
        let mut est = RtoEstimator::rfc2988();
        est.on_sample(ms(500));
        let base = est.rto();
        est.backoff();
        assert_eq!(est.rto(), base.saturating_mul(2));
        for _ in 0..20 {
            est.backoff();
        }
        assert_eq!(est.rto(), SimDuration::from_secs(60), "clamped at max");
        est.reset_backoff();
        assert_eq!(est.rto(), base);
    }

    #[test]
    fn sample_clears_backoff() {
        let mut est = RtoEstimator::rfc2988();
        est.on_sample(ms(500));
        est.backoff();
        est.on_sample(ms(500));
        assert!(est.rto() < SimDuration::from_secs(3));
    }

    #[test]
    fn spike_inflates_rto() {
        let mut est = RtoEstimator::new(ms(1), SimDuration::from_secs(60), ms(1));
        for _ in 0..20 {
            est.on_sample(ms(100));
        }
        let quiet = est.rto();
        est.on_sample(ms(400));
        assert!(est.rto() > quiet, "a spike must raise the RTO");
    }

    #[test]
    #[should_panic(expected = "min_rto must not exceed")]
    fn invalid_clamps_rejected() {
        let _ = RtoEstimator::new(SimDuration::from_secs(2), SimDuration::from_secs(1), ms(1));
    }
}
