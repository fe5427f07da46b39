//! Round-trip-time estimation and retransmission timeout (RFC 6298).
//!
//! Karn's rule is enforced by the caller (the socket never feeds samples
//! from retransmitted segments). Every accepted sample (in milliseconds)
//! lands in one bounded-memory [`DistSummary`], the only record the
//! paper's Figure 12 distributions are read from.

use mpw_metrics::DistSummary;
use mpw_sim::SimDuration;

/// RFC 6298 constants.
const ALPHA: f64 = 1.0 / 8.0;
const BETA: f64 = 1.0 / 4.0;
const K: f64 = 4.0;

/// Smoothed RTT state and RTO computation.
#[derive(Debug, Clone)]
pub struct RttEstimator {
    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    rto: SimDuration,
    backoff_exp: u32,
    min_rto: SimDuration,
    max_rto: SimDuration,
    /// Granularity clock G from RFC 6298 (we use 1 ms).
    granularity: SimDuration,
    /// Streaming summary of accepted samples in milliseconds.
    summary: DistSummary,
    latest: Option<SimDuration>,
}

impl Default for RttEstimator {
    /// The conventional initial RTO of 1 s (RFC 6298 recommends 1 s; Linux
    /// uses 1 s with a 200 ms floor).
    fn default() -> Self {
        RttEstimator {
            srtt: None,
            rttvar: SimDuration::ZERO,
            rto: SimDuration::from_secs(1),
            backoff_exp: 0,
            min_rto: SimDuration::from_millis(200),
            max_rto: SimDuration::from_secs(60),
            granularity: SimDuration::from_millis(1),
            summary: DistSummary::new(),
            latest: None,
        }
    }
}

impl RttEstimator {
    /// Feed one RTT sample (from a segment that was *not* retransmitted).
    pub fn on_sample(&mut self, rtt: SimDuration) {
        self.latest = Some(rtt);
        self.summary.push(rtt.as_secs_f64() * 1e3);
        let srtt = match self.srtt {
            None => {
                self.rttvar = rtt / 2;
                rtt
            }
            Some(srtt) => {
                let err = if rtt >= srtt { rtt - srtt } else { srtt - rtt };
                self.rttvar = SimDuration::from_secs_f64(
                    (1.0 - BETA) * self.rttvar.as_secs_f64() + BETA * err.as_secs_f64(),
                );
                SimDuration::from_secs_f64(
                    (1.0 - ALPHA) * srtt.as_secs_f64() + ALPHA * rtt.as_secs_f64(),
                )
            }
        };
        self.srtt = Some(srtt);
        let var_term = self.granularity.max(self.rttvar.mul_f64(K));
        self.rto = (srtt + var_term).clamp(self.min_rto, self.max_rto);
        // Fresh sample clears exponential backoff.
        self.backoff_exp = 0;
    }

    /// The current retransmission timeout, including backoff.
    pub fn rto(&self) -> SimDuration {
        self.rto
            .saturating_mul(1u64 << self.backoff_exp.min(16))
            .min(self.max_rto)
    }

    /// Double the RTO after a retransmission timeout fires.
    pub fn backoff(&mut self) {
        self.backoff_exp = (self.backoff_exp + 1).min(16);
    }

    /// Smoothed RTT, if at least one sample was taken.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt
    }

    /// Most recent raw sample.
    pub fn latest(&self) -> Option<SimDuration> {
        self.latest
    }

    /// RTT variance estimate.
    pub fn rttvar(&self) -> SimDuration {
        self.rttvar
    }

    /// Streaming summary of all accepted samples, in milliseconds.
    pub fn summary(&self) -> &DistSummary {
        &self.summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    #[test]
    fn first_sample_initializes_per_rfc() {
        let mut e = RttEstimator::default();
        e.on_sample(ms(100));
        assert_eq!(e.srtt(), Some(ms(100)));
        assert_eq!(e.rttvar(), ms(50));
        // RTO = SRTT + 4*RTTVAR = 100 + 200 = 300 ms.
        assert_eq!(e.rto(), ms(300));
    }

    #[test]
    fn steady_samples_tighten_rto() {
        let mut e = RttEstimator::default();
        for _ in 0..100 {
            e.on_sample(ms(50));
        }
        assert_eq!(e.srtt(), Some(ms(50)));
        // Variance decays toward zero; RTO hits the 200 ms floor.
        assert_eq!(e.rto(), ms(200));
    }

    #[test]
    fn variable_samples_widen_rto() {
        let mut e = RttEstimator::default();
        for i in 0..50 {
            let rtt = if i % 2 == 0 { ms(50) } else { ms(450) };
            e.on_sample(rtt);
        }
        assert!(e.rto() > ms(700), "rto {:?}", e.rto());
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let mut e = RttEstimator::default();
        e.on_sample(ms(100));
        let base = e.rto();
        e.backoff();
        assert_eq!(e.rto(), base * 2);
        e.backoff();
        assert_eq!(e.rto(), base * 4);
        for _ in 0..30 {
            e.backoff();
        }
        assert_eq!(e.rto(), SimDuration::from_secs(60));
    }

    #[test]
    fn new_sample_clears_backoff() {
        let mut e = RttEstimator::default();
        e.on_sample(ms(100));
        e.backoff();
        e.backoff();
        e.on_sample(ms(100));
        // Second identical sample: rttvar decays to 37.5 ms → RTO 250 ms,
        // and crucially the backoff multiplier is gone.
        assert_eq!(e.rto(), ms(250));
    }

    #[test]
    fn initial_rto_is_one_second() {
        let e = RttEstimator::default();
        assert_eq!(e.rto(), SimDuration::from_secs(1));
    }

    #[test]
    fn summary_streams_every_sample() {
        let mut e = RttEstimator::default();
        for i in 0..100 {
            e.on_sample(ms(40 + (i % 20)));
        }
        let s = e.summary();
        assert_eq!(s.count(), 100);
        assert!((s.mean() - 49.5).abs() < 1e-9);
        assert_eq!(s.min(), 40.0);
        assert_eq!(s.max(), 59.0);
    }
}
