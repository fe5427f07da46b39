//! Time-varying link service rate.
//!
//! Cellular radio links do not serve at a constant rate: scheduling grants,
//! signal quality, and cell load modulate the instantaneous rate, which is
//! the second ingredient (after deep buffers) of the RTT inflation the paper
//! observes (§5.1). We model the service rate as a Markov-modulated process
//! over a small set of levels with exponentially distributed dwell times,
//! advanced lazily whenever the queue asks for the current rate.

use mpw_sim::{SimDuration, SimRng, SimTime};

/// One level of a modulated-rate process.
#[derive(Clone, Copy, Debug)]
pub struct RateLevel {
    /// Service rate at this level, bits per second.
    pub bits_per_sec: u64,
    /// Mean dwell time before jumping to another level.
    pub mean_dwell: SimDuration,
}

/// A (possibly) time-varying service-rate process.
#[derive(Clone, Debug)]
pub enum RateProcess {
    /// Constant rate.
    Fixed {
        /// Service rate in bits per second.
        bits_per_sec: u64,
    },
    /// Markov-modulated rate: dwell exponentially at one level, then jump to
    /// a uniformly chosen *different* level.
    Modulated(Modulated),
}

/// State of a Markov-modulated rate process.
#[derive(Clone, Debug)]
pub struct Modulated {
    /// The levels the process moves among (at least two).
    pub levels: Vec<RateLevel>,
    current: usize,
    next_jump: SimTime,
}

impl RateProcess {
    /// Constant-rate process.
    pub fn fixed(bits_per_sec: u64) -> Self {
        assert!(bits_per_sec > 0);
        RateProcess::Fixed { bits_per_sec }
    }

    /// Markov-modulated process starting at the first level.
    pub fn modulated(levels: Vec<RateLevel>) -> Self {
        assert!(levels.len() >= 2, "modulated process needs >=2 levels");
        assert!(levels.iter().all(|l| l.bits_per_sec > 0));
        RateProcess::Modulated(Modulated {
            levels,
            current: 0,
            next_jump: SimTime::ZERO,
        })
    }

    /// The rate in force at `now`, advancing internal state lazily.
    pub fn rate_at(&mut self, now: SimTime, rng: &mut SimRng) -> u64 {
        match self {
            RateProcess::Fixed { bits_per_sec } => *bits_per_sec,
            RateProcess::Modulated(m) => {
                while m.next_jump <= now {
                    // Choose a different level uniformly.
                    let n = m.levels.len() as u64;
                    let jump = 1 + rng.range_u64(0, n - 1) as usize;
                    m.current = (m.current + jump) % m.levels.len();
                    let dwell = rng.exponential(m.levels[m.current].mean_dwell.as_secs_f64());
                    m.next_jump += SimDuration::from_secs_f64(dwell.max(1e-6));
                }
                m.levels[m.current].bits_per_sec
            }
        }
    }

    /// Long-run average rate (dwell-weighted for modulated processes).
    pub fn mean_rate(&self) -> f64 {
        match self {
            RateProcess::Fixed { bits_per_sec } => *bits_per_sec as f64,
            RateProcess::Modulated(m) => {
                // Uniform jump chain => stationary probability of each level
                // is proportional to its mean dwell time.
                let total: f64 = m.levels.iter().map(|l| l.mean_dwell.as_secs_f64()).sum();
                m.levels
                    .iter()
                    .map(|l| l.bits_per_sec as f64 * l.mean_dwell.as_secs_f64() / total)
                    .sum()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_rate_is_constant() {
        let mut p = RateProcess::fixed(10_000_000);
        let mut rng = SimRng::seeded(1);
        for s in 0..100 {
            assert_eq!(p.rate_at(SimTime::from_secs(s), &mut rng), 10_000_000);
        }
    }

    #[test]
    fn modulated_visits_all_levels() {
        let mut p = RateProcess::modulated(vec![
            RateLevel { bits_per_sec: 1_000_000, mean_dwell: SimDuration::from_millis(100) },
            RateLevel { bits_per_sec: 5_000_000, mean_dwell: SimDuration::from_millis(100) },
            RateLevel { bits_per_sec: 12_000_000, mean_dwell: SimDuration::from_millis(100) },
        ]);
        let mut rng = SimRng::seeded(2);
        let mut seen = std::collections::BTreeSet::new();
        for ms in 0..5_000 {
            seen.insert(p.rate_at(SimTime::from_millis(ms), &mut rng));
        }
        assert_eq!(seen.len(), 3, "saw {seen:?}");
    }

    #[test]
    fn modulated_time_average_close_to_mean() {
        let mut p = RateProcess::modulated(vec![
            RateLevel { bits_per_sec: 2_000_000, mean_dwell: SimDuration::from_millis(300) },
            RateLevel { bits_per_sec: 10_000_000, mean_dwell: SimDuration::from_millis(100) },
        ]);
        let expect = p.mean_rate();
        let mut rng = SimRng::seeded(3);
        let n = 400_000u64;
        let mut acc = 0.0;
        for ms in 0..n {
            acc += p.rate_at(SimTime::from_millis(ms), &mut rng) as f64;
        }
        let avg = acc / n as f64;
        assert!(
            (avg - expect).abs() / expect < 0.05,
            "avg {avg} expect {expect}"
        );
    }

    #[test]
    fn rate_is_monotone_in_queries() {
        // Lazy advancement must be well-defined for repeated queries at the
        // same instant: the same time yields the same rate.
        let mut p = RateProcess::modulated(vec![
            RateLevel { bits_per_sec: 1_000_000, mean_dwell: SimDuration::from_millis(50) },
            RateLevel { bits_per_sec: 3_000_000, mean_dwell: SimDuration::from_millis(50) },
        ]);
        let mut rng = SimRng::seeded(4);
        let t = SimTime::from_millis(123);
        let a = p.rate_at(t, &mut rng);
        let b = p.rate_at(t, &mut rng);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "needs >=2 levels")]
    fn modulated_rejects_single_level() {
        RateProcess::modulated(vec![RateLevel {
            bits_per_sec: 1,
            mean_dwell: SimDuration::from_millis(1),
        }]);
    }
}
