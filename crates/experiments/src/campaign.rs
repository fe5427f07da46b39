//! The measurement methodology of §3.2: repeated measurements across day
//! periods, with independent seeds standing in for temporal and spatial
//! replication and for the paper's randomized run order.

use mpw_link::DayPeriod;
use mpw_sim::{derive_seed, run_jobs};

use crate::config::Scenario;
use crate::measure::{run_measurement, Measurement};

/// Campaign size control. The paper performed 20 measurements per
/// configuration per day period; `runs_per_period` scales that down for
/// quick regeneration and up for full fidelity.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Measurements per (configuration, day period).
    pub runs_per_period: u32,
    /// Which day periods to cover.
    pub all_periods: bool,
}

impl Scale {
    /// Quick regeneration: 1 run in each of the 4 periods.
    pub const QUICK: Scale = Scale {
        runs_per_period: 1,
        all_periods: true,
    };
    /// Default: 3 runs × 4 periods = 12 measurements per configuration.
    pub const DEFAULT: Scale = Scale {
        runs_per_period: 3,
        all_periods: true,
    };
    /// Paper-fidelity: 20 runs × 4 periods.
    pub const FULL: Scale = Scale {
        runs_per_period: 20,
        all_periods: true,
    };

    /// The periods this scale covers.
    pub fn periods(&self) -> &'static [DayPeriod] {
        if self.all_periods {
            &DayPeriod::ALL
        } else {
            &[DayPeriod::Afternoon]
        }
    }
}

/// Expand scenarios × periods × runs into measurements, then execute.
/// Each measurement runs in its own world from its own seed, so no run
/// depends on another or on the order they run in (§3.2's randomized order
/// decorrelates network conditions; independent seeds do that here).
///
/// `workers == 0` means "one per available core"
/// (`std::thread::available_parallelism()`). Results come back in *job
/// order* — the scenario × period × replication enumeration order —
/// regardless of worker count, so downstream grouping and the determinism
/// regression tests can compare vectors element-for-element.
pub fn run_campaign(
    base_scenarios: &[Scenario],
    scale: Scale,
    master_seed: u64,
    workers: usize,
) -> Vec<Measurement> {
    let mut jobs: Vec<(Scenario, u64)> = Vec::new();
    for s in base_scenarios {
        for &period in scale.periods() {
            for _ in 0..scale.runs_per_period {
                let mut sc = s.clone();
                sc.period = period;
                // Seed derivation: unique per (scenario position, period,
                // replication).
                let seed = derive_seed(master_seed, jobs.len() as u64);
                jobs.push((sc, seed));
            }
        }
    }
    run_jobs(&jobs, workers, |(sc, seed)| run_measurement(sc, *seed))
}

/// Group measurements by a key.
pub fn group_by<K: Ord, F: Fn(&Measurement) -> K>(
    ms: &[Measurement],
    key: F,
) -> std::collections::BTreeMap<K, Vec<&Measurement>> {
    let mut out: std::collections::BTreeMap<K, Vec<&Measurement>> = Default::default();
    for m in ms {
        out.entry(key(m)).or_default().push(m);
    }
    out
}
