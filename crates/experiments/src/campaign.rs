//! The measurement methodology of §3.2: repeated randomized measurements
//! across day periods, with independent seeds standing in for temporal and
//! spatial replication.

use mpw_link::DayPeriod;
use mpw_sim::{derive_seed, run_jobs, SimRng};
use serde::{Deserialize, Serialize};

use crate::config::Scenario;
use crate::measure::{run_measurement, Measurement};

/// Campaign size control. The paper performed 20 measurements per
/// configuration per day period; `runs_per_period` scales that down for
/// quick regeneration and up for full fidelity.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
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

/// Expand scenarios × periods × runs into a randomized measurement order
/// (the paper randomizes configuration order to decorrelate network
/// conditions, §3.2), then execute.
///
/// `workers == 0` means "one per available core"
/// (`std::thread::available_parallelism()`). Results always come back in
/// *job order* — the deterministic scenario × period × replication
/// enumeration order — regardless of worker count or the randomized
/// execution order, so downstream grouping and the determinism regression
/// tests can compare vectors element-for-element.
pub fn run_campaign(
    base_scenarios: &[Scenario],
    scale: Scale,
    master_seed: u64,
    workers: usize,
) -> Vec<Measurement> {
    // Job index rides along so results can be returned in enumeration
    // order no matter how execution is scheduled.
    let mut jobs: Vec<(usize, Scenario, u64)> = Vec::new();
    for s in base_scenarios {
        for &period in scale.periods() {
            for _ in 0..scale.runs_per_period {
                let mut sc = s.clone();
                sc.period = period;
                // Seed derivation: unique per (scenario position, period,
                // replication), independent of execution order.
                let idx = jobs.len();
                let seed = derive_seed(master_seed, idx as u64);
                jobs.push((idx, sc, seed));
            }
        }
    }
    // Randomize the execution order, as the methodology prescribes. With
    // independent seeded worlds this does not change any result — which is
    // itself a property the determinism tests rely on — but it keeps the
    // harness faithful to the paper's procedure.
    let mut order_rng = SimRng::seeded(master_seed ^ 0x5eed);
    order_rng.shuffle(&mut jobs);

    let mut done = run_jobs(&jobs, workers, |(idx, sc, seed)| {
        (*idx, run_measurement(sc, *seed))
    });
    done.sort_unstable_by_key(|&(idx, _)| idx);
    done.into_iter().map(|(_, m)| m).collect()
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
