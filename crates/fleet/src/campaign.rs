//! Monte-Carlo fleet campaigns: M seed-derived replications of one
//! [`FleetSpec`], run across a worker pool, aggregated by exact merge.
//!
//! The determinism contract: each replication is an independent world whose
//! seed is a pure function of the campaign seed and the replication index,
//! and [`FleetReport::merge`] is an integer-exact associative/commutative
//! fold. The worker count is therefore pure implementation detail — any
//! configuration produces byte-identical JSON.

use mpw_metrics::FleetReport;
use mpw_sim::{derive_seed, run_jobs};

use crate::engine::run_fleet;
use crate::spec::FleetSpec;

/// A campaign description: `replications` independent worlds built from
/// `base` (same spec, derived seeds), run on `workers` threads, merged in
/// replication order.
#[derive(Clone, Debug)]
pub struct FleetCampaign {
    /// Spec every replication shares (its `seed` is the campaign seed).
    pub base: FleetSpec,
    /// Number of replications.
    pub replications: u32,
    /// Worker threads (0 = one per core).
    pub workers: usize,
}

/// Run every replication and return (merged report, per-replication
/// reports in replication order).
pub fn run_campaign(campaign: &FleetCampaign) -> (FleetReport, Vec<FleetReport>) {
    let n = campaign.replications as usize;
    let seeds: Vec<u64> = (0..n as u64)
        .map(|r| derive_seed(campaign.base.seed, r))
        .collect();
    let reports = run_jobs(&seeds, campaign.workers, |&seed| {
        let mut spec = campaign.base.clone();
        spec.seed = seed;
        run_fleet(&spec).report
    });
    let mut merged = FleetReport::new(campaign.base.goodput_bucket_ms);
    for r in &reports {
        merged.merge(r);
    }
    (merged, reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpw_metrics::to_json;

    fn small_campaign(workers: usize) -> FleetCampaign {
        let mut base = crate::FleetSpec::smoke(4, 42);
        base.workload = crate::FleetWorkload::Download { size: 16 << 10 };
        base.horizon_ms = 30_000;
        FleetCampaign {
            base,
            replications: 3,
            workers,
        }
    }

    #[test]
    fn workers_do_not_change_bytes() {
        let (serial, reps_serial) = run_campaign(&small_campaign(1));
        let (pooled, reps_pooled) = run_campaign(&small_campaign(4));
        assert_eq!(reps_serial.len(), 3);
        for (a, b) in reps_serial.iter().zip(&reps_pooled) {
            assert_eq!(to_json(a), to_json(b));
        }
        assert_eq!(to_json(&serial), to_json(&pooled));
    }
}
