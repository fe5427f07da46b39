//! Monte-Carlo fleet campaigns: M seed-derived replications of one
//! [`FleetSpec`], run across a worker pool, aggregated by exact merge.
//!
//! The determinism contract: each replication is an independent world whose
//! seed is a pure function of the campaign seed and the replication index,
//! and [`FleetReport::merge`] is an integer-exact associative/commutative
//! fold. Worker count and shard grouping are therefore pure implementation
//! detail — any configuration produces byte-identical JSON.

use mpw_metrics::FleetReport;
use mpw_sim::{derive_seed, run_jobs};

use crate::engine::run_fleet;
use crate::spec::FleetSpec;

/// A campaign description: `replications` independent worlds built from
/// `base` (same spec, derived seeds), run on `workers` threads, aggregated
/// through `shards` intermediate partial reports.
#[derive(Clone, Debug)]
pub struct FleetCampaign {
    /// Spec every replication shares (its `seed` is the campaign seed).
    pub base: FleetSpec,
    /// Number of replications.
    pub replications: u32,
    /// Worker threads (0 = one per core).
    pub workers: usize,
    /// Number of contiguous shard groups merged into partials before the
    /// final fold (1 = merge replications directly).
    pub shards: usize,
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

    // Shard merge: contiguous replication ranges fold into partials, the
    // partials fold in order. Exactness of `merge` makes the grouping
    // invisible in the output.
    let shards = campaign.shards.clamp(1, n.max(1));
    let bucket = campaign.base.goodput_bucket_ms;
    let mut merged = FleetReport::new(bucket);
    let per_shard = n.div_ceil(shards.max(1)).max(1);
    for chunk in reports.chunks(per_shard) {
        let mut partial = FleetReport::new(bucket);
        for r in chunk {
            partial.merge(r);
        }
        merged.merge(&partial);
    }
    (merged, reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpw_metrics::to_json;

    fn small_campaign(workers: usize, shards: usize) -> FleetCampaign {
        let mut base = crate::FleetSpec::smoke(4, 42);
        base.workload = crate::FleetWorkload::Download { size: 16 << 10 };
        base.horizon_ms = 30_000;
        FleetCampaign {
            base,
            replications: 3,
            workers,
            shards,
        }
    }

    #[test]
    fn workers_and_shards_do_not_change_bytes() {
        let (serial, reps_serial) = run_campaign(&small_campaign(1, 1));
        let (pooled, reps_pooled) = run_campaign(&small_campaign(4, 3));
        assert_eq!(reps_serial.len(), 3);
        for (a, b) in reps_serial.iter().zip(&reps_pooled) {
            assert_eq!(to_json(a), to_json(b));
        }
        assert_eq!(to_json(&serial), to_json(&pooled));
    }
}
