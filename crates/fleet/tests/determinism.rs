//! Fleet determinism wall: the same spec must produce byte-identical
//! reports on replay, under any worker count, and under any shard
//! grouping — the acceptance gate ISSUE 10 ties the campaign layer to.

use mpw_fleet::{run_campaign, run_fleet, Arrival, FleetCampaign, FleetSpec, FleetWorkload, PathMix};
use mpw_metrics::to_json;

fn spec(n: u32, seed: u64) -> FleetSpec {
    let mut s = FleetSpec::smoke(n, seed);
    s.workload = FleetWorkload::Download { size: 24 << 10 };
    s.horizon_ms = 40_000;
    s
}

#[test]
fn replay_is_byte_identical_including_records() {
    let s = spec(16, 21);
    let a = run_fleet(&s);
    let b = run_fleet(&s);
    assert_eq!(to_json(&a.report), to_json(&b.report));
    assert_eq!(a.records.len(), b.records.len());
    for (x, y) in a.records.iter().zip(&b.records) {
        assert_eq!(to_json(x), to_json(y));
    }
}

#[test]
fn different_seed_changes_the_report() {
    let a = run_fleet(&spec(16, 21));
    let b = run_fleet(&spec(16, 22));
    assert_ne!(
        to_json(&a.report),
        to_json(&b.report),
        "two seeds collapsing to one report would mean the seed is ignored"
    );
}

#[test]
fn campaign_bytes_survive_any_worker_count_and_shard_split() {
    let base = spec(8, 5);
    let reference = run_campaign(&FleetCampaign {
        base: base.clone(),
        replications: 4,
        workers: 1,
        shards: 1,
    });
    for (workers, shards) in [(2, 1), (4, 2), (3, 4), (0, 3)] {
        let got = run_campaign(&FleetCampaign {
            base: base.clone(),
            replications: 4,
            workers,
            shards,
        });
        assert_eq!(
            to_json(&reference.0),
            to_json(&got.0),
            "workers={workers} shards={shards} changed the merged report"
        );
        for (a, b) in reference.1.iter().zip(&got.1) {
            assert_eq!(to_json(a), to_json(b));
        }
    }
}

#[test]
fn arrival_processes_are_seed_pure() {
    for arrival in [
        Arrival::Staggered { gap_ms: 15 },
        Arrival::Poisson { mean_gap_ms: 40 },
    ] {
        let mut s = spec(6, 9);
        s.arrival = arrival;
        s.horizon_ms = 20_000;
        let a = run_fleet(&s);
        let b = run_fleet(&s);
        assert_eq!(to_json(&a.report), to_json(&b.report), "{arrival:?}");
    }
}

#[test]
fn all_multipath_fleet_splits_bytes_across_both_networks() {
    let mut s = spec(5, 31);
    s.mix = PathMix::all_multipath();
    s.workload = FleetWorkload::Download { size: 512 << 10 };
    s.horizon_ms = 120_000;
    let run = run_fleet(&s);
    assert_eq!(run.report.flows_completed, 5);
    assert!(run.report.wifi_bytes > 0);
    assert!(run.report.cell_bytes > 0);
    assert_eq!(run.report.bytes, run.report.wifi_bytes + run.report.cell_bytes);
    let share = run.report.cellular_share();
    assert!(share > 0.0 && share < 1.0, "share = {share}");
}
