//! Fleet acceptance regressions: the N=1 degenerate case must land within
//! the DESIGN §5.7 cross-check tolerances of the single-flow testbed (the
//! two draw different weather: other access-network stream labels and a
//! first open at 0 ms, not 100 ms), and campaign aggregation must be
//! bitwise immune to worker counts and shard splits (the CI smoke gate in
//! miniature).

use mpw_experiments::{run_measurement, sizes, FlowConfig, Scenario, Tolerances, WifiKind};
use mpw_fleet::{run_campaign, run_fleet, FleetCampaign, FleetSpec, FleetWorkload, PathMix};
use mpw_link::{Carrier, DayPeriod};
use mpw_metrics::to_json;
use mpw_mptcp::Coupling;

#[test]
fn n1_fleet_matches_single_flow_testbed_within_tolerances() {
    let seed = 1;
    let size = sizes::S2M;
    let mut spec = FleetSpec::smoke(1, seed);
    spec.mix = PathMix::all_multipath();
    spec.workload = FleetWorkload::Download { size };
    spec.horizon_ms = 240_000;
    let fleet = run_fleet(&spec);
    let testbed = run_measurement(
        &Scenario {
            wifi: WifiKind::Home,
            carrier: Carrier::Att,
            flow: FlowConfig::mp2(Coupling::Coupled),
            size,
            period: DayPeriod::Evening,
            warmup: false,
        },
        seed,
    );

    let tol = Tolerances::default();
    let rec = &fleet.records[0];
    assert!(rec.completed, "N=1 fleet download must complete");
    assert!(testbed.download_time_s.is_some(), "testbed must complete");

    let byte_diff = (fleet.report.bytes as f64 - testbed.bytes as f64).abs()
        / (testbed.bytes as f64);
    assert!(
        byte_diff <= tol.delivered_rel,
        "delivered bytes diverge: fleet {} vs testbed {} (rel {byte_diff:.4})",
        fleet.report.bytes,
        testbed.bytes
    );

    let share_diff = (fleet.report.cellular_share() - testbed.cellular_share).abs();
    assert!(
        share_diff <= tol.cellular_share_abs,
        "cellular share diverges: fleet {:.3} vs testbed {:.3}",
        fleet.report.cellular_share(),
        testbed.cellular_share
    );
}

#[test]
fn fleet_campaign_is_bitwise_immune_to_workers_and_shards() {
    let base = FleetSpec::smoke(30, 17);
    let reference = run_campaign(&FleetCampaign {
        base: base.clone(),
        replications: 4,
        workers: 1,
        shards: 1,
    });
    for (workers, shards) in [(4, 1), (2, 4), (0, 2)] {
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
    }
}

#[test]
fn mixed_fleet_report_is_internally_consistent() {
    let run = run_fleet(&FleetSpec::smoke(60, 3));
    let r = &run.report;
    assert_eq!(r.clients, 60);
    assert_eq!(r.flows_started, 60);
    assert_eq!(r.flows_completed, 60);
    assert_eq!(r.bytes, r.wifi_bytes + r.cell_bytes);
    // The mixed 5/3/2 draw at N=60 produces all three classes.
    assert_eq!(r.fct_by_class.len(), 3, "classes: {:?}", r.fct_by_class.keys());
    let by_class: u64 = r.fct_by_class.values().map(|d| d.count()).sum();
    assert_eq!(by_class, r.flows_started);
    let jain = r.fairness.jain();
    assert!(jain > 0.0 && jain <= 1.0, "Jain index out of range: {jain}");
}
