//! `run_measurement_traced` runs the same world as `run_measurement` and
//! hands back the testbed besides; its measurement must be the same bytes.
//! The work-count gate and the benchmark's counting repetition measure
//! through the traced entry point and report it as the plain one.

use mpw_experiments::{
    run_measurement, run_measurement_traced, sizes, FlowConfig, Scenario, WifiKind,
};
use mpw_link::{Carrier, DayPeriod};
use mpw_mptcp::Coupling;
use mpw_sim::trace::TraceLevel;

#[test]
fn traced_entry_point_measures_what_the_plain_one_does() {
    for flow in [FlowConfig::mp2(Coupling::Coupled), FlowConfig::SpWifi] {
        let scenario = Scenario {
            wifi: WifiKind::Home,
            carrier: Carrier::Att,
            flow,
            size: sizes::S512K,
            period: DayPeriod::ALL[0],
            warmup: true,
        };
        let seed = 7;
        let plain = serde_json::to_string(&run_measurement(&scenario, seed))
            .expect("measurement serializes");
        let (traced, _tb) = run_measurement_traced(&scenario, seed, TraceLevel::Off);
        let traced = serde_json::to_string(&traced).expect("measurement serializes");
        assert_eq!(plain, traced, "{scenario:?} seed {seed}");
    }
}
