//! The capture subsystem's end-to-end contract: a pcapng captured on the
//! wire, parsed back and analyzed tcptrace-style, must reproduce the
//! in-stack metrics within documented tolerance — and attaching the taps
//! must not perturb the run at all.

use mpwild::capture::{analyze, read_pcapng, IfaceRole, PcapFile, WireAnalysis, DROPS_IFACE};
use mpwild::experiments::{
    crosscheck, run_measurement, run_measurement_captured, sizes, CrosscheckReport, FlowConfig,
    Scenario, Tolerances, WifiKind, SERVER_PORT,
};
use mpwild::link::{Carrier, DayPeriod};
use mpwild::mptcp::Coupling;

fn fig5_style(flow: FlowConfig) -> Scenario {
    Scenario {
        wifi: WifiKind::Home,
        carrier: Carrier::Att,
        flow,
        size: sizes::S2M,
        period: DayPeriod::Night,
        warmup: true,
    }
}

/// One captured 2 MB download, parsed back, analyzed and cross-checked
/// against the stack under the default tolerances.
fn crosschecked(
    flow: FlowConfig,
    carrier: Carrier,
    seed: u64,
) -> (CrosscheckReport, PcapFile, WireAnalysis) {
    let sc = Scenario {
        carrier,
        ..fig5_style(flow)
    };
    let (m, pcap) = run_measurement_captured(&sc, seed);
    let file = read_pcapng(&pcap).expect("capture parses back");
    let wa = analyze(&file, SERVER_PORT);
    let report = crosscheck(&m, &wa, &Tolerances::default());
    assert!(
        report.pass(),
        "{carrier:?} seed {seed}: wire analysis diverges from stack metrics:\n{}",
        report.render()
    );
    (report, file, wa)
}

#[test]
fn wire_analysis_matches_stack_metrics_mp() {
    for (carrier, seed) in [(Carrier::Att, 11), (Carrier::Sprint, 7), (Carrier::Att, 9)] {
        let (report, file, wa) = crosschecked(FlowConfig::mp2(Coupling::Coupled), carrier, seed);
        // Four vantages per path; the drops interface is lazy.
        let roles: Vec<_> = file
            .interfaces
            .iter()
            .filter(|i| i.name != DROPS_IFACE)
            .map(|i| IfaceRole::parse(&i.name).expect("structured iface name"))
            .collect();
        assert_eq!(roles.len(), 8, "2 paths x 4 vantages");
        assert!(!file.packets.is_empty(), "capture saw traffic");
        // The multipath handshake itself must be visible on the wire.
        let conn = &wa.connections[0];
        assert!(conn.client_key.is_some(), "MP_CAPABLE key recovered from wire");
        assert!(
            conn.subflows.iter().any(|s| s.join_token.is_some()),
            "MP_JOIN recovered from wire"
        );
        // Both subflows carried data, and the OFO shape was compared, not
        // skipped for want of samples on either side (the Sprint pair is
        // where reordering happens, §5.2).
        let with_data = conn.subflows.iter().filter(|s| s.data_segs > 10).count();
        assert!(
            with_data >= 2,
            "expected both subflows on the wire, got {with_data}"
        );
        assert!(
            report
                .comparisons
                .iter()
                .any(|c| c.name == "ofo_delayed_frac"),
            "no OFO comparison for {carrier:?} seed {seed}:\n{}",
            report.render()
        );
    }
}

#[test]
fn wire_analysis_matches_stack_metrics_sp() {
    for (flow, seed) in [(FlowConfig::SpWifi, 3), (FlowConfig::SpCellular, 5)] {
        crosschecked(flow, Carrier::Att, seed);
    }
}

#[test]
fn capture_is_metrically_invisible() {
    // Taps must not perturb the simulation: the same seed with capture
    // enabled yields a byte-identical serialized measurement.
    let sc = fig5_style(FlowConfig::mp2(Coupling::Coupled));
    let plain = run_measurement(&sc, 7);
    let (captured, pcap) = run_measurement_captured(&sc, 7);
    assert!(!pcap.is_empty());
    assert_eq!(
        serde_json::to_string(&plain).expect("serialize"),
        serde_json::to_string(&captured).expect("serialize"),
        "capture perturbed the measurement"
    );
}
