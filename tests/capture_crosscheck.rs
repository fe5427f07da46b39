//! The capture subsystem's end-to-end contract: a pcapng captured on the
//! wire, parsed back and analyzed tcptrace-style, must reproduce the
//! in-stack metrics within documented tolerance — and attaching the taps
//! must not perturb the run at all.

use mpwild::capture::{analyze, read_pcapng, IfaceRole, PcapFile, WireAnalysis, DROPS_IFACE};
use mpwild::experiments::{
    crosscheck, run_measurement, run_measurement_captured, run_measurement_traced, sizes,
    CrosscheckReport, FlowConfig, Scenario, Tolerances, WifiKind, SERVER_PORT,
};
use mpwild::fleet::client_flow;
use mpwild::link::{Carrier, DayPeriod};
use mpwild::mptcp::Coupling;
use mpwild::mptcp::Host;
use mpwild::sim::trace::TraceLevel;

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
/// against the stack under the default tolerances; `inspect` then looks at
/// the report, the file (which borrows the capture held here) and the
/// analysis.
fn crosschecked(
    flow: FlowConfig,
    carrier: Carrier,
    seed: u64,
    inspect: impl FnOnce(&CrosscheckReport, &PcapFile<'_>, &WireAnalysis),
) {
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
    inspect(&report, &file, &wa);
}

#[test]
fn wire_analysis_matches_stack_metrics_mp() {
    for (carrier, seed) in [(Carrier::Att, 11), (Carrier::Sprint, 7), (Carrier::Att, 9)] {
        crosschecked(FlowConfig::mp2(Coupling::Coupled), carrier, seed, |report, file, wa| {
            // Four vantages per path; the drops interface is declared only
            // when a drop was seen.
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
        });
    }
}

/// A 4-path run has two subflows on each path, so stack and wire subflows
/// pair only by the client endpoint: each of the four must find its own
/// wire twin with the same segment counts, and the byte share, delivered
/// bytes and OFO shape must agree with the wire's. (This is the Sprint MP-4
/// row of the pinned captures.)
///
/// RTT means are reported, not asserted. On this run subflow 3 (43
/// segments, 21 retransmitted) has 3 stack samples, one of them the
/// handshake, and 2 wire samples: a mean of 225.4 ms against the wire's
/// 307.5 ms.
#[test]
fn wire_analysis_matches_stack_metrics_mp4() {
    let sc = Scenario {
        carrier: Carrier::Sprint,
        period: DayPeriod::Evening,
        ..fig5_style(FlowConfig::mp4(Coupling::Olia))
    };
    let (m, pcap) = run_measurement_captured(&sc, 11);
    let file = read_pcapng(&pcap).expect("capture parses back");
    let wa = analyze(&file, SERVER_PORT);
    let report = crosscheck(&m, &wa, &Tolerances::default());
    assert_eq!(wa.connections[0].subflows.len(), 4, "four subflows on the wire");
    let whole = ["established_subflows", "delivered_bytes", "cellular_share", "ofo_delayed_frac"];
    let per_subflow = (0..4).flat_map(|i| {
        [format!("subflow{i}.data_segs"), format!("subflow{i}.rexmit_segs")]
    });
    for name in whole.map(String::from).into_iter().chain(per_subflow) {
        let c = report.comparisons.iter().find(|c| c.name == name);
        assert!(c.is_some_and(|c| c.pass), "{name} missing or divergent:\n{}", report.render());
    }
}

/// A measurement's cellular share is the receiver's: the bytes each client
/// interface received, as the fleet and the handover runner read them. On
/// four paths the server's subflow order differs from the client's.
#[test]
fn mp4_share_is_the_receivers_per_interface_share() {
    for (carrier, size) in [(Carrier::Att, sizes::S64K), (Carrier::Sprint, sizes::S2M)] {
        let sc = Scenario {
            carrier,
            size,
            ..fig5_style(FlowConfig::mp4(Coupling::Coupled))
        };
        let (m, tb) = run_measurement_traced(&sc, 1, TraceLevel::Off);
        let host = tb.world.agent::<Host>(tb.client).expect("client host");
        let [wifi, cell] = client_flow(host).expect("client flow").per_if;
        assert!(wifi + cell > 0, "{carrier:?} {size} B: nothing delivered");
        let share = cell as f64 / (wifi + cell) as f64;
        assert_eq!(m.cellular_share, share, "{carrier:?} {size} B: measurement vs receiver");
        let on_cell = m.subflows.iter().filter(|s| s.if_index == 1);
        let cell_subflows: u64 = on_cell.map(|s| s.delivered_bytes).sum();
        assert_eq!(cell_subflows, cell, "{carrier:?} {size} B: per-subflow bytes vs receiver");
    }
}

/// The wire takes no RTT sample the stack does not: on every established
/// subflow the analyzer's count is at most the stack's less one, the
/// handshake round trip only the stack keeps. Each record is stamped when
/// its host handles the frame, so an ACK reaching the server at the instant
/// the server retransmits is read after that retransmission, and Karn's
/// rule drops the sample. These are retransmission-heavy Sprint MP-4 runs;
/// subflow 10.0.2.2:40003 is where a file ordered by when deliveries were
/// scheduled read the ACK first.
#[test]
fn wire_rtt_samples_are_karn_valid() {
    use DayPeriod::{Evening, Night};
    for (period, seed) in [(Night, 13), (Night, 11), (Evening, 11)] {
        let sc = Scenario {
            carrier: Carrier::Sprint,
            period,
            ..fig5_style(FlowConfig::mp4(Coupling::Olia))
        };
        let (m, pcap) = run_measurement_captured(&sc, seed);
        let file = read_pcapng(&pcap).expect("capture parses back");
        let wa = analyze(&file, SERVER_PORT);
        for s in m.subflows.iter().filter(|s| s.established) {
            let mut wire = wa.connections.iter().flat_map(|c| &c.subflows);
            let w = wire.find(|w| w.client == s.client);
            let w = w.unwrap_or_else(|| panic!("{period:?} seed {seed}: {:?} unseen", s.client));
            assert!(
                w.rtt.count() < s.rtt.count(),
                "{period:?} seed {seed}, subflow {:?}: {} wire RTT samples, {} on the stack",
                s.client,
                w.rtt.count(),
                s.rtt.count()
            );
        }
    }
}

#[test]
fn wire_analysis_matches_stack_metrics_sp() {
    for (flow, seed) in [(FlowConfig::SpWifi, 3), (FlowConfig::SpCellular, 5)] {
        crosschecked(flow, Carrier::Att, seed, |_, _, _| {});
    }
}

/// FNV-1a-64 of a capture file.
fn fnv1a(data: &[u8]) -> u64 {
    data.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The capture is pinned by bytes (Home WiFi, warm-up on). Drop-free files
/// declare 8 interfaces — the eagerly written `drops` block cut out again,
/// on a full-size file in the last row — and lossy ones 9. The hashes were
/// pinned again when the receiving vantages moved from the links onto the
/// hosts: each file holds the same records as before, and only records
/// with equal timestamps changed places (they now follow the order the
/// hosts handled the frames in).
#[test]
fn pcapng_bytes_match_the_pinned_hashes() {
    use DayPeriod::{Evening, Night};
    let mp2 = FlowConfig::mp2(Coupling::Coupled);
    let mp4 = FlowConfig::mp4(Coupling::Olia);
    let (sp_wifi, sp_cell) = (FlowConfig::SpWifi, FlowConfig::SpCellular);
    let rows = [
        (Carrier::Att, mp2, Night, sizes::S64K, 2013, 146_820, 0x5312_b04c_3ebf_1dbb, 0),
        (Carrier::Att, mp2, Night, sizes::S2M, 11, 4_665_468, 0x3bf1_97da_cf52_4a46, 17),
        (Carrier::Sprint, mp4, Evening, sizes::S2M, 11, 4_859_220, 0x3dbf_38e3_6fb8_b7ab, 48),
        (Carrier::Att, sp_wifi, Evening, sizes::S64K, 2013, 142_820, 0xf22c_41da_e3a3_2d7d, 0),
        (Carrier::Verizon, sp_cell, Night, sizes::S8M, 7919, 18_003_316, 0xf627_8669_a09b_babe, 0),
    ];
    for (carrier, flow, period, size, seed, len, hash, drops) in rows {
        let sc = Scenario {
            wifi: WifiKind::Home,
            carrier,
            flow,
            size,
            period,
            warmup: true,
        };
        let (_, pcap) = run_measurement_captured(&sc, seed);
        let row = format!("{carrier:?} {flow:?} {period:?} {size} B seed {seed}");
        assert_eq!(pcap.len(), len, "{row}: file length");
        assert_eq!(fnv1a(&pcap), hash, "{row}: FNV-1a-64 {:016x}", fnv1a(&pcap));
        let file = read_pcapng(&pcap).expect("capture parses back");
        assert_eq!(file.interfaces.len(), if drops > 0 { 9 } else { 8 }, "{row}: interfaces");
        assert_eq!(analyze(&file, SERVER_PORT).drop_records, drops, "{row}: drop records");
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
