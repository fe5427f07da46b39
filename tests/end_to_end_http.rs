//! Cross-crate integration: HTTP downloads over the full simulated testbed
//! (sim + link + tcp + mptcp + http + experiments), for every carrier and
//! controller, with byte-level payload verification.

use mpwild::experiments::{run_measurement, sizes, FlowConfig, Scenario, Testbed, WifiKind};
use mpwild::http::Wget;
use mpwild::link::{Carrier, DayPeriod};
use mpwild::mptcp::{Coupling, Host};
use mpwild::sim::SimTime;

fn scenario(flow: FlowConfig, carrier: Carrier, size: u64) -> Scenario {
    Scenario {
        wifi: WifiKind::Home,
        carrier,
        flow,
        size,
        period: DayPeriod::Morning,
        warmup: true,
    }
}

/// A verified (byte-checked) download through the full stack.
fn verified_download(flow: FlowConfig, carrier: Carrier, size: u64, seed: u64) {
    let wifi = WifiKind::Home.spec(DayPeriod::Morning);
    let mut tb = Testbed::build(seed, [wifi, carrier.preset()], flow.transport(), None);
    let app = Box::new(Wget::new(size, true)); // verify every body byte
    let slot = tb.open_with_app(app, SimTime::from_millis(50), true);
    tb.world.run_until(SimTime::from_secs(600));
    let host = tb.world.agent_mut::<Host>(tb.client).expect("client host");
    let w = host.app::<Wget>(slot).expect("wget");
    assert!(
        w.is_done(),
        "{flow:?}/{carrier:?} {size}B did not complete"
    );
    assert_eq!(w.result.bytes, size, "byte count mismatch");
    assert_eq!(w.result.corrupt_bytes, 0, "payload corruption detected");
}

#[test]
fn verified_download_every_carrier_mptcp() {
    for (i, carrier) in Carrier::ALL.into_iter().enumerate() {
        verified_download(
            FlowConfig::mp2(Coupling::Coupled),
            carrier,
            sizes::S512K,
            40 + i as u64,
        );
    }
}

#[test]
fn verified_download_every_coupling() {
    for (i, coupling) in Coupling::ALL.into_iter().enumerate() {
        verified_download(
            FlowConfig::mp2(coupling),
            Carrier::Att,
            sizes::S2M,
            50 + i as u64,
        );
    }
}

#[test]
fn verified_download_four_path_and_single_path() {
    verified_download(FlowConfig::mp4(Coupling::Olia), Carrier::Att, sizes::S2M, 60);
    verified_download(FlowConfig::SpWifi, Carrier::Att, sizes::S512K, 61);
    verified_download(FlowConfig::SpCellular, Carrier::Verizon, sizes::S512K, 62);
}

#[test]
fn measurement_is_deterministic_end_to_end() {
    let sc = scenario(FlowConfig::mp2(Coupling::Olia), Carrier::Verizon, sizes::S512K);
    let a = run_measurement(&sc, 777);
    let b = run_measurement(&sc, 777);
    assert_eq!(a.download_time_s, b.download_time_s);
    assert_eq!(a.cellular_share, b.cellular_share);
    assert_eq!(a.bytes, b.bytes);
    let c = run_measurement(&sc, 778);
    assert_ne!(
        a.download_time_s, c.download_time_s,
        "different seeds should differ"
    );
}

#[test]
fn mptcp_download_time_close_to_best_single_path() {
    // The paper's headline: MPTCP ≈ best single path (robustness).
    let mut ratios = Vec::new();
    for seed in 0..3u64 {
        let mp = run_measurement(
            &scenario(FlowConfig::mp2(Coupling::Coupled), Carrier::Att, sizes::S2M),
            seed,
        )
        .download_time_s
        .expect("mp done");
        let spw = run_measurement(&scenario(FlowConfig::SpWifi, Carrier::Att, sizes::S2M), seed)
            .download_time_s
            .expect("sp wifi done");
        let spc = run_measurement(
            &scenario(FlowConfig::SpCellular, Carrier::Att, sizes::S2M),
            seed,
        )
        .download_time_s
        .expect("sp cell done");
        ratios.push(mp / spw.min(spc));
    }
    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    assert!(
        mean < 1.3,
        "MPTCP should track the best single path; ratios {ratios:?}"
    );
}

#[test]
fn warmup_pings_measure_cellular_rtt() {
    let sc = scenario(FlowConfig::SpCellular, Carrier::Att, sizes::S8K);
    let (_, mut tb) = mpwild::experiments::run_measurement_traced(
        &sc,
        91,
        mpwild::sim::trace::TraceLevel::Off,
    );
    let client = tb.client;
    let host = tb.world.agent_mut::<Host>(client).expect("client host");
    assert_eq!(host.ping_rtts.len(), 2, "two warm-up pings (§3.2)");
    for rtt in &host.ping_rtts {
        // First ping pays RRC promotion (~hundreds of ms); both bounded.
        assert!(rtt.as_millis_f64() > 30.0 && rtt.as_millis_f64() < 2_000.0);
    }
}

#[test]
fn cold_cellular_start_pays_rrc_promotion() {
    // Without the warm-up the paper performed, the first cellular download
    // eats the idle→ready promotion delay.
    let mut warm = scenario(FlowConfig::SpCellular, Carrier::Att, sizes::S8K);
    warm.warmup = true;
    let mut cold = warm.clone();
    cold.warmup = false;
    let tw = run_measurement(&warm, 19).download_time_s.unwrap();
    let tc = run_measurement(&cold, 19).download_time_s.unwrap();
    assert!(
        tc > tw + 0.2,
        "cold start ({tc:.3}s) should pay promotion vs warm ({tw:.3}s)"
    );
}
