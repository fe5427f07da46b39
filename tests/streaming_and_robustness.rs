//! Streaming sessions (§6) and robustness/mobility (§6) across the full
//! stack: periodic-block playback deadlines, path death mid-transfer, and
//! recovery behaviour.

use mpwild::experiments::{FlowConfig, Testbed, WifiKind};
use mpwild::http::{StreamingClient, StreamingProfile, Wget};
use mpwild::link::{Carrier, DayPeriod, LinkAgent, LossModel};
use mpwild::mptcp::{Coupling, Host};
use mpwild::sim::{SimDuration, SimTime};

fn streaming_session(
    carrier: Carrier,
    flow: FlowConfig,
    profile: StreamingProfile,
    seed: u64,
) -> (u32, Vec<f64>) {
    let wifi = WifiKind::Home.spec(DayPeriod::Evening);
    let mut tb = Testbed::build(seed, [wifi, carrier.preset()], flow.transport(), None);
    let app = Box::new(StreamingClient::new(profile));
    let slot = tb.open_with_app(app, SimTime::from_millis(100), true);
    tb.world.run_until(SimTime::from_secs(300));
    let host = tb.world.agent_mut::<Host>(tb.client).expect("client host");
    let app = host.app::<StreamingClient>(slot).expect("streaming app");
    assert!(app.is_done(), "session did not finish");
    let lats = app
        .results
        .iter()
        .filter(|r| r.index > 0)
        .map(|r| r.latency().as_secs_f64())
        .collect();
    (app.late_blocks, lats)
}

#[test]
fn streaming_over_mptcp_meets_deadlines_on_lte() {
    let profile = StreamingProfile::miniature(10);
    let (late, lats) = streaming_session(
        Carrier::Att,
        FlowConfig::mp2(Coupling::Coupled),
        profile,
        31,
    );
    assert_eq!(late, 0, "no late blocks expected on WiFi+LTE: {lats:?}");
    assert_eq!(lats.len(), 10);
}

#[test]
fn streaming_blocks_arrive_in_period_order() {
    let profile = StreamingProfile::miniature(6);
    let wifi = WifiKind::Home.spec(DayPeriod::Night);
    let transport = FlowConfig::mp2(Coupling::Coupled).transport();
    let mut tb = Testbed::build(37, [wifi, Carrier::Att.preset()], transport, None);
    let app = Box::new(StreamingClient::new(profile));
    let slot = tb.open_with_app(app, SimTime::from_millis(100), true);
    tb.world.run_until(SimTime::from_secs(120));
    let host = tb.world.agent_mut::<Host>(tb.client).expect("client host");
    let app = host.app::<StreamingClient>(slot).expect("app");
    // Requests are periodic: consecutive block requests are ≥ period apart.
    let mut prev: Option<SimTime> = None;
    for r in app.results.iter().filter(|r| r.index > 0) {
        if let Some(p) = prev {
            assert!(
                r.requested_at.saturating_since(p) >= profile.period,
                "blocks requested closer than the playout period"
            );
        }
        prev = Some(r.requested_at);
        assert_eq!(r.bytes, profile.block, "block size mismatch");
    }
}

#[test]
fn sprint_heterogeneity_risks_deadlines_more_than_lte() {
    // Tight deadlines over WiFi+Sprint vs WiFi+AT&T: the 3G path's huge
    // reordering delays (paper §5.2) should never make things *better*.
    let profile = StreamingProfile {
        prefetch: 300_000,
        block: 150_000,
        period: SimDuration::from_millis(400),
        blocks: 12,
    };
    let mut worse = 0;
    let mut total = 0;
    for seed in 0..3 {
        let (late_lte, _) = streaming_session(
            Carrier::Att,
            FlowConfig::mp2(Coupling::Coupled),
            profile,
            400 + seed,
        );
        let (late_3g, _) = streaming_session(
            Carrier::Sprint,
            FlowConfig::mp2(Coupling::Coupled),
            profile,
            400 + seed,
        );
        total += 1;
        if late_3g >= late_lte {
            worse += 1;
        }
    }
    assert!(
        worse * 2 >= total,
        "Sprint should not beat LTE on deadline misses"
    );
}

#[test]
fn cellular_death_mid_transfer_survives_on_wifi() {
    let wifi = WifiKind::Home.spec(DayPeriod::Night);
    let transport = FlowConfig::mp2(Coupling::Coupled).transport();
    let mut tb = Testbed::build(43, [wifi, Carrier::Att.preset()], transport, None);
    let slot = tb.download(4 << 20, SimTime::from_millis(100), true);
    tb.world.run_until(SimTime::from_secs(2));
    let (up, down) = (tb.paths[1].uplink, tb.paths[1].downlink);
    for link in [up, down] {
        tb.world
            .agent_mut::<LinkAgent>(link)
            .expect("cellular link")
            .set_loss(LossModel::Bernoulli { p: 1.0 });
    }
    tb.world.run_until(SimTime::from_secs(240));
    let host = tb.world.agent_mut::<Host>(tb.client).expect("client host");
    let w = host.app::<Wget>(slot).expect("wget");
    assert!(w.is_done(), "transfer should survive cellular death via WiFi");
    assert_eq!(w.result.bytes, 4 << 20);
}

#[test]
fn transient_wifi_outage_recovers_without_reset() {
    // WiFi blacks out for 3 s, then returns; the subflow should resume (no
    // connection reset), and the transfer should complete.
    let wifi = WifiKind::Home.spec(DayPeriod::Night);
    let wifi_loss = wifi.down.loss.clone();
    let transport = FlowConfig::mp2(Coupling::Coupled).transport();
    let mut tb = Testbed::build(47, [wifi, Carrier::Att.preset()], transport, None);
    let slot = tb.download(8 << 20, SimTime::from_millis(100), true);
    tb.world.run_until(SimTime::from_secs(2));
    let (up, down) = (tb.paths[0].uplink, tb.paths[0].downlink);
    for link in [up, down] {
        tb.world
            .agent_mut::<LinkAgent>(link)
            .expect("wifi link")
            .set_loss(LossModel::Bernoulli { p: 1.0 });
    }
    tb.world.run_until(SimTime::from_secs(5));
    tb.world
        .agent_mut::<LinkAgent>(up)
        .expect("wifi uplink")
        .set_loss(wifi_loss.clone());
    tb.world
        .agent_mut::<LinkAgent>(down)
        .expect("wifi downlink")
        .set_loss(wifi_loss);
    tb.world.run_until(SimTime::from_secs(300));
    let host = tb.world.agent_mut::<Host>(tb.client).expect("client host");
    let w = host.app::<Wget>(slot).expect("wget");
    assert!(w.is_done(), "transfer should complete after the outage");
    assert_eq!(w.result.bytes, 8 << 20);
}
