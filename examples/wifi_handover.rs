//! Walking out of WiFi range mid-download (the robustness/mobility claim of
//! paper §6): single-path TCP on WiFi dies with the access point; MPTCP
//! reinjects the lost data on the cellular subflow and finishes.
//!
//! ```text
//! cargo run --release --example wifi_handover
//! ```

use mpwild::experiments::{FlowConfig, Testbed, WifiKind};
use mpwild::http::Wget;
use mpwild::link::{Carrier, DayPeriod, LinkAgent, LossModel};
use mpwild::mptcp::{Coupling, Host};
use mpwild::sim::SimTime;

fn run_one(flow: FlowConfig, kill_wifi_at_s: u64) -> (Option<f64>, u64) {
    let wifi = WifiKind::Home.spec(DayPeriod::Evening);
    let mut tb = Testbed::build(21, [wifi, Carrier::Att.preset()], flow.transport(), None);
    let slot = tb.download(8 << 20, SimTime::from_millis(100), true);
    // Run until the walk-away moment, then make WiFi drop everything.
    tb.world.run_until(SimTime::from_secs(kill_wifi_at_s));
    let (up, down) = (tb.paths[0].uplink, tb.paths[0].downlink);
    for link in [up, down] {
        tb.world
            .agent_mut::<LinkAgent>(link)
            .expect("wifi link")
            .set_loss(LossModel::Bernoulli { p: 1.0 });
    }
    tb.world.run_until(SimTime::from_secs(240));
    let host = tb.world.agent_mut::<Host>(tb.client).expect("client host");
    let w = host.app::<Wget>(slot).expect("wget app");
    (w.result.download_time().map(|d| d.as_secs_f64()), w.result.bytes)
}

fn main() {
    println!("8 MB download; the client walks out of WiFi range 2 s in.\n");
    let (sp_time, sp_bytes) = run_one(FlowConfig::SpWifi, 2);
    println!(
        "  single-path WiFi : {} ({:.1} of 8.0 MB arrived)",
        sp_time.map_or("NEVER COMPLETES".into(), |t| format!("{t:.2} s")),
        sp_bytes as f64 / (1 << 20) as f64
    );
    let (mp_time, mp_bytes) = run_one(FlowConfig::mp2(Coupling::Coupled), 2);
    println!(
        "  MPTCP WiFi+LTE   : {} ({:.1} of 8.0 MB arrived)",
        mp_time.map_or("NEVER COMPLETES".into(), |t| format!("{t:.2} s")),
        mp_bytes as f64 / (1 << 20) as f64
    );
    println!();
    match (sp_time, mp_time) {
        (None, Some(t)) => println!(
            "Single-path TCP stalled forever; MPTCP finished in {t:.1} s by \
             reinjecting the WiFi subflow's unacknowledged data over LTE."
        ),
        _ => println!("(unexpected outcome — inspect the run)"),
    }
}
