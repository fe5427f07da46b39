//! Video streaming over MPTCP (paper §6, Table 7): play a Netflix-iPad-like
//! session — one big prefetch, then periodic blocks — over each transport,
//! and report block latencies and missed playout deadlines. This is the
//! workload the paper argues MPTCP should serve next.
//!
//! ```text
//! cargo run --release --example video_streaming
//! ```

use mpwild::experiments::{FlowConfig, Testbed, WifiKind};
use mpwild::http::{StreamingClient, StreamingProfile};
use mpwild::link::{Carrier, DayPeriod};
use mpwild::mptcp::{Coupling, Host};
use mpwild::sim::SimTime;

fn main() {
    // A shortened Netflix/iPad session: 15 MB prefetch, 1.8 MB blocks every
    // 10.2 s (Table 7), eight blocks.
    let profile = StreamingProfile::netflix_ipad(8);
    println!(
        "Netflix-iPad session: {:.1} MB prefetch, {:.1} MB blocks every {:.1} s, {} blocks\n",
        profile.prefetch as f64 / 1e6,
        profile.block as f64 / 1e6,
        profile.period.as_secs_f64(),
        profile.blocks
    );

    for (name, flow, carrier) in [
        ("SP-WiFi        ", FlowConfig::SpWifi, Carrier::Att),
        ("SP-AT&T LTE    ", FlowConfig::SpCellular, Carrier::Att),
        ("MP-2 + AT&T    ", FlowConfig::mp2(Coupling::Coupled), Carrier::Att),
        ("MP-2 + Sprint3G", FlowConfig::mp2(Coupling::Coupled), Carrier::Sprint),
    ] {
        let wifi = WifiKind::Home.spec(DayPeriod::Evening);
        let mut tb = Testbed::build(11, [wifi, carrier.preset()], flow.transport(), None);
        let app = Box::new(StreamingClient::new(profile));
        tb.open_with_app(app, true);
        tb.world.run_until(SimTime::from_secs(400));
        let host = tb.world.agent_mut::<Host>(tb.client).expect("client host");
        let app = host.app::<StreamingClient>(0).expect("streaming app");

        let prefetch = app
            .results
            .iter()
            .find(|r| r.index == 0)
            .map(|r| r.latency().as_secs_f64());
        let block_lat: Vec<f64> = app
            .results
            .iter()
            .filter(|r| r.index > 0)
            .map(|r| r.latency().as_secs_f64())
            .collect();
        let mean = if block_lat.is_empty() {
            f64::NAN
        } else {
            block_lat.iter().sum::<f64>() / block_lat.len() as f64
        };
        let max = block_lat.iter().copied().fold(0.0, f64::max);
        println!(
            "  {name}  prefetch {:>6}  blocks: mean {mean:5.2} s, worst {max:5.2} s, late {} of {}",
            prefetch.map_or("STALL".into(), |p| format!("{p:5.1} s")),
            app.late_blocks,
            profile.blocks
        );
    }
    println!("\nA late block means the buffer would have drained — the §5.2 link");
    println!("between path heterogeneity, reordering delay, and streaming QoE.");
}
