//! The work-count gate: four fixed runs — a 4 MB MP-2 coupled/AT&T
//! download, a 4 MB SP-WiFi download, a 100-client smoke fleet and an 8 KB
//! MP-2 coupled/AT&T download (the campaigns' unit of work, where what a
//! run does after its last byte is most of what it does), all seed 7 —
//! must do *exactly* the work recorded in `WORK_budgets.json`: events
//! processed, stale timer pops, frames accepted into the access links, and
//! the data segments and retransmissions the server's sockets sent. The
//! simulator is deterministic, so these counts repeat exactly on every
//! machine; a change that is meant to be speed-only must leave them alone,
//! and one that adds an event per flow fails here on a noise-free number.
//! Beside the gated counts each run prints the calendar's lane counters
//! (`EngineStats::{same_instant_deliveries, timer_deliveries, peak_pending}`)
//! as facts: exact too, but they describe the engine, not behaviour. The
//! two MP-2 downloads also print the server connection's housekeeping
//! passes per data segment sent (`MptcpConnection::housekeeping_passes`) — what
//! the MPTCP layer re-derives per segment, as a count.
//! A bench target beside `alloc_gate` so it builds with the release profile.
//!
//! ```text
//! cargo bench -p mpw-experiments --bench work_gate             # check
//! cargo bench -p mpw-experiments --bench work_gate -- --bless  # re-record
//! ```

use mpw_experiments::{run_measurement_traced, sizes, FlowConfig, Scenario, WifiKind};
use mpw_link::{BuiltPath, Carrier, DayPeriod, LinkAgent};
use mpw_mptcp::{Coupling, Host, Transport};
use mpw_sim::trace::TraceLevel;
use mpw_sim::{AgentId, World};
use serde::{Deserialize, Serialize};

const SEED: u64 = 7;
const BUDGETS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../WORK_budgets.json");

/// The exact counts of one run.
#[derive(PartialEq, Serialize, Deserialize)]
struct Work {
    events_processed: u64,
    stale_timer_pops: u64,
    link_frames_enqueued: u64,
    server_data_segs_sent: u64,
    server_rexmit_segs: u64,
}

/// The checked-in file: one [`Work`] per fixed run.
#[derive(PartialEq, Serialize, Deserialize)]
struct Budgets {
    mp2_coupled_att_4mb: Work,
    sp_wifi_4mb: Work,
    fleet_smoke_100: Work,
    mp2_coupled_att_8kb: Work,
}

/// Read a finished run's counts through the public stats of its world, and
/// print the lane counters of `run` on the way. Each link is synced to the
/// world's time first: it runs its cross traffic only when something
/// reaches it.
fn counts<'a>(
    run: &str,
    world: &mut World,
    paths: impl IntoIterator<Item = &'a BuiltPath>,
    server: AgentId,
) -> Work {
    let now = world.now();
    let mut link_frames = 0;
    for id in paths.into_iter().flat_map(|p| [p.uplink, p.downlink]) {
        if let Some(link) = world.agent_mut::<LinkAgent>(id) {
            link.sync(now);
            link_frames += link.stats().enqueued;
        }
    }
    let (mut data_segs, mut rexmit_segs, mut passes) = (0u64, 0u64, 0u64);
    let host = world.agent::<Host>(server).expect("server host");
    for slot in 0..host.slot_count() {
        let mut add = |st: mpw_tcp::SocketStats| {
            data_segs += st.data_segs_sent;
            rexmit_segs += st.rexmit_segs;
        };
        match host.transport(slot) {
            Some(Transport::Mp(c)) => {
                c.subflows.iter().for_each(|s| add(s.sock.stats()));
                passes += c.housekeeping_passes();
            }
            Some(Transport::Sp(s)) => add(s.stats()),
            None => {}
        }
    }
    let engine = world.stats();
    eprintln!(
        "{run}: of {} deliveries {} same-instant (now lane) and {} cancellable timers; \
         peak {} entries pending, {} compactions (facts, not gated)",
        engine.events_delivered,
        engine.same_instant_deliveries,
        engine.timer_deliveries,
        engine.peak_pending,
        engine.compactions
    );
    if passes > 0 {
        eprintln!(
            "{run}: {passes} server housekeeping passes for {data_segs} data segments, \
             {:.3} a segment (a fact, not gated)",
            passes as f64 / data_segs as f64
        );
    }
    Work {
        events_processed: world.events_processed(),
        stale_timer_pops: engine.stale_timer_pops,
        link_frames_enqueued: link_frames,
        server_data_segs_sent: data_segs,
        server_rexmit_segs: rexmit_segs,
    }
}

fn download(flow: FlowConfig, size: u64) -> Work {
    let scenario = Scenario {
        wifi: WifiKind::Home,
        carrier: Carrier::Att,
        flow,
        size,
        period: DayPeriod::Evening,
        warmup: true,
    };
    let (m, mut tb) = run_measurement_traced(&scenario, SEED, TraceLevel::Off);
    assert_eq!(m.bytes, size, "{flow:?}: the download must complete");
    let run = format!("{} {}", flow.label(scenario.carrier), sizes::label(size));
    counts(&run, &mut tb.world, &tb.paths, tb.server)
}

fn fleet() -> Work {
    let mut run = mpw_fleet::run_fleet(&mpw_fleet::FleetSpec::smoke(100, SEED));
    assert!(run.report.bytes > 0, "the fleet moved no bytes");
    counts("fleet smoke", &mut run.world, [&run.wifi_path, &run.cell_path], run.server)
}

fn main() {
    let measured = Budgets {
        mp2_coupled_att_4mb: download(FlowConfig::mp2(Coupling::Coupled), sizes::S4M),
        sp_wifi_4mb: download(FlowConfig::SpWifi, sizes::S4M),
        fleet_smoke_100: fleet(),
        mp2_coupled_att_8kb: download(FlowConfig::mp2(Coupling::Coupled), sizes::S8K),
    };
    let text = serde_json::to_string_pretty(&measured).expect("counts serialize") + "\n";
    let recorded = std::fs::read_to_string(BUDGETS).expect("read WORK_budgets.json");
    let recorded: Option<Budgets> = serde_json::from_str(&recorded).ok();
    if std::env::args().any(|a| a == "--bless") {
        std::fs::write(BUDGETS, &text).expect("write WORK_budgets.json");
        eprintln!("WORK_budgets.json re-recorded:\n{text}");
        recorded.iter().flat_map(|r| moved(r, &measured)).for_each(|l| eprintln!("  {l}"));
        return;
    }
    let recorded = recorded.expect("parse WORK_budgets.json");
    if recorded != measured {
        eprintln!(
            "WORK COUNT CHANGE: the fixed runs no longer do the recorded work:\n  {}\n\
             If the change is meant, re-record with: \
             cargo bench -p mpw-experiments --bench work_gate -- --bless",
            moved(&recorded, &measured).join("\n  ")
        );
        std::process::exit(1);
    }
    eprintln!("work counts equal WORK_budgets.json:\n{text}");
}

/// One `run.count: recorded → measured` line per count that differs.
fn moved(recorded: &Budgets, measured: &Budgets) -> Vec<String> {
    let [old, new] = [recorded, measured].map(|b| serde_json::to_value(b).expect("serialize"));
    let mut lines = Vec::new();
    for (run, counts) in old.as_object().into_iter().flatten() {
        for (count, was) in counts.as_object().into_iter().flatten() {
            let (was, now) = (was.as_u64(), new.get(run).and_then(|c| c.get(count)?.as_u64()));
            if was != now {
                lines.push(format!("{run}.{count}: {} → {}", was.unwrap_or(0), now.unwrap_or(0)));
            }
        }
    }
    lines
}
