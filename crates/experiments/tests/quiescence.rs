//! The stop rule of `Testbed::run_flow` loses nothing: a measurement
//! harvested at the first quiescent 100 ms boundary is the measurement the
//! same world yields at the next 5 s mark — where every run stopped before
//! the rule existed — and the capture written by then has not grown by a
//! byte. Checked over the paper's five transport configurations × three
//! object sizes × three carriers × four seeds (one per day period).

use mpw_capture::CaptureHub;
use mpw_experiments::testbed::HARVEST_MARK;
use mpw_experiments::{
    run_measurement_captured, sizes, FlowConfig, MeasurementRun, Scenario, Testbed, WifiKind,
    CLIENT_ADDRS, SERVER_ADDRS,
};
use mpw_link::{Carrier, DayPeriod, LinkConfig, PathSpec, Technology};
use mpw_mptcp::{Coupling, SynMode};
use mpw_sim::{Event, Frame, SimDuration, SimTime};
use mpw_tcp::wire::{PingPacket, PROTO_PING};
use mpw_tcp::{encode_ping, IpHeader};

const SEEDS: [u64; 4] = [1, 2, 2013, 7919];

fn flows() -> [FlowConfig; 5] {
    [
        FlowConfig::SpWifi,
        FlowConfig::SpCellular,
        FlowConfig::mp2(Coupling::Coupled),
        FlowConfig::Mp {
            paths: 2,
            coupling: Coupling::Coupled,
            syn_mode: SynMode::Simultaneous,
        },
        FlowConfig::mp4(Coupling::Olia),
    ]
}

/// What one cell of the grid found.
#[derive(Default)]
struct Tally {
    runs: u32,
    quiescent_stops: u32,
}

/// Stop by the rule, harvest, run the same world on to the next 5 s mark
/// and harvest again: both harvests and both captures must be the same
/// bytes. Returns whether the stop was a quiescent one (a flow that never
/// quiesces stops on the mark itself, as it always did, and has nothing
/// to compare).
fn check(scenario: &Scenario, seed: u64) -> bool {
    let hub = CaptureHub::shared(0);
    let mut run = MeasurementRun::start(scenario, seed, Some(hub.clone()));
    run.run();
    let stop = run.tb.world.now();
    let quiescent = run.tb.is_quiescent();
    let at_stop = serde_json::to_string(&run.harvest()).expect("measurement serializes");
    let who = format!("{scenario:?} seed {seed} stopped at {stop:?}");

    // The captured entry point is this very run: same measurement, and its
    // file is the capture as it stood at the stop.
    let (captured, pcap_at_stop) = run_measurement_captured(scenario, seed);
    assert_eq!(
        at_stop,
        serde_json::to_string(&captured).expect("measurement serializes"),
        "{who}: run_measurement_captured measured something else"
    );
    if !quiescent {
        return false;
    }

    let mark = HARVEST_MARK.as_nanos();
    let next_mark = SimTime::from_nanos((stop.as_nanos() / mark + 1) * mark);
    run.tb.world.run_until(next_mark);
    assert_eq!(
        run.tb.world.now(),
        next_mark,
        "{who}: background keeps the clock moving"
    );
    let at_mark = serde_json::to_string(&run.harvest()).expect("measurement serializes");
    assert_eq!(
        at_stop, at_mark,
        "{who}: the measurement moved after the stop"
    );
    let pcap_at_mark = hub.borrow_mut().finish();
    assert!(
        pcap_at_stop == pcap_at_mark,
        "{who}: the capture grew from {} to {} bytes after the stop",
        pcap_at_stop.len(),
        pcap_at_mark.len()
    );
    true
}

#[test]
fn a_quiescent_stop_reads_what_the_next_five_second_mark_reads() {
    let mut tallies: Vec<(String, Tally)> = Vec::new();
    for flow in flows() {
        let mut tally = Tally::default();
        for size in [sizes::S8K, sizes::S64K, sizes::S512K] {
            for carrier in Carrier::ALL {
                for (seed, period) in SEEDS.into_iter().zip(DayPeriod::ALL) {
                    let scenario = Scenario {
                        wifi: WifiKind::Home,
                        carrier,
                        flow,
                        size,
                        period,
                        warmup: true,
                    };
                    tally.runs += 1;
                    tally.quiescent_stops += u32::from(check(&scenario, seed));
                }
            }
        }
        tallies.push((flow.label(Carrier::Att), tally));
    }
    for (label, t) in &tallies {
        eprintln!(
            "{label}: {} of {} stops quiescent",
            t.quiescent_stops, t.runs
        );
    }
    // The comparison is vacuous for a run that stopped on a mark, so pin
    // that the rule is what ends a run (a flow whose close is still being
    // retransmitted at the mark is the exception).
    for (label, t) in &tallies {
        assert!(
            t.quiescent_stops * 10 >= t.runs * 9,
            "{label}: only {} of {} stops were quiescent",
            t.quiescent_stops,
            t.runs
        );
    }
}

/// Each term of the predicate holds the world busy on its own. A stray ping
/// crosses an otherwise silent testbed: while it or its echo is in a
/// queue, in service or on the wire the world is not quiescent, though
/// neither host has a timer armed the whole time.
#[test]
fn a_frame_anywhere_between_the_hosts_keeps_the_world_busy() {
    // 20 Mbit/s, 10 ms each way, no loss, no background: a ping is in
    // service for microseconds and on the wire for 10 ms.
    let wired = || PathSpec {
        name: "wired".into(),
        technology: Technology::Wired,
        down: LinkConfig::wired(20_000_000, SimDuration::from_millis(10), 1 << 20),
        up: LinkConfig::wired(20_000_000, SimDuration::from_millis(10), 1 << 20),
        bg_down: vec![],
        bg_up: vec![],
    };
    let transport = FlowConfig::mp2(Coupling::Coupled).transport();
    let mut tb = Testbed::build(1, [wired(), wired()], transport, None);
    let ip = IpHeader {
        src: CLIENT_ADDRS[0],
        dst: SERVER_ADDRS[0],
        protocol: PROTO_PING,
        ttl: 64,
    };
    let ping = encode_ping(
        &ip,
        &PingPacket {
            token: 7,
            reply: false,
        },
    );
    let service = mpw_sim::serialization_delay(ping.len(), 20_000_000);
    let sent = SimTime::from_millis(1);
    let at_server = sent + service + SimDuration::from_millis(10);
    let at_client = at_server + service + SimDuration::from_millis(10);
    let frame = Frame::new(ping);
    tb.world
        .schedule(sent, tb.paths[0].uplink, Event::Frame { port: 0, frame });

    let us = SimDuration::from_micros(1);
    for (at, busy, what) in [
        (SimTime::from_micros(500), false, "before the ping"),
        (sent + us, true, "ping in service on the uplink"),
        (sent + service + us, true, "ping on the wire"),
        (at_server + us, true, "echo in service on the downlink"),
        (at_server + service + us, true, "echo on the wire"),
        (at_client, false, "echo arrived"),
    ] {
        tb.world.run_until(at);
        assert_eq!(!tb.is_quiescent(), busy, "{what} (t = {at:?})");
    }
}
