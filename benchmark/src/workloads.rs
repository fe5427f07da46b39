//! The four workloads: input generation from the workload seed, one
//! repetition of fixed work, and the checks that define a failed flow.
//!
//! The simulator receives only the generated `Scenario` / `FleetSpec`
//! values; every scenario and fleet seed is derived from `--seed` here.

use mpw_capture::{analyze, read_pcapng};
use mpw_experiments::{
    crosscheck, run_measurement, run_measurement_captured, run_measurement_traced, FlowConfig,
    Measurement, Scenario, Tolerances, WifiKind, SERVER_PORT,
};
use mpw_fleet::{run_fleet, Arrival, FleetRun, FleetSpec, FleetWorkload};
use mpw_http::ResponseHead;
use mpw_link::{Carrier, DayPeriod};
use mpw_mptcp::{Coupling, SynMode};
use mpw_sim::trace::TraceLevel;

use crate::counts::Counts;
use crate::digest::Digest;
use crate::pace::Pace;
use crate::spans::Recorder;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    CampaignSmall,
    BulkDownload,
    FleetContention,
    CaptureAnalyze,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CampaignSmall,
        Workload::BulkDownload,
        Workload::FleetContention,
        Workload::CaptureAnalyze,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CampaignSmall => "campaign_small",
            Workload::BulkDownload => "bulk_download",
            Workload::FleetContention => "fleet_contention",
            Workload::CaptureAnalyze => "capture_analyze",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark, in one line.
    pub fn why(self) -> &'static str {
        match self {
            Workload::CampaignSmall => {
                "6,000 sequential 8 KB/64 KB measurements: per-measurement fixed cost (world build, \
                 handshake, slow start, background sources, harvest) does the work"
            }
            Workload::BulkDownload => {
                "sixteen 64 MB downloads: ~48 k data segments per flow make the per-segment path do \
                 nearly all the work; the SP-WiFi members bypass MPTCP"
            }
            Workload::FleetContention => {
                "four worlds of 500 clients: the per-segment code under a deep event heap, switch \
                 fan-out, server demux over hundreds of connections and report folding"
            }
            Workload::CaptureAnalyze => {
                "sixteen captured 8 MB downloads read back, analyzed and cross-checked: the codec \
                 and pcapng layers used the other way round"
            }
        }
    }

    /// The end-to-end metric a change is judged on first for this workload.
    pub fn primary_metric(self) -> &'static str {
        match self {
            Workload::CampaignSmall | Workload::FleetContention => "flows_per_s",
            Workload::BulkDownload | Workload::CaptureAnalyze => "payload_mb_per_s",
        }
    }
}

/// One single-flow measurement to run.
#[derive(Clone, Debug)]
pub struct Flow {
    pub scenario: Scenario,
    pub seed: u64,
}

/// Generated inputs of one workload.
pub enum Inputs {
    Flows(Vec<Flow>),
    Fleets(Vec<FleetSpec>),
}

/// SplitMix64 step: the benchmark's own seed derivation, so the inputs do
/// not depend on any RNG inside the code under test.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

const MB: u64 = 1 << 20;

/// The paper's small-flow campaign shape: 2 sizes × 3 carriers × 5 flow
/// configurations × 4 day periods × `replications`.
pub fn campaign_flows(seed: u64, replications: u32) -> Vec<Flow> {
    let configs = [
        FlowConfig::SpWifi,
        FlowConfig::SpCellular,
        FlowConfig::mp2(Coupling::Coupled),
        FlowConfig::Mp {
            paths: 2,
            coupling: Coupling::Coupled,
            syn_mode: SynMode::Simultaneous,
        },
        FlowConfig::mp4(Coupling::Olia),
    ];
    let mut state = seed ^ 0x0063_616d_7061_6967; // "campaig"
    let mut flows = Vec::new();
    for size in [8 << 10, 64 << 10] {
        for carrier in Carrier::ALL {
            for flow in configs {
                for period in DayPeriod::ALL {
                    for _ in 0..replications {
                        flows.push(Flow {
                            scenario: Scenario {
                                wifi: WifiKind::Home,
                                carrier,
                                flow,
                                size,
                                period,
                                warmup: true,
                            },
                            seed: splitmix(&mut state),
                        });
                    }
                }
            }
        }
    }
    flows
}

/// Sixteen bulk flows, four of each configuration: three multipath members
/// on the three carriers (Sprint brings deep reordering and loss recovery)
/// and SP-WiFi, which has no MPTCP layer at all — the built-in bypass for
/// MPTCP-layer changes. Sixteen flows rather than four larger ones, because
/// how long a download takes to simulate depends on its seed (a slow path
/// means more background-traffic events per byte): four flows spread 8 %
/// over ten workload seeds, sixteen spread 1 %. `four_path` makes the
/// Verizon members MP-4; `capture_analyze` keeps them at two paths, because
/// `crosscheck` pairs wire and stack subflows by client interface and so
/// cannot tell a 4-path run's subflows apart.
pub fn bulk_flows(seed: u64, size: u64, four_path: bool) -> Vec<Flow> {
    let verizon = if four_path {
        FlowConfig::mp4(Coupling::Olia)
    } else {
        FlowConfig::mp2(Coupling::Olia)
    };
    let members = [
        (FlowConfig::mp2(Coupling::Coupled), Carrier::Att),
        (verizon, Carrier::Verizon),
        (FlowConfig::mp2(Coupling::Olia), Carrier::Sprint),
        (FlowConfig::SpWifi, Carrier::Att),
    ];
    // Separate seed streams, so the two workloads do not replay each other.
    let mut state = seed ^ if four_path { 0x6275_6c6b } else { 0x6361_7074 }; // "bulk" / "capt"
    members
        .into_iter()
        .cycle()
        .take(16)
        .map(|(flow, carrier)| Flow {
            scenario: Scenario {
                wifi: WifiKind::Home,
                carrier,
                flow,
                size,
                period: DayPeriod::Night,
                warmup: true,
            },
            seed: splitmix(&mut state),
        })
        .collect()
}

const FLEET_DOWNLOAD: u64 = 128 << 10;
/// `fleet_contention` is four worlds of 500 clients, not one of 2,000: a
/// 2,000-client world holds 140 MB and is one 1.2 s call the stopwatch
/// cannot cut, and on the shared host it was built on ten runs of it spread
/// 25 % where four 500-client worlds (43 MB, 0.2 s each) spread 3 %
/// (README.md). The deep world is still measured, by `fleet.ns_per_event_n2000`.
const FLEET_WORLDS: u32 = 4;
const FLEET_CLIENTS: u32 = 500;

/// Mixed 5/3/2 population behind Home WiFi (Evening) and AT&T, Poisson
/// arrivals, one 128 KB download per client. The horizon is far beyond the
/// last completion at seed state; the run stops when every flow is done.
pub fn fleet_spec(seed: u64, n_clients: u32) -> FleetSpec {
    let mut spec = FleetSpec::smoke(n_clients, seed);
    spec.arrival = Arrival::Poisson { mean_gap_ms: 15 };
    spec.workload = FleetWorkload::Download {
        size: FLEET_DOWNLOAD,
    };
    spec.horizon_ms = 600_000;
    spec
}

/// Generate a workload's inputs. `shrink` divides the work per repetition
/// (1 = the benchmark's size, 20 = the `--smoke` size).
pub fn generate(w: Workload, seed: u64, shrink: u32) -> Inputs {
    let shrink64 = u64::from(shrink);
    match w {
        Workload::CampaignSmall => Inputs::Flows(campaign_flows(seed, (50 / shrink).max(1))),
        Workload::BulkDownload => Inputs::Flows(bulk_flows(seed, 64 * MB / shrink64, true)),
        Workload::FleetContention => {
            let mut state = seed ^ 0x0066_6c65_6574; // "fleet"
            Inputs::Fleets(
                (0..FLEET_WORLDS)
                    .map(|_| fleet_spec(splitmix(&mut state), FLEET_CLIENTS / shrink))
                    .collect(),
            )
        }
        Workload::CaptureAnalyze => Inputs::Flows(bulk_flows(seed, 8 * MB / shrink64, false)),
    }
}

/// What one repetition produced.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RepOutcome {
    /// Flows attempted.
    pub flows: u64,
    /// Flows that failed a check.
    pub failed: u64,
    /// Application payload bytes delivered by the flows that passed.
    pub payload_bytes: u64,
    /// Result digest of the repetition.
    pub digest: u64,
    /// Description of the first failed check, for the report.
    pub first_failure: Option<String>,
    /// Measurements that timed out in the model and were drawn again.
    pub redrawn: u64,
}

impl RepOutcome {
    fn flow(&mut self, payload: u64, verdict: Result<(), String>) {
        self.flows += 1;
        match verdict {
            Ok(()) => self.payload_bytes += payload,
            Err(why) => {
                self.failed += 1;
                self.first_failure.get_or_insert(why);
            }
        }
    }
}

fn digest_measurement(d: &mut Digest, m: &Measurement) {
    d.u64(m.bytes);
    d.u64(
        m.download_time_s
            .map_or(u64::MAX, |s| (s * 1e9).round() as u64),
    );
    d.u64(u64::from(m.fell_back));
    for s in &m.subflows {
        d.u64(s.data_segs_sent);
        d.u64(s.rexmit_segs);
        d.u64(s.delivered_bytes);
    }
}

/// The checks every single-flow measurement must pass.
fn check_measurement(flow: &Flow, m: &Measurement) -> Result<(), String> {
    let label = || {
        format!(
            "{} {} {}B seed {}",
            flow.scenario.flow.label(flow.scenario.carrier),
            flow.scenario.carrier.name(),
            flow.scenario.size,
            flow.seed
        )
    };
    if m.download_time_s.is_none() {
        return Err(format!("{}: did not complete", label()));
    }
    if m.bytes != flow.scenario.size {
        return Err(format!("{}: delivered {} bytes", label(), m.bytes));
    }
    if flow.scenario.flow.is_mptcp() && m.fell_back {
        return Err(format!("{}: fell back from MPTCP", label()));
    }
    Ok(())
}

/// One `run_measurement` call. The traced repetition goes through
/// `run_measurement_traced(.., Off)`, which runs the same events and also
/// hands back the world to count in.
fn measure(flow: &Flow, seed: u64, rec: &mut Recorder, counts: Option<&mut Counts>) -> Measurement {
    match counts {
        None => run_measurement(&flow.scenario, seed),
        Some(c) => {
            let (m, tb) = rec.time("experiments", "run_measurement", |_| {
                run_measurement_traced(&flow.scenario, seed, TraceLevel::Off)
            });
            rec.time("harness", "harvest", |_| c.absorb_testbed(&tb, &m));
            m
        }
    }
}

/// `campaign_small` and `bulk_download`: sequential `run_measurement` calls.
///
/// The model lets a small download time out: when a loss burst on the WiFi
/// up-link takes the client's first four packets, the retransmission timer
/// backs off past the 31 s horizon. That is a result, not a fault, and one
/// campaign in 24 holds such a flow (README.md, "Findings"); but a workload
/// must be one on which no operation fails whatever its seed. So, as a
/// measurement campaign does, a measurement that times out is drawn again
/// once, with its next seed. Both draws are timed and both are in the
/// digest; the flow fails if the second times out too.
fn rep_flows(
    flows: &[Flow],
    rec: &mut Recorder,
    pace: &mut Pace,
    mut counts: Option<&mut Counts>,
) -> RepOutcome {
    // Stopwatch blocks of 50–150 ms: 250 small measurements, or one bulk flow.
    let block = if flows.len() > 100 { 250 } else { 1 };
    let mut out = RepOutcome::default();
    let mut d = Digest::new();
    for (i, flow) in flows.iter().enumerate() {
        if i > 0 && i % block == 0 {
            rec.time("harness", "calibrate", |_| pace.boundary());
        }
        let mut m = measure(flow, flow.seed, rec, counts.as_deref_mut());
        if m.download_time_s.is_none() {
            digest_measurement(&mut d, &m);
            out.redrawn += 1;
            let mut state = flow.seed;
            m = measure(flow, splitmix(&mut state), rec, counts.as_deref_mut());
        }
        digest_measurement(&mut d, &m);
        out.flow(m.bytes, check_measurement(flow, &m));
    }
    out.digest = d.value();
    out
}

/// `capture_analyze`: capture, read back, analyze offline, cross-check. The
/// traced repetition also re-runs each flow without taps, to time the taps
/// and check that capture is invisible to the measurement, and once more to
/// count in its world.
fn rep_capture(
    flows: &[Flow],
    rec: &mut Recorder,
    pace: &mut Pace,
    mut counts: Option<&mut Counts>,
) -> RepOutcome {
    let mut out = RepOutcome::default();
    let mut d = Digest::new();
    for (i, flow) in flows.iter().enumerate() {
        if i > 0 {
            rec.time("harness", "calibrate", |_| pace.boundary());
        }
        let (m, pcap) = rec.time("experiments", "run_measurement_captured", |_| {
            run_measurement_captured(&flow.scenario, flow.seed)
        });
        digest_measurement(&mut d, &m);
        d.u64(pcap.len() as u64);
        let mut verdict = check_measurement(flow, &m);
        match rec.time("capture", "read_pcapng", |_| read_pcapng(&pcap)) {
            Err(e) => verdict = verdict.and(Err(format!("pcapng read-back failed: {e}"))),
            Ok(file) => {
                let wa = rec.time("capture", "analyze", |_| analyze(&file, SERVER_PORT));
                let report = rec.time("experiments", "crosscheck", |_| {
                    crosscheck(&m, &wa, &Tolerances::default())
                });
                d.u64(file.packets.len() as u64);
                d.u64(wa.unparsed);
                if !report.pass() {
                    verdict = verdict.and(Err(format!(
                        "cross-check failed (seed {}): {}",
                        flow.seed,
                        report.failures.join("; ")
                    )));
                }
                if let Some(c) = counts.as_deref_mut() {
                    c.pcap_bytes += pcap.len() as u64;
                    c.captured_frames += file.packets.len() as u64;
                }
            }
        }
        if let Some(c) = counts.as_deref_mut() {
            // The flow without taps, configured as the captured run is: the
            // other side of `capture.tap_ns_per_frame`.
            let plain = rec.time("experiments", "run_measurement", |_| {
                run_measurement(&flow.scenario, flow.seed)
            });
            // Once more through the entry point that hands back the world.
            rec.time("harness", "harvest", |_| {
                let (counted, tb) =
                    run_measurement_traced(&flow.scenario, flow.seed, TraceLevel::Off);
                c.absorb_testbed(&tb, &counted)
            });
            let (mut a, mut b) = (Digest::new(), Digest::new());
            digest_measurement(&mut a, &m);
            digest_measurement(&mut b, &plain);
            if a != b {
                verdict = verdict.and(Err(format!(
                    "captured measurement differs from the plain one (seed {})",
                    flow.seed
                )));
            }
        }
        out.flow(m.bytes, verdict);
    }
    out.digest = d.value();
    out
}

/// `fleet_contention`: every client of every world one download.
fn rep_fleets(
    specs: &[FleetSpec],
    rec: &mut Recorder,
    pace: &mut Pace,
    mut counts: Option<&mut Counts>,
) -> RepOutcome {
    let mut out = RepOutcome::default();
    let mut d = Digest::new();
    for (i, spec) in specs.iter().enumerate() {
        if i > 0 {
            rec.time("harness", "calibrate", |_| pace.boundary());
        }
        rep_fleet(spec, rec, counts.as_deref_mut(), &mut out, &mut d);
    }
    out.digest = d.value();
    out
}

fn rep_fleet(
    spec: &FleetSpec,
    rec: &mut Recorder,
    counts: Option<&mut Counts>,
    out: &mut RepOutcome,
    d: &mut Digest,
) {
    let FleetWorkload::Download { size } = spec.workload else {
        unreachable!("fleet_spec builds download fleets");
    };
    let run: FleetRun = rec.time("fleet", "run_fleet", |_| run_fleet(spec));
    let json = rec.time("metrics", "report_json", |_| {
        mpw_metrics::to_json(&run.report)
    });
    // A completed flow delivers the object behind one response head.
    let delivered = size
        + ResponseHead {
            status: 200,
            content_length: size,
            request_id: None,
        }
        .encode()
        .len() as u64;
    for r in &run.records {
        d.u64(r.bytes);
        d.u64(r.fct_us);
        d.u64(r.wifi_bytes);
        d.u64(r.cell_bytes);
        let verdict = if !r.completed {
            Err(format!("client {} did not complete", r.client))
        } else if r.bytes != delivered {
            Err(format!("client {} delivered {} bytes", r.client, r.bytes))
        } else {
            Ok(())
        };
        out.flow(size, verdict);
    }
    // Clients whose arrival fell beyond the horizon never opened a flow.
    for missing in run.records.len() as u64..u64::from(spec.n_clients) {
        out.flow(0, Err(format!("client {missing} never started")));
    }
    d.u64(run.world.events_processed());
    d.u64(json.len() as u64);
    if let Some(c) = counts {
        rec.time("harness", "harvest", |_| {
            c.absorb_fleet(&run, spec.n_clients)
        });
    }
}

/// Run one repetition between `pace.start()` and `pace.stop()`; flow
/// boundaries are where the stopwatch may cut a block. `counts` is `Some`
/// only in the traced run.
pub fn run_rep(
    w: Workload,
    inputs: &Inputs,
    rec: &mut Recorder,
    pace: &mut Pace,
    counts: Option<&mut Counts>,
) -> RepOutcome {
    match (w, inputs) {
        (Workload::CaptureAnalyze, Inputs::Flows(flows)) => rep_capture(flows, rec, pace, counts),
        (_, Inputs::Flows(flows)) => rep_flows(flows, rec, pace, counts),
        (_, Inputs::Fleets(specs)) => rep_fleets(specs, rec, pace, counts),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        let seeds = |w, seed| match generate(w, seed, 20) {
            Inputs::Flows(f) => f.iter().map(|f| f.seed).collect::<Vec<_>>(),
            Inputs::Fleets(s) => s.iter().map(|s| s.seed).collect(),
        };
        for w in Workload::ALL {
            assert_eq!(seeds(w, 2013), seeds(w, 2013));
            assert_ne!(seeds(w, 2013), seeds(w, 7919));
        }
        // bulk_download and capture_analyze draw from different streams.
        assert_ne!(
            seeds(Workload::BulkDownload, 2013),
            seeds(Workload::CaptureAnalyze, 2013)
        );
    }

    #[test]
    fn campaign_has_the_issue_shape() {
        let flows = campaign_flows(2013, 50);
        assert_eq!(flows.len(), 6000);
        assert_eq!(
            flows.iter().filter(|f| f.scenario.size == 8 << 10).count(),
            3000
        );
        assert_eq!(
            flows.iter().filter(|f| f.scenario.flow.is_mptcp()).count(),
            3600
        );
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn a_measurement_that_times_out_is_drawn_again_once() {
        // README.md, "Findings": this seed loses the client's first four
        // WiFi packets, whatever the carrier, size or period.
        let mut flows = campaign_flows(2013, 1);
        flows.truncate(2);
        let plain = rep_flows(&flows, &mut Recorder::new(false), &mut Pace::new(), None);
        assert_eq!((plain.flows, plain.failed, plain.redrawn), (2, 0, 0));
        flows[1].seed = 18274788017003109825;
        let mut counts = Counts::default();
        let out = rep_flows(
            &flows,
            &mut Recorder::new(true),
            &mut Pace::new(),
            Some(&mut counts),
        );
        assert_eq!((out.flows, out.failed, out.redrawn), (2, 0, 1));
        assert_eq!(out.payload_bytes, plain.payload_bytes);
        // Both draws were run and counted, and the digest holds both.
        assert_eq!(counts.flows, 3);
        assert_ne!(out.digest, plain.digest);
    }

    #[test]
    fn repetitions_of_a_smoke_workload_share_one_digest() {
        let inputs = generate(Workload::BulkDownload, 2013, 200);
        let mut rec = Recorder::new(false);
        let mut pace = Pace::new();
        let a = run_rep(Workload::BulkDownload, &inputs, &mut rec, &mut pace, None);
        let b = run_rep(Workload::BulkDownload, &inputs, &mut rec, &mut pace, None);
        assert_eq!(a, b);
        assert_eq!((a.flows, a.failed), (16, 0));
        // The traced path runs the same events, so it hashes the same.
        let mut traced = Recorder::new(true);
        let mut counts = Counts::default();
        let c = run_rep(
            Workload::BulkDownload,
            &inputs,
            &mut traced,
            &mut pace,
            Some(&mut counts),
        );
        assert_eq!(c.digest, a.digest);
        assert_eq!(counts.flows, 16);
        assert!(counts.events > 0 && counts.data_segs > 0);
    }
}
