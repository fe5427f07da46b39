//! Running one measurement and harvesting its metrics.
//!
//! Memory stays flat in download size: every per-packet RTT and
//! out-of-order delay lands in a bounded-memory streaming summary
//! ([`DistSummary`]), the one record of each distribution.

use mpw_fleet::{sender_subflows, ClientFlow};
use mpw_link::{LinkConfig, PathSpec, Technology};
use mpw_metrics::DistSummary;
use mpw_mptcp::{Host, Transport, TransportSpec};
use mpw_sim::trace::TraceLevel;
use mpw_sim::{SimDuration, SimTime};
use mpw_tcp::Endpoint;
use serde::{Deserialize, Serialize};

use crate::config::{FlowConfig, Scenario};
use crate::testbed::{harvest, Testbed};

/// Per-subflow (or per-path) measurement outputs.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SubflowMeasurement {
    /// The client's endpoint on this subflow: it names the subflow on both
    /// hosts and on the wire.
    pub client: Endpoint,
    /// Which client interface carried it (0 = WiFi, 1 = cellular).
    pub if_index: u8,
    /// Access technology of that interface.
    pub technology: Technology,
    /// Payload bytes this subflow delivered to the receiver.
    pub delivered_bytes: u64,
    /// Data segments the server sent on this subflow.
    pub data_segs_sent: u64,
    /// Retransmitted segments (loss-rate numerator, §3.3).
    pub rexmit_segs: u64,
    /// Streaming summary of per-packet RTTs in milliseconds (server side,
    /// tcptrace rule).
    pub rtt: DistSummary,
    /// Whether the subflow ever established.
    pub established: bool,
}

impl SubflowMeasurement {
    /// The paper's per-subflow loss rate in percent.
    pub fn loss_pct(&self) -> f64 {
        if self.data_segs_sent == 0 {
            0.0
        } else {
            100.0 * self.rexmit_segs as f64 / self.data_segs_sent as f64
        }
    }

    /// Mean RTT in milliseconds.
    pub fn mean_rtt_ms(&self) -> Option<f64> {
        if self.rtt.count() == 0 {
            None
        } else {
            Some(self.rtt.mean())
        }
    }
}

/// Everything one measurement yields.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Measurement {
    /// The scenario measured.
    pub scenario: Scenario,
    /// Seed used.
    pub seed: u64,
    /// Download time in seconds (None if it never completed in the horizon).
    pub download_time_s: Option<f64>,
    /// Bytes delivered to the application.
    pub bytes: u64,
    /// Fraction of delivered traffic carried by the cellular path.
    pub cellular_share: f64,
    /// Per-subflow details, in the server's subflow order (single-path runs
    /// have one entry).
    pub subflows: Vec<SubflowMeasurement>,
    /// Streaming summary of connection-level out-of-order delays in
    /// milliseconds. Always populated for MPTCP runs.
    pub ofo: DistSummary,
    /// Whether MPTCP fell back to plain TCP.
    pub fell_back: bool,
}

/// Downstream throughput budget (bits/s) a foreground flow can count on
/// over one path, from the preset's own rate process and background load.
///
/// With n on/off background sources at the bottleneck the fair share is
/// raw/(n+1); when the sources are mostly idle the residual raw − Σload is
/// the tighter bound, so take the smaller of the two. The 2% floor guards
/// against degenerate presets.
fn path_budget_bps(path: &PathSpec) -> f64 {
    let raw = path.down.rate.mean_rate();
    let bg: f64 = path.bg_down.iter().map(|s| s.mean_load_bps()).sum();
    let fair = raw / (1.0 + path.bg_down.len() as f64);
    fair.min(raw - bg).max(raw * 0.02)
}

/// Worst-case run horizon, derived from the scenario's actual presets
/// instead of a one-size-fits-all constant. A quarter of the contended
/// path budget absorbs slow start, protocol overhead and unlucky
/// rate-process excursions; Sprint EVDO lands at ~330 kbit/s effective,
/// which is the worst case the old hard-coded 320 kbit/s assumed for
/// *every* scenario. Multipath flows get at least the slower path's
/// budget. Completed downloads stop early, so a generous horizon only
/// costs wall-clock when a flow genuinely crawls.
fn horizon_for(scenario: &Scenario, wifi: &PathSpec, cellular: &PathSpec) -> SimTime {
    let budget = match scenario.flow {
        FlowConfig::SpWifi => path_budget_bps(wifi),
        FlowConfig::SpCellular => path_budget_bps(cellular),
        FlowConfig::Mp { .. } => path_budget_bps(wifi).min(path_budget_bps(cellular)),
    };
    let eff = (budget * 0.25).max(64_000.0);
    let secs = 30.0 + scenario.size as f64 * 8.0 / eff;
    SimTime::from_secs((secs as u64).min(7_200))
}

/// Run one measurement to completion (or horizon) and harvest metrics.
pub fn run_measurement(scenario: &Scenario, seed: u64) -> Measurement {
    run_measurement_inner(scenario, seed, None).0
}

/// As [`run_measurement`], but with wire capture taps attached at the
/// paper's four tcpdump vantages per path. Returns the measurement plus the
/// serialized pcapng capture. The measurement is byte-identical to what
/// [`run_measurement`] yields for the same scenario and seed: taps observe
/// without drawing randomness or scheduling events.
pub fn run_measurement_captured(scenario: &Scenario, seed: u64) -> (Measurement, Vec<u8>) {
    let hub = capture_hub(scenario.size);
    let (m, _tb) = run_measurement_inner(scenario, seed, Some(hub.clone()));
    let pcap = hub.borrow_mut().finish();
    (m, pcap)
}

/// A capture hub sized for a download of `size` bytes, so the file is
/// written in place and never moved. Four vantages see every frame twice
/// over and the ACKs besides — 2.1–2.4 file bytes per payload byte on the
/// paper's scenarios; three, plus 1 MiB for small objects' fixed share, has
/// room to spare (pages never written are never resident).
fn capture_hub(size: u64) -> mpw_capture::SharedHub {
    mpw_capture::CaptureHub::shared(3 * size as usize + (1 << 20))
}

/// Result of a [`run_lossfree_download_windowed`] probe.
#[derive(Clone, Copy, Debug)]
pub struct LossfreeProbe {
    /// Bytes the application received (must equal the requested size).
    pub bytes: u64,
    /// Download completion time in seconds (None if the horizon expired).
    pub download_time_s: Option<f64>,
    /// Data segments the server sent inside the observation window.
    pub window_segments: u64,
    /// Retransmitted segments over the whole run — must be 0, or the run
    /// was not actually loss-free and the probe is invalid.
    pub rexmit_segs: u64,
    /// Size of the serialized pcapng capture (0 when capture was off).
    pub pcap_bytes: usize,
}

/// A loss-free wired access path: fixed 20 Mbit/s, 10 ms propagation, a
/// queue deeper than the 512 KiB default send buffer so drop-tail can never
/// fire, no jitter, no channel loss, no background sources. Two of these
/// form the steady-state testbed of the allocation-regression gate.
fn lossfree_path() -> PathSpec {
    PathSpec {
        name: "Loss-free wired".into(),
        technology: Technology::Wired,
        down: LinkConfig::wired(20_000_000, SimDuration::from_millis(10), 1 << 20),
        up: LinkConfig::wired(20_000_000, SimDuration::from_millis(10), 1 << 20),
        bg_down: vec![],
        bg_up: vec![],
    }
}

/// Run a two-path MPTCP download over loss-free wired paths, invoking
/// `mark(0)` when simulated time first reaches `window.0` and `mark(1)` at
/// `window.1`. By `window.0` the handshake, MP_JOIN and slow-start ramp are
/// over, so everything between the two marks is pure steady-state data
/// transfer: the allocation gate snapshots a counting allocator in the
/// marks and requires the delta to be zero. Both marks fire at exact
/// simulated times (the run loop slices `run_until` at the boundaries,
/// which preserves event order), so the window contents are deterministic.
///
/// Streaming summaries keep the measurement itself off the heap; segment
/// counters are sampled *outside* the marks so the harvesting does not
/// pollute the window.
pub fn run_lossfree_download_windowed(
    size: u64,
    seed: u64,
    window: (SimTime, SimTime),
    capture: bool,
    mark: &mut dyn FnMut(u8),
) -> LossfreeProbe {
    let hub = capture.then(|| capture_hub(size));
    // Pin per-subflow in-flight at 64 KiB (> the 50 KB path BDP, so the
    // links stay saturated). An uncapped congestion-avoidance window grows
    // for the whole transfer, and growing in-flight means freshly allocated
    // frame buffers; capping it lets every queue and pool reach its
    // steady-state footprint before the measurement window opens.
    let mut transport = FlowConfig::mp2(mpw_mptcp::Coupling::Coupled).transport();
    if let TransportSpec::Mptcp(cfg) = &mut transport {
        cfg.tcp.send_buffer = 64 * 1024;
        cfg.conn_send_buffer = 512 * 1024;
    }
    let mut tb = Testbed::build(seed, [lossfree_path(), lossfree_path()], transport, hub.clone());
    let slot = tb.download(size, SimTime::from_millis(100), false);
    let who = ("loss-free probe", seed);

    // Up to the window start (the flow is still running, so each call
    // stops on its horizon): counters sampled *before* the mark so the
    // sampling itself stays outside the measured window.
    tb.run_flow(slot, window.0, &who);
    let (segs_at_start, _) = server_segments(&tb);
    mark(0);
    tb.run_flow(slot, window.1, &who);
    mark(1);
    let (segs_at_end, _) = server_segments(&tb);

    // On to completion (bounded, in slices, as in measurement runs).
    let horizon = tb.world.now() + SimDuration::from_secs(600);
    let flow = tb.run_flow(slot, horizon, &who);
    let (_, rexmit_segs) = server_segments(&tb);
    let pcap_bytes = hub.map_or(0, |h| h.borrow_mut().finish().len());
    LossfreeProbe {
        bytes: flow.app_bytes,
        download_time_s: flow.download_time().map(|d| d.as_secs_f64()),
        window_segments: segs_at_end.saturating_sub(segs_at_start),
        rexmit_segs,
        pcap_bytes,
    }
}

/// Data segments sent and retransmitted by the server's only connection.
fn server_segments(tb: &Testbed) -> (u64, u64) {
    let host = tb.world.agent::<Host>(tb.server).expect("server");
    sender_subflows(host, 0)
        .iter()
        .fold((0, 0), |(sent, rexmit), s| {
            (sent + s.stats.data_segs_sent, rexmit + s.stats.rexmit_segs)
        })
}

/// As [`run_measurement`], but the entry point that also hands back the
/// testbed. The third argument is the benchmark's shim (see
/// [`TraceLevel`]) and selects nothing.
pub fn run_measurement_traced(
    scenario: &Scenario,
    seed: u64,
    _: TraceLevel,
) -> (Measurement, Testbed) {
    run_measurement_inner(scenario, seed, None)
}

fn run_measurement_inner(
    scenario: &Scenario,
    seed: u64,
    capture: Option<mpw_capture::SharedHub>,
) -> (Measurement, Testbed) {
    let mut run = MeasurementRun::start(scenario, seed, capture);
    run.run();
    let m = run.harvest();
    (m, run.tb)
}

/// One measurement in steps — build, run, harvest — for harnesses that
/// look at the world in between. [`run_measurement`] and its siblings are
/// `start`, `run`, `harvest` in a row.
pub struct MeasurementRun<'a> {
    /// The testbed, the download queued in it.
    pub tb: Testbed,
    scenario: &'a Scenario,
    seed: u64,
    slot: usize,
    horizon: SimTime,
    technologies: [Technology; 2],
}

impl<'a> MeasurementRun<'a> {
    /// Build the testbed of `scenario` and queue its download at 100 ms;
    /// `capture` taps every path onto the hub.
    pub fn start(
        scenario: &'a Scenario,
        seed: u64,
        capture: Option<mpw_capture::SharedHub>,
    ) -> Self {
        let wifi = scenario.wifi.spec(scenario.period);
        let cellular = scenario.carrier.preset();
        let horizon = horizon_for(scenario, &wifi, &cellular);
        let technologies = [wifi.technology, cellular.technology];
        let mut tb = Testbed::build(seed, [wifi, cellular], scenario.flow.transport(), capture);
        let slot = tb.download(scenario.size, SimTime::from_millis(100), scenario.warmup);
        MeasurementRun {
            tb,
            scenario,
            seed,
            slot,
            horizon,
            technologies,
        }
    }

    /// Run the download to its stop ([`Testbed::run_flow`]) or the
    /// scenario's horizon.
    pub fn run(&mut self) {
        self.tb
            .run_flow(self.slot, self.horizon, &(self.seed, self.scenario));
    }

    /// The measurement as the two hosts stand now. Reads them only.
    pub fn harvest(&self) -> Measurement {
        let flow = harvest(&self.tb.world, self.tb.client, self.slot);
        measurement(
            &self.tb,
            self.slot,
            &flow,
            self.technologies,
            self.scenario,
            self.seed,
        )
    }
}

/// The measurement view of a harvested flow.
fn measurement(
    tb: &Testbed,
    slot: usize,
    flow: &ClientFlow,
    technologies: [Technology; 2],
    scenario: &Scenario,
    seed: u64,
) -> Measurement {
    // Client side: connection-level out-of-order delays, and the receiving
    // end of every subflow.
    let host = tb.world.agent::<Host>(tb.client).expect("client");
    let client = host.transport(slot).expect("client connection");
    let ofo = match client {
        Transport::Mp(c) => c.ofo_summary(),
        Transport::Sp(_) => DistSummary::new(),
    };

    // Server side: the data sender's per-subflow loss and RTT samples. The
    // server's matching slot is its only accepted connection (slot 0). Each
    // server subflow reads its interface and delivered bytes off its twin on
    // the client, the subflow with the same client endpoint; a plain-TCP
    // server connection carried exactly the body.
    let host = tb.world.agent::<Host>(tb.server).expect("server");
    let plain = host.transport(0).is_some_and(|t| t.as_sp().is_some());
    let subflows: Vec<SubflowMeasurement> = sender_subflows(host, 0)
        .into_iter()
        .map(|s| {
            let (if_index, delivered) = client_twin(client, s.client).unwrap_or_else(|| {
                panic!(
                    "{seed} {scenario:?}: server subflow {:?} has no client twin",
                    s.client
                )
            });
            SubflowMeasurement {
                client: s.client,
                if_index,
                technology: technologies[usize::from(if_index)],
                delivered_bytes: if plain { flow.app_bytes } else { delivered },
                data_segs_sent: s.stats.data_segs_sent,
                rexmit_segs: s.stats.rexmit_segs,
                rtt: s.rtt,
                established: s.stats.established_at.is_some(),
            }
        })
        .collect();

    let [wifi, cellular] = flow.per_if;
    let total = wifi + cellular;
    let cellular_share = if total > 0 {
        cellular as f64 / total as f64
    } else {
        0.0
    };

    Measurement {
        scenario: scenario.clone(),
        seed,
        download_time_s: flow.download_time().map(|d| d.as_secs_f64()),
        bytes: flow.app_bytes,
        cellular_share,
        subflows,
        ofo,
        fell_back: flow.fell_back,
    }
}

/// The interface of the client subflow at `endpoint` and the payload bytes
/// it received.
fn client_twin(client: &Transport, endpoint: Endpoint) -> Option<(u8, u64)> {
    match client {
        Transport::Mp(conn) => {
            let i = conn.subflows.iter().position(|sf| sf.local == endpoint)?;
            Some((conn.subflows[i].if_index, conn.subflow_delivered(i)))
        }
        Transport::Sp(sock) => {
            (sock.local() == endpoint).then(|| (sock.if_index, sock.recv_offset()))
        }
    }
}
