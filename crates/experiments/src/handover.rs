//! Handover measurement runner: a scripted mobility scenario driven against
//! the testbed, with the path-lifecycle manager enabled and full handover
//! metric harvesting (DESIGN.md §5.11).
//!
//! The canonical run is the paper's §7 walk-out-of-range experiment: a bulk
//! download rides WiFi + cellular; mid-transfer the WiFi signal fades and
//! the link blacks out, traffic shifts to cellular, and when the WiFi link
//! returns the lifecycle manager re-establishes a replacement subflow with
//! capped exponential backoff. The timeline is [`HandoverSpec::scenario`]:
//! one `WifiFade` (which ends in the blackout), then `LinkUp`, `SetRate`,
//! `SetLoss` and `SetBackup` at the restore. The scenario engine mutates
//! both directions of the WiFi link at exact sim times and the runner
//! mirrors the cross-layer signals into the client connection:
//!
//! * `Op::SetBackup` (the fade's signal-strength trigger and the restore)
//!   becomes [`MptcpConnection::notify_signal`] — under make-before-break
//!   the connection demotes the fading path via MP_PRIO *before* it dies,
//! * `LinkOp::Down(true)` becomes [`MptcpConnection::notify_path_down`] —
//!   the OS "interface down" event that declares the path dead instantly
//!   (RTO-stall detection covers radios that die without notice).
//!
//! Everything is deterministic: the scenario timeline is pure data, link
//! mutators touch agent-local state only, and `run_until` slicing preserves
//! event order — the same (spec, seed) pair reproduces every metric byte
//! for byte.
//!
//! [`MptcpConnection::notify_signal`]: mpw_mptcp::MptcpConnection::notify_signal
//! [`MptcpConnection::notify_path_down`]: mpw_mptcp::MptcpConnection::notify_path_down

use mpw_fleet::{drive, Drive};
use mpw_link::Carrier;
use mpw_metrics::{
    bytes_in_transition, epoch_shares, stall_report, EpochShare, EpochSpan, HandoverReport,
    PathEvent, StallReport,
};
use mpw_mptcp::{HandoverPolicy, Host, Transport, TransportSpec};
use mpw_scenario::{Action, LinkOp, Op, Scenario as Mobility, ScenarioDriver};
use mpw_sim::{AgentId, Event, SimDuration, SimTime, World};

use crate::config::{FlowConfig, WifiKind};
use crate::testbed::{harvest, Testbed};

/// Delivery must pause at least this long to count as an application stall.
/// One minimum RTO: shorter pauses are ordinary retransmission noise.
const STALL_THRESHOLD: SimDuration = SimDuration::from_millis(500);

/// Progress-sampling cadence. Samples are taken at exact sim times via
/// `run_until` slicing, so the trace is deterministic.
const SAMPLE_TICK: SimDuration = SimDuration::from_millis(100);

/// Cellular must deliver this many new bytes after fade onset before the
/// traffic is considered shifted (a handful of segments, not one stray ACK).
const SHIFT_BYTES: u64 = 64 * 1024;

/// One handover experiment configuration.
#[derive(Clone, Debug, serde::Serialize)]
pub struct HandoverSpec {
    /// WiFi network (path 0).
    pub wifi: WifiKind,
    /// Cellular carrier (path 1).
    pub carrier: Carrier,
    /// Download size in bytes.
    pub size: u64,
    /// Day period (drives WiFi background load).
    pub period: mpw_link::DayPeriod,
    /// Handover policy of the client's lifecycle manager.
    pub policy: HandoverPolicy,
    /// Fade onset, ms after run start.
    pub fade_at_ms: u64,
    /// Fade duration (signal trigger → blackout), ms.
    pub fade_over_ms: u64,
    /// Blackout duration (link fully down), ms.
    pub outage_ms: u64,
    /// RNG seed.
    pub seed: u64,
}

impl HandoverSpec {
    /// The default walk-out-of-range handover at a given size and seed.
    pub fn wifi_fade(size: u64, seed: u64) -> HandoverSpec {
        HandoverSpec {
            wifi: WifiKind::Home,
            carrier: Carrier::Att,
            size,
            period: mpw_link::DayPeriod::Night,
            policy: HandoverPolicy::MakeBeforeBreak,
            fade_at_ms: 3_000,
            fade_over_ms: 1_500,
            outage_ms: 8_000,
            seed,
        }
    }

    /// Human label for tables ("mbb att fade@3s").
    pub fn label(&self) -> String {
        let policy = match self.policy {
            HandoverPolicy::MakeBeforeBreak => "mbb",
            HandoverPolicy::BreakBeforeMake => "bbm",
        };
        format!(
            "{policy} {} fade@{}s",
            self.carrier.name().to_lowercase(),
            self.fade_at_ms / 1000
        )
    }

    /// The mobility timeline this spec describes: signal fade → blackout →
    /// link restored, with labelled epochs at each phase boundary.
    pub fn scenario(&self) -> Mobility {
        let down_at = self.fade_at_ms + self.fade_over_ms;
        let up_at = down_at + self.outage_ms;
        Mobility::builder("wifi-fade-handover")
            .describe("walk out of WiFi range mid-download, return later")
            .labelled(
                self.fade_at_ms,
                0,
                "fade",
                Action::WifiFade {
                    from_bps: 22_000_000,
                    floor_bps: 256_000,
                    over_ms: self.fade_over_ms,
                    steps: 5,
                },
            )
            .labelled(up_at, 0, "restored", Action::LinkUp)
            .at(up_at, 0, Action::SetRate { bits_per_sec: 22_000_000 })
            .at(up_at, 0, Action::SetLoss { mean_loss: 0.016, bursty: true })
            .at(up_at, 0, Action::SetBackup { backup: false })
            .build()
            .expect("handover scenario is statically valid")
    }
}

/// Everything one handover run yields.
#[derive(Clone, Debug, serde::Serialize)]
pub struct HandoverMeasurement {
    /// The configuration measured.
    pub spec: HandoverSpec,
    /// Whether the download completed within the horizon.
    pub completed: bool,
    /// Download time in seconds (None if it never completed).
    pub download_time_s: Option<f64>,
    /// Bytes delivered to the application.
    pub bytes: u64,
    /// Whether MPTCP fell back to plain TCP (counts as a failed handover).
    pub fell_back: bool,
    /// Subflows the connection ever had (2 + replacements).
    pub subflows_total: usize,
    /// The connection's path-lifecycle log.
    pub events: Vec<PathEvent>,
    /// Outage pairing + recovery-latency distribution.
    pub report: HandoverReport,
    /// Application stalls (no delivery for ≥ 500 ms).
    pub stalls: StallReport,
    /// Bytes delivered while an outage was open.
    pub bytes_in_transition: u64,
    /// Traffic mix per scenario epoch (start / fade / restored).
    pub epoch_shares: Vec<EpochShare>,
    /// Fade onset → cellular has delivered 64 KB of new bytes, ms.
    pub shift_ms: Option<f64>,
}

impl HandoverMeasurement {
    /// A run aborts when the download never finishes (the horizon covers
    /// the outage plus the full transfer at cellular-only throughput, so a
    /// non-finish means the connection was lost, not slow).
    pub fn aborted(&self) -> bool {
        !self.completed
    }

    /// The epoch share entry with the given label.
    pub fn epoch(&self, label: &str) -> Option<&EpochShare> {
        self.epoch_shares.iter().find(|e| e.label == label)
    }
}

/// Mutate the client connection and schedule an immediate host flush so any
/// frames the mutation produced (MP_PRIO, replacement SYNs) leave now
/// rather than at the next unrelated wakeup. The flush is the open token's
/// event, which would also start a queued open: it is scheduled only once
/// the connection exists.
fn with_client_conn(
    world: &mut World,
    client: AgentId,
    now: SimTime,
    f: impl FnOnce(&mut mpw_mptcp::MptcpConnection),
) {
    let Some(host) = world.agent_mut::<Host>(client) else {
        return;
    };
    if let Some(Transport::Mp(conn)) = host.transport_mut(0) {
        f(conn);
        world.schedule(now, client, Event::Timer { token: Host::open_token() });
    }
}

/// Run one handover measurement to completion (or horizon).
pub fn run_handover(spec: &HandoverSpec) -> HandoverMeasurement {
    let scenario = spec.scenario();
    let wifi = spec.wifi.spec(spec.period);
    let cellular = spec.carrier.preset();
    let mut transport = FlowConfig::mp2(mpw_mptcp::Coupling::Coupled).transport();
    if let TransportSpec::Mptcp(cfg) = &mut transport {
        cfg.lifecycle.reopen = true;
        cfg.lifecycle.policy = spec.policy;
    }
    let mut tb = Testbed::build(spec.seed, [wifi, cellular], transport, None);
    tb.download(spec.size, true);
    let mut driver = ScenarioDriver::new(&scenario, &tb.paths).expect("spec scenarios compile");

    // Horizon: the outage plus the whole transfer at a conservative
    // cellular-only budget (Sprint EVDO class). Completion stops the run
    // early, so the slack only costs wall-clock when a run truly wedges.
    let horizon = SimTime::from_millis(spec.fade_at_ms + spec.fade_over_ms + spec.outage_ms)
        + SimDuration::from_secs(30 + (spec.size * 8 / 300_000).min(3_570));

    // Progress trace (time, delivered bytes) and per-path delivery deltas,
    // sampled at exact tick boundaries.
    let mut progress: Vec<(SimTime, u64)> = Vec::new();
    let mut deltas: Vec<(SimTime, u8, u64)> = Vec::new();
    let mut per_if_cum = [0u64; 2];
    let client = tb.client;
    let cfg = Drive {
        tick: SAMPLE_TICK,
        horizon,
        mobility: Some(&mut driver),
        who: spec,
    };
    drive(&mut tb.world, cfg, |world, now, ops| {
        // Scenario ops due at this instant, in timeline order: link
        // mutations were applied by the driver; MP_PRIO triggers and
        // link-down mirrors go to the client connection, followed by an
        // immediate flush.
        for op in ops {
            match op.op {
                Op::SetBackup { path, backup } => with_client_conn(world, client, now, |c| {
                    c.notify_signal(path as u8, backup, now);
                }),
                Op::Link { path, op: LinkOp::Down(true) } => {
                    with_client_conn(world, client, now, |c| c.notify_path_down(path as u8, now));
                }
                Op::Link { .. } => {}
            }
        }
        let flow = harvest(world, client);
        progress.push((now, flow.app_bytes));
        for (if_index, (&bytes, cum)) in flow.per_if.iter().zip(&mut per_if_cum).enumerate() {
            if bytes > *cum {
                deltas.push((now, if_index as u8, bytes - *cum));
                *cum = bytes;
            }
        }
        flow.finished_at.is_some()
    });

    harvest_handover(&tb, spec, &scenario, progress, deltas)
}

fn harvest_handover(
    tb: &Testbed,
    spec: &HandoverSpec,
    scenario: &Mobility,
    progress: Vec<(SimTime, u64)>,
    deltas: Vec<(SimTime, u8, u64)>,
) -> HandoverMeasurement {
    let end = tb.world.now();
    let flow = harvest(&tb.world, tb.client);
    let host = tb.world.agent::<Host>(tb.client).expect("client host");
    let events = match host.transport(0) {
        Some(Transport::Mp(conn)) => conn.lifecycle_events().to_vec(),
        _ => Vec::new(),
    };
    let report = HandoverReport::from_events(&events);
    let stalls = stall_report(&progress, STALL_THRESHOLD);
    let in_transition = bytes_in_transition(&progress, &report.outages);

    // Epoch shares over the run's actual extent (labels at/after the end
    // fold into the preceding epoch).
    let horizon_ms = (end.as_millis_f64().ceil() as u64).max(1);
    let spans: Vec<EpochSpan> = scenario
        .epochs(horizon_ms)
        .into_iter()
        .map(|e| EpochSpan {
            label: e.label,
            start: SimTime::from_millis(e.start_ms),
            end: SimTime::from_millis(e.end_ms),
        })
        .collect();
    let shares = epoch_shares(&deltas, &spans);

    // Fade onset → cellular delivers SHIFT_BYTES of new bytes.
    let fade_at = SimTime::from_millis(spec.fade_at_ms);
    let cell_at_fade: u64 = deltas
        .iter()
        .filter(|(at, path, _)| *at <= fade_at && *path == 1)
        .map(|(_, _, b)| b)
        .sum();
    let mut cell_cum = 0u64;
    let mut shift_ms = None;
    for &(at, path, bytes) in &deltas {
        if path != 1 {
            continue;
        }
        cell_cum += bytes;
        if at > fade_at && cell_cum >= cell_at_fade + SHIFT_BYTES {
            shift_ms = Some(at.saturating_since(fade_at).as_millis_f64());
            break;
        }
    }

    HandoverMeasurement {
        spec: spec.clone(),
        completed: flow.finished_at.is_some() && flow.app_bytes >= spec.size,
        download_time_s: flow.download_time().map(|d| d.as_secs_f64()),
        bytes: flow.app_bytes,
        fell_back: flow.fell_back,
        subflows_total: flow.subflows,
        events,
        report,
        stalls,
        bytes_in_transition: in_transition,
        epoch_shares: shares,
        shift_ms,
    }
}

/// Run a batch of handover specs on `workers` threads (0 = one per core).
/// Results come back in spec order regardless of execution order — each
/// world is independently seeded and single-threaded, so parallelism cannot
/// change any result.
pub fn run_handover_campaign(
    specs: &[HandoverSpec],
    workers: usize,
) -> Vec<HandoverMeasurement> {
    mpw_sim::run_jobs(specs, workers, run_handover)
}
