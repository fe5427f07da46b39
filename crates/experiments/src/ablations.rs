//! Ablations of the design choices the paper calls out in §3.1, plus the
//! substrate substitutions DESIGN.md documents. Each ablation runs a small
//! paired sweep and reports the effect size.

use mpw_http::{StreamingClient, StreamingProfile, Wget};
use mpw_link::{Carrier, LossModel, PathSpec};
use mpw_metrics::{Summary, Table};
use mpw_mptcp::{Coupling, Host, MptcpConfig, Scheduler, TransportSpec};
use mpw_sim::SimTime;
use serde::Serialize;

use crate::artifacts::study;
use crate::config::{sizes, FlowConfig, Scenario, WifiKind};
use crate::measure::run_measurement;
use crate::testbed::Testbed;

/// One ablation outcome: mean download times with the mechanism on and off.
#[derive(Clone, Debug, Serialize)]
pub struct AblationResult {
    /// Which mechanism was toggled.
    pub name: String,
    /// What was measured.
    pub workload: String,
    /// Mean seconds with the paper's setting.
    pub with_paper_setting: Summary,
    /// Mean seconds with the alternative.
    pub with_alternative: Summary,
    /// Relative change (alternative vs paper setting), percent.
    pub delta_pct: f64,
}

impl AblationResult {
    fn of(name: &str, workload: &str, paper: Vec<f64>, alt: Vec<f64>) -> AblationResult {
        let p = Summary::of(&paper);
        let a = Summary::of(&alt);
        AblationResult {
            name: name.into(),
            workload: workload.into(),
            delta_pct: if p.mean > 0.0 {
                100.0 * (a.mean - p.mean) / p.mean
            } else {
                0.0
            },
            with_paper_setting: p,
            with_alternative: a,
        }
    }
}

fn base_scenario(size: u64) -> Scenario {
    let flow = FlowConfig::mp2(Coupling::Coupled);
    study::scenario(WifiKind::Home, Carrier::Att, flow, size)
}

/// §3.1 "connection parameters": initial ssthresh 64 KB vs Linux's infinite
/// default. Infinite ssthresh lets the (lossless) cellular subflow slow-start
/// without bound, inflating cellular RTT — the degradation the paper
/// explicitly configured away.
pub fn ablate_ssthresh(reps: u64, seed: u64) -> AblationResult {
    let run = |initial_ssthresh: usize, i: u64| -> Option<f64> {
        let mp = MptcpConfig {
            cc: mpw_tcp::CcConfig { initial_ssthresh, ..Default::default() },
            ..MptcpConfig::default()
        };
        mp_download_secs(&base_scenario(sizes::S4M), seed + i * 101, mp, 400)
    };
    let paper: Vec<f64> = (0..reps).filter_map(|i| run(64 << 10, i)).collect();
    let alt: Vec<f64> = (0..reps).filter_map(|i| run(usize::MAX, i)).collect();
    AblationResult::of(
        "initial ssthresh: 64 KB (paper) vs infinite (Linux default)",
        "4 MB download, MP-2 coupled over WiFi+LTE",
        paper,
        alt,
    )
}

/// Download time of `sc.size` bytes over `sc`'s paths with both ends
/// running the MPTCP configuration `mp`.
fn mp_download_secs(sc: &Scenario, seed: u64, mp: MptcpConfig, horizon_s: u64) -> Option<f64> {
    let wget = Box::new(Wget::new(sc.size, false));
    let horizon = SimTime::from_secs(horizon_s);
    let (_, flow) = Testbed::run_single(seed, paths(sc), TransportSpec::Mptcp(mp), wget, horizon);
    flow.download_time().map(|d| d.as_secs_f64())
}

/// `sc`'s two access paths.
fn paths(sc: &Scenario) -> [PathSpec; 2] {
    [sc.wifi.spec(sc.period), sc.carrier.preset()]
}

/// §3.1 "no subflow penalty": the v0.86 penalization mechanism the paper
/// removed. We re-enable it and measure the cost.
pub fn ablate_penalization(reps: u64, seed: u64) -> AblationResult {
    let run = |penalization: bool, i: u64| -> Option<f64> {
        let mut sc = base_scenario(sizes::S8M);
        // Penalization only acts under shared-receive-window pressure, so
        // pair a heterogeneous path (Sprint 3G) with a modest buffer.
        sc.carrier = Carrier::Sprint;
        let mp = MptcpConfig {
            penalization,
            recv_buffer: 384 << 10,
            ..MptcpConfig::default()
        };
        mp_download_secs(&sc, seed + i * 101, mp, 900)
    };
    let paper: Vec<f64> = (0..reps).filter_map(|i| run(false, i)).collect();
    let alt: Vec<f64> = (0..reps).filter_map(|i| run(true, i)).collect();
    AblationResult::of(
        "penalization: removed (paper) vs v0.86 default (on)",
        "8 MB download, MP-2 coupled, WiFi+Sprint, 384 KB recv buffer",
        paper,
        alt,
    )
}

/// Scheduler: lowest-RTT (Linux default) vs round-robin.
///
/// For bulk transfers the scheduler is nearly inert — window space opens on
/// one subflow at a time, so assignment is ACK-clocked regardless of policy
/// (true of the kernel too). It *decides* when the connection is
/// app-limited: each periodic streaming block finds both subflows idle, and
/// round-robin then parks half of every block on the slow path.
pub fn ablate_scheduler(reps: u64, seed: u64) -> AblationResult {
    let profile = StreamingProfile {
        prefetch: 600_000,
        block: 120_000,
        period: mpw_sim::SimDuration::from_millis(800),
        blocks: 10,
    };
    let run = |scheduler: Scheduler, i: u64| -> Option<f64> {
        let mut sc = base_scenario(0);
        // Round-robin hurts most when the alternate path is much slower.
        sc.carrier = Carrier::Sprint;
        let transport = TransportSpec::Mptcp(MptcpConfig {
            scheduler,
            ..MptcpConfig::default()
        });
        let (tb, _) = Testbed::run_single(
            seed + i * 101,
            paths(&sc),
            transport,
            Box::new(StreamingClient::new(profile)),
            SimTime::from_secs(120),
        );
        let host = tb.world.agent::<Host>(tb.client).expect("client");
        let app = host.app::<StreamingClient>(0)?;
        let lats: Vec<f64> = app
            .results
            .iter()
            .filter(|r| r.index > 0)
            .map(|r| r.latency().as_secs_f64())
            .collect();
        if lats.is_empty() {
            None
        } else {
            Some(lats.iter().sum::<f64>() / lats.len() as f64)
        }
    };
    let paper: Vec<f64> = (0..reps).filter_map(|i| run(Scheduler::MinRtt, i)).collect();
    let alt: Vec<f64> = (0..reps).filter_map(|i| run(Scheduler::RoundRobin, i)).collect();
    AblationResult::of(
        "scheduler: lowest-RTT (Linux) vs round-robin",
        "streaming blocks (120 KB / 0.8 s) mean fetch latency, WiFi+Sprint",
        paper,
        alt,
    )
}

/// Substrate: cellular link-layer ARQ on (losses hidden from TCP, §2.1) vs
/// off (raw channel loss surfaces to the transport).
pub fn ablate_cellular_arq(reps: u64, seed: u64) -> AblationResult {
    let size = sizes::S4M;
    let run = |arq: bool, i: u64| -> Option<f64> {
        let mut sc = base_scenario(size);
        sc.flow = FlowConfig::SpCellular;
        if arq {
            return run_measurement(&sc, seed + i * 101).download_time_s;
        }
        // ARQ off: surface a 2% Bernoulli loss to TCP instead.
        let [wifi, mut cell] = paths(&sc);
        cell.down.arq = None;
        cell.down.loss = LossModel::Bernoulli { p: 0.02 };
        cell.up.arq = None;
        cell.up.loss = LossModel::Bernoulli { p: 0.01 };
        let wget = Box::new(Wget::new(size, false));
        let horizon = SimTime::from_secs(400);
        let (_, flow) =
            Testbed::run_single(seed + i * 101, [wifi, cell], sc.flow.transport(), wget, horizon);
        flow.download_time().map(|d| d.as_secs_f64())
    };
    let paper: Vec<f64> = (0..reps).filter_map(|i| run(true, i)).collect();
    let alt: Vec<f64> = (0..reps).filter_map(|i| run(false, i)).collect();
    AblationResult::of(
        "cellular link-layer ARQ: on (carriers, §2.1) vs off (loss visible)",
        "4 MB download, SP over AT&T LTE",
        paper,
        alt,
    )
}

/// §3.1 "receive memory allocation": 8 MB shared receive buffer (paper) vs
/// a cramped 192 KB one, which stalls the sender through the shared window
/// when paths have heterogeneous RTTs.
pub fn ablate_recv_buffer(reps: u64, seed: u64) -> AblationResult {
    let run = |recv_buffer: usize, i: u64| -> Option<f64> {
        let mut sc = base_scenario(sizes::S4M);
        sc.carrier = Carrier::Sprint; // heterogeneity makes the buffer bind
        let mp = MptcpConfig {
            recv_buffer,
            ..MptcpConfig::default()
        };
        mp_download_secs(&sc, seed + i * 101, mp, 900)
    };
    let paper: Vec<f64> = (0..reps).filter_map(|i| run(8 << 20, i)).collect();
    let alt: Vec<f64> = (0..reps).filter_map(|i| run(192 << 10, i)).collect();
    AblationResult::of(
        "receive buffer: 8 MB (paper) vs 192 KB",
        "4 MB download, MP-2 coupled over WiFi+Sprint 3G",
        paper,
        alt,
    )
}

/// Run every ablation and render a table.
pub fn run_all(reps: u64, seed: u64) -> (String, Vec<AblationResult>) {
    let results = vec![
        ablate_ssthresh(reps, seed),
        ablate_penalization(reps, seed),
        ablate_scheduler(reps, seed),
        ablate_cellular_arq(reps, seed),
        ablate_recv_buffer(reps, seed),
    ];
    let mut t = Table::new(
        "Ablations — design choices from §3.1 and the substrate substitutions",
        &["mechanism", "workload", "paper setting (s)", "alternative (s)", "Δ"],
    );
    for r in &results {
        t.row(vec![
            r.name.clone(),
            r.workload.clone(),
            r.with_paper_setting.pm(),
            r.with_alternative.pm(),
            format!("{:+.1}%", r.delta_pct),
        ]);
    }
    (t.render(), results)
}
