//! Video-streaming sessions (§6, Table 7): the prefetch + periodic-block
//! traffic pattern of Netflix/YouTube, played over MPTCP and single-path
//! TCP. Table 7 itself reports the workload parameters; our artifact also
//! measures how the session fares over each transport (block lateness —
//! the §5.2/§6 connection between reordering delay and streaming QoE).

use mpw_http::{StreamingClient, StreamingProfile};
use mpw_link::Carrier;
use mpw_metrics::{Summary, Table};
use mpw_mptcp::{Coupling, Host};
use mpw_sim::SimTime;
use serde::Serialize;

use crate::artifacts::{Artifact, Check};
use crate::campaign::Scale;
use crate::config::{FlowConfig, WifiKind};
use crate::testbed::Testbed;

/// Scaled-down profiles keep regeneration fast while preserving the
/// prefetch : block : period structure; FULL scale uses the real sizes.
fn profiles(scale: Scale) -> Vec<(&'static str, StreamingProfile)> {
    let full = scale.runs_per_period >= 20;
    if full {
        vec![
            ("Netflix/Android", StreamingProfile::netflix_android(4)),
            ("Netflix/iPad", StreamingProfile::netflix_ipad(6)),
            ("YouTube", StreamingProfile::youtube(8)),
        ]
    } else {
        vec![
            (
                "Netflix/Android",
                StreamingProfile {
                    prefetch: 4_060_000,
                    block: 520_000,
                    period: mpw_sim::SimDuration::from_millis(7_200),
                    blocks: 4,
                },
            ),
            (
                "Netflix/iPad",
                StreamingProfile {
                    prefetch: 1_500_000,
                    block: 180_000,
                    period: mpw_sim::SimDuration::from_millis(1_020),
                    blocks: 6,
                },
            ),
            ("YouTube", StreamingProfile::miniature(8)),
        ]
    }
}

#[derive(Serialize)]
struct SessionOutcome {
    profile: String,
    transport: String,
    prefetch_mb: f64,
    block_mb: f64,
    period_s: f64,
    prefetch_time_s: Option<f64>,
    block_latency: Summary,
    late_blocks: u32,
    total_blocks: u32,
}

#[derive(Serialize)]
struct StreamingJson {
    sessions: Vec<SessionOutcome>,
}

fn run_session(
    seed: u64,
    profile: StreamingProfile,
    flow: FlowConfig,
    carrier: Carrier,
) -> (Option<f64>, Vec<f64>, u32, u32) {
    let wifi = WifiKind::Home.spec(mpw_link::DayPeriod::Evening);
    // Sessions are long: prefetch + blocks × period + margin.
    let horizon = 120
        + (profile.prefetch + profile.block * profile.blocks as u64) / 100_000
        + (profile.period.as_secs_f64() as u64 + 1) * profile.blocks as u64;
    let (tb, _) = Testbed::run_single(
        seed,
        [wifi, carrier.preset()],
        flow.transport(),
        Box::new(StreamingClient::new(profile)),
        SimTime::from_secs(horizon),
    );
    let host = tb.world.agent::<Host>(tb.client).expect("client");
    let app = host.app::<StreamingClient>(0).expect("streaming app");
    let prefetch_time = app
        .results
        .iter()
        .find(|r| r.index == 0)
        .map(|r| r.latency().as_secs_f64());
    let block_latencies: Vec<f64> = app
        .results
        .iter()
        .filter(|r| r.index > 0)
        .map(|r| r.latency().as_secs_f64())
        .collect();
    (
        prefetch_time,
        block_latencies,
        app.late_blocks,
        profile.blocks,
    )
}

/// Run streaming sessions and render tab7.
pub fn run(scale: Scale, seed: u64, _workers: usize) -> Vec<Artifact> {
    let mut tab7 = Table::new(
        "Table 7 — Streaming sessions (prefetch + periodic blocks) over each transport",
        &[
            "profile",
            "transport",
            "prefetch (MB)",
            "block (MB)",
            "period (s)",
            "prefetch time (s)",
            "block latency (s)",
            "late blocks",
        ],
    );
    let mut sessions = Vec::new();
    let transports = [
        ("MP-2 (coupled)", FlowConfig::mp2(Coupling::Coupled)),
        ("SP-WiFi", FlowConfig::SpWifi),
    ];
    for (pname, profile) in profiles(scale) {
        for (tname, flow) in transports {
            let (prefetch_time, lats, late, total) =
                run_session(seed ^ fxhash(pname) ^ fxhash(tname), profile, flow, Carrier::Att);
            let s = Summary::of(&lats);
            tab7.row(vec![
                pname.into(),
                tname.into(),
                format!("{:.1}", profile.prefetch as f64 / 1e6),
                format!("{:.2}", profile.block as f64 / 1e6),
                format!("{:.1}", profile.period.as_secs_f64()),
                prefetch_time.map_or("-".into(), |t| format!("{t:.2}")),
                s.pm(),
                format!("{late}/{total}"),
            ]);
            sessions.push(SessionOutcome {
                profile: pname.into(),
                transport: tname.into(),
                prefetch_mb: profile.prefetch as f64 / 1e6,
                block_mb: profile.block as f64 / 1e6,
                period_s: profile.period.as_secs_f64(),
                prefetch_time_s: prefetch_time,
                block_latency: s,
                late_blocks: late,
                total_blocks: total,
            });
        }
    }

    let find = |p: &str, t: &str| sessions.iter().find(|s| s.profile == p && s.transport == t);
    let checks = vec![
        Check::new(
            "All sessions complete their prefetch",
            sessions.iter().all(|s| s.prefetch_time_s.is_some()),
            format!(
                "{}/{} prefetches completed",
                sessions.iter().filter(|s| s.prefetch_time_s.is_some()).count(),
                sessions.len()
            ),
        ),
        Check::new(
            "MPTCP prefetch at least as fast as SP-WiFi (Netflix/Android)",
            match (
                find("Netflix/Android", "MP-2 (coupled)").and_then(|s| s.prefetch_time_s),
                find("Netflix/Android", "SP-WiFi").and_then(|s| s.prefetch_time_s),
            ) {
                (Some(mp), Some(sp)) => mp <= sp * 1.1,
                _ => false,
            },
            format!(
                "MP {:?}s vs SP-WiFi {:?}s",
                find("Netflix/Android", "MP-2 (coupled)").and_then(|s| s.prefetch_time_s),
                find("Netflix/Android", "SP-WiFi").and_then(|s| s.prefetch_time_s)
            ),
        ),
        Check::new(
            "MPTCP misses no more block deadlines than SP-WiFi (YouTube)",
            match (find("YouTube", "MP-2 (coupled)"), find("YouTube", "SP-WiFi")) {
                (Some(mp), Some(sp)) => mp.late_blocks <= sp.late_blocks + 1,
                _ => false,
            },
            format!(
                "late blocks MP {:?} vs SP {:?}",
                find("YouTube", "MP-2 (coupled)").map(|s| s.late_blocks),
                find("YouTube", "SP-WiFi").map(|s| s.late_blocks)
            ),
        ),
    ];

    let json = mpw_metrics::to_json(&StreamingJson { sessions });
    vec![Artifact {
        id: "tab7",
        title: "Video-streaming session model (prefetch + periodic blocks)".into(),
        text: tab7.render(),
        json,
        checks,
    }]
}

fn fxhash(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}
