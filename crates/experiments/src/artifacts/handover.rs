//! Mobility/handover campaign (§7, DESIGN.md §5.11): scripted WiFi-fade →
//! LTE handovers against both lifecycle policies, with the full handover
//! metric harvest — recovery latency, application stalls, per-epoch traffic
//! shares, and the traffic-shift latency from fade onset.
//!
//! The headline claims this campaign defends:
//!
//! * a mid-download WiFi blackout never aborts the connection — the
//!   download always completes over the surviving cellular path,
//! * traffic shifts onto cellular within a couple of retransmission
//!   timeouts of the fade (faster under make-before-break, which demotes
//!   the fading path on the signal trigger before it dies),
//! * once the WiFi link returns, the lifecycle manager re-establishes a
//!   replacement subflow (capped exponential backoff) and WiFi carries
//!   bytes again,
//! * replaying a (spec, seed) pair reproduces every metric byte for byte.

use mpw_link::Carrier;
use mpw_metrics::Table;
use mpw_mptcp::HandoverPolicy;
use serde::Serialize;

use crate::artifacts::{Artifact, Check};
use crate::campaign::Scale;
use crate::config::sizes;
use crate::handover::{run_handover_campaign, HandoverMeasurement, HandoverSpec};

/// The sweep at a given scale. Quick scale keeps one cheap configuration
/// pair (both policies, AT&T, 8 MB); default and full add the 32 MB
/// acceptance transfer, a second carrier, and a late-fade variant.
fn specs(scale: Scale, seed: u64) -> Vec<HandoverSpec> {
    let full = scale.runs_per_period >= 3;
    let size = if full { sizes::S32M } else { sizes::S8M };
    // The outage must end while the transfer is still running, or there is
    // no recovery to observe: quick scale pairs its 8 MB transfer (~7 s on
    // cellular alone) with an early fade and a 2 s blackout.
    let fades: &[u64] = if full { &[3_000, 8_000] } else { &[1_000] };
    let outage_ms = if full { 8_000 } else { 2_000 };
    let carriers: &[Carrier] = if full {
        &[Carrier::Att, Carrier::Verizon]
    } else {
        &[Carrier::Att]
    };
    let mut out = Vec::new();
    for &carrier in carriers {
        for &fade_at_ms in fades {
            for policy in [HandoverPolicy::MakeBeforeBreak, HandoverPolicy::BreakBeforeMake] {
                let mut spec = HandoverSpec::wifi_fade(size, 0);
                spec.carrier = carrier;
                spec.fade_at_ms = fade_at_ms;
                spec.outage_ms = outage_ms;
                spec.policy = policy;
                spec.seed = mpw_sim::derive_seed(seed, out.len() as u64);
                out.push(spec);
            }
        }
    }
    out
}

#[derive(Serialize)]
struct HandoverJson {
    runs: Vec<HandoverMeasurement>,
    replay_identical: bool,
}

/// Run the handover campaign and render the `handover` artifact.
pub fn run(scale: Scale, seed: u64, workers: usize) -> Vec<Artifact> {
    let specs = specs(scale, seed);
    let runs = run_handover_campaign(&specs, workers);

    // Replay determinism: the first spec, run again in this process, must
    // reproduce its measurement byte for byte (serialized form).
    let replay = crate::handover::run_handover(&specs[0]);
    let replay_identical =
        mpw_metrics::to_json(&replay) == mpw_metrics::to_json(&runs[0]);

    let mut table = Table::new(
        "Handover — scripted WiFi fade → LTE, by lifecycle policy",
        &[
            "scenario",
            "size",
            "done",
            "time (s)",
            "shift (ms)",
            "reopens",
            "recovery (ms)",
            "stalls",
            "cell share (fade)",
            "wifi share (restored)",
        ],
    );
    for m in &runs {
        let fade_share = m.epoch("fade").map_or(0.0, |e| e.non_primary_share());
        let restored_wifi = m.epoch("restored").map_or(0.0, |e| e.share(0));
        table.row(vec![
            m.spec.label(),
            sizes::label(m.spec.size),
            if m.completed { "yes".into() } else { "NO".into() },
            m.download_time_s
                .map_or("-".into(), |t| format!("{t:.2}")),
            m.shift_ms.map_or("-".into(), |s| format!("{s:.0}")),
            format!("{}", m.report.reopen_launched),
            if m.report.recovery_ms.is_empty() {
                "-".into()
            } else {
                format!("{:.0}", m.report.recovery_ms.mean())
            },
            format!(
                "{}×/{:.0}ms",
                m.stalls.count(),
                m.stalls.longest.as_millis_f64()
            ),
            format!("{fade_share:.2}"),
            format!("{restored_wifi:.2}"),
        ]);
    }

    let aborted: Vec<&HandoverMeasurement> =
        runs.iter().filter(|m| m.aborted() || m.fell_back).collect();
    let worst_shift = runs
        .iter()
        .filter_map(|m| m.shift_ms)
        .fold(0.0f64, f64::max);
    let no_shift = runs.iter().filter(|m| m.shift_ms.is_none()).count();
    // 2 RTOs from fade onset: the 1.5 s signal-to-blackout ramp plus two
    // 1 s minimum retransmission timeouts.
    let shift_bound_ms = 3_500.0;
    let no_reopen = runs
        .iter()
        .filter(|m| m.report.reopen_launched == 0 || m.report.recoveries == 0)
        .count();
    let min_fade_share = runs
        .iter()
        .map(|m| m.epoch("fade").map_or(0.0, |e| e.non_primary_share()))
        .fold(1.0f64, f64::min);
    let wifi_back = runs
        .iter()
        .filter(|m| m.epoch("restored").is_some_and(|e| e.share(0) > 0.0))
        .count();
    let with_restored = runs
        .iter()
        .filter(|m| m.epoch("restored").is_some())
        .count();

    let checks = vec![
        Check::new(
            "A mid-download WiFi blackout never aborts the connection",
            aborted.is_empty(),
            format!("{}/{} runs completed without fallback", runs.len() - aborted.len(), runs.len()),
        ),
        Check::new(
            "Traffic shifts to cellular within 2 RTOs of fade onset",
            no_shift == 0 && worst_shift <= shift_bound_ms,
            format!("worst shift {worst_shift:.0} ms (bound {shift_bound_ms:.0} ms), {no_shift} runs never shifted"),
        ),
        Check::new(
            "The dead WiFi subflow re-establishes once the link returns",
            no_reopen == 0,
            format!("{no_reopen}/{} runs missing a reopen or recovery", runs.len()),
        ),
        Check::new(
            "Cellular carries the load during the fade/blackout epoch",
            min_fade_share > 0.7,
            format!("minimum fade-epoch cellular share {min_fade_share:.2}"),
        ),
        Check::new(
            "WiFi carries bytes again after the link is restored",
            with_restored > 0 && wifi_back == with_restored,
            format!("{wifi_back}/{with_restored} runs with post-restore WiFi bytes"),
        ),
        Check::new(
            "Replaying the same (spec, seed) reproduces identical metrics",
            replay_identical,
            "serialized measurement compared byte for byte".to_string(),
        ),
    ];

    let json = mpw_metrics::to_json(&HandoverJson { runs, replay_identical });

    vec![Artifact {
        id: "handover",
        title: "Scripted mobility: WiFi fade → LTE handover and recovery".into(),
        text: table.render(),
        json,
        checks,
    }]
}
