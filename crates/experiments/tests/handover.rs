//! End-to-end handover acceptance and replay-determinism regression.
//!
//! The scripted WiFi-fade → LTE scenario must complete its download with
//! zero connection aborts, shift traffic to cellular promptly, and
//! re-establish the WiFi subflow once the link returns — and every metric
//! must replay byte-identically, regardless of worker count.

use mpw_experiments::{run_handover, run_handover_campaign, sizes, HandoverSpec};
use mpw_metrics::{to_json, PathEventKind};
use mpw_mptcp::HandoverPolicy;
use mpw_sim::SimTime;

/// A handover small enough for the test suite: 8 MB, fade at 1 s, 2 s
/// blackout. The transfer outlives the outage on cellular alone, so the
/// restored WiFi link gets to carry bytes again before completion.
fn small_fade(policy: HandoverPolicy, seed: u64) -> HandoverSpec {
    let mut spec = HandoverSpec::wifi_fade(sizes::S8M, seed);
    spec.policy = policy;
    spec.fade_at_ms = 1_000;
    spec.outage_ms = 2_000;
    spec
}

#[test]
fn wifi_fade_handover_completes_without_aborting() {
    for policy in [HandoverPolicy::MakeBeforeBreak, HandoverPolicy::BreakBeforeMake] {
        let m = run_handover(&small_fade(policy, 7));
        assert!(m.completed, "{policy:?}: download must survive the blackout");
        assert!(!m.fell_back, "{policy:?}: must not fall back to plain TCP");
        assert_eq!(m.bytes, sizes::S8M, "{policy:?}: full object delivered");
        assert!(
            m.report.deaths >= 1,
            "{policy:?}: the WiFi path must be declared dead"
        );
        assert!(
            m.shift_ms.is_some(),
            "{policy:?}: traffic must shift to cellular after the fade"
        );
        let fade = m.epoch("fade").expect("fade epoch exists");
        assert!(
            fade.non_primary_share() > 0.5,
            "{policy:?}: cellular must carry the fade epoch, got {:.2}",
            fade.non_primary_share()
        );
    }
}

#[test]
fn dead_wifi_subflow_reestablishes_after_link_returns() {
    let m = run_handover(&small_fade(HandoverPolicy::MakeBeforeBreak, 11));
    assert!(m.completed && !m.fell_back);
    assert!(
        m.report.reopen_launched >= 1,
        "a replacement join must be attempted, events: {:?}",
        m.events
    );
    assert!(
        m.report.recoveries >= 1,
        "the WiFi path must recover once the link is back, events: {:?}",
        m.events
    );
    assert!(
        m.subflows_total >= 3,
        "the replacement is a new subflow (got {})",
        m.subflows_total
    );
    // Recovery can only happen after the link is restored.
    let restore_ms = (m.spec.fade_at_ms + m.spec.fade_over_ms + m.spec.outage_ms) as f64;
    for o in &m.report.outages {
        assert!(
            o.recovered_at.as_millis_f64() >= restore_ms,
            "recovered at {:.0} ms, before the link returned at {restore_ms:.0} ms",
            o.recovered_at.as_millis_f64()
        );
    }
}

#[test]
fn make_before_break_demotes_on_the_signal() {
    let mbb = run_handover(&small_fade(HandoverPolicy::MakeBeforeBreak, 13));
    // The MP_PRIO trigger is delivered at fade onset and logged.
    assert!(
        mbb.events.iter().any(|e| matches!(e.kind, PathEventKind::SignalWeak)),
        "the fade's signal trigger must reach the connection"
    );
    // The scripted blackout at the fade's end reaches it too, at that exact
    // instant: the interface-down notice, not a later RTO-stall verdict.
    let down_at = SimTime::from_millis(mbb.spec.fade_at_ms + mbb.spec.fade_over_ms);
    assert!(
        mbb.events
            .iter()
            .any(|e| e.kind == PathEventKind::Down && e.if_index == 0 && e.at == down_at),
        "the WiFi path must be declared dead at {down_at:?}, events: {:?}",
        mbb.events
    );
}

#[test]
fn replay_is_byte_identical_and_worker_count_invariant() {
    let specs = vec![
        small_fade(HandoverPolicy::MakeBeforeBreak, 17),
        small_fade(HandoverPolicy::BreakBeforeMake, 19),
    ];
    // Same spec, run twice: byte-identical serialized measurements.
    let once = run_handover(&specs[0]);
    let twice = run_handover(&specs[0]);
    assert_eq!(
        to_json(&once),
        to_json(&twice),
        "replaying the same (spec, seed) must reproduce every metric"
    );
    // Same campaign, 1 worker vs 4: byte-identical result vectors.
    let serial = run_handover_campaign(&specs, 1);
    let parallel = run_handover_campaign(&specs, 4);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(
            to_json(s),
            to_json(p),
            "worker count must not change any measurement"
        );
    }
    // And the serial runs match the standalone ones.
    assert_eq!(to_json(&serial[0]), to_json(&once));
}
