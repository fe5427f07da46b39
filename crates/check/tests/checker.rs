//! End-to-end tests of the model checker.
//!
//! Debug builds replay ~10× slower than release, so the clean-exploration
//! test here uses reduced bounds; the CI `check` job runs the release
//! binary at default depth with `--min-states 10000` for the full-scale
//! acceptance criterion. The determinism wall once housed here is clippy's
//! `disallowed_types` now; CI's `clippy` job proves it bites.

use mpw_check::explore::{explore, format_trace, CheckConfig, Inject};
use mpw_mptcp::conn::SynMode;

#[test]
fn bounded_exploration_finds_no_violations() {
    let cfg = CheckConfig { depth: 7, ..CheckConfig::default() };
    let res = explore(&cfg);
    assert!(
        res.violation.is_none(),
        "unexpected violation: {:?}",
        res.violation
    );
    assert!(res.states > 1_000, "only {} states explored", res.states);
    assert!(!res.truncated);
}

#[test]
fn simultaneous_syn_exploration_finds_no_violations() {
    // The paper's modified handshake: the MP_JOIN SYN races the MP_CAPABLE
    // one, so the server-side held-join path is inside the explored space.
    let cfg = CheckConfig {
        depth: 5,
        syn_mode: SynMode::Simultaneous,
        ..CheckConfig::default()
    };
    let res = explore(&cfg);
    assert!(
        res.violation.is_none(),
        "unexpected violation: {:?}",
        res.violation
    );
    assert!(res.states > 200, "only {} states explored", res.states);
}

#[test]
fn planted_overlapping_dss_bug_is_caught_with_replayable_trace() {
    let cfg = CheckConfig {
        depth: 6,
        inject: Some(Inject::OverlappingDss),
        ..CheckConfig::default()
    };
    let res = explore(&cfg);
    let v = res.violation.expect("planted DSS corruption must be caught");
    assert!(
        v.message.contains("integrity") || v.message.contains("delivery"),
        "caught by an unexpected oracle: {}",
        v.message
    );
    assert!(
        v.path.len() <= 6,
        "shrinking left {} actions: {:?}",
        v.path.len(),
        v.path
    );
    // The counterexample replays: rendering it hits the violation again and
    // shows the corrupted mapping on the wire.
    let trace = format_trace(&cfg, &v.path);
    assert!(trace.contains("VIOLATION"), "replay did not reproduce:\n{trace}");
    assert!(trace.contains("dseq 199"), "overlapping mapping not visible:\n{trace}");
}

#[test]
fn planted_unclamped_cc_bug_is_caught_by_the_increase_oracle() {
    // In-order schedules only: the bug needs congestion avoidance, i.e. a
    // longer path, and the narrowed space keeps this fast in debug builds.
    let cfg = CheckConfig {
        depth: 12,
        max_drops: 0,
        max_dups: 0,
        reorder: 1,
        inject: Some(Inject::UnclampedCc),
        ..CheckConfig::default()
    };
    let res = explore(&cfg);
    let v = res.violation.expect("unclamped coupled-CC increase must be caught");
    assert!(
        v.message.contains("exceeds New Reno bound"),
        "caught by an unexpected oracle: {}",
        v.message
    );
    let trace = format_trace(&cfg, &v.path);
    assert!(trace.contains("VIOLATION"), "replay did not reproduce:\n{trace}");
}
