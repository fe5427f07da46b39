//! The engine's central promise: a campaign is a pure function of its
//! configuration. Same seed + iters ⇒ byte-identical corpus, findings and
//! fingerprint counts across reruns.

use mpw_fuzz::{engine, EngineConfig, FuzzReport, TargetKind};

fn campaign(target: TargetKind, seed: u64, iters: u64) -> FuzzReport {
    let mut cfg = EngineConfig::new(target);
    cfg.seed = seed;
    cfg.iters = iters;
    engine::run(&cfg)
}

fn assert_identical(a: &FuzzReport, b: &FuzzReport, what: &str) {
    assert_eq!(a.executions, b.executions, "{what}: execution counts differ");
    assert_eq!(
        a.unique_fingerprints, b.unique_fingerprints,
        "{what}: fingerprint counts differ"
    );
    assert_eq!(a.corpus, b.corpus, "{what}: corpora differ");
    assert_eq!(
        a.finding.is_some(),
        b.finding.is_some(),
        "{what}: finding presence differs"
    );
    if let (Some(fa), Some(fb)) = (&a.finding, &b.finding) {
        assert_eq!(fa.iter, fb.iter, "{what}: finding iterations differ");
        assert_eq!(fa.input, fb.input, "{what}: finding inputs differ");
        assert_eq!(fa.message, fb.message, "{what}: finding messages differ");
    }
}

#[test]
fn reruns_are_byte_identical() {
    for target in [TargetKind::Wire, TargetKind::Pcapng, TargetKind::Assembler] {
        let a = campaign(target, 11, 500);
        let b = campaign(target, 11, 500);
        assert_identical(&a, &b, target.name());
    }
}

#[test]
fn different_seeds_explore_differently() {
    let a = campaign(TargetKind::Wire, 1, 500);
    let b = campaign(TargetKind::Wire, 2, 500);
    assert_ne!(a.corpus, b.corpus, "distinct seeds produced identical corpora");
}

#[test]
fn analyze_campaigns_without_base_are_deterministic_too() {
    let a = campaign(TargetKind::Analyze, 31, 200);
    let b = campaign(TargetKind::Analyze, 31, 200);
    assert_identical(&a, &b, "analyze");
}
