//! Tests of the measurement methodology itself (§3.2): campaign expansion,
//! seed independence, randomized ordering, artifact registry, and the
//! scale controls.

use mpwild::experiments::{
    group_by, group_for, groups, run_campaign, sizes, FlowConfig, Scale, Scenario, WifiKind,
};
use mpwild::link::{Carrier, DayPeriod};
use mpwild::mptcp::Coupling;

fn tiny_scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            wifi: WifiKind::Home,
            carrier: Carrier::Att,
            flow: FlowConfig::SpWifi,
            size: sizes::S8K,
            period: DayPeriod::Night,
            warmup: true,
        },
        Scenario {
            wifi: WifiKind::Home,
            carrier: Carrier::Att,
            flow: FlowConfig::mp2(Coupling::Coupled),
            size: sizes::S8K,
            period: DayPeriod::Night,
            warmup: true,
        },
    ]
}

#[test]
fn campaign_covers_every_period_and_replication() {
    let scale = Scale {
        runs_per_period: 2,
        all_periods: true,
    };
    let ms = run_campaign(&tiny_scenarios(), scale, 1, 1);
    // 2 scenarios × 4 periods × 2 runs.
    assert_eq!(ms.len(), 16);
    let by_period = group_by(&ms, |m| m.scenario.period.name());
    assert_eq!(by_period.len(), 4);
    for (_, group) in by_period {
        assert_eq!(group.len(), 4);
    }
}

#[test]
fn campaign_is_order_independent() {
    // The paper randomizes measurement order to decorrelate conditions; with
    // seeded worlds the results must be identical regardless of shuffle,
    // which double-checks that runs share no hidden state.
    let scale = Scale {
        runs_per_period: 1,
        all_periods: false,
    };
    let a = run_campaign(&tiny_scenarios(), scale, 9, 1);
    let b = run_campaign(&tiny_scenarios(), scale, 9, 1);
    let times = |ms: &[mpwild::experiments::Measurement]| {
        let mut v: Vec<(u64, Option<f64>)> =
            ms.iter().map(|m| (m.seed, m.download_time_s)).collect();
        v.sort_by_key(|(s, _)| *s);
        v
    };
    assert_eq!(times(&a), times(&b));
}

#[test]
fn every_artifact_id_resolves_to_exactly_one_group() {
    let ids = [
        "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
        "fig12", "fig13", "tab1", "tab2", "tab3", "tab4", "tab5", "tab6", "tab7", "handover",
        "fleet",
    ];
    for id in ids {
        let g = group_for(id).unwrap_or_else(|| panic!("{id} has no group"));
        assert!(
            g.artifacts.contains(&id),
            "{id} resolved to group '{}' that does not produce it",
            g.name
        );
    }
    assert!(group_for("fig99").is_none());
    // Every group is reachable by its own name too.
    for g in groups() {
        assert_eq!(group_for(g.name).expect("group by name").name, g.name);
    }
    // The registry covers all 21 artifacts exactly once.
    let all: Vec<&str> = groups().iter().flat_map(|g| g.artifacts).copied().collect();
    assert_eq!(all.len(), 21);
    let unique: std::collections::BTreeSet<&str> = all.iter().copied().collect();
    assert_eq!(unique.len(), 21);
}

#[test]
#[allow(clippy::assertions_on_constants)]
fn scales_order_by_effort() {
    assert!(Scale::QUICK.runs_per_period < Scale::DEFAULT.runs_per_period);
    assert!(Scale::DEFAULT.runs_per_period < Scale::FULL.runs_per_period);
    assert_eq!(Scale::FULL.runs_per_period, 20, "paper: 20 per period");
    assert_eq!(Scale::FULL.periods().len(), 4, "paper: 4 day periods");
}

#[test]
fn campaign_results_identical_across_worker_counts() {
    // The parallel campaign executor must be a pure throughput optimization:
    // workers=1 and workers=4 have to produce byte-identical result vectors
    // (same job order, same seeds, same measurements).
    let scale = Scale {
        runs_per_period: 2,
        all_periods: false,
    };
    let serial = run_campaign(&tiny_scenarios(), scale, 7, 1);
    let parallel = run_campaign(&tiny_scenarios(), scale, 7, 4);
    assert_eq!(serial.len(), parallel.len());
    let a = serde_json::to_string(&serial).expect("serialize serial");
    let b = serde_json::to_string(&parallel).expect("serialize parallel");
    assert_eq!(a, b, "worker count changed campaign results");
}

#[test]
fn traced_reruns_have_identical_trace_digests() {
    // Same scenario + seed → the same wire capture, byte for byte: every
    // frame and timestamp at all eight tcpdump vantages. Guards the engine's
    // (at, seq) total order across timer/allocation changes.
    use mpwild::experiments::run_measurement_captured;
    let sc = tiny_scenarios().remove(1);
    let (m1, pcap1) = run_measurement_captured(&sc, 11);
    let (m2, pcap2) = run_measurement_captured(&sc, 11);
    assert!(!pcap1.is_empty());
    assert!(pcap1 == pcap2, "same seed produced diverging captures");
    assert_eq!(
        serde_json::to_string(&m1).expect("serialize"),
        serde_json::to_string(&m2).expect("serialize"),
    );
}

#[test]
fn measurements_carry_full_provenance() {
    let scale = Scale {
        runs_per_period: 1,
        all_periods: false,
    };
    let ms = run_campaign(&tiny_scenarios(), scale, 3, 1);
    for m in &ms {
        assert_eq!(m.bytes, sizes::S8K);
        assert!(m.download_time_s.is_some());
        assert!(!m.subflows.is_empty());
        // Provenance survives serialization (results are exported as JSON).
        let json = serde_json::to_string(m).expect("serialize");
        assert!(json.contains("download_time_s"));
    }
}
