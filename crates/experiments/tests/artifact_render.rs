//! Artifact plumbing: rendering, JSON validity, the cheap static group and
//! one campaign group end to end.

use mpw_experiments::artifacts::{hotspot, inventory};
use mpw_experiments::{Artifact, Check, Scale};

#[test]
fn inventory_artifact_is_complete_and_valid() {
    let artifacts = inventory::run(Scale::QUICK, 1, 1);
    assert_eq!(artifacts.len(), 1);
    let a = &artifacts[0];
    assert_eq!(a.id, "tab1");
    assert!(a.all_pass(), "static inventory checks must pass");
    // Table mentions all three carriers and their devices.
    for needle in ["AT&T", "Verizon", "Sprint", "Elevate", "551L", "OverdrivePro"] {
        assert!(a.text.contains(needle), "missing {needle} in:\n{}", a.text);
    }
    // JSON payload parses.
    let v: serde_json::Value = serde_json::from_str(&a.json).expect("valid json");
    assert!(v.get("carriers").is_some());
}

#[test]
fn hotspot_campaign_renders_its_triplet() {
    let artifacts = hotspot::run(Scale::QUICK, 1, 1);
    let ids: Vec<&str> = artifacts.iter().map(|a| a.id).collect();
    assert_eq!(ids, ["fig6", "fig7", "tab4"]);
    // 4 sizes × {SP-WiFi, SP-AT&T, MP-2 coupled, MP-2 reno}; the share table
    // keeps the two multipath configurations, the path table the two single
    // paths.
    for a in &artifacts {
        assert_eq!(a.json, artifacts[0].json, "{} carries its own payload", a.id);
        let v: serde_json::Value = serde_json::from_str(&a.json).expect("valid json");
        let rows = |key: &str| v.get(key).and_then(|r| r.as_array()).expect(key).len();
        assert_eq!(rows("download_time_rows"), 16);
        assert_eq!(rows("cellular_share_rows"), 8);
        assert_eq!(rows("path_stats_rows"), 8);
    }
    // Title, header, rule, then one line per row.
    let lines: Vec<usize> = artifacts.iter().map(|a| a.text.lines().count() - 3).collect();
    assert_eq!(lines, [16, 8, 8]);
}

#[test]
fn report_marks_pass_and_miss_lines() {
    let a = Artifact {
        id: "fig2",
        title: "demo".into(),
        text: "TABLE\n".into(),
        json: "{}".into(),
        checks: vec![
            Check::new("good thing", true, "42"),
            Check::new("bad thing", false, "0"),
        ],
    };
    let r = a.report();
    assert!(r.contains("[PASS] good thing"));
    assert!(r.contains("[MISS] bad thing"));
    assert!(!a.all_pass());
}

#[test]
fn artifact_ids_match_paper_numbering() {
    let ids: Vec<&str> = mpw_experiments::groups()
        .iter()
        .flat_map(|g| g.artifacts)
        .copied()
        .collect();
    for n in 2..=13 {
        assert!(ids.contains(&format!("fig{n}").as_str()), "missing fig{n}");
    }
    for n in 1..=7 {
        assert!(ids.contains(&format!("tab{n}").as_str()), "missing tab{n}");
    }
}
