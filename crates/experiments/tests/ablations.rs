//! `repro ablations` is the only caller of `ablations::run_all`; this pins
//! what it prints: the five arms, both sides of each measured, and a
//! table that is a function of `(reps, seed)` alone.

use mpw_experiments::ablations::run_all;

#[test]
fn run_all_measures_five_arms_deterministically() {
    let (table, results) = run_all(1, 1);
    let arms = [
        "initial ssthresh",
        "penalization",
        "scheduler",
        "cellular link-layer ARQ",
        "receive buffer",
    ];
    assert_eq!(results.len(), arms.len());
    for (r, arm) in results.iter().zip(arms) {
        assert!(r.name.starts_with(arm), "arm {:?}, expected {arm}", r.name);
        assert!(table.contains(&r.name), "table lacks a row for {arm}");
        assert!(
            r.with_paper_setting.n > 0,
            "{arm}: paper setting not measured"
        );
        assert!(r.with_alternative.n > 0, "{arm}: alternative not measured");
        assert!(r.delta_pct.is_finite(), "{arm}: delta {}", r.delta_pct);
    }
    assert_eq!(
        run_all(1, 1).0,
        table,
        "same reps and seed, different table"
    );
}
