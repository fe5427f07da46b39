//! Fleet contention artifact (DESIGN.md §5.14): the paper's single-flow
//! measurements placed in a *populated* world.
//!
//! Three exhibits:
//!
//! 1. **N=1 degenerate case** — a one-client multipath fleet must
//!    reproduce the single-flow testbed measurement within the DESIGN
//!    §5.7 cross-check tolerances. Both are the one-client topology, but
//!    they draw different weather from two inputs: the access networks'
//!    RNG stream labels (`fleet.wifi`/`fleet.cell` vs `path0`/`path1`)
//!    and the first open (0 ms vs 100 ms); so this is a tolerance
//!    comparison, not byte equality.
//! 2. **Contention sweep** — single-class fleets (all-WiFi, all-LTE,
//!    all-MP2) at increasing N downloading the same object
//!    simultaneously. At N=1 the paper's "MPTCP wins for large sizes"
//!    holds; as N grows every client contends for the same two access
//!    links and the multipath advantage over the better single path
//!    erodes — the sweep records where the ordering inverts.
//! 3. **Scale smoke** — a 1,000-flow mixed-population run that must
//!    complete inside the CI smoke budget and reproduce byte-identically
//!    on replay and across campaign worker counts.

use mpw_fleet::{
    run_campaign, run_fleet, Arrival, FleetCampaign, FleetSpec, FleetWorkload, PathMix,
};
use mpw_link::{Carrier, DayPeriod};
use mpw_metrics::{to_json, Table};
use mpw_mptcp::Coupling;
use serde::Serialize;

use crate::artifacts::{Artifact, Check};
use crate::campaign::Scale;
use crate::config::{sizes, FlowConfig, Scenario, WifiKind};
use crate::crosscheck::Tolerances;
use crate::measure::run_measurement;

/// The fleet variant of a paper scenario: same presets, same object.
fn base_spec(n: u32, seed: u64, mix: PathMix, size: u64) -> FleetSpec {
    FleetSpec {
        n_clients: n,
        seed,
        mix,
        wifi: WifiKind::Home,
        carrier: Carrier::Att,
        period: DayPeriod::Evening,
        arrival: Arrival::Staggered { gap_ms: 0 },
        workload: FleetWorkload::Download { size },
        horizon_ms: 240_000,
        goodput_bucket_ms: 250,
    }
}

fn rel_diff(a: f64, b: f64) -> f64 {
    if a == 0.0 && b == 0.0 {
        return 0.0;
    }
    (a - b).abs() / a.abs().max(b.abs())
}

#[derive(Serialize)]
struct SweepRow {
    n: u32,
    size: u64,
    class: &'static str,
    mean_fct_s: f64,
    p90_fct_s: f64,
    completed: u64,
    started: u64,
    goodput_per_client_kbps: f64,
}

#[derive(Serialize)]
struct FleetJson {
    n1_fleet_time_s: Option<f64>,
    n1_testbed_time_s: Option<f64>,
    n1_fleet_share: f64,
    n1_testbed_share: f64,
    sweep: Vec<SweepRow>,
    smoke_clients: u64,
    smoke_flows: u64,
    smoke_completed: u64,
    smoke_jain: f64,
    smoke_replay_identical: bool,
    campaign_identical: bool,
}

/// Run the fleet group and render the `fleet` artifact.
pub fn run(scale: Scale, seed: u64, workers: usize) -> Vec<Artifact> {
    let tol = Tolerances::default();
    let full = scale.runs_per_period >= 3;

    // ---- 1. N=1 degenerate vs the single-flow testbed -------------------
    let n1_size = sizes::S2M;
    let mut n1_spec = base_spec(1, seed, PathMix::all_multipath(), n1_size);
    n1_spec.goodput_bucket_ms = 50;
    let n1 = run_fleet(&n1_spec);
    let n1_rec = &n1.records[0];
    let testbed = run_measurement(
        &Scenario {
            wifi: WifiKind::Home,
            carrier: Carrier::Att,
            flow: FlowConfig::mp2(Coupling::Coupled),
            size: n1_size,
            period: DayPeriod::Evening,
            warmup: false,
        },
        seed,
    );
    let n1_time_s = n1_rec
        .completed
        .then_some(n1_rec.fct_us as f64 / 1e6);
    let n1_share = n1.report.cellular_share();
    let byte_diff = rel_diff(n1.report.bytes as f64, testbed.bytes as f64);
    let share_diff = (n1_share - testbed.cellular_share).abs();
    let time_diff = match (n1_time_s, testbed.download_time_s) {
        (Some(a), Some(b)) => Some(rel_diff(a, b)),
        _ => None,
    };

    // ---- 2. contention sweep ---------------------------------------------
    // Two object sizes spanning the paper's who-wins boundary, over the
    // paper's coffee-shop hotspot (§4.1.1): at N=1 WiFi's low RTT wins the
    // small object and MPTCP the large one. The hotspot is the scarcer
    // access network, so as the fleet grows its drop-tail queue bloats and
    // its latency advantage drowns — the sweep records where the
    // small-object winner flips.
    let ns: &[u32] = if full { &[1, 8, 24, 48] } else { &[1, 8, 24] };
    let sweep_sizes: [u64; 2] = [sizes::S64K, sizes::S2M];
    let classes: [(&'static str, PathMix); 3] = [
        (
            "wifi",
            PathMix {
                wifi_only: 1,
                lte_only: 0,
                multipath: 0,
            },
        ),
        (
            "lte",
            PathMix {
                wifi_only: 0,
                lte_only: 1,
                multipath: 0,
            },
        ),
        ("mp2", PathMix::all_multipath()),
    ];
    let mut sweep = Vec::new();
    for &size in &sweep_sizes {
        for &n in ns {
            for (label, mix) in &classes {
                let mut spec = base_spec(n, seed, *mix, size);
                spec.wifi = WifiKind::Hotspot(15);
                let run = run_fleet(&spec);
                let mean_fct_s = run.report.fct.mean() / 1e6;
                sweep.push(SweepRow {
                    n,
                    size,
                    class: label,
                    mean_fct_s,
                    p90_fct_s: run.report.fct.quantile(0.9) / 1e6,
                    completed: run.report.flows_completed,
                    started: run.report.flows_started,
                    goodput_per_client_kbps: if mean_fct_s > 0.0 {
                        (size as f64 * 8.0 / 1000.0) / mean_fct_s
                    } else {
                        0.0
                    },
                });
            }
        }
    }
    let fct_of = |size: u64, n: u32, class: &str| -> f64 {
        sweep
            .iter()
            .find(|r| r.size == size && r.n == n && r.class == class)
            .map_or(f64::NAN, |r| r.mean_fct_s)
    };
    let n_lo = ns[0];
    let n_hi = *ns.last().expect("sweep has population sizes");
    // MP2's advantage over the better single path (>1 = MPTCP wins).
    let speedup = |size: u64, n: u32| -> f64 {
        let best_single = fct_of(size, n, "wifi").min(fct_of(size, n, "lte"));
        best_single / fct_of(size, n, "mp2")
    };
    // Where the small object's winner decisively flips from single-path
    // to MPTCP (5% margin so a scheduler tie can't count as a flip).
    let inversion_n = ns
        .iter()
        .copied()
        .find(|&n| speedup(sizes::S64K, n) > 1.05);

    // ---- 3. scale smoke: 1,000 flows, replay + campaign determinism ------
    let smoke_n = 1_000u32;
    let smoke_spec = FleetSpec::smoke(smoke_n, seed);
    let smoke = run_fleet(&smoke_spec);
    let smoke_replay = run_fleet(&smoke_spec);
    let smoke_replay_identical = to_json(&smoke.report) == to_json(&smoke_replay.report);

    // Campaign determinism on a smaller base so two full configurations
    // stay cheap: serial vs pooled must agree bytewise.
    let camp_base = FleetSpec::smoke(100, seed.wrapping_add(1));
    let reps = if full { 6 } else { 3 };
    let camp_a = run_campaign(&FleetCampaign {
        base: camp_base.clone(),
        replications: reps,
        workers: 1,
    });
    let camp_b = run_campaign(&FleetCampaign {
        base: camp_base,
        replications: reps,
        workers: workers.max(2),
    });
    let campaign_identical = to_json(&camp_a.0) == to_json(&camp_b.0);

    // ---- render ----------------------------------------------------------
    let mut table = Table::new(
        "Fleet — shared-bottleneck contention sweep (AT&T + 15-customer hotspot WiFi)",
        &["size", "N", "class", "mean FCT (s)", "p90 FCT (s)", "done", "per-client goodput (kbps)"],
    );
    for r in &sweep {
        table.row(vec![
            sizes::label(r.size),
            format!("{}", r.n),
            r.class.to_string(),
            format!("{:.2}", r.mean_fct_s),
            format!("{:.2}", r.p90_fct_s),
            format!("{}/{}", r.completed, r.started),
            format!("{:.0}", r.goodput_per_client_kbps),
        ]);
    }
    let mut text = table.render();
    text.push_str(&format!(
        "\nN=1 degenerate: fleet {:.2}s / {:.3} cellular share vs testbed {:.2}s / {:.3} \
         (bytes rel diff {:.4}, share abs diff {:.3})\n",
        n1_time_s.unwrap_or(f64::NAN),
        n1_share,
        testbed.download_time_s.unwrap_or(f64::NAN),
        testbed.cellular_share,
        byte_diff,
        share_diff,
    ));
    text.push_str(&format!(
        "MP2-vs-best-single speedup: 64KB {:.2}x -> {:.2}x, 2MB {:.2}x -> {:.2}x (N={n_lo} -> N={n_hi}){}\n",
        speedup(sizes::S64K, n_lo),
        speedup(sizes::S64K, n_hi),
        speedup(sizes::S2M, n_lo),
        speedup(sizes::S2M, n_hi),
        inversion_n.map_or(String::new(), |n| format!(" — small-object winner flips at N={n}")),
    ));
    text.push_str(&format!(
        "Scale smoke: {} clients, {}/{} flows completed, Jain {:.3}, replay identical: {}\n",
        smoke_n,
        smoke.report.flows_completed,
        smoke.report.flows_started,
        smoke.report.fairness.jain(),
        smoke_replay_identical,
    ));

    let sweep_complete = sweep.iter().all(|r| r.completed == r.started);
    let contention_all = sweep_sizes.iter().all(|&size| {
        classes
            .iter()
            .all(|(label, _)| fct_of(size, n_hi, label) > fct_of(size, n_lo, label))
    });
    let checks = vec![
        Check::new(
            "N=1 fleet reproduces the single-flow testbed bytes (§5.7 tolerance)",
            n1_rec.completed && byte_diff <= tol.delivered_rel,
            format!(
                "fleet {} vs testbed {} bytes, rel diff {:.4} (tol {})",
                n1.report.bytes, testbed.bytes, byte_diff, tol.delivered_rel
            ),
        ),
        Check::new(
            "N=1 fleet cellular share matches the testbed (§5.7 tolerance)",
            share_diff <= tol.cellular_share_abs,
            format!(
                "fleet {n1_share:.3} vs testbed {:.3}, abs diff {share_diff:.3} (tol {})",
                testbed.cellular_share, tol.cellular_share_abs
            ),
        ),
        Check::new(
            "N=1 fleet download time is in the testbed's ballpark",
            time_diff.is_some_and(|d| d <= 0.25),
            format!(
                "fleet {:.2}s vs testbed {:.2}s, rel diff {:.3} (bound 0.25)",
                n1_time_s.unwrap_or(f64::NAN),
                testbed.download_time_s.unwrap_or(f64::NAN),
                time_diff.unwrap_or(f64::NAN)
            ),
        ),
        Check::new(
            "Every sweep download completes within the horizon",
            sweep_complete,
            format!("{} sweep cells", sweep.len()),
        ),
        Check::new(
            "Contention raises completion times for every class and size",
            contention_all,
            format!(
                "N={n_lo} -> N={n_hi} (2MB): wifi {:.2}->{:.2}s, lte {:.2}->{:.2}s, mp2 {:.2}->{:.2}s",
                fct_of(sizes::S2M, n_lo, "wifi"),
                fct_of(sizes::S2M, n_hi, "wifi"),
                fct_of(sizes::S2M, n_lo, "lte"),
                fct_of(sizes::S2M, n_hi, "lte"),
                fct_of(sizes::S2M, n_lo, "mp2"),
                fct_of(sizes::S2M, n_hi, "mp2"),
            ),
        ),
        // The small-object speedup at N=1 sits at ~1.0: the scheduler keeps
        // the whole object on the low-RTT WiFi path, so MPTCP merely ties
        // single-path WiFi — hence "no better than", not "strictly worse".
        Check::new(
            "The paper's who-wins-per-size holds at N=1: MPTCP is no better for the small object, wins the large",
            speedup(sizes::S64K, n_lo) <= 1.02 && speedup(sizes::S2M, n_lo) > 1.0,
            format!(
                "N={n_lo} speedups: 64KB {:.2}x, 2MB {:.2}x",
                speedup(sizes::S64K, n_lo),
                speedup(sizes::S2M, n_lo)
            ),
        ),
        Check::new(
            "Contention inverts the small-object winner: MPTCP takes it once transfers are capacity-bound",
            inversion_n.is_some_and(|n| n > n_lo),
            format!(
                "64KB speedup {:.2}x at N={n_lo} -> {:.2}x at N={n_hi}{}",
                speedup(sizes::S64K, n_lo),
                speedup(sizes::S64K, n_hi),
                inversion_n.map_or(" (never flips)".into(), |n| format!(", flips at N={n}")),
            ),
        ),
        Check::new(
            "A 1,000-flow mixed fleet completes inside the smoke budget",
            smoke.report.flows_started >= 1_000 && smoke.report.flows_completed == smoke.report.flows_started,
            format!(
                "{}/{} flows completed",
                smoke.report.flows_completed, smoke.report.flows_started
            ),
        ),
        Check::new(
            "Replaying the 1,000-flow run reproduces identical bytes",
            smoke_replay_identical,
            "FleetReport JSON compared byte for byte".to_string(),
        ),
        Check::new(
            "Campaign bytes survive worker-count changes",
            campaign_identical,
            format!("{reps} replications: workers 1 vs workers {}", workers.max(2)),
        ),
    ];

    let json = FleetJson {
        n1_fleet_time_s: n1_time_s,
        n1_testbed_time_s: testbed.download_time_s,
        n1_fleet_share: n1_share,
        n1_testbed_share: testbed.cellular_share,
        sweep,
        smoke_clients: u64::from(smoke_n),
        smoke_flows: smoke.report.flows_started,
        smoke_completed: smoke.report.flows_completed,
        smoke_jain: smoke.report.fairness.jain(),
        smoke_replay_identical,
        campaign_identical,
    };

    vec![Artifact {
        id: "fleet",
        title: "Shared-bottleneck fleet: N=1 degenerate case, contention sweep, scale smoke".into(),
        text,
        json: to_json(&json),
        checks,
    }]
}
