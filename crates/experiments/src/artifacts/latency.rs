//! Latency distributions (§5): Figure 12 (per-packet RTT CCDFs by carrier
//! and size), Figure 13 (out-of-order delay CCDFs), Table 6 (MPTCP RTT and
//! OFO-delay statistics). MP-2 coupled over each carrier.

use mpw_link::Carrier;
use mpw_metrics::{DistSummary, Summary, Table};
use mpw_mptcp::Coupling;
use serde::Serialize;

use crate::artifacts::{study, Artifact, Check};
use crate::campaign::{run_campaign, Scale};
use crate::config::{sizes, FlowConfig, Scenario, WifiKind};
use crate::measure::Measurement;

const SIZES: [u64; 4] = [sizes::S4M, sizes::S8M, sizes::S16M, sizes::S32M];

fn scenarios() -> Vec<Scenario> {
    let flow = [FlowConfig::mp2(Coupling::Coupled)];
    let per_carrier = |carrier| study::grid(WifiKind::Home, carrier, &SIZES, &flow);
    Carrier::ALL.into_iter().flat_map(per_carrier).collect()
}

/// RTT summaries pooled per (carrier, interface) by merging the streaming
/// per-subflow summaries — no per-sample vectors are ever materialized.
fn pool_rtts(ms: &[Measurement], carrier: Carrier, if_index: u8) -> DistSummary {
    let mut pool = DistSummary::new();
    for m in ms.iter().filter(|m| m.scenario.carrier == carrier) {
        for s in m.subflows.iter().filter(|s| s.if_index == if_index) {
            pool.merge(&s.rtt);
        }
    }
    pool
}

#[derive(Serialize)]
struct LatencyJson {
    rtt_ccdf_series: Vec<(String, Vec<(f64, f64)>)>,
    ofo_ccdf_series: Vec<(String, Vec<(f64, f64)>)>,
    table6_rtt: Vec<(String, String, Summary)>,
    table6_ofo: Vec<(String, String, Summary)>,
}

/// Run the latency campaign and render fig12, fig13, tab6.
pub fn run(scale: Scale, seed: u64, workers: usize) -> Vec<Artifact> {
    let ms = run_campaign(&scenarios(), scale, seed, workers);

    // ---------------- fig12: packet RTT CCDFs ----------------
    let mut fig12 = Table::new(
        "Figure 12 — Packet RTT distributions of MPTCP subflows (ms)",
        &["path", "min", "p50", "p90", "p99", "max", "n"],
    );
    let mut rtt_series = Vec::new();
    let mut rtt_quantiles: std::collections::BTreeMap<String, DistSummary> = Default::default();
    for carrier in Carrier::ALL {
        for (if_index, name) in [(1u8, carrier.name().to_string()), (0u8, format!("WiFi (w/ {})", carrier.name()))] {
            let c = pool_rtts(&ms, carrier, if_index);
            if c.count() == 0 {
                continue;
            }
            fig12.row(vec![
                name.clone(),
                format!("{:.0}", c.min()),
                format!("{:.0}", c.quantile(0.5)),
                format!("{:.0}", c.quantile(0.9)),
                format!("{:.0}", c.quantile(0.99)),
                format!("{:.0}", c.max()),
                c.count().to_string(),
            ]);
            rtt_series.push((name.clone(), c.log_series(24, 1.0)));
            rtt_quantiles.insert(name, c);
        }
    }
    let q = |name: &str, p: f64| rtt_quantiles.get(name).map(|c| c.quantile(p)).unwrap_or(0.0);
    let checks12 = vec![
        Check::new(
            "WiFi RTTs low and tight (90% below ~50-80 ms)",
            q("WiFi (w/ AT&T)", 0.9) < 90.0,
            format!("WiFi p90 {:.0} ms", q("WiFi (w/ AT&T)", 0.9)),
        ),
        Check::new(
            "AT&T RTT mass between 50 and 200 ms",
            q("AT&T", 0.5) > 40.0 && q("AT&T", 0.9) < 320.0,
            format!("AT&T p50 {:.0} ms, p90 {:.0} ms", q("AT&T", 0.5), q("AT&T", 0.9)),
        ),
        Check::new(
            "Sprint 3G heavy tail: p99 near or above 1 s",
            q("Sprint", 0.99) > 600.0,
            format!("Sprint p99 {:.0} ms", q("Sprint", 0.99)),
        ),
        Check::new(
            "Verizon tail lies between AT&T and Sprint",
            q("Verizon", 0.99) > q("AT&T", 0.99) && q("Verizon", 0.95) < q("Sprint", 0.95) * 2.0,
            format!(
                "p99: AT&T {:.0}, Verizon {:.0}, Sprint {:.0} ms",
                q("AT&T", 0.99),
                q("Verizon", 0.99),
                q("Sprint", 0.99)
            ),
        ),
    ];

    // ---------------- fig13: out-of-order delay CCDFs ----------------
    let mut fig13 = Table::new(
        "Figure 13 — Out-of-order delay distributions at the MPTCP receive buffer (ms)",
        &["carrier", "size", "in-order frac", "p90", "p99", "max", "n"],
    );
    let mut ofo_series = Vec::new();
    let mut ofo_pools: std::collections::BTreeMap<String, DistSummary> = Default::default();
    for carrier in Carrier::ALL {
        for &size in &SIZES {
            let mut c = DistSummary::new();
            for m in ms
                .iter()
                .filter(|m| m.scenario.carrier == carrier && m.scenario.size == size)
            {
                c.merge(&m.ofo);
            }
            if c.count() == 0 {
                continue;
            }
            let in_order = c.frac_le(0.5);
            fig13.row(vec![
                carrier.name().into(),
                sizes::label(size),
                format!("{in_order:.2}"),
                format!("{:.0}", c.quantile(0.9)),
                format!("{:.0}", c.quantile(0.99)),
                format!("{:.0}", c.max()),
                c.count().to_string(),
            ]);
            ofo_series.push((
                format!("{}-{}", carrier.name(), sizes::label(size)),
                c.log_series(24, 0.01),
            ));
            ofo_pools
                .entry(carrier.name().to_string())
                .or_default()
                .merge(&c);
        }
    }
    let frac_above = |carrier: &str, thresh_ms: f64| -> f64 {
        ofo_pools
            .get(carrier)
            .map(|p| p.frac_above(thresh_ms))
            .unwrap_or(0.0)
    };
    let checks13 = vec![
        Check::new(
            "AT&T: most packets in order, small OFO delays",
            frac_above("AT&T", 150.0) < 0.15,
            format!("AT&T frac >150 ms = {:.3}", frac_above("AT&T", 150.0)),
        ),
        Check::new(
            "Sprint: substantial fraction above the 150 ms real-time budget",
            frac_above("Sprint", 150.0) > 0.05,
            format!("Sprint frac >150 ms = {:.3}", frac_above("Sprint", 150.0)),
        ),
        Check::new(
            "Ordering AT&T < Verizon < Sprint in OFO severity",
            frac_above("AT&T", 100.0) <= frac_above("Verizon", 100.0) + 0.02
                && frac_above("Verizon", 100.0) <= frac_above("Sprint", 100.0) + 0.02,
            format!(
                "frac >100 ms: AT&T {:.3}, Verizon {:.3}, Sprint {:.3}",
                frac_above("AT&T", 100.0),
                frac_above("Verizon", 100.0),
                frac_above("Sprint", 100.0)
            ),
        ),
    ];

    // ---------------- tab6: RTT and OFO statistics ----------------
    let mut tab6 = Table::new(
        "Table 6 — MPTCP RTT (per-flow mean±se) and out-of-order delay (per-connection mean±se), ms",
        &["metric", "path", "size", "mean±se"],
    );
    let mut t6_rtt = Vec::new();
    let mut t6_ofo = Vec::new();
    for carrier in Carrier::ALL {
        for &size in &SIZES {
            let rtt_means: Vec<f64> = ms
                .iter()
                .filter(|m| m.scenario.carrier == carrier && m.scenario.size == size)
                .flat_map(|m| {
                    m.subflows
                        .iter()
                        .filter(|s| s.if_index == 1)
                        .filter_map(|s| s.mean_rtt_ms())
                })
                .collect();
            let s = Summary::of(&rtt_means);
            tab6.row(vec![
                "RTT".into(),
                carrier.name().into(),
                sizes::label(size),
                s.pm(),
            ]);
            t6_rtt.push((carrier.name().to_string(), sizes::label(size), s));

            let ofo_means: Vec<f64> = ms
                .iter()
                .filter(|m| {
                    m.scenario.carrier == carrier
                        && m.scenario.size == size
                        && m.ofo.count() > 0
                })
                .map(|m| m.ofo.mean())
                .collect();
            let s = Summary::of(&ofo_means);
            tab6.row(vec![
                "OFO".into(),
                carrier.name().into(),
                sizes::label(size),
                s.pm(),
            ]);
            t6_ofo.push((carrier.name().to_string(), sizes::label(size), s));
        }
    }
    // WiFi RTT rows (as in the paper's Table 6).
    for &size in &SIZES {
        let rtt_means: Vec<f64> = ms
            .iter()
            .filter(|m| m.scenario.size == size)
            .flat_map(|m| {
                m.subflows
                    .iter()
                    .filter(|s| s.if_index == 0)
                    .filter_map(|s| s.mean_rtt_ms())
            })
            .collect();
        let s = Summary::of(&rtt_means);
        tab6.row(vec!["RTT".into(), "WiFi".into(), sizes::label(size), s.pm()]);
        t6_rtt.push(("WiFi".to_string(), sizes::label(size), s));
    }
    let mean_of = |rows: &[(String, String, Summary)], path: &str| -> f64 {
        let v: Vec<f64> = rows
            .iter()
            .filter(|(p, ..)| p == path)
            .map(|(.., s)| s.mean)
            .filter(|m| m.is_finite() && *m > 0.0)
            .collect();
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let checks_t6 = vec![
        Check::new(
            "Mean OFO delay ordering: AT&T < Verizon < Sprint",
            mean_of(&t6_ofo, "AT&T") < mean_of(&t6_ofo, "Verizon")
                && mean_of(&t6_ofo, "Verizon") < mean_of(&t6_ofo, "Sprint"),
            format!(
                "AT&T {:.0}, Verizon {:.0}, Sprint {:.0} ms",
                mean_of(&t6_ofo, "AT&T"),
                mean_of(&t6_ofo, "Verizon"),
                mean_of(&t6_ofo, "Sprint")
            ),
        ),
        Check::new(
            "MPTCP WiFi-subflow RTT stays far below cellular RTTs",
            mean_of(&t6_rtt, "WiFi") * 2.0 < mean_of(&t6_rtt, "AT&T"),
            format!(
                "WiFi {:.0} ms vs AT&T {:.0} ms",
                mean_of(&t6_rtt, "WiFi"),
                mean_of(&t6_rtt, "AT&T")
            ),
        ),
    ];

    let json = mpw_metrics::to_json(&LatencyJson {
        rtt_ccdf_series: rtt_series,
        ofo_ccdf_series: ofo_series,
        table6_rtt: t6_rtt,
        table6_ofo: t6_ofo,
    });

    study::triplet(
        json,
        [
            (
                "fig12",
                "Packet RTT distributions of MPTCP connections per carrier",
                fig12.render(),
                checks12,
            ),
            (
                "fig13",
                "Out-of-order delay distributions of MPTCP connections",
                fig13.render(),
                checks13,
            ),
            (
                "tab6",
                "MPTCP RTT and out-of-order delay statistics",
                tab6.render(),
                checks_t6,
            ),
        ],
    )
}
