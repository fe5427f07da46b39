//! Baseline measurements (§4): Figure 2 (download times across carriers),
//! Figure 3 (cellular traffic share), Table 2 (path characteristics).

use mpw_link::Carrier;
use mpw_mptcp::Coupling;

use crate::artifacts::study::{self, Layout, Part, ShareBy, Study};
use crate::artifacts::{Artifact, Check};
use crate::campaign::{run_campaign, Scale};
use crate::config::{sizes, FlowConfig, Scenario, WifiKind};
use crate::measure::Measurement;

const SIZES: [u64; 4] = [sizes::S64K, sizes::S512K, sizes::S2M, sizes::S16M];

fn scenarios() -> Vec<Scenario> {
    // SP-WiFi once (carrier field unused on the WiFi path).
    let mut v = study::grid(WifiKind::Home, Carrier::Att, &SIZES, &[FlowConfig::SpWifi]);
    let per_carrier = [FlowConfig::SpCellular, FlowConfig::mp2(Coupling::Coupled)];
    for carrier in Carrier::ALL {
        v.extend(study::grid(WifiKind::Home, carrier, &SIZES, &per_carrier));
    }
    v
}

/// Figure rows: the single paths in the paper's legend order, then one
/// MPTCP row per carrier, named after it.
fn row_key(m: &Measurement) -> (u8, String) {
    let sc = &m.scenario;
    let rank = match (sc.flow, sc.carrier) {
        (FlowConfig::SpWifi, _) => 0,
        (FlowConfig::SpCellular, Carrier::Att) => 1,
        (FlowConfig::SpCellular, Carrier::Verizon) => 2,
        (FlowConfig::SpCellular, Carrier::Sprint) => 3,
        (FlowConfig::Mp { .. }, carrier) => return (4, format!("MP-{}", carrier.name())),
    };
    (rank, sc.flow.label(sc.carrier))
}

/// Run the baseline campaign and render fig2, fig3, tab2.
pub fn run(scale: Scale, seed: u64, workers: usize) -> Vec<Artifact> {
    let ms = run_campaign(&scenarios(), scale, seed, workers);
    let study = Study::new(&ms, row_key);
    // Table 2 lists the carriers alphabetically, then the WiFi backhaul.
    let paths = study.path_stats(
        &[
            ("AT&T", "SP-AT&T"),
            ("Sprint", "SP-Sprint"),
            ("Verizon", "SP-Verizon"),
            ("Comcast", "SP-WiFi"),
        ],
        &SIZES,
    );

    let median = |size: u64, label: &str| study.cell(size, label).map(|c| c.time.median);
    let mut checks2 = Vec::new();
    {
        // "MPTCP is robust in achieving performance at least close to the
        // best single path" — for every carrier & size, MP median ≤ 1.6 ×
        // best SP median.
        let mut ok = true;
        let mut detail = String::new();
        for carrier in Carrier::ALL {
            for &size in &SIZES {
                let mp = median(size, &format!("MP-{}", carrier.name()));
                let sp_wifi = median(size, "SP-WiFi");
                let sp_cell = median(size, &format!("SP-{}", carrier.name()));
                if let (Some(mp), Some(w), Some(c)) = (mp, sp_wifi, sp_cell) {
                    let best = w.min(c);
                    if mp > best * 1.6 + 0.05 {
                        ok = false;
                        detail.push_str(&format!(
                            "{}-{}: MP {mp:.2}s vs best SP {best:.2}s; ",
                            carrier.name(),
                            sizes::label(size)
                        ));
                    }
                }
            }
        }
        if detail.is_empty() {
            detail = "MPTCP within 1.6× of best single path everywhere".into();
        }
        checks2.push(Check::new(
            "MPTCP ≈ best single path across carriers and sizes",
            ok,
            detail,
        ));

        // "For small flows single-path WiFi performs best."
        let w64 = median(sizes::S64K, "SP-WiFi");
        let beaten = |carrier: Carrier| {
            let c = median(sizes::S64K, &format!("SP-{}", carrier.name()));
            matches!((w64, c), (Some(w), Some(c)) if c < w)
        };
        checks2.push(Check::new(
            "64 KB: SP-WiFi beats every SP-cellular",
            !Carrier::ALL.into_iter().any(beaten),
            format!("SP-WiFi median {w64:?}s at 64 KB"),
        ));

        // "Sprint is the worst path at large sizes."
        let s16_sprint = median(sizes::S16M, "SP-Sprint");
        let s16_att = median(sizes::S16M, "SP-AT&T");
        checks2.push(Check::new(
            "16 MB: SP-Sprint ≫ SP-AT&T (3G vs LTE)",
            matches!((s16_sprint, s16_att), (Some(s), Some(a)) if s > 2.0 * a),
            format!("Sprint {s16_sprint:?}s vs AT&T {s16_att:?}s"),
        ));
    }

    let share = |size: u64, carrier: &str| study.share(size, &format!("MP-{carrier}"));
    let checks3 = vec![
        Check::new(
            "Cellular share grows with file size (AT&T)",
            share(sizes::S16M, "AT&T") > share(sizes::S64K, "AT&T"),
            format!(
                "64KB {:.2} → 16MB {:.2}",
                share(sizes::S64K, "AT&T"),
                share(sizes::S16M, "AT&T")
            ),
        ),
        Check::new(
            "LTE offload exceeds Sprint 3G offload at 16 MB",
            share(sizes::S16M, "AT&T") > share(sizes::S16M, "Sprint"),
            format!(
                "AT&T {:.2} vs Sprint {:.2}",
                share(sizes::S16M, "AT&T"),
                share(sizes::S16M, "Sprint")
            ),
        ),
    ];

    let checks_t2 = vec![
        Check::new(
            "Cellular RTT grows with file size (bufferbloat)",
            paths.rtt("Verizon", sizes::S16M) > paths.rtt("Verizon", sizes::S64K) * 1.5,
            format!(
                "Verizon 64KB {:.0} ms → 16MB {:.0} ms",
                paths.rtt("Verizon", sizes::S64K),
                paths.rtt("Verizon", sizes::S16M)
            ),
        ),
        Check::new(
            "WiFi is lossy while LTE is ~loss-free",
            paths.loss("Comcast", sizes::S2M) > 0.3 && paths.loss("AT&T", sizes::S512K) < 0.5,
            format!(
                "Comcast 2MB loss {:.2}%, AT&T 512KB loss {:.2}%",
                paths.loss("Comcast", sizes::S2M),
                paths.loss("AT&T", sizes::S512K)
            ),
        ),
        Check::new(
            "Sprint 3G RTTs are an order above WiFi",
            paths.rtt("Sprint", sizes::S2M) > 6.0 * paths.rtt("Comcast", sizes::S2M),
            format!(
                "Sprint 2MB {:.0} ms vs Comcast 2MB {:.0} ms",
                paths.rtt("Sprint", sizes::S2M),
                paths.rtt("Comcast", sizes::S2M)
            ),
        ),
    ];

    study.render(
        Layout {
            time: Part {
                id: "fig2",
                title: "Baseline download time: MPTCP and single-path TCP across carriers",
                table: "Figure 2 — Baseline download time (s): min [q1 |median| q3] max",
                checks: checks2,
            },
            mean_column: false,
            share: Part {
                id: "fig3",
                title: "Baseline: fraction of traffic carried by each cellular carrier",
                table: "Figure 3 — Fraction of MPTCP traffic carried by the cellular path",
                checks: checks3,
            },
            share_by: ShareBy::Carrier,
            path: Part {
                id: "tab2",
                title: "Baseline path characteristics: loss rates and RTTs",
                table: "Table 2 — Baseline path characteristics (single-path TCP): loss % and RTT ms (mean±se)",
                checks: checks_t2,
            },
        },
        paths,
    )
}
