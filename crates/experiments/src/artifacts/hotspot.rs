//! Coffee-shop measurements (§4.1.1 "effect of background traffic"):
//! Figure 6 (download times on a loaded public hotspot), Figure 7 (cellular
//! share), Table 4 (path characteristics). Coupled and reno only — the
//! paper skipped olia here "for the sake of time".

use mpw_link::Carrier;
use mpw_mptcp::Coupling;

use crate::artifacts::study::{self, Layout, Part, ShareBy, Study};
use crate::artifacts::{Artifact, Check};
use crate::campaign::{run_campaign, Scale};
use crate::config::{sizes, FlowConfig, WifiKind};

const SIZES: [u64; 4] = [sizes::S8K, sizes::S64K, sizes::S512K, sizes::S4M];
const CUSTOMERS: u32 = 18; // "15 to 20 customers" on a Friday afternoon.

/// Run the hotspot campaign and render fig6, fig7, tab4.
pub fn run(scale: Scale, seed: u64, workers: usize) -> Vec<Artifact> {
    let flows = [
        FlowConfig::SpWifi,
        FlowConfig::SpCellular,
        FlowConfig::mp2(Coupling::Coupled),
        FlowConfig::mp2(Coupling::Reno),
    ];
    let scenarios = study::grid(WifiKind::Hotspot(CUSTOMERS), Carrier::Att, &SIZES, &flows);
    let ms = run_campaign(&scenarios, scale, seed, workers);
    let study = Study::new(&ms, study::by_config);
    let paths = study.path_stats(&study::WIFI_AND_ATT, &SIZES);

    let median = |size: u64, lbl: &str| study.cell(size, lbl).map(|c| c.time.median);
    let wifi = median(sizes::S4M, "SP-WiFi");
    let att = median(sizes::S4M, "SP-AT&T");
    let mp = median(sizes::S4M, "MP-2 (coupled)");
    let best_sp = wifi.zip(att).map(|(w, a)| w.min(a));
    let checks6 = vec![
        Check::new(
            "Loaded WiFi is no longer reliably best at 512 KB+",
            matches!((wifi, att), (Some(w), Some(a)) if w > a * 0.8),
            format!("4MB SP-WiFi {wifi:?} vs SP-AT&T {att:?}"),
        ),
        Check::new(
            "MPTCP performs close to the best available path (4 MB)",
            matches!((mp, best_sp), (Some(mp), Some(best)) if mp <= best * 1.5),
            format!("MP {mp:?} vs best SP {best_sp:?}"),
        ),
    ];

    let share = study.share(sizes::S4M, "MP-2 (coupled)");
    let checks7 = vec![Check::new(
        "Lossy public WiFi pushes more traffic to cellular than home WiFi",
        share > 0.4,
        format!("4MB cellular share {share:.2}"),
    )];

    let hotspot_loss =
        SIZES.iter().map(|&s| paths.loss("WiFi", s)).sum::<f64>() / SIZES.len() as f64;
    let checks_t4 = vec![Check::new(
        "Hotspot WiFi loss ~3-5% (vs ~1.6% at home)",
        hotspot_loss > 2.0,
        format!("mean hotspot WiFi loss {hotspot_loss:.2}%"),
    )];

    study.render(
        Layout {
            time: Part {
                id: "fig6",
                title: "Amherst coffee shop: public WiFi under heavy load",
                table: "Figure 6 — Coffee-shop download time (s), public WiFi with ~18 customers",
                checks: checks6,
            },
            mean_column: false,
            share: Part {
                id: "fig7",
                title: "Coffee shop: fraction of traffic carried by the cellular path",
                table: "Figure 7 — Coffee shop: fraction of traffic on the cellular path",
                checks: checks7,
            },
            share_by: ShareBy::Config,
            path: Part {
                id: "tab4",
                title: "Coffee-shop path characteristics",
                table:
                    "Table 4 — Coffee-shop path characteristics (single-path): loss % and RTT ms",
                checks: checks_t4,
            },
        },
        paths,
    )
}
