//! Small-flow measurements (§4.1): Figure 4 (download times), Figure 5
//! (cellular share), Table 3 (path characteristics). AT&T LTE + home WiFi.

use mpw_link::Carrier;

use crate::artifacts::study::{self, Layout, Part, ShareBy, Study};
use crate::artifacts::{Artifact, Check};
use crate::campaign::{run_campaign, Scale};
use crate::config::{sizes, WifiKind};

const SIZES: [u64; 4] = [sizes::S8K, sizes::S64K, sizes::S512K, sizes::S4M];

/// Run the small-flow campaign and render fig4, fig5, tab3.
pub fn run(scale: Scale, seed: u64, workers: usize) -> Vec<Artifact> {
    let scenarios = study::grid(
        WifiKind::Home,
        Carrier::Att,
        &SIZES,
        &study::sp_and_every_mp(),
    );
    let ms = run_campaign(&scenarios, scale, seed, workers);
    let study = Study::new(&ms, study::by_config);
    let paths = study.path_stats(&study::WIFI_AND_ATT, &SIZES);

    let median = |size: u64, lbl: &str| study.cell(size, lbl).map(|c| c.time.median);
    // "AT&T performs the worst when the file size is small (8 KB)."
    let att = median(sizes::S8K, "SP-AT&T");
    let wifi = median(sizes::S8K, "SP-WiFi");
    // "4-path MPTCP outperforms 2-path, which outperforms single path" as
    // size grows (4 MB).
    let mp4 = median(sizes::S4M, "MP-4 (coupled)");
    let mp2 = median(sizes::S4M, "MP-2 (coupled)");
    let spw = median(sizes::S4M, "SP-WiFi");
    // "Different congestion controllers do not differ much for small
    // flows." Individual runs can eat a tail-loss RTO (kernel 3.5 had no
    // tail-loss probe; the paper's own 64 KB boxes have long whiskers), so
    // compare lower quartiles, which track the controller rather than loss
    // luck.
    let q1 = |lbl: &str| study.cell(sizes::S64K, lbl).map(|c| c.time.q1);
    let c = q1("MP-2 (coupled)");
    let o = q1("MP-2 (olia)");
    let r = q1("MP-2 (reno)");
    let checks4 = vec![
        Check::new(
            "8 KB: SP-AT&T is slowest (RTT-bound)",
            matches!((att, wifi), (Some(att), Some(wifi)) if att > wifi),
            format!("SP-AT&T {att:?} vs SP-WiFi {wifi:?}"),
        ),
        Check::new(
            "4 MB: MP-4 ≤ MP-2 < SP-WiFi",
            matches!((mp4, mp2, spw), (Some(a), Some(b), Some(c)) if a <= b * 1.15 && b < c),
            format!("MP-4 {mp4:?}, MP-2 {mp2:?}, SP-WiFi {spw:?}"),
        ),
        Check::new(
            "64 KB: controllers indistinguishable (lower quartile)",
            match (c, o, r) {
                (Some(c), Some(o), Some(r)) => c.max(o).max(r) <= c.min(o).min(r) * 1.5 + 0.02,
                _ => false,
            },
            format!("q1: coupled {c:?}, olia {o:?}, reno {r:?}"),
        ),
    ];

    let mp2_8k = study.share(sizes::S8K, "MP-2 (coupled)");
    let mp2_4m = study.share(sizes::S4M, "MP-2 (coupled)");
    let mp4_8k = study.share(sizes::S8K, "MP-4 (coupled)");
    let checks5 = vec![
        Check::new(
            "Cellular share ~0 at 8 KB, grows toward ~50% at 4 MB (MP-2)",
            mp2_8k < 0.2 && mp2_4m > 0.3,
            format!("8KB {mp2_8k:.2} → 4MB {mp2_4m:.2}"),
        ),
        Check::new(
            "4-path uses cellular even less than 2-path for tiny files",
            mp4_8k <= mp2_8k + 0.05,
            format!("MP-4 {mp4_8k:.2} vs MP-2 {mp2_8k:.2} at 8KB"),
        ),
    ];

    let wifi_rtt_8k = paths.rtt("WiFi", sizes::S8K);
    let att_rtt_8k = paths.rtt("AT&T", sizes::S8K);
    let att_rtt_4m = paths.rtt("AT&T", sizes::S4M);
    let checks_t3 = vec![
        Check::new(
            "Base RTTs: WiFi ~20-40 ms, AT&T ~60 ms",
            (10.0..45.0).contains(&wifi_rtt_8k) && (60.0 * 0.7..60.0 * 1.5).contains(&att_rtt_8k),
            format!("WiFi 8KB {wifi_rtt_8k:.1} ms, AT&T 8KB {att_rtt_8k:.1} ms"),
        ),
        Check::new(
            "AT&T RTT inflates by ~2x at 4 MB (Table 3: 61→141 ms)",
            att_rtt_4m > att_rtt_8k * 1.4,
            format!("AT&T 8KB {att_rtt_8k:.1} → 4MB {att_rtt_4m:.1} ms"),
        ),
    ];

    study.render(
        Layout {
            time: Part {
                id: "fig4",
                title: "Small-flow download time across subflow counts and controllers",
                table: "Figure 4 — Small-flow download time (s): min [q1 |median| q3] max",
                checks: checks4,
            },
            mean_column: false,
            share: Part {
                id: "fig5",
                title: "Small flows: fraction of traffic carried by the cellular path",
                table: "Figure 5 — Small flows: fraction of traffic on the cellular path",
                checks: checks5,
            },
            share_by: ShareBy::Config,
            path: Part {
                id: "tab3",
                title: "Small-flow path characteristics",
                table: "Table 3 — Small-flow path characteristics (single-path): loss % and RTT ms",
                checks: checks_t3,
            },
        },
        paths,
    )
}
