//! What the paper's size × configuration download campaigns share (§4
//! baseline, §4.1 small flows, §4.1.1 coffee shop, §4.2 large flows). Each
//! runs a grid of afternoon, warmed-up scenarios and reports it as the same
//! triplet over one JSON payload: a download-time box plot per size ×
//! configuration, the cellular share of the multipath cells, and the
//! single-path loss/RTT table.
//!
//! A study supplies its grid ([`grid`]), its row labels and order (the key
//! given to [`Study::new`], the path list given to [`Study::path_stats`])
//! and its shape checks, which read the rows computed here
//! ([`Study::cell`], [`Study::share`], [`PathStats`]) instead of
//! re-deriving them; [`Study::render`] does the rest.

use mpw_link::{Carrier, DayPeriod};
use mpw_metrics::{BoxPlot, Summary, Table};
use mpw_mptcp::Coupling;
use serde::Serialize;

use crate::artifacts::{Artifact, Check};
use crate::campaign::group_by;
use crate::config::{sizes, FlowConfig, Scenario, WifiKind};
use crate::measure::Measurement;

/// The paper's standard measurement: afternoon load, cellular antenna
/// warmed up by pings.
pub(crate) fn scenario(wifi: WifiKind, carrier: Carrier, flow: FlowConfig, size: u64) -> Scenario {
    Scenario {
        wifi,
        carrier,
        flow,
        size,
        period: DayPeriod::Afternoon,
        warmup: true,
    }
}

/// `sizes × flows` over one WiFi network and carrier, size-major (campaign
/// seeds derive from the position in this order).
pub(crate) fn grid(
    wifi: WifiKind,
    carrier: Carrier,
    sizes: &[u64],
    flows: &[FlowConfig],
) -> Vec<Scenario> {
    let cell = |&size| {
        flows
            .iter()
            .map(move |&flow| scenario(wifi, carrier, flow, size))
    };
    sizes.iter().flat_map(cell).collect()
}

/// Both single paths, then 2- and 4-path MPTCP under every controller: the
/// legend of the small- and large-flow figures.
pub(crate) fn sp_and_every_mp() -> Vec<FlowConfig> {
    let mut v = vec![FlowConfig::SpWifi, FlowConfig::SpCellular];
    for coupling in Coupling::ALL {
        v.push(FlowConfig::mp2(coupling));
        v.push(FlowConfig::mp4(coupling));
    }
    v
}

/// Path-table rows `(name, cell label)` of a study over home or hotspot WiFi
/// and AT&T.
pub(crate) const WIFI_AND_ATT: [(&str, &str); 2] = [("WiFi", "SP-WiFi"), ("AT&T", "SP-AT&T")];

/// Download times of the runs that completed, in run order.
pub(crate) fn secs(ms: &[&Measurement]) -> Vec<f64> {
    ms.iter().filter_map(|m| m.download_time_s).collect()
}

/// Row key of a study whose rows are the figure-legend labels in
/// alphabetical order.
pub(crate) fn by_config(m: &Measurement) -> (u8, String) {
    (0, m.scenario.flow.label(m.scenario.carrier))
}

/// One size × configuration cell with its summaries, computed once.
pub(crate) struct Cell<'a> {
    pub(crate) size: u64,
    pub(crate) label: String,
    /// The cell's measurements in campaign order.
    pub(crate) runs: Vec<&'a Measurement>,
    /// Box plot of [`secs`]: a run that never completed is not counted.
    pub(crate) time: BoxPlot,
    /// Mean ± se of the same times.
    pub(crate) time_mean: Summary,
    /// Cellular share over every run.
    pub(crate) share: Summary,
}

/// A campaign's measurements grouped into cells keyed `(size, label)`.
pub(crate) struct Study<'a> {
    cells: Vec<Cell<'a>>,
}

/// Name column of the cellular-share table.
pub(crate) enum ShareBy {
    /// The cell's label under a `config` header.
    Config,
    /// The cell's carrier under a `carrier` header (baseline: one
    /// multipath configuration per carrier).
    Carrier,
}

/// One artifact of the triplet: its id and title, the title of its table,
/// its shape checks.
pub(crate) struct Part<'t> {
    pub(crate) id: &'static str,
    pub(crate) title: &'t str,
    pub(crate) table: &'t str,
    pub(crate) checks: Vec<Check>,
}

/// How a study prints: the three artifacts and the two places where the
/// campaigns' tables differ.
pub(crate) struct Layout<'t> {
    /// The download-time table.
    pub(crate) time: Part<'t>,
    /// Whether it carries a `mean±se` column beside the box plot.
    pub(crate) mean_column: bool,
    /// The cellular-share table of the multipath cells.
    pub(crate) share: Part<'t>,
    pub(crate) share_by: ShareBy,
    /// The single-path loss/RTT table.
    pub(crate) path: Part<'t>,
}

type ShareRow = (String, String, Summary);
type PathRow = (String, String, Summary, Summary);

#[derive(Serialize)]
struct StudyJson {
    download_time_rows: Vec<(String, String, BoxPlot)>,
    cellular_share_rows: Vec<ShareRow>,
    path_stats_rows: Vec<PathRow>,
}

/// [`StudyJson`] with the mean ± se column (the vendored `serde_derive`
/// has no generics).
#[derive(Serialize)]
struct StudyJsonWithMean {
    download_time_rows: Vec<(String, String, BoxPlot, Summary)>,
    cellular_share_rows: Vec<ShareRow>,
    path_stats_rows: Vec<PathRow>,
}

/// Loss and RTT of the single-path cells: `(path name, size, loss %, RTT
/// ms)` rows in the caller's order.
pub(crate) struct PathStats {
    rows: Vec<PathRow>,
}

impl PathStats {
    fn row(&self, name: &str, size: u64) -> Option<&PathRow> {
        let size = sizes::label(size);
        self.rows.iter().find(|r| r.0 == name && r.1 == size)
    }

    /// Mean per-flow loss rate (%) of a row; 0 when there is none.
    pub(crate) fn loss(&self, name: &str, size: u64) -> f64 {
        self.row(name, size).map_or(0.0, |r| r.2.mean)
    }

    /// Mean per-flow RTT (ms) of a row; 0 when there is none.
    pub(crate) fn rtt(&self, name: &str, size: u64) -> f64 {
        self.row(name, size).map_or(0.0, |r| r.3.mean)
    }
}

impl<'a> Study<'a> {
    /// Group `ms` into cells. `key` gives a run's `(rank, label)`; rows come
    /// out ordered by `(size, rank, label)`.
    pub(crate) fn new(
        ms: &'a [Measurement],
        key: impl Fn(&Measurement) -> (u8, String),
    ) -> Study<'a> {
        let grouped = group_by(ms, |m| {
            let (rank, label) = key(m);
            (m.scenario.size, rank, label)
        });
        let cells = grouped
            .into_iter()
            .map(|((size, _, label), runs)| {
                let times = secs(&runs);
                let shares: Vec<f64> = runs.iter().map(|m| m.cellular_share).collect();
                Cell {
                    size,
                    label,
                    time: BoxPlot::of(&times),
                    time_mean: Summary::of(&times),
                    share: Summary::of(&shares),
                    runs,
                }
            })
            .collect();
        Study { cells }
    }

    /// The cell of `size` labelled `label`.
    pub(crate) fn cell(&self, size: u64, label: &str) -> Option<&Cell<'a>> {
        self.cells
            .iter()
            .find(|c| c.size == size && c.label == label)
    }

    /// Mean cellular share of a cell; 0 when there is none.
    pub(crate) fn share(&self, size: u64, label: &str) -> f64 {
        self.cell(size, label).map_or(0.0, |c| c.share.mean)
    }

    /// Per-flow loss and RTT of the cells labelled `paths[i].1`, reported
    /// under the name `paths[i].0`, name-major over `sizes`.
    pub(crate) fn path_stats(&self, paths: &[(&str, &str)], sizes: &[u64]) -> PathStats {
        let mut rows = Vec::new();
        for &(name, label) in paths {
            for &size in sizes {
                let runs = self.cell(size, label).map_or(&[][..], |c| &c.runs);
                let subflows = || runs.iter().flat_map(|m| &m.subflows);
                let losses: Vec<f64> = subflows().map(|s| s.loss_pct()).collect();
                let rtts: Vec<f64> = subflows().filter_map(|s| s.mean_rtt_ms()).collect();
                rows.push((
                    name.to_string(),
                    sizes::label(size),
                    Summary::of(&losses),
                    Summary::of(&rtts),
                ));
            }
        }
        PathStats { rows }
    }

    /// Render the triplet — the three tables of `layout`, the last over
    /// `paths` — and the one JSON payload all three artifacts carry.
    pub(crate) fn render(&self, layout: Layout, paths: PathStats) -> Vec<Artifact> {
        let Layout {
            time,
            mean_column,
            share,
            share_by,
            path,
        } = layout;
        let mut headers = vec!["size", "config", "download time (s)"];
        headers.extend(mean_column.then_some("mean±se"));
        headers.push("n");
        let mut time_table = Table::new(time.table, &headers);
        for c in &self.cells {
            let mut row = vec![sizes::label(c.size), c.label.clone(), c.time.render()];
            row.extend(mean_column.then(|| c.time_mean.pm()));
            row.push(c.time.n.to_string());
            time_table.row(row);
        }

        let (header, name): (_, fn(&Cell) -> String) = match share_by {
            ShareBy::Config => ("config", |c| c.label.clone()),
            ShareBy::Carrier => ("carrier", |c| c.runs[0].scenario.carrier.name().to_string()),
        };
        let mut share_table = Table::new(share.table, &["size", header, "cellular share", "n"]);
        let mut cellular_share_rows = Vec::new();
        for c in self
            .cells
            .iter()
            .filter(|c| c.runs[0].scenario.flow.is_mptcp())
        {
            let s = c.share;
            share_table.row(vec![
                sizes::label(c.size),
                name(c),
                format!("{:.3}±{:.3}", s.mean, s.std_err),
                s.n.to_string(),
            ]);
            cellular_share_rows.push((sizes::label(c.size), name(c), s));
        }

        let mut path_table = Table::new(path.table, &["path", "size", "loss (%)", "RTT (ms)"]);
        for (name, size, loss, rtt) in &paths.rows {
            path_table.row(vec![
                name.clone(),
                size.clone(),
                loss.pm_or_tilde(0.03),
                rtt.pm(),
            ]);
        }

        let json = if mean_column {
            mpw_metrics::to_json(&StudyJsonWithMean {
                download_time_rows: self
                    .cells
                    .iter()
                    .map(|c| (sizes::label(c.size), c.label.clone(), c.time, c.time_mean))
                    .collect(),
                cellular_share_rows,
                path_stats_rows: paths.rows,
            })
        } else {
            mpw_metrics::to_json(&StudyJson {
                download_time_rows: self
                    .cells
                    .iter()
                    .map(|c| (sizes::label(c.size), c.label.clone(), c.time))
                    .collect(),
                cellular_share_rows,
                path_stats_rows: paths.rows,
            })
        };
        triplet(
            json,
            [
                (time.id, time.title, time_table.render(), time.checks),
                (share.id, share.title, share_table.render(), share.checks),
                (path.id, path.title, path_table.render(), path.checks),
            ],
        )
    }
}

/// Three artifacts `(id, title, text, checks)` over one shared JSON payload.
pub(crate) fn triplet(
    json: String,
    parts: [(&'static str, &str, String, Vec<Check>); 3],
) -> Vec<Artifact> {
    let artifact = |(id, title, text, checks): (_, &str, _, _)| Artifact {
        id,
        title: title.into(),
        text,
        json: json.clone(),
        checks,
    };
    parts.into_iter().map(artifact).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::SubflowMeasurement;
    use mpw_link::Technology;
    use mpw_metrics::DistSummary;

    /// A hand-built run: `time` of `None` is a download that never completed.
    fn run(size: u64, flow: FlowConfig, time: Option<f64>, share: f64) -> Measurement {
        let mut rtt = DistSummary::new();
        rtt.push(40.0);
        Measurement {
            scenario: scenario(WifiKind::Home, Carrier::Att, flow, size),
            seed: 0,
            download_time_s: time,
            bytes: size,
            cellular_share: share,
            subflows: vec![SubflowMeasurement {
                client: mpw_tcp::Endpoint::default(),
                if_index: 0,
                technology: Technology::WifiHome,
                delivered_bytes: size,
                data_segs_sent: 100,
                rexmit_segs: 2,
                rtt,
                established: true,
            }],
            ofo: DistSummary::new(),
            fell_back: false,
        }
    }

    fn campaign() -> Vec<Measurement> {
        let mp2 = FlowConfig::mp2(Coupling::Coupled);
        vec![
            run(sizes::S4M, mp2, Some(2.0), 0.6),
            run(sizes::S8K, FlowConfig::SpWifi, Some(0.1), 0.0),
            run(sizes::S8K, mp2, Some(0.2), 0.1),
            run(sizes::S8K, mp2, None, 0.3),
            run(sizes::S8K, FlowConfig::SpCellular, Some(0.3), 1.0),
        ]
    }

    fn layout(mean_column: bool, share_by: ShareBy, checks: Vec<Check>) -> Layout<'static> {
        let part = |id| Part {
            id,
            title: "title",
            table: "table",
            checks: checks.clone(),
        };
        Layout {
            time: part("fig"),
            mean_column,
            share: part("share"),
            share_by,
            path: part("tab"),
        }
    }

    fn json_rows(artifact: &Artifact, key: &str) -> usize {
        let v: serde_json::Value = serde_json::from_str(&artifact.json).expect("valid json");
        v.get(key)
            .and_then(|rows| rows.as_array())
            .expect(key)
            .len()
    }

    #[test]
    fn rows_come_out_in_the_callers_key_order() {
        let ms = campaign();
        let labels = |study: &Study| -> Vec<(u64, String)> {
            study
                .cells
                .iter()
                .map(|c| (c.size, c.label.clone()))
                .collect()
        };
        let alphabetical = Study::new(&ms, by_config);
        let want = [
            (sizes::S8K, "MP-2 (coupled)"),
            (sizes::S8K, "SP-AT&T"),
            (sizes::S8K, "SP-WiFi"),
            (sizes::S4M, "MP-2 (coupled)"),
        ];
        assert_eq!(labels(&alphabetical), want.map(|(s, l)| (s, l.to_string())));
        // A rank overrides the alphabet; size stays the major key.
        let single_paths_first =
            Study::new(&ms, |m| (m.scenario.flow.is_mptcp() as u8, by_config(m).1));
        let want = [
            (sizes::S8K, "SP-AT&T"),
            (sizes::S8K, "SP-WiFi"),
            (sizes::S8K, "MP-2 (coupled)"),
            (sizes::S4M, "MP-2 (coupled)"),
        ];
        assert_eq!(
            labels(&single_paths_first),
            want.map(|(s, l)| (s, l.to_string()))
        );
    }

    #[test]
    fn a_run_that_never_completed_is_left_out_of_n() {
        let ms = campaign();
        let study = Study::new(&ms, by_config);
        let cell = study.cell(sizes::S8K, "MP-2 (coupled)").expect("cell");
        assert_eq!(cell.runs.len(), 2);
        assert_eq!((cell.time.n, cell.time_mean.n), (1, 1));
        assert_eq!(cell.time.median, 0.2);
        // The share is over every run, completed or not.
        assert_eq!(cell.share.n, 2);
        assert!((study.share(sizes::S8K, "MP-2 (coupled)") - 0.2).abs() < 1e-12);
        assert_eq!(study.share(sizes::S8K, "MP-4 (coupled)"), 0.0);
        assert!(study.cell(sizes::S4M, "SP-WiFi").is_none());
    }

    #[test]
    fn share_table_skips_single_path_cells() {
        let ms = campaign();
        let study = Study::new(&ms, by_config);
        let paths = study.path_stats(&[("WiFi", "SP-WiFi")], &[sizes::S8K]);
        let out = study.render(layout(false, ShareBy::Config, Vec::new()), paths);
        assert_eq!(json_rows(&out[0], "download_time_rows"), 4);
        assert_eq!(json_rows(&out[0], "cellular_share_rows"), 2);
        assert!(out[1].text.contains("MP-2 (coupled)"));
        assert!(!out[1].text.contains("SP-"), "{}", out[1].text);
    }

    #[test]
    fn path_stats_follow_the_callers_order_and_report_missing_cells_empty() {
        let ms = campaign();
        let study = Study::new(&ms, by_config);
        let order = [("Comcast", "SP-WiFi"), ("AT&T", "SP-AT&T")];
        let paths = study.path_stats(&order, &[sizes::S4M, sizes::S8K]);
        let names: Vec<(&str, &str)> = paths
            .rows
            .iter()
            .map(|r| (r.0.as_str(), r.1.as_str()))
            .collect();
        let want = [
            ("Comcast", "4MB"),
            ("Comcast", "8KB"),
            ("AT&T", "4MB"),
            ("AT&T", "8KB"),
        ];
        assert_eq!(names, want);
        assert_eq!(paths.loss("Comcast", sizes::S8K), 2.0);
        assert_eq!(paths.rtt("AT&T", sizes::S8K), 40.0);
        // No single-path run at 4 MB: an empty row, and 0 to the checks.
        assert_eq!(paths.rows[0].2.n, 0);
        assert_eq!(paths.rtt("Comcast", sizes::S4M), 0.0);
    }

    #[test]
    fn triplet_carries_one_json_with_the_three_keys() {
        let ms = campaign();
        let study = Study::new(&ms, by_config);
        for mean_column in [false, true] {
            let paths = study.path_stats(&[("WiFi", "SP-WiFi")], &[sizes::S8K]);
            let checks = vec![Check::new("claim", true, "detail")];
            let out = study.render(layout(mean_column, ShareBy::Carrier, checks), paths);
            let ids: Vec<&str> = out.iter().map(|a| a.id).collect();
            assert_eq!(ids, ["fig", "share", "tab"]);
            assert!(out
                .iter()
                .all(|a| a.json == out[0].json && a.checks.len() == 1));
            let v: serde_json::Value = serde_json::from_str(&out[0].json).expect("valid json");
            let keys: Vec<&str> = v
                .as_object()
                .expect("object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(
                keys,
                [
                    "download_time_rows",
                    "cellular_share_rows",
                    "path_stats_rows"
                ]
            );
            assert_eq!(out[0].text.contains("mean±se"), mean_column);
            // Under a `carrier` header the share rows are named by carrier.
            assert!(out[1].text.contains("carrier") && out[1].text.contains("AT&T"));
        }
    }
}
