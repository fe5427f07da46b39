//! # mpw-metrics — measurement analysis for the mpwild study
//!
//! The statistics and rendering the paper's tables and figures need:
//! sample mean ± standard error (Tables 2–7), box-and-whisker summaries
//! (the download-time figures), one streaming distribution — a log
//! histogram plus a sum — for the per-packet CCDFs with log-spaced series
//! (Figures 12–13) and fleet completion times, aligned ASCII and JSON
//! output, and handover metrics
//! (stall time, recovery latency, per-epoch traffic shares) for the mobility
//! scenarios of §7 (DESIGN.md §5.11). The tcptrace-style analysis of wire
//! captures lives in `mpw-capture`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fleet;
pub mod handover;
pub mod stats;
pub mod stream;
pub mod table;

pub use fleet::{Fairness, FleetReport, FlowRecord, GoodputTimeline};
pub use handover::{
    bytes_in_transition, epoch_shares, stall_report, EpochShare, EpochSpan, HandoverReport,
    Outage, PathBytes, PathEvent, PathEventKind, StallReport, StallSpan,
};
pub use stats::{quantile_sorted, BoxPlot, Summary};
pub use stream::{DistSummary, LogHistogram};
pub use table::{to_json, Table};
