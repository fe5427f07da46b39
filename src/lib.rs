//! # mpwild — *MPTCP over wireless, in simulation*
//!
//! A full reproduction of **"A Measurement-based Study of MultiPath TCP
//! Performance over Wireless Networks"** (Chen, Lim, Gibbens, Nahum,
//! Khalili, Towsley — IMC 2013), built as a deterministic discrete-event
//! system in Rust:
//!
//! - [`sim`] — the simulation engine (clock, event queue, RNG streams, frame
//!   taps),
//! - [`link`] — calibrated WiFi/LTE/EVDO path models (bufferbloat, burst
//!   loss, HARQ-style local retransmission, RRC, cross traffic),
//! - [`tcp`] — a from-scratch sans-IO TCP (New Reno, SACK, RFC 6298, window
//!   scaling) with the MPTCP option wire format,
//! - [`mptcp`] — the MPTCP connection layer: MP_CAPABLE/MP_JOIN/ADD_ADDR,
//!   DSS reassembly with out-of-order-delay instrumentation, minRTT
//!   scheduling, and the coupled/OLIA/reno controllers,
//! - [`http`] — the paper's workloads: wget downloads and streaming sessions,
//! - [`metrics`] — statistics, CCDFs, streaming summaries and tables,
//! - [`capture`] — pcapng wire capture via link taps plus a black-box
//!   tcptrace-style analyzer that re-derives the headline metrics from the
//!   captured bytes alone,
//! - [`experiments`] — the paper's methodology and one driver per
//!   table/figure (regenerate anything with the `repro` binary).
//!
//! ## Quickstart
//!
//! ```
//! use mpwild::experiments::{run_measurement, FlowConfig, Scenario, WifiKind};
//! use mpwild::link::{Carrier, DayPeriod};
//! use mpwild::mptcp::Coupling;
//!
//! let scenario = Scenario {
//!     wifi: WifiKind::Home,
//!     carrier: Carrier::Att,
//!     flow: FlowConfig::mp2(Coupling::Coupled),
//!     size: 512 * 1024,
//!     period: DayPeriod::Evening,
//!     warmup: true,
//! };
//! let m = run_measurement(&scenario, 42);
//! assert_eq!(m.bytes, 512 * 1024);
//! println!(
//!     "512 KB over WiFi+LTE: {:.3}s, {:.0}% via cellular",
//!     m.download_time_s.unwrap(),
//!     m.cellular_share * 100.0
//! );
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use mpw_capture as capture;
pub use mpw_experiments as experiments;
pub use mpw_fleet as fleet;
pub use mpw_http as http;
pub use mpw_link as link;
pub use mpw_metrics as metrics;
pub use mpw_mptcp as mptcp;
pub use mpw_sim as sim;
pub use mpw_tcp as tcp;
