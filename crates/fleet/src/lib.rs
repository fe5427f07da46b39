//! # mpw-fleet — many-flow, multi-host workload engine
//!
//! The paper measures one MPTCP download at a time; the wireless paths it
//! measures over are in reality shared by many concurrent users. This crate
//! is the scale substrate that closes that gap (DESIGN.md §5.14): it
//! populates a single deterministic world with N client hosts — WiFi-only,
//! LTE-only, and multipath, drawn from seeded mix weights — that all
//! multiplex two *shared* drop-tail access links against one server, so
//! bufferbloat and loss emerge from aggregate load instead of per-flow
//! configuration.
//!
//! It also holds the host-level pieces every harness shares, the
//! single-flow testbed of `mpw-experiments` included: the [`Topology`]
//! builder, the flow driver ([`open_flow`], [`drive()`], [`quiescent`]) and
//! the harvest ([`client_flow`], [`sender_subflows`]). A client host opens
//! exactly one flow, as each of the paper's measurements is one download,
//! so the driver and the harvest name a client, never a slot.
//!
//! Three layers on top of those:
//!
//! - [`FleetSpec`] — the declarative description: population size and path
//!   mix, the access networks (`mpw-link` presets), an arrival process
//!   (staggered or open-loop Poisson-by-inversion — both pure functions of
//!   the seed), the per-client workload (paper download sizes or the
//!   Table-7 streaming pattern).
//! - [`run_fleet`] — builds the world and drives it with a sampling tick,
//!   harvesting one [`FlowRecord`](mpw_metrics::FlowRecord) per flow and
//!   folding them into a [`FleetReport`](mpw_metrics::FleetReport).
//! - [`FleetCampaign`] / [`run_campaign`] — Monte-Carlo replications across
//!   a worker pool. Aggregation is integer-exact (see `mpw_metrics::fleet`),
//!   so any worker count produces byte-identical reports — the CI gate
//!   compares JSON bytes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod campaign;
pub mod drive;
pub mod engine;
pub mod harvest;
pub mod spec;
pub mod topology;

pub use campaign::{run_campaign, FleetCampaign};
pub use drive::{drive, open_flow, quiescent, Drive};
pub use engine::{run_fleet, run_fleet_windowed, FleetRun};
pub use harvest::{client_flow, sender_subflows, ClientFlow, SenderSubflow};
pub use topology::{Topology, SERVER_ADDR, SERVER_PORT};
pub use spec::{Arrival, ClientClass, FleetSpec, FleetWorkload, PathMix, WifiKind};
