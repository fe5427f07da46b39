//! # mpw-link — wireless and wired path models
//!
//! The network substrate of the `mpwild` study: everything between the
//! client's interfaces and the server's NICs. Links are drop-tail queues
//! with configurable (possibly Markov-modulated) service rates, channel loss
//! (Bernoulli or bursty Gilbert–Elliott), optional link-layer ARQ (cellular
//! local retransmission, which hides loss from TCP at the cost of delay),
//! RRC promotion gating, and propagation with order-preserving jitter.
//!
//! [`presets`] contains per-carrier parameterizations calibrated against the
//! paper's Tables 2–5, and [`builder`] wires a preset into a
//! [`mpw_sim::World`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// The panic wall (DESIGN.md §5.12), held by `cargo clippy`: a site that must
// abort carries an `#[expect(clippy::…, reason = "…")]` saying why.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod background;
pub mod builder;
pub mod link;
pub mod loss;
pub mod presets;
pub mod rate;

pub use background::{OnOffConfig, BACKGROUND_META};
pub use builder::{build_path, BuiltPath};
pub use link::{ArqConfig, Jitter, LinkAgent, LinkConfig, LinkStats, LinkTap, NullSink, RrcConfig};
pub use loss::{GilbertElliott, LossModel};
pub use presets::{
    att_lte, sprint_evdo, verizon_lte, wifi_home, wifi_hotspot, wired_lan, Carrier, DayPeriod,
    PathSpec, Technology,
};
pub use rate::{RateLevel, RateProcess};
