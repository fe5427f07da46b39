//! # mpw-sim — deterministic discrete-event simulation substrate
//!
//! This crate is the execution substrate for the `mpwild` reproduction of
//! *"A Measurement-based Study of MultiPath TCP Performance over Wireless
//! Networks"* (IMC 2013). It provides:
//!
//! - an integer-nanosecond simulated clock ([`SimTime`], [`SimDuration`]),
//! - a deterministic event queue and agent model ([`World`], [`Agent`]),
//! - named reproducible RNG streams ([`RngFactory`], [`SimRng`]) and the
//!   campaign seed derivation ([`derive_seed`]),
//! - the worker pool independent worlds run on ([`run_jobs`]),
//! - the frame-tap interface wire capture attaches to ([`tap`]).
//!
//! The design follows the smoltcp idiom: protocol components are synchronous,
//! poll-able state machines; "the network" is an event queue. Determinism is
//! a hard requirement — the paper's methodology compares configurations
//! across repeated runs, which we reproduce with seeded Monte-Carlo
//! replications instead of wall-clock repetition.

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

mod engine;
pub mod jobs;
pub mod rng;
pub mod switch;
pub mod tap;
pub mod time;
pub mod trace;

pub use engine::{Agent, AgentId, Ctx, EngineStats, Event, Frame, RunOutcome, TimerHandle, World};
pub use jobs::run_jobs;
pub use rng::{derive_seed, RngFactory, SimRng};
pub use switch::{Classifier, Switch};
pub use time::{serialization_delay, SimDuration, SimTime};
