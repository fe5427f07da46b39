//! # mpw-scenario — deterministic mobility/handover scenarios
//!
//! The paper's subject is *wireless* MPTCP: WiFi that fades when the user
//! walks away, links that die and come back. Steady-state campaigns cannot
//! exercise any of that, so this crate turns the simulator into a mobility
//! testbed: a [`Scenario`] is a declarative, serde-round-trippable list of
//! timed events that a [`ScenarioDriver`] applies to both directions of a
//! path in the running world at exact sim times through the `LinkAgent`
//! mutators. The vocabulary is what the handover artifact and the benchmark
//! script use: the composite `WifiFade`, `SetRate`, `SetLoss`,
//! `LinkDown`/`LinkUp`, and the MP_PRIO demote/restore trigger
//! `SetBackup`.
//!
//! Determinism is the load-bearing property: compilation
//! ([`compile::compile`]) is pure arithmetic, application uses the
//! `run_until`-slicing pattern that preserves exact event order, and no
//! scenario machinery draws from any RNG. A (scenario file, seed) pair
//! therefore reproduces a run — and all its metrics — byte for byte.
//!
//! Scenario files are accepted as JSON or a hand-rolled TOML subset
//! ([`parse`]); both land in the same model, and the parser is total over
//! arbitrary input (it is part of the strict decode surface clippy holds
//! panic-free and has a structure-aware fuzz target).

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

pub mod compile;
pub mod driver;
pub mod error;
pub mod model;
pub mod parse;

pub use compile::{compile, CompiledOp, LinkOp, Op, Timeline};
pub use driver::ScenarioDriver;
pub use error::ScenarioError;
pub use model::{Action, Epoch, Scenario, ScenarioBuilder, TimedEvent, MAX_STEPS};
pub use parse::{from_json, from_str, from_toml, to_json};
