//! # mpw-bench — benchmark harness for the mpwild study
//!
//! The benches live in `benches/`:
//!
//! - `figures` — one Criterion bench per paper table/figure group; each
//!   iteration regenerates the artifact at quick scale and asserts its
//!   shape checks still pass.
//! - `engine` — micro-benchmarks of the hot paths: event queue, wire
//!   encode/parse, reassembly, and a full simulated MPTCP transfer with
//!   capture taps off and on.
//! - `ablations` — timed design-choice ablations (§3.1 knobs + substrate
//!   substitutions).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

/// Paper artifact groups benched by `benches/figures.rs`, in run order.
pub fn benched_groups() -> Vec<&'static str> {
    mpw_experiments::groups().iter().map(|g| g.name).collect()
}
