//! mpw-check: correctness tooling for the mpwild MPTCP stack.
//!
//! Two facilities, described in DESIGN.md §5.8:
//!
//! * **Invariant oracles** live in the protocol crates themselves
//!   (`TcpSocket::validate`, `MptcpConnection::validate`,
//!   `World::validate_timers`, the coupled-CC per-ACK increase oracle).
//!   They are always compiled; the event-processing paths run them under
//!   `debug_assertions` or the `check-invariants` feature, which this
//!   crate forwards to its dependencies. The feature is opt-in (a default
//!   would reach every binary of a `--workspace` build), so a release
//!   `explore` is built with `--features check-invariants` and exits 2
//!   without it.
//! * **[`explore`]** — a bespoke explicit-state model checker that
//!   exhaustively enumerates bounded adversarial network schedules (drop /
//!   reorder / duplicate / timer races) over a real client–server pair of
//!   [`mpw_mptcp::MptcpConnection`] machines, checking every invariant plus
//!   end-to-end data integrity and eventual delivery, and printing a
//!   shrunk, replayable counterexample trace on failure.
//!
//! The static walls are the compiler's and clippy's (DESIGN.md §5.12):
//! determinism (`disallowed_types`, every member and target), alloc
//! (`disallowed_methods` in the three data-path modules), panics
//! (`#![deny(clippy::…)]`, waived per site by a reasoned `#[expect]`),
//! sequence-number arithmetic (`SeqNum`'s field is private) and `unsafe`
//! (the workspace `unsafe_code` lint). `tests/workspace_lints.rs` pins the
//! attributes, the `clippy.toml` lists and the per-file waiver counts.
//! [`lint_engine`] is a no-op kept for the names `benchmark/` binds.

#![forbid(unsafe_code)]

pub mod explore;
pub mod lint_engine;
