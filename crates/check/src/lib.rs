//! mpw-check: correctness tooling for the mpwild MPTCP stack.
//!
//! Three facilities, described in DESIGN.md §5.8 and §5.12:
//!
//! * **Invariant oracles** live in the protocol crates themselves
//!   (`TcpSocket::validate`, `MptcpConnection::validate`,
//!   `World::validate_timers`, the coupled-CC per-ACK increase oracle).
//!   They are always compiled; the event-processing paths run them under
//!   `debug_assertions` or the `check-invariants` feature, which this
//!   crate's default features force onto its dependencies so the model
//!   checker checks them even in `--release`.
//! * **[`explore`]** — a bespoke explicit-state model checker that
//!   exhaustively enumerates bounded adversarial network schedules (drop /
//!   reorder / duplicate / timer races) over a real client–server pair of
//!   [`mpw_mptcp::MptcpConnection`] machines, checking every invariant plus
//!   end-to-end data integrity and eventual delivery, and printing a
//!   shrunk, replayable counterexample trace on failure.
//! * **[`lint_engine`]** — the two token walls (DESIGN.md §5.12) over a
//!   hand-rolled Rust lexer: `determinism` (wall clocks, ambient
//!   randomness, hash-ordered collections in the protocol crates) and
//!   `alloc` (no per-segment heap constructs on the data path). Neither has
//!   an opt-out; the `lint` binary emits the human and JSON reports CI
//!   gates on. The properties that need types are held by the tools that
//!   have them: a panic on the decode surface or in the six stack crates is
//!   a `cargo clippy` error (`#![deny(clippy::…)]`, waived per site by a
//!   reasoned `#[expect]`), raw arithmetic on a sequence number does not
//!   type-check outside `tcp/seq.rs` (`SeqNum`'s field is private), and
//!   `unsafe` is denied by the workspace `unsafe_code` lint every member
//!   inherits. `tests/workspace_lints.rs` pins those attributes, the
//!   `clippy.toml` macro list and the per-file waiver counts.

#![forbid(unsafe_code)]

pub mod explore;
pub mod lint_engine;
