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
//! * **[`lint_engine`]** — the analysis engine behind every lint wall
//!   (DESIGN.md §5.12): a hand-rolled Rust lexer, parser, name resolution
//!   and the handler-exit analysis, grounding four rules — `determinism`
//!   (wall clocks, ambient randomness, hash-ordered collections in the
//!   protocol crates), `panic` (a strict no-panic decode surface in the
//!   designated parser modules *and* typed call-graph panic-reachability
//!   from the protocol entry points), `handler-oracle` (every handler exit
//!   runs the invariant oracle) and `alloc` (no per-segment heap constructs
//!   on the data path). Two further properties are the compiler's: raw
//!   arithmetic on a sequence number does not type-check outside
//!   `tcp/seq.rs` (`SeqNum`'s field is private), and `unsafe` is denied by
//!   the workspace `unsafe_code` lint every member inherits.
//!   Opt-outs are per-token `// lint: allow-<rule>(reason)` markers,
//!   counted and ratcheted by `LINT_budgets.json`. The `lint` binary
//!   emits the human and JSON reports CI gates on.
//!
//! The engine replaced three earlier line-based textual scanners
//! (`lint`, `parser_lint`, `alloc_lint`), whose `contains()` scans
//! false-positived on strings/comments, skipped whole lines on one
//! opt-out marker, and missed multi-line constructs; the fixture suite in
//! `tests/lint_fixtures.rs` keeps regression tests for each of those
//! soundness bugs.

#![forbid(unsafe_code)]

pub mod explore;
pub mod lint_engine;
