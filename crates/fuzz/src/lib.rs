//! mpw-fuzz: a deterministic, structure-aware fuzzing engine for the
//! mpwild byte-facing surfaces (DESIGN.md §5.9).
//!
//! The stack's parsers are the trust boundary of the whole reproduction:
//! every simulated packet really is serialized and re-parsed, every capture
//! really is written and read back. This crate attacks those surfaces the
//! way the paper's middleboxes did — with mangled, truncated, and spliced
//! bytes — but deterministically and offline:
//!
//! * no libFuzzer, no sanitizer instrumentation, no network, no OS entropy:
//!   a campaign is a pure function of `(target, seed, iters)`;
//! * mutation is structure-aware (MPTCP option skeletons, pcapng block
//!   headers, boundary sequence numbers) and seeds are generated through
//!   the encoders under test, so mutants reach the deep decode paths;
//! * coverage is approximated by structural decode-path fingerprints
//!   ([`cover`]), which gate corpus growth;
//! * oracles are differential and totality-based ([`targets`]): parse
//!   totality, decode→encode→decode fixpoints, writer round-trips, the
//!   PR 2 capture/stack cross-check, and the PR 3 reassembly invariants;
//! * findings are shrunk by a greedy minimizer ([`minimize`]) and stored
//!   content-addressed ([`corpus`]) under `tests/fuzz-corpus/`, which
//!   `cargo test` replays as plain unit tests forever after.
//!
//! The static half of the same story is the panic wall `cargo clippy`
//! holds (DESIGN.md §5.12), which forbids panicking byte access in the
//! designated parser modules and panicking constructs throughout the six
//! stack crates; this crate is the dynamic half that proves the surviving
//! code is actually total.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod checksum_repair;
pub mod corpus;
pub mod cover;
pub mod dict;
pub mod engine;
pub mod generate;
pub mod minimize;
pub mod mutate;
pub mod rng;
pub mod targets;

pub use engine::{quiet_panics, run, EngineConfig, Finding, FuzzReport};
pub use targets::{analyze_base, execute, AnalyzeBase, Outcome, TargetKind};
