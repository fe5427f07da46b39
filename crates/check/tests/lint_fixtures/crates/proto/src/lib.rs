//! Fixture crate with one planted violation per lint wall. Never
//! compiled — the engine lexes it from disk in `tests/lint_fixtures.rs`.

#![forbid(unsafe_code)]

pub mod alloc_path;
pub mod conflated;
pub mod engine;
pub mod markers;
pub mod state;
pub mod wire;
