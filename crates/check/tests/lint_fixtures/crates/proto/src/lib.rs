//! Fixture crate with planted violations for each lint wall. Never
//! compiled — the engine lexes it from disk in `tests/lint_fixtures.rs`.

#![forbid(unsafe_code)]

pub mod alloc_path;
pub mod state;
