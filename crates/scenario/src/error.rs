//! Scenario errors: layered so callers can tell syntax from semantics.

use std::fmt;

/// Why a scenario could not be parsed, validated, compiled, or applied.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScenarioError {
    /// The input text was not well-formed TOML.
    Syntax {
        /// 1-based line of the first offending token.
        line: usize,
        /// What went wrong.
        msg: String,
    },
    /// The text was well-formed but did not describe a `Scenario`.
    Shape(String),
    /// An event fails structural validation.
    InvalidEvent {
        /// Index into `Scenario::events`.
        index: usize,
        /// The event's timestamp, for error messages.
        at_ms: u64,
        /// What is wrong with it.
        what: String,
    },
    /// An event references a path the harness did not bind.
    PathOutOfRange {
        /// The path index the event asked for.
        path: usize,
        /// How many paths are bound.
        bound: usize,
    },
    /// A bound agent id does not resolve to a `LinkAgent` in the world.
    BadBinding {
        /// The path whose binding is broken.
        path: usize,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Syntax { line, msg } => write!(f, "syntax error at line {line}: {msg}"),
            ScenarioError::Shape(msg) => write!(f, "not a scenario: {msg}"),
            ScenarioError::InvalidEvent { index, at_ms, what } => {
                write!(f, "invalid event #{index} (at {at_ms} ms): {what}")
            }
            ScenarioError::PathOutOfRange { path, bound } => {
                write!(f, "event references path {path} but only {bound} path(s) are bound")
            }
            ScenarioError::BadBinding { path } => {
                write!(f, "binding for path {path} is not a LinkAgent")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}
