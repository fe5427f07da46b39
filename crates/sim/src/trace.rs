//! Shim for `benchmark/`, which names `trace::TraceLevel::Off` at
//! `World::new` and `run_measurement_traced` and may not be edited in the PR
//! that deleted the recorder this module held. The next `benchmark` PR drops
//! the argument and then this file. Per-segment truth is the wire capture
//! ([`crate::tap`]).

/// The one value the retired recorder's level argument still takes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceLevel {
    /// Nothing is recorded; there is no recorder.
    Off,
}
