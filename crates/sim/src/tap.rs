//! Frame-level capture taps (the simulator's `tcpdump` attachment points).
//!
//! A [`FrameObserver`] sees the fully-encoded wire bytes exactly as a host
//! sends or receives them — the black-box view a packet sniffer on that
//! host would get, and the run's only per-segment record. Hosts and links
//! expose optional tap points (a host its transmitted and received frames,
//! a link the frames it discards); when no observer is attached the
//! per-frame cost is a single `Option` check. Every observation is made
//! when it happens and stamped with the current time, so an observer sees
//! them in dispatch order at a non-decreasing time.
//!
//! The trait lives in the substrate so that `mpw-link` and `mpw-mptcp` can
//! call into it and `mpw-capture` can implement it without a dependency
//! cycle.
//!
//! Observers are shared via `Rc<RefCell<…>>`: a `World` and all its agents
//! live on one thread (campaign parallelism builds one world per worker
//! thread), so single-threaded shared ownership is sufficient and keeps the
//! crate `forbid(unsafe_code)`.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;

use crate::time::SimTime;

/// Why a link discarded a frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// Random wireless corruption (the channel, not congestion).
    ChannelLoss,
    /// Drop-tail queue overflow (congestion / bufferbloat buffer full).
    QueueOverflow,
    /// Link-layer ARQ gave up after its retry budget.
    ArqExhausted,
    /// The link was administratively down (scenario `Down` event, e.g. the
    /// client walked out of WiFi range entirely).
    LinkDown,
}

/// A passive observer of frames crossing a tap point.
///
/// Implementations must be observation-only: they may copy bytes and record
/// timestamps but must not influence the simulation (no RNG draws, no event
/// scheduling). This is what makes capture-on and capture-off runs of the
/// same seed byte-identical in their metrics.
pub trait FrameObserver {
    /// A frame crossed a tap point.
    ///
    /// `iface` is the capture-interface id the tap was registered with
    /// (observer-assigned, not an [`AgentId`](crate::AgentId)); `at` is the
    /// simulated time of the observation: when the host sent or received
    /// the frame.
    fn frame(&mut self, at: SimTime, iface: u32, bytes: &Bytes);

    /// The link discarded a frame instead of delivering it.
    ///
    /// Real tcpdump never sees these at the receiver; surfacing them on a
    /// dedicated channel is the one place the simulated sniffer is more
    /// powerful than the real one.
    fn dropped(&mut self, at: SimTime, iface: u32, reason: DropReason, bytes: &Bytes);
}

/// Shared handle to a frame observer, cloneable across many tap points.
pub type SharedObserver = Rc<RefCell<dyn FrameObserver>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Counter {
        frames: usize,
        drops: usize,
    }

    impl FrameObserver for Counter {
        fn frame(&mut self, _at: SimTime, _iface: u32, _bytes: &Bytes) {
            self.frames += 1;
        }
        fn dropped(&mut self, _at: SimTime, _iface: u32, _reason: DropReason, _bytes: &Bytes) {
            self.drops += 1;
        }
    }

    #[test]
    fn shared_observer_is_cloneable_and_mutable() {
        let counter = Rc::new(RefCell::new(Counter::default()));
        let obs: SharedObserver = counter.clone();
        obs.borrow_mut().frame(SimTime::ZERO, 0, &Bytes::from_static(b"x"));
        obs.borrow_mut().dropped(
            SimTime::ZERO,
            1,
            DropReason::QueueOverflow,
            &Bytes::from_static(b"y"),
        );
        assert_eq!(counter.borrow().frames, 1);
        assert_eq!(counter.borrow().drops, 1);
    }
}
