//! # mpw-capture — wire capture and black-box trace analysis
//!
//! The paper's methodology was tcpdump + tcptrace (§3.2): every headline
//! figure was derived from *wire* captures, not kernel counters. This crate
//! gives the simulation the same black-box measurement layer:
//!
//! - [`hub::CaptureHub`] implements [`mpw_sim::tap::FrameObserver`] and can
//!   be attached to any number of tap points (`mpw_mptcp::Host::tap` on the
//!   hosts, `mpw_link::LinkTap` for the links' drops). It writes the
//!   fully-encoded wire bytes with simulated-time timestamps, as the frames
//!   pass, into a [pcapng] file real Wireshark/tcpdump can open
//!   (one capture interface per path and vantage, plus a dedicated channel
//!   for link-discarded frames).
//! - [`analyze`](analyze::analyze) replays a pcapng through the header-only
//!   `mpw_tcp::wire::parse_headers` and reconstructs — purely from the bytes —
//!   per-subflow RTT samples, retransmission counts, DSS-level out-of-order
//!   delay, and per-path byte shares, so the in-stack metrics can be
//!   cross-checked the way the paper's figures were produced.
//! - the `capture-dump` binary prints a capture in tcpdump-like one-liners,
//!   including MPTCP option decoding.
//!
//! Capture is strictly observation-only: taps never draw randomness or
//! schedule events, so a run with capture enabled is event-for-event (and
//! metric-for-metric) identical to the same seed without it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// The panic wall (DESIGN.md §5.12), held by `cargo clippy`: a site that must
// abort carries an `#[expect(clippy::…, reason = "…")]` saying why.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod analyze;
pub mod dump;
pub mod hub;
pub mod pcapng;

pub use analyze::{analyze, WireAnalysis, WireConnection, WireSubflow};
pub use hub::{CaptureHub, IfaceRole, LinkDir, SharedHub, Vantage, DROPS_IFACE};
pub use pcapng::{read_pcapng, PcapError, PcapFile, PcapInterface, PcapPacket, PcapWriter};
