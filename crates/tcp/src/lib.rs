//! # mpw-tcp — a from-scratch sans-IO TCP for the mpwild MPTCP study
//!
//! This crate implements the single-path TCP substrate the paper's MPTCP
//! stack builds on: wire format (including the RFC 6824 MPTCP option
//! encodings), wrapping sequence arithmetic, RFC 6298 retransmission, SACK,
//! New Reno congestion control (or a window its owner lends, [`Cc`]),
//! window scaling, and delayed ACKs — configured the way the paper's
//! testbed was (initial window 10, initial ssthresh 64 KB, SACK on, no
//! metadata caching between connections; §3.1).
//!
//! Sockets are pure state machines driven by `on_segment` / `on_timer` /
//! `poll_transmit` (the smoltcp idiom): a socket holds no reference to its
//! owner, which lends it [`TcpHooks`] for each call. Hosts and the MPTCP
//! connection layer live in `mpw-mptcp`.

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

pub mod buf;
pub mod cc;
pub mod hooks;
pub mod rtt;
pub mod seq;
pub mod socket;
pub mod testkit;
pub mod wire;

pub use buf::{Assembler, SendBuffer};
pub use cc::{Cc, CcConfig, NewReno};
pub use hooks::{NoHooks, TcpHooks, TxKind};
pub use rtt::RttEstimator;
pub use seq::SeqNum;
pub use socket::{SocketStats, TcpConfig, TcpSocket, TcpState};
pub use wire::{
    encode_packet, encode_ping, parse_any, parse_any_shared, parse_headers, parse_packet,
    peek_ip_dst, strip_mptcp_options, Addr, DssMapping, Endpoint, IpHeader, MptcpOption,
    OptionList, Packet, PingPacket, SackBlocks, TcpOption, TcpSegment, WireError,
};
