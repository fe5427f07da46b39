//! # mpw-mptcp — the MPTCP stack of the mpwild study
//!
//! The paper's subject: Multipath TCP as measured over WiFi + cellular.
//! This crate implements the connection layer on top of `mpw-tcp` subflows:
//!
//! - establishment via MP_CAPABLE / ADD_ADDR / MP_JOIN, in both the standard
//!   *delayed* mode and the paper's *simultaneous SYN* modification (§4.1.2),
//! - DSS data-sequence mapping, a shared 8 MB receive buffer with
//!   connection-level reassembly and out-of-order-delay instrumentation
//!   (§3.3, Figure 13),
//! - the lowest-RTT packet scheduler of Linux MPTCP v0.86 (plus round-robin
//!   for ablation),
//! - the three congestion controllers compared in the paper: uncoupled New
//!   Reno, coupled/LIA (RFC 6356), and OLIA (§2.2.2),
//! - the v0.86 penalization mechanism (off by default, as the paper removed
//!   it; §3.1), reinjection of data from dead subflows, and fallback to
//!   plain TCP when a middlebox strips MPTCP options,
//! - backup-mode subflows (MP_JOIN 'B' bit) and mid-connection MP_PRIO
//!   priority switching — the handover modes of Paasch et al. (paper §7),
//! - a path lifecycle manager: subflow-death detection (RTO stall or
//!   link-down notification), re-establishment with capped exponential
//!   backoff and deterministic jitter, and break-before-make vs
//!   make-before-break handover policies driven by the scenario engine's
//!   signal events (DESIGN.md §5.11).
//!
//! [`host::Host`] is the simulation agent that carries any number of MPTCP
//! or plain-TCP transports plus their applications.

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

pub mod conn;
pub mod coupling;
pub mod host;
pub mod key;
pub mod scheduler;

pub use conn::{HandoverPolicy, LifecycleConfig, MptcpConfig, MptcpConnection, Subflow, SynMode};
pub use coupling::{Coupling, CouplingState};
pub use host::{App, AppFactory, Host, NullApp, OpenRequest, Transport, TransportSpec};
pub use key::{key_from_seed, token_from_key};
pub use scheduler::{Scheduler, SchedulerState, SubflowView};
