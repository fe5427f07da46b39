//! What a socket's owner lends it for the length of one call.
//!
//! A socket holds no reference to anything outside itself (the smoltcp
//! idiom): an entry point that needs more takes a [`TcpHooks`] context from
//! its caller. A plain single-path socket's caller lends [`NoHooks`]. An
//! MPTCP subflow's connection lends a view of its own state, through which
//! the socket (a) adds MPTCP options to every outgoing segment (MP_CAPABLE /
//! MP_JOIN on handshakes, DSS on data and ACKs), (b) hands over every
//! incoming segment (harvesting DSS mappings and data-ACKs, and feeding the
//! connection-level receive buffer), (c) advertises the *shared* MPTCP
//! connection-level buffer space as its receive window (§3.1 "receive
//! memory allocation"), and (d) reaches its congestion window, which the
//! connection holds coupled with the other subflows'
//! ([`Cc::Lent`](crate::Cc::Lent)).

use mpw_sim::{SimDuration, SimTime};

use crate::wire::{OptionList, TcpSegment};

/// Which kind of segment the socket is about to emit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxKind {
    /// Initial SYN.
    Syn,
    /// SYN-ACK from the passive opener.
    SynAck,
    /// The final ACK of the three-way handshake.
    HandshakeAck,
    /// A segment carrying payload bytes (range given in absolute stream
    /// offsets) — `rexmit` marks retransmissions.
    Data {
        /// Absolute stream offset of the first payload byte.
        abs_start: u64,
        /// Payload length.
        len: usize,
        /// Whether this is a retransmission.
        rexmit: bool,
    },
    /// A pure ACK (no payload).
    Ack,
    /// A FIN (possibly carrying the final payload range before it).
    Fin,
}

/// The context one socket call borrows from the socket's owner. Every
/// method defaults to what a plain socket needs: nothing.
pub trait TcpHooks {
    /// Append options for an outgoing segment directly into the segment's
    /// inline [`OptionList`] — no per-segment `Vec` exists on this path.
    ///
    /// `out` already holds the socket's own options (on a SYN: MSS, window
    /// scale, SACK-permitted — 9 bytes) and [`OptionList::push`] refuses
    /// what the 40-byte options area cannot take. The option the segment
    /// cannot go without (MP_CAPABLE / MP_JOIN / DSS) goes first; anything
    /// queued that `push` refuses must stay queued with the implementor for
    /// a later segment — the socket does not retry and nothing downstream
    /// reports it. SACK blocks take whatever is left afterwards.
    fn tx_options(&mut self, _kind: TxKind, _out: &mut OptionList) {}

    /// Called for every valid incoming segment, after the socket has updated
    /// its own state.
    fn on_rx(&mut self, _seg: &TcpSegment, _now: SimTime) {}

    /// Override for the advertised receive window (bytes of buffer space).
    /// `None` means use the socket's own buffer accounting.
    fn rcv_window(&self) -> Option<usize> {
        None
    }

    /// Clamp the length of a new data segment starting at `abs_start`
    /// (MPTCP: a segment must not span two DSS mappings). `None` = no limit.
    /// Called once per new data segment with the socket's `snd_nxt`, just
    /// before [`tx_options`](Self::tx_options) for the same offset, so an
    /// implementor may remember what it resolved here.
    fn tx_segment_limit(&mut self, _abs_start: u64) -> Option<usize> {
        None
    }

    /// The congestion window in bytes of a socket that holds
    /// [`Cc::Lent`](crate::Cc::Lent). This and the three methods below are
    /// called only for such a socket.
    fn cwnd(&self) -> usize {
        0
    }

    /// An ACK advanced the sender's `snd_una` by `bytes_acked`; `srtt` is
    /// the smoothed RTT estimate after it (couplings need `rtt_i`).
    fn on_ack(&mut self, _bytes_acked: usize, _srtt: Option<SimDuration>) {}

    /// A fast-retransmit loss event, with the FlightSize at detection.
    fn on_loss_event(&mut self, _flight_bytes: usize) {}

    /// The retransmission timer fired.
    fn on_rto(&mut self, _flight_bytes: usize) {}
}

/// The context of a plain single-path socket: no options, its own window.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoHooks;

impl TcpHooks for NoHooks {}
