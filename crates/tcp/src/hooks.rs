//! Extension hooks that let the MPTCP layer ride on top of the TCP socket.
//!
//! A plain single-path socket has no hooks. An MPTCP subflow installs a
//! [`TcpHooks`] implementation that (a) contributes MPTCP options to every
//! outgoing segment (MP_CAPABLE / MP_JOIN on handshakes, DSS on data and
//! ACKs), (b) observes every incoming segment (harvesting DSS mappings and
//! data-ACKs, and feeding the connection-level receive buffer), and (c) can
//! override the advertised receive window with the *shared* MPTCP
//! connection-level buffer space (§3.1 "receive memory allocation").

use mpw_sim::SimTime;

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

/// Observer/extender for one TCP socket.
pub trait TcpHooks: std::fmt::Debug {
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
    fn tx_options(&mut self, kind: TxKind, now: SimTime, out: &mut OptionList);

    /// Called for every valid incoming segment, after the socket has updated
    /// its own state. `payload_abs_start` is the absolute stream offset of
    /// the first payload byte (meaningful when the segment has payload).
    fn on_rx(&mut self, seg: &TcpSegment, payload_abs_start: u64, now: SimTime);

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

    /// The connection reached `Established`.
    fn on_established(&mut self, _now: SimTime) {}

    /// The socket was reset or closed by the peer.
    fn on_closed(&mut self, _now: SimTime) {}
}

/// The no-op hooks used by plain single-path TCP.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoHooks;

impl TcpHooks for NoHooks {
    fn tx_options(&mut self, _kind: TxKind, _now: SimTime, _out: &mut OptionList) {}
    fn on_rx(&mut self, _seg: &TcpSegment, _payload_abs_start: u64, _now: SimTime) {}
}
