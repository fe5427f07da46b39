//! The TCP socket state machine (sans-IO).
//!
//! A [`TcpSocket`] is a pure state machine: the host feeds it incoming
//! segments ([`TcpSocket::on_segment`]) and timer expirations
//! ([`TcpSocket::on_timer`]), then drains outgoing segments with
//! [`TcpSocket::poll_transmit`] and re-arms a single timer from
//! [`TcpSocket::next_timeout`] — the smoltcp poll idiom.
//!
//! Implemented behaviour, matching the paper's testbed configuration (§3.1):
//! RFC 5681 New Reno with initial window 10 and configurable initial
//! ssthresh (64 KB in the paper), SACK (RFC 2018) with SACK-based and
//! dupack-based fast retransmit, RFC 6298 RTO with Karn's rule and
//! exponential backoff, window scaling, delayed ACKs, zero-window probing,
//! and no caching of connection metadata between connections.

use std::collections::VecDeque;

use bytes::Bytes;
use mpw_sim::{SimDuration, SimTime};

use crate::buf::{Assembler, SendBuffer};
use crate::cc::Cc;
use crate::hooks::{NoHooks, TcpHooks, TxKind};
use crate::rtt::RttEstimator;
use crate::seq::SeqNum;
use crate::wire::{
    tcp_flags, Endpoint, OptionList, SackBlocks, TcpOption, TcpSegment, MAX_OPTIONS_LEN,
};

/// TCP connection states (RFC 793).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TcpState {
    /// Sent SYN, awaiting SYN-ACK.
    SynSent,
    /// Received SYN, sent SYN-ACK, awaiting ACK.
    SynRcvd,
    /// Data transfer.
    Established,
    /// We closed first; FIN sent, not yet acked.
    FinWait1,
    /// Our FIN acked; awaiting peer's FIN.
    FinWait2,
    /// Peer closed first; we may still send.
    CloseWait,
    /// Peer closed, then we sent FIN.
    LastAck,
    /// Simultaneous close.
    Closing,
    /// Both FINs exchanged; draining.
    TimeWait,
    /// Fully closed (or aborted).
    Closed,
}

/// Socket configuration.
#[derive(Clone, Debug)]
pub struct TcpConfig {
    /// Maximum segment size for payload.
    pub mss: usize,
    /// Send buffer capacity in bytes.
    pub send_buffer: usize,
    /// Receive buffer capacity in bytes (8 MB in the paper's testbed).
    pub recv_buffer: usize,
    /// Window-scale shift we advertise.
    pub window_scale: u8,
    /// Ignored; stays while `benchmark/` names it (ROADMAP 7(i)).
    pub record_rtt_samples: bool,
    /// Give up (reset) after this many consecutive RTOs.
    pub max_consecutive_rtos: u32,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1400,
            send_buffer: 512 * 1024,
            recv_buffer: 8 * 1024 * 1024,
            window_scale: 9,
            record_rtt_samples: false,
            max_consecutive_rtos: 10,
        }
    }
}

/// Counters for one socket, matching the paper's per-flow metrics.
#[derive(Clone, Copy, Debug, Default)]
pub struct SocketStats {
    /// Segments emitted (all kinds).
    pub segs_sent: u64,
    /// Data segments emitted (payload > 0), including retransmissions.
    pub data_segs_sent: u64,
    /// Retransmitted data segments.
    pub rexmit_segs: u64,
    /// Payload bytes emitted, including retransmissions.
    pub payload_bytes_sent: u64,
    /// Retransmitted payload bytes.
    pub rexmit_bytes: u64,
    /// Segments received.
    pub segs_received: u64,
    /// Novel payload bytes accepted.
    pub payload_bytes_received: u64,
    /// Duplicate payload bytes discarded.
    pub dup_bytes_received: u64,
    /// Duplicate ACKs observed.
    pub dupacks: u64,
    /// Fast-retransmit loss events.
    pub loss_events: u64,
    /// Retransmission timeouts fired.
    pub rtos: u64,
    /// When `connect`/`accept` created the socket.
    pub opened_at: SimTime,
    /// When the connection reached Established.
    pub established_at: Option<SimTime>,
}

impl SocketStats {
    /// The paper's per-flow loss-rate metric: retransmitted data packets
    /// over data packets sent (§3.3).
    pub fn loss_rate(&self) -> f64 {
        if self.data_segs_sent == 0 {
            0.0
        } else {
            self.rexmit_segs as f64 / self.data_segs_sent as f64
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct TxInfo {
    len: u32,
    time_sent: SimTime,
    rexmits: u32,
    sacked: bool,
    queued: bool,
}

/// The in-flight segment ledger: a contiguous partition of
/// `[snd_una, snd_nxt)`, sorted ascending by start offset.
///
/// Steady-state transmission only pushes at the back (new data at `snd_nxt`)
/// and pops at the front (cumulative ACKs), so a ring buffer serves every
/// lookup by binary search and — unlike the `BTreeMap` it replaced — touches
/// the allocator only on rare capacity growth, never per segment.
#[derive(Clone, Debug, Default)]
struct Flight {
    entries: VecDeque<(u64, TxInfo)>,
}

impl Flight {
    fn len(&self) -> usize {
        self.entries.len()
    }

    fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn front(&self) -> Option<(u64, TxInfo)> {
        self.entries.front().copied()
    }

    fn pop_front(&mut self) -> Option<(u64, TxInfo)> {
        self.entries.pop_front()
    }

    fn front_mut(&mut self) -> Option<&mut (u64, TxInfo)> {
        self.entries.front_mut()
    }

    /// Append an entry; `start` must exceed every stored offset (new data
    /// always starts at `snd_nxt`).
    fn push_back(&mut self, start: u64, info: TxInfo) {
        debug_assert!(self.entries.back().is_none_or(|&(s, _)| s < start));
        self.entries.push_back((start, info));
    }

    fn index_of(&self, start: u64) -> Option<usize> {
        self.entries.binary_search_by_key(&start, |&(s, _)| s).ok()
    }

    fn get(&self, start: u64) -> Option<&TxInfo> {
        self.index_of(start).and_then(|i| self.entries.get(i)).map(|(_, info)| info)
    }

    fn get_mut(&mut self, start: u64) -> Option<&mut TxInfo> {
        let i = self.index_of(start)?;
        self.entries.get_mut(i).map(|(_, info)| info)
    }

    fn iter(&self) -> impl Iterator<Item = &(u64, TxInfo)> {
        self.entries.iter()
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = &mut (u64, TxInfo)> {
        self.entries.iter_mut()
    }

    /// Entries whose start offset is `>= from`, ascending.
    fn iter_mut_from(&mut self, from: u64) -> impl Iterator<Item = &mut (u64, TxInfo)> {
        let i = self.entries.partition_point(|&(s, _)| s < from);
        self.entries.range_mut(i..)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum AckUrgency {
    None,
    Delayed,
    Immediate,
}

/// The TCP socket state machine. See the module docs for the driving model.
#[derive(Clone)]
pub struct TcpSocket {
    cfg: TcpConfig,
    state: TcpState,
    local: Endpoint,
    remote: Endpoint,
    /// Which local interface this socket is bound to (routing by the host).
    pub if_index: u8,
    cc: Cc,
    rtt: RttEstimator,

    // --- send side ---
    iss: SeqNum,
    send_buf: SendBuffer,
    snd_nxt: u64,
    snd_una: u64,
    flight: Flight,
    flight_bytes: usize,
    sacked_bytes: usize,
    queued_bytes: usize,
    rexmit_queue: VecDeque<u64>,
    dupacks: u32,
    in_recovery: bool,
    recover: u64,
    recovery_cursor: u64,
    highest_sacked_end: u64,
    fin_queued: bool,
    fin_sent: bool,
    fin_acked: bool,
    peer_window: usize,
    peer_wscale: u8,
    peer_mss: usize,
    sack_ok: bool,
    need_syn: bool,
    need_synack: bool,
    need_hs_ack: bool,
    pending_reset: bool,
    hs_options_from_peer: OptionList,

    // --- receive side ---
    irs: SeqNum,
    asm: Assembler,
    ack_urgency: AckUrgency,
    delack_deadline: Option<SimTime>,
    segs_since_ack: u32,
    fin_rcvd_at: Option<u64>,
    fin_consumed: bool,

    // --- timers ---
    rto_deadline: Option<SimTime>,
    persist_deadline: Option<SimTime>,
    time_wait_deadline: Option<SimTime>,
    consecutive_rtos: u32,

    stats: SocketStats,
}

// A socket owns everything it holds: a shared cell (`Rc`) or an unbounded
// `Box<dyn …>` field would make it `!Send`, and this fail to compile.
const _: fn() = || {
    fn ok<T: Clone + Send>() {}
    ok::<TcpSocket>();
};

impl std::fmt::Debug for TcpSocket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpSocket")
            .field("local", &self.local)
            .field("remote", &self.remote)
            .field("state", &self.state)
            .field("snd_una", &self.snd_una)
            .field("snd_nxt", &self.snd_nxt)
            .field("rcv_nxt", &self.asm.next_expected())
            .finish()
    }
}

impl TcpSocket {
    /// Active open: create a socket in SynSent that will emit a SYN. `cc`
    /// is a plain socket's New Reno, or [`Cc::Lent`] for an MPTCP subflow.
    /// `_hooks` is ignored (the caller lends hooks to each call); it stays
    /// while `benchmark/` passes it (ROADMAP 7(i)).
    #[allow(clippy::too_many_arguments)]
    #[allow(clippy::boxed_local, reason = "ROADMAP 7(i)")]
    pub fn connect(
        cfg: TcpConfig,
        cc: impl Into<Cc>,
        _hooks: Box<NoHooks>,
        local: Endpoint,
        remote: Endpoint,
        if_index: u8,
        iss: SeqNum,
        now: SimTime,
    ) -> Self {
        let mut s = Self::blank(cfg, cc.into(), local, remote, if_index, iss, now);
        s.state = TcpState::SynSent;
        s.need_syn = true;
        s.arm_rto(now);
        s
    }

    /// Passive open: a listener accepted `syn` and creates the peer socket
    /// in SynRcvd; it will emit a SYN-ACK. No hooks see `syn`: an MPTCP
    /// connection reads it itself. `cc` and `_hooks` are as for
    /// [`connect`](Self::connect).
    #[allow(clippy::too_many_arguments)]
    #[allow(clippy::boxed_local, reason = "ROADMAP 7(i)")]
    pub fn accept(
        cfg: TcpConfig,
        cc: impl Into<Cc>,
        _hooks: Box<NoHooks>,
        local: Endpoint,
        remote: Endpoint,
        if_index: u8,
        iss: SeqNum,
        syn: &TcpSegment,
        now: SimTime,
    ) -> Self {
        let mut s = Self::blank(cfg, cc.into(), local, remote, if_index, iss, now);
        s.state = TcpState::SynRcvd;
        s.irs = syn.seq;
        s.process_handshake_options(&syn.options);
        s.peer_window = syn.window as usize; // unscaled on SYN
        s.need_synack = true;
        s.stats.segs_received = 1;
        s.arm_rto(now);
        s.debug_check("accept");
        s
    }

    #[allow(clippy::too_many_arguments)]
    fn blank(
        cfg: TcpConfig,
        cc: Cc,
        local: Endpoint,
        remote: Endpoint,
        if_index: u8,
        iss: SeqNum,
        now: SimTime,
    ) -> Self {
        TcpSocket {
            rtt: RttEstimator::default(),
            asm: Assembler::new(0, false),
            state: TcpState::Closed,
            local,
            remote,
            if_index,
            cc,
            iss,
            send_buf: SendBuffer::new(),
            snd_nxt: 0,
            snd_una: 0,
            flight: Flight::default(),
            flight_bytes: 0,
            sacked_bytes: 0,
            queued_bytes: 0,
            rexmit_queue: VecDeque::new(),
            dupacks: 0,
            in_recovery: false,
            recover: 0,
            recovery_cursor: 0,
            highest_sacked_end: 0,
            fin_queued: false,
            fin_sent: false,
            fin_acked: false,
            peer_window: 0,
            peer_wscale: 0,
            peer_mss: cfg.mss,
            sack_ok: false,
            need_syn: false,
            need_synack: false,
            need_hs_ack: false,
            pending_reset: false,
            hs_options_from_peer: OptionList::new(),
            irs: SeqNum(0),
            ack_urgency: AckUrgency::None,
            delack_deadline: None,
            segs_since_ack: 0,
            fin_rcvd_at: None,
            fin_consumed: false,
            rto_deadline: None,
            persist_deadline: None,
            time_wait_deadline: None,
            consecutive_rtos: 0,
            stats: SocketStats {
                opened_at: now,
                ..SocketStats::default()
            },
            cfg,
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Current state.
    pub fn state(&self) -> TcpState {
        self.state
    }

    /// Local endpoint.
    pub fn local(&self) -> Endpoint {
        self.local
    }

    /// Remote endpoint.
    pub fn remote(&self) -> Endpoint {
        self.remote
    }

    /// Whether the connection is established (data can flow).
    pub fn is_established(&self) -> bool {
        matches!(
            self.state,
            TcpState::Established
                | TcpState::FinWait1
                | TcpState::FinWait2
                | TcpState::CloseWait
                | TcpState::Closing
        )
    }

    /// Whether the socket has fully terminated and can be reaped.
    pub fn is_finished(&self) -> bool {
        self.state == TcpState::Closed
    }

    /// Counters.
    pub fn stats(&self) -> SocketStats {
        self.stats
    }

    /// The RTT estimator (per-flow samples for Figure 12).
    pub fn rtt(&self) -> &RttEstimator {
        &self.rtt
    }

    /// Congestion window in bytes: the socket's own, or the one `cx`
    /// lends ([`Cc::Lent`]). A plain socket's caller passes [`NoHooks`].
    pub fn cwnd(&self, cx: &impl TcpHooks) -> usize {
        match &self.cc {
            Cc::Own(cc) => cc.cwnd(),
            Cc::Lent => cx.cwnd(),
        }
    }

    /// Options seen on the peer's SYN / SYN-ACK (the MPTCP layer reads
    /// MP_CAPABLE / MP_JOIN from here after establishment).
    pub fn peer_handshake_options(&self) -> &OptionList {
        &self.hs_options_from_peer
    }

    /// Bytes of send-buffer space available to the application.
    pub fn send_space(&self) -> usize {
        self.cfg.send_buffer.saturating_sub(self.send_buf.len())
    }

    /// Bytes the application has written that are not yet acknowledged.
    pub fn unacked_len(&self) -> usize {
        self.send_buf.len()
    }

    /// Bytes transmitted and awaiting acknowledgment (`snd_nxt − snd_una`).
    pub fn inflight_len(&self) -> usize {
        (self.snd_nxt - self.snd_una) as usize
    }

    /// How many *new* bytes this socket could inject right now under its
    /// congestion and flow-control windows, accounting for SACKed data no
    /// longer in the pipe. The MPTCP scheduler keys on this: during dupack
    /// stretches the pipe drains, and feeding fresh data keeps the ACK clock
    /// alive (the limited-transmit effect, RFC 3042). `cx` as for
    /// [`cwnd`](Self::cwnd).
    pub fn tx_window_space(&self, cx: &impl TcpHooks) -> usize {
        if !self.is_established() {
            return 0;
        }
        let wnd = self.cwnd(cx).min(self.peer_window);
        let unsent = (self.send_buf.end() - self.snd_nxt) as usize;
        wnd.saturating_sub(self.pipe() + unsent)
    }

    /// Absolute offset one past the last byte written by the application.
    pub fn write_offset(&self) -> u64 {
        self.send_buf.end()
    }

    /// Absolute receive offset delivered in order so far.
    pub fn recv_offset(&self) -> u64 {
        self.asm.next_expected()
    }

    // ------------------------------------------------------------------
    // Application interface
    // ------------------------------------------------------------------

    /// Write application data; returns bytes accepted (bounded by buffer
    /// space). Returns 0 once the application has closed.
    pub fn send(&mut self, data: Bytes) -> usize {
        if self.fin_queued || matches!(self.state, TcpState::Closed | TcpState::TimeWait) {
            return 0;
        }
        let space = self.send_space();
        let take = data.len().min(space);
        if take > 0 {
            self.send_buf.push(data.slice(..take));
        }
        take
    }

    /// Close the sending direction (queue a FIN after pending data). A
    /// socket still mid-handshake simply deletes its state (RFC 793 CLOSE in
    /// SYN-SENT), which is how never-established MPTCP join subflows die.
    pub fn close(&mut self) {
        if self.state == TcpState::SynSent {
            self.enter_closed();
        } else {
            self.fin_queued = true;
        }
        self.debug_check("close");
    }

    /// Highest cumulatively acknowledged stream offset.
    pub fn acked_offset(&self) -> u64 {
        self.snd_una
    }

    /// Whether the peer's advertised window, not our congestion window, is
    /// the binding constraint right now. `cx` as for [`cwnd`](Self::cwnd).
    pub fn rwnd_limited(&self, cx: &impl TcpHooks) -> bool {
        self.is_established() && self.peer_window < self.cwnd(cx)
    }

    /// Whether the path looks dead: two or more consecutive retransmission
    /// timeouts without any forward progress (the MPTCP backup-mode
    /// failover signal).
    pub fn is_stalled(&self) -> bool {
        self.consecutive_rtos >= 2
    }

    /// Consecutive retransmission timeouts without forward progress — the
    /// raw counter behind [`is_stalled`](Self::is_stalled), exposed so the
    /// MPTCP path-lifecycle manager can apply its own (higher) death
    /// threshold.
    pub fn consecutive_rtos(&self) -> u32 {
        self.consecutive_rtos
    }

    /// Abort: emit RST and drop to Closed.
    pub fn abort(&mut self) {
        self.pending_reset = true;
    }

    /// Pop in-order received payload, tagged with its absolute offset.
    pub fn recv(&mut self) -> Option<(u64, Bytes)> {
        self.asm.pop_ready()
    }

    /// Force a pure ACK out on the next poll (used by the MPTCP layer to
    /// carry ADD_ADDR or DATA_FIN signaling when no data is pending).
    pub fn push_ack(&mut self) {
        if self.is_established() {
            self.ack_urgency = AckUrgency::Immediate;
        }
    }

    /// Whether the peer closed its sending direction and all data was read.
    pub fn peer_closed(&self) -> bool {
        self.fin_consumed
    }

    // ------------------------------------------------------------------
    // Sequence-number mapping
    // ------------------------------------------------------------------

    fn tx_wire_seq(&self, offset: u64) -> SeqNum {
        self.iss + 1 + (offset as u32)
    }

    fn rx_abs(&self, seq: SeqNum) -> i64 {
        // Absolute receive offset of `seq`, relative to irs+1.
        let nxt_abs = self.asm.next_expected();
        let nxt_wire = self.irs + 1 + (nxt_abs as u32);
        nxt_abs as i64 + seq.distance(nxt_wire) as i64
    }

    fn ack_abs(&self, ack: SeqNum) -> i64 {
        let una_wire = self.tx_wire_seq(self.snd_una);
        self.snd_una as i64 + ack.distance(una_wire) as i64
    }

    // ------------------------------------------------------------------
    // Invariant oracles (ISSUE 3 / DESIGN.md §5.8)
    // ------------------------------------------------------------------

    /// Check the socket's machine-checkable protocol invariants.
    ///
    /// Always compiled (the `mpw-check` model checker calls it explicitly,
    /// even in release builds); the hot-path entry points only run it via
    /// `TcpSocket::debug_check`, which compiles away unless
    /// `debug_assertions` or the `check-invariants` feature is active.
    pub fn validate(&self) -> Result<(), String> {
        // --- send side: SND.UNA ≤ SND.NXT, wraparound-safely ---
        if self.snd_una > self.snd_nxt {
            return Err(format!(
                "snd_una {} > snd_nxt {}",
                self.snd_una, self.snd_nxt
            ));
        }
        if self.snd_nxt > self.send_buf.end() {
            return Err(format!(
                "snd_nxt {} beyond written stream end {}",
                self.snd_nxt,
                self.send_buf.end()
            ));
        }
        // The seq.rs comparison contract is only valid for spans < 2^31;
        // the in-flight span is what we map onto 32-bit wire sequences.
        if self.snd_nxt - self.snd_una >= 1 << 31 {
            return Err(format!(
                "in-flight span {} breaks the 2^31 wire-seq ambiguity bound",
                self.snd_nxt - self.snd_una
            ));
        }
        let una_w = self.tx_wire_seq(self.snd_una);
        let nxt_w = self.tx_wire_seq(self.snd_nxt);
        if !(una_w.before_eq(nxt_w) && nxt_w.after_eq(una_w)) {
            return Err(format!(
                "wire seq order inconsistent: una {una_w:?} vs nxt {nxt_w:?}"
            ));
        }
        if self.send_buf.base() != self.snd_una {
            return Err(format!(
                "send_buf base {} != snd_una {}",
                self.send_buf.base(),
                self.snd_una
            ));
        }
        self.send_buf.validate().map_err(|e| format!("send: {e}"))?;

        // --- flight: a contiguous partition of [snd_una, snd_nxt) ---
        let mut cursor = self.snd_una;
        let mut flight = 0usize;
        let mut sacked = 0usize;
        let mut queued = 0usize;
        for &(start, ref info) in self.flight.iter() {
            if start != cursor {
                return Err(format!(
                    "flight gap/overlap: entry at {start}, expected {cursor}"
                ));
            }
            if info.len == 0 {
                return Err(format!("flight entry at {start} has zero length"));
            }
            cursor = start + info.len as u64;
            flight += info.len as usize;
            if info.sacked {
                sacked += info.len as usize;
            }
            if info.queued {
                queued += info.len as usize;
            }
        }
        if cursor != self.snd_nxt {
            return Err(format!(
                "flight covers [{}, {cursor}), expected up to snd_nxt {}",
                self.snd_una, self.snd_nxt
            ));
        }
        if flight != self.flight_bytes || sacked != self.sacked_bytes || queued != self.queued_bytes
        {
            return Err(format!(
                "flight accounting drifted: bytes {}/{flight} sacked {}/{sacked} queued {}/{queued}",
                self.flight_bytes, self.sacked_bytes, self.queued_bytes
            ));
        }

        // --- FIN state machine consistency ---
        if self.fin_sent && !self.fin_queued {
            return Err("fin_sent without fin_queued".into());
        }
        if self.fin_acked && !self.fin_sent {
            return Err("fin_acked without fin_sent".into());
        }
        if self.fin_sent && self.snd_nxt != self.send_buf.end() {
            return Err(format!(
                "FIN sent with unsent data: snd_nxt {} < end {}",
                self.snd_nxt,
                self.send_buf.end()
            ));
        }

        // --- receive side: reassembly store is internally consistent ---
        self.asm.validate().map_err(|e| format!("recv: {e}"))?;
        if let Some(fin_at) = self.fin_rcvd_at {
            if self.asm.next_expected() > fin_at {
                return Err(format!(
                    "received data beyond peer FIN: rcv_nxt {} > fin at {fin_at}",
                    self.asm.next_expected()
                ));
            }
            if self.fin_consumed && self.asm.next_expected() != fin_at {
                return Err("FIN consumed before the stream reached it".into());
            }
        } else if self.fin_consumed {
            return Err("fin_consumed without fin_rcvd_at".into());
        }

        // --- byte conservation mirrors the stats counters ---
        if self.stats.payload_bytes_received != self.asm.accepted_bytes() {
            return Err(format!(
                "rx byte conservation: stats {} != assembler accepted {}",
                self.stats.payload_bytes_received,
                self.asm.accepted_bytes()
            ));
        }
        if self.stats.dup_bytes_received < self.asm.duplicate_bytes() {
            return Err(format!(
                "duplicate accounting: stats {} < assembler {}",
                self.stats.dup_bytes_received,
                self.asm.duplicate_bytes()
            ));
        }

        // --- timers: outstanding data must be covered by a timer ---
        if matches!(
            self.state,
            TcpState::Established
                | TcpState::FinWait1
                | TcpState::CloseWait
                | TcpState::LastAck
                | TcpState::Closing
        ) && (!self.flight.is_empty() || self.fin_outstanding())
            && self.rto_deadline.is_none()
        {
            return Err("in-flight data with no RTO armed".into());
        }
        Ok(())
    }

    #[inline]
    #[allow(unused_variables)]
    fn debug_check(&self, site: &str) {
        #[cfg(any(debug_assertions, feature = "check-invariants"))]
        #[expect(
            clippy::panic,
            reason = "invariant oracle: aborting on a violated protocol invariant is the check"
        )]
        if let Err(e) = self.validate() {
            panic!(
                "TCP invariant violated after {site} ({:?} {:?}->{:?}): {e}",
                self.state, self.local, self.remote
            );
        }
    }

    /// Feed an order-relevant summary of the socket state into `h` — the
    /// model checker's state fingerprint. Absolute times are deliberately
    /// excluded (the exploration is untimed); what matters is which timers
    /// are armed, not when they fire. `cx` as for [`cwnd`](Self::cwnd).
    pub fn fingerprint(&self, cx: &impl TcpHooks, h: &mut dyn std::hash::Hasher) {
        h.write_u8(self.state as u8);
        h.write_u64(self.snd_una);
        h.write_u64(self.snd_nxt);
        h.write_u64(self.send_buf.end());
        for &(start, ref info) in self.flight.iter() {
            h.write_u64(start);
            h.write_u32(info.len);
            h.write_u8(u8::from(info.sacked) | (u8::from(info.queued) << 1));
            h.write_u32(info.rexmits);
        }
        for &off in &self.rexmit_queue {
            h.write_u64(off);
        }
        h.write_u32(self.dupacks);
        h.write_u8(
            u8::from(self.in_recovery)
                | (u8::from(self.fin_queued) << 1)
                | (u8::from(self.fin_sent) << 2)
                | (u8::from(self.fin_acked) << 3)
                | (u8::from(self.need_syn) << 4)
                | (u8::from(self.need_synack) << 5)
                | (u8::from(self.need_hs_ack) << 6)
                | (u8::from(self.pending_reset) << 7),
        );
        h.write_u8(
            u8::from(self.fin_consumed)
                | (u8::from(self.rto_deadline.is_some()) << 1)
                | (u8::from(self.persist_deadline.is_some()) << 2)
                | (u8::from(self.time_wait_deadline.is_some()) << 3)
                | ((self.ack_urgency as u8) << 4),
        );
        h.write_u64(self.fin_rcvd_at.unwrap_or(u64::MAX));
        h.write_usize(self.peer_window);
        h.write_u32(self.consecutive_rtos);
        h.write_usize(self.cwnd(cx));
        self.asm.fingerprint(h);
    }

    // ------------------------------------------------------------------
    // Incoming segments
    // ------------------------------------------------------------------

    /// Process one incoming segment addressed to a plain socket.
    pub fn on_segment(&mut self, seg: &TcpSegment, now: SimTime) {
        self.on_segment_with(&mut NoHooks, seg, now);
    }

    /// Process one incoming segment, with the context `cx` lends.
    pub fn on_segment_with(&mut self, cx: &mut impl TcpHooks, seg: &TcpSegment, now: SimTime) {
        self.on_segment_inner(cx, seg, now);
        self.debug_check("on_segment");
    }

    fn on_segment_inner(&mut self, cx: &mut impl TcpHooks, seg: &TcpSegment, now: SimTime) {
        if self.state == TcpState::Closed {
            // RFC 9293 §3.10.7.1: a closed socket answers anything but a
            // reset with a reset. Silence would leave a peer whose SYN-ACK
            // or FIN crossed our close retransmitting it, with backoff,
            // until it gives up.
            self.pending_reset |= !seg.has(tcp_flags::RST);
            return;
        }
        self.stats.segs_received += 1;

        if seg.has(tcp_flags::RST) {
            self.enter_closed();
            return;
        }

        match self.state {
            TcpState::SynSent => {
                if seg.has(tcp_flags::SYN) && seg.has(tcp_flags::ACK) {
                    let acks_syn = seg.ack == self.iss + 1;
                    if !acks_syn {
                        return;
                    }
                    self.irs = seg.seq;
                    self.asm = Assembler::new(0, false);
                    self.process_handshake_options(&seg.options);
                    self.peer_window = seg.window as usize; // unscaled on SYN
                    self.need_syn = false;
                    self.need_hs_ack = true;
                    self.consecutive_rtos = 0;
                    self.rto_deadline = None;
                    self.state = TcpState::Established;
                    self.stats.established_at = Some(now);
                    // The SYN round trip is a valid RTT sample.
                    self.rtt.on_sample(now.saturating_since(self.stats.opened_at));
                    cx.on_rx(seg, now);
                }
                return;
            }
            TcpState::SynRcvd => {
                if seg.has(tcp_flags::SYN) && !seg.has(tcp_flags::ACK) {
                    // Duplicate SYN: re-send the SYN-ACK.
                    self.need_synack = true;
                    return;
                }
                if seg.has(tcp_flags::ACK) && seg.ack == self.iss + 1 {
                    self.state = TcpState::Established;
                    self.stats.established_at = Some(now);
                    self.need_synack = false;
                    self.consecutive_rtos = 0;
                    self.rto_deadline = None;
                    self.rtt.on_sample(now.saturating_since(self.stats.opened_at));
                    self.update_peer_window(seg);
                    // Fall through to normal processing for any payload.
                } else {
                    return;
                }
            }
            _ => {}
        }

        // --- ACK processing ---
        if seg.has(tcp_flags::ACK) {
            self.process_ack(cx, seg, now);
        }

        // --- payload ---
        if !seg.payload.is_empty() {
            self.process_payload(seg, now);
        }

        // --- FIN ---
        if seg.has(tcp_flags::FIN) {
            let abs = self.rx_abs(seg.seq);
            if abs >= 0 {
                let fin_at = abs as u64 + seg.payload.len() as u64;
                self.fin_rcvd_at = Some(fin_at);
            }
            self.ack_urgency = AckUrgency::Immediate;
        }
        self.maybe_consume_fin(now);

        cx.on_rx(seg, now);
    }

    fn process_handshake_options(&mut self, opts: &OptionList) {
        self.hs_options_from_peer = *opts;
        for opt in opts {
            match opt {
                TcpOption::Mss(m) => self.peer_mss = (m as usize).min(self.cfg.mss),
                TcpOption::WindowScale(s) => self.peer_wscale = s.min(14),
                TcpOption::SackPermitted => self.sack_ok = true,
                _ => {}
            }
        }
    }

    fn update_peer_window(&mut self, seg: &TcpSegment) {
        self.peer_window = (seg.window as usize) << self.peer_wscale;
        if self.peer_window > 0 {
            self.persist_deadline = None;
        }
    }

    fn process_ack(&mut self, cx: &mut impl TcpHooks, seg: &TcpSegment, now: SimTime) {
        let ack_abs = self.ack_abs(seg.ack);
        if ack_abs < 0 || ack_abs as u64 > self.snd_nxt + 1 {
            return; // Old or absurd ack — including its window field.
        }
        let old_window = self.peer_window;
        self.update_peer_window(seg);
        let ack_abs_u = ack_abs as u64;

        // SACK bookkeeping first (affects dupack semantics).
        let mut sack_advanced = false;
        for opt in &seg.options {
            if let TcpOption::Sack(blocks) = opt {
                sack_advanced |= self.apply_sack(blocks.as_slice());
            }
        }

        let fin_ack_point = self.fin_point();
        if ack_abs_u > self.snd_una {
            // New cumulative ack.
            let data_acked_to = ack_abs_u.min(self.send_buf.end());
            let bytes_acked = data_acked_to.saturating_sub(self.snd_una) as usize;
            self.remove_flight_below(data_acked_to, now);
            self.snd_una = data_acked_to;
            self.send_buf.advance(data_acked_to);
            if let Some(fp) = fin_ack_point {
                if ack_abs_u >= fp {
                    self.fin_acked = true;
                }
            }
            self.dupacks = 0;
            self.consecutive_rtos = 0;
            if bytes_acked > 0 {
                match &mut self.cc {
                    Cc::Own(cc) => cc.on_ack(bytes_acked),
                    Cc::Lent => cx.on_ack(bytes_acked, self.rtt.srtt()),
                }
            }
            if self.in_recovery {
                if ack_abs_u >= self.recover {
                    self.in_recovery = false;
                } else {
                    // NewReno partial ack: the segment at the new ack point
                    // is the next hole — retransmit it.
                    self.queue_rexmit_at_una();
                }
            }
            // Restart or clear the RTO timer.
            if self.flight.is_empty() && !self.fin_outstanding() {
                self.rto_deadline = None;
            } else {
                self.arm_rto(now);
            }
            self.on_fin_fully_acked(now);
        } else if ack_abs_u == self.snd_una
            && seg.payload.is_empty()
            && !seg.has(tcp_flags::SYN)
            && !seg.has(tcp_flags::FIN)
            && !self.flight.is_empty()
            // A duplicate for loss detection: either the window did not move
            // (classic rule) or the segment carried new SACK information
            // (RFC 6675 — window updates from receive-buffer occupancy must
            // not mask dupacks).
            && (old_window == self.peer_window || sack_advanced)
        {
            self.dupacks += 1;
            self.stats.dupacks += 1;
            // Early retransmit (RFC 5827): with fewer than 4 segments
            // outstanding and no new data to send, the classic 3-dupack
            // threshold can never be met — lower it to flight-1 so tail
            // losses do not stall for a whole RTO (Linux 3.5 behaviour).
            let flight_segs = self.flight.len() as u32;
            let no_new_data = self.snd_nxt >= self.send_buf.end();
            let dup_threshold = if flight_segs < 4 && no_new_data {
                flight_segs.saturating_sub(1).max(1)
            } else {
                3
            };
            if (self.dupacks >= dup_threshold
                || (sack_advanced && self.sack_loss_indicated()))
                && !self.in_recovery
            {
                self.enter_recovery(cx);
            } else if self.in_recovery && sack_advanced {
                // Keep the pipe full during recovery.
                self.queue_first_unsacked();
            }
        }

        // Zero-window probing.
        if self.peer_window == 0 && !self.send_buf.is_empty() && self.flight.is_empty() {
            if self.persist_deadline.is_none() {
                self.persist_deadline = Some(now + self.rtt.rto());
            }
        } else {
            self.persist_deadline = None;
        }
    }

    fn fin_point(&self) -> Option<u64> {
        if self.fin_sent {
            Some(self.send_buf.end() + 1)
        } else {
            None
        }
    }

    fn fin_outstanding(&self) -> bool {
        self.fin_sent && !self.fin_acked
    }

    fn apply_sack(&mut self, blocks: &[(SeqNum, SeqNum)]) -> bool {
        let mut advanced = false;
        for &(lo, hi) in blocks {
            let lo_abs = self.ack_abs(lo);
            let hi_abs = self.ack_abs(hi);
            if lo_abs < 0 || hi_abs <= lo_abs {
                continue;
            }
            let (lo_abs, hi_abs) = (lo_abs as u64, hi_abs as u64);
            // The flight is contiguous, so the first entry ending past
            // `hi_abs` also ends the covered run — no key collection needed.
            let mut newly_sacked = 0usize;
            let mut dequeued = 0usize;
            for &mut (s, ref mut info) in self.flight.iter_mut_from(lo_abs) {
                if s + info.len as u64 > hi_abs {
                    break;
                }
                if !info.sacked {
                    info.sacked = true;
                    newly_sacked += info.len as usize;
                    if info.queued {
                        info.queued = false;
                        dequeued += info.len as usize;
                    }
                    advanced = true;
                }
            }
            self.sacked_bytes += newly_sacked;
            self.queued_bytes -= dequeued;
            self.highest_sacked_end = self.highest_sacked_end.max(hi_abs);
        }
        advanced
    }

    fn sack_loss_indicated(&self) -> bool {
        // SACKed bytes above snd_una exceeding 3 segments indicate loss
        // (simplified RFC 6675 trigger).
        self.sacked_bytes > 3 * self.cfg.mss
    }

    fn enter_recovery(&mut self, cx: &mut impl TcpHooks) {
        self.in_recovery = true;
        self.recover = self.snd_nxt;
        self.recovery_cursor = self.snd_una;
        match &mut self.cc {
            Cc::Own(cc) => cc.on_loss_event(self.flight_bytes),
            Cc::Lent => cx.on_loss_event(self.flight_bytes),
        }
        self.stats.loss_events += 1;
        self.queue_rexmit_at_una();
    }

    /// NewReno: (re)transmit the segment at the cumulative-ack point — used
    /// on recovery entry and on each partial ACK, even if that segment was
    /// already retransmitted once (its retransmission was evidently lost).
    fn queue_rexmit_at_una(&mut self) {
        let una = self.snd_una;
        if let Some(info) = self.flight.get_mut(una) {
            if !info.sacked && !info.queued {
                info.queued = true;
                self.queued_bytes += info.len as usize;
                self.rexmit_queue.push_back(una);
                self.recovery_cursor = self.recovery_cursor.max(una + info.len as u64);
            }
        }
    }

    /// SACK-driven recovery: retransmit the next never-yet-queued hole above
    /// the forward-only recovery cursor, but only if the SACK scoreboard
    /// marks it *lost* under the FACK rule (≥ 3 MSS SACKed above it) — a
    /// merely un-SACKed segment near `snd_nxt` is probably still in flight,
    /// and retransmitting it would flood the path with spurious duplicates.
    fn queue_first_unsacked(&mut self) {
        let lost_below = self.highest_sacked_end.saturating_sub(3 * self.cfg.mss as u64);
        let mut queued = None;
        for &mut (k, ref mut info) in self.flight.iter_mut_from(self.recovery_cursor) {
            if k >= lost_below {
                break;
            }
            if !info.sacked && !info.queued && info.rexmits == 0 {
                info.queued = true;
                queued = Some((k, info.len));
                break;
            }
        }
        if let Some((k, len)) = queued {
            self.queued_bytes += len as usize;
            self.rexmit_queue.push_back(k);
            self.recovery_cursor = k + len as u64;
        }
    }

    fn remove_flight_below(&mut self, upto: u64, now: SimTime) {
        let mut sample: Option<(SimTime, SimTime)> = None; // (time_sent, now)
        while let Some((start, info)) = self.flight.front() {
            let end = start + info.len as u64;
            if end <= upto {
                self.flight.pop_front();
                self.flight_bytes -= info.len as usize;
                if info.sacked {
                    self.sacked_bytes -= info.len as usize;
                }
                if info.queued {
                    self.queued_bytes -= info.len as usize;
                }
                if info.rexmits == 0 && end == upto {
                    // tcptrace's rule (paper §3.3): sample the segment whose
                    // last byte this ACK acknowledges, and only if it was
                    // never retransmitted (Karn).
                    sample = Some((info.time_sent, now));
                }
            } else if start < upto {
                // Partial coverage: shrink the front entry in place.
                let cut = (upto - start) as usize;
                self.flight_bytes -= cut;
                if info.sacked {
                    self.sacked_bytes -= cut;
                }
                if info.queued {
                    self.queued_bytes -= cut;
                }
                if let Some(front) = self.flight.front_mut() {
                    front.0 = upto;
                    front.1.len -= cut as u32;
                }
                break;
            } else {
                break;
            }
        }
        if let Some((sent, at)) = sample {
            self.rtt.on_sample(at.saturating_since(sent));
        }
    }

    fn process_payload(&mut self, seg: &TcpSegment, now: SimTime) {
        let abs = self.rx_abs(seg.seq);
        // Reject data entirely before our window or absurdly far ahead.
        if abs + (seg.payload.len() as i64) <= 0 {
            // Old duplicate: ack immediately so the peer advances.
            self.stats.dup_bytes_received += seg.payload.len() as u64;
            self.ack_urgency = AckUrgency::Immediate;
            return;
        }
        let (off, data) = if abs < 0 {
            let skip = (-abs) as usize;
            (0u64, seg.payload.slice(skip..))
        } else {
            (abs as u64, seg.payload.clone())
        };
        let was_next = self.asm.next_expected();
        let accepted = self.asm.insert(off, data.clone(), now);
        self.stats.payload_bytes_received += accepted as u64;
        self.stats.dup_bytes_received += (data.len() - accepted) as u64;

        let in_order = off <= was_next && self.asm.next_expected() > was_next;
        let filled_or_ooo = !in_order || self.asm.out_of_order_bytes() > 0;
        self.segs_since_ack += 1;
        if filled_or_ooo || accepted == 0 || self.segs_since_ack >= 2 {
            // Out-of-order, hole-filling, or duplicate: ack immediately
            // (RFC 5681 §4.2); in order, ack every second segment.
            self.ack_urgency = AckUrgency::Immediate;
        } else if self.ack_urgency < AckUrgency::Delayed {
            const DELAYED_ACK: SimDuration = SimDuration::from_millis(40);
            self.ack_urgency = AckUrgency::Delayed;
            self.delack_deadline = Some(now + DELAYED_ACK);
        }
    }

    fn maybe_consume_fin(&mut self, now: SimTime) {
        let Some(fin_at) = self.fin_rcvd_at else {
            return;
        };
        if self.fin_consumed || self.asm.next_expected() != fin_at {
            return;
        }
        self.fin_consumed = true;
        self.ack_urgency = AckUrgency::Immediate;
        match self.state {
            TcpState::Established => self.state = TcpState::CloseWait,
            TcpState::FinWait1 => {
                // Our FIN not yet acked: simultaneous close.
                self.state = if self.fin_acked {
                    self.enter_time_wait(now);
                    TcpState::TimeWait
                } else {
                    TcpState::Closing
                };
            }
            TcpState::FinWait2 => {
                self.enter_time_wait(now);
                self.state = TcpState::TimeWait;
            }
            _ => {}
        }
    }

    fn on_fin_fully_acked(&mut self, now: SimTime) {
        if !self.fin_acked {
            return;
        }
        match self.state {
            TcpState::FinWait1 => self.state = TcpState::FinWait2,
            TcpState::Closing => {
                self.enter_time_wait(now);
                self.state = TcpState::TimeWait;
            }
            TcpState::LastAck => self.enter_closed(),
            _ => {}
        }
    }

    fn enter_time_wait(&mut self, now: SimTime) {
        const TIME_WAIT: SimDuration = SimDuration::from_millis(500);
        self.time_wait_deadline = Some(now + TIME_WAIT);
        self.rto_deadline = None;
    }

    fn enter_closed(&mut self) {
        self.state = TcpState::Closed;
        self.rto_deadline = None;
        self.persist_deadline = None;
        self.delack_deadline = None;
        self.time_wait_deadline = None;
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    fn arm_rto(&mut self, now: SimTime) {
        self.rto_deadline = Some(now + self.rtt.rto());
    }

    /// Earliest instant at which [`TcpSocket::on_timer`] needs to run.
    pub fn next_timeout(&self) -> Option<SimTime> {
        let mut t: Option<SimTime> = None;
        let mut fold = |d: Option<SimTime>| {
            if let Some(d) = d {
                t = Some(t.map_or(d, |cur: SimTime| cur.min(d)));
            }
        };
        fold(self.rto_deadline);
        fold(self.persist_deadline);
        fold(self.time_wait_deadline);
        if self.ack_urgency == AckUrgency::Delayed {
            fold(self.delack_deadline);
        }
        t
    }

    /// Handle a plain socket's timer expirations up to `now`.
    pub fn on_timer(&mut self, now: SimTime) {
        self.on_timer_with(&mut NoHooks, now);
    }

    /// Handle timer expirations up to `now`, with the context `cx` lends.
    pub fn on_timer_with(&mut self, cx: &mut impl TcpHooks, now: SimTime) {
        self.on_timer_inner(cx, now);
        self.debug_check("on_timer");
    }

    fn on_timer_inner(&mut self, cx: &mut impl TcpHooks, now: SimTime) {
        if self.state == TcpState::Closed {
            return;
        }
        if let Some(d) = self.time_wait_deadline {
            if now >= d {
                self.enter_closed();
                return;
            }
        }
        if self.ack_urgency == AckUrgency::Delayed {
            if let Some(d) = self.delack_deadline {
                if now >= d {
                    self.ack_urgency = AckUrgency::Immediate;
                    self.delack_deadline = None;
                }
            }
        }
        if let Some(d) = self.persist_deadline {
            if now >= d && self.peer_window == 0 && !self.send_buf.is_empty() {
                // Window probe: send one byte beyond snd_nxt if available.
                self.persist_deadline = Some(now + self.rtt.rto());
                self.peer_window = 1; // allow one probe byte out
            }
        }
        if let Some(d) = self.rto_deadline {
            if now >= d {
                self.handle_rto(cx, now);
            }
        }
    }

    fn handle_rto(&mut self, cx: &mut impl TcpHooks, now: SimTime) {
        self.stats.rtos += 1;
        self.consecutive_rtos += 1;
        if self.consecutive_rtos > self.cfg.max_consecutive_rtos {
            self.pending_reset = true;
            self.enter_closed();
            return;
        }
        self.rtt.backoff();
        match self.state {
            TcpState::SynSent => {
                self.need_syn = true;
                self.arm_rto(now);
            }
            TcpState::SynRcvd => {
                self.need_synack = true;
                self.arm_rto(now);
            }
            _ => {
                match &mut self.cc {
                    Cc::Own(cc) => cc.on_rto(self.flight_bytes),
                    Cc::Lent => cx.on_rto(self.flight_bytes),
                }
                self.in_recovery = false;
                self.dupacks = 0;
                // All unsacked in-flight data is presumed lost; retransmit
                // from the front as the (collapsed) window allows.
                self.rexmit_queue.clear();
                self.queued_bytes = 0;
                let mut requeued = 0usize;
                for &mut (k, ref mut info) in self.flight.iter_mut() {
                    info.queued = !info.sacked;
                    if info.queued {
                        requeued += info.len as usize;
                        self.rexmit_queue.push_back(k);
                    }
                }
                self.queued_bytes = requeued;
                if self.fin_outstanding() && self.flight.is_empty() {
                    self.fin_sent = false; // re-emit the FIN
                }
                self.arm_rto(now);
            }
        }
    }

    // ------------------------------------------------------------------
    // Outgoing segments
    // ------------------------------------------------------------------

    fn pipe(&self) -> usize {
        self.flight_bytes - self.sacked_bytes - self.queued_bytes
    }

    fn rcv_window_bytes(&self, cx: &impl TcpHooks) -> usize {
        cx.rcv_window().unwrap_or_else(|| {
            self.cfg
                .recv_buffer
                .saturating_sub(self.asm.buffered_bytes())
        })
    }

    fn window_field(&self, cx: &impl TcpHooks, on_syn: bool) -> u16 {
        let w = self.rcv_window_bytes(cx);
        if on_syn {
            w.min(65_535) as u16
        } else {
            (w >> self.cfg.window_scale).min(65_535) as u16
        }
    }

    fn sack_option(&self, budget: usize) -> Option<TcpOption> {
        if !self.sack_ok {
            return None;
        }
        let max_blocks = budget.saturating_sub(2) / 8;
        if max_blocks == 0 {
            return None;
        }
        let base = self.irs + 1;
        let blocks: SackBlocks = self
            .asm
            .sack_ranges(max_blocks.min(3))
            .map(|(lo, hi)| (base + lo as u32, base + hi as u32))
            .collect();
        (!blocks.is_empty()).then_some(TcpOption::Sack(blocks))
    }

    fn finish_segment(
        &mut self,
        cx: &mut impl TcpHooks,
        mut seg: TcpSegment,
        kind: TxKind,
    ) -> TcpSegment {
        let on_syn = seg.has(tcp_flags::SYN);
        // The segment's own list is filled in place. The handshake options
        // are 9 bytes and a SACK option is sized to what is left, so those
        // pushes cannot be refused; what the hooks could not fit stays
        // queued with them (`TcpHooks::tx_options`).
        let opts = &mut seg.options;
        if on_syn {
            let _ = opts.push(TcpOption::Mss(self.cfg.mss as u16));
            let _ = opts.push(TcpOption::WindowScale(self.cfg.window_scale));
            let _ = opts.push(TcpOption::SackPermitted);
        }
        cx.tx_options(kind, opts);
        // Fill remaining option space with SACK blocks on non-SYN ACKs.
        if !on_syn {
            if let Some(sack) = self.sack_option(MAX_OPTIONS_LEN - opts.byte_len()) {
                let _ = opts.push(sack);
            }
        }
        seg.window = self.window_field(cx, on_syn);
        self.stats.segs_sent += 1;
        if !seg.payload.is_empty() {
            self.stats.data_segs_sent += 1;
            self.stats.payload_bytes_sent += seg.payload.len() as u64;
            if matches!(kind, TxKind::Data { rexmit: true, .. }) {
                self.stats.rexmit_segs += 1;
                self.stats.rexmit_bytes += seg.payload.len() as u64;
            }
        }
        self.ack_urgency = AckUrgency::None;
        self.segs_since_ack = 0;
        self.delack_deadline = None;
        seg
    }

    fn rcv_nxt_wire(&self) -> SeqNum {
        let mut n = self.irs + 1 + (self.asm.next_expected() as u32);
        if self.fin_consumed {
            n += 1;
        }
        n
    }

    fn ack_flag(&self) -> u8 {
        // Every segment after SYN carries an ACK.
        tcp_flags::ACK
    }

    /// Emit a plain socket's next owed segment, if any. Call repeatedly
    /// until `None`.
    pub fn poll_transmit(&mut self, now: SimTime) -> Option<TcpSegment> {
        self.poll_transmit_with(&mut NoHooks, now)
    }

    /// Emit the next owed segment, with the context `cx` lends.
    pub fn poll_transmit_with(
        &mut self,
        cx: &mut impl TcpHooks,
        now: SimTime,
    ) -> Option<TcpSegment> {
        let seg = self.poll_transmit_inner(cx, now);
        self.debug_check("poll_transmit");
        seg
    }

    fn poll_transmit_inner(&mut self, cx: &mut impl TcpHooks, now: SimTime) -> Option<TcpSegment> {
        if self.pending_reset {
            self.pending_reset = false;
            let seg = TcpSegment::bare(
                self.local.port,
                self.remote.port,
                self.tx_wire_seq(self.snd_nxt),
                self.rcv_nxt_wire(),
                tcp_flags::RST | tcp_flags::ACK,
            );
            if self.state != TcpState::Closed {
                self.enter_closed();
            }
            self.stats.segs_sent += 1;
            return Some(seg);
        }
        if self.state == TcpState::Closed {
            return None;
        }

        if self.need_syn {
            self.need_syn = false;
            let seg = TcpSegment::bare(
                self.local.port,
                self.remote.port,
                self.iss,
                SeqNum(0),
                tcp_flags::SYN,
            );
            return Some(self.finish_segment(cx, seg, TxKind::Syn));
        }
        if self.need_synack {
            self.need_synack = false;
            let seg = TcpSegment::bare(
                self.local.port,
                self.remote.port,
                self.iss,
                self.rcv_nxt_wire(),
                tcp_flags::SYN | tcp_flags::ACK,
            );
            return Some(self.finish_segment(cx, seg, TxKind::SynAck));
        }
        if self.need_hs_ack {
            self.need_hs_ack = false;
            let seg = TcpSegment::bare(
                self.local.port,
                self.remote.port,
                self.tx_wire_seq(self.snd_nxt),
                self.rcv_nxt_wire(),
                self.ack_flag(),
            );
            return Some(self.finish_segment(cx, seg, TxKind::HandshakeAck));
        }
        if !self.is_established() && self.state != TcpState::TimeWait {
            return None;
        }

        // Retransmissions first.
        while let Some(&off) = self.rexmit_queue.front() {
            let Some(info) = self.flight.get(off).copied() else {
                self.rexmit_queue.pop_front();
                continue;
            };
            if !info.queued {
                self.rexmit_queue.pop_front();
                continue;
            }
            // The first retransmission of a recovery goes out regardless;
            // later ones respect the (halved) window.
            if self.pipe() + info.len as usize > self.cwnd(cx) && self.pipe() > 0 {
                break;
            }
            self.rexmit_queue.pop_front();
            let Some(entry) = self.flight.get_mut(off) else {
                continue;
            };
            entry.queued = false;
            entry.rexmits += 1;
            entry.time_sent = now;
            self.queued_bytes -= info.len as usize;
            let payload = self.send_buf.read(off, info.len as usize);
            debug_assert_eq!(payload.len(), info.len as usize);
            let mut seg = TcpSegment::bare(
                self.local.port,
                self.remote.port,
                self.tx_wire_seq(off),
                self.rcv_nxt_wire(),
                self.ack_flag() | tcp_flags::PSH,
            );
            seg.payload = payload;
            self.arm_rto(now);
            return Some(self.finish_segment(
                cx,
                seg,
                TxKind::Data {
                    abs_start: off,
                    len: info.len as usize,
                    rexmit: true,
                },
            ));
        }

        // New data.
        if self.can_send_data() {
            let wnd = self.cwnd(cx).min(self.peer_window);
            let pipe = self.pipe();
            if pipe < wnd {
                let avail = (self.send_buf.end() - self.snd_nxt) as usize;
                let mut len = avail.min(self.peer_mss).min(wnd - pipe);
                if let Some(limit) = cx.tx_segment_limit(self.snd_nxt) {
                    len = len.min(limit);
                }
                if len > 0 {
                    let off = self.snd_nxt;
                    let payload = self.send_buf.read(off, len);
                    self.snd_nxt += len as u64;
                    self.flight.push_back(
                        off,
                        TxInfo {
                            len: len as u32,
                            time_sent: now,
                            rexmits: 0,
                            sacked: false,
                            queued: false,
                        },
                    );
                    self.flight_bytes += len;
                    let mut seg = TcpSegment::bare(
                        self.local.port,
                        self.remote.port,
                        self.tx_wire_seq(off),
                        self.rcv_nxt_wire(),
                        self.ack_flag() | tcp_flags::PSH,
                    );
                    seg.payload = payload;
                    if self.rto_deadline.is_none() {
                        self.arm_rto(now);
                    }
                    return Some(self.finish_segment(
                        cx,
                        seg,
                        TxKind::Data {
                            abs_start: off,
                            len,
                            rexmit: false,
                        },
                    ));
                }
            }
        }

        // FIN.
        if self.fin_queued
            && !self.fin_sent
            && self.snd_nxt == self.send_buf.end()
            && matches!(
                self.state,
                TcpState::Established | TcpState::CloseWait | TcpState::FinWait1 | TcpState::LastAck | TcpState::Closing
            )
        {
            self.fin_sent = true;
            match self.state {
                TcpState::Established => self.state = TcpState::FinWait1,
                TcpState::CloseWait => self.state = TcpState::LastAck,
                _ => {}
            }
            let seg = TcpSegment::bare(
                self.local.port,
                self.remote.port,
                self.tx_wire_seq(self.snd_nxt),
                self.rcv_nxt_wire(),
                self.ack_flag() | tcp_flags::FIN,
            );
            self.arm_rto(now);
            return Some(self.finish_segment(cx, seg, TxKind::Fin));
        }

        // Pure ACK.
        if self.ack_urgency == AckUrgency::Immediate {
            let seg = TcpSegment::bare(
                self.local.port,
                self.remote.port,
                self.tx_wire_seq(self.snd_nxt),
                self.rcv_nxt_wire(),
                self.ack_flag(),
            );
            return Some(self.finish_segment(cx, seg, TxKind::Ack));
        }

        None
    }

    fn can_send_data(&self) -> bool {
        self.snd_nxt < self.send_buf.end()
            && matches!(
                self.state,
                TcpState::Established | TcpState::CloseWait
            )
    }
}

// The oracle is compiled out of a release build without `check-invariants`.
#[cfg(all(test, any(debug_assertions, feature = "check-invariants")))]
mod tests {
    use super::*;
    use crate::cc::{CcConfig, NewReno};
    use crate::testkit::test_endpoints;

    /// The oracle bites: with the flight accounting broken through a private
    /// field, every wrapped entry point aborts, and names itself. (`accept`,
    /// the fifth wrapped fn, is a constructor: there is no socket to break
    /// before it runs, so no input can make its check fire.)
    #[test]
    fn every_wrapped_entry_point_runs_the_oracle_under_its_own_label() {
        type Entry = fn(&mut TcpSocket, SimTime);
        let entries: [(&str, Entry); 4] = [
            ("on_segment", |s, now| {
                s.on_segment(&TcpSegment::bare(80, 4000, SeqNum(7), SeqNum(0), tcp_flags::ACK), now)
            }),
            ("on_timer", |s, now| s.on_timer(now)),
            ("poll_transmit", |s, now| drop(s.poll_transmit(now))),
            ("close", |s, _| s.close()),
        ];
        for (site, enter) in entries {
            let (local, remote) = test_endpoints();
            let mut s = TcpSocket::connect(
                TcpConfig::default(),
                Box::new(NewReno::new(CcConfig::default())),
                Box::new(NoHooks),
                local,
                remote,
                0,
                SeqNum(1_000),
                SimTime::ZERO,
            );
            s.flight_bytes += 1;
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                enter(&mut s, SimTime::ZERO)
            }));
            let payload = caught.expect_err(site);
            let msg = payload.downcast_ref::<String>().expect("a formatted panic");
            assert!(msg.starts_with(&format!("TCP invariant violated after {site} ")), "{msg}");
            assert!(msg.contains("flight accounting drifted"), "{msg}");
        }
    }
}
