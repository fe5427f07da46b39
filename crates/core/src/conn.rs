//! The MPTCP connection: subflow management, DSS data-sequence mapping,
//! connection-level reassembly, scheduling, and reinjection.
//!
//! One [`MptcpConnection`] owns N [`Subflow`]s, each wrapping an
//! `mpw_tcp::TcpSocket`. A socket holds no reference back: for each call the
//! connection lends it a `SubflowCx` over its own state, through which the
//! socket attaches and harvests MPTCP options and reaches its coupled
//! congestion window. The
//! connection keeps a single data-sequence space: application bytes enter
//! `conn_buf`, the scheduler assigns MSS-sized chunks to subflows (recording
//! the DSS mapping), and the receiving side reassembles by data sequence
//! number in a *shared* receive buffer whose occupancy backs every subflow's
//! advertised window (§3.1 of the paper). The connection-level reassembler
//! timestamps arrivals to produce the paper's out-of-order-delay metric.

// A data-path module of the alloc wall (DESIGN.md §5.12): no `to_vec` (the
// list is in the root `clippy.toml`).
#![deny(clippy::disallowed_methods)]

use std::collections::VecDeque;

use bytes::Bytes;
use mpw_metrics::{PathEvent, PathEventKind};
use mpw_sim::{SimDuration, SimRng, SimTime};
use mpw_tcp::buf::{Assembler, SendBuffer};
use mpw_tcp::wire::{tcp_flags, DssMapping};
use mpw_tcp::{
    Addr, Cc, CcConfig, Endpoint, MptcpOption, NoHooks, OptionList, SeqNum, TcpConfig, TcpHooks,
    TcpOption, TcpSegment, TcpSocket, TxKind,
};
use serde::{Deserialize, Serialize};

use crate::coupling::{Coupling, CouplingState};
use crate::key::{key_from_seed, token_from_key};
use crate::scheduler::{Scheduler, SchedulerState, SubflowView};

/// When additional subflows send their SYNs (paper §4.1.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SynMode {
    /// Standard MPTCP: extra subflows join only after the first subflow's
    /// handshake completes.
    Delayed,
    /// The paper's modification: SYNs go out on every path simultaneously.
    Simultaneous,
}

/// How the connection reacts to an *advance* degradation signal (WiFi
/// signal fade reported by the scenario engine) — the handover-mode axis of
/// the paper's §7 discussion.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HandoverPolicy {
    /// Ignore advance signals: the fading path keeps carrying traffic until
    /// it hard-fails (stall / socket death), and only then does the
    /// scheduler move. Simple, but the application eats the full stall.
    BreakBeforeMake,
    /// React to the signal: demote the fading path to backup (MP_PRIO)
    /// immediately, shifting traffic to the surviving path *while the
    /// fading one still works*. Restoration re-promotes it.
    MakeBeforeBreak,
}

/// Path-lifecycle (subflow death / re-establishment) configuration.
///
/// Off by default: steady-state campaigns have no mobility, and the
/// pre-existing behaviour (dead subflows linger, their data is reinjected)
/// is exactly what `reopen: false` preserves. The handover campaigns turn
/// it on.
#[derive(Clone, Debug)]
pub struct LifecycleConfig {
    /// Master switch: detect subflow death and re-establish replacements.
    pub reopen: bool,
    /// Reaction to advance degradation signals ([`MptcpConnection::notify_signal`]).
    pub policy: HandoverPolicy,
}

impl Default for LifecycleConfig {
    fn default() -> Self {
        LifecycleConfig {
            reopen: false,
            policy: HandoverPolicy::MakeBeforeBreak,
        }
    }
}

/// Give up on a path after this many consecutive failed reopens.
const MAX_REOPEN_ATTEMPTS: u32 = 8;

/// A scheduled subflow re-establishment.
#[derive(Clone, Copy, Debug)]
struct PendingReopen {
    if_index: u8,
    remote: Endpoint,
    /// 1-based consecutive attempt number for this (if, remote) pair.
    attempt: u32,
    due: SimTime,
}

/// MPTCP connection configuration.
#[derive(Clone, Debug)]
pub struct MptcpConfig {
    /// Per-subflow TCP configuration.
    pub tcp: TcpConfig,
    /// Congestion-control parameters (ssthresh 64 KB, IW 10 — §3.1).
    pub cc: CcConfig,
    /// Coupling algorithm.
    pub coupling: Coupling,
    /// Packet scheduler.
    pub scheduler: Scheduler,
    /// SYN timing for additional subflows.
    pub syn_mode: SynMode,
    /// Connection-level send buffer (bytes held until data-acked).
    pub conn_send_buffer: usize,
    /// Shared connection-level receive buffer (8 MB in the paper).
    pub recv_buffer: usize,
    /// The Linux v0.86 penalization mechanism; the paper *removed* it
    /// (§3.1), so it defaults to off, but the ablation benches re-enable it.
    pub penalization: bool,
    /// Maximum number of subflows (2 or 4 in the paper).
    pub max_subflows: usize,
    /// Client interfaces whose subflows join as *backup* paths (RFC 6824 'B'
    /// bit): the scheduler uses them only when every regular subflow is dead
    /// or stalled — the "backup mode" of Paasch et al. that the paper
    /// contrasts with full-MPTCP mode (§7).
    pub backup_ifs: Vec<u8>,
    /// Ignored; stays while `benchmark/` names it (ROADMAP 7(i)).
    pub record_ofo_samples: bool,
    /// Path lifecycle: subflow-death detection and re-establishment.
    pub lifecycle: LifecycleConfig,
}

impl Default for MptcpConfig {
    fn default() -> Self {
        MptcpConfig {
            tcp: TcpConfig::default(),
            cc: CcConfig::default(),
            coupling: Coupling::Coupled,
            scheduler: Scheduler::MinRtt,
            syn_mode: SynMode::Delayed,
            conn_send_buffer: 2 * 1024 * 1024,
            recv_buffer: 8 * 1024 * 1024,
            penalization: false,
            max_subflows: 2,
            backup_ifs: Vec::new(),
            record_ofo_samples: false,
            lifecycle: LifecycleConfig::default(),
        }
    }
}

/// The part a subflow plays in the MPTCP handshake.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum HsRole {
    /// Client side of the first subflow (sends MP_CAPABLE).
    CapableClient,
    /// Server side of the first subflow.
    CapableServer,
    /// Client side of an MP_JOIN subflow.
    JoinClient,
    /// Server side of an MP_JOIN subflow.
    JoinServer,
}

/// The DSS mappings of one subflow's unacknowledged stream, oldest first:
/// `(subflow abs offset, len, dseq)`.
///
/// The scheduler records a mapping as it writes into the subflow, so the
/// ring is sorted and contiguous in subflow offsets by construction
/// (`validate` checks it). That makes both per-segment operations O(1):
/// subflow-level acks retire mappings as a prefix, and the mapping a new
/// data segment needs is the one at `cursor` or the one after it. Only a
/// retransmission, which starts below the cursor's mapping, searches.
#[derive(Clone, Debug, Default)]
struct TxMaps {
    ring: VecDeque<(u64, u32, u64)>,
    /// Index in `ring` of the mapping the subflow's `snd_nxt` was last
    /// found in. A lookup cache only: no result depends on its value.
    cursor: usize,
}

impl TxMaps {
    /// Forget the mappings wholly below the subflow-level ack `acked`.
    fn prune(&mut self, acked: u64) {
        while self.ring.front().is_some_and(|&(s, l, _)| s + l as u64 <= acked) {
            self.ring.pop_front();
            self.cursor = self.cursor.saturating_sub(1);
        }
    }

    /// The mapping holding subflow offset `abs`, if one does.
    fn find(&mut self, abs: u64) -> Option<(u64, u32, u64)> {
        while let Some(&(s, l, d)) = self.ring.get(self.cursor) {
            if abs < s {
                break; // a retransmission from below the send point
            }
            if abs < s + l as u64 {
                return Some((s, l, d));
            }
            self.cursor += 1;
        }
        let i = self.ring.partition_point(|&(s, l, _)| s + l as u64 <= abs);
        self.ring.get(i).copied().filter(|&(s, _, _)| s <= abs)
    }

    /// The DSS mapping of a data segment `[abs_start, abs_start + len)`, if
    /// one mapping covers it.
    fn dss_for_data(&mut self, abs_start: u64, len: usize) -> Option<DssMapping> {
        // For new data `tx_segment_limit` has just left the cursor here.
        let (s, l, dseq) = self.find(abs_start)?;
        if abs_start + len as u64 > s + l as u64 {
            return None;
        }
        Some(DssMapping {
            dseq: dseq + (abs_start - s),
            subflow_seq: SeqNum(0), // filled by convention: equals segment seq
            len: len as u16,
        })
    }
}

/// Per-subflow connection state, which the subflow's calls reach through
/// its [`SubflowCx`].
#[derive(Clone, Debug)]
struct SubflowShared {
    /// The part this subflow plays in the MPTCP handshake.
    role: HsRole,
    /// MP_JOIN nonce.
    nonce: u32,
    /// The 'B' bit its MP_JOIN carries: the backup state it opened with.
    join_backup: bool,
    /// Mappings for transmitted, not yet subflow-acked data.
    tx_maps: TxMaps,
    /// ADD_ADDR advertisements queued until a segment has room for them.
    pending_add_addr: VecDeque<(u8, Endpoint)>,
    /// MP_PRIO change queued until a segment has room for it.
    pending_prio: Option<bool>,
    /// MP_PRIO received from the peer, to apply to this subflow.
    prio_rx: Option<bool>,
    /// Novel payload bytes this subflow delivered into the connection-level
    /// receive buffer (traffic-share metric, Figures 3/5/7/10).
    delivered_bytes: u64,
}

/// Connection state the subflows' calls reach through their [`SubflowCx`].
#[derive(Clone, Debug)]
struct ConnShared {
    local_key: u64,
    remote_key: Option<u64>,
    token: u32,
    /// None = outcome unknown; Some(false) = peer not MPTCP-capable
    /// (fallback to plain TCP, as behind the paper's AT&T proxy).
    remote_capable: Option<bool>,
    recv_buffer: usize,
    /// Connection-level receive reassembly in dseq space, with OFO-delay
    /// sampling enabled (§3.3).
    rx: Assembler,
    /// Highest data-ack received from the peer.
    peer_data_ack: u64,
    /// dseq position of the peer's DATA_FIN, once seen.
    peer_data_fin: Option<u64>,
    /// A DATA_FIN just arrived and has not been data-acked yet; the
    /// connection must push an ACK or the peer deadlocks awaiting it.
    data_fin_needs_ack: bool,
    /// Our DATA_FIN position, once closing and fully assigned.
    tx_data_fin: Option<u64>,
    /// Addresses the peer advertised via ADD_ADDR.
    peer_addrs: Vec<(u8, Endpoint)>,
    flows: Vec<SubflowShared>,
}

impl ConnShared {
    fn free_rx_window(&self) -> usize {
        self.recv_buffer.saturating_sub(self.rx.buffered_bytes())
    }

    fn data_ack_value(&self) -> u64 {
        let mut ack = self.rx.next_expected();
        if let Some(fin) = self.peer_data_fin {
            if ack == fin {
                ack += 1; // the DATA_FIN consumes one data sequence slot
            }
        }
        ack
    }
}

/// What subflow `idx`'s socket borrows from its connection for one call:
/// the connection state its MPTCP options read and write, and its coupled
/// congestion window ([`Cc::Lent`]).
struct SubflowCx<'a> {
    shared: &'a mut ConnShared,
    coupling: &'a mut CouplingState,
    idx: usize,
}

/// Lends a subflow socket its coupled window for a call that only reads it.
struct LentCwnd(usize);

impl TcpHooks for LentCwnd {
    fn cwnd(&self) -> usize {
        self.0
    }
}

impl TcpHooks for SubflowCx<'_> {
    fn tx_options(&mut self, kind: TxKind, opts: &mut OptionList) {
        let shared = &mut *self.shared;
        if shared.remote_capable == Some(false) {
            return; // fallback: plain TCP from here on
        }
        let key_local = shared.local_key;
        let capable = |key_remote| MptcpOption::Capable { key_local, key_remote };
        let fl = &mut shared.flows[self.idx];
        let join = MptcpOption::Join {
            token: shared.token,
            nonce: fl.nonce,
            backup: fl.join_backup,
        };
        let own = match (kind, fl.role) {
            (TxKind::Syn, HsRole::CapableClient) => Some(capable(None)),
            (TxKind::SynAck, HsRole::CapableServer) => Some(capable(None)),
            (TxKind::HandshakeAck, HsRole::CapableClient) => Some(capable(shared.remote_key)),
            (TxKind::Syn, HsRole::JoinClient) | (TxKind::SynAck, HsRole::JoinServer) => Some(join),
            (TxKind::Syn | TxKind::SynAck | TxKind::HandshakeAck, _) => None,
            (TxKind::Data { abs_start, len, .. }, _) => {
                let mapping = fl.tx_maps.dss_for_data(abs_start, len);
                debug_assert!(mapping.is_some(), "data segment without DSS mapping");
                let fin_here = shared
                    .tx_data_fin
                    .is_some_and(|f| mapping.map(|m| m.dseq + m.len as u64) == Some(f));
                Some(MptcpOption::Dss {
                    data_ack: Some(shared.data_ack_value()),
                    mapping,
                    data_fin: fin_here,
                })
            }
            (TxKind::Ack | TxKind::Fin, _) => {
                // Pure data-ack; if we are closing and everything is
                // assigned, signal DATA_FIN with a zero-length mapping.
                let data_fin = shared.tx_data_fin;
                Some(MptcpOption::Dss {
                    data_ack: Some(shared.data_ack_value()),
                    mapping: data_fin.map(|f| DssMapping {
                        dseq: f,
                        subflow_seq: SeqNum(0),
                        len: 0,
                    }),
                    data_fin: data_fin.is_some(),
                })
            }
        };
        if let Some(own) = own {
            // First into a list holding at most the 9 bytes of SYN options,
            // and none of these is longer than 26.
            let fits = opts.push(TcpOption::Mptcp(own));
            debug_assert!(fits, "{kind:?}: no room for the segment's own MPTCP option");
        }
        // Queued signalling rides along while the budget lasts — the MP_PRIO
        // change first, then ADD_ADDRs in order — and whatever `push`
        // refuses stays queued for a later segment (`post_event` keeps an
        // ACK owed until the queue is empty).
        let fl = &mut shared.flows[self.idx];
        if let Some(backup) = fl.pending_prio {
            if opts.push(TcpOption::Mptcp(MptcpOption::Prio { backup })) {
                fl.pending_prio = None;
            }
        }
        while let Some(&(addr_id, ep)) = fl.pending_add_addr.front() {
            let add_addr = MptcpOption::AddAddr { addr_id, addr: ep.addr, port: ep.port };
            if !opts.push(TcpOption::Mptcp(add_addr)) {
                break;
            }
            fl.pending_add_addr.pop_front();
        }
    }

    fn on_rx(&mut self, seg: &TcpSegment, now: SimTime) {
        let shared = &mut *self.shared;
        let role = shared.flows[self.idx].role;
        let mut saw_mptcp = false;
        for opt in &seg.options {
            let TcpOption::Mptcp(m) = opt else { continue };
            saw_mptcp = true;
            match m {
                MptcpOption::Capable { key_local, .. } => {
                    if role == HsRole::CapableClient && shared.remote_key.is_none() {
                        shared.remote_key = Some(key_local);
                        shared.remote_capable = Some(true);
                    }
                    if role == HsRole::CapableServer {
                        shared.remote_capable = Some(true);
                    }
                }
                MptcpOption::Join { .. } => {}
                MptcpOption::Prio { backup } => {
                    shared.flows[self.idx].prio_rx = Some(backup);
                }
                MptcpOption::AddAddr { addr_id, addr, port } => {
                    let ep = Endpoint::new(addr, port);
                    if !shared.peer_addrs.iter().any(|(_, e)| *e == ep) {
                        shared.peer_addrs.push((addr_id, ep));
                    }
                }
                MptcpOption::Dss {
                    data_ack,
                    mapping,
                    data_fin,
                } => {
                    if let Some(ack) = data_ack {
                        shared.peer_data_ack = shared.peer_data_ack.max(ack);
                    }
                    if let Some(map) = mapping {
                        if map.len > 0 && !seg.payload.is_empty() {
                            let take = (map.len as usize).min(seg.payload.len());
                            let accepted = shared.rx.insert(
                                map.dseq,
                                seg.payload.slice(..take),
                                now,
                            );
                            shared.flows[self.idx].delivered_bytes += accepted as u64;
                        }
                        // A mapping whose end overflows the 64-bit data
                        // sequence space is nonsense from the wire; ignore
                        // its DATA_FIN rather than panicking on overflow.
                        if data_fin {
                            if let Some(fin_at) = map.dseq.checked_add(map.len as u64) {
                                if shared.peer_data_fin.is_none() {
                                    shared.data_fin_needs_ack = true;
                                }
                                shared.peer_data_fin = Some(fin_at);
                            }
                        }
                    } else if data_fin {
                        // DATA_FIN without mapping: at current data ack edge.
                        let at = shared.rx.next_expected();
                        if shared.peer_data_fin.is_none() {
                            shared.data_fin_needs_ack = true;
                        }
                        shared.peer_data_fin.get_or_insert(at);
                    }
                }
            }
        }
        // Detect fallback: the first subflow's SYN-ACK without any MPTCP
        // option means a middlebox stripped it (or the peer is plain TCP).
        if role == HsRole::CapableClient
            && seg.has(tcp_flags::SYN)
            && seg.has(tcp_flags::ACK)
            && !saw_mptcp
            && shared.remote_capable.is_none()
        {
            shared.remote_capable = Some(false);
        }
    }

    fn rcv_window(&self) -> Option<usize> {
        if self.shared.remote_capable == Some(false) {
            None
        } else {
            Some(self.shared.free_rx_window())
        }
    }

    fn tx_segment_limit(&mut self, abs_start: u64) -> Option<usize> {
        if self.shared.remote_capable == Some(false) {
            return None;
        }
        let (s, l, _) = self.shared.flows[self.idx].tx_maps.find(abs_start)?;
        Some((s + l as u64 - abs_start) as usize)
    }

    fn cwnd(&self) -> usize {
        self.coupling.cwnd(self.idx)
    }

    fn on_ack(&mut self, bytes_acked: usize, srtt: Option<SimDuration>) {
        self.coupling.on_ack(self.idx, bytes_acked);
        if let Some(srtt) = srtt {
            self.coupling.on_rtt_update(self.idx, srtt);
        }
    }

    fn on_loss_event(&mut self, flight_bytes: usize) {
        self.coupling.on_loss_event(self.idx, flight_bytes);
    }

    fn on_rto(&mut self, flight_bytes: usize) {
        self.coupling.on_rto(self.idx, flight_bytes);
    }
}

/// One subflow of an MPTCP connection.
#[derive(Clone)]
pub struct Subflow {
    /// The TCP state machine carrying this subflow.
    pub sock: TcpSocket,
    /// Client-side interface index (0 = default/WiFi, 1 = cellular, …).
    pub if_index: u8,
    /// Local endpoint.
    pub local: Endpoint,
    /// Remote endpoint.
    pub remote: Endpoint,
    /// Backup path ('B' bit): scheduled only when regular paths are gone.
    pub backup: bool,
    /// Declared dead by the lifecycle manager (RTO stall past the death
    /// threshold, socket death, or a link-down notification). Dead subflows
    /// are invisible to the scheduler and their data is reinjected; a
    /// replacement may be re-established on the same (interface, remote).
    pub dead: bool,
}

/// Close `sock` from inside the housekeeping pass and say whether its state
/// moved. A socket still in SYN-SENT is deleted on the spot, and the pass
/// reads socket states: one that moves under it owes the next pass.
fn close_moved_state(sock: &mut TcpSocket) -> bool {
    let state = sock.state();
    sock.close();
    sock.state() != state
}

#[derive(Clone, Copy, Debug)]
struct Assignment {
    subflow: usize,
    len: u32,
}

/// dseq → assignment ledger, sorted ascending by dseq in a ring buffer.
///
/// The scheduler assigns fresh dseq ranges in order, so the steady-state
/// write is a `push_back` and the steady-state cleanup (connection-level
/// data-acks) is a `pop_front` — no per-segment allocator traffic, unlike
/// the `BTreeMap` this replaced. Reinjection after a subflow dies may
/// re-insert a lower dseq; that rare case pays an O(n) shift.
#[derive(Clone, Debug, Default)]
struct Assignments {
    entries: VecDeque<(u64, Assignment)>,
}

impl Assignments {
    fn front(&self) -> Option<(u64, Assignment)> {
        self.entries.front().copied()
    }

    fn pop_front(&mut self) -> Option<(u64, Assignment)> {
        self.entries.pop_front()
    }

    fn insert(&mut self, dseq: u64, a: Assignment) {
        match self.entries.back() {
            Some(&(d, _)) if d >= dseq => {
                let i = self.entries.partition_point(|&(d, _)| d < dseq);
                if self.entries.get(i).is_some_and(|&(d, _)| d == dseq) {
                    self.entries[i].1 = a;
                } else {
                    self.entries.insert(i, (dseq, a));
                }
            }
            _ => self.entries.push_back((dseq, a)),
        }
    }

    fn remove(&mut self, dseq: u64) {
        if let Ok(i) = self.entries.binary_search_by_key(&dseq, |&(d, _)| d) {
            self.entries.remove(i);
        }
    }

    fn iter(&self) -> impl Iterator<Item = &(u64, Assignment)> {
        self.entries.iter()
    }
}

/// Statistics snapshot of an MPTCP connection.
#[derive(Clone, Debug, Default)]
pub struct ConnStats {
    /// Bytes delivered in order to the application.
    pub bytes_delivered: u64,
    /// Per-subflow delivered payload bytes (traffic share).
    pub per_subflow_delivered: Vec<u64>,
    /// Whether the connection fell back to plain TCP.
    pub fell_back: bool,
    /// Housekeeping passes run so far: one per segment in, timer or
    /// notification, plus the `poll_transmit`s that found one owed. An
    /// exact, machine-independent count (`work_gate` prints it per server
    /// data segment).
    pub housekeeping_passes: u64,
}

/// An MPTCP connection endpoint (client or server side).
#[derive(Clone)]
pub struct MptcpConnection {
    /// Configuration in force.
    pub cfg: MptcpConfig,
    /// Connection identifier (unique per run, used in traces).
    pub conn_id: u32,
    shared: ConnShared,
    /// Subflows in creation order; index 0 is the MP_CAPABLE subflow.
    pub subflows: Vec<Subflow>,
    /// Every subflow's congestion window, in subflow order.
    coupling: CouplingState,
    sched: SchedulerState,
    conn_buf: SendBuffer,
    /// dseq → assignment, for reinjection bookkeeping.
    assignments: Assignments,
    /// Next dseq not yet assigned to any subflow.
    next_unassigned: u64,
    /// dseq ranges queued for reinjection on another subflow.
    reinject: VecDeque<(u64, u32)>,
    /// Scratch for the scheduler's per-segment subflow snapshot, reused so
    /// the steady-state pump stays off the heap (the allocation gate).
    sched_views: Vec<SubflowView>,
    /// Scratch for `reinject_from_dead_subflows` (dead subflow indices),
    /// reused across calls per the same allocation discipline.
    dead_scratch: Vec<usize>,
    /// Scratch for `reinject_from_dead_subflows` (moved dseq ranges).
    moved_scratch: Vec<(u64, u32)>,
    /// Replacement subflows awaiting their backoff deadline.
    pending_reopens: Vec<PendingReopen>,
    /// Consecutive failed-reopen counters per (interface, remote) pair;
    /// reset to zero when a replacement establishes.
    reopen_attempts: Vec<(u8, Endpoint, u32)>,
    /// Handover event log, in the metrics layer's own vocabulary.
    lifecycle_log: Vec<PathEvent>,
    is_client: bool,
    app_closed: bool,
    /// Local interface addresses (client) or host addresses (server).
    local_addrs: Vec<Addr>,
    /// Remote addresses known (server primary + any ADD_ADDR learnt).
    remote_addrs: Vec<Endpoint>,
    joins_launched: bool,
    addr_advertised: bool,
    rng: SimRng,
    next_port: u16,
    last_penalty_at: SimTime,
    /// Housekeeping is owed: something `post_event_inner` reads may have
    /// changed since its last pass (DESIGN.md §5.4). Everything that can
    /// change such state sets it; `poll_transmit` runs the pass only when
    /// it is set. Bookkeeping about the pass, not connection state, so it
    /// stays out of `fingerprint()`.
    housekeeping_owed: bool,
    housekeeping_passes: u64,
    /// Test-only fault injection: record fresh DSS mappings shifted back by
    /// one byte, silently corrupting the dseq space (ISSUE 3's planted bug).
    inject_overlapping_dss: bool,
    /// Download bookkeeping: when the first SYN left (paper's download-time
    /// start point).
    pub opened_at: SimTime,
}

// A connection owns everything it holds: a shared cell (`Rc`) or an
// unbounded `Box<dyn …>` field would make it `!Send`, and this fail to
// compile.
const _: fn() = || {
    fn ok<T: Clone + Send>() {}
    ok::<MptcpConnection>();
};

impl MptcpConnection {
    /// Active (client) open. `local_addrs[0]` is the default path (WiFi in
    /// the paper); `remote` is the server's primary endpoint.
    pub fn connect(
        cfg: MptcpConfig,
        conn_id: u32,
        local_addrs: Vec<Addr>,
        remote: Endpoint,
        rng: SimRng,
        now: SimTime,
    ) -> Self {
        let mut conn = Self::new(cfg, conn_id, None, local_addrs, remote, rng, now);
        conn.spawn_subflow(0, remote, HsRole::CapableClient, now);
        if conn.cfg.syn_mode == SynMode::Simultaneous {
            conn.launch_joins(now);
        }
        conn
    }

    /// Passive (server) open from an MP_CAPABLE SYN. `local_addrs` lists
    /// every server interface address (the secondary is advertised via
    /// ADD_ADDR for 4-path experiments).
    #[allow(clippy::too_many_arguments)]
    pub fn accept(
        cfg: MptcpConfig,
        conn_id: u32,
        local: Endpoint,
        remote: Endpoint,
        local_addrs: Vec<Addr>,
        syn: &TcpSegment,
        rng: SimRng,
        now: SimTime,
    ) -> Option<Self> {
        let client_key = syn.options.iter().find_map(|o| match o {
            TcpOption::Mptcp(MptcpOption::Capable { key_local, .. }) => Some(key_local),
            _ => None,
        })?;
        let mut conn = Self::new(cfg, conn_id, Some(client_key), local_addrs, remote, rng, now);
        conn.accept_subflow(local, remote, HsRole::CapableServer, syn, now);
        Some(conn)
    }

    /// A connection with no subflow yet. The role follows from what is
    /// known of the peer's key: a server has the client's from its
    /// MP_CAPABLE SYN (`client_key`), a client learns the server's from the
    /// SYN-ACK. The local key is the first draw from `rng`.
    fn new(
        cfg: MptcpConfig,
        conn_id: u32,
        client_key: Option<u64>,
        local_addrs: Vec<Addr>,
        remote: Endpoint,
        mut rng: SimRng,
        now: SimTime,
    ) -> Self {
        let local_key = key_from_seed(rng.next_u64());
        let is_client = client_key.is_none();
        let shared = ConnShared {
            local_key,
            remote_key: client_key,
            token: token_from_key(client_key.unwrap_or(local_key)),
            remote_capable: client_key.map(|_| true),
            recv_buffer: cfg.recv_buffer,
            rx: Assembler::new(0, false),
            peer_data_ack: 0,
            peer_data_fin: None,
            data_fin_needs_ack: false,
            tx_data_fin: None,
            peer_addrs: Vec::new(),
            flows: Vec::new(),
        };
        let coupling = CouplingState::new(cfg.coupling, cfg.cc.mss);
        let next_port = if is_client {
            40_000u16.wrapping_add((conn_id as u16).wrapping_mul(31))
        } else {
            0
        };
        // A multi-homed server advertises its secondary interface; whether
        // the client joins it is capped by the client's max_subflows (the
        // paper's 2-path vs 4-path axis is "is the second server NIC up").
        // Clients advertise nothing in our testbed, and servers never
        // initiate joins.
        let addr_advertised = is_client || local_addrs.len() <= 1;
        MptcpConnection {
            cfg,
            conn_id,
            shared,
            subflows: Vec::new(),
            coupling,
            sched: SchedulerState::default(),
            conn_buf: SendBuffer::new(),
            assignments: Assignments::default(),
            next_unassigned: 0,
            reinject: VecDeque::new(),
            sched_views: Vec::new(),
            dead_scratch: Vec::new(),
            moved_scratch: Vec::new(),
            pending_reopens: Vec::new(),
            reopen_attempts: Vec::new(),
            lifecycle_log: Vec::new(),
            is_client,
            app_closed: false,
            local_addrs,
            remote_addrs: vec![remote],
            joins_launched: !is_client,
            addr_advertised,
            rng,
            next_port,
            last_penalty_at: SimTime::ZERO,
            housekeeping_owed: true,
            housekeeping_passes: 0,
            inject_overlapping_dss: false,
            opened_at: now,
        }
    }

    /// The connection token (server join demultiplexing key).
    pub fn token(&self) -> u32 {
        self.shared.token
    }

    fn alloc_port(&mut self) -> u16 {
        let p = self.next_port;
        self.next_port = self.next_port.wrapping_add(1);
        40_000 + (p % 20_000)
    }

    /// Subflow `idx`'s socket, with the context its calls borrow from the
    /// rest of the connection.
    fn subflow_mut(&mut self, idx: usize) -> Option<(&mut TcpSocket, SubflowCx<'_>)> {
        let sf = self.subflows.get_mut(idx)?;
        let cx = SubflowCx {
            shared: &mut self.shared,
            coupling: &mut self.coupling,
            idx,
        };
        Some((&mut sf.sock, cx))
    }

    /// Register a new subflow's connection state and coupled window; the
    /// socket goes in at the same index.
    fn add_flow(&mut self, role: HsRole, join_backup: bool) {
        self.shared.flows.push(SubflowShared {
            role,
            nonce: self.rng.next_u64() as u32,
            join_backup,
            tx_maps: TxMaps::default(),
            pending_add_addr: VecDeque::new(),
            pending_prio: None,
            prio_rx: None,
            delivered_bytes: 0,
        });
        self.coupling.register(&self.cfg.cc);
    }

    fn spawn_subflow(&mut self, if_index: u8, remote: Endpoint, role: HsRole, now: SimTime) {
        let backup = self.cfg.backup_ifs.contains(&if_index);
        self.add_flow(role, backup);
        let local = Endpoint::new(self.local_addrs[if_index as usize], self.alloc_port());
        let iss = SeqNum(self.rng.next_u64() as u32);
        let sock = TcpSocket::connect(
            self.cfg.tcp.clone(),
            Cc::Lent,
            Box::new(NoHooks),
            local,
            remote,
            if_index,
            iss,
            now,
        );
        self.push_subflow(Subflow {
            sock,
            if_index,
            local,
            remote,
            backup,
            dead: false,
        });
    }

    /// Append a subflow, growing the vector by exactly one. A connection
    /// holds a handful of subflows, and a `Subflow` is under 1 KiB, where
    /// std's first growth step would reserve four of them.
    fn push_subflow(&mut self, sf: Subflow) {
        self.subflows.reserve_exact(1);
        self.subflows.push(sf);
    }

    fn accept_subflow(
        &mut self,
        local: Endpoint,
        remote: Endpoint,
        role: HsRole,
        syn: &TcpSegment,
        now: SimTime,
    ) {
        let idx = self.subflows.len();
        // The peer's JOIN carries the backup ('B') bit.
        let backup = syn.options.iter().any(|o| {
            matches!(
                o,
                TcpOption::Mptcp(MptcpOption::Join { backup: true, .. })
            )
        });
        self.add_flow(role, backup);
        let iss = SeqNum(self.rng.next_u64() as u32);
        // The server-side if_index is the index of the local address.
        let if_index = self
            .local_addrs
            .iter()
            .position(|a| *a == local.addr)
            .unwrap_or(0) as u8;
        let sock = TcpSocket::accept(
            self.cfg.tcp.clone(),
            Cc::Lent,
            Box::new(NoHooks),
            local,
            remote,
            if_index,
            iss,
            syn,
            now,
        );
        SubflowCx {
            shared: &mut self.shared,
            coupling: &mut self.coupling,
            idx,
        }
        .on_rx(syn, now);
        self.push_subflow(Subflow {
            sock,
            if_index,
            local,
            remote,
            backup,
            dead: false,
        });
    }

    /// Server side: attach an MP_JOIN subflow arriving on `local`/`remote`.
    pub fn accept_join(
        &mut self,
        local: Endpoint,
        remote: Endpoint,
        syn: &TcpSegment,
        now: SimTime,
    ) {
        // The cap counts *live* subflows, not slots ever created: a client
        // re-establishing a path after its old subflow died (stalled on a
        // downed link or RTO-exhausted) must not be rejected because the
        // corpse still occupies an index.
        let live = self
            .subflows
            .iter()
            .filter(|s| !s.dead && !s.sock.is_finished() && !s.sock.is_stalled())
            .count();
        if live >= self.cfg.max_subflows {
            return;
        }
        self.accept_subflow(local, remote, HsRole::JoinServer, syn, now);
        self.housekeeping_owed = true;
    }

    /// Launch MP_JOIN subflows for every unused (local interface, remote
    /// address) pair, respecting `max_subflows`.
    fn launch_joins(&mut self, now: SimTime) {
        if !self.is_client || self.joins_launched {
            return;
        }
        self.joins_launched = true;
        // Path order: alternate interfaces first (WiFi already has the
        // capable subflow), then the same pairs against secondary remote
        // addresses (the 4-path configuration).
        let remotes = self.remote_addrs.clone();
        let n_ifs = self.local_addrs.len();
        let mut pairs: Vec<(u8, Endpoint)> = Vec::new();
        for &r in &remotes {
            for i in 0..n_ifs {
                if (i, r) == (0, remotes[0]) {
                    continue; // the capable subflow's pair
                }
                pairs.push((i as u8, r));
            }
        }
        for (if_index, remote) in pairs {
            if self.subflows.len() >= self.cfg.max_subflows {
                break;
            }
            let exists = self
                .subflows
                .iter()
                .any(|s| s.if_index == if_index && s.remote == remote);
            if !exists {
                self.spawn_subflow(if_index, remote, HsRole::JoinClient, now);
            }
        }
    }

    // ------------------------------------------------------------------
    // Application API
    // ------------------------------------------------------------------

    /// Space available in the connection-level send buffer.
    pub fn send_space(&self) -> usize {
        self.cfg.conn_send_buffer.saturating_sub(self.conn_buf.len())
    }

    /// Write application data, returning the bytes accepted.
    pub fn send(&mut self, data: Bytes) -> usize {
        if self.app_closed {
            return 0;
        }
        let take = data.len().min(self.send_space());
        if take > 0 {
            self.conn_buf.push(data.slice(..take));
            self.housekeeping_owed = true;
        }
        take
    }

    /// Total bytes written by the application so far.
    pub fn write_offset(&self) -> u64 {
        self.conn_buf.end()
    }

    /// Close the sending direction (queues DATA_FIN after pending data).
    pub fn close(&mut self) {
        self.app_closed = true;
        self.housekeeping_owed = true;
    }

    /// Pop in-order connection-level data for the application.
    pub fn recv(&mut self) -> Option<Bytes> {
        if self.fell_back() {
            return self.subflows[0].sock.recv().map(|(_, d)| d);
        }
        self.shared.rx.pop_ready().map(|(_, d)| d)
    }

    /// In-order bytes delivered so far (download progress).
    pub fn delivered_offset(&self) -> u64 {
        if self.fell_back() {
            return self.subflows[0].sock.recv_offset();
        }
        self.shared.rx.next_expected()
    }

    /// Whether the peer signalled DATA_FIN and all data was delivered.
    pub fn peer_closed(&self) -> bool {
        if self.fell_back() {
            return self.subflows[0].sock.peer_closed();
        }
        let shared = &self.shared;
        shared
            .peer_data_fin
            .is_some_and(|f| shared.rx.next_expected() >= f)
    }

    /// Whether this connection fell back to single-path TCP.
    pub fn fell_back(&self) -> bool {
        self.shared.remote_capable == Some(false)
    }

    /// Whether the connection is fully terminated (all subflows closed).
    pub fn is_finished(&self) -> bool {
        !self.subflows.is_empty() && self.subflows.iter().all(|s| s.sock.is_finished())
    }

    /// Whether at least one subflow is established.
    pub fn is_established(&self) -> bool {
        self.subflows.iter().any(|s| s.sock.is_established())
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> ConnStats {
        let shared = &self.shared;
        ConnStats {
            bytes_delivered: if self.fell_back() {
                self.subflows[0].sock.recv_offset()
            } else {
                shared.rx.next_expected()
            },
            per_subflow_delivered: if self.fell_back() {
                vec![self.subflows[0].sock.recv_offset()]
            } else {
                shared.flows.iter().map(|f| f.delivered_bytes).collect()
            },
            fell_back: self.fell_back(),
            housekeeping_passes: self.housekeeping_passes,
        }
    }

    /// Payload bytes subflow `idx` has delivered to the receiver — one entry
    /// of [`ConnStats::per_subflow_delivered`] without building the vector.
    pub fn subflow_delivered(&self, idx: usize) -> u64 {
        if self.fell_back() {
            return if idx == 0 { self.subflows[0].sock.recv_offset() } else { 0 };
        }
        self.shared.flows.get(idx).map_or(0, |f| f.delivered_bytes)
    }

    /// Streaming summary of connection-level out-of-order delays (§3.3) in
    /// milliseconds (bounded memory).
    pub fn ofo_summary(&self) -> mpw_metrics::DistSummary {
        self.shared.rx.ofo_summary().clone()
    }

    // ------------------------------------------------------------------
    // Event plumbing (driven by the host)
    // ------------------------------------------------------------------

    /// Feed a segment to subflow `idx`.
    pub fn on_segment(&mut self, idx: usize, seg: &TcpSegment, now: SimTime) {
        if let Some((sock, mut cx)) = self.subflow_mut(idx) {
            sock.on_segment_with(&mut cx, seg, now);
        }
        self.post_event(now);
    }

    /// Fire due timers on every subflow.
    pub fn on_timer(&mut self, now: SimTime) {
        for idx in 0..self.subflows.len() {
            if let Some((sock, mut cx)) = self.subflow_mut(idx) {
                if sock.next_timeout().is_some_and(|d| d <= now) {
                    sock.on_timer_with(&mut cx, now);
                }
            }
        }
        self.post_event(now);
    }

    /// Earliest timer deadline over all subflows and pending reopens. The
    /// host arms its slot's engine timer by it, so scheduled path
    /// re-establishments fire even on an otherwise idle connection.
    pub fn next_timeout(&self) -> Option<SimTime> {
        let socks = self
            .subflows
            .iter()
            .filter_map(|s| s.sock.next_timeout())
            .min();
        let reopen = self.pending_reopens.iter().map(|p| p.due).min();
        match (socks, reopen) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Emit the next owed segment from any subflow. Runs the housekeeping
    /// pass first when one is owed, so application-level actions
    /// (send/close) take effect on the next poll regardless of how the
    /// connection is driven.
    pub fn poll_transmit(&mut self, now: SimTime) -> Option<(usize, TcpSegment)> {
        // Two clauses of the pass read the clock and not only state: a
        // reopen comes due, and penalization's 100 ms throttle lapses.
        if self.housekeeping_owed
            || self.cfg.penalization
            || self.pending_reopens.iter().any(|p| p.due <= now)
        {
            self.post_event(now);
        } else {
            self.debug_check_clean(now);
        }
        for i in 0..self.subflows.len() {
            let Some((sock, mut cx)) = self.subflow_mut(i) else {
                continue;
            };
            let state = sock.state();
            let Some(seg) = sock.poll_transmit_with(&mut cx, now) else {
                continue;
            };
            // An emission changes what the pass reads in two ways: the
            // socket's state moves (FIN, RST), or signalling is still
            // queued behind the segment and the ACK that will carry it
            // must be owed again.
            let moved = sock.state() != state;
            let fl = &self.shared.flows[i];
            if moved || fl.pending_prio.is_some() || !fl.pending_add_addr.is_empty() {
                self.housekeeping_owed = true;
            }
            return Some((i, seg));
        }
        None
    }

    /// Mark housekeeping owed after a mutation this type cannot see: the
    /// host hands out `&mut Transport` (`Host::transport_mut`).
    pub(crate) fn owe_housekeeping(&mut self) {
        self.housekeeping_owed = true;
    }

    /// Housekeeping after any event: advance acks, launch joins, advertise
    /// addresses, reinject from dead subflows, schedule new data.
    pub fn post_event(&mut self, now: SimTime) {
        self.housekeeping_owed = false;
        self.housekeeping_passes += 1;
        self.post_event_inner(now);
        self.debug_check("post_event");
    }

    fn post_event_inner(&mut self, now: SimTime) {
        // Fallback short-circuits all MPTCP machinery.
        if self.fell_back() {
            self.pump_fallback();
            return;
        }
        let peer_data_ack = self.shared.peer_data_ack;
        let first_established = self
            .subflows
            .first()
            .is_some_and(|s| s.sock.stats().established_at.is_some());
        // Data has moved in either direction on the first subflow.
        let data_flowing = self.shared.rx.next_expected() > 0 || peer_data_ack > 0;
        // Trim the connection-level buffer on data-acks.
        if peer_data_ack > self.conn_buf.base() {
            let upto = peer_data_ack.min(self.conn_buf.end());
            self.conn_buf.advance(upto);
            // Prune assignment and mapping entries fully below the ack.
            while let Some((d, a)) = self.assignments.front() {
                if d + a.len as u64 <= upto {
                    self.assignments.pop_front();
                } else {
                    break;
                }
            }
        }
        // Prune DSS mappings by *subflow-level* acknowledgment: a mapping is
        // only safe to forget once its subflow bytes can never be
        // retransmitted. (Connection-level data-acks are not enough — the
        // subflow must still complete its own byte stream.)
        for (fl, sf) in self.shared.flows.iter_mut().zip(&mut self.subflows) {
            fl.tx_maps.prune(sf.sock.acked_offset());
            // Signalling a segment had no room for: keep an ACK owed.
            if fl.pending_prio.is_some() || !fl.pending_add_addr.is_empty() {
                sf.sock.push_ack();
            }
        }
        // Drain (and discard) subflow-level in-order payload: MPTCP delivery
        // happens through the connection-level reassembler, fed per packet.
        for sf in &mut self.subflows {
            while sf.sock.recv().is_some() {}
        }
        // A freshly arrived DATA_FIN must be data-acked even if no data or
        // subflow-level ACK is otherwise owed, or the closing peer waits
        // forever for `peer_data_ack` to cover its FIN.
        if std::mem::take(&mut self.shared.data_fin_needs_ack) {
            for sf in &mut self.subflows {
                sf.sock.push_ack();
            }
        }
        // Apply MP_PRIO changes the peer requested for our subflows.
        for (fl, sf) in self.shared.flows.iter_mut().zip(&mut self.subflows) {
            if let Some(backup) = fl.prio_rx.take() {
                sf.backup = backup;
            }
        }
        // Delayed joins: Linux v0.86 fired the MP_JOINs from its worker
        // only once the first subflow was established *and carrying data*
        // (roughly one RTT after establishment) — the latency the paper's
        // simultaneous-SYN modification removes (§4.1.2).
        if self.is_client
            && !self.joins_launched
            && first_established
            && data_flowing
            && self.cfg.syn_mode == SynMode::Delayed
        {
            self.launch_joins(now);
        }
        // Client: join toward addresses the server advertised (4-path).
        if self.is_client && self.joins_launched {
            let new_remotes: Vec<Endpoint> = self
                .shared
                .peer_addrs
                .iter()
                .map(|&(_, ep)| ep)
                .filter(|ep| !self.remote_addrs.contains(ep))
                .collect();
            if !new_remotes.is_empty() {
                self.remote_addrs.extend(new_remotes);
                self.joins_launched = false;
                self.launch_joins(now);
            }
        }
        // Server: advertise the secondary interface once established.
        if !self.is_client && !self.addr_advertised && first_established {
            self.addr_advertised = true;
            let secondary = Endpoint::new(self.local_addrs[1], self.subflows[0].local.port);
            self.queue_add_addr(0, 2, secondary);
        }
        self.lifecycle_poll(now);
        self.reinject_from_dead_subflows();
        self.maybe_penalize(now);
        self.pump(now);
        self.progress_close();
    }

    fn pump_fallback(&mut self) {
        // Any join subflows spawned before fallback was detected
        // (simultaneous-SYN mode) are orphans: delete them now instead of
        // letting their SYN retries run to RTO exhaustion.
        for sf in &mut self.subflows[1..] {
            self.housekeeping_owed |= close_moved_state(&mut sf.sock);
        }
        // Plain TCP on subflow 0: shovel conn_buf into the socket directly.
        let sock = &mut self.subflows[0].sock;
        while self.next_unassigned < self.conn_buf.end() {
            let space = sock.send_space();
            if space == 0 {
                break;
            }
            let len = ((self.conn_buf.end() - self.next_unassigned) as usize).min(space);
            let data = self.conn_buf.read(self.next_unassigned, len);
            let pushed = sock.send(data);
            self.next_unassigned += pushed as u64;
            if pushed < len {
                break;
            }
        }
        self.conn_buf.advance(sock.acked_offset());
        if self.app_closed && self.next_unassigned == self.conn_buf.end() {
            sock.close();
        }
    }

    /// Mark chunks assigned to dead or stalled subflows for reinjection
    /// elsewhere. Linux reinjects on the first retransmission timeout; we
    /// use the stall signal (≥2 consecutive RTOs) or socket death — waiting
    /// for full RTO exhaustion would stall handover for minutes.
    fn reinject_from_dead_subflows(&mut self) {
        // Both passes run on every post-event; their index/range lists live
        // in scratch vectors owned by the connection (taken out for the scan,
        // put back after) so the steady-state path never touches the heap.
        let mut dead = std::mem::take(&mut self.dead_scratch);
        dead.clear();
        dead.extend(
            self.subflows
                .iter()
                .enumerate()
                .filter(|(_, s)| s.dead || s.sock.is_finished() || s.sock.is_stalled())
                .map(|(i, _)| i),
        );
        if dead.is_empty() {
            self.dead_scratch = dead;
            return;
        }
        let live_exists = self.subflows.iter().any(|s| {
            !s.dead && !s.sock.is_finished() && !s.sock.is_stalled() && s.sock.is_established()
        });
        if !live_exists {
            self.dead_scratch = dead;
            return;
        }
        let base = self.conn_buf.base();
        let mut moved = std::mem::take(&mut self.moved_scratch);
        moved.clear();
        for &(dseq, ref a) in self.assignments.iter() {
            if dead.contains(&a.subflow) && dseq + a.len as u64 > base {
                moved.push((dseq, a.len));
            }
        }
        for &(dseq, len) in &moved {
            self.assignments.remove(dseq);
            self.reinject.push_back((dseq, len));
        }
        self.moved_scratch = moved;
        self.dead_scratch = dead;
        // Retire dead subflows from the coupling registry is handled by the
        // coupling itself (windows stop being acked); nothing more here.
    }

    /// The Linux v0.86 penalization mechanism (off by default, §3.1): when
    /// the shared receive window stalls the connection, halve the window of
    /// the slowest subflow.
    fn maybe_penalize(&mut self, now: SimTime) {
        if !self.cfg.penalization || self.subflows.len() < 2 {
            return;
        }
        if now.saturating_since(self.last_penalty_at) < SimDuration::from_millis(100) {
            return;
        }
        let have_data = self.next_unassigned < self.conn_buf.end();
        if !have_data {
            return;
        }
        // Receive-window limited: no subflow can take new data, and for at
        // least one of them the *peer's* advertised (shared-buffer) window
        // is the binding constraint — the situation mptcp_rcv_buf_optimization
        // reacted to in v0.86.
        let lent = |i: usize| LentCwnd(self.coupling.cwnd(i));
        let all_blocked = self
            .subflows
            .iter()
            .enumerate()
            .all(|(i, s)| !s.sock.is_established() || s.sock.tx_window_space(&lent(i)) == 0);
        let rwnd_binding = self
            .subflows
            .iter()
            .enumerate()
            .any(|(i, s)| s.sock.rwnd_limited(&lent(i)));
        if !all_blocked || !rwnd_binding {
            return;
        }
        // Halve the window of the slowest established subflow.
        let slowest = self
            .subflows
            .iter()
            .enumerate()
            .filter(|(_, s)| s.sock.is_established())
            .max_by_key(|(_, s)| s.sock.rtt().srtt().unwrap_or(SimDuration::MAX));
        if let Some((i, _)) = slowest {
            self.coupling.halve_flow(i);
            self.last_penalty_at = now;
        }
    }

    /// Assign pending data (reinjections first) to subflows per the
    /// scheduler, recording DSS mappings.
    fn pump(&mut self, _now: SimTime) {
        if self.fell_back() {
            self.pump_fallback();
            return;
        }
        let mss = self.cfg.cc.mss;
        // The subflow snapshot handed to the scheduler lives in a scratch
        // vector owned by the connection: taken out for the duration of the
        // loop (the borrow checker cannot see that `sched_views` is disjoint
        // from `subflows`), refilled in place each iteration, and put back
        // on every exit path below. Steady state performs no heap work here.
        let mut views = std::mem::take(&mut self.sched_views);
        loop {
            // Drop or clip reinjection chunks the peer has meanwhile
            // data-acked (their bytes left the connection buffer).
            while let Some(&(d, l)) = self.reinject.front() {
                let base = self.conn_buf.base();
                if d + l as u64 <= base {
                    self.reinject.pop_front();
                } else if d < base {
                    self.reinject[0] = (base, (d + l as u64 - base) as u32);
                } else {
                    break;
                }
            }
            // What to send next: a reinjection chunk or fresh data.
            let (dseq, len, is_reinject) = if let Some(&(d, l)) = self.reinject.front() {
                (d, l as usize, true)
            } else if self.next_unassigned < self.conn_buf.end() {
                let len = ((self.conn_buf.end() - self.next_unassigned) as usize).min(mss);
                (self.next_unassigned, len, false)
            } else {
                break;
            };

            views.clear();
            views.extend(self.subflows.iter().enumerate().map(|(i, s)| SubflowView {
                index: i,
                established: s.sock.is_established(),
                srtt: s.sock.rtt().srtt(),
                cwnd_space: s.sock.tx_window_space(&LentCwnd(self.coupling.cwnd(i))),
                buffer_space: s.sock.send_space(),
                backup: s.backup,
                stalled: s.dead || s.sock.is_stalled() || s.sock.is_finished(),
            }));
            let Some(pick) = self.sched.pick(self.cfg.scheduler, &views, len) else {
                break;
            };
            let data = self.conn_buf.read(dseq, len);
            debug_assert_eq!(data.len(), len);
            let sf = &mut self.subflows[pick];
            let sub_abs = sf.sock.write_offset();
            let pushed = sf.sock.send(data);
            if pushed == 0 {
                break;
            }
            {
                // Fault injection (test-only): shift the recorded mapping
                // back one byte so the wire DSS overlaps its predecessor.
                let map_dseq = if self.inject_overlapping_dss && dseq > 0 {
                    dseq - 1
                } else {
                    dseq
                };
                self.shared.flows[pick]
                    .tx_maps
                    .ring
                    .push_back((sub_abs, pushed as u32, map_dseq));
            }
            self.assignments.insert(
                dseq,
                Assignment {
                    subflow: pick,
                    len: pushed as u32,
                },
            );
            if is_reinject {
                if let Some((d, l)) = self.reinject.pop_front() {
                    if pushed < l as usize {
                        self.reinject
                            .push_front((d + pushed as u64, l - pushed as u32));
                    }
                }
            } else {
                self.next_unassigned += pushed as u64;
            }
        }
        self.sched_views = views;
    }

    /// Drive DATA_FIN and subflow teardown once the application closed.
    fn progress_close(&mut self) {
        let all_assigned = self.next_unassigned >= self.conn_buf.end() && self.reinject.is_empty();
        if self.app_closed && all_assigned && self.shared.tx_data_fin.is_none() {
            self.shared.tx_data_fin = Some(self.conn_buf.end());
            // Nudge a pure ACK out so the DATA_FIN travels even with no
            // data pending.
            for sf in &mut self.subflows {
                sf.sock.push_ack();
            }
        }
        // Once our DATA_FIN is data-acked and the peer's (if any) consumed,
        // close the subflow sockets.
        let ours_done = match self.shared.tx_data_fin {
            // Closed once the peer data-acks the FIN, or once every subflow
            // stream is fully acknowledged at the subflow level (the peer
            // then provably holds all data and the FIN signal travels on
            // the reliable subflow FINs themselves).
            Some(f) => {
                self.shared.peer_data_ack > f
                    || self
                        .subflows
                        .iter()
                        .all(|s| s.sock.unacked_len() == 0 && !s.sock.is_finished())
            }
            None => false,
        };
        if ours_done {
            for sf in &mut self.subflows {
                self.housekeeping_owed |= close_moved_state(&mut sf.sock);
            }
        }
        // Receiver side: if the peer is done and we have nothing to send
        // (pure download client), close our direction too.
        if self.peer_closed() && !self.app_closed && self.conn_buf.end() == 0 {
            self.app_closed = true;
            self.shared.tx_data_fin = Some(0);
            for sf in &mut self.subflows {
                sf.sock.push_ack();
                self.housekeeping_owed |= close_moved_state(&mut sf.sock);
            }
        }
    }

    /// Queue an ADD_ADDR on subflow `idx` and owe the ACK that carries it.
    fn queue_add_addr(&mut self, idx: usize, addr_id: u8, addr: Endpoint) {
        self.shared.flows[idx]
            .pending_add_addr
            .push_back((addr_id, addr));
        self.subflows[idx].sock.push_ack();
        self.housekeeping_owed = true;
    }

    /// Change a subflow's priority mid-connection (RFC 6824 MP_PRIO): the
    /// new state applies to our scheduler immediately and is signalled to
    /// the peer on the subflow's next segment — e.g. demote WiFi to backup
    /// when signal weakens, the dynamic-handover policy of Paasch et al.
    pub fn set_subflow_backup(&mut self, idx: usize, backup: bool) {
        if let Some(sf) = self.subflows.get_mut(idx) {
            sf.backup = backup;
            self.shared.flows[idx].pending_prio = Some(backup);
            sf.sock.push_ack();
            self.housekeeping_owed = true;
        }
    }

    /// Per-subflow established timestamps (subflow utilization analysis).
    pub fn subflow_established_at(&self, idx: usize) -> Option<SimTime> {
        self.subflows.get(idx)?.sock.stats().established_at
    }

    // ------------------------------------------------------------------
    // Path lifecycle: death detection and re-establishment (DESIGN.md §5.11)
    // ------------------------------------------------------------------

    /// The handover event log so far. A `ReopenScheduled` entry is stamped
    /// with its due time, when the replacement SYN will leave, which is what
    /// backoff analysis wants.
    pub fn lifecycle_events(&self) -> &[PathEvent] {
        &self.lifecycle_log
    }

    fn log_path_event(&mut self, kind: PathEventKind, if_index: u8, at: SimTime) {
        self.lifecycle_log.push(PathEvent { kind, if_index, at });
    }

    /// Explicit link-down notification from the harness (the scenario
    /// engine's `Down` event): declare every subflow on `if_index` dead
    /// immediately instead of waiting for the RTO stall signal — the
    /// client's connection manager *knows* the interface went away.
    pub fn notify_path_down(&mut self, if_index: u8, now: SimTime) {
        if !self.is_client || self.fell_back() {
            return;
        }
        for idx in 0..self.subflows.len() {
            if self.subflows[idx].if_index == if_index && !self.subflows[idx].dead {
                self.mark_path_dead(idx, now);
            }
        }
        self.post_event(now);
    }

    /// Advance degradation signal from the harness (scenario `WifiFade`
    /// onset or restoration). Under [`HandoverPolicy::MakeBeforeBreak`] the
    /// affected subflows are demoted to / restored from backup via MP_PRIO;
    /// under `BreakBeforeMake` the signal is only logged and the connection
    /// waits for hard failure.
    pub fn notify_signal(&mut self, if_index: u8, weak: bool, now: SimTime) {
        if self.fell_back() {
            return;
        }
        let kind = if weak { PathEventKind::SignalWeak } else { PathEventKind::SignalStrong };
        self.log_path_event(kind, if_index, now);
        if self.cfg.lifecycle.policy == HandoverPolicy::MakeBeforeBreak {
            for idx in 0..self.subflows.len() {
                if self.subflows[idx].if_index == if_index && !self.subflows[idx].dead {
                    self.set_subflow_backup(idx, weak);
                }
            }
        }
        self.post_event(now);
    }

    /// Subflows that still count against `max_subflows`.
    fn live_subflow_count(&self) -> usize {
        self.subflows
            .iter()
            .filter(|s| !s.dead && !s.sock.is_finished())
            .count()
    }

    /// Declare subflow `idx` dead and, when re-establishment is enabled and
    /// no live subflow or queued reopen covers its (interface, remote) pair,
    /// schedule a replacement join after capped exponential backoff.
    fn mark_path_dead(&mut self, idx: usize, now: SimTime) {
        let (if_index, remote) = (self.subflows[idx].if_index, self.subflows[idx].remote);
        self.subflows[idx].dead = true;
        self.log_path_event(PathEventKind::Down, if_index, now);
        if !self.cfg.lifecycle.reopen {
            return;
        }
        let covered = self.subflows.iter().any(|s| {
            !s.dead && s.if_index == if_index && s.remote == remote && !s.sock.is_finished()
        });
        let queued = self
            .pending_reopens
            .iter()
            .any(|p| p.if_index == if_index && p.remote == remote);
        if covered || queued {
            return;
        }
        let attempt = match self
            .reopen_attempts
            .iter_mut()
            .find(|(i, r, _)| *i == if_index && *r == remote)
        {
            Some(e) => {
                e.2 += 1;
                e.2
            }
            None => {
                self.reopen_attempts.push((if_index, remote, 1));
                1
            }
        };
        if attempt > MAX_REOPEN_ATTEMPTS {
            return;
        }
        let due = now + self.reopen_backoff(attempt);
        self.pending_reopens.push(PendingReopen { if_index, remote, attempt, due });
        self.log_path_event(PathEventKind::ReopenScheduled, if_index, due);
    }

    /// Exponential backoff with deterministic jitter: `initial * 2^(n-1)`,
    /// capped, stretched by up to the jitter fraction drawn from the
    /// connection RNG (seeded, so replays match exactly).
    fn reopen_backoff(&mut self, attempt: u32) -> SimDuration {
        const BACKOFF_INITIAL: SimDuration = SimDuration::from_millis(200);
        const BACKOFF_MAX: SimDuration = SimDuration::from_secs(30);
        const BACKOFF_JITTER: f64 = 0.2;
        let base = BACKOFF_INITIAL.as_nanos() as u128;
        let shift = attempt.saturating_sub(1).min(20);
        let cap = BACKOFF_MAX.as_nanos() as u128;
        let mut ns = base.saturating_mul(1u128 << shift).min(cap);
        let u = (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        ns += (ns as f64 * BACKOFF_JITTER * u) as u128;
        SimDuration::from_nanos(ns.min(u64::MAX as u128) as u64)
    }

    /// The lifecycle tick, run from every post-event pass: detect newly dead
    /// subflows, notice recoveries, and launch due replacement joins.
    fn lifecycle_poll(&mut self, now: SimTime) {
        if !self.cfg.lifecycle.reopen || !self.is_client || self.fell_back() {
            return;
        }
        // A finished download tears subflows down normally; that is not
        // path death, and scheduling reopens for it would hold the
        // connection open forever.
        if self.peer_closed() {
            self.pending_reopens.clear();
            return;
        }
        // 1. Death detection: socket gone, or stalled past the threshold.
        // Kept above the scheduler's 2-RTO stall gate so traffic failover
        // always precedes teardown.
        const DEATH_RTOS: u32 = 3;
        for idx in 0..self.subflows.len() {
            let sf = &self.subflows[idx];
            if sf.dead {
                continue;
            }
            if sf.sock.is_finished() || sf.sock.consecutive_rtos() >= DEATH_RTOS {
                self.mark_path_dead(idx, now);
            }
        }
        // 2. Recovery: a pair with a failure history has an established,
        // healthy subflow again — reset its attempt counter so the next
        // failure starts the backoff ladder from the bottom.
        for j in 0..self.reopen_attempts.len() {
            let (ifx, rem, att) = self.reopen_attempts[j];
            if att == 0 {
                continue;
            }
            let recovered = self.subflows.iter().any(|s| {
                s.if_index == ifx
                    && s.remote == rem
                    && !s.dead
                    && s.sock.is_established()
                    && !s.sock.is_stalled()
            });
            if recovered {
                self.reopen_attempts[j].2 = 0;
                self.log_path_event(PathEventKind::Recovered, ifx, now);
            }
        }
        // 3. Launch due reopens (respecting the live-subflow cap).
        let mut i = 0;
        while i < self.pending_reopens.len() {
            if self.pending_reopens[i].due > now {
                i += 1;
                continue;
            }
            let p = self.pending_reopens.remove(i);
            let covered = self.subflows.iter().any(|s| {
                !s.dead && s.if_index == p.if_index && s.remote == p.remote
                    && !s.sock.is_finished()
            });
            if covered || self.live_subflow_count() >= self.cfg.max_subflows {
                continue;
            }
            self.spawn_subflow(p.if_index, p.remote, HsRole::JoinClient, now);
            self.log_path_event(PathEventKind::ReopenLaunched, p.if_index, now);
        }
    }

    // ------------------------------------------------------------------
    // Invariant oracles (ISSUE 3 / DESIGN.md §5.8)
    // ------------------------------------------------------------------

    /// Record fresh DSS mappings shifted back by one byte — a deliberately
    /// injected protocol bug used to prove the invariant oracles and the
    /// model checker catch silent dseq-space corruption. Never set outside
    /// tests/checkers.
    #[doc(hidden)]
    pub fn inject_overlapping_dss(&mut self) {
        self.inject_overlapping_dss = true;
    }

    /// Disable the RFC 6356 TCP-compatibility clamp on this connection's
    /// coupled controller — the second planted bug, caught by the
    /// per-ACK increase oracle in [`CouplingState`]. Never set outside
    /// tests/checkers.
    #[doc(hidden)]
    pub fn inject_unclamped_cc(&mut self) {
        self.coupling.inject_unclamped_increase();
    }

    /// Check the connection-level protocol invariants. Always compiled
    /// (the model checker calls it in release builds); the event path runs
    /// it via `debug_check`, which compiles away in campaign builds.
    pub fn validate(&self) -> Result<(), String> {
        self.conn_buf.validate().map_err(|e| format!("conn_buf: {e}"))?;
        for (i, sf) in self.subflows.iter().enumerate() {
            sf.sock
                .validate()
                .map_err(|e| format!("subflow {i}: {e}"))?;
        }
        if let Some(v) = self.coupling.violation() {
            return Err(format!("coupling: {v}"));
        }
        if self.next_unassigned < self.conn_buf.base() || self.next_unassigned > self.conn_buf.end()
        {
            return Err(format!(
                "next_unassigned {} outside conn_buf [{}, {}]",
                self.next_unassigned,
                self.conn_buf.base(),
                self.conn_buf.end()
            ));
        }
        for p in &self.pending_reopens {
            if (p.if_index as usize) >= self.local_addrs.len() {
                return Err(format!(
                    "pending reopen names unknown interface {} (host has {})",
                    p.if_index,
                    self.local_addrs.len()
                ));
            }
            if p.attempt == 0 || p.attempt > MAX_REOPEN_ATTEMPTS {
                return Err(format!(
                    "pending reopen attempt {} outside [1, {MAX_REOPEN_ATTEMPTS}]",
                    p.attempt
                ));
            }
        }
        if self.fell_back() {
            // Plain-TCP fallback bypasses DSS machinery entirely; the
            // subflow-level checks above are the whole story.
            return Ok(());
        }

        let shared = &self.shared;
        // --- DSS coverage: assignments ∪ reinject partition the assigned,
        // --- un-data-acked dseq space [conn_buf.base(), next_unassigned)
        let mut ranges: Vec<(u64, u64, &str)> = Vec::new();
        for &(d, ref a) in self.assignments.iter() {
            if a.len == 0 {
                return Err(format!("assignment at {d} has zero length"));
            }
            if a.subflow >= self.subflows.len() {
                return Err(format!(
                    "assignment at {d} names unknown subflow {}",
                    a.subflow
                ));
            }
            ranges.push((d, d + a.len as u64, "assignment"));
        }
        for &(d, l) in &self.reinject {
            if l == 0 {
                return Err(format!("reinject chunk at {d} has zero length"));
            }
            ranges.push((d, d + l as u64, "reinject"));
        }
        ranges.sort_unstable();
        let base = self.conn_buf.base();
        let mut cursor: Option<u64> = None;
        for &(lo, hi, kind) in &ranges {
            if hi > self.next_unassigned {
                return Err(format!(
                    "{kind} [{lo}, {hi}) beyond next_unassigned {}",
                    self.next_unassigned
                ));
            }
            match cursor {
                None => {
                    if lo > base {
                        return Err(format!(
                            "dseq coverage gap: [{base}, {lo}) is assigned but untracked"
                        ));
                    }
                }
                Some(c) => {
                    if lo < c {
                        return Err(format!(
                            "dseq ranges overlap: {kind} at {lo} begins before {c} — \
                             a connection-level byte is mapped twice"
                        ));
                    }
                    if lo > c && c >= base {
                        return Err(format!(
                            "dseq coverage gap: [{c}, {lo}) is assigned but untracked"
                        ));
                    }
                }
            }
            cursor = Some(hi);
        }
        let covered_to = cursor.unwrap_or(base);
        if covered_to < self.next_unassigned {
            return Err(format!(
                "dseq coverage gap at tail: [{covered_to}, {}) untracked",
                self.next_unassigned
            ));
        }

        // --- per-flow DSS mappings: contiguous in subflow-stream space,
        // --- not yet fully subflow-acked, and within the assigned space
        for (i, fl) in shared.flows.iter().enumerate() {
            let sock = &self.subflows[i].sock;
            if fl.tx_maps.cursor > fl.tx_maps.ring.len() {
                return Err(format!(
                    "flow {i}: mapping cursor {} past the ring's {} entries",
                    fl.tx_maps.cursor,
                    fl.tx_maps.ring.len()
                ));
            }
            let mut cursor: Option<u64> = None;
            for &(s, l, d) in &fl.tx_maps.ring {
                if l == 0 {
                    return Err(format!("flow {i}: empty DSS mapping at {s}"));
                }
                if let Some(c) = cursor {
                    if s != c {
                        return Err(format!(
                            "flow {i}: DSS mappings not contiguous at subflow offset {s} \
                             (expected {c})"
                        ));
                    }
                }
                cursor = Some(s + l as u64);
                if s + l as u64 > sock.write_offset() {
                    return Err(format!(
                        "flow {i}: DSS mapping [{s}, {}) beyond written stream {}",
                        s + l as u64,
                        sock.write_offset()
                    ));
                }
                if s + l as u64 <= sock.acked_offset() {
                    return Err(format!(
                        "flow {i}: fully acked DSS mapping at {s} not pruned"
                    ));
                }
                if d + l as u64 > self.next_unassigned {
                    return Err(format!(
                        "flow {i}: DSS mapping covers dseq [{d}, {}) beyond \
                         next_unassigned {}",
                        d + l as u64,
                        self.next_unassigned
                    ));
                }
            }
        }

        // --- receive side: reassembly consistent, every delivered byte
        // --- attributed to exactly one subflow
        shared.rx.validate().map_err(|e| format!("conn rx: {e}"))?;
        let per_flow: u64 = shared.flows.iter().map(|f| f.delivered_bytes).sum();
        if per_flow != shared.rx.accepted_bytes() {
            return Err(format!(
                "conn-level byte conservation broken: subflows delivered {per_flow}, \
                 reassembler accepted {}",
                shared.rx.accepted_bytes()
            ));
        }
        if let Some(fin) = shared.peer_data_fin {
            if shared.rx.next_expected() > fin {
                return Err(format!(
                    "delivered data beyond peer DATA_FIN: {} > {fin}",
                    shared.rx.next_expected()
                ));
            }
        }
        // The peer can only data-ack dseq space we actually assigned
        // (+1 for our DATA_FIN).
        let fin_slot = u64::from(shared.tx_data_fin.is_some());
        if shared.peer_data_ack > self.next_unassigned + fin_slot {
            return Err(format!(
                "peer data-acked {} beyond assigned space {}",
                shared.peer_data_ack,
                self.next_unassigned + fin_slot
            ));
        }
        Ok(())
    }

    #[inline]
    #[allow(unused_variables)]
    fn debug_check(&self, site: &str) {
        #[cfg(any(debug_assertions, feature = "check-invariants"))]
        self.require(self.validate(), site);
    }

    #[cfg(any(debug_assertions, feature = "check-invariants"))]
    #[expect(
        clippy::panic,
        reason = "invariant oracle: aborting on a violated protocol invariant is the check"
    )]
    fn require(&self, held: Result<(), String>, site: &str) {
        if let Err(e) = held {
            panic!(
                "MPTCP invariant violated after {site} (conn {}): {e}",
                self.conn_id
            );
        }
    }

    /// The oracle of the housekeeping flag: a pass over a connection that
    /// is not marked must change nothing `fingerprint()` covers. It runs
    /// that pass anyway and aborts if the state moved — some mutator forgot
    /// to mark — then checks the invariants as `post_event` does.
    #[inline]
    #[allow(unused_variables)]
    fn debug_check_clean(&mut self, now: SimTime) {
        #[cfg(any(debug_assertions, feature = "check-invariants"))]
        {
            let hash = |c: &Self| {
                let mut h = std::collections::hash_map::DefaultHasher::new();
                c.fingerprint(&mut h);
                std::hash::Hasher::finish(&h)
            };
            let before = hash(self);
            self.post_event_inner(now);
            let clean = if hash(self) == before {
                Ok(())
            } else {
                Err("housekeeping on a clean connection changed state: \
                     a mutator did not mark it"
                    .to_string())
            };
            self.require(clean.and_then(|()| self.validate()), "post_event");
        }
    }

    /// Feed an order-relevant summary of the full connection state into `h`
    /// — the model checker's state fingerprint. Absolute times are excluded
    /// (untimed exploration); armed-timer booleans are hashed inside the
    /// subflow fingerprints.
    pub fn fingerprint(&self, h: &mut dyn std::hash::Hasher) {
        h.write_u64(self.conn_buf.base());
        h.write_u64(self.conn_buf.end());
        h.write_u64(self.next_unassigned);
        h.write_u8(u8::from(self.app_closed) | (u8::from(self.joins_launched) << 1));
        for &(d, ref a) in self.assignments.iter() {
            h.write_u64(d);
            h.write_u32(a.len);
            h.write_usize(a.subflow);
        }
        for &(d, l) in &self.reinject {
            h.write_u64(d);
            h.write_u32(l);
        }
        let shared = &self.shared;
        h.write_u8(match shared.remote_capable {
            None => 0,
            Some(false) => 1,
            Some(true) => 2,
        });
        h.write_u64(shared.peer_data_ack);
        h.write_u64(shared.peer_data_fin.unwrap_or(u64::MAX));
        h.write_u64(shared.tx_data_fin.unwrap_or(u64::MAX));
        h.write_u8(u8::from(shared.data_fin_needs_ack));
        shared.rx.fingerprint(h);
        for (fl, sf) in shared.flows.iter().zip(&self.subflows) {
            let established = sf.sock.stats().established_at.is_some();
            h.write_u8(u8::from(established) | (u8::from(sf.sock.is_finished()) << 1));
            h.write_u64(fl.delivered_bytes);
            for &(s, l, d) in &fl.tx_maps.ring {
                h.write_u64(s);
                h.write_u32(l);
                h.write_u64(d);
            }
        }
        for (i, sf) in self.subflows.iter().enumerate() {
            h.write_u8(sf.if_index);
            h.write_u8(u8::from(sf.backup) | (u8::from(sf.dead) << 1));
            sf.sock.fingerprint(&LentCwnd(self.coupling.cwnd(i)), h);
        }
        // Lifecycle state (due times excluded: untimed exploration).
        for p in &self.pending_reopens {
            h.write_u8(p.if_index);
            h.write_u32(p.attempt);
        }
        for &(i, _, a) in &self.reopen_attempts {
            h.write_u8(i);
            h.write_u32(a);
        }
    }
}


#[cfg(test)]
mod tests {
    use super::*;
    use mpw_tcp::wire::{encode_packet, parse_packet, IpHeader, PROTO_TCP};

    const CLIENT: Addr = Addr::new(10, 0, 1, 2);
    const SERVER: Endpoint = Endpoint::new(Addr::new(192, 168, 1, 1), 8080);

    /// Carry everything `from` owes to `to` over the wire codec (so an
    /// options area the encoder cannot hold would panic here), returning
    /// the segments as the receiver parsed them.
    fn carry(
        from: &mut MptcpConnection,
        to: &mut MptcpConnection,
        now: SimTime,
    ) -> Vec<TcpSegment> {
        carry_lossy(from, to, now, |_| false)
    }

    /// [`carry`], losing the segments `lose` picks.
    fn carry_lossy(
        from: &mut MptcpConnection,
        to: &mut MptcpConnection,
        now: SimTime,
        mut lose: impl FnMut(&TcpSegment) -> bool,
    ) -> Vec<TcpSegment> {
        let mut carried = Vec::new();
        while let Some((idx, seg)) = from.poll_transmit(now) {
            let sf = &from.subflows[idx];
            let ip = IpHeader { src: sf.local.addr, dst: sf.remote.addr, protocol: PROTO_TCP, ttl: 64 };
            let (_, seg) = parse_packet(&encode_packet(&ip, &seg)).expect("own encoding parses");
            if lose(&seg) {
                continue;
            }
            to.on_segment(0, &seg, now);
            carried.push(seg);
        }
        carried
    }

    /// An established single-subflow pair, handshake carried at t = 0.
    fn established_pair() -> (MptcpConnection, MptcpConnection) {
        let now = SimTime::ZERO;
        let cfg = MptcpConfig { max_subflows: 1, ..MptcpConfig::default() };
        let mut client =
            MptcpConnection::connect(cfg.clone(), 1, vec![CLIENT], SERVER, SimRng::seeded(42), now);
        let (_, syn) = client.poll_transmit(now).expect("SYN");
        let remote = client.subflows[0].local;
        let mut server =
            MptcpConnection::accept(cfg, 2, SERVER, remote, vec![SERVER.addr], &syn, SimRng::seeded(7), now)
                .expect("MP_CAPABLE SYN");
        for _ in 0..3 {
            carry(&mut server, &mut client, now);
            carry(&mut client, &mut server, now);
        }
        assert!(client.is_established() && server.is_established());
        (client, server)
    }

    /// Queued MP_PRIO and ADD_ADDRs ride along only while the 40-byte
    /// options area has room, and what does not fit stays queued for the
    /// next segment. (It used to be taken off the queue first and pushed
    /// regardless: 26 + 4 + 20 bytes of options, which `encode_packet`
    /// refused with a panic.)
    #[test]
    fn signalling_that_does_not_fit_waits_for_the_next_segment() {
        let (mut client, mut server) = established_pair();
        let now = SimTime::from_millis(1);
        let extra = [
            (2, Endpoint::new(Addr::new(192, 168, 2, 1), 8080)),
            (3, Endpoint::new(Addr::new(192, 168, 3, 1), 8080)),
        ];
        server.set_subflow_backup(0, false);
        for (id, addr) in extra {
            server.queue_add_addr(0, id, addr);
        }
        assert_eq!(server.send(Bytes::from(vec![0x5a; 2 * 1400])), 2 * 1400);
        let carried = carry(&mut server, &mut client, now);
        let kinds = |seg: &TcpSegment| {
            seg.options
                .iter()
                .map(|o| match o {
                    TcpOption::Mptcp(MptcpOption::Dss { mapping: Some(_), .. }) => "dss+map",
                    TcpOption::Mptcp(MptcpOption::Prio { .. }) => "prio",
                    TcpOption::Mptcp(MptcpOption::AddAddr { addr_id: 2, .. }) => "add_addr 2",
                    TcpOption::Mptcp(MptcpOption::AddAddr { addr_id: 3, .. }) => "add_addr 3",
                    _ => "other",
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(kinds(&carried[0]), ["dss+map", "prio", "add_addr 2"]);
        assert_eq!(carried[0].options.byte_len(), 40, "the first segment's options area is full");
        assert_eq!(kinds(&carried[1]), ["dss+map", "add_addr 3"]);
        assert_eq!(
            client.shared.peer_addrs, extra,
            "the peer learns both addresses, in order"
        );
        let shared = &server.shared;
        assert!(shared.flows[0].pending_prio.is_none() && shared.flows[0].pending_add_addr.is_empty());
    }

    /// With nothing else to send, queued signalling still leaves: an ACK
    /// stays owed until the queue is empty.
    #[test]
    fn queued_signalling_forces_acks_until_it_is_sent() {
        let (mut client, mut server) = established_pair();
        let now = SimTime::from_millis(1);
        let extra: Vec<_> = (2..6u8)
            .map(|id| (id, Endpoint::new(Addr::new(192, 168, id, 1), 8080)))
            .collect();
        for &(id, addr) in &extra {
            server.queue_add_addr(0, id, addr);
        }
        let carried = carry(&mut server, &mut client, now);
        // DSS with a data-ack is 12 bytes: two ADD_ADDRs per pure ACK. The
        // first leaves two queued behind it, so its emission owes the pass
        // that keeps the second ACK owed.
        assert_eq!(carried.len(), 2);
        assert!(carried.iter().all(|s| s.payload.is_empty() && s.options.byte_len() == 32));
        assert_eq!(client.shared.peer_addrs, extra);
    }

    /// The oracle bites: with a connection-level invariant broken through a
    /// private field (a reopen, due in an hour, on an interface the host
    /// does not have), every entry point that ends in `post_event` aborts
    /// under that label. The subflow sockets stay valid, so it is this
    /// type's check that fires, not theirs.
    #[test]
    #[cfg(any(debug_assertions, feature = "check-invariants"))]
    fn every_entry_point_runs_the_oracle_at_post_event() {
        type Entry = fn(&mut MptcpConnection, SimTime);
        let entries: [(&str, Entry); 6] = [
            ("post_event", |c, now| c.post_event(now)),
            ("on_segment", |c, now| {
                let (local, remote) = (c.subflows[0].local, c.subflows[0].remote);
                let dup = TcpSegment::bare(remote.port, local.port, SeqNum(0), SeqNum(0), tcp_flags::ACK);
                c.on_segment(0, &dup, now)
            }),
            ("on_timer", |c, now| c.on_timer(now)),
            ("poll_transmit", |c, now| drop(c.poll_transmit(now))),
            ("notify_path_down", |c, now| c.notify_path_down(77, now)),
            ("notify_signal", |c, now| c.notify_signal(77, true, now)),
        ];
        for (entry, enter) in entries {
            let (mut client, _server) = established_pair();
            client.pending_reopens.push(PendingReopen {
                if_index: 99,
                remote: SERVER,
                attempt: 1,
                due: SimTime::from_secs(3600),
            });
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                enter(&mut client, SimTime::from_millis(1))
            }));
            let payload = caught.expect_err(entry);
            let msg = payload.downcast_ref::<String>().expect("a formatted panic");
            assert!(msg.starts_with("MPTCP invariant violated after post_event "), "{entry}: {msg}");
            assert!(msg.contains("pending reopen names unknown interface 99"), "{entry}: {msg}");
        }
    }

    /// The housekeeping flag's oracle bites: a `close()` that forgets to
    /// mark — planted here by setting its field directly — leaves a DATA_FIN
    /// for a pass nobody owes, and the next `poll_transmit` aborts on it.
    #[test]
    #[cfg(any(debug_assertions, feature = "check-invariants"))]
    fn a_mutator_that_forgets_to_mark_trips_the_clean_connection_oracle() {
        let now = SimTime::from_millis(1);
        let (mut client, _server) = established_pair();
        assert!(!client.housekeeping_owed, "a drained connection owes nothing");
        assert!(client.poll_transmit(now).is_none(), "and a pass over it is a no-op");

        client.app_closed = true;
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            drop(client.poll_transmit(now))
        }));
        let payload = caught.expect_err("the unmarked close");
        let msg = payload.downcast_ref::<String>().expect("a formatted panic");
        assert!(msg.contains("housekeeping on a clean connection changed state"), "{msg}");

        // The real `close()` marks, and the pass it owes queues the DATA_FIN.
        let (mut client, _server) = established_pair();
        client.close();
        let (_, seg) = client.poll_transmit(now).expect("the DATA_FIN's ACK");
        assert!(seg.options.iter().any(|o| {
            matches!(o, TcpOption::Mptcp(MptcpOption::Dss { data_fin: true, .. }))
        }));
    }

    /// The mapping ring: acks retire a prefix, new data finds its mapping at
    /// the cursor, a retransmission below it by search — each agreeing with
    /// a plain scan of the list.
    #[test]
    fn tx_maps_lookups_agree_with_a_linear_scan() {
        let mut maps = TxMaps::default();
        let mut all = Vec::new();
        let mut at = 0u64;
        for i in 0..200u64 {
            let len = 1 + (i * 37 % 1400) as u32;
            maps.ring.push_back((at, len, 10_000 + at));
            all.push((at, len, 10_000 + at));
            at += len as u64;
        }
        let scan = |all: &[(u64, u32, u64)], acked: u64, abs: u64| {
            all.iter()
                .copied()
                .find(|&(s, l, _)| s + l as u64 > acked && s <= abs && abs < s + l as u64)
        };
        let (mut snd_nxt, mut acked) = (0u64, 0u64);
        while snd_nxt < at {
            // New data at the send point, then a retransmission from
            // somewhere in flight, then an ack for part of it.
            assert_eq!(maps.find(snd_nxt), scan(&all, acked, snd_nxt));
            let (s, l, _) = maps.find(snd_nxt).expect("mapped");
            snd_nxt = s + l as u64;
            let rexmit = acked + (snd_nxt - acked) / 3;
            assert_eq!(maps.find(rexmit), scan(&all, acked, rexmit), "rexmit at {rexmit}");
            acked += (snd_nxt - acked) / 2;
            maps.prune(acked);
            assert!(maps.ring.front().is_none_or(|&(s, l, _)| s + l as u64 > acked));
            assert!(maps.cursor <= maps.ring.len());
        }
        assert_eq!(maps.find(at), None, "nothing is mapped past the written stream");
        maps.prune(at);
        assert!(maps.ring.is_empty() && maps.cursor == 0);
    }

    /// A pair driven by `carry_lossy`, one round per step.
    #[derive(Clone)]
    struct Run {
        client: MptcpConnection,
        server: MptcpConnection,
        now: SimTime,
        /// Segments offered to the wire so far.
        sent: usize,
    }

    impl Run {
        /// 10 ms on: fire due timers, then carry each side's segments to
        /// the other, losing the ones whose running count is in `lost`.
        fn step(&mut self, lost: &[usize]) {
            self.now += SimDuration::from_millis(10);
            let now = self.now;
            for conn in [&mut self.client, &mut self.server] {
                if conn.next_timeout().is_some_and(|t| t <= now) {
                    conn.on_timer(now);
                }
            }
            let sent = &mut self.sent;
            let mut lose = |_: &TcpSegment| {
                *sent += 1;
                lost.contains(sent)
            };
            carry_lossy(&mut self.server, &mut self.client, now, &mut lose);
            carry_lossy(&mut self.client, &mut self.server, now, &mut lose);
        }

        /// Both fingerprints and the oracle's verdict on both connections.
        fn snapshot(&self) -> (u64, u64, Result<(), String>) {
            let fingerprint = |c: &MptcpConnection| {
                let mut h = std::collections::hash_map::DefaultHasher::new();
                c.fingerprint(&mut h);
                std::hash::Hasher::finish(&h)
            };
            let valid = self.client.validate().and_then(|()| self.server.validate());
            (fingerprint(&self.client), fingerprint(&self.server), valid)
        }
    }

    proptest::proptest! {
        /// A cloned connection shares no state with its original (the
        /// connection state and the coupled windows it used to share with
        /// its sockets included): driving the original on leaves the
        /// clone's fingerprint and oracle verdict where they were. Then the
        /// clone, fed the same inputs, retraces the original step by step.
        #[test]
        fn a_cloned_connection_is_independent_and_retraces_its_original(
            len in 1usize..60_000,
            clone_at in 0usize..40,
            k in 1usize..40,
            lost in proptest::collection::vec(1usize..60, 0..3),
        ) {
            let (client, mut server) = established_pair();
            server.send(Bytes::from(vec![0x5a; len]));
            server.close();
            let mut run = Run { client, server, now: SimTime::ZERO, sent: 0 };
            for _ in 0..clone_at {
                run.step(&lost);
            }
            let mut twin = run.clone();
            let at_clone = twin.snapshot();
            let mut steps = Vec::new();
            for _ in 0..k {
                run.step(&lost);
                steps.push(run.snapshot());
            }
            proptest::prop_assert_eq!(twin.snapshot(), at_clone);
            for want in steps {
                twin.step(&lost);
                proptest::prop_assert_eq!(twin.snapshot(), want);
            }
            proptest::prop_assert_eq!(twin.client.delivered_offset(), run.client.delivered_offset());
        }
    }
}
