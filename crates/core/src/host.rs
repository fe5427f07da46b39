//! The host agent: interfaces, routing, socket/connection demultiplexing,
//! listeners, ping (antenna warm-up), and application driving.
//!
//! A [`Host`] is an [`mpw_sim::Agent`] owning any number of transports
//! (MPTCP connections or plain TCP sockets) plus the applications using
//! them. It serializes outgoing segments to wire bytes, routes them out the
//! correct interface (clients route by the socket's bound interface, servers
//! by destination address), and parses/demultiplexes everything that
//! arrives — including MP_JOIN SYNs matched by connection token, exactly as
//! the kernel implementation does.
//!
//! The host keeps no calendar of its own. Each connection slot holds one
//! cancellable engine timer at the earlier of its transport's next timeout
//! and its app's next wakeup, and each warming open holds one for its 2 s
//! ping deadline. Slots due at the same instant fire as separate events, in
//! the engine's `(at, seq)` order.

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};

use mpw_sim::{Agent, AgentId, Ctx, Event, Frame, SimDuration, SimRng, SimTime, TimerHandle};
use mpw_tcp::wire::{tcp_flags, PingPacket};
use mpw_tcp::{
    encode_packet, encode_ping, parse_any_shared, Addr, Cc, CcConfig, Endpoint, IpHeader,
    MptcpOption, NewReno, NoHooks, Packet, SeqNum, TcpConfig, TcpOption, TcpSegment, TcpSocket,
};

use crate::conn::{MptcpConfig, MptcpConnection};

/// How a new outgoing connection should be transported — the experiment
/// axis of every figure: single-path TCP vs 2-/4-path MPTCP.
#[derive(Clone, Debug)]
pub enum TransportSpec {
    /// Plain single-path TCP bound to one interface.
    Plain {
        /// TCP configuration.
        tcp: TcpConfig,
        /// Congestion-control parameters.
        cc: CcConfig,
        /// Which local interface to bind.
        if_index: u8,
    },
    /// MPTCP across the host's interfaces.
    Mptcp(MptcpConfig),
}

/// A live transport: either an MPTCP connection or a plain TCP socket.
// A handful of these exist per host (one per connection slot), so the
// size spread between variants is not worth the indirection of boxing.
#[allow(clippy::large_enum_variant)]
pub enum Transport {
    /// MPTCP connection.
    Mp(MptcpConnection),
    /// Plain TCP.
    Sp(TcpSocket),
}

impl Transport {
    /// Write application bytes; returns bytes accepted.
    pub fn send(&mut self, data: bytes::Bytes) -> usize {
        match self {
            Transport::Mp(c) => c.send(data),
            Transport::Sp(s) => s.send(data),
        }
    }

    /// Send-buffer space available.
    pub fn send_space(&self) -> usize {
        match self {
            Transport::Mp(c) => c.send_space(),
            Transport::Sp(s) => s.send_space(),
        }
    }

    /// Pop in-order received bytes.
    pub fn recv(&mut self) -> Option<bytes::Bytes> {
        match self {
            Transport::Mp(c) => c.recv(),
            Transport::Sp(s) => s.recv().map(|(_, d)| d),
        }
    }

    /// Close the sending direction.
    pub fn close(&mut self) {
        match self {
            Transport::Mp(c) => c.close(),
            Transport::Sp(s) => s.close(),
        }
    }

    /// Peer finished sending and everything was delivered.
    pub fn peer_closed(&self) -> bool {
        match self {
            Transport::Mp(c) => c.peer_closed(),
            Transport::Sp(s) => s.peer_closed(),
        }
    }

    /// In-order bytes delivered so far.
    pub fn delivered_offset(&self) -> u64 {
        match self {
            Transport::Mp(c) => c.delivered_offset(),
            Transport::Sp(s) => s.recv_offset(),
        }
    }

    /// At least one path is established.
    pub fn is_established(&self) -> bool {
        match self {
            Transport::Mp(c) => c.is_established(),
            Transport::Sp(s) => s.is_established(),
        }
    }

    /// Fully closed.
    pub fn is_finished(&self) -> bool {
        match self {
            Transport::Mp(c) => c.is_finished(),
            Transport::Sp(s) => s.is_finished(),
        }
    }

    /// The MPTCP connection, if this is one.
    pub fn as_mp(&self) -> Option<&MptcpConnection> {
        match self {
            Transport::Mp(c) => Some(c),
            Transport::Sp(_) => None,
        }
    }

    /// Mutable MPTCP connection access.
    pub fn as_mp_mut(&mut self) -> Option<&mut MptcpConnection> {
        match self {
            Transport::Mp(c) => Some(c),
            Transport::Sp(_) => None,
        }
    }

    /// The plain socket, if single-path.
    pub fn as_sp(&self) -> Option<&TcpSocket> {
        match self {
            Transport::Sp(s) => Some(s),
            Transport::Mp(_) => None,
        }
    }

    /// When the first SYN of this transport left — the paper's download-time
    /// start point (§3.3).
    pub fn opened_at(&self) -> SimTime {
        match self {
            Transport::Mp(c) => c.opened_at,
            Transport::Sp(s) => s.stats().opened_at,
        }
    }

    fn next_timeout(&self) -> Option<SimTime> {
        match self {
            Transport::Mp(c) => c.next_timeout(),
            Transport::Sp(s) => s.next_timeout(),
        }
    }

    fn on_timer(&mut self, now: SimTime) {
        match self {
            Transport::Mp(c) => c.on_timer(now),
            Transport::Sp(s) => s.on_timer(now),
        }
    }
}

/// An application driven by the host whenever its transport makes progress.
pub trait App: Any {
    /// Advance the application state machine.
    fn poll(&mut self, conn: &mut Transport, now: SimTime);
    /// Next instant this app wants to be polled even without network events
    /// (periodic workloads like the paper's video-streaming model, §6).
    fn next_wakeup(&self) -> Option<SimTime> {
        None
    }
}

/// A no-op application (server side of raw byte sinks, tests).
pub struct NullApp;

impl App for NullApp {
    fn poll(&mut self, _conn: &mut Transport, _now: SimTime) {}
}

/// Factory producing the server-side application for each accepted
/// connection.
pub type AppFactory = Box<dyn FnMut(u32) -> Box<dyn App>>;

struct Slot {
    transport: Transport,
    app: Box<dyn App>,
    /// Subflows already present in the demux. Subflow endpoints are
    /// immutable and the subflow vector only grows (replacements append),
    /// so registration is append-only: each call covers only the tail.
    registered_subflows: usize,
    /// This slot's engine wakeup (token `TOKEN_SLOT | slot`): the live
    /// handle and the instant [`Slot::wakeup`] asked for when it was set.
    timer: Option<(TimerHandle, SimTime)>,
}

impl Slot {
    fn new(transport: Transport, app: Box<dyn App>) -> Self {
        Slot { transport, app, registered_subflows: 0, timer: None }
    }

    /// The earlier of the transport's next timeout and the app's next wakeup.
    fn wakeup(&self) -> Option<SimTime> {
        match (self.transport.next_timeout(), self.app.next_wakeup()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

/// A queued outgoing connection request (activated by a scheduled timer).
pub struct OpenRequest {
    /// When to begin (the harness schedules a matching timer event).
    pub at: SimTime,
    /// Transport to use.
    pub spec: TransportSpec,
    /// Server endpoint to connect to.
    pub remote: Endpoint,
    /// Client application.
    pub app: Box<dyn App>,
    /// Send the paper's two warm-up pings on the cellular interface first
    /// (§3.2) and wait for the replies (or 2 s) before opening the
    /// connection.
    pub warmup: bool,
}

/// Warm-up pings before a connection opens: the paper sent two to wake the
/// cellular radio before each measurement (§3.2).
const WARMUP_PINGS: u8 = 2;
/// The interface the warm-up pings leave on (§3.2: the cellular one), taken
/// modulo the host's interface count.
const WARMUP_IF: u8 = 1;

enum PendingOpen {
    /// Waiting for its activation time.
    Queued(OpenRequest),
    /// Pings sent; waiting for replies or deadline. `timer` (token
    /// `TOKEN_OPEN`) fires at `deadline`.
    Warming {
        req: OpenRequest,
        tokens_left: u8,
        deadline: SimTime,
        timer: TimerHandle,
    },
}

const TOKEN_OPEN: u64 = 0x1000_0000_0000_0002;
/// Slot `i`'s wakeup carries token `TOKEN_SLOT | i`.
const TOKEN_SLOT: u64 = 0x2000_0000_0000_0000;

/// Host agent. See module docs.
pub struct Host {
    /// Interface addresses, indexed by `if_index`.
    addrs: Vec<Addr>,
    /// Per-interface egress link agent (clients; also server default).
    iface_links: Vec<Option<AgentId>>,
    /// Destination-address routes (servers: client addr → downlink agent).
    /// Keyed so lookup stays O(log n) with one route per fleet client.
    routes: BTreeMap<Addr, AgentId>,
    /// Listening port (servers).
    listen_port: Option<u16>,
    listen_mptcp_cfg: MptcpConfig,
    app_factory: Option<AppFactory>,
    slots: Vec<Slot>,
    /// (local, remote) → (slot, subflow) demux.
    demux: BTreeMap<(Endpoint, Endpoint), (usize, usize)>,
    /// MPTCP token → slot (for MP_JOIN).
    tokens: BTreeMap<u32, usize>,
    /// JOIN SYNs that arrived before their MP_CAPABLE (simultaneous mode).
    pending_joins: Vec<(u32, Endpoint, Endpoint, TcpSegment, SimTime)>,
    pending_opens: Vec<PendingOpen>,
    /// Completed ping RTTs.
    pub ping_rtts: Vec<SimDuration>,
    /// Warm-up pings awaiting a reply: token → send time.
    ping_sent_at: BTreeMap<u64, SimTime>,
    next_conn_id: u32,
    conn_id_base: u32,
    rng: SimRng,
    /// Slots touched since the last flush (incoming segment, fired timer,
    /// external mutation, fresh open). `flush` pumps exactly these, in
    /// ascending slot order, so per-event work scales with the slots an
    /// event actually concerns — not with the host's total population.
    dirty: BTreeSet<usize>,
    /// Mutant for the oracle's bite test: `update_deadline` keeps a slot's
    /// timer when its deadline moves later.
    #[cfg(test)]
    keep_later_timers: bool,
    /// Count of frames that found no matching socket.
    pub no_socket_drops: u64,
    /// Count of frames that failed to parse (truncated, bad checksum, or
    /// not this stack's wire format) and were dropped.
    pub unparsed_frames: u64,
}

impl Host {
    /// Create a host with the given interface addresses. `conn_id_base`
    /// namespaces this host's locally initiated connection ids.
    pub fn new(addrs: Vec<Addr>, conn_id_base: u32, rng: SimRng) -> Self {
        let n = addrs.len();
        Host {
            addrs,
            iface_links: vec![None; n],
            routes: BTreeMap::new(),
            listen_port: None,
            listen_mptcp_cfg: MptcpConfig::default(),
            app_factory: None,
            slots: Vec::new(),
            demux: BTreeMap::new(),
            tokens: BTreeMap::new(),
            pending_joins: Vec::new(),
            pending_opens: Vec::new(),
            ping_rtts: Vec::new(),
            ping_sent_at: BTreeMap::new(),
            next_conn_id: conn_id_base,
            conn_id_base,
            rng,
            dirty: BTreeSet::new(),
            #[cfg(test)]
            keep_later_timers: false,
            no_socket_drops: 0,
            unparsed_frames: 0,
        }
    }

    /// Attach interface `if_index` to its uplink link agent.
    pub fn set_iface_link(&mut self, if_index: usize, link: AgentId) {
        self.iface_links[if_index] = Some(link);
    }

    /// Add a destination route (server → client access network).
    pub fn add_route(&mut self, dst: Addr, link: AgentId) {
        self.routes.insert(dst, link);
    }

    /// Listen on `port`, accepting both MPTCP (with `mptcp_cfg`) and plain
    /// TCP (with the default configuration), creating one app per accepted
    /// connection.
    pub fn listen(&mut self, port: u16, mptcp_cfg: MptcpConfig, factory: AppFactory) {
        self.listen_port = Some(port);
        self.listen_mptcp_cfg = mptcp_cfg;
        self.app_factory = Some(factory);
    }

    /// Queue an outgoing connection. The caller must also schedule
    /// `Event::Timer { token: Host::open_token() }` on this host at
    /// `req.at` (or any time ≥ it).
    pub fn queue_open(&mut self, req: OpenRequest) {
        self.pending_opens.push(PendingOpen::Queued(req));
    }

    /// The timer token that activates queued opens.
    pub fn open_token() -> u64 {
        TOKEN_OPEN
    }

    /// Interface addresses, indexed by `if_index`.
    pub fn addrs(&self) -> &[Addr] {
        &self.addrs
    }

    /// Number of transports (established or not).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Queued opens not yet activated (they will take the next slots in
    /// queue order).
    pub fn pending_open_count(&self) -> usize {
        self.pending_opens.len()
    }

    /// Whether this host will do nothing more unless a frame reaches it: no
    /// open is queued or warming, no slot waits to be pumped and no slot
    /// holds a wakeup. Only a frame from the network (or a harness call
    /// that dirties a slot or queues an open) can end the state.
    pub fn is_quiescent(&self) -> bool {
        self.pending_opens.is_empty()
            && self.dirty.is_empty()
            && self.slots.iter().all(|s| s.timer.is_none())
    }

    /// Access a transport by slot.
    pub fn transport(&self, slot: usize) -> Option<&Transport> {
        self.slots.get(slot).map(|s| &s.transport)
    }

    /// Mutable transport access. Marks the slot dirty: external mutators
    /// (the handover runner's cross-layer signals, the lifecycle manager)
    /// may produce frames or move wakeups, so the next flush must pump
    /// this slot even though no network event touched it — and owes the
    /// connection a housekeeping pass, since the caller can reach state
    /// (`subflows`, `cfg`) no marking method guards.
    pub fn transport_mut(&mut self, slot: usize) -> Option<&mut Transport> {
        let transport = &mut self.slots.get_mut(slot)?.transport;
        self.dirty.insert(slot);
        if let Transport::Mp(c) = transport {
            c.owe_housekeeping();
        }
        Some(transport)
    }

    /// Access an application by slot, downcast to `T`.
    pub fn app<T: App>(&self, slot: usize) -> Option<&T> {
        // Upcast the boxed app, not the `Box` (see `World::agent`).
        let app: &dyn Any = &*self.slots.get(slot)?.app;
        app.downcast_ref()
    }

    /// Mutable application access. Dirties the slot like
    /// [`Host::transport_mut`] — a mutated app may have fresh data to send.
    pub fn app_mut<T: App>(&mut self, slot: usize) -> Option<&mut T> {
        if slot < self.slots.len() {
            self.dirty.insert(slot);
        }
        let app: &mut dyn Any = &mut *self.slots.get_mut(slot)?.app;
        app.downcast_mut()
    }

    // ------------------------------------------------------------------

    fn egress_for(&self, if_index: u8, dst: Addr) -> Option<AgentId> {
        if let Some(&link) = self.routes.get(&dst) {
            return Some(link);
        }
        self.iface_links
            .get(if_index as usize)
            .copied()
            .flatten()
            .or_else(|| self.iface_links.iter().flatten().next().copied())
    }

    fn emit_segment(
        &mut self,
        ctx: &mut Ctx<'_>,
        local: Endpoint,
        remote: Endpoint,
        if_index: u8,
        seg: &TcpSegment,
    ) {
        let ip = IpHeader {
            src: local.addr,
            dst: remote.addr,
            protocol: mpw_tcp::wire::PROTO_TCP,
            ttl: 64,
        };
        let bytes = encode_packet(&ip, seg);
        let Some(egress) = self.egress_for(if_index, remote.addr) else {
            return;
        };
        ctx.send_frame(egress, 0, SimDuration::ZERO, Frame::new(bytes));
    }

    fn flush(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        // Pump exactly the slots this event touched, in ascending slot
        // order (a BTreeSet, so the order — and therefore the emitted
        // frame sequence — is deterministic). Every site that can give a
        // slot work marks it dirty: segment arrival, fired timer, fresh
        // open/accept, and external mutation through `transport_mut` /
        // `app_mut`. Anything else cannot have changed a slot's state, so
        // skipping it emits the exact frame sequence the full scan did.
        while let Some(i) = self.dirty.pop_first() {
            // Alternate app polls and transmit pumping until neither makes
            // progress. An app may write *in response to* data consumed in
            // this very flush (e.g. the streaming client requesting the
            // next block the moment the previous one completes); that write
            // must be pumped now — the slot's wakeup only covers transport
            // timeouts and app wakeups, not buffered-but-unsent data, so
            // leaving it unpumped can deadlock an otherwise idle connection.
            loop {
                // Drive the app (it may produce data / close). What it wrote
                // is scheduled by the housekeeping pass every
                // `MptcpConnection::poll_transmit` starts with, so none
                // runs here.
                {
                    let slot = &mut self.slots[i];
                    slot.app.poll(&mut slot.transport, now);
                }
                let mut emitted = false;
                loop {
                    let slot = &mut self.slots[i];
                    let out = match &mut slot.transport {
                        Transport::Mp(c) => c.poll_transmit(now),
                        Transport::Sp(s) => s.poll_transmit(now).map(|seg| (0, seg)),
                    };
                    let Some((sf, seg)) = out else {
                        break;
                    };
                    emitted = true;
                    let (local, remote, if_index) = match &slot.transport {
                        Transport::Mp(c) => {
                            let s = &c.subflows[sf];
                            (s.local, s.remote, s.if_index)
                        }
                        Transport::Sp(s) => (s.local(), s.remote(), s.if_index),
                    };
                    self.emit_segment(ctx, local, remote, if_index, &seg);
                }
                // New subflows may have appeared while polling; refresh the
                // demux once per cycle (their responses only arrive on later
                // events, so registering after the burst is early enough).
                self.register_demux(i);
                if !emitted {
                    break;
                }
            }
            self.update_deadline(i, ctx);
        }
    }

    /// Register any demux entries this slot does not have yet. Subflow
    /// endpoints never change and the subflow vector only grows, so only
    /// the tail past `registered_subflows` needs inserting — O(log n) per
    /// *new* subflow instead of a full rescan per received segment.
    fn register_demux(&mut self, slot: usize) {
        let from = self.slots[slot].registered_subflows;
        let upto = match &self.slots[slot].transport {
            Transport::Mp(c) => {
                if from == 0 {
                    self.tokens.insert(c.token(), slot);
                }
                for (sf, s) in c.subflows.iter().enumerate().skip(from) {
                    self.demux.insert((s.local, s.remote), (slot, sf));
                }
                c.subflows.len()
            }
            Transport::Sp(s) => {
                if from == 0 {
                    self.demux.insert((s.local(), s.remote()), (slot, 0));
                }
                1
            }
        };
        self.slots[slot].registered_subflows = upto;
    }

    /// Arm, move or cancel slot `i`'s engine timer so that it fires at
    /// [`Slot::wakeup`], sliding a live timer rather than layering a second.
    fn update_deadline(&mut self, i: usize, ctx: &mut Ctx<'_>) {
        let s = &mut self.slots[i];
        let next = s.wakeup();
        let set = s.timer.map(|(_, at)| at);
        #[cfg(test)]
        if self.keep_later_timers && set.zip(next).is_some_and(|(a, n)| n > a) {
            return;
        }
        if next == set {
            return;
        }
        let old = s.timer.take();
        let Some(at) = next else {
            if let Some((h, _)) = old {
                ctx.cancel_timer(h);
            }
            return;
        };
        let delay = at.saturating_since(ctx.now());
        let h = old
            .and_then(|(h, _)| ctx.reschedule_timer(h, delay))
            .unwrap_or_else(|| ctx.arm_timer(delay, TOKEN_SLOT | i as u64));
        s.timer = Some((h, at));
    }

    /// Slot `i`'s wakeup fired: run its transport's due timers and pump it.
    fn on_slot_timer(&mut self, i: usize, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let Some(s) = self.slots.get_mut(i) else {
            return;
        };
        // Firing consumed the handle; the flush arms a fresh one if owed.
        s.timer = None;
        if s.transport.next_timeout().is_some_and(|d| d <= now) {
            s.transport.on_timer(now);
        }
        self.dirty.insert(i);
        self.flush(ctx);
    }

    fn process_opens(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let mut pending = std::mem::take(&mut self.pending_opens);
        let mut keep = Vec::new();
        for p in pending.drain(..) {
            match p {
                PendingOpen::Queued(req) if req.at <= now => {
                    if req.warmup {
                        let mut tokens_left = 0;
                        for _ in 0..WARMUP_PINGS {
                            let token = self.rng.next_u64();
                            let ip = IpHeader {
                                src: self.addrs[WARMUP_IF as usize % self.addrs.len()],
                                dst: req.remote.addr,
                                protocol: mpw_tcp::wire::PROTO_PING,
                                ttl: 64,
                            };
                            let bytes = encode_ping(&ip, &PingPacket { token, reply: false });
                            if let Some(egress) = self.egress_for(WARMUP_IF, req.remote.addr)
                            {
                                ctx.send_frame(egress, 0, SimDuration::ZERO, Frame::new(bytes));
                                self.ping_sent_at.insert(token, now);
                                tokens_left += 1;
                            }
                        }
                        if tokens_left > 0 {
                            let wait = SimDuration::from_secs(2);
                            keep.push(PendingOpen::Warming {
                                req,
                                tokens_left,
                                deadline: now + wait,
                                timer: ctx.arm_timer(wait, TOKEN_OPEN),
                            });
                            continue;
                        }
                    }
                    self.open_now(req, now);
                }
                PendingOpen::Warming {
                    req,
                    tokens_left,
                    deadline,
                    timer,
                } => {
                    if tokens_left == 0 || now >= deadline {
                        // A no-op when this very timer is what fired.
                        ctx.cancel_timer(timer);
                        self.open_now(req, now);
                    } else {
                        keep.push(PendingOpen::Warming {
                            req,
                            tokens_left,
                            deadline,
                            timer,
                        });
                    }
                }
                other => keep.push(other),
            }
        }
        self.pending_opens = keep;
    }

    fn open_now(&mut self, req: OpenRequest, now: SimTime) {
        let conn_id = self.next_conn_id;
        self.next_conn_id += 1;
        let transport = match req.spec {
            TransportSpec::Plain { tcp, cc, if_index } => {
                let local = Endpoint::new(
                    self.addrs[if_index as usize],
                    30_000 + (conn_id as u16 % 20_000),
                );
                let iss = SeqNum(self.rng.next_u64() as u32);
                Transport::Sp(TcpSocket::connect(
                    tcp,
                    Cc::Own(NewReno::new(cc)),
                    Box::new(NoHooks),
                    local,
                    req.remote,
                    if_index,
                    iss,
                    now,
                ))
            }
            TransportSpec::Mptcp(cfg) => {
                let rng = SimRng::seeded(self.rng.next_u64());
                Transport::Mp(MptcpConnection::connect(
                    cfg,
                    conn_id,
                    self.addrs.clone(),
                    req.remote,
                    rng,
                    now,
                ))
            }
        };
        let slot = self.slots.len();
        // Most hosts open one connection: a `Slot` is under 1 KiB, where
        // std's first growth step would reserve four of them.
        if slot == 0 {
            self.slots.reserve_exact(1);
        }
        self.slots.push(Slot::new(transport, req.app));
        self.dirty.insert(slot);
        self.register_demux(slot);
    }

    fn handle_ping(&mut self, ctx: &mut Ctx<'_>, ip: IpHeader, ping: PingPacket) {
        if !ping.reply {
            // Echo it back.
            let reply_ip = IpHeader {
                src: ip.dst,
                dst: ip.src,
                protocol: mpw_tcp::wire::PROTO_PING,
                ttl: 64,
            };
            let bytes = encode_ping(&reply_ip, &PingPacket { token: ping.token, reply: true });
            // Route the reply; the destination decides the egress.
            if let Some(egress) = self.egress_for(0, ip.src) {
                ctx.send_frame(egress, 0, SimDuration::ZERO, Frame::new(bytes));
            }
            return;
        }
        // A reply to one of our warm-up pings.
        if let Some(sent) = self.ping_sent_at.remove(&ping.token) {
            self.ping_rtts.push(ctx.now().saturating_since(sent));
            for p in &mut self.pending_opens {
                if let PendingOpen::Warming { tokens_left, .. } = p {
                    *tokens_left = tokens_left.saturating_sub(1);
                }
            }
            self.process_opens(ctx);
        }
    }

    fn handle_tcp(&mut self, ctx: &mut Ctx<'_>, ip: IpHeader, seg: &TcpSegment) {
        let now = ctx.now();
        let local = Endpoint::new(ip.dst, seg.dst_port);
        let remote = Endpoint::new(ip.src, seg.src_port);
        if let Some(&(slot, sf)) = self.demux.get(&(local, remote)) {
            match &mut self.slots[slot].transport {
                Transport::Mp(c) => c.on_segment(sf, seg, now),
                Transport::Sp(s) => s.on_segment(seg, now),
            }
            self.dirty.insert(slot);
            self.register_demux(slot);
            return;
        }

        // No socket: maybe a listener can take it.
        if seg.has(tcp_flags::SYN)
            && !seg.has(tcp_flags::ACK)
            && Some(seg.dst_port) == self.listen_port
        {
            let join_token = seg.options.iter().find_map(|o| match o {
                TcpOption::Mptcp(MptcpOption::Join { token, .. }) => Some(token),
                _ => None,
            });
            if let Some(token) = join_token {
                if let Some(&slot) = self.tokens.get(&token) {
                    if let Transport::Mp(c) = &mut self.slots[slot].transport {
                        c.accept_join(local, remote, seg, now);
                        c.post_event(now);
                    }
                    self.dirty.insert(slot);
                    self.register_demux(slot);
                } else {
                    // Simultaneous-SYN mode: the JOIN may beat the
                    // MP_CAPABLE here; hold it briefly.
                    self.pending_joins.push((token, local, remote, seg.clone(), now));
                }
                return;
            }
            let is_capable = seg.options.iter().any(|o| {
                matches!(o, TcpOption::Mptcp(MptcpOption::Capable { .. }))
            });
            let conn_id = self.next_conn_id;
            self.next_conn_id += 1;
            let app = match &mut self.app_factory {
                Some(f) => f(conn_id),
                None => Box::new(NullApp),
            };
            let transport = if is_capable {
                let rng = SimRng::seeded(self.rng.next_u64());
                match MptcpConnection::accept(
                    self.listen_mptcp_cfg.clone(),
                    conn_id,
                    local,
                    remote,
                    self.addrs.clone(),
                    seg,
                    rng,
                    now,
                ) {
                    Some(c) => Transport::Mp(c),
                    None => return,
                }
            } else {
                let if_index = self
                    .addrs
                    .iter()
                    .position(|a| *a == local.addr)
                    .unwrap_or(0) as u8;
                let iss = SeqNum(self.rng.next_u64() as u32);
                Transport::Sp(TcpSocket::accept(
                    TcpConfig::default(),
                    Cc::Own(NewReno::new(CcConfig::default())),
                    Box::new(NoHooks),
                    local,
                    remote,
                    if_index,
                    iss,
                    seg,
                    now,
                ))
            };
            let slot = self.slots.len();
            self.slots.push(Slot::new(transport, app));
            self.dirty.insert(slot);
            self.register_demux(slot);
            // Any JOINs that raced ahead of this MP_CAPABLE?
            let token = match &self.slots[slot].transport {
                Transport::Mp(c) => Some(c.token()),
                _ => None,
            };
            if let Some(token) = token {
                let mut held = std::mem::take(&mut self.pending_joins);
                held.retain(|(t, l, r, syn, at)| {
                    if *t == token {
                        if let Transport::Mp(c) = &mut self.slots[slot].transport {
                            c.accept_join(*l, *r, syn, *at.max(&now));
                        }
                        false
                    } else {
                        now.saturating_since(*at) < SimDuration::from_secs(2)
                    }
                });
                self.pending_joins = held;
                self.register_demux(slot);
            }
            return;
        }

        // Nothing matched: count it and answer non-RST segments with RST.
        self.no_socket_drops += 1;
        if !seg.has(tcp_flags::RST) {
            let rst = TcpSegment::bare(
                local.port,
                remote.port,
                seg.ack,
                seg.seq + seg.seq_len(),
                tcp_flags::RST | tcp_flags::ACK,
            );
            let if_index = self
                .addrs
                .iter()
                .position(|a| *a == local.addr)
                .unwrap_or(0) as u8;
            self.emit_segment(ctx, local, remote, if_index, &rst);
        }
    }

    /// Host-level structural invariants: every demux and token entry must
    /// point at a live slot, and after every event each slot's wakeup timer
    /// must be set at exactly what its transport and app want.
    #[cfg(any(debug_assertions, feature = "check-invariants"))]
    fn validate(&self) -> Result<(), String> {
        for (&(local, remote), &(slot, _)) in &self.demux {
            if slot >= self.slots.len() {
                return Err(format!(
                    "demux ({local:?},{remote:?}) -> dead slot {slot} (have {})",
                    self.slots.len()
                ));
            }
        }
        for (&token, &slot) in &self.tokens {
            if slot >= self.slots.len() {
                return Err(format!(
                    "token {token:#x} -> dead slot {slot} (have {})",
                    self.slots.len()
                ));
            }
        }
        for (i, s) in self.slots.iter().enumerate() {
            let set = s.timer.map(|(_, at)| at);
            if set != s.wakeup() {
                return Err(format!(
                    "slot {i} wakeup set at {set:?} but its transport and app want {:?}",
                    s.wakeup()
                ));
            }
            let have = match &s.transport {
                Transport::Mp(c) => c.subflows.len(),
                Transport::Sp(_) => 1,
            };
            if s.registered_subflows > have {
                return Err(format!(
                    "slot {i} claims {} registered subflows but has {have}",
                    s.registered_subflows
                ));
            }
        }
        if let Some(&i) = self.dirty.iter().next_back() {
            if i >= self.slots.len() {
                return Err(format!(
                    "dirty set names dead slot {i} (have {})",
                    self.slots.len()
                ));
            }
        }
        Ok(())
    }

    #[inline]
    #[allow(unused_variables)]
    fn debug_check(&self, site: &str) {
        #[cfg(any(debug_assertions, feature = "check-invariants"))]
        #[expect(
            clippy::panic,
            reason = "invariant oracle: aborting on a violated host invariant is the check"
        )]
        if let Err(e) = self.validate() {
            panic!("host invariant violated after {site}: {e}");
        }
    }
}

impl Agent for Host {
    fn handle(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
        match ev {
            Event::Start => {}
            Event::Frame { frame, .. } => {
                match parse_any_shared(&frame.bytes) {
                    Ok(Packet::Tcp(ip, seg)) => self.handle_tcp(ctx, ip, &seg),
                    Ok(Packet::Ping(ip, ping)) => self.handle_ping(ctx, ip, ping),
                    // Corrupt or foreign frame: dropped, and counted.
                    Err(_) => self.unparsed_frames += 1,
                }
                self.flush(ctx);
            }
            Event::Timer { token } => {
                if token == TOKEN_OPEN {
                    self.process_opens(ctx);
                    self.flush(ctx);
                } else if token & TOKEN_SLOT != 0 {
                    self.on_slot_timer((token & !TOKEN_SLOT) as usize, ctx);
                }
            }
        }
        // The host's only exit: whatever the event was, the oracle runs.
        self.debug_check("handle");
    }
}

/// A transparent middlebox that strips MPTCP options from every TCP segment
/// passing through — modelling the AT&T port-80 web proxy that forced the
/// paper's testbed onto port 8080 (§3.1). Insert one per direction.
pub struct OptionStrippingMiddlebox {
    egress: (AgentId, u16),
    /// Segments rewritten so far.
    pub stripped: u64,
}

impl OptionStrippingMiddlebox {
    /// Forward frames to `egress` after stripping MPTCP options.
    pub fn new(egress: (AgentId, u16)) -> Self {
        OptionStrippingMiddlebox { egress, stripped: 0 }
    }
}

impl Agent for OptionStrippingMiddlebox {
    fn handle(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
        if let Event::Frame { frame, .. } = ev {
            let out = mpw_tcp::strip_mptcp_options(&frame.bytes);
            if out.len() != frame.bytes.len() {
                self.stripped += 1;
            }
            ctx.send_frame(
                self.egress.0,
                self.egress.1,
                SimDuration::ZERO,
                Frame::tagged(out, frame.meta),
            );
        }
    }
}

impl std::fmt::Debug for Host {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Host(addrs={:?}, slots={}, base={})",
            self.addrs,
            self.slots.len(),
            self.conn_id_base
        )
    }
}

// The oracle is compiled out of a release build without `check-invariants`.
#[cfg(all(test, any(debug_assertions, feature = "check-invariants")))]
mod tests {
    use super::*;
    use mpw_sim::trace::TraceLevel;
    use mpw_sim::World;
    use mpw_tcp::wire::{encode_packet, PROTO_PING, PROTO_TCP};

    /// An app that only asks to be woken at the instant it holds.
    struct Alarm(Option<SimTime>);

    impl App for Alarm {
        fn poll(&mut self, _conn: &mut Transport, _now: SimTime) {}
        fn next_wakeup(&self) -> Option<SimTime> {
            self.0
        }
    }

    /// The message of the panic `f` ends in, if it panics (empty for a
    /// payload that is not a formatted message).
    fn panic_message(f: impl FnOnce()) -> Option<String> {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).err()?;
        Some(payload.downcast_ref::<String>().cloned().unwrap_or_default())
    }

    /// The oracle bites: with the token map broken through a private field
    /// (an entry for a slot that does not exist), every kind of event the
    /// host can be handed ends in the abort at `handle`'s one exit — the
    /// two branches that run no handler of their own (`Start`, the open
    /// timer), the frame that does not parse and a slot timer naming no
    /// slot included.
    #[test]
    fn every_event_runs_the_oracle_at_the_one_exit() {
        let addr = Addr::new(192, 168, 1, 1);
        let ip = |protocol| IpHeader { src: Addr::new(10, 0, 1, 2), dst: addr, protocol, ttl: 64 };
        let frame = |bytes| Some(Event::Frame { port: 0, frame: Frame::new(bytes) });
        let seg = TcpSegment::bare(40_000, 9_999, SeqNum(5), SeqNum(0), tcp_flags::ACK);
        // `None`: the `Start` the world itself delivers on its first run.
        let events = [
            ("start", None),
            ("tcp frame", frame(encode_packet(&ip(PROTO_TCP), &seg))),
            ("ping frame", frame(encode_ping(&ip(PROTO_PING), &PingPacket { token: 1, reply: false }))),
            ("unparsed frame", frame(bytes::Bytes::from_static(b"not a packet"))),
            ("open timer", Some(Event::Timer { token: TOKEN_OPEN })),
            ("slot timer", Some(Event::Timer { token: TOKEN_SLOT })),
        ];
        for (what, ev) in events {
            let mut w = World::new(3, TraceLevel::Off);
            let rng = w.rng().stream("host");
            let host = w.add_agent(Box::new(Host::new(vec![addr], 0, rng)));
            if let Some(ev) = ev {
                w.run_until_idle();
                w.schedule(w.now(), host, ev);
            }
            w.agent_mut::<Host>(host).expect("the host").tokens.insert(7, 7);
            let msg = panic_message(|| {
                w.run_until_idle();
            })
            .expect(what);
            assert!(msg.starts_with("host invariant violated after handle: "), "{what}: {msg}");
            assert!(msg.contains("-> dead slot"), "{what}: {msg}");
        }
    }

    /// `app`/`app_mut` reach the boxed app itself: the right type reads and
    /// writes it, a wrong type or a slot that does not exist reads `None`.
    #[test]
    fn app_downcasts_reach_the_app_not_its_box() {
        let ms = SimTime::from_millis;
        let mut w = World::new(3, TraceLevel::Off);
        let mut host = Host::new(vec![Addr::new(192, 168, 1, 1)], 0, w.rng().stream("host"));
        let spec = TransportSpec::Plain { tcp: TcpConfig::default(), cc: CcConfig::default(), if_index: 0 };
        let remote = Endpoint::new(Addr::new(10, 0, 1, 2), 8080);
        let app = Box::new(Alarm(Some(ms(50))));
        host.queue_open(OpenRequest { at: SimTime::ZERO, spec, remote, app, warmup: false });
        let host = w.add_agent(Box::new(host));
        w.schedule(SimTime::ZERO, host, Event::Timer { token: TOKEN_OPEN });
        w.run_until(ms(10));
        let h = w.agent_mut::<Host>(host).expect("the host");
        assert_eq!(h.app::<Alarm>(0).map(|a| a.0), Some(Some(ms(50))));
        assert!(h.app::<NullApp>(0).is_none());
        assert!(h.app_mut::<NullApp>(0).is_none());
        assert!(h.app::<Alarm>(1).is_none());
        h.app_mut::<Alarm>(0).expect("app_mut downcast").0 = None;
        assert_eq!(h.app::<Alarm>(0).map(|a| a.0), Some(None));
    }

    /// The wakeup clause bites: a mutant `update_deadline` that keeps a
    /// slot's timer when the slot's deadline moves later aborts at the exit
    /// of the event that moved it, while the same script without the
    /// mutant slides the timer and runs clean.
    #[test]
    fn a_timer_kept_behind_a_later_deadline_trips_the_oracle() {
        let ms = SimTime::from_millis;
        for mutant in [false, true] {
            let mut w = World::new(3, TraceLevel::Off);
            let mut host = Host::new(vec![Addr::new(192, 168, 1, 1)], 0, w.rng().stream("host"));
            host.keep_later_timers = mutant;
            // No interface link: the SYN goes nowhere, and the alarm at
            // 50 ms is the slot's deadline, ahead of the SYN's 1 s RTO.
            let spec = TransportSpec::Plain { tcp: TcpConfig::default(), cc: CcConfig::default(), if_index: 0 };
            let remote = Endpoint::new(Addr::new(10, 0, 1, 2), 8080);
            let app = Box::new(Alarm(Some(ms(50))));
            host.queue_open(OpenRequest { at: SimTime::ZERO, spec, remote, app, warmup: false });
            let host = w.add_agent(Box::new(host));
            w.schedule(SimTime::ZERO, host, Event::Timer { token: TOKEN_OPEN });
            w.run_until(ms(10));
            let timer_at = |w: &World| w.agent::<Host>(host).expect("the host").slots[0].timer.map(|(_, at)| at);
            assert_eq!(timer_at(&w), Some(ms(50)));
            let h = w.agent_mut::<Host>(host).expect("the host");
            h.app_mut::<Alarm>(0).expect("the alarm").0 = Some(ms(80));
            w.schedule(ms(10), host, Event::Timer { token: TOKEN_OPEN });
            let msg = panic_message(|| {
                w.run_until(ms(20));
            });
            if mutant {
                let msg = msg.expect("the mutant must trip the oracle");
                assert!(msg.starts_with("host invariant violated after handle: slot 0 "), "{msg}");
            } else {
                assert_eq!((msg, timer_at(&w)), (None, Some(ms(80))));
            }
        }
    }
}
