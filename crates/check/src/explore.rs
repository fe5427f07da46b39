//! An explicit-state model checker for the MPTCP machines.
//!
//! The system under test is a real client [`MptcpConnection`] talking to a
//! real server one through two explicit frame queues — no event loop, no
//! link models, no wall clock. The checker owns the only nondeterminism in
//! that closed system: *which queued frame is delivered next* (within a
//! bounded reorder window), whether it is dropped or duplicated (bounded
//! budgets), and when pending retransmission/delayed-ACK timers fire. It
//! enumerates every such adversarial schedule up to a depth bound with DFS
//! and state-fingerprint deduplication, checking after every transition:
//!
//! * every protocol-invariant oracle (`MptcpConnection::validate`, which
//!   recurses into each subflow's `TcpSocket::validate` and the coupled-CC
//!   increase oracle) — both explicitly and via the `debug_check` panics
//!   the `check-invariants` feature arms inside the stack;
//! * the wire codec: every emitted segment must survive an
//!   encode→parse round trip bit-identically;
//! * end-to-end data integrity: bytes the server app receives must be a
//!   prefix of exactly what the client app wrote;
//! * byte conservation: drained app bytes always equal the connection's
//!   `delivered_offset`.
//!
//! A state with no enabled action is *quiescent*: no frames in flight, no
//! timer armed. The only legitimate quiescent state is full completion —
//! all data delivered, both directions closed — so anything else is
//! reported as a deadlock / eventual-delivery violation.
//!
//! The search forks its frontier: a child state is a clone of its parent
//! with one more action applied, so no state is rebuilt from the root. A
//! counterexample is still its action list: on a violation the path is
//! shrunk by greedy action deletion, each candidate judged by deterministic
//! replay from the fixed initial state, and printed as a tcpdump-style
//! transcript of its replay.

use std::collections::{BTreeSet, VecDeque};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};

use bytes::Bytes;
use mpw_mptcp::conn::{MptcpConfig, MptcpConnection, SynMode};
use mpw_mptcp::Coupling;
use mpw_sim::{SimDuration, SimRng, SimTime};
use mpw_tcp::wire::{encode_packet, parse_packet, tcp_flags, Addr, Endpoint, IpHeader, PROTO_TCP};
use mpw_tcp::TcpSegment;

/// Which planted bug to arm (see ISSUE 3's acceptance criteria).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Inject {
    /// Disable the RFC 6356 TCP-compatibility clamp in the coupled
    /// controller; caught by the per-ACK increase oracle.
    UnclampedCc,
    /// Shift recorded DSS mappings back one byte, silently corrupting the
    /// dseq space; caught by the data-integrity / eventual-delivery checks.
    OverlappingDss,
}

/// Exploration bounds and scenario shape.
#[derive(Clone, Debug)]
pub struct CheckConfig {
    /// Maximum schedule length (actions per path).
    pub depth: usize,
    /// Stop after this many distinct states (0 = unbounded).
    pub max_states: usize,
    /// Frame-drop budget per schedule.
    pub max_drops: usize,
    /// Frame-duplication budget per schedule.
    pub max_dups: usize,
    /// A queued frame may be delivered from any of the first `reorder`
    /// positions (1 = strictly in-order delivery).
    pub reorder: usize,
    /// Application bytes the client uploads.
    pub data_len: usize,
    /// MSS for both subflows (small, so the upload spans several DSS
    /// mappings and reassembly/reinjection paths are reachable).
    pub mss: usize,
    /// Initial ssthresh in bytes (small values put the coupled controller
    /// into congestion avoidance where RFC 6356 applies).
    pub ssthresh: usize,
    /// Coupled congestion-control variant.
    pub coupling: Coupling,
    /// SYN timing for the join subflow (the paper's §4.1.2 axis; in
    /// `Simultaneous` mode the MP_JOIN SYN can race the MP_CAPABLE one).
    pub syn_mode: SynMode,
    /// Planted bug, if any.
    pub inject: Option<Inject>,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            depth: 11,
            max_states: 200_000,
            max_drops: 1,
            max_dups: 1,
            reorder: 2,
            data_len: 600,
            mss: 200,
            ssthresh: 400,
            coupling: Coupling::Olia,
            syn_mode: SynMode::Delayed,
            inject: None,
        }
    }
}

/// Direction of a frame queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetDir {
    /// Client → server.
    C2s,
    /// Server → client.
    S2c,
}

/// Which endpoint a timer action fires on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// The connecting endpoint.
    Client,
    /// The accepting endpoint.
    Server,
}

/// One adversarial scheduling choice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Deliver the frame at queue position `1` (< reorder window).
    Deliver(NetDir, usize),
    /// Drop the frame at the head of the queue.
    Drop(NetDir),
    /// Re-queue a copy of the frame at the head of the queue.
    Dup(NetDir),
    /// Jump the clock to the side's earliest timer deadline and fire it.
    Timer(Side),
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let dir = |d: NetDir| match d {
            NetDir::C2s => "c→s",
            NetDir::S2c => "s→c",
        };
        match self {
            Action::Deliver(d, i) => write!(f, "deliver {}[{}]", dir(*d), i),
            Action::Drop(d) => write!(f, "drop {}", dir(*d)),
            Action::Dup(d) => write!(f, "dup {}", dir(*d)),
            Action::Timer(Side::Client) => write!(f, "timer client"),
            Action::Timer(Side::Server) => write!(f, "timer server"),
        }
    }
}

/// A violation: the failing schedule (already shrunk by the search entry
/// points) and what went wrong at its last action.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Action schedule from the initial state to the failure.
    pub path: Vec<Action>,
    /// Violation message (oracle error, panic payload, or deadlock report).
    pub message: String,
}

/// Exploration outcome.
#[derive(Clone, Debug, Default)]
pub struct ExploreResult {
    /// Distinct states visited (by fingerprint).
    pub states: usize,
    /// Transitions taken (including ones landing on known states).
    pub transitions: usize,
    /// Quiescent (fully terminated) states reached.
    pub quiescent: usize,
    /// Deepest schedule explored.
    pub deepest: usize,
    /// Whether `max_states` truncated the search.
    pub truncated: bool,
    /// First violation found, with a shrunk schedule.
    pub violation: Option<Violation>,
}

const CLIENT_ADDRS: [Addr; 2] = [Addr::new(10, 0, 0, 1), Addr::new(10, 0, 1, 1)];
const SERVER_ADDR: Addr = Addr::new(10, 9, 0, 1);
const SERVER_PORT: u16 = 80;

/// The deterministic upload payload: position-dependent so any byte landing
/// at the wrong connection-level offset is detected.
fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i.wrapping_mul(31) ^ (i >> 8)) as u8).collect()
}

/// A frame in flight.
#[derive(Clone, Debug)]
struct Wire {
    src: Endpoint,
    dst: Endpoint,
    seg: TcpSegment,
}

/// The closed two-endpoint system the checker drives.
#[derive(Clone)]
struct Sut {
    cfg: CheckConfig,
    now: SimTime,
    client: MptcpConnection,
    server: Option<MptcpConnection>,
    server_closed: bool,
    c2s: VecDeque<Wire>,
    s2c: VecDeque<Wire>,
    /// MP_JOIN SYNs that arrived before the MP_CAPABLE created the server
    /// (reachable under reordering in Simultaneous mode).
    held_joins: Vec<Wire>,
    drops_used: usize,
    dups_used: usize,
    expected: Vec<u8>,
    server_rx: Vec<u8>,
    client_rx: Vec<u8>,
    /// Optional replay transcript, one `snd`/`rcv` line per segment
    /// (counterexample printing).
    trace: Option<Vec<String>>,
}

fn mptcp_config(cfg: &CheckConfig) -> MptcpConfig {
    let mut c = MptcpConfig::default();
    c.tcp.mss = cfg.mss;
    c.cc.mss = cfg.mss;
    c.cc.initial_ssthresh = cfg.ssthresh;
    c.coupling = cfg.coupling;
    c.syn_mode = cfg.syn_mode;
    c.max_subflows = 2;
    c
}

impl Sut {
    fn new(cfg: &CheckConfig, with_trace: bool) -> Result<Sut, String> {
        let mut client = MptcpConnection::connect(
            mptcp_config(cfg),
            1,
            CLIENT_ADDRS.to_vec(),
            Endpoint::new(SERVER_ADDR, SERVER_PORT),
            SimRng::seeded(0xC0FFEE),
            SimTime::ZERO,
        );
        match cfg.inject {
            Some(Inject::OverlappingDss) => client.inject_overlapping_dss(),
            Some(Inject::UnclampedCc) => client.inject_unclamped_cc(),
            None => {}
        }
        let expected = pattern(cfg.data_len);
        let pushed = client.send(Bytes::from(expected.clone()));
        if pushed != cfg.data_len {
            return Err(format!(
                "send buffer refused upload: {pushed} of {} bytes",
                cfg.data_len
            ));
        }
        client.close();
        let mut sut = Sut {
            cfg: cfg.clone(),
            now: SimTime::ZERO,
            client,
            server: None,
            server_closed: false,
            c2s: VecDeque::new(),
            s2c: VecDeque::new(),
            held_joins: Vec::new(),
            drops_used: 0,
            dups_used: 0,
            expected,
            server_rx: Vec::new(),
            client_rx: Vec::new(),
            trace: with_trace.then(Vec::new),
        };
        sut.pump()?;
        sut.health_check()?;
        Ok(sut)
    }

    /// Append one transcript line for a segment `sent_by_client` (or by the
    /// server) on `subflow`, if this replay keeps a transcript.
    fn note(&mut self, verb: &str, sent_by_client: bool, subflow: usize, seg: &TcpSegment) {
        let Some(lines) = &mut self.trace else {
            return;
        };
        let dir = if sent_by_client { "c→s" } else { "s→c" };
        let dseq = match seg.dss().and_then(|(_, m, _)| m) {
            Some(m) => format!(" dseq {}", m.dseq),
            None => String::new(),
        };
        lines.push(format!(
            "{:>9} {verb} {dir} sf{subflow} {} seq {} ack {} len {}{dseq}",
            format!("{:?}", self.now),
            tcp_flags::tcpdump_str(seg.flags),
            seg.seq,
            seg.ack,
            seg.payload.len(),
        ));
    }

    /// Send a segment into a queue, round-tripping it through the wire
    /// codec (an oracle in itself: encode→parse must be the identity).
    fn enqueue(&mut self, from_client: bool, subflow: usize, w: Wire) -> Result<(), String> {
        let ip = IpHeader {
            src: w.src.addr,
            dst: w.dst.addr,
            protocol: PROTO_TCP,
            ttl: 64,
        };
        let bytes = encode_packet(&ip, &w.seg);
        let (pip, pseg) =
            parse_packet(&bytes).map_err(|e| format!("wire codec: encode→parse failed: {e:?}"))?;
        if pip != ip || pseg != w.seg {
            return Err(format!(
                "wire codec: segment not preserved across encode→parse\n  sent:   {:?}\n  parsed: {:?}",
                w.seg, pseg
            ));
        }
        self.note("snd", from_client, subflow, &pseg);
        let q = if from_client { &mut self.c2s } else { &mut self.s2c };
        q.push_back(Wire { seg: pseg, ..w });
        Ok(())
    }

    /// Drain owed segments and app-level deliveries from both endpoints
    /// until neither makes progress.
    fn pump(&mut self) -> Result<(), String> {
        for _ in 0..100_000 {
            let mut progressed = false;
            if let Some((idx, seg)) = self.client.poll_transmit(self.now) {
                let (src, dst) = {
                    let sf = &self.client.subflows[idx];
                    (sf.local, sf.remote)
                };
                self.enqueue(true, idx, Wire { src, dst, seg })?;
                progressed = true;
            }
            let server_out = match &mut self.server {
                Some(server) => server.poll_transmit(self.now).map(|(idx, seg)| {
                    let sf = &server.subflows[idx];
                    (idx, sf.local, sf.remote, seg)
                }),
                None => None,
            };
            if let Some((idx, src, dst, seg)) = server_out {
                self.enqueue(false, idx, Wire { src, dst, seg })?;
                progressed = true;
            }
            while let Some(b) = self.client.recv() {
                self.client_rx.extend_from_slice(&b);
                progressed = true;
            }
            if let Some(server) = &mut self.server {
                while let Some(b) = server.recv() {
                    self.server_rx.extend_from_slice(&b);
                    progressed = true;
                }
                // Server app: half-close back once the upload direction is
                // done, so teardown (DATA_FIN both ways, subflow FINs) is
                // part of the explored space.
                if !self.server_closed && server.peer_closed() {
                    server.close();
                    server.post_event(self.now);
                    self.server_closed = true;
                    progressed = true;
                }
            }
            if !progressed {
                return Ok(());
            }
        }
        Err("livelock: pump did not converge in 100000 iterations".into())
    }

    fn deliver(&mut self, dir: NetDir, i: usize) -> Result<bool, String> {
        let q = match dir {
            NetDir::C2s => &mut self.c2s,
            NetDir::S2c => &mut self.s2c,
        };
        if i >= q.len() || i >= self.cfg.reorder {
            return Ok(false);
        }
        let w = q.remove(i).expect("bounds checked");
        self.now += SimDuration::from_millis(1);
        match dir {
            NetDir::C2s => self.deliver_to_server(w)?,
            NetDir::S2c => self.deliver_to_client(w)?,
        }
        self.pump()?;
        Ok(true)
    }

    fn deliver_to_client(&mut self, w: Wire) -> Result<(), String> {
        let idx = self
            .client
            .subflows
            .iter()
            .position(|sf| sf.local == w.dst && sf.remote == w.src);
        self.note("rcv", false, idx.unwrap_or(0), &w.seg);
        if let Some(idx) = idx {
            self.client.on_segment(idx, &w.seg, self.now);
        }
        Ok(())
    }

    fn deliver_to_server(&mut self, w: Wire) -> Result<(), String> {
        if self.server.is_some() {
            let idx = self
                .server
                .as_ref()
                .and_then(|s| {
                    s.subflows
                        .iter()
                        .position(|sf| sf.local == w.dst && sf.remote == w.src)
                });
            self.note("rcv", true, idx.unwrap_or(0), &w.seg);
            if let Some(server) = self.server.as_mut() {
                if let Some(idx) = idx {
                    server.on_segment(idx, &w.seg, self.now);
                } else if w.seg.has(tcp_flags::SYN) && !w.seg.has(tcp_flags::ACK) {
                    // New subflow: an MP_JOIN for this connection.
                    server.accept_join(w.dst, w.src, &w.seg, self.now);
                    server.post_event(self.now);
                }
            }
            return Ok(());
        }
        self.note("rcv", true, 0, &w.seg);
        if !w.seg.has(tcp_flags::SYN) || w.seg.has(tcp_flags::ACK) {
            return Ok(()); // no listener state for this frame; drop
        }
        let is_join = w.seg.mptcp().is_some_and(|m| {
            matches!(m, mpw_tcp::wire::MptcpOption::Join { .. })
        });
        if is_join {
            // JOIN beat the MP_CAPABLE (simultaneous SYNs + reordering):
            // hold it the way the host does.
            self.held_joins.push(w);
            return Ok(());
        }
        let server = MptcpConnection::accept(
            mptcp_config(&self.cfg),
            1,
            w.dst,
            w.src,
            vec![SERVER_ADDR],
            &w.seg,
            SimRng::seeded(0xBEEF),
            self.now,
        )
        .ok_or("accept: MP_CAPABLE SYN rejected")?;
        self.server = Some(server);
        let held = std::mem::take(&mut self.held_joins);
        let server = self.server.as_mut().expect("just created");
        for j in held {
            server.accept_join(j.dst, j.src, &j.seg, self.now);
        }
        server.post_event(self.now);
        Ok(())
    }

    fn fire_timer(&mut self, side: Side) -> Result<bool, String> {
        let conn = match side {
            Side::Client => Some(&mut self.client),
            Side::Server => self.server.as_mut(),
        };
        let Some(conn) = conn else { return Ok(false) };
        let Some(t) = conn.next_timeout() else {
            return Ok(false);
        };
        // Untimed abstraction: a pending timer may always fire "next"; the
        // clock jumps straight to its deadline.
        self.now = self.now.max(t);
        let now = self.now;
        conn.on_timer(now);
        self.pump()?;
        Ok(true)
    }

    /// Apply one action. `Ok(false)` = action infeasible in this state
    /// (state unchanged apart from a possible no-op), `Err` = violation.
    fn apply(&mut self, a: Action) -> Result<bool, String> {
        match a {
            Action::Deliver(dir, i) => self.deliver(dir, i),
            Action::Drop(dir) => {
                if self.drops_used >= self.cfg.max_drops {
                    return Ok(false);
                }
                let q = match dir {
                    NetDir::C2s => &mut self.c2s,
                    NetDir::S2c => &mut self.s2c,
                };
                if q.pop_front().is_none() {
                    return Ok(false);
                }
                self.drops_used += 1;
                Ok(true)
            }
            Action::Dup(dir) => {
                if self.dups_used >= self.cfg.max_dups {
                    return Ok(false);
                }
                let q = match dir {
                    NetDir::C2s => &mut self.c2s,
                    NetDir::S2c => &mut self.s2c,
                };
                let Some(front) = q.front().cloned() else {
                    return Ok(false);
                };
                q.push_back(front);
                self.dups_used += 1;
                Ok(true)
            }
            Action::Timer(side) => self.fire_timer(side),
        }
    }

    /// All actions enabled in this state, in a fixed deterministic order.
    fn enabled(&self) -> Vec<Action> {
        let mut out = Vec::new();
        for (dir, q) in [(NetDir::C2s, &self.c2s), (NetDir::S2c, &self.s2c)] {
            for i in 0..q.len().min(self.cfg.reorder) {
                out.push(Action::Deliver(dir, i));
            }
        }
        if self.drops_used < self.cfg.max_drops {
            for (dir, q) in [(NetDir::C2s, &self.c2s), (NetDir::S2c, &self.s2c)] {
                if !q.is_empty() {
                    out.push(Action::Drop(dir));
                }
            }
        }
        if self.dups_used < self.cfg.max_dups {
            for (dir, q) in [(NetDir::C2s, &self.c2s), (NetDir::S2c, &self.s2c)] {
                if !q.is_empty() {
                    out.push(Action::Dup(dir));
                }
            }
        }
        if self.client.next_timeout().is_some() {
            out.push(Action::Timer(Side::Client));
        }
        if self.server.as_ref().is_some_and(|s| s.next_timeout().is_some()) {
            out.push(Action::Timer(Side::Server));
        }
        out
    }

    /// The safety oracle, run after every transition.
    fn health_check(&self) -> Result<(), String> {
        self.client.validate().map_err(|e| format!("client: {e}"))?;
        if let Some(s) = &self.server {
            s.validate().map_err(|e| format!("server: {e}"))?;
        }
        // End-to-end data integrity: what the server app read must be a
        // prefix of what the client app wrote.
        if self.server_rx.len() > self.expected.len() {
            return Err(format!(
                "integrity: server received {} bytes, client only sent {}",
                self.server_rx.len(),
                self.expected.len()
            ));
        }
        if let Some(i) = (0..self.server_rx.len()).find(|&i| self.server_rx[i] != self.expected[i])
        {
            return Err(format!(
                "integrity: server byte {} is {:#04x}, client sent {:#04x}",
                i, self.server_rx[i], self.expected[i]
            ));
        }
        if !self.client_rx.is_empty() {
            return Err(format!(
                "integrity: client app received {} bytes; server never writes",
                self.client_rx.len()
            ));
        }
        // Conservation: the app-visible stream and the connection's own
        // delivered-offset accounting must agree (recv is fully drained).
        if let Some(s) = &self.server {
            if s.delivered_offset() != self.server_rx.len() as u64 {
                return Err(format!(
                    "conservation: server delivered_offset {} != {} bytes drained",
                    s.delivered_offset(),
                    self.server_rx.len()
                ));
            }
        }
        Ok(())
    }

    /// At quiescence (no frames, no timers) the only legal state is full
    /// completion: everything delivered and both directions closed.
    fn quiescent_ok(&self) -> Result<(), String> {
        let Some(s) = &self.server else {
            return Err("deadlock: quiescent before the server ever accepted".into());
        };
        if self.server_rx != self.expected {
            return Err(format!(
                "eventual delivery: quiescent with {} of {} bytes delivered",
                self.server_rx.len(),
                self.expected.len()
            ));
        }
        if !s.peer_closed() {
            return Err("deadlock: quiescent but the server never saw DATA_FIN".into());
        }
        if !self.client.peer_closed() {
            return Err("deadlock: quiescent but the client never saw the server's DATA_FIN".into());
        }
        Ok(())
    }

    /// Hash of everything that defines the state, *excluding* absolute
    /// times (untimed abstraction — schedules differing only in clock
    /// values collapse).
    fn fingerprint(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.client.fingerprint(&mut h);
        match &self.server {
            Some(s) => {
                h.write_u8(1);
                s.fingerprint(&mut h);
            }
            None => h.write_u8(0),
        }
        for q in [&self.c2s, &self.s2c] {
            h.write_usize(q.len());
            for w in q {
                hash_wire(&mut h, w);
            }
        }
        h.write_usize(self.held_joins.len());
        for w in &self.held_joins {
            hash_wire(&mut h, w);
        }
        h.write_usize(self.drops_used);
        h.write_usize(self.dups_used);
        h.write_usize(self.server_rx.len());
        h.write_usize(self.client_rx.len());
        h.write_u8(self.server_closed as u8);
        h.finish()
    }
}

fn hash_wire(h: &mut impl Hasher, w: &Wire) {
    h.write_u32(w.src.addr.0);
    h.write_u16(w.src.port);
    h.write_u32(w.dst.addr.0);
    h.write_u16(w.dst.port);
    w.seg.seq.hash(h);
    w.seg.ack.hash(h);
    h.write_u8(w.seg.flags);
    h.write_u16(w.seg.window);
    h.write(&w.seg.payload);
    // Options influence behaviour; hash their debug form (deterministic
    // derive output, and this is not a hot path).
    h.write(format!("{:?}", w.seg.options).as_bytes());
}

/// How a replayed schedule ended.
enum Replayed {
    /// Schedule fully applied; state attached.
    Ok(Box<Sut>),
    /// An action in the schedule was not enabled (arises during shrinking).
    Infeasible,
    /// A violation fired at action `index` (counting the initial pump as 0).
    Violation { message: String },
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Apply one action to `sut`, then run the safety oracle. `Ok(false)`: the
/// action is not enabled. Oracle panics (the `debug_check` walls inside the
/// stack) are caught and converted into violations.
fn step(sut: &mut Sut, a: Action) -> Result<bool, String> {
    let r = catch_unwind(AssertUnwindSafe(|| {
        sut.apply(a).and_then(|feasible| {
            if feasible {
                sut.health_check().map(|()| true)
            } else {
                Ok(false)
            }
        })
    }));
    r.unwrap_or_else(|p| Err(panic_message(p)))
}

/// Deterministically re-execute `path` from the initial state.
fn replay(cfg: &CheckConfig, path: &[Action]) -> Replayed {
    let mut sut = match catch_unwind(AssertUnwindSafe(|| Sut::new(cfg, false))) {
        Ok(Ok(s)) => s,
        Ok(Err(e)) => return Replayed::Violation { message: e },
        Err(p) => {
            return Replayed::Violation { message: panic_message(p) }
        }
    };
    for &a in path {
        match step(&mut sut, a) {
            Ok(true) => {}
            Ok(false) => return Replayed::Infeasible,
            Err(message) => return Replayed::Violation { message },
        }
    }
    Replayed::Ok(Box::new(sut))
}

fn violates(cfg: &CheckConfig, path: &[Action]) -> Option<String> {
    match replay(cfg, path) {
        Replayed::Violation { message } => Some(message),
        Replayed::Infeasible => None,
        Replayed::Ok(sut) => {
            if sut.enabled().is_empty() {
                sut.quiescent_ok().err()
            } else {
                None
            }
        }
    }
}

/// Greedy-deletion shrink: repeatedly drop any action whose removal keeps
/// the schedule violating, until no single deletion does.
fn shrink(cfg: &CheckConfig, mut path: Vec<Action>) -> Vec<Action> {
    loop {
        let mut improved = false;
        let mut i = 0;
        while i < path.len() {
            let mut cand = path.clone();
            cand.remove(i);
            if violates(cfg, &cand).is_some() {
                path = cand;
                improved = true;
            } else {
                i += 1;
            }
        }
        if !improved {
            return path;
        }
    }
}

/// Install a silent panic hook for the duration of `f`: the checker turns
/// oracle panics into counterexamples, so the default stderr backtrace
/// spam (especially during shrinking, which re-triggers the panic dozens
/// of times) is pure noise.
fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

/// Exhaustively explore every schedule up to the config's bounds.
///
/// DFS with fingerprint deduplication over cloned states, each carried with
/// the action list that reaches it. Stops at the first violation and
/// returns it with a schedule shrunk by replay.
pub fn explore(cfg: &CheckConfig) -> ExploreResult {
    with_quiet_panics(|| explore_inner(cfg))
}

fn explore_inner(cfg: &CheckConfig) -> ExploreResult {
    let mut res = ExploreResult::default();
    let root = match replay(cfg, &[]) {
        Replayed::Ok(s) => s,
        Replayed::Infeasible => unreachable!("empty schedule is always feasible"),
        Replayed::Violation { message } => {
            res.violation = Some(Violation { path: Vec::new(), message });
            return res;
        }
    };
    let mut seen: BTreeSet<u64> = BTreeSet::new();
    seen.insert(root.fingerprint());
    res.states = 1;
    let mut stack: Vec<(Box<Sut>, Vec<Action>)> = vec![(root, Vec::new())];

    while let Some((node, path)) = stack.pop() {
        res.deepest = res.deepest.max(path.len());
        let actions = node.enabled();
        if actions.is_empty() {
            res.quiescent += 1;
            if let Err(message) = node.quiescent_ok() {
                res.violation = Some(Violation { path: shrink(cfg, path), message });
                return res;
            }
            continue;
        }
        if path.len() >= cfg.depth {
            continue;
        }
        for a in actions {
            let mut child = path.clone();
            child.push(a);
            res.transitions += 1;
            let mut sut = node.clone();
            match step(&mut sut, a) {
                Ok(true) => {
                    if seen.insert(sut.fingerprint()) {
                        res.states += 1;
                        if cfg.max_states > 0 && res.states >= cfg.max_states {
                            res.truncated = true;
                            return res;
                        }
                        stack.push((sut, child));
                    }
                }
                Ok(false) => {}
                Err(message) => {
                    res.violation = Some(Violation { path: shrink(cfg, child), message });
                    return res;
                }
            }
        }
    }
    res
}

/// Replay a (counterexample) schedule and render it as a step-by-step
/// tcpdump-style transcript.
pub fn format_trace(cfg: &CheckConfig, path: &[Action]) -> String {
    with_quiet_panics(|| {
        let mut out = String::new();
        let mut sut = match catch_unwind(AssertUnwindSafe(|| Sut::new(cfg, true))) {
            Ok(Ok(s)) => s,
            Ok(Err(e)) => return format!("<initial pump violated: {e}>\n"),
            Err(p) => return format!("<initial pump panicked: {}>\n", panic_message(p)),
        };
        let mut cursor = 0;
        let flush = |sut: &Sut, out: &mut String, cursor: &mut usize| {
            if let Some(lines) = &sut.trace {
                for line in &lines[*cursor..] {
                    out.push_str(&format!("    {line}\n"));
                }
                *cursor = lines.len();
            }
        };
        out.push_str("  #0 <initial pump>\n");
        flush(&sut, &mut out, &mut cursor);
        for (i, &a) in path.iter().enumerate() {
            out.push_str(&format!("  #{} {a}\n", i + 1));
            let r = catch_unwind(AssertUnwindSafe(|| {
                sut.apply(a).and_then(|f| if f { sut.health_check().map(|()| true) } else { Ok(false) })
            }));
            flush(&sut, &mut out, &mut cursor);
            match r {
                Ok(Ok(true)) => {}
                Ok(Ok(false)) => {
                    out.push_str("    <action infeasible — schedule out of date>\n");
                    return out;
                }
                Ok(Err(e)) => {
                    out.push_str(&format!("    VIOLATION: {e}\n"));
                    return out;
                }
                Err(p) => {
                    out.push_str(&format!("    VIOLATION (oracle panic): {}\n", panic_message(p)));
                    return out;
                }
            }
        }
        if sut.enabled().is_empty() {
            if let Err(e) = sut.quiescent_ok() {
                out.push_str(&format!("  <quiescent> VIOLATION: {e}\n"));
            }
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_is_position_dependent() {
        let p = pattern(600);
        // A one-byte shift must be detectable everywhere a DSS chunk can
        // start (the planted overlapping-dss bug shifts by exactly one).
        let shifted_matches = (1..600).filter(|&i| p[i] == p[i - 1]).count();
        assert!(shifted_matches < 60, "pattern too repetitive: {shifted_matches}");
    }

    #[test]
    fn replay_is_deterministic() {
        let cfg = CheckConfig { depth: 4, ..CheckConfig::default() };
        let a = replay(&cfg, &[]);
        let b = replay(&cfg, &[]);
        let (Replayed::Ok(a), Replayed::Ok(b)) = (a, b) else {
            panic!("root replay failed");
        };
        assert_eq!(a.fingerprint(), b.fingerprint());
        // One in-order handshake step, replayed twice, agrees too.
        let p = [Action::Deliver(NetDir::C2s, 0)];
        let (Replayed::Ok(a), Replayed::Ok(b)) = (replay(&cfg, &p), replay(&cfg, &p)) else {
            panic!("step replay failed");
        };
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    /// The search's frontier holds clones; the first few hundred states it
    /// reaches, each re-derived by replaying its path from the root, must
    /// fingerprint the same.
    #[test]
    fn clone_frontier_matches_replay() {
        let cfg = CheckConfig::default();
        let Replayed::Ok(root) = replay(&cfg, &[]) else {
            panic!("root replay failed");
        };
        let mut seen = BTreeSet::from([root.fingerprint()]);
        let mut stack = vec![(root, Vec::new())];
        let mut checked = 0;
        while let Some((node, path)) = stack.pop() {
            let Replayed::Ok(replayed) = replay(&cfg, &path) else {
                panic!("{path:?} does not replay");
            };
            assert_eq!(node.fingerprint(), replayed.fingerprint(), "after {path:?}");
            checked += 1;
            if checked == 300 {
                return;
            }
            if path.len() >= cfg.depth {
                continue;
            }
            for a in node.enabled() {
                let mut child = node.clone();
                if step(&mut child, a) == Ok(true) && seen.insert(child.fingerprint()) {
                    let mut p = path.clone();
                    p.push(a);
                    stack.push((child, p));
                }
            }
        }
        panic!("the search ran dry after {checked} states");
    }

    #[test]
    fn in_order_schedule_completes_cleanly() {
        // Alternate-until-quiescent delivery must finish the whole story:
        // handshake, join, upload, DATA_FIN both ways, subflow teardown.
        let cfg = CheckConfig { depth: 0, ..CheckConfig::default() };
        let Replayed::Ok(mut sut) = replay(&cfg, &[]) else {
            panic!("root replay failed");
        };
        for _ in 0..10_000 {
            let Some(&a) = sut.enabled().first() else { break };
            // Only deliveries and timers: budget actions would shrink
            // nothing here anyway, but keep the happy path pure.
            let a = match a {
                Action::Deliver(..) | Action::Timer(..) => a,
                _ => Action::Deliver(NetDir::C2s, 0),
            };
            assert_eq!(sut.apply(a), Ok(true), "{a} infeasible");
            sut.health_check().unwrap();
        }
        assert!(sut.enabled().is_empty(), "never quiesced");
        sut.quiescent_ok().unwrap();
        assert_eq!(sut.server_rx, sut.expected);
    }
}
