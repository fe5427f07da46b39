//! A miniature two-socket harness for protocol-level tests.
//!
//! [`SocketPair`] shuttles segments between a client and a server socket
//! over two ideal one-way channels with fixed delay, an optional drop
//! schedule, and no reordering. It is *not* the full simulator — it exists
//! so the TCP and MPTCP state machines can be unit-tested exhaustively and
//! deterministically without constructing a world. The real link models live
//! in `mpw-link`.

use std::collections::BinaryHeap;

use bytes::Bytes;
use mpw_sim::{SimDuration, SimTime};

use crate::cc::{Cc, CcConfig, NewReno};
use crate::hooks::NoHooks;
use crate::seq::SeqNum;
use crate::socket::{TcpConfig, TcpSocket};
use crate::wire::{Endpoint, TcpSegment};

/// Which endpoint a queued event belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// The active opener.
    Client,
    /// The passive opener.
    Server,
}

#[derive(Clone, Debug)]
struct InFlight {
    deliver_at: SimTime,
    seq: u64,
    to: Side,
    seg: TcpSegment,
}

impl PartialEq for InFlight {
    fn eq(&self, other: &Self) -> bool {
        (self.deliver_at, self.seq) == (other.deliver_at, other.seq)
    }
}
impl Eq for InFlight {}
impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse for min-heap behaviour inside BinaryHeap.
        (other.deliver_at, other.seq).cmp(&(self.deliver_at, self.seq))
    }
}

/// Deterministic two-socket test harness.
#[derive(Clone)]
pub struct SocketPair {
    /// The client socket.
    pub client: TcpSocket,
    /// The server socket (created on SYN arrival).
    pub server: Option<TcpSocket>,
    server_cfg: TcpConfig,
    server_cc: CcConfig,
    /// One-way delay in each direction.
    pub delay: SimDuration,
    now: SimTime,
    wire: BinaryHeap<InFlight>,
    seq: u64,
    /// Data-segment indices (client→server, server→client interleaved
    /// counter) to drop, matched against `segments_forwarded`.
    pub drop_schedule: Vec<u64>,
    /// Count of segments offered to the wire so far.
    pub segments_forwarded: u64,
    /// Segments actually dropped.
    pub segments_dropped: u64,
    /// Everything the server delivered in order.
    pub server_received: Vec<u8>,
    /// Everything the client delivered in order.
    pub client_received: Vec<u8>,
}

/// Default endpoints used by the harness.
pub fn test_endpoints() -> (Endpoint, Endpoint) {
    use crate::wire::Addr;
    (
        Endpoint::new(Addr::new(10, 0, 1, 2), 40_000),
        Endpoint::new(Addr::new(192, 168, 1, 1), 8080),
    )
}

impl SocketPair {
    /// New pair with the given one-way delay; the client SYN is already
    /// queued (poll with [`SocketPair::run_for`]).
    pub fn new(delay: SimDuration) -> Self {
        Self::with_configs(delay, TcpConfig::default(), TcpConfig::default())
    }

    /// New pair with distinct client/server configurations.
    pub fn with_configs(delay: SimDuration, client_cfg: TcpConfig, server_cfg: TcpConfig) -> Self {
        let cc = CcConfig {
            mss: client_cfg.mss,
            ..CcConfig::default()
        };
        Self::with_cc(delay, client_cfg, server_cfg, cc, cc)
    }

    /// New pair with explicit congestion-control parameters per side.
    pub fn with_cc(
        delay: SimDuration,
        client_cfg: TcpConfig,
        server_cfg: TcpConfig,
        client_cc: CcConfig,
        server_cc: CcConfig,
    ) -> Self {
        let (c_ep, s_ep) = test_endpoints();
        let cc = Cc::Own(NewReno::new(client_cc));
        let client = TcpSocket::connect(
            client_cfg,
            cc,
            Box::new(NoHooks),
            c_ep,
            s_ep,
            0,
            SeqNum(1_000),
            SimTime::ZERO,
        );
        SocketPair {
            client,
            server: None,
            server_cfg,
            server_cc,
            delay,
            now: SimTime::ZERO,
            wire: BinaryHeap::new(),
            seq: 0,
            drop_schedule: Vec::new(),
            segments_forwarded: 0,
            segments_dropped: 0,
            server_received: Vec::new(),
            client_received: Vec::new(),
        }
    }

    /// Current harness time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    fn put_wire(&mut self, to: Side, seg: TcpSegment) {
        let idx = self.segments_forwarded;
        self.segments_forwarded += 1;
        if self.drop_schedule.contains(&idx) {
            self.segments_dropped += 1;
            return;
        }
        self.wire.push(InFlight {
            deliver_at: self.now + self.delay,
            seq: self.seq,
            to,
            seg,
        });
        self.seq += 1;
    }

    fn flush(&mut self) {
        loop {
            let mut any = false;
            while let Some(seg) = self.client.poll_transmit(self.now) {
                self.put_wire(Side::Server, seg);
                any = true;
            }
            if let Some(mut server) = self.server.take() {
                while let Some(seg) = server.poll_transmit(self.now) {
                    self.put_wire(Side::Client, seg);
                    any = true;
                }
                self.server = Some(server);
            }
            if !any {
                break;
            }
        }
        // Drain in-order deliveries to the app layers.
        while let Some((_, d)) = self.client.recv() {
            self.client_received.extend_from_slice(&d);
        }
        if let Some(server) = &mut self.server {
            while let Some((_, d)) = server.recv() {
                self.server_received.extend_from_slice(&d);
            }
        }
    }

    fn next_event_time(&self) -> Option<SimTime> {
        let mut t = self.wire.peek().map(|f| f.deliver_at);
        let mut fold = |d: Option<SimTime>| {
            if let Some(d) = d {
                t = Some(t.map_or(d, |cur: SimTime| cur.min(d)));
            }
        };
        fold(self.client.next_timeout());
        if let Some(s) = &self.server {
            fold(s.next_timeout());
        }
        t
    }

    /// Advance the harness until `deadline` or until nothing is pending.
    #[expect(clippy::expect_used, reason = "test harness: pops the frame it just peeked")]
    pub fn run_until(&mut self, deadline: SimTime) {
        self.flush();
        while let Some(t) = self.next_event_time() {
            if t > deadline {
                break;
            }
            self.now = self.now.max(t);
            // Deliver due wire segments.
            while let Some(f) = self.wire.peek() {
                if f.deliver_at > self.now {
                    break;
                }
                let f = self.wire.pop().expect("peeked");
                match f.to {
                    Side::Client => self.client.on_segment(&f.seg, self.now),
                    Side::Server => match &mut self.server {
                        None => {
                            let (c_ep, s_ep) = test_endpoints();
                            let cc = Cc::Own(NewReno::new(self.server_cc));
                            self.server = Some(TcpSocket::accept(
                                self.server_cfg.clone(),
                                cc,
                                Box::new(NoHooks),
                                s_ep,
                                c_ep,
                                0,
                                SeqNum(7_000),
                                &f.seg,
                                self.now,
                            ));
                        }
                        Some(server) => server.on_segment(&f.seg, self.now),
                    },
                }
            }
            // Fire timers.
            if self.client.next_timeout().is_some_and(|d| d <= self.now) {
                self.client.on_timer(self.now);
            }
            if let Some(s) = &mut self.server {
                if s.next_timeout().is_some_and(|d| d <= self.now) {
                    s.on_timer(self.now);
                }
            }
            self.flush();
        }
    }

    /// Run for a span of harness time.
    pub fn run_for(&mut self, span: SimDuration) {
        let deadline = self.now + span;
        self.run_until(deadline);
        self.now = deadline;
    }

    /// Convenience: write `data` on the given side.
    #[expect(
        clippy::expect_used,
        reason = "test harness: deliberate abort on API misuse before accept"
    )]
    pub fn send(&mut self, side: Side, data: &[u8]) {
        let data = Bytes::copy_from_slice(data);
        match side {
            Side::Client => {
                assert_eq!(self.client.send(data.clone()), data.len());
            }
            Side::Server => {
                let s = self.server.as_mut().expect("server not yet created");
                assert_eq!(s.send(data.clone()), data.len());
            }
        }
    }
}
