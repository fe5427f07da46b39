//! Drives: fixed-op-count loops that call one layer's public functions in
//! isolation, from outside. Each runs its op count `reps` times and reports
//! the median cost per op with its spread. They are the per-op prices the
//! ledger multiplies the traced repetition's exact op counts by.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;
use mpw_capture::{analyze, read_pcapng, PcapWriter};
use mpw_check::explore::{explore, CheckConfig};
use mpw_check::lint_engine::{self, Config as LintConfig, Workspace};
use mpw_experiments::{
    crosscheck, run_campaign, run_measurement, run_measurement_captured, Scale, Tolerances,
    SERVER_PORT,
};
use mpw_fleet::run_fleet;
use mpw_http::{parse_request, parse_response, HeaderReader, Request, ResponseHead};
use mpw_link::{att_lte, build_path, wifi_home, DayPeriod, LinkAgent, LinkConfig, NullSink};
use mpw_metrics::{DistSummary, FleetReport, FlowRecord};
use mpw_mptcp::{MptcpConfig, MptcpConnection, Scheduler, SchedulerState, SubflowView};
use mpw_sim::trace::TraceLevel;
use mpw_sim::{Agent, AgentId, Ctx, Event, Frame, SimDuration, SimRng, SimTime, Switch, World};
use mpw_tcp::buf::Assembler;
use mpw_tcp::wire::{
    self, tcp_flags, Addr, DssMapping, Endpoint, IpHeader, MptcpOption, SackBlocks, TcpOption,
    TcpSegment,
};
use mpw_tcp::{peek_ip_dst, CcConfig, NewReno, NoHooks, SeqNum, TcpConfig, TcpSocket};

use crate::pace::Pace;
use crate::stats::{percentile_sorted, Summary};
use crate::workloads::{campaign_flows, fleet_spec, splitmix, Flow};

/// How much work a drive does: `FULL` is the documented size (≥ 0.5 s per
/// repetition, 5 repetitions); `QUICK` is a fifth of the ops, 3 repetitions,
/// for the driver's time-boxed traced run.
#[derive(Clone, Copy, Debug)]
pub struct DriveSize {
    pub divisor: u64,
    pub reps: usize,
}

impl DriveSize {
    pub const FULL: DriveSize = DriveSize {
        divisor: 1,
        reps: 5,
    };
    pub const QUICK: DriveSize = DriveSize {
        divisor: 5,
        reps: 3,
    };
    /// For `--smoke`: enough to execute every drive once, not to time it.
    pub const SMOKE: DriveSize = DriveSize {
        divisor: 200,
        reps: 1,
    };

    fn ops(self, full: u64) -> u64 {
        (full / self.divisor).max(1)
    }
}

/// What a drive needs: how much work to do, and the stopwatch that reads
/// in seconds of the undisturbed host (see `pace.rs`).
pub struct Bench<'a> {
    pub size: DriveSize,
    pub pace: &'a mut Pace,
}

impl Bench<'_> {
    /// Run `body` `reps` times; it times what it wants charged and returns
    /// (ops done, kernel units). The result is nanoseconds per op.
    fn per_op(&mut self, reps: usize, mut body: impl FnMut(&mut Pace) -> (u64, f64)) -> Summary {
        let units: Vec<f64> = (0..reps)
            .map(|_| {
                let (ops, units) = body(self.pace);
                units / ops.max(1) as f64
            })
            .collect();
        let samples: Vec<f64> = units.iter().map(|&u| self.pace.seconds(u) * 1e9).collect();
        Summary::of(&samples)
    }

    /// As [`Bench::per_op`] for bodies that are timed as a whole.
    fn per_op_whole(&mut self, mut body: impl FnMut() -> u64) -> Summary {
        self.per_op(self.size.reps, |pace| {
            let (ops, lap) = pace.time(&mut body);
            (ops, lap.units())
        })
    }

    /// Repetitions for drives whose one run is seconds long: they scale
    /// the repetition count, not the op count.
    fn long_reps(&self) -> usize {
        if self.size.divisor > 1 {
            1
        } else {
            3
        }
    }
}

macro_rules! agent_any {
    () => {
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    };
}

// ---------------------------------------------------------------- sim

/// Two agents bouncing an empty frame: pure dispatch.
struct PingPong {
    peer: AgentId,
    remaining: u64,
}

impl Agent for PingPong {
    fn handle(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
        if matches!(ev, Event::Start) || self.remaining == 0 {
            return;
        }
        self.remaining -= 1;
        ctx.send_frame(
            self.peer,
            0,
            SimDuration::from_micros(10),
            Frame::new(Bytes::new()),
        );
    }
    agent_any!();
}

/// Holds one far timer, so the heap stays deep under the ping-pong.
struct Sleeper;

impl Agent for Sleeper {
    fn handle(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
        if matches!(ev, Event::Start) {
            ctx.arm_timer(SimDuration::from_secs(86_400), 0);
        }
    }
    agent_any!();
}

fn ping_pong(events: u64, sleepers: u32) -> u64 {
    let mut w = World::new(1, TraceLevel::Off);
    for _ in 0..sleepers {
        w.add_agent(Box::new(Sleeper));
    }
    let a = w.add_agent(Box::new(PingPong {
        peer: 0,
        remaining: events / 2,
    }));
    let b = w.add_agent(Box::new(PingPong {
        peer: a,
        remaining: events / 2,
    }));
    w.agent_mut::<PingPong>(a).expect("just added").peer = b;
    w.schedule(SimTime::ZERO, b, Event::Timer { token: 0 });
    // Stops before the sleepers' day-long timers fire.
    w.run_until(SimTime::from_secs(3_600));
    let done = w.events_processed() - u64::from(sleepers);
    assert!(done >= events, "ping-pong stopped early");
    done
}

pub fn sim_dispatch(b: &mut Bench) -> Summary {
    let events = b.size.ops(10_000_000);
    b.per_op_whole(|| ping_pong(events, 0))
}

pub fn sim_deep_heap(b: &mut Bench) -> Summary {
    let events = b.size.ops(4_000_000);
    // World construction (20 k agents, 20 k heap pushes) is not charged.
    b.per_op(b.size.reps, |pace| {
        let (setup, setup_lap) = pace.time(|| ping_pong(2, 20_000));
        let (done, lap) = pace.time(|| ping_pong(events, 20_000));
        (done - setup, lap.units() - setup_lap.units())
    })
}

/// Per-ACK RTO management in miniature: each firing arms a fan of timers,
/// cancels all but one and pulls the survivor in.
struct TimerChurn {
    remaining: u64,
}

const TIMER_OPS_PER_ROUND: u64 = 8 + 7 + 1 + 1; // armed, cancelled, rescheduled, fired

impl Agent for TimerChurn {
    fn handle(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
        if !matches!(ev, Event::Timer { .. }) || self.remaining == 0 {
            return;
        }
        self.remaining -= 1;
        let keep = ctx.arm_timer(SimDuration::from_millis(200), 0);
        for i in 1..8u64 {
            let h = ctx.arm_timer(SimDuration::from_millis(200), i);
            ctx.cancel_timer(h);
        }
        ctx.reschedule_timer(keep, SimDuration::from_micros(50));
    }
    agent_any!();
}

pub fn sim_timer(b: &mut Bench) -> Summary {
    let rounds = b.size.ops(1_500_000);
    b.per_op_whole(|| {
        let mut w = World::new(1, TraceLevel::Off);
        let a = w.add_agent(Box::new(TimerChurn { remaining: rounds }));
        w.schedule(SimTime::ZERO, a, Event::Timer { token: 0 });
        w.run_until_idle();
        assert!(w.events_processed() >= rounds);
        rounds * TIMER_OPS_PER_ROUND
    })
}

/// Sends its frames round-robin to one destination, one per `gap`.
struct Pump {
    dst: AgentId,
    frames: Vec<Frame>,
    next: usize,
    remaining: u64,
    gap: SimDuration,
}

impl Agent for Pump {
    fn handle(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
        if !matches!(ev, Event::Timer { .. }) || self.remaining == 0 {
            return;
        }
        self.remaining -= 1;
        let frame = self.frames[self.next].clone();
        self.next = (self.next + 1) % self.frames.len();
        ctx.send_frame(self.dst, 0, SimDuration::ZERO, frame);
        ctx.set_timer(self.gap, 0);
    }
    agent_any!();
}

fn ip(src: Addr, dst: Addr) -> IpHeader {
    IpHeader {
        src,
        dst,
        protocol: wire::PROTO_TCP,
        ttl: 64,
    }
}

const CLIENT: Addr = Addr::new(10, 0, 1, 2);
const SERVER: Addr = Addr::new(192, 168, 1, 1);

/// A 1400-byte data segment carrying a DSS mapping and data-ack (1464 bytes
/// on the wire): the frame a bulk download is made of.
fn data_segment() -> TcpSegment {
    let mut seg = TcpSegment::bare(8080, 40_000, SeqNum(12_345), SeqNum(999), tcp_flags::ACK);
    seg.window = 5_000;
    seg.payload = Bytes::from(vec![0x5a; 1400]);
    seg.options = [TcpOption::Mptcp(MptcpOption::Dss {
        data_ack: Some(1 << 33),
        mapping: Some(DssMapping {
            dseq: 1 << 32,
            subflow_seq: SeqNum(12_345),
            len: 1400,
        }),
        data_fin: false,
    })]
    .into();
    seg
}

/// The smallest packet of a download, where per-packet cost dominates: a
/// pure ACK with one SACK block and a DSS data-ack.
fn ack_segment() -> TcpSegment {
    let mut seg = TcpSegment::bare(40_000, 8080, SeqNum(999), SeqNum(23_456), tcp_flags::ACK);
    seg.window = 60_000;
    let mut sack = SackBlocks::new();
    sack.push(SeqNum(30_000), SeqNum(31_400));
    seg.options = [
        TcpOption::Sack(sack),
        TcpOption::Mptcp(MptcpOption::Dss {
            data_ack: Some(1 << 33),
            mapping: None,
            data_fin: false,
        }),
    ]
    .into();
    seg
}

fn classify_dst(frame: &Frame) -> Option<u64> {
    peek_ip_dst(&frame.bytes).map(|a| u64::from(a.0))
}

pub fn sim_switch(b: &mut Bench) -> Summary {
    const PORTS: u32 = 2_000;
    let frames_n = b.size.ops(3_000_000);
    let addr = |i: u32| Addr::new(10, 0, (i >> 8) as u8, (i & 0xff) as u8);
    let frames: Vec<Frame> = (0..PORTS)
        .map(|i| Frame::new(wire::encode_packet(&ip(SERVER, addr(i)), &ack_segment())))
        .collect();
    b.per_op(b.size.reps, |pace| {
        let mut w = World::new(1, TraceLevel::Off);
        let sink = w.add_agent(Box::new(NullSink::default()));
        let mut sw = Switch::new(classify_dst);
        for i in 0..PORTS {
            sw.add_route(u64::from(addr(i).0), (sink, 0));
        }
        let sw = w.add_agent(Box::new(sw));
        let pump = w.add_agent(Box::new(Pump {
            dst: sw,
            frames: frames.clone(),
            next: 0,
            remaining: frames_n,
            gap: SimDuration::from_micros(1),
        }));
        w.schedule(SimTime::ZERO, pump, Event::Timer { token: 0 });
        let (_, lap) = pace.time(|| w.run_until_idle());
        let switch = w.agent::<Switch>(sw).expect("switch");
        assert_eq!((switch.forwarded, switch.unrouted), (frames_n, 0));
        (frames_n, lap.units())
    })
}

// --------------------------------------------------------------- link

/// Cost of one frame through a link, and how many engine events that frame
/// took in the drive (the ledger charges those to the engine, not the link).
pub struct LinkForward {
    pub ns_per_frame: Summary,
    pub events_per_frame: f64,
}

/// Pump → `LinkAgent` → `NullSink`, full data frames paced at 5 Mbit/s
/// (below every level of both presets' rate processes, so the queue never
/// overflows and every frame pays the full forward path).
fn link_forward(b: &mut Bench, cfg: &LinkConfig) -> LinkForward {
    let frames_n = b.size.ops(600_000);
    let mut events_per_frame = 0.0;
    let frame = Frame::new(wire::encode_packet(&ip(SERVER, CLIENT), &data_segment()));
    let ns_per_frame = b.per_op(b.size.reps, |pace| {
        let mut w = World::new(1, TraceLevel::Off);
        let sink = w.add_agent(Box::new(NullSink::default()));
        let link = LinkAgent::new(cfg.clone(), w.rng().stream("drive.link"), (sink, 0));
        let link = w.add_agent(Box::new(link));
        let pump = w.add_agent(Box::new(Pump {
            dst: link,
            frames: vec![frame.clone()],
            next: 0,
            remaining: frames_n,
            gap: SimDuration::from_nanos(frame.wire_len() as u64 * 8 * 1_000_000_000 / 5_000_000),
        }));
        w.schedule(SimTime::ZERO, pump, Event::Timer { token: 0 });
        let (_, lap) = pace.time(|| w.run_until_idle());
        let stats = w.agent::<LinkAgent>(link).expect("link").stats();
        assert_eq!(stats.dropped_overflow, 0, "paced below the link rate");
        assert_eq!(stats.enqueued, frames_n);
        events_per_frame = w.events_processed() as f64 / frames_n as f64;
        (frames_n, lap.units())
    });
    LinkForward {
        ns_per_frame,
        events_per_frame,
    }
}

pub fn link_wifi_forward(b: &mut Bench) -> LinkForward {
    link_forward(b, &wifi_home(DayPeriod::Night.wifi_load()).down)
}

pub fn link_lte_forward(b: &mut Bench) -> LinkForward {
    link_forward(b, &att_lte().down)
}

/// Host microseconds per simulated second of one evening home-WiFi path
/// carrying nothing but its own on/off background sources: the floor every
/// measurement pays while its flow is in flight.
pub fn link_background(b: &mut Bench) -> Summary {
    let sim_secs = b.size.ops(4_000);
    let ns = b.per_op(b.size.reps, |pace| {
        let mut w = World::new(1, TraceLevel::Off);
        let client = w.add_agent(Box::new(NullSink::default()));
        let server = w.add_agent(Box::new(NullSink::default()));
        let path = build_path(
            &mut w,
            &wifi_home(DayPeriod::Evening.wifi_load()),
            (client, 0),
            (server, 0),
            "drive.bg",
        );
        let (_, lap) = pace.time(|| w.run_until(SimTime::from_secs(sim_secs)));
        assert!(w.agent::<NullSink>(path.bg_sink).expect("sink").frames > 0);
        (sim_secs, lap.units())
    });
    ns.scaled(1e-3)
}

// ---------------------------------------------------------------- tcp

pub fn tcp_wire(b: &mut Bench) -> [Summary; 4] {
    let n = b.size.ops(2_000_000);
    let mut bench = |header: &IpHeader, seg: &TcpSegment| {
        let bytes = wire::encode_packet(header, seg);
        let encode = b.per_op_whole(|| {
            for _ in 0..n {
                black_box(wire::encode_packet(black_box(header), black_box(seg)));
            }
            n
        });
        let parse = b.per_op_whole(|| {
            for _ in 0..n {
                black_box(wire::parse_packet(black_box(&bytes)).expect("valid packet"));
            }
            n
        });
        (encode, parse)
    };
    let (enc, parse) = bench(&ip(SERVER, CLIENT), &data_segment());
    let (enc_ack, parse_ack) = bench(&ip(CLIENT, SERVER), &ack_segment());
    [enc, parse, enc_ack, parse_ack]
}

/// A segment between the two shuttled endpoints.
struct Wire {
    src: Endpoint,
    dst: Endpoint,
    seg: TcpSegment,
}

/// One end of a shuttled transfer: a `TcpSocket` or an `MptcpConnection`
/// driven sans-IO, the way `mpw_tcp::testkit::SocketPair` and the model
/// checker's `Sut` drive them, without the codec or the event engine.
trait Peer: Sized {
    fn connect() -> Self;
    /// Passive open from the first SYN; `None` rejects it.
    fn accept(syn: &Wire, now: SimTime) -> Option<Self>;
    fn poll(&mut self, now: SimTime) -> Option<Wire>;
    fn deliver(&mut self, w: &Wire, now: SimTime);
    fn next_timeout(&self) -> Option<SimTime>;
    fn on_timer(&mut self, now: SimTime);
    fn send(&mut self, data: Bytes) -> usize;
    /// Drain in-order bytes to the application; returns how many.
    fn drain(&mut self) -> u64;
}

/// Move `total` bytes server → client. Delay is 10 ms one way, 25 ms for
/// segments to or from the client's second address (so two subflows
/// reorder against each other). `drop_every` > 0 drops every n-th data
/// segment on its way to the client. Returns the data segments offered.
fn shuttle<P: Peer>(total: u64, drop_every: u64) -> u64 {
    let chunk = Bytes::from(vec![0xa5u8; 64 << 10]);
    let mut now = SimTime::ZERO;
    let mut client = P::connect();
    let mut server: Option<P> = None;
    // In flight: (arrival, send order) → (to the client?, segment).
    let mut in_flight: BTreeMap<(SimTime, u64), (bool, Wire)> = BTreeMap::new();
    let (mut seq, mut data_segs, mut written, mut received) = (0u64, 0u64, 0u64, 0u64);
    loop {
        // Flush: application writes, owed segments, in-order deliveries.
        loop {
            let mut progressed = false;
            if let Some(s) = server.as_mut() {
                while written < total {
                    let want = (total - written).min(chunk.len() as u64) as usize;
                    let took = s.send(chunk.slice(..want));
                    written += took as u64;
                    if took < want {
                        break;
                    }
                }
            }
            for to_client in [false, true] {
                let peer = if to_client {
                    server.as_mut()
                } else {
                    Some(&mut client)
                };
                let Some(peer) = peer else { continue };
                while let Some(wire) = peer.poll(now) {
                    progressed = true;
                    if to_client && !wire.seg.payload.is_empty() {
                        data_segs += 1;
                        if drop_every > 0 && data_segs.is_multiple_of(drop_every) {
                            continue;
                        }
                    }
                    let second_path = wire.src.addr == CLIENT_2 || wire.dst.addr == CLIENT_2;
                    let delay = SimDuration::from_millis(if second_path { 25 } else { 10 });
                    in_flight.insert((now + delay, seq), (to_client, wire));
                    seq += 1;
                }
            }
            let got = client.drain();
            received += got;
            progressed |= got > 0;
            if !progressed {
                break;
            }
        }
        if received >= total {
            return data_segs;
        }
        let timers = [
            client.next_timeout(),
            server.as_ref().and_then(Peer::next_timeout),
        ];
        let next = timers
            .into_iter()
            .flatten()
            .chain(in_flight.keys().next().map(|&(at, _)| at))
            .min()
            .expect("transfer stalled with nothing pending");
        now = now.max(next);
        while in_flight.keys().next().is_some_and(|&(at, _)| at <= now) {
            let (_, (to_client, wire)) = in_flight.pop_first().expect("peeked");
            if to_client {
                client.deliver(&wire, now);
            } else if let Some(s) = server.as_mut() {
                s.deliver(&wire, now);
            } else {
                server = P::accept(&wire, now);
            }
        }
        if client.next_timeout().is_some_and(|t| t <= now) {
            client.on_timer(now);
        }
        if let Some(s) = server.as_mut() {
            if s.next_timeout().is_some_and(|t| t <= now) {
                s.on_timer(now);
            }
        }
    }
}

const CLIENT_2: Addr = Addr::new(10, 0, 2, 2);
const CLIENT_EP: Endpoint = Endpoint::new(CLIENT, 40_000);
const SERVER_EP: Endpoint = Endpoint::new(SERVER, 8080);

fn quiet_tcp() -> TcpConfig {
    TcpConfig {
        record_rtt_samples: false,
        ..TcpConfig::default()
    }
}

impl Peer for TcpSocket {
    fn connect() -> Self {
        let cc = Box::new(NewReno::new(CcConfig::default()));
        TcpSocket::connect(
            quiet_tcp(),
            cc,
            Box::new(NoHooks),
            CLIENT_EP,
            SERVER_EP,
            0,
            SeqNum(1_000),
            SimTime::ZERO,
        )
    }
    fn accept(syn: &Wire, now: SimTime) -> Option<Self> {
        let cc = Box::new(NewReno::new(CcConfig::default()));
        Some(TcpSocket::accept(
            quiet_tcp(),
            cc,
            Box::new(NoHooks),
            SERVER_EP,
            CLIENT_EP,
            0,
            SeqNum(7_000),
            &syn.seg,
            now,
        ))
    }
    fn poll(&mut self, now: SimTime) -> Option<Wire> {
        let seg = self.poll_transmit(now)?;
        Some(Wire {
            src: self.local(),
            dst: self.remote(),
            seg,
        })
    }
    fn deliver(&mut self, w: &Wire, now: SimTime) {
        self.on_segment(&w.seg, now);
    }
    fn next_timeout(&self) -> Option<SimTime> {
        TcpSocket::next_timeout(self)
    }
    fn on_timer(&mut self, now: SimTime) {
        TcpSocket::on_timer(self, now);
    }
    fn send(&mut self, data: Bytes) -> usize {
        TcpSocket::send(self, data)
    }
    fn drain(&mut self) -> u64 {
        let mut n = 0;
        while let Some((_, d)) = self.recv() {
            n += d.len() as u64;
        }
        n
    }
}

fn quiet_mptcp() -> MptcpConfig {
    MptcpConfig {
        tcp: quiet_tcp(),
        max_subflows: 2,
        record_ofo_samples: false,
        ..MptcpConfig::default()
    }
}

impl Peer for MptcpConnection {
    fn connect() -> Self {
        MptcpConnection::connect(
            quiet_mptcp(),
            1,
            vec![CLIENT, CLIENT_2],
            SERVER_EP,
            SimRng::seeded(0xC0FFEE),
            SimTime::ZERO,
        )
    }
    fn accept(syn: &Wire, now: SimTime) -> Option<Self> {
        let mut conn = MptcpConnection::accept(
            quiet_mptcp(),
            1,
            syn.dst,
            syn.src,
            vec![SERVER],
            &syn.seg,
            SimRng::seeded(0xBEEF),
            now,
        )?;
        conn.post_event(now);
        Some(conn)
    }
    fn poll(&mut self, now: SimTime) -> Option<Wire> {
        let (idx, seg) = self.poll_transmit(now)?;
        let sf = &self.subflows[idx];
        Some(Wire {
            src: sf.local,
            dst: sf.remote,
            seg,
        })
    }
    fn deliver(&mut self, w: &Wire, now: SimTime) {
        let idx = self
            .subflows
            .iter()
            .position(|sf| sf.local == w.dst && sf.remote == w.src);
        match idx {
            Some(idx) => self.on_segment(idx, &w.seg, now),
            // A SYN on an unknown four-tuple is an MP_JOIN for this connection.
            None if w.seg.has(tcp_flags::SYN) && !w.seg.has(tcp_flags::ACK) => {
                self.accept_join(w.dst, w.src, &w.seg, now);
                self.post_event(now);
            }
            None => {}
        }
    }
    fn next_timeout(&self) -> Option<SimTime> {
        MptcpConnection::next_timeout(self)
    }
    fn on_timer(&mut self, now: SimTime) {
        MptcpConnection::on_timer(self, now);
    }
    fn send(&mut self, data: Bytes) -> usize {
        MptcpConnection::send(self, data)
    }
    fn drain(&mut self) -> u64 {
        let mut n = 0;
        while let Some(d) = self.recv() {
            n += d.len() as u64;
        }
        n
    }
}

const SHUTTLE_BYTES: u64 = 256 << 20;

pub fn tcp_socket(b: &mut Bench) -> Summary {
    let total = b.size.ops(SHUTTLE_BYTES);
    b.per_op_whole(|| shuttle::<TcpSocket>(total, 0))
}

pub fn tcp_socket_lossy(b: &mut Bench) -> Summary {
    let total = b.size.ops(SHUTTLE_BYTES / 4);
    b.per_op_whole(|| shuttle::<TcpSocket>(total, 100))
}

pub fn mptcp_conn(b: &mut Bench) -> Summary {
    let total = b.size.ops(SHUTTLE_BYTES);
    b.per_op_whole(|| shuttle::<MptcpConnection>(total, 0))
}

pub fn tcp_assembler(b: &mut Bench) -> [Summary; 2] {
    let segs = b.size.ops(3_000_000);
    let payload = Bytes::from(vec![0u8; 1400]);
    let inorder = b.per_op_whole(|| {
        let mut a = Assembler::new(0, true);
        let mut t = SimTime::ZERO;
        for i in 0..segs {
            t += SimDuration::from_micros(100);
            a.insert(i * 1400, payload.clone(), t);
            while let Some(chunk) = a.pop_ready() {
                black_box(chunk);
            }
        }
        assert_eq!(a.next_expected(), segs * 1400);
        segs
    });
    // Two sources, one lagging 500 segments behind: the fast one's blocks
    // wait out of order until the slow one fills the head.
    let interleaved = b.per_op_whole(|| {
        let mut a = Assembler::new(0, true);
        let mut t = SimTime::ZERO;
        const LAG: u64 = 500;
        for block in 0..segs / (2 * LAG) {
            let base = block * 2 * LAG * 1400;
            for i in 0..LAG {
                t += SimDuration::from_micros(100);
                a.insert(base + (LAG + i) * 1400, payload.clone(), t);
                a.insert(base + i * 1400, payload.clone(), t);
                while let Some(chunk) = a.pop_ready() {
                    black_box(chunk);
                }
            }
        }
        let done = segs / (2 * LAG) * 2 * LAG;
        assert_eq!(a.next_expected(), done * 1400);
        done
    });
    [inorder, interleaved]
}

// -------------------------------------------------------------- mptcp

pub fn mptcp_scheduler_pick(b: &mut Bench) -> Summary {
    let picks = b.size.ops(40_000_000);
    let view = |index: usize| SubflowView {
        index,
        established: true,
        srtt: Some(SimDuration::from_millis(20 + 7 * index as u64)),
        cwnd_space: if index == 0 { 0 } else { 64 << 10 },
        buffer_space: 1 << 20,
        backup: index == 7,
        stalled: false,
    };
    let two: Vec<SubflowView> = (0..2).map(view).collect();
    let eight: Vec<SubflowView> = (0..8).map(view).collect();
    b.per_op_whole(|| {
        let mut s = SchedulerState::default();
        for _ in 0..picks / 2 {
            black_box(s.pick(Scheduler::MinRtt, black_box(&two), 1400));
            black_box(s.pick(Scheduler::MinRtt, black_box(&eight), 1400));
        }
        picks
    })
}

// --------------------------------------------------------------- http

pub fn http_head_roundtrip(b: &mut Bench) -> Summary {
    let n = b.size.ops(500_000);
    b.per_op_whole(|| {
        for i in 0..n {
            let req = Request {
                path: "/object".into(),
                size: 4096 + i,
                request_id: None,
            };
            let mut reader = HeaderReader::new();
            let (text, _) = reader
                .push(&req.encode())
                .expect("well formed")
                .expect("complete");
            let parsed = parse_request(&text).expect("request parses");
            let head = ResponseHead {
                status: 200,
                content_length: parsed.size,
                request_id: None,
            };
            let mut reader = HeaderReader::new();
            let (text, _) = reader
                .push(&head.encode())
                .expect("well formed")
                .expect("complete");
            assert_eq!(
                parse_response(&text)
                    .expect("response parses")
                    .content_length,
                4096 + i
            );
        }
        n
    })
}

// ------------------------------------------------------------ metrics

pub fn metrics_dist_push(b: &mut Bench) -> Summary {
    let n = b.size.ops(20_000_000);
    b.per_op_whole(|| {
        let mut d = DistSummary::new();
        let mut state = 1u64;
        for _ in 0..n {
            // RTT-like samples, 10–138 ms.
            d.push(10.0 + (splitmix(&mut state) >> 57) as f64);
        }
        assert_eq!(d.count(), n);
        n
    })
}

/// Fold synthetic flow records into 16 shard reports and merge them;
/// microseconds per thousand flows.
pub fn metrics_fleet_merge(b: &mut Bench) -> Summary {
    let flows = b.size.ops(1_000_000);
    let mut state = 7u64;
    let records: Vec<FlowRecord> = (0..flows)
        .map(|i| {
            let fct_us = 50_000 + splitmix(&mut state) % 5_000_000;
            let bytes = 128 << 10;
            FlowRecord {
                client: i as u32,
                class: ["wifi", "lte", "mp2"][(i % 3) as usize].to_string(),
                started_ms: i * 15,
                completed: true,
                fct_us,
                bytes,
                wifi_bytes: bytes / 2,
                cell_bytes: bytes - bytes / 2,
                rate_kbps: bytes * 8_000 / fct_us,
                late_blocks: 0,
            }
        })
        .collect();
    b.per_op_whole(|| {
        let mut merged = FleetReport::new(250);
        for shard in records.chunks(records.len().div_ceil(16)) {
            merged.merge(&FleetReport::from_records(250, shard.len() as u64, shard));
        }
        assert_eq!(merged.flows_completed, flows);
        flows.div_ceil(1000)
    })
    .scaled(1e-3)
}

// ------------------------------------------------------------ capture

/// Times (kernel units) and sizes of flows through the capture pipeline.
#[derive(Clone, Copy, Debug, Default)]
pub struct CaptureStages {
    pub captured: f64,
    pub plain: f64,
    pub read: f64,
    pub analyze: f64,
    pub crosscheck: f64,
    pub flows: u64,
    pub frames: u64,
    pub pcap_bytes: u64,
    pub payload_bytes: u64,
}

/// One flow through capture → read-back → analyze → cross-check, plus the
/// same flow without taps.
pub fn capture_pipeline(b: &mut Bench, flow: &Flow) -> CaptureStages {
    let pace = &mut *b.pace;
    let ((m, pcap), captured) = pace.time(|| run_measurement_captured(&flow.scenario, flow.seed));
    let (_, plain) = pace.time(|| black_box(run_measurement(&flow.scenario, flow.seed)));
    let (file, read) = pace.time(|| read_pcapng(&pcap).expect("own capture reads back"));
    let (wa, analyzed) = pace.time(|| analyze(&file, SERVER_PORT));
    let (_, checked) = pace.time(|| black_box(crosscheck(&m, &wa, &Tolerances::default())));
    CaptureStages {
        captured: captured.units(),
        plain: plain.units(),
        read: read.units(),
        analyze: analyzed.units(),
        crosscheck: checked.units(),
        flows: 1,
        frames: file.packets.len() as u64,
        pcap_bytes: pcap.len() as u64,
        payload_bytes: m.bytes,
    }
}

/// Re-serialise a read-back capture through `PcapWriter`; MB/s (10⁶ B).
pub fn capture_write(b: &mut Bench, pcap: &[u8]) -> Summary {
    let file = read_pcapng(pcap).expect("own capture reads back");
    let rounds = b.size.ops(10);
    let mut bytes = 0u64;
    let ns_per_round = b.per_op_whole(|| {
        bytes = 0;
        for _ in 0..rounds {
            let mut w = PcapWriter::new();
            for i in &file.interfaces {
                w.add_interface(&i.name);
            }
            for p in &file.packets {
                w.packet(p.iface, p.at, &p.data, p.comment.as_deref());
            }
            bytes += black_box(w.into_bytes()).len() as u64;
        }
        rounds
    });
    // bytes per round ÷ ns per round, in MB/s; the slowest round is the
    // lowest rate, so min and max swap.
    let mb_per_round = bytes as f64 / rounds as f64 / 1e6;
    ns_per_round.inverted(mb_per_round * 1e9)
}

// ----------------------------------------------------------- scenario

/// A WiFi-fade-into-LTE handover script, the shape `mpw-scenario` documents.
const HANDOVER_TOML: &str = r#"
name = "wifi-fade"
description = "walk out of AP range at t=3s"

[[events]]
at_ms = 3000
path = 0
label = "fade"

[events.action.WifiFade]
from_bps = 20000000
floor_bps = 500000
over_ms = 1000
steps = 4

[[events]]
at_ms = 9000
path = 0
label = "recover"
action = "LinkUp"

[[events]]
at_ms = 9000
path = 0
action = { SetBackup = { backup = false } }
"#;

pub fn scenario_parse_compile(b: &mut Bench) -> Summary {
    let n = b.size.ops(40_000);
    b.per_op_whole(|| {
        for _ in 0..n {
            let s = mpw_scenario::from_toml(black_box(HANDOVER_TOML)).expect("script parses");
            black_box(mpw_scenario::compile(&s).expect("script compiles"));
        }
        n
    })
    .scaled(1e-3)
}

// -------------------------------------------------------------- fleet

pub struct FleetDrive {
    pub ns_per_event_n100: Summary,
    pub ns_per_event_n2000: Summary,
    pub report_json_ms: Summary,
}

/// `run_fleet` wall ÷ events: twenty N=100 fleets against one N=2000 fleet —
/// the same 2000 flows of the same per-flow work, in shallow worlds and in
/// one deep one. The N=2000 report then feeds the JSON drive.
pub fn fleet_scale(b: &mut Bench, seed: u64) -> FleetDrive {
    let mut state = seed ^ 0x0073_6361_6c65; // "scale"
                                             // Only the smoke size shrinks the worlds; the names say N=100 and N=2000.
    let shrink = if b.size.divisor > DriveSize::QUICK.divisor {
        20
    } else {
        1
    };
    let small: Vec<_> = (0..20)
        .map(|_| fleet_spec(splitmix(&mut state), 100 / shrink))
        .collect();
    let big = fleet_spec(splitmix(&mut state), 2000 / shrink);
    let reps = b.long_reps();
    let ns_per_event_n100 = b.per_op(reps, |pace| {
        let (events, lap) = pace.time(|| {
            small
                .iter()
                .map(|spec| run_fleet(spec).world.events_processed())
                .sum()
        });
        (events, lap.units())
    });
    let mut report = None;
    let ns_per_event_n2000 = b.per_op(reps, |pace| {
        let (run, lap) = pace.time(|| run_fleet(&big));
        let events = run.world.events_processed();
        report = Some(run.report);
        (events, lap.units())
    });
    let report = report.expect("at least one repetition");
    let rounds = b.size.ops(200);
    let report_json_ms = b
        .per_op_whole(|| {
            for _ in 0..rounds {
                black_box(mpw_metrics::to_json(black_box(&report)));
            }
            rounds
        })
        .scaled(1e-6);
    FleetDrive {
        ns_per_event_n100,
        ns_per_event_n2000,
        report_json_ms,
    }
}

// -------------------------------------------------------- experiments

/// (p50, p99) of per-call times given in nanoseconds, as microseconds.
pub fn measurement_percentiles(call_ns: &[f64]) -> (f64, f64) {
    let mut us: Vec<f64> = call_ns.iter().map(|&ns| ns / 1e3).collect();
    us.sort_by(|a, b| a.total_cmp(b));
    (percentile_sorted(&us, 0.5), percentile_sorted(&us, 0.99))
}

/// Every `run_measurement` call over `flows`, each timed (raw wall
/// nanoseconds: a call is far shorter than a calibration block).
pub fn measurement_call_ns(flows: &[Flow]) -> Vec<f64> {
    flows
        .iter()
        .map(|f| {
            let t0 = Instant::now();
            black_box(run_measurement(&f.scenario, f.seed));
            t0.elapsed().as_nanos() as f64
        })
        .collect()
}

/// `run_campaign` on a 600-job slice: time with one worker ÷ time with two.
/// Information only — every timed workload runs on one worker.
pub fn pool_speedup(b: &mut Bench, seed: u64) -> Summary {
    let base: Vec<_> = campaign_flows(seed, 1)
        .into_iter()
        .filter(|f| f.scenario.period == DayPeriod::Night)
        .map(|f| f.scenario)
        .collect();
    let scale = Scale {
        runs_per_period: 5,
        all_periods: true,
    };
    let pace = &mut *b.pace;
    let samples: Vec<f64> = (0..b.size.reps)
        .map(|_| {
            let mut units = |workers| {
                let (ms, lap) = pace.time(|| run_campaign(&base, scale, seed, workers));
                assert_eq!(ms.len(), 600);
                lap.units()
            };
            units(1) / units(2)
        })
        .collect();
    Summary::of(&samples)
}

// -------------------------------------------------------------- check

/// `lint_engine::Workspace::load` + `run` over `crates/`; seconds.
pub fn check_lint_wall(b: &mut Bench, root: &std::path::Path) -> Summary {
    b.per_op(b.long_reps(), |pace| {
        let (_, lap) = pace.time(|| {
            let ws = Workspace::load(root).expect("crates/ is readable");
            black_box(lint_engine::run(&ws, &LintConfig::default_workspace()).expect("lint runs"))
        });
        (1, lap.units())
    })
    .scaled(1e-9)
}

/// The model checker's default sweep (a fifth of its state budget in the
/// quick size); states per second.
pub fn check_explore(b: &mut Bench) -> Summary {
    let cfg = CheckConfig {
        max_states: (CheckConfig::default().max_states as u64 / b.size.divisor) as usize,
        ..CheckConfig::default()
    };
    let mut states = 0;
    let ns_per_sweep = b.per_op(b.long_reps(), |pace| {
        let (result, lap) = pace.time(|| explore(&cfg));
        assert!(
            result.violation.is_none(),
            "model checker found a violation"
        );
        states = result.states;
        (1, lap.units())
    });
    ns_per_sweep.inverted(states as f64 * 1e9)
}
