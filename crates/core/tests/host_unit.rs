//! Host-agent behaviours in isolation: ping echo, RST generation for
//! unknown destinations, listener demux, wakeups and middlebox counters.

use mpw_link::NullSink;
use mpw_mptcp::host::OptionStrippingMiddlebox;
use mpw_mptcp::{App, Host, MptcpConfig, NullApp, OpenRequest, Transport, TransportSpec};
use mpw_sim::trace::TraceLevel;
use mpw_sim::{Agent, AgentId, Ctx, Event, Frame, SimDuration, SimTime, World};
use mpw_tcp::wire::{self, tcp_flags, PingPacket};
use mpw_tcp::{Addr, Endpoint, MptcpOption, SeqNum, TcpOption, TcpSegment};

const HOST_ADDR: Addr = Addr::new(192, 168, 1, 1);
const OTHER_ADDR: Addr = Addr::new(10, 0, 1, 2);

/// Queue a plain TCP open to `OTHER_ADDR:8080` on `host` at `at`.
fn open_at(w: &mut World, host: AgentId, at: SimTime, app: Box<dyn App>, warmup: bool) {
    let spec = TransportSpec::Plain { tcp: Default::default(), cc: Default::default(), if_index: 0 };
    let remote = Endpoint::new(OTHER_ADDR, 8080);
    let req = OpenRequest { at, spec, remote, app, warmup };
    w.agent_mut::<Host>(host).unwrap().queue_open(req);
    w.schedule(at, host, Event::Timer { token: Host::open_token() });
}

/// Captures every frame it receives, parsed.
#[derive(Default)]
struct Capture {
    packets: Vec<wire::Packet>,
}

impl Agent for Capture {
    fn handle(&mut self, ev: Event, _ctx: &mut Ctx<'_>) {
        if let Event::Frame { frame, .. } = ev {
            if let Ok(p) = wire::parse_any(&frame.bytes) {
                self.packets.push(p);
            }
        }
    }
}

fn world_with_host() -> (World, AgentId, AgentId) {
    let mut w = World::new(3, TraceLevel::Off);
    let cap = w.add_agent(Box::new(Capture::default()));
    let rng = w.rng().stream("host");
    let mut host = Host::new(vec![HOST_ADDR], 0, rng);
    host.set_iface_link(0, cap);
    let host = w.add_agent(Box::new(host));
    (w, host, cap)
}

fn tcp_frame(seg: &TcpSegment, src: Addr, dst: Addr) -> Frame {
    let ip = wire::IpHeader {
        src,
        dst,
        protocol: wire::PROTO_TCP,
        ttl: 64,
    };
    Frame::new(wire::encode_packet(&ip, seg))
}

#[test]
fn ping_requests_are_echoed() {
    let (mut w, host, cap) = world_with_host();
    let ip = wire::IpHeader {
        src: OTHER_ADDR,
        dst: HOST_ADDR,
        protocol: wire::PROTO_PING,
        ttl: 64,
    };
    let frame = Frame::new(wire::encode_ping(&ip, &PingPacket { token: 99, reply: false }));
    w.schedule(SimTime::ZERO, host, Event::Frame { port: 0, frame });
    w.run_until_idle();
    let cap = w.agent::<Capture>(cap).unwrap();
    assert_eq!(cap.packets.len(), 1);
    match &cap.packets[0] {
        wire::Packet::Ping(ip, p) => {
            assert!(p.reply);
            assert_eq!(p.token, 99);
            assert_eq!(ip.dst, OTHER_ADDR);
            assert_eq!(ip.src, HOST_ADDR);
        }
        other => panic!("expected ping reply, got {other:?}"),
    }
}

#[test]
fn segment_to_closed_port_draws_rst() {
    let (mut w, host, cap) = world_with_host();
    let seg = TcpSegment::bare(40_000, 9_999, SeqNum(5), SeqNum(0), tcp_flags::ACK);
    w.schedule(
        SimTime::ZERO,
        host,
        Event::Frame { port: 0, frame: tcp_frame(&seg, OTHER_ADDR, HOST_ADDR) },
    );
    w.run_until_idle();
    let hostref = w.agent::<Host>(host).unwrap();
    assert_eq!(hostref.no_socket_drops, 1);
    let cap = w.agent::<Capture>(cap).unwrap();
    match &cap.packets[0] {
        wire::Packet::Tcp(_, s) => assert!(s.has(tcp_flags::RST), "expected RST"),
        other => panic!("expected TCP RST, got {other:?}"),
    }
}

#[test]
fn unparsable_frames_are_counted_and_draw_nothing() {
    // A raw-frame sink on the host's only link: whatever the host emitted,
    // parsable or not, would count here.
    let mut w = World::new(3, TraceLevel::Off);
    let sink = w.add_agent(Box::new(NullSink::recording()));
    let mut host = Host::new(vec![HOST_ADDR], 0, w.rng().stream("host"));
    host.set_iface_link(0, sink);
    let host = w.add_agent(Box::new(host));

    let seg = TcpSegment::bare(40_000, 9_999, SeqNum(5), SeqNum(0), tcp_flags::ACK);
    let good = tcp_frame(&seg, OTHER_ADDR, HOST_ADDR).bytes;
    let truncated = good.slice(..good.len() - 3);
    let mut flipped = good.to_vec();
    *flipped.last_mut().unwrap() ^= 0x40; // inside the TCP checksum's cover
    for (n, bytes) in [(1, truncated), (2, flipped.into())] {
        assert!(wire::parse_any(&bytes).is_err());
        w.schedule(w.now(), host, Event::Frame { port: 0, frame: Frame::new(bytes) });
        w.run_until_idle();
        let h = w.agent::<Host>(host).unwrap();
        assert_eq!(h.unparsed_frames, n);
        assert_eq!(h.no_socket_drops, 0);
        assert!(h.is_quiescent());
        assert_eq!(w.agent::<NullSink>(sink).unwrap().frames, 0);
    }
}

#[test]
fn rst_to_closed_port_is_not_answered() {
    // No RST storms: an incoming RST to nowhere is silently dropped.
    let (mut w, host, cap) = world_with_host();
    let seg = TcpSegment::bare(40_000, 9_999, SeqNum(5), SeqNum(0), tcp_flags::RST);
    w.schedule(
        SimTime::ZERO,
        host,
        Event::Frame { port: 0, frame: tcp_frame(&seg, OTHER_ADDR, HOST_ADDR) },
    );
    w.run_until_idle();
    assert!(w.agent::<Capture>(cap).unwrap().packets.is_empty());
}

#[test]
fn listener_accepts_capable_syn_and_answers_synack() {
    let (mut w, host, cap) = world_with_host();
    {
        let h = w.agent_mut::<Host>(host).unwrap();
        h.listen(
            8080,
            MptcpConfig::default(),
            Box::new(|_| Box::new(mpw_mptcp::NullApp)),
        );
    }
    let mut syn = TcpSegment::bare(40_000, 8080, SeqNum(1), SeqNum(0), tcp_flags::SYN);
    syn.options = [
        TcpOption::Mss(1400),
        TcpOption::SackPermitted,
        TcpOption::Mptcp(MptcpOption::Capable { key_local: 77, key_remote: None }),
    ]
    .into();
    w.schedule(
        SimTime::ZERO,
        host,
        Event::Frame { port: 0, frame: tcp_frame(&syn, OTHER_ADDR, HOST_ADDR) },
    );
    w.run_until(SimTime::from_secs(1));
    let cap = w.agent::<Capture>(cap).unwrap();
    let synack = cap
        .packets
        .iter()
        .find_map(|p| match p {
            wire::Packet::Tcp(_, s) if s.has(tcp_flags::SYN) && s.has(tcp_flags::ACK) => Some(s),
            _ => None,
        })
        .expect("SYN-ACK");
    assert!(
        matches!(synack.mptcp(), Some(MptcpOption::Capable { .. })),
        "SYN-ACK must carry MP_CAPABLE"
    );
    let h = w.agent::<Host>(host).unwrap();
    assert_eq!(h.slot_count(), 1);
}

#[test]
fn plain_syn_is_accepted_as_plain_tcp() {
    let (mut w, host, cap) = world_with_host();
    {
        let h = w.agent_mut::<Host>(host).unwrap();
        h.listen(
            8080,
            MptcpConfig::default(),
            Box::new(|_| Box::new(mpw_mptcp::NullApp)),
        );
    }
    let mut syn = TcpSegment::bare(40_001, 8080, SeqNum(1), SeqNum(0), tcp_flags::SYN);
    syn.options = [TcpOption::Mss(1400), TcpOption::SackPermitted].into();
    w.schedule(
        SimTime::ZERO,
        host,
        Event::Frame { port: 0, frame: tcp_frame(&syn, OTHER_ADDR, HOST_ADDR) },
    );
    w.run_until(SimTime::from_secs(1));
    let cap = w.agent::<Capture>(cap).unwrap();
    let synack = cap
        .packets
        .iter()
        .find_map(|p| match p {
            wire::Packet::Tcp(_, s) if s.has(tcp_flags::SYN) && s.has(tcp_flags::ACK) => Some(s),
            _ => None,
        })
        .expect("SYN-ACK");
    assert!(synack.mptcp().is_none(), "plain TCP gets no MPTCP options");
}

#[test]
fn vanished_warmup_pings_open_on_the_two_second_deadline() {
    // The cellular egress swallows both pings, so only the warming open's
    // own deadline can let the SYN out on WiFi.
    let mut w = World::new(3, TraceLevel::Off);
    let wifi = w.add_agent(Box::new(NullSink::recording()));
    let cell = w.add_agent(Box::new(NullSink::recording()));
    let mut host = Host::new(vec![HOST_ADDR, Addr::new(10, 0, 2, 2)], 0, w.rng().stream("host"));
    host.set_iface_link(0, wifi);
    host.set_iface_link(1, cell);
    let host = w.add_agent(Box::new(host));
    let at = SimTime::from_millis(50);
    open_at(&mut w, host, at, Box::new(NullApp), true);
    // Past the deadline, before the SYN's 1 s retransmission.
    w.run_until(at + SimDuration::from_millis(2500));
    let syn_at = at + SimDuration::from_secs(2);
    assert_eq!(w.agent::<NullSink>(cell).unwrap().frames, 2, "both pings left");
    assert_eq!(w.agent::<NullSink>(wifi).unwrap().arrivals, vec![syn_at]);
    let h = w.agent::<Host>(host).unwrap();
    assert!(h.ping_rtts.is_empty());
    assert_eq!(h.transport(0).unwrap().opened_at(), syn_at);
}

/// Closes its side the moment the connection is up: a connection that
/// lives only to be torn down.
struct Closer(bool);

impl App for Closer {
    fn poll(&mut self, conn: &mut Transport, _now: SimTime) {
        if conn.is_established() && !std::mem::replace(&mut self.0, true) {
            conn.close();
        }
    }
}

#[test]
fn two_slots_keep_separate_wakeups_until_both_leave_time_wait() {
    // Zero-delay wiring: each connection opens and closes within its open
    // instant and then holds only its 500 ms TIME_WAIT — slot 0 until
    // 500 ms, slot 1 until 800 ms.
    let mut w = World::new(3, TraceLevel::Off);
    let client = w.add_agent(Box::new(Host::new(vec![HOST_ADDR], 0, w.rng().stream("client"))));
    let mut server = Host::new(vec![OTHER_ADDR], 1_000, w.rng().stream("server"));
    server.set_iface_link(0, client);
    let factory = Box::new(|_| Box::new(Closer(false)) as Box<dyn App>);
    server.listen(8080, MptcpConfig::default(), factory);
    let server = w.add_agent(Box::new(server));
    w.agent_mut::<Host>(client).unwrap().set_iface_link(0, server);
    let ms = SimTime::from_millis;
    for at in [ms(0), ms(300)] {
        open_at(&mut w, client, at, Box::new(Closer(false)), false);
    }
    let finished = |w: &World| {
        let h = w.agent::<Host>(client).unwrap();
        let done = |slot| h.transport(slot).unwrap().is_finished();
        (done(0), done(1), h.is_quiescent())
    };
    w.run_until(ms(400));
    assert_eq!(finished(&w), (false, false, false), "both in TIME_WAIT");
    w.run_until(ms(600));
    assert_eq!(finished(&w), (true, false, false), "slot 0's wakeup fired alone");
    w.run_until(ms(900));
    assert_eq!(finished(&w), (true, true, true), "quiescent once both are closed");
    assert!(w.agent::<Host>(server).unwrap().is_quiescent());
}

#[test]
fn middlebox_strips_and_counts() {
    let mut w = World::new(1, TraceLevel::Off);
    let sink = w.add_agent(Box::new(NullSink::recording()));
    let mbox = w.add_agent(Box::new(OptionStrippingMiddlebox::new((sink, 0))));
    let mut syn = TcpSegment::bare(1, 2, SeqNum(0), SeqNum(0), tcp_flags::SYN);
    syn.options = [
        TcpOption::Mss(1400),
        TcpOption::Mptcp(MptcpOption::Capable { key_local: 1, key_remote: None }),
    ]
    .into();
    w.schedule(
        SimTime::ZERO,
        mbox,
        Event::Frame { port: 0, frame: tcp_frame(&syn, OTHER_ADDR, HOST_ADDR) },
    );
    // A bare segment without MPTCP options passes untouched.
    let bare = TcpSegment::bare(1, 2, SeqNum(9), SeqNum(0), tcp_flags::ACK);
    w.schedule(
        SimTime::ZERO,
        mbox,
        Event::Frame { port: 0, frame: tcp_frame(&bare, OTHER_ADDR, HOST_ADDR) },
    );
    w.run_until_idle();
    assert_eq!(w.agent::<NullSink>(sink).unwrap().frames, 2);
    assert_eq!(w.agent::<OptionStrippingMiddlebox>(mbox).unwrap().stripped, 1);
}
