//! End-to-end MPTCP tests over the full simulator: world, calibrated link
//! models, hosts, and connections — the integration layer every experiment
//! driver builds on.

use bytes::Bytes;
use mpw_link::{
    att_lte, build_path, sprint_evdo, wifi_home, BuiltPath, LossModel, NullSink, PathSpec,
};
use mpw_mptcp::{
    App, Coupling, Host, MptcpConfig, OpenRequest, SynMode, Transport, TransportSpec,
};
use mpw_sim::trace::TraceLevel;
use mpw_sim::{Agent, AgentId, Ctx, Event, Frame, SimDuration, SimTime, World};
use mpw_tcp::wire::{self, tcp_flags};
use mpw_tcp::{Addr, Endpoint, MptcpOption, SeqNum, TcpOption, TcpSegment};

// ---------------------------------------------------------------------
// Minimal applications (the real HTTP layer lives in mpw-http).
// ---------------------------------------------------------------------

/// Server app: send `total` patterned bytes, then close.
struct BulkSender {
    total: usize,
    sent: usize,
}

fn pattern_chunk(offset: usize, len: usize) -> Bytes {
    Bytes::from((offset..offset + len).map(|i| (i * 31 % 251) as u8).collect::<Vec<u8>>())
}

impl App for BulkSender {
    fn poll(&mut self, conn: &mut Transport, _now: SimTime) {
        if !conn.is_established() {
            return;
        }
        while self.sent < self.total {
            let space = conn.send_space();
            if space == 0 {
                return;
            }
            let take = space.min(self.total - self.sent).min(64 * 1024);
            let pushed = conn.send(pattern_chunk(self.sent, take));
            self.sent += pushed;
            if pushed == 0 {
                return;
            }
        }
        conn.close();
    }
}

/// Client app: read everything; record completion.
struct SinkClient {
    received: Vec<u8>,
    completed_at: Option<SimTime>,
    verify: bool,
}

impl SinkClient {
    fn new(verify: bool) -> Self {
        SinkClient {
            received: Vec::new(),
            completed_at: None,
            verify,
        }
    }
}

impl App for SinkClient {
    fn poll(&mut self, conn: &mut Transport, now: SimTime) {
        while let Some(d) = conn.recv() {
            if self.verify {
                self.received.extend_from_slice(&d);
            } else {
                let off = self.received.len();
                self.received.resize(off + d.len(), 0);
            }
        }
        if conn.peer_closed() && self.completed_at.is_none() {
            self.completed_at = Some(now);
            conn.close();
        }
    }
}

// ---------------------------------------------------------------------
// Middlebox
// ---------------------------------------------------------------------

/// A transparent middlebox that strips MPTCP options from every TCP segment
/// passing through — modelling the AT&T port-80 web proxy that forced the
/// paper's testbed onto port 8080 (§3.1). Insert one per direction.
struct OptionStrippingMiddlebox {
    egress: (AgentId, u16),
    /// Segments rewritten so far.
    stripped: u64,
}

impl OptionStrippingMiddlebox {
    /// Forward frames to `egress` after stripping MPTCP options.
    fn new(egress: (AgentId, u16)) -> Self {
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

// ---------------------------------------------------------------------
// Rig
// ---------------------------------------------------------------------

struct Rig {
    world: World,
    client: AgentId,
    server: AgentId,
    paths: Vec<BuiltPath>,
    server_ep: Endpoint,
}

const CLIENT_ADDRS: [Addr; 2] = [Addr::new(10, 0, 1, 2), Addr::new(10, 0, 2, 2)];
const SERVER_ADDRS: [Addr; 2] = [Addr::new(192, 168, 1, 1), Addr::new(192, 168, 2, 1)];

fn build_rig(seed: u64, specs: &[PathSpec], server_ifs: usize, strip_path0: bool) -> Rig {
    let mut world = World::new(seed, TraceLevel::Off);
    let client_addrs: Vec<Addr> = CLIENT_ADDRS[..specs.len()].to_vec();
    let server_addrs: Vec<Addr> = SERVER_ADDRS[..server_ifs].to_vec();
    let c_rng = world.rng().stream("host.client");
    let s_rng = world.rng().stream("host.server");
    let client = world.add_agent(Box::new(Host::new(client_addrs.clone(), c_rng)));
    let server = world.add_agent(Box::new(Host::new(server_addrs.clone(), s_rng)));
    let mut paths = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let (to_server, to_client): ((AgentId, u16), (AgentId, u16)) = if strip_path0 && i == 0 {
            let up_m = world.add_agent(Box::new(OptionStrippingMiddlebox::new((server, 0))));
            let down_m = world.add_agent(Box::new(OptionStrippingMiddlebox::new((client, 0))));
            ((up_m, 0), (down_m, 0))
        } else {
            ((server, i as u16), (client, i as u16))
        };
        let built = build_path(
            &mut world,
            spec,
            to_client,
            to_server,
            &format!("path{i}"),
        );
        paths.push(built);
    }
    {
        let host = world.agent_mut::<Host>(client).unwrap();
        for (i, p) in paths.iter().enumerate() {
            host.set_iface_link(i, p.uplink);
        }
    }
    {
        let host = world.agent_mut::<Host>(server).unwrap();
        host.set_iface_link(0, paths[0].downlink);
        for (i, p) in paths.iter().enumerate() {
            host.add_route(client_addrs[i], p.downlink);
        }
        host.listen(
            8080,
            MptcpConfig { max_subflows: 8, ..MptcpConfig::default() },
            Box::new(|| Box::new(NullServerFactoryPlaceholder)),
        );
    }
    Rig {
        world,
        client,
        server,
        paths,
        server_ep: Endpoint::new(SERVER_ADDRS[0], 8080),
    }
}

/// Placeholder replaced per test via `serve_bulk`.
struct NullServerFactoryPlaceholder;
impl App for NullServerFactoryPlaceholder {
    fn poll(&mut self, _conn: &mut Transport, _now: SimTime) {}
}

impl Rig {
    fn serve_bulk(&mut self, total: usize) {
        let host = self.world.agent_mut::<Host>(self.server).unwrap();
        host.listen(
            8080,
            MptcpConfig { max_subflows: 8, ..MptcpConfig::default() },
            Box::new(move || Box::new(BulkSender { total, sent: 0 })),
        );
    }

    fn open(&mut self, spec: TransportSpec, at: SimTime, verify: bool) {
        let server_ep = self.server_ep;
        let host = self.world.agent_mut::<Host>(self.client).unwrap();
        let req = OpenRequest {
            spec,
            remote: server_ep,
            app: Box::new(SinkClient::new(verify)),
            warmup: false,
        };
        assert!(host.queue_open(req).is_ok(), "the client's one open");
        self.world
            .schedule(at, self.client, Event::Timer { token: Host::open_token() });
    }

    fn client_host(&mut self) -> &mut Host {
        self.world.agent_mut::<Host>(self.client).unwrap()
    }
}

fn mp_cfg(coupling: Coupling, syn: SynMode, max_subflows: usize) -> TransportSpec {
    TransportSpec::Mptcp(MptcpConfig {
        coupling,
        syn_mode: syn,
        max_subflows,
        ..MptcpConfig::default()
    })
}

// ---------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------

#[test]
fn mptcp_two_path_transfer_is_exact() {
    let mut rig = build_rig(42, &[wifi_home(0.3), att_lte()], 1, false);
    rig.serve_bulk(1_000_000);
    rig.open(mp_cfg(Coupling::Coupled, SynMode::Delayed, 2), SimTime::from_millis(10), true);
    rig.world.run_until(SimTime::from_secs(60));

    let host = rig.client_host();
    let app = host.app::<SinkClient>(0).expect("client app");
    assert!(app.completed_at.is_some(), "download never completed");
    assert_eq!(app.received.len(), 1_000_000);
    // Byte-exactness across two lossy paths with reordering.
    for (i, &b) in app.received.iter().enumerate().step_by(997) {
        assert_eq!(b, (i * 31 % 251) as u8, "corruption at {i}");
    }
    let conn = host.transport(0).unwrap().as_mp().unwrap();
    assert!(!conn.fell_back());
    assert_eq!(conn.subflows.len(), 2);
    let per_subflow = [conn.subflow_delivered(0), conn.subflow_delivered(1)];
    assert!(
        per_subflow.iter().all(|&b| b > 10_000),
        "both paths should carry real traffic for 1 MB: {per_subflow:?}"
    );
}

#[test]
fn small_download_stays_on_wifi() {
    let mut rig = build_rig(7, &[wifi_home(0.3), att_lte()], 1, false);
    rig.serve_bulk(8 * 1024);
    rig.open(mp_cfg(Coupling::Coupled, SynMode::Delayed, 2), SimTime::from_millis(10), true);
    rig.world.run_until(SimTime::from_secs(30));
    let host = rig.client_host();
    let app = host.app::<SinkClient>(0).unwrap();
    assert!(app.completed_at.is_some());
    let conn = host.transport(0).unwrap().as_mp().unwrap();
    // The 8 KB fits in the WiFi initial window; cellular contributes ~nothing
    // (paper §4.1: "most of the subflows are not utilized").
    let cellular = conn.subflow_delivered(1);
    assert!(
        cellular * 10 < conn.delivered_offset(),
        "cellular carried {cellular} of {}",
        conn.delivered_offset()
    );
    // And it finishes in a few WiFi RTTs (~25 ms each).
    let took = app.completed_at.unwrap().saturating_since(SimTime::from_millis(10));
    assert!(took < SimDuration::from_millis(400), "8 KB took {took}");
}

#[test]
fn large_download_uses_cellular_heavily() {
    let mut rig = build_rig(11, &[wifi_home(0.5), att_lte()], 1, false);
    rig.serve_bulk(8_000_000);
    rig.open(mp_cfg(Coupling::Coupled, SynMode::Delayed, 2), SimTime::from_millis(10), false);
    rig.world.run_until(SimTime::from_secs(120));
    let host = rig.client_host();
    let app = host.app::<SinkClient>(0).unwrap();
    assert!(app.completed_at.is_some(), "8 MB download never completed");
    let conn = host.transport(0).unwrap().as_mp().unwrap();
    let share = conn.subflow_delivered(1) as f64 / conn.delivered_offset() as f64;
    // Paper Figure 10: over 50% of large-flow traffic moves to (lossless)
    // cellular; accept anything clearly substantial.
    assert!(share > 0.35, "cellular share only {share:.2}");
}

#[test]
fn middlebox_strip_forces_fallback_to_plain_tcp() {
    let mut rig = build_rig(5, &[wifi_home(0.2), att_lte()], 1, true);
    rig.serve_bulk(200_000);
    rig.open(mp_cfg(Coupling::Coupled, SynMode::Delayed, 2), SimTime::from_millis(10), true);
    rig.world.run_until(SimTime::from_secs(60));
    let host = rig.client_host();
    let app = host.app::<SinkClient>(0).unwrap();
    assert!(app.completed_at.is_some(), "fallback download never completed");
    assert_eq!(app.received.len(), 200_000);
    let conn = host.transport(0).unwrap().as_mp().unwrap();
    assert!(conn.fell_back(), "connection should have fallen back");
    assert_eq!(conn.subflows.len(), 1);
    assert_eq!(conn.subflow_delivered(0), 200_000);
}

#[test]
fn simultaneous_syn_establishes_second_path_sooner() {
    let established_at = |mode: SynMode| {
        let mut rig = build_rig(9, &[wifi_home(0.2), att_lte()], 1, false);
        rig.serve_bulk(2_000_000);
        rig.open(mp_cfg(Coupling::Coupled, mode, 2), SimTime::from_millis(10), false);
        rig.world.run_until(SimTime::from_secs(60));
        let host = rig.client_host();
        let conn = host.transport(0).unwrap().as_mp().unwrap();
        let second = conn.subflows.get(1).expect("second subflow never opened");
        second.sock.stats().established_at.expect("second subflow never established")
    };
    let delayed = established_at(SynMode::Delayed);
    let simultaneous = established_at(SynMode::Simultaneous);
    assert!(
        simultaneous < delayed,
        "simultaneous {simultaneous:?} should beat delayed {delayed:?}"
    );
    // The gap should be about one WiFi RTT or more.
    assert!(
        delayed.saturating_since(simultaneous) >= SimDuration::from_millis(10),
        "gap too small: {delayed:?} vs {simultaneous:?}"
    );
}

#[test]
fn four_path_configuration_establishes_four_subflows() {
    let mut rig = build_rig(13, &[wifi_home(0.2), att_lte()], 2, false);
    rig.serve_bulk(4_000_000);
    rig.open(mp_cfg(Coupling::Olia, SynMode::Delayed, 4), SimTime::from_millis(10), false);
    rig.world.run_until(SimTime::from_secs(120));
    let host = rig.client_host();
    let app = host.app::<SinkClient>(0).unwrap();
    assert!(app.completed_at.is_some(), "4-path download never completed");
    assert_eq!(app.received.len(), 4_000_000);
    let conn = host.transport(0).unwrap().as_mp().unwrap();
    assert_eq!(conn.subflows.len(), 4, "expected 4 subflows");
    let established = conn
        .subflows
        .iter()
        .filter(|sf| sf.sock.stats().established_at.is_some())
        .count();
    assert_eq!(established, 4, "all four subflows should establish");
}

#[test]
fn wifi_death_mid_transfer_survives_on_cellular() {
    let mut rig = build_rig(17, &[wifi_home(0.2), att_lte()], 1, false);
    rig.serve_bulk(3_000_000);
    rig.open(mp_cfg(Coupling::Coupled, SynMode::Delayed, 2), SimTime::from_millis(10), false);
    // Let it run 2 s, then kill WiFi in both directions.
    rig.world.run_until(SimTime::from_secs(2));
    let (up, down) = (rig.paths[0].uplink, rig.paths[0].downlink);
    let now = rig.world.now();
    rig.world
        .agent_mut::<mpw_link::LinkAgent>(up)
        .unwrap()
        .set_loss(now, LossModel::Bernoulli { p: 1.0 });
    rig.world
        .agent_mut::<mpw_link::LinkAgent>(down)
        .unwrap()
        .set_loss(now, LossModel::Bernoulli { p: 1.0 });
    rig.world.run_until(SimTime::from_secs(240));
    let host = rig.client_host();
    let app = host.app::<SinkClient>(0).unwrap();
    assert!(
        app.completed_at.is_some(),
        "transfer should survive WiFi death via the cellular subflow"
    );
    assert_eq!(app.received.len(), 3_000_000);
}

#[test]
fn sprint_path_shows_large_ofo_delay() {
    // Heterogeneous RTTs (WiFi ~20 ms vs 3G hundreds of ms) should force
    // real reordering delay at the connection-level receive buffer (§5.2).
    let mut rig = build_rig(19, &[wifi_home(0.3), sprint_evdo()], 1, false);
    rig.serve_bulk(4_000_000);
    rig.open(mp_cfg(Coupling::Coupled, SynMode::Delayed, 2), SimTime::from_millis(10), false);
    rig.world.run_until(SimTime::from_secs(300));
    let host = rig.client_host();
    let app = host.app::<SinkClient>(0).unwrap();
    assert!(app.completed_at.is_some(), "download never completed");
    let ofo = host.transport(0).unwrap().as_mp().unwrap().ofo_summary();
    assert!(!ofo.is_empty());
    assert!(
        ofo.max() > 100.0,
        "expected some >100 ms reordering delays over Sprint ({} samples, max {} ms)",
        ofo.count(),
        ofo.max()
    );
}

#[test]
fn same_seed_is_bit_identical() {
    let run = || {
        let mut rig = build_rig(23, &[wifi_home(0.4), att_lte()], 1, false);
        rig.serve_bulk(500_000);
        rig.open(mp_cfg(Coupling::Olia, SynMode::Delayed, 2), SimTime::from_millis(10), false);
        rig.world.run_until(SimTime::from_secs(60));
        let host = rig.world.agent_mut::<Host>(rig.client).unwrap();
        let at = host.app::<SinkClient>(0).unwrap().completed_at;
        (at, rig.world.events_processed())
    };
    assert_eq!(run(), run());
}

#[test]
fn single_path_plain_tcp_through_rig() {
    let mut rig = build_rig(29, &[wifi_home(0.3), att_lte()], 1, false);
    rig.serve_bulk(100_000);
    // Over LTE.
    rig.open(TransportSpec::Plain { if_index: 1 }, SimTime::from_millis(10), true);
    rig.world.run_until(SimTime::from_secs(30));
    let host = rig.client_host();
    let app = host.app::<SinkClient>(0).unwrap();
    assert!(app.completed_at.is_some());
    assert_eq!(app.received.len(), 100_000);
    // The server sends the data; the client only acknowledges it.
    let server = rig.world.agent::<Host>(rig.server).unwrap();
    let st = server.transport(0).unwrap().as_sp().unwrap().stats();
    assert!(st.data_segs_sent >= 100_000 / 1400, "{st:?}");
    assert_eq!(st.rexmit_segs, 0, "LTE + ARQ should hide loss");
}

#[test]
fn middlebox_strips_and_counts() {
    let frame = |seg: &TcpSegment| {
        let ip = wire::IpHeader {
            src: CLIENT_ADDRS[0],
            dst: SERVER_ADDRS[0],
            protocol: wire::PROTO_TCP,
            ttl: 64,
        };
        Frame::new(wire::encode_packet(&ip, seg))
    };
    let mut w = World::new(1, TraceLevel::Off);
    let sink = w.add_agent(Box::new(NullSink::recording()));
    let mbox = w.add_agent(Box::new(OptionStrippingMiddlebox::new((sink, 0))));
    let mut syn = TcpSegment::bare(1, 2, SeqNum(0), SeqNum(0), tcp_flags::SYN);
    syn.options = [
        TcpOption::Mss(1400),
        TcpOption::Mptcp(MptcpOption::Capable { key_local: 1, key_remote: None }),
    ]
    .into();
    w.schedule(SimTime::ZERO, mbox, Event::Frame { port: 0, frame: frame(&syn) });
    // A bare segment without MPTCP options passes untouched.
    let bare = TcpSegment::bare(1, 2, SeqNum(9), SeqNum(0), tcp_flags::ACK);
    w.schedule(SimTime::ZERO, mbox, Event::Frame { port: 0, frame: frame(&bare) });
    w.run_until_idle();
    assert_eq!(w.agent::<NullSink>(sink).unwrap().frames, 2);
    assert_eq!(w.agent::<OptionStrippingMiddlebox>(mbox).unwrap().stripped, 1);
}
