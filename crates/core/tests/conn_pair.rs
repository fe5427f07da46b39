//! Protocol-level MPTCP tests: two `MptcpConnection`s wired through an
//! ideal two-path channel, exercising the handshake, DSS mapping/data-ack
//! machinery, DATA_FIN, traffic accounting, reinjection, and teardown
//! without the full simulator.

use bytes::Bytes;
use mpw_mptcp::{MptcpConfig, MptcpConnection, SynMode};
use mpw_sim::{SimDuration, SimRng, SimTime};
use mpw_tcp::{Addr, Endpoint, TcpSegment};

const CLIENT_ADDRS: [Addr; 2] = [Addr::new(10, 0, 1, 2), Addr::new(10, 0, 2, 2)];
const SERVER_ADDR: Addr = Addr::new(192, 168, 1, 1);

struct Flight {
    at: SimTime,
    seq: u64,
    to_server: bool,
    local: Endpoint,
    remote: Endpoint,
    seg: TcpSegment,
}

/// Minimal two-conn harness: path 0 has 10 ms one-way delay, path 1 has
/// 40 ms. Segments can be dropped by wire index or by path.
struct ConnPair {
    client: MptcpConnection,
    server: Option<MptcpConnection>,
    server_cfg: MptcpConfig,
    now: SimTime,
    wire: Vec<Flight>,
    seq: u64,
    /// Drop every segment traversing this client interface (path outage).
    pub dead_path: Option<u8>,
    /// Drop every n-th data segment the server sends (0 = none).
    pub drop_every: u64,
    pub data_segs_to_client: u64,
    pub forwarded: u64,
}

fn delay_for(local: Endpoint, remote: Endpoint) -> SimDuration {
    let cell = local.addr == CLIENT_ADDRS[1] || remote.addr == CLIENT_ADDRS[1];
    if cell {
        SimDuration::from_millis(40)
    } else {
        SimDuration::from_millis(10)
    }
}

impl ConnPair {
    fn new(cfg: MptcpConfig) -> ConnPair {
        let server_cfg = MptcpConfig {
            max_subflows: 8,
            ..cfg.clone()
        };
        let client = MptcpConnection::connect(
            cfg,
            1,
            CLIENT_ADDRS.to_vec(),
            Endpoint::new(SERVER_ADDR, 8080),
            SimRng::seeded(42),
            SimTime::ZERO,
        );
        ConnPair {
            client,
            server: None,
            server_cfg,
            now: SimTime::ZERO,
            wire: Vec::new(),
            seq: 0,
            dead_path: None,
            drop_every: 0,
            data_segs_to_client: 0,
            forwarded: 0,
        }
    }

    fn path_of(local: Endpoint, remote: Endpoint) -> u8 {
        if local.addr == CLIENT_ADDRS[1] || remote.addr == CLIENT_ADDRS[1] {
            1
        } else {
            0
        }
    }

    fn pump_wire(&mut self) {
        // Client → wire.
        while let Some((idx, seg)) = self.client.poll_transmit(self.now) {
            let sf = &self.client.subflows[idx];
            let (local, remote) = (sf.local, sf.remote);
            self.forwarded += 1;
            if self.dead_path == Some(Self::path_of(local, remote)) {
                continue;
            }
            self.wire.push(Flight {
                at: self.now + delay_for(local, remote),
                seq: self.seq,
                to_server: true,
                local,
                remote,
                seg,
            });
            self.seq += 1;
        }
        // Server → wire.
        if let Some(server) = &mut self.server {
            while let Some((idx, seg)) = server.poll_transmit(self.now) {
                let sf = &server.subflows[idx];
                let (local, remote) = (sf.local, sf.remote);
                self.forwarded += 1;
                if self.dead_path == Some(Self::path_of(local, remote)) {
                    continue;
                }
                if !seg.payload.is_empty() {
                    self.data_segs_to_client += 1;
                    if self.drop_every > 0 && self.data_segs_to_client.is_multiple_of(self.drop_every) {
                        continue;
                    }
                }
                self.wire.push(Flight {
                    at: self.now + delay_for(local, remote),
                    seq: self.seq,
                    to_server: false,
                    local,
                    remote,
                    seg,
                });
                self.seq += 1;
            }
        }
    }

    fn next_time(&self) -> Option<SimTime> {
        let mut t = self.wire.iter().map(|f| f.at).min();
        let mut fold = |d: Option<SimTime>| {
            if let Some(d) = d {
                t = Some(t.map_or(d, |c: SimTime| c.min(d)));
            }
        };
        fold(self.client.next_timeout());
        if let Some(s) = &self.server {
            fold(s.next_timeout());
        }
        t
    }

    fn deliver_due(&mut self) {
        let mut due: Vec<usize> = self
            .wire
            .iter()
            .enumerate()
            .filter(|(_, f)| f.at <= self.now)
            .map(|(i, _)| i)
            .collect();
        due.sort_by_key(|&i| (self.wire[i].at, self.wire[i].seq));
        // Remove from the back to keep indices valid.
        let mut flights: Vec<Flight> = Vec::new();
        for &i in due.iter().rev() {
            flights.push(self.wire.remove(i));
        }
        flights.sort_by_key(|f| (f.at, f.seq));
        for f in flights {
            if f.to_server {
                match &mut self.server {
                    None => {
                        let server = MptcpConnection::accept(
                            self.server_cfg.clone(),
                            2,
                            Endpoint::new(SERVER_ADDR, 8080),
                            f.local,
                            vec![SERVER_ADDR],
                            &f.seg,
                            SimRng::seeded(7),
                            self.now,
                        )
                        .expect("MP_CAPABLE SYN expected first");
                        self.server = Some(server);
                    }
                    Some(server) => {
                        // Demux by endpoints; JOIN SYNs create subflows.
                        let dst = Endpoint::new(SERVER_ADDR, f.seg.dst_port);
                        let idx = server
                            .subflows
                            .iter()
                            .position(|s| s.local == dst && s.remote == f.local);
                        match idx {
                            Some(i) => server.on_segment(i, &f.seg, self.now),
                            None => {
                                server.accept_join(dst, f.local, &f.seg, self.now);
                                server.post_event(self.now);
                            }
                        }
                    }
                }
            } else {
                let dst = Endpoint::new(f.remote.addr, f.remote.port);
                let idx = self
                    .client
                    .subflows
                    .iter()
                    .position(|s| s.local == dst && s.remote == f.local);
                if let Some(i) = idx {
                    self.client.on_segment(i, &f.seg, self.now);
                }
            }
        }
    }

    fn run_until(&mut self, deadline: SimTime) {
        self.pump_wire();
        while let Some(t) = self.next_time() {
            if t > deadline {
                break;
            }
            self.now = self.now.max(t);
            self.deliver_due();
            self.client.on_timer(self.now);
            if let Some(s) = &mut self.server {
                s.on_timer(self.now);
            }
            self.pump_wire();
        }
        self.now = deadline;
    }

    fn run_for(&mut self, d: SimDuration) {
        let deadline = self.now + d;
        self.run_until(deadline);
    }

    fn server(&mut self) -> &mut MptcpConnection {
        self.server.as_mut().expect("server conn exists")
    }
}

fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

fn drain(conn: &mut MptcpConnection) -> Vec<u8> {
    let mut out = Vec::new();
    while let Some(d) = conn.recv() {
        out.extend_from_slice(&d);
    }
    out
}

#[test]
fn capable_handshake_exchanges_keys_and_token() {
    let mut p = ConnPair::new(MptcpConfig::default());
    p.run_for(ms(100));
    assert!(p.client.is_established());
    let server = p.server();
    assert!(server.is_established());
    // Token is derived from the client key on both ends.
    assert_eq!(server.token(), p.client.token());
}

#[test]
fn delayed_join_waits_for_data() {
    let mut p = ConnPair::new(MptcpConfig::default());
    p.run_for(ms(200));
    // Established but no data yet: no join in Delayed mode.
    assert_eq!(p.client.subflows.len(), 1, "join should wait for data");
    p.client.send(Bytes::from_static(b"GET /"));
    p.run_for(ms(400));
    assert_eq!(p.client.subflows.len(), 2, "join after data flows");
    assert!(p.client.subflows[1].sock.stats().established_at.is_some());
}

#[test]
fn simultaneous_join_fires_at_connect() {
    let mut p = ConnPair::new(MptcpConfig {
        syn_mode: SynMode::Simultaneous,
        ..MptcpConfig::default()
    });
    assert_eq!(p.client.subflows.len(), 2, "both SYNs at t=0");
    p.run_for(ms(300));
    assert!(p.client.subflows[1].sock.stats().established_at.is_some());
    // The JOIN raced the MP_CAPABLE but both subflows attached to one conn.
    assert_eq!(p.server().subflows.len(), 2);
}

#[test]
fn bidirectional_transfer_with_dss_is_exact() {
    let mut p = ConnPair::new(MptcpConfig::default());
    p.run_for(ms(100));
    let req: Vec<u8> = (0..2_000u32).map(|i| (i % 251) as u8).collect();
    p.client.send(Bytes::from(req.clone()));
    p.run_for(ms(300));
    assert_eq!(drain(p.server()), req);
    let resp: Vec<u8> = (0..600_000u32).map(|i| (i % 249) as u8).collect();
    // Feed as buffer space opens.
    let mut off = 0;
    for _ in 0..200 {
        {
            let server = p.server();
            let take = server.send_space().min(resp.len() - off);
            if take > 0 {
                server.send(Bytes::from(resp[off..off + take].to_vec()));
                off += take;
            }
        }
        p.run_for(ms(50));
        if p.client.delivered_offset() >= resp.len() as u64 {
            break;
        }
    }
    assert_eq!(drain(&mut p.client), resp);
    // Both paths carried data for a transfer this size.
    assert_eq!(p.client.subflows.len(), 2);
    let per_subflow = [p.client.subflow_delivered(0), p.client.subflow_delivered(1)];
    assert!(per_subflow.iter().all(|&b| b > 0));
    assert_eq!(per_subflow.iter().sum::<u64>(), resp.len() as u64);
}

#[test]
fn data_fin_tears_down_both_sides() {
    let mut p = ConnPair::new(MptcpConfig::default());
    p.run_for(ms(100));
    p.client.send(Bytes::from_static(b"only request"));
    p.run_for(ms(200));
    let resp = vec![9u8; 50_000];
    p.server().send(Bytes::from(resp.clone()));
    p.server().close();
    p.run_for(ms(500));
    assert_eq!(drain(&mut p.client), resp);
    assert!(p.client.peer_closed(), "client sees server DATA_FIN");
    p.client.close();
    p.run_for(ms(3_000));
    if !p.client.is_finished() {
        for (i, sf) in p.client.subflows.iter().enumerate() {
            eprintln!("client sf{i}: state={:?}", sf.sock.state());
        }
        for (i, sf) in p.server().subflows.iter().enumerate() {
            eprintln!("server sf{i}: state={:?}", sf.sock.state());
        }
    }
    assert!(p.client.is_finished(), "client fully closed");
    assert!(p.server().is_finished(), "server fully closed");
}

#[test]
fn path_death_reinjects_on_survivor() {
    let mut p = ConnPair::new(MptcpConfig::default());
    p.run_for(ms(100));
    p.client.send(Bytes::from_static(b"req"));
    p.run_for(ms(400)); // both subflows up and carrying
    assert_eq!(p.client.subflows.len(), 2);
    let total: usize = 400_000;
    let resp: Vec<u8> = (0..total).map(|i| (i * 7 % 253) as u8).collect();
    let mut off = 0;
    // Start the transfer, then kill the cellular path mid-way.
    for round in 0..400 {
        {
            let server = p.server();
            let take = server.send_space().min(total - off);
            if take > 0 {
                server.send(Bytes::from(resp[off..off + take].to_vec()));
                off += take;
            }
        }
        if round == 4 {
            p.dead_path = Some(1);
        }
        p.run_for(ms(100));
        if p.client.delivered_offset() >= total as u64 {
            break;
        }
    }
    assert_eq!(
        p.client.delivered_offset(),
        total as u64,
        "transfer must finish on the surviving path"
    );
    assert_eq!(drain(&mut p.client), resp);
}

/// 4 MB over two subflows with every 100th data segment lost: every
/// retransmission starts below its subflow's send point, so its DSS mapping
/// is found by the ring's search rather than at the cursor, and in this
/// (debug) build `validate` checks after every event that acked mappings
/// were retired. The stream must arrive byte-exact.
#[test]
fn lossy_two_subflow_transfer_is_exact() {
    let mut p = ConnPair::new(MptcpConfig::default());
    p.run_for(ms(100));
    p.client.send(Bytes::from_static(b"req"));
    p.run_for(ms(400));
    assert_eq!(p.client.subflows.len(), 2);
    p.drop_every = 100;
    let total: usize = 4 << 20;
    let resp: Vec<u8> = (0..total).map(|i| (i * 13 % 251) as u8).collect();
    let mut off = 0;
    let mut got = Vec::with_capacity(total);
    for _ in 0..3_000 {
        let server = p.server();
        let take = server.send_space().min(total - off);
        if take > 0 {
            server.send(Bytes::from(resp[off..off + take].to_vec()));
            off += take;
        }
        p.run_for(ms(20));
        got.extend(drain(&mut p.client));
        if got.len() >= total {
            break;
        }
    }
    assert!(got == resp, "delivered {} of {total} bytes, or not the bytes sent", got.len());
    let rexmits: u64 = p.server().subflows.iter().map(|s| s.sock.stats().rexmit_segs).sum();
    assert!(p.data_segs_to_client / 100 >= 25 && rexmits >= p.data_segs_to_client / 100);
    let carried = |i| p.client.subflow_delivered(i) > 0;
    assert!((0..p.client.subflows.len()).all(carried), "both subflows carried data");
}

#[test]
fn ofo_samples_reflect_path_asymmetry() {
    let mut p = ConnPair::new(MptcpConfig::default());
    p.run_for(ms(100));
    p.client.send(Bytes::from_static(b"req"));
    p.run_for(ms(400));
    let resp = vec![1u8; 300_000];
    let mut off = 0;
    for _ in 0..200 {
        {
            let server = p.server();
            let take = server.send_space().min(resp.len() - off);
            if take > 0 {
                server.send(Bytes::from(resp[off..off + take].to_vec()));
                off += take;
            }
        }
        p.run_for(ms(50));
        if p.client.delivered_offset() >= resp.len() as u64 {
            break;
        }
    }
    let ofo = p.client.ofo_summary();
    assert!(!ofo.is_empty());
    // With 10 ms vs 40 ms paths, some packets waited roughly the RTT gap.
    assert!(
        ofo.max() >= 20.0,
        "expected visible reordering delay, max {} ms",
        ofo.max()
    );
}

#[test]
fn mp_prio_demotes_a_path_mid_transfer() {
    let mut p = ConnPair::new(MptcpConfig::default());
    p.run_for(ms(100));
    p.client.send(Bytes::from_static(b"req"));
    p.run_for(ms(400)); // both subflows established
    assert_eq!(p.server().subflows.len(), 2);

    // Phase 1: transfer with both paths regular.
    let chunk = vec![5u8; 150_000];
    let mut sent = 0usize;
    for _ in 0..100 {
        {
            let server = p.server();
            let take = server.send_space().min(chunk.len() - sent);
            if take > 0 {
                server.send(Bytes::from(chunk[sent..sent + take].to_vec()));
                sent += take;
            }
        }
        p.run_for(ms(50));
        if p.client.delivered_offset() >= chunk.len() as u64 {
            break;
        }
    }
    let before = [p.client.subflow_delivered(0), p.client.subflow_delivered(1)];
    assert!(before[0] > 0, "path 0 active in phase 1");

    // The CLIENT demotes its WiFi-ish path 0; the server (data sender)
    // learns via MP_PRIO and must stop scheduling onto it.
    p.client.set_subflow_backup(0, true);
    p.run_for(ms(200));
    let mut sent2 = 0usize;
    for _ in 0..200 {
        {
            let server = p.server();
            let take = server.send_space().min(chunk.len() - sent2);
            if take > 0 {
                server.send(Bytes::from(chunk[sent2..sent2 + take].to_vec()));
                sent2 += take;
            }
        }
        p.run_for(ms(50));
        if p.client.delivered_offset() >= 2 * chunk.len() as u64 {
            break;
        }
    }
    assert_eq!(p.client.delivered_offset(), 2 * chunk.len() as u64);
    let after = [p.client.subflow_delivered(0), p.client.subflow_delivered(1)];
    let phase2_path0 = after[0] - before[0];
    let phase2_path1 = after[1] - before[1];
    assert!(
        phase2_path0 * 20 < phase2_path1,
        "demoted path carried {phase2_path0} vs {phase2_path1} after MP_PRIO"
    );
    // The server's own view marked the subflow backup.
    assert!(p.server().subflows.iter().any(|s| s.backup));
}

#[test]
fn max_subflows_caps_joins() {
    let mut p = ConnPair::new(MptcpConfig {
        max_subflows: 1,
        ..MptcpConfig::default()
    });
    p.run_for(ms(100));
    p.client.send(Bytes::from_static(b"x"));
    p.run_for(ms(500));
    assert_eq!(p.client.subflows.len(), 1, "no joins beyond max_subflows");
}
