//! Application-layer tests: the wget client, HTTP server, and streaming
//! client driven over a minimal in-memory transport pair (plain TCP wrapped
//! in the MPTCP `Transport` facade), independent of the network simulator.

use std::any::Any;

use bytes::Bytes;
use mpw_http::{HttpServer, StreamingClient, StreamingProfile, Wget};
use mpw_mptcp::{App, Transport};
use mpw_sim::{SimDuration, SimTime};
use mpw_tcp::{CcConfig, Endpoint, NewReno, NoHooks, SeqNum, TcpConfig, TcpSegment, TcpSocket};

/// Two `Transport::Sp` endpoints joined by a fixed-delay wire, with the apps
/// polled like the Host does it.
struct AppPair {
    client: Transport,
    server: Transport,
    client_app: Box<dyn App>,
    server_app: Box<dyn App>,
    now: SimTime,
    wire: Vec<(SimTime, bool, TcpSegment)>, // (deliver_at, to_server, seg)
    delay: SimDuration,
}

impl AppPair {
    fn new(client_app: Box<dyn App>, server_app: Box<dyn App>) -> AppPair {
        let c_ep = Endpoint::new(mpw_tcp::Addr::new(10, 0, 0, 1), 40000);
        let s_ep = Endpoint::new(mpw_tcp::Addr::new(10, 0, 0, 2), 8080);
        let sock = TcpSocket::connect(
            TcpConfig::default(),
            Box::new(NewReno::new(CcConfig::default())),
            Box::new(NoHooks),
            c_ep,
            s_ep,
            0,
            SeqNum(100),
            SimTime::ZERO,
        );
        AppPair {
            client: Transport::Sp(sock),
            server: Transport::Sp(TcpSocket::connect(
                // Placeholder; replaced on SYN arrival via accept.
                TcpConfig::default(),
                Box::new(NewReno::new(CcConfig::default())),
                Box::new(NoHooks),
                s_ep,
                c_ep,
                0,
                SeqNum(200),
                SimTime::ZERO,
            )),
            client_app,
            server_app,
            now: SimTime::ZERO,
            wire: Vec::new(),
            delay: SimDuration::from_millis(10),
        }
    }

    /// The client app as a `T` (upcast the boxed app, not the `Box`).
    fn client_as<T: App>(&self) -> &T {
        let app: &dyn Any = &*self.client_app;
        app.downcast_ref().expect("client app type")
    }

    /// The server app as a `T`.
    fn server_as<T: App>(&self) -> &T {
        let app: &dyn Any = &*self.server_app;
        app.downcast_ref().expect("server app type")
    }

    fn pump(&mut self) {
        // Apps first (they may write/close), then sockets.
        self.client_app.poll(&mut self.client, self.now);
        self.server_app.poll(&mut self.server, self.now);
        if let Transport::Sp(s) = &mut self.client {
            while let Some(seg) = s.poll_transmit(self.now) {
                self.wire.push((self.now + self.delay, true, seg));
            }
        }
        if let Transport::Sp(s) = &mut self.server {
            while let Some(seg) = s.poll_transmit(self.now) {
                self.wire.push((self.now + self.delay, false, seg));
            }
        }
        self.client_app.poll(&mut self.client, self.now);
        self.server_app.poll(&mut self.server, self.now);
    }

    fn run_for(&mut self, d: SimDuration) {
        let deadline = self.now + d;
        self.pump();
        loop {
            let next_wire = self.wire.iter().map(|(t, ..)| *t).min();
            let mut next = next_wire;
            let mut fold = |t: Option<SimTime>| {
                if let Some(t) = t {
                    next = Some(next.map_or(t, |c: SimTime| c.min(t)));
                }
            };
            if let Transport::Sp(s) = &self.client {
                fold(s.next_timeout());
            }
            if let Transport::Sp(s) = &self.server {
                fold(s.next_timeout());
            }
            fold(self.client_app.next_wakeup());
            fold(self.server_app.next_wakeup());
            let Some(t) = next else { break };
            if t > deadline {
                break;
            }
            self.now = self.now.max(t);
            let due: Vec<(SimTime, bool, TcpSegment)> = {
                let mut d: Vec<_> = Vec::new();
                self.wire.retain(|(at, to_s, seg)| {
                    if *at <= self.now {
                        d.push((*at, *to_s, seg.clone()));
                        false
                    } else {
                        true
                    }
                });
                d
            };
            for (_, to_server, seg) in due {
                // First SYN to the server replaces the placeholder socket.
                if to_server {
                    let is_syn = seg.has(mpw_tcp::wire::tcp_flags::SYN)
                        && !seg.has(mpw_tcp::wire::tcp_flags::ACK);
                    if is_syn {
                        let c_ep = Endpoint::new(mpw_tcp::Addr::new(10, 0, 0, 1), 40000);
                        let s_ep = Endpoint::new(mpw_tcp::Addr::new(10, 0, 0, 2), 8080);
                        self.server = Transport::Sp(TcpSocket::accept(
                            TcpConfig::default(),
                            Box::new(NewReno::new(CcConfig::default())),
                            Box::new(NoHooks),
                            s_ep,
                            c_ep,
                            0,
                            SeqNum(200),
                            &seg,
                            self.now,
                        ));
                        continue;
                    }
                    if let Transport::Sp(s) = &mut self.server {
                        s.on_segment(&seg, self.now);
                    }
                } else if let Transport::Sp(s) = &mut self.client {
                    s.on_segment(&seg, self.now);
                }
            }
            if let Transport::Sp(s) = &mut self.client {
                s.on_timer(self.now);
            }
            if let Transport::Sp(s) = &mut self.server {
                s.on_timer(self.now);
            }
            self.pump();
        }
        self.now = deadline;
    }
}

#[test]
fn wget_downloads_and_verifies_an_object() {
    let mut p = AppPair::new(
        Box::new(Wget::new(100_000, true)),
        Box::new(HttpServer::new()),
    );
    p.run_for(SimDuration::from_secs(30));
    let w = p.client_as::<Wget>();
    assert!(w.is_done());
    assert_eq!(w.result.bytes, 100_000);
    assert_eq!(w.result.corrupt_bytes, 0);
    assert!(w.result.download_time().unwrap() > SimDuration::from_millis(20));
    let s = p.server_as::<HttpServer>();
    assert_eq!(s.requests_served, 1);
    assert_eq!(s.body_bytes_sent, 100_000);
}

#[test]
fn wget_zero_byte_object_completes_instantly_after_header() {
    let mut p = AppPair::new(Box::new(Wget::new(0, true)), Box::new(HttpServer::new()));
    p.run_for(SimDuration::from_secs(5));
    let w = p.client_as::<Wget>();
    assert!(w.is_done());
    assert_eq!(w.result.bytes, 0);
}

#[test]
fn streaming_session_issues_periodic_requests_over_keepalive() {
    let profile = StreamingProfile {
        prefetch: 60_000,
        block: 20_000,
        period: SimDuration::from_millis(300),
        blocks: 5,
    };
    let mut p = AppPair::new(
        Box::new(StreamingClient::new(profile)),
        Box::new(HttpServer::new()),
    );
    p.run_for(SimDuration::from_secs(30));
    let c = p.client_as::<StreamingClient>();
    assert!(c.is_done(), "session finished");
    assert_eq!(c.results.len(), 6, "prefetch + 5 blocks");
    assert_eq!(c.results[0].bytes, 60_000);
    assert!(c.results[1..].iter().all(|r| r.bytes == 20_000));
    // All six objects served over ONE keep-alive connection.
    let s = p.server_as::<HttpServer>();
    assert_eq!(s.requests_served, 6);
    // On a quiet 20 ms-RTT wire every block is on time.
    assert_eq!(c.late_blocks, 0);
}

#[test]
fn server_survives_pipelined_requests() {
    // Two GETs written back-to-back before any response: both answered.
    struct Pipeliner {
        sent: bool,
        got: usize,
    }
    impl App for Pipeliner {
        fn poll(&mut self, conn: &mut Transport, _now: SimTime) {
            if !self.sent && conn.is_established() {
                self.sent = true;
                let r1 = mpw_http::Request { path: "/object".into(), size: 5_000, request_id: Some(1) };
                let r2 = mpw_http::Request { path: "/object".into(), size: 7_000, request_id: Some(2) };
                let mut bytes = r1.encode();
                bytes.extend_from_slice(&r2.encode());
                conn.send(Bytes::from(bytes));
            }
            while let Some(d) = conn.recv() {
                self.got += d.len();
            }
        }
    }
    let mut p = AppPair::new(
        Box::new(Pipeliner { sent: false, got: 0 }),
        Box::new(HttpServer::new()),
    );
    p.run_for(SimDuration::from_secs(10));
    let s = p.server_as::<HttpServer>();
    assert_eq!(s.requests_served, 2);
    assert_eq!(s.body_bytes_sent, 12_000);
    let c = p.client_as::<Pipeliner>();
    // Bodies plus two response heads.
    assert!(c.got > 12_000);
}

#[test]
fn server_rejects_malformed_request_by_closing() {
    struct Garbage {
        sent: bool,
    }
    impl App for Garbage {
        fn poll(&mut self, conn: &mut Transport, _now: SimTime) {
            if !self.sent && conn.is_established() {
                self.sent = true;
                conn.send(Bytes::from_static(b"NONSENSE / HTTP/0.9\r\n\r\n"));
            }
            while conn.recv().is_some() {}
        }
    }
    let mut p = AppPair::new(Box::new(Garbage { sent: false }), Box::new(HttpServer::new()));
    p.run_for(SimDuration::from_secs(10));
    let s = p.server_as::<HttpServer>();
    assert_eq!(s.requests_served, 0);
    // Server closed its direction; client observes EOF.
    assert!(p.client.peer_closed());
}

#[test]
fn not_found_path_gets_404_and_zero_body() {
    struct AskWrong {
        sent: bool,
        status: Option<u16>,
        reader: mpw_http::HeaderReader,
    }
    impl App for AskWrong {
        fn poll(&mut self, conn: &mut Transport, _now: SimTime) {
            if !self.sent && conn.is_established() {
                self.sent = true;
                let r = mpw_http::Request { path: "/missing".into(), size: 5, request_id: None };
                conn.send(Bytes::from(r.encode()));
            }
            while let Some(d) = conn.recv() {
                if let Ok(Some((text, _))) = self.reader.push(&d) {
                    self.status = mpw_http::parse_response(&text).ok().map(|h| h.status);
                }
            }
        }
    }
    let mut p = AppPair::new(
        Box::new(AskWrong { sent: false, status: None, reader: mpw_http::HeaderReader::new() }),
        Box::new(HttpServer::new()),
    );
    p.run_for(SimDuration::from_secs(5));
    let c = p.client_as::<AskWrong>();
    assert_eq!(c.status, Some(404));
}
