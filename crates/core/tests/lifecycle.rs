//! Path-lifecycle integration tests: subflow death detection, backup
//! takeover, re-establishment with capped exponential backoff, and the
//! break-before-make vs make-before-break handover policies — the
//! connection-layer half of the mobility scenarios (DESIGN.md §5.11).

use bytes::Bytes;
use mpw_link::{att_lte, build_path, wifi_home, BuiltPath, LinkAgent, PathSpec};
use mpw_metrics::{PathEvent, PathEventKind};
use mpw_mptcp::{
    App, Coupling, HandoverPolicy, Host, LifecycleConfig, MptcpConfig, OpenRequest, SynMode,
    Transport, TransportSpec,
};
use mpw_sim::trace::TraceLevel;
use mpw_sim::{AgentId, Event, SimDuration, SimTime, World};
use mpw_tcp::{Addr, Endpoint};

// ---------------------------------------------------------------------
// Minimal bulk-download apps (mirrors the e2e harness).
// ---------------------------------------------------------------------

struct BulkSender {
    total: usize,
    sent: usize,
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
            let pushed = conn.send(Bytes::from(vec![0xa5u8; take]));
            self.sent += pushed;
            if pushed == 0 {
                return;
            }
        }
        conn.close();
    }
}

struct SinkClient {
    received: usize,
    completed_at: Option<SimTime>,
}

impl App for SinkClient {
    fn poll(&mut self, conn: &mut Transport, now: SimTime) {
        while let Some(d) = conn.recv() {
            self.received += d.len();
        }
        if conn.peer_closed() && self.completed_at.is_none() {
            self.completed_at = Some(now);
            conn.close();
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
}

const CLIENT_ADDRS: [Addr; 2] = [Addr::new(10, 0, 1, 2), Addr::new(10, 0, 2, 2)];
const SERVER_ADDR: Addr = Addr::new(192, 168, 1, 1);

fn build_rig(seed: u64, specs: &[PathSpec], total: usize) -> Rig {
    let mut world = World::new(seed, TraceLevel::Off);
    let client_addrs: Vec<Addr> = CLIENT_ADDRS[..specs.len()].to_vec();
    let c_rng = world.rng().stream("host.client");
    let s_rng = world.rng().stream("host.server");
    let client = world.add_agent(Box::new(Host::new(client_addrs.clone(), c_rng)));
    let server = world.add_agent(Box::new(Host::new(vec![SERVER_ADDR], s_rng)));
    let mut paths = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        paths.push(build_path(
            &mut world,
            spec,
            (client, i as u16),
            (server, i as u16),
            &format!("path{i}"),
        ));
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
            Box::new(move || Box::new(BulkSender { total, sent: 0 })),
        );
    }
    Rig { world, client, server, paths }
}

fn lifecycle_cfg(policy: HandoverPolicy, backup_ifs: Vec<u8>) -> MptcpConfig {
    MptcpConfig {
        coupling: Coupling::Coupled,
        syn_mode: SynMode::Delayed,
        max_subflows: 2,
        backup_ifs,
        lifecycle: LifecycleConfig { reopen: true, policy },
        ..MptcpConfig::default()
    }
}

impl Rig {
    fn open(&mut self, cfg: MptcpConfig, at: SimTime) {
        let client = self.client;
        let host = self.world.agent_mut::<Host>(client).unwrap();
        let req = OpenRequest {
            spec: TransportSpec::Mptcp(cfg),
            remote: Endpoint::new(SERVER_ADDR, 8080),
            app: Box::new(SinkClient { received: 0, completed_at: None }),
            warmup: false,
        };
        assert!(host.queue_open(req).is_ok(), "the client's one open");
        self.world
            .schedule(at, client, Event::Timer { token: Host::open_token() });
    }

    fn set_path_down(&mut self, path: usize, down: bool) {
        let now = self.world.now();
        for id in [self.paths[path].uplink, self.paths[path].downlink] {
            self.world
                .agent_mut::<LinkAgent>(id)
                .unwrap()
                .set_down(now, down);
        }
    }

    /// Mutate the client connection through the harness, then schedule a
    /// host flush at `now` so queued segments/timers take effect without
    /// waiting for the next network event.
    fn with_conn(
        &mut self,
        now: SimTime,
        f: impl FnOnce(&mut mpw_mptcp::MptcpConnection, SimTime),
    ) {
        let client = self.client;
        let host = self.world.agent_mut::<Host>(client).unwrap();
        let conn = host.transport_mut(0).unwrap().as_mp_mut().unwrap();
        f(conn, now);
        self.world
            .schedule(now, client, Event::Timer { token: Host::open_token() });
    }

    fn client_app(&mut self) -> (usize, Option<SimTime>) {
        let host = self.world.agent_mut::<Host>(self.client).unwrap();
        let app = host.app::<SinkClient>(0).unwrap();
        (app.received, app.completed_at)
    }

    fn events(&mut self) -> Vec<PathEvent> {
        let host = self.world.agent_mut::<Host>(self.client).unwrap();
        host.transport(0)
            .unwrap()
            .as_mp()
            .unwrap()
            .lifecycle_events()
            .to_vec()
    }

    fn per_subflow_delivered(&mut self) -> Vec<u64> {
        let host = self.world.agent_mut::<Host>(self.client).unwrap();
        let conn = host.transport(0).unwrap().as_mp().unwrap();
        (0..conn.subflows.len()).map(|i| conn.subflow_delivered(i)).collect()
    }
}

// ---------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------

/// WiFi goes dark mid-download with an explicit link-down notification;
/// the backup LTE subflow takes over immediately, and once WiFi returns
/// the lifecycle manager re-establishes a replacement subflow.
#[test]
fn blackout_recovers_with_replacement_subflow() {
    let mut rig = build_rig(31, &[wifi_home(0.2), att_lte()], 32_000_000);
    rig.open(lifecycle_cfg(HandoverPolicy::MakeBeforeBreak, vec![1]), SimTime::from_millis(10));
    let down_at = SimTime::from_secs(2);
    rig.world.run_until(down_at);
    rig.set_path_down(0, true);
    rig.with_conn(down_at, |c, now| c.notify_path_down(0, now));
    // WiFi comes back after 8 s of outage.
    let up_at = SimTime::from_secs(10);
    rig.world.run_until(up_at);
    rig.set_path_down(0, false);
    rig.world.run_until(SimTime::from_secs(240));

    let (received, completed) = rig.client_app();
    assert!(completed.is_some(), "download must survive the blackout");
    assert_eq!(received, 32_000_000);

    let events = rig.events();
    // When the first event of `kind` on WiFi was logged.
    let at_first = |kind| events.iter().find(|e| e.kind == kind && e.if_index == 0).map(|e| e.at);
    let dead_at = at_first(PathEventKind::Down);
    assert_eq!(dead_at, Some(down_at), "link-down note must kill the path at once");
    assert!(
        at_first(PathEventKind::ReopenLaunched).is_some(),
        "a replacement join must have been launched: {events:?}"
    );
    let rec = at_first(PathEventKind::Recovered).expect("WiFi path must re-establish");
    assert!(rec > up_at, "recovery {rec} must postdate link restoration {up_at}");
    // The replacement subflow is a fresh slot beyond the original two.
    let host = rig.world.agent_mut::<Host>(rig.client).unwrap();
    let conn = host.transport(0).unwrap().as_mp().unwrap();
    assert!(conn.subflows.len() >= 3, "replacement must occupy a new slot");
    assert!(!conn.fell_back());
}

/// Without any harness notification, pure RTO-based death detection moves
/// traffic to the backup path within a couple of retransmission timeouts.
#[test]
fn rto_stall_fails_over_to_backup() {
    let mut rig = build_rig(37, &[wifi_home(0.2), att_lte()], 24_000_000);
    rig.open(lifecycle_cfg(HandoverPolicy::BreakBeforeMake, vec![1]), SimTime::from_millis(10));
    let down_at = SimTime::from_secs(2);
    rig.world.run_until(down_at);
    let lte_before = rig.per_subflow_delivered().get(1).copied().unwrap_or(0);
    rig.set_path_down(0, true);
    // No notify_path_down: the stall signal (2 consecutive RTOs) must
    // un-gate the backup on its own; give it a generous 3 s.
    rig.world.run_until(down_at + SimDuration::from_secs(3));
    let lte_after = rig.per_subflow_delivered().get(1).copied().unwrap_or(0);
    assert!(
        lte_after > lte_before + 100_000,
        "backup LTE must carry the download within ~2 RTOs of the stall \
         (before {lte_before}, after {lte_after})"
    );
    rig.world.run_until(SimTime::from_secs(240));
    let (received, completed) = rig.client_app();
    assert!(completed.is_some(), "download must complete on the backup path");
    assert_eq!(received, 24_000_000);
}

/// While the link stays down, consecutive reopen attempts back off
/// exponentially (200 ms, 400 ms, 800 ms, ... plus bounded jitter).
#[test]
fn reopen_attempts_back_off_exponentially() {
    let mut rig = build_rig(41, &[wifi_home(0.2), att_lte()], 128_000_000);
    rig.open(lifecycle_cfg(HandoverPolicy::MakeBeforeBreak, vec![]), SimTime::from_millis(10));
    let down_at = SimTime::from_secs(2);
    rig.world.run_until(down_at);
    rig.set_path_down(0, true);
    rig.with_conn(down_at, |c, now| c.notify_path_down(0, now));
    // 50 s of outage: enough for several failed SYN cycles.
    rig.world.run_until(SimTime::from_secs(52));

    let events = rig.events();
    // Pair each ReopenScheduled (stamped at its due time) with the Down
    // logged immediately before it (mark_path_dead emits them back to
    // back) to recover the backoff. The link stays down, so the n-th pair
    // is attempt n.
    let mut backoffs: Vec<SimDuration> = Vec::new();
    for w in events.windows(2) {
        if let [dead, scheduled] = w {
            let kinds = (dead.kind, scheduled.kind);
            if kinds == (PathEventKind::Down, PathEventKind::ReopenScheduled) {
                backoffs.push(scheduled.at.saturating_since(dead.at));
            }
        }
    }
    assert!(
        backoffs.len() >= 3,
        "expected several reopen attempts during a 50 s outage: {events:?}"
    );
    for (i, d) in backoffs.iter().enumerate() {
        let attempt = i + 1;
        // initial * 2^(n-1) ≤ backoff < initial * 2^(n-1) * (1 + jitter)
        let base = SimDuration::from_millis(200).as_nanos() << i;
        assert!(
            d.as_nanos() >= base && d.as_nanos() < base + base / 4,
            "attempt {attempt} backoff {d} outside [{base}, {base}*1.25) ns"
        );
    }
    for w in backoffs.windows(2) {
        assert!(w[1] > w[0], "backoff must grow: {backoffs:?}");
    }
}

/// Make-before-break reacts to the fade signal by demoting WiFi to backup
/// (traffic leaves it while it still works); break-before-make ignores the
/// signal and keeps using WiFi until it hard-fails.
#[test]
fn handover_policy_controls_reaction_to_fade_signal() {
    let wifi_delta_after_signal = |policy: HandoverPolicy| {
        let mut rig = build_rig(43, &[wifi_home(0.2), att_lte()], 24_000_000);
        rig.open(lifecycle_cfg(policy, vec![]), SimTime::from_millis(10));
        let signal_at = SimTime::from_secs(1);
        rig.world.run_until(signal_at);
        let before = rig.per_subflow_delivered().first().copied().unwrap_or(0);
        rig.with_conn(signal_at, |c, now| c.notify_signal(0, true, now));
        rig.world.run_until(signal_at + SimDuration::from_secs(3));
        let after = rig.per_subflow_delivered().first().copied().unwrap_or(0);
        after - before
    };
    let mbb = wifi_delta_after_signal(HandoverPolicy::MakeBeforeBreak);
    let bbm = wifi_delta_after_signal(HandoverPolicy::BreakBeforeMake);
    assert!(
        mbb * 10 < bbm,
        "make-before-break must drain WiFi after the fade signal \
         (WiFi bytes in 3 s: MBB {mbb} vs BBM {bbm})"
    );
    assert!(bbm > 500_000, "break-before-make must keep using WiFi: {bbm}");
}

/// A full blackout-and-recovery run is bit-identical across replays —
/// lifecycle decisions (including jittered backoffs) derive only from the
/// seed.
#[test]
fn lifecycle_runs_are_deterministic() {
    let run = || {
        let mut rig = build_rig(47, &[wifi_home(0.3), att_lte()], 16_000_000);
        rig.open(
            lifecycle_cfg(HandoverPolicy::MakeBeforeBreak, vec![1]),
            SimTime::from_millis(10),
        );
        let down_at = SimTime::from_secs(2);
        rig.world.run_until(down_at);
        rig.set_path_down(0, true);
        rig.with_conn(down_at, |c, now| c.notify_path_down(0, now));
        let up_at = SimTime::from_secs(9);
        rig.world.run_until(up_at);
        rig.set_path_down(0, false);
        rig.world.run_until(SimTime::from_secs(180));
        let events = rig.events();
        let (received, completed) = rig.client_app();
        (events, received, completed, rig.world.events_processed())
    };
    assert_eq!(run(), run());
}

/// An 8 KB download over WiFi is closed before the delayed MP_JOIN has
/// crossed the cold cellular uplink. The server answers the orphan JOIN
/// with a SYN-ACK; the client's subflow socket, closed by then, must
/// refuse it with a reset (RFC 9293 §3.10.7.1) so the server stops — not
/// stay silent while the server retransmits the SYN-ACK for a minute.
#[test]
fn a_join_that_outlives_the_connection_is_reset_not_ignored() {
    let mut rig = build_rig(41, &[wifi_home(0.0), att_lte()], 8 << 10);
    let cfg = MptcpConfig {
        syn_mode: SynMode::Delayed,
        max_subflows: 2,
        ..MptcpConfig::default()
    };
    rig.open(cfg, SimTime::from_millis(10));
    let join_subflow = |rig: &Rig| {
        let server = rig.world.agent::<Host>(rig.server).unwrap();
        let conn = server.transport(0)?.as_mp()?;
        conn.subflows.get(1).map(|sf| (sf.sock.stats(), sf.sock.is_finished()))
    };

    // Step to the instant the server accepts the JOIN: the download is
    // over and closed by then.
    let mut now = SimTime::ZERO;
    while join_subflow(&rig).is_none() {
        now += SimDuration::from_millis(10);
        assert!(now < SimTime::from_secs(5), "the JOIN never reached the server");
        rig.world.run_until(now);
    }
    let (received, completed) = rig.client_app();
    assert_eq!(received, 8 << 10);
    let closed_at = completed.expect("the download completed before the JOIN arrived");
    let (join, _) = join_subflow(&rig).unwrap();
    assert!(closed_at < join.opened_at, "closed {closed_at}, JOIN at {}", join.opened_at);

    // One second on, the orphan is gone and nothing is armed on either side.
    rig.world.run_until(now + SimDuration::from_secs(1));
    let (join, finished) = join_subflow(&rig).unwrap();
    assert!(join.established_at.is_none() && finished, "the reset closed the orphan subflow");
    for (who, id) in [("client", rig.client), ("server", rig.server)] {
        let host = rig.world.agent::<Host>(id).unwrap();
        assert!(host.is_quiescent(), "{who} still has a timer armed 1 s after the JOIN");
    }
}
