//! The paper's testbed (§3.1, Figure 1), as a reusable simulation topology.
//!
//! One flow from the mobile client to the server ("UMass"), over one
//! access path per client interface: its WiFi and one cellular carrier.
//! The flow decides both ends: the server runs the client's MPTCP
//! configuration (the paper switched congestion controllers at the server,
//! the data sender, §3.2) and enables its secondary interface, advertised
//! via ADD_ADDR, only for 4-path runs.

use std::fmt;

use mpw_capture::SharedHub;
use mpw_fleet::{client_flow, drive, open_flow, quiescent, ClientFlow, Drive, Topology};
use mpw_http::Wget;
use mpw_link::{BuiltPath, PathSpec};
use mpw_mptcp::{App, Host, MptcpConfig, OpenRequest, TransportSpec};
use mpw_sim::{AgentId, SimDuration, SimTime, World};
use mpw_tcp::{Addr, Endpoint};

/// Client interface addresses: index 0 = WiFi (the default path), 1 = cellular.
pub const CLIENT_ADDRS: [Addr; 2] = [Addr::new(10, 0, 1, 2), Addr::new(10, 0, 2, 2)];
/// Server interface addresses (two subnets of the campus network).
pub const SERVER_ADDRS: [Addr; 2] = [Addr::new(192, 168, 1, 1), Addr::new(192, 168, 2, 1)];
/// The Apache port (8080 — AT&T's proxy mangled port 80, §3.1).
pub const SERVER_PORT: u16 = 8080;

/// [`Testbed::run_flow`] harvests a finished flow that never quiesces at
/// the next multiple of this after the call.
pub const HARVEST_MARK: SimDuration = SimDuration::from_secs(5);

/// A built testbed.
pub struct Testbed {
    /// The simulation world.
    pub world: World,
    /// Client host agent id.
    pub client: AgentId,
    /// Server host agent id.
    pub server: AgentId,
    /// Built paths (per client interface).
    pub paths: Vec<BuiltPath>,
    /// The flow this testbed carries.
    transport: TransportSpec,
}

impl Testbed {
    /// Build the testbed of one flow running `transport`: the one-client
    /// case of the shared [`Topology`], each access path delivering
    /// straight to the client. The server listens with an `HttpServer` per
    /// accepted connection and the client's MPTCP configuration, with room
    /// for every subflow (the default configuration for a single-path
    /// flow); it is dual-homed iff the flow wants more than two subflows.
    /// `capture` gives every path the paper's four tcpdump vantages,
    /// registered on the hub and tapped on the link agents; taps are pure
    /// observation, so a captured run is event-identical to a plain one.
    pub fn build(
        seed: u64,
        paths: [PathSpec; 2],
        transport: TransportSpec,
        capture: Option<SharedHub>,
    ) -> Testbed {
        let server_mptcp = match &transport {
            TransportSpec::Mptcp(cfg) => cfg.clone(),
            TransportSpec::Plain { .. } => MptcpConfig::default(),
        };
        let server_ifs = if server_mptcp.max_subflows > 2 { 2 } else { 1 };
        let mut topo = Topology::new(seed);
        let c_rng = topo.world.rng().stream("host.client");
        let s_rng = topo.world.rng().stream("host.server");
        let client = topo.add_client(CLIENT_ADDRS.to_vec(), 0, c_rng);
        let server = topo.add_server(SERVER_ADDRS[..server_ifs].to_vec(), s_rng);
        for (i, pspec) in paths.iter().enumerate() {
            let net = topo.add_access(pspec, &format!("path{i}"), &[(client, i, CLIENT_ADDRS[i])]);
            if let Some(hub) = &capture {
                let vantages = hub.borrow_mut().add_path(i as u8);
                topo.tap(net, hub.clone(), vantages);
            }
        }
        topo.serve(SERVER_PORT, MptcpConfig { max_subflows: 8, ..server_mptcp });
        Testbed {
            paths: topo.paths,
            world: topo.world,
            client,
            server,
            transport,
        }
    }

    /// Build the testbed of `transport` over `paths`, open its flow running
    /// `app` at 100 ms (after the paper's warm-up pings) and run it to
    /// completion or `horizon`. Returns the testbed, the flow's client slot
    /// and its harvest.
    pub fn run_single(
        seed: u64,
        paths: [PathSpec; 2],
        transport: TransportSpec,
        app: Box<dyn App>,
        horizon: SimTime,
    ) -> (Testbed, usize, ClientFlow) {
        let mut tb = Testbed::build(seed, paths, transport, None);
        let slot = tb.open_with_app(app, SimTime::from_millis(100), true);
        let flow = tb.run_flow(slot, horizon, &("single flow, seed", seed));
        (tb, slot, flow)
    }

    /// Queue the flow as a wget download of `size` bytes starting at `at`,
    /// optionally preceded by the paper's two warm-up pings on the
    /// cellular interface. Returns the client slot index the result will
    /// appear in.
    pub fn download(&mut self, size: u64, at: SimTime, warmup: bool) -> usize {
        self.open_with_app(Box::new(Wget::new(size, false)), at, warmup)
    }

    /// Queue the flow driven by an arbitrary app (e.g. a streaming session).
    pub fn open_with_app(&mut self, app: Box<dyn App>, at: SimTime, warmup: bool) -> usize {
        let req = OpenRequest {
            at,
            spec: self.transport.clone(),
            remote: Endpoint::new(SERVER_ADDRS[0], SERVER_PORT),
            app,
            warmup,
        };
        open_flow(&mut self.world, self.client, req)
    }

    /// Run until the flow in client slot `slot` has finished its workload
    /// and nothing of it is left in the world, or `horizon` is reached, and
    /// harvest it. The run advances in 100 ms slices and returns at the
    /// first boundary where the flow is done and either the world is
    /// quiescent ([`Self::is_quiescent`]) or the clock sits a whole number
    /// of [`HARVEST_MARK`]s past the call. Past a quiescent boundary no
    /// host runs again and the taps see no frame, so the harvest, the
    /// capture and every counter of the two hosts are what any later stop
    /// would read; only the immortal background sources, whose events are
    /// all that is left, are cut short. A flow that has finished but not
    /// quiesced by a mark (its close still under way, or stuck behind a
    /// lost final ACK) is harvested there, as every run used to be
    /// (DESIGN.md §5.15). `who` names the run if it livelocks.
    pub fn run_flow(&mut self, slot: usize, horizon: SimTime, who: &dyn fmt::Debug) -> ClientFlow {
        let Testbed { world, client, server, paths, .. } = self;
        let hosts = [*client, *server];
        let start = world.now();
        let cfg = Drive {
            tick: SimDuration::from_millis(100),
            horizon,
            mobility: None,
            who,
        };
        let mut flow = ClientFlow::default();
        drive(world, cfg, |world, now, _| {
            flow = harvest(world, *client, slot);
            flow.finished_at.is_some()
                && (now.saturating_since(start).as_nanos() % HARVEST_MARK.as_nanos() == 0
                    || quiescent(world, &hosts, paths))
        });
        flow
    }

    /// Whether nothing foreground is left: both hosts quiescent and every
    /// access link foreground-idle (see [`mpw_fleet::quiescent`]).
    pub fn is_quiescent(&self) -> bool {
        quiescent(&self.world, &[self.client, self.server], &self.paths)
    }
}

/// Harvest slot `slot` of host `client` (all zeros while it has not opened).
pub(crate) fn harvest(world: &World, client: AgentId, slot: usize) -> ClientFlow {
    world
        .agent::<Host>(client)
        .and_then(|h| client_flow(h, slot))
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlowConfig;
    use mpw_mptcp::{Coupling, Transport};

    #[test]
    #[should_panic(expected = r#"(livelock) in ("budget test", 3)"#)]
    fn exhausting_the_event_budget_aborts_the_run_naming_it() {
        let paths = [mpw_link::wifi_home(0.0), mpw_link::att_lte()];
        let transport = FlowConfig::mp2(Coupling::Coupled).transport();
        let mut tb = Testbed::build(3, paths, transport, None);
        tb.world.set_event_budget(500);
        let slot = tb.download(1 << 20, SimTime::from_millis(100), false);
        tb.run_flow(slot, SimTime::from_secs(60), &("budget test", 3));
    }

    /// The flow configures the server: a 4-path flow gets the second
    /// interface, and the accepted connection runs the client's coupling
    /// with room for every subflow, or is plain TCP for a single-path flow.
    #[test]
    fn the_flow_decides_the_servers_interfaces_and_config() {
        for (flow, ifaces, coupling) in [
            (FlowConfig::mp4(Coupling::Reno), 2, Some(Coupling::Reno)),
            (FlowConfig::mp2(Coupling::Olia), 1, Some(Coupling::Olia)),
            (FlowConfig::SpCellular, 1, None),
        ] {
            let paths = [mpw_link::wifi_home(0.0), mpw_link::att_lte()];
            let mut tb = Testbed::build(5, paths, flow.transport(), None);
            let slot = tb.download(64 << 10, SimTime::from_millis(100), false);
            tb.run_flow(slot, SimTime::from_secs(60), &flow);
            let server = tb.world.agent::<Host>(tb.server).expect("server");
            assert_eq!(server.addrs().len(), ifaces, "{flow:?}");
            let accepted = match server.transport(0).expect("the accepted connection") {
                Transport::Mp(c) => Some((c.cfg.coupling, c.cfg.max_subflows)),
                Transport::Sp(_) => None,
            };
            assert_eq!(accepted, coupling.map(|c| (c, 8)), "{flow:?}");
        }
    }
}
