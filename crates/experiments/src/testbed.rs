//! The paper's testbed (§3.1, Figure 1), as a reusable simulation topology.
//!
//! A dual-homed server ("UMass") reachable through up to two access paths
//! from the mobile client: its WiFi interface and one cellular carrier.
//! For 4-path experiments the server's secondary interface is enabled and
//! advertised via ADD_ADDR. An option-stripping middlebox can be inserted
//! (the AT&T port-80 proxy scenario).

use std::fmt;

use mpw_capture::SharedHub;
use mpw_fleet::{client_flow, drive, open_flow, quiescent, ClientFlow, Drive, Topology};
use mpw_http::Wget;
use mpw_link::{BuiltPath, PathSpec};
use mpw_mptcp::{Host, MptcpConfig, OpenRequest, TransportSpec};
use mpw_sim::{AgentId, SimDuration, SimTime, World};
use mpw_tcp::{Addr, Endpoint};

/// Client interface addresses: index 0 = WiFi (the default path), 1 = cellular.
pub const CLIENT_ADDRS: [Addr; 2] = [Addr::new(10, 0, 1, 2), Addr::new(10, 0, 2, 2)];
/// Server interface addresses (two subnets of the campus network).
pub const SERVER_ADDRS: [Addr; 2] = [Addr::new(192, 168, 1, 1), Addr::new(192, 168, 2, 1)];
/// The Apache port (8080 — AT&T's proxy mangled port 80, §3.1).
pub const SERVER_PORT: u16 = 8080;

/// Testbed construction parameters.
pub struct TestbedSpec {
    /// Root RNG seed for the whole world.
    pub seed: u64,
    /// One access path per client interface (index 0 = WiFi).
    pub paths: Vec<PathSpec>,
    /// Enable the server's secondary interface (4-path experiments).
    pub dual_homed_server: bool,
    /// Insert MPTCP-option-stripping middleboxes on path 0.
    pub strip_mptcp_on_path0: bool,
    /// MPTCP configuration for connections the server accepts. The paper
    /// switched congestion controllers *at the server* (§3.2) — the server
    /// is the data sender, so its controller is the one that matters.
    pub server_mptcp: MptcpConfig,
    /// Optional wire-capture hub. When set, every path gets the paper's
    /// four tcpdump vantages (both link directions, seen at both ends)
    /// registered on the hub and tapped on the link agents. Taps are pure
    /// observation, so a captured run is event-identical to a plain one.
    pub capture: Option<SharedHub>,
}

impl TestbedSpec {
    /// Standard 2-path testbed: one WiFi spec + one cellular spec.
    pub fn two_path(seed: u64, wifi: PathSpec, cellular: PathSpec) -> Self {
        TestbedSpec {
            seed,
            paths: vec![wifi, cellular],
            dual_homed_server: false,
            strip_mptcp_on_path0: false,
            server_mptcp: MptcpConfig {
                max_subflows: 8,
                ..MptcpConfig::default()
            },
            capture: None,
        }
    }

    /// This spec with the server running the client's MPTCP configuration
    /// (the paper switched congestion controller and scheduler at the
    /// server, the data sender — §3.2), with room for every subflow.
    pub fn mirroring(mut self, client: &TransportSpec) -> Self {
        if let TransportSpec::Mptcp(cfg) = client {
            self.server_mptcp = MptcpConfig {
                max_subflows: 8,
                ..cfg.clone()
            };
        }
        self
    }
}

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
    /// The server's primary endpoint.
    pub server_ep: Endpoint,
}

impl Testbed {
    /// Build the topology from a spec: the one-client case of the shared
    /// [`Topology`], every access path delivering straight to the client.
    /// The server listens with an `HttpServer` per accepted connection.
    pub fn build(spec: TestbedSpec) -> Testbed {
        let mut topo = Topology::new(spec.seed);
        let client_addrs = &CLIENT_ADDRS[..spec.paths.len()];
        let server_ifs = if spec.dual_homed_server { 2 } else { 1 };
        let c_rng = topo.world.rng().stream("host.client");
        let s_rng = topo.world.rng().stream("host.server");
        let client = topo.add_client(client_addrs.to_vec(), 0, c_rng);
        let server = topo.add_server(SERVER_ADDRS[..server_ifs].to_vec(), s_rng);
        for (i, pspec) in spec.paths.iter().enumerate() {
            let strip = spec.strip_mptcp_on_path0 && i == 0;
            let iface = [(client, i, client_addrs[i])];
            let net = topo.add_access(pspec, &format!("path{i}"), &iface, strip);
            if let Some(hub) = &spec.capture {
                let vantages = hub.borrow_mut().add_path(i as u8);
                topo.tap(net, hub.clone(), vantages);
            }
        }
        topo.serve(SERVER_PORT, spec.server_mptcp);
        Testbed {
            paths: topo.paths,
            world: topo.world,
            client,
            server,
            server_ep: Endpoint::new(SERVER_ADDRS[0], SERVER_PORT),
        }
    }

    /// Build `spec`, open one flow running `app` over `transport` at 100 ms
    /// (after the paper's warm-up pings) and run it to completion or
    /// `horizon`. Returns the testbed, the flow's client slot and its
    /// harvest.
    pub fn run_single(
        spec: TestbedSpec,
        transport: TransportSpec,
        app: Box<dyn mpw_mptcp::App>,
        horizon: SimTime,
    ) -> (Testbed, usize, ClientFlow) {
        let seed = spec.seed;
        let mut tb = Testbed::build(spec);
        let slot = tb.open_with_app(transport, app, SimTime::from_millis(100), true);
        let flow = tb.run_flow(slot, horizon, &("single flow, seed", seed));
        (tb, slot, flow)
    }

    /// Queue a wget download of `size` bytes starting at `at`, optionally
    /// preceded by the paper's two warm-up pings on the cellular interface.
    /// Returns the client slot index the result will appear in.
    pub fn download(
        &mut self,
        spec: TransportSpec,
        size: u64,
        at: SimTime,
        warmup_pings: bool,
    ) -> usize {
        self.open_with_app(spec, Box::new(Wget::new(size, false)), at, warmup_pings)
    }

    /// Queue an arbitrary app-driven connection (e.g. a streaming session).
    pub fn open_with_app(
        &mut self,
        spec: TransportSpec,
        app: Box<dyn mpw_mptcp::App>,
        at: SimTime,
        warmup_pings: bool,
    ) -> usize {
        let req = OpenRequest {
            at,
            spec,
            remote: self.server_ep,
            app,
            warmup_pings: if warmup_pings { 2 } else { 0 },
            warmup_if: 1,
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

    #[test]
    #[should_panic(expected = r#"(livelock) in ("budget test", 3)"#)]
    fn exhausting_the_event_budget_aborts_the_run_naming_it() {
        let spec = TestbedSpec::two_path(3, mpw_link::wifi_home(0.0), mpw_link::att_lte());
        let mut tb = Testbed::build(spec);
        tb.world.set_event_budget(500);
        let transport = FlowConfig::mp2(mpw_mptcp::Coupling::Coupled).transport();
        let slot = tb.download(transport, 1 << 20, SimTime::from_millis(100), false);
        tb.run_flow(slot, SimTime::from_secs(60), &("budget test", 3));
    }
}
