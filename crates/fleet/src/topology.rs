//! The one topology every run is built on: client hosts reaching one
//! server through access networks (duplex `mpw-link` pairs).
//!
//! The paper's testbed (§3.1, Figure 1) is the one-client case, each access
//! network delivering straight to that client; a fleet is the N-client
//! case, a network that serves two or more clients fanning its downlink out
//! through an [`mpw_sim::Switch`] by destination address while every client
//! transmits into the one shared uplink queue — so bufferbloat and loss
//! there are emergent properties of the population. The builder is a
//! sequence of steps the caller invokes in the order it wants the agents
//! created; the RNG stream labels are the caller's data.

use mpw_http::HttpServer;
use mpw_link::{build_path, BuiltPath, LinkAgent, LinkTap, PathSpec};
use mpw_mptcp::{Host, MptcpConfig};
use mpw_sim::tap::SharedObserver;
use mpw_sim::trace::TraceLevel;
use mpw_sim::{AgentId, Frame, SimRng, Switch, World};
use mpw_tcp::{peek_ip_dst, Addr};

/// Connection ids the server hands out start here, clear of every client's.
const SERVER_CONN_ID_BASE: u32 = 1 << 16;

/// A world under construction: hosts, access networks and their wiring.
pub struct Topology {
    /// The simulation world.
    pub world: World,
    /// The link agents of each access network, in build order.
    pub paths: Vec<BuiltPath>,
    server: Option<AgentId>,
}

fn classify_dst(frame: &Frame) -> Option<u64> {
    peek_ip_dst(&frame.bytes).map(|a| u64::from(a.0))
}

impl Topology {
    /// An empty world.
    pub fn new(seed: u64) -> Topology {
        Topology {
            world: World::new(seed, TraceLevel::Off),
            paths: Vec::new(),
            server: None,
        }
    }

    /// The server host.
    pub fn server(&self) -> AgentId {
        self.server.expect("add_server comes before the steps that wire it")
    }

    /// Add the server host with one interface per address.
    pub fn add_server(&mut self, addrs: Vec<Addr>, rng: SimRng) -> AgentId {
        let host = Host::new(addrs, SERVER_CONN_ID_BASE, rng);
        let id = self.world.add_agent(Box::new(host));
        self.server = Some(id);
        id
    }

    /// Add a client host with one interface per address.
    pub fn add_client(&mut self, addrs: Vec<Addr>, conn_id_base: u32, rng: SimRng) -> AgentId {
        self.world
            .add_agent(Box::new(Host::new(addrs, conn_id_base, rng)))
    }

    /// Build one access network between the server and `clients`, each
    /// given as `(agent, if_index, addr)`: interface `if_index` (address
    /// `addr`) of that client transmits into the network's uplink, and the
    /// server routes `addr` back down its downlink. The downlink delivers
    /// straight to a lone client, and through a [`Switch`] that fans frames
    /// out by destination address when there are two or more. `label`
    /// scopes the RNG streams of its links and background sources.
    /// Returns the network's index in [`Self::paths`].
    pub fn add_access(
        &mut self,
        spec: &PathSpec,
        label: &str,
        clients: &[(AgentId, usize, Addr)],
    ) -> usize {
        let server = self.server();
        let index = self.paths.len();
        let (to_client, to_server) = match *clients {
            [(client, if_index, _)] => ((client, if_index as u16), (server, index as u16)),
            _ => {
                let mut switch = Switch::new(classify_dst);
                for &(client, _, addr) in clients {
                    switch.add_route(u64::from(addr.0), (client, 0));
                }
                let switch = self.world.add_agent(Box::new(switch));
                ((switch, 0), (server, 0))
            }
        };
        let path = build_path(&mut self.world, spec, to_client, to_server, label);
        for &(client, if_index, addr) in clients {
            self.host_mut(client).set_iface_link(if_index, path.uplink);
            self.host_mut(server).add_route(addr, path.downlink);
        }
        self.paths.push(path);
        index
    }

    /// Observe access network `net` at the paper's four tcpdump vantages,
    /// given as capture-interface ids in the order `(up@client, up@server,
    /// down@server, down@client)`: a link's ingress tap is the sniffer at
    /// its sender, its egress tap the one at its receiver, and link drops
    /// are stamped with the transmit-side vantage they would have crossed.
    pub fn tap(&mut self, net: usize, observer: SharedObserver, vantages: (u32, u32, u32, u32)) {
        let (uc, us, sd, cd) = vantages;
        let path = self.paths[net];
        for (link, ingress, egress) in [(path.uplink, uc, us), (path.downlink, sd, cd)] {
            self.world
                .agent_mut::<LinkAgent>(link)
                .expect("link agent")
                .set_tap(LinkTap {
                    observer: observer.clone(),
                    ingress: Some(ingress),
                    egress: Some(egress),
                    drops: Some(ingress),
                    background: false,
                });
        }
    }

    /// Make the server answer on `port` with an [`HttpServer`] per accepted
    /// connection; its default route is the first access network.
    pub fn serve(&mut self, port: u16, mptcp: MptcpConfig) {
        let downlink = self.paths[0].downlink;
        let server = self.server();
        let host = self.host_mut(server);
        host.set_iface_link(0, downlink);
        host.listen(
            port,
            mptcp,
            Box::new(|_conn_id| Box::new(HttpServer::new())),
        );
    }

    fn host_mut(&mut self, id: AgentId) -> &mut Host {
        self.world.agent_mut::<Host>(id).expect("host agent")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::open_flow;
    use crate::harvest::client_flow;
    use mpw_http::Wget;
    use mpw_mptcp::{OpenRequest, TransportSpec};
    use mpw_sim::SimTime;
    use mpw_tcp::{CcConfig, Endpoint, TcpConfig};

    const SERVER: Addr = Addr::new(192, 168, 1, 1);

    /// `n` one-interface clients on one wired network, each downloading
    /// 16 KB from the server; returns the world after 10 s and the ids of
    /// its `Switch` agents.
    fn download_over_one_net(n: u8) -> (World, Vec<AgentId>) {
        let mut topo = Topology::new(7);
        let clients: Vec<_> = (0..n)
            .map(|i| {
                let addr = Addr::new(10, 0, 0, i + 2);
                let rng = topo.world.rng().substream("client", u64::from(i));
                (topo.add_client(vec![addr], u32::from(i) * 256, rng), 0, addr)
            })
            .collect();
        let rng = topo.world.rng().stream("server");
        topo.add_server(vec![SERVER], rng);
        topo.add_access(&mpw_link::wired_lan(), "net", &clients);
        topo.serve(8080, MptcpConfig::default());
        for &(client, ..) in &clients {
            let req = OpenRequest {
                at: SimTime::ZERO,
                spec: TransportSpec::Plain { tcp: TcpConfig::default(), cc: CcConfig::default(), if_index: 0 },
                remote: Endpoint::new(SERVER, 8080),
                app: Box::new(Wget::new(16 << 10, false)),
                warmup: false,
            };
            open_flow(&mut topo.world, client, req);
        }
        topo.world.run_until(SimTime::from_secs(10));
        for &(client, ..) in &clients {
            let host = topo.world.agent::<Host>(client).expect("client host");
            let flow = client_flow(host, 0).expect("the download");
            assert_eq!(flow.app_bytes, 16 << 10, "client {client} over {n} clients");
        }
        // The wired network has no background sources: its downlink is the
        // last agent built.
        let last = topo.paths[0].downlink;
        let switches = (0..=last).filter(|&id| topo.world.agent::<Switch>(id).is_some()).collect();
        (topo.world, switches)
    }

    #[test]
    fn a_lone_client_gets_its_frames_straight_from_the_downlink() {
        let (_, switches) = download_over_one_net(1);
        assert_eq!(switches, []);
    }

    #[test]
    fn two_clients_share_the_network_through_one_switch() {
        let (world, switches) = download_over_one_net(2);
        let [switch] = switches[..] else { panic!("one switch, not {switches:?}") };
        let switch = world.agent::<Switch>(switch).expect("switch agent");
        assert!(switch.forwarded > 0);
        assert_eq!(switch.unrouted, 0);
    }
}
