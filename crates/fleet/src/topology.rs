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
//! created; the RNG stream labels are the caller's data. The server's
//! address and port are not: every run reaches [`SERVER_ADDR`] on
//! [`SERVER_PORT`]. Clients need no id namespace: each opens one
//! connection, from the same local ports as every other client, and the
//! server tells them apart by address.

use mpw_http::HttpServer;
use mpw_link::{build_path, BuiltPath, LinkAgent, LinkTap, PathSpec};
use mpw_mptcp::{Host, MptcpConfig};
use mpw_sim::tap::SharedObserver;
use mpw_sim::trace::TraceLevel;
use mpw_sim::{AgentId, Frame, SimRng, Switch, World};
use mpw_tcp::{peek_ip_dst, Addr};

/// The server's primary address, the one every client connects to.
pub const SERVER_ADDR: Addr = Addr::new(192, 168, 1, 1);
/// The port the server answers on: the paper's Apache on 8080, as AT&T's
/// proxy mangled port 80 (§3.1).
pub const SERVER_PORT: u16 = 8080;

/// A world under construction: hosts, access networks and their wiring.
pub struct Topology {
    /// The simulation world.
    pub world: World,
    /// The link agents of each access network, in build order.
    pub paths: Vec<BuiltPath>,
    /// Where each network's downlink and uplink deliver, as `(agent, port)`.
    ends: Vec<[(AgentId, u16); 2]>,
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
            ends: Vec::new(),
            server: None,
        }
    }

    /// The server host.
    pub fn server(&self) -> AgentId {
        self.server.expect("add_server comes before the steps that wire it")
    }

    /// Add the server host with one interface per address.
    pub fn add_server(&mut self, addrs: Vec<Addr>, rng: SimRng) -> AgentId {
        let host = Host::new(addrs, rng);
        let id = self.world.add_agent(Box::new(host));
        self.server = Some(id);
        id
    }

    /// Add a client host with one interface per address.
    pub fn add_client(&mut self, addrs: Vec<Addr>, rng: SimRng) -> AgentId {
        self.world.add_agent(Box::new(Host::new(addrs, rng)))
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
        self.ends.push([to_client, to_server]);
        index
    }

    /// Observe access network `net`, which serves one client, at the
    /// paper's four tcpdump vantages, given as capture-interface ids in the
    /// order `(up@client, up@server, down@server, down@client)`. The
    /// vantages are taps on the hosts: each end sees the frames it sends
    /// into the network and those the network hands it, when it handles
    /// them. Each link's drops are reported on the vantage of the host that
    /// sent into it.
    pub fn tap(&mut self, net: usize, observer: SharedObserver, vantages: (u32, u32, u32, u32)) {
        let (uc, us, sd, cd) = vantages;
        let path = self.paths[net];
        let [(client, client_port), (server, server_port)] = self.ends[net];
        self.host_mut(client).tap(observer.clone(), (path.uplink, uc), (client_port, cd));
        self.host_mut(server).tap(observer.clone(), (path.downlink, sd), (server_port, us));
        for (link, drops) in [(path.uplink, uc), (path.downlink, sd)] {
            self.world
                .agent_mut::<LinkAgent>(link)
                .expect("link agent")
                .set_tap(LinkTap { observer: observer.clone(), drops });
        }
    }

    /// Make the server answer on [`SERVER_PORT`] with an [`HttpServer`]
    /// per accepted connection, each MPTCP one running `mptcp`; its default
    /// route is the first access network.
    pub fn serve(&mut self, mptcp: MptcpConfig) {
        let downlink = self.paths[0].downlink;
        let server = self.server();
        let host = self.host_mut(server);
        host.set_iface_link(0, downlink);
        host.listen(SERVER_PORT, mptcp, Box::new(|| Box::new(HttpServer::new())));
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
    use mpw_tcp::Endpoint;

    /// `n` one-interface clients on one wired network, each downloading
    /// 16 KB from the server over plain TCP; returns the topology after
    /// 10 s and the clients.
    fn download_over_one_net(n: u8) -> (Topology, Vec<AgentId>) {
        let mut topo = Topology::new(7);
        let clients: Vec<_> = (0..n)
            .map(|i| {
                let addr = Addr::new(10, 0, 0, i + 2);
                let rng = topo.world.rng().substream("client", u64::from(i));
                (topo.add_client(vec![addr], rng), 0, addr)
            })
            .collect();
        let rng = topo.world.rng().stream("server");
        topo.add_server(vec![SERVER_ADDR], rng);
        topo.add_access(&mpw_link::wired_lan(), "net", &clients);
        topo.serve(MptcpConfig::default());
        for &(client, ..) in &clients {
            let req = OpenRequest {
                spec: TransportSpec::Plain { if_index: 0 },
                remote: Endpoint::new(SERVER_ADDR, SERVER_PORT),
                app: Box::new(Wget::new(16 << 10, false)),
                warmup: false,
            };
            open_flow(&mut topo.world, client, SimTime::ZERO, req);
        }
        topo.world.run_until(SimTime::from_secs(10));
        let clients: Vec<_> = clients.into_iter().map(|(client, ..)| client).collect();
        for &client in &clients {
            let host = topo.world.agent::<Host>(client).expect("client host");
            let flow = client_flow(host).expect("the download");
            assert_eq!(flow.app_bytes, 16 << 10, "client {client} over {n} clients");
        }
        (topo, clients)
    }

    /// The ids of the topology's `Switch` agents. The wired network has no
    /// background sources: its downlink is the last agent built.
    fn switches(topo: &Topology) -> Vec<AgentId> {
        let last = topo.paths[0].downlink;
        (0..=last).filter(|&id| topo.world.agent::<Switch>(id).is_some()).collect()
    }

    #[test]
    fn a_lone_client_gets_its_frames_straight_from_the_downlink() {
        let (topo, _) = download_over_one_net(1);
        assert_eq!(switches(&topo), []);
    }

    #[test]
    fn two_clients_share_the_network_through_one_switch() {
        let (topo, _) = download_over_one_net(2);
        let [switch] = switches(&topo)[..] else { panic!("one switch, not {:?}", switches(&topo)) };
        let switch = topo.world.agent::<Switch>(switch).expect("switch agent");
        assert!(switch.forwarded > 0);
        assert_eq!(switch.unrouted, 0);
    }

    /// A connection's id is its slot, so every client opens from the same
    /// local port; the server tells the two connections apart by address.
    #[test]
    fn clients_on_one_network_open_from_one_port() {
        let (topo, clients) = download_over_one_net(2);
        let ports: Vec<_> = clients
            .iter()
            .map(|&client| {
                let host = topo.world.agent::<Host>(client).expect("client host");
                host.transport(0).and_then(|t| t.as_sp()).expect("a plain socket").local().port
            })
            .collect();
        assert_eq!(ports, [30_000, 30_000]);
        let server = topo.world.agent::<Host>(topo.server()).expect("server host");
        assert_eq!(server.slot_count(), 2);
        assert_eq!(server.no_socket_drops, 0);
    }
}
