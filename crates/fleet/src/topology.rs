//! The one topology every run is built on: client hosts reaching one
//! server through access networks (duplex `mpw-link` pairs).
//!
//! The paper's testbed (§3.1, Figure 1) is the one-client case, each access
//! network delivering straight to that client; a fleet is the N-client
//! case, each network's downlink fanning out through an [`mpw_sim::Switch`]
//! by destination address while every client transmits into the one shared
//! uplink queue — so bufferbloat and loss there are emergent properties of
//! the population. The builder is a sequence of steps the caller invokes in
//! the order it wants the agents created: creation order and the RNG stream
//! labels feed event tie-breaking, so both are the caller's data.

use mpw_http::HttpServer;
use mpw_link::{build_path, BuiltPath, LinkAgent, LinkTap, PathSpec};
use mpw_mptcp::host::OptionStrippingMiddlebox;
use mpw_mptcp::{Host, MptcpConfig};
use mpw_sim::tap::SharedObserver;
use mpw_sim::trace::TraceLevel;
use mpw_sim::{AgentId, Frame, SimRng, Switch, World};
use mpw_tcp::{peek_ip_dst, Addr, CcConfig, TcpConfig};

/// Connection ids the server hands out start here, clear of every client's.
const SERVER_CONN_ID_BASE: u32 = 1 << 16;

/// Where an access network's downlink delivers.
#[derive(Clone, Copy, Debug)]
pub enum Delivery {
    /// Straight to one client host. `strip_mptcp` puts an
    /// option-stripping middlebox in each direction (the AT&T port-80
    /// proxy of §3.1).
    Direct {
        /// The client.
        client: AgentId,
        /// Insert the middleboxes.
        strip_mptcp: bool,
    },
    /// Through a switch (from [`Topology::add_switch`]) that fans frames
    /// out to every attached client by destination address.
    Shared {
        /// The switch.
        switch: AgentId,
    },
}

/// One built access network.
#[derive(Clone, Copy, Debug)]
pub struct AccessNet {
    /// Its link agents.
    pub path: BuiltPath,
    /// The downlink fan-out switch of a shared network.
    pub switch: Option<AgentId>,
}

/// A world under construction: hosts, access networks and their wiring.
pub struct Topology {
    /// The simulation world.
    pub world: World,
    /// Access networks in build order.
    pub nets: Vec<AccessNet>,
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
            nets: Vec::new(),
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

    /// Add a destination-address switch for a shared access network.
    pub fn add_switch(&mut self) -> AgentId {
        self.world.add_agent(Box::new(Switch::new(classify_dst)))
    }

    /// Build one access network between its clients and the server; returns
    /// its index in [`Self::nets`]. `label` scopes the RNG streams of its
    /// links and background sources.
    pub fn add_access(&mut self, spec: &PathSpec, label: &str, delivery: Delivery) -> usize {
        let server = self.server();
        let index = self.nets.len();
        let (to_client, to_server, switch) = match delivery {
            Delivery::Direct { client, strip_mptcp: true } => {
                let up = OptionStrippingMiddlebox::new((server, 0));
                let up = self.world.add_agent(Box::new(up));
                let down = OptionStrippingMiddlebox::new((client, 0));
                let down = self.world.add_agent(Box::new(down));
                ((down, 0), (up, 0), None)
            }
            Delivery::Direct { client, strip_mptcp: false } => {
                ((client, index as u16), (server, index as u16), None)
            }
            Delivery::Shared { switch } => ((switch, 0), (server, 0), Some(switch)),
        };
        let path = build_path(&mut self.world, spec, to_client, to_server, label);
        self.nets.push(AccessNet { path, switch });
        index
    }

    /// Attach interface `if_index` (address `addr`) of `client` to access
    /// network `net`: the client transmits into its uplink, the server (and
    /// the switch of a shared network) routes `addr` back down it.
    pub fn attach(&mut self, client: AgentId, if_index: usize, addr: Addr, net: usize) {
        let AccessNet { path, switch } = self.nets[net];
        self.host_mut(client).set_iface_link(if_index, path.uplink);
        if let Some(switch) = switch {
            self.world
                .agent_mut::<Switch>(switch)
                .expect("switch agent")
                .add_route(u64::from(addr.0), (client, 0));
        }
        let server = self.server();
        self.host_mut(server).add_route(addr, path.downlink);
    }

    /// Observe access network `net` at the paper's four tcpdump vantages,
    /// given as capture-interface ids in the order `(up@client, up@server,
    /// down@server, down@client)`: a link's ingress tap is the sniffer at
    /// its sender, its egress tap the one at its receiver, and link drops
    /// are stamped with the transmit-side vantage they would have crossed.
    pub fn tap(&mut self, net: usize, observer: SharedObserver, vantages: (u32, u32, u32, u32)) {
        let (uc, us, sd, cd) = vantages;
        let path = self.nets[net].path;
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
    pub fn serve(&mut self, port: u16, mptcp: MptcpConfig, tcp: TcpConfig) {
        let downlink = self.nets[0].path.downlink;
        let server = self.server();
        let host = self.host_mut(server);
        host.set_iface_link(0, downlink);
        host.listen(
            port,
            mptcp,
            (tcp, CcConfig::default()),
            Box::new(|_conn_id| Box::new(HttpServer::new())),
        );
    }

    fn host_mut(&mut self, id: AgentId) -> &mut Host {
        self.world.agent_mut::<Host>(id).expect("host agent")
    }
}
