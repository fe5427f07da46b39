//! Building and driving one fleet world.
//!
//! One single-homed server behind two *shared* access networks (WiFi and
//! cellular) of the [`Topology`]: every client sends into the shared uplink
//! agent — so the drop-tail queue sees the sum of their load — and the
//! shared downlink's egress is a switch fanning frames back out by
//! destination IP (or the client itself, on a network only one client
//! joined). Queueing delay, bufferbloat, and loss are therefore
//! emergent properties of the population, exactly the effect the contention
//! artifacts sweep.

use mpw_http::{StreamingClient, Wget};
use mpw_link::BuiltPath;
use mpw_metrics::{FleetReport, FlowRecord};
use mpw_mptcp::{Host, MptcpConfig, OpenRequest, TransportSpec};
use mpw_sim::{AgentId, SimDuration, SimTime, World};
use mpw_tcp::{Addr, CcConfig, Endpoint, TcpConfig};

use crate::drive::{drive, open_flow, Drive};
use crate::harvest::{client_flow, ClientFlow};
use crate::spec::{Arrival, ClientClass, FleetSpec, FleetWorkload};
use crate::topology::Topology;

/// Server address/port for fleet worlds (one single-homed server; clients
/// join their second subflow against the same address, which the join
/// logic supports).
const SERVER_ADDR: Addr = Addr::new(192, 168, 1, 1);
const SERVER_PORT: u16 = 8080;

/// WiFi-side address of client `i` (10.0.x.y).
fn wifi_addr(i: u32) -> Addr {
    Addr::new(10, 0, (i >> 8) as u8, (i & 0xff) as u8)
}

/// Cellular-side address of client `i` (10.1.x.y).
fn cell_addr(i: u32) -> Addr {
    Addr::new(10, 1, (i >> 8) as u8, (i & 0xff) as u8)
}

/// A client opens at most one flow, in slot 0.
struct ClientState {
    agent: AgentId,
    class: ClientClass,
    /// Bytes its flow has delivered so far.
    bytes: u64,
    /// Its flow has finished, or it never opens one: its counters are
    /// final, so ticks skip it.
    done: bool,
}

/// A built, running fleet world plus its harvest state.
pub struct FleetRun {
    /// The simulation world (exposed for artifact-level inspection).
    pub world: World,
    /// Aggregate report (records already folded in).
    pub report: FleetReport,
    /// Per-flow records, one per client that opened its flow, in client
    /// order.
    pub records: Vec<FlowRecord>,
    /// Shared-path agent ids, for taps and assertions.
    pub wifi_path: BuiltPath,
    /// Cellular shared path.
    pub cell_path: BuiltPath,
    /// Server host agent id.
    pub server: AgentId,
}

fn fleet_mptcp(max_subflows: usize) -> MptcpConfig {
    MptcpConfig {
        max_subflows,
        ..MptcpConfig::default()
    }
}

/// One flow open of a client of `class` at `at`.
fn flow_request(class: ClientClass, spec: &FleetSpec, at: SimTime) -> OpenRequest {
    OpenRequest {
        at,
        spec: match class {
            ClientClass::WifiOnly | ClientClass::LteOnly => TransportSpec::Plain {
                tcp: TcpConfig::default(),
                cc: CcConfig::default(),
                if_index: 0,
            },
            ClientClass::Multipath => TransportSpec::Mptcp(fleet_mptcp(2)),
        },
        remote: Endpoint::new(SERVER_ADDR, SERVER_PORT),
        app: match &spec.workload {
            FleetWorkload::Download { size } => Box::new(Wget::new(*size, false)),
            FleetWorkload::Streaming { profile } => Box::new(StreamingClient::new(*profile)),
        },
        warmup: false,
    }
}

/// First-arrival schedule: a pure function of the spec and seed.
fn arrival_schedule(spec: &FleetSpec, world: &World) -> Vec<SimTime> {
    match spec.arrival {
        Arrival::Staggered { gap_ms } => (0..spec.n_clients)
            .map(|i| SimTime::from_millis(u64::from(i) * gap_ms))
            .collect(),
        Arrival::Poisson { mean_gap_ms } => {
            let mut rng = world.rng().stream("fleet.arrivals");
            let mut t = 0.0f64;
            (0..spec.n_clients)
                .map(|_| {
                    t += rng.exponential(mean_gap_ms as f64);
                    SimTime::from_nanos((t * 1e6) as u64)
                })
                .collect()
        }
    }
}

/// Build the world described by `spec`, run it to the horizon (or until
/// every flow completes), and harvest the aggregate report.
pub fn run_fleet(spec: &FleetSpec) -> FleetRun {
    run_fleet_windowed(spec, None, &mut |_| {})
}

/// [`run_fleet`] with an observation window for the allocation gate: the
/// mark closure fires with `0` at the first sampling tick at or after
/// `window.0` and with `1` at the first tick at or after `window.1`, from
/// outside the event loop — the bench snapshots its heap-op counter there.
pub fn run_fleet_windowed(
    spec: &FleetSpec,
    window: Option<(SimTime, SimTime)>,
    mark: &mut dyn FnMut(u8),
) -> FleetRun {
    // --- topology: population, server, the two shared access networks -----
    let mut topo = Topology::new(spec.seed);
    let mut mix_rng = topo.world.rng().stream("fleet.mix");
    let mut clients = Vec::with_capacity(spec.n_clients as usize);
    // `(agent, if_index, addr)` of every client interface on the WiFi (0)
    // and cellular (1) network.
    let mut on_net: [Vec<_>; 2] = Default::default();
    for i in 0..spec.n_clients {
        let class = spec.mix.draw(&mut mix_rng);
        // Interface k of the client joins network ifaces[k].1.
        let ifaces: &[(Addr, usize)] = match class {
            ClientClass::WifiOnly => &[(wifi_addr(i), 0)],
            ClientClass::LteOnly => &[(cell_addr(i), 1)],
            ClientClass::Multipath => &[(wifi_addr(i), 0), (cell_addr(i), 1)],
        };
        let rng = topo.world.rng().substream("fleet.client", u64::from(i));
        // 256 conn ids per client keeps ids unique across the fleet.
        let addrs = ifaces.iter().map(|&(addr, _)| addr).collect();
        let agent = topo.add_client(addrs, i * 256, rng);
        for (if_index, &(addr, net)) in ifaces.iter().enumerate() {
            on_net[net].push((agent, if_index, addr));
        }
        clients.push(ClientState {
            agent,
            class,
            bytes: 0,
            done: false,
        });
    }
    let s_rng = topo.world.rng().stream("fleet.server");
    let server = topo.add_server(vec![SERVER_ADDR], s_rng);
    let wifi = topo.add_access(&spec.wifi.spec(spec.period), "fleet.wifi", &on_net[0]);
    let cell = topo.add_access(&spec.carrier.preset(), "fleet.cell", &on_net[1]);
    topo.serve(SERVER_PORT, fleet_mptcp(8));
    let (wifi_path, cell_path) = (topo.paths[wifi], topo.paths[cell]);
    let mut world = topo.world;

    // --- first arrivals ---------------------------------------------------
    let arrivals = arrival_schedule(spec, &world);
    let horizon = SimTime::from_millis(spec.horizon_ms);
    for (c, &at) in clients.iter_mut().zip(&arrivals) {
        if at < horizon {
            open_flow(&mut world, c.agent, flow_request(c.class, spec, at));
        } else {
            c.done = true;
        }
    }

    // --- drive ------------------------------------------------------------
    let mut report = FleetReport::new(spec.goodput_bucket_ms);
    report.clients = u64::from(spec.n_clients);
    let mut delivered_cum: u64 = 0;
    let mut marked = [false; 2];
    let cfg = Drive {
        tick: SimDuration::from_millis(spec.goodput_bucket_ms.max(1)),
        horizon,
        mobility: None,
        who: spec,
    };
    drive(&mut world, cfg, |world, now, _ops| {
        if let Some((start, end)) = window {
            if !marked[0] && now >= start {
                marked[0] = true;
                mark(0);
            }
            if marked[0] && !marked[1] && now >= end {
                marked[1] = true;
                mark(1);
            }
        }

        // Aggregate goodput sample (fleet-wide delivered-byte delta).
        let mut all_done = true;
        for c in clients.iter_mut().filter(|c| !c.done) {
            let host = world.agent::<Host>(c.agent).expect("client host");
            // No slot yet: the open is still queued.
            if let Some(flow) = client_flow(host, 0) {
                c.bytes = flow.delivered;
                c.done = flow.finished_at.is_some();
            }
            all_done &= c.done;
        }
        let total: u64 = clients.iter().map(|c| c.bytes).sum();
        if total > delivered_cum {
            report.absorb_goodput(now.as_nanos() / 1_000_000, total - delivered_cum);
            delivered_cum = total;
        }
        all_done
    });

    // --- harvest ----------------------------------------------------------
    let mut records = Vec::new();
    for (i, c) in (0..).zip(&clients) {
        let host = world.agent::<Host>(c.agent).expect("client host");
        if let Some(flow) = client_flow(host, 0) {
            records.push(flow_record(&flow, i, c.class));
        }
    }
    for r in &records {
        report.absorb(r);
    }
    FleetRun {
        world,
        report,
        records,
        wifi_path,
        cell_path,
        server,
    }
}

/// The fleet's view of one harvested flow.
fn flow_record(flow: &ClientFlow, client: u32, class: ClientClass) -> FlowRecord {
    // Interface 0 of an LTE-only client is its cellular one.
    let (wifi_bytes, cell_bytes) = match class {
        ClientClass::LteOnly => (0, flow.per_if[0]),
        _ => (flow.per_if[0], flow.per_if[1]),
    };
    let fct_us = flow.download_time().map_or(0, |d| d.as_nanos() / 1_000);
    FlowRecord {
        client,
        class: class.label().to_string(),
        started_ms: flow.opened_at.as_nanos() / 1_000_000,
        completed: flow.finished_at.is_some(),
        fct_us,
        bytes: flow.delivered,
        wifi_bytes,
        cell_bytes,
        rate_kbps: if flow.finished_at.is_some() {
            (flow.delivered * 8_000).checked_div(fct_us).unwrap_or(0)
        } else {
            0
        },
        late_blocks: u64::from(flow.late_blocks),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PathMix;

    #[test]
    fn tiny_fleet_completes_downloads() {
        let mut spec = FleetSpec::smoke(6, 11);
        spec.workload = FleetWorkload::Download { size: 16 << 10 };
        spec.horizon_ms = 30_000;
        let run = run_fleet(&spec);
        assert_eq!(run.report.clients, 6);
        assert_eq!(run.report.flows_started, 6);
        assert_eq!(
            run.report.flows_completed, 6,
            "all small downloads should finish well before the horizon: {:?}",
            run.records
        );
        assert!(run.report.bytes >= 6 * (16 << 10));
        // The fan-out switches saw traffic and dropped nothing on the floor.
        let wifi_sw_forwarded: u64 = run.report.wifi_bytes;
        assert!(wifi_sw_forwarded > 0);
    }

    #[test]
    fn n1_multipath_uses_both_paths() {
        let mut spec = FleetSpec::smoke(1, 5);
        spec.mix = PathMix::all_multipath();
        spec.workload = FleetWorkload::Download { size: 2 << 20 };
        spec.horizon_ms = 120_000;
        let run = run_fleet(&spec);
        assert_eq!(run.report.flows_completed, 1);
        assert!(run.report.wifi_bytes > 0, "wifi carried nothing");
        assert!(run.report.cell_bytes > 0, "cellular carried nothing");
        assert_eq!(
            run.report.bytes,
            run.report.wifi_bytes + run.report.cell_bytes
        );
    }

    #[test]
    fn replay_is_byte_identical() {
        let spec = FleetSpec::smoke(12, 3);
        let a = run_fleet(&spec);
        let b = run_fleet(&spec);
        assert_eq!(
            mpw_metrics::to_json(&a.report),
            mpw_metrics::to_json(&b.report)
        );
    }
}
