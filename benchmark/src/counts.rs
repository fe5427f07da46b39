//! Exact work counts of one traced repetition, read from outside through the
//! public stats of the world a run leaves behind. The simulator is
//! deterministic, so these repeat exactly between runs of the same build and
//! compare exactly between two builds.

use mpw_experiments::{Measurement, Testbed};
use mpw_fleet::FleetRun;
use mpw_link::{BuiltPath, LinkAgent};
use mpw_mptcp::{Host, Transport};
use mpw_sim::{AgentId, World};

#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counts {
    pub flows: u64,
    /// Bytes delivered to the applications.
    pub app_bytes: u64,
    // sim
    pub events: u64,
    pub stale_timer_pops: u64,
    pub compactions: u64,
    // link: frames accepted into / dropped by the WiFi and cellular queues,
    // both directions, background traffic included.
    pub wifi_frames: u64,
    pub cell_frames: u64,
    pub drop_overflow: u64,
    pub drop_channel: u64,
    pub peak_queue_bytes: u64,
    // tcp, at the server (the data sender)
    pub segs_sent: u64,
    pub segs_received: u64,
    pub data_segs: u64,
    pub rexmit_segs: u64,
    /// Data segments sent on subflows of MPTCP connections.
    pub mp_data_segs: u64,
    /// RTT samples pushed into the streaming summaries.
    pub rtt_samples: u64,
    // mptcp, at the clients
    pub wifi_bytes: u64,
    pub cell_bytes: u64,
    pub ofo_samples: u64,
    pub ofo_ms_sum: f64,
    // capture (capture_analyze and the capture drive only)
    pub pcap_bytes: u64,
    pub captured_frames: u64,
}

impl Counts {
    fn absorb_world(&mut self, world: &World) {
        self.events += world.events_processed();
        let stats = world.stats();
        self.stale_timer_pops += stats.stale_timer_pops;
        self.compactions += stats.compactions;
    }

    fn absorb_path(&mut self, world: &World, path: &BuiltPath, cellular: bool) {
        for id in [path.uplink, path.downlink] {
            let Some(link) = world.agent::<LinkAgent>(id) else {
                continue;
            };
            let s = link.stats();
            let offered = s.enqueued + s.dropped_overflow;
            if cellular {
                self.cell_frames += offered;
            } else {
                self.wifi_frames += offered;
            }
            self.drop_overflow += s.dropped_overflow;
            self.drop_channel += s.dropped_channel;
            self.peak_queue_bytes = self.peak_queue_bytes.max(s.peak_queue_bytes);
        }
    }

    /// The data sender's socket counters, over every connection it accepted.
    fn absorb_server(&mut self, world: &World, server: AgentId) {
        let Some(host) = world.agent::<Host>(server) else {
            return;
        };
        for slot in 0..host.slot_count() {
            let (socks, multipath): (Vec<_>, bool) = match host.transport(slot) {
                Some(Transport::Mp(c)) => (c.subflows.iter().map(|s| &s.sock).collect(), true),
                Some(Transport::Sp(s)) => (vec![s], false),
                None => continue,
            };
            for sock in socks {
                let st = sock.stats();
                self.segs_sent += st.segs_sent;
                self.segs_received += st.segs_received;
                self.data_segs += st.data_segs_sent;
                self.rexmit_segs += st.rexmit_segs;
                self.rtt_samples += sock.rtt().summary().count();
                if multipath {
                    self.mp_data_segs += st.data_segs_sent;
                }
            }
        }
    }

    /// Counts of one single-flow run: its world plus its measurement.
    pub fn absorb_testbed(&mut self, tb: &Testbed, m: &Measurement) {
        self.flows += 1;
        self.app_bytes += m.bytes;
        self.absorb_world(&tb.world);
        for (i, path) in tb.paths.iter().enumerate() {
            self.absorb_path(&tb.world, path, i == 1);
        }
        self.absorb_server(&tb.world, tb.server);
        for s in &m.subflows {
            if s.if_index == 1 {
                self.cell_bytes += s.delivered_bytes;
            } else {
                self.wifi_bytes += s.delivered_bytes;
            }
        }
        self.ofo_samples += m.ofo.count();
        if m.ofo.count() > 0 {
            self.ofo_ms_sum += m.ofo.mean() * m.ofo.count() as f64;
        }
    }

    /// Counts of one fleet run.
    pub fn absorb_fleet(&mut self, run: &FleetRun, n_clients: u32) {
        self.flows += run.report.flows_started;
        self.app_bytes += run.report.bytes;
        self.absorb_world(&run.world);
        self.absorb_path(&run.world, &run.wifi_path, false);
        self.absorb_path(&run.world, &run.cell_path, true);
        self.absorb_server(&run.world, run.server);
        self.wifi_bytes += run.report.wifi_bytes;
        self.cell_bytes += run.report.cell_bytes;
        // `FleetRun` does not list its client hosts; they are the `Host`
        // agents other than the server among the ids the engine hands out
        // in sequence (server, switches, two paths with their background
        // sources, then the clients).
        let last = run.server + n_clients + 64;
        for id in (0..=last).filter(|&id| id != run.server) {
            let Some(host) = run.world.agent::<Host>(id) else {
                continue;
            };
            for slot in 0..host.slot_count() {
                if let Some(Transport::Mp(c)) = host.transport(slot) {
                    let ofo = c.ofo_summary();
                    self.ofo_samples += ofo.count();
                    if ofo.count() > 0 {
                        self.ofo_ms_sum += ofo.mean() * ofo.count() as f64;
                    }
                }
            }
        }
    }
}
