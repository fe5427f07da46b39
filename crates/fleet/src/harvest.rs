//! Reading a flow's counters off its two hosts.
//!
//! One client-side and one server-side harvest; the per-flow records of
//! every harness ([`FlowRecord`](mpw_metrics::FlowRecord) here, the
//! measurement types of `mpw-experiments`) are views of what they return.
//! Each fact is read where it is recorded: the bytes each interface
//! received come from the receiver ([`ClientFlow::per_if`]), the segment
//! counts and RTTs from the sender ([`SenderSubflow`]). The two ends list
//! their subflows in different orders (on four paths they do differ), so a
//! server subflow finds its client twin by [`SenderSubflow::client`], the
//! endpoint the client picked for it, never by position.

use mpw_http::{StreamingClient, Wget};
use mpw_metrics::DistSummary;
use mpw_mptcp::{Host, Transport};
use mpw_sim::{SimDuration, SimTime};
use mpw_tcp::{Endpoint, SocketStats, TcpSocket};

/// The receiver's half of one flow: what the client holds right now.
/// Plain counters, cheap enough to sample every tick.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClientFlow {
    /// When the first SYN left.
    pub opened_at: SimTime,
    /// When the application finished its workload (download or streaming
    /// session), if it has.
    pub finished_at: Option<SimTime>,
    /// Body bytes a download has received.
    pub app_bytes: u64,
    /// Blocks of a streaming session that missed their deadline.
    pub late_blocks: u32,
    /// Bytes the transport delivered in order (bodies and response heads).
    pub delivered: u64,
    /// Payload bytes received per client interface.
    pub per_if: [u64; 2],
    /// Whether MPTCP fell back to plain TCP.
    pub fell_back: bool,
    /// Subflows the transport ever had (1 for plain TCP).
    pub subflows: usize,
}

impl ClientFlow {
    /// The paper's download-time metric: first SYN → last byte (§3.3).
    pub fn download_time(&self) -> Option<SimDuration> {
        self.finished_at.map(|f| f.saturating_since(self.opened_at))
    }
}

/// Harvest the client's flow; `None` while it has not opened. A client
/// opens one flow ([`Host::queue_open`]), so it holds slot 0.
pub fn client_flow(host: &Host) -> Option<ClientFlow> {
    let transport = host.transport(0)?;
    let mut flow = ClientFlow {
        opened_at: transport.opened_at(),
        delivered: transport.delivered_offset(),
        ..ClientFlow::default()
    };
    match transport {
        Transport::Mp(conn) => {
            flow.fell_back = conn.fell_back();
            flow.subflows = conn.subflows.len();
            for (i, sf) in conn.subflows.iter().enumerate() {
                if let Some(bytes) = flow.per_if.get_mut(usize::from(sf.if_index)) {
                    *bytes += conn.subflow_delivered(i);
                }
            }
        }
        Transport::Sp(sock) => {
            flow.subflows = 1;
            if let Some(bytes) = flow.per_if.get_mut(usize::from(sock.if_index)) {
                *bytes = sock.recv_offset();
            }
        }
    }
    if let Some(wget) = host.app::<Wget>(0) {
        flow.app_bytes = wget.result.bytes;
        flow.finished_at = wget.result.finished_at;
    } else if let Some(session) = host.app::<StreamingClient>(0) {
        flow.late_blocks = session.late_blocks;
        flow.finished_at = session.finished_at;
    }
    Some(flow)
}

/// The sender's half of one subflow (or of a plain TCP connection).
#[derive(Clone, Debug)]
pub struct SenderSubflow {
    /// The client's endpoint on this subflow. The client gives every
    /// subflow a fresh port, so the endpoint names the subflow on both ends
    /// and on the wire.
    pub client: Endpoint,
    /// The socket's counters: segments sent and retransmitted (the loss-rate
    /// numerator, §3.3), establishment time.
    pub stats: SocketStats,
    /// Streaming summary of per-packet RTTs in milliseconds.
    pub rtt: DistSummary,
}

impl SenderSubflow {
    fn of(sock: &TcpSocket) -> SenderSubflow {
        SenderSubflow {
            client: sock.remote(),
            stats: sock.stats(),
            rtt: sock.rtt().summary().clone(),
        }
    }
}

/// Harvest server slot `slot`, one record per subflow in creation order.
pub fn sender_subflows(host: &Host, slot: usize) -> Vec<SenderSubflow> {
    match host.transport(slot) {
        Some(Transport::Mp(conn)) => conn
            .subflows
            .iter()
            .map(|sf| SenderSubflow::of(&sf.sock))
            .collect(),
        Some(Transport::Sp(sock)) => vec![SenderSubflow::of(sock)],
        None => Vec::new(),
    }
}
