//! tcptrace-style offline analysis of a pcapng capture.
//!
//! Everything here is reconstructed *purely from the captured wire bytes* —
//! no access to stack internals — mirroring how the paper derived its
//! headline figures from tcpdump traces (§3.2):
//!
//! - **RTT samples** at the server vantage: a data segment's transmit time
//!   matched against the arrival of the ACK that exactly covers it, with
//!   Karn's rule (retransmitted ranges never produce samples). The SYN ⇄
//!   SYN-ACK exchange gives a separate handshake RTT at the client vantage.
//! - **Retransmissions** by re-sent subflow sequence ranges at the server
//!   transmit vantage (tcptrace's loss-rate numerator).
//! - **Out-of-order delay** at the client vantage from DSS mappings: how
//!   long a connection-level byte range sat in the reassembly hole buffer
//!   before becoming contiguous (§3.3).
//! - **Per-path byte shares** at the client vantage: novel connection-level
//!   payload attributed to the subflow that delivered it first.
//!
//! Subflows are grouped into MPTCP connections by their handshake options:
//! an MP_CAPABLE SYN opens a connection, an MP_JOIN SYN attaches to the
//! most recently opened one (token-to-key matching would need the stack's
//! hash; handshakes never interleave in the reproduced scenarios, and the
//! join token is kept for reporting).

// Strict decode surface (DESIGN.md §5.12): on top of the crate's panic
// wall, no indexing and no assert (the list is in the root `clippy.toml`).
#![deny(clippy::indexing_slicing, clippy::disallowed_macros)]

use std::collections::BTreeMap;

use mpw_metrics::DistSummary;
use mpw_sim::SimTime;
use mpw_tcp::wire::{parse_headers, Endpoint, MptcpOption, Packet, TcpSegment};
use mpw_tcp::SeqNum;

use crate::hub::{IfaceRole, Vantage};
use crate::pcapng::{PcapFile, PcapPacket};

/// Wire-derived per-subflow statistics (download direction: server→client
/// data, like the reference in-stack metrics).
#[derive(Clone, Debug)]
pub struct WireSubflow {
    /// Path index recovered from the capture interface names.
    pub path: u8,
    /// Client endpoint.
    pub client: Endpoint,
    /// Server endpoint.
    pub server: Endpoint,
    /// Whether the wire shows a completed handshake (SYN, SYN-ACK, ACK).
    pub established: bool,
    /// MP_JOIN token, for subflows attached by join.
    pub join_token: Option<u32>,
    /// Handshake RTT (client vantage: SYN tx → SYN-ACK rx), ms.
    pub syn_rtt_ms: Option<f64>,
    /// Data segments transmitted by the server (including rexmits).
    pub data_segs: u64,
    /// Retransmitted data segments (re-sent subflow sequence ranges).
    pub rexmit_segs: u64,
    /// Payload bytes transmitted by the server, including rexmits.
    pub bytes_sent: u64,
    /// Novel connection-level payload bytes this subflow delivered first
    /// (client vantage) — the wire analogue of the stack's per-subflow
    /// delivered counter used for byte shares.
    pub delivered_bytes: u64,
    /// RTT sample distribution (ms).
    pub rtt: DistSummary,
}

/// Wire-derived per-connection statistics.
#[derive(Clone, Debug, Default)]
pub struct WireConnection {
    /// Client key from MP_CAPABLE, if the connection negotiated MPTCP.
    pub client_key: Option<u64>,
    /// Subflows in first-seen order (index 0 is the initial subflow).
    pub subflows: Vec<WireSubflow>,
    /// Out-of-order delay distribution at the receiver (ms).
    pub ofo: DistSummary,
    /// Unique connection-level payload bytes seen arriving at the client.
    pub delivered_bytes: u64,
}

impl WireConnection {
    /// Fraction of delivered bytes that travelled a non-WiFi path
    /// (path index ≠ 0), the paper's cellular-share metric.
    pub fn cellular_share(&self) -> f64 {
        let total: u64 = self.subflows.iter().map(|s| s.delivered_bytes).sum();
        if total == 0 {
            return 0.0;
        }
        let cell: u64 = self
            .subflows
            .iter()
            .filter(|s| s.path != 0)
            .map(|s| s.delivered_bytes)
            .sum();
        cell as f64 / total as f64
    }
}

/// Result of analyzing one capture file.
#[derive(Clone, Debug, Default)]
pub struct WireAnalysis {
    /// Connections in first-SYN order.
    pub connections: Vec<WireConnection>,
    /// Drop records found on the dedicated drops interface.
    pub drop_records: u64,
    /// Ping (non-TCP) packets skipped.
    pub pings: u64,
    /// Packets that failed to parse (foreign or corrupt).
    pub unparsed: u64,
}

/// Merged-interval set over u64 sequence space; `insert` returns how many
/// of the inserted bytes were novel.
#[derive(Clone, Debug, Default)]
struct Coverage {
    // start -> end, non-overlapping, non-adjacent-merged.
    spans: BTreeMap<u64, u64>,
}

impl Coverage {
    fn insert(&mut self, start: u64, end: u64) -> u64 {
        if end <= start {
            return 0;
        }
        let mut novel = end - start;
        let mut new_end = end;
        // Absorb any span overlapping or adjacent to [start, end), walking
        // down from the last one that starts at or below `end`. Spans are
        // disjoint, so the first that ends before `start` ends the walk.
        while let Some((&s, e)) = self.spans.range_mut(..=end).next_back() {
            if *e < start {
                break;
            }
            // Overlapping coverage reduces novelty.
            let ov = (*e).min(end).saturating_sub(s.max(start));
            novel = novel.saturating_sub(ov);
            new_end = new_end.max(*e);
            if s <= start {
                // The lowest span touched, and it starts no later: the new
                // range only lengthens it (the in-order arrival).
                *e = new_end;
                return novel;
            }
            self.spans.remove(&s);
        }
        self.spans.insert(start, new_end);
        novel
    }
}

/// Per-subflow analyzer state beyond what ends up in [`WireSubflow`].
#[derive(Default)]
struct SubflowState {
    conn: usize,
    /// Base for sequence unwrapping (first data seq seen at server tx).
    base_seq: Option<SeqNum>,
    /// First-transmission times keyed by unwrapped expected ack;
    /// bool = Karn-invalidated.
    pending_ack: BTreeMap<u64, (SimTime, bool)>,
    /// Unwrapped sequence offsets already transmitted, sorted (rexmit
    /// detection).
    seen_seq: Vec<u64>,
    /// Client-side handshake: SYN transmit time (up@client vantage).
    syn_tx: Option<SimTime>,
    /// Number of SYNs seen from the client (>1 → Karn-invalidate SYN RTT).
    syn_count: u32,
    /// Subflow-level coverage for fallback (no-DSS) delivery accounting.
    sub_coverage: Coverage,
    /// SYN-ACK seen (server answered).
    syn_ack_seen: bool,
    /// Non-SYN ACK from client seen (handshake completed).
    ack_seen: bool,
}

/// Per-connection reassembly state for out-of-order delay.
#[derive(Default)]
struct ConnState {
    /// Next expected connection-level sequence number.
    next_dseq: Option<u64>,
    /// dseq -> (end, arrival) of data waiting for a hole to fill.
    held: BTreeMap<u64, (u64, SimTime)>,
    /// Connection-level coverage (novel-byte attribution).
    coverage: Coverage,
}

/// Analyze a parsed capture. `server_port` orients flows: packets towards
/// it are client→server. Packets are processed in timestamp order (ties in
/// file order), so captures from several interleaved taps are fine.
pub fn analyze(file: &PcapFile<'_>, server_port: u16) -> WireAnalysis {
    let mut out = WireAnalysis::default();
    let roles: Vec<Option<IfaceRole>> = file
        .interfaces
        .iter()
        .map(|i| IfaceRole::parse(&i.name))
        .collect();

    // Stable sort keeps ties in file order.
    let mut order: Vec<&PcapPacket<'_>> = file.packets.iter().collect();
    order.sort_by_key(|p| p.at);

    let mut subs: Vec<(WireSubflow, SubflowState)> = Vec::new();
    let mut conns: Vec<(WireConnection, ConnState)> = Vec::new();

    for pkt in order {
        let Some(&role) = roles.get(pkt.iface as usize) else {
            out.unparsed += 1;
            continue;
        };
        let Some(role) = role else {
            // Non-topology interface: the drops channel.
            out.drop_records += 1;
            continue;
        };
        // Headers only: of a payload the analysis wants the length.
        let (ip, seg, len) = match parse_headers(pkt.data) {
            Ok((Packet::Tcp(ip, seg), payload)) => (ip, seg, payload.len() as u64),
            Ok((Packet::Ping(..), _)) => {
                out.pings += 1;
                continue;
            }
            Err(_) => {
                out.unparsed += 1;
                continue;
            }
        };
        let to_server = seg.dst_port == server_port;
        let from_server = seg.src_port == server_port;
        if to_server == from_server {
            out.unparsed += 1;
            continue;
        }
        let (src, dst) = (Endpoint::new(ip.src, seg.src_port), Endpoint::new(ip.dst, seg.dst_port));
        let (client, server) = if to_server { (src, dst) } else { (dst, src) };

        // A capture holds a handful of subflows: a scan, not a hash.
        let si = match subs.iter().position(|(s, _)| s.client == client && s.server == server) {
            Some(si) => si,
            None => {
                let (conn, join_token, client_key) =
                    classify_new_subflow(&seg, to_server, &conns);
                let conn = match conn {
                    Some(c) => c,
                    None => {
                        conns.push((WireConnection::default(), ConnState::default()));
                        conns.len() - 1
                    }
                };
                if let Some(k) = client_key {
                    if let Some((wc, _)) = conns.get_mut(conn) {
                        wc.client_key = Some(k);
                    }
                }
                subs.push((
                    WireSubflow {
                        path: role.path,
                        client,
                        server,
                        established: false,
                        join_token,
                        syn_rtt_ms: None,
                        data_segs: 0,
                        rexmit_segs: 0,
                        bytes_sent: 0,
                        delivered_bytes: 0,
                        rtt: DistSummary::new(),
                    },
                    SubflowState {
                        conn,
                        ..SubflowState::default()
                    },
                ));
                subs.len() - 1
            }
        };
        let Some((sub, st)) = subs.get_mut(si) else {
            continue; // unreachable: si was just inserted or looked up
        };

        use mpw_tcp::wire::tcp_flags as fl;
        let syn = seg.has(fl::SYN);
        let ack = seg.has(fl::ACK);

        match (role.vantage, to_server) {
            // ---- Client-side sniffer ----
            (Vantage::Client, true) => {
                // Client transmits (up@client).
                if syn && !ack {
                    st.syn_count += 1;
                    if st.syn_count == 1 {
                        st.syn_tx = Some(pkt.at);
                    }
                }
            }
            (Vantage::Client, false) => {
                // Client receives (down@client).
                if syn && ack {
                    if let (Some(t0), 1, None) = (st.syn_tx, st.syn_count, sub.syn_rtt_ms) {
                        sub.syn_rtt_ms =
                            Some(pkt.at.saturating_since(t0).as_secs_f64() * 1e3);
                    }
                    st.syn_ack_seen = true;
                }
                if len > 0 {
                    let novel = match seg.dss().and_then(|(_, m, _)| m) {
                        Some(mapping) => {
                            // Saturate rather than overflow on a hostile
                            // dseq near u64::MAX (fuzzer find; regression
                            // input in tests/fuzz-corpus/analyze/).
                            let start = mapping.dseq;
                            let end = start.saturating_add(len);
                            match conns.get_mut(st.conn) {
                                Some(entry) => {
                                    let novel = entry.1.coverage.insert(start, end);
                                    ofo_arrival(entry, start, end, pkt.at);
                                    novel
                                }
                                None => 0,
                            }
                        }
                        None => {
                            // Plain TCP (or DSS-less fallback): account in
                            // subflow sequence space.
                            let base = *st.base_seq.get_or_insert(seg.seq);
                            unwrap_seq(base, seg.seq)
                                .map_or(0, |start| st.sub_coverage.insert(start, start + len))
                        }
                    };
                    sub.delivered_bytes += novel;
                    if let Some((wc, _)) = conns.get_mut(st.conn) {
                        wc.delivered_bytes += novel;
                    }
                }
            }

            // ---- Server-side sniffer ----
            (Vantage::Server, false) => {
                // Server transmits (down@server).
                if syn && ack {
                    st.syn_ack_seen = true;
                }
                if len > 0 {
                    sub.data_segs += 1;
                    sub.bytes_sent += len;
                    let base = *st.base_seq.get_or_insert(seg.seq);
                    // A segment below the base is counted above and left
                    // out of the retransmission and RTT bookkeeping.
                    if let Some(offset) = unwrap_seq(base, seg.seq) {
                        let expected_ack = offset + len;
                        // New data sits above everything sent: no search then.
                        let seen = match st.seen_seq.last() {
                            Some(&top) if offset <= top => st.seen_seq.binary_search(&offset),
                            _ => Err(st.seen_seq.len()),
                        };
                        match seen {
                            Ok(_) => {
                                sub.rexmit_segs += 1;
                                if let Some(entry) = st.pending_ack.get_mut(&expected_ack) {
                                    entry.1 = true; // Karn
                                }
                            }
                            Err(at) => {
                                st.seen_seq.insert(at, offset);
                                st.pending_ack.insert(expected_ack, (pkt.at, false));
                            }
                        }
                    }
                }
            }
            (Vantage::Server, true) => {
                // Server receives (up@server): ACKs from the client.
                if ack && !syn {
                    st.ack_seen = true;
                }
                if ack {
                    if let Some(a) = st.base_seq.and_then(|base| unwrap_seq(base, seg.ack)) {
                        if let Some(&(sent, invalidated)) = st.pending_ack.get(&a) {
                            if !invalidated {
                                sub.rtt.push(pkt.at.saturating_since(sent).as_secs_f64() * 1e3);
                            }
                        }
                        while st.pending_ack.first_key_value().is_some_and(|(&k, _)| k <= a) {
                            st.pending_ack.pop_first();
                        }
                    }
                }
            }
        }
        if st.syn_ack_seen && st.ack_seen {
            sub.established = true;
        }
    }

    // Assemble output, attaching subflows to their connections in order.
    let mut result: Vec<WireConnection> = conns.into_iter().map(|(c, _)| c).collect();
    for (sub, st) in subs {
        if let Some(c) = result.get_mut(st.conn) {
            c.subflows.push(sub);
        }
    }
    out.connections = result.into_iter().filter(|c| !c.subflows.is_empty()).collect();
    out
}

/// Decide which connection a newly-seen subflow belongs to from its first
/// packet. Returns (existing connection index, join token, client key).
fn classify_new_subflow(
    seg: &TcpSegment,
    to_server: bool,
    conns: &[(WireConnection, ConnState)],
) -> (Option<usize>, Option<u32>, Option<u64>) {
    if !to_server {
        // First packet seen is server→client (partial capture): attach to
        // the latest connection rather than inventing one.
        return (conns.len().checked_sub(1), None, None);
    }
    match seg.mptcp() {
        Some(MptcpOption::Capable { key_local, .. }) => (None, None, Some(key_local)),
        Some(MptcpOption::Join { token, .. }) => {
            // Token→key matching needs the stack's hash; handshakes never
            // interleave here, so the join attaches to the latest
            // connection (`None` would invent a fresh one).
            (conns.len().checked_sub(1), Some(token), None)
        }
        _ => (None, None, None),
    }
}

/// Offset of `x` above the flow's base sequence number; valid while a
/// subflow carries < 2³¹ bytes, as in the reference analyzer. `None` for an
/// `x` below the base: two segments swapped at a vantage, or a capture that
/// starts mid-flow, puts a later sequence number first.
fn unwrap_seq(base: SeqNum, x: SeqNum) -> Option<u64> {
    u64::try_from(x.distance(base)).ok()
}

/// Feed one DSS-mapped arrival into the connection's reassembly model and
/// record promotion delays (§3.3's out-of-order delay).
fn ofo_arrival(conn: &mut (WireConnection, ConnState), start: u64, end: u64, at: SimTime) {
    let (wc, cs) = conn;
    let next = cs.next_dseq.get_or_insert(start);
    if end <= *next {
        return; // duplicate
    }
    let hold_from = start.max(*next);
    cs.held.entry(hold_from).or_insert((end, at));
    while let Some((&s, &(e, arrived))) = cs.held.first_key_value() {
        if s > *next {
            break;
        }
        cs.held.remove(&s);
        if e <= *next {
            continue;
        }
        *next = e;
        let ms = at.saturating_since(arrived).as_secs_f64() * 1e3;
        wc.ofo.push(ms);
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_macros)]
mod tests {
    use super::*;
    use crate::hub::CaptureHub;
    use crate::pcapng::read_pcapng;
    use bytes::Bytes;
    use mpw_sim::tap::{FrameObserver, TapDir};
    use mpw_tcp::wire::{encode_packet, tcp_flags, DssMapping, IpHeader, TcpOption};
    use mpw_tcp::Addr;

    const SERVER_PORT: u16 = 8080;
    const CLIENT: Addr = Addr::new(10, 0, 1, 2);
    const CLIENT2: Addr = Addr::new(10, 0, 2, 2);
    const SERVER: Addr = Addr::new(192, 168, 1, 1);

    struct Rig {
        hub: CaptureHub,
        // (up@client, up@server, down@server, down@client) per path.
        ifaces: Vec<(u32, u32, u32, u32)>,
    }

    impl Rig {
        fn new(paths: u8) -> Rig {
            let mut hub = CaptureHub::new(0);
            let ifaces = (0..paths).map(|p| hub.add_path(p)).collect();
            Rig { hub, ifaces }
        }

        fn seg(
            &mut self,
            path: usize,
            t_ms: u64,
            to_server: bool,
            mut seg: TcpSegment,
            client_addr: Addr,
        ) {
            let (src, dst) = if to_server { (client_addr, SERVER) } else { (SERVER, client_addr) };
            let ip = IpHeader { src, dst, protocol: mpw_tcp::wire::PROTO_TCP, ttl: 64 };
            if to_server {
                seg.dst_port = SERVER_PORT;
            } else {
                seg.src_port = SERVER_PORT;
            }
            let bytes = encode_packet(&ip, &seg);
            let (uc, us, sd, cd) = self.ifaces[path];
            // One event on each vantage of the traversed direction; the
            // receiving-side copy arrives a little later.
            let (tx_iface, rx_iface) = if to_server { (uc, us) } else { (sd, cd) };
            self.hub
                .frame(SimTime::from_millis(t_ms), tx_iface, TapDir::Ingress, &bytes);
            self.hub.frame(
                SimTime::from_millis(t_ms + TRANSIT_MS),
                rx_iface,
                TapDir::Egress,
                &bytes,
            );
        }

        fn analyze(mut self) -> WireAnalysis {
            let pcap = self.hub.finish();
            analyze(&read_pcapng(&pcap).expect("pcap"), SERVER_PORT)
        }
    }

    const TRANSIT_MS: u64 = 5;

    /// Server→client data segment towards the given client port.
    fn data(client_port: u16, seq: u32, len: usize, dseq: Option<u64>) -> TcpSegment {
        let mut s = TcpSegment::bare(0, client_port, SeqNum(seq), SeqNum(1), tcp_flags::ACK);
        s.payload = Bytes::from(vec![0xAB; len]);
        if let Some(d) = dseq {
            s.options = [TcpOption::Mptcp(MptcpOption::Dss {
                data_ack: None,
                mapping: Some(DssMapping { dseq: d, subflow_seq: SeqNum(seq), len: len as u16 }),
                data_fin: false,
            })]
            .into();
        }
        s
    }

    fn ack_seg(src_port: u16, ack: u32) -> TcpSegment {
        TcpSegment::bare(src_port, 0, SeqNum(1), SeqNum(ack), tcp_flags::ACK)
    }

    fn handshake(rig: &mut Rig, path: usize, t0: u64, port: u16, addr: Addr, opt: MptcpOption) {
        let mut syn = TcpSegment::bare(port, 0, SeqNum(100), SeqNum(0), tcp_flags::SYN);
        syn.options = [TcpOption::Mptcp(opt)].into();
        rig.seg(path, t0, true, syn, addr);
        let synack = TcpSegment::bare(
            0,
            port,
            SeqNum(1000),
            SeqNum(101),
            tcp_flags::SYN | tcp_flags::ACK,
        );
        rig.seg(path, t0 + 10, false, synack, addr);
        rig.seg(path, t0 + 20, true, ack_seg(port, 1001), addr);
    }

    #[test]
    fn handshake_yields_syn_rtt_and_establishment() {
        let mut rig = Rig::new(1);
        handshake(
            &mut rig,
            0,
            0,
            40_000,
            CLIENT,
            MptcpOption::Capable { key_local: 7, key_remote: None },
        );
        let a = rig.analyze();
        assert_eq!(a.connections.len(), 1);
        let c = &a.connections[0];
        assert_eq!(c.client_key, Some(7));
        assert_eq!(c.subflows.len(), 1);
        let s = &c.subflows[0];
        assert!(s.established);
        // SYN tx at 0, SYN-ACK rx at 10+5.
        assert_eq!(s.syn_rtt_ms, Some(15.0));
    }

    #[test]
    fn rtt_rexmit_and_karn_match_the_reference_rules() {
        let mut rig = Rig::new(1);
        handshake(
            &mut rig,
            0,
            0,
            40_000,
            CLIENT,
            MptcpOption::Capable { key_local: 7, key_remote: None },
        );
        // Server sends two segments; first is retransmitted later.
        rig.seg(0, 100, false, data(40_000, 1001, 100, None), CLIENT);
        rig.seg(0, 101, false, data(40_000, 1101, 100, None), CLIENT);
        rig.seg(0, 300, false, data(40_000, 1001, 100, None), CLIENT); // rexmit
        // Client acks everything; ack transmitted at 340, arrives 345.
        rig.seg(0, 340, true, ack_seg(40_000, 1201), CLIENT);
        let a = rig.analyze();
        let s = &a.connections[0].subflows[0];
        assert_eq!(s.data_segs, 3);
        assert_eq!(s.rexmit_segs, 1);
        assert_eq!(s.bytes_sent, 300);
        // Karn kills the 1001-range sample; the 1101 range was sent at 101
        // and cumulatively acked by the ack arriving at server at 345.
        assert_eq!((s.rtt.count(), s.rtt.min(), s.rtt.max()), (1, 244.0, 244.0));
    }

    #[test]
    fn a_segment_below_the_first_one_seen_is_counted_but_not_sampled() {
        // Two data segments swapped at the vantage: 1101 fixes the base, so
        // 1001 lies below it — a negative offset, which unsigned
        // subtraction turns into a debug panic or ~2³² in release.
        let mut rig = Rig::new(1);
        handshake(
            &mut rig,
            0,
            0,
            40_000,
            CLIENT,
            MptcpOption::Capable { key_local: 7, key_remote: None },
        );
        rig.seg(0, 100, false, data(40_000, 1101, 100, None), CLIENT);
        rig.seg(0, 101, false, data(40_000, 1001, 100, None), CLIENT);
        // An ACK below the base too, then the one that covers 1101..1201.
        rig.seg(0, 150, true, ack_seg(40_000, 1001), CLIENT);
        rig.seg(0, 340, true, ack_seg(40_000, 1201), CLIENT);
        let a = rig.analyze();
        let s = &a.connections[0].subflows[0];
        assert_eq!(s.data_segs, 2);
        assert_eq!(s.bytes_sent, 200);
        assert_eq!(s.rexmit_segs, 0);
        // Only the segment at the base is timed (sent 100, acked at 345) and
        // only its bytes count as delivered in subflow sequence space.
        assert_eq!((s.rtt.count(), s.rtt.min(), s.rtt.max()), (1, 245.0, 245.0));
        assert_eq!(s.delivered_bytes, 100);
    }

    #[test]
    fn ofo_delay_reconstructed_from_dss() {
        let mut rig = Rig::new(2);
        handshake(
            &mut rig,
            0,
            0,
            40_000,
            CLIENT,
            MptcpOption::Capable { key_local: 7, key_remote: None },
        );
        handshake(
            &mut rig,
            1,
            30,
            40_001,
            CLIENT2,
            MptcpOption::Join { token: 9, nonce: 1, backup: false },
        );
        // In-order on path0, then a hole filled 60 ms later via path1.
        rig.seg(0, 100, false, data(40_000, 1001, 100, Some(0)), CLIENT);
        rig.seg(1, 110, false, data(40_001, 2001, 100, Some(200)), CLIENT2); // hole at 100
        rig.seg(0, 170, false, data(40_000, 1101, 100, Some(100)), CLIENT); // fills it
        let a = rig.analyze();
        assert_eq!(a.connections.len(), 1, "join grouped into the capable conn");
        let c = &a.connections[0];
        assert_eq!(c.subflows.len(), 2);
        assert_eq!(c.subflows[1].join_token, Some(9));
        // Delays: [0,100) immediate 0 ms; [100,200) fills on arrival 0 ms;
        // [200,300) waited from 115 to 175 = 60 ms.
        let ofo = (c.ofo.count(), c.ofo.min(), c.ofo.max(), c.ofo.sum);
        assert_eq!(ofo, (3, 0.0, 60.0, 60.0));
        assert_eq!(c.delivered_bytes, 300);
        // Byte shares: 200 B via path0, 100 B via path1.
        assert_eq!(c.subflows[0].delivered_bytes, 200);
        assert_eq!(c.subflows[1].delivered_bytes, 100);
        assert!((c.cellular_share() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn duplicate_delivery_is_not_double_counted() {
        let mut rig = Rig::new(1);
        handshake(
            &mut rig,
            0,
            0,
            40_000,
            CLIENT,
            MptcpOption::Capable { key_local: 7, key_remote: None },
        );
        rig.seg(0, 100, false, data(40_000, 1001, 100, Some(0)), CLIENT);
        rig.seg(0, 150, false, data(40_000, 1001, 100, Some(0)), CLIENT); // spurious rexmit
        let a = rig.analyze();
        let c = &a.connections[0];
        assert_eq!(c.delivered_bytes, 100);
        assert_eq!(c.subflows[0].delivered_bytes, 100);
        assert_eq!(c.subflows[0].rexmit_segs, 1);
    }

    #[test]
    fn plain_tcp_without_dss_uses_subflow_sequence_space() {
        let mut rig = Rig::new(1);
        handshake(&mut rig, 0, 0, 40_000, CLIENT, MptcpOption::Prio { backup: false });
        rig.seg(0, 100, false, data(40_000, 1001, 100, None), CLIENT);
        rig.seg(0, 110, false, data(40_000, 1101, 50, None), CLIENT);
        let a = rig.analyze();
        let c = &a.connections[0];
        assert_eq!(c.client_key, None);
        assert_eq!(c.subflows[0].delivered_bytes, 150);
        assert_eq!(c.delivered_bytes, 150);
        assert!(c.ofo.is_empty());
    }

    /// Regression for a fuzzer find: a DSS mapping with dseq near u64::MAX
    /// used to overflow `start + payload.len()` when computing connection
    /// coverage (debug panic on adversarial captures). Minimized reproducer
    /// in tests/fuzz-corpus/analyze/.
    #[test]
    fn hostile_dseq_near_u64_max_does_not_panic() {
        let mut rig = Rig::new(1);
        handshake(
            &mut rig,
            0,
            0,
            40_000,
            CLIENT,
            MptcpOption::Capable { key_local: 7, key_remote: None },
        );
        rig.seg(0, 100, false, data(40_000, 1001, 100, Some(u64::MAX)), CLIENT);
        rig.seg(0, 110, false, data(40_000, 1101, 100, Some(u64::MAX - 40)), CLIENT);
        let a = rig.analyze();
        // The nonsense mappings contribute at most the saturated range.
        assert!(a.connections[0].delivered_bytes <= 40);
    }

    #[test]
    fn coverage_counts_novel_bytes_once() {
        let mut c = Coverage::default();
        assert_eq!(c.insert(0, 100), 100);
        assert_eq!(c.insert(50, 150), 50);
        assert_eq!(c.insert(0, 150), 0);
        assert_eq!(c.insert(200, 300), 100);
        assert_eq!(c.insert(140, 210), 50);
        assert_eq!(c.insert(0, 300), 0);
    }
}
