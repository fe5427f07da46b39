//! Property-based round-trip coverage of the wire codec: any segment the
//! encoder can produce — every TCP option, every MPTCP option variant —
//! must parse back identically, and truncating or corrupting a valid
//! packet must never parse.

use bytes::Bytes;
use mpw_tcp::wire::{
    encode_packet, parse_any, parse_packet, tcp_flags, DssMapping, IpHeader, MptcpOption, Packet,
    TcpOption, TcpSegment, PROTO_TCP,
};
use mpw_tcp::{Addr, SeqNum};
use proptest::prelude::*;

fn arb_addr() -> impl Strategy<Value = Addr> {
    any::<u32>().prop_map(Addr)
}

/// All five RFC 6824 option subtypes we implement, with every optional
/// sub-field toggled by `sel` bits.
fn arb_mptcp() -> impl Strategy<Value = MptcpOption> {
    (0u8..5, any::<u8>(), any::<u64>(), any::<u64>(), any::<u32>(), any::<u16>())
        .prop_map(|(variant, sel, a, b, c, d)| match variant {
            0 => MptcpOption::Capable {
                key_local: a,
                key_remote: (sel & 1 == 1).then_some(b),
            },
            1 => MptcpOption::Join {
                token: c,
                nonce: b as u32,
                backup: sel & 1 == 1,
            },
            2 => MptcpOption::Dss {
                data_ack: (sel & 1 == 1).then_some(a),
                mapping: (sel & 2 == 2).then_some(DssMapping {
                    dseq: b,
                    subflow_seq: SeqNum(c),
                    len: d,
                }),
                data_fin: sel & 4 == 4,
            },
            3 => MptcpOption::AddAddr {
                addr_id: sel,
                addr: Addr(b as u32),
                port: d,
            },
            _ => MptcpOption::Prio { backup: sel & 1 == 1 },
        })
}

fn arb_option() -> impl Strategy<Value = TcpOption> {
    (
        0u8..5,
        arb_mptcp(),
        any::<u16>(),
        any::<u8>(),
        proptest::collection::vec((any::<u32>(), any::<u32>()), 1..4),
    )
        .prop_map(|(variant, mptcp, val16, val8, sack)| match variant {
            0 => TcpOption::Mss(val16),
            1 => TcpOption::WindowScale(val8 & 0x0f),
            2 => TcpOption::SackPermitted,
            3 => TcpOption::Sack(
                sack.into_iter()
                    .map(|(a, b)| (SeqNum(a), SeqNum(b)))
                    .collect(),
            ),
            _ => TcpOption::Mptcp(mptcp),
        })
}

/// Encoded size of one option (mirrors `encode_options`), for keeping the
/// generated set within TCP's 40-byte option budget.
fn opt_wire_len(o: &TcpOption) -> usize {
    match o {
        TcpOption::Mss(_) => 4,
        TcpOption::WindowScale(_) => 3,
        TcpOption::SackPermitted => 2,
        TcpOption::Sack(blocks) => 2 + 8 * blocks.len(),
        TcpOption::Mptcp(m) => match m {
            MptcpOption::Capable { key_remote, .. } => {
                if key_remote.is_some() {
                    20
                } else {
                    12
                }
            }
            MptcpOption::Join { .. } => 12,
            MptcpOption::Dss { data_ack, mapping, .. } => {
                4 + if data_ack.is_some() { 8 } else { 0 } + if mapping.is_some() { 14 } else { 0 }
            }
            MptcpOption::AddAddr { .. } => 10,
            MptcpOption::Prio { .. } => 4,
        },
    }
}

fn arb_packet() -> impl Strategy<Value = (IpHeader, TcpSegment)> {
    (
        (arb_addr(), arb_addr(), any::<u8>()),
        (any::<u16>(), any::<u16>(), any::<u32>(), any::<u32>()),
        0u8..32, // every combination of the five canonical flag bits
        any::<u16>(),
        proptest::collection::vec(arb_option(), 0..3),
        proptest::collection::vec(any::<u8>(), 0..256),
    )
        .prop_map(|((src, dst, ttl), (sp, dp, seq, ack), flags, window, options, payload)| {
            let ip = IpHeader { src, dst, protocol: PROTO_TCP, ttl };
            let mut seg = TcpSegment::bare(sp, dp, SeqNum(seq), SeqNum(ack), flags);
            seg.window = window;
            // Keep the generated options within the 40-byte TCP limit.
            let mut used = 0usize;
            for o in options {
                let n = opt_wire_len(&o);
                if used + n <= 40 {
                    used += n;
                    assert!(seg.options.push(o), "{o:?} fits by this test's length table");
                }
            }
            seg.payload = Bytes::from(payload);
            (ip, seg)
        })
}

proptest! {
    /// Encode → parse is the identity for every representable packet,
    /// including every MPTCP option variant, and `parse_any` agrees.
    #[test]
    fn encode_parse_roundtrip(pkt in arb_packet()) {
        let (ip, seg) = pkt;
        let bytes = encode_packet(&ip, &seg);
        let (ip2, seg2) = parse_packet(&bytes).expect("own encoding parses");
        prop_assert_eq!(ip, ip2);
        prop_assert_eq!(&seg, &seg2);
        match parse_any(&bytes).expect("parse_any") {
            Packet::Tcp(ip3, seg3) => {
                prop_assert_eq!(ip, ip3);
                prop_assert_eq!(seg, seg3);
            }
            other => prop_assert!(false, "parse_any misclassified: {:?}", other),
        }
    }

    /// No strict prefix of a valid packet parses: truncation is always
    /// detected by the length fields or the checksums.
    #[test]
    fn truncation_is_rejected(pkt in arb_packet(), frac in 0.0f64..1.0) {
        let (ip, seg) = pkt;
        let bytes = encode_packet(&ip, &seg);
        let cut = (((bytes.len() as f64) * frac) as usize).min(bytes.len() - 1);
        prop_assert!(parse_packet(&bytes[..cut]).is_err(), "truncated to {} parsed", cut);
        prop_assert!(parse_any(&bytes[..cut]).is_err());
    }

    /// Flipping any single byte is caught: every byte is covered by the IP
    /// or the TCP checksum, and a one-byte change can never alias in
    /// one's-complement arithmetic (that would need 0x0000 ↔ 0xffff, a
    /// two-byte change).
    #[test]
    fn corruption_is_rejected(pkt in arb_packet(), pos: usize, xor in 1u8..=255) {
        let (ip, seg) = pkt;
        let mut corrupt = encode_packet(&ip, &seg).to_vec();
        let i = pos % corrupt.len();
        corrupt[i] ^= xor;
        let reparsed = parse_packet(&corrupt);
        prop_assert!(
            reparsed.is_err(),
            "flipped byte {} (^{:#x}) still parsed: {:?}",
            i, xor, reparsed
        );
    }

    /// The canonical flag bits survive the trip verbatim — one shared flag
    /// encoding end to end, no translation layer to drift.
    #[test]
    fn flags_roundtrip_verbatim(flags in 0u8..32) {
        let ip = IpHeader {
            src: Addr::new(10, 0, 1, 2),
            dst: Addr::new(192, 168, 1, 1),
            protocol: PROTO_TCP,
            ttl: 64,
        };
        let seg = TcpSegment::bare(1, 2, SeqNum(3), SeqNum(4), flags & tcp_flags::ALL);
        let (_, seg2) = parse_packet(&encode_packet(&ip, &seg)).expect("parses");
        prop_assert_eq!(seg2.flags, flags & tcp_flags::ALL);
    }
}
