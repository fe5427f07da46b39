//! Wire checksum repair for mutants.
//!
//! `parse_packet` verifies the RFC 1071 checksums of both the network
//! header and the TCP segment before touching the option bytes, so a
//! mutant with a stale checksum dies at the door and the option parser is
//! never exercised. After mutating a wire input, the engine (usually)
//! recomputes both checksums in place so the mutation's *structural*
//! damage — mangled option lengths, hostile sequence numbers — is what the
//! parser actually sees. The repair is intentionally a second, independent
//! implementation of the checksum; agreeing with the stack's is part of
//! what the fuzzer checks.

/// RFC 1071 16-bit ones'-complement checksum.
fn rfc1071(data: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    let mut i = 0;
    while i + 1 < data.len() {
        sum += u32::from(u16::from_be_bytes([data[i], data[i + 1]]));
        i += 2;
    }
    if i < data.len() {
        sum += u32::from(u16::from_be_bytes([data[i], 0]));
    }
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

/// Recompute the network-header checksum (and, for TCP payloads, the
/// segment checksum) of a mutated wire packet in place. Inputs too short
/// or structurally alien to locate the fields are left untouched.
pub fn fix_wire_checksums(data: &mut [u8]) {
    const IP_HEADER_LEN: usize = 16;
    if data.len() < IP_HEADER_LEN {
        return;
    }
    // Network header checksum lives at bytes 12..14.
    data[12] = 0;
    data[13] = 0;
    let ip_sum = rfc1071(&data[..IP_HEADER_LEN]);
    data[12..14].copy_from_slice(&ip_sum.to_be_bytes());
    // TCP checksum at offset 16 within the segment, over declared length.
    let protocol = data[0] & 0x0f;
    if protocol != 6 {
        return;
    }
    let total = u16::from_be_bytes([data[2], data[3]]) as usize;
    if total < IP_HEADER_LEN + 20 || total > data.len() {
        return;
    }
    let tcp = &mut data[IP_HEADER_LEN..total];
    tcp[16] = 0;
    tcp[17] = 0;
    let tcp_sum = rfc1071(tcp);
    tcp[16..18].copy_from_slice(&tcp_sum.to_be_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;
    use crate::rng::Rng;

    #[test]
    fn repaired_mutants_parse_past_the_checksum() {
        let mut rng = Rng::new(21);
        let mut repaired_ok = 0;
        for _ in 0..200 {
            let mut bytes = generate::wire_seed(&mut rng);
            // Corrupt one non-checksum payload byte, then repair.
            if bytes.len() > 40 {
                let i = 20 + rng.below(bytes.len() - 20);
                bytes[i] ^= 0x10;
            }
            fix_wire_checksums(&mut bytes);
            match mpw_tcp::wire::parse_any(&bytes) {
                Ok(_) => repaired_ok += 1,
                // Structural damage may yield BadOption etc., but never a
                // checksum failure after repair.
                Err(e) => assert_ne!(e, mpw_tcp::wire::WireError::BadChecksum),
            }
        }
        assert!(repaired_ok > 100, "repair rarely worked: {repaired_ok}/200");
    }

    #[test]
    fn repair_agrees_with_the_stack_checksum_on_pristine_packets() {
        let mut rng = Rng::new(22);
        for _ in 0..100 {
            let bytes = generate::wire_seed(&mut rng);
            let mut repaired = bytes.clone();
            fix_wire_checksums(&mut repaired);
            assert_eq!(repaired, bytes, "repair changed a valid packet");
        }
        // Every segment size an MSS-bounded sender can emit, odd and even.
        use mpw_tcp::wire::{encode_packet, IpHeader, TcpSegment, PROTO_TCP};
        use mpw_tcp::{Addr, SeqNum};
        let ip = IpHeader {
            src: Addr::new(10, 0, 1, 2),
            dst: Addr::new(192, 168, 1, 1),
            protocol: PROTO_TCP,
            ttl: 64,
        };
        for len in 0..=1460u32 {
            let mut seg = TcpSegment::bare(40000, 80, SeqNum(len), SeqNum(1), 0x10);
            seg.payload = (0..len).map(|_| rng.next_u64() as u8).collect();
            let bytes = encode_packet(&ip, &seg).to_vec();
            let mut repaired = bytes.clone();
            fix_wire_checksums(&mut repaired);
            assert_eq!(repaired, bytes, "checksums disagree at payload length {len}");
        }
    }
}
