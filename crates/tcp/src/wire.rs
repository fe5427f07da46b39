//! Wire format: an IPv4-like network header and a faithful TCP header with
//! options, including the MPTCP option set from RFC 6824 (MP_CAPABLE,
//! MP_JOIN, DSS, ADD_ADDR).
//!
//! Packets really are serialized to bytes and parsed back at the receiving
//! host. This is what lets the simulation include option-stripping
//! middleboxes — the paper found AT&T's port-80 proxy removed MPTCP options,
//! forcing the connection to fall back to plain TCP (§3.1).
//!
//! The data path is allocation-free in steady state: parsed options live in
//! an inline [`OptionList`] (a real TCP header caps options at 40 bytes, so
//! the list is those bytes, canonically re-encoded), SACK blocks live inline in
//! [`SackBlocks`], [`encode_packet`] serializes into a single pooled buffer,
//! and [`parse_packet_shared`] returns the payload as an O(1) sub-slice of
//! the arriving frame. The alloc wall forbids copying a slice into a fresh
//! `Vec` here.

// Strict decode surface (DESIGN.md §5.12): on top of the crate's panic
// wall, no indexing and no assert; and, as a data-path module of the alloc
// wall, no `to_vec` (both lists are in the root `clippy.toml`).
#![deny(clippy::indexing_slicing, clippy::disallowed_macros, clippy::disallowed_methods)]

use bytes::{BufMut, Bytes, BytesMut};
use core::fmt;
use serde::{de_err, expect_seq, Deserialize, DeError, Serialize, Value};

use crate::seq::SeqNum;

/// Network-layer address (IPv4-like, 32 bits).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize, PartialOrd, Ord)]
pub struct Addr(pub u32);

impl Addr {
    /// Dotted-quad constructor.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Addr {
        Addr(u32::from_be_bytes([a, b, c, d]))
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.0.to_be_bytes();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A transport endpoint (address, port).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default, Serialize, Deserialize, PartialOrd, Ord)]
pub struct Endpoint {
    /// Network address.
    pub addr: Addr,
    /// TCP port.
    pub port: u16,
}

impl Endpoint {
    /// Construct an endpoint.
    pub const fn new(addr: Addr, port: u16) -> Endpoint {
        Endpoint { addr, port }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.addr, self.port)
    }
}

/// TCP flag bits (RFC 793 layout), as they sit in the encoded header.
pub mod tcp_flags {
    /// No more data from sender.
    pub const FIN: u8 = 0x01;
    /// Synchronize (connection establishment).
    pub const SYN: u8 = 0x02;
    /// Reset the connection.
    pub const RST: u8 = 0x04;
    /// Push buffered data to the application.
    pub const PSH: u8 = 0x08;
    /// Acknowledgment field is valid.
    pub const ACK: u8 = 0x10;

    /// Mask of every flag bit the simulator uses.
    pub const ALL: u8 = FIN | SYN | RST | PSH | ACK;

    /// Render flags in tcpdump's compact notation (e.g. `[S.]`, `[P.]`).
    pub fn tcpdump_str(fl: u8) -> String {
        let mut s = String::from("[");
        if fl & SYN != 0 {
            s.push('S');
        }
        if fl & FIN != 0 {
            s.push('F');
        }
        if fl & RST != 0 {
            s.push('R');
        }
        if fl & PSH != 0 {
            s.push('P');
        }
        if fl & ACK != 0 {
            s.push('.');
        }
        s.push(']');
        s
    }
}

/// Length of our network header.
pub const IP_HEADER_LEN: usize = 16;
/// Length of the fixed TCP header.
pub const TCP_HEADER_LEN: usize = 20;
/// Maximum encoded length of the TCP options area: the data-offset field is
/// four bits of 32-bit words, so `15 * 4 - TCP_HEADER_LEN = 40` bytes.
pub const MAX_OPTIONS_LEN: usize = 40;
/// Protocol number for TCP in the network header.
pub const PROTO_TCP: u8 = 6;
/// Protocol number for ICMP-like ping probes (antenna warm-up, §3.2).
pub const PROTO_PING: u8 = 1;

/// Network-layer header fields.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IpHeader {
    /// Source address.
    pub src: Addr,
    /// Destination address.
    pub dst: Addr,
    /// Payload protocol.
    pub protocol: u8,
    /// Time to live.
    pub ttl: u8,
}

/// A DSS data-sequence mapping: connection-level sequence `dseq` maps to
/// subflow sequence `subflow_seq` for `len` bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DssMapping {
    /// Connection-level (data) sequence number of the first byte.
    pub dseq: u64,
    /// Subflow-level sequence number of the first byte.
    pub subflow_seq: SeqNum,
    /// Mapped length in bytes.
    pub len: u16,
}

/// MPTCP options (TCP option kind 30), RFC 6824 subtypes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum MptcpOption {
    /// MP_CAPABLE (subtype 0): exchanged on the first subflow's handshake.
    Capable {
        /// Sender's key.
        key_local: u64,
        /// Receiver's key (echoed on the final handshake ACK).
        key_remote: Option<u64>,
    },
    /// MP_JOIN (subtype 1): attach a new subflow to an existing connection.
    Join {
        /// Token identifying the connection (derived from the peer's key).
        token: u32,
        /// Random nonce.
        nonce: u32,
        /// The RFC 6824 'B' bit: this subflow is a backup path, to be used
        /// only when no regular subflow is available.
        backup: bool,
    },
    /// DSS (subtype 2): data sequence signal.
    Dss {
        /// Connection-level cumulative acknowledgment.
        data_ack: Option<u64>,
        /// Mapping for the payload carried in this segment.
        mapping: Option<DssMapping>,
        /// Connection-level FIN.
        data_fin: bool,
    },
    /// ADD_ADDR (subtype 3): advertise an additional address.
    AddAddr {
        /// Address identifier.
        addr_id: u8,
        /// The advertised address.
        addr: Addr,
        /// The advertised port.
        port: u16,
    },
    /// MP_PRIO (subtype 5): change the priority of the subflow this option
    /// travels on — the sender asks the peer to treat it as backup (or
    /// regular again), enabling mid-connection handover policies.
    Prio {
        /// New backup state requested for this subflow.
        backup: bool,
    },
}

/// Inline storage for SACK blocks: a SACK option never carries more than
/// four blocks within the 40-byte option budget (`2 + 8·4 = 34` bytes), so
/// the blocks live in the option itself instead of a heap `Vec`.
#[derive(Clone, Copy)]
pub struct SackBlocks {
    blocks: [(SeqNum, SeqNum); SackBlocks::CAPACITY],
    len: u8,
}

impl SackBlocks {
    /// Maximum number of blocks one SACK option can encode in 40 bytes.
    pub const CAPACITY: usize = 4;

    /// Empty block list.
    pub const fn new() -> SackBlocks {
        SackBlocks { blocks: [(SeqNum(0), SeqNum(0)); SackBlocks::CAPACITY], len: 0 }
    }

    /// Append a `[lo, hi)` block. Returns `false` (leaving the list
    /// unchanged) when all [`CAPACITY`](Self::CAPACITY) slots are taken.
    pub fn push(&mut self, lo: SeqNum, hi: SeqNum) -> bool {
        match self.blocks.get_mut(usize::from(self.len)) {
            Some(slot) => {
                *slot = (lo, hi);
                self.len += 1;
                true
            }
            None => false,
        }
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// Whether no blocks are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The stored blocks, in push order.
    pub fn as_slice(&self) -> &[(SeqNum, SeqNum)] {
        self.blocks.get(..usize::from(self.len)).unwrap_or(&[])
    }

    /// Iterate the stored blocks.
    pub fn iter(&self) -> std::slice::Iter<'_, (SeqNum, SeqNum)> {
        self.as_slice().iter()
    }
}

impl Default for SackBlocks {
    fn default() -> SackBlocks {
        SackBlocks::new()
    }
}

impl fmt::Debug for SackBlocks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl PartialEq for SackBlocks {
    fn eq(&self, other: &SackBlocks) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for SackBlocks {}

impl<const N: usize> From<[(SeqNum, SeqNum); N]> for SackBlocks {
    /// Blocks beyond [`CAPACITY`](SackBlocks::CAPACITY) are dropped — a
    /// well-formed SACK option cannot carry them anyway.
    fn from(blocks: [(SeqNum, SeqNum); N]) -> SackBlocks {
        blocks.into_iter().collect()
    }
}

impl FromIterator<(SeqNum, SeqNum)> for SackBlocks {
    /// Blocks beyond [`CAPACITY`](SackBlocks::CAPACITY) are dropped.
    fn from_iter<I: IntoIterator<Item = (SeqNum, SeqNum)>>(iter: I) -> SackBlocks {
        let mut out = SackBlocks::new();
        for (lo, hi) in iter {
            if !out.push(lo, hi) {
                break;
            }
        }
        out
    }
}

impl<'a> IntoIterator for &'a SackBlocks {
    type Item = &'a (SeqNum, SeqNum);
    type IntoIter = std::slice::Iter<'a, (SeqNum, SeqNum)>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl Serialize for SackBlocks {
    fn to_value(&self) -> Value {
        Value::Seq(self.as_slice().iter().map(Serialize::to_value).collect())
    }
}

impl Deserialize for SackBlocks {
    fn from_value(v: &Value) -> Result<SackBlocks, DeError> {
        let seq = expect_seq(v, "SackBlocks")?;
        let mut out = SackBlocks::new();
        for item in seq {
            let (lo, hi) = <(SeqNum, SeqNum)>::from_value(item)?;
            if !out.push(lo, hi) {
                return Err(de_err("more than 4 SACK blocks"));
            }
        }
        Ok(out)
    }
}

/// TCP options we implement.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TcpOption {
    /// Maximum segment size (kind 2, SYN only).
    Mss(u16),
    /// Window scale shift (kind 3, SYN only).
    WindowScale(u8),
    /// SACK permitted (kind 4, SYN only).
    SackPermitted,
    /// SACK blocks (kind 5).
    Sack(SackBlocks),
    /// Any MPTCP option (kind 30).
    Mptcp(MptcpOption),
}

/// One segment's options, held inline as the bytes they encode to.
///
/// The TCP header's 4-bit data offset caps the options area at
/// [`MAX_OPTIONS_LEN`] (40) bytes, so the list *is* that area: the canonical
/// encoding of each option, back to back, without padding, plus a length.
/// [`push`](Self::push) encodes at the tail and refuses (returning `false`,
/// list unchanged) an option the 40-byte budget cannot take, so the caller
/// learns of it where it can still act. [`iter`](Self::iter) decodes by
/// value; [`encode_packet`] copies the bytes and pads. Two lists are equal
/// when their bytes are: the encoding is canonical, so that is equality of
/// the option sequences.
///
/// A parsed header lands here re-encoded (NOPs, over-long DSS bodies and
/// MP_CAPABLE flag bytes the stack ignores are not kept), which never takes
/// more room than it had on the wire: every header that fits 40 bytes
/// parses. At 41 bytes the list keeps a [`TcpSegment`] within two cache
/// lines.
#[derive(Clone, Copy)]
pub struct OptionList {
    bytes: [u8; MAX_OPTIONS_LEN],
    len: u8,
}

impl OptionList {
    /// Empty list.
    pub const fn new() -> OptionList {
        OptionList { bytes: [0; MAX_OPTIONS_LEN], len: 0 }
    }

    /// Append an option. Returns `false`, leaving the list unchanged, when
    /// its encoding does not fit what is left of the 40-byte options area;
    /// a caller with something that must not be lost keeps it queued for a
    /// later segment.
    #[must_use = "a refused option is not in the list"]
    pub fn push(&mut self, opt: TcpOption) -> bool {
        let mut tail = Tail { buf: &mut self.bytes, at: usize::from(self.len), fits: true };
        encode_option(&opt, &mut tail);
        if tail.fits {
            self.len = tail.at as u8; // at ≤ MAX_OPTIONS_LEN
        }
        tail.fits
    }

    /// Encoded length in bytes, before padding: the part of the 40-byte
    /// budget already spent.
    pub fn byte_len(&self) -> usize {
        usize::from(self.len)
    }

    /// Whether no options are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The canonical encoding of the stored options (unpadded).
    pub fn as_bytes(&self) -> &[u8] {
        self.bytes.get(..usize::from(self.len)).unwrap_or(&[])
    }

    /// Iterate the stored options, in push order, decoding each by value.
    pub fn iter(&self) -> OptionIter<'_> {
        OptionIter { rest: self.as_bytes() }
    }

    /// Keep only the options for which `keep` returns true.
    pub fn retain(&mut self, mut keep: impl FnMut(&TcpOption) -> bool) {
        *self = self.iter().filter(|o| keep(o)).collect();
    }
}

/// Iterator over an [`OptionList`], yielding each option by value.
#[derive(Clone, Debug)]
pub struct OptionIter<'a> {
    rest: &'a [u8],
}

impl Iterator for OptionIter<'_> {
    type Item = TcpOption;
    fn next(&mut self) -> Option<TcpOption> {
        // The list holds only what `push` encoded, so decoding cannot fail;
        // if it somehow did, the iteration ends rather than panics.
        let (opt, len) = decode_option(self.rest).ok()?;
        self.rest = self.rest.get(len..)?;
        Some(opt)
    }
}

impl Default for OptionList {
    fn default() -> OptionList {
        OptionList::new()
    }
}

impl fmt::Debug for OptionList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq for OptionList {
    fn eq(&self, other: &OptionList) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for OptionList {}

impl<const N: usize> From<[TcpOption; N]> for OptionList {
    /// Stops at the first option the 40-byte budget cannot take.
    fn from(opts: [TcpOption; N]) -> OptionList {
        opts.into_iter().collect()
    }
}

impl FromIterator<TcpOption> for OptionList {
    /// Stops at the first option the 40-byte budget cannot take.
    fn from_iter<I: IntoIterator<Item = TcpOption>>(iter: I) -> OptionList {
        let mut out = OptionList::new();
        for opt in iter {
            if !out.push(opt) {
                break;
            }
        }
        out
    }
}

impl<'a> IntoIterator for &'a OptionList {
    type Item = TcpOption;
    type IntoIter = OptionIter<'a>;
    fn into_iter(self) -> OptionIter<'a> {
        self.iter()
    }
}

/// A parsed TCP segment.
///
/// Moved by value from the parser to the socket and from the socket to the
/// encoder, so its size is part of the per-segment cost (DESIGN.md §5.10).
#[derive(Clone, Debug, PartialEq)]
pub struct TcpSegment {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: SeqNum,
    /// Acknowledgment number (meaningful if ACK flag set).
    pub ack: SeqNum,
    /// Flag bits (see [`tcp_flags`]).
    pub flags: u8,
    /// Advertised receive window (unscaled wire value).
    pub window: u16,
    /// Options (inline, see [`OptionList`]).
    pub options: OptionList,
    /// Payload bytes.
    pub payload: Bytes,
}

#[expect(
    clippy::disallowed_macros,
    reason = "a size pin evaluated at compile time: it fails the build and never runs"
)]
const _: () = assert!(std::mem::size_of::<TcpSegment>() <= 128);

impl TcpSegment {
    /// Segment with no options/payload and the given flags.
    pub fn bare(src_port: u16, dst_port: u16, seq: SeqNum, ack: SeqNum, flags: u8) -> Self {
        TcpSegment {
            src_port,
            dst_port,
            seq,
            ack,
            flags,
            window: 0,
            options: OptionList::new(),
            payload: Bytes::new(),
        }
    }

    /// Sequence space consumed by this segment (payload + SYN/FIN).
    pub fn seq_len(&self) -> u32 {
        let mut n = self.payload.len() as u32;
        if self.flags & tcp_flags::SYN != 0 {
            n += 1;
        }
        if self.flags & tcp_flags::FIN != 0 {
            n += 1;
        }
        n
    }

    /// First MPTCP option, if any.
    pub fn mptcp(&self) -> Option<MptcpOption> {
        self.options.iter().find_map(|o| match o {
            TcpOption::Mptcp(m) => Some(m),
            _ => None,
        })
    }

    /// The DSS option (data ack, mapping, DATA_FIN), if present.
    pub fn dss(&self) -> Option<(Option<u64>, Option<DssMapping>, bool)> {
        self.options.iter().find_map(|o| match o {
            TcpOption::Mptcp(MptcpOption::Dss {
                data_ack,
                mapping,
                data_fin,
            }) => Some((data_ack, mapping, data_fin)),
            _ => None,
        })
    }

    /// Test a flag bit.
    pub fn has(&self, flag: u8) -> bool {
        self.flags & flag != 0
    }
}

/// Wire decode errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Buffer shorter than a header or declared length.
    Truncated,
    /// Version nibble was not 4.
    BadVersion,
    /// Header or segment checksum mismatch.
    BadChecksum,
    /// Malformed option encoding.
    BadOption,
    /// Unknown network protocol number.
    UnknownProtocol(u8),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated packet"),
            WireError::BadVersion => write!(f, "bad IP version"),
            WireError::BadChecksum => write!(f, "checksum mismatch"),
            WireError::BadOption => write!(f, "malformed TCP option"),
            WireError::UnknownProtocol(p) => write!(f, "unknown protocol {p}"),
        }
    }
}

impl std::error::Error for WireError {}

/// 16-bit ones'-complement checksum (RFC 1071).
///
/// The ones'-complement sum does not depend on byte order (RFC 1071 §2(B)):
/// summing the 16-bit words byte-swapped gives the byte-swapped sum. So the
/// data is added up as native-endian 32-bit words — two per 8-byte load, in
/// two 64-bit accumulators that cannot carry out below 32 GiB of input — and
/// the one swap to network order happens on the folded result.
fn checksum(data: &[u8]) -> u16 {
    let (words, tail) = data.as_chunks::<8>();
    let (mut lo, mut hi) = (0u64, 0u64);
    for w in words {
        let w = u64::from_ne_bytes(*w);
        lo += w & 0xffff_ffff;
        hi += w >> 32;
    }
    let mut sum = lo + hi;
    let mut pairs = tail.chunks_exact(2);
    for p in &mut pairs {
        if let [a, b] = p {
            sum += u64::from(u16::from_ne_bytes([*a, *b]));
        }
    }
    if let [last] = pairs.remainder() {
        sum += u64::from(u16::from_ne_bytes([*last, 0]));
    }
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !u16::from_be(sum as u16)
}

// ---- Checked byte access ------------------------------------------------
//
// Every read of wire-derived bytes in the decode paths below goes through
// these total accessors (or `slice::get`): no input, however truncated or
// mangled, can panic the parser. The module-level `#![deny(clippy::…)]`
// above forbids direct indexing, asserts and unwrap/expect/panic in this
// file outside `#[cfg(test)]`.

fn get_u8(b: &[u8], at: usize) -> Option<u8> {
    b.get(at).copied()
}

fn get_be16(b: &[u8], at: usize) -> Option<u16> {
    b.get(at..at.checked_add(2)?)
        .and_then(|s| <[u8; 2]>::try_from(s).ok())
        .map(u16::from_be_bytes)
}

fn get_be32(b: &[u8], at: usize) -> Option<u32> {
    b.get(at..at.checked_add(4)?)
        .and_then(|s| <[u8; 4]>::try_from(s).ok())
        .map(u32::from_be_bytes)
}

fn get_be64(b: &[u8], at: usize) -> Option<u64> {
    b.get(at..at.checked_add(8)?)
        .and_then(|s| <[u8; 8]>::try_from(s).ok())
        .map(u64::from_be_bytes)
}

const MPTCP_KIND: u8 = 30;

/// Writer over what is left of an [`OptionList`]'s 40 bytes.
/// A field that does not fit clears `fits`; the list commits `at` only if
/// the whole option did.
struct Tail<'a> {
    buf: &'a mut [u8; MAX_OPTIONS_LEN],
    at: usize,
    fits: bool,
}

impl Tail<'_> {
    #[inline]
    fn put<const N: usize>(&mut self, field: [u8; N]) {
        match self.buf.get_mut(self.at..).and_then(|rest| rest.first_chunk_mut::<N>()) {
            Some(dst) => {
                *dst = field;
                self.at += N;
            }
            None => self.fits = false,
        }
    }
}

/// The one encoder: the canonical bytes of `opt`, written at `out`'s tail.
#[inline]
fn encode_option(opt: &TcpOption, out: &mut Tail<'_>) {
    match opt {
        TcpOption::Mss(mss) => {
            out.put([2, 4]);
            out.put(mss.to_be_bytes());
        }
        TcpOption::WindowScale(s) => out.put([3, 3, *s]),
        TcpOption::SackPermitted => out.put([4, 2]),
        TcpOption::Sack(blocks) => {
            out.put([5, 2 + 8 * blocks.len() as u8]);
            for (lo, hi) in blocks {
                out.put(lo.to_wire().to_be_bytes());
                out.put(hi.to_wire().to_be_bytes());
            }
        }
        TcpOption::Mptcp(m) => match m {
            MptcpOption::Capable {
                key_local,
                key_remote,
            } => {
                let len = if key_remote.is_some() { 20 } else { 12 };
                // Subtype 0, version 0; checksum-off | HMAC-SHA1 flags, fixed.
                out.put([MPTCP_KIND, len, 0 << 4, 0x81]);
                out.put(key_local.to_be_bytes());
                if let Some(k) = key_remote {
                    out.put(k.to_be_bytes());
                }
            }
            MptcpOption::Join { token, nonce, backup } => {
                // Subtype | B bit; address id implicit.
                out.put([MPTCP_KIND, 12, 1 << 4 | *backup as u8, 0]);
                out.put(token.to_be_bytes());
                out.put(nonce.to_be_bytes());
            }
            MptcpOption::Dss {
                data_ack,
                mapping,
                data_fin,
            } => {
                let mut flags = 0u8;
                let mut len = 4u8;
                if data_ack.is_some() {
                    flags |= 0x01;
                    len += 8;
                }
                if mapping.is_some() {
                    flags |= 0x02;
                    len += 14;
                }
                if *data_fin {
                    flags |= 0x04;
                }
                out.put([MPTCP_KIND, len, 2 << 4, flags]);
                if let Some(ack) = data_ack {
                    out.put(ack.to_be_bytes());
                }
                if let Some(m) = mapping {
                    out.put(m.dseq.to_be_bytes());
                    out.put(m.subflow_seq.to_wire().to_be_bytes());
                    out.put(m.len.to_be_bytes());
                }
            }
            MptcpOption::AddAddr { addr_id, addr, port } => {
                // Subtype 3, ipver 4.
                out.put([MPTCP_KIND, 10, 3 << 4 | 4, *addr_id]);
                out.put(addr.0.to_be_bytes());
                out.put(port.to_be_bytes());
            }
            MptcpOption::Prio { backup } => {
                // Subtype | B bit; address id implicit: this subflow.
                out.put([MPTCP_KIND, 4, 5 << 4 | *backup as u8, 0]);
            }
        },
    }
}

/// Decode the option at the head of `buf` (not a NOP or EOL): the option
/// and the bytes it occupies. Shared by the header parser, where `buf` is
/// wire data, and [`OptionList::iter`], where it is the list's own encoding.
fn decode_option(buf: &[u8]) -> Result<(TcpOption, usize), WireError> {
    let kind = get_u8(buf, 0).ok_or(WireError::BadOption)?;
    let len = get_u8(buf, 1).ok_or(WireError::BadOption)? as usize;
    if len < 2 {
        return Err(WireError::BadOption);
    }
    let body = buf.get(2..len).ok_or(WireError::BadOption)?;
    let opt = match kind {
        2 => {
            if body.len() != 2 {
                return Err(WireError::BadOption);
            }
            TcpOption::Mss(get_be16(body, 0).ok_or(WireError::BadOption)?)
        }
        3 => {
            if body.len() != 1 {
                return Err(WireError::BadOption);
            }
            TcpOption::WindowScale(get_u8(body, 0).ok_or(WireError::BadOption)?)
        }
        4 => {
            if !body.is_empty() {
                return Err(WireError::BadOption);
            }
            TcpOption::SackPermitted
        }
        5 => {
            if !body.len().is_multiple_of(8) {
                return Err(WireError::BadOption);
            }
            let mut blocks = SackBlocks::new();
            for c in body.chunks_exact(8) {
                let lo = SeqNum(get_be32(c, 0).ok_or(WireError::BadOption)?);
                let hi = SeqNum(get_be32(c, 4).ok_or(WireError::BadOption)?);
                if !blocks.push(lo, hi) {
                    // > 4 blocks cannot fit the 40-byte budget anyway.
                    return Err(WireError::BadOption);
                }
            }
            TcpOption::Sack(blocks)
        }
        MPTCP_KIND => {
            let b0 = get_u8(body, 0).ok_or(WireError::BadOption)?;
            let subtype = b0 >> 4;
            TcpOption::Mptcp(match subtype {
                0 => {
                    let key_local = get_be64(body, 2).ok_or(WireError::BadOption)?;
                    let key_remote = match body.len() {
                        10 => None,
                        18 => Some(get_be64(body, 10).ok_or(WireError::BadOption)?),
                        _ => return Err(WireError::BadOption),
                    };
                    MptcpOption::Capable { key_local, key_remote }
                }
                1 => {
                    if body.len() != 10 {
                        return Err(WireError::BadOption);
                    }
                    // The planted-parser-bug feature (CI's proof that the
                    // fuzz harness catches real defects) reads the nonce
                    // one byte early, overlapping the token field — the
                    // classic misaligned-field parser defect. Caught by
                    // the decode→encode→decode fixpoint oracle.
                    #[cfg(feature = "planted-parser-bug")]
                    let nonce_at = 5;
                    #[cfg(not(feature = "planted-parser-bug"))]
                    let nonce_at = 6;
                    MptcpOption::Join {
                        token: get_be32(body, 2).ok_or(WireError::BadOption)?,
                        nonce: get_be32(body, nonce_at).ok_or(WireError::BadOption)?,
                        backup: b0 & 0x01 != 0,
                    }
                }
                2 => {
                    let flags = get_u8(body, 1).ok_or(WireError::BadOption)?;
                    let mut at = 2usize;
                    let data_ack = if flags & 0x01 != 0 {
                        let v = get_be64(body, at).ok_or(WireError::BadOption)?;
                        at += 8;
                        Some(v)
                    } else {
                        None
                    };
                    let mapping = if flags & 0x02 != 0 {
                        let dseq = get_be64(body, at).ok_or(WireError::BadOption)?;
                        let ssn = get_be32(body, at + 8).ok_or(WireError::BadOption)?;
                        let len = get_be16(body, at + 12).ok_or(WireError::BadOption)?;
                        Some(DssMapping {
                            dseq,
                            subflow_seq: SeqNum(ssn),
                            len,
                        })
                    } else {
                        None
                    };
                    MptcpOption::Dss {
                        data_ack,
                        mapping,
                        data_fin: flags & 0x04 != 0,
                    }
                }
                3 => {
                    if body.len() != 8 {
                        return Err(WireError::BadOption);
                    }
                    MptcpOption::AddAddr {
                        addr_id: get_u8(body, 1).ok_or(WireError::BadOption)?,
                        addr: Addr(get_be32(body, 2).ok_or(WireError::BadOption)?),
                        port: get_be16(body, 6).ok_or(WireError::BadOption)?,
                    }
                }
                5 => {
                    if body.len() != 2 {
                        return Err(WireError::BadOption);
                    }
                    MptcpOption::Prio {
                        backup: b0 & 0x01 != 0,
                    }
                }
                _ => return Err(WireError::BadOption),
            })
        }
        _ => return Err(WireError::BadOption),
    };
    Ok((opt, len))
}

fn parse_options(mut buf: &[u8]) -> Result<OptionList, WireError> {
    let mut opts = OptionList::new();
    while let Some(&kind) = buf.first() {
        match kind {
            0 => break, // EOL
            1 => {
                buf = buf.get(1..).unwrap_or(&[]); // NOP
                continue;
            }
            _ => {}
        }
        let (opt, len) = decode_option(buf)?;
        // Total by construction: an option's canonical encoding is never
        // longer than the wire form it was decoded from and the caller
        // hands at most MAX_OPTIONS_LEN bytes, so `push` cannot refuse —
        // but treat a refusal as malformed rather than trusting that.
        if !opts.push(opt) {
            return Err(WireError::BadOption);
        }
        buf = buf.get(len..).ok_or(WireError::BadOption)?;
    }
    Ok(opts)
}

/// Serialize a packet (network header + TCP segment) to wire bytes.
///
/// Everything is written into one pooled buffer — network header, TCP
/// header, options, payload — with the length, data-offset and checksum
/// fields back-patched at the end. No intermediate option buffer exists;
/// with a warm buffer pool the encode allocates nothing.
#[expect(
    clippy::indexing_slicing,
    clippy::disallowed_macros,
    reason = "writer side: data the program built; it back-patches a buffer it just filled"
)]
pub fn encode_packet(ip: &IpHeader, seg: &TcpSegment) -> Bytes {
    let mut out = BytesMut::with_capacity(
        IP_HEADER_LEN + TCP_HEADER_LEN + MAX_OPTIONS_LEN + seg.payload.len(),
    );

    // Network header (total length and checksum patched below).
    out.put_u8(4 << 4 | (ip.protocol & 0x0f));
    out.put_u8(ip.ttl);
    out.put_u16(0); // total length placeholder
    out.put_u32(ip.src.0);
    out.put_u32(ip.dst.0);
    out.put_u16(0); // header checksum placeholder
    out.put_u16(0); // ident

    // TCP header (data offset and checksum patched below).
    let tcp_start = out.len();
    out.put_u16(seg.src_port);
    out.put_u16(seg.dst_port);
    out.put_u32(seg.seq.to_wire());
    out.put_u32(seg.ack.to_wire());
    out.put_u8(0); // data offset placeholder
    out.put_u8(seg.flags);
    out.put_u16(seg.window);
    out.put_u16(0); // checksum placeholder
    out.put_u16(0); // urgent

    // The list is already the options area; pad with NOPs to a 4-byte
    // boundary (40 is one, so the padded area stays within the budget).
    let opts = seg.options.as_bytes();
    out.extend_from_slice(opts);
    let opt_len = opts.len().next_multiple_of(4);
    for _ in opts.len()..opt_len {
        out.put_u8(1);
    }
    let total = out.len() + seg.payload.len();
    assert!(
        total <= usize::from(u16::MAX),
        "packet of {total} bytes overflows the 16-bit total-length field"
    );
    out.extend_from_slice(&seg.payload);

    // Back-patch the length-dependent fields, then the checksums.
    let data_off_words = ((TCP_HEADER_LEN + opt_len) / 4) as u8;
    out[2..4].copy_from_slice(&(total as u16).to_be_bytes());
    out[tcp_start + 12] = data_off_words << 4;
    let ip_sum = checksum(&out[..IP_HEADER_LEN]);
    out[12..14].copy_from_slice(&ip_sum.to_be_bytes());
    let tcp_sum = checksum(&out[tcp_start..]);
    out[tcp_start + 16..tcp_start + 18].copy_from_slice(&tcp_sum.to_be_bytes());

    out.freeze()
}

/// Parse wire bytes into (network header, TCP segment), verifying checksums.
/// The payload is copied; hot paths that hold the whole frame as [`Bytes`]
/// should use [`parse_packet_shared`] instead.
pub fn parse_packet(data: &[u8]) -> Result<(IpHeader, TcpSegment), WireError> {
    let (header, protocol) = network_header(data)?;
    let (ip, mut seg, (lo, hi)) = parse_tcp(header, protocol, data)?;
    seg.payload = Bytes::copy_from_slice(data.get(lo..hi).unwrap_or(&[]));
    Ok((ip, seg))
}

/// As [`parse_packet`], but the payload comes back as an O(1) sub-slice
/// sharing `data`'s buffer — the zero-copy receive path.
pub fn parse_packet_shared(data: &Bytes) -> Result<(IpHeader, TcpSegment), WireError> {
    let (header, protocol) = network_header(data)?;
    let (ip, mut seg, (lo, hi)) = parse_tcp(header, protocol, data)?;
    // The range was bounds-checked against `data` during parsing.
    seg.payload = data.slice(lo..hi);
    Ok((ip, seg))
}

/// What every parse entry point starts with, once per packet: bounds-check
/// the network header and its version nibble, and hand back the header
/// bytes with the protocol nibble [`parse_any`] dispatches on. The length
/// and checksum checks come in the per-protocol parser, in its own order.
fn network_header(data: &[u8]) -> Result<(&[u8], u8), WireError> {
    let header = data.get(..IP_HEADER_LEN).ok_or(WireError::Truncated)?;
    let b0 = get_u8(header, 0).ok_or(WireError::Truncated)?;
    if b0 >> 4 != 4 {
        return Err(WireError::BadVersion);
    }
    Ok((header, b0 & 0x0f))
}

/// TCP parser core over a [`network_header`]-checked packet: returns the
/// segment with an empty payload plus the byte range of the payload within
/// `data`.
#[allow(clippy::type_complexity)]
fn parse_tcp(
    header: &[u8],
    protocol: u8,
    data: &[u8],
) -> Result<(IpHeader, TcpSegment, (usize, usize)), WireError> {
    let ttl = get_u8(header, 1).ok_or(WireError::Truncated)?;
    let total = get_be16(header, 2).ok_or(WireError::Truncated)? as usize;
    if total > data.len() || total < IP_HEADER_LEN {
        return Err(WireError::Truncated);
    }
    if checksum(header) != 0 {
        return Err(WireError::BadChecksum);
    }
    let ip = IpHeader {
        src: Addr(get_be32(header, 4).ok_or(WireError::Truncated)?),
        dst: Addr(get_be32(header, 8).ok_or(WireError::Truncated)?),
        protocol,
        ttl,
    };
    if protocol != PROTO_TCP {
        return Err(WireError::UnknownProtocol(protocol));
    }
    let tcp = data.get(IP_HEADER_LEN..total).ok_or(WireError::Truncated)?;
    if tcp.len() < TCP_HEADER_LEN {
        return Err(WireError::Truncated);
    }
    if checksum(tcp) != 0 {
        return Err(WireError::BadChecksum);
    }
    let data_off = ((get_u8(tcp, 12).ok_or(WireError::Truncated)? >> 4) as usize) * 4;
    if data_off < TCP_HEADER_LEN {
        return Err(WireError::Truncated);
    }
    let options = tcp.get(TCP_HEADER_LEN..data_off).ok_or(WireError::Truncated)?;
    // Validates the payload range; the range itself is returned.
    let _ = tcp.get(data_off..).ok_or(WireError::Truncated)?;
    let seg = TcpSegment {
        src_port: get_be16(tcp, 0).ok_or(WireError::Truncated)?,
        dst_port: get_be16(tcp, 2).ok_or(WireError::Truncated)?,
        seq: SeqNum(get_be32(tcp, 4).ok_or(WireError::Truncated)?),
        ack: SeqNum(get_be32(tcp, 8).ok_or(WireError::Truncated)?),
        flags: get_u8(tcp, 13).ok_or(WireError::Truncated)?,
        window: get_be16(tcp, 14).ok_or(WireError::Truncated)?,
        options: parse_options(options)?,
        payload: Bytes::new(),
    };
    Ok((ip, seg, (IP_HEADER_LEN + data_off, total)))
}

/// An ICMP-echo-like probe, used by the harness to warm cellular antennas
/// out of RRC idle before each measurement, exactly as the paper pinged the
/// server twice before starting (§3.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PingPacket {
    /// Correlation token chosen by the sender.
    pub token: u64,
    /// Whether this is the echo reply.
    pub reply: bool,
}

/// Serialize a ping probe.
#[expect(
    clippy::indexing_slicing,
    reason = "writer side: data the program built; it back-patches a buffer it just filled"
)]
pub fn encode_ping(ip: &IpHeader, ping: &PingPacket) -> Bytes {
    let total = IP_HEADER_LEN + 9;
    let mut out = BytesMut::with_capacity(total);
    out.put_u8(4 << 4 | (PROTO_PING & 0x0f));
    out.put_u8(ip.ttl);
    out.put_u16(total as u16);
    out.put_u32(ip.src.0);
    out.put_u32(ip.dst.0);
    out.put_u16(0);
    out.put_u16(0);
    let ip_sum = checksum(&out[..IP_HEADER_LEN]);
    out[12..14].copy_from_slice(&ip_sum.to_be_bytes());
    out.put_u8(ping.reply as u8);
    out.put_u64(ping.token);
    out.freeze()
}

/// Either kind of packet our network carries.
///
/// Neither variant is boxed: a `Box<TcpSegment>` would put one heap
/// allocation back on every packet parse (DESIGN.md §5.10, the allocation
/// gate), and with the byte-packed [`OptionList`] the TCP variant is small
/// enough to move.
#[derive(Clone, Debug, PartialEq)]
pub enum Packet {
    /// A TCP segment.
    Tcp(IpHeader, TcpSegment),
    /// A ping probe or reply.
    Ping(IpHeader, PingPacket),
}

/// Parse a packet of any supported protocol (payload copied; see
/// [`parse_any_shared`] for the zero-copy variant).
pub fn parse_any(data: &[u8]) -> Result<Packet, WireError> {
    let (header, protocol) = network_header(data)?;
    if protocol == PROTO_PING {
        return parse_ping(header, data);
    }
    let (ip, mut seg, (lo, hi)) = parse_tcp(header, protocol, data)?;
    seg.payload = Bytes::copy_from_slice(data.get(lo..hi).unwrap_or(&[]));
    Ok(Packet::Tcp(ip, seg))
}

/// As [`parse_any`], but TCP payloads come back as O(1) sub-slices of
/// `data` — what the hosts use on the frame receive path.
pub fn parse_any_shared(data: &Bytes) -> Result<Packet, WireError> {
    let (header, protocol) = network_header(data)?;
    if protocol == PROTO_PING {
        return parse_ping(header, data);
    }
    let (ip, mut seg, (lo, hi)) = parse_tcp(header, protocol, data)?;
    seg.payload = data.slice(lo..hi);
    Ok(Packet::Tcp(ip, seg))
}

/// As [`parse_any`] with every length, version, checksum and option check,
/// but header-only: a TCP segment comes back with an empty payload beside
/// the payload's byte range within `data` (empty for a ping) — what the
/// offline analyzer wants, which only ever asks how long a payload was.
pub fn parse_headers(data: &[u8]) -> Result<(Packet, core::ops::Range<usize>), WireError> {
    let (header, protocol) = network_header(data)?;
    if protocol == PROTO_PING {
        return parse_ping(header, data).map(|ping| (ping, 0..0));
    }
    let (ip, seg, (lo, hi)) = parse_tcp(header, protocol, data)?;
    Ok((Packet::Tcp(ip, seg), lo..hi))
}

/// Read just the destination address of a serialized packet — the routing
/// key a shared-access switch fans frames out on. Total: truncated or
/// non-IPv4 bytes yield `None` instead of an error (the switch counts them
/// as unrouted). Deliberately skips checksum validation: routing happens
/// per hop and the receiving host re-validates everything anyway.
pub fn peek_ip_dst(data: &[u8]) -> Option<Addr> {
    let b0 = get_u8(data, 0)?;
    if b0 >> 4 != 4 {
        return None;
    }
    Some(Addr(get_be32(data, 8)?))
}

/// Ping parser over a [`network_header`]-checked packet whose protocol
/// nibble is [`PROTO_PING`].
fn parse_ping(header: &[u8], data: &[u8]) -> Result<Packet, WireError> {
    if checksum(header) != 0 {
        return Err(WireError::BadChecksum);
    }
    let total = get_be16(header, 2).ok_or(WireError::Truncated)? as usize;
    if total > data.len() || total < IP_HEADER_LEN + 9 {
        return Err(WireError::Truncated);
    }
    let ip = IpHeader {
        src: Addr(get_be32(header, 4).ok_or(WireError::Truncated)?),
        dst: Addr(get_be32(header, 8).ok_or(WireError::Truncated)?),
        protocol: PROTO_PING,
        ttl: get_u8(header, 1).ok_or(WireError::Truncated)?,
    };
    let body = data.get(IP_HEADER_LEN..).ok_or(WireError::Truncated)?;
    Ok(Packet::Ping(
        ip,
        PingPacket {
            reply: get_u8(body, 0).ok_or(WireError::Truncated)? != 0,
            token: get_be64(body, 1).ok_or(WireError::Truncated)?,
        },
    ))
}

/// Rewrite a packet with every MPTCP option removed (what the paper's AT&T
/// web proxy did to port-80 traffic). Non-TCP or unparsable packets are
/// returned unchanged.
pub fn strip_mptcp_options(data: &[u8]) -> Bytes {
    match parse_packet(data) {
        Ok((ip, mut seg)) => {
            seg.options.retain(|o| !matches!(o, TcpOption::Mptcp(_)));
            encode_packet(&ip, &seg)
        }
        Err(_) => Bytes::copy_from_slice(data),
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_macros, clippy::disallowed_methods)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ip() -> IpHeader {
        IpHeader {
            src: Addr::new(10, 0, 1, 2),
            dst: Addr::new(192, 168, 1, 1),
            protocol: PROTO_TCP,
            ttl: 64,
        }
    }

    fn roundtrip(seg: &TcpSegment) -> TcpSegment {
        let bytes = encode_packet(&ip(), seg);
        let (h, parsed) = parse_packet(&bytes).expect("parse");
        assert_eq!(h, ip());
        parsed
    }

    #[test]
    fn bare_segment_roundtrips() {
        let seg = TcpSegment::bare(8080, 40000, SeqNum(123), SeqNum(456), tcp_flags::ACK);
        assert_eq!(roundtrip(&seg), seg);
    }

    #[test]
    fn syn_with_all_handshake_options_roundtrips() {
        let mut seg = TcpSegment::bare(40000, 8080, SeqNum(1), SeqNum(0), tcp_flags::SYN);
        seg.window = 65535;
        seg.options = [
            TcpOption::Mss(1400),
            TcpOption::WindowScale(7),
            TcpOption::SackPermitted,
            TcpOption::Mptcp(MptcpOption::Capable {
                key_local: 0xdead_beef_0bad_cafe,
                key_remote: None,
            }),
        ]
        .into();
        assert_eq!(roundtrip(&seg), seg);
    }

    #[test]
    fn capable_with_both_keys_roundtrips() {
        let mut seg = TcpSegment::bare(1, 2, SeqNum(0), SeqNum(0), tcp_flags::ACK);
        seg.options = [TcpOption::Mptcp(MptcpOption::Capable {
            key_local: 7,
            key_remote: Some(9),
        })]
        .into();
        assert_eq!(roundtrip(&seg), seg);
    }

    #[test]
    fn join_and_add_addr_roundtrip() {
        let mut seg = TcpSegment::bare(1, 2, SeqNum(0), SeqNum(0), tcp_flags::SYN);
        seg.options = [
            TcpOption::Mptcp(MptcpOption::Join {
                token: 0xaabbccdd,
                nonce: 0x11223344,
                backup: true,
            }),
            TcpOption::Mptcp(MptcpOption::AddAddr {
                addr_id: 2,
                addr: Addr::new(10, 0, 2, 2),
                port: 40001,
            }),
        ]
        .into();
        assert_eq!(roundtrip(&seg), seg);
    }

    #[test]
    fn prio_roundtrips() {
        for backup in [true, false] {
            let mut seg = TcpSegment::bare(1, 2, SeqNum(0), SeqNum(0), tcp_flags::ACK);
            seg.options = [TcpOption::Mptcp(MptcpOption::Prio { backup })].into();
            assert_eq!(roundtrip(&seg), seg);
        }
    }

    #[test]
    fn dss_variants_roundtrip() {
        for (ack, map, fin) in [
            (Some(99u64), None, false),
            (
                None,
                Some(DssMapping {
                    dseq: 1 << 40,
                    subflow_seq: SeqNum(777),
                    len: 1400,
                }),
                false,
            ),
            (
                Some(u64::MAX - 1),
                Some(DssMapping {
                    dseq: 0,
                    subflow_seq: SeqNum(u32::MAX),
                    len: 1,
                }),
                true,
            ),
        ] {
            let mut seg = TcpSegment::bare(1, 2, SeqNum(5), SeqNum(6), tcp_flags::ACK);
            seg.options = [TcpOption::Mptcp(MptcpOption::Dss {
                data_ack: ack,
                mapping: map,
                data_fin: fin,
            })]
            .into();
            assert_eq!(roundtrip(&seg), seg);
        }
    }

    #[test]
    fn sack_blocks_roundtrip() {
        let mut seg = TcpSegment::bare(1, 2, SeqNum(5), SeqNum(6), tcp_flags::ACK);
        seg.options = [TcpOption::Sack(
            [
                (SeqNum(100), SeqNum(200)),
                (SeqNum(300), SeqNum(400)),
                (SeqNum(u32::MAX - 5), SeqNum(10)),
            ]
            .into(),
        )]
        .into();
        assert_eq!(roundtrip(&seg), seg);
    }

    #[test]
    fn payload_roundtrips() {
        let mut seg = TcpSegment::bare(1, 2, SeqNum(5), SeqNum(6), tcp_flags::ACK | tcp_flags::PSH);
        seg.payload = Bytes::from(vec![0xabu8; 1400]);
        assert_eq!(roundtrip(&seg), seg);
    }

    #[test]
    fn shared_parse_is_zero_copy_and_equal() {
        let mut seg = TcpSegment::bare(1, 2, SeqNum(5), SeqNum(6), tcp_flags::ACK);
        seg.payload = Bytes::from(vec![0x77u8; 512]);
        seg.options = [TcpOption::Mptcp(MptcpOption::Dss {
            data_ack: Some(42),
            mapping: Some(DssMapping { dseq: 42, subflow_seq: SeqNum(5), len: 512 }),
            data_fin: false,
        })]
        .into();
        let bytes = encode_packet(&ip(), &seg);
        let (h1, copied) = parse_packet(&bytes).unwrap();
        let (h2, shared) = parse_packet_shared(&bytes).unwrap();
        assert_eq!(h1, h2);
        assert_eq!(copied, shared);
        // The shared payload points into the frame buffer itself.
        let frame_range = bytes.as_ref().as_ptr_range();
        assert!(frame_range.contains(&shared.payload.as_ref().as_ptr()));
        assert!(!frame_range.contains(&copied.payload.as_ref().as_ptr()));
    }

    #[test]
    fn option_list_refuses_what_the_budget_cannot_take() {
        // Twenty 2-byte options are a valid 40-byte options area.
        let mut opts = OptionList::new();
        for _ in 0..MAX_OPTIONS_LEN / 2 {
            assert!(opts.push(TcpOption::SackPermitted));
        }
        assert_eq!(opts.byte_len(), MAX_OPTIONS_LEN);
        let full = opts;
        assert!(!opts.push(TcpOption::SackPermitted), "a 41st byte must be refused");
        assert_eq!(opts, full, "a refused push leaves the list unchanged");
        assert_eq!(opts.iter().count(), 20);

        // The budget is bytes, not slots: DSS with ack and mapping (26) and
        // one ADD_ADDR (10) leave 4 bytes — room for MP_PRIO, not a second
        // ADD_ADDR. The encoder used to assert on this list.
        let add_addr = TcpOption::Mptcp(MptcpOption::AddAddr {
            addr_id: 2,
            addr: Addr::new(10, 0, 2, 2),
            port: 8080,
        });
        let mut opts: OptionList = [
            TcpOption::Mptcp(MptcpOption::Dss {
                data_ack: Some(1),
                mapping: Some(DssMapping { dseq: 1, subflow_seq: SeqNum(1), len: 1400 }),
                data_fin: false,
            }),
            add_addr,
        ]
        .into();
        assert_eq!(opts.byte_len(), 36);
        assert!(!opts.push(add_addr));
        assert_eq!(opts.byte_len(), 36);
        assert!(opts.push(TcpOption::Mptcp(MptcpOption::Prio { backup: true })));
        assert_eq!(opts.byte_len(), MAX_OPTIONS_LEN);

        let mut blocks = SackBlocks::new();
        for i in 0..SackBlocks::CAPACITY as u32 {
            assert!(blocks.push(SeqNum(i), SeqNum(i + 1)));
        }
        assert!(!blocks.push(SeqNum(9), SeqNum(10)), "5th SACK block must be rejected");
        assert_eq!(blocks.len(), SackBlocks::CAPACITY);
    }

    /// A segment is moved by value parser → host → socket and socket →
    /// host → encoder; these sizes are that cost (1,016 and 1,032 bytes
    /// with the twenty-slot option array).
    #[test]
    fn segment_and_packet_sizes_are_pinned() {
        assert_eq!(std::mem::size_of::<OptionList>(), 41);
        assert_eq!(std::mem::size_of::<TcpSegment>(), 88);
        assert_eq!(std::mem::size_of::<Packet>(), 104);
    }

    #[test]
    fn corruption_is_detected() {
        let seg = TcpSegment::bare(8080, 40000, SeqNum(123), SeqNum(456), tcp_flags::ACK);
        let bytes = encode_packet(&ip(), &seg);
        for i in [0usize, 5, 12, 20, 25, 30] {
            let mut corrupt = bytes.to_vec();
            corrupt[i] ^= 0x40;
            assert!(
                parse_packet(&corrupt).is_err(),
                "corruption at byte {i} undetected"
            );
        }
    }

    #[test]
    fn truncation_is_detected() {
        let mut seg = TcpSegment::bare(1, 2, SeqNum(0), SeqNum(0), tcp_flags::ACK);
        seg.payload = Bytes::from(vec![1u8; 100]);
        let bytes = encode_packet(&ip(), &seg);
        for n in [0, 5, IP_HEADER_LEN, IP_HEADER_LEN + 10, bytes.len() - 1] {
            assert!(parse_packet(&bytes[..n]).is_err(), "truncated to {n} parsed");
        }
    }

    #[test]
    fn strip_mptcp_removes_only_mptcp() {
        let mut seg = TcpSegment::bare(40000, 8080, SeqNum(1), SeqNum(0), tcp_flags::SYN);
        seg.options = [
            TcpOption::Mss(1400),
            TcpOption::Mptcp(MptcpOption::Capable {
                key_local: 1,
                key_remote: None,
            }),
            TcpOption::SackPermitted,
        ]
        .into();
        let stripped = strip_mptcp_options(&encode_packet(&ip(), &seg));
        let (_, parsed) = parse_packet(&stripped).unwrap();
        assert_eq!(
            parsed.options,
            OptionList::from([TcpOption::Mss(1400), TcpOption::SackPermitted])
        );
        assert_eq!(parsed.seq, seg.seq);
    }

    #[test]
    fn wire_len_accounts_for_padding() {
        // WindowScale alone is 3 bytes -> padded to 4.
        let mut seg = TcpSegment::bare(1, 2, SeqNum(0), SeqNum(0), tcp_flags::SYN);
        seg.options = [TcpOption::WindowScale(7)].into();
        let bytes = encode_packet(&ip(), &seg);
        assert_eq!(bytes.len(), IP_HEADER_LEN + TCP_HEADER_LEN + 4);
    }

    #[test]
    fn checksum_rfc1071_examples() {
        // Complement of sum; all-zero data checksums to 0xffff.
        assert_eq!(checksum(&[0, 0, 0, 0]), 0xffff);
        // Odd-length data is padded with zero.
        assert_eq!(checksum(&[0xff]), !0xff00);
    }

    /// RFC 1071 §4.1 as written: one big-endian 16-bit pair per step.
    fn checksum_byte_pairs(data: &[u8]) -> u16 {
        let mut sum: u32 = 0;
        for pair in data.chunks(2) {
            sum += u32::from(pair[0]) << 8 | u32::from(*pair.get(1).unwrap_or(&0));
            sum = (sum & 0xffff) + (sum >> 16);
        }
        !(sum as u16)
    }

    #[test]
    fn checksum_matches_byte_pair_reference() {
        let buf: Vec<u8> = (0..1504u32).map(|i| (i.wrapping_mul(2654435761) >> 11) as u8).collect();
        // Every length natively; a Miri-sized sample of them under the interpreter.
        for len in (0..=1500).step_by(if cfg!(miri) { 97 } else { 1 }) {
            // Odd tails at every length; unaligned word loads at offsets 1..4.
            for off in 0..4 {
                let data = &buf[off..off + len];
                assert_eq!(checksum(data), checksum_byte_pairs(data), "len {len} at offset {off}");
            }
        }
        // Every carry there can be: the accumulators must not saturate or wrap.
        let ones = vec![0xffu8; 65_535];
        assert_eq!(checksum(&ones), checksum_byte_pairs(&ones));
        // 32,767 words of 0xffff sum to -0; the odd byte is what is left.
        assert_eq!(checksum(&ones), !0xff00);
    }

    #[test]
    #[should_panic(expected = "overflows the 16-bit total-length field")]
    fn oversized_payload_is_refused_not_wrapped() {
        let mut seg = TcpSegment::bare(1, 2, SeqNum(0), SeqNum(0), tcp_flags::ACK);
        seg.payload = Bytes::from(vec![0u8; 65_536 - IP_HEADER_LEN - TCP_HEADER_LEN]);
        encode_packet(&ip(), &seg);
    }

    #[test]
    fn largest_packet_the_length_field_holds_roundtrips() {
        let mut seg = TcpSegment::bare(1, 2, SeqNum(0), SeqNum(0), tcp_flags::ACK);
        seg.payload = Bytes::from(vec![0x5au8; 65_535 - IP_HEADER_LEN - TCP_HEADER_LEN]);
        assert_eq!(roundtrip(&seg), seg);
    }

    /// `parse_any` checks the header once and dispatches on the protocol
    /// nibble; which error a damaged packet dies with is part of the fuzz
    /// corpus' fingerprints, so the order of the checks is pinned here.
    #[test]
    fn parse_any_error_precedence() {
        let ack = TcpSegment::bare(1, 2, SeqNum(3), SeqNum(4), tcp_flags::ACK);
        let tcp = encode_packet(&ip(), &ack);
        let ping = encode_ping(&ip(), &PingPacket { token: 7, reply: false });
        assert!(matches!(parse_any(&tcp), Ok(Packet::Tcp(..))));
        assert!(matches!(parse_any(&ping), Ok(Packet::Ping(..))));
        for pkt in [&tcp, &ping] {
            assert_eq!(parse_any(&pkt[..IP_HEADER_LEN - 1]), Err(WireError::Truncated));
            // Version is judged before length and checksum.
            let mut bad = pkt.to_vec();
            bad[0] ^= 0x20;
            bad[3] = 0;
            assert_eq!(parse_any(&bad), Err(WireError::BadVersion));
        }
        // TCP: declared length before header checksum before protocol.
        let mut bad = tcp.to_vec();
        bad[2] = 0xff; // total > data.len(), and the header sum is now stale
        assert_eq!(parse_any(&bad), Err(WireError::Truncated));
        let mut bad = tcp.to_vec();
        bad[0] = 4 << 4 | 9; // unknown protocol, stale header sum
        assert_eq!(parse_any(&bad), Err(WireError::BadChecksum));
        bad[12..14].fill(0);
        let sum = checksum(&bad[..IP_HEADER_LEN]);
        bad[12..14].copy_from_slice(&sum.to_be_bytes());
        assert_eq!(parse_any(&bad), Err(WireError::UnknownProtocol(9)));
        assert_eq!(parse_packet(&ping), Err(WireError::UnknownProtocol(PROTO_PING)));
        // Ping: header checksum before declared length.
        let mut bad = ping.to_vec();
        bad[2] = 0xff;
        assert_eq!(parse_any(&bad), Err(WireError::BadChecksum));
        assert_eq!(parse_any(&ping[..ping.len() - 1]), Err(WireError::Truncated));
    }

    /// The option encoder of the twenty-slot-array era, kept verbatim as the
    /// reference [`encode_option`] and [`OptionList::push`] must stay
    /// byte-identical to.
    fn encode_options(opts: &[TcpOption], out: &mut BytesMut) -> usize {
        let start = out.len();
        for opt in opts {
            match opt {
                TcpOption::Mss(mss) => {
                    out.put_u8(2);
                    out.put_u8(4);
                    out.put_u16(*mss);
                }
                TcpOption::WindowScale(s) => {
                    out.put_u8(3);
                    out.put_u8(3);
                    out.put_u8(*s);
                }
                TcpOption::SackPermitted => {
                    out.put_u8(4);
                    out.put_u8(2);
                }
                TcpOption::Sack(blocks) => {
                    out.put_u8(5);
                    out.put_u8(2 + 8 * blocks.len() as u8);
                    for (lo, hi) in blocks {
                        out.put_u32(lo.to_wire());
                        out.put_u32(hi.to_wire());
                    }
                }
                TcpOption::Mptcp(m) => match m {
                    MptcpOption::Capable {
                        key_local,
                        key_remote,
                    } => {
                        let len = if key_remote.is_some() { 20 } else { 12 };
                        out.put_u8(MPTCP_KIND);
                        out.put_u8(len);
                        out.put_u8(0 << 4); // subtype 0, version 0
                        out.put_u8(0x81); // checksum-off | HMAC-SHA1 flags, fixed
                        out.put_u64(*key_local);
                        if let Some(k) = key_remote {
                            out.put_u64(*k);
                        }
                    }
                    MptcpOption::Join { token, nonce, backup } => {
                        out.put_u8(MPTCP_KIND);
                        out.put_u8(12);
                        out.put_u8(1 << 4 | *backup as u8); // subtype | B bit
                        out.put_u8(0); // addr id (implicit)
                        out.put_u32(*token);
                        out.put_u32(*nonce);
                    }
                    MptcpOption::Dss {
                        data_ack,
                        mapping,
                        data_fin,
                    } => {
                        let mut flags = 0u8;
                        let mut len = 4u8;
                        if data_ack.is_some() {
                            flags |= 0x01;
                            len += 8;
                        }
                        if mapping.is_some() {
                            flags |= 0x02;
                            len += 14;
                        }
                        if *data_fin {
                            flags |= 0x04;
                        }
                        out.put_u8(MPTCP_KIND);
                        out.put_u8(len);
                        out.put_u8(2 << 4);
                        out.put_u8(flags);
                        if let Some(ack) = data_ack {
                            out.put_u64(*ack);
                        }
                        if let Some(m) = mapping {
                            out.put_u64(m.dseq);
                            out.put_u32(m.subflow_seq.to_wire());
                            out.put_u16(m.len);
                        }
                    }
                    MptcpOption::AddAddr { addr_id, addr, port } => {
                        out.put_u8(MPTCP_KIND);
                        out.put_u8(10);
                        out.put_u8(3 << 4 | 4); // subtype 3, ipver 4
                        out.put_u8(*addr_id);
                        out.put_u32(addr.0);
                        out.put_u16(*port);
                    }
                    MptcpOption::Prio { backup } => {
                        out.put_u8(MPTCP_KIND);
                        out.put_u8(4);
                        out.put_u8(5 << 4 | *backup as u8);
                        out.put_u8(0); // addr id (implicit: this subflow)
                    }
                },
            }
        }
        // Pad with NOPs to a 4-byte boundary.
        while !(out.len() - start).is_multiple_of(4) {
            out.put_u8(1);
        }
        out.len() - start
    }

    /// The old `Vec<TcpOption>`-era encoder, kept verbatim as the reference
    /// the inline [`OptionList`] encode must stay byte-identical to: options
    /// into a scratch buffer first, then headers, then copies, with
    /// checksums patched the old way.
    fn encode_packet_legacy(ip: &IpHeader, opts: &[TcpOption], seg: &TcpSegment) -> Vec<u8> {
        let mut opt_buf = BytesMut::with_capacity(60);
        let opt_len = encode_options(opts, &mut opt_buf);
        assert!(opt_len <= 40);
        let tcp_len = TCP_HEADER_LEN + opt_len + seg.payload.len();
        let total = IP_HEADER_LEN + tcp_len;
        let mut out = BytesMut::with_capacity(total);
        out.put_u8(4 << 4 | (ip.protocol & 0x0f));
        out.put_u8(ip.ttl);
        out.put_u16(total as u16);
        out.put_u32(ip.src.0);
        out.put_u32(ip.dst.0);
        out.put_u16(0);
        out.put_u16(0);
        let ip_sum = checksum(&out[..IP_HEADER_LEN]);
        out[12..14].copy_from_slice(&ip_sum.to_be_bytes());
        let tcp_start = out.len();
        out.put_u16(seg.src_port);
        out.put_u16(seg.dst_port);
        out.put_u32(seg.seq.to_wire());
        out.put_u32(seg.ack.to_wire());
        let data_off_words = ((TCP_HEADER_LEN + opt_len) / 4) as u8;
        out.put_u8(data_off_words << 4);
        out.put_u8(seg.flags);
        out.put_u16(seg.window);
        out.put_u16(0);
        out.put_u16(0);
        out.extend_from_slice(&opt_buf);
        out.extend_from_slice(&seg.payload);
        let tcp_sum = checksum(&out[tcp_start..]);
        out[tcp_start + 16..tcp_start + 18].copy_from_slice(&tcp_sum.to_be_bytes());
        out.to_vec()
    }

    /// One arbitrary option of any variant, built from a flat tuple of
    /// entropy (the vendored mini-proptest has no `prop_oneof!`).
    fn arb_option() -> impl Strategy<Value = TcpOption> {
        (
            0u8..9,
            any::<u64>(),
            any::<u64>(),
            any::<u32>(),
            any::<u16>(),
            any::<bool>(),
            any::<bool>(),
            proptest::collection::vec((any::<u32>(), any::<u32>()), 1..5),
        )
            .prop_map(|(sel, a, b, c, d, f1, f2, blocks)| match sel {
                0 => TcpOption::Mss(d),
                1 => TcpOption::WindowScale(a as u8),
                2 => TcpOption::SackPermitted,
                3 => TcpOption::Sack(
                    blocks
                        .into_iter()
                        .map(|(lo, hi)| (SeqNum(lo), SeqNum(hi)))
                        .collect(),
                ),
                4 => TcpOption::Mptcp(MptcpOption::Capable {
                    key_local: a,
                    key_remote: f1.then_some(b),
                }),
                5 => TcpOption::Mptcp(MptcpOption::Join {
                    token: a as u32,
                    nonce: c,
                    backup: f1,
                }),
                6 => TcpOption::Mptcp(MptcpOption::Dss {
                    data_ack: f1.then_some(a),
                    mapping: f2.then_some(DssMapping {
                        dseq: b,
                        subflow_seq: SeqNum(c),
                        len: d,
                    }),
                    data_fin: f1 != f2,
                }),
                7 => TcpOption::Mptcp(MptcpOption::AddAddr {
                    addr_id: a as u8,
                    addr: Addr(c),
                    port: d,
                }),
                _ => TcpOption::Mptcp(MptcpOption::Prio { backup: f1 }),
            })
    }

    /// Encoded size of one option, mirroring `encode_options`.
    fn option_wire_len(o: &TcpOption) -> usize {
        match o {
            TcpOption::Mss(_) => 4,
            TcpOption::WindowScale(_) => 3,
            TcpOption::SackPermitted => 2,
            TcpOption::Sack(b) => 2 + 8 * b.len(),
            TcpOption::Mptcp(MptcpOption::Capable { key_remote, .. }) => {
                if key_remote.is_some() { 20 } else { 12 }
            }
            TcpOption::Mptcp(MptcpOption::Join { .. }) => 12,
            TcpOption::Mptcp(MptcpOption::Dss { data_ack, mapping, .. }) => {
                4 + if data_ack.is_some() { 8 } else { 0 }
                    + if mapping.is_some() { 14 } else { 0 }
            }
            TcpOption::Mptcp(MptcpOption::AddAddr { .. }) => 10,
            TcpOption::Mptcp(MptcpOption::Prio { .. }) => 4,
        }
    }

    proptest! {
        #[test]
        fn arbitrary_data_segments_roundtrip(
            src in 0u16..u16::MAX,
            dst in 0u16..u16::MAX,
            seq: u32,
            ack: u32,
            flags in 0u8..32,
            window: u16,
            payload_len in 0usize..1460,
            dseq: u64,
            has_dss: bool,
        ) {
            let mut seg = TcpSegment::bare(src, dst, SeqNum(seq), SeqNum(ack), flags);
            seg.window = window;
            seg.payload = Bytes::from(vec![0x5au8; payload_len]);
            if has_dss {
                prop_assert!(seg.options.push(TcpOption::Mptcp(MptcpOption::Dss {
                    data_ack: Some(dseq),
                    mapping: Some(DssMapping {
                        dseq,
                        subflow_seq: SeqNum(seq),
                        len: payload_len as u16,
                    }),
                    data_fin: false,
                })));
            }
            let parsed = roundtrip(&seg);
            prop_assert_eq!(parsed, seg);
        }

        /// The inline OptionList encode must be byte-identical to the old
        /// Vec-based path on every MPTCP option variant, and re-parsing the
        /// bytes must reproduce the list (parse → encode → parse fixpoint).
        #[test]
        fn option_list_encoding_matches_legacy_vec_path(
            opts in proptest::collection::vec(arb_option(), 0..5),
            payload_len in 0usize..256,
        ) {
            // Keep the generated options within the 40-byte TCP limit,
            // exactly as the old Vec-based generator did.
            let mut seg = TcpSegment::bare(1, 2, SeqNum(7), SeqNum(8), tcp_flags::ACK);
            seg.payload = Bytes::from(vec![0xa5u8; payload_len]);
            let mut kept: Vec<TcpOption> = Vec::new();
            let mut budget = MAX_OPTIONS_LEN;
            for o in opts {
                let n = option_wire_len(&o);
                if n <= budget {
                    budget -= n;
                    kept.push(o);
                    prop_assert!(seg.options.push(o));
                }
            }
            let new_bytes = encode_packet(&ip(), &seg);
            let legacy = encode_packet_legacy(&ip(), &kept, &seg);
            prop_assert_eq!(new_bytes.as_ref(), legacy.as_slice());
            let (_, reparsed) = parse_packet(&new_bytes).expect("own encoding parses");
            prop_assert_eq!(reparsed.options.iter().collect::<Vec<_>>(), kept);
            let rebytes = encode_packet(&ip(), &reparsed);
            prop_assert_eq!(new_bytes.as_ref(), rebytes.as_ref());
        }

        /// The byte-packed list against the representation it replaced: a
        /// twenty-slot array whose `push` refused only the 21st option and
        /// whose overflow of the 40-byte area surfaced as an assert in
        /// `encode_packet`. For any option sequence, pushing in order (up
        /// to the first refusal) keeps exactly the longest prefix the
        /// array model could also have encoded, `iter` yields it back, and
        /// it survives the wire.
        #[test]
        fn byte_packed_list_matches_the_slot_array_model(
            opts in proptest::collection::vec(arb_option(), 0..24),
        ) {
            // The parent's semantics: slots first, bytes at encode time.
            struct SlotArray(Vec<TcpOption>);
            impl SlotArray {
                fn push(&mut self, o: TcpOption) -> bool {
                    let room = self.0.len() < 20;
                    if room {
                        self.0.push(o);
                    }
                    room
                }
                fn encodes(&self) -> bool {
                    self.0.iter().map(option_wire_len).sum::<usize>() <= MAX_OPTIONS_LEN
                }
            }
            let mut model = SlotArray(Vec::new());
            for &o in &opts {
                let len_before = model.0.len();
                if !model.push(o) {
                    break;
                }
                if !model.encodes() {
                    model.0.truncate(len_before);
                    break;
                }
            }

            let mut seg = TcpSegment::bare(1, 2, SeqNum(7), SeqNum(8), tcp_flags::ACK);
            let mut accepted = 0;
            for &o in &opts {
                if !seg.options.push(o) {
                    break;
                }
                accepted += 1;
            }
            prop_assert_eq!(accepted, model.0.len());
            prop_assert_eq!(seg.options.iter().collect::<Vec<_>>(), model.0.clone());
            prop_assert_eq!(
                seg.options.byte_len(),
                model.0.iter().map(option_wire_len).sum::<usize>()
            );
            prop_assert_eq!(&opts.iter().copied().collect::<OptionList>(), &seg.options);
            let mut reference = BytesMut::with_capacity(64);
            encode_options(&model.0, &mut reference);
            let padded = seg.options.byte_len().next_multiple_of(4);
            prop_assert_eq!(reference.len(), padded);
            prop_assert_eq!(&reference[..seg.options.byte_len()], seg.options.as_bytes());
            prop_assert_eq!(roundtrip(&seg), seg);
        }

        #[test]
        fn parser_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..200)) {
            let _ = parse_packet(&data);
        }
    }
}
