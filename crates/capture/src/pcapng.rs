//! Minimal pcapng writer and reader.
//!
//! The writer emits exactly the block set the capture needs — one Section
//! Header Block, one Interface Description Block per tap vantage, and one
//! Enhanced Packet Block per observed frame — in the little-endian layout
//! of the pcapng specification (draft-ietf-opsawg-pcapng). Files it
//! produces open in real Wireshark/tcpdump. Because the simulator's wire
//! format is a custom IPv4-like encoding, interfaces are declared as
//! `LINKTYPE_USER0` (147): external tools can list, filter and timestamp
//! the packets but leave byte-level decoding to [`capture-dump`][crate].
//!
//! Timestamps are simulated time at nanosecond resolution (`if_tsresol` =
//! 9), so a pcapng written from a deterministic run is itself byte-stable
//! across runs.
//!
//! The reader accepts anything the writer produces plus the common
//! variations (unknown block types are skipped, unknown options ignored),
//! and rejects truncated or byte-swapped input with a typed error. It
//! borrows: a [`PcapFile`] holds its packets as sub-slices of the buffer it
//! was read from, so reading a capture back copies none of it.
//!
//! An option's length field is 16 bits: the writer clips an interface name
//! or comment to the longest prefix of at most 65,535 bytes that ends on a
//! `char` boundary, and the reader clips what lossy UTF-8 decoding inflated
//! past that, so whatever the reader returns the writer stores whole.

// Strict decode surface (DESIGN.md §5.12): on top of the crate's panic
// wall, no indexing and no assert; and, as a data-path module of the alloc
// wall, no `to_vec` (both lists are in the root `clippy.toml`).
#![deny(clippy::indexing_slicing, clippy::disallowed_macros, clippy::disallowed_methods)]

use core::fmt;

use mpw_sim::SimTime;

/// pcapng link type for user-defined encapsulation (LINKTYPE_USER0).
pub const LINKTYPE_USER0: u16 = 147;

const BT_SHB: u32 = 0x0A0D_0D0A;
const BT_IDB: u32 = 0x0000_0001;
const BT_EPB: u32 = 0x0000_0006;
const BYTE_ORDER_MAGIC: u32 = 0x1A2B_3C4D;
const OPT_END: u16 = 0;
const OPT_COMMENT: u16 = 1;
const OPT_IF_NAME: u16 = 2;
const OPT_IF_TSRESOL: u16 = 9;

/// Errors from [`read_pcapng`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PcapError {
    /// Input ended in the middle of a block.
    Truncated,
    /// The first block is not a section header.
    NotASection,
    /// Big-endian sections are not supported (the writer never emits them).
    ByteSwapped,
    /// The byte-order magic is unrecognized.
    BadMagic,
    /// A block's declared length is impossible.
    BadBlockLength,
    /// An EPB references an interface id with no preceding IDB.
    UnknownInterface(u32),
}

impl fmt::Display for PcapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PcapError::Truncated => write!(f, "truncated pcapng"),
            PcapError::NotASection => write!(f, "file does not start with a section header"),
            PcapError::ByteSwapped => write!(f, "big-endian pcapng not supported"),
            PcapError::BadMagic => write!(f, "bad byte-order magic"),
            PcapError::BadBlockLength => write!(f, "impossible block length"),
            PcapError::UnknownInterface(i) => write!(f, "packet references unknown interface {i}"),
        }
    }
}

impl std::error::Error for PcapError {}

/// Streaming pcapng writer. Interfaces must be added before any packet
/// that references them (the blocks are emitted in call order).
#[derive(Debug)]
pub struct PcapWriter {
    buf: Vec<u8>,
    n_ifaces: u32,
}

impl PcapWriter {
    /// Start a new section.
    pub fn new() -> Self {
        Self::with_capacity(4096)
    }

    /// Start a new section in a buffer of at least `capacity` bytes: a
    /// writer that is told the size of its file up front never moves it.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut w = PcapWriter {
            buf: Vec::with_capacity(capacity),
            n_ifaces: 0,
        };
        // SHB: magic, version 1.0, unknown section length.
        let start = w.begin_block(BT_SHB);
        put_u32(&mut w.buf, BYTE_ORDER_MAGIC);
        put_u16(&mut w.buf, 1);
        put_u16(&mut w.buf, 0);
        w.buf.extend_from_slice(&u64::MAX.to_le_bytes());
        w.end_block(start);
        w
    }

    /// Declare a capture interface; returns its id for [`Self::packet`].
    /// A name over 65,535 bytes is clipped (see the module docs).
    pub fn add_interface(&mut self, name: &str) -> u32 {
        let start = self.begin_block(BT_IDB);
        put_u16(&mut self.buf, LINKTYPE_USER0);
        put_u16(&mut self.buf, 0); // reserved
        put_u32(&mut self.buf, 0); // snaplen: unlimited
        put_option(&mut self.buf, OPT_IF_NAME, clip_option(name).as_bytes());
        put_option(&mut self.buf, OPT_IF_TSRESOL, &[9]); // nanoseconds
        put_u16(&mut self.buf, OPT_END);
        put_u16(&mut self.buf, 0);
        self.end_block(start);
        let id = self.n_ifaces;
        self.n_ifaces += 1;
        id
    }

    /// Append one packet. `comment`, when present, is stored as the EPB's
    /// `opt_comment` (the capture uses it to label drop records), clipped to
    /// the 65,535 bytes an option can carry (see the module docs).
    ///
    /// Blocks are serialized straight into the writer's output buffer with a
    /// length back-patch, so a warmed-up writer appends packets without any
    /// intermediate per-block allocation.
    #[expect(
        clippy::disallowed_macros,
        reason = "writer side: data the program built; an undeclared interface is a caller bug"
    )]
    pub fn packet(&mut self, iface: u32, at: SimTime, data: &[u8], comment: Option<&str>) {
        assert!(iface < self.n_ifaces, "packet on undeclared interface");
        let ts = at.as_nanos();
        let start = self.begin_block(BT_EPB);
        put_u32(&mut self.buf, iface);
        put_u32(&mut self.buf, (ts >> 32) as u32);
        put_u32(&mut self.buf, ts as u32);
        put_u32(&mut self.buf, data.len() as u32);
        put_u32(&mut self.buf, data.len() as u32);
        self.buf.extend_from_slice(data);
        pad4(&mut self.buf);
        if let Some(c) = comment {
            put_option(&mut self.buf, OPT_COMMENT, clip_option(c).as_bytes());
            put_u16(&mut self.buf, OPT_END);
            put_u16(&mut self.buf, 0);
        }
        self.end_block(start);
    }

    /// Finish the section and return the file bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }

    /// Open a block: write the type and a length placeholder, return the
    /// block's start offset for [`Self::end_block`].
    fn begin_block(&mut self, block_type: u32) -> usize {
        let start = self.buf.len();
        put_u32(&mut self.buf, block_type);
        put_u32(&mut self.buf, 0); // total length, patched by end_block
        start
    }

    /// Close a block: back-patch the total length and append the trailing
    /// duplicate the spec requires.
    #[expect(
        clippy::disallowed_macros,
        reason = "writer-side internal invariant, not wire-derived input"
    )]
    #[expect(
        clippy::indexing_slicing,
        reason = "writer patches the length of a block it just opened"
    )]
    fn end_block(&mut self, start: usize) {
        debug_assert!((self.buf.len() - start).is_multiple_of(4), "block body must be padded");
        let total = (self.buf.len() - start + 4) as u32;
        self.buf[start + 4..start + 8].copy_from_slice(&total.to_le_bytes());
        put_u32(&mut self.buf, total);
    }
}

impl Default for PcapWriter {
    fn default() -> Self {
        Self::new()
    }
}

/// A capture interface read back from a file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PcapInterface {
    /// `if_name`, empty if absent.
    pub name: String,
    /// `if_tsresol` exponent (timestamps are in 10^-N seconds); the writer
    /// always uses 9, absent defaults to the spec's 6 (microseconds).
    pub tsresol_exp: u8,
}

/// One packet read back from a file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PcapPacket<'a> {
    /// Interface id (index into [`PcapFile::interfaces`]).
    pub iface: u32,
    /// Capture timestamp, converted back to simulated time.
    pub at: SimTime,
    /// Captured bytes — a sub-slice of the buffer the file was read from,
    /// not a copy.
    pub data: &'a [u8],
    /// `opt_comment`, if present (drop records carry one).
    pub comment: Option<String>,
}

/// A fully parsed capture file, borrowing its packet bytes from the buffer
/// handed to [`read_pcapng`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PcapFile<'a> {
    /// Interfaces in declaration order.
    pub interfaces: Vec<PcapInterface>,
    /// Packets in file order.
    pub packets: Vec<PcapPacket<'a>>,
}

/// Parse a (little-endian, single-section) pcapng file without copying any
/// packet bytes: every [`PcapPacket::data`] is a sub-slice of `data`.
///
/// The reader is total over arbitrary bytes: every read of the input goes
/// through `get_u32`/`get_u16`/`slice::get`, so truncated or mangled
/// files produce a typed [`PcapError`], never a panic. This module's
/// `#![deny(clippy::…)]` enforces this.
pub fn read_pcapng(data: &[u8]) -> Result<PcapFile<'_>, PcapError> {
    let mut out = PcapFile::default();
    let mut at = 0usize;
    let mut first = true;
    while at < data.len() {
        if data.len() - at < 12 {
            return Err(PcapError::Truncated);
        }
        let block_type = get_u32(data, at).ok_or(PcapError::Truncated)?;
        let total = get_u32(data, at + 4).ok_or(PcapError::Truncated)? as usize;
        if first {
            if block_type != BT_SHB {
                return Err(PcapError::NotASection);
            }
            first = false;
        }
        if total < 12 || !total.is_multiple_of(4) {
            return Err(PcapError::BadBlockLength);
        }
        let end = at.checked_add(total).ok_or(PcapError::BadBlockLength)?;
        if end > data.len() {
            return Err(PcapError::Truncated);
        }
        let body = data.get(at + 8..end - 4).ok_or(PcapError::Truncated)?;
        let trailer = get_u32(data, end - 4).ok_or(PcapError::Truncated)? as usize;
        if trailer != total {
            return Err(PcapError::BadBlockLength);
        }
        match block_type {
            BT_SHB => {
                let magic = get_u32(body, 0).ok_or(PcapError::Truncated)?;
                if magic == BYTE_ORDER_MAGIC.swap_bytes() {
                    return Err(PcapError::ByteSwapped);
                }
                if magic != BYTE_ORDER_MAGIC {
                    return Err(PcapError::BadMagic);
                }
            }
            BT_IDB => {
                if body.len() < 8 {
                    return Err(PcapError::Truncated);
                }
                let mut iface = PcapInterface {
                    name: String::new(),
                    tsresol_exp: 6,
                };
                let opts = body.get(8..).unwrap_or(&[]);
                for (code, val) in OptionIter::new(opts) {
                    match code {
                        OPT_IF_NAME => {
                            iface.name = option_string(val);
                        }
                        OPT_IF_TSRESOL => {
                            if let &[exp] = val {
                                if exp & 0x80 == 0 {
                                    iface.tsresol_exp = exp;
                                }
                            }
                        }
                        _ => {}
                    }
                }
                out.interfaces.push(iface);
            }
            BT_EPB => {
                if body.len() < 20 {
                    return Err(PcapError::Truncated);
                }
                let iface = get_u32(body, 0).ok_or(PcapError::Truncated)?;
                let Some(idesc) = out.interfaces.get(iface as usize) else {
                    return Err(PcapError::UnknownInterface(iface));
                };
                let ts_hi = get_u32(body, 4).ok_or(PcapError::Truncated)?;
                let ts_lo = get_u32(body, 8).ok_or(PcapError::Truncated)?;
                let ts = (u64::from(ts_hi) << 32) | u64::from(ts_lo);
                let caplen = get_u32(body, 12).ok_or(PcapError::Truncated)? as usize;
                let packet_end = 20usize.checked_add(caplen).ok_or(PcapError::Truncated)?;
                let packet = body.get(20..packet_end).ok_or(PcapError::Truncated)?;
                let nanos = match idesc.tsresol_exp {
                    9 => ts,
                    exp if exp < 9 => ts.saturating_mul(10u64.pow(u32::from(9 - exp))),
                    // A sub-attosecond if_tsresol (exp ≥ 29) makes the
                    // divisor exceed u64::MAX: every timestamp rounds to 0.
                    // The unchecked `10u64.pow(exp - 9)` here wrapped to 0
                    // and divided by it (fuzzer find; regression input in
                    // tests/fuzz-corpus/pcapng/).
                    exp => match 10u64.checked_pow(u32::from(exp - 9)) {
                        Some(div) => ts / div,
                        None => 0,
                    },
                };
                let mut comment = None;
                let opts_at = packet_end.next_multiple_of(4);
                if let Some(opts) = body.get(opts_at..) {
                    for (code, val) in OptionIter::new(opts) {
                        if code == OPT_COMMENT && comment.is_none() {
                            comment = Some(option_string(val));
                        }
                    }
                }
                out.packets.push(PcapPacket {
                    iface,
                    at: SimTime::from_nanos(nanos),
                    data: packet,
                    comment,
                });
            }
            _ => {} // unknown block: skip
        }
        at = end;
    }
    if first {
        return Err(PcapError::Truncated);
    }
    Ok(out)
}

struct OptionIter<'a> {
    buf: &'a [u8],
}

impl<'a> OptionIter<'a> {
    fn new(buf: &'a [u8]) -> Self {
        OptionIter { buf }
    }
}

impl<'a> Iterator for OptionIter<'a> {
    type Item = (u16, &'a [u8]);
    fn next(&mut self) -> Option<(u16, &'a [u8])> {
        let code = get_u16(self.buf, 0)?;
        let len = get_u16(self.buf, 2)? as usize;
        if code == OPT_END {
            return None;
        }
        let end = 4usize.checked_add(len)?;
        let val = self.buf.get(4..end)?;
        self.buf = self
            .buf
            .get(end.next_multiple_of(4)..)
            .unwrap_or(&[]);
        Some((code, val))
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn get_u16(data: &[u8], at: usize) -> Option<u16> {
    data.get(at..at.checked_add(2)?)
        .and_then(|s| <[u8; 2]>::try_from(s).ok())
        .map(u16::from_le_bytes)
}

fn get_u32(data: &[u8], at: usize) -> Option<u32> {
    data.get(at..at.checked_add(4)?)
        .and_then(|s| <[u8; 4]>::try_from(s).ok())
        .map(u32::from_le_bytes)
}

/// The longest prefix of `s` that fits an option's 16-bit length field and
/// ends on a `char` boundary.
fn clip_option(s: &str) -> &str {
    let mut end = s.len().min(usize::from(u16::MAX));
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    s.get(..end).unwrap_or(s)
}

/// An option value read back as text: decoded lossily, then clipped to what
/// the writer stores whole.
fn option_string(val: &[u8]) -> String {
    let mut s = String::from_utf8_lossy(val).into_owned();
    s.truncate(clip_option(&s).len());
    s
}

/// `val` is at most 65,535 bytes: a string goes through [`clip_option`].
fn put_option(out: &mut Vec<u8>, code: u16, val: &[u8]) {
    put_u16(out, code);
    put_u16(out, val.len() as u16);
    out.extend_from_slice(val);
    pad4(out);
}

fn pad4(out: &mut Vec<u8>) {
    while !out.len().is_multiple_of(4) {
        out.push(0);
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_macros)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_interfaces_packets_and_comments() {
        let mut w = PcapWriter::new();
        let i0 = w.add_interface("path0:down@client");
        let i1 = w.add_interface("drops");
        w.packet(i0, SimTime::from_millis(5), b"hello", None);
        w.packet(i1, SimTime::from_nanos(123_456_789_012), b"bye", Some("dropped: ChannelLoss"));
        let bytes = w.into_bytes();
        let f = read_pcapng(&bytes).expect("parse");
        assert_eq!(f.interfaces.len(), 2);
        assert_eq!(f.interfaces[0].name, "path0:down@client");
        assert_eq!(f.interfaces[0].tsresol_exp, 9);
        assert_eq!(f.interfaces[1].name, "drops");
        assert_eq!(f.packets.len(), 2);
        assert_eq!(f.packets[0].at, SimTime::from_millis(5));
        assert_eq!(f.packets[0].data, *b"hello");
        assert_eq!(f.packets[0].comment, None);
        assert_eq!(f.packets[1].at, SimTime::from_nanos(123_456_789_012));
        assert_eq!(f.packets[1].comment.as_deref(), Some("dropped: ChannelLoss"));
    }

    #[test]
    fn read_is_zero_copy() {
        let mut w = PcapWriter::new();
        let i0 = w.add_interface("x");
        w.packet(i0, SimTime::from_millis(1), b"payload!", None);
        let file_bytes = w.into_bytes();
        let f = read_pcapng(&file_bytes).expect("parse");
        let data = f.packets[0].data;
        assert_eq!(*data, *b"payload!");
        let base = file_bytes.as_ptr() as usize;
        let p = data.as_ptr() as usize;
        assert!(
            p >= base && p + data.len() <= base + file_bytes.len(),
            "packet data must be a sub-slice of the file buffer"
        );
    }

    /// A comment (or interface name) longer than an option's 16-bit length
    /// field used to be written whole behind a wrapped length, so the block
    /// read back as something else. Reachable by re-writing a read-back
    /// file: lossy decoding triples every invalid byte, so a 22 KB
    /// non-UTF-8 `opt_comment` comes back as 66 KB (regression input in
    /// tests/fuzz-corpus/pcapng/).
    #[test]
    fn overlong_comment_and_name_are_clipped_at_a_char_boundary() {
        // 21,846 three-byte characters are 65,538 bytes: the longest
        // prefix that fits is 21,845 of them, 65,535 bytes exactly.
        let long = "\u{fffd}".repeat(21_846);
        // One ASCII byte in front moves the boundary: 65,533 bytes fit.
        let shifted = format!("x{long}");
        let mut w = PcapWriter::new();
        w.add_interface(&shifted);
        w.packet(0, SimTime::ZERO, b"abc", Some(&long));
        w.packet(0, SimTime::from_millis(1), b"next", None);
        let bytes = w.into_bytes();
        let f = read_pcapng(&bytes).expect("parse");
        assert_eq!(f.interfaces[0].name, shifted[..1 + 3 * 21_844]);
        assert_eq!(f.packets.len(), 2);
        assert_eq!(f.packets[0].data, *b"abc");
        assert_eq!(f.packets[0].comment.as_deref(), Some(&long[..3 * 21_845]));
        assert_eq!(f.packets[1].data, *b"next");

        // What the reader hands back, the writer stores whole: a 22 KB
        // invalid-UTF-8 comment decodes to 66 KB and is clipped on the way
        // in, so read → write → read is a fixpoint.
        let mut raw = PcapWriter::new();
        raw.add_interface("i");
        raw.packet(0, SimTime::ZERO, b"abc", Some(&"y".repeat(22_000)));
        let mut raw = raw.into_bytes();
        for b in raw.iter_mut().filter(|b| **b == b'y') {
            *b = 0xff;
        }
        let first = read_pcapng(&raw).expect("parse");
        assert_eq!(first.packets[0].comment.as_deref(), Some(&long[..3 * 21_845]));
        let mut again = PcapWriter::new();
        again.add_interface(&first.interfaces[0].name);
        let p = &first.packets[0];
        again.packet(p.iface, p.at, p.data, p.comment.as_deref());
        let again = again.into_bytes();
        assert_eq!(read_pcapng(&again).expect("parse"), first);
    }

    #[test]
    fn header_bytes_match_the_spec() {
        let w = PcapWriter::new();
        let bytes = w.into_bytes();
        // SHB: type, total length 28, byte-order magic, version 1.0.
        assert_eq!(&bytes[0..4], &0x0A0D_0D0Au32.to_le_bytes());
        assert_eq!(&bytes[4..8], &28u32.to_le_bytes());
        assert_eq!(&bytes[8..12], &0x1A2B_3C4Du32.to_le_bytes());
        assert_eq!(&bytes[12..14], &1u16.to_le_bytes());
        assert_eq!(&bytes[14..16], &0u16.to_le_bytes());
        assert_eq!(&bytes[24..28], &28u32.to_le_bytes());
    }

    #[test]
    fn truncated_and_swapped_inputs_are_rejected() {
        let mut w = PcapWriter::new();
        w.add_interface("x");
        w.packet(0, SimTime::ZERO, b"abcd", None);
        let bytes = w.into_bytes();
        assert_eq!(read_pcapng(&bytes[..bytes.len() - 3]), Err(PcapError::Truncated));
        assert_eq!(read_pcapng(&bytes[..6]), Err(PcapError::Truncated));
        assert_eq!(read_pcapng(b""), Err(PcapError::Truncated));
        // Flip the byte-order magic to its big-endian spelling.
        let mut swapped = bytes.clone();
        swapped[8..12].copy_from_slice(&0x1A2B_3C4Du32.to_be_bytes());
        assert_eq!(read_pcapng(&swapped), Err(PcapError::ByteSwapped));
        // A file that does not start with an SHB.
        assert_eq!(read_pcapng(&bytes[28..]), Err(PcapError::NotASection));
    }

    #[test]
    fn packet_on_undeclared_interface_is_rejected() {
        let mut w = PcapWriter::new();
        w.add_interface("only");
        w.packet(0, SimTime::ZERO, b"ok", None);
        let mut bytes = w.into_bytes();
        // Corrupt the EPB's interface id (EPB body starts 8 bytes into the
        // block; the block follows SHB(28) + IDB).
        let idb_total = get_u32(&bytes, 32).unwrap() as usize;
        let epb_body = 28 + idb_total + 8;
        bytes[epb_body..epb_body + 4].copy_from_slice(&7u32.to_le_bytes());
        assert_eq!(read_pcapng(&bytes), Err(PcapError::UnknownInterface(7)));
    }

    #[test]
    fn microsecond_resolution_is_upconverted() {
        // Hand-build an IDB with tsresol 6 and one EPB with ts=1500 µs.
        let mut w = PcapWriter::new();
        w.add_interface("u");
        w.packet(0, SimTime::ZERO, b"", None);
        let mut bytes = w.into_bytes();
        // Patch if_tsresol value 9 -> 6. The option layout in our IDB body:
        // linktype(4) + if_name option + if_tsresol option. Find the byte 9
        // following the tsresol option header.
        let idb_start = 28;
        let total = get_u32(&bytes, idb_start + 4).unwrap() as usize;
        let body = idb_start + 8..idb_start + total - 4;
        // if_tsresol has code 9, len 1; scan the body for that header.
        let mut patched = false;
        for i in body.clone().take(total - 12 - 4) {
            if bytes[i] == 9 && bytes[i + 1] == 0 && bytes[i + 2] == 1 && bytes[i + 3] == 0 {
                bytes[i + 4] = 6;
                patched = true;
                break;
            }
        }
        assert!(patched, "did not find if_tsresol option");
        // Patch the EPB timestamp low word to 1500 (µs now).
        let epb_body = idb_start + total + 8;
        bytes[epb_body + 8..epb_body + 12].copy_from_slice(&1500u32.to_le_bytes());
        let f = read_pcapng(&bytes).expect("parse");
        assert_eq!(f.interfaces[0].tsresol_exp, 6);
        assert_eq!(f.packets[0].at, SimTime::from_micros(1500));
    }

    #[test]
    fn huge_tsresol_exponent_rounds_to_zero_instead_of_panicking() {
        // An if_tsresol exponent of 81 declares 10^-81-second units; the
        // nanosecond divisor 10^72 does not fit u64 and used to wrap to 0,
        // panicking the timestamp division (mpw-fuzz pcapng target find;
        // regression input in tests/fuzz-corpus/pcapng/).
        let mut w = PcapWriter::new();
        w.add_interface("weird");
        w.packet(0, SimTime::from_nanos(u64::MAX), b"x", None);
        let mut bytes = w.into_bytes();
        let idb_start = 28;
        let total = get_u32(&bytes, idb_start + 4).unwrap() as usize;
        let mut patched = false;
        for i in idb_start + 8..idb_start + total - 8 {
            if bytes[i] == 9 && bytes[i + 1] == 0 && bytes[i + 2] == 1 && bytes[i + 3] == 0 {
                bytes[i + 4] = 81;
                patched = true;
                break;
            }
        }
        assert!(patched, "did not find if_tsresol option");
        let f = read_pcapng(&bytes).expect("parse");
        assert_eq!(f.interfaces[0].tsresol_exp, 81);
        assert_eq!(f.packets[0].at, SimTime::ZERO);
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Anything the writer emits, the reader parses back exactly —
            /// interfaces, nanosecond timestamps, payload bytes, and
            /// comments. CI also runs this under miri (PROPTEST_CASES=16).
            #[test]
            fn writer_reader_roundtrip(
                n_ifaces in 1u32..4,
                pkts in proptest::collection::vec(
                    (
                        any::<u32>(),
                        any::<u64>(),
                        proptest::collection::vec(any::<u8>(), 0..64),
                        any::<bool>(),
                        proptest::collection::vec(0x20u8..0x7f, 0..12),
                    ),
                    0..12,
                ),
            ) {
                let mut w = PcapWriter::new();
                for i in 0..n_ifaces {
                    w.add_interface(&format!("path{i}:down@client"));
                }
                let mut want = Vec::new();
                for (iface_raw, nanos, data, has_comment, comment) in &pkts {
                    let iface = iface_raw % n_ifaces;
                    let at = SimTime::from_nanos(*nanos);
                    let comment = has_comment
                        .then(|| String::from_utf8(comment.clone()).expect("ascii"));
                    w.packet(iface, at, data, comment.as_deref());
                    want.push(PcapPacket { iface, at, data, comment });
                }
                let bytes = w.into_bytes();
                let f = read_pcapng(&bytes).expect("parse");
                prop_assert_eq!(f.interfaces.len() as u32, n_ifaces);
                for (i, iface) in f.interfaces.iter().enumerate() {
                    prop_assert_eq!(iface.tsresol_exp, 9);
                    prop_assert_eq!(&iface.name, &format!("path{i}:down@client"));
                }
                prop_assert_eq!(f.packets, want);
            }

            /// The reader is total: arbitrary bytes never panic it.
            #[test]
            fn reader_never_panics_on_arbitrary_bytes(
                data in proptest::collection::vec(any::<u8>(), 0..256),
            ) {
                let _ = read_pcapng(&data);
            }
        }
    }
}
