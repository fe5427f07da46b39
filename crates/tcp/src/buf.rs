//! Stream buffers: the sender's retransmittable byte stream and the
//! receiver's out-of-order reassembly store.
//!
//! Both work in *absolute* 64-bit stream offsets; the socket maps between
//! absolute offsets and 32-bit wire sequence numbers. The same
//! [`Assembler`] type is reused at the MPTCP connection level (where
//! offsets are data-sequence numbers) — there it also timestamps arrivals to
//! measure the paper's out-of-order delay metric (§3.3).

use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};

use bytes::{Bytes, BytesMut};
use mpw_metrics::DistSummary;
use mpw_sim::SimTime;

/// The sender-side stream buffer: bytes the application has written that are
/// not yet cumulatively acknowledged.
#[derive(Clone, Debug, Default)]
pub struct SendBuffer {
    chunks: VecDeque<(u64, Bytes)>,
    /// Offset of the first byte still buffered (== highest cumulative ack).
    base: u64,
    /// Offset one past the last byte written.
    end: u64,
    /// Index in `chunks` of the chunk the last in-sequence read stopped in
    /// (one past the last chunk when it consumed it). A lookup cache only:
    /// no result depends on its value.
    cursor: Cell<usize>,
}

impl SendBuffer {
    /// Empty buffer starting at stream offset 0.
    pub fn new() -> Self {
        SendBuffer::default()
    }

    /// First buffered (unacknowledged) offset.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// One past the last written offset.
    pub fn end(&self) -> u64 {
        self.end
    }

    /// Bytes currently buffered.
    pub fn len(&self) -> usize {
        (self.end - self.base) as usize
    }

    /// Whether the buffer holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.end == self.base
    }

    /// Append application data; returns the offset range it occupies.
    pub fn push(&mut self, data: Bytes) -> (u64, u64) {
        let start = self.end;
        if !data.is_empty() {
            self.end += data.len() as u64;
            self.chunks.push_back((start, data));
        }
        (start, self.end)
    }

    /// Copy out `len` bytes starting at absolute `offset` (clamped to what
    /// is buffered). Used for both first transmissions and retransmissions.
    ///
    /// A sender reads its stream in order, so the chunk holding `offset` is
    /// the one at the cursor or shortly after it; only a read that starts
    /// below the cursor's chunk (a retransmission, a reinjection) searches,
    /// and it leaves the cursor where the in-sequence reader will want it.
    pub fn read(&self, offset: u64, len: usize) -> Bytes {
        debug_assert!(offset >= self.base, "reading acked data");
        if offset < self.base {
            // Acked data is gone; a release-mode caller racing an
            // acknowledgment gets nothing rather than an underflowed slice.
            return Bytes::new();
        }
        let end = (offset + len as u64).min(self.end);
        if offset >= end {
            return Bytes::new();
        }
        let cursor = self.cursor.get();
        let in_sequence = self.chunks.get(cursor).is_some_and(|(start, _)| *start <= offset);
        let mut idx = if in_sequence {
            cursor
        } else {
            self.chunks
                .partition_point(|(start, data)| start + data.len() as u64 <= offset)
        };
        let mut out: Option<BytesMut> = None;
        let mut first: Option<Bytes> = None;
        let mut pos = offset;
        while pos < end {
            let Some((start, data)) = self.chunks.get(idx) else {
                break;
            };
            let chunk_end = start + data.len() as u64;
            if chunk_end <= pos {
                idx += 1; // the cursor's chunk lies behind the send point
                continue;
            }
            debug_assert!(*start <= pos);
            let begin_in_chunk = (pos - start) as usize;
            let take = ((end - pos) as usize).min(data.len() - begin_in_chunk);
            let slice = data.slice(begin_in_chunk..begin_in_chunk + take);
            pos += take as u64;
            if pos == chunk_end {
                idx += 1;
            }
            // One chunk holds most reads whole: its slice goes out as is.
            match (&mut out, first.take()) {
                (None, None) => first = Some(slice),
                (None, Some(head)) => {
                    let mut buf = BytesMut::with_capacity((end - offset) as usize);
                    buf.extend_from_slice(&head);
                    buf.extend_from_slice(&slice);
                    out = Some(buf);
                }
                (Some(buf), _) => buf.extend_from_slice(&slice),
            }
        }
        if in_sequence {
            self.cursor.set(idx);
        }
        match (out, first) {
            (Some(buf), _) => buf.freeze(),
            (None, Some(b)) => b,
            (None, None) => Bytes::new(),
        }
    }

    /// Check the buffer's structural invariants: chunks form a contiguous,
    /// gap-free cover of exactly `[base, end)`, and the read cursor names a
    /// chunk or the slot the next push fills.
    ///
    /// Cheap enough to run after every mutation in tests; campaign builds
    /// never call it (see `TcpSocket::debug_check`).
    pub fn validate(&self) -> Result<(), String> {
        if self.base > self.end {
            return Err(format!("send_buf base {} > end {}", self.base, self.end));
        }
        if self.cursor.get() > self.chunks.len() {
            return Err(format!(
                "send_buf read cursor {} past the {} chunks held",
                self.cursor.get(),
                self.chunks.len()
            ));
        }
        if self.chunks.is_empty() {
            if self.base != self.end {
                return Err(format!(
                    "send_buf has no chunks but covers [{}, {})",
                    self.base, self.end
                ));
            }
            return Ok(());
        }
        let mut cursor = self.base;
        for (i, (start, data)) in self.chunks.iter().enumerate() {
            if *start != cursor {
                return Err(format!(
                    "send_buf chunk {i} starts at {start}, expected {cursor} (gap or overlap)"
                ));
            }
            if data.is_empty() {
                return Err(format!("send_buf chunk {i} at {start} is empty"));
            }
            cursor = start + data.len() as u64;
        }
        if cursor != self.end {
            return Err(format!(
                "send_buf chunks end at {cursor}, expected end {}",
                self.end
            ));
        }
        Ok(())
    }

    /// Release everything below `new_base` (cumulative acknowledgment).
    pub fn advance(&mut self, new_base: u64) {
        let new_base = new_base.min(self.end);
        if new_base <= self.base {
            return;
        }
        self.base = new_base;
        while let Some((start, data)) = self.chunks.front() {
            let chunk_end = start + data.len() as u64;
            if chunk_end <= new_base {
                self.chunks.pop_front();
                self.cursor.set(self.cursor.get().saturating_sub(1));
            } else if *start < new_base {
                let trim = (new_base - start) as usize;
                if let Some((start, data)) = self.chunks.pop_front() {
                    let data = data.slice(trim..);
                    self.chunks.push_front((start + trim as u64, data));
                }
                break;
            } else {
                break;
            }
        }
    }
}

/// Out-of-order reassembly store over absolute stream offsets.
#[derive(Clone, Debug)]
pub struct Assembler {
    /// Out-of-order ranges keyed by start offset: (data, arrival time).
    segs: BTreeMap<u64, (Bytes, SimTime)>,
    /// Next in-order offset expected.
    next: u64,
    /// The offset this assembler started at (for byte-conservation checks).
    origin: u64,
    /// Ready in-order data not yet consumed by the layer above.
    ready: VecDeque<(u64, Bytes)>,
    ready_bytes: usize,
    ooo_bytes: usize,
    /// Streaming summary of out-of-order delays in milliseconds, one sample
    /// per promoted range (bounded memory).
    ofo_summary: DistSummary,
    /// Total payload bytes accepted (deduplicated).
    accepted: u64,
    /// Duplicate bytes discarded.
    duplicate_bytes: u64,
    /// Scratch for the overlap-clipping slow path, reused across calls so
    /// the MPTCP connection-level assembler — whose "slow" path runs for
    /// every interleaved-subflow segment — stays off the heap.
    scratch_holes: Vec<(u64, u64)>,
    scratch_pieces: Vec<(u64, Bytes)>,
}

impl Assembler {
    /// New assembler expecting offset `start` first. `_record_ofo` is
    /// ignored; stays while `benchmark/` names it (ROADMAP 7(i)).
    pub fn new(start: u64, _record_ofo: bool) -> Self {
        Assembler {
            segs: BTreeMap::new(),
            next: start,
            origin: start,
            // Grows to the depth the receive path reaches (a server's
            // request side: one entry; a download's: what one hole or one
            // drain interval releases), not to the congestion window's
            // worst case up front.
            ready: VecDeque::new(),
            ready_bytes: 0,
            ooo_bytes: 0,
            ofo_summary: DistSummary::new(),
            accepted: 0,
            duplicate_bytes: 0,
            scratch_holes: Vec::new(),
            scratch_pieces: Vec::new(),
        }
    }

    /// Next expected in-order offset (cumulative-ACK point).
    pub fn next_expected(&self) -> u64 {
        self.next
    }

    /// Bytes held: in-order-but-unconsumed plus out-of-order.
    pub fn buffered_bytes(&self) -> usize {
        self.ready_bytes + self.ooo_bytes
    }

    /// Bytes sitting out-of-order (waiting for a hole to fill).
    pub fn out_of_order_bytes(&self) -> usize {
        self.ooo_bytes
    }

    /// Total deduplicated payload bytes accepted so far.
    pub fn accepted_bytes(&self) -> u64 {
        self.accepted
    }

    /// Duplicate payload bytes discarded so far.
    pub fn duplicate_bytes(&self) -> u64 {
        self.duplicate_bytes
    }

    /// The first `max` maximal ranges `[lo, hi)` of out-of-order data, in
    /// ascending offset order — the receiver's SACK blocks. (RFC 2018 asks
    /// for the most recently changed block first; this receiver has always
    /// reported the lowest ones, see EXPERIMENTS.md "Honest divergences".)
    /// Lazy: it walks the store only as far as the last range it yields.
    pub fn sack_ranges(&self, max: usize) -> impl Iterator<Item = (u64, u64)> + '_ {
        let mut segs = self
            .segs
            .iter()
            .map(|(&start, (data, _))| (start, start + data.len() as u64))
            .peekable();
        // Merge adjacent stored segments into maximal ranges.
        std::iter::from_fn(move || {
            let (lo, mut hi) = segs.next()?;
            while let Some((_, end)) = segs.next_if(|&(start, _)| start == hi) {
                hi = end;
            }
            Some((lo, hi))
        })
        .take(max)
    }

    /// Insert payload at `offset`, arriving `now`. Returns accepted byte
    /// count (0 for pure duplicates).
    pub fn insert(&mut self, offset: u64, data: Bytes, now: SimTime) -> usize {
        if data.is_empty() {
            return 0;
        }
        let mut start = offset;
        // A segment whose end does not fit the 64-bit stream space cannot be
        // real data; reject it outright. (Found by the mpw-fuzz assembler
        // target: a hostile DSS mapping with dseq near u64::MAX overflowed
        // the unchecked `offset + len` here — regression input in
        // tests/fuzz-corpus/assembler/.)
        let Some(end) = offset.checked_add(data.len() as u64) else {
            self.duplicate_bytes += data.len() as u64;
            return 0;
        };
        let orig = data.len() as u64;
        // Clip below the in-order point.
        if end <= self.next {
            self.duplicate_bytes += orig;
            return 0;
        }
        let mut data = data;
        if start < self.next {
            data = data.slice((self.next - start) as usize..);
            start = self.next;
        }
        // In-order fast path (the steady state): the segment lands exactly
        // at the in-order point and no stored range starts inside it, so it
        // goes straight to the ready queue — no scratch vectors, no
        // `BTreeMap` node, no allocator traffic.
        if start == self.next && self.segs.first_key_value().is_none_or(|(&s, _)| s > end) {
            let len = data.len();
            self.next = end;
            self.ready_bytes += len;
            self.accepted += len as u64;
            self.duplicate_bytes += orig - len as u64;
            self.ofo_summary.push(0.0);
            self.ready.push_back((start, data));
            return len;
        }
        // Clip against stored segments, inserting the novel gaps. The
        // scratch vectors are owned by the assembler and only ratchet:
        // at the connection level this path runs once per segment.
        let mut accepted = 0usize;
        // Find segments that might overlap [start, end).
        self.scratch_holes.clear();
        self.scratch_holes.extend(
            self.segs
                .range(..end)
                .rev()
                .take_while(|(&s, (d, _))| s + d.len() as u64 > start || s >= start)
                .map(|(&s, (d, _))| (s, s + d.len() as u64))
                .filter(|&(s, e)| e > start && s < end),
        );
        self.scratch_holes.sort_unstable();
        let mut cursor = start;
        self.scratch_pieces.clear();
        for &(s, e) in &self.scratch_holes {
            if s > cursor {
                let lo = (cursor - start) as usize;
                let hi = (s.min(end) - start) as usize;
                if hi > lo {
                    self.scratch_pieces.push((cursor, data.slice(lo..hi)));
                }
            }
            cursor = cursor.max(e);
        }
        if cursor < end {
            let lo = (cursor - start) as usize;
            self.scratch_pieces.push((cursor, data.slice(lo..)));
        }
        for (off, piece) in self.scratch_pieces.drain(..) {
            accepted += piece.len();
            self.ooo_bytes += piece.len();
            self.segs.insert(off, (piece, now));
        }
        self.accepted += accepted as u64;
        self.duplicate_bytes += orig - accepted as u64;

        // Promote newly contiguous data to the ready queue.
        while let Some(entry) = self.segs.first_entry() {
            if *entry.key() != self.next {
                break;
            }
            let (off, (piece, arrived)) = entry.remove_entry();
            let len = piece.len();
            self.next += len as u64;
            self.ooo_bytes -= len;
            self.ready_bytes += len;
            let delay = now.saturating_since(arrived);
            self.ofo_summary.push(delay.as_secs_f64() * 1e3);
            self.ready.push_back((off, piece));
        }
        accepted
    }

    /// Pop the next chunk of contiguous, in-order data.
    pub fn pop_ready(&mut self) -> Option<(u64, Bytes)> {
        let (off, data) = self.ready.pop_front()?;
        self.ready_bytes -= data.len();
        Some((off, data))
    }

    /// Streaming summary of out-of-order delays (ms), one sample per
    /// promoted range.
    pub fn ofo_summary(&self) -> &DistSummary {
        &self.ofo_summary
    }

    /// Feed an order-relevant summary (in-order point, out-of-order ranges,
    /// undelivered ready bytes) into `h` for model-checker state hashing.
    pub fn fingerprint(&self, h: &mut dyn std::hash::Hasher) {
        h.write_u64(self.next);
        h.write_u64(self.origin);
        h.write_usize(self.ready_bytes);
        for (&start, (data, _)) in &self.segs {
            h.write_u64(start);
            h.write_usize(data.len());
        }
    }

    /// Check the reassembly invariants (ISSUE 3 / DESIGN.md §5.8):
    /// out-of-order segments are disjoint, above the in-order point, and
    /// their byte count matches `ooo_bytes`; ready chunks are contiguous and
    /// end exactly at `next`; accepted bytes are conserved
    /// (`accepted == (next - origin) + ooo_bytes`).
    pub fn validate(&self) -> Result<(), String> {
        if self.next < self.origin {
            return Err(format!(
                "assembler next {} below origin {}",
                self.next, self.origin
            ));
        }
        // Out-of-order store: every segment strictly above `next`, sorted
        // and non-overlapping (adjacency is allowed — merging is lazy).
        let mut cursor = self.next;
        let mut ooo = 0usize;
        for (&start, (data, _)) in &self.segs {
            if data.is_empty() {
                return Err(format!("assembler stores empty segment at {start}"));
            }
            if start <= self.next {
                // A segment at exactly `next` would have been promoted.
                return Err(format!(
                    "assembler segment at {start} not above in-order point {}",
                    self.next
                ));
            }
            if start < cursor {
                return Err(format!(
                    "assembler segments overlap: segment at {start} begins before {cursor}"
                ));
            }
            cursor = start + data.len() as u64;
            ooo += data.len();
        }
        if ooo != self.ooo_bytes {
            return Err(format!(
                "assembler ooo_bytes {} != stored segment bytes {ooo}",
                self.ooo_bytes
            ));
        }
        // Ready queue: contiguous, ending exactly at `next`.
        let mut ready = 0usize;
        let mut expect = self.next - self.ready_bytes as u64;
        for (off, data) in &self.ready {
            if *off != expect {
                return Err(format!(
                    "assembler ready chunk at {off}, expected {expect} (gap in delivered stream)"
                ));
            }
            expect += data.len() as u64;
            ready += data.len();
        }
        if expect != self.next || ready != self.ready_bytes {
            return Err(format!(
                "assembler ready queue ends at {expect} ({ready} bytes), \
                 expected next {} ({} bytes)",
                self.next, self.ready_bytes
            ));
        }
        // Byte conservation: every accepted byte is either delivered
        // in-order (next - origin, including already-popped bytes) or still
        // waiting out of order. Exactly-once coverage of the stream.
        let conserved = (self.next - self.origin) + self.ooo_bytes as u64;
        if self.accepted != conserved {
            return Err(format!(
                "assembler byte conservation broken: accepted {} != in-order {} + ooo {}",
                self.accepted,
                self.next - self.origin,
                self.ooo_bytes
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpw_sim::SimDuration;
    use proptest::prelude::*;

    fn b(s: &[u8]) -> Bytes {
        Bytes::copy_from_slice(s)
    }

    mod send_buffer {
        use super::*;

        #[test]
        fn push_read_advance_roundtrip() {
            let mut sb = SendBuffer::new();
            assert_eq!(sb.push(b(b"hello")), (0, 5));
            assert_eq!(sb.push(b(b" world")), (5, 11));
            assert_eq!(sb.read(0, 11), b(b"hello world"));
            assert_eq!(sb.read(3, 4), b(b"lo w"));
            sb.advance(6);
            assert_eq!(sb.base(), 6);
            assert_eq!(sb.read(6, 5), b(b"world"));
            assert_eq!(sb.len(), 5);
        }

        #[test]
        fn read_clamps_to_written_data() {
            let mut sb = SendBuffer::new();
            sb.push(b(b"abc"));
            assert_eq!(sb.read(1, 100), b(b"bc"));
            assert_eq!(sb.read(3, 10), Bytes::new());
        }

        #[test]
        fn read_spanning_many_chunks() {
            let mut sb = SendBuffer::new();
            for i in 0..10u8 {
                sb.push(Bytes::from(vec![i; 3]));
            }
            let got = sb.read(2, 26);
            assert_eq!(got.len(), 26);
            assert_eq!(got[0], 0);
            assert_eq!(got[1], 1); // chunk boundary crossed
            assert_eq!(got[25], 9);
        }

        #[test]
        fn advance_mid_chunk_trims() {
            let mut sb = SendBuffer::new();
            sb.push(b(b"abcdef"));
            sb.advance(2);
            assert_eq!(sb.read(2, 4), b(b"cdef"));
            sb.advance(100); // beyond end clamps
            assert!(sb.is_empty());
        }

        #[test]
        fn advance_backwards_is_ignored() {
            let mut sb = SendBuffer::new();
            sb.push(b(b"abcdef"));
            sb.advance(4);
            sb.advance(2);
            assert_eq!(sb.base(), 4);
        }

        #[test]
        fn empty_push_is_noop() {
            let mut sb = SendBuffer::new();
            assert_eq!(sb.push(Bytes::new()), (0, 0));
            assert!(sb.is_empty());
        }

        /// The sender has read up to chunk 6 when an ack pops chunks 0–2; a
        /// retransmission then reads from below the cursor, and the send
        /// point carries on from where it was.
        #[test]
        fn read_below_the_cursor_after_advance_popped_chunks() {
            let mut sb = SendBuffer::new();
            for i in 0..8u8 {
                sb.push(Bytes::from(vec![i; 4]));
            }
            for i in 0..6u64 {
                assert_eq!(sb.read(i * 4, 4), Bytes::from(vec![i as u8; 4]));
            }
            assert_eq!(sb.cursor.get(), 6);
            sb.advance(13); // chunks 0–2 go, chunk 3 loses its first byte
            assert_eq!(sb.cursor.get(), 3, "the cursor follows its chunk");
            assert_eq!(sb.read(13, 5), b(&[3, 3, 3, 4, 4]));
            assert_eq!(sb.cursor.get(), 3, "a read below the cursor leaves it");
            assert_eq!(sb.read(24, 8), b(&[6, 6, 6, 6, 7, 7, 7, 7]));
            assert_eq!(sb.cursor.get(), 5);
            sb.validate().expect("send buffer invariants");
        }

        proptest! {
            /// Random pushes, reads (at the send point, below it, across
            /// chunks, past `end`) and advances (mid-chunk, whole chunks,
            /// backwards) return what a flat `Vec<u8>` of the whole stream
            /// holds, wherever the cursor happens to be.
            #[test]
            fn reads_agree_with_a_flat_model(
                ops in proptest::collection::vec((0u8..8, any::<u64>(), 1usize..48), 1..120),
            ) {
                let mut sb = SendBuffer::new();
                let mut stream: Vec<u8> = Vec::new();
                let (mut base, mut send_point) = (0usize, 0usize);
                for (op, pick, len) in ops {
                    let held = stream.len() - base;
                    match op {
                        0 | 1 => {
                            let from = stream.len();
                            let data: Vec<u8> = (from..from + len).map(|i| (i * 31 % 251) as u8).collect();
                            stream.extend_from_slice(&data);
                            prop_assert_eq!(sb.push(Bytes::from(data)), (from as u64, stream.len() as u64));
                        }
                        // In sequence, as a sender reads; elsewhere in the
                        // buffer, as a retransmission does; past `end`.
                        2..=5 => {
                            let at = match op {
                                2 | 3 => send_point.max(base),
                                4 => base + (pick as usize) % (held + 1),
                                _ => stream.len() + (pick as usize) % 3,
                            };
                            let want = &stream[at.min(stream.len())..(at + len).min(stream.len())];
                            prop_assert_eq!(&sb.read(at as u64, len)[..], want);
                            if op < 4 {
                                send_point = at + want.len();
                            }
                        }
                        // Whole chunks and mid-chunk alike; `base - 1` is a
                        // backwards advance and must be ignored.
                        _ => {
                            let to = (base + (pick as usize) % (held + 2)).saturating_sub(1);
                            sb.advance(to as u64);
                            base = base.max(to.min(stream.len()));
                        }
                    }
                    prop_assert_eq!((sb.base(), sb.end()), (base as u64, stream.len() as u64));
                    sb.validate().expect("send buffer invariants");
                }
            }
        }
    }

    mod assembler {
        use super::*;

        fn drain(a: &mut Assembler) -> Vec<u8> {
            let mut out = Vec::new();
            while let Some((_, d)) = a.pop_ready() {
                out.extend_from_slice(&d);
            }
            out
        }

        #[test]
        fn in_order_passthrough() {
            let mut a = Assembler::new(0, false);
            assert_eq!(a.insert(0, b(b"ab"), SimTime::ZERO), 2);
            assert_eq!(a.insert(2, b(b"cd"), SimTime::ZERO), 2);
            assert_eq!(a.next_expected(), 4);
            assert_eq!(drain(&mut a), b"abcd");
            assert_eq!(a.buffered_bytes(), 0);
        }

        #[test]
        fn out_of_order_reassembles() {
            let mut a = Assembler::new(0, false);
            a.insert(2, b(b"cd"), SimTime::ZERO);
            assert_eq!(a.next_expected(), 0);
            assert_eq!(a.out_of_order_bytes(), 2);
            a.insert(0, b(b"ab"), SimTime::ZERO);
            assert_eq!(a.next_expected(), 4);
            assert_eq!(drain(&mut a), b"abcd");
        }

        #[test]
        fn duplicates_are_discarded() {
            let mut a = Assembler::new(0, false);
            a.insert(0, b(b"abcd"), SimTime::ZERO);
            assert_eq!(a.insert(0, b(b"abcd"), SimTime::ZERO), 0);
            assert_eq!(a.insert(2, b(b"cd"), SimTime::ZERO), 0);
            assert_eq!(a.duplicate_bytes(), 6);
            assert_eq!(drain(&mut a), b"abcd");
        }

        #[test]
        fn partial_overlap_takes_novel_bytes_only() {
            let mut a = Assembler::new(0, false);
            a.insert(4, b(b"efgh"), SimTime::ZERO);
            // Overlaps [4,8) on its tail; only [2,4) is new.
            assert_eq!(a.insert(2, b(b"cdXX"), SimTime::ZERO), 2);
            a.insert(0, b(b"ab"), SimTime::ZERO);
            assert_eq!(drain(&mut a), b"abcdefgh");
        }

        #[test]
        fn overlap_spanning_multiple_segments() {
            let mut a = Assembler::new(0, false);
            a.insert(2, b(b"c"), SimTime::ZERO);
            a.insert(6, b(b"g"), SimTime::ZERO);
            // Covers [0,8): fills holes around the two stored bytes.
            assert_eq!(a.insert(0, b(b"abXdefXh"), SimTime::ZERO), 6);
            assert_eq!(a.next_expected(), 8);
            assert_eq!(drain(&mut a), b"abcdefgh");
        }

        #[test]
        fn sack_ranges_merge_adjacent() {
            let mut a = Assembler::new(0, false);
            a.insert(10, b(b"xx"), SimTime::ZERO);
            a.insert(12, b(b"yy"), SimTime::ZERO);
            a.insert(20, b(b"zz"), SimTime::ZERO);
            assert_eq!(a.sack_ranges(4).collect::<Vec<_>>(), [(10, 14), (20, 22)]);
            assert_eq!(a.sack_ranges(1).collect::<Vec<_>>(), [(10, 14)]);
            assert_eq!(a.sack_ranges(0).count(), 0);
        }

        #[test]
        fn ofo_delay_measures_hole_wait() {
            let mut a = Assembler::new(0, false);
            let t0 = SimTime::from_millis(100);
            let t1 = SimTime::from_millis(160);
            // Packet for [2,4) arrives early, waits for [0,2).
            a.insert(2, b(b"cd"), t0);
            a.insert(0, b(b"ab"), t1);
            // One sample per promoted range: the filling packet itself is
            // in-order (zero delay), the early one waited 60 ms.
            let s = a.ofo_summary();
            assert_eq!((s.count(), s.min(), s.max()), (2, 0.0, 60.0));
        }

        #[test]
        fn ofo_in_order_samples_are_zero() {
            let mut a = Assembler::new(0, false);
            a.insert(0, b(b"ab"), SimTime::from_millis(5));
            a.insert(2, b(b"cd"), SimTime::from_millis(9));
            let s = a.ofo_summary();
            assert_eq!((s.count(), s.min(), s.max()), (2, 0.0, 0.0));
        }

        #[test]
        fn nonzero_start_offset() {
            let mut a = Assembler::new(1000, false);
            assert_eq!(a.insert(0, b(b"old"), SimTime::ZERO), 0);
            assert_eq!(a.insert(1000, b(b"ab"), SimTime::ZERO), 2);
            assert_eq!(a.next_expected(), 1002);
        }

        /// Regression for a fuzzer find: a segment at an offset near
        /// u64::MAX used to overflow `offset + len` (debug panic). Such a
        /// segment is rejected and conservation still holds. Minimized
        /// reproducer lives in tests/fuzz-corpus/assembler/.
        #[test]
        fn offset_near_u64_max_is_rejected_not_overflowed() {
            let mut a = Assembler::new(0, false);
            assert_eq!(a.insert(u64::MAX, b(b"xy"), SimTime::ZERO), 0);
            assert_eq!(a.insert(u64::MAX - 1, b(b"xyz"), SimTime::ZERO), 0);
            a.validate().expect("assembler invariants");
            // A segment that ends exactly at u64::MAX is still accepted.
            assert_eq!(a.insert(u64::MAX - 2, b(b"xy"), SimTime::ZERO), 2);
            a.validate().expect("assembler invariants");
            assert_eq!(a.next_expected(), 0);
        }

        proptest! {
            /// Any permutation of any segmentation delivers the exact
            /// original stream.
            #[test]
            fn reassembly_is_exact(
                len in 1usize..400,
                seed in 0u64..1000,
                dup_factor in 0usize..3,
            ) {
                let stream: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
                // Build random segmentation.
                let mut rng = mpw_sim::SimRng::seeded(seed);
                let mut segs: Vec<(u64, Bytes)> = Vec::new();
                let mut at = 0usize;
                while at < len {
                    let n = 1 + rng.range_u64(0, 40) as usize;
                    let end = (at + n).min(len);
                    segs.push((at as u64, Bytes::copy_from_slice(&stream[at..end])));
                    at = end;
                }
                // Duplicate some segments, then permute them by random keys.
                for _ in 0..dup_factor {
                    let i = rng.range_u64(0, segs.len() as u64) as usize;
                    segs.push(segs[i].clone());
                }
                segs.sort_by_cached_key(|_| rng.next_u64());

                let mut a = Assembler::new(0, false);
                let mut t = SimTime::ZERO;
                for (off, data) in segs {
                    t += SimDuration::from_millis(1);
                    a.insert(off, data, t);
                }
                prop_assert_eq!(a.next_expected(), len as u64);
                let mut out = Vec::new();
                let mut expect_off = 0u64;
                while let Some((off, d)) = a.pop_ready() {
                    prop_assert_eq!(off, expect_off);
                    expect_off += d.len() as u64;
                    out.extend_from_slice(&d);
                }
                prop_assert_eq!(out, stream);
                prop_assert_eq!(a.buffered_bytes(), 0);
                prop_assert_eq!(a.accepted_bytes(), len as u64);
            }
        }
    }
}
