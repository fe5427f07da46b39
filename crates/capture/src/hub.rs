//! The capture hub: a [`FrameObserver`] that writes tapped frames to pcapng
//! as they pass.
//!
//! One hub typically serves many tap points (four per path: both link
//! directions seen from both ends), each registered as its own capture
//! interface. Interface names follow the structured scheme
//! `path<N>:<up|down>@<client|server>` parsed by [`IfaceRole`]; the analyzer
//! recovers the topology purely from those names, keeping the pcapng file
//! the single source of truth.
//!
//! **What is held.** The file orders records by timestamp, ties in
//! observation order, and the tap contract ([`FrameObserver`]) makes that
//! order streamable. An ingress or drop observation is stamped with the
//! current time, so it is encoded straight into the output buffer while the
//! frame is still in cache. An egress observation is stamped with the
//! frame's future arrival, so it waits — a refcount on the frame, not a
//! copy — in a heap keyed `(at, observation)` until an ingress or drop
//! moves the watermark to or past its stamp. Every later observation is
//! stamped at or after the watermark and a pending record is always the
//! older observation, so writing the pending records with `at ≤ now` in key
//! order *is* the stable sort by `at`. The hub holds the frames in flight (a
//! few hundred), not the run, and copies each captured byte once.
//!
//! **The `drops` block.** Drop records go to a dedicated interface that the
//! file declares only if a drop was seen, which is known at the end, while
//! the interface table precedes the first packet. So the first observation
//! closes the table by writing the `drops` block, and
//! [`CaptureHub::finish`] cuts it out again if no drop came.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;
use std::rc::Rc;

use bytes::Bytes;
use mpw_sim::tap::{DropReason, FrameObserver, TapDir};
use mpw_sim::SimTime;

use crate::pcapng::PcapWriter;

/// Which end of a path a capture interface observes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Vantage {
    /// Sniffer on the client (mobile) host.
    Client,
    /// Sniffer on the server host.
    Server,
}

/// Which link direction a capture interface observes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LinkDir {
    /// Client → server (uplink: requests, ACKs).
    Up,
    /// Server → client (downlink: data).
    Down,
}

/// Structured identity of a capture interface, encoded in its `if_name`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct IfaceRole {
    /// Path index (0 = WiFi, 1 = cellular in the paper's testbed).
    pub path: u8,
    /// Observed link direction.
    pub dir: LinkDir,
    /// Which end the sniffer sits at.
    pub vantage: Vantage,
}

impl IfaceRole {
    /// Render the canonical interface name, e.g. `path0:down@client`.
    pub fn name(&self) -> String {
        let dir = match self.dir {
            LinkDir::Up => "up",
            LinkDir::Down => "down",
        };
        let v = match self.vantage {
            Vantage::Client => "client",
            Vantage::Server => "server",
        };
        format!("path{}:{}@{}", self.path, dir, v)
    }

    /// Parse a canonical interface name back into its role. The dedicated
    /// drops interface (or any foreign name) yields `None`.
    pub fn parse(name: &str) -> Option<IfaceRole> {
        let rest = name.strip_prefix("path")?;
        let (path, rest) = rest.split_once(':')?;
        let (dir, vantage) = rest.split_once('@')?;
        Some(IfaceRole {
            path: path.parse().ok()?,
            dir: match dir {
                "up" => LinkDir::Up,
                "down" => LinkDir::Down,
                _ => return None,
            },
            vantage: match vantage {
                "client" => Vantage::Client,
                "server" => Vantage::Server,
                _ => return None,
            },
        })
    }
}

/// Name of the dedicated interface drop records are written to.
pub const DROPS_IFACE: &str = "drops";

/// Writes tap observations to pcapng as they arrive, holding only the
/// egress records whose stamp the run has not reached yet.
#[derive(Debug)]
pub struct CaptureHub {
    ifaces: Vec<String>,
    /// The file so far.
    out: PcapWriter,
    /// [`finish`](Self::finish) took the file: the hub is closed.
    finished: bool,
    /// Where the `drops` interface block sits, once the first observation
    /// closed the interface table with it.
    drops_block: Option<Range<usize>>,
    saw_drop: bool,
    /// Time of the latest ingress or drop observation: no later observation
    /// is stamped earlier.
    watermark: SimTime,
    /// Egress observations so far — the tie-break among pending records.
    egressed: u64,
    /// Egress records stamped past the watermark (frames in flight) as
    /// `(at, observation, iface, frame)`, earliest first.
    pending: BinaryHeap<Reverse<(SimTime, u64, u32, Bytes)>>,
}

/// Shared, clonable handle to a [`CaptureHub`] — hand clones to every
/// `mpw_link::LinkTap` attachment point.
pub type SharedHub = Rc<RefCell<CaptureHub>>;

impl CaptureHub {
    /// New empty hub writing into a buffer of `capacity` bytes. The capacity
    /// sizes one allocation and changes no byte of the file: a hub told
    /// roughly how large its capture will be never moves it, one told 0
    /// grows by doubling.
    pub fn new(capacity: usize) -> Self {
        CaptureHub {
            ifaces: Vec::new(),
            out: PcapWriter::with_capacity(capacity),
            finished: false,
            drops_block: None,
            saw_drop: false,
            watermark: SimTime::ZERO,
            egressed: 0,
            pending: BinaryHeap::new(),
        }
    }

    /// A hub wrapped for sharing across tap points.
    pub fn shared(capacity: usize) -> SharedHub {
        Rc::new(RefCell::new(CaptureHub::new(capacity)))
    }

    /// Register a capture interface; returns its id. Interfaces are
    /// registered before the first observation, which closes the table.
    pub fn add_iface(&mut self, name: &str) -> u32 {
        assert!(
            self.drops_block.is_none() && !self.finished,
            "interface {name} added after the first observation"
        );
        self.ifaces.push(name.to_owned());
        self.out.add_interface(name)
    }

    /// Register the four standard vantages for one path (uplink and
    /// downlink, each seen at both the client and the server). Returns the
    /// ids in the order `(up@client, up@server, down@server, down@client)`.
    pub fn add_path(&mut self, path: u8) -> (u32, u32, u32, u32) {
        let mk = |dir, vantage| IfaceRole { path, dir, vantage }.name();
        (
            self.add_iface(&mk(LinkDir::Up, Vantage::Client)),
            self.add_iface(&mk(LinkDir::Up, Vantage::Server)),
            self.add_iface(&mk(LinkDir::Down, Vantage::Server)),
            self.add_iface(&mk(LinkDir::Down, Vantage::Client)),
        )
    }

    /// Write what is still pending and hand over the pcapng file: records
    /// sorted by timestamp, ties in observation order. Drop records sit on
    /// a dedicated `drops` interface, declared only if there are any, with
    /// an `opt_comment` naming the reason and the original interface. The
    /// hub is closed afterwards: a further observation panics.
    pub fn finish(&mut self) -> Vec<u8> {
        assert!(!self.finished, "capture finished twice");
        self.flush(SimTime::MAX);
        self.finished = true;
        let mut file = std::mem::replace(&mut self.out, PcapWriter::with_capacity(0)).into_bytes();
        if let (Some(block), false) = (self.drops_block.take(), self.saw_drop) {
            file.drain(block);
        }
        file
    }

    /// The open file, its interface table closed (see the module docs).
    fn file(&mut self) -> &mut PcapWriter {
        assert!(!self.finished, "observation after finish");
        if self.drops_block.is_none() {
            let start = self.out.len();
            self.out.add_interface(DROPS_IFACE);
            self.drops_block = Some(start..self.out.len());
        }
        &mut self.out
    }

    /// Write every pending record stamped at or before `upto`.
    fn flush(&mut self, upto: SimTime) {
        while self.pending.peek().is_some_and(|Reverse(r)| r.0 <= upto) {
            let Some(Reverse((at, _, iface, frame))) = self.pending.pop() else { break };
            self.file().packet(iface, at, &frame, None);
        }
    }

    /// An ingress or drop observation: stamped `now`, so it moves the
    /// watermark there and goes into the file behind the pending records
    /// it has caught up with.
    fn record(&mut self, now: SimTime, iface: u32, frame: &[u8], comment: Option<&str>) {
        assert!(
            now >= self.watermark,
            "tap contract: ingress/drop observation at {now:?} is behind {:?}",
            self.watermark
        );
        self.watermark = now;
        self.flush(now);
        self.file().packet(iface, now, frame, comment);
    }
}

impl FrameObserver for CaptureHub {
    fn frame(&mut self, at: SimTime, iface: u32, dir: TapDir, bytes: &Bytes) {
        match dir {
            TapDir::Ingress => self.record(at, iface, bytes, None),
            TapDir::Egress => {
                self.file(); // closes the interface table; panics after `finish`
                assert!(
                    at >= self.watermark,
                    "tap contract: egress observation stamped {at:?} is behind {:?}",
                    self.watermark
                );
                self.egressed += 1;
                self.pending.push(Reverse((at, self.egressed, iface, bytes.clone())));
            }
        }
    }

    fn dropped(&mut self, at: SimTime, iface: u32, reason: DropReason, bytes: &Bytes) {
        let orig = self.ifaces.get(iface as usize).map_or("?", String::as_str);
        let comment = format!("dropped: {reason:?} on {orig}");
        self.saw_drop = true;
        // The `drops` block closes the table: its id is the next one.
        self.record(at, self.ifaces.len() as u32, bytes, Some(&comment));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcapng::read_pcapng;

    #[test]
    fn iface_role_roundtrips_through_names() {
        for path in [0u8, 1, 3] {
            for dir in [LinkDir::Up, LinkDir::Down] {
                for vantage in [Vantage::Client, Vantage::Server] {
                    let role = IfaceRole { path, dir, vantage };
                    assert_eq!(IfaceRole::parse(&role.name()), Some(role));
                }
            }
        }
        assert_eq!(IfaceRole::parse(DROPS_IFACE), None);
        assert_eq!(IfaceRole::parse("path0:sideways@client"), None);
        assert_eq!(IfaceRole::parse("pathX:up@client"), None);
    }

    #[test]
    fn records_serialize_sorted_with_drop_comments() {
        let mut hub = CaptureHub::new(0);
        let (_uc, _us, sd, cd) = hub.add_path(0);
        // Egress tap stamps a *future* arrival: recorded out of order.
        hub.frame(SimTime::from_millis(20), cd, TapDir::Egress, &Bytes::from_static(b"late"));
        hub.frame(SimTime::from_millis(10), sd, TapDir::Ingress, &Bytes::from_static(b"early"));
        hub.dropped(
            SimTime::from_millis(15),
            sd,
            DropReason::QueueOverflow,
            &Bytes::from_static(b"gone"),
        );
        let pcap = hub.finish();
        let f = read_pcapng(&pcap).expect("parse");
        assert_eq!(f.interfaces.len(), 5); // 4 vantages + drops
        assert_eq!(f.interfaces[4].name, DROPS_IFACE);
        let times: Vec<SimTime> = f.packets.iter().map(|p| p.at).collect();
        assert_eq!(
            times,
            vec![SimTime::from_millis(10), SimTime::from_millis(15), SimTime::from_millis(20)]
        );
        assert_eq!(
            f.packets[1].comment.as_deref(),
            Some("dropped: QueueOverflow on path0:down@server")
        );
        assert_eq!(f.packets[1].iface, 4);
    }

    #[test]
    fn no_drops_means_no_drops_interface() {
        let mut hub = CaptureHub::new(0);
        let i = hub.add_iface("path0:up@client");
        hub.frame(SimTime::ZERO, i, TapDir::Ingress, &Bytes::from_static(b"x"));
        let pcap = hub.finish();
        let f = read_pcapng(&pcap).expect("parse");
        assert_eq!(f.interfaces.len(), 1);
        // A hub that saw nothing writes the bare interface table.
        let mut idle = CaptureHub::new(0);
        idle.add_iface("path0:up@client");
        let mut w = PcapWriter::new();
        w.add_interface("path0:up@client");
        assert_eq!(idle.finish(), w.into_bytes());
    }

    /// What one captured record is.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum RecordKind {
        Frame(TapDir),
        Dropped(DropReason),
    }

    /// One in-memory capture record — and, in observation order, one step
    /// of a tap script.
    #[derive(Clone, Debug)]
    struct CapturedRecord {
        at: SimTime,
        iface: u32,
        kind: RecordKind,
        bytes: Bytes,
    }

    /// The reference model: the collect-then-serialize hub this one
    /// replaced, its `to_pcapng` kept verbatim — every record of the run
    /// held, stably sorted by timestamp, written through [`PcapWriter`].
    struct Reference {
        ifaces: Vec<String>,
        records: Vec<CapturedRecord>,
    }

    impl Reference {
        fn to_pcapng(&self) -> Vec<u8> {
            let mut w = PcapWriter::new();
            for name in &self.ifaces {
                w.add_interface(name);
            }
            let has_drops = self
                .records
                .iter()
                .any(|r| matches!(r.kind, RecordKind::Dropped(_)));
            let drops_iface = if has_drops { Some(w.add_interface(DROPS_IFACE)) } else { None };
            let mut order: Vec<usize> = (0..self.records.len()).collect();
            order.sort_by_key(|&i| self.records[i].at);
            for i in order {
                let r = &self.records[i];
                match r.kind {
                    RecordKind::Frame(_) => w.packet(r.iface, r.at, &r.bytes, None),
                    RecordKind::Dropped(reason) => {
                        let orig = self
                            .ifaces
                            .get(r.iface as usize)
                            .map(String::as_str)
                            .unwrap_or("?");
                        let comment = format!("dropped: {reason:?} on {orig}");
                        w.packet(drops_iface.expect("drops iface"), r.at, &r.bytes, Some(&comment));
                    }
                }
            }
            w.into_bytes()
        }
    }

    /// Run `script` over `n_ifaces` interfaces through a hub of the given
    /// capacity and through the reference; both files.
    fn both(n_ifaces: u32, capacity: usize, script: &[CapturedRecord]) -> (Vec<u8>, Vec<u8>) {
        let mut hub = CaptureHub::new(capacity);
        let mut reference = Reference { ifaces: Vec::new(), records: script.to_vec() };
        for i in 0..n_ifaces {
            hub.add_iface(&format!("path{i}:down@client"));
            reference.ifaces.push(format!("path{i}:down@client"));
        }
        for r in script {
            match r.kind {
                RecordKind::Frame(dir) => hub.frame(r.at, r.iface, dir, &r.bytes),
                RecordKind::Dropped(reason) => hub.dropped(r.at, r.iface, reason, &r.bytes),
            }
        }
        (hub.finish(), reference.to_pcapng())
    }

    fn ms(t: u64) -> SimTime {
        SimTime::from_millis(t)
    }

    fn ingress(at: SimTime, iface: u32, tag: &'static [u8]) -> CapturedRecord {
        let kind = RecordKind::Frame(TapDir::Ingress);
        CapturedRecord { at, iface, kind, bytes: Bytes::from_static(tag) }
    }

    fn egress(at: SimTime, iface: u32, tag: &'static [u8]) -> CapturedRecord {
        let kind = RecordKind::Frame(TapDir::Egress);
        CapturedRecord { at, iface, kind, bytes: Bytes::from_static(tag) }
    }

    /// The records of a file as `(at, iface, bytes)`.
    fn records(pcap: &[u8]) -> Vec<(SimTime, u32, Vec<u8>)> {
        let f = read_pcapng(pcap).expect("parse");
        f.packets.iter().map(|p| (p.at, p.iface, p.data.to_vec())).collect()
    }

    #[test]
    fn egress_stamped_t_precedes_a_later_ingress_at_t() {
        // Observed at 5 ms, stamped 10 ms; then the run reaches 10 ms.
        let script =
            [ingress(ms(5), 0, b"a"), egress(ms(10), 1, b"eg"), ingress(ms(10), 0, b"in")];
        let (hub, reference) = both(2, 0, &script);
        assert_eq!(hub, reference);
        assert_eq!(
            records(&hub),
            vec![
                (ms(5), 0, b"a".to_vec()),
                (ms(10), 1, b"eg".to_vec()),
                (ms(10), 0, b"in".to_vec())
            ]
        );
    }

    #[test]
    fn equal_stamps_on_different_interfaces_keep_observation_order() {
        // The higher interface observed first: not ordered by interface.
        let script =
            [egress(ms(10), 1, b"first"), egress(ms(10), 0, b"second"), ingress(ms(12), 0, b"c")];
        let (hub, reference) = both(2, 0, &script);
        assert_eq!(hub, reference);
        assert_eq!(
            records(&hub),
            vec![
                (ms(10), 1, b"first".to_vec()),
                (ms(10), 0, b"second".to_vec()),
                (ms(12), 0, b"c".to_vec())
            ]
        );
    }

    #[test]
    fn zero_delay_egress_goes_behind_older_pending_records_it_ties_with() {
        let script = [
            egress(ms(10), 0, b"old"),  // observed at 4 ms, long delay
            egress(ms(30), 0, b"far"),  // still in flight at the end
            ingress(ms(10), 1, b"now"), // the run reaches 10 ms: "old" is written
            egress(ms(10), 1, b"zero"), // at == now, with "far" pending
            ingress(ms(10), 0, b"tie"), // same instant, observed later
            ingress(ms(11), 0, b"end"),
        ];
        let (hub, reference) = both(2, 0, &script);
        assert_eq!(hub, reference);
        let order: Vec<Vec<u8>> = records(&hub).into_iter().map(|r| r.2).collect();
        assert_eq!(order, [&b"old"[..], b"now", b"zero", b"tie", b"end", b"far"]);
    }

    #[test]
    #[should_panic(expected = "tap contract: ingress/drop observation")]
    fn ingress_behind_the_watermark_panics() {
        let mut hub = CaptureHub::new(0);
        let i = hub.add_iface("path0:up@client");
        hub.frame(ms(10), i, TapDir::Ingress, &Bytes::from_static(b"x"));
        hub.frame(ms(9), i, TapDir::Ingress, &Bytes::from_static(b"y"));
    }

    #[test]
    #[should_panic(expected = "tap contract: ingress/drop observation")]
    fn drop_behind_the_watermark_panics() {
        let mut hub = CaptureHub::new(0);
        let i = hub.add_iface("path0:up@client");
        hub.frame(ms(10), i, TapDir::Ingress, &Bytes::from_static(b"x"));
        hub.dropped(ms(9), i, DropReason::ChannelLoss, &Bytes::from_static(b"y"));
    }

    #[test]
    #[should_panic(expected = "tap contract: egress observation")]
    fn egress_stamped_behind_the_watermark_panics() {
        let mut hub = CaptureHub::new(0);
        let i = hub.add_iface("path0:up@client");
        hub.frame(ms(10), i, TapDir::Ingress, &Bytes::from_static(b"x"));
        hub.frame(ms(9), i, TapDir::Egress, &Bytes::from_static(b"y"));
    }

    #[test]
    #[should_panic(expected = "observation after finish")]
    fn observation_after_finish_panics() {
        let mut hub = CaptureHub::new(0);
        let i = hub.add_iface("path0:up@client");
        hub.frame(ms(1), i, TapDir::Ingress, &Bytes::from_static(b"x"));
        hub.finish();
        hub.frame(ms(2), i, TapDir::Egress, &Bytes::from_static(b"y"));
    }

    #[test]
    #[should_panic(expected = "added after the first observation")]
    fn interface_added_after_the_first_observation_panics() {
        let mut hub = CaptureHub::new(0);
        let i = hub.add_iface("path0:up@client");
        hub.frame(ms(1), i, TapDir::Egress, &Bytes::from_static(b"x"));
        hub.add_iface("path0:up@server");
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Any script a tap may play — ingress and drops at a
            /// non-decreasing `now`, egress stamped `now + d`, ties on
            /// purpose — streams to exactly the file the reference model
            /// sorts together, whatever the capacity argument. CI runs
            /// this at 4,096 cases in release.
            #[test]
            fn streaming_equals_collect_then_stable_sort(
                n_ifaces in 1u32..5,
                with_drops: bool,
                ample: bool,
                ops in proptest::collection::vec(
                    (0u8..8, any::<u32>(), 0u8..4, 0u8..4, 0usize..24),
                    0..64,
                ),
            ) {
                let mut now = SimTime::ZERO;
                let mut script = Vec::new();
                for (n, &(kind, iface_raw, step, delay, len)) in ops.iter().enumerate() {
                    // Time stands still half of the time, so ties abound.
                    let tick = [0, 0, 1, 1_000_000][usize::from(step)];
                    now = SimTime::from_nanos(now.as_nanos() + tick);
                    let iface = iface_raw % n_ifaces;
                    let bytes = Bytes::from(vec![n as u8; len]);
                    // Egress: zero, one tick, shorter and longer than a step.
                    let d = [0, 1, 50_000, 40_000_000][usize::from(delay)];
                    let (at, kind) = match kind {
                        0..=2 => (now, RecordKind::Frame(TapDir::Ingress)),
                        7 if with_drops => (now, RecordKind::Dropped(DropReason::QueueOverflow)),
                        _ => {
                            let arrival = SimTime::from_nanos(now.as_nanos() + d);
                            (arrival, RecordKind::Frame(TapDir::Egress))
                        }
                    };
                    script.push(CapturedRecord { at, iface, kind, bytes });
                }
                let (hub, reference) = both(n_ifaces, if ample { 1 << 16 } else { 0 }, &script);
                prop_assert_eq!(hub, reference);
            }
        }
    }
}
