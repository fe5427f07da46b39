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
//! **Nothing is held.** The taps sit on the hosts (and, for drops, on the
//! links) and report each frame when it is sent, handed over or dropped,
//! stamped with the current time. So observations arrive in dispatch order
//! at a non-decreasing time, and the hub appends each one to the file as it
//! comes: the file is in timestamp order, ties in the order the simulation
//! handled them, and every captured byte is copied once, frame → file. A
//! frame still in flight when the run stops was sent but never received,
//! so it is in the file once.
//!
//! **The `drops` block.** Drop records go to a dedicated interface that the
//! file declares only if a drop was seen, which is known at the end, while
//! the interface table precedes the first packet. So the first observation
//! closes the table by writing the `drops` block, and
//! [`CaptureHub::finish`] cuts it out again if no drop came.

use std::cell::RefCell;
use std::ops::Range;
use std::rc::Rc;

use bytes::Bytes;
use mpw_sim::tap::{DropReason, FrameObserver};
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

/// Writes tap observations to pcapng as they arrive.
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
    /// Stamp of the latest record: time never goes back.
    last: SimTime,
}

/// Shared, clonable handle to a [`CaptureHub`] — hand clones to every
/// tap point (`mpw_mptcp::Host::tap`, `mpw_link::LinkTap`).
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
            last: SimTime::ZERO,
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

    /// Hand over the pcapng file: records in observation order, which is
    /// timestamp order. Drop records sit on a dedicated `drops` interface,
    /// declared only if there are any, with an `opt_comment` naming the
    /// reason and the original interface. The hub is closed afterwards: a
    /// further observation panics.
    pub fn finish(&mut self) -> Vec<u8> {
        assert!(!self.finished, "capture finished twice");
        self.finished = true;
        let mut file = std::mem::replace(&mut self.out, PcapWriter::with_capacity(0)).into_bytes();
        if let (Some(block), false) = (self.drops_block.take(), self.saw_drop) {
            file.drain(block);
        }
        file
    }

    /// Append one record to the open file, closing its interface table
    /// first if this is the first (see the module docs).
    fn record(&mut self, at: SimTime, iface: u32, frame: &[u8], comment: Option<&str>) {
        assert!(!self.finished, "observation after finish");
        assert!(at >= self.last, "observation at {at:?} is behind {:?}", self.last);
        self.last = at;
        if self.drops_block.is_none() {
            let start = self.out.len();
            self.out.add_interface(DROPS_IFACE);
            self.drops_block = Some(start..self.out.len());
        }
        self.out.packet(iface, at, frame, comment);
    }
}

impl FrameObserver for CaptureHub {
    fn frame(&mut self, at: SimTime, iface: u32, bytes: &Bytes) {
        self.record(at, iface, bytes, None);
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

    fn ms(t: u64) -> SimTime {
        SimTime::from_millis(t)
    }

    #[test]
    fn records_are_appended_in_observation_order_with_drop_comments() {
        let mut hub = CaptureHub::new(0);
        let (_uc, us, sd, cd) = hub.add_path(0);
        // Same-instant records on different interfaces keep the order they
        // came in, not the interfaces' order.
        hub.frame(ms(10), sd, &Bytes::from_static(b"sent"));
        hub.frame(ms(10), us, &Bytes::from_static(b"ack"));
        hub.dropped(ms(15), sd, DropReason::QueueOverflow, &Bytes::from_static(b"gone"));
        hub.frame(ms(15), cd, &Bytes::from_static(b"arrived"));
        let pcap = hub.finish();
        let f = read_pcapng(&pcap).expect("parse");
        assert_eq!(f.interfaces.len(), 5); // 4 vantages + drops
        assert_eq!(f.interfaces[4].name, DROPS_IFACE);
        let records: Vec<(SimTime, u32, &[u8])> =
            f.packets.iter().map(|p| (p.at, p.iface, p.data)).collect();
        assert_eq!(
            records,
            [
                (ms(10), sd, &b"sent"[..]),
                (ms(10), us, b"ack"),
                (ms(15), 4, b"gone"),
                (ms(15), cd, b"arrived"),
            ]
        );
        assert_eq!(
            f.packets[2].comment.as_deref(),
            Some("dropped: QueueOverflow on path0:down@server")
        );
    }

    #[test]
    fn no_drops_means_no_drops_interface() {
        let mut hub = CaptureHub::new(0);
        let i = hub.add_iface("path0:up@client");
        hub.frame(SimTime::ZERO, i, &Bytes::from_static(b"x"));
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

    #[test]
    #[should_panic(expected = "is behind")]
    fn an_observation_stamped_before_the_last_panics() {
        let mut hub = CaptureHub::new(0);
        let i = hub.add_iface("path0:up@client");
        hub.frame(ms(10), i, &Bytes::from_static(b"x"));
        hub.dropped(ms(9), i, DropReason::ChannelLoss, &Bytes::from_static(b"y"));
    }

    #[test]
    #[should_panic(expected = "observation after finish")]
    fn observation_after_finish_panics() {
        let mut hub = CaptureHub::new(0);
        let i = hub.add_iface("path0:up@client");
        hub.frame(ms(1), i, &Bytes::from_static(b"x"));
        hub.finish();
        hub.frame(ms(2), i, &Bytes::from_static(b"y"));
    }

    #[test]
    #[should_panic(expected = "added after the first observation")]
    fn interface_added_after_the_first_observation_panics() {
        let mut hub = CaptureHub::new(0);
        let i = hub.add_iface("path0:up@client");
        hub.frame(ms(1), i, &Bytes::from_static(b"x"));
        hub.add_iface("path0:up@server");
    }
}
