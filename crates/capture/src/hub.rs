//! The capture hub: a [`FrameObserver`] that accumulates tapped frames and
//! serializes them to pcapng.
//!
//! One hub typically serves many tap points (four per path: both link
//! directions seen from both ends), each registered as its own capture
//! interface. Interface names follow the structured scheme
//! `path<N>:<up|down>@<client|server>` parsed by [`IfaceRole`]; the analyzer
//! recovers the topology purely from those names, keeping the pcapng file
//! the single source of truth.

use std::cell::RefCell;
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

/// What one captured record is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordKind {
    /// A frame observed crossing a tap point.
    Frame(TapDir),
    /// A frame the link discarded.
    Dropped(DropReason),
}

/// One in-memory capture record.
#[derive(Clone, Debug)]
pub struct CapturedRecord {
    /// Observation time (arrival time for egress taps).
    pub at: SimTime,
    /// Capture-interface id (index into the hub's interface table).
    pub iface: u32,
    /// Frame or drop.
    pub kind: RecordKind,
    /// The raw wire bytes.
    pub bytes: Bytes,
}

/// Accumulates tap observations and serializes them to pcapng.
#[derive(Debug, Default)]
pub struct CaptureHub {
    ifaces: Vec<String>,
    records: Vec<CapturedRecord>,
}

/// Shared, clonable handle to a [`CaptureHub`] — hand clones to every
/// `mpw_link::LinkTap` attachment point.
pub type SharedHub = Rc<RefCell<CaptureHub>>;

impl CaptureHub {
    /// New empty hub.
    pub fn new() -> Self {
        CaptureHub::default()
    }

    /// A hub wrapped for sharing across tap points.
    pub fn shared() -> SharedHub {
        Rc::new(RefCell::new(CaptureHub::new()))
    }

    /// Register a capture interface; returns its id.
    pub fn add_iface(&mut self, name: &str) -> u32 {
        self.ifaces.push(name.to_owned());
        (self.ifaces.len() - 1) as u32
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

    /// Registered interface names, in id order.
    pub fn ifaces(&self) -> &[String] {
        &self.ifaces
    }

    /// All records, in observation order.
    pub fn records(&self) -> &[CapturedRecord] {
        &self.records
    }

    /// Serialize to pcapng. Records are stably sorted by timestamp: each
    /// tap's observations are monotone, but egress taps stamp future
    /// arrival times, so cross-interface interleavings need the sort. Drop
    /// records go to a dedicated `drops` interface with an `opt_comment`
    /// naming the reason and the original interface.
    pub fn to_pcapng(&self) -> Vec<u8> {
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

impl FrameObserver for CaptureHub {
    fn frame(&mut self, at: SimTime, iface: u32, dir: TapDir, bytes: &Bytes) {
        self.records.push(CapturedRecord {
            at,
            iface,
            kind: RecordKind::Frame(dir),
            bytes: bytes.clone(),
        });
    }

    fn dropped(&mut self, at: SimTime, iface: u32, reason: DropReason, bytes: &Bytes) {
        self.records.push(CapturedRecord {
            at,
            iface,
            kind: RecordKind::Dropped(reason),
            bytes: bytes.clone(),
        });
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
        let mut hub = CaptureHub::new();
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
        let f = read_pcapng(&hub.to_pcapng()).expect("parse");
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
        let mut hub = CaptureHub::new();
        let i = hub.add_iface("path0:up@client");
        hub.frame(SimTime::ZERO, i, TapDir::Ingress, &Bytes::from_static(b"x"));
        let f = read_pcapng(&hub.to_pcapng()).expect("parse");
        assert_eq!(f.interfaces.len(), 1);
    }
}
