//! A generic frame switch: classify each arriving frame to a routing key
//! and forward it to the egress registered for that key.
//!
//! This is the fan-out half of a shared access network: many hosts send
//! into one drop-tail link agent (the shared bottleneck — queueing and loss
//! emerge from the *aggregate* load), and the link's single egress points at
//! a [`Switch`] that delivers each frame to the host owning its destination
//! address. The classifier is an ordinary function pointer so the switch
//! itself stays protocol-agnostic (the fleet engine passes the IP
//! destination peeker from `mpw-tcp`).

use std::collections::BTreeMap;

use crate::engine::{Agent, AgentId, Ctx, Event, Frame};
use crate::time::SimDuration;

/// Classifies a frame to a routing key (e.g. its destination IP address).
/// A frame that classifies to `None` is unrouted.
pub type Classifier = fn(&Frame) -> Option<u64>;

/// A zero-latency fan-out switch. See module docs.
pub struct Switch {
    classify: Classifier,
    routes: BTreeMap<u64, (AgentId, u16)>,
    /// Frames forwarded to a matching route.
    pub forwarded: u64,
    /// Frames that matched no route (dropped).
    pub unrouted: u64,
}

impl Switch {
    /// Create a switch with the given classifier and no routes.
    pub fn new(classify: Classifier) -> Self {
        Switch {
            classify,
            routes: BTreeMap::new(),
            forwarded: 0,
            unrouted: 0,
        }
    }

    /// Register (or replace) the egress for a routing key.
    pub fn add_route(&mut self, key: u64, egress: (AgentId, u16)) {
        self.routes.insert(key, egress);
    }
}

impl Agent for Switch {
    fn handle(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
        if let Event::Frame { frame, .. } = ev {
            let egress = (self.classify)(&frame).and_then(|key| self.routes.get(&key).copied());
            match egress {
                Some((dst, port)) => {
                    self.forwarded += 1;
                    ctx.send_frame(dst, port, SimDuration::ZERO, frame);
                }
                None => self.unrouted += 1,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::World;
    use crate::trace::TraceLevel;

    /// Collects frames per port so tests can assert delivery.
    struct Sink {
        got: Vec<(u16, u16)>,
    }

    impl Agent for Sink {
        fn handle(&mut self, ev: Event, _ctx: &mut Ctx<'_>) {
            if let Event::Frame { port, frame } = ev {
                self.got.push((port, frame.meta));
            }
        }
    }

    fn classify_meta(f: &Frame) -> Option<u64> {
        if f.meta == 0 {
            None
        } else {
            Some(f.meta as u64)
        }
    }

    fn inject(world: &mut World, dst: crate::engine::AgentId, frame: Frame) {
        let now = world.now();
        world.schedule(now, dst, Event::Frame { port: 0, frame });
    }

    #[test]
    fn routes_by_key() {
        let mut world = World::new(1, TraceLevel::Off);
        let a = world.add_agent(Box::new(Sink { got: Vec::new() }));
        let b = world.add_agent(Box::new(Sink { got: Vec::new() }));
        let mut sw = Switch::new(classify_meta);
        sw.add_route(7, (a, 3));
        sw.add_route(9, (b, 0));
        let s = world.add_agent(Box::new(sw));

        inject(&mut world, s, Frame::tagged(bytes::Bytes::from_static(b"x"), 7));
        inject(&mut world, s, Frame::tagged(bytes::Bytes::from_static(b"y"), 9));
        inject(&mut world, s, Frame::tagged(bytes::Bytes::from_static(b"w"), 7));
        // An unclassifiable frame is dropped, and counted.
        inject(&mut world, s, Frame::new(bytes::Bytes::from_static(b"z")));
        world.run_until_idle();

        let sw: &Switch = world.agent(s).unwrap();
        assert_eq!((sw.forwarded, sw.unrouted), (3, 1));
        let a: &Sink = world.agent(a).unwrap();
        assert_eq!(a.got, vec![(3, 7), (3, 7)]);
        let b: &Sink = world.agent(b).unwrap();
        assert_eq!(b.got, vec![(0, 9)]);
    }

    #[test]
    fn unrouted_frames_are_counted_not_forwarded() {
        let mut world = World::new(1, TraceLevel::Off);
        let mut sw = Switch::new(classify_meta);
        let a = world.add_agent(Box::new(Sink { got: Vec::new() }));
        sw.add_route(1, (a, 0));
        let s = world.add_agent(Box::new(sw));
        inject(&mut world, s, Frame::tagged(bytes::Bytes::from_static(b"x"), 2));
        world.run_until_idle();
        let sw: &Switch = world.agent(s).unwrap();
        assert_eq!((sw.forwarded, sw.unrouted), (0, 1));
    }
}
