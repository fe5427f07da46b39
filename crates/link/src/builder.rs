//! Wiring a [`PathSpec`] into a running [`World`].
//!
//! One built path is a duplex pair of [`LinkAgent`]s, each driving the
//! background sources that share its queue, plus the sink both feed. Hosts
//! send frames to the `uplink`/`downlink` agent ids returned here.

use mpw_sim::{AgentId, World};

use crate::background::OnOffConfig;
use crate::link::{LinkAgent, LinkConfig, NullSink};
use crate::presets::PathSpec;

/// Agent ids of one built duplex path.
#[derive(Clone, Copy, Debug)]
pub struct BuiltPath {
    /// Client → server link agent; the client host transmits into this.
    pub uplink: AgentId,
    /// Server → client link agent; the server host transmits into this.
    pub downlink: AgentId,
    /// Sink absorbing background traffic on both directions.
    pub bg_sink: AgentId,
}

/// Instantiate `spec` between a client and a server endpoint.
///
/// `client` and `server` are `(agent, port)` destinations: frames leaving the
/// downlink are delivered to `client`, frames leaving the uplink to `server`.
/// For a *shared* access network `client` is an [`mpw_sim::Switch`] fanning
/// out by destination address, and many hosts transmit into the one uplink,
/// so its drop-tail queue reflects their aggregate load.
/// The `label` scopes the RNG streams so multiple paths in one world stay
/// independent.
pub fn build_path(
    world: &mut World,
    spec: &PathSpec,
    client: (AgentId, u16),
    server: (AgentId, u16),
    label: &str,
) -> BuiltPath {
    let bg_sink = world.add_agent(Box::new(NullSink::default()));
    let mut link = |cfg: &LinkConfig, egress, dir: &str, bg: &[OnOffConfig]| {
        let rng = world.rng().stream(&format!("{label}.{dir}"));
        let mut link = LinkAgent::new(cfg.clone(), rng, egress);
        link.set_sink((bg_sink, 0));
        for (i, bg) in bg.iter().enumerate() {
            link.add_source(bg.clone(), world.rng().stream(&format!("{label}.bg_{dir}.{i}")));
        }
        world.add_agent(Box::new(link))
    };
    let uplink = link(&spec.up, server, "up", &spec.bg_up);
    let downlink = link(&spec.down, client, "down", &spec.bg_down);

    BuiltPath {
        uplink,
        downlink,
        bg_sink,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::{wifi_home, wifi_hotspot};
    use bytes::Bytes;
    use mpw_sim::trace::TraceLevel;
    use mpw_sim::{Event, Frame, SimTime};

    #[test]
    fn built_path_carries_frames_both_ways() {
        let mut w = World::new(5, TraceLevel::Off);
        let client_sink = w.add_agent(Box::new(NullSink::recording()));
        let server_sink = w.add_agent(Box::new(NullSink::recording()));
        let spec = wifi_home(0.0);
        let built = build_path(&mut w, &spec, (client_sink, 0), (server_sink, 0), "p");
        w.schedule(
            SimTime::ZERO,
            built.uplink,
            Event::Frame { port: 0, frame: Frame::new(Bytes::from(vec![0u8; 100])) },
        );
        w.schedule(
            SimTime::ZERO,
            built.downlink,
            Event::Frame { port: 0, frame: Frame::new(Bytes::from(vec![0u8; 1400])) },
        );
        w.run_until(SimTime::from_secs(1));
        assert_eq!(w.agent::<NullSink>(server_sink).unwrap().frames, 1);
        assert_eq!(w.agent::<NullSink>(client_sink).unwrap().frames, 1);
    }

    #[test]
    fn hotspot_background_reaches_sink_not_hosts() {
        let mut w = World::new(6, TraceLevel::Off);
        let client_sink = w.add_agent(Box::new(NullSink::default()));
        let server_sink = w.add_agent(Box::new(NullSink::default()));
        let spec = wifi_hotspot(18);
        let built = build_path(&mut w, &spec, (client_sink, 0), (server_sink, 0), "hot");
        w.run_until(SimTime::from_secs(10));
        let bg = w.agent::<NullSink>(built.bg_sink).unwrap();
        assert!(bg.frames > 100, "background produced {}", bg.frames);
        assert_eq!(w.agent::<NullSink>(client_sink).unwrap().frames, 0);
        assert_eq!(w.agent::<NullSink>(server_sink).unwrap().frames, 0);
    }

    /// Cross traffic runs inside the link: over 1,000 simulated seconds a
    /// path carrying nothing else costs one engine event per background
    /// frame (its delivery to the sink), one wake per toggle at most, and
    /// each agent's start, where a source agent once took four events a
    /// frame.
    #[test]
    fn background_only_path_costs_one_event_per_frame() {
        use crate::background::OnOff;
        use mpw_sim::RunOutcome;

        let mut w = World::new(6, TraceLevel::Off);
        let client_sink = w.add_agent(Box::new(NullSink::default()));
        let server_sink = w.add_agent(Box::new(NullSink::default()));
        let spec = wifi_hotspot(18);
        let built = build_path(&mut w, &spec, (client_sink, 0), (server_sink, 0), "hot");
        let horizon = SimTime::from_secs(1_000);
        let outcome = w.run_until(horizon);
        assert_eq!(outcome, RunOutcome::HorizonReached, "the wakes keep the world alive");
        // The toggles through the horizon, replayed from each source's own
        // stream (its draws depend on nothing else).
        let mut toggles = 0u64;
        for (dir, bgs) in [("down", &spec.bg_down), ("up", &spec.bg_up)] {
            for (i, cfg) in bgs.iter().enumerate() {
                let mut src = OnOff::new(cfg.clone(), w.rng().stream(&format!("hot.bg_{dir}.{i}")));
                let mut seq = 0;
                src.start(SimTime::ZERO, &mut seq);
                while src.next().0 <= horizon {
                    toggles += u64::from(src.fire(&mut seq).is_none());
                }
            }
        }
        let starts = 5;
        let delivered = w.agent::<NullSink>(built.bg_sink).unwrap().frames;
        assert!(delivered > 100_000, "background delivered {delivered}");
        assert!(
            w.events_processed() <= delivered + toggles + starts,
            "{} events for {delivered} frames and {toggles} toggles",
            w.events_processed()
        );
    }

    #[test]
    fn shared_access_multiplexes_and_fans_out() {
        use mpw_sim::Switch;

        // Two "clients" share one uplink; the downlink egress is a switch
        // fanning frames back out by their first payload byte (standing in
        // for the IP destination the fleet engine routes on — the meta tag
        // is reserved for background traffic on the link itself).
        fn by_first_byte(f: &Frame) -> Option<u64> {
            f.bytes.first().map(|&b| b as u64)
        }
        let mut w = World::new(7, TraceLevel::Off);
        let server_sink = w.add_agent(Box::new(NullSink::recording()));
        let c1 = w.add_agent(Box::new(NullSink::recording()));
        let c2 = w.add_agent(Box::new(NullSink::recording()));
        let mut sw = Switch::new(by_first_byte);
        sw.add_route(1, (c1, 0));
        sw.add_route(2, (c2, 0));
        let sw = w.add_agent(Box::new(sw));
        // Loss-free variant so the counts below are exact; the drop-tail
        // behaviour of the shared queue under overload is covered by
        // `link::tests::overflow_drops_excess`.
        let mut spec = wifi_home(0.0);
        spec.up.loss = crate::LossModel::None;
        spec.down.loss = crate::LossModel::None;
        let built = build_path(&mut w, &spec, (sw, 0), (server_sink, 0), "shared");
        // Both clients send into the same uplink queue (paced under the
        // 6 Mbps service rate so nothing overflows)...
        for i in 0..20u64 {
            for client in [1u8, 2] {
                w.schedule(
                    SimTime::from_millis(i * 5),
                    built.uplink,
                    Event::Frame {
                        port: 0,
                        frame: Frame::new(Bytes::from(vec![client; 1400])),
                    },
                );
            }
        }
        // ...and the server answers each back down through the switch.
        for i in 0..20u64 {
            for client in [1u8, 2] {
                w.schedule(
                    SimTime::from_millis(i * 5),
                    built.downlink,
                    Event::Frame {
                        port: 0,
                        frame: Frame::new(Bytes::from(vec![client; 1400])),
                    },
                );
            }
        }
        w.run_until(SimTime::from_secs(2));
        assert_eq!(w.agent::<NullSink>(server_sink).unwrap().frames, 40);
        assert_eq!(w.agent::<NullSink>(c1).unwrap().frames, 20);
        assert_eq!(w.agent::<NullSink>(c2).unwrap().frames, 20);
        let sw = w.agent::<Switch>(sw).unwrap();
        assert_eq!((sw.forwarded, sw.unrouted), (40, 0));
    }

    #[test]
    fn two_paths_in_one_world_are_independent_streams() {
        // Same spec built twice must not interleave RNG draws: delivery
        // patterns through path A are unchanged by the existence of path B.
        let run = |two: bool| {
            let mut w = World::new(9, TraceLevel::Off);
            let cs = w.add_agent(Box::new(NullSink::recording()));
            let ss = w.add_agent(Box::new(NullSink::default()));
            let spec = wifi_home(0.4);
            let a = build_path(&mut w, &spec, (cs, 0), (ss, 0), "a");
            if two {
                let cs2 = w.add_agent(Box::new(NullSink::default()));
                let ss2 = w.add_agent(Box::new(NullSink::default()));
                build_path(&mut w, &spec, (cs2, 0), (ss2, 0), "b");
            }
            for i in 0..200u64 {
                w.schedule(
                    SimTime::from_millis(i * 5),
                    a.downlink,
                    Event::Frame { port: 0, frame: Frame::new(Bytes::from(vec![0u8; 1400])) },
                );
            }
            w.run_until(SimTime::from_secs(5));
            w.agent::<NullSink>(cs).unwrap().arrivals.clone()
        };
        assert_eq!(run(false), run(true));
    }
}
