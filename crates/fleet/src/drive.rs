//! Opening a client's one flow on a built world and running the world in
//! slices. A flow's start time is the one timer [`open_flow`] schedules
//! for it; the request it queues states none.

use std::fmt;

use mpw_link::{BuiltPath, LinkAgent};
use mpw_mptcp::{Host, OpenRequest};
use mpw_scenario::{CompiledOp, ScenarioDriver};
use mpw_sim::{AgentId, Event, RunOutcome, SimDuration, SimTime, World};

/// Queue `req`, the one flow of `client`, and schedule the timer that
/// activates it at `at`. The flow takes the client's slot 0.
///
/// # Panics
///
/// When `client` already has a flow, queued or open: a host opens one.
pub fn open_flow(world: &mut World, client: AgentId, at: SimTime, req: OpenRequest) {
    let host = world.agent_mut::<Host>(client).expect("client host");
    assert!(host.queue_open(req).is_ok(), "client {client} already has its flow");
    world.schedule(at, client, Event::Timer { token: Host::open_token() });
}

/// Whether nothing foreground is left in a world whose `hosts` exchange
/// frames only over `paths`: every host is quiescent
/// ([`Host::is_quiescent`]) and both links of every path are
/// foreground-idle at the current instant
/// ([`LinkAgent::foreground_idle`]). A [`Topology`](crate::Topology) world
/// holds frames nowhere else — its switches forward at zero delay, within
/// the instant `run_until` has completed — so once this holds no host can
/// run again until the harness opens another flow: only background
/// sources, their frames and the sinks still have events. Ids that do not
/// name a host or a link count as not quiescent.
pub fn quiescent(world: &World, hosts: &[AgentId], paths: &[BuiltPath]) -> bool {
    let now = world.now();
    let idle = |link| {
        world
            .agent::<LinkAgent>(link)
            .is_some_and(|l| l.foreground_idle(now))
    };
    hosts
        .iter()
        .all(|&id| world.agent::<Host>(id).is_some_and(Host::is_quiescent))
        && paths.iter().all(|p| idle(p.uplink) && idle(p.downlink))
}

/// How [`drive`] slices a run.
pub struct Drive<'a> {
    /// Longest slice: the per-tick closure runs at least this often.
    pub tick: SimDuration,
    /// Hard stop.
    pub horizon: SimTime,
    /// A mobility timeline bound to its paths; slices also end at each of
    /// its operations, which are applied at their exact times.
    pub mobility: Option<&'a mut ScenarioDriver>,
    /// Names the run (seed and scenario or spec) if it has to be aborted.
    pub who: &'a dyn fmt::Debug,
}

/// Run `world` in slices until `on_tick` reports the run done, the horizon
/// is reached, or the event heap drains. After each slice the mobility
/// operations now due are applied, then `on_tick(world, now, ops)` is called
/// with all of them, in timeline order, for the caller to act on. A heap
/// that drains mid-slice leaves the clock at its last event, so `on_tick`
/// runs once more at that instant and the run ends there. Slicing
/// `run_until` preserves the exact event order, so the slice length never
/// changes a result.
///
/// # Panics
///
/// When the world's event budget runs out: that is a livelock, and a
/// campaign must not record it as a flow that merely did not finish.
pub fn drive(
    world: &mut World,
    mut cfg: Drive<'_>,
    mut on_tick: impl FnMut(&mut World, SimTime, &[CompiledOp]) -> bool,
) {
    loop {
        let mut stop = (world.now() + cfg.tick).min(cfg.horizon);
        if let Some(at) = cfg.mobility.as_ref().and_then(|d| d.next_at()) {
            stop = stop.min(at);
        }
        let outcome = world.run_until(stop);
        let now = world.now();
        assert!(
            outcome != RunOutcome::EventBudgetExhausted,
            "event budget exhausted at {now:?} after {} events (livelock) in {:?}",
            world.events_processed(),
            cfg.who,
        );
        let ops = match &mut cfg.mobility {
            Some(driver) => driver
                .apply_due(world, now)
                .expect("every scenario path is a link pair"),
            None => Vec::new(),
        };
        if on_tick(world, now, &ops) || outcome == RunOutcome::Idle || stop >= cfg.horizon {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use mpw_link::NullSink;
    use mpw_mptcp::{NullApp, TransportSpec};
    use mpw_sim::trace::TraceLevel;
    use mpw_sim::{Frame, Switch};
    use mpw_tcp::wire::{PingPacket, PROTO_PING};
    use mpw_tcp::{encode_ping, peek_ip_dst, Addr, Endpoint, IpHeader};

    use super::*;

    /// A client opens one flow: a second `open_flow` on it aborts, naming
    /// the client.
    #[test]
    #[should_panic(expected = "client 0 already has its flow")]
    fn a_second_flow_on_one_client_aborts() {
        let mut w = World::new(1, TraceLevel::Off);
        let host = Host::new(vec![Addr::new(10, 0, 1, 2)], w.rng().stream("client"));
        let client = w.add_agent(Box::new(host));
        let req = || OpenRequest {
            spec: TransportSpec::Plain { if_index: 0 },
            remote: Endpoint::new(Addr::new(192, 168, 1, 1), 8080),
            app: Box::new(NullApp),
            warmup: false,
        };
        let at = SimTime::from_millis(100);
        open_flow(&mut w, client, at, req());
        open_flow(&mut w, client, at, req());
    }

    /// [`quiescent`] looks for waiting frames in the links only: the other
    /// agent a [`Topology`](crate::Topology) puts between hosts must hand a
    /// frame on within the instant it receives it.
    #[test]
    fn switches_forward_at_zero_delay() {
        let mut w = World::new(1, TraceLevel::Off);
        let sink = w.add_agent(Box::new(NullSink::recording()));
        let dst = Addr::new(192, 168, 1, 1);
        let mut switch = Switch::new(|f| peek_ip_dst(&f.bytes).map(|a| u64::from(a.0)));
        switch.add_route(u64::from(dst.0), (sink, 0));
        let switch = w.add_agent(Box::new(switch));
        let at = SimTime::from_micros(1234);
        let ip = IpHeader {
            src: Addr::new(10, 0, 1, 2),
            dst,
            protocol: PROTO_PING,
            ttl: 64,
        };
        let frame = Frame::new(encode_ping(&ip, &PingPacket { token: 7, reply: false }));
        w.schedule(at, switch, Event::Frame { port: 0, frame });
        w.run_until(at);
        assert_eq!(w.agent::<NullSink>(sink).expect("sink").arrivals, vec![at]);
    }

    /// A heap that drains before the horizon ends the run: `on_tick` sees
    /// every slice boundary up to the drain, then the drain instant itself
    /// (the clock stays at the last event), and is not called again.
    #[test]
    fn a_drained_heap_ends_the_run_at_its_last_event() {
        let mut w = World::new(1, TraceLevel::Off);
        let sink = w.add_agent(Box::new(NullSink::default()));
        w.schedule(SimTime::from_millis(250), sink, Event::Timer { token: 0 });
        let cfg = Drive {
            tick: SimDuration::from_millis(100),
            horizon: SimTime::from_secs(1),
            mobility: None,
            who: &"drain",
        };
        let mut ticks = Vec::new();
        drive(&mut w, cfg, |_, now, ops| {
            assert!(ops.is_empty());
            ticks.push(now);
            false
        });
        assert_eq!(ticks, [100, 200, 250].map(SimTime::from_millis));
        assert_eq!(w.now(), SimTime::from_millis(250));
    }
}
