//! The scenario driver: applies a compiled timeline to a running world.
//!
//! The harness owns the event loop; the driver is a cursor over the sorted
//! timeline. The intended slicing pattern (the one `mpw_fleet::drive` runs)
//! is:
//!
//! ```text
//! let mut driver = ScenarioDriver::new(&scenario, &paths)?;
//! while let Some(at) = driver.next_at() {
//!     world.run_until(at);                       // exact sim time
//!     for op in driver.apply_due(&mut world, at)? {
//!         ... act on the op via the hosts (MP_PRIO, link-down notices) ...
//!     }
//! }
//! world.run_until(horizon);
//! ```
//!
//! `run_until` slicing preserves exact event order, and link mutators touch
//! only agent-local state, so a scenario run is byte-identical to a run
//! whose links had been pre-programmed — replays from the same (scenario,
//! seed) pair reproduce every metric bit for bit.

use mpw_link::{BuiltPath, LinkAgent};
use mpw_sim::{SimTime, World};

use crate::compile::{compile, CompiledOp, LinkOp, Op, Timeline};
use crate::error::ScenarioError;
use crate::model::Scenario;

/// Cursor over a compiled timeline, applying link ops to the paths it was
/// bound to.
pub struct ScenarioDriver {
    timeline: Timeline,
    paths: Vec<BuiltPath>,
    next: usize,
}

impl ScenarioDriver {
    /// Compile a scenario and bind it to `paths`, indexed by the scenario's
    /// path numbers. A scenario naming a path past the end of `paths` is
    /// refused here, not when its op comes due.
    pub fn new(scenario: &Scenario, paths: &[BuiltPath]) -> Result<ScenarioDriver, ScenarioError> {
        let timeline = compile(scenario)?;
        for op in &timeline.ops {
            let (Op::Link { path, .. } | Op::SetBackup { path, .. }) = op.op;
            if path >= paths.len() {
                return Err(ScenarioError::PathOutOfRange { path, bound: paths.len() });
            }
        }
        Ok(ScenarioDriver { timeline, paths: paths.to_vec(), next: 0 })
    }

    /// Sim time of the next unapplied operation.
    pub fn next_at(&self) -> Option<SimTime> {
        self.timeline.ops.get(self.next).map(|o| o.at)
    }

    /// Whether every operation has been applied.
    pub fn finished(&self) -> bool {
        self.next >= self.timeline.ops.len()
    }

    /// Apply every operation due at or before `now` and return them all in
    /// timeline order. Link operations are applied directly to both
    /// directions of the path through the [`LinkAgent`] mutators; the caller,
    /// which owns the hosts, acts on the rest (MP_PRIO triggers) and on any
    /// op it also wants to mirror to a connection (a link going down).
    pub fn apply_due(
        &mut self,
        world: &mut World,
        now: SimTime,
    ) -> Result<Vec<CompiledOp>, ScenarioError> {
        let mut due = Vec::new();
        while let Some(op) = self.timeline.ops.get(self.next) {
            if op.at > now {
                break;
            }
            self.next += 1;
            if let Op::Link { path, ref op } = op.op {
                // `new` checked every path against the bound ones.
                let b = self.paths[path];
                for id in [b.uplink, b.downlink] {
                    let link = world
                        .agent_mut::<LinkAgent>(id)
                        .ok_or(ScenarioError::BadBinding { path })?;
                    match op {
                        LinkOp::Rate(r) => link.set_rate(r.clone()),
                        LinkOp::Loss(l) => link.set_loss(l.clone()),
                        LinkOp::Down(d) => link.set_down(*d),
                    }
                }
            }
            due.push(op.clone());
        }
        Ok(due)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Action;
    use bytes::Bytes;
    use mpw_link::{Jitter, LinkConfig, LossModel, NullSink, RateProcess};
    use mpw_sim::trace::TraceLevel;
    use mpw_sim::{AgentId, Event, Frame, SimDuration};

    fn rig() -> (World, BuiltPath, AgentId) {
        let mut w = World::new(7, TraceLevel::Off);
        let sink = w.add_agent(Box::new(NullSink::recording()));
        let cfg = LinkConfig {
            rate: RateProcess::fixed(12_000_000),
            prop_delay: SimDuration::from_millis(10),
            jitter: Jitter::None,
            buffer_bytes: 1 << 20,
            loss: LossModel::None,
            arq: None,
            rrc: None,
        };
        let rng_u = w.rng().stream("scenario.test.up");
        let rng_d = w.rng().stream("scenario.test.down");
        let up = w.add_agent(Box::new(LinkAgent::new(cfg.clone(), rng_u, (sink, 0))));
        let down = w.add_agent(Box::new(LinkAgent::new(cfg, rng_d, (sink, 0))));
        (w, BuiltPath { uplink: up, downlink: down, bg_sink: sink }, sink)
    }

    #[test]
    fn driver_applies_link_ops_at_exact_times() {
        // An instant fade that keeps the rate: the link goes dark at 50 ms,
        // and at 150 ms it comes back with its loss cleared.
        let blackout = Action::WifiFade {
            from_bps: 12_000_000,
            floor_bps: 12_000_000,
            over_ms: 0,
            steps: 1,
        };
        let scenario = Scenario::builder("drive")
            .at(50, 0, blackout)
            .at(150, 0, Action::LinkUp)
            .at(150, 0, Action::SetLoss { mean_loss: 0.0, bursty: false })
            .build()
            .expect("valid");
        let (mut w, path, sink) = rig();
        let mut driver = ScenarioDriver::new(&scenario, &[path]).expect("compile");
        // Frame at 60 ms dies in the blackout; frame at 200 ms survives.
        w.schedule(
            SimTime::from_millis(60),
            path.uplink,
            Event::Frame { port: 0, frame: Frame::new(Bytes::from(vec![0u8; 1500])) },
        );
        w.schedule(
            SimTime::from_millis(200),
            path.uplink,
            Event::Frame { port: 0, frame: Frame::new(Bytes::from(vec![0u8; 1500])) },
        );
        while let Some(at) = driver.next_at() {
            w.run_until(at);
            let due = driver.apply_due(&mut w, at).expect("apply");
            assert!(due.iter().all(|o| o.at == at), "ops apply at their own instant");
            let down = w.agent::<LinkAgent>(path.uplink).unwrap().is_down();
            assert_eq!(down, at == SimTime::from_millis(50));
        }
        w.run_until_idle();
        let s = w.agent::<NullSink>(sink).unwrap();
        assert_eq!(s.arrivals, vec![SimTime::from_millis(211)]);
        let st = w.agent::<LinkAgent>(path.uplink).unwrap().stats();
        assert_eq!(st.dropped_down, 1);
        assert!(driver.finished());
    }

    #[test]
    fn harness_ops_are_surfaced_not_applied() {
        let scenario = Scenario::builder("prio")
            .at(10, 0, Action::SetBackup { backup: true })
            .at(20, 0, Action::SetBackup { backup: false })
            .at(30, 0, Action::SetBackup { backup: true })
            .build()
            .expect("valid");
        let (mut w, path, _sink) = rig();
        let mut driver = ScenarioDriver::new(&scenario, &[path]).expect("compile");
        let due = driver.apply_due(&mut w, SimTime::from_millis(25)).expect("apply");
        assert_eq!(due.len(), 2);
        assert!(matches!(due[0].op, Op::SetBackup { path: 0, backup: true }));
        assert!(matches!(due[1].op, Op::SetBackup { path: 0, backup: false }));
        assert_eq!(driver.next_at(), Some(SimTime::from_millis(30)));
    }

    /// Every due op comes back, link ops included, in timeline order: a
    /// harness mirroring link-downs to its connections sees the fade's
    /// blackout between the MP_PRIO triggers it was scripted between.
    #[test]
    fn link_ops_come_back_in_timeline_order() {
        let scenario = Scenario::builder("order")
            .at(10, 0, Action::WifiFade { from_bps: 2, floor_bps: 1, over_ms: 10, steps: 1 })
            .at(30, 0, Action::SetBackup { backup: false })
            .build()
            .expect("valid");
        let (mut w, path, _sink) = rig();
        let mut driver = ScenarioDriver::new(&scenario, &[path]).expect("compile");
        let due = driver.apply_due(&mut w, SimTime::from_millis(30)).expect("apply");
        let ats: Vec<SimTime> = due.iter().map(|o| o.at).collect();
        assert_eq!(ats, [10, 10, 10, 20, 20, 20, 30].map(SimTime::from_millis));
        assert!(matches!(due[0].op, Op::SetBackup { path: 0, backup: true }));
        assert!(matches!(due[5].op, Op::Link { path: 0, op: LinkOp::Down(true) }));
        assert!(matches!(due[6].op, Op::SetBackup { path: 0, backup: false }));
        assert!(w.agent::<LinkAgent>(path.uplink).unwrap().is_down());
        assert!(driver.finished());
    }

    #[test]
    fn unbound_path_is_a_loud_error() {
        let scenario = Scenario::builder("oops")
            .at(10, 3, Action::LinkUp)
            .build()
            .expect("valid");
        let (_, path, _) = rig();
        let err = ScenarioDriver::new(&scenario, &[path]).err().expect("must fail");
        assert_eq!(err, ScenarioError::PathOutOfRange { path: 3, bound: 1 });
    }
}
