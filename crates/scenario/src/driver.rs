//! The scenario driver: applies a compiled timeline to a running world.
//!
//! The harness owns the event loop; the driver is a cursor over the sorted
//! timeline. The intended slicing pattern (the same one
//! `run_lossfree_download_windowed` uses for measurement marks) is:
//!
//! ```text
//! while let Some(at) = driver.next_at() {
//!     world.run_until(at);                       // exact sim time
//!     let pending = driver.apply_due(&mut world, &bindings, at)?;
//!     ... apply the MP_PRIO triggers via the hosts ...
//! }
//! world.run_until(horizon);
//! ```
//!
//! `run_until` slicing preserves exact event order, and link mutators touch
//! only agent-local state, so a scenario run is byte-identical to a run
//! whose links had been pre-programmed — replays from the same (scenario,
//! seed) pair reproduce every metric bit for bit.

use mpw_link::LinkAgent;
use mpw_sim::{AgentId, SimTime, World};

use crate::compile::{compile, CompiledOp, LinkOp, Op, Timeline};
use crate::error::ScenarioError;
use crate::model::Scenario;

/// Agent ids of one bidirectional path's two link directions.
#[derive(Clone, Copy, Debug)]
pub struct PathBinding {
    /// Client → server direction.
    pub uplink: AgentId,
    /// Server → client direction.
    pub downlink: AgentId,
}

/// Cursor over a compiled timeline, applying link ops to a [`World`].
pub struct ScenarioDriver {
    timeline: Timeline,
    next: usize,
}

impl ScenarioDriver {
    /// Compile a scenario into a driver.
    pub fn new(scenario: &Scenario) -> Result<ScenarioDriver, ScenarioError> {
        Ok(ScenarioDriver::from_timeline(compile(scenario)?))
    }

    /// Wrap an already-compiled timeline.
    pub fn from_timeline(timeline: Timeline) -> ScenarioDriver {
        ScenarioDriver { timeline, next: 0 }
    }

    /// Sim time of the next unapplied operation.
    pub fn next_at(&self) -> Option<SimTime> {
        self.timeline.ops.get(self.next).map(|o| o.at)
    }

    /// Whether every operation has been applied.
    pub fn finished(&self) -> bool {
        self.next >= self.timeline.ops.len()
    }

    /// Apply every operation due at or before `now`. Link operations are
    /// applied directly to both directions of the path through the
    /// [`LinkAgent`] mutators; MP_PRIO triggers are returned in timeline
    /// order for the caller — which owns the hosts — to act on.
    pub fn apply_due(
        &mut self,
        world: &mut World,
        bindings: &[PathBinding],
        now: SimTime,
    ) -> Result<Vec<CompiledOp>, ScenarioError> {
        let mut pending = Vec::new();
        while let Some(op) = self.timeline.ops.get(self.next) {
            if op.at > now {
                break;
            }
            let op = op.clone();
            self.next += 1;
            match op.op {
                Op::Link { path, ref op } => {
                    let b = bindings.get(path).ok_or(ScenarioError::PathOutOfRange {
                        path,
                        bound: bindings.len(),
                    })?;
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
                Op::SetBackup { .. } => pending.push(op),
            }
        }
        Ok(pending)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Action;
    use bytes::Bytes;
    use mpw_link::{Jitter, LinkConfig, LossModel, NullSink, RateProcess};
    use mpw_sim::trace::TraceLevel;
    use mpw_sim::{Event, Frame, SimDuration};

    fn rig() -> (World, PathBinding, AgentId) {
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
        (w, PathBinding { uplink: up, downlink: down }, sink)
    }

    #[test]
    fn driver_applies_link_ops_at_exact_times() {
        let scenario = Scenario::builder("drive")
            .at(50, 0, Action::LinkDown)
            .at(150, 0, Action::LinkUp)
            .build()
            .expect("valid");
        let (mut w, binding, sink) = rig();
        let mut driver = ScenarioDriver::new(&scenario).expect("compile");
        let bindings = [binding];
        // Frame at 60 ms dies in the blackout; frame at 200 ms survives.
        w.schedule(
            SimTime::from_millis(60),
            binding.uplink,
            Event::Frame { port: 0, frame: Frame::new(Bytes::from(vec![0u8; 1500])) },
        );
        w.schedule(
            SimTime::from_millis(200),
            binding.uplink,
            Event::Frame { port: 0, frame: Frame::new(Bytes::from(vec![0u8; 1500])) },
        );
        while let Some(at) = driver.next_at() {
            w.run_until(at);
            let pending = driver.apply_due(&mut w, &bindings, at).expect("apply");
            assert!(pending.is_empty());
        }
        w.run_until_idle();
        let s = w.agent::<NullSink>(sink).unwrap();
        assert_eq!(s.arrivals, vec![SimTime::from_millis(211)]);
        let st = w.agent::<LinkAgent>(binding.uplink).unwrap().stats();
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
        let (mut w, binding, _sink) = rig();
        let mut driver = ScenarioDriver::new(&scenario).expect("compile");
        let pending = driver
            .apply_due(&mut w, &[binding], SimTime::from_millis(25))
            .expect("apply");
        assert_eq!(pending.len(), 2);
        assert!(matches!(pending[0].op, Op::SetBackup { path: 0, backup: true }));
        assert!(matches!(pending[1].op, Op::SetBackup { path: 0, backup: false }));
        assert_eq!(driver.next_at(), Some(SimTime::from_millis(30)));
    }

    #[test]
    fn unbound_path_is_a_loud_error() {
        let scenario = Scenario::builder("oops")
            .at(10, 3, Action::LinkDown)
            .build()
            .expect("valid");
        let (mut w, binding, _) = rig();
        let mut driver = ScenarioDriver::new(&scenario).expect("compile");
        let err = driver
            .apply_due(&mut w, &[binding], SimTime::from_millis(10))
            .expect_err("must fail");
        assert_eq!(err, ScenarioError::PathOutOfRange { path: 3, bound: 1 });
    }
}
