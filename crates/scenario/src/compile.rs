//! Compilation: declarative events → a sorted primitive timeline.
//!
//! Composites (ramps, bursts, fades) expand into primitive operations at
//! exact sim times; the result is stably sorted so same-instant operations
//! apply in authoring order. Expansion is pure integer/IEEE arithmetic over
//! the scenario — no randomness, no clocks — so a (scenario, seed) pair
//! always produces the same timeline and therefore the same run.

use mpw_link::{LossModel, RateProcess};
use mpw_sim::{SimDuration, SimTime};

use crate::error::ScenarioError;
use crate::model::{Action, Direction, Scenario};

/// A primitive mutation of one link direction, applied via the `LinkAgent`
/// mutators (`set_rate`/`set_delay`/`set_loss`/`set_down`/`force_rrc_idle`).
#[derive(Clone, Debug)]
pub enum LinkOp {
    /// `LinkAgent::set_rate`.
    Rate(RateProcess),
    /// `LinkAgent::set_delay`.
    Delay(SimDuration),
    /// `LinkAgent::set_loss`.
    Loss(LossModel),
    /// `LinkAgent::set_down`.
    Down(bool),
    /// `LinkAgent::force_rrc_idle`.
    RrcIdle,
}

/// One compiled operation. Link ops are applied by the driver itself;
/// harness ops (MP_PRIO, background surges) are surfaced to the caller,
/// which owns the hosts and traffic sources.
#[derive(Clone, Debug)]
pub enum Op {
    /// Mutate a link direction.
    Link {
        /// Path index into the harness bindings.
        path: usize,
        /// Which direction(s).
        dir: Direction,
        /// The mutation.
        op: LinkOp,
    },
    /// Ask the connection to demote/restore the path's subflows (MP_PRIO).
    SetBackup {
        /// Path index.
        path: usize,
        /// Backup or regular.
        backup: bool,
    },
    /// Inject background cross traffic on the path for a while.
    BgSurge {
        /// Path index.
        path: usize,
        /// Which direction(s).
        dir: Direction,
        /// Surge intensity, payload bytes per second.
        bytes_per_sec: u64,
        /// Surge end time.
        until: SimTime,
    },
}

/// An operation bound to its exact sim time.
#[derive(Clone, Debug)]
pub struct CompiledOp {
    /// When to apply.
    pub at: SimTime,
    /// What to do.
    pub op: Op,
}

/// The compiled, sorted timeline of a scenario.
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    /// Operations, stably sorted by time (authoring order within a tick).
    pub ops: Vec<CompiledOp>,
}

/// Linear interpolation on u64 endpoints, exact in integer arithmetic.
fn lerp_u64(from: u64, to: u64, i: u64, n: u64) -> u64 {
    if n == 0 {
        return to;
    }
    let delta = to as i128 - from as i128;
    let v = from as i128 + delta * i as i128 / n as i128;
    v.clamp(0, u64::MAX as i128) as u64
}

/// Loss model for a target mean: bursty GE when asked (and possible),
/// Bernoulli otherwise, `None` at zero.
fn loss_for(mean: f64, bursty: bool) -> LossModel {
    if mean <= 0.0 {
        LossModel::None
    } else if bursty && mean < 0.25 {
        LossModel::bursty(mean)
    } else {
        LossModel::Bernoulli { p: mean }
    }
}

/// Compile (validating first) into a sorted primitive timeline.
pub fn compile(scenario: &Scenario) -> Result<Timeline, ScenarioError> {
    scenario.validate()?;
    let mut ops: Vec<CompiledOp> = Vec::new();
    for ev in &scenario.events {
        let t0 = SimTime::from_millis(ev.at_ms);
        let link = |op: LinkOp| Op::Link { path: ev.path, dir: ev.dir, op };
        match &ev.action {
            Action::SetRate { bits_per_sec } => {
                ops.push(CompiledOp { at: t0, op: link(LinkOp::Rate(RateProcess::fixed(*bits_per_sec))) });
            }
            Action::RampRate { from_bps, to_bps, over_ms, steps } => {
                let n = *steps as u64;
                for i in 0..=n {
                    let at = t0 + SimDuration::from_millis(over_ms * i / n.max(1));
                    let bps = lerp_u64(*from_bps, *to_bps, i, n).max(1);
                    ops.push(CompiledOp { at, op: link(LinkOp::Rate(RateProcess::fixed(bps))) });
                }
            }
            Action::SetDelay { delay_us } => {
                ops.push(CompiledOp {
                    at: t0,
                    op: link(LinkOp::Delay(SimDuration::from_micros(*delay_us))),
                });
            }
            Action::RampDelay { from_us, to_us, over_ms, steps } => {
                let n = *steps as u64;
                for i in 0..=n {
                    let at = t0 + SimDuration::from_millis(over_ms * i / n.max(1));
                    let us = lerp_u64(*from_us, *to_us, i, n);
                    ops.push(CompiledOp {
                        at,
                        op: link(LinkOp::Delay(SimDuration::from_micros(us))),
                    });
                }
            }
            Action::SetLoss { mean_loss, bursty } => {
                ops.push(CompiledOp { at: t0, op: link(LinkOp::Loss(loss_for(*mean_loss, *bursty))) });
            }
            Action::LossBurst { mean_loss, for_ms, settle_loss } => {
                ops.push(CompiledOp { at: t0, op: link(LinkOp::Loss(loss_for(*mean_loss, true))) });
                ops.push(CompiledOp {
                    at: t0 + SimDuration::from_millis(*for_ms),
                    op: link(LinkOp::Loss(loss_for(*settle_loss, true))),
                });
            }
            Action::LinkDown => {
                ops.push(CompiledOp { at: t0, op: link(LinkOp::Down(true)) });
            }
            Action::LinkUp => {
                ops.push(CompiledOp { at: t0, op: link(LinkOp::Down(false)) });
            }
            Action::WifiFade { from_bps, floor_bps, over_ms, steps, stay_up } => {
                // Signal-strength trigger first: the connection may demote
                // the path before throughput collapses (make-before-break).
                ops.push(CompiledOp { at: t0, op: Op::SetBackup { path: ev.path, backup: true } });
                let n = *steps as u64;
                // Geometric rate decay with linearly rising burst loss: the
                // signature of a station walking out of AP range.
                let ratio = (*floor_bps as f64 / *from_bps as f64).max(f64::MIN_POSITIVE);
                for i in 0..=n {
                    let at = t0 + SimDuration::from_millis(over_ms * i / n.max(1));
                    let frac = i as f64 / n.max(1) as f64;
                    let bps = ((*from_bps as f64) * ratio.powf(frac)).max(1.0) as u64;
                    ops.push(CompiledOp { at, op: link(LinkOp::Rate(RateProcess::fixed(bps))) });
                    let mean_loss = 0.01 + 0.09 * frac;
                    ops.push(CompiledOp { at, op: link(LinkOp::Loss(loss_for(mean_loss, true))) });
                }
                if !stay_up {
                    let at = t0 + SimDuration::from_millis(*over_ms);
                    ops.push(CompiledOp { at, op: link(LinkOp::Down(true)) });
                }
            }
            Action::RrcIdle => {
                ops.push(CompiledOp { at: t0, op: link(LinkOp::RrcIdle) });
            }
            Action::BgSurge { bytes_per_sec, for_ms } => {
                ops.push(CompiledOp {
                    at: t0,
                    op: Op::BgSurge {
                        path: ev.path,
                        dir: ev.dir,
                        bytes_per_sec: *bytes_per_sec,
                        until: t0 + SimDuration::from_millis(*for_ms),
                    },
                });
            }
            Action::SetBackup { backup } => {
                ops.push(CompiledOp { at: t0, op: Op::SetBackup { path: ev.path, backup: *backup } });
            }
        }
    }
    ops.sort_by_key(|o| o.at); // stable: authoring order within a tick
    Ok(Timeline { ops })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Action;

    #[test]
    fn ramp_expands_linearly_with_endpoints() {
        let s = Scenario::builder("r")
            .at(1_000, 0, Action::RampRate {
                from_bps: 10_000_000,
                to_bps: 2_000_000,
                over_ms: 400,
                steps: 4,
            })
            .build()
            .expect("valid");
        let tl = compile(&s).expect("compile");
        let rates: Vec<(SimTime, u64)> = tl
            .ops
            .iter()
            .filter_map(|o| match &o.op {
                Op::Link { op: LinkOp::Rate(RateProcess::Fixed { bits_per_sec }), .. } => {
                    Some((o.at, *bits_per_sec))
                }
                _ => None,
            })
            .collect();
        assert_eq!(
            rates,
            vec![
                (SimTime::from_millis(1_000), 10_000_000),
                (SimTime::from_millis(1_100), 8_000_000),
                (SimTime::from_millis(1_200), 6_000_000),
                (SimTime::from_millis(1_300), 4_000_000),
                (SimTime::from_millis(1_400), 2_000_000),
            ]
        );
    }

    #[test]
    fn loss_burst_sets_and_settles() {
        let s = Scenario::builder("b")
            .at(500, 1, Action::LossBurst { mean_loss: 0.05, for_ms: 250, settle_loss: 0.0 })
            .build()
            .expect("valid");
        let tl = compile(&s).expect("compile");
        assert_eq!(tl.ops.len(), 2);
        assert_eq!(tl.ops[0].at, SimTime::from_millis(500));
        assert_eq!(tl.ops[1].at, SimTime::from_millis(750));
        assert!(matches!(
            &tl.ops[1].op,
            Op::Link { op: LinkOp::Loss(LossModel::None), .. }
        ));
    }

    #[test]
    fn fade_emits_signal_then_decay_then_down() {
        let s = Scenario::builder("f")
            .at(2_000, 0, Action::WifiFade {
                from_bps: 20_000_000,
                floor_bps: 500_000,
                over_ms: 1_000,
                steps: 2,
                stay_up: false,
            })
            .build()
            .expect("valid");
        let tl = compile(&s).expect("compile");
        // First op at t0 is the MP_PRIO signal.
        assert!(matches!(tl.ops[0].op, Op::SetBackup { path: 0, backup: true }));
        // Last op is the blackout at t0 + over_ms.
        let last = tl.ops.last().expect("nonempty");
        assert_eq!(last.at, SimTime::from_millis(3_000));
        assert!(matches!(last.op, Op::Link { op: LinkOp::Down(true), .. }));
        // Rates decay geometrically and hit the floor exactly at the end.
        let rates: Vec<u64> = tl
            .ops
            .iter()
            .filter_map(|o| match &o.op {
                Op::Link { op: LinkOp::Rate(RateProcess::Fixed { bits_per_sec }), .. } => {
                    Some(*bits_per_sec)
                }
                _ => None,
            })
            .collect();
        assert_eq!(rates.len(), 3);
        assert_eq!(rates[0], 20_000_000);
        assert_eq!(rates[2], 500_000);
        assert!(rates[1] < rates[0] && rates[1] > rates[2]);
    }

    #[test]
    fn same_instant_ops_keep_authoring_order() {
        let s = Scenario::builder("o")
            .at(100, 0, Action::SetRate { bits_per_sec: 1 })
            .at(100, 0, Action::SetDelay { delay_us: 7 })
            .build()
            .expect("valid");
        let tl = compile(&s).expect("compile");
        assert!(matches!(tl.ops[0].op, Op::Link { op: LinkOp::Rate(_), .. }));
        assert!(matches!(tl.ops[1].op, Op::Link { op: LinkOp::Delay(_), .. }));
    }
}
