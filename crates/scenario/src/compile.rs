//! Compilation: declarative events → a sorted primitive timeline.
//!
//! The `WifiFade` composite expands into primitive operations at exact sim
//! times; every other action is one operation. The result is stably sorted
//! so same-instant operations apply in authoring order. Expansion is pure
//! integer/IEEE arithmetic over the scenario — no randomness, no clocks — so
//! a (scenario, seed) pair always produces the same timeline and therefore
//! the same run.

use mpw_link::{LossModel, RateProcess};
use mpw_sim::{SimDuration, SimTime};

use crate::error::ScenarioError;
use crate::model::{Action, Scenario};

/// A primitive mutation of both directions of one path, applied via the
/// `LinkAgent` mutators (`set_rate`/`set_loss`/`set_down`).
#[derive(Clone, Debug)]
pub enum LinkOp {
    /// `LinkAgent::set_rate`.
    Rate(RateProcess),
    /// `LinkAgent::set_loss`.
    Loss(LossModel),
    /// `LinkAgent::set_down`.
    Down(bool),
}

/// One compiled operation. Link ops are applied by the driver itself; the
/// MP_PRIO trigger is surfaced to the caller, which owns the hosts.
#[derive(Clone, Debug)]
pub enum Op {
    /// Mutate both directions of a path.
    Link {
        /// Path index into the harness bindings.
        path: usize,
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
        let link = |op: LinkOp| Op::Link { path: ev.path, op };
        match &ev.action {
            Action::SetRate { bits_per_sec } => {
                ops.push(CompiledOp { at: t0, op: link(LinkOp::Rate(RateProcess::fixed(*bits_per_sec))) });
            }
            Action::SetLoss { mean_loss, bursty } => {
                ops.push(CompiledOp { at: t0, op: link(LinkOp::Loss(loss_for(*mean_loss, *bursty))) });
            }
            Action::LinkUp => {
                ops.push(CompiledOp { at: t0, op: link(LinkOp::Down(false)) });
            }
            Action::WifiFade { from_bps, floor_bps, over_ms, steps } => {
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
                let at = t0 + SimDuration::from_millis(*over_ms);
                ops.push(CompiledOp { at, op: link(LinkOp::Down(true)) });
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
    fn fade_emits_signal_then_decay_then_down() {
        let s = Scenario::builder("f")
            .at(2_000, 0, Action::WifiFade {
                from_bps: 20_000_000,
                floor_bps: 500_000,
                over_ms: 1_000,
                steps: 2,
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
            .at(100, 0, Action::SetLoss { mean_loss: 0.0, bursty: false })
            .build()
            .expect("valid");
        let tl = compile(&s).expect("compile");
        assert!(matches!(tl.ops[0].op, Op::Link { op: LinkOp::Rate(_), .. }));
        assert!(matches!(tl.ops[1].op, Op::Link { op: LinkOp::Loss(LossModel::None), .. }));
    }
}
