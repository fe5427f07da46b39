//! The declarative scenario model.
//!
//! A [`Scenario`] is a named list of [`TimedEvent`]s: at an exact sim time,
//! on both directions of one path, perform one [`Action`]. Events are plain
//! data (read from a TOML file or built in code) so a scenario fully
//! determines a run together with the seed — replay is byte-identical.
//!
//! The one composite action, [`Action::WifiFade`], stays declarative here
//! and is expanded into primitive link operations by [`crate::compile()`];
//! nothing in the model samples randomness or reads clocks.

use serde::Deserialize;

use crate::error::ScenarioError;

/// Upper bound on fade `steps`: each step becomes one compiled
/// operation, so this bounds compile expansion on adversarial scenario
/// files (the same role `MAX_DEPTH` plays in [`crate::parse`]).
pub const MAX_STEPS: u32 = 10_000;

/// One timed scenario action.
#[derive(Clone, Debug, PartialEq, Deserialize)]
pub enum Action {
    /// Set the link service rate immediately.
    SetRate {
        /// New rate in bits per second (must be > 0).
        bits_per_sec: u64,
    },
    /// Replace the channel loss process.
    SetLoss {
        /// Mean loss probability; `0` removes loss entirely.
        mean_loss: f64,
        /// Use the bursty Gilbert–Elliott chain (requires `mean_loss` <
        /// 0.25) instead of a memoryless Bernoulli process.
        #[serde(default)]
        bursty: bool,
    },
    /// Bring the link back up.
    LinkUp,
    /// WiFi signal fade: the canonical walk-out-of-range composite. The
    /// service rate decays geometrically from `from_bps` to `floor_bps`
    /// over `over_ms` in `steps` jumps while burst loss rises; a
    /// signal-strength trigger fires at fade start (so the connection can
    /// demote the path to MP_PRIO backup), and the link goes fully down at
    /// the end of the fade.
    WifiFade {
        /// Rate at fade start.
        from_bps: u64,
        /// Rate floor at the end of the fade (must be > 0 and <= from_bps).
        floor_bps: u64,
        /// Fade duration in milliseconds.
        over_ms: u64,
        /// Number of decay jumps (1..=[`MAX_STEPS`]).
        steps: u32,
    },
    /// MP_PRIO trigger: ask the connection to demote (`backup = true`) or
    /// restore (`backup = false`) the subflows on this path.
    SetBackup {
        /// Whether the path becomes a backup.
        backup: bool,
    },
}

/// One event: an [`Action`] at an exact sim time on both directions of one
/// path.
#[derive(Clone, Debug, PartialEq, Deserialize)]
pub struct TimedEvent {
    /// Sim time of the event, in milliseconds since run start.
    pub at_ms: u64,
    /// Path index (testbed path 0 = WiFi, 1 = cellular by convention).
    #[serde(default)]
    pub path: usize,
    /// Optional epoch label: a labelled event opens a new analysis epoch
    /// (see [`Scenario::epochs`]).
    #[serde(default)]
    pub label: Option<String>,
    /// What happens.
    pub action: Action,
}

/// A named, replayable timeline of link/path events.
#[derive(Clone, Debug, PartialEq, Deserialize)]
pub struct Scenario {
    /// Scenario name (used in artifact labels and epoch reports). It is the
    /// one key without a default, so a TOML table that is not a scenario is
    /// refused as one rather than read as an empty timeline.
    pub name: String,
    /// The events, in any order; compilation sorts them stably by time.
    #[serde(default)]
    pub events: Vec<TimedEvent>,
}

/// A labelled analysis interval derived from labelled events.
#[derive(Clone, Debug, PartialEq)]
pub struct Epoch {
    /// Label of the event that opened this epoch.
    pub label: String,
    /// Epoch start, milliseconds.
    pub start_ms: u64,
    /// Epoch end (exclusive), milliseconds.
    pub end_ms: u64,
}

impl Scenario {
    /// A scenario with no events (steady state).
    pub fn steady(name: &str) -> Scenario {
        Scenario {
            name: name.to_string(),
            events: Vec::new(),
        }
    }

    /// Start building a scenario.
    pub fn builder(name: &str) -> ScenarioBuilder {
        ScenarioBuilder {
            scenario: Scenario::steady(name),
        }
    }

    /// Structural validation: every event must be expandable into a sane
    /// primitive timeline. Called by the compiler; parsers accept any
    /// well-formed file so that error reporting stays layered (syntax vs
    /// semantics).
    pub fn validate(&self) -> Result<(), ScenarioError> {
        for (i, ev) in self.events.iter().enumerate() {
            let bad = |what: &str| {
                Err(ScenarioError::InvalidEvent {
                    index: i,
                    at_ms: ev.at_ms,
                    what: what.to_string(),
                })
            };
            match &ev.action {
                Action::SetRate { bits_per_sec } => {
                    if *bits_per_sec == 0 {
                        return bad("SetRate rate must be > 0");
                    }
                }
                Action::SetLoss { mean_loss, bursty } => {
                    if !(0.0..=1.0).contains(mean_loss) {
                        return bad("SetLoss mean_loss must be in [0, 1]");
                    }
                    if *bursty && *mean_loss >= 0.25 {
                        return bad("bursty SetLoss needs mean_loss < 0.25");
                    }
                }
                Action::LinkUp | Action::SetBackup { .. } => {}
                Action::WifiFade { from_bps, floor_bps, steps, .. } => {
                    if *floor_bps == 0 || *from_bps == 0 {
                        return bad("WifiFade rates must be > 0");
                    }
                    if floor_bps > from_bps {
                        return bad("WifiFade floor_bps must be <= from_bps");
                    }
                    if *steps == 0 || *steps > MAX_STEPS {
                        return bad("WifiFade needs steps in [1, MAX_STEPS]");
                    }
                }
            }
        }
        Ok(())
    }

    /// The labelled epochs of this scenario over `[0, horizon_ms)`: each
    /// labelled event opens an epoch that runs until the next labelled
    /// event (or the horizon). Time before the first labelled event is the
    /// implicit `"start"` epoch.
    pub fn epochs(&self, horizon_ms: u64) -> Vec<Epoch> {
        let mut marks: Vec<(u64, &str)> = self
            .events
            .iter()
            .filter_map(|e| e.label.as_deref().map(|l| (e.at_ms, l)))
            .filter(|(at, _)| *at < horizon_ms)
            .collect();
        marks.sort_by_key(|(at, _)| *at);
        let mut out = Vec::new();
        let mut prev: (u64, &str) = (0, "start");
        for (at, label) in marks {
            if at > prev.0 {
                out.push(Epoch {
                    label: prev.1.to_string(),
                    start_ms: prev.0,
                    end_ms: at,
                });
            }
            prev = (at, label);
        }
        if horizon_ms > prev.0 {
            out.push(Epoch {
                label: prev.1.to_string(),
                start_ms: prev.0,
                end_ms: horizon_ms,
            });
        }
        out
    }
}

/// Fluent construction of a [`Scenario`] in code.
pub struct ScenarioBuilder {
    scenario: Scenario,
}

impl ScenarioBuilder {
    /// Add an event on both directions of `path`.
    pub fn at(self, at_ms: u64, path: usize, action: Action) -> Self {
        self.event(TimedEvent {
            at_ms,
            path,
            label: None,
            action,
        })
    }

    /// Add a labelled event (opens a new analysis epoch).
    pub fn labelled(self, at_ms: u64, path: usize, label: &str, action: Action) -> Self {
        self.event(TimedEvent {
            at_ms,
            path,
            label: Some(label.to_string()),
            action,
        })
    }

    /// Add a fully specified event.
    pub fn event(mut self, ev: TimedEvent) -> Self {
        self.scenario.events.push(ev);
        self
    }

    /// Validate and finish.
    pub fn build(self) -> Result<Scenario, ScenarioError> {
        self.scenario.validate()?;
        Ok(self.scenario)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_valid_scenarios() {
        let s = Scenario::builder("fade")
            .labelled(3_000, 0, "fade", Action::WifiFade {
                from_bps: 20_000_000,
                floor_bps: 500_000,
                over_ms: 1_000,
                steps: 4,
            })
            .labelled(9_000, 0, "recover", Action::LinkUp)
            .build()
            .expect("valid");
        assert_eq!(s.events.len(), 2);
    }

    #[test]
    fn validation_rejects_degenerate_events() {
        let fade = |steps| Action::WifiFade { from_bps: 2, floor_bps: 1, over_ms: 10, steps };
        let bad = Scenario::builder("x")
            .at(0, 0, Action::SetRate { bits_per_sec: 0 })
            .build();
        assert!(bad.is_err());
        let bad = Scenario::builder("x").at(0, 0, fade(0)).build();
        assert!(bad.is_err());
        let bad = Scenario::builder("x")
            .at(0, 0, Action::SetLoss { mean_loss: 0.5, bursty: true })
            .build();
        assert!(bad.is_err());
        // The step cap bounds compile expansion on adversarial files.
        let bad = Scenario::builder("x").at(0, 0, fade(MAX_STEPS + 1)).build();
        assert!(bad.is_err());
        assert!(Scenario::builder("x").at(0, 0, fade(MAX_STEPS)).build().is_ok());
    }

    #[test]
    fn epochs_partition_the_horizon() {
        let s = Scenario::builder("e")
            .labelled(2_000, 0, "fade", Action::SetRate { bits_per_sec: 1 })
            .labelled(5_000, 0, "back", Action::LinkUp)
            .build()
            .expect("valid");
        let ep = s.epochs(8_000);
        assert_eq!(ep.len(), 3);
        assert_eq!(ep[0], Epoch { label: "start".into(), start_ms: 0, end_ms: 2_000 });
        assert_eq!(ep[1], Epoch { label: "fade".into(), start_ms: 2_000, end_ms: 5_000 });
        assert_eq!(ep[2], Epoch { label: "back".into(), start_ms: 5_000, end_ms: 8_000 });
        // Labels at/after the horizon are ignored; the tail epoch ends there.
        assert_eq!(s.epochs(4_000).len(), 2);
    }

    #[test]
    fn unlabelled_scenario_is_one_epoch() {
        let s = Scenario::steady("s");
        let ep = s.epochs(1_000);
        assert_eq!(ep.len(), 1);
        assert_eq!(ep[0].label, "start");
    }
}
