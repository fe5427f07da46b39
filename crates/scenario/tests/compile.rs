//! Property-based coverage of the compiler: compilation must be a pure
//! function of the scenario (same input, same timeline, every time).

use mpw_scenario::{compile, Action, Scenario, TimedEvent};
use proptest::prelude::*;

/// Every action variant, constrained to values that pass validation so the
/// compiled-timeline properties can run on the same inputs. Selector-based
/// (the vendored proptest has no `prop_oneof!`).
fn arb_action() -> impl Strategy<Value = Action> {
    (
        0u8..5,
        1u64..100_000_000,
        1u64..100_000_000,
        0u64..20_000,
        1u32..8,
        0.0f64..0.24,
        any::<bool>(),
    )
        .prop_map(|(variant, a, b, over_ms, steps, loss, flag)| match variant {
            0 => Action::SetRate { bits_per_sec: a },
            1 => Action::SetLoss { mean_loss: loss, bursty: flag },
            2 => Action::LinkUp,
            3 => Action::WifiFade {
                from_bps: a.max(b),
                floor_bps: a.min(b),
                over_ms,
                steps,
            },
            _ => Action::SetBackup { backup: flag },
        })
}

fn arb_event() -> impl Strategy<Value = TimedEvent> {
    (0u64..600_000, 0usize..4, 0u8..8, arb_action()).prop_map(
        |(at_ms, path, label_sel, action)| TimedEvent {
            at_ms,
            path,
            // None plus a small label vocabulary: epoch labels are short
            // human words, and duplicates exercise the epoch logic.
            label: ["fade", "restored", "surge", "idle"]
                .get(label_sel as usize)
                .map(|l| l.to_string()),
            action,
        },
    )
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (0usize..6, proptest::collection::vec(arb_event(), 0..12)).prop_map(|(name_sel, events)| {
        Scenario { name: format!("scenario-{name_sel}"), events }
    })
}

proptest! {
    /// Compilation is deterministic and ordered: two compilations of the
    /// same scenario yield the same operations at the same nondecreasing
    /// times.
    #[test]
    fn compilation_is_deterministic_and_sorted(s in arb_scenario()) {
        let a = compile(&s).expect("generated scenarios are valid");
        let b = compile(&s).expect("generated scenarios are valid");
        prop_assert_eq!(a.ops.len(), b.ops.len());
        for (x, y) in a.ops.iter().zip(&b.ops) {
            prop_assert_eq!(x.at, y.at);
        }
        for w in a.ops.windows(2) {
            prop_assert!(w[0].at <= w[1].at, "timeline must be sorted");
        }
    }
}
