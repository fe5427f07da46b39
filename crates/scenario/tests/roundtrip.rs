//! Property-based coverage of the scenario file formats and the compiler:
//! any scenario the model can express must survive a serialize → reparse
//! trip identically, and compilation must be a pure function of the
//! scenario (same input, same timeline, every time).

use mpw_scenario::{compile, from_json, to_json, Action, Scenario, TimedEvent};
use proptest::prelude::*;

/// Every action variant, constrained to values that pass validation so the
/// compiled-timeline properties can run on the same inputs. Selector-based
/// (the vendored proptest has no `prop_oneof!`).
fn arb_action() -> impl Strategy<Value = Action> {
    (
        0u8..6,
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
            2 => Action::LinkDown,
            3 => Action::LinkUp,
            4 => Action::WifiFade {
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
    (
        0usize..6,
        any::<bool>(),
        proptest::collection::vec(arb_event(), 0..12),
    )
        .prop_map(|(name_sel, described, events)| Scenario {
            name: format!("scenario-{name_sel}"),
            description: if described {
                "generated by the round-trip property".to_string()
            } else {
                String::new()
            },
            events,
        })
}

proptest! {
    /// Serialize → reparse is the identity for every expressible scenario:
    /// a scenario saved to disk means exactly what was authored.
    #[test]
    fn json_roundtrip_is_identity(s in arb_scenario()) {
        let text = to_json(&s);
        let back = from_json(&text).expect("own serialization parses");
        prop_assert_eq!(s, back);
    }

    /// Serializing the reparse reproduces the byte-identical file: the
    /// format has one canonical rendering, so scenario files can be diffed
    /// and content-addressed.
    #[test]
    fn serialization_is_a_fixpoint(s in arb_scenario()) {
        let once = to_json(&s);
        let twice = to_json(&from_json(&once).expect("parses"));
        prop_assert_eq!(once, twice);
    }

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

    /// The round trip preserves compiled meaning, not just syntax: the
    /// reparsed scenario compiles to a timeline with identical op times.
    #[test]
    fn roundtrip_preserves_the_timeline(s in arb_scenario()) {
        let direct = compile(&s).expect("valid");
        let reparsed = compile(&from_json(&to_json(&s)).expect("parses")).expect("valid");
        prop_assert_eq!(direct.ops.len(), reparsed.ops.len());
        for (x, y) in direct.ops.iter().zip(&reparsed.ops) {
            prop_assert_eq!(x.at, y.at);
        }
    }
}
