//! The one script the benchmark parses (`benchmark/src/drives.rs`,
//! `HANDOVER_TOML`, timed as `scenario.parse_compile_us`). The benchmark
//! panics if it stops parsing or compiling, so a verbatim copy is pinned
//! here: a nested `WifiFade` table, the unit action `"LinkUp"` as a string
//! and an inline `SetBackup` table.

use mpw_scenario::{compile, from_toml, LinkOp, Op};
use mpw_sim::SimTime;

/// Verbatim copy of `benchmark/src/drives.rs`'s `HANDOVER_TOML`.
const HANDOVER_TOML: &str = r#"
name = "wifi-fade"
description = "walk out of AP range at t=3s"

[[events]]
at_ms = 3000
path = 0
label = "fade"

[events.action.WifiFade]
from_bps = 20000000
floor_bps = 500000
over_ms = 1000
steps = 4

[[events]]
at_ms = 9000
path = 0
label = "recover"
action = "LinkUp"

[[events]]
at_ms = 9000
path = 0
action = { SetBackup = { backup = false } }
"#;

#[test]
fn the_benchmark_script_parses_and_compiles() {
    let scenario = from_toml(HANDOVER_TOML).expect("script parses");
    assert_eq!(scenario.events.len(), 3);
    let timeline = compile(&scenario).expect("script compiles");
    // The fade: its MP_PRIO trigger, five rate/loss pairs and the blackout;
    // then the link coming back and the path's restore trigger.
    assert_eq!(timeline.ops.len(), 1 + 5 * 2 + 1 + 1 + 1);
    let first = timeline.ops.first().expect("ops");
    assert_eq!(first.at, SimTime::from_millis(3_000));
    assert!(matches!(first.op, Op::SetBackup { path: 0, backup: true }));
    let blackout = &timeline.ops[11];
    assert_eq!(blackout.at, SimTime::from_millis(4_000));
    assert!(matches!(blackout.op, Op::Link { path: 0, op: LinkOp::Down(true) }));
    let last = timeline.ops.last().expect("ops");
    assert_eq!(last.at, SimTime::from_millis(9_000));
    assert!(matches!(last.op, Op::SetBackup { path: 0, backup: false }));
}
